//! The work-stealing task-pool runtime: `(pattern, pivot-range)` and
//! `(rule, pivot-range)` work units over shared compiled structures.
//!
//! The barrier runtime ([`crate::cluster`]) mirrors the paper's distributed
//! deployment: state is partitioned into fragments, every candidate step is
//! a broadcast, and workers idle at a barrier until the slowest fragment
//! finishes. After PR 2 made [`CompiledPattern`] graph-independent and
//! cheap to share, that schedule's cost is dominated by idle tails and
//! per-barrier setup rather than real work. This module replaces it for
//! shared-memory execution:
//!
//! * **Work units, not fragments.** A unit is a contiguous *range* — of
//!   pivot candidates ([`Unit::Seed`]), of parent match rows
//!   ([`Unit::Harvest`], [`Unit::Join`]), of a pattern's table rows
//!   ([`Unit::BuildRange`], [`Unit::Evaluate`], [`Unit::LhsEmpty`]) — or
//!   one consequence of a small lattice ([`Unit::MineRhs`]). Ranges are
//!   even by construction ([`crate::partition::split_ranges`]); there is
//!   no skew to re-balance.
//! * **Stealing, not barriers.** The master pushes a *wave* of units onto
//!   per-worker injector deques (`crossbeam::deque`) with range affinity;
//!   workers drain their own deque first and steal from siblings when
//!   empty, so an uneven wave never leaves a worker idle while work
//!   remains.
//! * **Warm state.** Each worker keeps one [`MatcherScratch`] (the O(|V|)
//!   injectivity mark array, allocated once per thread) and the bitmap
//!   indexes of the pattern lattice it is currently evaluating, keyed by
//!   range — consecutive `(rule, pivot-range)` units with the same
//!   affinity hit the same warm bitmaps. The underlying shard tables are
//!   built exactly once and shared across workers behind an `Arc`
//!   ([`EvalSpec::shard_table`]); only the mutable bitmaps are
//!   per-worker. Harvest units fold their raw proposals into a per-worker
//!   [`ProposalAccumulator`] mid-wave, so the master merges at most
//!   `workers` accumulators instead of one result per range.
//! * **[`ExecMode::Simulated`]** runs units inline but assigns each unit's
//!   measured time and modelled cost to the virtual worker with the least
//!   accumulated load (greedy list scheduling — exactly what dynamic
//!   stealing approximates), so Fig. 5-style scalability curves remain
//!   reproducible without threads. The `work_makespan` schedule is computed
//!   from modelled costs in both modes and is therefore deterministic.
//!
//! [`par_dis_steal`] is one of three executors of `gfd-core`'s levelwise
//! [`Driver`]: the driver makes every schedule decision and emits every
//! rule, and this executor only turns its operations into waves — the
//! roots' seed wave, each level's join wave, and each level's build and
//! `MineRhs` waves (the build wave also harvests the next level). Unit
//! results merge in unit order, so the mined `DiscoveryResult` — rules,
//! supports, pattern and lattice counters — matches the sequential
//! algorithm's, and two runs on the same input are identical regardless
//! of thread interleaving. Evaluation units return their bitmap-index
//! meters with their results, so `evaluation_work` counts each accepted
//! unit once.
//! [`crate::parcover`]'s steal path uses the same pool.
//!
//! **Fault tolerance.** Determinism makes recovery output-invariant, so the
//! pool absorbs partial failure ([`crate::fault`]): worker bodies run each
//! unit inside a guarded `catch_unwind` boundary and report panics as
//! `Failed` replies; the master requeues failed units with bounded retry
//! (backoff charged to [`Clocks::fault_backoff`], never to the modelled
//! work schedule), drains a crashed worker's deque back onto survivors,
//! and speculatively re-executes units silent past the
//! [`FaultConfig::speculate_after`] watermark — first result wins, so
//! folding stays idempotent (harvests ship to the master instead of
//! per-worker accumulators whenever re-execution is possible). Completed
//! levels checkpoint to [`StealConfig::checkpoint`] and
//! [`StealConfig::resume`] continues a killed run to the same output.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use crossbeam::deque::{Injector, Steal};
use gfd_core::{
    finish_negatives, harvest_range_cached, merge_rhs_outcome, mine_dependencies_with,
    mine_rhs_with, BitmapIndex, CandidateEvaluator, CandidateStats, CatalogCounts, Covered,
    DiscoveryConfig, Driver, Executor, GenTree, HSpawnStats, Joined, LiteralCatalog, MatchTable,
    MineJob, MineOutcome, Mined, MinedDependency, PartialStats, ProposalAccumulator, RawHarvest,
    RhsMineOutcome, SignatureCache, Spawn,
};
use gfd_graph::{AttrId, FxHashMap, Graph, NodeId};
use gfd_logic::ClosureScratch;
use gfd_logic::{Literal, Rhs};
use gfd_pattern::{
    extend_matches_range, CompiledPattern, Extension, MatchSet, MatcherScratch, PLabel, Pattern,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::cluster::{Clocks, ExecMode};
use crate::fault::{
    self, Checkpoint, FaultConfig, FaultError, FaultPlan, FaultStats, FrontierNode, UnitFault,
};
use crate::pardis::ParDisReport;
use crate::partition::split_ranges;

/// Default for [`StealConfig::range_oversplit`] — how many ranges to cut
/// per row space, as a multiple of the worker count: a little
/// over-splitting gives the stealer something to grab when per-range costs
/// are uneven.
pub const RANGE_OVERSPLIT: usize = 2;

/// Virtual node ids for adaptively split sub-lattice specs: allocated
/// downward from `usize::MAX` so they can never collide with a
/// generation-tree node id in the workers' `(node, range)` shard caches —
/// those caches outlive waves — and never repeat within the process.
static VIRTUAL_NODE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

fn next_virtual_node() -> usize {
    usize::MAX - VIRTUAL_NODE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Configuration of the work-stealing runtime.
#[derive(Clone, Debug)]
pub struct StealConfig {
    /// Number of workers (threads in [`ExecMode::Threads`], virtual workers
    /// in [`ExecMode::Simulated`]).
    pub workers: usize,
    /// Execution mode (same semantics as the barrier runtime's).
    pub mode: ExecMode,
    /// Minimum rows per range unit: row spaces smaller than
    /// `workers × this` are cut into fewer, larger ranges.
    pub range_min_rows: usize,
    /// Tables with at least this many rows run their lattice through
    /// `(rule, pivot-range)` units ([`Unit::Evaluate`]); smaller lattices
    /// run as one [`Unit::MineRhs`] per consequence, which avoids
    /// per-candidate scheduling for the long tail of small patterns.
    pub range_rows_threshold: usize,
    /// Ranges cut per row space, as a multiple of the worker count.
    /// Bigger graphs benefit from more over-splitting: hub-heavy row
    /// spaces have skewed per-range costs, and extra ranges are what the
    /// stealer rebalances with. None of the three range knobs can change
    /// discovery output (pinned by the `*_invariant_under_range_knobs`
    /// tests) — only the schedule.
    pub range_oversplit: usize,
    /// Adversarial-scheduling seed for the determinism audit. `Some(seed)`
    /// perturbs every scheduling decision the output must *not* depend on:
    /// unit push order at wave boundaries is shuffled, affinity placement
    /// is replaced by seeded random queue assignment, and each worker
    /// steals from siblings in a seeded biased order instead of ring
    /// order. (In [`ExecMode::Simulated`], units are processed in shuffled
    /// order, exercising accumulator fold order.) Modelled costs and the
    /// greedy `work_makespan` schedule are computed from unit order and
    /// are unaffected. The `schedule_perturbation` suite asserts discovery
    /// output is bit-identical under any seed; production paths leave this
    /// `None`.
    pub perturb: Option<u64>,
    /// Fault-injection plan and recovery knobs (see [`crate::fault`]).
    pub fault: FaultConfig,
    /// Checkpoint file: when set, the driver snapshots the discovery
    /// frontier after every completed level (atomic temp-file + rename).
    pub checkpoint: Option<PathBuf>,
    /// Resume from [`StealConfig::checkpoint`] when the file exists (a
    /// missing file means a fresh run, not an error).
    pub resume: bool,
    /// Deterministic kill switch: stop with [`FaultError::Halted`] right
    /// after checkpointing this level — the crash half of crash/resume
    /// tests and smokes.
    pub halt_after_level: Option<usize>,
}

impl StealConfig {
    /// Default knobs for `workers` workers in `mode`.
    ///
    /// The range threshold is deliberately high: per-consequence `MineRhs`
    /// units already spread a lattice across the pool with *zero*
    /// per-candidate scheduling, so the candidate-by-candidate range path
    /// only pays off once a table is large enough that per-worker shard
    /// duplication (each worker materialises the rows it mines) costs more
    /// than one master round-trip per candidate.
    pub fn new(workers: usize, mode: ExecMode) -> StealConfig {
        StealConfig {
            workers,
            mode,
            range_min_rows: 1024,
            range_rows_threshold: 262_144,
            range_oversplit: RANGE_OVERSPLIT,
            perturb: None,
            fault: FaultConfig::default(),
            checkpoint: None,
            resume: false,
            halt_after_level: None,
        }
    }

    /// Graph-size-aware defaults: [`StealConfig::new`]'s knobs were tuned
    /// on 12k-node scenarios; at million-node scale the same constants cut
    /// harvest/join row spaces into ranges too fine to amortise scheduling
    /// and give the stealer too few ranges against hub skew. `size` is
    /// `|V| + |E|` ([`Graph::size`]):
    ///
    /// * `range_min_rows` grows with size (≈ `size / 1024`, a power of
    ///   two in `[1024, 16384]`) so per-range work stays coarse,
    /// * `range_rows_threshold` grows with size (≈ `size / 16`, clamped
    ///   to `[262144, 2097152]`) so mid-sized lattices keep the cheap
    ///   single-`Mine` path even when tables are scaled up,
    /// * `range_oversplit` doubles past one million so stolen ranges can
    ///   absorb power-law hub skew.
    ///
    /// Every knob still accepts explicit override after construction (the
    /// CLI's `--range-rows` does exactly that).
    pub fn tuned(workers: usize, mode: ExecMode, size: usize) -> StealConfig {
        let mut cfg = StealConfig::new(workers, mode);
        cfg.range_min_rows = (size / 1024).next_power_of_two().clamp(1024, 16_384);
        cfg.range_rows_threshold = (size / 16).next_power_of_two().clamp(262_144, 2_097_152);
        if size >= 1 << 20 {
            cfg.range_oversplit = 2 * RANGE_OVERSPLIT;
        }
        cfg
    }

    /// Returns the config with adversarial scheduling enabled (see
    /// [`StealConfig::perturb`]).
    pub fn with_perturbation(mut self, seed: u64) -> StealConfig {
        self.perturb = Some(seed);
        self
    }

    /// Returns the config with the given fault-injection plan.
    pub fn with_faults(mut self, fault: FaultConfig) -> StealConfig {
        self.fault = fault;
        self
    }
}

/// Shared description of one pattern's row-range partition: every
/// `(rule, pivot-range)` unit of the lattice carries an `Arc` of this, so a
/// stealing worker can reach any shard it does not hold warm.
#[derive(Debug)]
pub struct EvalSpec {
    /// Generation-tree node id (worker cache key).
    pub node: usize,
    /// The pattern.
    pub q: Arc<Pattern>,
    /// All match rows of the pattern.
    pub ms: Arc<MatchSet>,
    /// Active attributes `Γ`.
    pub attrs: Arc<Vec<AttrId>>,
    /// The contiguous row ranges, in order.
    pub ranges: Vec<(usize, usize)>,
    /// Shard tables, one slot per range: built exactly once (by whichever
    /// worker touches the range first) and shared behind an `Arc` by every
    /// worker mining the pattern. Bitmap indexes stay worker-local — they
    /// mutate as literal bitmaps build lazily — but the table build scan
    /// is never duplicated.
    tables: Vec<OnceLock<Arc<MatchTable>>>,
}

impl EvalSpec {
    /// A spec over `ranges` with empty shared-table slots.
    pub fn new(
        node: usize,
        q: Arc<Pattern>,
        ms: Arc<MatchSet>,
        attrs: Arc<Vec<AttrId>>,
        ranges: Vec<(usize, usize)>,
    ) -> EvalSpec {
        let tables = (0..ranges.len()).map(|_| OnceLock::new()).collect();
        EvalSpec {
            node,
            q,
            ms,
            attrs,
            ranges,
            tables,
        }
    }

    /// The shared table of `range`, built on first use and `Arc`-cloned
    /// for every later caller.
    pub fn shard_table(&self, g: &Graph, range: usize) -> Arc<MatchTable> {
        Arc::clone(self.tables[range].get_or_init(|| {
            let (lo, hi) = self.ranges[range];
            Arc::new(MatchTable::build_range(
                &self.q,
                &self.ms,
                g,
                &self.attrs,
                lo,
                hi,
            ))
        }))
    }

    /// The shared table of `range`, if some worker has built it already.
    pub fn built_table(&self, range: usize) -> Option<&Arc<MatchTable>> {
        self.tables[range].get()
    }
}

/// One work unit pulled by a worker. Units are cheap to clone (shared
/// state travels behind `Arc`s), which is what lets the master keep a
/// backup of an in-flight wave for retry and speculation.
#[derive(Clone)]
pub enum Unit {
    /// Match a compiled pattern over the pivot candidates `[lo, hi)`.
    Seed {
        /// Shared compiled pattern (never recompiled per unit).
        cp: Arc<CompiledPattern>,
        /// The full pivot candidate list.
        pivots: Arc<Vec<NodeId>>,
        /// Range start.
        lo: usize,
        /// Range end.
        hi: usize,
    },
    /// Harvest extension proposals from match rows `[lo, hi)`, folding the
    /// raw result into the worker's [`ProposalAccumulator`] (drained by
    /// the master once per wave) instead of shipping it per unit.
    Harvest {
        /// Generation-tree node id (the accumulator key).
        node: usize,
        /// The pattern.
        q: Arc<Pattern>,
        /// Its matches.
        ms: Arc<MatchSet>,
        /// Discovery configuration.
        cfg: Arc<DiscoveryConfig>,
        /// Range start.
        lo: usize,
        /// Range end.
        hi: usize,
    },
    /// The incremental join `Q ⋈ e` over parent rows `[lo, hi)`.
    Join {
        /// Parent pattern.
        q: Arc<Pattern>,
        /// Parent matches.
        ms: Arc<MatchSet>,
        /// The single-edge extension.
        ext: Extension,
        /// Range start.
        lo: usize,
        /// Range end.
        hi: usize,
    },
    /// Build (and keep warm) one table shard, returning its literal counts.
    BuildRange {
        /// The shared range partition.
        spec: Arc<EvalSpec>,
        /// Which range.
        range: usize,
    },
    /// Evaluate `X → rhs` on one shard — the `(rule, pivot-range)` unit.
    Evaluate {
        /// The shared range partition.
        spec: Arc<EvalSpec>,
        /// Which range.
        range: usize,
        /// Premises (shared across the candidate's range units).
        x: Arc<[Literal]>,
        /// Consequence.
        rhs: Rhs,
    },
    /// Whether no row of one shard satisfies `X` (the `NHSpawn` test).
    LhsEmpty {
        /// The shared range partition.
        spec: Arc<EvalSpec>,
        /// Which range.
        range: usize,
        /// Premises.
        x: Arc<[Literal]>,
    },
    /// Mine one consequence's whole sub-lattice on one worker — the
    /// coarse-grained `(rule, pivot-range)` unit for patterns whose tables
    /// fit one shard (the long tail). Sub-lattices of distinct
    /// consequences are independent ([`gfd_core::mine_rhs_with`]), so a
    /// pattern's lattice spreads over the pool at per-literal granularity
    /// without any per-candidate scheduling.
    MineRhs {
        /// The (single-range) shard spec.
        spec: Arc<EvalSpec>,
        /// The pattern's literal catalog (shared across its units).
        catalog: Arc<LiteralCatalog>,
        /// Index of the consequence in `catalog.literals`.
        l_idx: usize,
        /// Covered signatures inherited from the parent pattern.
        covered: Arc<Vec<Covered>>,
        /// Discovery configuration.
        cfg: Arc<DiscoveryConfig>,
    },
}

/// Result of one [`Unit`].
pub enum UnitResult {
    /// Matches of a seed range.
    Seeded(MatchSet),
    /// A harvest range was folded into the worker's accumulator (the
    /// pivots travel via [`StealPool::drain_accumulators`], not per unit).
    HarvestFolded,
    /// A harvest range's raw proposals, shipped whole to the master.
    /// Fault-tolerant threaded waves use this instead of per-worker
    /// folding: a re-executed or speculated harvest unit may run twice,
    /// and only the master knows which copy won — it folds exactly one
    /// per unit index, keeping the accumulator idempotent.
    Harvested {
        /// Generation-tree node id (the accumulator key).
        node: usize,
        /// The raw harvest of the range.
        raw: Box<gfd_core::RawHarvest>,
    },
    /// Join output: child rows (in parent-row order) plus the range's
    /// distinct pivot images (sorted).
    Joined {
        /// Child match rows.
        ms: MatchSet,
        /// Sorted distinct pivots of those rows.
        pivots: Vec<NodeId>,
    },
    /// Literal-candidate counts of one shard.
    Counts(Box<CatalogCounts>),
    /// Partial candidate evaluation of one shard, and the
    /// [`BitmapIndex::work`] it added.
    Stats(Box<PartialStats>, u64),
    /// Shard-local LHS emptiness, and the [`BitmapIndex::work`] the test
    /// added.
    Empty(bool, u64),
    /// One consequence's mined sub-lattice, and the [`BitmapIndex::work`]
    /// its evaluations added.
    RhsMined(Box<RhsMineOutcome>, u64),
}

/// Cached shards per worker before a wholesale eviction. Shards are small
/// (a range of one pattern's table plus its lazily built bitmaps) and the
/// working set at any moment is one lattice wave's worth; the cap only
/// guards against pathological accumulation across levels.
const SHARD_CACHE_CAP: usize = 64;

/// Per-worker state: the shared graph plus warm scratch and table shards.
struct WorkerState {
    g: Arc<Graph>,
    /// Matcher buffers, allocated once per worker.
    scratch: Option<MatcherScratch>,
    /// Reusable closure union–find for `MineRhs` lattices.
    closure: ClosureScratch,
    /// Warm shards, keyed by (node, range): the `Arc`-shared table plus
    /// this worker's own lazily built bitmap index.
    cache: FxHashMap<(usize, usize), (Arc<MatchTable>, BitmapIndex)>,
    /// Harvests folded mid-wave, drained by the master once per wave.
    accum: ProposalAccumulator,
    /// Fault-tolerant waves ship raw harvests to the master instead of
    /// folding locally: local folds are not idempotent under re-execution.
    ship_harvests: bool,
    /// Generation-scoped node-signature cache for harvest units. The graph
    /// is frozen for the whole run so entries never invalidate; cache hits
    /// recharge the original scan work, keeping `spawning_work` a pure
    /// function of the input regardless of which units this worker ran.
    sig_cache: SignatureCache,
}

impl WorkerState {
    fn new(g: Arc<Graph>) -> WorkerState {
        WorkerState {
            g,
            scratch: Some(MatcherScratch::new()),
            closure: ClosureScratch::new(),
            cache: FxHashMap::default(),
            accum: ProposalAccumulator::default(),
            ship_harvests: false,
            sig_cache: SignatureCache::default(),
        }
    }

    /// Discards every cache a panicking unit may have left half-written
    /// (shard bitmaps mid-build, closure scratch mid-union). The matcher
    /// scratch is immune — `process` takes it out before use and a fresh
    /// default replaces a lost one.
    fn reset_after_panic(&mut self) {
        self.cache.clear();
        self.closure = ClosureScratch::new();
        self.sig_cache = SignatureCache::default();
        if self.scratch.is_none() {
            self.scratch = Some(MatcherScratch::new());
        }
    }

    /// The warm shard for `(spec.node, range)`: on a cache miss the shared
    /// table is fetched (or built, exactly once across all workers) and a
    /// fresh worker-local bitmap index attached.
    fn shard(&mut self, spec: &EvalSpec, range: usize) -> &mut (Arc<MatchTable>, BitmapIndex) {
        ensure_shard(&mut self.cache, &self.g, spec, range)
    }

    /// Processes one unit, returning its result and modelled cost (rows
    /// touched — the deterministic load measure).
    fn process(&mut self, unit: Unit) -> (UnitResult, u64) {
        match unit {
            Unit::Seed { cp, pivots, lo, hi } => {
                let mut out = MatchSet::new(cp.pattern().node_count());
                let scratch = self.scratch.take().unwrap_or_default();
                let mut m = cp.matcher_from(&self.g, scratch);
                let found = m.match_pivots_into(&pivots[lo..hi], &mut out);
                self.scratch = Some(m.into_scratch());
                let cost = (hi - lo + found) as u64;
                (UnitResult::Seeded(out), cost)
            }
            Unit::Harvest {
                node,
                q,
                ms,
                cfg,
                lo,
                hi,
            } => {
                let raw = harvest_range_cached(&q, &ms, &self.g, &cfg, lo, hi, &mut self.sig_cache);
                let cost = (hi - lo).max(1) as u64;
                if self.ship_harvests {
                    // Fault-tolerant wave: the master folds the winning
                    // copy of each unit, so re-execution cannot double-
                    // count (the fold is not idempotent; first-wins is).
                    return (
                        UnitResult::Harvested {
                            node,
                            raw: Box::new(raw),
                        },
                        cost,
                    );
                }
                // The merge rides the wave: folding here is the per-worker
                // half; the master only combines ≤ `workers` accumulators.
                self.accum.fold(node, raw);
                (UnitResult::HarvestFolded, cost)
            }
            Unit::Join { q, ms, ext, lo, hi } => {
                let child = q.extend(&ext);
                let out = extend_matches_range(&q, &ms, &ext, &self.g, lo, hi);
                // The pivot is a pattern variable, so it is in bounds for
                // every match row (rows have exactly pattern-width entries).
                let pivot_var = child.pivot();
                let mut pivots: Vec<NodeId> = out.iter().map(|m| m[pivot_var]).collect();
                pivots.sort_unstable();
                pivots.dedup();
                let cost = (hi - lo + out.len()) as u64;
                (UnitResult::Joined { ms: out, pivots }, cost)
            }
            Unit::BuildRange { spec, range } => {
                let (t, _) = self.shard(&spec, range);
                let counts = CatalogCounts::count(t);
                let cost = t.rows().max(1) as u64;
                (UnitResult::Counts(Box::new(counts)), cost)
            }
            Unit::Evaluate {
                spec,
                range,
                x,
                rhs,
            } => {
                let (t, idx) = self.shard(&spec, range);
                let w0 = idx.work();
                let stats = Box::new(idx.partial_evaluate(t, &x, &rhs));
                // Metered by the evaluator's deterministic memory-touch
                // counter, the same currency as the MineRhs units.
                let work = idx.work() - w0;
                (UnitResult::Stats(stats, work), work.max(1))
            }
            Unit::LhsEmpty { spec, range, x } => {
                let (t, idx) = self.shard(&spec, range);
                let w0 = idx.work();
                let empty = !idx.lhs_satisfiable(t, &x);
                let work = idx.work() - w0;
                (UnitResult::Empty(empty, work), work.max(1))
            }
            Unit::MineRhs {
                spec,
                catalog,
                l_idx,
                covered,
                cfg,
            } => {
                let l = catalog.literals[l_idx];
                let rows = spec.ms.len();
                // Field-split borrows: the shard comes from `self.cache`,
                // the closure scratch from `self.closure`.
                let closure = &mut self.closure;
                let (t, idx) = ensure_shard(&mut self.cache, &self.g, &spec, 0);
                let w0 = idx.work();
                let mut eval = ShardEval { t: t.as_ref(), idx };
                let o = mine_rhs_with(&mut eval, &catalog, l, &covered, &cfg, closure);
                // Modelled cost: one σ-bound scan (`rows`) plus the
                // evaluator's own deterministic memory-touch meter (words
                // ANDed/popcounted + pivot rows walked) — a pure function
                // of the unit's input, schedule-independent, and in the
                // same one-touch-per-unit currency as the row-scan units.
                // The legacy full-scan model charged `rows` per candidate;
                // the prefix-shared DFS's real word-level savings now show
                // up as modelled savings (the shard build itself is
                // charged by its BuildRange unit).
                let work = eval.idx.work() - w0;
                let cost = rows.max(1) as u64 + work;
                (UnitResult::RhsMined(Box::new(o), work), cost)
            }
        }
    }
}

/// Looks up the warm shard for `(spec.node, range)` in a worker's cache —
/// the single definition of the shard recipe and the cache-cap eviction,
/// shared by every unit kind. On a miss the `Arc`-shared table comes from
/// the spec (built once across the whole pool); only the bitmap index is
/// created per worker.
fn ensure_shard<'a>(
    cache: &'a mut FxHashMap<(usize, usize), (Arc<MatchTable>, BitmapIndex)>,
    g: &Graph,
    spec: &EvalSpec,
    range: usize,
) -> &'a mut (Arc<MatchTable>, BitmapIndex) {
    let key = (spec.node, range);
    if !cache.contains_key(&key) && cache.len() >= SHARD_CACHE_CAP {
        cache.clear();
    }
    cache.entry(key).or_insert_with(|| {
        let t = spec.shard_table(g, range);
        let idx = BitmapIndex::new(&t);
        (t, idx)
    })
}

/// Evaluator over one warm shard (drives [`Unit::MineRhs`] lattices).
struct ShardEval<'a> {
    t: &'a MatchTable,
    idx: &'a mut BitmapIndex,
}

impl CandidateEvaluator for ShardEval<'_> {
    fn evaluate(&mut self, x: &[Literal], rhs: &Rhs) -> CandidateStats {
        self.idx.evaluate(self.t, x, rhs)
    }

    fn lhs_empty(&mut self, x: &[Literal]) -> bool {
        !self.idx.lhs_satisfiable(self.t, x)
    }

    fn begin_rhs(&mut self) {
        self.idx.stack_begin(self.t);
    }

    fn eval_child(
        &mut self,
        _x: &[Literal],
        cand: Literal,
        l: Literal,
        parent_sat_hint: usize,
        sigma: usize,
        fast: bool,
    ) -> CandidateStats {
        self.idx
            .stack_eval_child(self.t, cand, l, parent_sat_hint, sigma, fast)
    }

    fn push_prefix(&mut self) {
        self.idx.stack_push();
    }

    fn pop_prefix(&mut self) {
        self.idx.stack_pop();
    }
}

enum PoolMsg {
    Wake,
    /// Hand the worker's folded [`ProposalAccumulator`] to the master.
    Drain,
    Stop,
}

/// One queued unit: `(wave, index-in-wave, attempt, unit)`. The wave tag
/// filters stale replies; the attempt tag makes fault injection fire on
/// first executions only and distinguishes speculative copies.
type QueueItem = (u64, usize, u32, Unit);

/// What a worker sends back per pulled unit.
enum WorkerReply {
    /// The unit completed.
    Done {
        wave: u64,
        idx: usize,
        attempt: u32,
        result: UnitResult,
        cost: u64,
        wall: Duration,
    },
    /// The unit panicked inside the fault boundary.
    Failed {
        wave: u64,
        idx: usize,
        attempt: u32,
        msg: String,
    },
    /// The worker hit its planned crash point and stopped pulling work.
    Crashed { worker: usize },
}

/// The master-side handle to the pool.
pub struct StealPool {
    mode: ExecMode,
    workers: usize,
    /// Per-worker affinity deques (threads mode).
    queues: Vec<Arc<Injector<QueueItem>>>,
    wake: Vec<Sender<PoolMsg>>,
    results: Option<Receiver<WorkerReply>>,
    /// Per-worker accumulator hand-off (threads mode).
    accums: Option<Receiver<ProposalAccumulator>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Inline worker state (simulated mode).
    sim: Option<WorkerState>,
    /// Time and modelled-work bookkeeping (shared shape with the barrier
    /// runtime so reports stay comparable; `comm_*` stays zero — the pool
    /// models a shared-memory machine).
    pub clocks: Clocks,
    rr: usize,
    /// Adversarial-scheduling seed (see [`StealConfig::perturb`]).
    perturb: Option<u64>,
    /// The materialised fault schedule (empty without injection).
    plan: FaultPlan,
    /// Whether any recovery machinery is armed: master-side harvest
    /// folding, retry/requeue, speculation, and timeouts all key off this.
    fault_mode: bool,
    max_retries: u32,
    speculate_after: Option<Duration>,
    wave_timeout: Option<Duration>,
    /// Workers observed dead (crash replies); routing avoids them.
    dead: Vec<bool>,
    /// Sticky failure: once a wave fails, later waves short-circuit.
    failed: Option<FaultError>,
    /// Winning harvests folded by the master (fault-tolerant waves only).
    master_accum: ProposalAccumulator,
    /// Recovery counters for [`gfd_core::DiscoveryStats`].
    pub fstats: FaultStats,
}

/// Seeded Fisher–Yates shuffle (the vendored `rand` has no shuffle
/// helper).
fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        let j = rng.random_range(0..=i);
        xs.swap(i, j);
    }
}

/// Per-worker steal-victim visit orders: ring order `id+1, id+2, …` by
/// default, a seeded per-worker biased shuffle under perturbation.
fn victim_orders(n: usize, perturb: Option<u64>) -> Vec<Vec<usize>> {
    (0..n)
        .map(|id| {
            let mut order: Vec<usize> = (1..n).map(|off| (id + off) % n).collect();
            if let Some(seed) = perturb {
                let mut rng = StdRng::seed_from_u64(
                    seed.wrapping_add(0x9e37_79b9_7f4a_7c15)
                        .wrapping_mul(id as u64 + 1),
                );
                shuffle(&mut order, &mut rng);
            }
            order
        })
        .collect()
}

impl StealPool {
    /// Builds a pool of `cfg.workers` workers over the shared graph.
    pub fn new(g: Arc<Graph>, cfg: &StealConfig) -> StealPool {
        assert!(cfg.workers > 0, "at least one worker required");
        let n = cfg.workers;
        let plan = FaultPlan::from_config(&cfg.fault, n);
        let mut speculate_after = cfg.fault.speculate_after;
        if cfg.mode == ExecMode::Threads && plan.has_drops() && speculate_after.is_none() {
            // A dropped result leaves nothing to receive: without a
            // watermark the master would wait forever. Arm a default.
            speculate_after = Some(Duration::from_millis(25));
        }
        let fault_mode =
            !plan.is_empty() || speculate_after.is_some() || cfg.fault.wave_timeout.is_some();
        let queues: Vec<Arc<Injector<QueueItem>>> =
            (0..n).map(|_| Arc::new(Injector::new())).collect();
        let mut wake = Vec::new();
        let mut handles = Vec::new();
        let mut results = None;
        let mut accums = None;
        let mut sim = None;

        match cfg.mode {
            ExecMode::Simulated => {
                sim = Some(WorkerState::new(g));
            }
            ExecMode::Threads => {
                if fault_mode {
                    fault::install_quiet_panic_hook();
                }
                let (res_tx, res_rx) = unbounded::<WorkerReply>();
                let (acc_tx, acc_rx) = unbounded::<ProposalAccumulator>();
                results = Some(res_rx);
                accums = Some(acc_rx);
                let orders = victim_orders(n, cfg.perturb);
                for (id, victims) in orders.into_iter().enumerate() {
                    let (wake_tx, wake_rx) = unbounded::<PoolMsg>();
                    wake.push(wake_tx);
                    let queues = queues.clone();
                    let res_tx = res_tx.clone();
                    let acc_tx = acc_tx.clone();
                    let g = Arc::clone(&g);
                    let plan = plan.clone();
                    handles.push(std::thread::spawn(move || {
                        let mut state = WorkerState::new(g);
                        state.ship_harvests = fault_mode;
                        // Units completed in the wave currently being
                        // pulled — the planned crash point counts these.
                        let mut progress: (u64, usize) = (0, 0);
                        loop {
                            // Drain own deque first, then steal.
                            while let Some((wave, idx, attempt, unit)) =
                                pop_any(id, &queues, &victims)
                            {
                                if wave != progress.0 {
                                    progress = (wave, 0);
                                }
                                if let Some(after) = plan.crash_point(wave, id) {
                                    if progress.1 >= after {
                                        // Put the unit back for survivors,
                                        // announce the crash, stop pulling.
                                        queues[id].push((wave, idx, attempt, unit));
                                        let _ = res_tx.send(WorkerReply::Crashed { worker: id });
                                        return;
                                    }
                                }
                                let injected = plan.unit_fault(wave, idx, attempt);
                                let t0 = Instant::now();
                                // fault-boundary: a panicking unit (injected
                                // or genuine) becomes a Failed reply; the
                                // caches it may have half-written are reset
                                // below before the state is reused.
                                let outcome = fault::run_guarded(|| {
                                    if matches!(injected, Some(UnitFault::Panic)) {
                                        fault::injected_panic(wave, idx);
                                    }
                                    state.process(unit)
                                });
                                // Wall time in its own binding: the
                                // modelled `cost` channel never touches
                                // the clock.
                                let wall = t0.elapsed();
                                progress.1 += 1;
                                match outcome {
                                    Ok((result, cost)) => {
                                        if let Some(UnitFault::Straggle(d)) = injected {
                                            std::thread::sleep(d);
                                        }
                                        if matches!(injected, Some(UnitFault::DropResult)) {
                                            continue;
                                        }
                                        let _ = res_tx.send(WorkerReply::Done {
                                            wave,
                                            idx,
                                            attempt,
                                            result,
                                            cost,
                                            wall,
                                        });
                                    }
                                    Err(msg) => {
                                        state.reset_after_panic();
                                        let _ = res_tx.send(WorkerReply::Failed {
                                            wave,
                                            idx,
                                            attempt,
                                            msg,
                                        });
                                    }
                                }
                            }
                            match wake_rx.recv() {
                                Ok(PoolMsg::Wake) => continue,
                                Ok(PoolMsg::Drain) => {
                                    let _ = acc_tx.send(std::mem::take(&mut state.accum));
                                }
                                _ => return,
                            }
                        }
                    }));
                }
            }
        }

        StealPool {
            mode: cfg.mode,
            workers: n,
            queues,
            wake,
            results,
            accums,
            handles,
            sim,
            clocks: Clocks::default(),
            rr: 0,
            perturb: cfg.perturb,
            plan,
            fault_mode,
            max_retries: cfg.fault.max_retries,
            speculate_after,
            wave_timeout: cfg.fault.wave_timeout,
            dead: vec![false; n],
            failed: None,
            master_accum: ProposalAccumulator::default(),
            fstats: FaultStats::default(),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Preferred queue for a unit: `(rule, pivot-range)` units go to the
    /// worker that (most likely) holds the range's shard warm — keyed by
    /// `(node, range)` so consecutive candidates of one lattice revisit
    /// the same workers while different patterns spread out; everything
    /// else round-robins.
    fn affinity(&mut self, unit: &Unit) -> usize {
        match unit {
            // Wrapping: adaptively split specs carry virtual node ids
            // allocated downward from `usize::MAX`.
            Unit::BuildRange { spec, range }
            | Unit::Evaluate { spec, range, .. }
            | Unit::LhsEmpty { spec, range, .. } => spec.node.wrapping_add(*range) % self.workers,
            Unit::MineRhs { spec, l_idx, .. } => spec.node.wrapping_add(*l_idx) % self.workers,
            _ => {
                self.rr = (self.rr + 1) % self.workers;
                self.rr
            }
        }
    }

    /// Runs one wave of units to completion and returns results in unit
    /// order. Within a wave there is no barrier: workers pull units until
    /// none remain, stealing across deques as they drain. Failures are
    /// sticky: once a wave errors, every later wave short-circuits to the
    /// same error ([`StealPool::check`] exposes it between waves).
    pub fn run_wave(&mut self, units: Vec<Unit>) -> Result<Vec<UnitResult>, FaultError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        match self.try_wave(units) {
            Ok(out) => Ok(out),
            Err(e) => {
                self.failed = Some(e.clone());
                Err(e)
            }
        }
    }

    /// The sticky failure of an earlier wave, if any — for drivers whose
    /// inner evaluators cannot propagate errors mid-lattice.
    pub fn check(&self) -> Result<(), FaultError> {
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn try_wave(&mut self, units: Vec<Unit>) -> Result<Vec<UnitResult>, FaultError> {
        let n = units.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let wave = self.clocks.barriers as u64 + 1;
        let mut out: Vec<Option<UnitResult>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let mut costs = vec![0u64; n];
        let mut durs = vec![Duration::ZERO; n];

        // Determinism audit: under perturbation, force a seeded unit
        // reordering at this wave boundary. Results land by unit index and
        // the driver emits in spawn order, so the mined output must not
        // change; the greedy cost schedule below iterates unit order, so
        // `work_makespan` must not change either.
        let mut wave_rng = self
            .perturb
            .map(|seed| StdRng::seed_from_u64(seed ^ wave.wrapping_mul(0x9e37_79b9_7f4a_7c15)));

        match self.mode {
            ExecMode::Simulated => {
                // gfd-lint: allow(no-panic) — `sim` is Some exactly when mode is Simulated, established once in the constructor
                let state = self.sim.as_mut().expect("simulated state");
                let mut order: Vec<(usize, Unit)> = units.into_iter().enumerate().collect();
                if let Some(rng) = &mut wave_rng {
                    // Shuffled processing order exercises shard-cache and
                    // accumulator fold order without touching results.
                    shuffle(&mut order, rng);
                }
                for (idx, unit) in order {
                    let t0 = Instant::now();
                    let (r, cost) = state.process(unit);
                    durs[idx] = t0.elapsed();
                    costs[idx] = cost;
                    out[idx] = Some(r);
                }
                self.simulate_faults(wave, n, &mut durs)?;
            }
            ExecMode::Threads => {
                let backup: Vec<Unit> = if self.fault_mode {
                    units.clone()
                } else {
                    Vec::new()
                };
                let mut order: Vec<(usize, Unit)> = units.into_iter().enumerate().collect();
                if let Some(rng) = &mut wave_rng {
                    shuffle(&mut order, rng);
                }
                for (idx, unit) in order {
                    // Perturbed placement ignores affinity entirely: any
                    // queue must be a correct home for any unit.
                    let w = match &mut wave_rng {
                        Some(rng) => rng.random_range(0..self.workers),
                        None => self.affinity(&unit),
                    };
                    // gfd-lint: allow(no-panic) — route() reduces mod self.workers == queues.len()
                    self.queues[self.route(w)].push((wave, idx, 0, unit));
                }
                self.wake_live();
                // The receiver moves out for the collection loop (which
                // mutates queues/counters) and back in afterwards, error
                // or not.
                let Some(rx) = self.results.take() else {
                    return Err(FaultError::AllWorkersLost);
                };
                let collected =
                    self.collect_wave(&rx, wave, &backup, &mut out, &mut costs, &mut durs);
                self.results = Some(rx);
                collected?;
            }
        }

        // Greedy list scheduling over modelled costs — what dynamic
        // stealing approximates — charged identically in both modes so the
        // work-makespan (and the simulated time derived from the same
        // schedule) is deterministic and thread-interleaving-independent.
        // Under fault injection the schedule runs over the *planned*
        // survivors: actual thread death may lag the plan (an idle worker
        // only notices its crash when it next pulls), and modelled clocks
        // must not depend on that race.
        let planned_dead = self.plan.planned_dead(wave, self.workers);
        let survivors: Vec<usize> = (0..self.workers).filter(|&w| !planned_dead[w]).collect();
        if survivors.is_empty() {
            return Err(FaultError::AllWorkersLost);
        }
        let mut load = vec![0u64; self.workers];
        let mut busy = vec![Duration::ZERO; self.workers];
        for i in 0..n {
            let w = survivors
                .iter()
                .copied()
                .min_by_key(|&w| load[w])
                .unwrap_or(0);
            load[w] += costs[i];
            busy[w] += durs[i];
        }
        self.clocks.work_makespan += load.iter().max().copied().unwrap_or(0);
        self.clocks.work_busy += costs.iter().sum::<u64>();
        self.clocks.makespan += busy.iter().max().copied().unwrap_or_default();
        self.clocks.busy += durs.iter().sum::<Duration>();
        self.clocks.barriers += 1;

        // gfd-lint: allow(no-panic) — the loops above store one result at every index 0..n before reaching here
        Ok(out.into_iter().map(|r| r.expect("result placed")).collect())
    }

    /// Applies the wave's planned faults to the simulated clocks: panics
    /// and drops become retry/backoff charges, stragglers extend their
    /// unit's measured duration, crashes shrink the planned survivor set
    /// used by the greedy schedule. Inline execution already produced
    /// every result, so output invariance is structural here; the threaded
    /// mode proves the hard half.
    fn simulate_faults(
        &mut self,
        wave: u64,
        n: usize,
        durs: &mut [Duration],
    ) -> Result<(), FaultError> {
        if self.plan.is_empty() {
            return Ok(());
        }
        let mut recovered = false;
        for (idx, dur) in durs.iter_mut().enumerate().take(n) {
            match self.plan.unit_fault(wave, idx, 0) {
                Some(UnitFault::Panic) | Some(UnitFault::DropResult) => {
                    self.fstats.retries += 1;
                    self.clocks.fault_backoff += 2;
                    recovered = true;
                }
                Some(UnitFault::Straggle(d)) => {
                    *dur += d;
                    recovered = true;
                }
                None => {}
            }
        }
        let planned_dead = self.plan.planned_dead(wave, self.workers);
        for (w, planned) in planned_dead.iter().enumerate().take(self.workers) {
            if *planned && !self.dead[w] {
                self.dead[w] = true;
                self.fstats.requeued_units += 1;
                recovered = true;
            }
        }
        if recovered {
            self.fstats.recovered_waves += 1;
        }
        Ok(())
    }

    /// Threaded result collection with recovery: first-result-wins dedup,
    /// bounded retry of failed units, crash drain + redistribution, the
    /// speculation watermark, and the configured wave deadline.
    fn collect_wave(
        &mut self,
        rx: &Receiver<WorkerReply>,
        wave: u64,
        backup: &[Unit],
        out: &mut [Option<UnitResult>],
        costs: &mut [u64],
        durs: &mut [Duration],
    ) -> Result<(), FaultError> {
        let n = out.len();
        let started = Instant::now();
        let mut sent_at = vec![started; n];
        let mut attempts = vec![0u32; n];
        let mut speculated = vec![false; n];
        let mut remaining = n;
        let mut recovered = false;
        // Poll cadence: half the tightest armed deadline (watermark or
        // wave timeout); no deadline means plain blocking receives.
        let tick = [self.speculate_after, self.wave_timeout]
            .into_iter()
            .flatten()
            .min()
            .map(|d| (d / 2).max(Duration::from_millis(1)));

        while remaining > 0 {
            let reply = match tick {
                None => match rx.recv() {
                    Ok(r) => Some(r),
                    Err(_) => return Err(FaultError::AllWorkersLost),
                },
                Some(t) => match rx.recv_timeout(t) {
                    Ok(r) => Some(r),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => return Err(FaultError::AllWorkersLost),
                },
            };
            let Some(reply) = reply else {
                // Tick with nothing received: check the wave deadline,
                // then speculate on units silent past the watermark.
                if let Some(limit) = self.wave_timeout {
                    if started.elapsed() > limit {
                        return Err(FaultError::WaveTimeout {
                            wave,
                            outstanding: remaining,
                        });
                    }
                }
                if let Some(watermark) = self.speculate_after {
                    let mut launched = false;
                    for idx in 0..n {
                        if out[idx].is_some() || speculated[idx] {
                            continue;
                        }
                        if sent_at[idx].elapsed() <= watermark {
                            continue;
                        }
                        // At most one speculative copy per unit: enough to
                        // survive one drop/straggler without amplifying
                        // load quadratically.
                        speculated[idx] = true;
                        attempts[idx] += 1;
                        let w = self.route(idx + attempts[idx] as usize);
                        self.queues[w].push((wave, idx, attempts[idx], backup[idx].clone()));
                        sent_at[idx] = Instant::now();
                        self.fstats.requeued_units += 1;
                        recovered = true;
                        launched = true;
                    }
                    if launched {
                        self.wake_live();
                    }
                }
                continue;
            };
            match reply {
                WorkerReply::Done {
                    wave: rwave,
                    idx,
                    attempt,
                    result,
                    cost,
                    wall,
                } => {
                    // Stale wave or an already-settled unit: first result
                    // wins, duplicates (late originals, lost speculation
                    // races) are discarded unseen.
                    if rwave != wave || out[idx].is_some() {
                        continue;
                    }
                    if attempt > 0 && speculated[idx] {
                        self.fstats.speculative_wins += 1;
                    }
                    let result = match result {
                        UnitResult::Harvested { node, raw } => {
                            // Master-side fold of the winning copy only —
                            // the idempotence half of first-result-wins.
                            self.master_accum.fold(node, *raw);
                            UnitResult::HarvestFolded
                        }
                        r => r,
                    };
                    out[idx] = Some(result);
                    costs[idx] = cost;
                    durs[idx] = wall;
                    remaining -= 1;
                }
                WorkerReply::Failed {
                    wave: rwave,
                    idx,
                    attempt,
                    msg,
                } => {
                    if rwave != wave || out[idx].is_some() || attempt < attempts[idx] {
                        continue;
                    }
                    if !self.fault_mode {
                        // No recovery armed: surface the panic as a clean
                        // error instead of hanging on a missing result.
                        return Err(FaultError::UnitPanicked {
                            wave,
                            unit: idx,
                            msg,
                        });
                    }
                    attempts[idx] += 1;
                    if attempts[idx] > self.max_retries {
                        return Err(FaultError::RetryBudgetExhausted {
                            wave,
                            unit: idx,
                            attempts: attempts[idx],
                            msg,
                        });
                    }
                    self.fstats.retries += 1;
                    // Exponential backoff, charged to the fault clock only:
                    // the winning execution's modelled cost is attempt-
                    // independent, so `work_makespan` stays deterministic.
                    self.clocks.fault_backoff += 1u64 << attempts[idx].min(16);
                    let w = self.route(idx + attempts[idx] as usize);
                    self.queues[w].push((wave, idx, attempts[idx], backup[idx].clone()));
                    sent_at[idx] = Instant::now();
                    recovered = true;
                    self.wake_live();
                }
                WorkerReply::Crashed { worker } => {
                    if self.dead[worker] {
                        continue;
                    }
                    self.dead[worker] = true;
                    recovered = true;
                    if self.dead.iter().all(|&d| d) {
                        return Err(FaultError::AllWorkersLost);
                    }
                    // Drain the dead worker's deque back through the
                    // master and spread it over the survivors.
                    let mut offset = 1usize;
                    while let Some(item) = steal_one(&self.queues[worker]) {
                        let w = self.route(worker + offset);
                        offset += 1;
                        self.queues[w].push(item);
                        self.fstats.requeued_units += 1;
                    }
                    self.wake_live();
                }
            }
        }
        if recovered {
            self.fstats.recovered_waves += 1;
        }
        Ok(())
    }

    /// The nearest live worker at or after `pref` (wrapping): initial
    /// placement, retries, and crash redistribution all route through
    /// this so no unit lands on a dead queue.
    fn route(&self, pref: usize) -> usize {
        let n = self.workers;
        let pref = pref % n;
        if !self.dead[pref] {
            return pref;
        }
        (1..n)
            .map(|off| (pref + off) % n)
            .find(|&w| !self.dead[w])
            .unwrap_or(pref)
    }

    /// Wakes every worker still believed alive.
    fn wake_live(&self) {
        for (w, tx) in self.wake.iter().enumerate() {
            if !self.dead[w] {
                let _ = tx.send(PoolMsg::Wake);
            }
        }
    }

    /// Adds master-side compute to the clock.
    pub fn charge_master(&mut self, d: Duration) {
        self.clocks.master += d;
    }

    /// Collects and merges every worker's folded [`ProposalAccumulator`]
    /// — the master-side half of a harvest wave. Must run between waves
    /// (each wave fully drains before [`Self::run_wave`] returns, so every
    /// harvest unit has been folded into exactly one worker's
    /// accumulator); the master combines at most `workers` accumulators,
    /// and the merge is a monoid, so stealing never changes the result.
    pub fn drain_accumulators(&mut self) -> ProposalAccumulator {
        match self.mode {
            ExecMode::Simulated => {
                // gfd-lint: allow(no-panic) — `sim` is Some exactly when mode is Simulated, established once in the constructor
                std::mem::take(&mut self.sim.as_mut().expect("simulated state").accum)
            }
            ExecMode::Threads if self.fault_mode => {
                // Under fault tolerance workers ship raw harvests and the
                // master folds the winning copy of each unit, so the
                // per-worker accumulators are empty by construction.
                std::mem::take(&mut self.master_accum)
            }
            ExecMode::Threads => {
                for tx in &self.wake {
                    let _ = tx.send(PoolMsg::Drain);
                }
                let Some(rx) = self.accums.as_ref() else {
                    return ProposalAccumulator::default();
                };
                let mut merged = ProposalAccumulator::default();
                for _ in 0..self.workers {
                    // A worker that died before answering Drain shipped
                    // its harvests raw (fault mode) — but this arm only
                    // runs fault-free, where every worker answers once.
                    match rx.recv() {
                        Ok(a) => merged.merge(a),
                        Err(_) => break,
                    }
                }
                merged
            }
        }
    }
}

/// Steals from one queue, retrying on [`Steal::Retry`] (the real
/// `crossbeam` deques lose races under contention; the vendored Mutex
/// stand-in never does, but both contracts are honoured).
fn steal_one<T>(q: &Injector<T>) -> Option<T> {
    loop {
        match q.steal() {
            Steal::Success(t) => return Some(t),
            Steal::Empty => return None,
            Steal::Retry => continue,
        }
    }
}

/// Pops from the worker's own deque, stealing from siblings (visited in
/// `victims` order — ring order normally, a seeded biased order under
/// perturbation) when empty.
fn pop_any(id: usize, queues: &[Arc<Injector<QueueItem>>], victims: &[usize]) -> Option<QueueItem> {
    if let Some(t) = steal_one(&queues[id]) {
        return Some(t);
    }
    for &v in victims {
        if let Some(t) = steal_one(&queues[v]) {
            return Some(t);
        }
    }
    None
}

impl Drop for StealPool {
    fn drop(&mut self) {
        for tx in &self.wake {
            let _ = tx.send(PoolMsg::Stop);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// [`CandidateEvaluator`] that scatters each candidate over the spec's
/// ranges as `(rule, pivot-range)` units and merges the partial statistics
/// in range order — the pool-backed twin of [`gfd_core::RangeEvaluator`].
/// `work` sums the accepted units' evaluation meters.
struct PoolEvaluator<'a> {
    pool: &'a mut StealPool,
    spec: Arc<EvalSpec>,
    work: u64,
}

impl CandidateEvaluator for PoolEvaluator<'_> {
    fn evaluate(&mut self, x: &[Literal], rhs: &Rhs) -> CandidateStats {
        let x: Arc<[Literal]> = x.into();
        let units: Vec<Unit> = (0..self.spec.ranges.len())
            .map(|range| Unit::Evaluate {
                spec: Arc::clone(&self.spec),
                range,
                x: Arc::clone(&x),
                rhs: *rhs,
            })
            .collect();
        let mut acc = PartialStats::default();
        // A wave failure cannot surface through this trait; the sticky
        // error is re-checked by the driver (`pool.check()`) right after
        // mining, so the neutral value returned here is never emitted.
        for r in self.pool.run_wave(units).unwrap_or_default() {
            if let UnitResult::Stats(s, work) = r {
                acc.merge(&s);
                self.work += work;
            }
        }
        acc.finalize()
    }

    fn lhs_empty(&mut self, x: &[Literal]) -> bool {
        let x: Arc<[Literal]> = x.into();
        let units: Vec<Unit> = (0..self.spec.ranges.len())
            .map(|range| Unit::LhsEmpty {
                spec: Arc::clone(&self.spec),
                range,
                x: Arc::clone(&x),
            })
            .collect();
        // An empty `results` on a wave failure reads as empty; the sticky
        // error is re-checked right after mining, as for `evaluate`.
        let results = self.pool.run_wave(units).unwrap_or_default();
        results.iter().fold(true, |all, r| match r {
            UnitResult::Empty(empty, work) => {
                self.work += work;
                all && *empty
            }
            _ => false,
        })
    }

    fn work(&self) -> u64 {
        self.work
    }
}

// ---------------------------------------------------------------------------
// The ParDis executor on the pool.
// ---------------------------------------------------------------------------

/// Runs parallel discovery on the work-stealing pool. [`Driver`] owns the
/// schedule and this module's executor runs its operations as waves, so
/// the returned `DiscoveryResult` is identical to [`gfd_core::seq_dis`]'s
/// (rules, supports, and pattern and lattice counters), for every worker
/// count and both execution modes — including runs recovering from
/// injected faults, and runs resumed from a level checkpoint
/// (`StealConfig::checkpoint` / `resume`). The work meters also depend on
/// how the worker count cuts ranges (see [`gfd_core::DiscoveryStats`]).
pub fn par_dis_steal(
    g: &Arc<Graph>,
    cfg: &DiscoveryConfig,
    scfg: &StealConfig,
) -> Result<ParDisReport, FaultError> {
    let wall0 = Instant::now();
    let mut exec = Waves {
        pool: StealPool::new(Arc::clone(g), scfg),
        g,
        cfg: Arc::new(cfg.clone()),
        scfg,
        attrs: Arc::new(cfg.resolve_active_attrs(g)),
        live: FxHashMap::default(),
        pending: ProposalAccumulator::default(),
        unharvested: Vec::new(),
        cfg_fp: fault::config_fingerprint(cfg),
    };
    let mut driver = Driver::new(g, cfg);
    let mut from_level = 0;
    if let (true, Some(path)) = (scfg.resume, &scfg.checkpoint) {
        if let Some(ck) = Checkpoint::load_if_exists(path)? {
            from_level = exec.restore(&mut driver, ck)?;
        }
    }
    let mut result = driver.run(&mut exec, from_level)?;
    let pool = exec.pool;
    pool.fstats.apply_to(&mut result.stats);
    let wall = wall0.elapsed();
    Ok(ParDisReport {
        result,
        wall,
        simulated: pool.clocks.simulated_total(),
        comm_bytes: 0,
        barriers: pool.clocks.barriers,
        work_makespan: pool.clocks.work_makespan,
        work_busy: pool.clocks.work_busy,
        replication_factor: 1.0,
    })
}

/// The steal executor: the roots seed in one wave, each level's joins run
/// in one wave, and each level's lattices in the build and `MineRhs`
/// waves of [`Waves::run_mining`], whose build wave also harvests the
/// next level. Matches live at the master behind `Arc`s; workers see them
/// through their units, never a broadcast.
struct Waves<'a> {
    pool: StealPool,
    g: &'a Graph,
    cfg: Arc<DiscoveryConfig>,
    scfg: &'a StealConfig,
    attrs: Arc<Vec<AttrId>>,
    /// Matches of every frequent pattern a later wave still reads.
    live: FxHashMap<usize, Arc<MatchSet>>,
    /// Harvests of the next level's parents, folded during the build wave.
    pending: ProposalAccumulator,
    /// A resumed frontier whose harvests have not run yet.
    unharvested: Vec<usize>,
    cfg_fp: u64,
}

/// A pattern queued for lattice mining.
struct Lattice {
    id: usize,
    q: Arc<Pattern>,
    ms: Arc<MatchSet>,
    covered: Vec<Covered>,
}

impl Executor for Waves<'_> {
    type Error = FaultError;

    fn seed_roots(
        &mut self,
        tree: &GenTree,
        roots: &[usize],
        keep: &mut dyn FnMut(Joined) -> bool,
    ) -> Result<(), FaultError> {
        let m0 = Instant::now();
        let mut units: Vec<Unit> = Vec::new();
        let mut spans = Vec::with_capacity(roots.len());
        for &id in roots {
            let q = &tree.node(id).pattern;
            let pivots: Arc<Vec<NodeId>> = Arc::new(match q.node_label(0) {
                PLabel::Is(l) => self.g.nodes_with_label(l).to_vec(),
                PLabel::Wildcard => self.g.nodes().collect(),
            });
            let cp = Arc::new(CompiledPattern::new(q));
            let ranges = self.ranges(pivots.len());
            spans.push(ranges.len());
            for (lo, hi) in ranges {
                units.push(Unit::Seed {
                    cp: Arc::clone(&cp),
                    pivots: Arc::clone(&pivots),
                    lo,
                    hi,
                });
            }
        }
        self.pool.charge_master(m0.elapsed());
        let mut seeded = self.pool.run_wave(units)?.into_iter();
        for (&id, n) in roots.iter().zip(spans) {
            let mut ms = MatchSet::new(1);
            for r in seeded.by_ref().take(n) {
                if let UnitResult::Seeded(part) = r {
                    ms.extend(&part);
                }
            }
            let rows = ms.len();
            if keep(Joined {
                rows,
                support: rows,
            }) {
                self.live.insert(id, Arc::new(ms));
            }
        }
        Ok(())
    }

    fn harvest(&mut self, tree: &GenTree, parent: usize) -> Result<RawHarvest, FaultError> {
        if !self.unharvested.is_empty() {
            // A resumed frontier: on the cold path its harvests rode the
            // build wave that died with the original run, so they run as
            // one wave before the first parent is read. The fold is a
            // monoid merge, so the result is worker-count independent.
            let mut units: Vec<Unit> = Vec::new();
            for id in std::mem::take(&mut self.unharvested) {
                let q = Arc::new(tree.node(id).pattern.clone());
                self.push_harvests(&mut units, id, &q, &self.live[&id]);
            }
            self.pool.run_wave(units)?;
            self.pending = self.pool.drain_accumulators();
        }
        // Folded during the previous level's build wave.
        Ok(self.pending.take(parent))
    }

    fn join(
        &mut self,
        tree: &GenTree,
        spawns: &[Spawn],
        keep: &mut dyn FnMut(Joined) -> bool,
    ) -> Result<(), FaultError> {
        // One wave: all of the level's `(Q ⋈ e, pivot-range)` joins.
        let m0 = Instant::now();
        let mut units: Vec<Unit> = Vec::new();
        let mut spans = Vec::with_capacity(spawns.len());
        for s in spawns {
            let q = Arc::new(tree.node(s.parent).pattern.clone());
            let pms = &self.live[&s.parent];
            let ranges = self.ranges(pms.len());
            spans.push(ranges.len());
            for (lo, hi) in ranges {
                units.push(Unit::Join {
                    q: Arc::clone(&q),
                    ms: Arc::clone(pms),
                    ext: s.ext,
                    lo,
                    hi,
                });
            }
        }
        self.pool.charge_master(m0.elapsed());
        let mut joined = self.pool.run_wave(units)?.into_iter();

        let m0 = Instant::now();
        for (s, n) in spawns.iter().zip(spans) {
            let mut ms = MatchSet::new(tree.node(s.child).pattern.node_count());
            let mut pivots: Vec<NodeId> = Vec::new();
            for r in joined.by_ref().take(n) {
                if let UnitResult::Joined {
                    ms: part,
                    pivots: p,
                } = r
                {
                    ms.extend(&part);
                    pivots.extend_from_slice(&p);
                }
            }
            pivots.sort_unstable();
            pivots.dedup();
            let rows = ms.len();
            if keep(Joined {
                rows,
                support: pivots.len(),
            }) {
                self.live.insert(s.child, Arc::new(ms));
            }
        }
        self.pool.charge_master(m0.elapsed());
        Ok(())
    }

    fn mine(
        &mut self,
        tree: &GenTree,
        jobs: Vec<MineJob>,
        harvest_next: bool,
    ) -> Result<Mined, FaultError> {
        let jobs = jobs
            .into_iter()
            .map(|job| Lattice {
                id: job.node,
                q: Arc::new(tree.node(job.node).pattern.clone()),
                ms: Arc::clone(&self.live[&job.node]),
                covered: job.covered,
            })
            .collect();
        self.run_mining(jobs, harvest_next)
    }

    fn level_done(&mut self, driver: &Driver<'_>, level: usize) -> Result<(), FaultError> {
        // The next level reads only this level's matches.
        self.live
            .retain(|&id, _| driver.tree.node(id).level >= level);
        self.checkpoint(driver, level)
    }

    fn charge_master(&mut self, elapsed: Duration) {
        self.pool.charge_master(elapsed);
    }
}

impl Waves<'_> {
    /// Row ranges of a row space of `rows`.
    fn ranges(&self, rows: usize) -> Vec<(usize, usize)> {
        split_ranges(
            rows,
            self.scfg.range_min_rows,
            self.pool.workers() * self.scfg.range_oversplit,
        )
    }

    /// `(node, row-range)` harvest units over `ms`.
    fn push_harvests(
        &self,
        units: &mut Vec<Unit>,
        node: usize,
        q: &Arc<Pattern>,
        ms: &Arc<MatchSet>,
    ) {
        for (lo, hi) in self.ranges(ms.len()) {
            units.push(Unit::Harvest {
                node,
                q: Arc::clone(q),
                ms: Arc::clone(ms),
                cfg: Arc::clone(&self.cfg),
                lo,
                hi,
            });
        }
    }

    /// Rebuilds the driver's state from a level checkpoint and returns the
    /// level to continue at.
    fn restore(&mut self, driver: &mut Driver<'_>, ck: Checkpoint) -> Result<usize, FaultError> {
        ck.validate(self.g.node_count(), self.g.edge_count(), self.cfg_fp)?;
        driver.result.stats = ck.stats;
        driver.result.gfds = ck.rules;
        driver.negative_patterns = ck.negative_patterns;
        let (nodes, matches): (Vec<_>, Vec<_>) = ck
            .frontier
            .into_iter()
            .map(|f| ((f.pattern, f.support, f.covered), f.matches))
            .unzip();
        self.unharvested = driver.restore_frontier(nodes);
        for (&id, ms) in self.unharvested.iter().zip(matches) {
            self.live.insert(id, ms);
        }
        Ok(ck.level + 1)
    }

    /// Serialises the completed level's frontier to
    /// `StealConfig::checkpoint` (atomic temp-file + rename), then honours
    /// `halt_after_level` — the crash-simulation hook the resume tests
    /// kill runs with.
    fn checkpoint(&self, driver: &Driver<'_>, level: usize) -> Result<(), FaultError> {
        if let Some(path) = &self.scfg.checkpoint {
            // The frontier is exactly the nodes the next level will read:
            // this level's frequent patterns, in tree order (the insertion
            // order a resumed run must restore).
            let tree = &driver.tree;
            let frontier: Vec<FrontierNode> = tree
                .level(level)
                .iter()
                .filter_map(|&id| {
                    let ms = self.live.get(&id)?;
                    let node = tree.node(id);
                    Some(FrontierNode {
                        pattern: node.pattern.clone(),
                        support: node.support,
                        covered: node.covered.clone(),
                        matches: Arc::clone(ms),
                    })
                })
                .collect();
            let ck = Checkpoint {
                graph_nodes: self.g.node_count(),
                graph_edges: self.g.edge_count(),
                cfg_fingerprint: self.cfg_fp,
                level,
                stats: driver.result.stats.clone(),
                rules: driver.result.gfds.clone(),
                negative_patterns: driver.negative_patterns.clone(),
                frontier,
            };
            ck.save(path)?;
        }
        if self.scfg.halt_after_level == Some(level) {
            return Err(FaultError::Halted { level });
        }
        Ok(())
    }

    /// Mines the queued lattices in three phases:
    ///
    /// 1. one **build wave** creating every pattern's `Arc`-shared table
    ///    shards and merging their literal counts into catalogs (single shard
    ///    for small tables, `workers × range_oversplit` ranges past the
    ///    row threshold) — and, when `harvest_children` is set, the same wave
    ///    harvests every pattern's extension proposals by row range, each
    ///    worker folding its harvests into a [`ProposalAccumulator`] that the
    ///    master drains and merges after the wave (the next level's proposals
    ///    cost no extra wave and no serial master merge);
    /// 2. one **`MineRhs` wave** for the small patterns — per-consequence
    ///    sub-lattice units, merged per pattern in catalog order (independent
    ///    by construction, so the merge reproduces `mine_dependencies`
    ///    exactly);
    /// 3. the large patterns' lattices at the master, each candidate fanning
    ///    out as `(rule, pivot-range)` units with range affinity.
    ///
    /// Phase 1 is the catalog time, next-level harvests included.
    fn run_mining(
        &mut self,
        jobs: Vec<Lattice>,
        harvest_children: bool,
    ) -> Result<Mined, FaultError> {
        let mut outcomes: Vec<Option<MineOutcome>> = jobs.iter().map(|_| None).collect();

        // Phase 1: shards + catalogs (+ next-level harvests) for every job,
        // one wave.
        let t0 = Instant::now();
        let mut specs: Vec<(Arc<EvalSpec>, bool)> = Vec::with_capacity(jobs.len());
        let mut build_units: Vec<Unit> = Vec::new();
        for job in &jobs {
            let rows = job.ms.len();
            let large = rows >= self.scfg.range_rows_threshold;
            let ranges = if large {
                self.ranges(rows)
            } else {
                vec![(0, rows)]
            };
            let spec = Arc::new(EvalSpec::new(
                job.id,
                Arc::clone(&job.q),
                Arc::clone(&job.ms),
                Arc::clone(&self.attrs),
                ranges,
            ));
            for range in 0..spec.ranges.len() {
                build_units.push(Unit::BuildRange {
                    spec: Arc::clone(&spec),
                    range,
                });
            }
            specs.push((spec, large));
        }
        let catalog_units = build_units.len();
        if harvest_children {
            for job in &jobs {
                self.push_harvests(&mut build_units, job.id, &job.q, &job.ms);
            }
        }
        let wave = self.pool.run_wave(build_units)?;
        let m0 = Instant::now();
        if harvest_children {
            self.pending = self.pool.drain_accumulators();
        }
        let mut built = wave.into_iter().take(catalog_units);
        let catalogs: Vec<Arc<LiteralCatalog>> = specs
            .iter()
            .map(|(spec, _)| {
                let mut counts = CatalogCounts::default();
                for r in built.by_ref().take(spec.ranges.len()) {
                    if let UnitResult::Counts(c) = r {
                        counts.merge(*c);
                    }
                }
                Arc::new(counts.finalize_capped(
                    self.cfg.values_per_attr,
                    self.cfg.sigma.min(spec.ms.len().max(1)),
                    self.cfg.max_catalog_literals,
                ))
            })
            .collect();
        self.pool.charge_master(m0.elapsed());
        let catalog_time = t0.elapsed();

        // Phase 2: per-consequence sub-lattices for the small patterns. The
        // catalogs' exact per-literal row counts (the σ-bound scan's actual
        // row mass, merged identically however the rows were cut) drive an
        // adaptive split: a consequence whose mass alone reaches an even
        // per-slot share of the wave would pin `work_makespan` as one
        // monolithic `MineRhs` unit, so its lattice runs at the master
        // instead, each candidate fanning out over `(rule, pivot-range)`
        // units — the phase-3 recipe, applied per consequence by measured
        // weight rather than per pattern by the fixed `range_rows_threshold`.
        let slots = (self.pool.workers() * self.scfg.range_oversplit).max(1) as u64;
        let light_mass: u64 = jobs
            .iter()
            .enumerate()
            .filter(|(i, _)| !specs[*i].1)
            .map(|(i, _)| catalogs[i].counts.iter().map(|&c| c as u64).sum::<u64>())
            .sum();
        let heavy_cut = (light_mass / slots)
            .max(self.scfg.range_min_rows as u64)
            .max(1);
        let mut rhs_units: Vec<Unit> = Vec::new();
        let mut heavy: Vec<(usize, usize, Arc<EvalSpec>)> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            let (spec, large) = &specs[i];
            if *large {
                continue;
            }
            let covered = Arc::new(job.covered.clone());
            let split = self.ranges(job.ms.len());
            for l_idx in 0..catalogs[i].literals.len() {
                let mass = catalogs[i].counts.get(l_idx).copied().unwrap_or(0) as u64;
                if mass >= heavy_cut && split.len() > 1 {
                    // A fresh spec under a virtual node id: worker shard
                    // caches key `(node, range)`, and the split shards must
                    // not collide with this pattern's full-table shard (or
                    // any other pattern's). Virtual ids descend from
                    // `usize::MAX`, far above any generation-tree id, and
                    // never repeat across the run.
                    let hspec = Arc::new(EvalSpec::new(
                        next_virtual_node(),
                        Arc::clone(&job.q),
                        Arc::clone(&job.ms),
                        Arc::clone(&self.attrs),
                        split.clone(),
                    ));
                    heavy.push((i, l_idx, hspec));
                    continue;
                }
                rhs_units.push(Unit::MineRhs {
                    spec: Arc::clone(spec),
                    catalog: Arc::clone(&catalogs[i]),
                    l_idx,
                    covered: Arc::clone(&covered),
                    cfg: Arc::clone(&self.cfg),
                });
            }
        }
        let mut rhs_results = self.pool.run_wave(rhs_units)?.into_iter();
        // Heavy consequences mine after the light wave with the phase-3
        // evaluator; outcomes park in a map until the in-order merge below,
        // which reproduces `mine_dependencies`'s catalog order exactly.
        let mut heavy_outcomes: FxHashMap<(usize, usize), (RhsMineOutcome, u64)> =
            FxHashMap::default();
        let mut closure = ClosureScratch::new();
        for (i, l_idx, hspec) in heavy {
            let l = catalogs[i].literals[l_idx];
            let mut eval = PoolEvaluator {
                pool: &mut self.pool,
                spec: hspec,
                work: 0,
            };
            let o = mine_rhs_with(
                &mut eval,
                &catalogs[i],
                l,
                &jobs[i].covered,
                &self.cfg,
                &mut closure,
            );
            let work = eval.work();
            // The evaluator swallows wave errors (the trait cannot carry
            // them); surface the sticky failure before parking the outcome.
            self.pool.check()?;
            heavy_outcomes.insert((i, l_idx), (o, work));
        }
        let m0 = Instant::now();
        for (i, job) in jobs.iter().enumerate() {
            if specs[i].1 {
                continue;
            }
            let mut deps: Vec<MinedDependency> = Vec::new();
            let mut covered = job.covered.clone();
            let mut negatives = FxHashMap::default();
            let mut hstats = HSpawnStats::default();
            let mut work = 0;
            for l_idx in 0..catalogs[i].literals.len() {
                let (o, w) = match heavy_outcomes.remove(&(i, l_idx)) {
                    Some(parked) => parked,
                    None => match rhs_results.next() {
                        Some(UnitResult::RhsMined(o, work)) => (*o, work),
                        _ => continue,
                    },
                };
                work += w;
                merge_rhs_outcome(o, &mut deps, &mut covered, &mut negatives, &mut hstats);
            }
            finish_negatives(negatives, &mut deps);
            outcomes[i] = Some(MineOutcome {
                deps,
                covered,
                hstats,
                work,
            });
        }
        self.pool.charge_master(m0.elapsed());

        // Phase 3: large patterns, candidate by candidate over range units.
        for (i, job) in jobs.iter().enumerate() {
            let (spec, large) = &specs[i];
            if !*large {
                continue;
            }
            let mut covered = job.covered.clone();
            let mut eval = PoolEvaluator {
                pool: &mut self.pool,
                spec: Arc::clone(spec),
                work: 0,
            };
            let (deps, hstats) =
                mine_dependencies_with(&mut eval, &catalogs[i], &mut covered, &self.cfg);
            let work = eval.work();
            // The evaluator swallows wave errors (the trait cannot carry
            // them); surface the sticky failure before returning a partial
            // outcome.
            self.pool.check()?;
            outcomes[i] = Some(MineOutcome {
                deps,
                covered,
                hstats,
                work,
            });
        }
        // Every job is either small (phase 2) or large (phase 3).
        Ok(Mined {
            outcomes: outcomes.into_iter().flatten().collect(),
            catalog_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::{seq_dis, DiscoveryResult};
    use gfd_graph::GraphBuilder;

    /// The same planted KB the barrier driver's tests use.
    #[allow(clippy::needless_range_loop)]
    fn kb() -> Arc<Graph> {
        let mut b = GraphBuilder::new();
        let mut people = Vec::new();
        for i in 0..18 {
            let p = b.add_node("person");
            b.set_attr(p, "type", if i < 12 { "producer" } else { "actor" });
            b.set_attr(p, "surname", ["smith", "jones", "brown"][i % 3]);
            people.push(p);
        }
        for i in 0..12 {
            let f = b.add_node("product");
            b.set_attr(f, "type", "film");
            b.set_attr(f, "genre", ["drama", "comedy"][i % 2]);
            b.add_edge(people[i], f, "create");
        }
        for w in people.windows(2) {
            b.add_edge(w[0], w[1], "parent");
        }
        for i in 0..6 {
            b.add_edge(people[i], people[(i + 5) % 18], "follow");
        }
        Arc::new(b.build())
    }

    fn cfg() -> DiscoveryConfig {
        let mut c = DiscoveryConfig::new(3, 4);
        c.max_lhs_size = 1;
        c.wildcard_min_labels = 0;
        c.values_per_attr = 3;
        c.max_negative_candidates = 16;
        c
    }

    /// Full fidelity fingerprint: rule text, support, level, confidence —
    /// *in emission order*, not sorted.
    fn fingerprint(result: &DiscoveryResult, g: &Graph) -> Vec<String> {
        result
            .gfds
            .iter()
            .map(|d| {
                format!(
                    "{} @{} L{} c{:.3}",
                    d.gfd.display(g.interner()),
                    d.support,
                    d.level,
                    d.confidence
                )
            })
            .collect()
    }

    /// The steal driver replays `SeqDis`'s schedule exactly: the emitted
    /// rule sequence (not just the set) must match, for every worker count,
    /// both modes, and both lattice paths (whole-lattice Mine units vs the
    /// `(rule, pivot-range)` evaluator).
    #[test]
    fn steal_output_is_identical_to_seq_dis() {
        let g = kb();
        let c = cfg();
        let seq = seq_dis(&g, &c);
        assert!(!seq.gfds.is_empty());
        let want = fingerprint(&seq, &g);
        for mode in [ExecMode::Simulated, ExecMode::Threads] {
            for n in [1, 2, 4] {
                for threshold in [0, usize::MAX] {
                    let mut scfg = StealConfig::new(n, mode);
                    scfg.range_min_rows = 2; // force real multi-range waves
                    scfg.range_rows_threshold = threshold;
                    let par = par_dis_steal(&g, &c, &scfg).expect("fault-free run");
                    assert_eq!(
                        fingerprint(&par.result, &g),
                        want,
                        "divergence at n={n} mode={mode:?} threshold={threshold}"
                    );
                    assert!(par.barriers > 0);
                    assert_eq!(par.comm_bytes, 0);
                }
            }
        }
    }

    /// Counters (not just rules) also match the sequential run.
    #[test]
    fn steal_counters_match_seq_dis() {
        let g = kb();
        let c = cfg();
        let seq = seq_dis(&g, &c);
        let par = par_dis_steal(&g, &c, &StealConfig::new(3, ExecMode::Simulated))
            .expect("fault-free run");
        let s = &seq.stats;
        let p = &par.result.stats;
        assert_eq!(
            (s.patterns_spawned, s.patterns_verified, s.patterns_empty),
            (p.patterns_spawned, p.patterns_verified, p.patterns_empty)
        );
        assert_eq!(
            (s.patterns_infrequent, s.patterns_deduped),
            (p.patterns_infrequent, p.patterns_deduped)
        );
        assert_eq!(s.hspawn, p.hspawn);
        assert_eq!((s.positive, s.negative), (p.positive, p.negative));
    }

    /// The deterministic work-makespan falls as workers grow, and the rule
    /// output never changes — the steal twin of the barrier scaling test.
    #[test]
    fn steal_work_makespan_scales_down() {
        let g = kb();
        let c = cfg();
        let run = |n: usize| {
            let mut scfg = StealConfig::new(n, ExecMode::Simulated);
            scfg.range_min_rows = 1;
            let r = par_dis_steal(&g, &c, &scfg).expect("fault-free run");
            (r.work_makespan, r.result.gfds.len())
        };
        let (w1, rules1) = run(1);
        let (w4, rules4) = run(4);
        assert_eq!(rules1, rules4);
        assert!(w4 < w1, "n=4 load ({w4}) should be below n=1 load ({w1})");
    }

    /// Two threaded runs on the same input produce identical reports —
    /// thread interleaving must not leak into results or modelled work.
    #[test]
    fn steal_threads_are_deterministic() {
        let g = kb();
        let c = cfg();
        let mut scfg = StealConfig::new(4, ExecMode::Threads);
        scfg.range_min_rows = 2;
        let a = par_dis_steal(&g, &c, &scfg).expect("fault-free run");
        let b = par_dis_steal(&g, &c, &scfg).expect("fault-free run");
        assert_eq!(fingerprint(&a.result, &g), fingerprint(&b.result, &g));
        assert_eq!(a.work_makespan, b.work_makespan);
        assert_eq!(a.work_busy, b.work_busy);
        assert_eq!(a.barriers, b.barriers);
    }

    /// `MineRhs` shard tables are built once and shared: after a wave that
    /// spreads one pattern's consequences over ≥2 workers, the spec's
    /// `Arc<MatchTable>` is held by every worker cache that touched it —
    /// not rebuilt per worker.
    #[test]
    fn mine_rhs_shard_tables_are_shared() {
        let g = kb();
        let scfg = StealConfig::new(2, ExecMode::Threads);
        let mut pool = StealPool::new(Arc::clone(&g), &scfg);
        let q = Arc::new(Pattern::edge(
            PLabel::Is(g.interner().lookup_label("person").unwrap()),
            PLabel::Is(g.interner().lookup_label("create").unwrap()),
            PLabel::Is(g.interner().lookup_label("product").unwrap()),
        ));
        let ms = Arc::new(gfd_pattern::find_all(&q, &g));
        let rows = ms.len();
        let attrs = Arc::new(cfg().resolve_active_attrs(&g));
        let spec = Arc::new(EvalSpec::new(
            0,
            Arc::clone(&q),
            Arc::clone(&ms),
            Arc::clone(&attrs),
            vec![(0, rows)],
        ));

        // Build the catalog the way run_mining does, then mine every
        // consequence as its own unit: affinity spreads them over both
        // workers.
        let built = pool
            .run_wave(vec![Unit::BuildRange {
                spec: Arc::clone(&spec),
                range: 0,
            }])
            .expect("fault-free wave");
        let UnitResult::Counts(counts) = &built[0] else {
            panic!("build result expected");
        };
        let catalog = Arc::new(counts.as_ref().clone().finalize_capped(3, 1, 0));
        assert!(catalog.literals.len() >= 2, "need units for both workers");
        let covered = Arc::new(Vec::new());
        let c = Arc::new(cfg());
        let units: Vec<Unit> = (0..catalog.literals.len())
            .map(|l_idx| Unit::MineRhs {
                spec: Arc::clone(&spec),
                catalog: Arc::clone(&catalog),
                l_idx,
                covered: Arc::clone(&covered),
                cfg: Arc::clone(&c),
            })
            .collect();
        pool.run_wave(units).expect("fault-free wave");

        let table = spec.built_table(0).expect("table built during the wave");
        assert!(
            Arc::strong_count(table) > 1,
            "worker caches must hold Arc clones of the shared table, not rebuilds \
             (strong_count = {})",
            Arc::strong_count(table)
        );
    }

    #[test]
    fn steal_rules_hold_globally() {
        let g = kb();
        let par = par_dis_steal(&g, &cfg(), &StealConfig::new(3, ExecMode::Threads))
            .expect("fault-free run");
        for d in &par.result.gfds {
            assert!(
                gfd_logic::satisfies(&g, &d.gfd),
                "violated: {}",
                d.gfd.display(g.interner())
            );
        }
    }

    /// Pins the graph-size-aware defaults so a retune is a deliberate,
    /// test-visible act: base knobs, the small-graph fixed point, and the
    /// million-node scaling of [`StealConfig::tuned`].
    #[test]
    fn tuned_defaults_are_pinned() {
        let base = StealConfig::new(4, ExecMode::Threads);
        assert_eq!(
            (
                base.range_min_rows,
                base.range_rows_threshold,
                base.range_oversplit
            ),
            (1024, 262_144, RANGE_OVERSPLIT)
        );

        // Small graphs (everything the seed benchmarks run) keep the
        // exact base knobs: tuned() is a no-op below the clamps.
        let small = StealConfig::tuned(4, ExecMode::Threads, 48_000);
        assert_eq!(
            (
                small.range_min_rows,
                small.range_rows_threshold,
                small.range_oversplit
            ),
            (1024, 262_144, RANGE_OVERSPLIT)
        );

        // The `large` scenario (1M nodes, |V|+|E| ≈ 4M) coarsens ranges
        // and doubles over-splitting against hub skew.
        let large = StealConfig::tuned(4, ExecMode::Threads, 4_000_000);
        assert_eq!(
            (
                large.range_min_rows,
                large.range_rows_threshold,
                large.range_oversplit
            ),
            (4096, 262_144, 2 * RANGE_OVERSPLIT)
        );

        // `xlarge` (5M nodes) hits both upper clamps.
        let xl = StealConfig::tuned(4, ExecMode::Threads, 20_000_000);
        assert_eq!(
            (
                xl.range_min_rows,
                xl.range_rows_threshold,
                xl.range_oversplit
            ),
            (16_384, 2_097_152, 2 * RANGE_OVERSPLIT)
        );
    }

    /// All three range knobs — including `range_oversplit` and the whole
    /// tuned large-graph config — are schedule-only: discovery output is
    /// bit-identical across the sweep.
    #[test]
    fn steal_output_invariant_under_range_knobs() {
        let g = kb();
        let c = cfg();
        let want = fingerprint(&seq_dis(&g, &c), &g);
        let mut sweep = vec![];
        for oversplit in [1, 8] {
            let mut scfg = StealConfig::new(3, ExecMode::Simulated);
            scfg.range_min_rows = 2;
            scfg.range_rows_threshold = 0;
            scfg.range_oversplit = oversplit;
            sweep.push(scfg);
        }
        sweep.push(StealConfig::tuned(3, ExecMode::Simulated, 20_000_000));
        for scfg in sweep {
            let par = par_dis_steal(&g, &c, &scfg).expect("fault-free run");
            assert_eq!(
                fingerprint(&par.result, &g),
                want,
                "divergence at oversplit={} threshold={}",
                scfg.range_oversplit,
                scfg.range_rows_threshold
            );
        }
    }
}
