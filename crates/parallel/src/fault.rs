//! Seeded fault injection and recovery primitives for the parallel
//! runtimes, plus wave-granular checkpoint serialization.
//!
//! The paper's ParDis targets real clusters, where workers crash, results
//! go missing, and stragglers dominate makespan. PR 5's determinism
//! contract (output bit-identical to `SeqDis` under *any* schedule) makes
//! recovery provably output-invariant: a re-executed unit produces the
//! same result as the lost one, and first-result-wins dedup keeps
//! accumulator folding idempotent. This module provides the three layers
//! the runtimes build on:
//!
//! * **[`FaultPlan`]** — a deterministic schedule of injected faults
//!   (unit panics, worker crashes, dropped results, straggler delays) at
//!   chosen `(wave, worker/unit)` coordinates, either spelled out with
//!   builder calls / [`FaultConfig::parse`] syntax or sampled from a seed
//!   ([`FaultConfig::with_seed`]). Faults fire on a unit's *first*
//!   attempt only, so bounded retry always converges.
//! * **Fault boundary** — [`run_guarded`] wraps unit execution in
//!   `catch_unwind` behind a thread-local marker, and
//!   [`install_quiet_panic_hook`] silences the default hook for panics
//!   raised inside the boundary (injected or genuine), so chaos runs do
//!   not spray backtraces while real, un-guarded panics still report.
//! * **[`Checkpoint`]** — a self-describing text serialization of the
//!   discovery frontier (mined rules, counters, negative patterns, and
//!   the frequent patterns of the last completed level with their match
//!   sets), written atomically so a killed run resumes to the exact same
//!   output.

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use gfd_core::{Covered, DiscoveredGfd, DiscoveryStats, HSpawnStats};
use gfd_graph::{AttrId, LabelId, NodeId, SymbolId, Value};
use gfd_logic::{Gfd, Literal, Rhs};
use gfd_pattern::{MatchSet, PEdge, PLabel, Pattern};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

// ---------------------------------------------------------------------------
// Fault configuration and plans.
// ---------------------------------------------------------------------------

/// One injected unit-level fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnitFault {
    /// The unit panics mid-execution (a real `panic!` in threaded mode, a
    /// retry/backoff charge in simulated mode).
    Panic,
    /// The unit executes but its result message is dropped on the floor;
    /// recovery comes from speculation / timeouts, not from the worker.
    DropResult,
    /// The unit completes but its result is delayed by the given amount —
    /// a modelled straggler.
    Straggle(Duration),
}

/// Declarative fault-injection configuration. Build one explicitly with
/// the `*_at` builders (or [`FaultConfig::parse`]), or sample a plan from
/// a seed with [`FaultConfig::with_seed`]; [`FaultPlan::from_config`]
/// materialises it for a concrete worker count.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed for sampled fault coordinates (`None` = only explicit faults).
    pub seed: Option<u64>,
    /// Sampled unit panics (seeded plans only).
    pub unit_panics: usize,
    /// Sampled worker crashes (capped at `workers - 1`; zero when the pool
    /// has a single worker).
    pub worker_crashes: usize,
    /// Sampled dropped result messages.
    pub message_drops: usize,
    /// Sampled stragglers.
    pub stragglers: usize,
    /// Delay of each sampled straggler, in milliseconds.
    pub straggle_ms: u64,
    /// Bound on re-executions of one unit before the run aborts with
    /// [`FaultError::RetryBudgetExhausted`].
    pub max_retries: u32,
    /// Progress watermark: a dispatched unit silent for longer than this
    /// is speculatively re-executed on another worker (first result wins).
    /// Required for recovery from [`UnitFault::DropResult`].
    pub speculate_after: Option<Duration>,
    /// Hard deadline on one wave's master-side result collection; a wave
    /// still outstanding past it aborts with [`FaultError::WaveTimeout`]
    /// instead of hanging. Ignored in simulated mode.
    pub wave_timeout: Option<Duration>,
    /// Explicitly placed faults (in addition to any sampled ones).
    explicit: Vec<Placed>,
}

/// An explicitly placed fault.
#[derive(Clone, Debug)]
enum Placed {
    /// `fault` fires when unit `idx` of wave `wave` first executes.
    Unit {
        wave: u64,
        idx: usize,
        fault: UnitFault,
    },
    /// Worker `worker` stops pulling work in wave `wave` after completing
    /// `after_units` units of it.
    Crash {
        wave: u64,
        worker: usize,
        after_units: usize,
    },
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: None,
            unit_panics: 0,
            worker_crashes: 0,
            message_drops: 0,
            stragglers: 0,
            straggle_ms: 15,
            max_retries: 3,
            speculate_after: None,
            wave_timeout: None,
            explicit: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// A seeded chaos mix: 3 unit panics, 1 worker crash, 2 dropped
    /// results, and 2 stragglers at seed-chosen coordinates, with
    /// speculation enabled (drops are unrecoverable without it).
    pub fn with_seed(seed: u64) -> FaultConfig {
        FaultConfig {
            seed: Some(seed),
            unit_panics: 3,
            worker_crashes: 1,
            message_drops: 2,
            stragglers: 2,
            speculate_after: Some(Duration::from_millis(10)),
            ..FaultConfig::default()
        }
    }

    /// Overrides the number of sampled worker crashes.
    pub fn crashes(mut self, n: usize) -> FaultConfig {
        self.worker_crashes = n;
        self
    }

    /// Places a unit panic at `(wave, idx)`.
    pub fn panic_at(mut self, wave: u64, idx: usize) -> FaultConfig {
        self.explicit.push(Placed::Unit {
            wave,
            idx,
            fault: UnitFault::Panic,
        });
        self
    }

    /// Places a dropped result at `(wave, idx)`. Unrecoverable unless
    /// [`FaultConfig::speculate_after`] is set.
    pub fn drop_at(mut self, wave: u64, idx: usize) -> FaultConfig {
        self.explicit.push(Placed::Unit {
            wave,
            idx,
            fault: UnitFault::DropResult,
        });
        self
    }

    /// Places a straggler delay of `ms` milliseconds at `(wave, idx)`.
    pub fn straggle_at(mut self, wave: u64, idx: usize, ms: u64) -> FaultConfig {
        self.explicit.push(Placed::Unit {
            wave,
            idx,
            fault: UnitFault::Straggle(Duration::from_millis(ms)),
        });
        self
    }

    /// Crashes `worker` in `wave` after it completes `after_units` units.
    pub fn crash_worker(mut self, wave: u64, worker: usize, after_units: usize) -> FaultConfig {
        self.explicit.push(Placed::Crash {
            wave,
            worker,
            after_units,
        });
        self
    }

    /// Whether the config injects or tolerates anything at all.
    pub fn is_active(&self) -> bool {
        self.seed.is_some()
            || !self.explicit.is_empty()
            || self.speculate_after.is_some()
            || self.wave_timeout.is_some()
    }

    /// Parses the CLI fault-plan syntax: a comma-separated list of
    /// `panic@W.I`, `drop@W.I`, `slow@W.I:MS`, and `crash@W.wK:U`
    /// (worker `K` crashes in wave `W` after `U` units; `:U` optional).
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let part = part.trim();
            let (kind, at) = part
                .split_once('@')
                .ok_or_else(|| format!("fault `{part}`: expected kind@coordinates"))?;
            let (wave_s, rest) = at
                .split_once('.')
                .ok_or_else(|| format!("fault `{part}`: expected wave.target"))?;
            let wave: u64 = wave_s
                .parse()
                .map_err(|_| format!("fault `{part}`: bad wave `{wave_s}`"))?;
            cfg = match kind {
                "panic" | "drop" => {
                    let idx: usize = rest
                        .parse()
                        .map_err(|_| format!("fault `{part}`: bad unit `{rest}`"))?;
                    if kind == "panic" {
                        cfg.panic_at(wave, idx)
                    } else {
                        cfg.drop_at(wave, idx)
                    }
                }
                "slow" => {
                    let (idx_s, ms_s) = rest
                        .split_once(':')
                        .ok_or_else(|| format!("fault `{part}`: expected slow@W.I:MS"))?;
                    let idx: usize = idx_s
                        .parse()
                        .map_err(|_| format!("fault `{part}`: bad unit `{idx_s}`"))?;
                    let ms: u64 = ms_s
                        .parse()
                        .map_err(|_| format!("fault `{part}`: bad delay `{ms_s}`"))?;
                    cfg.straggle_at(wave, idx, ms)
                }
                "crash" => {
                    let rest = rest
                        .strip_prefix('w')
                        .ok_or_else(|| format!("fault `{part}`: expected crash@W.wK"))?;
                    let (worker_s, after_s) = match rest.split_once(':') {
                        Some((w, a)) => (w, a),
                        None => (rest, "0"),
                    };
                    let worker: usize = worker_s
                        .parse()
                        .map_err(|_| format!("fault `{part}`: bad worker `{worker_s}`"))?;
                    let after: usize = after_s
                        .parse()
                        .map_err(|_| format!("fault `{part}`: bad unit count `{after_s}`"))?;
                    cfg.crash_worker(wave, worker, after)
                }
                other => return Err(format!("unknown fault kind `{other}`")),
            };
        }
        Ok(cfg)
    }
}

/// A materialised fault schedule: every decision is a pure function of the
/// configuration and the worker count, so two runs with the same plan
/// inject identically.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    unit_faults: BTreeMap<(u64, usize), UnitFault>,
    crashes: BTreeMap<u64, Vec<(usize, usize)>>,
}

impl FaultPlan {
    /// Materialises `cfg` for a pool of `workers` workers: explicit faults
    /// verbatim, then seed-sampled ones over small wave/unit coordinate
    /// ranges (early waves exist in every non-trivial run). Crashes are
    /// capped at `workers - 1` so at least one survivor always remains.
    pub fn from_config(cfg: &FaultConfig, workers: usize) -> FaultPlan {
        let mut plan = FaultPlan::default();
        let crash_budget = workers.saturating_sub(1);
        let mut crashed: Vec<usize> = Vec::new();
        for placed in &cfg.explicit {
            match *placed {
                Placed::Unit { wave, idx, fault } => {
                    plan.unit_faults.insert((wave, idx), fault);
                }
                Placed::Crash {
                    wave,
                    worker,
                    after_units,
                } => {
                    if worker < workers
                        && !crashed.contains(&worker)
                        && crashed.len() < crash_budget
                    {
                        crashed.push(worker);
                        plan.crashes
                            .entry(wave)
                            .or_default()
                            .push((worker, after_units));
                    }
                }
            }
        }
        if let Some(seed) = cfg.seed {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x6661_756c_7470_6c61);
            let sample_units = |n: usize,
                                fault: fn(&FaultConfig) -> UnitFault,
                                plan: &mut FaultPlan,
                                rng: &mut StdRng| {
                for _ in 0..n {
                    let wave = rng.random_range(1..5u64);
                    let idx = rng.random_range(0..8usize);
                    plan.unit_faults.entry((wave, idx)).or_insert(fault(cfg));
                }
            };
            sample_units(cfg.unit_panics, |_| UnitFault::Panic, &mut plan, &mut rng);
            sample_units(
                cfg.message_drops,
                |_| UnitFault::DropResult,
                &mut plan,
                &mut rng,
            );
            sample_units(
                cfg.stragglers,
                |c| UnitFault::Straggle(Duration::from_millis(c.straggle_ms)),
                &mut plan,
                &mut rng,
            );
            for _ in 0..cfg.worker_crashes {
                if crashed.len() >= crash_budget {
                    break;
                }
                let wave = rng.random_range(1..5u64);
                let worker = rng.random_range(0..workers);
                let after = rng.random_range(0..3usize);
                if !crashed.contains(&worker) {
                    crashed.push(worker);
                    plan.crashes.entry(wave).or_default().push((worker, after));
                }
            }
        }
        plan
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.unit_faults.is_empty() && self.crashes.is_empty()
    }

    /// Whether the plan drops any result message (recovery from a drop
    /// needs speculation — nothing else ever resends the unit).
    pub fn has_drops(&self) -> bool {
        self.unit_faults
            .values()
            .any(|f| matches!(f, UnitFault::DropResult))
    }

    /// The fault (if any) for unit `idx` of `wave` at re-execution
    /// `attempt`. Faults fire on the first attempt only, so a retried or
    /// speculated copy always runs clean.
    pub fn unit_fault(&self, wave: u64, idx: usize, attempt: u32) -> Option<UnitFault> {
        if attempt > 0 {
            return None;
        }
        self.unit_faults.get(&(wave, idx)).copied()
    }

    /// If `worker` is scheduled to crash in `wave`, the number of units it
    /// completes in that wave before stopping.
    pub fn crash_point(&self, wave: u64, worker: usize) -> Option<usize> {
        self.crashes
            .get(&wave)?
            .iter()
            .find(|&&(w, _)| w == worker)
            .map(|&(_, after)| after)
    }

    /// Per-worker liveness *as planned* up to and including `wave`: used
    /// for the modelled greedy schedule, which must stay deterministic
    /// even when actual thread death lags the plan (an idle worker only
    /// notices its crash when it next pulls a unit).
    pub fn planned_dead(&self, wave: u64, workers: usize) -> Vec<bool> {
        let mut dead = vec![false; workers];
        for (_, entries) in self.crashes.range(..=wave) {
            for &(w, _) in entries {
                if w < workers {
                    dead[w] = true;
                }
            }
        }
        dead
    }
}

// ---------------------------------------------------------------------------
// Errors and counters.
// ---------------------------------------------------------------------------

/// A fault the recovery machinery could not absorb (or, for
/// [`FaultError::Halted`], a deliberate stop after a checkpoint).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// Every worker crashed; no survivor can take over the queued work.
    AllWorkersLost,
    /// A stateful worker (barrier runtime fragment) died; its partition
    /// state is gone, so the run cannot continue.
    WorkerLost {
        /// The dead worker's id.
        worker: usize,
    },
    /// A wave's result collection exceeded the configured deadline.
    WaveTimeout {
        /// The wave number (1-based, `Clocks::barriers + 1`).
        wave: u64,
        /// Units still outstanding when the deadline passed.
        outstanding: usize,
    },
    /// One unit kept failing past the retry budget — a genuine
    /// (deterministic) panic, not an injected one.
    RetryBudgetExhausted {
        /// The wave number.
        wave: u64,
        /// The failing unit's index within the wave.
        unit: usize,
        /// Attempts made (including the first).
        attempts: u32,
        /// The panic payload of the last attempt.
        msg: String,
    },
    /// A unit panicked with fault tolerance disabled (no plan, no
    /// speculation): surfaced as an error instead of a poisoned hang.
    UnitPanicked {
        /// The wave number.
        wave: u64,
        /// The failing unit's index within the wave.
        unit: usize,
        /// The panic payload.
        msg: String,
    },
    /// The run stopped deliberately after checkpointing the given level
    /// (`StealConfig::halt_after_level` — the crash-resume test hook).
    Halted {
        /// The last completed (and checkpointed) level.
        level: usize,
    },
    /// Checkpoint I/O or format trouble.
    Checkpoint(String),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::AllWorkersLost => write!(f, "all workers lost"),
            FaultError::WorkerLost { worker } => {
                write!(f, "worker {worker} lost (stateful fragment unrecoverable)")
            }
            FaultError::WaveTimeout { wave, outstanding } => {
                write!(
                    f,
                    "wave {wave} timed out with {outstanding} units outstanding"
                )
            }
            FaultError::RetryBudgetExhausted {
                wave,
                unit,
                attempts,
                msg,
            } => write!(
                f,
                "unit {unit} of wave {wave} failed {attempts} attempts: {msg}"
            ),
            FaultError::UnitPanicked { wave, unit, msg } => {
                write!(f, "unit {unit} of wave {wave} panicked: {msg}")
            }
            FaultError::Halted { level } => {
                write!(f, "halted after checkpointing level {level}")
            }
            FaultError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// Recovery counters, surfaced through `DiscoveryStats` and the `perf`
/// harness. Retry decisions are plan-deterministic; requeue and
/// speculation counts depend on real thread timing and are reported for
/// observability, not compared across runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Failed unit executions that were re-queued within budget.
    pub retries: u64,
    /// Units moved off a crashed worker's queue (or re-dispatched by the
    /// straggler watermark) onto a survivor.
    pub requeued_units: u64,
    /// Speculative re-executions that beat the original to the master.
    pub speculative_wins: u64,
    /// Waves that needed any recovery action at all.
    pub recovered_waves: u64,
}

impl FaultStats {
    /// Copies the counters into a result's [`DiscoveryStats`].
    pub fn apply_to(&self, stats: &mut DiscoveryStats) {
        stats.retries = self.retries;
        stats.requeued_units = self.requeued_units;
        stats.speculative_wins = self.speculative_wins;
        stats.recovered_waves = self.recovered_waves;
    }
}

// ---------------------------------------------------------------------------
// The poison-free fault boundary.
// ---------------------------------------------------------------------------

thread_local! {
    static IN_FAULT_BOUNDARY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static QUIET_HOOK: OnceLock<()> = OnceLock::new();

/// Installs (once, process-wide) a panic hook that stays silent for panics
/// raised inside [`run_guarded`] and defers to the previous hook for
/// everything else. Chaos runs inject panics by design; spraying the
/// default backtrace for each would drown real diagnostics.
pub fn install_quiet_panic_hook() {
    QUIET_HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_FAULT_BOUNDARY.with(|c| c.get()) {
                previous(info);
            }
        }));
    });
}

/// Resets the boundary marker even when the guarded closure unwinds.
struct BoundaryReset;

impl Drop for BoundaryReset {
    fn drop(&mut self) {
        IN_FAULT_BOUNDARY.with(|c| c.set(false));
    }
}

/// Runs `f` inside the fault boundary: a panic (injected or genuine) is
/// caught and returned as its payload message instead of unwinding into
/// the worker loop. The boundary holds no locks and every cache the
/// closure may have half-written is reset by the caller before reuse, so
/// `AssertUnwindSafe` introduces no observable broken invariants.
pub fn run_guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    let res = catch_unwind(AssertUnwindSafe(|| {
        IN_FAULT_BOUNDARY.with(|c| c.set(true));
        let _reset = BoundaryReset;
        f()
    }));
    res.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "worker panic (non-string payload)".to_string()
        }
    })
}

/// Raises the injected panic for a planned [`UnitFault::Panic`]. Lives
/// here (not in the worker loop) so the hot-path modules stay panic-free;
/// callers always sit inside [`run_guarded`].
pub fn injected_panic(wave: u64, idx: usize) -> ! {
    panic!("injected fault: unit {idx} of wave {wave}")
}

// ---------------------------------------------------------------------------
// Checkpoint serialization.
// ---------------------------------------------------------------------------

/// One frequent pattern of the checkpointed frontier, with everything the
/// level-wise loop needs to continue: support, inherited covered
/// signatures, and the full match set — shared with the live run, not
/// copied.
#[derive(Clone, Debug)]
pub struct FrontierNode {
    /// The pattern.
    pub pattern: Pattern,
    /// `supp(Q, G)`.
    pub support: usize,
    /// Satisfied dependency signatures inherited down the chain.
    pub covered: Vec<Covered>,
    /// Verified matches.
    pub matches: Arc<MatchSet>,
}

/// A completed-level snapshot of `par_dis_steal`: everything needed to
/// resume a killed run and emit the exact same output as an uninterrupted
/// one. The consistent cut is the level boundary — the point at which the
/// driver has emitted every rule of the level and the executor has
/// dropped below-frontier matches.
#[derive(Clone, Debug, Default)]
pub struct Checkpoint {
    /// Node count of the graph the snapshot was taken on.
    pub graph_nodes: usize,
    /// Edge count of the same graph.
    pub graph_edges: usize,
    /// Fingerprint of the discovery configuration.
    pub cfg_fingerprint: u64,
    /// Last fully completed (and emitted) level.
    pub level: usize,
    /// Semantic lattice counters at the cut (timings and fault counters
    /// restart from zero on resume).
    pub counters: [usize; 5],
    /// `HSpawnStats` counters at the cut.
    pub hspawn: HSpawnStats,
    /// Rules emitted so far, in emission order.
    pub rules: Vec<DiscoveredGfd>,
    /// Negative patterns emitted so far (the `NVSpawn` embedding filter).
    pub negative_patterns: Vec<Pattern>,
    /// The frequent frontier of `level`, in generation-tree order.
    pub frontier: Vec<FrontierNode>,
}

/// FNV-1a fingerprint of a configuration's `Debug` rendering — enough to
/// reject resuming under different mining parameters.
pub fn config_fingerprint(cfg: &impl fmt::Debug) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{cfg:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl Checkpoint {
    /// Records the semantic counters of `stats` in the snapshot.
    pub fn record_stats(&mut self, stats: &DiscoveryStats) {
        self.counters = [
            stats.patterns_spawned,
            stats.patterns_verified,
            stats.patterns_empty,
            stats.patterns_infrequent,
            stats.patterns_deduped,
        ];
        self.hspawn = stats.hspawn;
    }

    /// Restores the semantic counters into `stats`.
    pub fn restore_stats(&self, stats: &mut DiscoveryStats) {
        stats.patterns_spawned = self.counters[0];
        stats.patterns_verified = self.counters[1];
        stats.patterns_empty = self.counters[2];
        stats.patterns_infrequent = self.counters[3];
        stats.patterns_deduped = self.counters[4];
        stats.hspawn = self.hspawn;
    }

    /// Rejects a snapshot taken on a different graph or configuration.
    pub fn validate(&self, nodes: usize, edges: usize, cfg_fp: u64) -> Result<(), FaultError> {
        if (self.graph_nodes, self.graph_edges) != (nodes, edges) {
            return Err(FaultError::Checkpoint(format!(
                "graph mismatch: snapshot {}n/{}e vs live {nodes}n/{edges}e",
                self.graph_nodes, self.graph_edges
            )));
        }
        if self.cfg_fingerprint != cfg_fp {
            return Err(FaultError::Checkpoint(
                "discovery configuration changed since the snapshot".to_string(),
            ));
        }
        Ok(())
    }

    /// Writes the snapshot atomically (temp file + rename) to `path`.
    pub fn save(&self, path: &Path) -> Result<(), FaultError> {
        let tmp = path.with_extension("ckpt.tmp");
        let text = self.to_text();
        std::fs::write(&tmp, text)
            .map_err(|e| FaultError::Checkpoint(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| FaultError::Checkpoint(format!("rename to {}: {e}", path.display())))
    }

    /// Loads a snapshot, or `None` when no file exists yet (a fresh run).
    pub fn load_if_exists(path: &Path) -> Result<Option<Checkpoint>, FaultError> {
        match std::fs::read_to_string(path) {
            Ok(text) => Checkpoint::from_text(&text).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(FaultError::Checkpoint(format!(
                "read {}: {e}",
                path.display()
            ))),
        }
    }

    /// Renders the versioned text form (whitespace-separated tokens; line
    /// structure is cosmetic).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str("gfd-checkpoint 1\n");
        s.push_str(&format!(
            "graph {} {}\ncfg {}\nlevel {}\n",
            self.graph_nodes, self.graph_edges, self.cfg_fingerprint, self.level
        ));
        s.push_str(&format!(
            "counters {} {} {} {} {}\n",
            self.counters[0],
            self.counters[1],
            self.counters[2],
            self.counters[3],
            self.counters[4]
        ));
        s.push_str(&format!(
            "hspawn {} {} {} {} {}\n",
            self.hspawn.candidates,
            self.hspawn.pruned_support,
            self.hspawn.pruned_covered,
            self.hspawn.pruned_trivial,
            self.hspawn.negative_candidates
        ));
        s.push_str(&format!("rules {}\n", self.rules.len()));
        for r in &self.rules {
            s.push_str(&format!(
                "rule {} {} {}\n",
                r.support,
                r.level,
                r.confidence.to_bits()
            ));
            write_pattern(&mut s, r.gfd.pattern());
            s.push_str(&format!("lhs {}", r.gfd.lhs().len()));
            for l in r.gfd.lhs() {
                write_literal(&mut s, l);
            }
            s.push('\n');
            match r.gfd.rhs() {
                Rhs::False => s.push_str("rhs f\n"),
                Rhs::Lit(l) => {
                    s.push_str("rhs r");
                    write_literal(&mut s, &l);
                    s.push('\n');
                }
            }
        }
        s.push_str(&format!("negatives {}\n", self.negative_patterns.len()));
        for p in &self.negative_patterns {
            write_pattern(&mut s, p);
        }
        s.push_str(&format!("frontier {}\n", self.frontier.len()));
        for n in &self.frontier {
            s.push_str(&format!(
                "node {} {} {}\n",
                n.support,
                n.matches.len(),
                n.matches.arity()
            ));
            write_pattern(&mut s, &n.pattern);
            s.push_str(&format!("covered {}\n", n.covered.len()));
            for (lhs, rhs) in &n.covered {
                s.push_str(&format!("cov {}", lhs.len()));
                for l in lhs {
                    write_literal(&mut s, l);
                }
                write_literal(&mut s, rhs);
                s.push('\n');
            }
            for row in n.matches.iter() {
                s.push_str("row");
                for v in row {
                    s.push_str(&format!(" {}", v.index()));
                }
                s.push('\n');
            }
        }
        s.push_str("end\n");
        s
    }

    /// Parses [`Checkpoint::to_text`]'s output.
    pub fn from_text(text: &str) -> Result<Checkpoint, FaultError> {
        let mut t = Toks::new(text);
        t.expect_tok("gfd-checkpoint")?;
        let version = t.usize_("version")?;
        if version != 1 {
            return Err(ck_err(format!("unsupported checkpoint version {version}")));
        }
        let mut ck = Checkpoint::default();
        t.expect_tok("graph")?;
        ck.graph_nodes = t.usize_("graph nodes")?;
        ck.graph_edges = t.usize_("graph edges")?;
        t.expect_tok("cfg")?;
        ck.cfg_fingerprint = t.u64_("cfg fingerprint")?;
        t.expect_tok("level")?;
        ck.level = t.usize_("level")?;
        t.expect_tok("counters")?;
        for c in ck.counters.iter_mut() {
            *c = t.usize_("counter")?;
        }
        t.expect_tok("hspawn")?;
        ck.hspawn.candidates = t.usize_("hspawn")?;
        ck.hspawn.pruned_support = t.usize_("hspawn")?;
        ck.hspawn.pruned_covered = t.usize_("hspawn")?;
        ck.hspawn.pruned_trivial = t.usize_("hspawn")?;
        ck.hspawn.negative_candidates = t.usize_("hspawn")?;
        t.expect_tok("rules")?;
        let nrules = t.usize_("rule count")?;
        for _ in 0..nrules {
            t.expect_tok("rule")?;
            let support = t.usize_("rule support")?;
            let level = t.usize_("rule level")?;
            let confidence = f64::from_bits(t.u64_("rule confidence")?);
            let pattern = read_pattern(&mut t)?;
            t.expect_tok("lhs")?;
            let k = t.usize_("lhs size")?;
            let mut lhs = Vec::with_capacity(k);
            for _ in 0..k {
                lhs.push(read_literal(&mut t)?);
            }
            t.expect_tok("rhs")?;
            let rhs = match t.str_("rhs kind")? {
                "f" => Rhs::False,
                "r" => Rhs::Lit(read_literal(&mut t)?),
                other => return Err(ck_err(format!("bad rhs kind `{other}`"))),
            };
            ck.rules.push(DiscoveredGfd {
                gfd: Gfd::new(pattern, lhs, rhs),
                support,
                level,
                confidence,
            });
        }
        t.expect_tok("negatives")?;
        let nneg = t.usize_("negative count")?;
        for _ in 0..nneg {
            ck.negative_patterns.push(read_pattern(&mut t)?);
        }
        t.expect_tok("frontier")?;
        let nfront = t.usize_("frontier count")?;
        for _ in 0..nfront {
            t.expect_tok("node")?;
            let support = t.usize_("node support")?;
            let rows = t.usize_("node rows")?;
            let arity = t.usize_("node arity")?;
            let pattern = read_pattern(&mut t)?;
            t.expect_tok("covered")?;
            let ncov = t.usize_("covered count")?;
            let mut covered = Vec::with_capacity(ncov);
            for _ in 0..ncov {
                t.expect_tok("cov")?;
                let k = t.usize_("cov lhs size")?;
                let mut lhs = Vec::with_capacity(k);
                for _ in 0..k {
                    lhs.push(read_literal(&mut t)?);
                }
                let rhs = read_literal(&mut t)?;
                covered.push((lhs, rhs));
            }
            let mut matches = MatchSet::new(arity);
            let mut row = Vec::with_capacity(arity);
            for _ in 0..rows {
                t.expect_tok("row")?;
                row.clear();
                for _ in 0..arity {
                    row.push(NodeId::from_index(t.usize_("row entry")?));
                }
                matches.push(&row);
            }
            ck.frontier.push(FrontierNode {
                pattern,
                support,
                covered,
                matches: Arc::new(matches),
            });
        }
        t.expect_tok("end")?;
        Ok(ck)
    }
}

fn ck_err(msg: String) -> FaultError {
    FaultError::Checkpoint(msg)
}

/// Token-stream reader over the checkpoint text.
struct Toks<'a> {
    it: std::str::SplitWhitespace<'a>,
}

impl<'a> Toks<'a> {
    fn new(text: &'a str) -> Toks<'a> {
        Toks {
            it: text.split_whitespace(),
        }
    }

    fn str_(&mut self, what: &str) -> Result<&'a str, FaultError> {
        self.it
            .next()
            .ok_or_else(|| ck_err(format!("truncated at {what}")))
    }

    fn expect_tok(&mut self, tok: &str) -> Result<(), FaultError> {
        let got = self.str_(tok)?;
        if got != tok {
            return Err(ck_err(format!("expected `{tok}`, found `{got}`")));
        }
        Ok(())
    }

    fn usize_(&mut self, what: &str) -> Result<usize, FaultError> {
        let s = self.str_(what)?;
        s.parse().map_err(|_| ck_err(format!("bad {what} `{s}`")))
    }

    fn u64_(&mut self, what: &str) -> Result<u64, FaultError> {
        let s = self.str_(what)?;
        s.parse().map_err(|_| ck_err(format!("bad {what} `{s}`")))
    }
}

fn write_plabel(s: &mut String, l: &PLabel) {
    match l {
        PLabel::Wildcard => s.push_str(" w"),
        PLabel::Is(id) => s.push_str(&format!(" l{}", id.index())),
    }
}

fn read_plabel(t: &mut Toks) -> Result<PLabel, FaultError> {
    let tok = t.str_("label")?;
    if tok == "w" {
        return Ok(PLabel::Wildcard);
    }
    let id = tok
        .strip_prefix('l')
        .and_then(|n| n.parse::<usize>().ok())
        .ok_or_else(|| ck_err(format!("bad label `{tok}`")))?;
    Ok(PLabel::Is(LabelId::from_index(id)))
}

fn write_pattern(s: &mut String, p: &Pattern) {
    s.push_str(&format!("p {} {}", p.pivot(), p.node_count()));
    for l in p.node_labels() {
        write_plabel(s, l);
    }
    s.push_str(&format!(" {}", p.edge_count()));
    for e in p.edges() {
        s.push_str(&format!(" {} {}", e.src, e.dst));
        write_plabel(s, &e.label);
    }
    s.push('\n');
}

fn read_pattern(t: &mut Toks) -> Result<Pattern, FaultError> {
    t.expect_tok("p")?;
    let pivot = t.usize_("pattern pivot")?;
    let n = t.usize_("pattern node count")?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        nodes.push(read_plabel(t)?);
    }
    let e = t.usize_("pattern edge count")?;
    let mut edges = Vec::with_capacity(e);
    for _ in 0..e {
        let src = t.usize_("edge src")?;
        let dst = t.usize_("edge dst")?;
        if src >= n || dst >= n {
            return Err(ck_err(format!("edge endpoint out of range ({src},{dst})")));
        }
        let label = read_plabel(t)?;
        edges.push(PEdge { src, dst, label });
    }
    if pivot >= n {
        return Err(ck_err(format!("pivot {pivot} out of range")));
    }
    Ok(Pattern::new(nodes, edges, pivot))
}

fn write_value(s: &mut String, v: &Value) {
    match v {
        Value::Str(sym) => s.push_str(&format!(" s{}", sym.index())),
        Value::Int(i) => s.push_str(&format!(" i{i}")),
    }
}

fn read_value(t: &mut Toks) -> Result<Value, FaultError> {
    let tok = t.str_("value")?;
    if let Some(n) = tok.strip_prefix('s') {
        let id: usize = n
            .parse()
            .map_err(|_| ck_err(format!("bad symbol `{tok}`")))?;
        return Ok(Value::Str(SymbolId::from_index(id)));
    }
    if let Some(n) = tok.strip_prefix('i') {
        let i: i64 = n.parse().map_err(|_| ck_err(format!("bad int `{tok}`")))?;
        return Ok(Value::Int(i));
    }
    Err(ck_err(format!("bad value `{tok}`")))
}

fn write_literal(s: &mut String, l: &Literal) {
    match l {
        Literal::Const { var, attr, value } => {
            s.push_str(&format!(" c {} {}", var, attr.index()));
            write_value(s, value);
        }
        Literal::VarVar {
            lvar,
            lattr,
            rvar,
            rattr,
        } => {
            s.push_str(&format!(
                " v {} {} {} {}",
                lvar,
                lattr.index(),
                rvar,
                rattr.index()
            ));
        }
    }
}

fn read_literal(t: &mut Toks) -> Result<Literal, FaultError> {
    match t.str_("literal kind")? {
        "c" => {
            let var = t.usize_("literal var")?;
            let attr = AttrId::from_index(t.usize_("literal attr")?);
            let value = read_value(t)?;
            Ok(Literal::Const { var, attr, value })
        }
        "v" => {
            // Serialized literals are already in normalised term order, so
            // the variant is reconstructed directly (`Literal::var_var`
            // would re-normalise, which is a no-op here but asserts on the
            // identity case a corrupt file could smuggle in).
            let lvar = t.usize_("literal lvar")?;
            let lattr = AttrId::from_index(t.usize_("literal lattr")?);
            let rvar = t.usize_("literal rvar")?;
            let rattr = AttrId::from_index(t.usize_("literal rattr")?);
            if (lvar, lattr) >= (rvar, rattr) {
                return Err(ck_err("denormalised var-var literal".to_string()));
            }
            Ok(Literal::VarVar {
                lvar,
                lattr,
                rvar,
                rattr,
            })
        }
        other => Err(ck_err(format!("bad literal kind `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_respect_the_crash_cap() {
        let cfg = FaultConfig::with_seed(42);
        let a = FaultPlan::from_config(&cfg, 4);
        let b = FaultPlan::from_config(&cfg, 4);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!a.is_empty());
        // A single-worker pool never crashes its only worker.
        let solo = FaultPlan::from_config(&cfg, 1);
        assert!(solo.planned_dead(u64::MAX, 1).iter().all(|&d| !d));
    }

    #[test]
    fn faults_fire_on_first_attempt_only() {
        let plan = FaultPlan::from_config(&FaultConfig::default().panic_at(2, 3), 2);
        assert_eq!(plan.unit_fault(2, 3, 0), Some(UnitFault::Panic));
        assert_eq!(plan.unit_fault(2, 3, 1), None);
        assert_eq!(plan.unit_fault(2, 4, 0), None);
    }

    #[test]
    fn parse_round_trips_every_fault_kind() {
        let cfg = FaultConfig::parse("panic@1.0, drop@2.3, slow@4.1:50, crash@3.w1:2")
            .expect("valid spec");
        let plan = FaultPlan::from_config(&cfg, 4);
        assert_eq!(plan.unit_fault(1, 0, 0), Some(UnitFault::Panic));
        assert_eq!(plan.unit_fault(2, 3, 0), Some(UnitFault::DropResult));
        assert_eq!(
            plan.unit_fault(4, 1, 0),
            Some(UnitFault::Straggle(Duration::from_millis(50)))
        );
        assert_eq!(plan.crash_point(3, 1), Some(2));
        assert!(FaultConfig::parse("explode@1.1").is_err());
        assert!(FaultConfig::parse("panic@x.1").is_err());
    }

    #[test]
    fn run_guarded_catches_and_reports_panics() {
        install_quiet_panic_hook();
        assert_eq!(run_guarded(|| 7), Ok(7));
        let err = run_guarded(|| injected_panic(3, 1)).expect_err("must catch");
        assert!(err.contains("wave 3"), "payload lost: {err}");
        // The boundary marker resets even after an unwind.
        assert!(!IN_FAULT_BOUNDARY.with(|c| c.get()));
    }

    #[test]
    fn checkpoint_text_round_trips() {
        let pattern = Pattern::new(
            vec![PLabel::Is(LabelId::from_index(2)), PLabel::Wildcard],
            vec![PEdge {
                src: 0,
                dst: 1,
                label: PLabel::Is(LabelId::from_index(5)),
            }],
            0,
        );
        let lit = Literal::constant(
            0,
            AttrId::from_index(3),
            Value::Str(SymbolId::from_index(9)),
        );
        let vv = Literal::var_var(0, AttrId::from_index(1), 1, AttrId::from_index(0));
        let mut matches = MatchSet::new(2);
        matches.push(&[NodeId::from_index(4), NodeId::from_index(7)]);
        matches.push(&[NodeId::from_index(1), NodeId::from_index(0)]);
        let mut ck = Checkpoint {
            graph_nodes: 30,
            graph_edges: 41,
            cfg_fingerprint: 0xdead_beef,
            level: 2,
            rules: vec![
                DiscoveredGfd {
                    gfd: Gfd::new(pattern.clone(), vec![lit], Rhs::Lit(vv)),
                    support: 5,
                    level: 1,
                    confidence: 0.875,
                },
                DiscoveredGfd {
                    gfd: Gfd::new(pattern.clone(), vec![], Rhs::False),
                    support: 3,
                    level: 2,
                    confidence: 1.0,
                },
            ],
            negative_patterns: vec![pattern.clone()],
            frontier: vec![FrontierNode {
                pattern,
                support: 2,
                covered: vec![(vec![lit], vv), (vec![], lit)],
                matches: Arc::new(matches),
            }],
            ..Checkpoint::default()
        };
        ck.counters = [9, 8, 7, 6, 5];
        ck.hspawn.candidates = 11;
        ck.hspawn.negative_candidates = 4;

        let back = Checkpoint::from_text(&ck.to_text()).expect("round trip");
        assert_eq!(ck.to_text(), back.to_text());
        assert_eq!(back.rules.len(), 2);
        assert_eq!(back.rules[0].confidence.to_bits(), 0.875f64.to_bits());
        assert_eq!(back.frontier[0].matches.len(), 2);
        assert_eq!(back.frontier[0].matches.get(0)[1], NodeId::from_index(7));
        assert!(Checkpoint::from_text("gfd-checkpoint 9 end").is_err());
        assert!(Checkpoint::from_text("garbage").is_err());
        assert!(back.validate(30, 41, 0xdead_beef).is_ok());
        assert!(back.validate(31, 41, 0xdead_beef).is_err());
        assert!(back.validate(30, 41, 1).is_err());
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("gfd-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("wave.ckpt");
        let ck = Checkpoint {
            graph_nodes: 1,
            graph_edges: 0,
            level: 3,
            ..Checkpoint::default()
        };
        ck.save(&path).expect("save");
        let back = Checkpoint::load_if_exists(&path)
            .expect("load")
            .expect("exists");
        assert_eq!(back.level, 3);
        assert!(Checkpoint::load_if_exists(&dir.join("absent.ckpt"))
            .expect("missing file is not an error")
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
