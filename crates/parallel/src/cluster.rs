//! The master/worker superstep runtime (§6).
//!
//! A [`Cluster`] owns `n` workers, each holding one disjoint edge-cut
//! [`Shard`] (owned node range + explicit cut-edge boundary tables) plus
//! the per-pattern match sets and match tables assigned to it. The master
//! drives supersteps by broadcasting [`Task`]s and merging [`TaskResult`]s
//! at barriers.
//!
//! Communication is modelled the way the paper's deployment ships data:
//! constructing the cluster charges one broadcast that installs each
//! worker's shard (owned labels + attributes + held edges + ghost ids —
//! not an `Arc`'d whole graph), and every join charges the remote
//! `e(F_t)` edge lists a worker needs beyond what its shard and boundary
//! tables already hold.
//!
//! Two execution modes share the identical task-processing code:
//!
//! * [`ExecMode::Threads`] — one OS thread per worker (crossbeam
//!   channels); wall time reflects real parallelism up to the machine's
//!   core count.
//! * [`ExecMode::Simulated`] — tasks run inline, but per-task CPU time is
//!   *attributed* to its virtual worker; the reported time is the sum over
//!   barriers of the slowest worker (makespan) plus a communication charge
//!   for every byte a real cluster would ship. This measures exactly what
//!   Fig. 5 plots — how the schedule spreads work over `n` machines —
//!   without `n` physical machines (the paper used a 20-node EC2 cluster).

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use gfd_core::{BitmapIndex, CatalogCounts, DiscoveryConfig, MatchTable, PartialStats, RawHarvest};
use gfd_graph::{AttrId, FxHashMap, Graph, LabelId, NodeId};
use gfd_logic::{Literal, Rhs};
use gfd_pattern::{extend_matches, Extension, MatchSet, PLabel, Pattern};

use crate::fault::{self, FaultConfig, FaultError, FaultPlan, FaultStats, UnitFault};
use crate::partition::Shard;

/// Execution mode of a [`Cluster`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// Real threads (one per worker).
    Threads,
    /// Inline execution with per-worker cost attribution.
    Simulated,
}

/// Cluster-level configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of workers `n`.
    pub workers: usize,
    /// Execution mode.
    pub mode: ExecMode,
    /// Modelled network bandwidth for the simulated communication charge.
    pub bandwidth_bytes_per_sec: f64,
    /// Enable skewed-match re-balancing (§6.2); disabling reproduces the
    /// `ParGFDnb` ablation.
    pub load_balance: bool,
    /// A pattern's matches are re-balanced when the largest fragment share
    /// exceeds `skew_factor × (total / n)`.
    pub skew_factor: f64,
    /// Fault-injection plan (inactive by default). Worker crashes are
    /// unrecoverable in this runtime — a crashed worker takes its fragment
    /// state with it — and surface as [`FaultError::WorkerLost`]; unit
    /// panics, drops, and stragglers are recovered by bounded same-worker
    /// retry.
    pub fault: FaultConfig,
}

impl ClusterConfig {
    /// Default configuration for `n` workers in the given mode.
    pub fn new(workers: usize, mode: ExecMode) -> ClusterConfig {
        ClusterConfig {
            workers,
            mode,
            bandwidth_bytes_per_sec: 1e9,
            load_balance: true,
            skew_factor: 2.0,
            fault: FaultConfig::default(),
        }
    }
}

/// Time and traffic bookkeeping across barriers.
#[derive(Clone, Debug, Default)]
pub struct Clocks {
    /// Σ over barriers of the slowest worker's task time.
    pub makespan: Duration,
    /// Σ of all task times (total work).
    pub busy: Duration,
    /// Master-side compute between barriers (accounted by the driver).
    pub master: Duration,
    /// Total bytes the schedule would ship.
    pub comm_bytes: u64,
    /// Modelled time spent shipping (max per barrier / bandwidth).
    pub comm_time: Duration,
    /// Number of barriers executed.
    pub barriers: usize,
    /// Σ over barriers of the slowest worker's *modelled* work (rows
    /// touched). Deterministic counterpart of `makespan`: independent of
    /// machine load, it is what scalability tests compare across `n`.
    pub work_makespan: u64,
    /// Σ of all modelled work units (deterministic counterpart of `busy`).
    pub work_busy: u64,
    /// Modelled retry/backoff charge from fault recovery, in backoff
    /// units (`2^attempt` per retry). Kept apart from `work_makespan` so
    /// recovery never perturbs the deterministic schedule the
    /// scalability tests compare.
    pub fault_backoff: u64,
}

impl Clocks {
    /// The simulated parallel running time: barrier makespans plus
    /// communication plus master compute.
    pub fn simulated_total(&self) -> Duration {
        self.makespan + self.comm_time + self.master
    }
}

/// A unit of work executed by one worker within a barrier.
#[derive(Clone, Debug)]
pub enum Task {
    /// Materialise the matches of a single-node root pattern over the
    /// worker's *owned* nodes.
    SeedRoot {
        /// Generation-tree node id.
        node: usize,
        /// The single-node pattern.
        pattern: Pattern,
    },
    /// Harvest extension proposals from local matches of `node`.
    Harvest {
        /// Tree node id whose matches to scan.
        node: usize,
        /// Discovery configuration (for `k` and caps).
        cfg: DiscoveryConfig,
    },
    /// The distributed incremental join `Q(F_s) ⋈ e`: extend local matches
    /// of `parent` by `ext`, storing them as matches of `child`.
    Join {
        /// Parent tree node id.
        parent: usize,
        /// Child tree node id.
        child: usize,
        /// The single-edge extension.
        ext: Extension,
    },
    /// Build (and cache) the local match table of `node`, returning
    /// mergeable literal-candidate counts.
    BuildTable {
        /// Tree node id.
        node: usize,
        /// Active attributes `Γ`.
        attrs: Vec<AttrId>,
    },
    /// Evaluate `X → rhs` on the cached local table of `node`.
    Evaluate {
        /// Tree node id.
        node: usize,
        /// Premises, shared across the broadcast (cloning the task clones a
        /// refcount, not the literal vector).
        x: Arc<[Literal]>,
        /// Consequence.
        rhs: Rhs,
    },
    /// Whether no local match of `node` satisfies `X`.
    LhsEmpty {
        /// Tree node id.
        node: usize,
        /// Premises (shared, as in [`Task::Evaluate`]).
        x: Arc<[Literal]>,
    },
    /// Remove and return the local matches of `node` (re-balancing).
    TakeMatches {
        /// Tree node id.
        node: usize,
    },
    /// Install matches for `node` (re-balancing).
    PutMatches {
        /// Tree node id.
        node: usize,
        /// The pattern (workers index matches by pattern).
        pattern: Pattern,
        /// Rows assigned to this worker.
        ms: MatchSet,
    },
    /// Drop matches + tables of the given nodes (memory reclamation).
    DropNodes {
        /// Tree node ids.
        nodes: Vec<usize>,
    },
    /// Drop only the cached table of `node`.
    DropTable {
        /// Tree node id.
        node: usize,
    },
    /// No-op (keeps barrier arithmetic simple).
    Nop,
}

/// Result of one [`Task`].
#[derive(Debug)]
pub enum TaskResult {
    /// Generic completion.
    Unit,
    /// Raw extension harvest.
    Harvested(Box<RawHarvest>),
    /// Join outcome: local row count, local distinct pivots, and the bytes
    /// a real cluster would have shipped for this work unit.
    Joined {
        /// Local rows of `Q'(F_s)`.
        rows: usize,
        /// Local distinct pivot images (sorted).
        pivots: Vec<NodeId>,
        /// Modelled shipped bytes.
        shipped: usize,
    },
    /// Literal-candidate counts of a local table.
    Counts(Box<CatalogCounts>),
    /// Partial candidate evaluation, and the [`BitmapIndex::work`] it
    /// added.
    Stats(Box<PartialStats>, u64),
    /// Local LHS emptiness, and the [`BitmapIndex::work`] the test added.
    Empty(bool, u64),
    /// Extracted matches.
    Matches(MatchSet),
}

/// Per-worker state: the shard plus pattern-indexed matches/tables.
pub struct WorkerCtx {
    /// Worker id.
    pub id: usize,
    /// Shared read-only graph. In-process this backs two modelled
    /// transfers, both charged to `comm_bytes`: the shard installed at
    /// construction (owned labels/attributes + held edges) and the remote
    /// `e(F_t)` lists a join pulls through the shard boundary.
    pub g: Arc<Graph>,
    /// The owned shard: a disjoint node range plus cut-edge boundary
    /// tables.
    pub shard: Shard,
    /// Total workers.
    pub n: usize,
    /// Global per-label edge counts (communication model).
    pub global_label_counts: Arc<FxHashMap<LabelId, usize>>,
    patterns: FxHashMap<usize, Pattern>,
    matches: FxHashMap<usize, MatchSet>,
    /// Per-pattern match table plus its lazily built literal-bitmap index
    /// (bitmaps persist across every Evaluate/LhsEmpty of the pattern).
    tables: FxHashMap<usize, (MatchTable, BitmapIndex)>,
}

impl WorkerCtx {
    fn new(
        id: usize,
        n: usize,
        g: Arc<Graph>,
        shard: Shard,
        global_label_counts: Arc<FxHashMap<LabelId, usize>>,
    ) -> WorkerCtx {
        WorkerCtx {
            id,
            g,
            shard,
            n,
            global_label_counts,
            patterns: FxHashMap::default(),
            matches: FxHashMap::default(),
            tables: FxHashMap::default(),
        }
    }

    /// Bytes a real deployment would ship to this worker for the join work
    /// unit `Q(F_s) ⋈ e(F_t), t ≠ s`: every matching edge the shard does
    /// not already hold — internal and boundary edges arrived with the
    /// shard broadcast, so only truly remote edges cross the network, 12
    /// bytes each (src, dst, label).
    fn shipped_bytes(&self, label: PLabel) -> usize {
        // gfd-lint: allow(nondeterminism) — commutative sum; visit order cannot change a total
        let total_all: usize = self.global_label_counts.values().sum();
        let (total, local) = match label {
            PLabel::Is(l) => (
                self.global_label_counts.get(&l).copied().unwrap_or(0),
                self.shard.edges_with_label(l),
            ),
            PLabel::Wildcard => (total_all, self.shard.held_edges()),
        };
        total.saturating_sub(local) * 12
    }

    /// Processes one task, returning its result and the modelled cost in
    /// work units (rows touched) — the deterministic load measure behind
    /// [`Clocks::work_makespan`].
    fn process(&mut self, task: Task) -> (TaskResult, u64) {
        match task {
            Task::SeedRoot { node, pattern } => {
                let mut ms = MatchSet::new(1);
                let mut pivots = Vec::new();
                let candidates: Vec<NodeId> = match pattern.node_label(0) {
                    PLabel::Is(l) => self.g.nodes_with_label(l).to_vec(),
                    PLabel::Wildcard => self.g.nodes().collect(),
                };
                let cost = candidates.len() as u64;
                for v in candidates {
                    // Disjoint shard ownership: every node seeds exactly
                    // one worker, so fragment match sets never overlap.
                    if self.shard.owns(v) {
                        ms.push(&[v]);
                        pivots.push(v);
                    }
                }
                pivots.sort_unstable();
                let rows = ms.len();
                self.patterns.insert(node, pattern);
                self.matches.insert(node, ms);
                (
                    TaskResult::Joined {
                        rows,
                        pivots,
                        shipped: 0,
                    },
                    cost,
                )
            }
            Task::Harvest { node, cfg } => {
                let (Some(q), Some(ms)) = (self.patterns.get(&node), self.matches.get(&node))
                else {
                    return (TaskResult::Harvested(Box::default()), 1);
                };
                let cost = ms.len() as u64;
                (
                    TaskResult::Harvested(Box::new(gfd_core::harvest(q, ms, &self.g, &cfg))),
                    cost,
                )
            }
            Task::Join { parent, child, ext } => {
                let (Some(q), Some(ms)) = (self.patterns.get(&parent), self.matches.get(&parent))
                else {
                    return (
                        TaskResult::Joined {
                            rows: 0,
                            pivots: Vec::new(),
                            shipped: 0,
                        },
                        1,
                    );
                };
                let child_pattern = q.extend(&ext);
                let child_ms = extend_matches(q, ms, &ext, &self.g);
                let rows = child_ms.len();
                let cost = (ms.len() + rows) as u64;
                // The pivot is a pattern variable, so it is in bounds for
                // every match row (rows have exactly pattern-width entries).
                let pivot_var = child_pattern.pivot();
                let mut pivots: Vec<NodeId> = child_ms.iter().map(|m| m[pivot_var]).collect();
                pivots.sort_unstable();
                pivots.dedup();
                let shipped = self.shipped_bytes(ext.label);
                self.patterns.insert(child, child_pattern);
                self.matches.insert(child, child_ms);
                (
                    TaskResult::Joined {
                        rows,
                        pivots,
                        shipped,
                    },
                    cost,
                )
            }
            Task::BuildTable { node, attrs } => {
                let (Some(q), Some(ms)) = (self.patterns.get(&node), self.matches.get(&node))
                else {
                    return (TaskResult::Counts(Box::default()), 1);
                };
                let cost = ms.len() as u64;
                let table = MatchTable::build(q, ms, &self.g, &attrs);
                let counts = CatalogCounts::count(&table);
                let index = BitmapIndex::new(&table);
                self.tables.insert(node, (table, index));
                (TaskResult::Counts(Box::new(counts)), cost)
            }
            Task::Evaluate { node, x, rhs } => match self.tables.get_mut(&node) {
                Some((t, idx)) => {
                    let w0 = idx.work();
                    let stats = Box::new(idx.partial_evaluate(t, &x, &rhs));
                    (TaskResult::Stats(stats, idx.work() - w0), t.rows() as u64)
                }
                None => (TaskResult::Stats(Box::default(), 0), 1),
            },
            Task::LhsEmpty { node, x } => match self.tables.get_mut(&node) {
                Some((t, idx)) => {
                    let w0 = idx.work();
                    let empty = !idx.lhs_satisfiable(t, &x);
                    (TaskResult::Empty(empty, idx.work() - w0), t.rows() as u64)
                }
                None => (TaskResult::Empty(true, 0), 1),
            },
            Task::TakeMatches { node } => {
                let arity = self
                    .patterns
                    .get(&node)
                    .map(|p| p.node_count())
                    .unwrap_or(1);
                let ms = self
                    .matches
                    .remove(&node)
                    .unwrap_or_else(|| MatchSet::new(arity));
                let cost = ms.len() as u64;
                (TaskResult::Matches(ms), cost)
            }
            Task::PutMatches { node, pattern, ms } => {
                let cost = ms.len() as u64;
                self.patterns.insert(node, pattern);
                self.matches.insert(node, ms);
                (TaskResult::Unit, cost)
            }
            Task::DropNodes { nodes } => {
                for n in nodes {
                    self.patterns.remove(&n);
                    self.matches.remove(&n);
                    self.tables.remove(&n);
                }
                (TaskResult::Unit, 1)
            }
            Task::DropTable { node } => {
                self.tables.remove(&node);
                (TaskResult::Unit, 1)
            }
            Task::Nop => (TaskResult::Unit, 1),
        }
    }
}

enum WorkerMsg {
    Task {
        /// Wave (barrier) number, for stale-reply filtering at the master.
        wave: u64,
        /// Retry attempt of this dispatch (0 = original).
        attempt: u32,
        task: Box<Task>,
    },
    Stop,
}

/// One worker reply: `(wave, attempt, outcome)`. `Err` carries the panic
/// message of a task that unwound inside the worker's fault boundary.
type ClusterReply = (u64, u32, Result<(TaskResult, u64, Duration), String>);

struct ThreadWorker {
    tx: Sender<WorkerMsg>,
    rx: Receiver<ClusterReply>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// The master-side handle to `n` workers.
pub struct Cluster {
    mode: ExecMode,
    /// Simulated-mode states (empty in threads mode).
    states: Vec<WorkerCtx>,
    /// Threads-mode channels (empty in simulated mode).
    threads: Vec<ThreadWorker>,
    /// Time/traffic bookkeeping.
    pub clocks: Clocks,
    bandwidth: f64,
    workers: usize,
    plan: FaultPlan,
    /// Whether any recovery machinery is armed (non-empty plan or a
    /// configured wave timeout).
    fault_mode: bool,
    max_retries: u32,
    wave_timeout: Option<Duration>,
    /// Sticky failure: once a barrier errors, every later one
    /// short-circuits.
    failed: Option<FaultError>,
    /// Recovery counters, folded into `DiscoveryStats` by the driver.
    pub fstats: FaultStats,
}

impl Cluster {
    /// Builds a cluster over the given edge-cut shards of `g`, charging
    /// the broadcast that installs each shard on its worker (the modelled
    /// deployment ships shard tables, not `Arc`'d whole graphs).
    pub fn new(g: Arc<Graph>, shards: Vec<Shard>, cfg: &ClusterConfig) -> Cluster {
        let n = shards.len();
        assert_eq!(n, cfg.workers, "one shard per worker");
        let shard_bytes: Vec<usize> = shards.iter().map(|s| s.byte_size(&g)).collect();
        let mut global: FxHashMap<LabelId, usize> = FxHashMap::default();
        for e in g.edges() {
            *global.entry(e.label).or_insert(0) += 1;
        }
        let global = Arc::new(global);
        let mut states: Vec<WorkerCtx> = shards
            .into_iter()
            .enumerate()
            .map(|(i, s)| WorkerCtx::new(i, n, Arc::clone(&g), s, Arc::clone(&global)))
            .collect();

        let plan = FaultPlan::from_config(&cfg.fault, n);
        let fault_mode = !plan.is_empty() || cfg.fault.wave_timeout.is_some();
        let shared_plan = Arc::new(plan.clone());

        let mut threads = Vec::new();
        if cfg.mode == ExecMode::Threads {
            if fault_mode {
                fault::install_quiet_panic_hook();
            }
            for mut state in states.drain(..) {
                let (task_tx, task_rx) = unbounded::<WorkerMsg>();
                let (res_tx, res_rx) = unbounded::<ClusterReply>();
                let plan = Arc::clone(&shared_plan);
                let handle = std::thread::spawn(move || {
                    let id = state.id;
                    // Units this worker completed in the current wave —
                    // the crash plan's trigger coordinate.
                    let mut progress: (u64, usize) = (0, 0);
                    while let Ok(msg) = task_rx.recv() {
                        let WorkerMsg::Task {
                            wave,
                            attempt,
                            task,
                        } = msg
                        else {
                            break;
                        };
                        if progress.0 != wave {
                            progress = (wave, 0);
                        }
                        if let Some(after) = plan.crash_point(wave, id) {
                            if progress.1 >= after {
                                // Crashed worker: stop pulling work. The
                                // dropped channels surface as WorkerLost
                                // at the master — fragment state is gone,
                                // so there is nothing to hand over.
                                return;
                            }
                        }
                        let injected = plan.unit_fault(wave, id, attempt);
                        // A re-executed TakeMatches returns nothing (the
                        // rows left with the first execution), so losing
                        // the first reply would lose rows: never inject a
                        // drop on it.
                        let droppable = !matches!(&*task, Task::TakeMatches { .. });
                        // fault-boundary: a panicking task (injected or
                        // genuine) becomes an Err reply; injection fires
                        // before `process`, so fragment state is untouched
                        // and the master's same-worker retry is safe.
                        let out = fault::run_guarded(|| {
                            if matches!(injected, Some(UnitFault::Panic)) {
                                fault::injected_panic(wave, id);
                            }
                            let t0 = Instant::now();
                            let (r, cost) = state.process(*task);
                            // Wall time is measured into its own binding:
                            // the modelled `cost` channel never touches
                            // the clock.
                            let wall = t0.elapsed();
                            (r, cost, wall)
                        });
                        progress.1 += 1;
                        match out {
                            Ok(done) => {
                                if let Some(UnitFault::Straggle(d)) = injected {
                                    std::thread::sleep(d);
                                }
                                if matches!(injected, Some(UnitFault::DropResult)) && droppable {
                                    continue;
                                }
                                let _ = res_tx.send((wave, attempt, Ok(done)));
                            }
                            Err(msg) => {
                                let _ = res_tx.send((wave, attempt, Err(msg)));
                            }
                        }
                    }
                });
                threads.push(ThreadWorker {
                    tx: task_tx,
                    rx: res_rx,
                    handle: Some(handle),
                });
            }
        }

        let mut cluster = Cluster {
            mode: cfg.mode,
            states,
            threads,
            clocks: Clocks::default(),
            bandwidth: cfg.bandwidth_bytes_per_sec,
            workers: n,
            plan,
            fault_mode,
            max_retries: cfg.fault.max_retries,
            wave_timeout: cfg.fault.wave_timeout,
            failed: None,
            fstats: FaultStats::default(),
        };
        // The initial shard broadcast: every worker receives its owned
        // nodes, attributes, held edges, and ghost ids.
        cluster.charge_comm(&shard_bytes);
        cluster
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes one barrier: task `i` on worker `i`. Returns results in
    /// worker order and charges the barrier's makespan. Failures are
    /// sticky: once a barrier errors, every later one short-circuits to
    /// the same error.
    pub fn run(&mut self, tasks: Vec<Task>) -> Result<Vec<TaskResult>, FaultError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        match self.try_run(tasks) {
            Ok(out) => Ok(out),
            Err(e) => {
                self.failed = Some(e.clone());
                Err(e)
            }
        }
    }

    fn try_run(&mut self, tasks: Vec<Task>) -> Result<Vec<TaskResult>, FaultError> {
        assert_eq!(tasks.len(), self.workers, "one task per worker");
        let wave = self.clocks.barriers as u64 + 1;
        let mut durations = vec![Duration::ZERO; self.workers];
        let mut costs = vec![0u64; self.workers];
        let mut results: Vec<TaskResult> = Vec::with_capacity(self.workers);
        match self.mode {
            ExecMode::Simulated => {
                // A planned crash at this barrier: the fragment and every
                // match set on it are gone — unrecoverable by design.
                for i in 0..self.workers {
                    if self.plan.crash_point(wave, i).is_some() {
                        return Err(FaultError::WorkerLost { worker: i });
                    }
                }
                for (i, task) in tasks.into_iter().enumerate() {
                    let t0 = Instant::now();
                    let (r, cost) = self.states[i].process(task);
                    results.push(r);
                    costs[i] = cost;
                    durations[i] = t0.elapsed();
                }
                // Pure simulation-clock perturbations: panics and drops
                // cost a retry + backoff charge, stragglers stretch their
                // worker's measured time. Results are already in hand, so
                // output invariance is structural here.
                if !self.plan.is_empty() {
                    let mut recovered = false;
                    for (i, dur) in durations.iter_mut().enumerate() {
                        match self.plan.unit_fault(wave, i, 0) {
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
                    if recovered {
                        self.fstats.recovered_waves += 1;
                    }
                }
            }
            ExecMode::Threads => {
                let backup: Vec<Task> = if self.fault_mode {
                    tasks.clone()
                } else {
                    Vec::new()
                };
                for (i, task) in tasks.into_iter().enumerate() {
                    let send = self.threads[i].tx.send(WorkerMsg::Task {
                        wave,
                        attempt: 0,
                        task: Box::new(task),
                    });
                    if send.is_err() {
                        return Err(FaultError::WorkerLost { worker: i });
                    }
                }
                self.collect_barrier(wave, &backup, &mut results, &mut costs, &mut durations)?;
            }
        }
        let max = durations.iter().max().copied().unwrap_or_default();
        self.clocks.makespan += max;
        self.clocks.busy += durations.iter().sum::<Duration>();
        self.clocks.work_makespan += costs.iter().max().copied().unwrap_or(0);
        self.clocks.work_busy += costs.iter().sum::<u64>();
        self.clocks.barriers += 1;
        Ok(results)
    }

    /// Threaded barrier collection with recovery: stale-wave replies are
    /// skipped (per-worker FIFO channels and strictly increasing wave
    /// numbers make that safe), failed tasks retry on the *same* worker
    /// (its fragment state lives there), dropped replies are re-sent
    /// after a timeout, and a dead worker's closed channel surfaces as
    /// [`FaultError::WorkerLost`].
    fn collect_barrier(
        &mut self,
        wave: u64,
        backup: &[Task],
        results: &mut Vec<TaskResult>,
        costs: &mut [u64],
        durations: &mut [Duration],
    ) -> Result<(), FaultError> {
        // Re-send cadence: the configured wave deadline, or a fixed
        // resend tick when the plan can swallow replies.
        let tick = self
            .wave_timeout
            .or_else(|| self.plan.has_drops().then(|| Duration::from_millis(50)));
        let mut recovered = false;
        for i in 0..self.workers {
            let mut attempts = 0u32;
            let started = Instant::now();
            loop {
                let reply = match tick {
                    None => match self.threads[i].rx.recv() {
                        Ok(r) => Some(r),
                        Err(_) => return Err(FaultError::WorkerLost { worker: i }),
                    },
                    Some(t) => match self.threads[i].rx.recv_timeout(t) {
                        Ok(r) => Some(r),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(FaultError::WorkerLost { worker: i })
                        }
                    },
                };
                let Some((rwave, rattempt, outcome)) = reply else {
                    // Nothing arrived within the tick: enforce the wave
                    // deadline, then re-send (the reply may have been
                    // dropped; a duplicate of a completed task is skipped
                    // by the stale filter on the next barrier).
                    if let Some(limit) = self.wave_timeout {
                        if started.elapsed() > limit {
                            return Err(FaultError::WaveTimeout {
                                wave,
                                outstanding: self.workers - i,
                            });
                        }
                    }
                    attempts += 1;
                    if attempts > self.max_retries {
                        return Err(FaultError::RetryBudgetExhausted {
                            wave,
                            unit: i,
                            attempts,
                            msg: "reply never arrived".into(),
                        });
                    }
                    self.fstats.requeued_units += 1;
                    recovered = true;
                    let send = self.threads[i].tx.send(WorkerMsg::Task {
                        wave,
                        attempt: attempts,
                        task: Box::new(backup[i].clone()),
                    });
                    if send.is_err() {
                        return Err(FaultError::WorkerLost { worker: i });
                    }
                    continue;
                };
                if rwave != wave {
                    // A duplicate reply of an earlier barrier's re-sent
                    // task; this barrier's reply is still behind it.
                    continue;
                }
                match outcome {
                    Ok((r, cost, d)) => {
                        // First result wins, whatever its attempt tag.
                        results.push(r);
                        costs[i] = cost;
                        durations[i] = d;
                        break;
                    }
                    Err(_) if rattempt < attempts => {
                        // A superseded attempt's failure; its replacement
                        // is already queued.
                        continue;
                    }
                    Err(msg) => {
                        if !self.fault_mode {
                            // No recovery armed: surface a genuine panic
                            // as a clean error.
                            return Err(FaultError::UnitPanicked { wave, unit: i, msg });
                        }
                        attempts += 1;
                        if attempts > self.max_retries {
                            return Err(FaultError::RetryBudgetExhausted {
                                wave,
                                unit: i,
                                attempts,
                                msg,
                            });
                        }
                        self.fstats.retries += 1;
                        // Backoff is charged to its own clock only, so
                        // recovery never perturbs the deterministic
                        // schedule.
                        self.clocks.fault_backoff += 1u64 << attempts.min(16);
                        recovered = true;
                        let send = self.threads[i].tx.send(WorkerMsg::Task {
                            wave,
                            attempt: attempts,
                            task: Box::new(backup[i].clone()),
                        });
                        if send.is_err() {
                            return Err(FaultError::WorkerLost { worker: i });
                        }
                    }
                }
            }
        }
        if recovered {
            self.fstats.recovered_waves += 1;
        }
        Ok(())
    }

    /// Broadcasts one task to every worker.
    pub fn broadcast(&mut self, task: Task) -> Result<Vec<TaskResult>, FaultError> {
        self.run(vec![task; self.workers])
    }

    /// The sticky failure of an earlier barrier, if any — for drivers
    /// whose inner evaluators cannot propagate errors mid-lattice.
    pub fn check(&self) -> Result<(), FaultError> {
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Charges a communication barrier: worker `i` receives
    /// `bytes_per_worker[i]`; the modelled cost is the slowest transfer.
    pub fn charge_comm(&mut self, bytes_per_worker: &[usize]) {
        let total: usize = bytes_per_worker.iter().sum();
        let max = bytes_per_worker.iter().max().copied().unwrap_or(0);
        self.clocks.comm_bytes += total as u64;
        self.clocks.comm_time += Duration::from_secs_f64(max as f64 / self.bandwidth);
    }

    /// Adds master-side compute to the clock.
    pub fn charge_master(&mut self, d: Duration) {
        self.clocks.master += d;
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for t in &mut self.threads {
            let _ = t.tx.send(WorkerMsg::Stop);
        }
        for t in &mut self.threads {
            if let Some(h) = t.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::edge_cut;
    use gfd_graph::GraphBuilder;

    fn toy_cluster(mode: ExecMode, n: usize) -> (Arc<Graph>, Cluster) {
        let mut b = GraphBuilder::new();
        let people: Vec<_> = (0..8).map(|_| b.add_node("person")).collect();
        for &person in &people {
            let f = b.add_node("film");
            b.add_edge(person, f, "create");
        }
        let g = Arc::new(b.build());
        let parts = edge_cut(&g, n);
        let cfg = ClusterConfig::new(n, mode);
        let cluster = Cluster::new(Arc::clone(&g), parts.shards, &cfg);
        (g, cluster)
    }

    #[test]
    fn construction_charges_shard_broadcast() {
        let (g, cluster) = toy_cluster(ExecMode::Simulated, 3);
        // Every held edge and owned label crosses the wire exactly once
        // per holding shard; the whole graph is never broadcast.
        let shipped = cluster.clocks.comm_bytes;
        assert!(shipped > 0);
        let whole = (g.node_count() * 4 + g.edge_count() * 12) as u64;
        // Cut edges + ghosts inflate the total over one graph copy, but
        // it must stay far below three `Arc`'d copies.
        assert!(shipped < 3 * whole, "shipped {shipped} vs whole {whole}");
    }

    fn seed_and_count(mode: ExecMode) {
        let (g, mut cluster) = toy_cluster(mode, 3);
        let person = PLabel::Is(g.interner().lookup_label("person").unwrap());
        let q = Pattern::single(person);
        let results = cluster
            .broadcast(Task::SeedRoot {
                node: 0,
                pattern: q,
            })
            .expect("fault-free");
        let mut total = 0;
        let mut all_pivots = Vec::new();
        for r in results {
            if let TaskResult::Joined { rows, pivots, .. } = r {
                total += rows;
                all_pivots.extend(pivots);
            }
        }
        assert_eq!(total, 8, "each person seeded exactly once");
        all_pivots.sort_unstable();
        all_pivots.dedup();
        assert_eq!(all_pivots.len(), 8);
        assert_eq!(cluster.clocks.barriers, 1);
        assert!(cluster.clocks.makespan <= cluster.clocks.busy || mode == ExecMode::Threads);
    }

    #[test]
    fn seed_partitions_nodes_simulated() {
        seed_and_count(ExecMode::Simulated);
    }

    #[test]
    fn seed_partitions_nodes_threads() {
        seed_and_count(ExecMode::Threads);
    }

    #[test]
    fn join_across_fragments_matches_global() {
        let (g, mut cluster) = toy_cluster(ExecMode::Simulated, 4);
        let person = PLabel::Is(g.interner().lookup_label("person").unwrap());
        let film = PLabel::Is(g.interner().lookup_label("film").unwrap());
        let create = PLabel::Is(g.interner().lookup_label("create").unwrap());
        cluster
            .broadcast(Task::SeedRoot {
                node: 0,
                pattern: Pattern::single(person),
            })
            .expect("fault-free");
        let ext = Extension {
            src: gfd_pattern::End::Var(0),
            dst: gfd_pattern::End::New(film),
            label: create,
        };
        let results = cluster
            .broadcast(Task::Join {
                parent: 0,
                child: 1,
                ext,
            })
            .expect("fault-free");
        let mut rows_total = 0;
        let mut shipped_any = false;
        for r in results {
            if let TaskResult::Joined { rows, shipped, .. } = r {
                rows_total += rows;
                shipped_any |= shipped > 0;
            }
        }
        // Equal to global matching of person-create->film.
        let q = Pattern::edge(person, create, film);
        assert_eq!(rows_total, gfd_pattern::count_matches(&q, &g));
        assert!(shipped_any, "cross-fragment edges must be charged");
    }

    #[test]
    fn take_put_roundtrip() {
        let (g, mut cluster) = toy_cluster(ExecMode::Simulated, 2);
        let person = PLabel::Is(g.interner().lookup_label("person").unwrap());
        let q = Pattern::single(person);
        cluster
            .broadcast(Task::SeedRoot {
                node: 7,
                pattern: q.clone(),
            })
            .expect("fault-free");
        let taken = cluster
            .broadcast(Task::TakeMatches { node: 7 })
            .expect("fault-free");
        let mut pool = MatchSet::new(1);
        for r in taken {
            if let TaskResult::Matches(ms) = r {
                pool.extend(&ms);
            }
        }
        assert_eq!(pool.len(), 8);
        // Second take returns empties.
        let again = cluster
            .broadcast(Task::TakeMatches { node: 7 })
            .expect("fault-free");
        for r in again {
            if let TaskResult::Matches(ms) = r {
                assert!(ms.is_empty());
            }
        }
        // Redistribute evenly.
        let parts = pool.split(2);
        let tasks: Vec<Task> = parts
            .into_iter()
            .map(|ms| Task::PutMatches {
                node: 7,
                pattern: q.clone(),
                ms,
            })
            .collect();
        cluster.run(tasks).expect("fault-free");
        let back = cluster
            .broadcast(Task::TakeMatches { node: 7 })
            .expect("fault-free");
        let sizes: Vec<usize> = back
            .into_iter()
            .map(|r| match r {
                TaskResult::Matches(ms) => ms.len(),
                _ => 0,
            })
            .collect();
        assert_eq!(sizes, vec![4, 4]);
    }

    #[test]
    fn comm_charges_accumulate() {
        let (_, mut cluster) = toy_cluster(ExecMode::Simulated, 2);
        // Construction already charged the shard broadcast.
        let base = cluster.clocks.comm_bytes;
        assert!(base > 0);
        cluster.charge_comm(&[1000, 3000]);
        assert_eq!(cluster.clocks.comm_bytes, base + 4000);
        assert!(cluster.clocks.comm_time > Duration::ZERO);
        let before = cluster.clocks.comm_time;
        cluster.charge_comm(&[0, 0]);
        assert_eq!(cluster.clocks.comm_time, before);
    }

    #[test]
    fn drop_nodes_clears_state() {
        let (g, mut cluster) = toy_cluster(ExecMode::Simulated, 2);
        let person = PLabel::Is(g.interner().lookup_label("person").unwrap());
        cluster
            .broadcast(Task::SeedRoot {
                node: 0,
                pattern: Pattern::single(person),
            })
            .expect("fault-free");
        cluster
            .broadcast(Task::DropNodes { nodes: vec![0] })
            .expect("fault-free");
        let res = cluster
            .broadcast(Task::Harvest {
                node: 0,
                cfg: DiscoveryConfig::new(2, 1),
            })
            .expect("fault-free");
        for r in res {
            if let TaskResult::Harvested(h) = r {
                assert!(h.new_node.is_empty() && h.closing.is_empty());
            }
        }
    }
}
