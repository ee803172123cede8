//! `ParDis` — parallel GFD mining over fragmented graphs (§6.2).
//!
//! `ParDis` is `SeqDis` with its data-touching steps delegated: the master
//! runs `gfd-core`'s levelwise [`Driver`], the same schedule `seq_dis`
//! runs, and this module's barrier executor turns each of its operations
//! into broadcasts. [`par_dis_with_runtime`] swaps in the work-stealing
//! executor ([`crate::steal`]) instead. On the barrier runtime:
//!
//! * **parallel pattern matching** — work units `(Q, e)` become
//!   [`Task::Join`]s: each worker joins its local `Q(F_s)` with the
//!   candidate edges of `e` (shipped from other fragments — charged to the
//!   communication model), yielding `Q'(F_s)`;
//! * **load balancing** — when `max_s |Q'(F_s)|` exceeds
//!   `skew_factor × avg`, the match set is re-split evenly across workers
//!   (disabled for the `ParGFDnb` ablation);
//! * **parallel validation** — horizontal spawning runs at the master, but
//!   every candidate evaluation is scattered ([`Task::Evaluate`]) and the
//!   per-fragment [`gfd_core::PartialStats`] merged, so the mined output is
//!   identical to the sequential algorithm's.
//!
//! Supports are exact: workers return local distinct-pivot *sets* which
//! the master unions. The edge-cut shards ([`crate::partition::edge_cut`])
//! own disjoint node ranges, so the sets never overlap and the union is
//! `Σ_s supp(φ, F_s)` exactly — no sketch, no overcount.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gfd_core::{
    mine_dependencies_with, CandidateEvaluator, CandidateStats, CatalogCounts, DiscoveryConfig,
    DiscoveryResult, Driver, Executor, GenTree, Joined, LiteralCatalog, MineJob, MineOutcome,
    Mined, PartialStats, ProposalAccumulator, RawHarvest, Spawn,
};
use gfd_graph::{AttrId, Graph, NodeId};
use gfd_logic::{Literal, Rhs};

use crate::cluster::{Cluster, ClusterConfig, Task, TaskResult};
use crate::fault::FaultError;
use crate::partition::edge_cut;

/// Outcome of a parallel discovery run.
#[derive(Debug, Default)]
pub struct ParDisReport {
    /// The mined set `Σ` (identical to `SeqDis` output).
    pub result: DiscoveryResult,
    /// Real elapsed time of this process.
    pub wall: Duration,
    /// Modelled `n`-machine running time (barrier makespans +
    /// communication + master compute).
    pub simulated: Duration,
    /// Modelled bytes shipped.
    pub comm_bytes: u64,
    /// Barriers executed.
    pub barriers: usize,
    /// Σ over barriers of the slowest worker's modelled work units (rows
    /// touched) — the deterministic scalability measure; see
    /// [`crate::Clocks::work_makespan`].
    pub work_makespan: u64,
    /// Σ of all workers' modelled work units across barriers.
    pub work_busy: u64,
    /// Replication factor of the edge cut: average copies per node
    /// (owned + ghost entries over `|V|`).
    pub replication_factor: f64,
}

/// Evaluator that scatters candidate checks across the cluster and merges
/// partial statistics — the "parallel GFD validation" of §6.2.
///
/// Premises ship as one shared `Arc<[Literal]>` (the broadcast clones a
/// refcount per worker, not the literal vector), and the per-broadcast
/// scratch (`bytes`, the merged partials) lives on the evaluator — this
/// loop runs once per lattice candidate, hundreds of thousands of times
/// per discovery. `work` sums the fragments' evaluation meters.
struct ClusterEvaluator<'a> {
    cluster: &'a mut Cluster,
    node: usize,
    bytes: Vec<usize>,
    acc: PartialStats,
    work: u64,
}

impl CandidateEvaluator for ClusterEvaluator<'_> {
    fn evaluate(&mut self, x: &[Literal], rhs: &Rhs) -> CandidateStats {
        // A barrier failure cannot surface through this trait; the sticky
        // error is re-checked by the driver (`cluster.check()`) right
        // after mining, so the neutral value returned here never escapes.
        let results = self
            .cluster
            .broadcast(Task::Evaluate {
                node: self.node,
                x: x.into(),
                rhs: *rhs,
            })
            .unwrap_or_default();
        self.acc = PartialStats::default();
        self.bytes.clear();
        for r in &results {
            if let TaskResult::Stats(s, work) = r {
                self.acc.merge(s);
                self.bytes.push(s.byte_size());
                self.work += work;
            }
        }
        self.cluster.charge_comm(&self.bytes);
        self.acc.finalize()
    }

    fn lhs_empty(&mut self, x: &[Literal]) -> bool {
        let results = self
            .cluster
            .broadcast(Task::LhsEmpty {
                node: self.node,
                x: x.into(),
            })
            .unwrap_or_default();
        self.bytes.clear();
        self.bytes.resize(results.len(), 1);
        self.cluster.charge_comm(&self.bytes);
        results.iter().fold(true, |all, r| match r {
            TaskResult::Empty(empty, work) => {
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

/// Which parallel schedule drives discovery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Runtime {
    /// The paper's master/worker superstep schedule over edge-cut
    /// fragments: one broadcast + barrier per candidate step
    /// ([`crate::cluster`]).
    Barrier,
    /// The work-stealing task pool: `(pattern, pivot-range)` and
    /// `(rule, pivot-range)` units over shared compiled structures
    /// ([`crate::steal`]).
    Steal,
}

impl Runtime {
    /// Parses `barrier` / `steal` (the `--runtime` flag of the bench
    /// binaries).
    pub fn parse(s: &str) -> Option<Runtime> {
        match s {
            "barrier" => Some(Runtime::Barrier),
            "steal" => Some(Runtime::Steal),
            _ => None,
        }
    }

    /// Flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            Runtime::Barrier => "barrier",
            Runtime::Steal => "steal",
        }
    }
}

/// [`par_dis`] on the chosen runtime: both schedules take the same worker
/// count and execution mode and produce the same `DiscoveryResult`. The
/// steal runtime gets graph-size-aware range knobs
/// ([`crate::steal::StealConfig::tuned`]), which cannot change the result —
/// only the schedule.
pub fn par_dis_with_runtime(
    g: &Arc<Graph>,
    cfg: &DiscoveryConfig,
    ccfg: &ClusterConfig,
    runtime: Runtime,
) -> Result<ParDisReport, FaultError> {
    match runtime {
        Runtime::Barrier => par_dis(g, cfg, ccfg),
        Runtime::Steal => crate::steal::par_dis_steal(
            g,
            cfg,
            &crate::steal::StealConfig::tuned(ccfg.workers, ccfg.mode, g.size())
                .with_faults(ccfg.fault.clone()),
        ),
    }
}

/// Runs parallel discovery with `ccfg.workers` workers.
pub fn par_dis(
    g: &Arc<Graph>,
    cfg: &DiscoveryConfig,
    ccfg: &ClusterConfig,
) -> Result<ParDisReport, FaultError> {
    let wall0 = Instant::now();
    let partition = edge_cut(g, ccfg.workers);
    let replication_factor = partition.replication_factor;
    let mut exec = Broadcasts {
        cluster: Cluster::new(Arc::clone(g), partition.shards, ccfg),
        cfg,
        ccfg,
        attrs: cfg.resolve_active_attrs(g),
    };
    let mut result = Driver::new(g, cfg).run(&mut exec, 0)?;
    let cluster = exec.cluster;
    cluster.fstats.apply_to(&mut result.stats);
    let wall = wall0.elapsed();
    Ok(ParDisReport {
        result,
        wall,
        simulated: cluster.clocks.simulated_total(),
        comm_bytes: cluster.clocks.comm_bytes,
        barriers: cluster.clocks.barriers,
        work_makespan: cluster.clocks.work_makespan,
        work_busy: cluster.clocks.work_busy,
        replication_factor,
    })
}

/// The barrier executor: each operation is a broadcast per pattern (or
/// per lattice candidate), merged at the master. Matches live on the
/// workers, partitioned by node owner.
struct Broadcasts<'a> {
    cluster: Cluster,
    cfg: &'a DiscoveryConfig,
    ccfg: &'a ClusterConfig,
    attrs: Vec<AttrId>,
}

impl Executor for Broadcasts<'_> {
    type Error = FaultError;

    fn seed_roots(
        &mut self,
        tree: &GenTree,
        roots: &[usize],
        keep: &mut dyn FnMut(Joined) -> bool,
    ) -> Result<(), FaultError> {
        for &id in roots {
            let results = self.cluster.broadcast(Task::SeedRoot {
                node: id,
                pattern: tree.node(id).pattern.clone(),
            })?;
            let (rows, support, _) = merge_join_results(&mut self.cluster, results);
            keep(Joined { rows, support });
        }
        Ok(())
    }

    fn harvest(&mut self, _tree: &GenTree, parent: usize) -> Result<RawHarvest, FaultError> {
        // Per-fragment results fold through the same `ProposalAccumulator`
        // merge path the work-stealing runtime uses per worker.
        let results = self.cluster.broadcast(Task::Harvest {
            node: parent,
            cfg: self.cfg.clone(),
        })?;
        let m0 = Instant::now();
        let mut acc = ProposalAccumulator::default();
        let mut bytes = Vec::with_capacity(results.len());
        for r in results {
            if let TaskResult::Harvested(h) = r {
                bytes.push(h.byte_size());
                acc.fold(parent, *h);
            }
        }
        self.cluster.charge_master(m0.elapsed());
        self.cluster.charge_comm(&bytes);
        Ok(acc.take(parent))
    }

    fn join(
        &mut self,
        tree: &GenTree,
        spawns: &[Spawn],
        keep: &mut dyn FnMut(Joined) -> bool,
    ) -> Result<(), FaultError> {
        for s in spawns {
            // Work unit (Q, e): distributed incremental join.
            let results = self.cluster.broadcast(Task::Join {
                parent: s.parent,
                child: s.child,
                ext: s.ext,
            })?;
            let (rows, support, sizes) = merge_join_results(&mut self.cluster, results);
            if keep(Joined { rows, support }) {
                // Skew re-balancing (§6.2) — the DisGFD/ParGFDnb difference.
                if self.ccfg.load_balance {
                    rebalance_if_skewed(&mut self.cluster, tree, s.child, &sizes, self.ccfg)?;
                }
            } else if rows > 0 {
                self.cluster.broadcast(Task::DropNodes {
                    nodes: vec![s.child],
                })?;
            }
        }
        Ok(())
    }

    fn mine(
        &mut self,
        _tree: &GenTree,
        jobs: Vec<MineJob>,
        _harvest_next: bool,
    ) -> Result<Mined, FaultError> {
        let mut mined = Mined::default();
        for job in jobs {
            let (cluster, attrs) = (&mut self.cluster, &self.attrs);
            let o = mine_node(cluster, job, attrs, self.cfg, &mut mined.catalog_time)?;
            mined.outcomes.push(o);
        }
        Ok(mined)
    }

    fn level_done(&mut self, driver: &Driver<'_>, level: usize) -> Result<(), FaultError> {
        // Nothing sits below the roots.
        if level == 0 {
            return Ok(());
        }
        // Reclaim matches below the new frontier.
        let stale: Vec<usize> = driver
            .tree
            .nodes()
            .iter()
            .filter(|n| n.level < level)
            .map(|n| n.id)
            .collect();
        self.cluster.broadcast(Task::DropNodes { nodes: stale })?;
        Ok(())
    }

    fn charge_master(&mut self, elapsed: Duration) {
        self.cluster.charge_master(elapsed);
    }
}

/// Merges join results: total rows, exact support (pivot-set union), local
/// sizes; charges the pivot-set communication.
fn merge_join_results(
    cluster: &mut Cluster,
    results: Vec<TaskResult>,
) -> (usize, usize, Vec<usize>) {
    let mut total_rows = 0usize;
    let mut all_pivots: Vec<NodeId> = Vec::new();
    let mut sizes = Vec::with_capacity(results.len());
    let mut comm = Vec::with_capacity(results.len());
    for r in results {
        if let TaskResult::Joined {
            rows,
            pivots,
            shipped,
        } = r
        {
            total_rows += rows;
            sizes.push(rows);
            comm.push(shipped + pivots.len() * 4);
            all_pivots.extend(pivots);
        }
    }
    cluster.charge_comm(&comm);
    all_pivots.sort_unstable();
    all_pivots.dedup();
    (total_rows, all_pivots.len(), sizes)
}

/// Re-splits `cid`'s matches evenly when one fragment holds a skewed share.
fn rebalance_if_skewed(
    cluster: &mut Cluster,
    tree: &GenTree,
    cid: usize,
    sizes: &[usize],
    ccfg: &ClusterConfig,
) -> Result<(), FaultError> {
    let total: usize = sizes.iter().sum();
    let n = sizes.len();
    if total == 0 || n < 2 {
        return Ok(());
    }
    let max = sizes.iter().max().copied().unwrap_or(0);
    let avg = total as f64 / n as f64;
    if (max as f64) <= ccfg.skew_factor * avg {
        return Ok(());
    }
    let taken = cluster.broadcast(Task::TakeMatches { node: cid })?;
    let pattern = tree.node(cid).pattern.clone();
    let mut pool = gfd_pattern::MatchSet::new(pattern.node_count());
    for r in taken {
        if let TaskResult::Matches(ms) = r {
            pool.extend(&ms);
        }
    }
    let parts = pool.split(n);
    // Moved rows cross the network.
    let moved: Vec<usize> = parts.iter().map(|p| p.byte_size()).collect();
    cluster.charge_comm(&moved);
    let tasks: Vec<Task> = parts
        .into_iter()
        .map(|ms| Task::PutMatches {
            node: cid,
            pattern: pattern.clone(),
            ms,
        })
        .collect();
    cluster.run(tasks)?;
    Ok(())
}

/// Parallel horizontal spawning on one verified pattern; adds the fragment
/// table builds and the catalog merge to `catalog_time`.
fn mine_node(
    cluster: &mut Cluster,
    job: MineJob,
    attrs: &[AttrId],
    cfg: &DiscoveryConfig,
    catalog_time: &mut Duration,
) -> Result<MineOutcome, FaultError> {
    // Build fragment tables, merge literal-candidate counts.
    let t0 = Instant::now();
    let count_results = cluster.broadcast(Task::BuildTable {
        node: job.node,
        attrs: attrs.to_vec(),
    })?;
    let m0 = Instant::now();
    let mut counts = CatalogCounts::default();
    let mut bytes = Vec::with_capacity(count_results.len());
    for r in count_results {
        if let TaskResult::Counts(c) = r {
            bytes.push(c.byte_size());
            counts.merge(*c);
        }
    }
    // Same min-rows floor as SeqDis (`σ.min(total match rows)`).
    let catalog: LiteralCatalog = counts.finalize_capped(
        cfg.values_per_attr,
        cfg.sigma.min(job.rows.max(1)),
        cfg.max_catalog_literals,
    );
    cluster.charge_master(m0.elapsed());
    cluster.charge_comm(&bytes);
    *catalog_time += t0.elapsed();

    let mut covered = job.covered;
    let mut eval = ClusterEvaluator {
        cluster,
        node: job.node,
        bytes: Vec::new(),
        acc: PartialStats::default(),
        work: 0,
    };
    let (deps, hstats) = mine_dependencies_with(&mut eval, &catalog, &mut covered, cfg);
    let work = eval.work();
    // The evaluator swallows barrier errors (the trait cannot carry
    // them); surface the sticky failure before returning a partial
    // outcome.
    cluster.check()?;
    cluster.broadcast(Task::DropTable { node: job.node })?;
    Ok(MineOutcome {
        deps,
        covered,
        hstats,
        work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::seq_dis;
    use gfd_graph::GraphBuilder;

    /// A KB with planted positive + negative rules and enough asymmetry to
    /// exercise joins, catalogs, NH/NV spawning and wildcard upgrades.
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
        // A few follow edges for label diversity.
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

    fn canonical(result: &DiscoveryResult, g: &Graph) -> Vec<String> {
        let mut v: Vec<String> = result
            .gfds
            .iter()
            .map(|d| format!("{} @{}", d.gfd.display(g.interner()), d.support))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn parallel_equals_sequential_simulated() {
        let g = kb();
        let c = cfg();
        let seq = seq_dis(&g, &c);
        assert!(!seq.gfds.is_empty());
        for n in [1, 2, 4, 7] {
            let ccfg = ClusterConfig::new(n, crate::cluster::ExecMode::Simulated);
            let par = par_dis(&g, &c, &ccfg).expect("fault-free");
            assert_eq!(
                canonical(&par.result, &g),
                canonical(&seq, &g),
                "divergence at n={n}"
            );
            assert!(par.barriers > 0);
            assert!(par.comm_bytes > 0 || n == 1);
        }
    }

    #[test]
    fn parallel_equals_sequential_threads() {
        let g = kb();
        let c = cfg();
        let seq = seq_dis(&g, &c);
        let ccfg = ClusterConfig::new(3, crate::cluster::ExecMode::Threads);
        let par = par_dis(&g, &c, &ccfg).expect("fault-free");
        assert_eq!(canonical(&par.result, &g), canonical(&seq, &g));
    }

    #[test]
    fn no_balance_variant_same_output() {
        // ParGFDnb changes the schedule, never the result.
        let g = kb();
        let c = cfg();
        let seq = seq_dis(&g, &c);
        let mut ccfg = ClusterConfig::new(4, crate::cluster::ExecMode::Simulated);
        ccfg.load_balance = false;
        let par = par_dis(&g, &c, &ccfg).expect("fault-free");
        assert_eq!(canonical(&par.result, &g), canonical(&seq, &g));
    }

    #[test]
    fn wildcard_upgrades_survive_parallelism() {
        let g = kb();
        let mut c = cfg();
        c.wildcard_min_labels = 2;
        let seq = seq_dis(&g, &c);
        let ccfg = ClusterConfig::new(3, crate::cluster::ExecMode::Simulated);
        let par = par_dis(&g, &c, &ccfg).expect("fault-free");
        assert_eq!(canonical(&par.result, &g), canonical(&seq, &g));
    }

    #[test]
    fn discovered_rules_hold_globally() {
        let g = kb();
        let ccfg = ClusterConfig::new(3, crate::cluster::ExecMode::Simulated);
        let par = par_dis(&g, &cfg(), &ccfg).expect("fault-free");
        for d in &par.result.gfds {
            assert!(
                gfd_logic::satisfies(&g, &d.gfd),
                "violated: {}",
                d.gfd.display(g.interner())
            );
        }
    }
}
