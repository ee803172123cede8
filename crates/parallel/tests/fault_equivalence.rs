//! Chaos-equivalence suite for the fault-tolerant runtimes: under any
//! seeded [`FaultConfig`] plan — unit panics, dropped results, modelled
//! stragglers, worker crashes — the work-stealing runtime must produce
//! rule sequences, run counters, and covers bit-identical to `SeqDis`,
//! across worker counts {1, 2, 4} and both execution modes. The barrier
//! (cluster) runtime gets the same treatment for its recoverable faults,
//! plus a crash-propagation check (fragment state dies with its worker,
//! so a cluster crash is a clean error, not silent corruption). Recovery
//! never moves the work meters (`spawning_work`, `evaluation_work`): a
//! retried or speculated unit counts once. A final group exercises
//! wave-granular checkpointing: a run halted mid-level resumes from its
//! snapshot to the same output and meters as a cold run.

use std::sync::Arc;

use gfd_core::{cover_indices, seq_dis, DiscoveryConfig, DiscoveryResult};
use gfd_graph::{Graph, GraphBuilder};
use gfd_parallel::{
    par_dis, par_dis_steal, ClusterConfig, ExecMode, FaultConfig, FaultError, StealConfig,
};
use proptest::prelude::*;

const NODE_LABELS: usize = 3;
const EDGE_LABELS: usize = 2;
const ATTR_VALUES: usize = 3;

/// A graph blueprint: per-node (label, attr value) plus labelled edges.
#[derive(Clone, Debug)]
struct ProtoKb {
    nodes: Vec<(usize, usize)>,
    edges: Vec<(usize, usize, usize)>,
}

fn kb_strategy() -> impl Strategy<Value = ProtoKb> {
    (4usize..=12).prop_flat_map(|n| {
        (
            prop::collection::vec((0usize..NODE_LABELS, 0usize..ATTR_VALUES), n..=n),
            prop::collection::vec((0usize..n, 0usize..n, 0usize..EDGE_LABELS), 0..=20),
        )
            .prop_map(|(nodes, edges)| ProtoKb { nodes, edges })
    })
}

fn build_kb(p: &ProtoKb) -> Arc<Graph> {
    let mut b = GraphBuilder::new();
    let ids: Vec<_> = p
        .nodes
        .iter()
        .map(|&(l, v)| {
            let n = b.add_node(&format!("L{l}"));
            b.set_attr(n, "a", format!("v{v}").as_str());
            n
        })
        .collect();
    for &(s, d, l) in &p.edges {
        if s != d {
            b.add_edge(ids[s], ids[d], &format!("r{l}"));
        }
    }
    Arc::new(b.build())
}

/// A fixed creator knowledge base big enough to run several waves per
/// level — the anchor for the explicit chaos plan and checkpoint tests.
fn fixed_kb() -> Arc<Graph> {
    let mut b = GraphBuilder::new();
    let people: Vec<_> = (0..18)
        .map(|i| {
            let n = b.add_node("person");
            b.set_attr(n, "type", ["producer", "director"][i % 2]);
            n
        })
        .collect();
    for (i, &p) in people.iter().enumerate() {
        let f = b.add_node("product");
        b.set_attr(f, "type", "film");
        b.set_attr(f, "genre", ["drama", "comedy"][i % 2]);
        b.add_edge(p, f, "create");
    }
    for w in people.windows(2) {
        b.add_edge(w[0], w[1], "parent");
    }
    for i in 0..6 {
        b.add_edge(people[i], people[(i + 5) % 18], "follow");
    }
    Arc::new(b.build())
}

fn mining_cfg() -> DiscoveryConfig {
    let mut c = DiscoveryConfig::new(3, 2);
    c.max_edges = 2;
    c.max_lhs_size = 1;
    c.values_per_attr = 2;
    c.wildcard_min_labels = 2;
    c.wildcard_root = false;
    c.max_negative_candidates = 6;
    c.max_catalog_literals = 6;
    c
}

fn fixed_cfg() -> DiscoveryConfig {
    let mut c = DiscoveryConfig::new(3, 4);
    c.max_lhs_size = 1;
    c.wildcard_min_labels = 0;
    c.values_per_attr = 3;
    c.max_negative_candidates = 16;
    c
}

/// Order-sensitive fingerprint of everything a `DiscoveredGfd` carries.
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

/// `spawning_work` and `evaluation_work`.
fn meters(result: &DiscoveryResult) -> [u64; 2] {
    [result.stats.spawning_work, result.stats.evaluation_work]
}

/// A scratch path under the system temp dir, unique per test thread.
fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "gfd-fault-eq-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The steal runtime under an arbitrary seeded chaos plan (3 unit
    /// panics, 1 worker crash, 2 drops, 2 stragglers at seed-chosen
    /// coordinates) reproduces `SeqDis` exactly: rule sequence, spawn
    /// counters, verification counters, cover — for every worker count
    /// and both execution modes. These row spaces fit one range, so the
    /// fault-free steal run meters seq's work (`steal_equivalence`), and
    /// recovery must not move it.
    #[test]
    fn seeded_faults_preserve_steal_output(p in kb_strategy(), seed in 0u64..u64::MAX) {
        let g = build_kb(&p);
        let cfg = mining_cfg();
        let seq = seq_dis(&g, &cfg);
        let want = fingerprint(&seq, &g);
        let seq_cover = cover_indices(&seq.rules());
        for mode in [ExecMode::Simulated, ExecMode::Threads] {
            for n in [1usize, 2, 4] {
                let scfg = StealConfig::new(n, mode).with_faults(FaultConfig::with_seed(seed));
                let par = par_dis_steal(&g, &cfg, &scfg).expect("recovery must succeed");
                prop_assert_eq!(
                    fingerprint(&par.result, &g),
                    want.clone(),
                    "n={} mode={:?} seed={} kb={:?}", n, mode, seed, p
                );
                prop_assert_eq!(&par.result.stats.hspawn, &seq.stats.hspawn);
                prop_assert_eq!(
                    par.result.stats.patterns_verified,
                    seq.stats.patterns_verified
                );
                prop_assert_eq!(&cover_indices(&par.result.rules()), &seq_cover);
                prop_assert_eq!(meters(&par.result), meters(&seq), "n={} mode={:?}", n, mode);
            }
        }
    }

    /// Two threaded runs under the same fault plan agree on results AND
    /// the modelled schedule: retry backoff is charged to its own clock,
    /// so `work_makespan` and the wave count stay schedule-deterministic.
    #[test]
    fn faulty_runs_are_deterministic(p in kb_strategy(), seed in 0u64..u64::MAX) {
        let g = build_kb(&p);
        let cfg = mining_cfg();
        let scfg = StealConfig::new(4, ExecMode::Threads).with_faults(FaultConfig::with_seed(seed));
        let a = par_dis_steal(&g, &cfg, &scfg).expect("recovery must succeed");
        let b = par_dis_steal(&g, &cfg, &scfg).expect("recovery must succeed");
        prop_assert_eq!(fingerprint(&a.result, &g), fingerprint(&b.result, &g));
        prop_assert_eq!(a.work_makespan, b.work_makespan);
        prop_assert_eq!(a.barriers, b.barriers);
    }

    /// The barrier (cluster) runtime recovers from its recoverable fault
    /// classes — injected unit panics, drops, stragglers (crashes are
    /// fatal there: fragment state dies with the worker) — with output
    /// identical to `SeqDis` and work meters identical to a fault-free
    /// barrier run.
    #[test]
    fn seeded_faults_preserve_cluster_output(p in kb_strategy(), seed in 0u64..u64::MAX) {
        let g = build_kb(&p);
        let cfg = mining_cfg();
        let seq = seq_dis(&g, &cfg);
        let want = fingerprint(&seq, &g);
        for mode in [ExecMode::Simulated, ExecMode::Threads] {
            for n in [2usize, 4] {
                let mut ccfg = ClusterConfig::new(n, mode);
                let clean = par_dis(&g, &cfg, &ccfg).expect("fault-free");
                ccfg.fault = FaultConfig::with_seed(seed).crashes(0);
                let par = par_dis(&g, &cfg, &ccfg).expect("recovery must succeed");
                prop_assert_eq!(
                    fingerprint(&par.result, &g),
                    want.clone(),
                    "n={} mode={:?} seed={} kb={:?}", n, mode, seed, p
                );
                prop_assert_eq!(meters(&par.result), meters(&clean.result));
            }
        }
    }
}

/// The acceptance anchor: an explicit plan stacking one worker crash,
/// three unit panics, a dropped result, and a straggler on the fixed KB.
/// Recovery must be invisible in the output and visible in the stats.
#[test]
fn explicit_chaos_plan_matches_seq_dis() {
    let g = fixed_kb();
    let cfg = fixed_cfg();
    let seq = seq_dis(&g, &cfg);
    assert!(!seq.gfds.is_empty());
    let want = fingerprint(&seq, &g);
    let fault = FaultConfig::default()
        .panic_at(1, 0)
        .panic_at(1, 1)
        .panic_at(2, 0)
        .drop_at(3, 0)
        .straggle_at(4, 0, 20)
        .crash_worker(2, 1, 0);
    for mode in [ExecMode::Simulated, ExecMode::Threads] {
        let scfg = StealConfig::new(4, mode).with_faults(fault.clone());
        let par = par_dis_steal(&g, &cfg, &scfg).expect("recovery must succeed");
        assert_eq!(fingerprint(&par.result, &g), want, "mode={mode:?}");
        assert_eq!(meters(&par.result), meters(&seq), "mode={mode:?}");
        let st = &par.result.stats;
        assert!(st.retries >= 3, "expected >=3 retries, got {}", st.retries);
        assert!(st.recovered_waves >= 1, "no wave recorded as recovered");
        if mode == ExecMode::Threads {
            // The dropped result can only be recovered by speculative
            // re-execution; its replacement must have won the race.
            assert!(st.speculative_wins >= 1, "drop not recovered speculatively");
        }
    }
}

/// A cluster worker crash is unrecoverable by design: the run fails with
/// a clean `WorkerLost` instead of hanging or silently dropping rules.
#[test]
fn cluster_crash_surfaces_worker_lost() {
    let g = fixed_kb();
    let cfg = fixed_cfg();
    let mut ccfg = ClusterConfig::new(3, ExecMode::Threads);
    ccfg.fault = FaultConfig::default().crash_worker(1, 1, 0);
    match par_dis(&g, &cfg, &ccfg) {
        Err(FaultError::WorkerLost { worker }) => assert_eq!(worker, 1),
        other => panic!("expected WorkerLost, got {other:?}"),
    }
}

/// Checkpoint/resume round trip: a run halted after level 1 leaves a
/// snapshot from which a resumed run reproduces the cold run's rules and
/// counters exactly — in both execution modes, and even when the resumed
/// half runs under its own fault plan. A resume at the halted run's
/// worker count also reproduces the cold run's work meters.
#[test]
fn checkpoint_resume_reproduces_cold_run() {
    let g = fixed_kb();
    let cfg = fixed_cfg();
    let seq = seq_dis(&g, &cfg);
    let want = fingerprint(&seq, &g);
    for mode in [ExecMode::Simulated, ExecMode::Threads] {
        let ck = scratch(&format!("resume-{mode:?}"));
        let halt = || {
            std::fs::remove_file(&ck).ok();
            let mut scfg = StealConfig::new(3, mode);
            scfg.checkpoint = Some(ck.clone());
            scfg.halt_after_level = Some(1);
            match par_dis_steal(&g, &cfg, &scfg) {
                Err(FaultError::Halted { level: 1 }) => {}
                other => panic!("expected halt after level 1, got {other:?}"),
            }
            assert!(ck.exists(), "no checkpoint written before the halt");
        };
        let resume = |mut scfg: StealConfig| {
            scfg.checkpoint = Some(ck.clone());
            scfg.resume = true;
            let par = par_dis_steal(&g, &cfg, &scfg).expect("resume must succeed");
            assert_eq!(fingerprint(&par.result, &g), want, "mode={mode:?}");
            assert_eq!(&par.result.stats.hspawn, &seq.stats.hspawn);
            assert_eq!(
                par.result.stats.patterns_verified,
                seq.stats.patterns_verified
            );
            par
        };

        // Kill the run after its level-1 checkpoint; resume at its own
        // worker count: the meters restored from the snapshot plus the
        // rest of the run add up to the cold run's.
        halt();
        let cold = par_dis_steal(&g, &cfg, &StealConfig::new(3, mode)).expect("fault-free");
        let par = resume(StealConfig::new(3, mode));
        assert_eq!(meters(&par.result), meters(&cold.result), "mode={mode:?}");

        // Resume — under chaos, with a different worker count.
        halt();
        resume(StealConfig::new(4, mode).with_faults(FaultConfig::with_seed(7)));
        std::fs::remove_file(&ck).ok();
    }
}

/// A checkpoint from a different graph or configuration, or in the
/// version-1 format that carried no work meters, is rejected, not silently
/// replayed into a wrong answer.
#[test]
fn stale_checkpoint_is_rejected() {
    let g = fixed_kb();
    let cfg = fixed_cfg();
    let ck = scratch("stale");
    std::fs::remove_file(&ck).ok();
    let mut scfg = StealConfig::new(2, ExecMode::Simulated);
    scfg.checkpoint = Some(ck.clone());
    scfg.halt_after_level = Some(1);
    assert!(matches!(
        par_dis_steal(&g, &cfg, &scfg),
        Err(FaultError::Halted { .. })
    ));

    // Same checkpoint, different mining configuration: fingerprint clash.
    let mut other = fixed_cfg();
    other.sigma = cfg.sigma + 1;
    let mut scfg = StealConfig::new(2, ExecMode::Simulated);
    scfg.checkpoint = Some(ck.clone());
    scfg.resume = true;
    match par_dis_steal(&g, &other, &scfg) {
        Err(FaultError::Checkpoint(msg)) => {
            assert!(msg.contains("config"), "unexpected message: {msg}")
        }
        other => panic!("expected checkpoint rejection, got {other:?}"),
    }

    // The same snapshot relabelled as version 1, under its own config.
    let v2 = std::fs::read_to_string(&ck).expect("checkpoint written");
    let v1 = v2.replacen("gfd-checkpoint 2", "gfd-checkpoint 1", 1);
    std::fs::write(&ck, v1).expect("rewrite checkpoint");
    match par_dis_steal(&g, &cfg, &scfg) {
        Err(FaultError::Checkpoint(msg)) => {
            assert!(msg.contains("version 1"), "unexpected message: {msg}")
        }
        other => panic!("expected checkpoint rejection, got {other:?}"),
    }
    std::fs::remove_file(&ck).ok();
}
