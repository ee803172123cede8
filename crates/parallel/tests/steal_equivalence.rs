//! Equivalence suite for the parallel runtimes: on random attributed
//! graphs, `par_dis` on the steal runtime — and on the barrier runtime —
//! must produce exactly `SeqDis`'s output — the rule sequence (text,
//! support, level, confidence, *order*), the run counters, and therefore
//! the same cover — across worker counts {1, 2, 4}, both execution modes,
//! and both steal lattice paths (per-consequence `MineRhs` units and the
//! `(rule, pivot-range)` evaluator). Every runtime meters its harvests
//! and evaluations into `spawning_work` and `evaluation_work`: non-zero
//! wherever seq's are, and the same in both execution modes. A
//! determinism property pins two threaded runs on the same seed to
//! identical reports.

use std::sync::Arc;

use gfd_core::{cover_indices, seq_dis, DiscoveryConfig, DiscoveryResult};
use gfd_graph::{Graph, GraphBuilder};
use gfd_parallel::{par_dis, par_dis_steal, ClusterConfig, ExecMode, StealConfig};
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

fn mining_cfg() -> DiscoveryConfig {
    let mut c = DiscoveryConfig::new(3, 2);
    c.max_edges = 2;
    c.max_lhs_size = 1;
    c.values_per_attr = 2;
    c.wildcard_min_labels = 2;
    // The all-wildcard root multiplies debug-build runtime ~50× on these
    // dense little multigraphs without adding coverage: wildcard upgrades
    // are still exercised through `wildcard_min_labels`.
    c.wildcard_root = false;
    c.max_negative_candidates = 6;
    c.max_catalog_literals = 6;
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

/// The five spawn counters: spawned, verified, empty, infrequent, deduped.
fn pattern_counters(result: &DiscoveryResult) -> [usize; 5] {
    let s = &result.stats;
    [
        s.patterns_spawned,
        s.patterns_verified,
        s.patterns_empty,
        s.patterns_infrequent,
        s.patterns_deduped,
    ]
}

/// `spawning_work` and `evaluation_work`.
fn meters(result: &DiscoveryResult) -> [u64; 2] {
    [result.stats.spawning_work, result.stats.evaluation_work]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Rule sequence + counters + cover identical to `SeqDis` on both
    /// parallel runtimes, across worker counts and both execution modes
    /// (`MineRhs`-unit lattice path on steal). The work meters are
    /// non-zero wherever seq's are and equal across modes; these row
    /// spaces fit one range, so steal mines every pattern whole on one
    /// shard and meters exactly seq's values.
    #[test]
    fn steal_matches_seq_dis(p in kb_strategy()) {
        let g = build_kb(&p);
        let cfg = mining_cfg();
        let seq = seq_dis(&g, &cfg);
        let want = fingerprint(&seq, &g);
        let seq_cover = cover_indices(&seq.rules());
        let seq_meters = meters(&seq);
        let mut simulated = Vec::new();
        for mode in [ExecMode::Simulated, ExecMode::Threads] {
            let mut same_n = 0;
            for n in [1usize, 2, 4] {
                let steal = par_dis_steal(&g, &cfg, &StealConfig::new(n, mode)).expect("fault-free");
                let barrier = par_dis(&g, &cfg, &ClusterConfig::new(n, mode)).expect("fault-free");
                for (runtime, par) in [("steal", &steal), ("barrier", &barrier)] {
                    prop_assert_eq!(
                        fingerprint(&par.result, &g),
                        want.clone(),
                        "{} n={} mode={:?} kb={:?}", runtime, n, mode, p
                    );
                    prop_assert_eq!(&par.result.stats.hspawn, &seq.stats.hspawn);
                    prop_assert_eq!(pattern_counters(&par.result), pattern_counters(&seq));
                    // Identical rule sequences imply identical covers;
                    // check the cover computation agrees end to end anyway.
                    prop_assert_eq!(&cover_indices(&par.result.rules()), &seq_cover);
                    let got = meters(&par.result);
                    for (have, seq_has) in got.into_iter().zip(seq_meters) {
                        prop_assert!(have > 0 || seq_has == 0, "{} n={} {:?}", runtime, n, got);
                    }
                    if mode == ExecMode::Simulated {
                        simulated.push(got);
                    } else {
                        prop_assert_eq!(got, simulated[same_n], "{} n={}", runtime, n);
                        same_n += 1;
                    }
                }
                prop_assert_eq!(meters(&steal.result), seq_meters, "n={} mode={:?}", n, mode);
            }
        }
    }

    /// The `(rule, pivot-range)` evaluator path (forced via threshold 0 and
    /// tiny ranges) is just as exact, and meters the same work in both
    /// modes: non-zero wherever seq's is. Cut into one range per worker on
    /// one worker, it evaluates every candidate over the whole table, as
    /// the barrier runtime's single fragment does, so the two runtimes'
    /// meters agree.
    #[test]
    fn range_unit_path_matches_seq_dis(p in kb_strategy()) {
        let g = build_kb(&p);
        let cfg = mining_cfg();
        let seq = seq_dis(&g, &cfg);
        let want = fingerprint(&seq, &g);
        let mut by_mode = Vec::new();
        for mode in [ExecMode::Simulated, ExecMode::Threads] {
            for n in [2, 1] {
                let mut scfg = StealConfig::new(n, mode);
                scfg.range_rows_threshold = 0;
                scfg.range_min_rows = 1;
                if n == 1 {
                    scfg.range_oversplit = 1;
                }
                let par = par_dis_steal(&g, &cfg, &scfg).expect("fault-free");
                prop_assert_eq!(
                    fingerprint(&par.result, &g),
                    want.clone(),
                    "n={} mode={:?} kb={:?}", n, mode, p
                );
                by_mode.push(meters(&par.result));
            }
        }
        prop_assert_eq!(&by_mode[..2], &by_mode[2..]);
        for (have, seq_has) in by_mode[0].into_iter().zip(meters(&seq)) {
            prop_assert!(have > 0 || seq_has == 0, "{:?}", by_mode[0]);
        }
        let whole = par_dis(&g, &cfg, &ClusterConfig::new(1, ExecMode::Simulated))
            .expect("fault-free");
        prop_assert_eq!(by_mode[1], meters(&whole.result));
    }

    /// Two threaded steal runs on the same input are bit-identical:
    /// results, modelled work, wave count.
    #[test]
    fn threaded_runs_are_deterministic(p in kb_strategy()) {
        let g = build_kb(&p);
        let cfg = mining_cfg();
        let scfg = StealConfig::new(4, ExecMode::Threads);
        let a = par_dis_steal(&g, &cfg, &scfg).expect("fault-free");
        let b = par_dis_steal(&g, &cfg, &scfg).expect("fault-free");
        prop_assert_eq!(fingerprint(&a.result, &g), fingerprint(&b.result, &g));
        prop_assert_eq!(a.work_makespan, b.work_makespan);
        prop_assert_eq!(a.work_busy, b.work_busy);
        prop_assert_eq!(a.barriers, b.barriers);
    }
}
