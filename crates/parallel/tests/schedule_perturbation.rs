//! Schedule-perturbation audit: the steal runtime under seeded
//! *adversarial* scheduling must still reproduce `SeqDis` bit for bit.
//!
//! `StealConfig::perturb` turns every scheduling freedom the output must
//! not depend on into a seeded random choice: unit order is shuffled at
//! each wave boundary, affinity placement is replaced by random queue
//! assignment, steal victims are visited in a per-worker biased order, and
//! the simulated path processes units in shuffled order (exercising
//! accumulator fold order). This suite is the dynamic half of the
//! determinism contract that `gfd-lint`'s `nondeterminism` rule enforces
//! statically: the lint proves no hash-order iteration reaches an
//! output-affecting path, and this audit proves the remaining freedom —
//! the schedule itself — is output-invisible.

use std::sync::Arc;

use gfd_core::{cover_indices, seq_dis, DiscoveryConfig, DiscoveryResult};
use gfd_graph::{Graph, GraphBuilder};
use gfd_parallel::{par_dis_steal, ExecMode, StealConfig};
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
    c.wildcard_root = false;
    c.max_negative_candidates = 6;
    c.max_catalog_literals = 6;
    c
}

/// `spawning_work` and `evaluation_work`.
fn meters(result: &DiscoveryResult) -> [u64; 2] {
    [result.stats.spawning_work, result.stats.evaluation_work]
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

/// A fixed person/product knowledge graph — a deterministic CI anchor
/// independent of proptest sampling.
fn fixed_kb() -> Arc<Graph> {
    let mut b = GraphBuilder::new();
    let mut people = Vec::new();
    for i in 0..18 {
        let p = b.add_node("person");
        b.set_attr(p, "city", if i % 3 == 0 { "basel" } else { "bern" });
        b.set_attr(p, "tier", if i % 2 == 0 { "gold" } else { "basic" });
        people.push(p);
    }
    let mut products = Vec::new();
    for i in 0..12 {
        let q = b.add_node("product");
        b.set_attr(q, "kind", if i % 4 == 0 { "book" } else { "tool" });
        products.push(q);
    }
    for i in 0..18 {
        b.add_edge(people[i], products[i % 12], "create");
        if i % 3 != 0 {
            b.add_edge(people[i], people[(i + 5) % 18], "follow");
        }
        if i % 4 == 0 {
            b.add_edge(people[i], people[(i + 9) % 18], "parent");
        }
    }
    Arc::new(b.build())
}

/// Every adversarial seed, worker count, and mode reproduces `SeqDis` —
/// rules, counters, cover, and the modelled `work_makespan` and work
/// meters of the unperturbed schedule — on the fixed graph.
#[test]
fn adversarial_schedules_reproduce_seq_dis_on_fixed_kb() {
    let g = fixed_kb();
    let cfg = mining_cfg();
    let seq = seq_dis(&g, &cfg);
    let want = fingerprint(&seq, &g);
    let want_cover = cover_indices(&seq.rules());
    for mode in [ExecMode::Simulated, ExecMode::Threads] {
        for n in [1usize, 2, 4] {
            let baseline = par_dis_steal(&g, &cfg, &StealConfig::new(n, mode)).expect("fault-free");
            assert_eq!(fingerprint(&baseline.result, &g), want);
            for seed in [1u64, 7, 42, 0xdead_beef, u64::MAX] {
                let scfg = StealConfig::new(n, mode).with_perturbation(seed);
                let par = par_dis_steal(&g, &cfg, &scfg).expect("fault-free");
                assert_eq!(
                    fingerprint(&par.result, &g),
                    want,
                    "rule drift: n={n} mode={mode:?} seed={seed}"
                );
                assert_eq!(&par.result.stats.hspawn, &seq.stats.hspawn);
                assert_eq!(
                    par.result.stats.patterns_verified,
                    seq.stats.patterns_verified
                );
                assert_eq!(&cover_indices(&par.result.rules()), &want_cover);
                // The greedy cost schedule is computed from unit order and
                // modelled costs only, so even an adversarial schedule may
                // not move the modelled clock.
                assert_eq!(
                    par.work_makespan, baseline.work_makespan,
                    "modelled schedule drift: n={n} mode={mode:?} seed={seed}"
                );
                assert_eq!(par.work_busy, baseline.work_busy);
                assert_eq!(par.barriers, baseline.barriers);
                assert_eq!(meters(&par.result), meters(&baseline.result));
            }
        }
    }
}

/// The forced `(rule, pivot-range)` evaluator path under perturbation:
/// shard-cache churn and biased stealing of range units stay invisible,
/// in the rules and in the work meters.
#[test]
fn adversarial_range_unit_path_reproduces_seq_dis() {
    let g = fixed_kb();
    let cfg = mining_cfg();
    let seq = seq_dis(&g, &cfg);
    let want = fingerprint(&seq, &g);
    let range_path = |mut scfg: StealConfig| {
        scfg.range_rows_threshold = 0;
        scfg.range_min_rows = 1;
        par_dis_steal(&g, &cfg, &scfg).expect("fault-free")
    };
    for mode in [ExecMode::Simulated, ExecMode::Threads] {
        let baseline = range_path(StealConfig::new(4, mode));
        for seed in [3u64, 99] {
            let par = range_path(StealConfig::new(4, mode).with_perturbation(seed));
            assert_eq!(
                fingerprint(&par.result, &g),
                want,
                "mode={mode:?} seed={seed}"
            );
            assert_eq!(meters(&par.result), meters(&baseline.result));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On random graphs: perturbed steal runs match `SeqDis` across
    /// worker counts, modes, and seeds.
    #[test]
    fn perturbed_steal_matches_seq_dis(p in kb_strategy(), seed in 0u64..=u64::MAX) {
        let g = build_kb(&p);
        let cfg = mining_cfg();
        let seq = seq_dis(&g, &cfg);
        let want = fingerprint(&seq, &g);
        let seq_cover = cover_indices(&seq.rules());
        for mode in [ExecMode::Simulated, ExecMode::Threads] {
            for n in [1usize, 2, 4] {
                let scfg = StealConfig::new(n, mode).with_perturbation(seed);
                let par = par_dis_steal(&g, &cfg, &scfg).expect("fault-free");
                prop_assert_eq!(
                    fingerprint(&par.result, &g),
                    want.clone(),
                    "n={} mode={:?} seed={} kb={:?}", n, mode, seed, p
                );
                prop_assert_eq!(&par.result.stats.hspawn, &seq.stats.hspawn);
                prop_assert_eq!(&cover_indices(&par.result.rules()), &seq_cover);
            }
        }
    }

    /// Two perturbed runs with the *same* seed are bit-identical, and a
    /// perturbed run charges exactly the unperturbed modelled clocks.
    #[test]
    fn perturbation_is_deterministic_and_clock_invisible(p in kb_strategy()) {
        let g = build_kb(&p);
        let cfg = mining_cfg();
        let base = par_dis_steal(&g, &cfg, &StealConfig::new(4, ExecMode::Threads)).expect("fault-free");
        let scfg = StealConfig::new(4, ExecMode::Threads).with_perturbation(5);
        let a = par_dis_steal(&g, &cfg, &scfg).expect("fault-free");
        let b = par_dis_steal(&g, &cfg, &scfg).expect("fault-free");
        prop_assert_eq!(fingerprint(&a.result, &g), fingerprint(&b.result, &g));
        prop_assert_eq!(a.work_makespan, base.work_makespan);
        prop_assert_eq!(a.work_busy, base.work_busy);
        prop_assert_eq!(a.barriers, base.barriers);
        prop_assert_eq!(meters(&a.result), meters(&base.result));
    }
}
