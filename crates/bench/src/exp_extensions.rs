//! Extension experiments (beyond §7): incremental maintenance, the
//! confidence adaptation, and extended-predicate discovery — the three
//! directions §8 announces, measured with the same harness conventions
//! as the paper's figures.

use std::time::Instant;

use gfd_core::seq_dis;
use gfd_datagen::{inject_noise, KbProfile, NoiseConfig};
use gfd_extended::{discover_extended, XDiscoveryConfig, XRhs};
use gfd_graph::{Graph, GraphBuilder, NodeId, Value};
use gfd_incremental::{MonitorRule, UpdateBatch, ViolationMonitor};
use gfd_logic::find_violations;

use crate::report::{f, Table};
use crate::{bench_cfg, bench_kb, secs, Scale};

/// Ext-1: incremental violation maintenance vs full revalidation.
///
/// Mines a rule set from a YAGO2-style KB (keeping rules with *selective*
/// pivots — a concrete pivot label is what gives §4.1's locality its
/// leverage), then applies batches of attribute edits of growing size.
/// The monitor re-checks only pivots within pattern radius of the touched
/// nodes; the baseline rebuilds the indexed graph (the same `O(|G|)`
/// freeze the monitor pays) and re-validates every rule from scratch.
/// "affected" sums candidate pivots over rules — the matching work that
/// locality saves is `(pivots − affected)` anchored enumerations.
pub fn ext_incremental(scale: Scale) -> Table {
    let g = bench_kb(KbProfile::Yago2, scale);
    let mut cfg = bench_cfg(&g, 3);
    cfg.mine_negative = false;
    let mined = seq_dis(&g, &cfg);
    let mut rules: Vec<_> = mined.gfds;
    rules.sort_by_key(|d| std::cmp::Reverse(d.support));
    // Prefer concrete-pivot rules; wildcard pivots admit every node and
    // void the locality argument.
    rules.retain(|d| {
        let q = d.gfd.pattern();
        !q.node_label(q.pivot()).is_wildcard()
    });
    rules.truncate(8);
    let base_rules: Vec<gfd_logic::Gfd> = rules.iter().map(|d| d.gfd.clone()).collect();
    let monitor_rules: Vec<MonitorRule> =
        base_rules.iter().cloned().map(MonitorRule::from).collect();

    let ty = g.interner().lookup_attr("type").unwrap();
    let junk = Value::Str(g.interner().symbol("__corrupted"));

    let mut t = Table::new(
        &format!(
            "Ext-1 incremental maintenance (YAGO2 |V|={}, {} rules)",
            g.node_count(),
            base_rules.len()
        ),
        &[
            "batch",
            "monitor(s)",
            "full reval(s)",
            "affected",
            "Δ+",
            "Δ-",
        ],
    );

    let mut monitor = ViolationMonitor::new(&g, monitor_rules);
    for batch_size in [1usize, 4, 16, 64] {
        // Corrupt `batch_size` spread-out low-degree nodes (curation
        // edits touch entities, not hubs).
        let mut targets: Vec<NodeId> = g.nodes().collect();
        targets.sort_by_key(|&v| (g.degree(v), v));
        let stride = (targets.len() / batch_size.max(1)).max(1);
        let mut batch = UpdateBatch::new();
        for b in 0..batch_size {
            batch.set_attr(targets[(b * stride) % targets.len()], ty, junk);
        }

        let t0 = Instant::now();
        let delta = monitor.apply(&batch);
        let inc = t0.elapsed();

        // Full revalidation: rebuild the indexed graph, as a from-scratch
        // validator of an edited graph must (the monitor patches these
        // attribute edits in place and rebuilds nothing), and enumerate
        // all matches of every rule.
        let t0 = Instant::now();
        let rebuilt = gfd_incremental::GraphState::from_graph(monitor.graph()).freeze();
        let mut full = 0usize;
        for r in &base_rules {
            full += find_violations(&rebuilt, r, None).len();
        }
        let full_time = t0.elapsed();
        assert_eq!(full, monitor.total_violations(), "monitor must agree");

        t.row(vec![
            batch_size.to_string(),
            format!("{:.4}", inc.as_secs_f64()),
            format!("{:.4}", full_time.as_secs_f64()),
            delta.affected_pivots.to_string(),
            delta.added().to_string(),
            delta.removed().to_string(),
        ]);
    }
    t
}

/// Ext-2: the confidence adaptation (§8, ref \[36\]) under Exp-5 noise.
///
/// Rules mined exactly on the clean KB form the ground truth; after
/// noising, exact re-mining loses the touched rules and a θ sweep shows
/// how confidence-tolerant mining recovers them.
pub fn ext_confidence(scale: Scale) -> Table {
    let clean = bench_kb(KbProfile::Yago2, scale);
    let mut cfg = bench_cfg(&clean, 3);
    cfg.mine_negative = false;
    let baseline = seq_dis(&clean, &cfg);
    let keys =
        |rules: &[gfd_core::DiscoveredGfd], g: &Graph| -> std::collections::BTreeSet<String> {
            rules
                .iter()
                .filter(|d| d.gfd.is_positive())
                .map(|d| d.gfd.display(g.interner()))
                .collect()
        };
    let baseline_keys = keys(&baseline.gfds, &clean);

    let noised = inject_noise(
        &clean,
        &NoiseConfig {
            alpha: 0.05,
            beta: 0.5,
            seed: 11,
            ..Default::default()
        },
    );
    let dirty = noised.graph;

    let exact = seq_dis(&dirty, &cfg);
    let exact_keys = keys(&exact.gfds, &dirty);
    let broken: std::collections::BTreeSet<&String> =
        baseline_keys.difference(&exact_keys).collect();

    let mut t = Table::new(
        &format!(
            "Ext-2 confidence sweep (YAGO2, α=5% β=50%; {} clean rules, {} broken by noise)",
            baseline_keys.len(),
            broken.len()
        ),
        &["θ", "rules", "approx rules", "broken recovered", "time(s)"],
    );
    for theta in [1.0f64, 0.95, 0.9, 0.8] {
        let mut acfg = cfg.clone();
        acfg.min_confidence = theta;
        let t0 = Instant::now();
        let mined = seq_dis(&dirty, &acfg);
        let elapsed = t0.elapsed();
        let mined_keys = keys(&mined.gfds, &dirty);
        let recovered = broken.iter().filter(|k| mined_keys.contains(**k)).count();
        let approx = mined.gfds.iter().filter(|d| d.confidence < 1.0).count();
        t.row(vec![
            format!("{theta:.2}"),
            mined_keys.len().to_string(),
            approx.to_string(),
            format!("{recovered}/{}", broken.len()),
            f(secs(elapsed)),
        ]);
    }
    t
}

/// The temporal benchmark graph: generations with fixed 25-year gaps and
/// 80-year life spans (exact arithmetic regularities for the miner).
fn temporal_graph(people: usize) -> Graph {
    let mut b = GraphBuilder::new();
    let mut prev: Vec<_> = Vec::new();
    let per_gen = (people / 4).max(4);
    for gen in 0..4i64 {
        let mut cur = Vec::new();
        for i in 0..per_gen {
            let p = b.add_node("person");
            let birth = 1880 + gen * 25 + (i % 7) as i64;
            b.set_attr(p, "birth", birth);
            b.set_attr(p, "death", birth + 80);
            cur.push(p);
        }
        if !prev.is_empty() {
            for (i, &c) in cur.iter().enumerate() {
                b.add_edge(prev[i % prev.len()], c, "parent");
            }
        }
        prev = cur;
    }
    b.build()
}

/// Ext-3: extended-predicate discovery (§8's comparison/arithmetic
/// literals) on temporal data, by rule flavour.
pub fn ext_extended(scale: Scale) -> Table {
    let g = temporal_graph(scale.apply(400));
    let sigma = (g.node_count() / 20).max(5);
    let mut t = Table::new(
        &format!(
            "Ext-3 extended discovery (temporal graph |V|={}, σ={sigma})",
            g.node_count()
        ),
        &[
            "k", "rules", "order", "arith", "const", "negative", "time(s)",
        ],
    );
    for k in [2usize, 3] {
        let mut cfg = XDiscoveryConfig::new(k, sigma);
        cfg.max_lhs_size = 1;
        let t0 = Instant::now();
        let rules = discover_extended(&g, &cfg);
        let elapsed = t0.elapsed();
        let mut order = 0usize;
        let mut arith = 0usize;
        let mut constant = 0usize;
        let mut negative = 0usize;
        for r in &rules {
            match r.gfd.rhs() {
                XRhs::False => negative += 1,
                XRhs::Lit(l) => {
                    if l.op.is_order() {
                        order += 1;
                    } else if matches!(l.rhs, gfd_extended::Operand::Term(_, d) if d != 0) {
                        arith += 1;
                    } else {
                        constant += 1;
                    }
                }
            }
        }
        t.row(vec![
            k.to_string(),
            rules.len().to_string(),
            order.to_string(),
            arith.to_string(),
            constant.to_string(),
            negative.to_string(),
            f(secs(elapsed)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_beats_full_revalidation() {
        let t = ext_incremental(Scale(0.1));
        let s = t.render();
        assert!(s.contains("Ext-1"));
        // The monitor/full columns are wall times; at any scale the
        // single-edit batch must re-check a small pivot subset.
        assert!(s.lines().count() >= 6);
    }

    #[test]
    fn confidence_recovers_broken_rules() {
        let t = ext_confidence(Scale(0.08));
        let s = t.render();
        assert!(s.contains("Ext-2"), "{s}");
        // θ = 1.0 recovers nothing by construction (row 1 contains "0/").
        let row1 = s
            .lines()
            .find(|l| l.trim_start().starts_with("1.00"))
            .unwrap();
        assert!(row1.contains("0/"), "{row1}");
    }

    #[test]
    fn extended_discovery_finds_all_flavours() {
        let t = ext_extended(Scale(0.25));
        let s = t.render();
        assert!(s.contains("Ext-3"), "{s}");
    }
}
