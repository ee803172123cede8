//! Continuous consistency monitoring of an evolving knowledge base
//! (`gfd::incremental`).
//!
//! Validation is the expensive leg of enforcement — co-W[1]-hard in
//! general (Theorem 1(b)) — but *maintenance* is cheap: a GFD holds match
//! by match (§2), so an update can only change the verdict of a match
//! that contains a node it touches, and an attribute edit only of a match
//! whose literals read that attribute there. This example mines a rule
//! cover from a YAGO2-style knowledge base, attaches a
//! [`ViolationMonitor`], and replays a curation session: corruption
//! arrives in batches, each batch reports exactly the violations it
//! introduced or repaired, and the monitor's affected-pivot counter shows
//! how few rule pivots each batch forces it to re-examine.
//!
//! Run with: `cargo run --release --example kb_monitoring`

use gfd::incremental::{MonitorRule, UpdateBatch, ViolationMonitor};
use gfd::prelude::*;

fn main() {
    // ── Mine a rule cover from the clean KB ──────────────────────────
    let g = knowledge_base(&KbConfig::new(KbProfile::Yago2).with_scale(400));
    println!(
        "knowledge base: |V| = {}, |E| = {}",
        g.node_count(),
        g.edge_count()
    );
    let mut cfg = DiscoveryConfig::new(3, 30);
    cfg.max_lhs_size = 1;
    cfg.mine_negative = false;
    let mined = gfd::discover_with(&g, &cfg);
    // Keep the strongest handful — a curation deployment monitors a
    // reviewed cover, not the raw mining output.
    let rules: Vec<MonitorRule> = mined
        .iter()
        .take(6)
        .map(|d| MonitorRule::from(d.gfd.clone()))
        .collect();
    println!("monitoring {} rules:", rules.len());
    for d in mined.iter().take(6) {
        println!("  {}", d.display(g.interner()));
    }

    let mut monitor = ViolationMonitor::new(&g, rules);
    println!(
        "\ninitial violations: {} (mined rules hold on the clean graph)",
        monitor.total_violations()
    );

    // ── A curation session: corruption and repair in batches ─────────
    let i = g.interner();
    let ty = i.lookup_attr("type").unwrap();
    let create = i.lookup_label("create").unwrap();
    let person = i.lookup_label("person").unwrap();

    // Batch 1: Example 1(a) — a film creator becomes a high jumper.
    let creator = g
        .nodes()
        .find(|&v| {
            g.node_label(v) == person
                && g.out_edges(v).iter().any(|&e| g.edge(e).label == create)
                && g.attr(v, ty).is_some()
        })
        .expect("some creator exists");
    let original = g.attr(creator, ty).unwrap();
    let mut batch1 = UpdateBatch::new();
    batch1.set_attr(creator, ty, Value::Str(i.symbol("high_jumper")));

    // Batch 2: an unrelated low-degree person gets a new attribute
    // (benign: no monitored rule's premise or consequence changes).
    let bystander = g
        .nodes()
        .filter(|&v| g.node_label(v) == person && v != creator)
        .min_by_key(|&v| g.degree(v))
        .unwrap_or(creator);
    let mut batch2 = UpdateBatch::new();
    batch2.set_attr(bystander, ty, Value::Str(i.symbol("curator")));

    // Batch 3: the repair.
    let mut batch3 = UpdateBatch::new();
    batch3.set_attr(creator, ty, original);

    for (name, batch) in [
        ("corrupt a creator", batch1),
        ("benign edit far away", batch2),
        ("repair the creator", batch3),
    ] {
        let delta = monitor.apply(&batch);
        println!(
            "\nbatch [{name}]: +{} violations, -{} repaired, {} rule pivots re-checked (of {} nodes)",
            delta.added(),
            delta.removed(),
            delta.affected_pivots,
            monitor.graph().node_count()
        );
        for (r, rd) in delta.per_rule.iter().enumerate() {
            for m in &rd.added {
                println!("  rule {r} violated at match {m:?}");
            }
            for m in &rd.removed {
                println!("  rule {r} repaired at match {m:?}");
            }
        }
        // Locality: the monitor re-checks only the matches through the
        // touched node, not the whole graph.
        assert!(delta.affected_pivots < monitor.graph().node_count() / 2);
    }

    assert!(monitor.is_clean(), "repairs restored consistency");
    println!(
        "\nfinal state: clean ({} violations)",
        monitor.total_violations()
    );
}
