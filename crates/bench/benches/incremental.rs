//! Ext-1 kernel: incremental violation maintenance vs full revalidation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use gfd_bench::{bench_cfg, bench_kb, Scale};
use gfd_core::seq_dis;
use gfd_datagen::KbProfile;
use gfd_graph::{NodeId, Value};
use gfd_incremental::{GraphState, MonitorRule, UpdateBatch, ViolationMonitor};
use gfd_logic::find_violations;

fn bench_incremental(c: &mut Criterion) {
    let g = bench_kb(KbProfile::Yago2, Scale(0.4));
    let mut cfg = bench_cfg(&g, 3);
    cfg.mine_negative = false;
    let mut mined = seq_dis(&g, &cfg).gfds;
    mined.sort_by_key(|d| std::cmp::Reverse(d.support));
    mined.retain(|d| {
        let q = d.gfd.pattern();
        !q.node_label(q.pivot()).is_wildcard()
    });
    mined.truncate(8);
    let rules: Vec<gfd_logic::Gfd> = mined.iter().map(|d| d.gfd.clone()).collect();

    let ty = g.interner().lookup_attr("type").unwrap();
    let junk = Value::Str(g.interner().symbol("__bench_junk"));

    c.bench_function("incremental/monitor single edit", |b| {
        let monitor_rules: Vec<MonitorRule> =
            rules.iter().cloned().map(MonitorRule::from).collect();
        let mut monitor = ViolationMonitor::new(&g, monitor_rules);
        let mut i = 0usize;
        b.iter(|| {
            let mut batch = UpdateBatch::new();
            batch.set_attr(NodeId::from_index(i % g.node_count()), ty, junk);
            i += 1;
            black_box(monitor.apply(&batch).affected_pivots)
        })
    });

    c.bench_function("incremental/full revalidation", |b| {
        b.iter(|| {
            // Rebuild the index (the monitor patches attribute edits in
            // place and rebuilds nothing) + validate all.
            let rebuilt = GraphState::from_graph(&g).freeze();
            let mut total = 0usize;
            for r in &rules {
                total += find_violations(&rebuilt, r, None).len();
            }
            black_box(total)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_incremental
}
criterion_main!(benches);
