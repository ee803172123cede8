//! Parallel-scalable discovery (§6): `DisGFD = ParDis + ParCover`.
//!
//! Fragments a generated graph by edge cut, runs discovery with an
//! increasing number of workers in the simulated-cluster mode, and prints
//! the Fig. 5(a)-style series: modelled n-machine time falls as workers
//! are added, and the parallel output is identical to the sequential one.
//!
//! Run with: `cargo run --release --example parallel_discovery`

use std::sync::Arc;

use gfd::prelude::*;

fn main() {
    let g = Arc::new(knowledge_base(
        &KbConfig::new(KbProfile::Dbpedia).with_scale(800),
    ));
    println!("graph: {} nodes, {} edges", g.node_count(), g.edge_count());

    let mut cfg = DiscoveryConfig::new(3, 40);
    cfg.max_lhs_size = 1;

    // Sequential yardstick (§6.1: parallel scalability is relative to it).
    let t0 = std::time::Instant::now();
    let seq = seq_dis(&g, &cfg);
    let seq_time = t0.elapsed();
    println!("SeqDis: {} rules in {:?}\n", seq.gfds.len(), seq_time);

    let canonical = |r: &DiscoveryResult| {
        let mut v: Vec<String> = r
            .gfds
            .iter()
            .map(|d| format!("{} {}", d.gfd.display(g.interner()), d.support))
            .collect();
        v.sort();
        v
    };
    let seq_rules = canonical(&seq);

    println!(
        "{:>3} {:>14} {:>14} {:>10} {:>8}",
        "n", "simulated", "speedup", "comm(KB)", "equal?"
    );
    let mut base = None;
    for n in [1, 2, 4, 8, 12, 16, 20] {
        let ccfg = ClusterConfig::new(n, ExecMode::Simulated);
        let report = par_dis(&g, &cfg, &ccfg).expect("fault-free");
        let sim = report.simulated;
        let baseline = *base.get_or_insert(sim);
        let equal = canonical(&report.result) == seq_rules;
        println!(
            "{:>3} {:>14?} {:>13.2}x {:>10} {:>8}",
            n,
            sim,
            baseline.as_secs_f64() / sim.as_secs_f64().max(1e-9),
            report.comm_bytes / 1024,
            if equal { "yes" } else { "NO" },
        );
    }

    // ParCover on the mined set (§6.3).
    println!("\nParCover over {} mined rules:", seq.gfds.len());
    let rules: Vec<Gfd> = seq.gfds.iter().map(|d| d.gfd.clone()).collect();
    for n in [1, 4, 8, 16] {
        let rep = par_cover(&rules, n, ExecMode::Simulated, true).expect("fault-free");
        println!(
            "  n={:>2}: cover {} / {} rules, {} groups, simulated {:?}",
            n,
            rep.cover.len(),
            rules.len(),
            rep.groups,
            rep.simulated
        );
    }
}
