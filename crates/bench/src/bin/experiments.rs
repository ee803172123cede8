//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§7).
//!
//! ```text
//! cargo run -p gfd-bench --release --bin experiments -- all
//! cargo run -p gfd-bench --release --bin experiments -- fig5a fig5d
//! cargo run -p gfd-bench --release --bin experiments -- --scale 0.5 fig5e
//! ```

#![forbid(unsafe_code)]

use gfd_bench::{
    exp_ablation, exp_baselines, exp_cover, exp_extensions, exp_parallel, exp_params, exp_rules,
    Scale,
};
use gfd_datagen::KbProfile;

const ALL: &[&str] = &[
    "fig5a",
    "fig5b",
    "fig5c",
    "fig5d",
    "fig5e",
    "fig5f",
    "fig5g",
    "fig5h",
    "fig5i",
    "fig5j",
    "fig5k",
    "fig5l",
    "fig6",
    "fig7",
    "fig8",
    "ablation",
    "extensions",
];

fn run(name: &str, scale: Scale) {
    let t0 = std::time::Instant::now();
    match name {
        "fig5a" => exp_parallel::fig5_workers(KbProfile::Dbpedia, scale).print(),
        "fig5b" => exp_parallel::fig5_workers(KbProfile::Yago2, scale).print(),
        "fig5c" => exp_parallel::fig5_workers(KbProfile::Imdb, scale).print(),
        "fig5d" => exp_baselines::fig5d(scale).print(),
        "fig5e" => exp_parallel::fig5e(scale).print(),
        "fig5f" => exp_params::fig5f(scale).print(),
        "fig5g" => exp_params::fig5g(scale).print(),
        "fig5h" => exp_params::fig5h(scale).print(),
        "fig5i" => exp_cover::fig5_cover_workers(KbProfile::Dbpedia, scale).print(),
        "fig5j" => exp_cover::fig5_cover_workers(KbProfile::Yago2, scale).print(),
        "fig5k" => exp_cover::fig5_cover_workers(KbProfile::Imdb, scale).print(),
        "fig5l" => exp_cover::fig5l(scale).print(),
        "fig6" => {
            exp_baselines::fig6(scale).print();
            exp_parallel::sequential_costs(scale).print();
            exp_cover::sequential_cover(scale).print();
        }
        // Barrier vs work-stealing runtime head-to-head (not a paper
        // figure; tracks the PR 3 rearchitecture).
        "runtime" => exp_parallel::runtime_comparison(KbProfile::Yago2, scale).print(),
        "fig7" => exp_baselines::fig7(scale).print(),
        "fig8" => exp_rules::fig8(scale),
        "ablation" => {
            exp_ablation::ablation_pruning(scale).print();
            exp_ablation::ablation_split(scale).print();
            exp_ablation::cost_breakdown(scale).print();
        }
        "extensions" => {
            exp_extensions::ext_incremental(scale).print();
            exp_extensions::ext_confidence(scale).print();
            exp_extensions::ext_extended(scale).print();
        }
        // CI smoke: sequential discovery on the tiny datagen scenario, so
        // the harness (datagen scenario + discovery + stats) cannot rot.
        // The mined Σ's cover is pinned to 883 of 1,748 rules; grouped
        // ParCover's LPT schedule (workers 1, 2, 4) and the extended cover
        // of the lifted Σ must keep the same survivors.
        "smoke" => {
            use gfd_core::{cover_indices, seq_dis, DiscoveryConfig};
            use gfd_datagen::{bench_scenario, ScenarioConfig};
            use gfd_extended::{xcover_indices, XGfd};
            use gfd_parallel::{par_cover, ExecMode};
            let cfg = ScenarioConfig::tiny();
            let g = bench_scenario(&cfg);
            let mut mining = DiscoveryConfig::new(3, (g.node_count() / 40).max(5));
            mining.max_edges = 2;
            mining.max_lhs_size = 1;
            mining.values_per_attr = 2;
            mining.max_catalog_literals = 12;
            mining.wildcard_min_labels = 0;
            mining.max_patterns_per_level = 200;
            let result = seq_dis(&g, &mining);
            assert!(
                result.stats.patterns_verified > 0,
                "smoke run verified no patterns"
            );
            println!(
                "smoke: |V|={} |E|={} patterns={} gfds={} in {:?}",
                g.node_count(),
                g.edge_count(),
                result.stats.patterns_verified,
                result.gfds.len(),
                result.stats.total_time,
            );
            let rules = result.rules();
            let kept = cover_indices(&rules);
            assert_eq!(
                (kept.len(), rules.len()),
                (883, 1748),
                "the tiny smoke cover must keep 883 of 1,748 rules"
            );
            let lifted: Vec<XGfd> = rules.iter().map(XGfd::from_base).collect();
            assert_eq!(
                xcover_indices(&lifted),
                kept,
                "the extended cover of the lifted rules differs from SeqCover's"
            );
            for workers in [1, 2, 4] {
                let par =
                    par_cover(&rules, workers, ExecMode::Simulated, true).expect("fault-free");
                assert_eq!(
                    par.cover, kept,
                    "ParCover survivors differ from SeqCover's at {workers} workers"
                );
            }
            println!("smoke: cover keeps {} of {} rules", kept.len(), rules.len());
        }
        // CI smoke: the work-stealing runtime on the tiny scenario, in both
        // execution modes, and the barrier runtime (simulated), all pinned
        // to the sequential output.
        "smoke-steal" => {
            use gfd_core::{seq_dis, DiscoveryConfig};
            use gfd_datagen::{bench_scenario, ScenarioConfig};
            use gfd_parallel::{par_dis_with_runtime, ClusterConfig, ExecMode, Runtime};
            use std::sync::Arc;
            let cfg = ScenarioConfig::tiny();
            let g = Arc::new(bench_scenario(&cfg));
            let mut mining = DiscoveryConfig::new(3, (g.node_count() / 40).max(5));
            mining.max_edges = 2;
            mining.max_lhs_size = 1;
            mining.values_per_attr = 2;
            mining.max_catalog_literals = 12;
            mining.wildcard_min_labels = 0;
            mining.max_patterns_per_level = 200;
            let seq = seq_dis(&g, &mining);
            let fingerprint = |r: &gfd_core::DiscoveryResult| -> Vec<String> {
                r.gfds
                    .iter()
                    .map(|d| format!("{} @{}", d.gfd.display(g.interner()), d.support))
                    .collect()
            };
            let want = fingerprint(&seq);
            assert!(!want.is_empty(), "steal smoke mined no rules");
            for (runtime, mode) in [
                (Runtime::Steal, ExecMode::Threads),
                (Runtime::Steal, ExecMode::Simulated),
                (Runtime::Barrier, ExecMode::Simulated),
            ] {
                let ccfg = ClusterConfig::new(4, mode);
                let par = par_dis_with_runtime(&g, &mining, &ccfg, runtime).expect("fault-free");
                let name = runtime.name();
                assert_eq!(
                    fingerprint(&par.result),
                    want,
                    "{name} output diverged in {mode:?}"
                );
                println!(
                    "smoke-steal {name} {mode:?}: gfds={} waves={} work_makespan={} wall={:?}",
                    par.result.gfds.len(),
                    par.barriers,
                    par.work_makespan,
                    par.wall,
                );
            }
        }
        // CI smoke: the lattice under both literal expansion orders on the
        // tiny scenario. The rule set must be bit-identical (ordering is a
        // pure traversal choice for exact mining); the candidate counts
        // show what selectivity ordering prunes.
        "lattice-smoke" => {
            use gfd_core::{seq_dis, DiscoveryConfig, LiteralOrder};
            use gfd_datagen::{bench_scenario, ScenarioConfig};
            let cfg = ScenarioConfig::tiny();
            let g = bench_scenario(&cfg);
            let mut mining = DiscoveryConfig::new(3, (g.node_count() / 40).max(5));
            mining.max_edges = 2;
            mining.max_lhs_size = 2;
            mining.values_per_attr = 2;
            mining.max_catalog_literals = 12;
            mining.wildcard_min_labels = 0;
            mining.max_patterns_per_level = 200;
            let fingerprint = |r: &gfd_core::DiscoveryResult| -> Vec<String> {
                r.gfds
                    .iter()
                    .map(|d| format!("{} @{}", d.gfd.display(g.interner()), d.support))
                    .collect()
            };
            let mut runs = Vec::new();
            for order in [LiteralOrder::Catalog, LiteralOrder::Selectivity] {
                mining.literal_order = order;
                let result = seq_dis(&g, &mining);
                println!(
                    "lattice-smoke {order:?}: gfds={} candidates={} pruned_support={} \
                     evaluation_work={}",
                    result.gfds.len(),
                    result.stats.hspawn.candidates,
                    result.stats.hspawn.pruned_support,
                    result.stats.evaluation_work,
                );
                runs.push((fingerprint(&result), result.stats.hspawn.candidates));
            }
            assert!(!runs[0].0.is_empty(), "lattice smoke mined no rules");
            assert_eq!(
                runs[0].0, runs[1].0,
                "rule sets diverged between literal orders"
            );
        }
        // CI chaos smoke: the steal runtime under a seeded fault plan
        // (panics, a crash, drops, stragglers), plus a killed-and-resumed
        // checkpointed run — both pinned to the sequential output.
        "chaos-smoke" => {
            use gfd_core::{seq_dis, DiscoveryConfig};
            use gfd_datagen::{bench_scenario, ScenarioConfig};
            use gfd_parallel::{par_dis_steal, ExecMode, FaultConfig, FaultError, StealConfig};
            use std::sync::Arc;
            let cfg = ScenarioConfig::tiny();
            let g = Arc::new(bench_scenario(&cfg));
            let mut mining = DiscoveryConfig::new(3, (g.node_count() / 40).max(5));
            mining.max_edges = 2;
            mining.max_lhs_size = 1;
            mining.values_per_attr = 2;
            mining.max_catalog_literals = 12;
            mining.wildcard_min_labels = 0;
            mining.max_patterns_per_level = 200;
            let seq = seq_dis(&g, &mining);
            let fingerprint = |r: &gfd_core::DiscoveryResult| -> Vec<String> {
                r.gfds
                    .iter()
                    .map(|d| format!("{} @{}", d.gfd.display(g.interner()), d.support))
                    .collect()
            };
            let want = fingerprint(&seq);
            assert!(!want.is_empty(), "chaos smoke mined no rules");
            for (seed, mode) in [(11u64, ExecMode::Threads), (17, ExecMode::Simulated)] {
                let scfg = StealConfig::new(4, mode).with_faults(FaultConfig::with_seed(seed));
                let par = par_dis_steal(&g, &mining, &scfg).expect("chaos run failed to recover");
                assert_eq!(
                    fingerprint(&par.result),
                    want,
                    "chaos output diverged (seed {seed}, {mode:?})"
                );
                println!(
                    "chaos-smoke seed={seed} {mode:?}: gfds={} retries={} requeued={} \
                     speculative_wins={} recovered_waves={}",
                    par.result.gfds.len(),
                    par.result.stats.retries,
                    par.result.stats.requeued_units,
                    par.result.stats.speculative_wins,
                    par.result.stats.recovered_waves,
                );
            }
            // Kill after the level-1 checkpoint, then resume to the end.
            let ck = std::env::temp_dir().join(format!("gfd-chaos-smoke-{}", std::process::id()));
            std::fs::remove_file(&ck).ok();
            let mut scfg = StealConfig::new(3, ExecMode::Threads);
            scfg.checkpoint = Some(ck.clone());
            scfg.halt_after_level = Some(1);
            match par_dis_steal(&g, &mining, &scfg) {
                Err(FaultError::Halted { level: 1 }) => {}
                other => panic!("expected halt after level 1, got {other:?}"),
            }
            let mut scfg = StealConfig::new(4, ExecMode::Threads);
            scfg.checkpoint = Some(ck.clone());
            scfg.resume = true;
            let resumed = par_dis_steal(&g, &mining, &scfg).expect("resume failed");
            assert_eq!(fingerprint(&resumed.result), want, "resume output diverged");
            std::fs::remove_file(&ck).ok();
            println!(
                "chaos-smoke resume: gfds={} waves={} (killed after level 1, resumed)",
                resumed.result.gfds.len(),
                resumed.barriers,
            );
        }
        // CI scale smoke: the million-node power-law scenario end-to-end,
        // sequential vs the steal runtime at 1/2/4 workers. This is the
        // acceptance run for the frozen SoA CSR + edge-cut shard path at
        // scale: rule sets must be bit-identical everywhere, and the run
        // reports the peak-memory counters so a regression in graph
        // footprint is visible in CI logs.
        "large-smoke" => {
            use gfd_core::{seq_dis, DiscoveryConfig};
            use gfd_datagen::Scenario;
            use gfd_parallel::{par_dis_with_runtime, ClusterConfig, ExecMode, Runtime};
            use std::sync::Arc;
            let sc = Scenario::named("large").expect("large scenario");
            let t_gen = std::time::Instant::now();
            let g = Arc::new(sc.build());
            let gen = t_gen.elapsed();
            // Mirrors perf.rs `perf_cfg_scale`: bounded so the lattice
            // stays CI-sized while matching/spawning still stream the
            // full 1M-node graph.
            let mut mining = DiscoveryConfig::new(3, (g.node_count() / 100).max(100));
            mining.max_edges = 2;
            mining.max_lhs_size = 1;
            mining.values_per_attr = 2;
            mining.max_catalog_literals = 8;
            mining.wildcard_min_labels = 0;
            mining.wildcard_root = false;
            mining.max_matches_per_pattern = 400_000;
            mining.max_patterns_per_level = 64;
            mining.max_negative_candidates = 8;
            let seq = seq_dis(&g, &mining);
            let fingerprint = |r: &gfd_core::DiscoveryResult| -> Vec<String> {
                r.gfds
                    .iter()
                    .map(|d| format!("{} @{}", d.gfd.display(g.interner()), d.support))
                    .collect()
            };
            let want = fingerprint(&seq);
            assert!(!want.is_empty(), "large smoke mined no rules");
            let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
            println!(
                "large-smoke seq: |V|={} |E|={} gfds={} gen={:?} discover={:?} \
                 peak_rss={:.1}MiB graph={:.1}MiB reallocs={}",
                g.node_count(),
                g.edge_count(),
                seq.gfds.len(),
                gen,
                seq.stats.total_time,
                mib(seq.stats.peak_rss_bytes),
                mib(seq.stats.graph_bytes),
                seq.stats.graph_reallocs,
            );
            for workers in [1usize, 2, 4] {
                let ccfg = ClusterConfig::new(workers, ExecMode::Threads);
                let par =
                    par_dis_with_runtime(&g, &mining, &ccfg, Runtime::Steal).expect("fault-free");
                assert_eq!(
                    fingerprint(&par.result),
                    want,
                    "steal output diverged at {workers} workers"
                );
                println!(
                    "large-smoke steal w={workers}: gfds={} waves={} wall={:?} peak_rss={:.1}MiB",
                    par.result.gfds.len(),
                    par.barriers,
                    par.wall,
                    mib(par.result.stats.peak_rss_bytes),
                );
            }
        }
        "validate-smoke" => {
            // Bound vs full verdict equivalence on the 1M-node `large`
            // scenario: every seeded per-entity query must produce a
            // CandidateStats fingerprint bit-identical to the full path
            // (global enumeration → pivot-filtered MatchTable → bitmap
            // evaluator) answering the same bound question.
            use std::ops::ControlFlow;

            use gfd_core::{
                seq_dis, BoundValidator, CandidateEvaluator, DiscoveryConfig, MatchTable,
                TableEvaluator,
            };
            use gfd_datagen::Scenario;
            use gfd_graph::AttrId;
            use gfd_logic::{Gfd, Literal, Rhs};
            use gfd_pattern::{CompiledPattern, MatchSet, PLabel};
            use rand::{rngs::StdRng, RngExt, SeedableRng};

            let sc = Scenario::named("large").expect("large scenario");
            let g = sc.build();
            // Mirrors perf.rs `perf_cfg_scale` + validate mode's
            // min_confidence 0.5: approximate positives are the rules with
            // real matches and real violators.
            let mut mining = DiscoveryConfig::new(3, (g.node_count() / 100).max(100));
            mining.max_edges = 2;
            mining.max_lhs_size = 1;
            mining.values_per_attr = 2;
            mining.max_catalog_literals = 8;
            mining.wildcard_min_labels = 0;
            mining.wildcard_root = false;
            mining.max_matches_per_pattern = 400_000;
            mining.max_patterns_per_level = 64;
            mining.max_negative_candidates = 8;
            mining.min_confidence = 0.5;
            let result = seq_dis(&g, &mining);
            let rules: Vec<Gfd> = result.gfds.iter().map(|d| d.gfd.clone()).collect();
            assert!(!rules.is_empty(), "validate smoke mined no rules");

            let rule_attrs = |phi: &Gfd| -> Vec<AttrId> {
                let mut attrs: Vec<AttrId> = Vec::new();
                let mut push = |a: AttrId| {
                    if !attrs.contains(&a) {
                        attrs.push(a);
                    }
                };
                let mut lit = |l: &Literal| match *l {
                    Literal::Const { attr, .. } => push(attr),
                    Literal::VarVar { lattr, rattr, .. } => {
                        push(lattr);
                        push(rattr);
                    }
                };
                for l in phi.lhs() {
                    lit(l);
                }
                if let Rhs::Lit(l) = phi.rhs() {
                    lit(&l);
                }
                attrs.sort_unstable();
                attrs
            };

            let mut rng = StdRng::seed_from_u64(sc.seed() ^ 0xa11d);
            let mut validator = BoundValidator::new(&g);
            let mut full_work = 0u64;
            let mut checked = 0usize;
            for _ in 0..16 {
                let ri = rng.random_range(0..rules.len());
                let phi = &rules[ri];
                let q = phi.pattern();
                let node = match q.node_label(q.pivot()) {
                    PLabel::Is(l) => {
                        let class = g.nodes_with_label(l);
                        if class.is_empty() {
                            continue;
                        }
                        class[rng.random_range(0..class.len())]
                    }
                    PLabel::Wildcard => {
                        gfd_graph::NodeId::from_index(rng.random_range(0..g.node_count()))
                    }
                };

                let plan = CompiledPattern::new(q);
                let bound = validator.verdict_at(phi, &plan, node);

                // Full path answering the same bound question: enumerate
                // everything, filter to the pivot, table + bitmap evaluate.
                let mut ms = MatchSet::new(q.node_count());
                let _ = plan.matcher(&g).for_each(|m| {
                    ms.push(m);
                    ControlFlow::Continue(())
                });
                full_work += (ms.len() * q.node_count()) as u64;
                let mut at_pivot = MatchSet::new(q.node_count());
                for m in ms.iter() {
                    if m[q.pivot()] == node {
                        at_pivot.push(m);
                    }
                }
                let table = MatchTable::build(q, &at_pivot, &g, &rule_attrs(phi));
                let mut ev = TableEvaluator::new(&table);
                let full = ev.evaluate(phi.lhs(), &phi.rhs());
                full_work += ev.work();

                assert_eq!(
                    format!("{bound:?}"),
                    format!("{full:?}"),
                    "bound vs full verdict diverged for rule {ri} at node {node:?}"
                );
                checked += 1;
            }
            assert!(checked > 0, "validate smoke checked no queries");
            let bound_work = validator.work().max(1);
            println!(
                "validate-smoke: |V|={} |E|={} gfds={} queries={checked} \
                 bound_work={bound_work} full_work={full_work} ratio={:.0}x \
                 — all verdict fingerprints bit-identical",
                g.node_count(),
                g.edge_count(),
                rules.len(),
                full_work as f64 / bound_work as f64,
            );
        }
        other => {
            eprintln!("unknown experiment `{other}`; known: {ALL:?}");
            std::process::exit(2);
        }
    }
    eprintln!("[{name} done in {:?}]", t0.elapsed());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default();
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--scale needs a float");
                        std::process::exit(2);
                    });
                scale = Scale(v);
            }
            "all" => targets.extend(ALL.iter().map(|s| s.to_string())),
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        eprintln!(
            "usage: experiments [--scale X] <all | fig5a … fig5l | fig6 | fig7 | fig8 | runtime | smoke | smoke-steal>"
        );
        eprintln!("known experiments: {ALL:?} plus `runtime` (barrier vs steal), `smoke`, `smoke-steal`, `lattice-smoke`, `chaos-smoke`, `large-smoke`, and `validate-smoke` (CI sanity runs)");
        std::process::exit(2);
    }
    println!(
        "# GFD discovery experiment harness (scale {:.2}, {} experiments)",
        scale.0,
        targets.len()
    );
    for t in targets {
        run(&t, scale);
    }
}
