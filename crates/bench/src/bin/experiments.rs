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
    perf_cfg, perf_cfg_scale, Scale,
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
                seq_dis, BoundValidator, CandidateEvaluator, MatchTable, TableEvaluator,
            };
            use gfd_datagen::Scenario;
            use gfd_graph::AttrId;
            use gfd_logic::{Gfd, Literal, Rhs};
            use gfd_pattern::{CompiledPattern, MatchSet, PLabel};
            use rand::{rngs::StdRng, RngExt, SeedableRng};

            let sc = Scenario::named("large").expect("large scenario");
            let g = sc.build();
            // `perf --validate`'s catalog: `perf_cfg_scale` at
            // min_confidence 0.5, so approximate positives are the rules
            // with real matches and real violators.
            let mut mining = perf_cfg_scale(g.node_count());
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
        // CI smoke: the violation monitor on the tiny catalog that
        // `perf --validate` mines (min_confidence 0.5, so it has real
        // violators). Seeded corruption batches and their undo batches,
        // then three topology batches; after every batch each rule's
        // maintained violations must equal a fresh monitor's.
        "monitor-smoke" => {
            use gfd_core::seq_dis;
            use gfd_datagen::Scenario;
            use gfd_graph::{NodeId, Value};
            use gfd_incremental::{MonitorRule, UpdateBatch, ViolationMonitor};
            use rand::{rngs::StdRng, RngExt, SeedableRng};

            let sc = Scenario::named("tiny").expect("tiny scenario");
            let g = sc.build();
            let mut mining = perf_cfg(g.node_count());
            mining.min_confidence = 0.5;
            let rules: Vec<MonitorRule> = seq_dis(&g, &mining)
                .gfds
                .into_iter()
                .map(|d| MonitorRule::Base(d.gfd))
                .collect();
            assert!(!rules.is_empty(), "monitor smoke mined no rules");
            let mut mon = ViolationMonitor::new(&g, rules.clone());
            let initial = mon.total_violations();
            assert!(initial > 0, "the monitor smoke catalog has no violators");
            println!(
                "monitor-smoke: |V|={} |E|={} rules={} initial_violations={initial}",
                g.node_count(),
                g.edge_count(),
                rules.len(),
            );
            let apply = |mon: &mut ViolationMonitor, batch: &UpdateBatch, what: &str| {
                let before = mon.stats().bound_queries;
                let delta = mon.apply(batch);
                let fresh = ViolationMonitor::new(mon.graph(), rules.clone());
                for i in 0..rules.len() {
                    assert!(
                        mon.violations(i).eq(fresh.violations(i)),
                        "{what}: rule {i}'s violations differ from a fresh monitor's"
                    );
                }
                println!(
                    "monitor-smoke {what}: +{} -{} affected_pivots={} bound_queries={}",
                    delta.added(),
                    delta.removed(),
                    delta.affected_pivots,
                    mon.stats().bound_queries - before,
                );
            };

            // Four corruptions per batch on distinct attributed nodes, each
            // undone by the next batch.
            let junk = Value::Str(g.interner().symbol("__corrupted"));
            let targets: Vec<NodeId> = g.nodes().filter(|&v| !g.attrs(v).is_empty()).collect();
            let mut rng = StdRng::seed_from_u64(sc.seed() ^ 0x3017);
            for round in 0..4 {
                let (mut corrupt, mut undo) = (UpdateBatch::new(), UpdateBatch::new());
                let mut picked: Vec<NodeId> = Vec::new();
                while picked.len() < 4.min(targets.len()) {
                    let v = targets[rng.random_range(0..targets.len())];
                    if picked.contains(&v) {
                        continue;
                    }
                    picked.push(v);
                    let attrs = g.attrs(v);
                    let (attr, old) = attrs[rng.random_range(0..attrs.len())];
                    corrupt.set_attr(v, attr, junk);
                    undo.set_attr(v, attr, old);
                }
                apply(&mut mon, &corrupt, &format!("corrupt {round}"));
                apply(&mut mon, &undo, &format!("undo {round}"));
                assert_eq!(mon.total_violations(), initial, "undo {round}");
            }

            // Topology: an edge at the highest-degree node that copies the
            // label and direction of one of its edges to another node of
            // the same label, its removal, then a new node with that edge.
            let hub = g
                .nodes()
                .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
                .expect("non-empty graph");
            let e = *g
                .edges()
                .iter()
                .find(|e| e.src == hub || e.dst == hub)
                .expect("the hub has an edge");
            let other = if e.src == hub { e.dst } else { e.src };
            let oriented = |a: NodeId, b: NodeId| if e.src == hub { (a, b) } else { (b, a) };
            let peer = g
                .nodes_with_label(g.node_label(other))
                .iter()
                .copied()
                .find(|&w| {
                    let (s, d) = oriented(hub, w);
                    w != hub && !g.out_nbrs_labeled(s, e.label).contains(&d)
                })
                .expect("a node the hub is not linked to");
            let (s, d) = oriented(hub, peer);
            let mut add = UpdateBatch::new();
            add.add_edge(s, d, e.label);
            apply(&mut mon, &add, "add edge");
            let mut remove = UpdateBatch::new();
            remove.remove_edge(s, d, e.label);
            apply(&mut mon, &remove, "remove edge");
            assert_eq!(mon.total_violations(), initial, "remove edge");
            let mut grow = UpdateBatch::new();
            let fresh = grow.add_node(mon.graph().node_count(), g.node_label(hub));
            let (s, d) = oriented(fresh, other);
            grow.add_edge(s, d, e.label);
            apply(&mut mon, &grow, "add node");
            println!(
                "monitor-smoke: every batch equals a fresh monitor; bound_queries={}",
                mon.stats().bound_queries
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
        eprintln!("known experiments: {ALL:?} plus `runtime` (barrier vs steal), `smoke`, `smoke-steal`, `lattice-smoke`, `chaos-smoke`, `large-smoke`, `validate-smoke`, and `monitor-smoke` (CI sanity runs)");
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
