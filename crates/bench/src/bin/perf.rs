//! Machine-readable perf baseline for discovery.
//!
//! Runs discovery on a named, seed-pinned datagen scenario and emits one
//! JSON record so PRs can track a perf trajectory in `BENCH_<n>.json`:
//!
//! * `--runtime seq` (default) — `SeqDis`, with per-stage wall-clock
//!   (matching, spawning, evaluation);
//! * `--runtime barrier|steal` — `ParDis` on the chosen parallel runtime,
//!   with wall time, modelled simulated time, wave/barrier count, and the
//!   deterministic `work_makespan` (the CI regression gate rides this —
//!   it cannot flake under machine load the way wall-clock does).
//!
//! Every record carries the memory counters (`peak_rss_bytes` from
//! `VmHWM`, plus the frozen graph's exact `graph_bytes` and its builder
//! realloc count). Scenario names resolve through [`Scenario::named`], so
//! the million-node power-law family (`large`, `xlarge`) is available next
//! to the classic `tiny`/`small`/`medium` — scale scenarios get a bounded
//! mining config ([`gfd_bench::perf_cfg_scale`]).
//!
//! `--validate N` switches to the demand-driven validation benchmark:
//! mine the scenario's rules once, then answer `N` seed-pinned per-entity
//! queries through the bound path ([`gfd_core::BoundValidator`]) and report
//! wall latency percentiles plus the deterministic `validation_work`
//! counter, next to one metered full-materialization pass for the ratio.
//!
//! ```text
//! cargo run -p gfd-bench --release --bin perf -- --scenario medium --label after
//! cargo run -p gfd-bench --release --bin perf -- --scenario small --runtime steal --workers 4
//! cargo run -p gfd-bench --release --bin perf -- --scenario large --runtime steal --workers 4
//! cargo run -p gfd-bench --release --bin perf -- --scenario large --validate 64
//! ```

#![forbid(unsafe_code)]

use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

use gfd_bench::{perf_cfg, perf_cfg_scale};
use gfd_core::{seq_dis, BoundValidator, CandidateEvaluator, MatchTable, TableEvaluator};
use gfd_datagen::Scenario;
use gfd_graph::{AttrId, Graph, NodeId};
use gfd_logic::{Gfd, Literal};
use gfd_parallel::{par_dis_with_runtime, ClusterConfig, ExecMode, Runtime};
use gfd_pattern::{CompiledPattern, MatchSet, PLabel};
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn usage() -> ! {
    eprintln!(
        "usage: perf [--scenario tiny|small|medium|large|xlarge] [--label L] [--out FILE] \
         [--runtime seq|barrier|steal] [--workers N] [--mode threads|simulated] [--validate N]"
    );
    std::process::exit(2);
}

/// The attributes a rule's literals read — what a full-path match table
/// must materialise to evaluate the rule.
fn rule_attrs(phi: &Gfd) -> Vec<AttrId> {
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
    if let gfd_logic::Rhs::Lit(l) = phi.rhs() {
        lit(&l);
    }
    attrs.sort_unstable();
    attrs
}

/// One metered full-materialization validation pass: every rule enumerates
/// its whole match set, builds a global [`MatchTable`], and evaluates its
/// candidate through the bitmap index — the path a single-entity query had
/// to pay before the bound validator. Returns `(deterministic work, wall
/// seconds, violating rules)`: work is match cells materialised plus the
/// evaluator's own memory-touch meter.
fn full_validation_pass(g: &Graph, rules: &[Gfd]) -> (u64, f64, usize) {
    let t0 = Instant::now();
    let mut work = 0u64;
    let mut violated = 0usize;
    for phi in rules {
        let q = phi.pattern();
        let cp = CompiledPattern::new(q);
        let mut ms = MatchSet::new(q.node_count());
        let _ = cp.matcher(g).for_each(|m| {
            ms.push(m);
            ControlFlow::Continue(())
        });
        work += (ms.len() * q.node_count()) as u64;
        let table = MatchTable::build(q, &ms, g, &rule_attrs(phi));
        let mut ev = TableEvaluator::new(&table);
        let stats = ev.evaluate(phi.lhs(), &phi.rhs());
        work += ev.work();
        if stats.violations > 0 {
            violated += 1;
        }
    }
    (work, t0.elapsed().as_secs_f64(), violated)
}

/// Latency percentile over a sorted sample (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario = "medium".to_string();
    let mut label = "run".to_string();
    let mut out: Option<String> = None;
    let mut runtime: Option<Runtime> = None;
    let mut workers = 4usize;
    let mut mode = ExecMode::Threads;
    let mut validate: Option<usize> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scenario" => scenario = it.next().expect("--scenario needs a name"),
            "--label" => label = it.next().expect("--label needs a value"),
            "--out" => out = Some(it.next().expect("--out needs a path")),
            "--validate" => {
                validate = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--runtime" => {
                let r = it.next().expect("--runtime needs a value");
                if r != "seq" {
                    runtime = Some(Runtime::parse(&r).unwrap_or_else(|| usage()));
                }
            }
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--mode" => {
                mode = match it.next().as_deref() {
                    Some("threads") => ExecMode::Threads,
                    Some("simulated") => ExecMode::Simulated,
                    _ => usage(),
                };
            }
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }
    let Some(sc) = Scenario::named(&scenario) else {
        eprintln!("unknown scenario `{scenario}` (tiny|small|medium|large|xlarge)");
        std::process::exit(2);
    };

    let t0 = Instant::now();
    let g = Arc::new(sc.build());
    let gen_secs = t0.elapsed().as_secs_f64();
    let mining = if sc.is_scale() {
        perf_cfg_scale(g.node_count())
    } else {
        perf_cfg(g.node_count())
    };

    let json = if let Some(queries) = validate {
        // Demand-driven validation benchmark: mine the catalog, then answer
        // seed-pinned per-entity queries through the bound path. Mining runs
        // at min_confidence 0.5 so the catalog holds *approximate* positive
        // rules with real violators — the monitoring shape a per-entity
        // query exists for. (Exact mining on the power-law family yields
        // only zero-match negative patterns, which make a vacuous workload.)
        let mut mining = mining;
        mining.min_confidence = 0.5;
        let t_mine = Instant::now();
        let result = seq_dis(&g, &mining);
        let mine_secs = t_mine.elapsed().as_secs_f64();
        let rules: Vec<Gfd> = result.gfds.iter().map(|d| d.gfd.clone()).collect();
        let plans: Vec<CompiledPattern> = rules
            .iter()
            .map(|phi| CompiledPattern::new(phi.pattern()))
            .collect();

        // Seed-pinned workload: each query targets a rule drawn uniformly,
        // seeded at a uniform node of that rule's pivot label class — the
        // "does this entity violate anything?" production shape.
        let mut rng = StdRng::seed_from_u64(sc.seed() ^ 0xb07d);
        let workload: Vec<NodeId> = (0..queries)
            .map(|_| {
                let q = rules[rng.random_range(0..rules.len().max(1))].pattern();
                match q.node_label(q.pivot()) {
                    PLabel::Is(l) => {
                        let class = g.nodes_with_label(l);
                        if class.is_empty() {
                            NodeId::from_index(rng.random_range(0..g.node_count()))
                        } else {
                            class[rng.random_range(0..class.len())]
                        }
                    }
                    PLabel::Wildcard => NodeId::from_index(rng.random_range(0..g.node_count())),
                }
            })
            .collect();

        let mut validator = BoundValidator::new(&g);
        let mut latencies: Vec<f64> = Vec::with_capacity(queries);
        let mut bound_queries = 0u64;
        let mut dirty_entities = 0usize;
        let t_bound = Instant::now();
        for &node in &workload {
            let t = Instant::now();
            let mut dirty = false;
            for (phi, plan) in rules.iter().zip(&plans) {
                bound_queries += 1;
                dirty |= validator.verdict_at(phi, plan, node).violations > 0;
            }
            latencies.push(t.elapsed().as_secs_f64());
            if dirty {
                dirty_entities += 1;
            }
        }
        let bound_secs = t_bound.elapsed().as_secs_f64();
        let validation_work = validator.work();
        latencies.sort_by(f64::total_cmp);

        let (full_work, full_secs, full_violated) = full_validation_pass(&g, &rules);
        let per_query_work = (validation_work / queries.max(1) as u64).max(1);
        format!(
            concat!(
                "{{\n",
                "  \"label\": \"{label}\",\n",
                "  \"scenario\": \"{scenario}\",\n",
                "  \"runtime\": \"validate\",\n",
                "  \"nodes\": {nodes},\n",
                "  \"edges\": {edges},\n",
                "  \"seed\": {seed},\n",
                "  \"gfds\": {gfds},\n",
                "  \"queries\": {queries},\n",
                "  \"min_confidence\": 0.5,\n",
                "  \"validation_work\": {validation_work},\n",
                "  \"bound_queries\": {bound_queries},\n",
                "  \"bound_fallbacks\": 0,\n",
                "  \"work_per_query\": {per_query_work},\n",
                "  \"full_validation_work\": {full_work},\n",
                "  \"full_work_ratio\": {ratio:.1},\n",
                "  \"latency_ms\": {{\n",
                "    \"p50\": {p50:.3},\n",
                "    \"p95\": {p95:.3},\n",
                "    \"p99\": {p99:.3},\n",
                "    \"max\": {pmax:.3}\n",
                "  }},\n",
                "  \"mine_secs\": {mine:.3},\n",
                "  \"bound_total_secs\": {bound:.3},\n",
                "  \"full_pass_secs\": {full:.3},\n",
                "  \"dirty_entities\": {dirty},\n",
                "  \"full_violated_rules\": {fviol},\n",
                "  \"generation_secs\": {gen:.3}\n",
                "}}"
            ),
            label = label,
            scenario = sc.name(),
            nodes = g.node_count(),
            edges = g.edge_count(),
            seed = sc.seed(),
            gfds = rules.len(),
            queries = queries,
            validation_work = validation_work,
            bound_queries = bound_queries,
            per_query_work = per_query_work,
            full_work = full_work,
            ratio = full_work as f64 / per_query_work as f64,
            p50 = percentile(&latencies, 0.50) * 1e3,
            p95 = percentile(&latencies, 0.95) * 1e3,
            p99 = percentile(&latencies, 0.99) * 1e3,
            pmax = latencies.last().copied().unwrap_or(0.0) * 1e3,
            mine = mine_secs,
            bound = bound_secs,
            full = full_secs,
            dirty = dirty_entities,
            fviol = full_violated,
            gen = gen_secs,
        )
    } else {
        match runtime {
            None => {
                let result = seq_dis(&g, &mining);
                let s = &result.stats;
                let matching = s.matching_time.as_secs_f64();
                let spawning = s.spawning_time.as_secs_f64();
                let sp_harvest = s.spawning_harvest_time.as_secs_f64();
                let sp_merge = s.spawning_merge_time.as_secs_f64();
                let evaluation = s.validation_time.as_secs_f64();
                let catalog = s.catalog_time.as_secs_f64();
                let lattice = s.lattice_time.as_secs_f64();
                let total = s.total_time.as_secs_f64();
                let other = (total - matching - spawning - evaluation).max(0.0);
                format!(
                    concat!(
                        "{{\n",
                        "  \"label\": \"{label}\",\n",
                        "  \"scenario\": \"{scenario}\",\n",
                        "  \"runtime\": \"seq\",\n",
                        "  \"nodes\": {nodes},\n",
                        "  \"edges\": {edges},\n",
                        "  \"seed\": {seed},\n",
                        "  \"sigma\": {sigma},\n",
                        "  \"k\": {k},\n",
                        "  \"gfds\": {gfds},\n",
                        "  \"patterns_verified\": {verified},\n",
                        "  \"hspawn_candidates\": {cands},\n",
                        "  \"spawning_work\": {spawning_work},\n",
                        "  \"evaluation_work\": {evaluation_work},\n",
                        "  \"peak_rss_bytes\": {peak_rss},\n",
                        "  \"graph_bytes\": {graph_bytes},\n",
                        "  \"graph_reallocs\": {graph_reallocs},\n",
                        "  \"generation_secs\": {gen:.3},\n",
                        "  \"stage_secs\": {{\n",
                        "    \"matching\": {matching:.3},\n",
                        "    \"spawning\": {spawning:.3},\n",
                        "    \"spawning_harvest\": {sp_harvest:.3},\n",
                        "    \"spawning_merge\": {sp_merge:.3},\n",
                        "    \"evaluation\": {evaluation:.3},\n",
                        "    \"evaluation_catalog\": {catalog:.3},\n",
                        "    \"evaluation_lattice\": {lattice:.3},\n",
                        "    \"other\": {other:.3},\n",
                        "    \"total\": {total:.3}\n",
                        "  }}\n",
                        "}}"
                    ),
                    label = label,
                    scenario = sc.name(),
                    nodes = g.node_count(),
                    edges = g.edge_count(),
                    seed = sc.seed(),
                    sigma = mining.sigma,
                    k = mining.k,
                    gfds = result.gfds.len(),
                    verified = s.patterns_verified,
                    cands = s.hspawn.candidates,
                    spawning_work = s.spawning_work,
                    evaluation_work = s.evaluation_work,
                    peak_rss = s.peak_rss_bytes,
                    graph_bytes = s.graph_bytes,
                    graph_reallocs = s.graph_reallocs,
                    gen = gen_secs,
                    matching = matching,
                    spawning = spawning,
                    sp_harvest = sp_harvest,
                    sp_merge = sp_merge,
                    evaluation = evaluation,
                    catalog = catalog,
                    lattice = lattice,
                    other = other,
                    total = total,
                )
            }
            Some(rt) => {
                let ccfg = ClusterConfig::new(workers, mode);
                let report = par_dis_with_runtime(&g, &mining, &ccfg, rt).expect("fault-free");
                format!(
                    concat!(
                        "{{\n",
                        "  \"label\": \"{label}\",\n",
                        "  \"scenario\": \"{scenario}\",\n",
                        "  \"runtime\": \"{runtime}\",\n",
                        "  \"workers\": {workers},\n",
                        "  \"mode\": \"{mode}\",\n",
                        "  \"nodes\": {nodes},\n",
                        "  \"edges\": {edges},\n",
                        "  \"seed\": {seed},\n",
                        "  \"sigma\": {sigma},\n",
                        "  \"k\": {k},\n",
                        "  \"gfds\": {gfds},\n",
                        "  \"generation_secs\": {gen:.3},\n",
                        "  \"wall_secs\": {wall:.3},\n",
                        "  \"simulated_secs\": {sim:.3},\n",
                        "  \"work_makespan\": {wms},\n",
                        "  \"work_busy\": {wb},\n",
                        "  \"waves\": {waves},\n",
                        "  \"comm_bytes\": {comm},\n",
                        "  \"peak_rss_bytes\": {peak_rss},\n",
                        "  \"graph_bytes\": {graph_bytes},\n",
                        "  \"graph_reallocs\": {graph_reallocs},\n",
                        "  \"retries\": {retries},\n",
                        "  \"requeued_units\": {requeued},\n",
                        "  \"speculative_wins\": {spec_wins},\n",
                        "  \"recovered_waves\": {recovered}\n",
                        "}}"
                    ),
                    label = label,
                    scenario = sc.name(),
                    runtime = rt.name(),
                    workers = workers,
                    mode = match mode {
                        ExecMode::Threads => "threads",
                        ExecMode::Simulated => "simulated",
                    },
                    nodes = g.node_count(),
                    edges = g.edge_count(),
                    seed = sc.seed(),
                    sigma = mining.sigma,
                    k = mining.k,
                    gfds = report.result.gfds.len(),
                    gen = gen_secs,
                    wall = report.wall.as_secs_f64(),
                    sim = report.simulated.as_secs_f64(),
                    wms = report.work_makespan,
                    wb = report.work_busy,
                    waves = report.barriers,
                    comm = report.comm_bytes,
                    peak_rss = report.result.stats.peak_rss_bytes,
                    graph_bytes = report.result.stats.graph_bytes,
                    graph_reallocs = report.result.stats.graph_reallocs,
                    retries = report.result.stats.retries,
                    requeued = report.result.stats.requeued_units,
                    spec_wins = report.result.stats.speculative_wins,
                    recovered = report.result.stats.recovered_waves,
                )
            }
        }
    };
    match out {
        Some(path) => {
            std::fs::write(&path, format!("{json}\n")).expect("write output file");
            eprintln!("[perf] wrote {path}");
        }
        None => println!("{json}"),
    }
}
