//! Machine-readable perf baseline for discovery.
//!
//! Runs discovery on a named, seed-pinned datagen scenario and emits one
//! JSON record so PRs can track a perf trajectory in `BENCH_<n>.json`:
//!
//! * `--runtime seq` (default) — `SeqDis`;
//! * `--runtime barrier|steal` — `ParDis` on the chosen parallel runtime,
//!   adding the modelled schedule: simulated time, wave count and the
//!   deterministic `work_makespan` (the CI regression gate rides this —
//!   it cannot flake under machine load the way wall-clock does);
//! * `--validate N` — mine the scenario's rules once, then answer `N`
//!   seed-pinned per-entity queries through the bound path
//!   ([`gfd_core::BoundValidator`]): wall latency percentiles and the
//!   deterministic `validation_work`, next to one metered
//!   full-materialization pass for the ratio.
//!
//! Every kind of run writes one record shape through `record`: identity
//! fields, the deterministic counters (the mining pass's `spawning_work`
//! and `evaluation_work` on every runtime, the schedule, the validation
//! meters), then memory and wall-clock fields with the per-layer
//! `stage_secs` the driver times on every runtime. A field a kind of run
//! does not measure reads `0`. Scenario names resolve through
//! [`Scenario::named`]; the million-node power-law family (`large`,
//! `xlarge`) gets a bounded mining config ([`gfd_bench::perf_cfg_scale`]).
//!
//! ```text
//! cargo run -p gfd-bench --release --bin perf -- --scenario medium --label after
//! cargo run -p gfd-bench --release --bin perf -- --scenario small --runtime steal --workers 4
//! cargo run -p gfd-bench --release --bin perf -- --scenario large --validate 64
//! ```

#![forbid(unsafe_code)]

use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gfd_bench::{perf_cfg, perf_cfg_scale};
use gfd_core::{
    seq_dis, BoundValidator, CandidateEvaluator, DiscoveryConfig, MatchTable, TableEvaluator,
};
use gfd_datagen::Scenario;
use gfd_graph::{AttrId, Graph, NodeId};
use gfd_logic::{Gfd, Literal};
use gfd_parallel::{par_dis_with_runtime, ClusterConfig, ExecMode, ParDisReport, Runtime};
use gfd_pattern::{CompiledPattern, MatchSet, PLabel};
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn usage() -> ! {
    eprintln!(
        "usage: perf [--scenario tiny|small|medium|large|xlarge] [--label L] [--out FILE] \
         [--runtime seq|barrier|steal] [--workers N] [--mode threads|simulated] [--validate N]"
    );
    std::process::exit(2);
}

/// A flag's parsed value, or the usage message when it is missing or
/// malformed.
fn parsed<T: std::str::FromStr>(value: Option<String>) -> T {
    value
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage())
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
/// to pay before the bound validator. Returns `(deterministic work,
/// violating rules)`: work is match cells materialised plus the
/// evaluator's own memory-touch meter.
fn full_validation_pass(g: &Graph, rules: &[Gfd]) -> (u64, u64) {
    let mut work = 0u64;
    let mut violated = 0u64;
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
    (work, violated)
}

/// Latency percentile over a sorted sample (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// What the `--validate` workload measured; zero for mining-only runs.
#[derive(Default)]
struct Validation {
    queries: u64,
    validation_work: u64,
    bound_queries: u64,
    full_validation_work: u64,
    dirty_entities: u64,
    full_violated_rules: u64,
    bound_total: Duration,
    full_pass: Duration,
    /// Per-query latencies in seconds, sorted.
    latencies: Vec<f64>,
}

/// Answers `queries` seed-pinned per-entity queries over `rules` through
/// the bound path, then runs one metered full-materialization pass. Each
/// query targets a rule drawn uniformly, seeded at a uniform node of that
/// rule's pivot label class — the "does this entity violate anything?"
/// production shape.
fn validation(g: &Graph, seed: u64, rules: &[Gfd], queries: usize) -> Validation {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb07d);
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
    let plans: Vec<CompiledPattern> = rules
        .iter()
        .map(|phi| CompiledPattern::new(phi.pattern()))
        .collect();

    let mut validator = BoundValidator::new(g);
    let mut v = Validation {
        queries: queries as u64,
        ..Validation::default()
    };
    let t_bound = Instant::now();
    for &node in &workload {
        let t = Instant::now();
        let mut dirty = false;
        for (phi, plan) in rules.iter().zip(&plans) {
            v.bound_queries += 1;
            dirty |= validator.verdict_at(phi, plan, node).violations > 0;
        }
        v.latencies.push(t.elapsed().as_secs_f64());
        v.dirty_entities += u64::from(dirty);
    }
    v.bound_total = t_bound.elapsed();
    v.validation_work = validator.work();
    v.latencies.sort_by(f64::total_cmp);
    let t_full = Instant::now();
    (v.full_validation_work, v.full_violated_rules) = full_validation_pass(g, rules);
    v.full_pass = t_full.elapsed();
    v
}

/// Renders `fields` as a JSON object nested `depth` levels deep, one
/// `"name": value` per line.
fn object(fields: &[(&str, String)], depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    let lines: Vec<String> = fields
        .iter()
        .map(|(name, value)| format!("{pad}\"{name}\": {value}"))
        .collect();
    format!("{{\n{}\n{}}}", lines.join(",\n"), "  ".repeat(depth))
}

/// The one record shape every kind of run writes. `run` carries the
/// mining pass (a seq pass as a report with no schedule), `mine` its wall
/// time and `wall` the whole run's after graph generation.
#[allow(clippy::too_many_arguments)]
fn record(
    label: &str,
    sc: &Scenario,
    g: &Graph,
    mining: &DiscoveryConfig,
    (runtime, workers, mode): (&str, usize, &str),
    run: &ParDisReport,
    v: &Validation,
    [generation, mine, wall]: [Duration; 3],
) -> String {
    let s = &run.result.stats;
    let secs = |d: Duration| format!("{:.3}", d.as_secs_f64());
    let text = |t: &str| format!("\"{t}\"");
    let ms = |p: f64| format!("{:.3}", percentile(&v.latencies, p) * 1e3);
    let per_query_work = v
        .validation_work
        .checked_div(v.queries)
        .map_or(0, |w| w.max(1));
    let ratio = v.full_validation_work as f64 / per_query_work.max(1) as f64;
    let other = s
        .total_time
        .saturating_sub(s.matching_time + s.spawning_time() + s.validation_time());
    let stages = [
        ("matching", secs(s.matching_time)),
        ("spawning", secs(s.spawning_time())),
        ("spawning_harvest", secs(s.spawning_harvest_time)),
        ("spawning_merge", secs(s.spawning_merge_time)),
        ("evaluation", secs(s.validation_time())),
        ("evaluation_catalog", secs(s.catalog_time)),
        ("evaluation_lattice", secs(s.lattice_time)),
        ("other", secs(other)),
        ("total", secs(s.total_time)),
    ];
    let latency = [
        ("p50", ms(0.50)),
        ("p95", ms(0.95)),
        ("p99", ms(0.99)),
        ("max", ms(1.0)),
    ];
    object(
        &[
            ("label", text(label)),
            ("scenario", text(sc.name())),
            ("runtime", text(runtime)),
            ("workers", workers.to_string()),
            ("mode", text(mode)),
            ("nodes", g.node_count().to_string()),
            ("edges", g.edge_count().to_string()),
            ("seed", sc.seed().to_string()),
            ("sigma", mining.sigma.to_string()),
            ("k", mining.k.to_string()),
            ("min_confidence", format!("{:.1}", mining.min_confidence)),
            ("gfds", run.result.gfds.len().to_string()),
            ("patterns_verified", s.patterns_verified.to_string()),
            ("hspawn_candidates", s.hspawn.candidates.to_string()),
            ("spawning_work", s.spawning_work.to_string()),
            ("evaluation_work", s.evaluation_work.to_string()),
            ("work_makespan", run.work_makespan.to_string()),
            ("work_busy", run.work_busy.to_string()),
            ("waves", run.barriers.to_string()),
            ("comm_bytes", run.comm_bytes.to_string()),
            ("retries", s.retries.to_string()),
            ("requeued_units", s.requeued_units.to_string()),
            ("speculative_wins", s.speculative_wins.to_string()),
            ("recovered_waves", s.recovered_waves.to_string()),
            ("queries", v.queries.to_string()),
            ("validation_work", v.validation_work.to_string()),
            ("bound_queries", v.bound_queries.to_string()),
            ("work_per_query", per_query_work.to_string()),
            ("full_validation_work", v.full_validation_work.to_string()),
            ("full_work_ratio", format!("{ratio:.1}")),
            ("dirty_entities", v.dirty_entities.to_string()),
            ("full_violated_rules", v.full_violated_rules.to_string()),
            ("peak_rss_bytes", s.peak_rss_bytes.to_string()),
            ("graph_bytes", s.graph_bytes.to_string()),
            ("graph_reallocs", s.graph_reallocs.to_string()),
            ("generation_secs", secs(generation)),
            ("wall_secs", secs(wall)),
            ("mine_secs", secs(mine)),
            ("simulated_secs", secs(run.simulated)),
            ("bound_total_secs", secs(v.bound_total)),
            ("full_pass_secs", secs(v.full_pass)),
            ("stage_secs", object(&stages, 1)),
            ("latency_ms", object(&latency, 1)),
        ],
        0,
    )
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
            "--validate" => validate = Some(parsed(it.next())),
            "--runtime" => {
                let r = it.next().expect("--runtime needs a value");
                if r != "seq" {
                    runtime = Some(Runtime::parse(&r).unwrap_or_else(|| usage()));
                }
            }
            "--workers" => workers = parsed(it.next()),
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
    let generation = t0.elapsed();
    let mut mining = if sc.is_scale() {
        perf_cfg_scale(g.node_count())
    } else {
        perf_cfg(g.node_count())
    };

    if validate.is_some() {
        // The validation workload mines at min_confidence 0.5, so the
        // catalog holds *approximate* positive rules with real violators —
        // the monitoring shape a per-entity query exists for. (Exact
        // mining on the power-law family yields only zero-match negative
        // patterns, which make a vacuous workload.)
        mining.min_confidence = 0.5;
    }
    let t_run = Instant::now();
    let run = match runtime.filter(|_| validate.is_none()) {
        Some(rt) => {
            let ccfg = ClusterConfig::new(workers, mode);
            par_dis_with_runtime(&g, &mining, &ccfg, rt).expect("fault-free")
        }
        None => ParDisReport {
            result: seq_dis(&g, &mining),
            wall: t_run.elapsed(),
            ..ParDisReport::default()
        },
    };
    let v = match validate {
        Some(queries) => validation(&g, sc.seed(), &run.result.rules(), queries),
        None => Validation::default(),
    };
    let kind = match (validate, runtime, mode) {
        (Some(_), ..) => ("validate", 1, "inline"),
        (None, None, _) => ("seq", 1, "inline"),
        (None, Some(rt), ExecMode::Threads) => (rt.name(), workers, "threads"),
        (None, Some(rt), ExecMode::Simulated) => (rt.name(), workers, "simulated"),
    };
    let json = record(
        &label,
        &sc,
        &g,
        &mining,
        kind,
        &run,
        &v,
        [generation, run.wall, t_run.elapsed()],
    );
    match out {
        Some(path) => {
            std::fs::write(&path, format!("{json}\n")).expect("write output file");
            eprintln!("[perf] wrote {path}");
        }
        None => println!("{json}"),
    }
}
