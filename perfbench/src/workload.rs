//! The workloads and the run pipeline.
//!
//! Both workloads run the same pipeline, so every run reports every
//! end-to-end metric; they differ in the graph and the mining config,
//! which decides the layer each phase leans on (see `workloads.json`).
//! Every call into the program is a span of the run's [`Tracer`], with the
//! stats the call returns as child records; all metrics and counters are
//! derived from that one record once the run ends.

use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gfd_core::{seq_cover_discovered, seq_dis, DiscoveryConfig, DiscoveryResult};
use gfd_datagen::{PowerLawConfig, Scenario, ScenarioConfig};
use gfd_graph::io::{self, ChunkedParser};
use gfd_graph::{Graph, NodeId, Value};
use gfd_incremental::{GraphState, MonitorRule, UpdateBatch, ViolationMonitor};
use gfd_parallel::{par_dis_with_runtime, ClusterConfig, ExecMode, Runtime};
use gfd_pattern::CompiledPattern;

use crate::client::{read_agrees, Corruptor, PivotSampler, Rng};
use crate::measure::{self, best, median, percentile};
use crate::trace::{Span, Tracer};

/// Worker threads of the parallel runtimes: one per vCPU of a 2-vCPU host.
const WORKERS: usize = 2;
/// Entity reads per read-run. A run's p99 then has 10 reads beyond it.
const READ_RUN: usize = 1000;
/// Reads per read-run re-derived outside the timed window.
const CHECK_READS: usize = 8;
/// Client steps every run makes, whatever `--seconds` is. The
/// deterministic monitor counters cover exactly these steps, so two runs
/// of one seed print identical counters.
const PREFIX_STEPS: u64 = 4;

/// Output pinned for a workload's graph at its pinned seed.
pub struct Pin {
    rules: usize,
    cover: usize,
    fingerprint: u64,
}

/// A named workload.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The scenario's pinned seed: the graph every run mines unless
    /// `--graph-seed` asks for another, and the default `--seed`.
    pub pinned_seed: u64,
    scenario: fn(u64) -> Scenario,
    mining: fn(usize) -> DiscoveryConfig,
    /// Read-runs after each write.
    read_runs: usize,
    pin: Pin,
}

/// The classic mining config (`perf`'s `perf_cfg`): deep enough that
/// matching, spawning, catalog and lattice all carry weight.
fn classic_mining(nodes: usize) -> DiscoveryConfig {
    let mut cfg = DiscoveryConfig::new(4, (nodes / 40).max(10));
    cfg.max_edges = 3;
    cfg.max_lhs_size = 2;
    cfg.values_per_attr = 2;
    cfg.max_catalog_literals = 12;
    cfg.wildcard_min_labels = 0;
    cfg.wildcard_root = false;
    cfg.max_matches_per_pattern = 50_000;
    cfg.max_patterns_per_level = 600;
    cfg
}

/// The scale mining config (`perf`'s `perf_cfg_scale`) at confidence 0.5,
/// as `perf --validate` mines the monitor's catalog: approximate rules
/// with real violators (exact mining on this family yields only
/// zero-match negative patterns, a vacuous catalog to monitor).
fn scale_mining(nodes: usize) -> DiscoveryConfig {
    let mut cfg = DiscoveryConfig::new(3, (nodes / 100).max(100));
    cfg.max_edges = 2;
    cfg.max_lhs_size = 1;
    cfg.values_per_attr = 2;
    cfg.max_catalog_literals = 8;
    cfg.wildcard_min_labels = 0;
    cfg.wildcard_root = false;
    cfg.max_matches_per_pattern = 400_000;
    cfg.max_patterns_per_level = 64;
    cfg.max_negative_candidates = 8;
    cfg.min_confidence = 0.5;
    cfg
}

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        match name {
            "small" => Some(Workload {
                name: "small",
                pinned_seed: ScenarioConfig::small().seed,
                scenario: |seed| {
                    Scenario::Classic(ScenarioConfig {
                        seed,
                        ..ScenarioConfig::small()
                    })
                },
                mining: classic_mining,
                read_runs: 2,
                pin: Pin {
                    rules: 2107,
                    cover: 1421,
                    fingerprint: 0x14db_fb5c_703c_c6e2,
                },
            }),
            "large" => Some(Workload {
                name: "large",
                pinned_seed: PowerLawConfig::large().seed,
                scenario: |seed| {
                    Scenario::PowerLaw(PowerLawConfig {
                        seed,
                        ..PowerLawConfig::large()
                    })
                },
                mining: scale_mining,
                read_runs: 4,
                pin: Pin {
                    rules: 176,
                    cover: 80,
                    fingerprint: 0x0b36_f339_2ed6_730d,
                },
            }),
            _ => None,
        }
    }
}

/// Operations attempted and failed; an operation fails when it errors or
/// its output fails a check.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    e2e: Vec<Metric>,
    layer: Vec<Metric>,
    counters: Vec<(&'static str, u64)>,
    diag: Vec<(&'static str, f64)>,
    checks: Checks,
}

impl Report {
    fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layer.push(Metric { name, value, unit });
    }

    /// A deterministic counter: printed in every run and, as a per-layer
    /// metric, in traced runs.
    fn counter(&mut self, name: &'static str, value: f64) {
        let value = value as u64;
        self.counters.push((name, value));
        let unit = if name.ends_with("bytes") {
            "bytes"
        } else {
            "count"
        };
        self.layer(name, value as f64, unit);
    }

    /// Prints the metric, counter and diagnostic lines, then the result
    /// object as the last line.
    pub fn print(&self, traced: bool) {
        for m in &self.e2e {
            println!("metric {} {} {}", m.name, m.value, m.unit);
        }
        for (name, v) in &self.counters {
            println!("counter {name} {v}");
        }
        for (name, v) in &self.diag {
            println!("diag {name} {v}");
        }
        let c = &self.checks;
        println!(
            "error_rate {} ({} of {} operations failed)",
            c.failed as f64 / c.attempted.max(1) as f64,
            c.failed,
            c.attempted
        );
        let shown = if traced {
            for m in &self.layer {
                println!("layer {} {} {}", m.name, m.value, m.unit);
            }
            &self.layer
        } else {
            &self.e2e
        };
        let metrics: Vec<String> = shown
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            c.failed == 0 && c.attempted > 0,
            c.attempted.max(1),
            c.failed,
            metrics.join(", ")
        );
    }
}

/// Canonical fingerprint of a mined rule set: FNV-1a over the sorted
/// rule texts with their supports.
fn fingerprint(r: &DiscoveryResult, g: &Graph) -> u64 {
    let mut lines: Vec<String> = r
        .gfds
        .iter()
        .map(|d| format!("{} @{}", d.gfd.display(g.interner()), d.support))
        .collect();
    lines.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in lines.join("\n").bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Where a run writes its graph text and trace: under the build
/// directory, inside the checkout.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench-work")
}

// Span names: one per public function the benchmark calls.
const LOAD: &str = "io::load";
const SEQ: &str = "seq_dis";
const STEAL: &str = "par_dis_with_runtime(steal)";
const BARRIER: &str = "par_dis_with_runtime(barrier)";
const COVER: &str = "seq_cover_discovered";
const INIT: &str = "ViolationMonitor::new";
const APPLY: &str = "ViolationMonitor::apply";
const READ_RUN_SPAN: &str = "client.read_run";
const READ: &str = "ViolationMonitor::validate_entity";

/// The kinds of timed operation a run interleaves, with the share of the
/// run's time each gets and the count each reaches however short
/// `--seconds` is: loads, seq passes, steal passes, cover passes, client
/// steps, monitor set-ups (the final check's fresh monitor is one more
/// set-up sample) and the reference kernel.
const SHARES: [f64; 7] = [0.10, 0.20, 0.15, 0.10, 0.33, 0.10, 0.02];
const MIN_COUNTS: [usize; 7] = [2, 2, 2, 3, PREFIX_STEPS as usize, 1, 3];
/// Samples after which a kind is no longer scheduled: a cheap operation
/// (a 5 ms load on small, an 8 ms cover on large) would otherwise spend
/// its whole share on samples its fastest-of estimate no longer needs.
const MAX_COUNT: usize = 100;

/// Runs workload `w` for about `seconds` of timed work: the graph comes
/// from `graph_seed`, the client's reads and writes from `seed`.
///
/// A shared 2-vCPU host changes speed several-fold from one second to the
/// next, so the timed operations are interleaved by time share and every
/// metric samples the whole run instead of one stretch of it. The first
/// seq pass and the first steal pass run alone between two `VmHWM`
/// readings, seq first: steal's worker arenas stay resident afterwards.
pub fn run(
    w: &Workload,
    seed: u64,
    graph_seed: u64,
    seconds: f64,
    tr: &mut Tracer,
) -> Result<Report, String> {
    let dir = work_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let text = dir.join(format!("{}-{graph_seed}.graph", w.name));
    let mut rep = Report::default();

    // Inputs, untimed: the graph, written out as graph text.
    let shape = {
        let g = (w.scenario)(graph_seed).build();
        io::save(&g, &text).map_err(|e| format!("writing {}: {e}", text.display()))?;
        (g.node_count(), g.edge_count())
    };

    let start = Instant::now();
    let g = Arc::new(load(&text, shape, tr, &mut rep.checks).ok_or("io::load failed")?);
    let mut d = Discovery {
        mining: (w.mining)(shape.0),
        pin: (graph_seed == w.pinned_seed).then_some(&w.pin),
        g,
        ccfg: ClusterConfig::new(WORKERS, ExecMode::Threads),
        first: None,
        cover_len: None,
    };
    let setup_peak = measure::peak_rss_mib();
    rep.checks.op(measure::reset_peak_rss(), "VmHWM reset");
    d.pass(SEQ, tr, &mut rep.checks);
    let seq_peak = measure::peak_rss_mib();
    rep.checks.op(measure::reset_peak_rss(), "VmHWM reset");
    d.pass(STEAL, tr, &mut rep.checks);
    let steal_peak = measure::peak_rss_mib();
    if tr.traced() {
        d.pass(BARRIER, tr, &mut rep.checks);
        load_in_pieces(&text, shape, tr, &mut rep)?;
    }
    let mined = d.first.as_ref().map(|(r, _)| r).ok_or("no seq pass")?;
    let rules: Vec<MonitorRule> = mined
        .gfds
        .iter()
        .map(|d| MonitorRule::Base(d.gfd.clone()))
        .collect();
    let mut client = Client::new(seed, &d.g, rules, tr);
    let t0 = Instant::now();
    client.step(w, tr, &mut rep.checks);
    let first_step = secs(t0.elapsed());

    // Interleave by time share: run next the kind whose time so far lags
    // its share most, until it has `MAX_COUNT` samples. Once `seconds` is
    // up, only kinds short of their minimum count run.
    let mut spent = [0.0; 7];
    let mut count = [1, 1, 1, 0, 1, 1, 0];
    let mut kernel_ms = Vec::new();
    for (k, name) in [(0, LOAD), (1, SEQ), (2, STEAL), (5, INIT)] {
        spent[k] = tr.secs(name).iter().sum();
    }
    spent[4] = first_step;
    loop {
        let time_up = secs(start.elapsed()) >= seconds;
        let next = (0..SHARES.len())
            .filter(|&k| {
                if time_up {
                    count[k] < MIN_COUNTS[k]
                } else {
                    count[k] < MAX_COUNT
                }
            })
            .min_by(|&a, &b| (spent[a] / SHARES[a]).total_cmp(&(spent[b] / SHARES[b])));
        let Some(next) = next else {
            break;
        };
        let t0 = Instant::now();
        match next {
            0 => drop(load(&text, shape, tr, &mut rep.checks)),
            1 => d.pass(SEQ, tr, &mut rep.checks),
            2 => d.pass(STEAL, tr, &mut rep.checks),
            3 => d.cover_pass(tr, &mut rep.checks),
            4 => client.step(w, tr, &mut rep.checks),
            5 => client.reinit(tr),
            _ => kernel_ms.push(measure::reference_kernel_ms()),
        }
        spent[next] += secs(t0.elapsed());
        count[next] += 1;
    }
    // The process's peak over the whole run, monitor and mining together.
    let peak = setup_peak.max(seq_peak).max(measure::peak_rss_mib());
    client.finish(tr, &mut rep.checks);
    // How fast the host ran during this run: the reference kernel's
    // median over samples spread through the run. A diagnostic only.
    rep.diag.push(("reference_kernel_ms", median(&kernel_ms)));
    for (name, call) in [
        ("loads", LOAD),
        ("seq_passes", SEQ),
        ("steal_passes", STEAL),
        ("cover_passes", COVER),
        ("monitor_setups", INIT),
    ] {
        rep.diag.push((name, tr.calls(call).count() as f64));
    }

    rep.e2e("setup_s", best(&tr.secs(LOAD)), "s");
    rep.e2e("seq_s", best(&tr.secs(SEQ)), "s");
    rep.e2e("steal_s", best(&tr.secs(STEAL)), "s");
    rep.e2e("cover_s", best(&tr.secs(COVER)), "s");
    rep.e2e("seq_peak_rss_mib", seq_peak, "MiB");
    rep.e2e("steal_peak_rss_mib", steal_peak, "MiB");
    rep.e2e("init_s", best(&tr.secs(INIT)), "s");
    report_client(w, tr, &mut rep);
    rep.e2e("peak_rss_mib", peak, "MiB");
    report_layers(tr, &mut rep);

    if tr.traced() {
        let path = dir.join(format!("trace-{}-{seed}.jsonl", w.name));
        tr.write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("perfbench: trace written to {}", path.display());
    }
    let _ = std::fs::remove_file(&text);
    Ok(rep)
}

fn secs(d: std::time::Duration) -> f64 {
    d.as_secs_f64()
}

/// Loads and freezes the graph text through the CLI's path, and checks
/// that it reproduces the generated graph's shape.
fn load(text: &Path, shape: (usize, usize), tr: &mut Tracer, checks: &mut Checks) -> Option<Graph> {
    let req = tr.calls(LOAD).count() as u64;
    let (res, span) = tr.span(LOAD, req, || io::load(text));
    let ok = matches!(&res, Ok(g) if (g.node_count(), g.edge_count()) == shape);
    checks.op(ok, "io::load reproduces the generated graph");
    let g = res.ok()?;
    let build = g.build_stats();
    tr.count(span, "graph.bytes", build.graph_bytes);
    tr.count(span, "graph.reallocs", build.builder_reallocs);
    Some(g)
}

/// The discovery side of a run: mining passes on each runtime and covers.
struct Discovery<'w> {
    mining: DiscoveryConfig,
    pin: Option<&'w Pin>,
    g: Arc<Graph>,
    ccfg: ClusterConfig,
    /// The first seq pass's output and fingerprint: every later pass, on
    /// any runtime, must reproduce it.
    first: Option<(DiscoveryResult, u64)>,
    cover_len: Option<usize>,
}

impl Discovery<'_> {
    /// One mining pass: `seq_dis`, or `par_dis_with_runtime` on the steal
    /// or barrier runtime with [`WORKERS`] workers.
    fn pass(&mut self, name: &'static str, tr: &mut Tracer, checks: &mut Checks) {
        let req = tr.calls(name).count() as u64;
        let (g, mining, ccfg) = (&self.g, &self.mining, &self.ccfg);
        if name == SEQ {
            let (r, span) = tr.span(name, req, || seq_dis(g, mining));
            let s = &r.stats;
            tr.time(span, "pattern.join_s", s.matching_time);
            tr.time(span, "core.vspawn.harvest_s", s.spawning_harvest_time);
            tr.time(span, "core.vspawn.merge_s", s.spawning_merge_time);
            tr.time(span, "core.catalog_s", s.catalog_time);
            tr.time(span, "core.hspawn.lattice_s", s.lattice_time);
            tr.count(span, "core.vspawn.work", s.spawning_work);
            tr.count(span, "core.hspawn.work", s.evaluation_work);
            tr.count(span, "core.hspawn.candidates", s.hspawn.candidates as u64);
            tr.count(span, "pattern.spawned", s.patterns_spawned as u64);
            tr.count(span, "pattern.verified", s.patterns_verified as u64);
            tr.count(span, "rules", r.gfds.len() as u64);
            let fp = fingerprint(&r, g);
            match &self.first {
                None => {
                    let ok = match self.pin {
                        Some(pin) => r.gfds.len() == pin.rules && fp == pin.fingerprint,
                        None => !r.gfds.is_empty(),
                    };
                    checks.op(ok, "seq_dis mines the pinned rule set");
                    eprintln!(
                        "perfbench: seq mined {} rules, fingerprint {fp:#018x}",
                        r.gfds.len()
                    );
                    self.first = Some((r, fp));
                }
                Some((_, want)) => checks.op(fp == *want, "seq_dis is deterministic"),
            }
            return;
        }
        let runtime = if name == STEAL {
            Runtime::Steal
        } else {
            Runtime::Barrier
        };
        let cpu0 = measure::cpu_seconds();
        let (res, span) = tr.span(name, req, || par_dis_with_runtime(g, mining, ccfg, runtime));
        tr.record(span, "cpu_s", measure::cpu_seconds() - cpu0, "cpu_s");
        match res {
            Ok(r) => {
                let want = self.first.as_ref().map_or(0, |(_, fp)| *fp);
                checks.op(
                    fingerprint(&r.result, g) == want,
                    "parallel rules equal seq's",
                );
                tr.count(span, "work_makespan", r.work_makespan);
                tr.count(span, "work_busy", r.work_busy);
                tr.count(span, "waves", r.barriers as u64);
                tr.count(span, "comm_bytes", r.comm_bytes);
                tr.count(span, "retries", r.result.stats.retries);
            }
            Err(e) => checks.op(false, &format!("{name}: {e}")),
        }
    }

    fn cover_pass(&mut self, tr: &mut Tracer, checks: &mut Checks) {
        let Some((mined, _)) = &self.first else {
            return;
        };
        let req = tr.calls(COVER).count() as u64;
        let (cover, span) = tr.span(COVER, req, || seq_cover_discovered(&mined.gfds));
        tr.count(span, "kept", cover.len() as u64);
        match self.cover_len {
            None => {
                let ok = self
                    .pin
                    .map_or(!cover.is_empty(), |pin| cover.len() == pin.cover);
                checks.op(ok, "the cover keeps the pinned number of rules");
                eprintln!("perfbench: cover keeps {} rules", cover.len());
                self.cover_len = Some(cover.len());
            }
            Some(n) => checks.op(cover.len() == n, "seq_cover_discovered is deterministic"),
        }
    }
}

/// The monitor and its one closed-loop client. Each step is one write
/// batch followed by `read_runs` runs of [`READ_RUN`] entity reads; the
/// writes alternate between a corruption batch and the batch that undoes
/// it.
struct Client {
    mon: ViolationMonitor,
    rules: Vec<MonitorRule>,
    /// Pivot-rooted plans for re-deriving reads (built untimed).
    plans: Vec<CompiledPattern>,
    corruptor: Corruptor,
    junk: Value,
    reads: PivotSampler,
    pick: Rng,
    /// The batch that undoes the last corruption, applied next.
    undo: Option<UpdateBatch>,
    initial_violations: usize,
    /// Traced runs only: a mutable shadow that receives every batch, so
    /// the write path's O(|G|) re-freeze can be timed on its own.
    shadow: Option<GraphState>,
}

impl Client {
    fn new(seed: u64, g: &Graph, rules: Vec<MonitorRule>, tr: &mut Tracer) -> Client {
        let plans = rules
            .iter()
            .map(|r| CompiledPattern::new(r.pattern()))
            .collect();
        let (mon, span) = tr.span(INIT, 0, || ViolationMonitor::new(g, rules.clone()));
        let initial_violations = mon.total_violations();
        tr.count(span, "violations", initial_violations as u64);
        Client {
            corruptor: Corruptor::new(g, Rng::new(seed, 1)),
            junk: Value::Str(g.interner().symbol("__corrupted")),
            reads: PivotSampler::new(&rules, Rng::new(seed, 2)),
            pick: Rng::new(seed, 3),
            shadow: tr.traced().then(|| GraphState::from_graph(g)),
            undo: None,
            initial_violations,
            mon,
            rules,
            plans,
        }
    }

    /// One write batch, then the step's read-runs; a sample of each
    /// read-run is re-derived after its timed window.
    fn step(&mut self, w: &Workload, tr: &mut Tracer, checks: &mut Checks) {
        let req = tr.calls(APPLY).count() as u64;
        let batch = match self.undo.take() {
            Some(undo) => undo,
            None => {
                let (corrupt, undo) = self.corruptor.batch(self.mon.graph(), self.junk);
                self.undo = Some(undo);
                corrupt
            }
        };
        let mut freeze = None;
        if let Some(state) = self.shadow.as_mut() {
            state.apply_batch(&batch);
            let t0 = Instant::now();
            let (frozen, _) = tr.span("GraphState::freeze", req, || state.freeze());
            freeze = Some(t0.elapsed());
            drop(frozen);
        }
        let before = self.mon.stats();
        let (delta, span) = tr.span(APPLY, req, || self.mon.apply(&batch));
        let after = self.mon.stats();
        checks.op(
            delta.per_rule.len() == self.rules.len(),
            "apply reports every rule",
        );
        if self.undo.is_none() {
            checks.op(
                self.mon.total_violations() == self.initial_violations,
                "undoing a corruption restores the initial violations",
            );
        }
        if let Some(f) = freeze {
            tr.time(span, "incremental.write.freeze_s", f);
        }
        tr.count(span, "affected_pivots", delta.affected_pivots as u64);
        tr.count(span, "changed", (delta.added() + delta.removed()) as u64);
        tr.count(
            span,
            "fallbacks",
            after.bound_fallbacks - before.bound_fallbacks,
        );
        tr.count(
            span,
            "bound_queries",
            after.bound_queries - before.bound_queries,
        );

        for _ in 0..w.read_runs {
            let run_req = tr.calls(READ_RUN_SPAN).count() as u64;
            let run = tr.begin(READ_RUN_SPAN, run_req);
            let mut sampled = Vec::new();
            for i in 0..READ_RUN as u64 {
                let v = self.reads.node(self.mon.graph());
                let before = self.mon.stats();
                let (verdicts, span) = tr.span(READ, run_req * READ_RUN as u64 + i, || {
                    self.mon.validate_entity(v)
                });
                let after = self.mon.stats();
                tr.count(span, "work", after.validation_work - before.validation_work);
                tr.count(span, "probes", after.bound_queries - before.bound_queries);
                tr.count(span, "violated_rules", verdicts.len() as u64);
                if self.pick.below(READ_RUN) < CHECK_READS {
                    sampled.push((v, verdicts));
                }
            }
            tr.end(run);
            for (v, verdicts) in &sampled {
                let ok = read_agrees(self.mon.graph(), &self.rules, &self.plans, *v, verdicts);
                checks.op(ok, "validate_entity agrees with pivot-seeded matching");
            }
        }
    }

    /// One more `ViolationMonitor::new` on the current graph: another
    /// `init_s` sample.
    fn reinit(&mut self, tr: &mut Tracer) {
        let req = tr.calls(INIT).count() as u64;
        let (fresh, _) = tr.span(INIT, req, || {
            ViolationMonitor::new(self.mon.graph(), self.rules.clone())
        });
        drop(fresh);
    }

    /// Checks the maintained violation sets against a fresh monitor on the
    /// final graph (whose set-up is one more `init_s` sample).
    fn finish(mut self, tr: &mut Tracer, checks: &mut Checks) {
        let got: Vec<Vec<Vec<NodeId>>> = (0..self.rules.len())
            .map(|i| self.mon.violations(i).map(<[NodeId]>::to_vec).collect())
            .collect();
        let final_graph = GraphState::from_graph(self.mon.graph()).freeze();
        drop(self.shadow.take());
        let Client { mon, rules, .. } = self;
        drop(mon);
        let req = tr.calls(INIT).count() as u64;
        let (fresh, _) = tr.span(INIT, req, || ViolationMonitor::new(&final_graph, rules));
        for (i, got) in got.iter().enumerate() {
            let want: Vec<Vec<NodeId>> = fresh.violations(i).map(<[NodeId]>::to_vec).collect();
            checks.op(
                *got == want,
                "maintained violations equal a fresh monitor's",
            );
        }
    }
}

/// Sum of child record `name` over `spans`.
fn total<'a>(spans: impl Iterator<Item = &'a Span>, name: &str) -> f64 {
    spans.filter_map(|s| s.get(name)).sum()
}

/// The client's end-to-end metrics and counters, from the trace.
///
/// A read-run is one sample of the read latency, and the fastest run's
/// p50 and p99 are reported: interference from other tenants only adds
/// time and comes in bursts, so the fastest run tracks the code's own
/// cost. Every write but the first (a warm-up, reported apart) is a
/// sample of `write_p50_ms`.
fn report_client(w: &Workload, tr: &Tracer, rep: &mut Report) {
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for (id, _) in tr.ids(READ_RUN_SPAN) {
        let run: Vec<f64> = tr.children(id, READ).map(|s| s.secs() * 1e6).collect();
        p50.push(percentile(&run, 0.50));
        p99.push(percentile(&run, 0.99));
    }
    rep.e2e("read_p50_us", best(&p50), "us");
    rep.e2e("read_p99_us", best(&p99), "us");
    let writes: Vec<f64> = tr.calls(APPLY).skip(1).map(|s| s.secs() * 1e3).collect();
    rep.e2e("write_p50_ms", median(&writes), "ms");
    rep.diag.push(("reads", tr.calls(READ).count() as f64));
    rep.diag.push(("writes", writes.len() as f64));
    rep.diag.push((
        "first_write_ms",
        tr.secs(APPLY).first().map_or(0.0, |s| s * 1e3),
    ));

    // Deterministic counters over the fixed prefix of client steps.
    let prefix_reads = PREFIX_STEPS * (w.read_runs * READ_RUN) as u64;
    let reads = || tr.calls(READ).filter(|s| s.req < prefix_reads);
    let writes = || tr.calls(APPLY).filter(|s| s.req < PREFIX_STEPS);
    let n = prefix_reads as f64;
    rep.counter("core.bound.work_per_read", total(reads(), "work") / n);
    rep.counter("core.bound.probes_per_read", total(reads(), "probes") / n);
    let affected = total(writes(), "affected_pivots");
    rep.counter(
        "incremental.write.affected_pivots",
        affected / PREFIX_STEPS as f64,
    );
    rep.counter("incremental.write.fallbacks", total(writes(), "fallbacks"));
    rep.counter(
        "incremental.write.bound_queries",
        total(writes(), "bound_queries"),
    );
    let dirty = reads()
        .filter(|s| s.get("violated_rules") > Some(0.0))
        .count();
    rep.layer("incremental.read.dirty_ratio", dirty as f64 / n, "ratio");
    rep.layer(
        "incremental.write.changed_ratio",
        total(writes(), "changed") / affected.max(1.0),
        "ratio",
    );
    let all_reads: Vec<f64> = tr.secs(READ).iter().map(|s| s * 1e6).collect();
    rep.layer(
        "incremental.read.p999_us",
        percentile(&all_reads, 0.999),
        "us",
    );
}

/// The per-layer metrics and the remaining deterministic counters, from
/// the trace: each stage timer's median over the passes, and each counter
/// from the first call that returned it.
fn report_layers(tr: &Tracer, rep: &mut Report) {
    let first = |name: &str, record: &str| tr.values(name, record).first().copied();
    let med = |name: &str, record: &str| median(&tr.values(name, record));
    for name in ["graph.bytes", "graph.reallocs"] {
        rep.counter(name, first(LOAD, name).unwrap_or(0.0));
    }
    for name in [
        "pattern.spawned",
        "pattern.verified",
        "core.vspawn.work",
        "core.hspawn.work",
        "core.hspawn.candidates",
    ] {
        rep.counter(name, first(SEQ, name).unwrap_or(0.0));
    }
    for (name, record) in [
        ("parallel.steal.work_makespan", "work_makespan"),
        ("parallel.steal.work_busy", "work_busy"),
        ("parallel.steal.waves", "waves"),
        ("parallel.steal.retries", "retries"),
    ] {
        rep.counter(name, first(STEAL, record).unwrap_or(0.0));
    }
    rep.counter(
        "incremental.initial_violations",
        first(INIT, "violations").unwrap_or(0.0),
    );
    for name in [
        "pattern.join_s",
        "core.vspawn.harvest_s",
        "core.vspawn.merge_s",
        "core.catalog_s",
        "core.hspawn.lattice_s",
    ] {
        rep.layer(name, med(SEQ, name), "s");
    }
    let self_s: Vec<f64> = tr.calls(SEQ).map(Span::self_secs).collect();
    rep.layer("core.seqdis.self_s", median(&self_s), "s");
    let rules = first(SEQ, "rules").unwrap_or(0.0);
    let candidates = first(SEQ, "core.hspawn.candidates").unwrap_or(0.0);
    rep.layer("core.hspawn.yield", rules / candidates.max(1.0), "ratio");
    let kept = first(COVER, "kept").unwrap_or(0.0);
    rep.layer("core.seqcover.kept_ratio", kept / rules.max(1.0), "ratio");
    for (runtime, util, idle) in [
        (
            STEAL,
            "parallel.steal.cpu_util",
            Some("parallel.steal.idle_s"),
        ),
        (BARRIER, "parallel.barrier.cpu_util", None),
    ] {
        let (mut u, mut i) = (Vec::new(), Vec::new());
        for s in tr.calls(runtime) {
            let (wall, cpu) = (s.secs() * WORKERS as f64, s.get("cpu_s").unwrap_or(0.0));
            u.push(cpu / wall);
            i.push((wall - cpu).max(0.0));
        }
        if !u.is_empty() {
            rep.layer(util, median(&u), "ratio");
        }
        if let Some(idle) = idle {
            rep.layer(idle, median(&i), "s");
        }
    }
    if let Some(&wall) = tr.secs(BARRIER).first() {
        rep.layer("parallel.barrier.wall_s", wall, "s");
        rep.counter(
            "parallel.barrier.waves",
            first(BARRIER, "waves").unwrap_or(0.0),
        );
        rep.counter(
            "parallel.barrier.comm_bytes",
            first(BARRIER, "comm_bytes").unwrap_or(0.0),
        );
    }
    rep.layer("incremental.init_s", median(&tr.secs(INIT)), "s");
    let freeze: Vec<f64> = tr.values(APPLY, "incremental.write.freeze_s");
    if !freeze.is_empty() {
        rep.layer("incremental.write.freeze_s", median(&freeze), "s");
        let self_s: Vec<f64> = tr
            .calls(APPLY)
            .filter(|s| s.get("incremental.write.freeze_s").is_some())
            .map(Span::self_secs)
            .collect();
        rep.layer("incremental.write.self_s", median(&self_s), "s");
    }
}

/// Traced runs only: loads the text again through the loader's public
/// pieces (`sizing_pass`, `ChunkedParser::feed`, `finish`) to split
/// `setup_s` into sizing, parsing and freezing.
fn load_in_pieces(
    text: &Path,
    shape: (usize, usize),
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let io_err = |e: std::io::Error| format!("reading {}: {e}", text.display());
    let (mut size_s, mut parse_s, mut freeze_s) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..3u64 {
        let outer = tr.begin("io::load(pieces)", i);
        let file = std::fs::File::open(text).map_err(io_err)?;
        let (sizing, span) = tr.span("io::sizing_pass", i, || {
            io::sizing_pass(BufReader::new(file))
        });
        size_s.push(tr.get(span).secs());
        let sizing = sizing.map_err(io_err)?;
        let content = std::fs::read_to_string(text).map_err(io_err)?;
        let mut p = ChunkedParser::with_capacity(sizing.nodes, sizing.edges, sizing.attrs);
        let mut parse = 0.0;
        let mut rest = content.as_str();
        let mut chunk = 0u64;
        while !rest.is_empty() {
            let mut cut = rest.len().min(io::STREAM_CHUNK_BYTES);
            while !rest.is_char_boundary(cut) {
                cut -= 1;
            }
            let (piece, tail) = rest.split_at(cut);
            let (res, span) = tr.span("ChunkedParser::feed", chunk, || p.feed(piece));
            parse += tr.get(span).secs();
            res.map_err(|e| format!("parsing {}: {e}", text.display()))?;
            rest = tail;
            chunk += 1;
        }
        parse_s.push(parse);
        let (g, span) = tr.span("ChunkedParser::finish", i, || p.finish());
        freeze_s.push(tr.get(span).secs());
        tr.end(outer);
        let ok = matches!(&g, Ok(g) if (g.node_count(), g.edge_count()) == shape);
        rep.checks
            .op(ok, "the loader's pieces reproduce the generated graph");
    }
    rep.layer("graph.size_s", median(&size_s), "s");
    rep.layer("graph.parse_s", median(&parse_s), "s");
    rep.layer("graph.freeze_s", median(&freeze_s), "s");
    Ok(())
}
