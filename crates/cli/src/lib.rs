//! # gfd-cli — the command-line face of the GFD system
//!
//! ```text
//! gfd generate --profile yago2 --scale 500 -o kb.graph
//! gfd stats kb.graph
//! gfd discover kb.graph --k 3 --sigma 40 --cover -o rules.gfd
//! gfd discover kb.graph --k 3 --sigma 40 --confidence 0.9   # approximate
//! gfd xdiscover kb.graph --k 2 --sigma 20                   # §8 predicates
//! gfd validate kb.graph rules.gfd
//! gfd explain kb.graph rules.gfd --limit 5
//! gfd cover kb.graph rules.gfd -o min.gfd
//! gfd reason kb.graph rules.gfd
//! gfd monitor kb.graph rules.gfd session.updates
//! ```
//!
//! Graphs use the `gfd-graph` text format; rule files round-trip the
//! display syntax (`gfd-logic::text`). The `run` function returns the
//! command's stdout so every command is unit-testable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use gfd_core::{
    seq_cover_discovered, seq_dis, BoundPlans, BoundValidator, DiscoveryConfig, LiteralOrder,
};
use gfd_datagen::{knowledge_base, synthetic, KbConfig, KbProfile, SyntheticConfig};
use gfd_extended::{discover_extended, parse_xrules, render_xrules, XDiscoveryConfig, XGfd};
use gfd_graph::{io as gio, summarize, triple_stats, Graph, NodeId, Value};
use gfd_incremental::{MonitorRule, UpdateBatch, ViolationMonitor};
use gfd_logic::{
    explain_violations, find_violations, is_satisfiable, parse_rules, render_rules, Gfd,
};
use gfd_parallel::{par_dis, par_dis_steal, ClusterConfig, ExecMode, FaultConfig, StealConfig};

/// CLI failure, with the process exit code it maps to.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (usage shown).
    Usage(String),
    /// IO or parse failure.
    Io(String),
    /// `validate` found violations (exit code 1, like `grep`).
    ViolationsFound(usize),
}

impl CliError {
    /// Exit code for `main`.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::ViolationsFound(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}\n\n{USAGE}"),
            CliError::Io(m) => write!(f, "{m}"),
            CliError::ViolationsFound(n) => write!(f, "{n} violations found"),
        }
    }
}

const USAGE: &str = "\
usage: gfd <command> [options]
  generate  --profile <dbpedia|yago2|imdb> | --nodes N --edges M   [--scale S] [--seed K] [--error-rate R] -o <graph>
  stats     <graph>
  discover  <graph> [--k K] [--sigma S] [--max-lhs L] [--parallel N] [--no-negative] [--confidence C] [--cover] [-o <rules>]
            [--literal-order <catalog|selectivity>] [--runtime <barrier|steal>]
            [--checkpoint <file>] [--resume] [--fault <spec>] [--fault-seed K] [--range-rows N]
  xdiscover <graph> [--k K] [--sigma S] [--max-lhs L] [--confidence C] [--limit N] [-o <rules>]
  validate  <graph> <rules> [--limit N] [--entity N[,N...]] [--any-var]
  explain   <graph> <rules> [--limit N]
  cover     <graph> <rules> [-o <rules>]
  reason    <graph> <rules>
  monitor   <graph> <rules> <updates> [--xrules <extended rules>]

update scripts (`monitor`): one op per line —
  set <node> <attr> <value>   del <node> <attr>
  edge <src> <dst> <label>    unedge <src> <dst> <label>
  node <label>                batch   (applies queued ops atomically)

fault specs (`discover --fault`): comma-separated list of
  panic@W.I   drop@W.I   slow@W.I:MS   crash@W.wK[:U]
(`--fault-seed K` samples a chaos mix instead; either flag, `--checkpoint`,
or `--resume` selects the fault-tolerant work-stealing runtime)";

/// Tiny argument cursor.
struct Args<'a> {
    args: &'a [String],
    pos: usize,
}

impl<'a> Args<'a> {
    fn new(args: &'a [String]) -> Self {
        Args { args, pos: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let a = self.args.get(self.pos).map(String::as_str);
        if a.is_some() {
            self.pos += 1;
        }
        a
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.next()
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
    }

    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        self.value(flag)?
            .parse()
            .map_err(|_| CliError::Usage(format!("bad value for {flag}")))
    }
}

fn load_graph(path: &str) -> Result<Graph, CliError> {
    gio::load(Path::new(path)).map_err(|e| CliError::Io(format!("loading {path}: {e}")))
}

fn load_rules(path: &str, g: &Graph) -> Result<Vec<Gfd>, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("reading {path}: {e}")))?;
    parse_rules(&text, g.interner()).map_err(|e| CliError::Io(format!("parsing {path}: {e}")))
}

fn write_out(path: Option<&str>, content: &str, out: &mut String) -> Result<(), CliError> {
    match path {
        Some(p) => {
            std::fs::write(p, content).map_err(|e| CliError::Io(format!("writing {p}: {e}")))?;
            let _ = writeln!(out, "wrote {p}");
            Ok(())
        }
        None => {
            out.push_str(content);
            Ok(())
        }
    }
}

/// Executes a CLI invocation, returning its stdout.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let mut a = Args::new(args);
    let Some(cmd) = a.next() else {
        return Err(CliError::Usage("missing command".into()));
    };
    match cmd {
        "generate" => cmd_generate(a),
        "stats" => cmd_stats(a),
        "discover" => cmd_discover(a),
        "xdiscover" => cmd_xdiscover(a),
        "monitor" => cmd_monitor(a),
        "validate" => cmd_validate(a),
        "explain" => cmd_explain(a),
        "cover" => cmd_cover(a),
        "reason" => cmd_reason(a),
        "help" | "--help" | "-h" => Ok(format!("{USAGE}\n")),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

fn cmd_generate(mut a: Args) -> Result<String, CliError> {
    let mut profile: Option<KbProfile> = None;
    let mut nodes: Option<usize> = None;
    let mut edges: Option<usize> = None;
    let mut scale = 1_000usize;
    let mut seed = 7u64;
    let mut error_rate = 0.02f64;
    let mut out_path: Option<String> = None;
    while let Some(flag) = a.next() {
        match flag {
            "--profile" => {
                profile = Some(match a.value("--profile")? {
                    "dbpedia" => KbProfile::Dbpedia,
                    "yago2" => KbProfile::Yago2,
                    "imdb" => KbProfile::Imdb,
                    other => return Err(CliError::Usage(format!("unknown profile `{other}`"))),
                })
            }
            "--nodes" => nodes = Some(a.parse("--nodes")?),
            "--edges" => edges = Some(a.parse("--edges")?),
            "--scale" => scale = a.parse("--scale")?,
            "--seed" => seed = a.parse("--seed")?,
            "--error-rate" => error_rate = a.parse("--error-rate")?,
            "-o" => out_path = Some(a.value("-o")?.to_owned()),
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
    }
    let g = match (profile, nodes) {
        (Some(p), None) => knowledge_base(&KbConfig {
            profile: p,
            scale,
            error_rate,
            seed,
        }),
        (None, Some(n)) => synthetic(&SyntheticConfig {
            nodes: n,
            edges: edges.unwrap_or(n * 2),
            seed,
            ..Default::default()
        }),
        _ => {
            return Err(CliError::Usage(
                "generate needs either --profile or --nodes".into(),
            ))
        }
    };
    let mut out = String::new();
    let s = summarize(&g);
    let _ = writeln!(out, "generated |V|={} |E|={}", s.nodes, s.edges);
    write_out(out_path.as_deref(), &gio::to_text(&g), &mut out)?;
    Ok(out)
}

fn cmd_stats(mut a: Args) -> Result<String, CliError> {
    let path = a.value("stats <graph>")?;
    let g = load_graph(path)?;
    let s = summarize(&g);
    let mut out = String::new();
    let _ = writeln!(out, "graph       {path}");
    let _ = writeln!(out, "nodes       {}", s.nodes);
    let _ = writeln!(out, "edges       {}", s.edges);
    let _ = writeln!(out, "node labels {}", s.node_labels);
    let _ = writeln!(out, "edge labels {}", s.edge_labels);
    let _ = writeln!(out, "max degree  {}", s.max_degree);
    let _ = writeln!(out, "avg degree  {:.2}", s.avg_degree);
    let _ = writeln!(out, "attr values {}", s.attr_bindings);
    let _ = writeln!(out, "top edge types:");
    let interner = g.interner();
    for t in triple_stats(&g).into_iter().take(8) {
        let _ = writeln!(
            out,
            "  {} -{}-> {}  ×{}",
            interner.label_name(t.src_label),
            interner.label_name(t.edge_label),
            interner.label_name(t.dst_label),
            t.edge_count
        );
    }
    Ok(out)
}

fn cmd_discover(mut a: Args) -> Result<String, CliError> {
    let path = a.value("discover <graph>")?.to_owned();
    let mut k = 3usize;
    let mut sigma = 100usize;
    let mut max_lhs = 1usize;
    let mut parallel: Option<usize> = None;
    let mut negative = true;
    let mut cover = false;
    let mut confidence = 1.0f64;
    let mut literal_order = LiteralOrder::default();
    let mut out_path: Option<String> = None;
    let mut steal = false;
    let mut checkpoint: Option<String> = None;
    let mut resume = false;
    let mut fault_spec: Option<String> = None;
    let mut fault_seed: Option<u64> = None;
    let mut range_rows: Option<usize> = None;
    while let Some(flag) = a.next() {
        match flag {
            "--k" => k = a.parse("--k")?,
            "--sigma" => sigma = a.parse("--sigma")?,
            "--max-lhs" => max_lhs = a.parse("--max-lhs")?,
            "--parallel" => parallel = Some(a.parse("--parallel")?),
            "--no-negative" => negative = false,
            "--cover" => cover = true,
            "--confidence" => confidence = a.parse("--confidence")?,
            "--literal-order" => {
                let v = a.value("--literal-order")?;
                literal_order = LiteralOrder::parse(v)
                    .ok_or_else(|| CliError::Usage(format!("unknown literal order `{v}`")))?;
            }
            "--runtime" => {
                steal = match a.value("--runtime")? {
                    "steal" => true,
                    "barrier" => false,
                    other => return Err(CliError::Usage(format!("unknown runtime `{other}`"))),
                }
            }
            "--checkpoint" => checkpoint = Some(a.value("--checkpoint")?.to_owned()),
            "--resume" => resume = true,
            "--fault" => fault_spec = Some(a.value("--fault")?.to_owned()),
            "--fault-seed" => fault_seed = Some(a.parse("--fault-seed")?),
            "--range-rows" => range_rows = Some(a.parse("--range-rows")?),
            "-o" => out_path = Some(a.value("-o")?.to_owned()),
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
    }
    if !(0.0..=1.0).contains(&confidence) {
        return Err(CliError::Usage("--confidence must be in [0, 1]".into()));
    }
    // Fault injection, checkpointing, resume, and the range knob all live
    // in the work-stealing runtime; asking for any of them selects it.
    let steal = steal
        || resume
        || checkpoint.is_some()
        || fault_spec.is_some()
        || fault_seed.is_some()
        || range_rows.is_some();
    let g = load_graph(&path)?;
    let mut cfg = DiscoveryConfig::new(k.max(2), sigma.max(1));
    cfg.max_lhs_size = max_lhs;
    cfg.mine_negative = negative;
    cfg.min_confidence = confidence;
    cfg.literal_order = literal_order;

    let g = Arc::new(g);
    let mut mined = if steal {
        let fault = match (&fault_spec, fault_seed) {
            (Some(spec), seed) => {
                let mut f = FaultConfig::parse(spec).map_err(CliError::Usage)?;
                f.seed = seed;
                f
            }
            (None, Some(seed)) => FaultConfig::with_seed(seed),
            (None, None) => FaultConfig::default(),
        };
        let mut scfg =
            StealConfig::tuned(parallel.unwrap_or(4).max(1), ExecMode::Threads, g.size())
                .with_faults(fault);
        if let Some(rows) = range_rows {
            scfg.range_rows_threshold = rows;
        }
        scfg.checkpoint = checkpoint.as_deref().map(std::path::PathBuf::from);
        scfg.resume = resume;
        par_dis_steal(&g, &cfg, &scfg)
            .map_err(|e| CliError::Io(format!("discovery failed: {e}")))?
            .result
    } else {
        match parallel {
            Some(n) if n > 1 => {
                par_dis(&g, &cfg, &ClusterConfig::new(n, ExecMode::Threads))
                    .map_err(|e| CliError::Io(format!("discovery failed: {e}")))?
                    .result
            }
            _ => seq_dis(&g, &cfg),
        }
    };
    let total = mined.gfds.len();
    if cover {
        mined.gfds = seq_cover_discovered(&mined.gfds);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "discovered {} rules{} ({} positive, {} negative)",
        mined.gfds.len(),
        if cover {
            format!(" (cover of {total})")
        } else {
            String::new()
        },
        mined.positive_count(),
        mined.negative_count(),
    );
    let st = &mined.stats;
    if st.retries + st.requeued_units + st.speculative_wins + st.recovered_waves > 0 {
        let _ = writeln!(
            out,
            "fault recovery: {} retries, {} units requeued, {} speculative wins, {} waves recovered",
            st.retries, st.requeued_units, st.speculative_wins, st.recovered_waves
        );
    }
    if st.peak_rss_bytes > 0 || st.graph_bytes > 0 {
        let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
        let _ = writeln!(
            out,
            "memory: peak rss {:.1} MiB, graph {:.1} MiB ({} builder reallocs)",
            mib(st.peak_rss_bytes),
            mib(st.graph_bytes),
            st.graph_reallocs
        );
    }
    let rules: Vec<Gfd> = mined.gfds.iter().map(|d| d.gfd.clone()).collect();
    write_out(
        out_path.as_deref(),
        &render_rules(&rules, g.interner()),
        &mut out,
    )?;
    Ok(out)
}

fn cmd_validate(mut a: Args) -> Result<String, CliError> {
    let gpath = a.value("validate <graph>")?.to_owned();
    let rpath = a.value("validate <graph> <rules>")?.to_owned();
    let mut limit = 3usize;
    let mut entities: Vec<u32> = Vec::new();
    let mut any_var = false;
    while let Some(flag) = a.next() {
        match flag {
            "--limit" => limit = a.parse("--limit")?,
            "--entity" => {
                for part in a.value("--entity")?.split(',') {
                    entities.push(part.trim().parse().map_err(|_| {
                        CliError::Usage(format!("bad entity id `{part}` for --entity"))
                    })?);
                }
            }
            "--any-var" => any_var = true,
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
    }
    if any_var && entities.is_empty() {
        return Err(CliError::Usage("--any-var requires --entity".into()));
    }
    let g = load_graph(&gpath)?;
    let rules = load_rules(&rpath, &g)?;
    if !entities.is_empty() {
        return validate_entities(&g, &rules, &entities, any_var, limit);
    }
    let mut out = String::new();
    let mut total = 0usize;
    for phi in &rules {
        let v = find_violations(&g, phi, Some(limit + 1));
        if !v.is_empty() {
            total += v.len();
            let _ = writeln!(
                out,
                "VIOLATED{} {}",
                if v.len() > limit { " (+more)" } else { "" },
                phi.display(g.interner())
            );
        }
    }
    let _ = writeln!(
        out,
        "{} of {} rules violated",
        rules
            .iter()
            .filter(|phi| !gfd_logic::satisfies(&g, phi))
            .count(),
        rules.len()
    );
    if total > 0 {
        // Emit the report on stdout, then a non-zero exit like grep.
        print!("{out}");
        return Err(CliError::ViolationsFound(total));
    }
    Ok(out)
}

/// Demand-driven per-entity validation (`validate --entity`): each query
/// seeds the rule's pivot-rooted plan at the entity and evaluates only the
/// matches through it — no global match table, sub-graph-sized work. With
/// `--any-var`, the entity is additionally probed at every non-pivot
/// variable through pinned-start plans, reporting violations it merely
/// participates in.
fn validate_entities(
    g: &Graph,
    rules: &[Gfd],
    entities: &[u32],
    any_var: bool,
    limit: usize,
) -> Result<String, CliError> {
    use gfd_pattern::{CompiledPattern, MatchSet};
    for &e in entities {
        if e as usize >= g.node_count() {
            return Err(CliError::Usage(format!(
                "--entity {e} out of range (graph has {} nodes)",
                g.node_count()
            )));
        }
    }
    let plans: Vec<CompiledPattern> = rules
        .iter()
        .map(|phi| CompiledPattern::new(phi.pattern()))
        .collect();
    let bound_plans: Vec<BoundPlans> = if any_var {
        rules
            .iter()
            .map(|phi| BoundPlans::compile(phi.pattern()))
            .collect()
    } else {
        Vec::new()
    };
    let mut validator = BoundValidator::new(g);
    let mut out = String::new();
    let mut total = 0usize;
    for &e in entities {
        let node = NodeId(e);
        let mut hits = 0usize;
        for (i, phi) in rules.iter().enumerate() {
            let mut ms = MatchSet::new(phi.pattern().node_count());
            let n = validator.violations_at(phi, &plans[i], node, &mut ms);
            if n > 0 {
                hits += n;
                let _ = writeln!(
                    out,
                    "entity {e}: VIOLATES{} {}",
                    if n > limit {
                        format!(" ({n} matches)")
                    } else {
                        String::new()
                    },
                    phi.display(g.interner())
                );
            }
            if any_var {
                let pivot = phi.pattern().pivot();
                for var in 0..phi.pattern().node_count() {
                    if var == pivot {
                        continue;
                    }
                    if validator.violates_at(phi, bound_plans[i].plan(var), node) {
                        hits += 1;
                        let _ = writeln!(
                            out,
                            "entity {e}: participates (as x{var}) in violation of {}",
                            phi.display(g.interner())
                        );
                    }
                }
            }
        }
        if hits == 0 {
            let _ = writeln!(out, "entity {e}: clean");
        }
        total += hits;
    }
    let _ = writeln!(
        out,
        "validated {} entities against {} rules: {} violations (bound path, validation_work={})",
        entities.len(),
        rules.len(),
        total,
        validator.work()
    );
    if total > 0 {
        print!("{out}");
        return Err(CliError::ViolationsFound(total));
    }
    Ok(out)
}

fn cmd_explain(mut a: Args) -> Result<String, CliError> {
    let gpath = a.value("explain <graph>")?.to_owned();
    let rpath = a.value("explain <graph> <rules>")?.to_owned();
    let mut limit = 5usize;
    while let Some(flag) = a.next() {
        match flag {
            "--limit" => limit = a.parse("--limit")?,
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
    }
    let g = load_graph(&gpath)?;
    let rules = load_rules(&rpath, &g)?;
    let mut out = String::new();
    for phi in &rules {
        let explanations = explain_violations(&g, phi, limit);
        if explanations.is_empty() {
            continue;
        }
        let _ = writeln!(out, "{}", phi.display(g.interner()));
        for e in explanations {
            let _ = writeln!(out, "  {}", e.display(phi, &g));
        }
    }
    if out.is_empty() {
        out.push_str("no violations\n");
    }
    Ok(out)
}

fn cmd_cover(mut a: Args) -> Result<String, CliError> {
    let gpath = a.value("cover <graph>")?.to_owned();
    let rpath = a.value("cover <graph> <rules>")?.to_owned();
    let mut out_path: Option<String> = None;
    while let Some(flag) = a.next() {
        match flag {
            "-o" => out_path = Some(a.value("-o")?.to_owned()),
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
    }
    let g = load_graph(&gpath)?;
    let rules = load_rules(&rpath, &g)?;
    let cover = gfd_core::seq_cover(&rules);
    let mut out = String::new();
    let _ = writeln!(out, "cover: {} of {} rules", cover.len(), rules.len());
    write_out(
        out_path.as_deref(),
        &render_rules(&cover, g.interner()),
        &mut out,
    )?;
    Ok(out)
}

fn cmd_reason(mut a: Args) -> Result<String, CliError> {
    let gpath = a.value("reason <graph>")?.to_owned();
    let rpath = a.value("reason <graph> <rules>")?.to_owned();
    let g = load_graph(&gpath)?;
    let rules = load_rules(&rpath, &g)?;
    let mut out = String::new();
    let _ = writeln!(out, "rules        {}", rules.len());
    let _ = writeln!(out, "satisfiable  {}", is_satisfiable(&rules));
    let redundant: Vec<usize> = (0..rules.len())
        .filter(|&i| gfd_logic::implied_by_rest(&rules, i))
        .collect();
    let _ = writeln!(out, "redundant    {}", redundant.len());
    for i in redundant.iter().take(10) {
        let _ = writeln!(out, "  - {}", rules[*i].display(g.interner()));
    }
    Ok(out)
}

/// Parses a value token: integers as `Value::Int`, anything else as an
/// interned string (surrounding double quotes stripped).
fn parse_value(token: &str, g: &Graph) -> Value {
    if let Ok(i) = token.parse::<i64>() {
        return Value::Int(i);
    }
    let s = token.trim_matches('"');
    Value::Str(g.interner().symbol(s))
}

/// Parses an update script's node id, which must name one of the `nodes`
/// nodes that exist when the op applies.
fn node_arg(token: &str, line: usize, nodes: usize) -> Result<NodeId, CliError> {
    let n: usize = token
        .parse()
        .map_err(|_| CliError::Io(format!("updates line {line}: bad node id `{token}`")))?;
    if n >= nodes {
        return Err(CliError::Io(format!(
            "updates line {line}: node {n} out of range (the graph has {nodes} nodes)"
        )));
    }
    Ok(NodeId::from_index(n))
}

fn cmd_xdiscover(mut a: Args) -> Result<String, CliError> {
    let path = a.value("xdiscover <graph>")?.to_owned();
    let mut k = 2usize;
    let mut sigma = 20usize;
    let mut max_lhs = 1usize;
    let mut confidence = 1.0f64;
    let mut limit = 40usize;
    let mut out_path: Option<String> = None;
    while let Some(flag) = a.next() {
        match flag {
            "--k" => k = a.parse("--k")?,
            "--sigma" => sigma = a.parse("--sigma")?,
            "--max-lhs" => max_lhs = a.parse("--max-lhs")?,
            "--confidence" => confidence = a.parse("--confidence")?,
            "--limit" => limit = a.parse("--limit")?,
            "-o" => out_path = Some(a.value("-o")?.to_owned()),
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
    }
    let g = load_graph(&path)?;
    let mut cfg = XDiscoveryConfig::new(k.max(2), sigma.max(1));
    cfg.max_lhs_size = max_lhs;
    cfg.min_confidence = confidence;
    let rules = discover_extended(&g, &cfg);
    let mut out = String::new();
    let _ = writeln!(out, "discovered {} extended rules", rules.len());
    if let Some(p) = out_path {
        let xs: Vec<XGfd> = rules.iter().map(|r| r.gfd.clone()).collect();
        write_out(Some(&p), &render_xrules(&xs, g.interner()), &mut out)?;
        return Ok(out);
    }
    for r in rules.iter().take(limit) {
        let _ = writeln!(
            out,
            "supp={:>5} conf={:.2}  {}",
            r.support,
            r.confidence,
            r.gfd.display(g.interner())
        );
    }
    if rules.len() > limit {
        let _ = writeln!(out, "… and {} more (raise --limit)", rules.len() - limit);
    }
    Ok(out)
}

fn cmd_monitor(mut a: Args) -> Result<String, CliError> {
    let gpath = a.value("monitor <graph>")?.to_owned();
    let rpath = a.value("monitor <graph> <rules>")?.to_owned();
    let upath = a.value("monitor <graph> <rules> <updates>")?.to_owned();
    let mut xpath: Option<String> = None;
    while let Some(flag) = a.next() {
        match flag {
            "--xrules" => xpath = Some(a.value("--xrules")?.to_owned()),
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
    }
    let g = load_graph(&gpath)?;
    let rules = load_rules(&rpath, &g)?;
    let script = std::fs::read_to_string(&upath)
        .map_err(|e| CliError::Io(format!("reading {upath}: {e}")))?;

    let mut monitor_rules: Vec<MonitorRule> = rules.into_iter().map(MonitorRule::from).collect();
    if let Some(xp) = xpath {
        let text =
            std::fs::read_to_string(&xp).map_err(|e| CliError::Io(format!("reading {xp}: {e}")))?;
        let xrules = parse_xrules(&text, g.interner())
            .map_err(|e| CliError::Io(format!("parsing {xp}: {e}")))?;
        monitor_rules.extend(xrules.into_iter().map(MonitorRule::from));
    }
    let mut monitor = ViolationMonitor::new(&g, monitor_rules);
    let mut out = String::new();
    let _ = writeln!(out, "initial violations: {}", monitor.total_violations());

    let mut batch = UpdateBatch::new();
    let mut batch_no = 0usize;
    let flush = |monitor: &mut ViolationMonitor,
                 batch: &mut UpdateBatch,
                 batch_no: &mut usize,
                 out: &mut String| {
        if batch.is_empty() {
            return;
        }
        *batch_no += 1;
        let delta = monitor.apply(batch);
        let _ = writeln!(
            out,
            "batch {}: +{} violations, -{} repaired ({} rule pivots re-checked); total {}",
            batch_no,
            delta.added(),
            delta.removed(),
            delta.affected_pivots,
            monitor.total_violations()
        );
        *batch = UpdateBatch::new();
    };

    for (no, line) in script.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let lineno = no + 1;
        let bad = |msg: &str| CliError::Io(format!("updates line {lineno}: {msg}"));
        // Nodes that exist when this op applies: the graph's plus the ones
        // queued earlier in the open batch.
        let nodes = monitor.graph().node_count() + batch.added_nodes();
        let node = |tok: &str| node_arg(tok, lineno, nodes);
        match toks[0] {
            "batch" => flush(&mut monitor, &mut batch, &mut batch_no, &mut out),
            "set" if toks.len() == 4 => {
                let node = node(toks[1])?;
                let attr = g.interner().attr(toks[2]);
                batch.set_attr(node, attr, parse_value(toks[3], &g));
            }
            "del" if toks.len() == 3 => {
                let node = node(toks[1])?;
                let attr = g.interner().attr(toks[2]);
                batch.remove_attr(node, attr);
            }
            "edge" if toks.len() == 4 => {
                let (s, d) = (node(toks[1])?, node(toks[2])?);
                batch.add_edge(s, d, g.interner().label(toks[3]));
            }
            "unedge" if toks.len() == 4 => {
                let (s, d) = (node(toks[1])?, node(toks[2])?);
                batch.remove_edge(s, d, g.interner().label(toks[3]));
            }
            "node" if toks.len() == 2 => {
                batch.add_node(monitor.graph().node_count(), g.interner().label(toks[1]));
            }
            op => return Err(bad(&format!("unknown or malformed op `{op}`"))),
        }
    }
    flush(&mut monitor, &mut batch, &mut batch_no, &mut out);
    let _ = writeln!(
        out,
        "final: {} violations across {} rules",
        monitor.total_violations(),
        monitor.rules().len()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gfd-cli-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run(&s(&["frobnicate"])), Err(CliError::Usage(_))));
        assert!(run(&s(&["help"])).unwrap().contains("usage:"));
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CliError::ViolationsFound(3).exit_code(), 1);
    }

    #[test]
    fn generate_stats_discover_validate_pipeline() {
        let dir = tmpdir();
        let graph = dir.join("kb.graph");
        let rules = dir.join("rules.gfd");

        // generate
        let out = run(&s(&[
            "generate",
            "--profile",
            "yago2",
            "--scale",
            "150",
            "--error-rate",
            "0.0",
            "-o",
            graph.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("generated |V|="));

        // stats
        let out = run(&s(&["stats", graph.to_str().unwrap()])).unwrap();
        assert!(out.contains("top edge types"));

        // discover (with cover) to file
        let out = run(&s(&[
            "discover",
            graph.to_str().unwrap(),
            "--k",
            "3",
            "--sigma",
            "15",
            "--cover",
            "-o",
            rules.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("discovered"));
        if cfg!(target_os = "linux") {
            assert!(out.contains("memory: peak rss"), "{out}");
            assert!(out.contains("builder reallocs"), "{out}");
        }
        let rule_text = std::fs::read_to_string(&rules).unwrap();
        assert!(rule_text.lines().any(|l| l.starts_with("Q[")));

        // validate: mined rules hold on a clean graph.
        let out = run(&s(&[
            "validate",
            graph.to_str().unwrap(),
            rules.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("0 of"), "{out}");

        // reason: a cover has no redundancy.
        let out = run(&s(&[
            "reason",
            graph.to_str().unwrap(),
            rules.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("satisfiable  true"), "{out}");
        assert!(out.contains("redundant    0"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_reports_violations_with_exit_code() {
        let dir = tmpdir();
        let graph = dir.join("bad.graph");
        let rules = dir.join("r.gfd");
        std::fs::write(
            &graph,
            "n person type=high_jumper\nn product type=film\ne 0 1 create\n",
        )
        .unwrap();
        std::fs::write(
            &rules,
            "Q[x0:person*, x1:product; x0-create->x1](x1.type=\"film\" -> x0.type=\"producer\")\n",
        )
        .unwrap();
        let res = run(&s(&[
            "validate",
            graph.to_str().unwrap(),
            rules.to_str().unwrap(),
        ]));
        assert!(matches!(res, Err(CliError::ViolationsFound(1))));

        // explain prints the diagnosis.
        let out = run(&s(&[
            "explain",
            graph.to_str().unwrap(),
            rules.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("high_jumper"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `validate --entity` takes the demand-driven bound path: per-entity
    /// verdicts, grep-style exit code, and the deterministic work meter.
    #[test]
    fn validate_entity_bound_path() {
        let dir = tmpdir();
        let graph = dir.join("bad.graph");
        let rules = dir.join("r.gfd");
        std::fs::write(
            &graph,
            concat!(
                "n person type=high_jumper\n",
                "n product type=film\n",
                "n person type=producer\n",
                "e 0 1 create\n",
                "e 2 1 create\n",
            ),
        )
        .unwrap();
        std::fs::write(
            &rules,
            "Q[x0:person*, x1:product; x0-create->x1](x1.type=\"film\" -> x0.type=\"producer\")\n",
        )
        .unwrap();

        // Node 2 (producer) is clean through the bound path.
        let out = run(&s(&[
            "validate",
            graph.to_str().unwrap(),
            rules.to_str().unwrap(),
            "--entity",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("entity 2: clean"), "{out}");
        assert!(out.contains("validation_work="), "{out}");

        // Node 0 violates; exit code matches the full validate path.
        let res = run(&s(&[
            "validate",
            graph.to_str().unwrap(),
            rules.to_str().unwrap(),
            "--entity",
            "0",
        ]));
        assert!(matches!(res, Err(CliError::ViolationsFound(1))), "{res:?}");

        // --any-var reports the film's participation in node 0's violation.
        let res = run(&s(&[
            "validate",
            graph.to_str().unwrap(),
            rules.to_str().unwrap(),
            "--entity",
            "1,2",
            "--any-var",
        ]));
        match res {
            Err(CliError::ViolationsFound(n)) => assert_eq!(n, 1),
            other => panic!("expected participation violation, got {other:?}"),
        }

        // Out-of-range entities are a usage error.
        let res = run(&s(&[
            "validate",
            graph.to_str().unwrap(),
            rules.to_str().unwrap(),
            "--entity",
            "99",
        ]));
        assert!(matches!(res, Err(CliError::Usage(_))), "{res:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synthetic_generation() {
        let dir = tmpdir();
        let graph = dir.join("syn.graph");
        let out = run(&s(&[
            "generate",
            "--nodes",
            "100",
            "--edges",
            "250",
            "-o",
            graph.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("|V|=100"));
        let g = gio::load(&graph).unwrap();
        assert_eq!(g.edge_count(), 250);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn xdiscover_finds_extended_rules() {
        let dir = tmpdir();
        let graph = dir.join("imdb.graph");
        run(&s(&[
            "generate",
            "--profile",
            "imdb",
            "--scale",
            "120",
            "--error-rate",
            "0.0",
            "-o",
            graph.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&s(&[
            "xdiscover",
            graph.to_str().unwrap(),
            "--k",
            "2",
            "--sigma",
            "10",
        ]))
        .unwrap();
        assert!(out.contains("extended rules"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn discover_confidence_flag_is_accepted() {
        let dir = tmpdir();
        let graph = dir.join("kb.graph");
        run(&s(&[
            "generate",
            "--profile",
            "yago2",
            "--scale",
            "120",
            "-o",
            graph.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&s(&[
            "discover",
            graph.to_str().unwrap(),
            "--k",
            "3",
            "--sigma",
            "10",
            "--confidence",
            "0.9",
        ]))
        .unwrap();
        assert!(out.contains("discovered"), "{out}");
        // Out-of-range confidence is a usage error.
        let res = run(&s(&[
            "discover",
            graph.to_str().unwrap(),
            "--confidence",
            "1.5",
        ]));
        assert!(matches!(res, Err(CliError::Usage(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn xdiscover_rules_roundtrip_through_file() {
        let dir = tmpdir();
        let graph = dir.join("imdb.graph");
        let xrules = dir.join("x.gfd");
        run(&s(&[
            "generate",
            "--profile",
            "imdb",
            "--scale",
            "120",
            "--error-rate",
            "0.0",
            "-o",
            graph.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&s(&[
            "xdiscover",
            graph.to_str().unwrap(),
            "--k",
            "2",
            "--sigma",
            "10",
            "-o",
            xrules.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        // The written file parses back against the same graph.
        let g = gio::load(&xrules.with_file_name("imdb.graph")).unwrap();
        let text = std::fs::read_to_string(&xrules).unwrap();
        let parsed = parse_xrules(&text, g.interner()).unwrap();
        assert!(!parsed.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn monitor_accepts_extended_rules() {
        let dir = tmpdir();
        let graph = dir.join("g.graph");
        let rules = dir.join("r.gfd");
        let xrules = dir.join("x.gfd");
        let updates = dir.join("u.updates");
        std::fs::write(
            &graph,
            "n person birth=1950
n person birth=1980
e 0 1 parent
",
        )
        .unwrap();
        std::fs::write(&rules, "").unwrap();
        std::fs::write(
            &xrules,
            "Q[x0:person*, x1:person; x0-parent->x1](∅ -> x1.birth>=x0.birth+12)
",
        )
        .unwrap();
        std::fs::write(
            &updates,
            "set 1 birth 1955
batch
",
        )
        .unwrap();
        let out = run(&s(&[
            "monitor",
            graph.to_str().unwrap(),
            rules.to_str().unwrap(),
            updates.to_str().unwrap(),
            "--xrules",
            xrules.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("batch 1: +1 violations"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn monitor_replays_update_script() {
        let dir = tmpdir();
        let graph = dir.join("g.graph");
        let rules = dir.join("r.gfd");
        let updates = dir.join("session.updates");
        // A clean creator graph and the φ1 rule.
        std::fs::write(
            &graph,
            "n person type=producer
n product type=film
e 0 1 create
",
        )
        .unwrap();
        std::fs::write(
            &rules,
            "Q[x0:person*, x1:product; x0-create->x1](x1.type=\"film\" -> x0.type=\"producer\")\n",
        )
        .unwrap();
        // Corrupt, then repair, in two batches.
        std::fs::write(
            &updates,
            "# curation session\nset 0 type high_jumper\nbatch\nset 0 type producer\nbatch\n",
        )
        .unwrap();
        let out = run(&s(&[
            "monitor",
            graph.to_str().unwrap(),
            rules.to_str().unwrap(),
            updates.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("initial violations: 0"), "{out}");
        assert!(out.contains("batch 1: +1 violations"), "{out}");
        assert!(out.contains("batch 2: +0 violations, -1 repaired"), "{out}");
        assert!(out.contains("final: 0 violations"), "{out}");

        // Malformed scripts are reported with their line number.
        std::fs::write(&updates, "warp 1 2\n").unwrap();
        let res = run(&s(&[
            "monitor",
            graph.to_str().unwrap(),
            rules.to_str().unwrap(),
            updates.to_str().unwrap(),
        ]));
        assert!(matches!(res, Err(CliError::Io(m)) if m.contains("line 1")));

        // So are node ids the graph does not have when the op applies;
        // a node queued earlier in the batch counts.
        for (script, line) in [
            ("set 7 type x\nbatch\n", "line 1"),
            ("set 0 type x\nedge 0 9 create\n", "line 2"),
            (
                "node person\nedge 2 1 create\nbatch\nunedge 3 1 create\n",
                "line 4",
            ),
        ] {
            std::fs::write(&updates, script).unwrap();
            let res = run(&s(&[
                "monitor",
                graph.to_str().unwrap(),
                rules.to_str().unwrap(),
                updates.to_str().unwrap(),
            ]));
            assert!(
                matches!(&res, Err(CliError::Io(m)) if m.contains(line) && m.contains("out of range")),
                "{script:?}: {res:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn discover_steal_runtime_and_faults_match_sequential() {
        let dir = tmpdir();
        let graph = dir.join("kb.graph");
        run(&s(&[
            "generate",
            "--profile",
            "yago2",
            "--scale",
            "150",
            "--error-rate",
            "0.0",
            "-o",
            graph.to_str().unwrap(),
        ]))
        .unwrap();
        let rules = dir.join("rules.gfd");
        let discover = |extra: &[&str]| {
            let mut args = vec![
                "discover",
                graph.to_str().unwrap(),
                "--k",
                "3",
                "--sigma",
                "15",
            ];
            args.extend_from_slice(extra);
            args.extend_from_slice(&["-o", rules.to_str().unwrap()]);
            let out = run(&s(&args)).unwrap();
            (out, std::fs::read_to_string(&rules).unwrap())
        };
        let (_, baseline) = discover(&[]);
        // The steal runtime, fault-free and under a seeded chaos plan,
        // mines exactly the sequential rule set.
        let (_, steal_rules) = discover(&["--parallel", "2", "--runtime", "steal"]);
        assert_eq!(steal_rules, baseline);
        let (_, chaotic_rules) = discover(&["--parallel", "3", "--fault-seed", "42"]);
        assert_eq!(chaotic_rules, baseline);
        // An explicit fault plan parses and recovers too.
        let (explicit, explicit_rules) =
            discover(&["--parallel", "2", "--fault", "panic@1.0,slow@2.1:5"]);
        assert!(explicit.contains("discovered"), "{explicit}");
        assert_eq!(explicit_rules, baseline);
        // A malformed plan is a usage error.
        let res = run(&s(&[
            "discover",
            graph.to_str().unwrap(),
            "--fault",
            "explode@1.0",
        ]));
        assert!(matches!(res, Err(CliError::Usage(_))));
        // `--range-rows` selects the steal runtime and, being a pure
        // schedule knob, cannot change the mined rules — the override
        // survives the size-tuned defaults at both extremes.
        let (_, forced_ranges) = discover(&["--parallel", "2", "--range-rows", "0"]);
        assert_eq!(forced_ranges, baseline);
        let (_, forced_mine) = discover(&["--parallel", "2", "--range-rows", "99999999"]);
        assert_eq!(forced_mine, baseline);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn discover_checkpoint_resume_roundtrip() {
        let dir = tmpdir();
        let graph = dir.join("kb.graph");
        let ck = dir.join("run.ckpt");
        run(&s(&[
            "generate",
            "--profile",
            "yago2",
            "--scale",
            "150",
            "--error-rate",
            "0.0",
            "-o",
            graph.to_str().unwrap(),
        ]))
        .unwrap();
        let base_args = [
            "discover",
            graph.to_str().unwrap(),
            "--k",
            "3",
            "--sigma",
            "15",
        ];
        // The memory line reports the process-wide RSS high-water mark,
        // which legitimately differs between runs — everything else must
        // be bit-identical.
        let sans_memory = |out: &str| -> String {
            out.lines()
                .filter(|l| !l.starts_with("memory:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let baseline = sans_memory(&run(&s(&base_args)).unwrap());
        // A checkpointed run leaves a resumable snapshot behind …
        let mut args = base_args.to_vec();
        args.extend_from_slice(&["--parallel", "2", "--checkpoint", ck.to_str().unwrap()]);
        let checkpointed = sans_memory(&run(&s(&args)).unwrap());
        assert_eq!(checkpointed, baseline);
        assert!(ck.exists(), "checkpoint file not written");
        // … and resuming from it reproduces the same rules.
        args.push("--resume");
        let resumed = sans_memory(&run(&s(&args)).unwrap());
        assert_eq!(resumed, baseline);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cover_command_removes_redundancy() {
        let dir = tmpdir();
        let graph = dir.join("kb.graph");
        let rules = dir.join("dup.gfd");
        run(&s(&[
            "generate",
            "--profile",
            "imdb",
            "--scale",
            "60",
            "-o",
            graph.to_str().unwrap(),
        ]))
        .unwrap();
        let rule = "Q[x0:actor*, x1:movie; x0-actedIn->x1](∅ -> x0.kind=\"actor\")";
        std::fs::write(&rules, format!("{rule}\n{rule}\n")).unwrap();
        let out = run(&s(&[
            "cover",
            graph.to_str().unwrap(),
            rules.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("cover: 1 of 2"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
