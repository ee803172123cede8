//! End-to-end benchmark of the gfd workspace.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload small|large --seed N --seconds S --trace 0|1 [--graph-seed N]
//! ```
//!
//! A run generates its workload's graph, writes it out as graph text, and
//! then times what a user of the system waits for: loading the text
//! (`io::load`), mining it sequentially (`seq_dis`) and on the
//! work-stealing runtime with 2 workers (`par_dis_with_runtime`), reducing
//! the rules to a cover (`seq_cover_discovered`), and serving the mined
//! catalog from a `ViolationMonitor` to one closed-loop client that
//! alternates a write batch (`apply`) with a run of entity reads
//! (`validate_entity`). Every
//! operation's output is checked; the last stdout line is one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Lines before it name each metric with its unit, the
//! deterministic work counters, and diagnostics. `workloads.json` records
//! why each workload exists and which layer should move which metric.
//!
//! `--seed` seeds the client's reads and writes. The graph is the
//! scenario's pinned one unless `--graph-seed` names another: mining and
//! cover costs of the 3,000-node scenario vary several-fold with the graph
//! seed, which would drown any code change in input noise.

#![forbid(unsafe_code)]

mod client;
mod measure;
mod trace;
mod workload;

use std::process::ExitCode;

use trace::Tracer;
use workload::Workload;

fn usage() -> ExitCode {
    eprintln!(
        "usage: gfd-perfbench --workload small|large [--seed N] [--seconds S] [--trace 0|1] \
         [--graph-seed N]"
    );
    ExitCode::from(2)
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn main() -> ExitCode {
    let mut workload: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut graph_seed: Option<u64> = None;
    let mut seconds = 30.0f64;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let Some(v) = args.next() else {
            return usage();
        };
        match a.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => match parse_u64(&v) {
                Some(n) => seed = Some(n),
                None => return usage(),
            },
            "--graph-seed" => match parse_u64(&v) {
                Some(n) => graph_seed = Some(n),
                None => return usage(),
            },
            "--seconds" => match v.parse::<f64>() {
                Ok(s) if s > 0.0 => seconds = s,
                _ => return usage(),
            },
            "--trace" => match v.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(w) = workload.as_deref().and_then(Workload::named) else {
        return usage();
    };
    let seed = seed.unwrap_or(w.pinned_seed);
    let graph_seed = graph_seed.unwrap_or(w.pinned_seed);
    let mut tracer = Tracer::new(traced);
    let report = match workload::run(&w, seed, graph_seed, seconds, &mut tracer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.print(traced);
    ExitCode::SUCCESS
}
