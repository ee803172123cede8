//! # gfd — Discovering Graph Functional Dependencies
//!
//! A from-scratch Rust implementation of *Discovering Graph Functional
//! Dependencies* (Wenfei Fan, Chunming Hu, Xueli Liu, Ping Lu — SIGMOD
//! 2018): graph functional dependencies (GFDs) over property graphs, the
//! fixed-parameter-tractable reasoning procedures (satisfiability,
//! implication, validation), pivoted support with anti-monotonicity, the
//! sequential discovery algorithm `SeqDisGFD`, and the parallel-scalable
//! `DisGFD` over edge-cut fragmented graphs — plus the paper's baselines
//! (AMIE-style horn rules, path-pattern GCFDs, the split pipeline), data
//! generators, and a benchmark harness regenerating every figure and table
//! of the evaluation.
//!
//! ## Quick start
//!
//! ```
//! use gfd::prelude::*;
//!
//! // Build a property graph (§2.1).
//! let mut b = GraphBuilder::new();
//! let john = b.add_node("person");
//! let film = b.add_node("product");
//! b.set_attr(john, "type", "high_jumper");
//! b.set_attr(film, "type", "film");
//! b.add_edge(john, film, "create");
//! let g = b.build();
//!
//! // φ1 of the paper: film creators must be producers.
//! let q1 = Pattern::edge(
//!     PLabel::Is(g.interner().label("person")),
//!     PLabel::Is(g.interner().label("create")),
//!     PLabel::Is(g.interner().label("product")),
//! );
//! let ty = g.interner().attr("type");
//! let film_v = Value::Str(g.interner().symbol("film"));
//! let producer = Value::Str(g.interner().symbol("producer"));
//! let phi1 = Gfd::new(
//!     q1,
//!     vec![Literal::constant(1, ty, film_v)],
//!     Rhs::Lit(Literal::constant(0, ty, producer)),
//! );
//!
//! // Validation (§3) catches the inconsistency of Fig. 1.
//! assert!(!satisfies(&g, &phi1));
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`graph`] | property graphs `G = (V, E, L, F_A)` |
//! | [`pattern`] | patterns `Q[x̄]`, isomorphism matching, canonical codes |
//! | [`logic`] | GFDs, closure, satisfiability / implication / validation |
//! | [`core`] | discovery: support, generation tree, `SeqDis`, `SeqCover` |
//! | [`parallel`] | edge cut, barrier and work-stealing runtimes, `ParDis`, `ParCover` |
//! | [`baselines`] | AMIE, GCFD, split-pipeline comparisons |
//! | [`datagen`] | synthetic graphs, KB emulators, noise, Σ generators |
//! | [`extended`] | GFDs with comparison predicates and arithmetic (§8) |
//! | [`incremental`] | violation maintenance under graph updates |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use gfd_baselines as baselines;
pub use gfd_core as core;
pub use gfd_datagen as datagen;
pub use gfd_extended as extended;
pub use gfd_graph as graph;
pub use gfd_incremental as incremental;
pub use gfd_logic as logic;
pub use gfd_parallel as parallel;
pub use gfd_pattern as pattern;

use std::sync::Arc;

/// The most common imports in one place.
pub mod prelude {
    pub use gfd_core::{
        seq_cover, seq_cover_discovered, seq_dis, DiscoveredGfd, DiscoveryConfig, DiscoveryResult,
    };
    pub use gfd_datagen::{
        generate_gfds, inject_noise, knowledge_base, synthetic, GfdGenConfig, KbConfig, KbProfile,
        NoiseConfig, SyntheticConfig,
    };
    pub use gfd_extended::{
        discover_extended, ximplies, CmpOp, Term, XDiscoveryConfig, XGfd, XLiteral, XRhs,
    };
    pub use gfd_graph::{AttrId, Graph, GraphBuilder, Interner, LabelId, NodeId, Value};
    pub use gfd_incremental::{Update, UpdateBatch, ViolationDelta, ViolationMonitor};
    pub use gfd_logic::{
        find_violations, implies, is_satisfiable, satisfies, satisfies_all, violating_nodes, Gfd,
        Literal, Rhs,
    };
    pub use gfd_parallel::{par_cover, par_dis, ClusterConfig, ExecMode};
    pub use gfd_pattern::{find_all, pattern_support, End, Extension, PLabel, Pattern};
}

use prelude::*;

/// End-to-end sequential discovery (`SeqDisGFD`, §5): mines all `k`-bounded
/// minimum `σ`-frequent GFDs of `g` and returns a cover.
pub fn discover(g: &Graph, k: usize, sigma: usize) -> Vec<DiscoveredGfd> {
    discover_with(g, &DiscoveryConfig::new(k, sigma))
}

/// [`discover`] with full configuration control.
pub fn discover_with(g: &Graph, cfg: &DiscoveryConfig) -> Vec<DiscoveredGfd> {
    let result = seq_dis(g, cfg);
    seq_cover_discovered(&result.gfds)
}

/// End-to-end parallel discovery (`DisGFD`, §6) with `workers` workers;
/// produces the same cover as [`discover`], parallel-scalably.
pub fn discover_parallel(
    g: &Arc<Graph>,
    cfg: &DiscoveryConfig,
    workers: usize,
) -> Vec<DiscoveredGfd> {
    let ccfg = ClusterConfig::new(workers, ExecMode::Threads);
    let report = par_dis(g, cfg, &ccfg).expect("fault-free parallel discovery");
    let rules: Vec<Gfd> = report.result.gfds.iter().map(|d| d.gfd.clone()).collect();
    let cover =
        par_cover(&rules, workers, ExecMode::Threads, true).expect("fault-free parallel cover");
    cover
        .cover
        .into_iter()
        .map(|i| report.result.gfds[i].clone())
        .collect()
}
