//! # gfd-logic — GFD semantics and reasoning
//!
//! Graph functional dependencies of *Discovering Graph Functional
//! Dependencies* (Fan et al., SIGMOD 2018): the dependency type and its
//! semantics (§2.2) plus the three reasoning problems of §3 via their
//! fixed-parameter-tractable characterisations:
//!
//! * [`literal`] — literals `x.A = c` / `x.A = y.B` and their satisfaction,
//! * [`gfd`] — `Q[x̄](X → l)` in normal form; positive/negative/trivial,
//! * [`closure`] — `closure(Σ_Q, X)` chase over `(var, attr)` terms,
//! * [`satisfiability`] — does `Σ` have a (non-vacuous) model?
//! * [`implication`] — `Σ ⊨ φ`,
//! * [`cover`] — the one cover engine: Lemma 6 pattern groups and a
//!   one-pass removal loop, shared by `SeqCover`, `ParCover` and the
//!   extended cover,
//! * [`validation`] — `G ⊨ φ`, violation enumeration,
//! * [`order`] — the reduction order `φ₁ ≪ φ₂` behind reduced GFDs (§4.1),
//! * [`explain`] — curator-facing violation diagnoses (§1's use case).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod closure;
pub mod cover;
pub mod explain;
pub mod gfd;
pub mod implication;
pub mod literal;
pub mod order;
pub mod satisfiability;
pub mod text;
pub mod validation;

pub use closure::{closure_of, closure_of_refs, enforced, Closure, ClosureScratch};
pub use cover::{cover_groups, cover_survivors, removal_order, CoverGroup, CoverRule};
pub use explain::{explain_match, explain_violations, Cause, Explanation};
pub use gfd::{Gfd, Rhs};
pub use implication::{equivalent, implied_by_rest, implies, implies_refs};
pub use literal::{normalize_literals, Literal};
pub use order::gfd_reduces;
pub use satisfiability::{is_satisfiable, satisfiable_witness};
pub use text::{parse_gfd, parse_rules, render_rules, RuleParseError};
pub use validation::{find_violations, match_satisfies, satisfies, satisfies_all, violating_nodes};
