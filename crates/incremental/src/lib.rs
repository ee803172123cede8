//! # gfd-incremental — violation maintenance under graph updates
//!
//! Validation is the expensive leg of GFD enforcement: co-W\[1\]-hard in
//! general (Theorem 1(b)) and `O(|Σ|·|G|^k)` even for `k`-bounded rules
//! (Prop. 2). Knowledge bases, however, change by small increments. This
//! crate maintains the violation set of a rule set across update batches
//! by exploiting the pivot locality the paper builds into its support
//! definition (§4.1): a match pivoted at `z` lives entirely within the
//! `d_Q`-neighbourhood of `h(z)`, so an update can only affect matches
//! whose pivots are within `d_Q` hops of the touched nodes.
//!
//! * [`update`] — [`Update`] operations and [`UpdateBatch`]es,
//! * [`state`] — a mutable graph copy ([`GraphState`]) that applies a
//!   batch and re-freezes into an indexed [`gfd_graph::Graph`], the path
//!   for batches that change topology,
//! * [`monitor`] — the [`ViolationMonitor`]: one owned graph patched in
//!   place by attribute-only batches, stored violations keyed by pivot,
//!   bounded BFS to the affected pivots, pivot-anchored re-matching,
//!   per-batch [`ViolationDelta`]s. Monitors base and extended GFDs
//!   together.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod monitor;
pub mod state;
pub mod update;

pub use monitor::{MonitorRule, RuleDelta, ViolationDelta, ViolationMonitor};
pub use state::GraphState;
pub use update::{Update, UpdateBatch};
