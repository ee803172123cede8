//! # gfd-incremental — violation maintenance under graph updates
//!
//! Validation is the expensive leg of GFD enforcement: co-W\[1\]-hard in
//! general (Theorem 1(b)) and `O(|Σ|·|G|^k)` even for `k`-bounded rules
//! (Prop. 2). Knowledge bases, however, change by small increments. This
//! crate maintains the violation set of a rule set across update batches
//! by exploiting that `G ⊨ φ` is decided one match at a time (§2) and
//! that no update relabels a node: a batch can change the verdict of a
//! match only if the match contains a node the batch touches, so only
//! those matches are re-checked.
//!
//! * [`update`] — [`Update`] operations and [`UpdateBatch`]es,
//! * [`state`] — a mutable graph copy ([`GraphState`]) that applies a
//!   batch and re-freezes into an indexed [`gfd_graph::Graph`], the path
//!   for batches that change topology,
//! * [`monitor`] — the [`ViolationMonitor`]: one owned graph patched in
//!   place by attribute-only batches, stored violations keyed by pivot,
//!   per-variable plans seeded at the touched nodes (an attribute write
//!   only at the variables whose literals read the attribute), per-batch
//!   [`ViolationDelta`]s. Monitors base and extended GFDs together.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod monitor;
pub mod state;
pub mod update;

pub use monitor::{MonitorRule, RuleDelta, ViolationDelta, ViolationMonitor};
pub use state::GraphState;
pub use update::{Update, UpdateBatch};
