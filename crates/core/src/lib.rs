//! # gfd-core — GFD discovery (the paper's primary contribution)
//!
//! The discovery problem of *Discovering Graph Functional Dependencies*
//! (Fan et al., SIGMOD 2018), §4–§5: given a graph `G`, a node bound `k`
//! and a support threshold `σ`, find a cover of all `k`-bounded minimum
//! `σ`-frequent GFDs — positive and negative — in one integrated levelwise
//! process:
//!
//! * [`config`] — run parameters `(k, σ, Γ, …)`,
//! * [`table`] — the match table fusing pattern matching with FD mining,
//! * [`support`] — pivoted support `supp(φ, G)` and candidate evaluation,
//! * [`bitmap`] — lazily built per-literal bitmaps turning candidate
//!   evaluation into word-wise ANDs + popcounts,
//! * [`catalog`] — candidate literals from `Γ` and frequent constants,
//! * [`gentree`] — the GFD generation tree `T` with `iso(Q)` dedup,
//! * [`driver`] — the levelwise schedule every runtime shares, generic over
//!   an [`Executor`] that owns the matches,
//! * [`vspawn`] — vertical spawning (`VSpawn`/`NVSpawn`),
//! * [`hspawn`] — horizontal spawning (`HSpawn`/`NHSpawn`) with Lemma 4
//!   pruning,
//! * [`seqdis`] — the sequential miner `SeqDis`,
//! * [`seqcover`] — the sequential cover `SeqCover`,
//! * [`result`] — outputs and statistics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitmap;
pub mod bound;
pub mod catalog;
pub mod config;
pub mod driver;
pub mod gentree;
pub mod hspawn;
pub mod result;
pub mod seqcover;
pub mod seqdis;
pub mod support;
pub mod table;
pub mod vspawn;

pub use bitmap::BitmapIndex;
pub use bound::{BoundPlans, BoundValidator, DEFAULT_BITMAP_THRESHOLD};
pub use catalog::{CatalogCounts, LiteralCatalog};
pub use config::{DiscoveryConfig, LiteralOrder};
pub use driver::{Driver, Executor, Joined, MineJob, MineOutcome, Mined, Spawn};
pub use gentree::{GenNode, GenTree, Inserted, NodeState};
pub use hspawn::{
    finish_negatives, merge_rhs_outcome, mine_dependencies, mine_dependencies_with,
    mine_rhs_reference, mine_rhs_with, CandidateEvaluator, Covered, HSpawnStats, MinedDependency,
    RangeEvaluator, RhsMineOutcome, TableEvaluator,
};
pub use result::{peak_rss_bytes, DiscoveredGfd, DiscoveryResult, DiscoveryStats};
pub use seqcover::{cover_indices, seq_cover, seq_cover_discovered};
pub use seqdis::seq_dis;
pub use support::{distinct_pivots, evaluate, lhs_satisfiable, CandidateStats, PartialStats};
pub use table::MatchTable;
pub use vspawn::{
    harvest, harvest_range, harvest_range_cached, harvest_range_reference, proposals_from_harvest,
    propose_extensions, propose_negative_extensions, Dir, ExtensionProposals, PivotAcc,
    ProposalAccumulator, RawHarvest, SignatureCache,
};
