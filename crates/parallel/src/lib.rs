//! # gfd-parallel — parallel-scalable GFD discovery (§6)
//!
//! The parallel algorithms of *Discovering Graph Functional Dependencies*
//! (Fan et al., SIGMOD 2018): `DisGFD = ParDis + ParCover`, proven parallel
//! scalable relative to the sequential `SeqDisGFD` (Theorem 5).
//!
//! * [`partition`] — degree-balanced edge-cut fragmentation (§6.1) plus
//!   the deterministic range splitting behind work units,
//! * [`cluster`] — the master/worker superstep runtime with two execution
//!   modes: real threads and a simulated `n`-machine cluster with
//!   per-worker cost attribution + a communication model,
//! * [`steal`] — the work-stealing task pool: `(pattern, pivot-range)` and
//!   `(rule, pivot-range)` units pulled from per-worker injector deques
//!   over shared compiled structures, with the same two execution modes,
//! * [`pardis`] — parallel mining (§6.2): `gfd-core`'s levelwise driver
//!   over either runtime ([`Runtime`]), with distributed incremental joins
//!   and skew re-balancing on the barrier runtime,
//! * [`parcover`] — parallel cover with Lemma 6 grouping and LPT or
//!   group-stealing load balancing (§6.3).
//!
//! Ablations from §7 are configuration points: `ParGFDn` disables Lemma 4
//! pruning (`DiscoveryConfig::enable_pruning = false`), `ParGFDnb` disables
//! re-balancing (`ClusterConfig::load_balance = false`), `ParCovern`
//! disables grouping (`par_cover(…, grouping = false)`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod fault;
pub mod parcover;
pub mod pardis;
pub mod partition;
pub mod steal;

pub use cluster::{Clocks, Cluster, ClusterConfig, ExecMode, Task, TaskResult, WorkerCtx};
pub use fault::{Checkpoint, FaultConfig, FaultError, FaultPlan, FaultStats, UnitFault};
pub use parcover::{par_cover, par_cover_with_runtime, ParCoverReport};
pub use pardis::{par_dis, par_dis_with_runtime, ParDisReport, Runtime};
pub use partition::{edge_cut, node_owner, split_ranges, EdgeCutPartition, Shard};
pub use steal::{par_dis_steal, StealConfig, StealPool, Unit, UnitResult};
