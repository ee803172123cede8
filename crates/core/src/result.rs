//! Discovery outputs: discovered GFDs with supports plus run statistics.

use std::time::Duration;

use gfd_graph::Interner;
use gfd_logic::Gfd;

use crate::hspawn::HSpawnStats;

/// A GFD produced by discovery, with its provenance.
#[derive(Clone, Debug)]
pub struct DiscoveredGfd {
    /// The dependency.
    pub gfd: Gfd,
    /// `supp(φ, G)`; for negative GFDs, the support of the base (§4.2).
    pub support: usize,
    /// Pattern level (edge count) at which it was mined.
    pub level: usize,
    /// Confidence at verification time: `1.0` for exact rules (the
    /// default discovery problem); below `1.0` only when mining with
    /// `min_confidence < 1` (§8's approximate adaptation).
    pub confidence: f64,
}

impl DiscoveredGfd {
    /// Renders `gfd (supp=…)`, with the confidence when approximate.
    pub fn display(&self, interner: &Interner) -> String {
        if self.confidence < 1.0 {
            format!(
                "{} (supp={}, conf={:.2})",
                self.gfd.display(interner),
                self.support,
                self.confidence
            )
        } else {
            format!("{} (supp={})", self.gfd.display(interner), self.support)
        }
    }
}

/// Counters and phase timings of one discovery run. [`crate::Driver`]
/// alone writes the timer and work fields, from the operations of every
/// runtime's executor; a resumed run starts from its checkpoint's counts.
///
/// The two work meters count memory touches. They are pure functions of
/// the input and, on the parallel runtimes, of how the worker count (with
/// the runtime's range or partition knobs, derived from it by default)
/// cuts row spaces into ranges or fragments. Each accepted work unit
/// counts once, however often it was retried or speculated:
///
/// * `spawning_work` sums every harvest's [`crate::RawHarvest::work`]:
///   one call per parent on seq, one per row range (steal) or fragment
///   (barrier) otherwise. A node's signature counts once per call, so a
///   cut row space can meter more than seq's single pass.
/// * `evaluation_work` sums the [`crate::BitmapIndex::work`] of the
///   evaluations that ran each lattice. A pattern steal mines whole on
///   one shard (its `MineRhs` units) meters exactly seq's value; lattices
///   evaluated per range (steal) or fragment (barrier) meter those
///   per-shard evaluations instead.
#[derive(Clone, Debug, Default)]
pub struct DiscoveryStats {
    /// Pattern extensions proposed by vertical spawning.
    pub patterns_spawned: usize,
    /// Patterns verified with `supp ≥ σ`.
    pub patterns_verified: usize,
    /// Spawned patterns with zero matches (negative candidates, case (a)).
    pub patterns_empty: usize,
    /// Spawned patterns with `0 < supp < σ` (pruned by Lemma 4(c)).
    pub patterns_infrequent: usize,
    /// Spawned patterns merged into an existing isomorphism class.
    pub patterns_deduped: usize,
    /// Literal-lattice counters.
    pub hspawn: HSpawnStats,
    /// Failed work units re-queued within the retry budget (parallel
    /// fault-tolerant runs; zero elsewhere).
    pub retries: u64,
    /// Work units moved off a crashed worker or re-dispatched by the
    /// straggler watermark.
    pub requeued_units: u64,
    /// Speculative re-executions that beat the original result.
    pub speculative_wins: u64,
    /// Waves that needed any recovery action.
    pub recovered_waves: u64,
    /// Positive GFDs emitted.
    pub positive: usize,
    /// Negative GFDs emitted.
    pub negative: usize,
    /// Wall time seeding the roots and joining each level's children.
    pub matching_time: Duration,
    /// Wall time handing over each parent's raw extension harvest. The
    /// steal runtime harvests a level's parents inside the previous
    /// level's build wave, so its harvest time lands in `catalog_time`.
    pub spawning_harvest_time: Duration,
    /// Wall time merging harvests into ranked proposals, including
    /// `NVSpawn` candidate generation (the driver's own work).
    pub spawning_merge_time: Duration,
    /// Deterministic spawning work (see the type docs), gated in CI
    /// against the checked-in benchmark value.
    pub spawning_work: u64,
    /// Deterministic lattice-evaluation work (see the type docs), gated
    /// in CI against the checked-in benchmark value.
    pub evaluation_work: u64,
    /// Wall time building match tables and harvesting candidate literals.
    pub catalog_time: Duration,
    /// Wall time in the literal lattice (`HSpawn`/`NHSpawn` candidate
    /// evaluation): the rest of each `mine` operation.
    pub lattice_time: Duration,
    /// Wall time of the driver's run.
    pub total_time: Duration,
    /// Peak resident set of the whole process, sampled when the run
    /// finishes (`VmHWM` on Linux; `0` where the kernel doesn't expose
    /// it). A process-wide high-water mark, not a per-run delta — but the
    /// perf harness runs one discovery per process, so the number is the
    /// run's footprint.
    pub peak_rss_bytes: u64,
    /// Exact bytes held by the input graph's frozen flat arrays
    /// ([`gfd_graph::Graph::memory_bytes`]).
    pub graph_bytes: u64,
    /// Capacity-growth events while the input graph was built: zero when
    /// it came through the pre-reserving streaming loader or datagen.
    pub graph_reallocs: u64,
}

impl DiscoveryStats {
    /// Wall time in vertical spawning: harvest plus merge.
    pub fn spawning_time(&self) -> Duration {
        self.spawning_harvest_time + self.spawning_merge_time
    }

    /// Wall time in dependency validation: catalog plus lattice.
    pub fn validation_time(&self) -> Duration {
        self.catalog_time + self.lattice_time
    }
}

/// Peak resident set size of this process in bytes: `VmHWM` from
/// `/proc/self/status` on Linux, `0` on platforms without procfs. Cheap
/// enough to sample once per run (one tiny file read).
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_sane() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            // Any running test binary has touched at least a megabyte and
            // far less than a terabyte.
            assert!(rss > 1 << 20, "implausibly small VmHWM: {rss}");
            assert!(rss < 1 << 40, "implausibly large VmHWM: {rss}");
        }
    }
}

/// The result of `SeqDis`/`ParDis`: the set `Σ` (before cover computation)
/// and run statistics.
#[derive(Debug, Default)]
pub struct DiscoveryResult {
    /// All `k`-bounded minimum `σ`-frequent GFDs found.
    pub gfds: Vec<DiscoveredGfd>,
    /// Run counters.
    pub stats: DiscoveryStats,
}

impl DiscoveryResult {
    /// The bare GFDs (for cover computation and validation).
    pub fn rules(&self) -> Vec<Gfd> {
        self.gfds.iter().map(|d| d.gfd.clone()).collect()
    }

    /// Count of positive rules.
    pub fn positive_count(&self) -> usize {
        self.gfds.iter().filter(|d| d.gfd.is_positive()).count()
    }

    /// Count of negative rules.
    pub fn negative_count(&self) -> usize {
        self.gfds.iter().filter(|d| d.gfd.is_negative()).count()
    }
}
