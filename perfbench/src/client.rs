//! The monitor's closed-loop client: seeded read targets on pivot-class
//! entities, seeded write batches of attribute corruptions, and the check
//! that re-derives reads outside the timed window.

use std::ops::ControlFlow;

use gfd_graph::{Graph, NodeId, Value};
use gfd_incremental::monitor::EntityVerdict;
use gfd_incremental::{MonitorRule, UpdateBatch};
use gfd_pattern::{CompiledPattern, PLabel};

/// SplitMix64: a small seeded generator, so the benchmark's samplers
/// depend on nothing but `--seed`.
pub struct Rng(u64);

impl Rng {
    /// A generator for one sampler stream of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Draws read targets as `perf --validate` does: a rule uniformly, then a
/// node of that rule's pivot label class uniformly.
pub struct PivotSampler {
    pivot_labels: Vec<PLabel>,
    rng: Rng,
}

impl PivotSampler {
    /// A sampler over the pivot classes of `rules`.
    pub fn new(rules: &[MonitorRule], rng: Rng) -> PivotSampler {
        PivotSampler {
            pivot_labels: rules
                .iter()
                .map(|r| r.pattern().node_label(r.pattern().pivot()))
                .collect(),
            rng,
        }
    }

    /// One pivot-class node of `g`.
    pub fn node(&mut self, g: &Graph) -> NodeId {
        let any = |rng: &mut Rng| NodeId::from_index(rng.below(g.node_count()));
        if self.pivot_labels.is_empty() {
            return any(&mut self.rng);
        }
        match self.pivot_labels[self.rng.below(self.pivot_labels.len())] {
            PLabel::Is(l) => {
                let class = g.nodes_with_label(l);
                if class.is_empty() {
                    any(&mut self.rng)
                } else {
                    class[self.rng.below(class.len())]
                }
            }
            PLabel::Wildcard => any(&mut self.rng),
        }
    }
}

/// Draws write batches the way the repository's incremental-maintenance
/// experiment (Ext-1 in `gfd-bench`'s `exp_extensions`) builds them:
/// single-attribute corruptions to a fresh value on spread-out
/// low-degree nodes, because curation edits touch entities, not hubs.
/// Ext-1 corrupts the lowest-degree node of each quarter of the degree
/// order, so it never touches the top quarter; here each target is drawn
/// uniformly from the 75% of nodes with the lowest degree. A batch holds
/// [`CORRUPTIONS`] targets, the second of Ext-1's batch sizes (1, 4, 16,
/// 64). Every corruption batch is later undone by a restoring batch, so
/// the graph the reads see does not drift with the number of steps a run
/// reaches.
pub struct Corruptor {
    /// Nodes of the lowest-degree three quarters, by `(degree, id)`.
    targets: Vec<NodeId>,
    rng: Rng,
}

/// Attribute corruptions per write batch.
pub const CORRUPTIONS: usize = 4;

impl Corruptor {
    /// A sampler over the low-degree nodes of `g` that carry attributes.
    pub fn new(g: &Graph, rng: Rng) -> Corruptor {
        let mut order: Vec<NodeId> = g.nodes().collect();
        order.sort_by_key(|&v| (g.degree(v), v));
        order.truncate(order.len() - order.len() / 4);
        order.retain(|&v| !g.attrs(v).is_empty());
        Corruptor {
            targets: order,
            rng,
        }
    }

    /// A corruption batch and the batch that undoes it: each of
    /// [`CORRUPTIONS`] distinct targets has one of its attributes set to
    /// `junk`, and the undo sets it back.
    pub fn batch(&mut self, g: &Graph, junk: Value) -> (UpdateBatch, UpdateBatch) {
        let (mut corrupt, mut undo) = (UpdateBatch::new(), UpdateBatch::new());
        let mut picked: Vec<NodeId> = Vec::with_capacity(CORRUPTIONS);
        while picked.len() < CORRUPTIONS.min(self.targets.len()) {
            let v = self.targets[self.rng.below(self.targets.len())];
            if picked.contains(&v) {
                continue;
            }
            picked.push(v);
            let attrs = g.attrs(v);
            let (attr, old) = attrs[self.rng.below(attrs.len())];
            corrupt.set_attr(v, attr, junk);
            undo.set_attr(v, attr, old);
        }
        (corrupt, undo)
    }
}

/// Re-derives the violations pivoted at `v` rule by rule, by pivot-seeded
/// matching and a literal check per match, and compares them with the
/// monitor's answer. Returns false on any difference.
pub fn read_agrees(
    g: &Graph,
    rules: &[MonitorRule],
    plans: &[CompiledPattern],
    v: NodeId,
    verdicts: &[EntityVerdict],
) -> bool {
    let mut answered = verdicts.iter().peekable();
    for (i, (rule, plan)) in rules.iter().zip(plans).enumerate() {
        let mut want: Vec<Vec<NodeId>> = Vec::new();
        let _ = plan.matcher(g).for_each_at(v, |m| {
            if !rule.match_satisfies(m, g) {
                want.push(m.to_vec());
            }
            ControlFlow::Continue(())
        });
        want.sort_unstable();
        want.dedup();
        let mut got: Vec<Vec<NodeId>> = match answered.peek() {
            Some(verdict) if verdict.rule == i => answered
                .next()
                .map_or(Vec::new(), |verdict| verdict.violations.clone()),
            _ => Vec::new(),
        };
        got.sort_unstable();
        got.dedup();
        if got != want {
            return false;
        }
    }
    answered.next().is_none()
}
