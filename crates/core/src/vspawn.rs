//! Vertical spawning (`VSpawn` / `NVSpawn` pattern proposals, §5.1).
//!
//! Extensions of a verified pattern `Q` are harvested **from its matches**:
//! for every match `h` and variable `x`, each graph edge incident to `h(x)`
//! proposes either a new-node extension (the far endpoint is outside the
//! match) or a cycle-closing extension (the far endpoint is another bound
//! image). Proposals are scored by the number of distinct pivots whose
//! matches exhibit them — an upper bound on the support of the spawned
//! pattern — and pruned at `σ` (Lemma 4(c)).
//!
//! [`harvest_range`] is **label-indexed**: match rows are grouped by each
//! variable's image, and every distinct image is summarised once from the
//! frozen graph's per-(node, label) adjacency runs
//! ([`gfd_graph::Graph::out_label_runs`], its NLF view). The summary is
//! applied to the whole group's pivots in bulk; only the (rare) edges
//! *between* bound images — closing proposals and the new-node exclusions
//! they imply — are resolved per row, via binary-searched
//! `edges_between` probes instead of full incident-edge walks. The
//! superseded per-row scan survives as [`harvest_range_reference`], the
//! oracle the equivalence suite pins the indexed path against.
//!
//! The harvest is split into a raw, **mergeable** phase ([`harvest`] /
//! [`ProposalAccumulator`]) and a finalisation phase
//! ([`proposals_from_harvest`]) so that the parallel runtimes can run the
//! raw phase per fragment or row range — and *merge* per worker, the
//! master only combining one accumulator per worker — while yielding
//! exactly the proposals the sequential miner would generate (§6.2).
//!
//! Wildcard upgrade: when one extension point sees at least
//! `wildcard_min_labels` distinct endpoint labels (resp. edge labels), a
//! wildcard variant is proposed so rules like `Q₆[x:_, y:_]` of Fig. 8 are
//! reachable.
//!
//! `NVSpawn` proposals: schema-level label triples that occur frequently in
//! `G` but never at the matches of `Q` yield guaranteed-zero-support
//! extensions — the candidates for negative GFDs `Q'(∅ → false)` (§4.2
//! case (a), e.g. the mutual-`parent` pattern Q₃ of Example 8).

use gfd_graph::{FxHashMap, FxHashSet, Graph, LabelId, NodeId, TripleStat};
use gfd_pattern::{End, Extension, MatchSet, PLabel, Pattern, Var};

use crate::config::DiscoveryConfig;

/// Direction of a new-node extension relative to the anchor variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Dir {
    /// `anchor --edge--> new node`.
    Out,
    /// `new node --edge--> anchor`.
    In,
}

/// Pivot accumulator behind each harvested extension: an append-mostly
/// buffer whose prefix is kept sorted and deduplicated by periodic
/// compaction. Bulk extension (one image group's pivots at a time) is a
/// memcpy rather than per-pivot hash inserts, and merging two accumulators
/// is concatenation; the distinct-pivot count materialises on
/// [`PivotAcc::finish`].
#[derive(Clone, Debug, Default)]
pub struct PivotAcc {
    /// `data[..sorted]` is sorted + deduplicated; the tail is pending.
    data: Vec<NodeId>,
    sorted: usize,
}

impl PivotAcc {
    /// Appends one pivot (duplicates welcome).
    #[inline]
    pub fn push(&mut self, pv: NodeId) {
        self.data.push(pv);
        self.maybe_compact();
    }

    /// Appends a batch of pivots (duplicates welcome).
    #[inline]
    pub fn extend_from_slice(&mut self, pvs: &[NodeId]) {
        self.data.extend_from_slice(pvs);
        self.maybe_compact();
    }

    /// Absorbs another accumulator.
    pub fn absorb(&mut self, other: &PivotAcc) {
        self.extend_from_slice(&other.data);
    }

    #[inline]
    fn maybe_compact(&mut self) {
        // Compact when the pending tail outgrows the sorted prefix: the
        // buffer never holds more than ~2× the distinct pivots (+ slack),
        // and total compaction work stays O(n log n) amortised.
        if self.data.len() - self.sorted > self.sorted.max(32) {
            self.compact();
        }
    }

    fn compact(&mut self) {
        if self.data.len() > self.sorted {
            self.data.sort_unstable();
            self.data.dedup();
            self.sorted = self.data.len();
        }
    }

    /// Compacts and returns the sorted, distinct pivots.
    pub fn finish(&mut self) -> &[NodeId] {
        self.compact();
        &self.data
    }

    /// Currently buffered elements (compacted + pending, not distinct).
    pub fn buffered(&self) -> usize {
        self.data.len()
    }
}

/// Raw per-extension pivot accumulators harvested from one match set (or
/// one row range of it). Mergeable across fragments and ranges: pivot
/// accumulators concatenate and deduplicate at finalisation, so any merge
/// order reproduces exactly the whole-set harvest.
#[derive(Debug, Default)]
pub struct RawHarvest {
    /// `(anchor var, direction, edge label, endpoint label)` → pivots.
    pub new_node: FxHashMap<(Var, Dir, LabelId, LabelId), PivotAcc>,
    /// `(src var, dst var, edge label)` → pivots, for cycle-closing.
    pub closing: FxHashMap<(Var, Var, LabelId), PivotAcc>,
    /// Deterministic work: match rows plus adjacency entries visited. A
    /// pure function of `(Q, rows, G)` — the CI spawning gate bounds it —
    /// though *not* of how rows are cut into ranges (each range summarises
    /// its own distinct images).
    pub work: u64,
}

impl RawHarvest {
    /// Unions another harvest into this one (the [`ProposalAccumulator`]
    /// merge path; accumulators concatenate, dedup happens at
    /// finalisation).
    fn merge(&mut self, other: RawHarvest) {
        use std::collections::hash_map::Entry;
        // gfd-lint: allow(nondeterminism) — keyed absorb is a commutative union; finalisation sorts and dedups every pivot buffer
        for (k, v) in other.new_node {
            match self.new_node.entry(k) {
                Entry::Occupied(mut e) => e.get_mut().absorb(&v),
                Entry::Vacant(e) => {
                    e.insert(v); // move the buffer, don't copy it
                }
            }
        }
        // gfd-lint: allow(nondeterminism) — same commutative keyed union as new_node above
        for (k, v) in other.closing {
            match self.closing.entry(k) {
                Entry::Occupied(mut e) => e.get_mut().absorb(&v),
                Entry::Vacant(e) => {
                    e.insert(v);
                }
            }
        }
        self.work += other.work;
    }

    /// Approximate shipped size in bytes (for the simulated cluster's
    /// communication model): the buffered pivot elements of every
    /// accumulator — compacted prefix plus pending tail, which is what a
    /// worker would actually serialise — plus per-entry key overhead.
    pub fn byte_size(&self) -> usize {
        // gfd-lint: allow(nondeterminism) — commutative sum; visit order cannot change a total
        let new_entries: usize = self.new_node.values().map(PivotAcc::buffered).sum();
        // gfd-lint: allow(nondeterminism) — commutative sum; visit order cannot change a total
        let closing_entries: usize = self.closing.values().map(PivotAcc::buffered).sum();
        let entries: usize = new_entries + closing_entries;
        let key_overhead =
            std::mem::size_of::<(Var, Dir, LabelId, LabelId)>() + std::mem::size_of::<PivotAcc>();
        entries * std::mem::size_of::<NodeId>()
            + (self.new_node.len() + self.closing.len()) * key_overhead
            + std::mem::size_of::<u64>()
    }
}

/// Mergeable multi-pattern harvest state: one [`RawHarvest`] per
/// generation-tree node, folded in as workers finish harvest ranges and
/// merged as a monoid. The work-stealing runtime keeps one per worker and
/// folds harvests into it mid-wave; the master combines at most `workers`
/// accumulators and [`take`](ProposalAccumulator::take)s each parent's
/// merged harvest when proposing. The barrier runtime folds its
/// per-fragment broadcasts through the same path.
#[derive(Debug, Default)]
pub struct ProposalAccumulator {
    harvests: FxHashMap<usize, RawHarvest>,
}

impl ProposalAccumulator {
    /// Folds one range's (or fragment's) raw harvest for `node` in.
    pub fn fold(&mut self, node: usize, raw: RawHarvest) {
        match self.harvests.entry(node) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().merge(raw),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(raw);
            }
        }
    }

    /// Monoid merge: unions another accumulator into this one. Any merge
    /// order yields the same finalised proposals.
    pub fn merge(&mut self, other: ProposalAccumulator) {
        // gfd-lint: allow(nondeterminism) — monoid fold: per-node merge is commutative and finalisation sorts, so fold order is free
        for (node, raw) in other.harvests {
            self.fold(node, raw);
        }
    }

    /// Removes and returns `node`'s merged harvest (empty if none was
    /// folded — a pattern whose matches proposed nothing).
    pub fn take(&mut self, node: usize) -> RawHarvest {
        self.harvests.remove(&node).unwrap_or_default()
    }

    /// Whether nothing has been folded in.
    pub fn is_empty(&self) -> bool {
        self.harvests.is_empty()
    }

    /// Total deterministic harvest work folded in (rows + adjacency
    /// entries visited).
    pub fn work(&self) -> u64 {
        // gfd-lint: allow(nondeterminism) — commutative sum; visit order cannot change a total
        self.harvests.values().map(|h| h.work).sum()
    }

    /// Approximate shipped size in bytes across all nodes.
    pub fn byte_size(&self) -> usize {
        // gfd-lint: allow(nondeterminism) — commutative sum; visit order cannot change a total
        self.harvests.values().map(RawHarvest::byte_size).sum()
    }
}

/// Harvested extension proposals for one pattern.
#[derive(Debug, Default)]
pub struct ExtensionProposals {
    /// Extensions whose harvested pivot count reached `σ` (or every
    /// harvested extension when pruning is disabled), with their counts.
    pub frequent: Vec<(Extension, usize)>,
    /// Every extension observed on at least one match — extensions *not* in
    /// this set provably have zero matches.
    pub seen: FxHashSet<Extension>,
}

/// Scans the matches of `q` and collects raw extension pivot sets.
pub fn harvest(q: &Pattern, ms: &MatchSet, g: &Graph, cfg: &DiscoveryConfig) -> RawHarvest {
    harvest_range(q, ms, g, cfg, 0, ms.len())
}

/// One distinct extension signature of a node, from its label-run summary.
#[derive(Clone, Copy, Debug)]
struct SigEntry {
    dir: Dir,
    el: LabelId,
    nl: LabelId,
    /// Distinct neighbours carrying the signature.
    cnt: u32,
}

/// A cached node-signature span in a [`SignatureCache`] arena.
#[derive(Clone, Copy, Debug)]
struct SigSpan {
    start: u32,
    end: u32,
    /// Adjacency work the summary originally cost — re-charged on every
    /// per-call first hit so [`RawHarvest::work`] stays a pure function of
    /// `(Q, rows, G)`, independent of cache state.
    work: u64,
    /// Last call that charged this span (one charge per call, matching the
    /// once-per-distinct-image accounting of an uncached harvest).
    stamp: u32,
}

/// Generation-scoped memo of node extension signatures. The graph is
/// frozen for the whole discovery run, so per-(node, label) run summaries
/// never invalidate: the sequential miner keeps one cache across every
/// pattern, and each work-stealing worker keeps one across every harvest
/// unit it executes. Cache state never leaks into results *or* work
/// accounting — a cache hit recharges the span's original cost, so
/// [`harvest_range_cached`] returns bit-identical harvests (including
/// `work`) to a cold [`harvest_range`].
#[derive(Debug, Default)]
pub struct SignatureCache {
    arena: Vec<SigEntry>,
    spans: FxHashMap<NodeId, SigSpan>,
    call: u32,
}

impl SignatureCache {
    /// Starts a new harvest call: spans charge their work once per call.
    fn begin_call(&mut self) {
        if self.call == u32::MAX {
            // gfd-lint: allow(nondeterminism) — uniform stamp reset over every span; visit order cannot matter
            for sp in self.spans.values_mut() {
                sp.stamp = 0;
            }
            self.call = 0;
        }
        self.call += 1;
    }

    /// The cached span for `n`, summarising on first sight. `work` is
    /// charged exactly once per call per node, hit or miss.
    fn lookup_or_insert(&mut self, g: &Graph, n: NodeId, work: &mut u64) -> (u32, u32) {
        if let Some(sp) = self.spans.get_mut(&n) {
            if sp.stamp != self.call {
                sp.stamp = self.call;
                *work += sp.work;
            }
            return (sp.start, sp.end);
        }
        let start = self.arena.len() as u32;
        let before = *work;
        node_signature(g, n, &mut self.arena, work);
        let sp = SigSpan {
            start,
            end: self.arena.len() as u32,
            work: *work - before,
            stamp: self.call,
        };
        self.spans.insert(n, sp);
        (sp.start, sp.end)
    }

    /// Distinct nodes summarised so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been summarised yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Appends `n`'s incident extension signatures to the arena, from its
/// per-(node, label) adjacency runs: one entry per distinct `(dir, edge
/// label, endpoint label)` with the count of distinct neighbours carrying
/// it. Each distinct image is summarised once per harvest call.
fn node_signature(g: &Graph, n: NodeId, arena: &mut Vec<SigEntry>, work: &mut u64) {
    for (el, edges, nbrs) in g.out_label_runs(n) {
        *work += edges.len() as u64;
        signature_run(g, Dir::Out, el, nbrs, arena);
    }
    for (el, edges, nbrs) in g.in_label_runs(n) {
        *work += edges.len() as u64;
        signature_run(g, Dir::In, el, nbrs, arena);
    }
}

/// Folds one adjacency run into the signature summary from its packed
/// neighbour slice: runs are neighbour-sorted, so parallel edges collapse
/// and each distinct neighbour bumps its endpoint label's count once.
fn signature_run(g: &Graph, dir: Dir, el: LabelId, nbrs: &[NodeId], out: &mut Vec<SigEntry>) {
    let start = out.len();
    let mut prev: Option<NodeId> = None;
    for &d in nbrs {
        if prev == Some(d) {
            continue;
        }
        prev = Some(d);
        let nl = g.node_label(d);
        match out[start..].iter_mut().find(|s| s.nl == nl) {
            Some(s) => s.cnt += 1,
            None => out.push(SigEntry {
                dir,
                el,
                nl,
                cnt: 1,
            }),
        }
    }
}

/// One row's bound-edge profile at an anchor: the signatures its edges to
/// *bound* images carry, with distinct-endpoint counts. Rows with equal
/// profiles are interchangeable for new-node exclusion and batch together.
type BoundProfile = Vec<(Dir, LabelId, LabelId, u32)>;

fn bump_profile(profile: &mut BoundProfile, dir: Dir, el: LabelId, nl: LabelId) {
    match profile
        .iter_mut()
        .find(|(d, e, n, _)| *d == dir && *e == el && *n == nl)
    {
        Some(slot) => slot.3 += 1,
        None => profile.push((dir, el, nl, 1)),
    }
}

/// [`harvest`] over the match rows `[lo, hi)` only — the harvest work unit
/// of the work-stealing runtime. Merging range harvests (through
/// [`ProposalAccumulator`]) reproduces exactly the whole-set harvest, the
/// same invariant the per-fragment split relies on.
pub fn harvest_range(
    q: &Pattern,
    ms: &MatchSet,
    g: &Graph,
    cfg: &DiscoveryConfig,
    lo: usize,
    hi: usize,
) -> RawHarvest {
    // A fresh cache reproduces the historical uncached behaviour exactly.
    harvest_range_cached(q, ms, g, cfg, lo, hi, &mut SignatureCache::default())
}

/// [`harvest_range`] with a generation-scoped [`SignatureCache`]: node
/// summaries computed for earlier patterns (or earlier ranges) are reused
/// instead of re-walking the adjacency runs. Output — including the
/// deterministic `work` — is bit-identical to the uncached call.
pub fn harvest_range_cached(
    q: &Pattern,
    ms: &MatchSet,
    g: &Graph,
    cfg: &DiscoveryConfig,
    lo: usize,
    hi: usize,
    cache: &mut SignatureCache,
) -> RawHarvest {
    assert!(lo <= hi && hi <= ms.len(), "range out of bounds");
    let mut raw = RawHarvest::default();
    let can_grow = q.node_count() < cfg.k;
    let pivot = q.pivot();
    let arity = q.node_count();
    let rows = hi - lo;
    raw.work += rows as u64;
    cache.begin_call();

    // Pivot image per row (the pivot column runs in row order, which the
    // adjacent-duplicate collapse below exploits).
    let pivots: Vec<NodeId> = (lo..hi).map(|i| ms.get(i)[pivot]).collect();

    // Per-other-variable pair cache: edges between the anchor image and a
    // bound image are probed once per *run* of equal endpoints, not per
    // row (incremental joins emit rows in parent order, so images run).
    let mut pair_cache: Vec<PairCache> = (0..arity).map(|_| PairCache::default()).collect();
    let mut profile: BoundProfile = Vec::new();

    for x in 0..arity {
        let mut r = 0usize;
        while r < rows {
            // One group = a maximal run of rows sharing the image of `x`.
            let n = ms.get(lo + r)[x];
            let start = r;
            while r < rows && ms.get(lo + r)[x] == n {
                r += 1;
            }

            let span = if can_grow {
                cache.lookup_or_insert(g, n, &mut raw.work)
            } else {
                (0, 0) // closing proposals only: no new-node signatures
            };

            for slot in &mut pair_cache {
                slot.valid = false;
            }
            // Rows bucketed by bound-edge profile; `clean` rows have none.
            let mut clean: Vec<NodeId> = Vec::new();
            let mut buckets: Vec<(BoundProfile, Vec<NodeId>)> = Vec::new();
            let mut last_bucket = usize::MAX;

            #[allow(clippy::needless_range_loop)] // `i` also indexes `ms` rows
            for i in start..r {
                let m = ms.get(lo + i);
                let pv = pivots[i];
                profile.clear();
                for (y, slot) in pair_cache.iter_mut().enumerate() {
                    let d = m[y];
                    if m[..y].contains(&d) {
                        continue; // first-occurrence var owns the image
                    }
                    if !slot.valid || slot.d != d {
                        slot.recompute(q, g, x, y, n, d, can_grow, &mut raw.work);
                    }
                    // gfd-lint: allow(nondeterminism) — `slot.closing` is a Vec<LabelId> cache, not the RawHarvest hash map of the same name
                    for &el in &slot.closing {
                        raw.closing.entry((x, y, el)).or_default().push(pv);
                    }
                    for &(dir, el, nl) in &slot.deltas {
                        bump_profile(&mut profile, dir, el, nl);
                    }
                }
                if !can_grow {
                    continue; // no new-node bookkeeping
                }
                if profile.is_empty() {
                    clean.push(pv);
                } else if last_bucket != usize::MAX && buckets[last_bucket].0 == profile {
                    buckets[last_bucket].1.push(pv);
                } else {
                    match buckets.iter().position(|(p, _)| *p == profile) {
                        Some(b) => {
                            buckets[b].1.push(pv);
                            last_bucket = b;
                        }
                        None => {
                            buckets.push((profile.clone(), vec![pv]));
                            last_bucket = buckets.len() - 1;
                        }
                    }
                }
            }

            // Adjacent-duplicate collapse before the bulk appends: within
            // a group the pivot column still runs, so this removes most
            // repetition at O(size) without a sort.
            clean.dedup();
            for (_, b) in &mut buckets {
                b.dedup();
            }

            // Bulk new-node proposals: a row exhibits a signature unless
            // its bound edges cover every neighbour carrying it.
            let signature = &cache.arena[span.0 as usize..span.1 as usize];
            let mut slices: Vec<&[NodeId]> = Vec::new();
            for s in signature {
                slices.clear();
                if !clean.is_empty() {
                    slices.push(&clean);
                }
                for (p, pvs) in &buckets {
                    let bound = p
                        .iter()
                        .find(|(d, e, l, _)| *d == s.dir && *e == s.el && *l == s.nl)
                        .map_or(0, |(_, _, _, c)| *c);
                    if bound < s.cnt {
                        slices.push(pvs);
                    }
                }
                if !slices.is_empty() {
                    let acc = raw.new_node.entry((x, s.dir, s.el, s.nl)).or_default();
                    for pvs in &slices {
                        acc.extend_from_slice(pvs);
                    }
                }
            }
        }
    }
    raw
}

/// Cached resolution of the edges between a fixed anchor image `n` and one
/// bound endpoint `d`: the closing labels (edge labels `n → d` absent from
/// the pattern between the two variables) and the bound-signature deltas
/// `(dir, edge label, L(d))` the pair contributes to a row's profile.
/// Valid while consecutive rows keep the same endpoint in the same
/// variable — one pair probe per run, not per row.
#[derive(Clone, Debug)]
struct PairCache {
    d: NodeId,
    valid: bool,
    closing: Vec<LabelId>,
    deltas: Vec<(Dir, LabelId, LabelId)>,
}

impl Default for PairCache {
    fn default() -> Self {
        PairCache {
            d: NodeId(0),
            valid: false,
            closing: Vec::new(),
            deltas: Vec::new(),
        }
    }
}

impl PairCache {
    /// Re-probes the pair `n → d` / `d → n` via binary-searched
    /// `edges_between` slices. In-edges from bound images propose nothing
    /// (the out side of the owning pair covers them), so the in probe is
    /// profile bookkeeping only and skipped when growth is exhausted.
    #[allow(clippy::too_many_arguments)]
    fn recompute(
        &mut self,
        q: &Pattern,
        g: &Graph,
        x: Var,
        y: Var,
        n: NodeId,
        d: NodeId,
        grow: bool,
        work: &mut u64,
    ) {
        self.d = d;
        self.valid = true;
        self.closing.clear();
        self.deltas.clear();
        let nl = g.node_label(d);
        let (out, out_labels) = g.edges_between_labeled(n, d);
        *work += out.len() as u64;
        let mut idx = 0;
        while idx < out.len() {
            let el = out_labels[idx];
            while idx < out.len() && out_labels[idx] == el {
                idx += 1;
            }
            if !has_pattern_edge(q, x, y, el) {
                self.closing.push(el);
            }
            if grow {
                self.deltas.push((Dir::Out, el, nl));
            }
        }
        if grow {
            let (inn, in_labels) = g.edges_between_labeled(d, n);
            *work += inn.len() as u64;
            let mut idx = 0;
            while idx < inn.len() {
                let el = in_labels[idx];
                while idx < inn.len() && in_labels[idx] == el {
                    idx += 1;
                }
                self.deltas.push((Dir::In, el, nl));
            }
        }
    }
}

/// The superseded per-row incident-edge scan, kept as the reference oracle
/// for the harvest equivalence suite: walks every edge of every row image
/// and classifies it on the spot. Produces the same merged proposals as
/// [`harvest_range`] (the `work` counter differs — it measures each
/// algorithm's own visits).
pub fn harvest_range_reference(
    q: &Pattern,
    ms: &MatchSet,
    g: &Graph,
    cfg: &DiscoveryConfig,
    lo: usize,
    hi: usize,
) -> RawHarvest {
    assert!(lo <= hi && hi <= ms.len(), "range out of bounds");
    let mut raw = RawHarvest::default();
    let can_grow = q.node_count() < cfg.k;
    let pivot = q.pivot();
    raw.work += (hi - lo) as u64;

    for m in (lo..hi).map(|i| ms.get(i)) {
        let pv = m[pivot];
        for (x, &node) in m.iter().enumerate() {
            raw.work += (g.out_degree(node) + g.in_degree(node)) as u64;
            for &eid in g.out_edges(node) {
                let e = g.edge(eid);
                match m.iter().position(|&w| w == e.dst) {
                    Some(y) => {
                        if !has_pattern_edge(q, x, y, e.label) {
                            raw.closing.entry((x, y, e.label)).or_default().push(pv);
                        }
                    }
                    None => {
                        if can_grow {
                            raw.new_node
                                .entry((x, Dir::Out, e.label, g.node_label(e.dst)))
                                .or_default()
                                .push(pv);
                        }
                    }
                }
            }
            for &eid in g.in_edges(node) {
                let e = g.edge(eid);
                // Edges between two bound images are proposed once, from the
                // out-edge side above.
                if m.contains(&e.src) {
                    continue;
                }
                if can_grow {
                    raw.new_node
                        .entry((x, Dir::In, e.label, g.node_label(e.src)))
                        .or_default()
                        .push(pv);
                }
            }
        }
    }
    raw
}

/// Label diversity + pivot accumulation per extension point (wildcard
/// upgrade bookkeeping).
type DiversitySlot = (FxHashSet<LabelId>, PivotAcc);

/// Finalises a (possibly merged) harvest into ranked proposals, applying
/// the `σ` filter and wildcard upgrades. Takes the harvest mutably to
/// compact its pivot accumulators in place.
pub fn proposals_from_harvest(raw: &mut RawHarvest, cfg: &DiscoveryConfig) -> ExtensionProposals {
    let mut proposals = ExtensionProposals::default();
    let threshold = if cfg.enable_pruning { cfg.sigma } else { 1 };

    // Wildcard upgrades: group new-node keys by (var, dir, edge label) for
    // endpoint-label diversity and by (var, dir, endpoint label) for
    // edge-label diversity.
    let mut by_edge_label: FxHashMap<(Var, Dir, LabelId), DiversitySlot> = FxHashMap::default();
    let mut by_node_label: FxHashMap<(Var, Dir, LabelId), DiversitySlot> = FxHashMap::default();

    // gfd-lint: allow(nondeterminism) — feeds `seen` (membership-only set) and `frequent`, which is fully re-sorted with a total tie-break below
    for (&(x, dir, el, nl), pivots) in raw.new_node.iter_mut() {
        let pivots = pivots.finish();
        let ext = make_new_node_ext(x, dir, PLabel::Is(el), PLabel::Is(nl));
        proposals.seen.insert(ext);
        if pivots.len() >= threshold {
            proposals.frequent.push((ext, pivots.len()));
        }
        if cfg.wildcard_min_labels > 0 {
            let slot = by_edge_label.entry((x, dir, el)).or_default();
            slot.0.insert(nl);
            slot.1.extend_from_slice(pivots);
            let slot = by_node_label.entry((x, dir, nl)).or_default();
            slot.0.insert(el);
            slot.1.extend_from_slice(pivots);
        }
    }
    if cfg.wildcard_min_labels > 0 {
        // gfd-lint: allow(nondeterminism) — output lands in `frequent`, fully re-sorted with a total tie-break before use
        for (&(x, dir, el), (labels, pivots)) in by_edge_label.iter_mut() {
            if labels.len() >= cfg.wildcard_min_labels && pivots.finish().len() >= threshold {
                let ext = make_new_node_ext(x, dir, PLabel::Is(el), PLabel::Wildcard);
                proposals.seen.insert(ext);
                proposals.frequent.push((ext, pivots.finish().len()));
            }
        }
        // gfd-lint: allow(nondeterminism) — output lands in `frequent`, fully re-sorted with a total tie-break before use
        for (&(x, dir, nl), (labels, pivots)) in by_node_label.iter_mut() {
            if labels.len() >= cfg.wildcard_min_labels && pivots.finish().len() >= threshold {
                let ext = make_new_node_ext(x, dir, PLabel::Wildcard, PLabel::Is(nl));
                proposals.seen.insert(ext);
                proposals.frequent.push((ext, pivots.finish().len()));
            }
        }
    }

    // gfd-lint: allow(nondeterminism) — feeds `seen` (membership-only set) and `frequent`, which is fully re-sorted with a total tie-break below
    for (&(x, y, el), pivots) in raw.closing.iter_mut() {
        let ext = Extension {
            src: End::Var(x),
            dst: End::Var(y),
            label: PLabel::Is(el),
        };
        proposals.seen.insert(ext);
        if pivots.finish().len() >= threshold {
            proposals.frequent.push((ext, pivots.finish().len()));
        }
    }

    // Deterministic order: highest count first, then by structure.
    // gfd-lint: allow(nondeterminism) — total: ties on count break on format_key, injective on extensions
    proposals.frequent.sort_unstable_by(|a, b| {
        b.1.cmp(&a.1)
            .then_with(|| format_key(&a.0).cmp(&format_key(&b.0)))
    });
    proposals
}

/// Harvests extension proposals from the matches of `q` (sequential path:
/// harvest + finalise in one step).
pub fn propose_extensions(
    q: &Pattern,
    ms: &MatchSet,
    g: &Graph,
    cfg: &DiscoveryConfig,
) -> ExtensionProposals {
    proposals_from_harvest(&mut harvest(q, ms, g, cfg), cfg)
}

fn make_new_node_ext(x: Var, dir: Dir, edge: PLabel, node: PLabel) -> Extension {
    match dir {
        Dir::Out => Extension {
            src: End::Var(x),
            dst: End::New(node),
            label: edge,
        },
        Dir::In => Extension {
            src: End::New(node),
            dst: End::Var(x),
            label: edge,
        },
    }
}

/// A structural sort key for extensions. Injective: variables, new-node
/// labels and the wildcard occupy disjoint bit ranges of an endpoint key.
fn format_key(e: &Extension) -> (u8, u64, u64, u64) {
    let end_key = |end: &End| match end {
        End::Var(v) => (*v as u64) << 32,
        End::New(PLabel::Is(l)) => l.0 as u64 | (1 << 40),
        End::New(PLabel::Wildcard) => 2 << 40,
    };
    let lab = match e.label {
        PLabel::Is(l) => l.0 as u64,
        PLabel::Wildcard => u64::MAX,
    };
    (0, end_key(&e.src), end_key(&e.dst), lab)
}

fn has_pattern_edge(q: &Pattern, x: Var, y: Var, label: LabelId) -> bool {
    q.edges_between(x, y)
        .iter()
        .any(|&e| q.edges()[e].label == PLabel::Is(label))
}

/// Proposes guaranteed-zero-support extensions for `NVSpawn` (§5.1): label
/// triples frequent in `G` (≥ `σ` edges) that attach to a variable of `q`
/// but never occur at its matches (`!seen`). The returned patterns
/// `Q' = q.extend(ext)` have **no** matches, so `Q'(∅ → false)` is a
/// negative GFD with support `supp(q, G)` (the base, §4.2).
pub fn propose_negative_extensions(
    q: &Pattern,
    _g: &Graph,
    triples: &[TripleStat],
    seen: &FxHashSet<Extension>,
    cfg: &DiscoveryConfig,
) -> Vec<Extension> {
    let mut out = Vec::new();
    let cap = if cfg.max_negative_candidates == 0 {
        usize::MAX
    } else {
        cfg.max_negative_candidates
    };
    let can_grow = q.node_count() < cfg.k;

    'outer: for x in 0..q.node_count() {
        let PLabel::Is(lx) = q.node_label(x) else {
            continue; // only concrete-labelled anchors propose negatives
        };
        for t in triples {
            if (t.edge_count as usize) < cfg.sigma {
                continue;
            }
            // Outgoing new-node / closing candidates anchored at x.
            if t.src_label == lx {
                if can_grow {
                    let ext = make_new_node_ext(
                        x,
                        Dir::Out,
                        PLabel::Is(t.edge_label),
                        PLabel::Is(t.dst_label),
                    );
                    if !seen.contains(&ext) {
                        out.push(ext);
                        if out.len() >= cap {
                            break 'outer;
                        }
                    }
                }
                for y in 0..q.node_count() {
                    if y == x {
                        continue;
                    }
                    if q.node_label(y) == PLabel::Is(t.dst_label)
                        && !has_pattern_edge(q, x, y, t.edge_label)
                    {
                        let ext = Extension {
                            src: End::Var(x),
                            dst: End::Var(y),
                            label: PLabel::Is(t.edge_label),
                        };
                        if !seen.contains(&ext) {
                            out.push(ext);
                            if out.len() >= cap {
                                break 'outer;
                            }
                        }
                    }
                }
            }
            // Incoming new-node candidates anchored at x.
            if t.dst_label == lx && can_grow {
                let ext = make_new_node_ext(
                    x,
                    Dir::In,
                    PLabel::Is(t.edge_label),
                    PLabel::Is(t.src_label),
                );
                if !seen.contains(&ext) {
                    out.push(ext);
                    if out.len() >= cap {
                        break 'outer;
                    }
                }
            }
        }
    }
    // gfd-lint: allow(nondeterminism) — total: format_key is injective, so equal keys are equal extensions
    out.sort_unstable_by_key(format_key);
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{triple_stats, GraphBuilder};
    use gfd_pattern::find_all;

    fn cfg(sigma: usize) -> DiscoveryConfig {
        DiscoveryConfig {
            sigma,
            k: 4,
            wildcard_min_labels: 0,
            ..DiscoveryConfig::new(4, sigma)
        }
    }

    /// persons create films; films receive awards; one parent pair.
    fn kb() -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            let p = b.add_node("person");
            let f = b.add_node("product");
            b.add_edge(p, f, "create");
            if i < 2 {
                let a = b.add_node("award");
                b.add_edge(f, a, "receive");
            }
        }
        let p0 = b.add_node("person");
        let p1 = b.add_node("person");
        b.add_edge(p0, p1, "parent");
        b.build()
    }

    #[test]
    fn harvest_new_node_extensions() {
        let g = kb();
        let q = Pattern::edge(
            PLabel::Is(g.interner().label("person")),
            PLabel::Is(g.interner().label("create")),
            PLabel::Is(g.interner().label("product")),
        );
        let ms = find_all(&q, &g);
        let props = propose_extensions(&q, &ms, &g, &cfg(2));
        // product --receive--> award seen on 2 of 3 pivots.
        let receive = g.interner().lookup_label("receive").unwrap();
        let award = g.interner().lookup_label("award").unwrap();
        let want = Extension {
            src: End::Var(1),
            dst: End::New(PLabel::Is(award)),
            label: PLabel::Is(receive),
        };
        assert!(props.seen.contains(&want));
        let freq: Vec<_> = props.frequent.iter().filter(|(e, _)| *e == want).collect();
        assert_eq!(freq.len(), 1);
        assert_eq!(freq[0].1, 2);

        // With σ=3 the receive extension is pruned from `frequent` but
        // remains in `seen`.
        let props3 = propose_extensions(&q, &ms, &g, &cfg(3));
        assert!(props3.seen.contains(&want));
        assert!(!props3.frequent.iter().any(|(e, _)| *e == want));
    }

    #[test]
    fn split_harvest_accumulator_merge_equals_whole() {
        let g = kb();
        let q = Pattern::edge(
            PLabel::Is(g.interner().label("person")),
            PLabel::Is(g.interner().label("create")),
            PLabel::Is(g.interner().label("product")),
        );
        let ms = find_all(&q, &g);
        let c = cfg(1);
        let whole = propose_extensions(&q, &ms, &g, &c);

        let parts = ms.split(3);
        // Two "workers" fold the parts, then merge as a monoid — in either
        // order.
        for reverse in [false, true] {
            let mut accs = vec![
                ProposalAccumulator::default(),
                ProposalAccumulator::default(),
            ];
            for (i, p) in parts.iter().enumerate() {
                accs[i % 2].fold(7, harvest(&q, p, &g, &c));
            }
            let mut merged = ProposalAccumulator::default();
            assert!(merged.is_empty());
            let drained: Vec<ProposalAccumulator> = if reverse {
                accs.into_iter().rev().collect()
            } else {
                accs.into_iter().collect()
            };
            for a in drained {
                merged.merge(a);
            }
            assert!(merged.byte_size() > 0);
            assert!(merged.work() > 0);
            let mut raw = merged.take(7);
            assert!(merged.take(7).byte_size() < raw.byte_size());
            let from_parts = proposals_from_harvest(&mut raw, &c);
            assert_eq!(whole.frequent, from_parts.frequent);
            assert_eq!(whole.seen, from_parts.seen);
        }
    }

    #[test]
    fn label_indexed_harvest_matches_reference_scan() {
        let g = kb();
        for (src, edge, dst) in [
            ("person", "create", "product"),
            ("product", "receive", "award"),
            ("person", "parent", "person"),
        ] {
            let q = Pattern::edge(
                PLabel::Is(g.interner().label(src)),
                PLabel::Is(g.interner().label(edge)),
                PLabel::Is(g.interner().label(dst)),
            );
            let ms = find_all(&q, &g);
            let c = cfg(1);
            let mut indexed = harvest(&q, &ms, &g, &c);
            let mut reference = harvest_range_reference(&q, &ms, &g, &c, 0, ms.len());
            let a = proposals_from_harvest(&mut indexed, &c);
            let b = proposals_from_harvest(&mut reference, &c);
            assert_eq!(a.frequent, b.frequent, "pattern {src}-{edge}->{dst}");
            assert_eq!(a.seen, b.seen, "pattern {src}-{edge}->{dst}");
        }
    }

    /// A warm signature cache — shared across patterns and repeated calls —
    /// must reproduce the cold harvest bit for bit, including `work`.
    #[test]
    fn warm_signature_cache_matches_cold_harvest() {
        let g = kb();
        let mut cache = SignatureCache::default();
        let c = cfg(1);
        for _round in 0..2 {
            for (src, edge, dst) in [
                ("person", "create", "product"),
                ("product", "receive", "award"),
                ("person", "parent", "person"),
            ] {
                let q = Pattern::edge(
                    PLabel::Is(g.interner().label(src)),
                    PLabel::Is(g.interner().label(edge)),
                    PLabel::Is(g.interner().label(dst)),
                );
                let ms = find_all(&q, &g);
                let mut cold = harvest(&q, &ms, &g, &c);
                let mut warm = harvest_range_cached(&q, &ms, &g, &c, 0, ms.len(), &mut cache);
                assert_eq!(cold.work, warm.work, "pattern {src}-{edge}->{dst}");
                let a = proposals_from_harvest(&mut cold, &c);
                let b = proposals_from_harvest(&mut warm, &c);
                assert_eq!(a.frequent, b.frequent, "pattern {src}-{edge}->{dst}");
                assert_eq!(a.seen, b.seen, "pattern {src}-{edge}->{dst}");
            }
        }
        assert!(!cache.is_empty());
        assert!(!cache.is_empty());
    }

    #[test]
    fn harvest_closing_extension() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("person");
        let y = b.add_node("person");
        b.add_edge(x, y, "parent");
        b.add_edge(y, x, "parent");
        let g = b.build();
        let q = Pattern::edge(
            PLabel::Is(g.interner().label("person")),
            PLabel::Is(g.interner().label("parent")),
            PLabel::Is(g.interner().label("person")),
        );
        let ms = find_all(&q, &g);
        let props = propose_extensions(&q, &ms, &g, &cfg(1));
        let parent = g.interner().lookup_label("parent").unwrap();
        let closing = Extension {
            src: End::Var(1),
            dst: End::Var(0),
            label: PLabel::Is(parent),
        };
        assert!(props.seen.contains(&closing));
        assert!(props.frequent.iter().any(|(e, _)| *e == closing));
    }

    #[test]
    fn k_bound_stops_growth() {
        let g = kb();
        let q = Pattern::edge(
            PLabel::Is(g.interner().label("person")),
            PLabel::Is(g.interner().label("create")),
            PLabel::Is(g.interner().label("product")),
        );
        let ms = find_all(&q, &g);
        let mut c = cfg(1);
        c.k = 2; // pattern already has 2 nodes: no new-node extensions
        let props = propose_extensions(&q, &ms, &g, &c);
        assert!(props
            .frequent
            .iter()
            .all(|(e, _)| matches!((&e.src, &e.dst), (End::Var(_), End::Var(_)))));
    }

    #[test]
    fn wildcard_upgrade_proposed_on_diverse_labels() {
        // person --likes--> {cat, dog, bird}: endpoint diversity 3.
        let mut b = GraphBuilder::new();
        let p = b.add_node("person");
        for species in ["cat", "dog", "bird"] {
            let n = b.add_node(species);
            b.add_edge(p, n, "likes");
        }
        let g = b.build();
        let q = Pattern::single(PLabel::Is(g.interner().label("person")));
        let ms = find_all(&q, &g);
        let mut c = cfg(1);
        c.wildcard_min_labels = 3;
        let props = propose_extensions(&q, &ms, &g, &c);
        let likes = g.interner().lookup_label("likes").unwrap();
        let wild = Extension {
            src: End::Var(0),
            dst: End::New(PLabel::Wildcard),
            label: PLabel::Is(likes),
        };
        assert!(props.frequent.iter().any(|(e, _)| *e == wild));
        // Not proposed when the threshold is higher.
        c.wildcard_min_labels = 4;
        let props = propose_extensions(&q, &ms, &g, &c);
        assert!(!props.frequent.iter().any(|(e, _)| *e == wild));
    }

    #[test]
    fn negative_proposals_exclude_seen() {
        // parent edges are frequent; the reverse-parent closing extension on
        // a healthy chain graph is unseen → negative proposal (Example 8).
        let mut b = GraphBuilder::new();
        let mut prev = b.add_node("person");
        for _ in 0..5 {
            let next = b.add_node("person");
            b.add_edge(prev, next, "parent");
            prev = next;
        }
        let g = b.build();
        let q = Pattern::edge(
            PLabel::Is(g.interner().label("person")),
            PLabel::Is(g.interner().label("parent")),
            PLabel::Is(g.interner().label("person")),
        );
        let ms = find_all(&q, &g);
        let c = cfg(2);
        let props = propose_extensions(&q, &ms, &g, &c);
        let triples = triple_stats(&g);
        let negs = propose_negative_extensions(&q, &g, &triples, &props.seen, &c);
        let parent = g.interner().lookup_label("parent").unwrap();
        let reverse = Extension {
            src: End::Var(1),
            dst: End::Var(0),
            label: PLabel::Is(parent),
        };
        assert!(negs.contains(&reverse));
        // Every negative proposal is genuinely unseen.
        assert!(negs.iter().all(|e| !props.seen.contains(e)));
    }

    #[test]
    fn negative_cap_respected() {
        let g = kb();
        let q = Pattern::edge(
            PLabel::Is(g.interner().label("person")),
            PLabel::Is(g.interner().label("create")),
            PLabel::Is(g.interner().label("product")),
        );
        let ms = find_all(&q, &g);
        let mut c = cfg(1);
        c.max_negative_candidates = 1;
        let props = propose_extensions(&q, &ms, &g, &c);
        let triples = triple_stats(&g);
        let negs = propose_negative_extensions(&q, &g, &triples, &props.seen, &c);
        assert!(negs.len() <= 1);
    }

    #[test]
    fn pivot_acc_compacts_and_counts_distinct() {
        let mut acc = PivotAcc::default();
        for round in 0..4 {
            for i in 0..100u32 {
                acc.push(NodeId(i % 10));
            }
            let _ = round;
        }
        // Compaction keeps the buffer near the distinct count, not the
        // insert count.
        assert!(acc.buffered() < 100);
        let distinct = acc.finish();
        assert_eq!(distinct.len(), 10);
        assert!(distinct.windows(2).all(|w| w[0] < w[1]));
    }
}
