//! Graph partitioning (§6.1) and work-unit ranges.
//!
//! The paper's `DisGFD` fragments `G` by vertex cut \[31\]. The barrier
//! runtime runs on an **edge cut** instead ([`edge_cut`]): every node has
//! exactly one owner shard, so fragment match sets never overlap and
//! supports are exact unions, and the edges between two shards are kept
//! in boundary tables on both sides. Contiguous node ranges are balanced
//! by degree. The work-stealing runtime does not fragment the graph at
//! all; it cuts row spaces into even ranges ([`split_ranges`]).

use gfd_graph::{EdgeId, FxHashMap, Graph, LabelId, NodeId};

/// Splits `len` rows into contiguous, nearly equal `(lo, hi)` ranges: at
/// most `max_parts` ranges, each at least `min_chunk` rows (except that a
/// non-empty input always yields at least one range). Deterministic in its
/// inputs.
///
/// This is the static half of load balancing in the work-stealing runtime:
/// ranges are even *by construction* (the barrier runtime's fragments are
/// not — they follow the edge cut's node ranges, and skew triggers
/// Take/Put re-splits), and any residual imbalance from unequal per-row
/// cost is absorbed by dynamic stealing instead of a re-balancing barrier.
pub fn split_ranges(len: usize, min_chunk: usize, max_parts: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let parts = (len / min_chunk.max(1)).clamp(1, max_parts.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0;
    for p in 0..parts {
        let take = base + usize::from(p < extra);
        out.push((lo, lo + take));
        lo += take;
    }
    debug_assert_eq!(lo, len);
    out
}

/// Deterministic primary owner of a node: single-node pattern matches are
/// seeded on exactly one worker so fragment match sets stay disjoint.
#[inline]
pub fn node_owner(v: NodeId, n: usize) -> usize {
    // Multiplicative hash for balance on clustered ids.
    ((v.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % n
}

/// One shard `F_s` of an edge-cut partition.
///
/// An edge cut assigns every **node** to exactly one shard — shards are
/// disjoint and their union is `V` — and the edges whose endpoints land
/// in two different shards are *cut*:
/// recorded in explicit boundary tables on both sides, they are the only
/// traffic the shards exchange during joins. This is the fragment model
/// Fan et al.'s workers actually assume (each holds a disjoint `F_s` and
/// receives the remote `e(F_t)` lists per join step).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Shard id (worker id).
    pub id: usize,
    /// First owned node: shards own the contiguous range `[lo, hi)`.
    pub lo: NodeId,
    /// One past the last owned node.
    pub hi: NodeId,
    /// Edges with both endpoints owned, ascending edge id.
    pub internal: Vec<EdgeId>,
    /// Boundary table: cut edges whose source is owned (ascending).
    pub cut_out: Vec<EdgeId>,
    /// Boundary table: cut edges whose destination is owned (ascending).
    pub cut_in: Vec<EdgeId>,
    /// Ghost nodes: foreign endpoints of cut edges (sorted, deduplicated).
    pub ghosts: Vec<NodeId>,
    /// Held edges (internal + both boundary tables) per edge label — the
    /// communication model subtracts these from the global counts to price
    /// a join's remote `e(F_t)` lists.
    pub label_counts: FxHashMap<LabelId, usize>,
}

impl Shard {
    /// Whether this shard owns `v`.
    #[inline]
    pub fn owns(&self, v: NodeId) -> bool {
        self.lo <= v && v < self.hi
    }

    /// Number of owned nodes.
    pub fn owned_count(&self) -> usize {
        (self.hi.0 - self.lo.0) as usize
    }

    /// Edges held locally (internal + boundary, cut edges counted once
    /// per side).
    pub fn held_edges(&self) -> usize {
        self.internal.len() + self.cut_out.len() + self.cut_in.len()
    }

    /// Held edges with label `l`.
    pub fn edges_with_label(&self, l: LabelId) -> usize {
        self.label_counts.get(&l).copied().unwrap_or(0)
    }

    /// Bytes a real deployment ships to install this shard on its worker:
    /// owned node labels (4), owned attribute entries (12: attr id +
    /// value), held edges (12: src, dst, label), and ghost ids (4).
    pub fn byte_size(&self, g: &Graph) -> usize {
        let attr_entries: usize = (self.lo.0..self.hi.0)
            .map(|v| g.attrs(NodeId(v)).len())
            .sum();
        self.owned_count() * 4 + attr_entries * 12 + self.held_edges() * 12 + self.ghosts.len() * 4
    }
}

/// Result of [`edge_cut`]: `n` disjoint shards plus cut statistics.
#[derive(Clone, Debug)]
pub struct EdgeCutPartition {
    /// The `n` shards, id order; node ranges are contiguous and cover `V`.
    pub shards: Vec<Shard>,
    /// Distinct cut edges (each appears in exactly one `cut_out` and one
    /// `cut_in`).
    pub cut_edges: usize,
    /// Average copies per node, `(owned + ghosts) / |V|`: the edge-cut
    /// replication factor.
    pub replication_factor: f64,
}

impl EdgeCutPartition {
    /// Owner shard of `v` (binary search over the contiguous ranges).
    pub fn owner(&self, v: NodeId) -> usize {
        self.shards
            .partition_point(|s| s.hi <= v)
            .min(self.shards.len() - 1)
    }
}

/// Degree-weighted contiguous edge-cut into `n` disjoint shards.
///
/// Node ranges are split so each shard carries ≈ `1/n` of the total
/// `1 + degree` weight (degree-weighted, because shard cost is dominated
/// by adjacency, not node count). Deterministic: the split depends only on
/// the graph, and boundary tables list cut edges in ascending edge-id
/// order.
pub fn edge_cut(g: &Graph, n: usize) -> EdgeCutPartition {
    assert!(n > 0, "at least one shard required");
    let nodes = g.node_count();
    // Contiguous degree-balanced ranges: walk nodes accumulating weight,
    // closing shard `s` at the first node where the running total reaches
    // the share `(s + 1)/n`. Trailing shards may be empty when `n > |V|`.
    let total_weight: u64 = nodes as u64 + 2 * g.edge_count() as u64;
    let mut bounds: Vec<u32> = Vec::with_capacity(n + 1);
    bounds.push(0);
    let mut acc = 0u64;
    let mut shard = 0usize;
    for v in 0..nodes {
        acc += 1 + g.degree(NodeId(v as u32)) as u64;
        // `acc * n >= total * (shard + 1)` avoids float thresholds.
        while shard + 1 < n && acc * n as u64 >= total_weight * (shard as u64 + 1) {
            bounds.push(v as u32 + 1);
            shard += 1;
        }
    }
    while bounds.len() < n + 1 {
        bounds.push(nodes as u32);
    }

    let mut shards: Vec<Shard> = (0..n)
        .map(|id| Shard {
            id,
            lo: NodeId(bounds[id]),
            hi: NodeId(bounds[id + 1]),
            internal: Vec::new(),
            cut_out: Vec::new(),
            cut_in: Vec::new(),
            ghosts: Vec::new(),
            label_counts: FxHashMap::default(),
        })
        .collect();
    let owner = |v: NodeId| -> usize {
        bounds
            .partition_point(|&b| b <= v.0)
            .saturating_sub(1)
            .min(n - 1)
    };

    let mut cut_edges = 0usize;
    for (i, e) in g.edges().iter().enumerate() {
        let eid = EdgeId::from_index(i);
        let (so, d) = (owner(e.src), owner(e.dst));
        if so == d {
            let s = &mut shards[so];
            s.internal.push(eid);
            *s.label_counts.entry(e.label).or_insert(0) += 1;
        } else {
            cut_edges += 1;
            let s = &mut shards[so];
            s.cut_out.push(eid);
            s.ghosts.push(e.dst);
            *s.label_counts.entry(e.label).or_insert(0) += 1;
            let t = &mut shards[d];
            t.cut_in.push(eid);
            t.ghosts.push(e.src);
            *t.label_counts.entry(e.label).or_insert(0) += 1;
        }
    }
    let mut copies = nodes;
    for s in &mut shards {
        s.ghosts.sort_unstable();
        s.ghosts.dedup();
        copies += s.ghosts.len();
    }
    EdgeCutPartition {
        shards,
        cut_edges,
        replication_factor: if nodes == 0 {
            1.0
        } else {
            copies as f64 / nodes as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::GraphBuilder;

    fn chain(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..n).map(|_| b.add_node("t")).collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1], "r");
        }
        b.build()
    }

    #[test]
    fn split_ranges_cover_exactly_and_respect_bounds() {
        assert!(split_ranges(0, 10, 4).is_empty());
        assert_eq!(split_ranges(1, 1024, 8), vec![(0, 1)]);
        for (len, min_chunk, max_parts) in [
            (10, 3, 4),
            (100, 10, 4),
            (7, 1, 16),
            (1000, 64, 6),
            (5, 2, 2),
        ] {
            let ranges = split_ranges(len, min_chunk, max_parts);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= max_parts);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, len);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
            }
            let sizes: Vec<usize> = ranges.iter().map(|(lo, hi)| hi - lo).collect();
            let max = sizes.iter().max().unwrap();
            let min = sizes.iter().min().unwrap();
            assert!(max - min <= 1, "ranges must be even: {sizes:?}");
            if ranges.len() > 1 {
                assert!(*min >= min_chunk.min(len), "chunk floor: {sizes:?}");
            }
        }
    }

    /// A graph with hubs, parallel edges, and several labels — enough
    /// structure to exercise every boundary case of the cut.
    fn lumpy(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..n).map(|i| b.add_node(["a", "b"][i % 2])).collect();
        for i in 0..n {
            b.add_edge(nodes[i], nodes[(i * 7 + 3) % n], "r");
            if i % 3 == 0 {
                b.add_edge(nodes[0], nodes[i], "s"); // hub fan-out
            }
        }
        b.build()
    }

    #[test]
    fn edge_cut_shards_are_disjoint_and_cover() {
        let g = lumpy(100);
        for n in [1, 2, 4, 7] {
            let p = edge_cut(&g, n);
            assert_eq!(p.shards.len(), n);
            assert_eq!(p.shards[0].lo, NodeId(0));
            assert_eq!(p.shards[n - 1].hi, NodeId(100));
            for w in p.shards.windows(2) {
                assert_eq!(w[0].hi, w[1].lo, "ranges must tile V");
            }
            let owned: usize = p.shards.iter().map(|s| s.owned_count()).sum();
            assert_eq!(owned, g.node_count());
            for v in g.nodes() {
                assert_eq!(
                    p.shards.iter().filter(|s| s.owns(v)).count(),
                    1,
                    "node {v:?} must have exactly one owner"
                );
                assert!(p.shards[p.owner(v)].owns(v));
            }
        }
    }

    #[test]
    fn edge_cut_boundary_tables_partition_edges() {
        let g = lumpy(60);
        let p = edge_cut(&g, 5);
        let mut internal = vec![0usize; g.edge_count()];
        let mut outs = vec![0usize; g.edge_count()];
        let mut ins = vec![0usize; g.edge_count()];
        for s in &p.shards {
            for &e in &s.internal {
                internal[e.index()] += 1;
                let edge = g.edges()[e.index()];
                assert!(s.owns(edge.src) && s.owns(edge.dst));
            }
            for &e in &s.cut_out {
                outs[e.index()] += 1;
                let edge = g.edges()[e.index()];
                assert!(s.owns(edge.src) && !s.owns(edge.dst));
                assert!(s.ghosts.binary_search(&edge.dst).is_ok());
            }
            for &e in &s.cut_in {
                ins[e.index()] += 1;
                let edge = g.edges()[e.index()];
                assert!(!s.owns(edge.src) && s.owns(edge.dst));
                assert!(s.ghosts.binary_search(&edge.src).is_ok());
            }
        }
        let mut cut = 0usize;
        for i in 0..g.edge_count() {
            if internal[i] == 1 {
                assert_eq!((outs[i], ins[i]), (0, 0), "edge {i} both internal and cut");
            } else {
                assert_eq!(internal[i], 0, "edge {i} internal twice");
                assert_eq!((outs[i], ins[i]), (1, 1), "cut edge {i} needs both sides");
                cut += 1;
            }
        }
        assert_eq!(cut, p.cut_edges);
        assert!(p.replication_factor >= 1.0);
    }

    #[test]
    fn edge_cut_is_deterministic() {
        let g = lumpy(80);
        let a = edge_cut(&g, 4);
        let b = edge_cut(&g, 4);
        assert_eq!(a.cut_edges, b.cut_edges);
        assert_eq!(a.shards, b.shards);
    }

    #[test]
    fn edge_cut_label_counts_include_boundaries() {
        let g = lumpy(30);
        let p = edge_cut(&g, 3);
        let r = g.interner().lookup_label("r").unwrap();
        let s = g.interner().lookup_label("s").unwrap();
        let total_r = g.edges().iter().filter(|e| e.label == r).count();
        let total_s = g.edges().iter().filter(|e| e.label == s).count();
        let held_r: usize = p.shards.iter().map(|f| f.edges_with_label(r)).sum();
        let held_s: usize = p.shards.iter().map(|f| f.edges_with_label(s)).sum();
        let cut_r = p
            .shards
            .iter()
            .flat_map(|f| &f.cut_out)
            .filter(|e| g.edges()[e.index()].label == r)
            .count();
        // Cut edges are held on both sides, internal ones on one.
        assert_eq!(held_r, total_r + cut_r);
        assert_eq!(held_s + held_r, total_s + total_r + p.cut_edges);
    }

    #[test]
    fn edge_cut_loads_are_degree_balanced() {
        let g = lumpy(400);
        let p = edge_cut(&g, 4);
        let weights: Vec<usize> = p
            .shards
            .iter()
            .map(|s| s.owned_count() + s.held_edges())
            .collect();
        let max = *weights.iter().max().unwrap();
        let min = *weights.iter().min().unwrap();
        assert!(min > 0, "no shard may be empty here: {weights:?}");
        assert!(
            max <= 2 * min + 64,
            "degree-weighted split must stay balanced: {weights:?}"
        );
    }

    #[test]
    fn edge_cut_more_shards_than_nodes() {
        let g = chain(3);
        let p = edge_cut(&g, 8);
        let owned: usize = p.shards.iter().map(|s| s.owned_count()).sum();
        assert_eq!(owned, 3);
        for s in &p.shards {
            assert!(s.lo <= s.hi);
        }
    }

    #[test]
    fn shard_byte_size_counts_state() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("a");
        let y = b.add_node("a");
        b.set_attr(x, "k", "v");
        b.add_edge(x, y, "r");
        let g = b.build();
        let p = edge_cut(&g, 2);
        let total: usize = p.shards.iter().map(|s| s.byte_size(&g)).sum();
        // 2 node labels (8) + 1 attr entry (12) + the cut edge held twice
        // (24) + 2 ghost ids (8).
        assert_eq!(total, 8 + 12 + 24 + 8);
    }

    #[test]
    fn node_owner_is_deterministic_and_bounded() {
        for i in 0..1000u32 {
            let o = node_owner(NodeId(i), 7);
            assert!(o < 7);
            assert_eq!(o, node_owner(NodeId(i), 7));
        }
        // Roughly balanced.
        let mut counts = [0usize; 7];
        for i in 0..7000u32 {
            counts[node_owner(NodeId(i), 7)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 500), "counts: {counts:?}");
    }
}
