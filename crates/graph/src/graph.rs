//! The property-graph model `G = (V, E, L, F_A)` of the paper (§2.1).
//!
//! Nodes and edges carry labels from one alphabet `Θ`; each node carries an
//! attribute tuple `F_A(v) = (A_1 = a_1, …, A_n = a_n)`. The paper defines
//! `E ⊆ V × V`; we generalise to labelled multi-edges because real knowledge
//! bases relate the same entity pair through several predicates — a pattern
//! match maps distinct pattern edges to distinct graph edges (see
//! `gfd-pattern`), which coincides with the paper's semantics on simple
//! graphs.
//!
//! Graphs are built with [`GraphBuilder`] and then frozen into a [`Graph`]
//! whose topology is immutable and shared: clones of a graph hold one
//! topology allocation, and each clone's attribute values can still be
//! edited in place. The frozen layout is **structure-of-arrays CSR** throughout:
//! every index is one offsets array plus packed flat payload arrays (edge
//! ids, neighbour ids, attribute tuples, per-label node lists) — no
//! per-node `Vec`s anywhere, so a million-node graph is a handful of large
//! allocations and every hot-path walk is a contiguous slice scan. All hot
//! paths work on compact ids; strings live in a shared [`Interner`].

use std::sync::Arc;

use crate::fxhash::FxHashMap;
use crate::ids::{AttrId, EdgeId, LabelId, NodeId};
use crate::interner::Interner;
use crate::value::{Value, ValueSpec};

/// A directed, labelled edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Edge {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Edge label `L(e)`.
    pub label: LabelId,
}

/// Plain CSR adjacency: one offsets array plus packed edge-id,
/// neighbour-id and edge-label arrays (parallel, all sorted by
/// `(neighbour, label)` per node). The packed neighbour array lets
/// `edges_between` binary-search without dereferencing the edge table, and
/// the packed label array serves the per-pair label walks the harvest
/// performs on the resulting slice.
#[derive(Clone, Debug, Default)]
struct Csr {
    offsets: Vec<u32>,
    list: Vec<EdgeId>,
    nbrs: Vec<NodeId>,
    labels: Vec<LabelId>,
}

impl Csr {
    fn build(
        n: usize,
        edges: &[Edge],
        endpoint: impl Fn(&Edge) -> NodeId,
        neighbour: impl Fn(&Edge) -> NodeId,
    ) -> Csr {
        let mut counts = vec![0u32; n + 1];
        for e in edges {
            counts[endpoint(e).index() + 1] += 1;
        }
        for i in 1..=n {
            counts[i] += counts[i - 1];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut list = vec![EdgeId(0); edges.len()];
        for (i, e) in edges.iter().enumerate() {
            let slot = &mut cursor[endpoint(e).index()];
            list[*slot as usize] = EdgeId::from_index(i);
            *slot += 1;
        }
        for w in offsets.windows(2) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            list[lo..hi].sort_unstable_by_key(|&eid| {
                let e = &edges[eid.index()];
                (neighbour(e), e.label)
            });
        }
        let nbrs = list.iter().map(|&e| neighbour(&edges[e.index()])).collect();
        let labels = list.iter().map(|&e| edges[e.index()].label).collect();
        Csr {
            offsets,
            list,
            nbrs,
            labels,
        }
    }

    #[inline]
    fn bounds(&self, n: NodeId) -> (usize, usize) {
        (
            self.offsets[n.index()] as usize,
            self.offsets[n.index() + 1] as usize,
        )
    }

    #[inline]
    fn slice(&self, n: NodeId) -> &[EdgeId] {
        let (lo, hi) = self.bounds(n);
        &self.list[lo..hi]
    }

    #[inline]
    fn nbr_slice(&self, n: NodeId) -> &[NodeId] {
        let (lo, hi) = self.bounds(n);
        &self.nbrs[lo..hi]
    }
}

/// One contiguous run of a node's adjacency holding every incident edge
/// with a single label (`lo..hi` indexes into the owning [`LabelCsr`]'s
/// packed arrays).
#[derive(Clone, Copy, Debug)]
struct LabelRange {
    label: LabelId,
    lo: u32,
    hi: u32,
}

/// Label-partitioned CSR adjacency in structure-of-arrays form: per node,
/// incident edge ids sorted by `(label, neighbour, edge id)` in one packed
/// array, the corresponding neighbour ids in a parallel packed array, plus
/// a per-node index of the contiguous range occupied by each distinct
/// label. An anchor step with a concrete edge label binary-searches the
/// (small) per-node label index and walks a contiguous neighbour slice —
/// no per-entry edge-table dereference.
///
/// The per-node `ranges` double as the node's **neighbour-label-frequency
/// (NLF) summary**: `degree(n, l) = |slice(n, l)|` in `O(log L_n)` where
/// `L_n` is the number of distinct labels incident to `n`.
#[derive(Clone, Debug, Default)]
struct LabelCsr {
    list: Vec<EdgeId>,
    nbrs: Vec<NodeId>,
    range_offsets: Vec<u32>,
    ranges: Vec<LabelRange>,
}

impl LabelCsr {
    fn build(
        n: usize,
        edges: &[Edge],
        endpoint: impl Fn(&Edge) -> NodeId,
        neighbour: impl Fn(&Edge) -> NodeId,
    ) -> LabelCsr {
        let mut counts = vec![0u32; n + 1];
        for e in edges {
            counts[endpoint(e).index() + 1] += 1;
        }
        for i in 1..=n {
            counts[i] += counts[i - 1];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut list = vec![EdgeId(0); edges.len()];
        for (i, e) in edges.iter().enumerate() {
            let slot = &mut cursor[endpoint(e).index()];
            list[*slot as usize] = EdgeId::from_index(i);
            *slot += 1;
        }
        let mut range_offsets = Vec::with_capacity(n + 1);
        let mut ranges = Vec::new();
        range_offsets.push(0u32);
        for w in offsets.windows(2) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            list[lo..hi].sort_unstable_by_key(|&eid| {
                let e = &edges[eid.index()];
                (e.label, neighbour(e), eid)
            });
            let mut run = lo;
            while run < hi {
                let label = edges[list[run].index()].label;
                let mut end = run + 1;
                while end < hi && edges[list[end].index()].label == label {
                    end += 1;
                }
                ranges.push(LabelRange {
                    label,
                    lo: run as u32,
                    hi: end as u32,
                });
                run = end;
            }
            range_offsets.push(ranges.len() as u32);
        }
        let nbrs = list.iter().map(|&e| neighbour(&edges[e.index()])).collect();
        LabelCsr {
            list,
            nbrs,
            range_offsets,
            ranges,
        }
    }

    #[inline]
    fn node_ranges(&self, n: NodeId) -> &[LabelRange] {
        let lo = self.range_offsets[n.index()] as usize;
        let hi = self.range_offsets[n.index() + 1] as usize;
        &self.ranges[lo..hi]
    }

    #[inline]
    fn find(&self, n: NodeId, l: LabelId) -> Option<(usize, usize)> {
        let ranges = self.node_ranges(n);
        ranges
            .binary_search_by_key(&l, |r| r.label)
            .ok()
            .map(|i| (ranges[i].lo as usize, ranges[i].hi as usize))
    }

    #[inline]
    fn slice(&self, n: NodeId, l: LabelId) -> &[EdgeId] {
        match self.find(n, l) {
            Some((lo, hi)) => &self.list[lo..hi],
            None => &[],
        }
    }

    #[inline]
    fn nbr_slice(&self, n: NodeId, l: LabelId) -> &[NodeId] {
        match self.find(n, l) {
            Some((lo, hi)) => &self.nbrs[lo..hi],
            None => &[],
        }
    }

    #[inline]
    fn pair_slices(&self, n: NodeId, l: LabelId) -> (&[EdgeId], &[NodeId]) {
        match self.find(n, l) {
            Some((lo, hi)) => (&self.list[lo..hi], &self.nbrs[lo..hi]),
            None => (&[], &[]),
        }
    }

    #[inline]
    fn degree(&self, n: NodeId, l: LabelId) -> usize {
        match self.find(n, l) {
            Some((lo, hi)) => hi - lo,
            None => 0,
        }
    }

    #[inline]
    fn runs(&self, n: NodeId) -> impl Iterator<Item = (LabelId, &[EdgeId], &[NodeId])> + '_ {
        self.node_ranges(n).iter().map(move |r| {
            (
                r.label,
                &self.list[r.lo as usize..r.hi as usize],
                &self.nbrs[r.lo as usize..r.hi as usize],
            )
        })
    }
}

/// Allocation counters recorded while building and freezing a [`Graph`],
/// surfaced through [`Graph::build_stats`] so perf runs can report how much
/// the construction path reallocated and how big the frozen arrays are.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphBuildStats {
    /// Capacity-growth events across the builder's append arrays (node
    /// labels, attribute log, edge list). Zero when the builder was
    /// pre-reserved to its final size (the streaming loader/datagen path).
    pub builder_reallocs: u64,
    /// Raw `set_attr` calls recorded in the append log, including
    /// overwrites later resolved last-wins at freeze time.
    pub attr_writes: u64,
    /// Exact bytes held by the frozen graph's flat arrays (excluding the
    /// shared interner).
    pub graph_bytes: u64,
}

fn slice_bytes<T>(s: &[T]) -> u64 {
    std::mem::size_of_val(s) as u64
}

/// Mutable construction state for a [`Graph`].
///
/// Nodes, attributes and edges are *appended*: attributes go to a flat
/// `(node, attr, value)` log resolved last-wins at freeze time, so building
/// never allocates per node. [`GraphBuilder::with_capacity`] pre-reserves
/// the append arrays for bounded-allocation streaming construction.
///
/// ```
/// use gfd_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// let x = b.add_node("person");
/// let y = b.add_node("product");
/// b.set_attr(y, "type", "film");
/// b.add_edge(x, y, "create");
/// let g = b.build();
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    interner: Arc<Interner>,
    labels: Vec<LabelId>,
    attr_log: Vec<(NodeId, AttrId, Value)>,
    edges: Vec<Edge>,
    reallocs: u64,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

macro_rules! push_counted {
    ($self:ident, $vec:ident, $val:expr) => {{
        if $self.$vec.len() == $self.$vec.capacity() {
            $self.reallocs += 1;
        }
        $self.$vec.push($val);
    }};
}

impl GraphBuilder {
    /// New builder with a fresh interner.
    pub fn new() -> Self {
        Self::with_interner(Arc::new(Interner::new()))
    }

    /// New builder sharing an existing interner (used by graph fragments so
    /// that label/attribute ids agree across fragments of the same graph).
    pub fn with_interner(interner: Arc<Interner>) -> Self {
        GraphBuilder {
            interner,
            labels: Vec::new(),
            attr_log: Vec::new(),
            edges: Vec::new(),
            reallocs: 0,
        }
    }

    /// New builder pre-reserved for `nodes` nodes, `edges` edges and
    /// `attrs` attribute writes — streaming construction at a known size
    /// then appends without a single reallocation.
    pub fn with_capacity(nodes: usize, edges: usize, attrs: usize) -> Self {
        let mut b = Self::new();
        b.reserve(nodes, edges, attrs);
        b
    }

    /// Reserves room for `nodes` more nodes, `edges` more edges and
    /// `attrs` more attribute writes.
    pub fn reserve(&mut self, nodes: usize, edges: usize, attrs: usize) {
        self.labels.reserve(nodes);
        self.edges.reserve(edges);
        self.attr_log.reserve(attrs);
    }

    /// The shared interner.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Adds a node labelled `label`, returning its id.
    pub fn add_node(&mut self, label: &str) -> NodeId {
        let l = self.interner.label(label);
        self.add_node_by_id(l)
    }

    /// Adds a node with an already-interned label.
    pub fn add_node_by_id(&mut self, label: LabelId) -> NodeId {
        let id = NodeId::from_index(self.labels.len());
        push_counted!(self, labels, label);
        id
    }

    /// Sets attribute `attr = value` on node `n` (overwrites an existing
    /// binding of the same attribute — `A_i ≠ A_j` for `i ≠ j` in §2.1).
    pub fn set_attr<'a>(&mut self, n: NodeId, attr: &str, value: impl Into<ValueSpec<'a>>) {
        let a = self.interner.attr(attr);
        let v = value.into().intern(&self.interner);
        self.set_attr_by_id(n, a, v);
    }

    /// Sets an attribute with pre-interned ids. Appends to the attribute
    /// log; rewrites of the same `(node, attr)` resolve last-wins when the
    /// builder freezes.
    pub fn set_attr_by_id(&mut self, n: NodeId, attr: AttrId, value: Value) {
        debug_assert!(n.index() < self.labels.len(), "attr node out of range");
        push_counted!(self, attr_log, (n, attr, value));
    }

    /// Adds a directed edge `src → dst` labelled `label`.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, label: &str) -> EdgeId {
        let l = self.interner.label(label);
        self.add_edge_by_id(src, dst, l)
    }

    /// Adds an edge with an already-interned label.
    pub fn add_edge_by_id(&mut self, src: NodeId, dst: NodeId, label: LabelId) -> EdgeId {
        assert!(src.index() < self.labels.len(), "edge src out of range");
        assert!(dst.index() < self.labels.len(), "edge dst out of range");
        let id = EdgeId::from_index(self.edges.len());
        push_counted!(self, edges, Edge { src, dst, label });
        id
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Freezes the builder into an indexed [`Graph`] (topology fixed,
    /// attributes editable in place).
    pub fn build(self) -> Graph {
        let GraphBuilder {
            interner,
            labels,
            mut attr_log,
            edges,
            reallocs,
        } = self;
        let n = labels.len();
        let attr_writes = attr_log.len() as u64;

        // Resolve the attribute log into one packed tuple array: stable
        // sort groups writes by (node, attr) preserving write order, so the
        // last entry of each group is the surviving binding.
        attr_log.sort_by_key(|&(node, attr, _)| (node, attr));
        let mut attr_offsets = vec![0u32; n + 1];
        let mut attr_entries: Vec<(AttrId, Value)> = Vec::with_capacity(attr_log.len());
        let mut i = 0;
        while i < attr_log.len() {
            let (node, attr, _) = attr_log[i];
            let mut j = i + 1;
            while j < attr_log.len() && attr_log[j].0 == node && attr_log[j].1 == attr {
                j += 1;
            }
            attr_entries.push((attr, attr_log[j - 1].2));
            attr_offsets[node.index() + 1] += 1;
            i = j;
        }
        for i in 1..=n {
            attr_offsets[i] += attr_offsets[i - 1];
        }
        drop(attr_log);

        // Out-CSR sorted by (dst, label) per node: enables binary-searched
        // `has_edge` / `edges_between` used when the matcher closes cycles.
        let out = Csr::build(n, &edges, |e| e.src, |e| e.dst);
        let inn = Csr::build(n, &edges, |e| e.dst, |e| e.src);
        // Label-partitioned CSRs sorted by (label, neighbour): anchor steps
        // with concrete edge labels walk one contiguous slice, and the
        // per-node label ranges serve as the NLF summary.
        let out_labeled = LabelCsr::build(n, &edges, |e| e.src, |e| e.dst);
        let in_labeled = LabelCsr::build(n, &edges, |e| e.dst, |e| e.src);

        // Per-label node index as one offsets array + one packed node
        // array (counting sort by label; ascending node id within label).
        let num_labels = labels.iter().map(|l| l.index() + 1).max().unwrap_or(0);
        let mut label_node_offsets = vec![0u32; num_labels + 1];
        for &l in &labels {
            label_node_offsets[l.index() + 1] += 1;
        }
        for i in 1..=num_labels {
            label_node_offsets[i] += label_node_offsets[i - 1];
        }
        let mut cursor = label_node_offsets.clone();
        let mut label_nodes = vec![NodeId(0); n];
        for (i, &l) in labels.iter().enumerate() {
            let slot = &mut cursor[l.index()];
            label_nodes[*slot as usize] = NodeId::from_index(i);
            *slot += 1;
        }

        let mut g = Graph {
            interner,
            topo: Arc::new(Topology {
                labels,
                edges,
                out,
                inn,
                out_labeled,
                in_labeled,
                label_node_offsets,
                label_nodes,
            }),
            attr_offsets,
            attr_entries,
            build_stats: GraphBuildStats {
                builder_reallocs: reallocs,
                attr_writes,
                graph_bytes: 0,
            },
        };
        g.build_stats.graph_bytes = g.memory_bytes();
        g
    }
}

/// The frozen topology of a [`Graph`]: node labels, the edge list, both
/// plain CSRs, both label-partitioned CSRs and the per-label node index.
/// Nothing edits it after the freeze, so every clone of a graph shares
/// one.
#[derive(Debug)]
struct Topology {
    labels: Vec<LabelId>,
    edges: Vec<Edge>,
    out: Csr,
    inn: Csr,
    out_labeled: LabelCsr,
    in_labeled: LabelCsr,
    label_node_offsets: Vec<u32>,
    label_nodes: Vec<NodeId>,
}

/// A property graph in structure-of-arrays CSR layout: flat offsets +
/// packed payload arrays for adjacency (plain and label-partitioned, both
/// directions), attribute tuples, and the per-label node index.
///
/// Topology (nodes, labels, edges and every index over them) is frozen at
/// build time and held behind one `Arc`, so [`Clone`] shares it and
/// copies only the attribute arrays. Attribute values can be edited in
/// place with [`Graph::set_attr_by_id`] and [`Graph::remove_attr_by_id`],
/// which keep each node's tuple sorted by attribute id and touch only this
/// graph's attribute arrays, never the shared topology.
#[derive(Clone, Debug)]
pub struct Graph {
    interner: Arc<Interner>,
    topo: Arc<Topology>,
    attr_offsets: Vec<u32>,
    attr_entries: Vec<(AttrId, Value)>,
    build_stats: GraphBuildStats,
}

impl Graph {
    /// Empty graph (useful as a neutral element in tests).
    pub fn empty() -> Graph {
        GraphBuilder::new().build()
    }

    /// Number of nodes `|V|`.
    pub fn node_count(&self) -> usize {
        self.topo.labels.len()
    }

    /// Number of edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.topo.edges.len()
    }

    /// `|V| + |E|`, the paper's `|G|`.
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.topo.labels.len()).map(NodeId::from_index)
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.topo.edges
    }

    /// The label `L(v)` of a node.
    #[inline]
    pub fn node_label(&self, n: NodeId) -> LabelId {
        self.topo.labels[n.index()]
    }

    /// The edge record behind an id.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.topo.edges[e.index()]
    }

    /// The attribute tuple `F_A(v)`, sorted by attribute id — one slice of
    /// the packed tuple array.
    #[inline]
    pub fn attrs(&self, n: NodeId) -> &[(AttrId, Value)] {
        let (lo, hi) = self.attr_bounds(n);
        &self.attr_entries[lo..hi]
    }

    #[inline]
    fn attr_bounds(&self, n: NodeId) -> (usize, usize) {
        (
            self.attr_offsets[n.index()] as usize,
            self.attr_offsets[n.index() + 1] as usize,
        )
    }

    /// Value of attribute `a` at node `n`, if present.
    #[inline]
    pub fn attr(&self, n: NodeId, a: AttrId) -> Option<Value> {
        let tuple = self.attrs(n);
        tuple
            .binary_search_by_key(&a, |(x, _)| *x)
            .ok()
            .map(|i| tuple[i].1)
    }

    /// Sets attribute `a = v` on node `n` in place (insert or overwrite).
    /// An overwrite is a binary search in `n`'s tuple; an insert shifts
    /// the packed tuple array once and bumps the offsets after `n`.
    ///
    /// # Panics
    /// Panics if `n` is out of range.
    pub fn set_attr_by_id(&mut self, n: NodeId, a: AttrId, v: Value) {
        let (lo, hi) = self.attr_bounds(n);
        match self.attr_entries[lo..hi].binary_search_by_key(&a, |(x, _)| *x) {
            Ok(i) => self.attr_entries[lo + i].1 = v,
            Err(i) => {
                self.attr_entries.insert(lo + i, (a, v));
                for off in &mut self.attr_offsets[n.index() + 1..] {
                    *off += 1;
                }
            }
        }
    }

    /// Removes attribute `a` from node `n` in place (a no-op when absent),
    /// shifting the packed tuple array once and the offsets after `n`.
    ///
    /// # Panics
    /// Panics if `n` is out of range.
    pub fn remove_attr_by_id(&mut self, n: NodeId, a: AttrId) {
        let (lo, hi) = self.attr_bounds(n);
        if let Ok(i) = self.attr_entries[lo..hi].binary_search_by_key(&a, |(x, _)| *x) {
            self.attr_entries.remove(lo + i);
            for off in &mut self.attr_offsets[n.index() + 1..] {
                *off -= 1;
            }
        }
    }

    /// Outgoing edge ids of `n`, sorted by `(dst, label)`.
    #[inline]
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        self.topo.out.slice(n)
    }

    /// Incoming edge ids of `n`, sorted by `(src, label)`.
    #[inline]
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        self.topo.inn.slice(n)
    }

    /// Destinations of `n`'s outgoing edges, parallel to
    /// [`Graph::out_edges`] (sorted, so repeated neighbours are adjacent).
    #[inline]
    pub fn out_nbrs(&self, n: NodeId) -> &[NodeId] {
        self.topo.out.nbr_slice(n)
    }

    /// Sources of `n`'s incoming edges, parallel to [`Graph::in_edges`].
    #[inline]
    pub fn in_nbrs(&self, n: NodeId) -> &[NodeId] {
        self.topo.inn.nbr_slice(n)
    }

    /// Out-degree of `n`.
    #[inline]
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.topo.out.slice(n).len()
    }

    /// In-degree of `n`.
    #[inline]
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.topo.inn.slice(n).len()
    }

    /// Outgoing edges of `n` carrying exactly label `l`, as one contiguous
    /// slice sorted by `(dst, edge id)` — the label-partitioned adjacency.
    #[inline]
    pub fn out_edges_labeled(&self, n: NodeId, l: LabelId) -> &[EdgeId] {
        self.topo.out_labeled.slice(n, l)
    }

    /// Incoming edges of `n` carrying exactly label `l`, sorted by
    /// `(src, edge id)`.
    #[inline]
    pub fn in_edges_labeled(&self, n: NodeId, l: LabelId) -> &[EdgeId] {
        self.topo.in_labeled.slice(n, l)
    }

    /// Destinations of `n`'s outgoing `l`-labelled edges, parallel to
    /// [`Graph::out_edges_labeled`] — the packed neighbour walk used by
    /// anchor steps (sorted ascending, parallel edges adjacent).
    #[inline]
    pub fn out_nbrs_labeled(&self, n: NodeId, l: LabelId) -> &[NodeId] {
        self.topo.out_labeled.nbr_slice(n, l)
    }

    /// Sources of `n`'s incoming `l`-labelled edges, parallel to
    /// [`Graph::in_edges_labeled`].
    #[inline]
    pub fn in_nbrs_labeled(&self, n: NodeId, l: LabelId) -> &[NodeId] {
        self.topo.in_labeled.nbr_slice(n, l)
    }

    /// Both parallel slices of `n`'s outgoing `l`-labelled adjacency at
    /// once: `(edge ids, destinations)`.
    #[inline]
    pub fn out_adj_labeled(&self, n: NodeId, l: LabelId) -> (&[EdgeId], &[NodeId]) {
        self.topo.out_labeled.pair_slices(n, l)
    }

    /// Both parallel slices of `n`'s incoming `l`-labelled adjacency at
    /// once: `(edge ids, sources)`.
    #[inline]
    pub fn in_adj_labeled(&self, n: NodeId, l: LabelId) -> (&[EdgeId], &[NodeId]) {
        self.topo.in_labeled.pair_slices(n, l)
    }

    /// Number of outgoing edges of `n` labelled `l` — the out-side
    /// neighbour-label-frequency (NLF) summary used for candidate pruning.
    #[inline]
    pub fn out_label_degree(&self, n: NodeId, l: LabelId) -> usize {
        self.topo.out_labeled.degree(n, l)
    }

    /// Number of incoming edges of `n` labelled `l` (in-side NLF).
    #[inline]
    pub fn in_label_degree(&self, n: NodeId, l: LabelId) -> usize {
        self.topo.in_labeled.degree(n, l)
    }

    /// Iterates the label-partitioned out-adjacency of `n` as one
    /// `(label, edge ids, destinations)` run per distinct edge label, the
    /// two payload slices parallel and sorted by `(dst, edge id)` — the
    /// range-iteration helper behind label-indexed harvesting: per-label
    /// degrees and per-label neighbour walks come from one pass over the
    /// (small) per-node label index, and the packed neighbour slice means
    /// no per-entry edge-table dereference.
    #[inline]
    pub fn out_label_runs(
        &self,
        n: NodeId,
    ) -> impl Iterator<Item = (LabelId, &[EdgeId], &[NodeId])> + '_ {
        self.topo.out_labeled.runs(n)
    }

    /// Iterates the label-partitioned in-adjacency of `n` as
    /// `(label, edge ids, sources)` runs, each sorted by `(src, edge id)`.
    #[inline]
    pub fn in_label_runs(
        &self,
        n: NodeId,
    ) -> impl Iterator<Item = (LabelId, &[EdgeId], &[NodeId])> + '_ {
        self.topo.in_labeled.runs(n)
    }

    /// Total degree of `n` (the `d` parameter of Theorem 1(b)).
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.out_degree(n) + self.in_degree(n)
    }

    /// Maximum total degree over all nodes.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|n| self.degree(n)).max().unwrap_or(0)
    }

    /// Nodes carrying label `l`, ascending, as one slice of the packed
    /// per-label node array (empty for labels absent from the graph —
    /// including labels interned after the freeze, e.g. by patterns).
    pub fn nodes_with_label(&self, l: LabelId) -> &[NodeId] {
        let t = &*self.topo;
        let i = l.index();
        if i + 1 >= t.label_node_offsets.len() {
            return &[];
        }
        let lo = t.label_node_offsets[i] as usize;
        let hi = t.label_node_offsets[i + 1] as usize;
        &t.label_nodes[lo..hi]
    }

    /// Edge ids from `src` to `dst` (any label), via binary search over the
    /// packed neighbour array.
    pub fn edges_between(&self, src: NodeId, dst: NodeId) -> &[EdgeId] {
        self.edges_between_labeled(src, dst).0
    }

    /// Edge ids from `src` to `dst` plus the parallel slice of their edge
    /// labels (sorted ascending — the slice is a label-sorted run, so
    /// per-label grouping is a linear walk with no edge-table lookups).
    pub fn edges_between_labeled(&self, src: NodeId, dst: NodeId) -> (&[EdgeId], &[LabelId]) {
        let out = &self.topo.out;
        let (lo_bound, hi_bound) = out.bounds(src);
        let nbrs = &out.nbrs[lo_bound..hi_bound];
        let lo = lo_bound + nbrs.partition_point(|&d| d < dst);
        let hi = lo_bound + nbrs.partition_point(|&d| d <= dst);
        (&out.list[lo..hi], &out.labels[lo..hi])
    }

    /// Whether an edge `src → dst` with exactly label `label` exists
    /// (binary search in the label-partitioned neighbour slice).
    pub fn has_edge(&self, src: NodeId, dst: NodeId, label: LabelId) -> bool {
        self.topo
            .out_labeled
            .nbr_slice(src, label)
            .binary_search(&dst)
            .is_ok()
    }

    /// Whether any edge `src → dst` exists.
    pub fn has_any_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.topo.out.nbr_slice(src).binary_search(&dst).is_ok()
    }

    /// The shared string interner.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Allocation counters from construction (see [`GraphBuildStats`]).
    pub fn build_stats(&self) -> GraphBuildStats {
        self.build_stats
    }

    /// Exact bytes held by the frozen flat arrays (offsets, packed edge and
    /// neighbour lists, attribute tuples, label index; the shared interner
    /// is excluded). The frozen layout is a fixed set of large flat
    /// allocations, so this is an exact census, not an estimate.
    pub fn memory_bytes(&self) -> u64 {
        let csr = |c: &Csr| {
            slice_bytes(&c.offsets)
                + slice_bytes(&c.list)
                + slice_bytes(&c.nbrs)
                + slice_bytes(&c.labels)
        };
        let lcsr = |c: &LabelCsr| {
            slice_bytes(&c.list)
                + slice_bytes(&c.nbrs)
                + slice_bytes(&c.range_offsets)
                + slice_bytes(&c.ranges)
        };
        let t = &*self.topo;
        slice_bytes(&t.labels)
            + slice_bytes(&self.attr_offsets)
            + slice_bytes(&self.attr_entries)
            + slice_bytes(&t.edges)
            + csr(&t.out)
            + csr(&t.inn)
            + lcsr(&t.out_labeled)
            + lcsr(&t.in_labeled)
            + slice_bytes(&t.label_node_offsets)
            + slice_bytes(&t.label_nodes)
    }

    /// Distinct values of attribute `a`, with occurrence counts, sorted by
    /// descending count (used to pick the paper's "5 most frequent values").
    pub fn attr_value_frequencies(&self, a: AttrId) -> Vec<(Value, u32)> {
        let mut counts: FxHashMap<Value, u32> = FxHashMap::default();
        for n in self.nodes() {
            if let Some(v) = self.attr(n, a) {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        let mut out: Vec<(Value, u32)> = counts.into_iter().collect();
        out.sort_unstable_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        out
    }

    /// Labels present on at least one node, with node counts, sorted by
    /// descending count.
    pub fn node_label_frequencies(&self) -> Vec<(LabelId, u32)> {
        let mut out: Vec<(LabelId, u32)> = self
            .topo
            .label_node_offsets
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[1] > w[0])
            .map(|(i, w)| (LabelId::from_index(i), w[1] - w[0]))
            .collect();
        out.sort_unstable_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Graph {
        // person --create--> product ; person --follow--> person
        let mut b = GraphBuilder::new();
        let p1 = b.add_node("person");
        let p2 = b.add_node("person");
        let f = b.add_node("product");
        b.set_attr(p1, "name", "John");
        b.set_attr(p1, "age", 30i64);
        b.set_attr(f, "type", "film");
        b.add_edge(p1, f, "create");
        b.add_edge(p1, p2, "follow");
        b.add_edge(p2, p1, "follow");
        b.build()
    }

    #[test]
    fn counts_and_lookup() {
        let g = toy();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.size(), 6);
        let person = g.interner().lookup_label("person").unwrap();
        assert_eq!(g.nodes_with_label(person).len(), 2);
        let product = g.interner().lookup_label("product").unwrap();
        assert_eq!(g.nodes_with_label(product), &[NodeId(2)]);
    }

    #[test]
    fn attributes_sorted_and_searchable() {
        let g = toy();
        let name = g.interner().lookup_attr("name").unwrap();
        let age = g.interner().lookup_attr("age").unwrap();
        let john = g.interner().lookup_symbol("John").unwrap();
        assert_eq!(g.attr(NodeId(0), name), Some(Value::Str(john)));
        assert_eq!(g.attr(NodeId(0), age), Some(Value::Int(30)));
        assert_eq!(g.attr(NodeId(1), name), None);
        let tuple = g.attrs(NodeId(0));
        assert!(tuple.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn attr_overwrite_keeps_single_binding() {
        let mut b = GraphBuilder::new();
        let n = b.add_node("x");
        b.set_attr(n, "k", "v1");
        b.set_attr(n, "k", "v2");
        let g = b.build();
        assert_eq!(g.attrs(n).len(), 1);
        let k = g.interner().lookup_attr("k").unwrap();
        let v2 = g.interner().lookup_symbol("v2").unwrap();
        assert_eq!(g.attr(n, k), Some(Value::Str(v2)));
    }

    #[test]
    fn attr_overwrites_interleaved_across_nodes_resolve_last_wins() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("t");
        let y = b.add_node("t");
        b.set_attr(x, "a", "x1");
        b.set_attr(y, "a", "y1");
        b.set_attr(x, "b", 1i64);
        b.set_attr(x, "a", "x2");
        b.set_attr(y, "a", "y2");
        b.set_attr(x, "a", "x3");
        let g = b.build();
        assert_eq!(g.attrs(x).len(), 2);
        assert_eq!(g.attrs(y).len(), 1);
        let a = g.interner().lookup_attr("a").unwrap();
        let x3 = g.interner().lookup_symbol("x3").unwrap();
        let y2 = g.interner().lookup_symbol("y2").unwrap();
        assert_eq!(g.attr(x, a), Some(Value::Str(x3)));
        assert_eq!(g.attr(y, a), Some(Value::Str(y2)));
    }

    #[test]
    fn adjacency_and_degrees() {
        let g = toy();
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(0)), 3);
        assert_eq!(g.out_degree(NodeId(2)), 0);
        assert_eq!(g.in_degree(NodeId(2)), 1);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn edge_queries() {
        let g = toy();
        let create = g.interner().lookup_label("create").unwrap();
        let follow = g.interner().lookup_label("follow").unwrap();
        assert!(g.has_edge(NodeId(0), NodeId(2), create));
        assert!(!g.has_edge(NodeId(2), NodeId(0), create));
        assert!(g.has_edge(NodeId(0), NodeId(1), follow));
        assert!(g.has_edge(NodeId(1), NodeId(0), follow));
        assert!(!g.has_any_edge(NodeId(2), NodeId(1)));
        assert!(g.has_any_edge(NodeId(0), NodeId(2)));
        assert_eq!(g.edges_between(NodeId(0), NodeId(2)).len(), 1);
    }

    #[test]
    fn multi_edges_between_same_pair() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("a");
        let y = b.add_node("b");
        b.add_edge(x, y, "r1");
        b.add_edge(x, y, "r2");
        b.add_edge(x, y, "r1");
        let g = b.build();
        assert_eq!(g.edges_between(x, y).len(), 3);
        let r1 = g.interner().lookup_label("r1").unwrap();
        let r2 = g.interner().lookup_label("r2").unwrap();
        assert!(g.has_edge(x, y, r1));
        assert!(g.has_edge(x, y, r2));
    }

    #[test]
    fn value_frequencies_ranked() {
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            let n = b.add_node("t");
            b.set_attr(n, "c", if i < 3 { "hi" } else { "lo" });
        }
        let g = b.build();
        let c = g.interner().lookup_attr("c").unwrap();
        let freq = g.attr_value_frequencies(c);
        assert_eq!(freq.len(), 2);
        assert_eq!(freq[0].1, 3);
        assert_eq!(freq[1].1, 2);
    }

    #[test]
    fn label_frequencies_ranked() {
        let g = toy();
        let freq = g.node_label_frequencies();
        assert_eq!(freq[0].1, 2); // person
        assert_eq!(freq[1].1, 1); // product
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.nodes_with_label(LabelId(99)), &[]);
    }

    #[test]
    #[should_panic(expected = "edge src out of range")]
    fn dangling_edge_panics() {
        let mut b = GraphBuilder::new();
        let _ = b.add_node("a");
        b.add_edge_by_id(NodeId(5), NodeId(0), LabelId(0));
    }

    #[test]
    fn labeled_adjacency_matches_filtered_scan() {
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..6)
            .map(|i| b.add_node(if i % 2 == 0 { "a" } else { "b" }))
            .collect();
        let labels = ["r", "s", "t"];
        for i in 0..6 {
            for j in 0..6 {
                if i == j {
                    continue;
                }
                if (i + j) % 2 == 0 {
                    b.add_edge(nodes[i], nodes[j], labels[(i * j) % 3]);
                }
                if (i * 7 + j) % 3 == 0 {
                    b.add_edge(nodes[i], nodes[j], labels[j % 3]);
                }
            }
        }
        let g = b.build();
        for name in labels {
            let l = g.interner().lookup_label(name).unwrap();
            for n in g.nodes() {
                let mut expect_out: Vec<EdgeId> = g
                    .out_edges(n)
                    .iter()
                    .copied()
                    .filter(|&e| g.edge(e).label == l)
                    .collect();
                expect_out.sort_unstable_by_key(|&e| (g.edge(e).dst, e));
                assert_eq!(g.out_edges_labeled(n, l), expect_out.as_slice());
                assert_eq!(g.out_label_degree(n, l), expect_out.len());

                let mut expect_in: Vec<EdgeId> = g
                    .in_edges(n)
                    .iter()
                    .copied()
                    .filter(|&e| g.edge(e).label == l)
                    .collect();
                expect_in.sort_unstable_by_key(|&e| (g.edge(e).src, e));
                assert_eq!(g.in_edges_labeled(n, l), expect_in.as_slice());
                assert_eq!(g.in_label_degree(n, l), expect_in.len());
            }
        }
    }

    #[test]
    fn packed_neighbour_slices_parallel_the_edge_slices() {
        let g = toy();
        for n in g.nodes() {
            let out_expect: Vec<NodeId> = g.out_edges(n).iter().map(|&e| g.edge(e).dst).collect();
            assert_eq!(g.out_nbrs(n), out_expect.as_slice());
            let in_expect: Vec<NodeId> = g.in_edges(n).iter().map(|&e| g.edge(e).src).collect();
            assert_eq!(g.in_nbrs(n), in_expect.as_slice());
            for (l, edges, nbrs) in g.out_label_runs(n) {
                assert_eq!(edges.len(), nbrs.len());
                let expect: Vec<NodeId> = edges.iter().map(|&e| g.edge(e).dst).collect();
                assert_eq!(nbrs, expect.as_slice());
                let (pe, pn) = g.out_adj_labeled(n, l);
                assert_eq!(pe, edges);
                assert_eq!(pn, nbrs);
                assert_eq!(g.out_nbrs_labeled(n, l), nbrs);
            }
            for (l, edges, nbrs) in g.in_label_runs(n) {
                let expect: Vec<NodeId> = edges.iter().map(|&e| g.edge(e).src).collect();
                assert_eq!(nbrs, expect.as_slice());
                let (pe, pn) = g.in_adj_labeled(n, l);
                assert_eq!(pe, edges);
                assert_eq!(pn, nbrs);
                assert_eq!(g.in_nbrs_labeled(n, l), nbrs);
            }
        }
    }

    #[test]
    fn label_runs_cover_the_adjacency_exactly_once() {
        let g = toy();
        for n in g.nodes() {
            let mut out_run_edges: Vec<EdgeId> = Vec::new();
            for (l, edges, _) in g.out_label_runs(n) {
                assert_eq!(edges, g.out_edges_labeled(n, l));
                assert_eq!(edges.len(), g.out_label_degree(n, l));
                out_run_edges.extend_from_slice(edges);
            }
            let mut expect: Vec<EdgeId> = g.out_edges(n).to_vec();
            expect.sort_unstable();
            out_run_edges.sort_unstable();
            assert_eq!(out_run_edges, expect);

            let mut in_run_edges: Vec<EdgeId> = Vec::new();
            for (l, edges, _) in g.in_label_runs(n) {
                assert_eq!(edges, g.in_edges_labeled(n, l));
                in_run_edges.extend_from_slice(edges);
            }
            let mut expect: Vec<EdgeId> = g.in_edges(n).to_vec();
            expect.sort_unstable();
            in_run_edges.sort_unstable();
            assert_eq!(in_run_edges, expect);
        }
    }

    #[test]
    fn labeled_adjacency_absent_label_is_empty() {
        let g = toy();
        let missing = LabelId(999);
        assert_eq!(g.out_edges_labeled(NodeId(0), missing), &[]);
        assert_eq!(g.in_edges_labeled(NodeId(0), missing), &[]);
        assert_eq!(g.out_nbrs_labeled(NodeId(0), missing), &[]);
        assert_eq!(g.out_label_degree(NodeId(0), missing), 0);
        assert_eq!(g.in_label_degree(NodeId(0), missing), 0);
    }

    #[test]
    fn labeled_adjacency_groups_parallel_edges() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("a");
        let y = b.add_node("b");
        let z = b.add_node("b");
        b.add_edge(x, y, "r");
        b.add_edge(x, z, "r");
        b.add_edge(x, y, "r");
        b.add_edge(x, y, "s");
        let g = b.build();
        let r = g.interner().lookup_label("r").unwrap();
        let s = g.interner().lookup_label("s").unwrap();
        let rs = g.out_edges_labeled(x, r);
        assert_eq!(rs.len(), 3);
        // Sorted by destination: parallel edges to `y` are consecutive.
        assert_eq!(g.edge(rs[0]).dst, y);
        assert_eq!(g.edge(rs[1]).dst, y);
        assert_eq!(g.edge(rs[2]).dst, z);
        assert_eq!(g.out_nbrs_labeled(x, r), &[y, y, z]);
        assert_eq!(g.out_label_degree(x, r), 3);
        assert_eq!(g.out_label_degree(x, s), 1);
        assert_eq!(g.in_label_degree(y, r), 2);
    }

    #[test]
    fn preallocated_builder_appends_without_reallocating() {
        let mut b = GraphBuilder::with_capacity(10, 12, 8);
        let ns: Vec<NodeId> = (0..10).map(|_| b.add_node("t")).collect();
        for i in 0..8 {
            b.set_attr(ns[i % 10], "a", i as i64);
        }
        for i in 0..12 {
            b.add_edge(ns[i % 10], ns[(i + 1) % 10], "r");
        }
        let g = b.build();
        let st = g.build_stats();
        assert_eq!(st.builder_reallocs, 0, "{st:?}");
        assert_eq!(st.attr_writes, 8);
        assert!(st.graph_bytes > 0);
        assert_eq!(st.graph_bytes, g.memory_bytes());
    }

    #[test]
    fn unreserved_builder_counts_reallocs() {
        let mut b = GraphBuilder::new();
        for _ in 0..100 {
            let n = b.add_node("t");
            b.set_attr(n, "a", 1i64);
        }
        let g = b.build();
        assert!(g.build_stats().builder_reallocs > 0);
    }

    #[test]
    fn memory_bytes_grows_with_the_graph() {
        let small = toy();
        let mut b = GraphBuilder::new();
        let ns: Vec<NodeId> = (0..100).map(|_| b.add_node("t")).collect();
        for i in 0..99 {
            b.add_edge(ns[i], ns[i + 1], "r");
        }
        let big = b.build();
        assert!(big.memory_bytes() > small.memory_bytes());
    }
}
