//! Graph patterns `Q[x̄]` (§2.1 of the paper).
//!
//! A pattern is a small directed graph whose nodes and edges carry either a
//! concrete label from `Θ` or the wildcard `_`. The variable list `x̄` and
//! the bijection `µ` of the paper are represented implicitly: variable `i`
//! *is* pattern node `i`. Every pattern designates a **pivot** variable `z`
//! (§4.1), used for the locality of matching and the pivoted support.

use std::fmt::Write as _;

use gfd_graph::{Interner, LabelId};

/// A pattern label: concrete or wildcard `_`.
///
/// The paper's preorder `⪯`: `ℓ ⪯ ℓ'` iff `ℓ = ℓ'` or `ℓ'` is `_`
/// (a wildcard matches any label; a concrete label matches only itself).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PLabel {
    /// The wildcard `_`, matching any label.
    Wildcard,
    /// A concrete label from `Θ`.
    Is(LabelId),
}

impl PLabel {
    /// Whether graph label `l` satisfies this pattern label (`l ⪯ self`).
    #[inline]
    pub fn admits(&self, l: LabelId) -> bool {
        match self {
            PLabel::Wildcard => true,
            PLabel::Is(want) => *want == l,
        }
    }

    /// Whether pattern label `other` satisfies this pattern label, i.e.
    /// `other ⪯ self`. Used when embedding a pattern into another pattern:
    /// a wildcard in `self` admits anything; a concrete `self` admits only
    /// the same concrete label (in particular it does *not* admit `_`).
    #[inline]
    pub fn admits_plabel(&self, other: PLabel) -> bool {
        match self {
            PLabel::Wildcard => true,
            PLabel::Is(want) => other == PLabel::Is(*want),
        }
    }

    /// True for the wildcard.
    #[inline]
    pub fn is_wildcard(&self) -> bool {
        matches!(self, PLabel::Wildcard)
    }

    /// Renders through an interner.
    pub fn display(&self, interner: &Interner) -> String {
        match self {
            PLabel::Wildcard => "_".to_owned(),
            PLabel::Is(l) => interner.label_name(*l),
        }
    }
}

impl From<LabelId> for PLabel {
    fn from(l: LabelId) -> Self {
        PLabel::Is(l)
    }
}

/// A pattern variable: the index of a pattern node (`µ` is the identity).
pub type Var = usize;

/// A directed pattern edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PEdge {
    /// Source variable.
    pub src: Var,
    /// Destination variable.
    pub dst: Var,
    /// Edge label (possibly `_`).
    pub label: PLabel,
}

/// One endpoint of a pattern extension (see [`Pattern::extend`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum End {
    /// An existing variable of the pattern being extended.
    Var(Var),
    /// A freshly added node with the given label; it becomes the
    /// highest-numbered variable of the extended pattern.
    New(PLabel),
}

/// A single-edge extension `Q → Q'` as generated by `VSpawn` (§5.1): adds
/// one edge, possibly with one new node. At most one endpoint may be new —
/// extensions always attach to the existing (connected) pattern.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Extension {
    /// Source endpoint.
    pub src: End,
    /// Destination endpoint.
    pub dst: End,
    /// Label of the added edge.
    pub label: PLabel,
}

/// A graph pattern `Q[x̄]` with a pivot.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Pattern {
    nodes: Vec<PLabel>,
    edges: Vec<PEdge>,
    pivot: Var,
    /// Per-node adjacency: `(edge index, outgoing?)`.
    adj: Vec<Vec<(usize, bool)>>,
}

impl Pattern {
    /// Builds a pattern from parts.
    ///
    /// # Panics
    /// Panics on an empty node list, out-of-range edge endpoints, or an
    /// out-of-range pivot.
    pub fn new(nodes: Vec<PLabel>, edges: Vec<PEdge>, pivot: Var) -> Pattern {
        assert!(!nodes.is_empty(), "pattern must have at least one node");
        assert!(pivot < nodes.len(), "pivot out of range");
        let mut adj: Vec<Vec<(usize, bool)>> = vec![Vec::new(); nodes.len()];
        for (i, e) in edges.iter().enumerate() {
            assert!(e.src < nodes.len(), "edge src out of range");
            assert!(e.dst < nodes.len(), "edge dst out of range");
            adj[e.src].push((i, true));
            if e.dst != e.src {
                adj[e.dst].push((i, false));
            }
        }
        Pattern {
            nodes,
            edges,
            pivot,
            adj,
        }
    }

    /// Single-node pattern (a level-0 pattern in the generation tree).
    pub fn single(label: PLabel) -> Pattern {
        Pattern::new(vec![label], Vec::new(), 0)
    }

    /// Single-edge pattern `src --label--> dst`, pivoted at the source.
    pub fn edge(src: PLabel, label: PLabel, dst: PLabel) -> Pattern {
        Pattern::new(
            vec![src, dst],
            vec![PEdge {
                src: 0,
                dst: 1,
                label,
            }],
            0,
        )
    }

    /// Number of pattern nodes `|x̄|` (the bound `k` counts these).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of pattern edges (the paper's "size": a level-`i` pattern has
    /// `i` edges).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Label of node `v`.
    #[inline]
    pub fn node_label(&self, v: Var) -> PLabel {
        self.nodes[v]
    }

    /// All node labels, indexed by variable.
    #[inline]
    pub fn node_labels(&self) -> &[PLabel] {
        &self.nodes
    }

    /// All edges.
    #[inline]
    pub fn edges(&self) -> &[PEdge] {
        &self.edges
    }

    /// The pivot variable `z`.
    #[inline]
    pub fn pivot(&self) -> Var {
        self.pivot
    }

    /// Returns a copy re-pivoted at `pivot`.
    pub fn with_pivot(&self, pivot: Var) -> Pattern {
        assert!(pivot < self.nodes.len(), "pivot out of range");
        let mut p = self.clone();
        p.pivot = pivot;
        p
    }

    /// Incident edges of `v` as `(edge index, outgoing?)` pairs. A self-loop
    /// appears once, as outgoing.
    #[inline]
    pub fn incident(&self, v: Var) -> &[(usize, bool)] {
        &self.adj[v]
    }

    /// Out-degree of `v` in the pattern.
    pub fn out_degree(&self, v: Var) -> usize {
        self.adj[v].iter().filter(|(_, out)| *out).count()
    }

    /// In-degree of `v` in the pattern.
    pub fn in_degree(&self, v: Var) -> usize {
        self.adj[v]
            .iter()
            .filter(|&&(e, out)| !out || self.edges[e].src == self.edges[e].dst)
            .count()
    }

    /// Edge indices between the ordered pair `(src, dst)`.
    pub fn edges_between(&self, src: Var, dst: Var) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.src == src && e.dst == dst)
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether every pair of nodes is connected by an undirected path (§4:
    /// discovery is restricted to connected patterns).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(e, _) in &self.adj[v] {
                let edge = self.edges[e];
                for w in [edge.src, edge.dst] {
                    if !seen[w] {
                        seen[w] = true;
                        count += 1;
                        stack.push(w);
                    }
                }
            }
        }
        count == self.nodes.len()
    }

    /// Applies a single-edge [`Extension`], returning the extended pattern
    /// `Q'`. The pivot and all existing variables are preserved; a new node
    /// becomes variable `self.node_count()`.
    ///
    /// # Panics
    /// Panics if both endpoints are [`End::New`] (extensions attach to the
    /// pattern) or reference out-of-range variables.
    pub fn extend(&self, ext: &Extension) -> Pattern {
        let mut nodes = self.nodes.clone();
        let mut resolve = |end: &End| -> Var {
            match end {
                End::Var(v) => {
                    assert!(*v < self.nodes.len(), "extension var out of range");
                    *v
                }
                End::New(label) => {
                    nodes.push(*label);
                    nodes.len() - 1
                }
            }
        };
        let src = resolve(&ext.src);
        let dst = resolve(&ext.dst);
        assert!(
            nodes.len() <= self.nodes.len() + 1,
            "an extension may add at most one node"
        );
        let mut edges = self.edges.clone();
        edges.push(PEdge {
            src,
            dst,
            label: ext.label,
        });
        Pattern::new(nodes, edges, self.pivot)
    }

    /// Returns a copy with node `v`'s label upgraded to `_` (the wildcard
    /// upgrade of §5.1).
    pub fn upgrade_node(&self, v: Var) -> Pattern {
        let mut p = self.clone();
        p.nodes[v] = PLabel::Wildcard;
        p
    }

    /// Returns a copy with edge `e`'s label upgraded to `_`.
    pub fn upgrade_edge(&self, e: usize) -> Pattern {
        let mut p = self.clone();
        p.edges[e].label = PLabel::Wildcard;
        p
    }

    /// Removes edge `e`; drops any node left isolated **except** the pivot
    /// and renumbers variables (used when searching for the base pattern of
    /// a negative GFD, §4.2). Returns the reduced pattern together with the
    /// old-variable → new-variable mapping.
    pub fn remove_edge(&self, e: usize) -> (Pattern, Vec<Option<Var>>) {
        assert!(e < self.edges.len(), "edge index out of range");
        let mut edges: Vec<PEdge> = self.edges.clone();
        edges.remove(e);
        let mut used = vec![false; self.nodes.len()];
        used[self.pivot] = true;
        for pe in &edges {
            used[pe.src] = true;
            used[pe.dst] = true;
        }
        let mut remap: Vec<Option<Var>> = vec![None; self.nodes.len()];
        let mut nodes = Vec::new();
        for (v, &keep) in used.iter().enumerate() {
            if keep {
                remap[v] = Some(nodes.len());
                nodes.push(self.nodes[v]);
            }
        }
        let edges = edges
            .into_iter()
            .map(|pe| PEdge {
                src: remap[pe.src].unwrap(),
                dst: remap[pe.dst].unwrap(),
                label: pe.label,
            })
            .collect();
        let pivot = remap[self.pivot].unwrap();
        (Pattern::new(nodes, edges, pivot), remap)
    }

    /// Human-readable rendering, e.g.
    /// `Q[x0:person*, x1:product; x0-create->x1]` (`*` marks the pivot).
    pub fn display(&self, interner: &Interner) -> String {
        let mut s = String::from("Q[");
        for (i, l) in self.nodes.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "x{}:{}", i, l.display(interner));
            if i == self.pivot {
                s.push('*');
            }
        }
        if !self.edges.is_empty() {
            s.push_str("; ");
            for (i, e) in self.edges.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "x{}-{}->x{}", e.src, e.label.display(interner), e.dst);
            }
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::Interner;

    fn l(i: u32) -> PLabel {
        PLabel::Is(LabelId(i))
    }

    #[test]
    fn plabel_preorder() {
        assert!(PLabel::Wildcard.admits(LabelId(3)));
        assert!(l(3).admits(LabelId(3)));
        assert!(!l(3).admits(LabelId(4)));
        // `⪯` on pattern labels: concrete ⪯ wildcard, not vice versa.
        assert!(PLabel::Wildcard.admits_plabel(l(1)));
        assert!(PLabel::Wildcard.admits_plabel(PLabel::Wildcard));
        assert!(!l(1).admits_plabel(PLabel::Wildcard));
        assert!(l(1).admits_plabel(l(1)));
        assert!(!l(1).admits_plabel(l(2)));
    }

    #[test]
    fn single_and_edge_constructors() {
        let p = Pattern::single(l(0));
        assert_eq!(p.node_count(), 1);
        assert_eq!(p.edge_count(), 0);
        assert!(p.is_connected());

        let q = Pattern::edge(l(0), l(1), l(2));
        assert_eq!(q.node_count(), 2);
        assert_eq!(q.edge_count(), 1);
        assert_eq!(q.pivot(), 0);
        assert_eq!(q.out_degree(0), 1);
        assert_eq!(q.in_degree(0), 0);
        assert_eq!(q.in_degree(1), 1);
    }

    #[test]
    fn extend_with_new_node() {
        let q = Pattern::edge(l(0), l(1), l(2));
        let q2 = q.extend(&Extension {
            src: End::Var(1),
            dst: End::New(l(3)),
            label: l(4),
        });
        assert_eq!(q2.node_count(), 3);
        assert_eq!(q2.edge_count(), 2);
        assert_eq!(q2.node_label(2), l(3));
        assert_eq!(q2.pivot(), 0);
        assert!(q2.is_connected());
    }

    #[test]
    fn extend_closing_cycle() {
        let q = Pattern::edge(l(0), l(1), l(0)); // person -> person
        let q2 = q.extend(&Extension {
            src: End::Var(1),
            dst: End::Var(0),
            label: l(1),
        });
        assert_eq!(q2.node_count(), 2);
        assert_eq!(q2.edge_count(), 2);
        assert_eq!(q2.edges_between(1, 0), vec![1]);
    }

    #[test]
    #[should_panic(expected = "at most one node")]
    fn extend_two_new_nodes_panics() {
        let q = Pattern::single(l(0));
        q.extend(&Extension {
            src: End::New(l(1)),
            dst: End::New(l(2)),
            label: l(3),
        });
    }

    #[test]
    fn connectivity() {
        // star: 0 -> 1, 0 -> 2
        let p = Pattern::new(
            vec![l(0), l(1), l(2)],
            vec![
                PEdge {
                    src: 0,
                    dst: 1,
                    label: l(9),
                },
                PEdge {
                    src: 0,
                    dst: 2,
                    label: l(9),
                },
            ],
            0,
        );
        assert!(p.is_connected());

        let disconnected = Pattern::new(vec![l(0), l(1)], vec![], 0);
        assert!(!disconnected.is_connected());
    }

    #[test]
    fn upgrades() {
        let q = Pattern::edge(l(0), l(1), l(2));
        let u = q.upgrade_node(1);
        assert_eq!(u.node_label(1), PLabel::Wildcard);
        assert_eq!(u.node_label(0), l(0));
        let v = q.upgrade_edge(0);
        assert_eq!(v.edges()[0].label, PLabel::Wildcard);
    }

    #[test]
    fn remove_edge_drops_isolated_non_pivot() {
        // x0 -> x1 -> x2, pivot x0; removing edge 1 drops x2.
        let p = Pattern::new(
            vec![l(0), l(1), l(2)],
            vec![
                PEdge {
                    src: 0,
                    dst: 1,
                    label: l(8),
                },
                PEdge {
                    src: 1,
                    dst: 2,
                    label: l(9),
                },
            ],
            0,
        );
        let (q, remap) = p.remove_edge(1);
        assert_eq!(q.node_count(), 2);
        assert_eq!(q.edge_count(), 1);
        assert_eq!(remap[0], Some(0));
        assert_eq!(remap[1], Some(1));
        assert_eq!(remap[2], None);

        // Removing edge 0 keeps the pivot even though it becomes isolated.
        let (q, remap) = p.remove_edge(0);
        assert_eq!(q.node_count(), 3);
        assert_eq!(remap[0], Some(0));
        assert_eq!(q.pivot(), 0);
        assert!(!q.is_connected());
    }

    #[test]
    fn self_loop_handled() {
        let p = Pattern::new(
            vec![l(0)],
            vec![PEdge {
                src: 0,
                dst: 0,
                label: l(1),
            }],
            0,
        );
        assert_eq!(p.incident(0).len(), 1);
        assert_eq!(p.out_degree(0), 1);
        assert_eq!(p.in_degree(0), 1);
        assert!(p.is_connected());
    }

    #[test]
    fn display_is_stable() {
        let i = Interner::new();
        let person = PLabel::Is(i.label("person"));
        let create = PLabel::Is(i.label("create"));
        let product = PLabel::Is(i.label("product"));
        let q = Pattern::edge(person, create, product);
        assert_eq!(q.display(&i), "Q[x0:person*, x1:product; x0-create->x1]");
        let w = q.upgrade_node(1);
        assert_eq!(w.display(&i), "Q[x0:person*, x1:_; x0-create->x1]");
    }
}
