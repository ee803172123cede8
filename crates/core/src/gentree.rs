//! The GFD generation tree `T` (§5.1, Fig. 2).
//!
//! Nodes hold patterns level by level (level = edge count); a node at
//! level `l + 1` extends some node at level `l` by one edge. Spawned
//! patterns are de-duplicated by pivot-preserving canonical code
//! (`iso(Q)`). The tree holds no matches: each discovery executor keeps the
//! match sets it still needs ([`crate::driver`]).

use gfd_graph::FxHashMap;
use gfd_pattern::{Pattern, PatternRegistry};

use crate::hspawn::Covered;

/// Verification state of a tree node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeState {
    /// `supp(Q, G) ≥ σ`: expanded and mined.
    Frequent,
    /// `0 < supp < σ`: kept for bookkeeping, pruned from expansion
    /// (Lemma 4(c)).
    Infrequent,
    /// Zero matches: a negative candidate (case (a)).
    Empty,
    /// Spawned but not yet verified.
    Pending,
}

/// One node of the generation tree.
#[derive(Debug)]
pub struct GenNode {
    /// Dense node id.
    pub id: usize,
    /// The pattern `Q[x̄]`.
    pub pattern: Pattern,
    /// Edge count.
    pub level: usize,
    /// `supp(Q, G)` once verified.
    pub support: usize,
    /// Satisfied dependency signatures, inherited down the primary chain.
    pub covered: Vec<Covered>,
    /// Verification state.
    pub state: NodeState,
}

/// Outcome of inserting a spawned pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Inserted {
    /// A new isomorphism class; the node must be verified.
    Fresh(usize),
    /// Merged into an existing class.
    Existing(usize),
}

impl Inserted {
    /// The node id either way.
    pub fn id(self) -> usize {
        match self {
            Inserted::Fresh(i) | Inserted::Existing(i) => i,
        }
    }
}

/// The generation tree.
#[derive(Default)]
pub struct GenTree {
    nodes: Vec<GenNode>,
    registry: PatternRegistry,
    class_to_node: FxHashMap<usize, usize>,
    levels: Vec<Vec<usize>>,
}

impl GenTree {
    /// Empty tree.
    pub fn new() -> GenTree {
        GenTree::default()
    }

    /// Inserts a spawned pattern; de-duplicates by canonical code. For an
    /// existing class [`Inserted::Existing`] is returned.
    pub fn insert(&mut self, pattern: Pattern) -> Inserted {
        let level = pattern.edge_count();
        let (class, fresh) = self.registry.intern(&pattern);
        if !fresh {
            return Inserted::Existing(self.class_to_node[&class]);
        }
        let id = self.nodes.len();
        self.class_to_node.insert(class, id);
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, Vec::new);
        }
        self.levels[level].push(id);
        self.nodes.push(GenNode {
            id,
            pattern,
            level,
            support: 0,
            covered: Vec::new(),
            state: NodeState::Pending,
        });
        Inserted::Fresh(id)
    }

    /// Node access.
    pub fn node(&self, id: usize) -> &GenNode {
        &self.nodes[id]
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, id: usize) -> &mut GenNode {
        &mut self.nodes[id]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[GenNode] {
        &self.nodes
    }

    /// Node ids at `level` (empty slice when the level does not exist).
    pub fn level(&self, level: usize) -> &[usize] {
        self.levels.get(level).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of levels with at least one node.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no pattern has been inserted.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::LabelId;
    use gfd_pattern::{End, Extension, PLabel};

    fn l(i: u32) -> PLabel {
        PLabel::Is(LabelId(i))
    }

    #[test]
    fn insert_dedups_isomorphic_patterns() {
        let mut t = GenTree::new();
        let root = t.insert(Pattern::single(l(0)));
        assert!(matches!(root, Inserted::Fresh(0)));
        let e1 = Pattern::edge(l(0), l(1), l(2));
        let a = t.insert(e1.clone());
        assert!(matches!(a, Inserted::Fresh(_)));
        // Same pattern spawned again (from another parent) merges.
        t.insert(Pattern::single(l(2)));
        let b = t.insert(e1);
        assert!(matches!(b, Inserted::Existing(_)));
        assert_eq!(a.id(), b.id());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn levels_track_edge_count() {
        let mut t = GenTree::new();
        t.insert(Pattern::single(l(0)));
        let e = Pattern::edge(l(0), l(1), l(0));
        let two = e.extend(&Extension {
            src: End::Var(1),
            dst: End::Var(0),
            label: l(1),
        });
        t.insert(e);
        t.insert(two);
        assert_eq!(t.level(0).len(), 1);
        assert_eq!(t.level(1).len(), 1);
        assert_eq!(t.level(2).len(), 1);
        assert_eq!(t.level(9), &[] as &[usize]);
        assert_eq!(t.depth(), 3);
    }
}
