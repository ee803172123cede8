//! A mutable, unindexed copy of a graph, for updates that change topology.
//!
//! [`Graph`]'s topology is frozen (CSR adjacency, per-label indexes)
//! because matching dominates everything else; only attribute values can
//! be edited in place. A batch that adds nodes or adds or removes edges
//! therefore goes through a [`GraphState`]: copy the graph out, apply the
//! batch, and freeze a new graph. That round trip costs `O(|G|)`, so the
//! monitor takes it only for topology batches; an attribute-only batch
//! costs the matches through its touched nodes.

use std::sync::Arc;

use gfd_graph::{AttrId, Edge, Graph, GraphBuilder, Interner, LabelId, NodeId, Value};

use crate::update::{Update, UpdateBatch};

/// A mutable copy of a property graph's nodes, attributes and edges.
#[derive(Clone, Debug)]
pub struct GraphState {
    interner: Arc<Interner>,
    labels: Vec<LabelId>,
    attrs: Vec<Vec<(AttrId, Value)>>,
    edges: Vec<Edge>,
}

impl GraphState {
    /// Copies the state out of a frozen graph.
    pub fn from_graph(g: &Graph) -> GraphState {
        GraphState {
            interner: Arc::clone(g.interner()),
            labels: g.nodes().map(|n| g.node_label(n)).collect(),
            attrs: g.nodes().map(|n| g.attrs(n).to_vec()).collect(),
            edges: g.edges().to_vec(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Applies one update, returning the nodes it touches. `RemoveEdge`
    /// on an absent triple and `RemoveAttr` on an absent attribute are
    /// recorded no-ops (they still mark their endpoints touched — the
    /// caller treats "touched" as an over-approximation).
    pub fn apply(&mut self, u: &Update) -> Vec<NodeId> {
        match *u {
            Update::AddNode { label } => {
                let id = NodeId::from_index(self.labels.len());
                self.labels.push(label);
                self.attrs.push(Vec::new());
                vec![id]
            }
            Update::AddEdge { src, dst, label } => {
                assert!(src.index() < self.labels.len(), "AddEdge src out of range");
                assert!(dst.index() < self.labels.len(), "AddEdge dst out of range");
                self.edges.push(Edge { src, dst, label });
                vec![src, dst]
            }
            Update::RemoveEdge { src, dst, label } => {
                self.edges
                    .retain(|e| !(e.src == src && e.dst == dst && e.label == label));
                vec![src, dst]
            }
            Update::SetAttr { node, attr, value } => {
                let tuple = &mut self.attrs[node.index()];
                match tuple.iter_mut().find(|(a, _)| *a == attr) {
                    Some(slot) => slot.1 = value,
                    None => tuple.push((attr, value)),
                }
                vec![node]
            }
            Update::RemoveAttr { node, attr } => {
                self.attrs[node.index()].retain(|(a, _)| *a != attr);
                vec![node]
            }
        }
    }

    /// Applies a whole batch, returning the deduplicated touched set.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Vec<NodeId> {
        let mut touched = Vec::new();
        for u in batch.ops() {
            touched.extend(self.apply(u));
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// Freezes into an indexed [`Graph`] sharing the original interner.
    pub fn freeze(&self) -> Graph {
        let mut b = GraphBuilder::with_interner(Arc::clone(&self.interner));
        for (i, &l) in self.labels.iter().enumerate() {
            let id = b.add_node_by_id(l);
            debug_assert_eq!(id.index(), i);
        }
        for (i, tuple) in self.attrs.iter().enumerate() {
            for &(a, v) in tuple {
                b.set_attr_by_id(NodeId::from_index(i), a, v);
            }
        }
        for e in &self.edges {
            b.add_edge_by_id(e.src, e.dst, e.label);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.add_node("person");
        let y = b.add_node("person");
        b.set_attr(x, "name", "ann");
        b.add_edge(x, y, "knows");
        b.build()
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = base();
        let s = GraphState::from_graph(&g);
        let g2 = s.freeze();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        let name = g.interner().lookup_attr("name").unwrap();
        assert_eq!(
            g2.attr(NodeId::from_index(0), name),
            g.attr(NodeId::from_index(0), name)
        );
        assert_eq!(g2.edges(), g.edges());
    }

    #[test]
    fn updates_mutate_and_report_touched() {
        let g = base();
        let mut s = GraphState::from_graph(&g);
        let person = g.interner().lookup_label("person").unwrap();
        let knows = g.interner().lookup_label("knows").unwrap();
        let name = g.interner().lookup_attr("name").unwrap();

        let t = s.apply(&Update::AddNode { label: person });
        assert_eq!(t, vec![NodeId::from_index(2)]);
        let t = s.apply(&Update::AddEdge {
            src: NodeId::from_index(2),
            dst: NodeId::from_index(0),
            label: knows,
        });
        assert_eq!(t.len(), 2);
        s.apply(&Update::SetAttr {
            node: NodeId::from_index(2),
            attr: name,
            value: Value::Int(7),
        });
        let g2 = s.freeze();
        assert_eq!(g2.node_count(), 3);
        assert_eq!(g2.edge_count(), 2);
        assert_eq!(g2.attr(NodeId::from_index(2), name), Some(Value::Int(7)));

        // Remove the new edge again.
        s.apply(&Update::RemoveEdge {
            src: NodeId::from_index(2),
            dst: NodeId::from_index(0),
            label: knows,
        });
        s.apply(&Update::RemoveAttr {
            node: NodeId::from_index(2),
            attr: name,
        });
        let g3 = s.freeze();
        assert_eq!(g3.edge_count(), 1);
        assert_eq!(g3.attr(NodeId::from_index(2), name), None);
    }

    #[test]
    fn remove_edge_removes_all_parallel_copies() {
        let g = base();
        let mut s = GraphState::from_graph(&g);
        let knows = g.interner().lookup_label("knows").unwrap();
        let (a, b) = (NodeId::from_index(0), NodeId::from_index(1));
        s.apply(&Update::AddEdge {
            src: a,
            dst: b,
            label: knows,
        });
        assert_eq!(s.edge_count(), 2);
        s.apply(&Update::RemoveEdge {
            src: a,
            dst: b,
            label: knows,
        });
        assert_eq!(s.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dangling_edge_rejected() {
        let g = base();
        let mut s = GraphState::from_graph(&g);
        s.apply(&Update::AddEdge {
            src: NodeId::from_index(9),
            dst: NodeId::from_index(0),
            label: LabelId(0),
        });
    }
}
