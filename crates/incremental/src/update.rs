//! Graph update operations and batches.
//!
//! Knowledge bases are not static: entities gain attributes, links are
//! added and retracted. An [`UpdateBatch`] collects such changes; the
//! monitor applies a batch atomically and reports how the violation set
//! moved. New nodes are assigned ids deterministically (`node_count`,
//! `node_count + 1`, … in batch order), so a batch can reference its own
//! additions.

use gfd_graph::{AttrId, LabelId, NodeId, Value};

/// One atomic change to a property graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Update {
    /// Adds a node with the given label; its id is assigned on apply.
    AddNode {
        /// Label `L(v)` of the new node.
        label: LabelId,
    },
    /// Adds a directed labelled edge.
    AddEdge {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Edge label.
        label: LabelId,
    },
    /// Removes every edge matching the `(src, dst, label)` triple
    /// (multi-edges between the same endpoints with the same label are
    /// indistinguishable to patterns, so they are removed together).
    RemoveEdge {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Edge label.
        label: LabelId,
    },
    /// Sets attribute `attr = value` on a node (insert or overwrite).
    SetAttr {
        /// The node.
        node: NodeId,
        /// The attribute `A`.
        attr: AttrId,
        /// The value `a`.
        value: Value,
    },
    /// Deletes an attribute from a node (no-op when absent).
    RemoveAttr {
        /// The node.
        node: NodeId,
        /// The attribute `A`.
        attr: AttrId,
    },
}

/// An ordered batch of updates, applied atomically by the monitor.
#[derive(Clone, Debug, Default)]
pub struct UpdateBatch {
    ops: Vec<Update>,
    /// Number of `AddNode`s queued (for deterministic id pre-assignment).
    added_nodes: usize,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> UpdateBatch {
        UpdateBatch::default()
    }

    /// The queued operations, in application order.
    pub fn ops(&self) -> &[Update] {
        &self.ops
    }

    /// Whether the batch contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Number of `AddNode`s queued; they receive the ids after the
    /// graph's nodes, in batch order.
    pub fn added_nodes(&self) -> usize {
        self.added_nodes
    }

    /// Queues a raw update.
    pub fn push(&mut self, u: Update) -> &mut Self {
        if matches!(u, Update::AddNode { .. }) {
            self.added_nodes += 1;
        }
        self.ops.push(u);
        self
    }

    /// Queues a node addition and returns the id it will receive when the
    /// batch is applied to a graph that currently has `base_nodes` nodes.
    pub fn add_node(&mut self, base_nodes: usize, label: LabelId) -> NodeId {
        let id = NodeId::from_index(base_nodes + self.added_nodes);
        self.push(Update::AddNode { label });
        id
    }

    /// Queues an edge addition.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, label: LabelId) -> &mut Self {
        self.push(Update::AddEdge { src, dst, label })
    }

    /// Queues an edge removal.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId, label: LabelId) -> &mut Self {
        self.push(Update::RemoveEdge { src, dst, label })
    }

    /// Queues an attribute write.
    pub fn set_attr(&mut self, node: NodeId, attr: AttrId, value: Value) -> &mut Self {
        self.push(Update::SetAttr { node, attr, value })
    }

    /// Queues an attribute deletion.
    pub fn remove_attr(&mut self, node: NodeId, attr: AttrId) -> &mut Self {
        self.push(Update::RemoveAttr { node, attr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_builder_and_node_ids() {
        let mut b = UpdateBatch::new();
        assert!(b.is_empty());
        let n1 = b.add_node(10, LabelId(0));
        let n2 = b.add_node(10, LabelId(1));
        assert_eq!(n1, NodeId::from_index(10));
        assert_eq!(n2, NodeId::from_index(11));
        b.add_edge(n1, n2, LabelId(2))
            .set_attr(n1, AttrId(0), Value::Int(5))
            .remove_attr(n2, AttrId(1));
        assert_eq!(b.len(), 5);
        assert!(matches!(b.ops()[0], Update::AddNode { .. }));
        assert!(matches!(b.ops()[2], Update::AddEdge { .. }));
    }
}
