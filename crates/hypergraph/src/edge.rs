//! Hyperedges and partial edges.

use crate::nodeset::NodeSet;
use std::fmt;

/// Identifier of an edge within a [`Hypergraph`](crate::Hypergraph).
///
/// Edge ids are *positional*: they index the owning hypergraph's edge vector
/// and are not stable across derived hypergraphs.  Use [`Edge::label`] to
/// track provenance across reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The index of this edge inside its hypergraph.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A hyperedge: a named set of nodes.
///
/// After a reduction the node set of an edge may be a proper subset of the
/// original edge it came from; following the paper we call such an edge a
/// *partial edge*.  The `label` records which original edge a partial edge
/// descends from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Human-readable label; preserved across reductions.
    pub label: String,
    /// The nodes of the edge.
    pub nodes: NodeSet,
}

impl Edge {
    /// Creates an edge from a label and a node set.
    pub fn new(label: impl Into<String>, nodes: NodeSet) -> Self {
        Self {
            label: label.into(),
            nodes,
        }
    }

    /// Number of nodes in the edge.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the edge has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::NodeId;

    #[test]
    fn subsumption() {
        let a = Edge::new("a", NodeSet::from_ids([NodeId(0), NodeId(1)]));
        let b = Edge::new("b", NodeSet::from_ids([NodeId(0), NodeId(1), NodeId(2)]));
        assert!(a.nodes.is_subset(&b.nodes));
        assert!(!b.nodes.is_subset(&a.nodes));
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }

    #[test]
    fn edge_id_display_and_index() {
        assert_eq!(EdgeId(3).index(), 3);
        assert_eq!(format!("{}", EdgeId(3)), "e3");
    }
}
