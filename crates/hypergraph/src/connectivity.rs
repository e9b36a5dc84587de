//! Connectedness and components of hypergraphs.
//!
//! A set of nodes `N` is connected if every pair of its nodes is linked by a
//! chain of edges with pairwise nonempty intersections (paper §1).  A
//! *component* is a maximal connected set of nodes.

use crate::hypergraph::Hypergraph;
use crate::interner::NodeId;
use crate::nodeset::NodeSet;

impl Hypergraph {
    /// The connected components of the hypergraph, as node sets, sorted
    /// canonically.
    ///
    /// Nodes of the universe that appear in no edge do not belong to any
    /// component.
    pub fn components(&self) -> Vec<NodeSet> {
        let mut remaining = self.nodes();
        let mut components = Vec::new();
        while let Some(start) = remaining.first() {
            let comp = self.component_of(start);
            remaining.subtract(&comp);
            components.push(comp);
        }
        components.sort();
        components
    }

    /// The component containing node `start` (the node itself if it appears
    /// in no edge of the hypergraph).
    pub(crate) fn component_of(&self, start: NodeId) -> NodeSet {
        let mut comp = NodeSet::from_ids([start]);
        let mut frontier = vec![start];
        let mut edge_used = vec![false; self.edge_count()];
        while let Some(n) = frontier.pop() {
            for (eid, e) in self.edge_entries() {
                if edge_used[eid.index()] || !e.nodes.contains(n) {
                    continue;
                }
                edge_used[eid.index()] = true;
                for m in e.nodes.iter() {
                    if comp.insert(m) {
                        frontier.push(m);
                    }
                }
            }
        }
        comp
    }

    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        self.components().len()
    }

    /// True if all nodes appearing in edges lie in a single component (or the
    /// hypergraph has no edges).
    pub fn is_connected(&self) -> bool {
        self.component_count() <= 1
    }

    /// The components of the hypergraph obtained by deleting the node set
    /// `x` from every edge (dropping emptied edges).  This is the quantity
    /// articulation sets are defined in terms of.
    pub fn components_without(&self, x: &NodeSet) -> Vec<NodeSet> {
        self.remove_nodes(x).components()
    }
}

#[cfg(test)]
mod tests {
    use crate::hypergraph::Hypergraph;

    fn fig1() -> Hypergraph {
        Hypergraph::from_edges([
            vec!["A", "B", "C"],
            vec!["C", "D", "E"],
            vec!["A", "E", "F"],
            vec!["A", "C", "E"],
        ])
        .unwrap()
    }

    #[test]
    fn fig1_is_connected() {
        let h = fig1();
        assert!(h.is_connected());
        assert_eq!(h.component_count(), 1);
        assert_eq!(h.components()[0], h.nodes());
    }

    #[test]
    fn two_islands() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["C", "D"], vec!["B", "E"]]).unwrap();
        assert!(!h.is_connected());
        let comps = h.components();
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&h.node_set(["A", "B", "E"]).unwrap()));
        assert!(comps.contains(&h.node_set(["C", "D"]).unwrap()));
    }

    #[test]
    fn component_of_singleton() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["C"]]).unwrap();
        let c = h.node("C").unwrap();
        assert_eq!(h.component_of(c), h.node_set(["C"]).unwrap());
    }

    #[test]
    fn empty_hypergraph_is_connected() {
        let h = Hypergraph::builder().build().unwrap();
        assert!(h.is_connected());
        assert!(h.components().is_empty());
    }

    #[test]
    fn removing_articulation_nodes_splits_components() {
        // Removing {C, E} from Fig. 1 separates {A, B, F} from {D}.
        let h = fig1();
        let x = h.node_set(["C", "E"]).unwrap();
        let comps = h.components_without(&x);
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&h.node_set(["A", "B", "F"]).unwrap()));
        assert!(comps.contains(&h.node_set(["D"]).unwrap()));
    }
}
