//! Articulation sets of hypergraphs.
//!
//! An *articulation set* is the intersection `X = E ∩ F` of two edges such
//! that removing the nodes of `X` from the hypergraph (and hence from every
//! edge containing them) increases the number of connected components
//! (paper §1).  Articulation sets generalize articulation points of ordinary
//! graphs and are the pivot of the paper's acyclicity definition.

use crate::hypergraph::Hypergraph;
use crate::nodeset::NodeSet;
use std::collections::BTreeSet;

impl Hypergraph {
    /// All candidate articulation sets: the distinct nonempty pairwise
    /// intersections of edges.
    pub(crate) fn edge_intersections(&self) -> Vec<NodeSet> {
        let mut seen = BTreeSet::new();
        let edges = self.edges();
        for i in 0..edges.len() {
            for j in i + 1..edges.len() {
                let x = edges[i].nodes.intersection(&edges[j].nodes);
                if !x.is_empty() {
                    seen.insert(x);
                }
            }
        }
        seen.into_iter().collect()
    }

    /// True if `x` is an articulation set of this hypergraph: it is the
    /// intersection of two edges and its removal increases the number of
    /// components.
    pub fn is_articulation_set(&self, x: &NodeSet) -> bool {
        if x.is_empty() {
            return false;
        }
        let is_intersection = {
            let edges = self.edges();
            let mut found = false;
            'outer: for i in 0..edges.len() {
                for j in i + 1..edges.len() {
                    if &edges[i].nodes.intersection(&edges[j].nodes) == x {
                        found = true;
                        break 'outer;
                    }
                }
            }
            found
        };
        if !is_intersection {
            return false;
        }
        self.removal_increases_components(x)
    }

    /// True if removing the node set `x` increases the number of connected
    /// components (regardless of whether `x` is an edge intersection).
    pub(crate) fn removal_increases_components(&self, x: &NodeSet) -> bool {
        self.components_without(x).len() > self.component_count()
    }

    /// All articulation sets of the hypergraph, in canonical order.
    pub fn articulation_sets(&self) -> Vec<NodeSet> {
        self.edge_intersections()
            .into_iter()
            .filter(|x| self.removal_increases_components(x))
            .collect()
    }

    /// Some articulation set, if one exists.  Cheaper than
    /// [`Hypergraph::articulation_sets`] when only existence matters.
    pub fn find_articulation_set(&self) -> Option<NodeSet> {
        let base = self.component_count();
        let edges = self.edges();
        let mut seen = BTreeSet::new();
        for i in 0..edges.len() {
            for j in i + 1..edges.len() {
                let x = edges[i].nodes.intersection(&edges[j].nodes);
                if x.is_empty() || !seen.insert(x.clone()) {
                    continue;
                }
                if self.components_without(&x).len() > base {
                    return Some(x);
                }
            }
        }
        None
    }

    /// True if the hypergraph has at least one articulation set.
    pub fn has_articulation_set(&self) -> bool {
        self.find_articulation_set().is_some()
    }

    /// The *blocks* of the hypergraph in the sense the paper alludes to for
    /// ordinary graphs: maximal node-generated sub-hypergraphs without an
    /// articulation set, computed by recursively splitting at articulation
    /// sets.  Each block is returned as a node set (the articulation set is
    /// shared between the blocks it separates).
    pub fn blocks(&self) -> Vec<NodeSet> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeSet> = self.components();
        if stack.is_empty() && self.edge_count() > 0 {
            stack.push(self.nodes());
        }
        while let Some(nodes) = stack.pop() {
            let sub = self.induced(&nodes);
            match sub.find_articulation_set() {
                None => out.push(nodes),
                Some(x) => {
                    for comp in sub.components_without(&x) {
                        stack.push(comp.union(&x));
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> Hypergraph {
        Hypergraph::from_edges([
            vec!["A", "B", "C"],
            vec!["C", "D", "E"],
            vec!["A", "E", "F"],
            vec!["A", "C", "E"],
        ])
        .unwrap()
    }

    fn triangle() -> Hypergraph {
        Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["A", "C"]]).unwrap()
    }

    #[test]
    fn fig1_has_articulation_sets() {
        let h = fig1();
        assert!(h.has_articulation_set());
        let arts = h.articulation_sets();
        // {A, C}, {C, E}, {A, E} and {A, C, E} all separate a pendant node.
        assert!(arts.contains(&h.node_set(["A", "C"]).unwrap()));
        assert!(arts.contains(&h.node_set(["C", "E"]).unwrap()));
        assert!(arts.contains(&h.node_set(["A", "E"]).unwrap()));
        for x in &arts {
            assert!(h.is_articulation_set(x));
        }
    }

    #[test]
    fn triangle_has_no_articulation_set() {
        let h = triangle();
        assert!(!h.has_articulation_set());
        assert!(h.articulation_sets().is_empty());
        // Singleton intersections exist but do not disconnect.
        assert_eq!(h.edge_intersections().len(), 3);
    }

    #[test]
    fn empty_set_is_never_an_articulation_set() {
        assert!(!fig1().is_articulation_set(&NodeSet::new()));
    }

    #[test]
    fn non_intersection_is_rejected() {
        let h = fig1();
        // {C, D} disconnects nothing relevant and is not an edge intersection.
        let x = h.node_set(["B", "D"]).unwrap();
        assert!(!h.is_articulation_set(&x));
    }

    #[test]
    fn chain_articulation() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap();
        assert!(h.is_articulation_set(&h.node_set(["B"]).unwrap()));
        assert!(h.is_articulation_set(&h.node_set(["C"]).unwrap()));
        assert_eq!(h.articulation_sets().len(), 2);
    }

    #[test]
    fn find_matches_enumerate() {
        let h = fig1();
        let found = h.find_articulation_set().unwrap();
        assert!(h.articulation_sets().contains(&found));
    }

    #[test]
    fn blocks_of_a_chain_are_its_edges() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap();
        let blocks = h.blocks();
        assert_eq!(blocks.len(), 3);
        assert!(blocks.contains(&h.node_set(["A", "B"]).unwrap()));
        assert!(blocks.contains(&h.node_set(["B", "C"]).unwrap()));
        assert!(blocks.contains(&h.node_set(["C", "D"]).unwrap()));
    }

    #[test]
    fn blocks_of_triangle_is_whole() {
        let h = triangle();
        let blocks = h.blocks();
        assert_eq!(blocks, vec![h.nodes()]);
    }

    #[test]
    fn disconnected_hypergraph_components_count_as_base() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["C", "D"]]).unwrap();
        // No intersections at all, so no articulation sets.
        assert!(!h.has_articulation_set());
        assert_eq!(h.blocks().len(), 2);
    }
}
