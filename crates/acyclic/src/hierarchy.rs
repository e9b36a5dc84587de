//! The acyclicity-degree hierarchy (extension beyond the paper).
//!
//! The paper (§1) notes that its notion of acyclicity — α-acyclicity — is
//! *less restrictive* than Berge's classical definition and the ones used in
//! earlier database work.  This module implements the stricter notions so
//! the relationship can be demonstrated and tested:
//!
//! * **Berge-acyclic** — the bipartite incidence graph contains no cycle;
//!   equivalently no two edges share two nodes and the intersection
//!   structure is a forest.
//! * **γ-acyclic** and **β-acyclic** — intermediate classes; β-acyclicity is
//!   implemented by its characterization "every subset of the edge set is
//!   α-acyclic" (exponential, so guarded by an edge-count cap), which is the
//!   form most useful for cross-checking the strictness chain
//!   Berge ⊂ γ ⊂ β ⊂ α on generated instances.
//!
//! The strictness chain `berge ⇒ beta ⇒ alpha` is asserted by property
//! tests in the workspace test-suite.

use crate::acyclicity::AcyclicityExt;
use hypergraph::{Graph, Hypergraph, NodeId};

/// Maximum number of edges for which [`is_beta_acyclic`] will enumerate
/// edge subsets.
pub const BETA_EDGE_LIMIT: usize = 20;

/// True if the hypergraph is Berge-acyclic: its bipartite incidence graph
/// (nodes on one side, edges on the other) has no cycle.
///
/// Multi-occurrence counts: two distinct edges sharing two or more nodes
/// already create a cycle of length four in the incidence graph.
pub fn is_berge_acyclic(h: &Hypergraph) -> bool {
    // Build the incidence graph: node ids keep their value, edges get ids
    // shifted past the node universe.
    let offset = h.universe().len() as u32;
    let mut g = Graph::new();
    for n in h.nodes().iter() {
        g.add_node(n);
    }
    for (i, e) in h.edges().iter().enumerate() {
        let enode = NodeId(offset + i as u32);
        g.add_node(enode);
        for n in e.nodes.iter() {
            g.add_edge(enode, n);
        }
    }
    g.is_forest()
}

/// True if the hypergraph is β-acyclic: every nonempty subset of its edges
/// forms an α-acyclic hypergraph.
///
/// # Panics
/// Panics if the hypergraph has more than [`BETA_EDGE_LIMIT`] edges, since
/// the check enumerates all `2^m` edge subsets.
pub fn is_beta_acyclic(h: &Hypergraph) -> bool {
    let m = h.edge_count();
    assert!(
        m <= BETA_EDGE_LIMIT,
        "is_beta_acyclic enumerates 2^m edge subsets; refusing m = {m} > {BETA_EDGE_LIMIT}"
    );
    for mask in 1u64..(1u64 << m) {
        let edges: Vec<_> = h
            .edges()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, e)| e.clone())
            .collect();
        let sub = h.with_edges(edges);
        if !sub.is_acyclic() {
            return false;
        }
    }
    true
}

/// Where a hypergraph sits in the acyclicity hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degree {
    /// Berge-acyclic (hence β- and α-acyclic).
    Berge,
    /// β-acyclic but not Berge-acyclic.
    Beta,
    /// α-acyclic but not β-acyclic.
    Alpha,
    /// Cyclic (not even α-acyclic).
    Cyclic,
}

/// Classifies `h` in the acyclicity hierarchy (β requires at most
/// [`BETA_EDGE_LIMIT`] edges).
pub fn degree(h: &Hypergraph) -> Degree {
    if !h.is_acyclic() {
        Degree::Cyclic
    } else if h.edge_count() <= BETA_EDGE_LIMIT && is_beta_acyclic(h) {
        if is_berge_acyclic(h) {
            Degree::Berge
        } else {
            Degree::Beta
        }
    } else {
        Degree::Alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_berge_acyclic() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap();
        assert!(is_berge_acyclic(&h));
        assert!(is_beta_acyclic(&h));
        assert!(h.is_acyclic());
        assert_eq!(degree(&h), Degree::Berge);
    }

    #[test]
    fn two_edges_sharing_two_nodes_are_not_berge() {
        let h = Hypergraph::from_edges([vec!["A", "B", "C"], vec!["A", "B", "D"]]).unwrap();
        assert!(!is_berge_acyclic(&h));
        assert!(is_beta_acyclic(&h));
        assert_eq!(degree(&h), Degree::Beta);
    }

    #[test]
    fn fig1_is_alpha_but_not_beta() {
        // Removing the edge {A,C,E} from Fig. 1 leaves the cyclic 3-ring, so
        // Fig. 1 is α-acyclic but not β-acyclic.
        let h = Hypergraph::from_edges([
            vec!["A", "B", "C"],
            vec!["C", "D", "E"],
            vec!["A", "E", "F"],
            vec!["A", "C", "E"],
        ])
        .unwrap();
        assert!(h.is_acyclic());
        assert!(!is_beta_acyclic(&h));
        assert_eq!(degree(&h), Degree::Alpha);
    }

    #[test]
    fn triangle_is_cyclic_at_every_level() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["A", "C"]]).unwrap();
        assert!(!is_berge_acyclic(&h));
        assert!(!is_beta_acyclic(&h));
        assert!(!h.is_acyclic());
        assert_eq!(degree(&h), Degree::Cyclic);
    }

    #[test]
    fn hierarchy_is_monotone_on_examples() {
        let cases = [
            Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap(),
            Hypergraph::from_edges([vec!["A", "B", "C"], vec!["A", "B", "D"]]).unwrap(),
            Hypergraph::from_edges([vec!["A", "B", "C", "D"]]).unwrap(),
            Hypergraph::from_edges([
                vec!["A", "B", "C"],
                vec!["C", "D", "E"],
                vec!["A", "E", "F"],
                vec!["A", "C", "E"],
            ])
            .unwrap(),
        ];
        for h in cases {
            if is_berge_acyclic(&h) {
                assert!(
                    is_beta_acyclic(&h),
                    "Berge must imply beta: {}",
                    h.display()
                );
            }
            if is_beta_acyclic(&h) {
                assert!(h.is_acyclic(), "beta must imply alpha: {}", h.display());
            }
        }
    }
}
