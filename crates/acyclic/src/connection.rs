//! Canonical connections (paper §5).
//!
//! The *canonical connection* of a node set `X` in a hypergraph `H` is
//! `CC_H(X) = TR(H, X)`: the natural set of partial edges linking the nodes
//! of `X`.  By Theorem 3.5 it can equivalently be computed by Graham
//! reduction when `H` is acyclic, which is how a database system would do it
//! in practice; [`graham_equals_tableau`] states that equivalence for one
//! input, so tests can check it.

use crate::graham::graham_reduction;
use hypergraph::{Hypergraph, NodeSet};
use tableau::tableau_reduction;

/// The canonical connection `CC_H(X)`, computed by tableau reduction.
///
/// ```
/// use hypergraph::Hypergraph;
/// use acyclic::canonical_connection;
///
/// // Example 5.1: in the ring ABC, CDE, AEF the canonical connection of
/// // {A, C} is the single partial edge {A, C}.
/// let h = Hypergraph::from_edges([
///     vec!["A", "B", "C"],
///     vec!["C", "D", "E"],
///     vec!["A", "E", "F"],
/// ]).unwrap();
/// let x = h.node_set(["A", "C"]).unwrap();
/// let cc = canonical_connection(&h, &x);
/// assert_eq!(cc.edge_count(), 1);
/// assert_eq!(cc.nodes(), x);
/// ```
pub fn canonical_connection(h: &Hypergraph, x: &NodeSet) -> Hypergraph {
    tableau_reduction(h, x)
}

/// True if `GR(H, X) = TR(H, X)` for this particular input — the statement
/// of Theorem 3.5 for acyclic `H`, and the property the ablation benchmark
/// double-checks on every generated instance.
pub fn graham_equals_tableau(h: &Hypergraph, x: &NodeSet) -> bool {
    graham_reduction(h, x).same_edge_sets(&tableau_reduction(h, x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acyclicity::AcyclicityExt;

    fn fig1() -> Hypergraph {
        Hypergraph::from_edges([
            vec!["A", "B", "C"],
            vec!["C", "D", "E"],
            vec!["A", "E", "F"],
            vec!["A", "C", "E"],
        ])
        .unwrap()
    }

    fn ring() -> Hypergraph {
        Hypergraph::from_edges([
            vec!["A", "B", "C"],
            vec!["C", "D", "E"],
            vec!["A", "E", "F"],
        ])
        .unwrap()
    }

    #[test]
    fn theorem_3_5_on_fig1() {
        let h = fig1();
        assert!(h.is_acyclic());
        for names in [
            vec!["A", "D"],
            vec!["A"],
            vec!["B", "F"],
            vec!["C", "E"],
            vec!["A", "B", "C", "D", "E", "F"],
            vec![],
        ] {
            let x = h.node_set(names.iter().copied()).unwrap();
            assert!(
                graham_equals_tableau(&h, &x),
                "GR != TR for X = {:?}",
                names
            );
        }
    }

    #[test]
    fn theorem_3_5_fails_on_the_cyclic_counterexample() {
        let h = Hypergraph::from_edges([
            vec!["A", "B"],
            vec!["A", "C"],
            vec!["B", "C"],
            vec!["A", "D"],
        ])
        .unwrap();
        let x = h.node_set(["D"]).unwrap();
        assert!(!h.is_acyclic());
        assert!(!graham_equals_tableau(&h, &x));
        // Graham reduction keeps all four edges; tableau reduction keeps
        // only node D.
        assert_eq!(graham_reduction(&h, &x).edge_count(), 4);
        assert_eq!(canonical_connection(&h, &x).nodes(), x);
    }

    #[test]
    fn example_5_1_connection_is_a_single_partial_edge() {
        let h = ring();
        let x = h.node_set(["A", "C"]).unwrap();
        let cc = canonical_connection(&h, &x);
        assert_eq!(cc.edge_count(), 1);
        assert_eq!(cc.nodes(), x);
    }

    #[test]
    fn connection_in_fig1_of_a_and_c_is_ace_wide() {
        // With the edge {A, C, E} present (Fig. 1), A and C are connected
        // directly inside an edge; the canonical connection is {A, C}.
        let h = fig1();
        let x = h.node_set(["A", "C"]).unwrap();
        let cc = canonical_connection(&h, &x);
        assert_eq!(cc.edge_count(), 1);
        assert!(cc.nodes().is_subset(&h.node_set(["A", "C", "E"]).unwrap()));
    }

    #[test]
    fn connection_of_a_and_d_spans_the_join_path() {
        let h = fig1();
        let x = h.node_set(["A", "D"]).unwrap();
        let cc = canonical_connection(&h, &x);
        // Example 3.3: the objects {A,C,E} and {C,D,E}.
        assert_eq!(cc.edge_count(), 2);
        assert_eq!(cc.nodes(), h.node_set(["A", "C", "D", "E"]).unwrap());
    }

    #[test]
    fn connection_contains_its_query_nodes() {
        let h = fig1();
        for names in [
            vec!["A"],
            vec!["B", "D"],
            vec!["F", "D"],
            vec!["B", "C", "F"],
        ] {
            let x = h.node_set(names.iter().copied()).unwrap();
            let cc = canonical_connection(&h, &x);
            assert!(x.is_subset(&cc.nodes()), "CC must cover the sacred set");
        }
    }

    #[test]
    fn default_method_is_tableau() {
        let h = ring();
        let x = h.node_set(["A", "C"]).unwrap();
        assert!(canonical_connection(&h, &x).same_edge_sets(&tableau_reduction(&h, &x)));
    }
}
