//! Tableau reduction `TR(H, X)`.
//!
//! Following §3 of the paper, `TR(H, X)` is computed in three steps:
//!
//! 1. build the tableau of `H` with the special symbols of the nodes of `X`
//!    made distinguished;
//! 2. minimize the tableau (find the unique minimal row subset onto which
//!    all rows map);
//! 3. read off `h(H)`: for every edge in the target, keep a node iff it is
//!    sacred or it appears in at least two target edges.  Nodes whose
//!    (non-distinguished) special symbol occurs only once in the reduced
//!    tableau are dropped.
//!
//! Empty partial edges are dropped, so `TR(H, ∅)` of a hypergraph whose
//! tableau folds to a single row is the empty hypergraph.  This matches the
//! convention used by the `acyclic` crate's Graham reduction, keeping
//! Theorem 3.5 (`GR = TR` on acyclic hypergraphs) exact in code.

use crate::minimize::minimize;
use crate::tableau::Tableau;
use hypergraph::{Edge, Hypergraph, NodeSet};

/// Computes `TR(H, X)`: the canonical connection of `X` in `H`, as a
/// hypergraph of partial edges.
///
/// ```
/// use hypergraph::Hypergraph;
/// use tableau::tableau_reduction;
///
/// // Fig. 1 with A and D sacred: TR is {C,D,E} and {A,C,E} (Example 3.3).
/// let h = Hypergraph::from_edges([
///     vec!["A", "B", "C"],
///     vec!["C", "D", "E"],
///     vec!["A", "E", "F"],
///     vec!["A", "C", "E"],
/// ]).unwrap();
/// let x = h.node_set(["A", "D"]).unwrap();
/// let tr = tableau_reduction(&h, &x);
/// assert_eq!(tr.edge_count(), 2);
/// assert!(tr.contains_edge_set(&h.node_set(["C", "D", "E"]).unwrap()));
/// assert!(tr.contains_edge_set(&h.node_set(["A", "C", "E"]).unwrap()));
/// ```
pub fn tableau_reduction(h: &Hypergraph, sacred: &NodeSet) -> Hypergraph {
    let tableau = Tableau::new(h, sacred);
    let minimization = minimize(&tableau);

    // Count, for every node, how many *target* edges contain it.
    let target_rows: Vec<&NodeSet> = minimization
        .target
        .iter()
        .map(|&r| &tableau.row(r).nodes)
        .collect();
    let occurs_twice = |n| target_rows.iter().filter(|s| s.contains(n)).count() >= 2;

    let edges: Vec<Edge> = minimization
        .target
        .iter()
        .map(|&r| {
            let row = tableau.row(r);
            let kept: NodeSet = row
                .nodes
                .iter()
                .filter(|&n| sacred.contains(n) || occurs_twice(n))
                .collect();
            Edge::new(row.label.clone(), kept)
        })
        .filter(|e| !e.nodes.is_empty())
        .collect();

    h.with_edges(edges)
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

    #[test]
    fn example_3_3_result() {
        let h = fig1();
        let x = h.node_set(["A", "D"]).unwrap();
        let tr = tableau_reduction(&h, &x);
        assert_eq!(tr.edge_count(), 2);
        assert!(tr.contains_edge_set(&h.node_set(["C", "D", "E"]).unwrap()));
        assert!(tr.contains_edge_set(&h.node_set(["A", "C", "E"]).unwrap()));
        assert!(tr.is_reduced());
    }

    #[test]
    fn tr_is_node_generated_lemma_3_6() {
        let h = fig1();
        for x in [
            h.node_set(["A", "D"]).unwrap(),
            h.node_set(["B", "F"]).unwrap(),
            h.node_set(["A", "C"]).unwrap(),
            h.node_set(["D"]).unwrap(),
            h.node_set([]).unwrap(),
        ] {
            let tr = tableau_reduction(&h, &x);
            assert!(
                h.is_node_generated_subhypergraph(&tr),
                "TR(H, {}) = {} is not node-generated",
                x.display(h.universe()),
                tr.display()
            );
        }
    }

    #[test]
    fn tr_is_monotone_in_sacred_set_lemma_3_8() {
        let h = fig1();
        let small = h.node_set(["A"]).unwrap();
        let large = h.node_set(["A", "D"]).unwrap();
        let tr_small = tableau_reduction(&h, &small);
        let tr_large = tableau_reduction(&h, &large);
        // Every node of TR(H, X) appears in TR(H, Y) when X ⊆ Y.
        assert!(tr_small.nodes().is_subset(&tr_large.nodes()));
    }

    #[test]
    fn cyclic_counterexample_after_theorem_3_5() {
        // Edges {A,B}, {A,C}, {B,C}, {A,D} with D sacred: the tableau folds
        // everything onto the {A, D} row, and since A is non-distinguished
        // and now appears only once, TR consists only of node D.
        let h = Hypergraph::from_edges([
            vec!["A", "B"],
            vec!["A", "C"],
            vec!["B", "C"],
            vec!["A", "D"],
        ])
        .unwrap();
        let x = h.node_set(["D"]).unwrap();
        let tr = tableau_reduction(&h, &x);
        assert_eq!(tr.edge_count(), 1);
        assert_eq!(tr.nodes(), h.node_set(["D"]).unwrap());
    }

    #[test]
    fn all_nodes_sacred_gives_back_the_hypergraph() {
        let h = fig1();
        let tr = tableau_reduction(&h, &h.nodes());
        assert!(tr.same_edge_sets(&h));
    }

    #[test]
    fn empty_sacred_set_gives_empty_hypergraph() {
        let h = fig1();
        let tr = tableau_reduction(&h, &NodeSet::new());
        assert!(tr.is_empty());
    }

    #[test]
    fn single_edge_keeps_only_sacred_nodes() {
        let h = Hypergraph::from_edges([vec!["A", "B", "C"]]).unwrap();
        let x = h.node_set(["B"]).unwrap();
        let tr = tableau_reduction(&h, &x);
        assert_eq!(tr.edge_count(), 1);
        assert_eq!(tr.nodes(), x);
    }

    #[test]
    fn reduction_artifacts_are_consistent() {
        let h = fig1();
        let x = h.node_set(["A", "D"]).unwrap();
        let t = Tableau::new(&h, &x);
        let min = minimize(&t);
        assert_eq!(min.target.len(), 2);
        assert!(min.mapping.is_valid(&t));
        assert_eq!(tableau_reduction(&h, &x).edge_count(), 2);
    }

    #[test]
    fn lemma_3_10_component_beyond_articulation_set_is_omitted() {
        // Y = {C, E} is an articulation set of Fig. 1 separating {D} from
        // {A, B, F}; with X = {A} (disjoint from {D}), TR(H, X) contains no
        // node of {D}.
        let h = fig1();
        let x = h.node_set(["A"]).unwrap();
        let tr = tableau_reduction(&h, &x);
        assert!(!tr.nodes().contains(h.node("D").unwrap()));
    }
}
