//! The paper's figures and worked examples as reusable fixtures.
//!
//! Every figure of the paper that is fully specified in the text is exposed
//! as a constructor, together with the sacred sets and expected results its
//! examples use, so tests, examples and benchmarks all reproduce the same
//! artifacts (experiment ids E1–E7 in DESIGN.md).

use hypergraph::{Hypergraph, NodeSet};

/// Fig. 1: the acyclic hypergraph with edges {A,B,C}, {C,D,E}, {A,E,F} and
/// {A,C,E}.
pub fn fig1() -> Hypergraph {
    Hypergraph::from_edges([
        vec!["A", "B", "C"],
        vec!["C", "D", "E"],
        vec!["A", "E", "F"],
        vec!["A", "C", "E"],
    ])
    .expect("static fixture")
}

/// The sacred set `X = {A, D}` used by Examples 2.2, 3.1 and 3.3.
pub fn fig1_sacred_ad(h: &Hypergraph) -> NodeSet {
    h.node_set(["A", "D"]).expect("A and D are nodes of Fig. 1")
}

/// The expected `GR(H, {A, D}) = TR(H, {A, D})`: partial edges {A,C,E} and
/// {C,D,E} (Examples 2.2 and 3.3).
pub fn fig1_expected_reduction(h: &Hypergraph) -> Vec<NodeSet> {
    vec![
        h.node_set(["A", "C", "E"]).expect("fixture"),
        h.node_set(["C", "D", "E"]).expect("fixture"),
    ]
}

/// The hypergraph of Example 5.1: Fig. 1 with the edge {A,C,E} removed.
/// It is a ring of three edges and is cyclic.
pub fn fig1_ring() -> Hypergraph {
    Hypergraph::from_edges([
        vec!["A", "B", "C"],
        vec!["C", "D", "E"],
        vec!["A", "E", "F"],
    ])
    .expect("static fixture")
}

/// The cyclic counterexample given after Theorem 3.5: edges {A,B}, {A,C},
/// {B,C} and {A,D}, with `X = {D}` sacred.  Tableau reduction keeps only the
/// node D while Graham reduction keeps all four edges.
pub fn counterexample_after_theorem_3_5() -> (Hypergraph, NodeSet) {
    let h = Hypergraph::from_edges([
        vec!["A", "B"],
        vec!["A", "C"],
        vec!["B", "C"],
        vec!["A", "D"],
    ])
    .expect("static fixture");
    let x = h.node_set(["D"]).expect("fixture");
    (h, x)
}

/// A Fig.-5-style acyclic hypergraph with two "apparent" routes between A
/// and F (the exact edge set of Fig. 5 is not recoverable from the text;
/// this fixture preserves its point: either middle edge can be eliminated,
/// yet no independent path exists).
pub fn fig5_like() -> Hypergraph {
    Hypergraph::from_edges([
        vec!["A", "B"],
        vec!["B", "C", "F"],
        vec!["B", "D", "F"],
        vec!["B", "C", "D", "F"],
    ])
    .expect("static fixture")
}

/// The independent tree of Fig. 6 / Example 5.1 over [`fig1_ring`]: node
/// sets {A}, {E}, {C} with {E} in the middle.
pub fn fig6_tree_sets(h: &Hypergraph) -> Vec<NodeSet> {
    vec![
        h.node_set(["A"]).expect("fixture"),
        h.node_set(["E"]).expect("fixture"),
        h.node_set(["C"]).expect("fixture"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use acyclic::AcyclicityExt;

    #[test]
    fn fixtures_have_expected_cyclicity() {
        assert!(fig1().is_acyclic());
        assert!(!fig1_ring().is_acyclic());
        assert!(!counterexample_after_theorem_3_5().0.is_acyclic());
        assert!(fig5_like().is_acyclic());
    }

    #[test]
    fn fixture_accessors_are_consistent() {
        let h = fig1();
        assert_eq!(fig1_sacred_ad(&h).len(), 2);
        assert_eq!(fig1_expected_reduction(&h).len(), 2);
        assert_eq!(fig6_tree_sets(&fig1_ring()).len(), 3);
    }
}
