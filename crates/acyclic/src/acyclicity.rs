//! Acyclicity tests.
//!
//! The paper's definition (§1): a hypergraph is *acyclic* if every
//! node-generated set of edges is a single edge or has an articulation set.
//! This is α-acyclicity in the later literature.  Three tests are provided:
//!
//! * [`is_acyclic`] — GYO/Graham reduction (the practical test; the paper's
//!   reference [4] proves it equivalent to the definition),
//! * [`is_acyclic_by_definition`] — the definition verbatim, enumerating all
//!   node-generated sets (exponential; the baseline for small inputs),
//! * `mcs::is_acyclic_mcs` — chordality of the primal graph plus
//!   conformality (Tarjan–Yannakakis style), in the sibling module.

use crate::graham::gyo_reduction;
use hypergraph::Hypergraph;

impl private::Sealed for Hypergraph {}

mod private {
    pub trait Sealed {}
}

/// Acyclicity-related extension methods on [`Hypergraph`].
pub trait AcyclicityExt: private::Sealed {
    /// True if the hypergraph is acyclic (α-acyclic), tested by GYO
    /// reduction: Graham reduction with no sacred nodes empties the
    /// hypergraph exactly when it is acyclic.
    fn is_acyclic(&self) -> bool;

    /// The paper's definition verbatim: every node-generated set of edges is
    /// a single edge or has an articulation set.
    ///
    /// Enumerates all `2^n - 1` node subsets; intended as the ground-truth
    /// baseline for small hypergraphs (≤ ~20 nodes).
    fn is_acyclic_by_definition(&self) -> bool;
}

impl AcyclicityExt for Hypergraph {
    fn is_acyclic(&self) -> bool {
        gyo_reduction(self).is_empty()
    }

    fn is_acyclic_by_definition(&self) -> bool {
        // The paper assumes connected hypergraphs throughout; a disconnected
        // node-generated set is judged by its components, and each component
        // is itself enumerated as the node-generated set of its own node
        // set, so disconnected subsets can be skipped without losing any
        // witnesses.
        self.all_node_generated()
            .all(|(_, g)| g.edge_count() <= 1 || !g.is_connected() || g.has_articulation_set())
    }
}

/// Free-function form of [`AcyclicityExt::is_acyclic`].
pub fn is_acyclic(h: &Hypergraph) -> bool {
    h.is_acyclic()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graham::{graham_reduce, graham_reduction, Strategy};
    use hypergraph::NodeSet;

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
    fn fig1_is_acyclic_by_all_tests() {
        let h = fig1();
        assert!(h.is_acyclic());
        assert!(h.is_acyclic_by_definition());
    }

    #[test]
    fn triangle_is_cyclic_by_all_tests() {
        let h = triangle();
        assert!(!h.is_acyclic());
        assert!(!h.is_acyclic_by_definition());
    }

    #[test]
    fn fig1_without_ace_is_cyclic() {
        // The paper's Example 5.1 hypergraph: Fig. 1 with edge {A,C,E}
        // removed is a ring of three edges and is cyclic.
        let h = Hypergraph::from_edges([
            vec!["A", "B", "C"],
            vec!["C", "D", "E"],
            vec!["A", "E", "F"],
        ])
        .unwrap();
        assert!(!h.is_acyclic());
        assert!(!h.is_acyclic_by_definition());
    }

    #[test]
    fn single_edge_and_empty_hypergraphs_are_acyclic() {
        let single = Hypergraph::from_edges([vec!["A", "B", "C"]]).unwrap();
        assert!(single.is_acyclic());
        assert!(single.is_acyclic_by_definition());
        let empty = Hypergraph::builder().build().unwrap();
        assert!(empty.is_acyclic());
    }

    #[test]
    fn chain_and_star_are_acyclic() {
        let chain =
            Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap();
        let star = Hypergraph::from_edges([
            vec!["H", "A"],
            vec!["H", "B"],
            vec!["H", "C"],
            vec!["H", "D"],
        ])
        .unwrap();
        assert!(chain.is_acyclic() && chain.is_acyclic_by_definition());
        assert!(star.is_acyclic() && star.is_acyclic_by_definition());
    }

    #[test]
    fn cycle_of_length_four_is_cyclic() {
        let ring = Hypergraph::from_edges([
            vec!["A", "B"],
            vec!["B", "C"],
            vec!["C", "D"],
            vec!["D", "A"],
        ])
        .unwrap();
        assert!(!ring.is_acyclic());
        assert!(!ring.is_acyclic_by_definition());
    }

    #[test]
    fn big_edge_covering_a_ring_makes_it_acyclic() {
        // Fig. 1's point: the ring ABC, CDE, AEF is "broken" by {A, C, E}.
        let h = fig1();
        assert!(h.is_acyclic());
        // A disconnected acyclic hypergraph is still acyclic.
        let disconnected =
            Hypergraph::from_edges([vec!["A", "B"], vec!["C", "D"], vec!["D", "E"]]).unwrap();
        assert!(disconnected.is_acyclic());
        assert!(disconnected.is_acyclic_by_definition());
    }

    /// The pass-based reduction and the traced one, rule by rule, reach
    /// the same edges.
    #[test]
    fn fast_reduction_matches_traced_reduction() {
        for (h, sacred_names) in [
            (fig1(), vec!["A", "D"]),
            (fig1(), vec![]),
            (triangle(), vec!["A"]),
            (
                Hypergraph::from_edges([
                    vec!["A", "B"],
                    vec!["B", "C"],
                    vec!["C", "D"],
                    vec!["D", "A"],
                    vec!["A", "E"],
                ])
                .unwrap(),
                vec!["E"],
            ),
        ] {
            let sacred = h.node_set(sacred_names.iter().copied()).unwrap();
            let fast = graham_reduction(&h, &sacred);
            let slow = graham_reduce(&h, &sacred, Strategy::NodesFirst).result;
            assert!(
                fast.same_edge_sets(&slow),
                "fast {} != slow {}",
                fast.display(),
                slow.display()
            );
        }
    }

    #[test]
    fn gyo_and_fast_gyo_agree_on_emptiness() {
        for h in [fig1(), triangle()] {
            assert_eq!(
                gyo_reduction(&h).is_empty(),
                graham_reduce(&h, &NodeSet::new(), Strategy::NodesFirst)
                    .result
                    .is_empty()
            );
        }
    }

    /// Which of two edges that shrink to the same set keeps its label
    /// depends on the rule order, so a partial edge's label names no
    /// object: `reldb`'s tie rule reads only node sets, and maps `{E}` to
    /// `A-E` from either result (`universal::tests`).
    #[test]
    fn fast_reduction_keeps_the_edges_but_not_always_the_labels() {
        let h = Hypergraph::from_edges([vec!["B", "C"], vec!["A", "E"], vec!["C", "E"]]).unwrap();
        let x = h.node_set(["E"]).unwrap();
        let fast = graham_reduction(&h, &x);
        let traced = graham_reduce(&h, &x, Strategy::NodesFirst).result;
        assert!(fast.same_edge_sets(&traced));
        assert_eq!(fast.edges()[0].label, "C-E");
        assert_eq!(traced.edges()[0].label, "A-E");
    }
}
