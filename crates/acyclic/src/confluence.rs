//! Empirical verification of Lemma 2.1 (Church–Rosser property of Graham
//! reduction).
//!
//! The lemma states that the node-removal / edge-removal rewriting system is
//! finite Church–Rosser: all maximal reduction sequences from the same
//! hypergraph and sacred set end in the same hypergraph.  This module runs
//! the reduction under many different rule orders (deterministic
//! nodes-first, deterministic edges-first, and a batch of seeded random
//! orders) and checks that every run reaches the same fixed point; it backs
//! the `graham_confluent` property test and the confluence benchmark (B3).

use crate::graham::{graham_reduce, Strategy};
use hypergraph::{Hypergraph, NodeSet};

/// The rule orders a confluence check tries beside the nodes-first
/// reference: edges-first, then `random_orders` seeded orders.
fn alternative_orders(random_orders: usize) -> impl Iterator<Item = Strategy> {
    std::iter::once(Strategy::EdgesFirst)
        .chain((0..random_orders).map(|i| Strategy::Seeded(0x9E37_79B9 ^ (i as u64 + 1))))
}

/// True if `random_orders + 2` reduction orders all agree on
/// `GR(h, sacred)`: nodes-first, edges-first and `random_orders` seeded
/// orders.
pub fn is_confluent(h: &Hypergraph, sacred: &NodeSet, random_orders: usize) -> bool {
    let reference = graham_reduce(h, sacred, Strategy::NodesFirst).result;
    alternative_orders(random_orders).all(|strategy| {
        graham_reduce(h, sacred, strategy)
            .result
            .same_edge_sets(&reference)
    })
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
    fn fig1_reduction_is_confluent() {
        let h = fig1();
        let x = h.node_set(["A", "D"]).unwrap();
        assert!(is_confluent(&h, &x, 16));
        assert_eq!(alternative_orders(16).count(), 17);
        let reference = graham_reduce(&h, &x, Strategy::NodesFirst);
        assert_eq!(reference.result.edge_count(), 2);
        // Every order applies the same multiset of rules, so every trace has
        // the same length.
        assert!(alternative_orders(16)
            .all(|strategy| graham_reduce(&h, &x, strategy).steps.len() == reference.steps.len()));
    }

    #[test]
    fn cyclic_hypergraphs_are_also_confluent() {
        // Confluence is a property of the rewriting system, not of
        // acyclicity: the stuck triangle is reached from every order.
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["A", "C"]]).unwrap();
        assert!(is_confluent(&h, &NodeSet::new(), 8));
    }

    #[test]
    fn confluence_with_various_sacred_sets() {
        let h = fig1();
        for names in [
            vec![],
            vec!["A"],
            vec!["B", "F"],
            vec!["A", "B", "C", "D", "E", "F"],
        ] {
            let x = h.node_set(names.iter().copied()).unwrap();
            assert!(is_confluent(&h, &x, 8), "divergence for X = {names:?}");
        }
    }

    #[test]
    fn empty_hypergraph_is_trivially_confluent() {
        let h = Hypergraph::builder().build().unwrap();
        assert!(is_confluent(&h, &NodeSet::new(), 4));
        assert!(graham_reduce(&h, &NodeSet::new(), Strategy::NodesFirst)
            .result
            .is_empty());
    }
}
