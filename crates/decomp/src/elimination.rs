//! Elimination orders over the primal graph.
//!
//! Triangulating a graph means eliminating its nodes one at a time, turning
//! each node's current neighbourhood into a clique (the added edges are
//! *fill edges*) before removing it.  The graph plus all fill edges is
//! chordal, and the quality of the resulting decomposition — the size of
//! its largest bag — depends entirely on the order.  Finding the optimal
//! order is NP-hard, so two classic greedy heuristics are provided:
//!
//! * **min-fill** — eliminate the node whose neighbourhood needs the fewest
//!   fill edges to become a clique (usually the better widths);
//! * **min-degree** — eliminate the node with the fewest neighbours
//!   (cheaper to evaluate, often good enough).
//!
//! Ties break towards the smallest node id, so orders are deterministic.

use hypergraph::{Graph, NodeId};

/// Which greedy criterion picks the next node to eliminate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Heuristic {
    /// Fewest fill edges added ([`Graph::fill_in_count`]); the default.
    #[default]
    MinFill,
    /// Fewest current neighbours.
    MinDegree,
}

impl Heuristic {
    /// Parses a CLI spelling (`min-fill`/`minfill`, `min-degree`/`mindegree`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "min-fill" | "minfill" => Ok(Self::MinFill),
            "min-degree" | "mindegree" => Ok(Self::MinDegree),
            other => Err(format!(
                "unknown heuristic {other:?} (expected min-fill or min-degree)"
            )),
        }
    }
}

/// The result of running an elimination order to completion.
#[derive(Debug, Clone)]
pub(crate) struct EliminationOrder {
    /// The nodes in elimination order.
    pub order: Vec<NodeId>,
    /// The neighbourhood of each node at the moment it was eliminated —
    /// `order[i]` together with `bags[i]` is the bag recorded for step `i`.
    pub bags: Vec<hypergraph::NodeSet>,
    /// Total number of fill edges the order added.
    pub fill_edges: usize,
}

/// Runs `heuristic` greedily over (a working copy of) `g` until every node
/// is eliminated, recording the per-step neighbourhoods and the total fill.
pub(crate) fn elimination_order(g: &Graph, heuristic: Heuristic) -> EliminationOrder {
    let mut work = g.clone();
    let n = work.node_count();
    let mut order = Vec::with_capacity(n);
    let mut bags = Vec::with_capacity(n);
    let mut fill_edges = 0usize;
    while work.node_count() > 0 {
        let next = work
            .nodes()
            .iter()
            .min_by_key(|&v| {
                let cost = match heuristic {
                    Heuristic::MinFill => work.fill_in_count(v),
                    Heuristic::MinDegree => work.neighbors_ref(v).map_or(0, |s| s.len()),
                };
                (cost, v)
            })
            .expect("nonempty graph has a node");
        fill_edges += work.fill_in_count(next);
        let nbrs = work.eliminate(next);
        order.push(next);
        bags.push(nbrs);
    }
    EliminationOrder {
        order,
        bags,
        fill_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn cycle(len: u32) -> Graph {
        let mut g = Graph::new();
        for i in 0..len {
            g.add_edge(n(i), n((i + 1) % len));
        }
        g
    }

    #[test]
    fn heuristic_parses_cli_spellings() {
        assert_eq!(Heuristic::parse("min-fill"), Ok(Heuristic::MinFill));
        assert_eq!(Heuristic::parse("minfill"), Ok(Heuristic::MinFill));
        assert_eq!(Heuristic::parse("min-degree"), Ok(Heuristic::MinDegree));
        assert_eq!(Heuristic::parse("mindegree"), Ok(Heuristic::MinDegree));
        assert!(Heuristic::parse("optimal").is_err());
        assert_eq!(Heuristic::default(), Heuristic::MinFill);
    }

    #[test]
    fn cycle_elimination_fills_one_edge_per_step_until_triangle() {
        for heuristic in [Heuristic::MinFill, Heuristic::MinDegree] {
            let e = elimination_order(&cycle(6), heuristic);
            assert_eq!(e.order.len(), 6);
            assert_eq!(e.bags.len(), 6);
            // A k-cycle needs exactly k - 3 fill edges.
            assert_eq!(e.fill_edges, 3, "{heuristic:?}");
            // Every recorded bag has at most two neighbours (width 2).
            assert!(e.bags.iter().all(|b| b.len() <= 2));
        }
    }

    #[test]
    fn tree_elimination_adds_no_fill() {
        // A star is already chordal: eliminating leaves first needs no fill.
        let mut g = Graph::new();
        for i in 1..6 {
            g.add_edge(n(0), n(i));
        }
        let e = elimination_order(&g, Heuristic::MinFill);
        assert_eq!(e.fill_edges, 0);
        assert_eq!(e.order.len(), 6);
        // The hub is eliminated last (leaves are simplicial and smaller).
        assert!(e.order[..4].iter().all(|&v| v != n(0)));
    }

    #[test]
    fn orders_are_deterministic() {
        let a = elimination_order(&cycle(7), Heuristic::MinFill);
        let b = elimination_order(&cycle(7), Heuristic::MinFill);
        assert_eq!(a.order, b.order);
        assert_eq!(a.fill_edges, b.fill_edges);
    }

    #[test]
    fn empty_graph_has_an_empty_order() {
        let e = elimination_order(&Graph::new(), Heuristic::MinDegree);
        assert!(e.order.is_empty());
        assert_eq!(e.fill_edges, 0);
    }
}
