//! Maximum-cardinality-search acyclicity test.
//!
//! An alternative to GYO reduction, in the spirit of Tarjan & Yannakakis:
//! a hypergraph is α-acyclic iff its primal (Gaifman) graph is *chordal* and
//! the hypergraph is *conformal* (every maximal clique of the primal graph
//! is covered by a hyperedge).  Chordality is tested with maximum
//! cardinality search and a perfect-elimination-ordering check; the maximal
//! cliques of a chordal graph are read off the same ordering.
//!
//! This module exists both as an independently-implemented cross-check of
//! the GYO test and as the comparison point for the acyclicity benchmark.

use hypergraph::{Graph, Hypergraph, NodeId, NodeSet};

/// A maximum-cardinality-search ordering of the graph's nodes: repeatedly
/// pick an unvisited node with the most visited neighbours.
///
/// The returned order lists nodes in *visit* order; reversing it gives a
/// perfect elimination ordering when the graph is chordal.
///
/// Runs in O(n + m): candidates live in a bucket queue indexed by weight
/// (with lazy invalidation of stale entries), and the weight/visited state
/// is kept in `Vec`s indexed by [`NodeId`] rather than hash maps.  Each
/// node enters a bucket once per weight increment, and total weight across
/// all nodes is bounded by the edge count.
pub(crate) fn maximum_cardinality_search(g: &Graph) -> Vec<NodeId> {
    let nodes = g.nodes();
    let n = id_capacity(nodes.iter());
    let mut weight = vec![0usize; n];
    let mut visited = vec![false; n];
    // buckets[w] holds candidates of weight w; entries go stale when a
    // node's weight moves on or it is visited, and are skipped on pop.
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new()];
    // Seed in descending id order so ties pop lowest-id first (LIFO).
    let mut seed: Vec<NodeId> = nodes.iter().collect();
    seed.reverse();
    buckets[0] = seed;
    let mut maxw = 0usize;
    let mut order = Vec::with_capacity(g.node_count());
    for _ in 0..g.node_count() {
        let next = loop {
            match buckets[maxw].pop() {
                Some(c) if !visited[c.index()] && weight[c.index()] == maxw => break c,
                Some(_) => continue, // stale entry
                None => maxw -= 1,   // bucket drained; next weight down
            }
        };
        visited[next.index()] = true;
        order.push(next);
        if let Some(nbrs) = g.neighbors_ref(next) {
            for m in nbrs.iter() {
                if !visited[m.index()] {
                    let w = weight[m.index()] + 1;
                    weight[m.index()] = w;
                    if buckets.len() <= w {
                        buckets.resize_with(w + 1, Vec::new);
                    }
                    buckets[w].push(m);
                    maxw = maxw.max(w);
                }
            }
        }
    }
    order
}

/// One past the largest node index yielded, or 0 for an empty iterator —
/// the `Vec` capacity needed to index by [`NodeId`].
fn id_capacity<I: IntoIterator<Item = NodeId>>(ids: I) -> usize {
    ids.into_iter().map(|n| n.index() + 1).max().unwrap_or(0)
}

/// Positions of `order`'s nodes as a `Vec` indexed by node id
/// (`usize::MAX` for nodes not in the order).
fn position_vec(order: &[NodeId]) -> Vec<usize> {
    let n = id_capacity(order.iter().copied());
    let mut position = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        position[v.index()] = i;
    }
    position
}

/// True if `order` (in visit order, i.e. reverse elimination order) is a
/// perfect elimination ordering witness: for every node, its earlier
/// neighbours form a clique's required pattern — the standard chordality
/// check that each vertex's earlier neighbourhood is simplicial via its
/// latest earlier neighbour.
fn is_perfect_elimination(g: &Graph, order: &[NodeId]) -> bool {
    let position = position_vec(order);
    for (i, &v) in order.iter().enumerate() {
        // Earlier neighbours of v (visited before v).
        let earlier: Vec<NodeId> = g
            .neighbors(v)
            .iter()
            .filter(|n| position[n.index()] < i)
            .collect();
        let Some(&parent) = earlier.iter().max_by_key(|n| position[n.index()]) else {
            continue;
        };
        // Every other earlier neighbour of v must also neighbour `parent`.
        for &u in &earlier {
            if u != parent && !g.has_edge(u, parent) {
                return false;
            }
        }
    }
    true
}

/// True if the graph is chordal (every cycle of length ≥ 4 has a chord).
pub(crate) fn is_chordal(g: &Graph) -> bool {
    let order = maximum_cardinality_search(g);
    is_perfect_elimination(g, &order)
}

/// The maximal cliques of a chordal graph, read off an MCS ordering.
///
/// Returns an empty vector if the graph is not chordal.
pub(crate) fn maximal_cliques_chordal(g: &Graph) -> Vec<NodeSet> {
    let order = maximum_cardinality_search(g);
    if !is_perfect_elimination(g, &order) {
        return Vec::new();
    }
    let position = position_vec(&order);
    // Candidate cliques: v together with its earlier neighbours.
    let mut cliques: Vec<NodeSet> = order
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let mut c: NodeSet = g
                .neighbors(v)
                .iter()
                .filter(|n| position[n.index()] < i)
                .collect();
            c.insert(v);
            c
        })
        .collect();
    // Keep only maximal ones.
    cliques.sort_by_key(|c| std::cmp::Reverse(c.len()));
    let mut maximal: Vec<NodeSet> = Vec::new();
    for c in cliques {
        if !maximal.iter().any(|m| c.is_subset(m)) {
            maximal.push(c);
        }
    }
    maximal.sort();
    maximal
}

/// MCS-based α-acyclicity test: chordal primal graph + conformality.
pub fn is_acyclic_mcs(h: &Hypergraph) -> bool {
    if h.is_empty() {
        return true;
    }
    let g = h.primal_graph();
    is_chordal(&g)
        && maximal_cliques_chordal(&g)
            .into_iter()
            .all(|c| h.covers(&c))
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

    #[test]
    fn mcs_orders_every_node_once() {
        let g = fig1().primal_graph();
        let order = maximum_cardinality_search(&g);
        assert_eq!(order.len(), 6);
        let set: NodeSet = order.iter().copied().collect();
        assert_eq!(set, g.nodes());
    }

    #[test]
    fn cycle_graph_is_not_chordal() {
        let mut g = Graph::new();
        for i in 0..5u32 {
            g.add_edge(NodeId(i), NodeId((i + 1) % 5));
        }
        assert!(!is_chordal(&g));
        assert!(maximal_cliques_chordal(&g).is_empty());
    }

    #[test]
    fn tree_and_complete_graphs_are_chordal() {
        let mut tree = Graph::new();
        for i in 1..6u32 {
            tree.add_edge(NodeId(0), NodeId(i));
        }
        assert!(is_chordal(&tree));
        assert_eq!(maximal_cliques_chordal(&tree).len(), 5);

        let mut k4 = Graph::new();
        for i in 0..4u32 {
            for j in i + 1..4 {
                k4.add_edge(NodeId(i), NodeId(j));
            }
        }
        assert!(is_chordal(&k4));
        let cliques = maximal_cliques_chordal(&k4);
        assert_eq!(cliques.len(), 1);
        assert_eq!(cliques[0].len(), 4);
    }

    #[test]
    fn mcs_test_agrees_with_gyo_on_paper_examples() {
        let acyclic = fig1();
        assert!(is_acyclic_mcs(&acyclic));

        let ring = Hypergraph::from_edges([
            vec!["A", "B", "C"],
            vec!["C", "D", "E"],
            vec!["A", "E", "F"],
        ])
        .unwrap();
        assert!(!is_acyclic_mcs(&ring));
        assert_eq!(is_acyclic_mcs(&ring), ring.is_acyclic());

        let triangle_edges =
            Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["A", "C"]]).unwrap();
        // Chordal primal graph (a triangle) but NOT conformal: the clique
        // {A,B,C} is not inside any hyperedge.  This is the case that
        // separates chordality from acyclicity.
        assert!(is_chordal(&triangle_edges.primal_graph()));
        assert!(!is_acyclic_mcs(&triangle_edges));

        let covered_triangle = Hypergraph::from_edges([
            vec!["A", "B"],
            vec!["B", "C"],
            vec!["A", "C"],
            vec!["A", "B", "C"],
        ])
        .unwrap();
        assert!(is_acyclic_mcs(&covered_triangle));
        assert!(covered_triangle.is_acyclic());
    }

    #[test]
    fn empty_and_single_edge_are_acyclic_under_mcs() {
        assert!(is_acyclic_mcs(&Hypergraph::builder().build().unwrap()));
        assert!(is_acyclic_mcs(
            &Hypergraph::from_edges([vec!["A", "B", "C"]]).unwrap()
        ));
    }
}
