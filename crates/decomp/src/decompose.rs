//! Bags, bag trees and verification: the [`Decomposition`] type.
//!
//! A decomposition of a hypergraph `H` is a hypergraph of *bags* (node sets)
//! plus a join tree over the bags such that
//!
//! 1. every edge of `H` is contained in some bag (*edge coverage*),
//! 2. for every node, the bags containing it form a connected subtree
//!    (*running intersection* — verified by reusing
//!    [`JoinTree::verify_running_intersection`]).
//!
//! Bags come from triangulation: each step of an
//! [elimination order](crate::elimination) records `{v} ∪ neighbours(v)`,
//! non-maximal bags are dropped, and the surviving bags — the maximal
//! cliques of the chordal completion — always form an acyclic hypergraph,
//! so the tree is assembled by the ordinary ear decomposition
//! ([`acyclic::join_tree`]).
//!
//! Each bag also carries an *edge cover*, the recipe `reldb::hypertree`
//! materializes it from: the original edges assigned to the bag (each edge
//! is assigned to exactly one bag that contains it) plus, for bag nodes no
//! assigned edge covers, extra overlapping edges that are joined and then
//! projected down to the bag.

use crate::elimination::{elimination_order, EliminationOrder, Heuristic};
use acyclic::{join_tree, JoinTree};
use hypergraph::{Edge, EdgeId, Hypergraph, NodeSet};
use std::fmt;

/// Why a hypergraph could not be decomposed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompError {
    /// The hypergraph has no edges, so there is nothing to decompose.
    NoEdges,
}

impl fmt::Display for DecompError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoEdges => write!(f, "hypergraph has no edges to decompose"),
        }
    }
}

impl std::error::Error for DecompError {}

/// A hypertree decomposition: bags, a join tree over them, and per-bag edge
/// covers.  Produced by [`decompose`]; consumed by `reldb::hypertree`.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// The bag hypergraph: one edge (`B0`, `B1`, …) per maximal bag, over
    /// the *same universe* as the decomposed hypergraph.
    bags: Hypergraph,
    /// The running-intersection tree over the bags.
    tree: JoinTree,
    /// Original edges assigned to each bag (every original edge appears in
    /// exactly one bag's assignment, and is a subset of that bag).
    assigned: Vec<Vec<EdgeId>>,
    /// Extra covering edges per bag: original edges that merely *overlap*
    /// the bag, added so the union of covers spans every bag node.  Their
    /// out-of-bag attributes are projected away during materialization.
    extra: Vec<Vec<EdgeId>>,
    /// The elimination order that produced the bags.
    order: EliminationOrder,
}

impl Decomposition {
    /// The bag hypergraph (shares the original's universe).
    pub fn bags(&self) -> &Hypergraph {
        &self.bags
    }

    /// The running-intersection tree over the bags.
    pub fn tree(&self) -> &JoinTree {
        &self.tree
    }

    /// Number of bags.
    pub fn bag_count(&self) -> usize {
        self.bags.edge_count()
    }

    /// The decomposition width: largest bag size minus one, matching the
    /// treewidth convention (a ring decomposes at width 2, a `k`-clique at
    /// width `k - 1`; any acyclic hypergraph decomposes at its largest edge
    /// size minus one).
    pub fn width(&self) -> usize {
        self.bags
            .edges()
            .iter()
            .map(|e| e.nodes.len())
            .max()
            .unwrap_or(1)
            - 1
    }

    /// Number of fill edges the triangulation added.
    pub fn fill_edges(&self) -> usize {
        self.order.fill_edges
    }

    /// The original edges assigned to bag `bag` (each is a subset of the
    /// bag).
    pub fn assigned(&self, bag: usize) -> &[EdgeId] {
        &self.assigned[bag]
    }

    /// The extra covering edges of bag `bag` (overlapping, projected during
    /// materialization).
    pub fn extra_cover(&self, bag: usize) -> &[EdgeId] {
        &self.extra[bag]
    }

    /// The full cover of bag `bag`: assigned edges first, then the extra
    /// covering edges — the join order `reldb::hypertree` materializes in.
    pub fn cover(&self, bag: usize) -> impl Iterator<Item = EdgeId> + '_ {
        self.assigned[bag].iter().chain(&self.extra[bag]).copied()
    }

    /// Verifies the decomposition against the hypergraph it was built from:
    ///
    /// * every original edge is a subset of some bag, and of the bag it is
    ///   assigned to;
    /// * the bag tree satisfies the running-intersection property (via
    ///   [`JoinTree::verify_running_intersection`] on the bag hypergraph);
    /// * every bag is exactly covered by its cover edges' in-bag nodes;
    /// * the bags span exactly the original nodes.
    pub fn verify(&self, h: &Hypergraph) -> bool {
        if !self.tree.verify_running_intersection(&self.bags) {
            return false;
        }
        if self.bags.nodes() != h.nodes() {
            return false;
        }
        let mut seen = vec![false; h.edge_count()];
        for (b, bag) in self.bags.edges().iter().enumerate() {
            for &e in &self.assigned[b] {
                if !h.edges()[e.index()].nodes.is_subset(&bag.nodes) {
                    return false;
                }
                if std::mem::replace(&mut seen[e.index()], true) {
                    return false; // assigned twice
                }
            }
            let mut covered = NodeSet::new();
            for e in self.cover(b) {
                covered.union_with(&h.edges()[e.index()].nodes.intersection(&bag.nodes));
            }
            if covered != bag.nodes {
                return false;
            }
        }
        seen.iter().all(|&s| s)
    }

    /// Renders the bag tree as Graphviz DOT: one box per bag listing its
    /// nodes and covered edges, tree edges labelled with their separators.
    pub fn to_dot(&self, name: &str, h: &Hypergraph) -> String {
        let u = h.universe();
        let mut out = String::new();
        out.push_str(&format!("graph {name} {{\n"));
        out.push_str("  node [shape=box];\n");
        for (b, bag) in self.bags.edges().iter().enumerate() {
            let nodes = bag.nodes.names(u).join(", ");
            let cover: Vec<&str> = self
                .cover(b)
                .map(|e| h.edges()[e.index()].label.as_str())
                .collect();
            out.push_str(&format!(
                "  \"{}\" [label=\"{}\\n{{{}}}\\ncovers: {}\"];\n",
                bag.label,
                bag.label,
                nodes,
                cover.join(", "),
            ));
        }
        for (c, p) in self.tree.tree_edges() {
            let sep = self.bags.edges()[c.index()]
                .nodes
                .intersection(&self.bags.edges()[p.index()].nodes);
            out.push_str(&format!(
                "  \"{}\" -- \"{}\" [label=\"{}\"];\n",
                self.bags.edges()[c.index()].label,
                self.bags.edges()[p.index()].label,
                sep.names(u).join(", "),
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// Decomposes `h` using the given [`Heuristic`] for the elimination order.
///
/// Works on *any* hypergraph: an already-acyclic input decomposes at its
/// own width (largest edge minus one).  Fails only when `h` has no edges.
pub fn decompose(h: &Hypergraph, heuristic: Heuristic) -> Result<Decomposition, DecompError> {
    let order = elimination_order(&h.primal_graph(), heuristic);
    decompose_with_order(h, order)
}

/// Decomposes `h` from an already-computed elimination order — the entry
/// point for callers that want to compare heuristics or supply a custom
/// order.
pub(crate) fn decompose_with_order(
    h: &Hypergraph,
    order: EliminationOrder,
) -> Result<Decomposition, DecompError> {
    if h.is_empty() {
        return Err(DecompError::NoEdges);
    }
    // One candidate bag per elimination step: the node plus its
    // neighbourhood at elimination time.
    let mut candidates: Vec<NodeSet> = Vec::with_capacity(order.order.len());
    for (v, nbrs) in order.order.iter().zip(&order.bags) {
        let mut bag = nbrs.clone();
        bag.insert(*v);
        candidates.push(bag);
    }
    // Keep only maximal bags — the maximal cliques of the chordal
    // completion.  Earlier (larger, eliminated-first) bags win ties, so the
    // result is deterministic.
    let mut keep: Vec<bool> = vec![true; candidates.len()];
    for i in 0..candidates.len() {
        if !keep[i] {
            continue;
        }
        for (j, keep_j) in keep.iter_mut().enumerate() {
            if i != j
                && *keep_j
                && candidates[j].is_subset(&candidates[i])
                && (candidates[j] != candidates[i] || j > i)
            {
                *keep_j = false;
            }
        }
    }
    let bag_sets: Vec<NodeSet> = candidates
        .into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(b, _)| b)
        .collect();
    let edges: Vec<Edge> = bag_sets
        .iter()
        .enumerate()
        .map(|(i, b)| Edge::new(format!("B{i}"), b.clone()))
        .collect();
    let bags = Hypergraph::with_universe(h.universe().clone(), edges)
        .expect("bags use nodes of the original universe");
    let tree = join_tree(&bags)
        .expect("maximal cliques of a chordal completion form an acyclic hypergraph");

    // Assign every original edge to the first bag containing it (each edge
    // is a clique of the primal graph, hence of the chordal completion,
    // hence inside some maximal clique).
    let mut assigned: Vec<Vec<EdgeId>> = vec![Vec::new(); bag_sets.len()];
    for (ei, e) in h.edges().iter().enumerate() {
        let b = bag_sets
            .iter()
            .position(|bag| e.nodes.is_subset(bag))
            .expect("every edge is a clique of the triangulated primal graph");
        assigned[b].push(EdgeId(ei as u32));
    }
    // Complete each bag's cover: nodes of the bag that no assigned edge
    // touches are covered greedily by overlapping original edges (their
    // out-of-bag attributes are projected away at materialization time).
    let mut extra: Vec<Vec<EdgeId>> = vec![Vec::new(); bag_sets.len()];
    for (b, bag) in bag_sets.iter().enumerate() {
        let mut covered = NodeSet::new();
        for &e in &assigned[b] {
            covered.union_with(&h.edges()[e.index()].nodes);
        }
        covered.intersect_with(bag);
        while covered != *bag {
            let missing = bag.difference(&covered);
            let best = h
                .edge_entries()
                .map(|(id, e)| (e.nodes.intersection(&missing).len(), id))
                .max_by_key(|&(gain, id)| (gain, std::cmp::Reverse(id)))
                .expect("nonempty hypergraph");
            debug_assert!(best.0 > 0, "every bag node appears in some edge");
            extra[b].push(best.1);
            covered.union_with(&h.edges()[best.1.index()].nodes.intersection(bag));
        }
    }
    Ok(Decomposition {
        bags,
        tree,
        assigned,
        extra,
        order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(k: usize) -> Hypergraph {
        let names: Vec<String> = (0..k).map(|i| format!("N{i}")).collect();
        Hypergraph::from_edges((0..k).map(|i| vec![names[i].clone(), names[(i + 1) % k].clone()]))
            .unwrap()
    }

    fn clique(n: usize) -> Hypergraph {
        let names: Vec<String> = (0..n).map(|i| format!("N{i}")).collect();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                edges.push(vec![names[i].clone(), names[j].clone()]);
            }
        }
        Hypergraph::from_edges(edges).unwrap()
    }

    #[test]
    fn ring_k_has_width_two() {
        for k in 3..9 {
            for heuristic in [Heuristic::MinFill, Heuristic::MinDegree] {
                let h = ring(k);
                let d = decompose(&h, heuristic).unwrap();
                assert_eq!(d.width(), 2, "ring({k}) under {heuristic:?}");
                assert_eq!(d.bag_count(), k - 2, "ring({k}) bags");
                assert!(d.verify(&h), "ring({k}) verification");
            }
        }
    }

    #[test]
    fn clique_k_has_width_k_minus_one() {
        for k in 3..7 {
            let h = clique(k);
            let d = decompose(&h, Heuristic::MinFill).unwrap();
            assert_eq!(d.width(), k - 1, "clique({k})");
            assert_eq!(d.bag_count(), 1, "a clique is a single bag");
            assert!(d.verify(&h));
        }
    }

    #[test]
    fn acyclic_input_decomposes_at_its_own_width() {
        // Fig. 1 of the paper: acyclic, largest edge 3 — width 2, and the
        // bags are exactly the maximal cliques of its (chordal) primal
        // graph, i.e. the edges themselves.
        let h = Hypergraph::from_edges([
            vec!["A", "B", "C"],
            vec!["C", "D", "E"],
            vec!["A", "E", "F"],
            vec!["A", "C", "E"],
        ])
        .unwrap();
        let d = decompose(&h, Heuristic::MinFill).unwrap();
        assert_eq!(d.width(), 2);
        assert_eq!(d.fill_edges(), 0, "chordal primal graph needs no fill");
        assert_eq!(d.bag_count(), 4);
        assert!(d.verify(&h));
        assert!(d.bags().same_edge_sets(&h));
    }

    #[test]
    fn every_edge_is_assigned_exactly_once() {
        let h = ring(6);
        let d = decompose(&h, Heuristic::MinFill).unwrap();
        let mut count = vec![0usize; h.edge_count()];
        for b in 0..d.bag_count() {
            for &e in d.assigned(b) {
                count[e.index()] += 1;
            }
        }
        assert!(
            count.iter().all(|&c| c == 1),
            "assignment counts: {count:?}"
        );
    }

    #[test]
    fn extra_covers_complete_sparse_bags() {
        // In a 5-ring, the middle bag {N1, N2, N4}-shaped clique has only
        // one contained edge; its remaining node must be covered by an
        // overlapping edge.
        let h = ring(5);
        let d = decompose(&h, Heuristic::MinFill).unwrap();
        assert!(d.verify(&h));
        let extras: usize = (0..d.bag_count()).map(|b| d.extra_cover(b).len()).sum();
        assert!(extras > 0, "a 5-ring needs at least one projected cover");
    }

    #[test]
    fn hyper_ring_decomposes_and_verifies() {
        // 4 edges of width 3, consecutive edges overlapping in one node.
        let h = Hypergraph::from_edges([
            vec!["B0", "I0", "B1"],
            vec!["B1", "I1", "B2"],
            vec!["B2", "I2", "B3"],
            vec!["B3", "I3", "B0"],
        ])
        .unwrap();
        assert!(acyclic::join_tree(&h).is_none(), "hyper-ring is cyclic");
        let d = decompose(&h, Heuristic::MinFill).unwrap();
        assert!(d.verify(&h));
        // Interior nodes are simplicial (each edge is a primal triangle), so
        // after peeling them only the boundary 4-cycle remains: width 2,
        // with the boundary bags covered by projected overlapping edges.
        assert_eq!(d.width(), 2);
        assert!(d.tree().verify_running_intersection(d.bags()));
    }

    #[test]
    fn dot_output_renders_bags_and_separators() {
        let h = ring(4);
        let d = decompose(&h, Heuristic::MinFill).unwrap();
        let dot = d.to_dot("ring4", &h);
        assert!(dot.starts_with("graph ring4 {"));
        assert!(dot.contains("\"B0\""));
        assert!(dot.contains("covers:"));
        assert!(dot.contains(" -- "));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn empty_hypergraph_is_rejected() {
        let h = Hypergraph::builder().node("A").build().unwrap();
        assert_eq!(
            decompose(&h, Heuristic::MinFill).unwrap_err(),
            DecompError::NoEdges
        );
        assert!(DecompError::NoEdges.to_string().contains("no edges"));
    }

    #[test]
    fn grid_decomposition_verifies() {
        // 3x3 grid of binary edges: treewidth 3 is not required of the
        // heuristics, but coverage + running intersection must hold.
        let name = |r: usize, c: usize| format!("G{r}_{c}");
        let mut edges = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    edges.push(vec![name(r, c), name(r, c + 1)]);
                }
                if r + 1 < 3 {
                    edges.push(vec![name(r, c), name(r + 1, c)]);
                }
            }
        }
        let h = Hypergraph::from_edges(edges).unwrap();
        for heuristic in [Heuristic::MinFill, Heuristic::MinDegree] {
            let d = decompose(&h, heuristic).unwrap();
            assert!(d.verify(&h), "{heuristic:?}");
            assert!(d.width() >= 2);
        }
    }
}
