//! Graham (GYO) reduction with sacred nodes — `GR(H, X)` (paper §2).
//!
//! Two operations are applied until neither applies:
//!
//! 1. **Node removal** — a node appearing in exactly one edge and not in the
//!    sacred set `X` is deleted from that edge.
//! 2. **Edge removal** — an edge whose node set is a subset of another
//!    edge's node set is deleted.
//!
//! Lemma 2.1 shows the rules form a finite Church–Rosser system, so the
//! result is independent of the order of application; the `confluence`
//! module exercises this empirically with randomized orders.
//!
//! There is one reduction: [`graham_reduction`] applies the rules in
//! passes, and [`graham_reduce`] applies them one at a time in a chosen
//! order, recording the trace.  The result's node sets do not depend on
//! the order; the label a partial edge keeps does.
//!
//! **Convention.**  An edge whose last node is removed is deleted as well
//! (it carries no information and is a subset of every other edge).  With
//! this convention `GR(H, ∅)` of an acyclic hypergraph is the *empty*
//! hypergraph, matching the tableau-reduction convention used by the
//! `tableau` crate and keeping Theorem 3.5 exact in code.

use hypergraph::{Edge, Hypergraph, NodeId, NodeSet};
use std::collections::HashMap;

/// One application of a Graham-reduction rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrahamStep {
    /// A non-sacred node occurring in a single edge was removed from it.
    RemoveNode {
        /// The removed node.
        node: NodeId,
        /// Label of the edge it was removed from.
        from_edge: String,
    },
    /// An edge that became a subset of another edge was removed.
    RemoveEdge {
        /// Label of the removed edge.
        edge: String,
        /// Label of the edge that subsumes it.
        subsumed_by: String,
    },
}

/// The outcome of a Graham reduction: the fixed point reached and the trace
/// of rule applications that led there.
#[derive(Debug, Clone)]
pub struct GrahamReduction {
    /// The reduced hypergraph `GR(H, X)`.
    pub result: Hypergraph,
    /// The rule applications, in the order they were performed.
    pub steps: Vec<GrahamStep>,
}

impl GrahamReduction {
    /// Number of node-removal steps in the trace.
    pub fn node_removals(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, GrahamStep::RemoveNode { .. }))
            .count()
    }

    /// Number of edge-removal steps in the trace.
    pub fn edge_removals(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, GrahamStep::RemoveEdge { .. }))
            .count()
    }
}

/// How the next applicable rule is chosen.  All strategies reach the same
/// fixed point (Lemma 2.1); they differ only in the recorded trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Exhaust node removals before edge removals, scanning in id order.
    /// This is the deterministic default.
    NodesFirst,
    /// Exhaust edge removals before node removals.
    EdgesFirst,
    /// Pick a pseudo-random applicable rule each step, seeded for
    /// reproducibility.  Used by the confluence checker.
    Seeded(u64),
}

/// Computes `GR(H, X)`, returning only the reduced hypergraph.
///
/// Each pass deletes every non-sacred node of degree one, then every edge
/// that another edge contains, until a pass changes nothing.  The edges
/// left, as node sets, are [`graham_reduce`]'s under any [`Strategy`]
/// (Lemma 2.1); which of two edges that shrink to the same set keeps its
/// label depends on the order.
///
/// ```
/// use hypergraph::Hypergraph;
/// use acyclic::graham_reduction;
///
/// // Example 2.2: Fig. 1 with X = {A, D} reduces to {A,C,E} and {C,D,E}.
/// let h = Hypergraph::from_edges([
///     vec!["A", "B", "C"],
///     vec!["C", "D", "E"],
///     vec!["A", "E", "F"],
///     vec!["A", "C", "E"],
/// ]).unwrap();
/// let x = h.node_set(["A", "D"]).unwrap();
/// let gr = graham_reduction(&h, &x);
/// assert_eq!(gr.edge_count(), 2);
/// assert!(gr.contains_edge_set(&h.node_set(["A", "C", "E"]).unwrap()));
/// assert!(gr.contains_edge_set(&h.node_set(["C", "D", "E"]).unwrap()));
/// ```
pub fn graham_reduction(h: &Hypergraph, sacred: &NodeSet) -> Hypergraph {
    let mut edges: Vec<Edge> = h.edges().to_vec();
    loop {
        let mut changed = false;

        // Node-removal pass: delete every non-sacred node of degree one.
        let mut degree: HashMap<NodeId, usize> = HashMap::new();
        for e in &edges {
            for n in e.nodes.iter() {
                *degree.entry(n).or_insert(0) += 1;
            }
        }
        let removable: NodeSet = degree
            .iter()
            .filter(|(n, &c)| c == 1 && !sacred.contains(**n))
            .map(|(&n, _)| n)
            .collect();
        if !removable.is_empty() {
            changed = true;
            for e in &mut edges {
                e.nodes.subtract(&removable);
            }
            edges.retain(|e| !e.nodes.is_empty());
        }

        // Edge-removal pass: drop every edge that a kept edge contains.
        // Sorted stably by descending size, an edge need only be checked
        // against the edges before it, and of equal edges the earliest
        // stays.
        let mut order: Vec<usize> = (0..edges.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(edges[i].nodes.len()));
        let mut keep = vec![true; edges.len()];
        for (pos, &i) in order.iter().enumerate() {
            keep[i] = !order[..pos]
                .iter()
                .any(|&j| keep[j] && edges[i].nodes.is_subset(&edges[j].nodes));
        }
        if keep.contains(&false) {
            changed = true;
            let mut it = keep.iter();
            edges.retain(|_| *it.next().expect("keep mask aligned"));
        }

        if !changed {
            break;
        }
    }
    h.with_edges(edges)
}

/// Computes `GR(H, ∅)`: the unrestricted GYO reduction.
pub fn gyo_reduction(h: &Hypergraph) -> Hypergraph {
    graham_reduction(h, &NodeSet::new())
}

/// Minimal xorshift PRNG so the seeded strategy needs no external crates.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A rule application that is currently possible.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Candidate {
    Node { edge_idx: usize, node: NodeId },
    Edge { edge_idx: usize, by_idx: usize },
}

/// Computes `GR(H, X)` with an explicit rule-selection strategy, recording
/// the full trace.
pub fn graham_reduce(h: &Hypergraph, sacred: &NodeSet, strategy: Strategy) -> GrahamReduction {
    let mut edges: Vec<Edge> = h.edges().to_vec();
    let mut steps = Vec::new();
    let mut rng = match strategy {
        Strategy::Seeded(seed) => Some(XorShift::new(seed)),
        _ => None,
    };

    loop {
        let candidates = collect_candidates(&edges, sacred, strategy);
        if candidates.is_empty() {
            break;
        }
        let choice = match rng.as_mut() {
            Some(r) => candidates[r.pick(candidates.len())].clone(),
            None => candidates[0].clone(),
        };
        match choice {
            Candidate::Node { edge_idx, node } => {
                steps.push(GrahamStep::RemoveNode {
                    node,
                    from_edge: edges[edge_idx].label.clone(),
                });
                edges[edge_idx].nodes.remove(node);
                if edges[edge_idx].nodes.is_empty() {
                    edges.remove(edge_idx);
                }
            }
            Candidate::Edge { edge_idx, by_idx } => {
                steps.push(GrahamStep::RemoveEdge {
                    edge: edges[edge_idx].label.clone(),
                    subsumed_by: edges[by_idx].label.clone(),
                });
                edges.remove(edge_idx);
            }
        }
    }

    GrahamReduction {
        result: h.with_edges(edges),
        steps,
    }
}

/// Lists the rule applications currently possible, ordered according to the
/// strategy's deterministic preference (the seeded strategy receives the
/// full list and picks randomly).
fn collect_candidates(edges: &[Edge], sacred: &NodeSet, strategy: Strategy) -> Vec<Candidate> {
    let mut node_cands = Vec::new();
    let mut edge_cands = Vec::new();

    // Node removals: non-sacred nodes of degree 1.
    let mut degree: HashMap<NodeId, (usize, usize)> = HashMap::new();
    for (i, e) in edges.iter().enumerate() {
        for n in e.nodes.iter() {
            let entry = degree.entry(n).or_insert((0, i));
            entry.0 += 1;
            entry.1 = i;
        }
    }
    let mut deg1: Vec<(NodeId, usize)> = degree
        .iter()
        .filter(|(n, (count, _))| *count == 1 && !sacred.contains(**n))
        .map(|(&n, &(_, idx))| (n, idx))
        .collect();
    deg1.sort();
    for (node, edge_idx) in deg1 {
        node_cands.push(Candidate::Node { edge_idx, node });
    }

    // Edge removals: edges subsumed by another edge (duplicates count,
    // keeping the earliest as the survivor).
    for i in 0..edges.len() {
        for j in 0..edges.len() {
            if i == j {
                continue;
            }
            let (a, b) = (&edges[i].nodes, &edges[j].nodes);
            if a.is_proper_subset(b) || (a == b && i > j) {
                edge_cands.push(Candidate::Edge {
                    edge_idx: i,
                    by_idx: j,
                });
                break;
            }
        }
    }

    match strategy {
        Strategy::NodesFirst | Strategy::Seeded(_) => {
            node_cands.extend(edge_cands);
            node_cands
        }
        Strategy::EdgesFirst => {
            edge_cands.extend(node_cands);
            edge_cands
        }
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

    #[test]
    fn example_2_2_reduction() {
        let h = fig1();
        let x = h.node_set(["A", "D"]).unwrap();
        let gr = graham_reduction(&h, &x);
        assert_eq!(gr.edge_count(), 2);
        assert!(gr.contains_edge_set(&h.node_set(["A", "C", "E"]).unwrap()));
        assert!(gr.contains_edge_set(&h.node_set(["C", "D", "E"]).unwrap()));
        assert!(gr.is_reduced());
    }

    #[test]
    fn example_2_2_trace_mentions_f_and_b() {
        let h = fig1();
        let x = h.node_set(["A", "D"]).unwrap();
        let red = graham_reduce(&h, &x, Strategy::NodesFirst);
        let removed_nodes: Vec<NodeId> = red
            .steps
            .iter()
            .filter_map(|s| match s {
                GrahamStep::RemoveNode { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert!(removed_nodes.contains(&h.node("B").unwrap()));
        assert!(removed_nodes.contains(&h.node("F").unwrap()));
        // D is sacred and must never be removed even though it has degree 1.
        assert!(!removed_nodes.contains(&h.node("D").unwrap()));
        assert_eq!(red.node_removals(), 2);
        assert_eq!(red.edge_removals(), 2);
    }

    #[test]
    fn full_gyo_of_acyclic_hypergraph_is_empty() {
        let h = fig1();
        assert!(gyo_reduction(&h).is_empty());
    }

    #[test]
    fn gyo_of_triangle_is_stuck() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["A", "C"]]).unwrap();
        let r = gyo_reduction(&h);
        assert_eq!(r.edge_count(), 3);
        assert!(r.same_edge_sets(&h));
    }

    #[test]
    fn strategies_reach_the_same_fixed_point() {
        let h = fig1();
        let x = h.node_set(["A", "D"]).unwrap();
        let a = graham_reduce(&h, &x, Strategy::NodesFirst).result;
        let b = graham_reduce(&h, &x, Strategy::EdgesFirst).result;
        let c = graham_reduce(&h, &x, Strategy::Seeded(42)).result;
        let d = graham_reduce(&h, &x, Strategy::Seeded(7)).result;
        assert!(a.same_edge_sets(&b));
        assert!(a.same_edge_sets(&c));
        assert!(a.same_edge_sets(&d));
    }

    #[test]
    fn sacred_nodes_survive() {
        let h = fig1();
        let x = h.node_set(["B", "F"]).unwrap();
        let gr = graham_reduction(&h, &x);
        assert!(x.is_subset(&gr.nodes()));
    }

    #[test]
    fn all_nodes_sacred_leaves_hypergraph_unchanged_if_reduced() {
        let h = fig1();
        let gr = graham_reduction(&h, &h.nodes());
        assert!(gr.same_edge_sets(&h));
    }

    #[test]
    fn single_edge_reduces_to_sacred_subset() {
        let h = Hypergraph::from_edges([vec!["A", "B", "C"]]).unwrap();
        let x = h.node_set(["B"]).unwrap();
        let gr = graham_reduction(&h, &x);
        assert_eq!(gr.edge_count(), 1);
        assert_eq!(gr.nodes(), x);
        // With nothing sacred the single edge evaporates entirely.
        assert!(gyo_reduction(&h).is_empty());
    }

    #[test]
    fn duplicate_edges_collapse() {
        let h =
            Hypergraph::from_edges([vec!["A", "B"], vec!["A", "B"], vec!["A", "B", "C"]]).unwrap();
        let x = h.node_set(["A", "B", "C"]).unwrap();
        let gr = graham_reduction(&h, &x);
        assert_eq!(gr.edge_count(), 1);
    }

    #[test]
    fn reduction_of_empty_hypergraph_is_empty() {
        let h = Hypergraph::builder().build().unwrap();
        let red = graham_reduce(&h, &NodeSet::new(), Strategy::NodesFirst);
        assert!(red.result.is_empty());
        assert!(red.steps.is_empty());
    }

    #[test]
    fn cyclic_hypergraph_with_pendant_reduces_partially() {
        // Triangle plus a pendant edge {A, D}: GYO removes D and then the
        // pendant edge, but the triangle remains.
        let h = Hypergraph::from_edges([
            vec!["A", "B"],
            vec!["B", "C"],
            vec!["A", "C"],
            vec!["A", "D"],
        ])
        .unwrap();
        let r = gyo_reduction(&h);
        assert_eq!(r.edge_count(), 3);
        // With D sacred the pendant edge survives as {A, D}… reduced to the
        // part reachable: node A is in three edges so it stays.
        let r2 = graham_reduction(&h, &h.node_set(["D"]).unwrap());
        assert_eq!(r2.edge_count(), 4);
    }
}
