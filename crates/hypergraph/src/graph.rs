//! Ordinary (2-uniform) graphs.
//!
//! The paper motivates its main theorem as the hypergraph generalization of a
//! classical fact about ordinary graphs: a (nontrivial) connected graph has
//! no articulation point iff there are two edge-disjoint paths between every
//! pair of nodes (equivalently, it is a single block / biconnected
//! component).  This module supplies that classical machinery: articulation
//! points, biconnected components, connected components and vertex
//! elimination — used both for the graph-vs-hypergraph comparison and as a
//! substrate for primal graphs, join-tree verification and decompositions.

use crate::interner::NodeId;
use crate::nodeset::NodeSet;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};

/// An undirected simple graph over [`NodeId`]s.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adjacency: HashMap<NodeId, NodeSet>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with no incident edges (idempotent).
    pub fn add_node(&mut self, n: NodeId) {
        self.adjacency.entry(n).or_default();
    }

    /// Adds an undirected edge (idempotent; self-loops are ignored).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        if a == b {
            self.add_node(a);
            return;
        }
        self.adjacency.entry(a).or_default().insert(b);
        self.adjacency.entry(b).or_default().insert(a);
    }

    /// True if the edge `{a, b}` is present.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency.get(&a).is_some_and(|s| s.contains(b))
    }

    /// The neighbours of `n` (empty if `n` is not in the graph).
    pub fn neighbors(&self, n: NodeId) -> NodeSet {
        self.adjacency.get(&n).cloned().unwrap_or_default()
    }

    /// The neighbours of `n` by reference, or `None` if `n` is not in the
    /// graph — the allocation-free variant used by traversal inner loops.
    pub fn neighbors_ref(&self, n: NodeId) -> Option<&NodeSet> {
        self.adjacency.get(&n)
    }

    /// All nodes of the graph.
    pub fn nodes(&self) -> NodeSet {
        self.adjacency.keys().copied().collect()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.values().map(|s| s.len()).sum::<usize>() / 2
    }

    /// The connected components of the graph.
    pub(crate) fn components(&self) -> Vec<NodeSet> {
        let mut remaining = self.nodes();
        let mut out = Vec::new();
        while let Some(start) = remaining.first() {
            let comp = self.reachable_from(start);
            remaining.subtract(&comp);
            out.push(comp);
        }
        out.sort();
        out
    }

    /// Nodes reachable from `start` (including `start` itself).
    pub(crate) fn reachable_from(&self, start: NodeId) -> NodeSet {
        let mut seen = NodeSet::from_ids([start]);
        let mut queue = VecDeque::from([start]);
        while let Some(n) = queue.pop_front() {
            for m in self.neighbors(n).iter() {
                if seen.insert(m) {
                    queue.push_back(m);
                }
            }
        }
        seen
    }

    /// True if the graph has at most one connected component.
    pub fn is_connected(&self) -> bool {
        self.components().len() <= 1
    }

    /// The articulation points (cut vertices) of the graph, via Tarjan's
    /// low-link algorithm (iterative).
    pub fn articulation_points(&self) -> NodeSet {
        let mut result = NodeSet::new();
        let mut disc: HashMap<NodeId, usize> = HashMap::new();
        let mut low: HashMap<NodeId, usize> = HashMap::new();
        let mut timer = 0usize;

        for root in self.nodes().iter() {
            if disc.contains_key(&root) {
                continue;
            }
            // Iterative DFS storing (node, parent, neighbour iterator index).
            let mut stack: Vec<(NodeId, Option<NodeId>, Vec<NodeId>, usize)> = Vec::new();
            disc.insert(root, timer);
            low.insert(root, timer);
            timer += 1;
            let nbrs: Vec<NodeId> = self.neighbors(root).iter().collect();
            stack.push((root, None, nbrs, 0));
            let mut root_children = 0usize;

            while let Some((node, parent, nbrs, idx)) = stack.last_mut() {
                if *idx < nbrs.len() {
                    let next = nbrs[*idx];
                    *idx += 1;
                    match disc.entry(next) {
                        Entry::Vacant(entry) => {
                            if *node == root {
                                root_children += 1;
                            }
                            entry.insert(timer);
                            low.insert(next, timer);
                            timer += 1;
                            let nn: Vec<NodeId> = self.neighbors(next).iter().collect();
                            let parent_of_next = Some(*node);
                            stack.push((next, parent_of_next, nn, 0));
                        }
                        Entry::Occupied(next_disc) => {
                            if Some(next) != *parent {
                                let l = low[node].min(*next_disc.get());
                                low.insert(*node, l);
                            }
                        }
                    }
                } else {
                    let (node, parent, _, _) = stack.pop().expect("nonempty");
                    if let Some(p) = parent {
                        let l = low[&p].min(low[&node]);
                        low.insert(p, l);
                        if p != root && low[&node] >= disc[&p] {
                            result.insert(p);
                        }
                    }
                }
            }
            if root_children > 1 {
                result.insert(root);
            }
        }
        result
    }

    /// The biconnected components of the graph, each given as the set of
    /// nodes it spans.  Components of a single edge are included; isolated
    /// nodes are not.
    pub fn biconnected_components(&self) -> Vec<NodeSet> {
        // Recompute with an edge stack (standard Hopcroft–Tarjan variant),
        // implemented recursively over an explicit stack for robustness on
        // deep graphs.
        let mut comps: Vec<NodeSet> = Vec::new();
        let mut disc: HashMap<NodeId, usize> = HashMap::new();
        let mut low: HashMap<NodeId, usize> = HashMap::new();
        let mut timer = 0usize;
        let mut edge_stack: Vec<(NodeId, NodeId)> = Vec::new();
        let mut visited_edges: HashSet<(NodeId, NodeId)> = HashSet::new();

        let norm = |a: NodeId, b: NodeId| if a < b { (a, b) } else { (b, a) };

        for root in self.nodes().iter() {
            if disc.contains_key(&root) {
                continue;
            }
            let mut stack: Vec<(NodeId, Option<NodeId>, Vec<NodeId>, usize)> = Vec::new();
            disc.insert(root, timer);
            low.insert(root, timer);
            timer += 1;
            stack.push((root, None, self.neighbors(root).iter().collect(), 0));

            while let Some((node, parent, nbrs, idx)) = stack.last_mut() {
                if *idx < nbrs.len() {
                    let next = nbrs[*idx];
                    *idx += 1;
                    if Some(next) == *parent {
                        continue;
                    }
                    let node_disc = disc[node];
                    match disc.entry(next) {
                        Entry::Vacant(entry) => {
                            visited_edges.insert(norm(*node, next));
                            edge_stack.push((*node, next));
                            entry.insert(timer);
                            low.insert(next, timer);
                            timer += 1;
                            let node_copy = *node;
                            stack.push((
                                next,
                                Some(node_copy),
                                self.neighbors(next).iter().collect(),
                                0,
                            ));
                        }
                        Entry::Occupied(entry) => {
                            let next_disc = *entry.get();
                            if next_disc < node_disc && visited_edges.insert(norm(*node, next)) {
                                edge_stack.push((*node, next));
                                let l = low[node].min(next_disc);
                                low.insert(*node, l);
                            }
                        }
                    }
                } else {
                    let (node, parent, _, _) = stack.pop().expect("nonempty");
                    if let Some(p) = parent {
                        let l = low[&p].min(low[&node]);
                        low.insert(p, l);
                        if low[&node] >= disc[&p] {
                            // Pop a biconnected component off the edge stack.
                            let mut comp = NodeSet::new();
                            while let Some(&(a, b)) = edge_stack.last() {
                                if disc[&a] >= disc[&node] || (a == p && b == node) {
                                    comp.insert(a);
                                    comp.insert(b);
                                    edge_stack.pop();
                                    if a == p && b == node {
                                        break;
                                    }
                                } else {
                                    break;
                                }
                            }
                            if !comp.is_empty() {
                                comps.push(comp);
                            }
                        }
                    }
                }
            }
        }
        comps.sort();
        comps
    }

    /// Removes a node and every edge incident to it (idempotent).  Costs
    /// `O(deg(n))`: only the former neighbours' adjacency sets are touched.
    pub(crate) fn remove_node(&mut self, n: NodeId) {
        if let Some(nbrs) = self.adjacency.remove(&n) {
            for m in nbrs.iter() {
                if let Some(s) = self.adjacency.get_mut(&m) {
                    s.remove(n);
                }
            }
        }
    }

    /// The number of *fill edges* eliminating `n` would add: pairs of
    /// neighbours of `n` that are not themselves adjacent.  This is the
    /// quantity the min-fill triangulation heuristic minimizes — a node with
    /// fill-in zero is *simplicial* (its neighbourhood is already a clique),
    /// and a graph is chordal iff it admits an elimination order of
    /// simplicial nodes.
    pub fn fill_in_count(&self, n: NodeId) -> usize {
        let Some(nbrs) = self.adjacency.get(&n) else {
            return 0;
        };
        let mut missing = 0usize;
        for a in nbrs.iter() {
            // Neighbours of n that are not adjacent to a (and are not a).
            let adjacent = &self.adjacency[&a];
            let mut non_adjacent = nbrs.difference(adjacent);
            non_adjacent.remove(a);
            missing += non_adjacent.len();
        }
        missing / 2
    }

    /// *Eliminates* `n`: connects its neighbours into a clique (adding the
    /// fill edges counted by [`Graph::fill_in_count`]) and removes `n`.
    /// Returns the neighbourhood of `n` at elimination time — together with
    /// `n` itself this is the *bag* the triangulation-based hypertree
    /// decomposition records for this step.
    pub fn eliminate(&mut self, n: NodeId) -> NodeSet {
        let nbrs = self.neighbors(n);
        let members: Vec<NodeId> = nbrs.iter().collect();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                self.add_edge(a, b);
            }
        }
        self.remove_node(n);
        nbrs
    }

    /// True if the graph is acyclic when viewed as an undirected graph
    /// (i.e. it is a forest).
    pub fn is_forest(&self) -> bool {
        let comps = self.components();
        let nodes = self.node_count();
        let edges = self.edge_count();
        // A forest with c components on n nodes has exactly n - c edges.
        edges + comps.len() == nodes || (nodes == 0 && edges == 0)
    }

    /// True if the graph is a tree: connected and acyclic.
    pub fn is_tree(&self) -> bool {
        self.node_count() > 0 && self.is_connected() && self.is_forest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn path(len: u32) -> Graph {
        let mut g = Graph::new();
        for i in 0..len.saturating_sub(1) {
            g.add_edge(n(i), n(i + 1));
        }
        g
    }

    fn cycle(len: u32) -> Graph {
        let mut g = path(len);
        if len > 2 {
            g.add_edge(n(len - 1), n(0));
        }
        g
    }

    #[test]
    fn basic_accessors() {
        let mut g = Graph::new();
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_node(n(5));
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(n(1), n(0)));
        assert!(!g.has_edge(n(0), n(2)));
        assert!(g.has_edge(n(1), n(2)));
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut g = Graph::new();
        g.add_edge(n(0), n(0));
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn components_and_connectivity() {
        let mut g = path(3);
        g.add_edge(n(10), n(11));
        assert!(!g.is_connected());
        assert_eq!(g.components().len(), 2);
        assert!(path(4).is_connected());
    }

    #[test]
    fn articulation_points_of_path_and_cycle() {
        let g = path(5);
        let cuts = g.articulation_points();
        assert_eq!(cuts, NodeSet::from_ids([n(1), n(2), n(3)]));
        assert!(cycle(5).articulation_points().is_empty());
    }

    #[test]
    fn articulation_points_of_two_triangles_sharing_a_vertex() {
        let mut g = Graph::new();
        for (a, b) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
            g.add_edge(n(a), n(b));
        }
        assert_eq!(g.articulation_points(), NodeSet::from_ids([n(2)]));
        let comps = g.biconnected_components();
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&NodeSet::from_ids([n(0), n(1), n(2)])));
        assert!(comps.contains(&NodeSet::from_ids([n(2), n(3), n(4)])));
    }

    #[test]
    fn biconnected_components_of_path() {
        let comps = path(4).biconnected_components();
        assert_eq!(comps.len(), 3);
        for c in comps {
            assert_eq!(c.len(), 2);
        }
    }

    #[test]
    fn block_equivalence_classical_theorem() {
        // A cycle has no articulation point and exactly one biconnected
        // component spanning all nodes — the classical fact the paper
        // generalizes.
        let g = cycle(7);
        assert!(g.articulation_points().is_empty());
        let comps = g.biconnected_components();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0], g.nodes());
    }

    #[test]
    fn fill_in_counts_follow_the_neighbourhood_clique() {
        // On a cycle every node has two non-adjacent neighbours: fill-in 1.
        let g = cycle(5);
        for i in 0..5 {
            assert_eq!(g.fill_in_count(n(i)), 1);
        }
        // Path endpoints are simplicial (single neighbour, no fill).
        let p = path(4);
        assert_eq!(p.fill_in_count(n(0)), 0);
        assert_eq!(p.fill_in_count(n(1)), 1);
        // A complete graph is all-simplicial.
        let mut k4 = Graph::new();
        for i in 0..4 {
            for j in i + 1..4 {
                k4.add_edge(n(i), n(j));
            }
        }
        for i in 0..4 {
            assert_eq!(k4.fill_in_count(n(i)), 0);
        }
        // Unknown nodes have no neighbourhood to fill.
        assert_eq!(g.fill_in_count(n(99)), 0);
    }

    #[test]
    fn eliminate_adds_fill_edges_and_removes_the_node() {
        let mut g = cycle(4);
        let bag = g.eliminate(n(0));
        assert_eq!(bag, NodeSet::from_ids([n(1), n(3)]));
        assert!(!g.nodes().contains(n(0)));
        // The fill edge {1, 3} closes the neighbourhood.
        assert!(g.has_edge(n(1), n(3)));
        // The remaining triangle is now all-simplicial.
        for i in 1..4 {
            assert_eq!(g.fill_in_count(n(i)), 0);
        }
        // remove_node is idempotent and prunes incident edges.
        g.remove_node(n(1));
        g.remove_node(n(1));
        assert!(!g.has_edge(n(1), n(2)));
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn forest_and_tree_detection() {
        assert!(path(4).is_tree());
        assert!(path(4).is_forest());
        assert!(!cycle(4).is_forest());
        let mut forest = path(3);
        forest.add_edge(n(10), n(11));
        assert!(forest.is_forest());
        assert!(!forest.is_tree());
    }
}
