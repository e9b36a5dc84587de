//! Connecting trees, connecting paths, and independent paths (paper §5).
//!
//! A *connecting tree* is a tree whose vertices are node sets of the
//! hypergraph, each tree edge's two node sets lying inside one hyperedge,
//! with the minimality condition that no hyperedge contains three of the
//! tree's node sets.  A connecting tree in the shape of a single path is a
//! *connecting path*.
//!
//! A connecting tree/path is *independent* when some tree node is not wholly
//! contained in the nodes of the canonical connection of the sets it links
//! (for a path: the first and last set).  Independent paths are the
//! certificates of cyclicity in the paper's main theorem (Theorem 6.1);
//! [`find_independent_path`] extracts such a certificate from any cyclic
//! hypergraph, following the constructive "if" direction of the proof.

use crate::acyclicity::AcyclicityExt;
use crate::connection::canonical_connection;
use hypergraph::{Hypergraph, NodeSet};
use std::fmt;

/// Why a candidate connecting path (or tree) is not valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectionViolation {
    /// A connecting path needs at least two node sets.
    TooShort,
    /// The node set at this position is empty.
    EmptySet(usize),
    /// The union of the node sets at these positions is not covered by any
    /// hyperedge, so they cannot be adjacent in the tree/path.
    PairUncovered(usize, usize),
    /// One hyperedge contains three of the node sets, violating minimality.
    TripleInOneEdge(usize, usize, usize),
    /// The edge list does not form a tree over the node sets.
    NotATree,
}

impl fmt::Display for ConnectionViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooShort => write!(f, "a connecting path needs at least two node sets"),
            Self::EmptySet(i) => write!(f, "node set #{i} is empty"),
            Self::PairUncovered(i, j) => {
                write!(f, "no hyperedge covers node sets #{i} and #{j} together")
            }
            Self::TripleInOneEdge(i, j, k) => write!(
                f,
                "one hyperedge contains node sets #{i}, #{j} and #{k}, violating minimality"
            ),
            Self::NotATree => write!(f, "the tree edges do not form a tree"),
        }
    }
}

impl std::error::Error for ConnectionViolation {}

/// A connecting path: a sequence of node sets, consecutive ones lying in a
/// common hyperedge, with no hyperedge containing three of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectingPath {
    sets: Vec<NodeSet>,
}

impl ConnectingPath {
    /// Wraps a sequence of node sets as a (not yet verified) path.
    pub(crate) fn new(sets: Vec<NodeSet>) -> Self {
        Self { sets }
    }

    /// Number of node sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True if the path has no node sets.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The first node set (one endpoint).
    pub fn first(&self) -> &NodeSet {
        &self.sets[0]
    }

    /// The last node set (the other endpoint).
    pub fn last(&self) -> &NodeSet {
        self.sets.last().expect("nonempty path")
    }

    /// Checks that this is a connecting path of `h`.
    pub(crate) fn verify(&self, h: &Hypergraph) -> Result<(), ConnectionViolation> {
        if self.sets.len() < 2 {
            return Err(ConnectionViolation::TooShort);
        }
        for (i, s) in self.sets.iter().enumerate() {
            if s.is_empty() {
                return Err(ConnectionViolation::EmptySet(i));
            }
        }
        for i in 0..self.sets.len() - 1 {
            if !h.covers(&self.sets[i].union(&self.sets[i + 1])) {
                return Err(ConnectionViolation::PairUncovered(i, i + 1));
            }
        }
        for e in h.edges() {
            let mut inside = Vec::new();
            for (i, s) in self.sets.iter().enumerate() {
                if s.is_subset(&e.nodes) {
                    inside.push(i);
                    if inside.len() == 3 {
                        return Err(ConnectionViolation::TripleInOneEdge(
                            inside[0], inside[1], inside[2],
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// True if this is a valid connecting path of `h`.
    pub fn is_connecting_path(&self, h: &Hypergraph) -> bool {
        self.verify(h).is_ok()
    }

    /// If this connecting path is independent, the index of a witnessing
    /// node set that is not wholly contained in the nodes of
    /// `CC(first ∪ last)`.
    pub(crate) fn independence_witness(&self, h: &Hypergraph) -> Option<usize> {
        if self.verify(h).is_err() {
            return None;
        }
        let endpoints = self.first().union(self.last());
        let cc_nodes = canonical_connection(h, &endpoints).nodes();
        self.sets.iter().position(|s| !s.is_subset(&cc_nodes))
    }

    /// True if this is an independent path of `h`.
    pub fn is_independent(&self, h: &Hypergraph) -> bool {
        self.independence_witness(h).is_some()
    }

    /// Renders the path with node names, e.g. `{A} - {E} - {C}`.
    pub fn display(&self, h: &Hypergraph) -> String {
        self.sets
            .iter()
            .map(|s| format!("{}", s.display(h.universe())))
            .collect::<Vec<_>>()
            .join(" - ")
    }
}

/// A connecting tree: node sets plus a tree structure over them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectingTree {
    sets: Vec<NodeSet>,
    edges: Vec<(usize, usize)>,
}

impl ConnectingTree {
    /// Wraps node sets and tree edges as a (not yet verified) tree.
    pub fn new(sets: Vec<NodeSet>, edges: Vec<(usize, usize)>) -> Self {
        Self { sets, edges }
    }

    /// Indices of the leaf sets (degree ≤ 1 in the tree).
    pub(crate) fn leaves(&self) -> Vec<usize> {
        (0..self.sets.len())
            .filter(|&i| {
                self.edges
                    .iter()
                    .filter(|(a, b)| *a == i || *b == i)
                    .count()
                    <= 1
            })
            .collect()
    }

    /// Checks that this is a connecting tree of `h`.
    pub fn verify(&self, h: &Hypergraph) -> Result<(), ConnectionViolation> {
        let k = self.sets.len();
        if k < 2 {
            return Err(ConnectionViolation::TooShort);
        }
        for (i, s) in self.sets.iter().enumerate() {
            if s.is_empty() {
                return Err(ConnectionViolation::EmptySet(i));
            }
        }
        // Tree structure: k - 1 edges, connected, indices in range.
        if self.edges.len() != k - 1 || self.edges.iter().any(|&(a, b)| a >= k || b >= k || a == b)
        {
            return Err(ConnectionViolation::NotATree);
        }
        let mut reach = vec![false; k];
        let mut stack = vec![0usize];
        reach[0] = true;
        while let Some(i) = stack.pop() {
            for &(a, b) in &self.edges {
                let other = if a == i {
                    b
                } else if b == i {
                    a
                } else {
                    continue;
                };
                if !reach[other] {
                    reach[other] = true;
                    stack.push(other);
                }
            }
        }
        if reach.iter().any(|r| !r) {
            return Err(ConnectionViolation::NotATree);
        }
        // Every tree edge's pair of node sets lies in one hyperedge.
        for &(a, b) in &self.edges {
            if !h.covers(&self.sets[a].union(&self.sets[b])) {
                return Err(ConnectionViolation::PairUncovered(a, b));
            }
        }
        // Minimality: no hyperedge contains three tree nodes.
        for e in h.edges() {
            let inside: Vec<usize> = (0..k)
                .filter(|&i| self.sets[i].is_subset(&e.nodes))
                .collect();
            if inside.len() >= 3 {
                return Err(ConnectionViolation::TripleInOneEdge(
                    inside[0], inside[1], inside[2],
                ));
            }
        }
        Ok(())
    }

    /// True if this is an independent tree of `h`: a valid connecting tree
    /// with some tree node not wholly contained in the nodes of the
    /// canonical connection of the union of its *leaf* sets.
    pub fn is_independent(&self, h: &Hypergraph) -> bool {
        if self.verify(h).is_err() {
            return false;
        }
        let mut union = NodeSet::new();
        for i in self.leaves() {
            union.union_with(&self.sets[i]);
        }
        let cc_nodes = canonical_connection(h, &union).nodes();
        self.sets.iter().any(|s| !s.is_subset(&cc_nodes))
    }

    /// Extracts an independent *path* from an independent tree (Lemma 5.2):
    /// the path between two leaves that passes through a tree node escaping
    /// the canonical connection.
    pub fn extract_independent_path(&self, h: &Hypergraph) -> Option<ConnectingPath> {
        if !self.is_independent(h) {
            return None;
        }
        let leaves = self.leaves();
        for (ai, &a) in leaves.iter().enumerate() {
            for &b in &leaves[ai + 1..] {
                let path_idx = self.tree_path(a, b)?;
                let path =
                    ConnectingPath::new(path_idx.iter().map(|&i| self.sets[i].clone()).collect());
                if path.is_independent(h) {
                    return Some(path);
                }
            }
        }
        None
    }

    /// Vertex indices along the unique tree path from `a` to `b`.
    fn tree_path(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        let k = self.sets.len();
        let mut prev = vec![usize::MAX; k];
        let mut stack = vec![a];
        let mut seen = vec![false; k];
        seen[a] = true;
        while let Some(i) = stack.pop() {
            for &(x, y) in &self.edges {
                let other = if x == i {
                    y
                } else if y == i {
                    x
                } else {
                    continue;
                };
                if !seen[other] {
                    seen[other] = true;
                    prev[other] = i;
                    stack.push(other);
                }
            }
        }
        if !seen[b] {
            return None;
        }
        let mut path = vec![b];
        let mut cur = b;
        while cur != a {
            cur = prev[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// A node-minimal cyclic node-generated sub-hypergraph of `h`, or `None` if
/// `h` is acyclic.
///
/// Minimality gives the structure the Theorem 6.1 construction needs: the
/// returned hypergraph is connected, has at least two edges, and has **no
/// articulation set** (otherwise a smaller node set would already be
/// cyclic, contradicting minimality).
pub(crate) fn find_cyclic_core(h: &Hypergraph) -> Option<Hypergraph> {
    if h.is_acyclic() {
        return None;
    }
    let mut nodes = h.nodes();
    let mut core = h.induced(&nodes);
    loop {
        let mut shrunk = false;
        for n in nodes.clone().iter() {
            let mut candidate_nodes = nodes.clone();
            candidate_nodes.remove(n);
            let candidate = h.induced(&candidate_nodes);
            if !candidate.is_acyclic() {
                nodes = candidate_nodes;
                core = candidate;
                shrunk = true;
            }
        }
        if !shrunk {
            break;
        }
    }
    Some(core)
}

/// Constructs a candidate independent path inside a hypergraph that is
/// cyclic, connected and has no articulation set, following the "if"
/// direction of Theorem 6.1.  The candidate is built between `F - X` and
/// `X = F ∩ G` for a maximal pairwise edge intersection `X`, then repaired
/// until no hyperedge contains three of its sets.
fn construct_in_core(core: &Hypergraph, f_idx: usize, g_idx: usize) -> Option<ConnectingPath> {
    let f = &core.edges()[f_idx].nodes;
    let g = &core.edges()[g_idx].nodes;
    let x = f.intersection(g);
    if x.is_empty() {
        return None;
    }

    // Edge path from F to G in the hypergraph with X removed: consecutive
    // edges must intersect outside X.  BFS over edge indices.
    let m = core.edge_count();
    let alive: Vec<bool> = core
        .edges()
        .iter()
        .map(|e| !e.nodes.difference(&x).is_empty())
        .collect();
    if !alive[f_idx] || !alive[g_idx] {
        return None;
    }
    let mut prev: Vec<Option<usize>> = vec![None; m];
    let mut seen = vec![false; m];
    seen[f_idx] = true;
    let mut queue = std::collections::VecDeque::from([f_idx]);
    while let Some(i) = queue.pop_front() {
        if i == g_idx {
            break;
        }
        for j in 0..m {
            if seen[j] || !alive[j] {
                continue;
            }
            let shared_outside_x = core.edges()[i]
                .nodes
                .intersection(&core.edges()[j].nodes)
                .difference(&x);
            if !shared_outside_x.is_empty() {
                seen[j] = true;
                prev[j] = Some(i);
                queue.push_back(j);
            }
        }
    }
    if !seen[g_idx] {
        return None;
    }
    let mut edge_path = vec![g_idx];
    let mut cur = g_idx;
    while let Some(p) = prev[cur] {
        edge_path.push(p);
        cur = p;
    }
    edge_path.reverse(); // f_idx … g_idx

    // Set sequence: F−X, (f0∩f1)−X, …, (f_{p-1}∩f_p)−X, G−X, and finally X.
    let mut sets: Vec<NodeSet> = Vec::new();
    sets.push(f.difference(&x));
    for w in edge_path.windows(2) {
        let inter = core.edges()[w[0]]
            .nodes
            .intersection(&core.edges()[w[1]].nodes)
            .difference(&x);
        sets.push(inter);
    }
    sets.push(g.difference(&x));
    sets.push(x.clone());
    if sets.iter().any(NodeSet::is_empty) {
        return None;
    }

    // Repair until no hyperedge of the core contains three of the sets.
    // Invariant: the last set is X, the one before it is G−X (never
    // removed), and the first set is contained in the current "F" edge.
    'repair: loop {
        let t = sets.len();
        for e in core.edges() {
            let inside: Vec<usize> = (0..t).filter(|&i| sets[i].is_subset(&e.nodes)).collect();
            if inside.len() < 3 {
                continue;
            }
            let has_x = inside.contains(&(t - 1));
            let ms: Vec<usize> = inside.iter().copied().filter(|&i| i != t - 1).collect();
            if ms.len() >= 2 && ms[ms.len() - 1] > ms[0] + 1 {
                // Two non-adjacent M sets inside one edge: splice out the
                // intermediate sets (the edge covers the shortcut).
                let (lo, hi) = (ms[0], ms[ms.len() - 1]);
                sets.drain(lo + 1..hi);
                continue 'repair;
            }
            if has_x && ms.len() >= 2 {
                // X together with two adjacent M_i, M_{i+1}: this edge plays
                // the role of F and the sequence restarts at M_{i+1}.
                let i = ms[0];
                sets.drain(0..=i);
                continue 'repair;
            }
            // Three adjacent M sets inside one edge: drop the middle one.
            if ms.len() >= 3 {
                sets.remove(ms[1]);
                continue 'repair;
            }
            // Any remaining triple pattern is impossible when X is a maximal
            // intersection; bail out rather than loop.
            return None;
        }
        break;
    }
    if sets.len() < 3 {
        return None;
    }
    Some(ConnectingPath::new(sets))
}

/// Finds an independent path in `h`, or `None` if `h` is acyclic.
///
/// The returned path is always verified: it is a valid connecting path of
/// `h` and [`ConnectingPath::is_independent`] holds for it.  Together with
/// the acyclic direction this realizes Theorem 6.1 constructively.
pub fn find_independent_path(h: &Hypergraph) -> Option<ConnectingPath> {
    if h.is_acyclic() {
        return None;
    }
    // Work inside a node-minimal cyclic core: connected, ≥ 2 edges, no
    // articulation set — exactly the situation of the proof's base case.
    let core = find_cyclic_core(h)?;

    // Try every pair of edges realizing a maximal pairwise intersection,
    // preferring candidates the proof's construction accepts; each candidate
    // path is verified against the *original* hypergraph before returning.
    let mut intersections: Vec<(usize, usize, NodeSet)> = Vec::new();
    for i in 0..core.edge_count() {
        for j in i + 1..core.edge_count() {
            let x = core.edges()[i].nodes.intersection(&core.edges()[j].nodes);
            if !x.is_empty() {
                intersections.push((i, j, x));
            }
        }
    }
    // Maximal intersections first (the proof's choice), then the rest as a
    // robustness fallback.
    let is_maximal = |x: &NodeSet| !intersections.iter().any(|(_, _, y)| x.is_proper_subset(y));
    let mut ordered: Vec<(usize, usize)> = intersections
        .iter()
        .filter(|(_, _, x)| is_maximal(x))
        .map(|&(i, j, _)| (i, j))
        .collect();
    ordered.extend(
        intersections
            .iter()
            .filter(|(_, _, x)| !is_maximal(x))
            .map(|&(i, j, _)| (i, j)),
    );
    for (i, j) in ordered {
        for (f_idx, g_idx) in [(i, j), (j, i)] {
            if let Some(path) = construct_in_core(&core, f_idx, g_idx) {
                if path.is_connecting_path(h) && path.is_independent(h) {
                    return Some(path);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hypergraph of Example 5.1: Fig. 1 without edge {A, C, E}.
    fn ring() -> Hypergraph {
        Hypergraph::from_edges([
            vec!["A", "B", "C"],
            vec!["C", "D", "E"],
            vec!["A", "E", "F"],
        ])
        .unwrap()
    }

    fn fig1() -> Hypergraph {
        Hypergraph::from_edges([
            vec!["A", "B", "C"],
            vec!["C", "D", "E"],
            vec!["A", "E", "F"],
            vec!["A", "C", "E"],
        ])
        .unwrap()
    }

    fn sets(h: &Hypergraph, groups: &[&[&str]]) -> Vec<NodeSet> {
        groups
            .iter()
            .map(|g| h.node_set(g.iter().copied()).unwrap())
            .collect()
    }

    #[test]
    fn example_5_1_tree_is_independent_in_the_ring() {
        let h = ring();
        let tree = ConnectingTree::new(sets(&h, &[&["A"], &["E"], &["C"]]), vec![(0, 1), (1, 2)]);
        assert!(tree.verify(&h).is_ok());
        assert!(tree.is_independent(&h));
        let path = tree.extract_independent_path(&h).unwrap();
        assert!(path.is_independent(&h));
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn example_5_1_tree_is_not_independent_in_fig1() {
        // With edge {A, C, E} present, the same tree has three of its node
        // sets inside one hyperedge, so it is not even a connecting tree.
        let h = fig1();
        let tree = ConnectingTree::new(sets(&h, &[&["A"], &["E"], &["C"]]), vec![(0, 1), (1, 2)]);
        assert!(matches!(
            tree.verify(&h),
            Err(ConnectionViolation::TripleInOneEdge(..))
        ));
        assert!(!tree.is_independent(&h));
    }

    #[test]
    fn fig5_style_apparent_paths_are_not_independent() {
        // Fig. 5's point (the exact edge set is not recoverable from the
        // text, so a representative acyclic hypergraph is used): between A
        // and F there *appear* to be two distinct routes because either of
        // the two middle edges can be eliminated, yet no independent path
        // exists — the hypergraph is acyclic and Theorem 6.1 applies.
        let h = Hypergraph::from_edges([
            vec!["A", "B"],
            vec!["B", "C", "F"],
            vec!["B", "D", "F"],
            vec!["B", "C", "D", "F"],
        ])
        .unwrap();
        assert!(h.is_acyclic());
        assert!(find_independent_path(&h).is_none());
        // The apparent route through C is not even a connecting path: the
        // big edge contains three of its node sets.
        let through_c = ConnectingPath::new(sets(&h, &[&["A"], &["B"], &["C"], &["F"]]));
        assert!(matches!(
            through_c.verify(&h),
            Err(ConnectionViolation::TripleInOneEdge(..))
        ));
        // A subset of the canonical connection still connects A and F
        // (the paper's closing footnote): {A,B} and the big edge.
        let cc = canonical_connection(&h, &h.node_set(["A", "F"]).unwrap());
        assert!(h.node_set(["A", "B", "F"]).unwrap().is_subset(&cc.nodes()));
    }

    #[test]
    fn path_verification_catches_structural_errors() {
        let h = ring();
        assert_eq!(
            ConnectingPath::new(sets(&h, &[&["A"]])).verify(&h),
            Err(ConnectionViolation::TooShort)
        );
        let with_empty = ConnectingPath::new(vec![h.node_set(["A"]).unwrap(), NodeSet::new()]);
        assert_eq!(with_empty.verify(&h), Err(ConnectionViolation::EmptySet(1)));
        let uncovered = ConnectingPath::new(sets(&h, &[&["A"], &["D"]]));
        assert_eq!(
            uncovered.verify(&h),
            Err(ConnectionViolation::PairUncovered(0, 1))
        );
        let triple = ConnectingPath::new(sets(&h, &[&["A"], &["B"], &["C"]]));
        assert!(matches!(
            triple.verify(&h),
            Err(ConnectionViolation::TripleInOneEdge(0, 1, 2))
        ));
    }

    #[test]
    fn tree_verification_catches_non_trees() {
        let h = ring();
        let not_a_tree = ConnectingTree::new(sets(&h, &[&["A"], &["E"], &["C"]]), vec![(0, 1)]);
        assert_eq!(not_a_tree.verify(&h), Err(ConnectionViolation::NotATree));
        let self_loop = ConnectingTree::new(sets(&h, &[&["A"], &["E"]]), vec![(0, 0)]);
        assert_eq!(self_loop.verify(&h), Err(ConnectionViolation::NotATree));
    }

    #[test]
    fn cyclic_core_of_the_ring_is_itself() {
        let h = ring();
        let core = find_cyclic_core(&h).unwrap();
        assert!(!core.is_acyclic());
        assert!(core.find_articulation_set().is_none());
        assert!(core.edge_count() >= 2);
        // Fig. 1 is acyclic, so it has no cyclic core.
        assert!(find_cyclic_core(&fig1()).is_none());
    }

    #[test]
    fn independent_path_found_for_cyclic_examples() {
        for h in [
            ring(),
            Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["A", "C"]]).unwrap(),
            Hypergraph::from_edges([
                vec!["A", "B"],
                vec!["B", "C"],
                vec!["C", "D"],
                vec!["D", "A"],
            ])
            .unwrap(),
            Hypergraph::from_edges([
                vec!["A", "B"],
                vec!["A", "C"],
                vec!["B", "C"],
                vec!["A", "D"],
            ])
            .unwrap(),
        ] {
            let path = find_independent_path(&h)
                .unwrap_or_else(|| panic!("no certificate for {}", h.display()));
            assert!(path.is_connecting_path(&h));
            assert!(
                path.is_independent(&h),
                "path {} not independent",
                path.display(&h)
            );
        }
    }

    #[test]
    fn no_independent_path_in_acyclic_examples() {
        for h in [
            fig1(),
            Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap(),
            Hypergraph::from_edges([vec!["A", "B", "C", "D"]]).unwrap(),
        ] {
            assert!(find_independent_path(&h).is_none());
        }
    }

    #[test]
    fn leaves_of_a_path_tree_are_its_endpoints() {
        let h = ring();
        let tree = ConnectingTree::new(sets(&h, &[&["A"], &["E"], &["C"]]), vec![(0, 1), (1, 2)]);
        assert_eq!(tree.leaves(), vec![0, 2]);
    }

    #[test]
    fn display_shows_node_names() {
        let h = ring();
        let path = ConnectingPath::new(sets(&h, &[&["A"], &["E"], &["C"]]));
        assert_eq!(path.display(&h), "{A} - {E} - {C}");
    }
}
