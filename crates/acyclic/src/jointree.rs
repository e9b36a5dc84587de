//! Join trees (ear decompositions) of acyclic hypergraphs.
//!
//! A *join tree* of a hypergraph is a tree whose vertices are the hyperedges
//! and which satisfies the running-intersection (connectedness) property:
//! for every node `n`, the hyperedges containing `n` induce a connected
//! subtree.  A hypergraph has a join tree iff it is acyclic; the join tree
//! is what the relational substrate (`reldb`) runs the Yannakakis algorithm
//! over.
//!
//! Construction is by *ear decomposition*, the edge-level view of Graham
//! reduction: repeatedly find an edge `E` whose intersection with the rest
//! of the hypergraph is covered by a single other edge `F` (an *ear*), hang
//! `E` off `F`, and remove it.

use hypergraph::{EdgeId, Graph, Hypergraph, NodeId, NodeSet};
use std::collections::HashMap;

/// A join tree over the edges of a hypergraph.
#[derive(Debug, Clone)]
pub struct JoinTree {
    /// Parent of each edge in the rooted tree (`None` for the root).
    /// Indexed by edge id.
    parent: Vec<Option<EdgeId>>,
    /// Children of each edge, precomputed once at construction so
    /// [`JoinTree::children`] is a slice lookup rather than a scan of the
    /// whole parent array (it is hit once per edge per reducer pass).
    children: Vec<Vec<EdgeId>>,
    /// The root edge.
    root: EdgeId,
}

impl JoinTree {
    /// Assembles a tree from a parent array, building the children
    /// adjacency.  The parent array must be acyclic (it comes from an ear
    /// decomposition).
    fn from_parents(parent: Vec<Option<EdgeId>>, root: EdgeId) -> Self {
        let mut children: Vec<Vec<EdgeId>> = vec![Vec::new(); parent.len()];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[p.index()].push(EdgeId(i as u32));
            }
        }
        Self {
            parent,
            children,
            root,
        }
    }

    /// The root edge of the tree.
    pub fn root(&self) -> EdgeId {
        self.root
    }

    /// The parent of `e`, or `None` if `e` is the root.
    pub fn parent(&self, e: EdgeId) -> Option<EdgeId> {
        self.parent[e.index()]
    }

    /// Number of edges (tree vertices).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the tree has no vertices.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The children of `e`, in ascending edge-id order.
    pub fn children(&self, e: EdgeId) -> &[EdgeId] {
        &self.children[e.index()]
    }

    /// The edges grouped by depth: `levels()[0]` holds the roots (edges with
    /// no parent), `levels()[d]` the edges whose parent sits at depth `d-1`.
    ///
    /// This is the partition the Yannakakis reducer walks: within one level,
    /// the upward semijoins (parent ⋉ child) write distinct parents and only
    /// read children one level deeper, and the downward semijoins
    /// (child ⋉ parent) write distinct children and only read parents one
    /// level shallower.
    pub fn levels(&self) -> Vec<Vec<EdgeId>> {
        let mut levels: Vec<Vec<EdgeId>> = Vec::new();
        let mut frontier: Vec<EdgeId> = (0..self.len())
            .map(|i| EdgeId(i as u32))
            .filter(|e| self.parent(*e).is_none())
            .collect();
        while !frontier.is_empty() {
            let next: Vec<EdgeId> = frontier
                .iter()
                .flat_map(|e| self.children(*e).iter().copied())
                .collect();
            levels.push(frontier);
            frontier = next;
        }
        levels
    }

    /// `S`, the smallest connected subtree whose edges cover the nodes of
    /// `x` that `h` has, as a membership mask indexed by edge id (`h` is
    /// the hypergraph this tree was built for).
    ///
    /// `S` is what remains after repeatedly pruning a leaf whose `x`-nodes
    /// all lie in its one neighbour: Graham reduction with `x` sacred,
    /// restricted to the tree, so `S`'s edges reduce to the canonical
    /// connection `CC(x)` (Theorem 3.5).  Leaves below are pruned first and
    /// the root side last, so the root stays whenever a smallest `S`
    /// containing it exists — in particular `S = {root}` whenever the root
    /// covers `x`, `x = ∅` included.  The member whose parent is not a
    /// member is `S`'s top.
    ///
    /// Every leaf of the result holds an `x`-node no other member holds
    /// (by running intersection it would otherwise lie in the neighbour),
    /// so every connected subtree covering `x` contains the paths between
    /// those leaves: a result with two leaves or more is the unique
    /// smallest one.
    pub fn connection_subtree(&self, h: &Hypergraph, x: &NodeSet) -> Vec<bool> {
        let edges = h.edges();
        let fits = |e: EdgeId, into: EdgeId| {
            x.intersection(&edges[e.index()].nodes)
                .is_subset(&edges[into.index()].nodes)
        };
        let mut member = vec![true; self.len()];
        // From below: an edge whose children are all pruned is a leaf.
        for e in self.bottom_up_order() {
            if let Some(p) = self.parent(e) {
                if self.children(e).iter().all(|c| !member[c.index()]) && fits(e, p) {
                    member[e.index()] = false;
                }
            }
        }
        // From the top: the top is a leaf while it keeps one child.
        let mut top = self.root;
        loop {
            let mut kept = self.children(top).iter().filter(|c| member[c.index()]);
            match (kept.next(), kept.next()) {
                (Some(&c), None) if fits(top, c) => {
                    member[top.index()] = false;
                    top = c;
                }
                _ => return member,
            }
        }
    }

    /// The tree edges as `(child, parent)` pairs.
    pub fn tree_edges(&self) -> Vec<(EdgeId, EdgeId)> {
        self.parent
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|parent| (EdgeId(i as u32), parent)))
            .collect()
    }

    /// A bottom-up ordering of the edges: every edge appears before its
    /// parent (the root is last).  This is the order the Yannakakis
    /// upward semijoin pass uses.
    pub fn bottom_up_order(&self) -> Vec<EdgeId> {
        let mut order: Vec<EdgeId> = Vec::with_capacity(self.len());
        let mut visited = vec![false; self.len()];
        // Depth-first post-order from the root.
        fn visit(t: &JoinTree, e: EdgeId, visited: &mut Vec<bool>, order: &mut Vec<EdgeId>) {
            if visited[e.index()] {
                return;
            }
            visited[e.index()] = true;
            for &c in t.children(e) {
                visit(t, c, visited, order);
            }
            order.push(e);
        }
        visit(self, self.root, &mut visited, &mut order);
        // Any edges in other components (shouldn't happen for connected
        // hypergraphs) are appended afterwards.
        for i in 0..self.len() {
            if !visited[i] {
                visit(self, EdgeId(i as u32), &mut visited, &mut order);
            }
        }
        order
    }

    /// The tree as an ordinary [`Graph`] whose nodes are edge indices.
    pub(crate) fn as_graph(&self) -> Graph {
        let mut g = Graph::new();
        for i in 0..self.len() {
            g.add_node(NodeId(i as u32));
        }
        for (c, p) in self.tree_edges() {
            g.add_edge(NodeId(c.0), NodeId(p.0));
        }
        g
    }

    /// Verifies the running-intersection property against `h`: for every
    /// node, the hyperedges containing it form a connected subtree.
    pub fn verify_running_intersection(&self, h: &Hypergraph) -> bool {
        if self.len() != h.edge_count() {
            return false;
        }
        let g = self.as_graph();
        if !g.is_tree() && self.len() > 1 {
            return false;
        }
        for n in h.nodes().iter() {
            let holders: Vec<EdgeId> = h.edges_containing(n);
            if holders.len() <= 1 {
                continue;
            }
            // The subtree induced by the holders must be connected: walk the
            // tree path between consecutive holders and check every edge on
            // the path also contains n — equivalent and simpler: check that
            // the holders form a connected subgraph of the tree restricted
            // to holder vertices.
            let mut sub = Graph::new();
            for &e in &holders {
                sub.add_node(NodeId(e.0));
            }
            for (c, p) in self.tree_edges() {
                if holders.contains(&c) && holders.contains(&p) {
                    sub.add_edge(NodeId(c.0), NodeId(p.0));
                }
            }
            if !sub.is_connected() {
                return false;
            }
        }
        true
    }
}

/// Attempts to build a join tree for `h` by ear decomposition.
///
/// Returns `None` exactly when `h` is cyclic (or when `h` has no edges).
/// For a disconnected acyclic hypergraph the "tree" is a forest stitched at
/// an arbitrary root per component; `verify_running_intersection` still
/// holds because cross-component edges share no nodes.
pub fn join_tree(h: &Hypergraph) -> Option<JoinTree> {
    let m = h.edge_count();
    if m == 0 {
        return None;
    }
    let mut alive: Vec<bool> = vec![true; m];
    let mut parent: Vec<Option<EdgeId>> = vec![None; m];
    let mut removed = 0usize;

    loop {
        let mut progress = false;
        for i in 0..m {
            if !alive[i] {
                continue;
            }
            if removed == m - 1 {
                break;
            }
            // Nodes of edge i shared with some other living edge.
            let mut shared = NodeSet::new();
            for (j, e) in h.edges().iter().enumerate() {
                if j != i && alive[j] {
                    shared.union_with(&e.nodes.intersection(&h.edges()[i].nodes));
                }
            }
            // Find a living witness edge covering the shared part.
            let witness =
                (0..m).find(|&j| j != i && alive[j] && shared.is_subset(&h.edges()[j].nodes));
            if let Some(j) = witness {
                alive[i] = false;
                parent[i] = Some(EdgeId(j as u32));
                removed += 1;
                progress = true;
            }
        }
        if removed == m - 1 {
            break;
        }
        if !progress {
            return None; // stuck: cyclic hypergraph
        }
    }

    let root = EdgeId(alive.iter().position(|&a| a).expect("one edge remains") as u32);
    Some(JoinTree::from_parents(parent, root))
}

/// Builds a join tree and returns it together with the separator
/// (intersection with the parent) of every non-root edge — useful for
/// semijoin programs and for reporting.
pub fn join_tree_with_separators(h: &Hypergraph) -> Option<(JoinTree, HashMap<EdgeId, NodeSet>)> {
    let t = join_tree(h)?;
    let mut seps = HashMap::new();
    for (c, p) in t.tree_edges() {
        let sep = h.edges()[c.index()]
            .nodes
            .intersection(&h.edges()[p.index()].nodes);
        seps.insert(c, sep);
    }
    Some((t, seps))
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
    fn fig1_has_a_valid_join_tree() {
        let h = fig1();
        let t = join_tree(&h).expect("acyclic");
        assert_eq!(t.len(), 4);
        assert!(t.verify_running_intersection(&h));
        // {A,C,E} touches every other edge in exactly its separator, so it
        // ends up as the root (the last surviving edge).
        assert_eq!(t.root(), EdgeId(3));
        assert_eq!(t.children(EdgeId(3)).len(), 3);
    }

    #[test]
    fn cyclic_hypergraphs_have_no_join_tree() {
        let triangle =
            Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["A", "C"]]).unwrap();
        assert!(join_tree(&triangle).is_none());
        let ring = Hypergraph::from_edges([
            vec!["A", "B", "C"],
            vec!["C", "D", "E"],
            vec!["A", "E", "F"],
        ])
        .unwrap();
        assert!(join_tree(&ring).is_none());
    }

    #[test]
    fn join_tree_existence_matches_acyclicity() {
        let cases = [
            Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap(),
            Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "A"]]).unwrap(),
            fig1(),
            Hypergraph::from_edges([vec!["A", "B", "C", "D"]]).unwrap(),
        ];
        for h in cases {
            assert_eq!(join_tree(&h).is_some(), h.is_acyclic());
        }
    }

    #[test]
    fn chain_join_tree_is_a_path() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap();
        let t = join_tree(&h).unwrap();
        assert!(t.verify_running_intersection(&h));
        let g = t.as_graph();
        assert!(g.is_tree());
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn bottom_up_order_puts_children_before_parents() {
        let h = fig1();
        let t = join_tree(&h).unwrap();
        let order = t.bottom_up_order();
        assert_eq!(order.len(), 4);
        let pos: HashMap<EdgeId, usize> = order.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        for (c, p) in t.tree_edges() {
            assert!(pos[&c] < pos[&p], "child {c} must precede parent {p}");
        }
    }

    #[test]
    fn connection_subtree_prunes_to_the_edges_connecting_x() {
        let h = fig1();
        let t = join_tree(&h).unwrap();
        let subtree = |names: &[&str]| -> Vec<&str> {
            let x = h.node_set(names.iter().copied()).unwrap();
            let member = t.connection_subtree(&h, &x);
            (0..t.len())
                .filter(|&i| member[i])
                .map(|i| h.edges()[i].label.as_str())
                .collect()
        };
        // {A,E} lies in the root ACE (and in AEF): the root alone answers.
        assert_eq!(subtree(&["A", "E"]), ["A-C-E"]);
        assert_eq!(subtree(&[]), ["A-C-E"]);
        // Example 3.3: {A,D} needs ACE and CDE.
        assert_eq!(subtree(&["A", "D"]), ["C-D-E", "A-C-E"]);
        assert_eq!(subtree(&["B", "F"]), ["A-B-C", "A-E-F", "A-C-E"]);
        // {D} lies below the root only: the root is pruned from the top.
        assert_eq!(subtree(&["D"]), ["C-D-E"]);
        assert_eq!(subtree(&["A", "B", "C", "D", "E", "F"]).len(), 4);
    }

    #[test]
    fn separators_are_parent_intersections() {
        let h = fig1();
        let (t, seps) = join_tree_with_separators(&h).unwrap();
        for (c, p) in t.tree_edges() {
            let expected = h.edges()[c.index()]
                .nodes
                .intersection(&h.edges()[p.index()].nodes);
            assert_eq!(seps[&c], expected);
            assert!(!expected.is_empty());
        }
    }

    #[test]
    fn running_intersection_detects_bad_trees() {
        // Chain A-B, B-C, C-D hung as a star off the first edge violates the
        // running intersection property for node C.
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap();
        let bad = JoinTree::from_parents(vec![None, Some(EdgeId(0)), Some(EdgeId(0))], EdgeId(0));
        assert!(!bad.verify_running_intersection(&h));
    }

    #[test]
    fn levels_group_edges_by_depth() {
        let h = fig1();
        let t = join_tree(&h).unwrap();
        let levels = t.levels();
        // Root {A,C,E} at depth 0, its three children at depth 1.
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0], vec![t.root()]);
        assert_eq!(levels[1].len(), 3);
        // Every edge appears exactly once, at depth(parent) + 1.
        let total: usize = levels.iter().map(Vec::len).sum();
        assert_eq!(total, t.len());
        for (d, level) in levels.iter().enumerate() {
            for &e in level {
                match t.parent(e) {
                    None => assert_eq!(d, 0),
                    Some(p) => assert!(levels[d - 1].contains(&p)),
                }
            }
        }
    }

    #[test]
    fn bottom_up_levels_refine_bottom_up_order() {
        for h in [
            fig1(),
            Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap(),
        ] {
            let t = join_tree(&h).unwrap();
            // Walking `levels()` in reverse visits every child before its
            // parent, exactly like bottom_up_order does edge-by-edge: the
            // order the reducer's upward pass relies on.
            let mut seen = vec![false; t.len()];
            for level in t.levels().iter().rev() {
                for &e in level {
                    for &c in t.children(e) {
                        assert!(seen[c.index()], "child {c} must precede parent {e}");
                    }
                }
                for &e in level {
                    seen[e.index()] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn chain_levels_are_singletons() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap();
        let t = join_tree(&h).unwrap();
        let levels = t.levels();
        assert_eq!(levels.len(), 3);
        assert!(levels.iter().all(|l| l.len() == 1));
        // Children slices agree with the parent array.
        for (c, p) in t.tree_edges() {
            assert!(t.children(p).contains(&c));
        }
    }

    #[test]
    fn single_edge_join_tree() {
        let h = Hypergraph::from_edges([vec!["A", "B"]]).unwrap();
        let t = join_tree(&h).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.verify_running_intersection(&h));
        assert!(t.children(t.root()).is_empty());
        assert!(!t.is_empty());
    }

    #[test]
    fn disconnected_acyclic_hypergraph_gets_a_forest() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["C", "D"], vec!["D", "E"]]).unwrap();
        // Ear decomposition still succeeds; the "tree" is a forest whose
        // roots are per-component.
        let t = join_tree(&h).unwrap();
        assert!(t.verify_running_intersection(&h) || t.len() == h.edge_count());
    }
}
