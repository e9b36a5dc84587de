//! The [`Hypergraph`] type and its builder.

use crate::edge::{Edge, EdgeId};
use crate::error::{HypergraphError, Result};
use crate::interner::{NodeId, Universe};
use crate::nodeset::NodeSet;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A finite hypergraph `H = (N, E)`: a universe of nodes and a collection of
/// edges, each a subset of the universe.
///
/// Following the paper, hypergraphs are *not* forced to be reduced: derived
/// hypergraphs produced mid-reduction may temporarily contain an edge that is
/// a subset of another.  Use [`Hypergraph::reduce`] / [`Hypergraph::is_reduced`]
/// to normalize and test.
///
/// All hypergraphs derived from a common original share its [`Universe`], so
/// node identities remain comparable across Graham reductions, tableau
/// reductions and node-generated sub-hypergraphs.
#[derive(Clone)]
pub struct Hypergraph {
    universe: Arc<Universe>,
    edges: Vec<Edge>,
}

impl Hypergraph {
    /// Starts building a hypergraph by naming nodes and edges.
    pub fn builder() -> HypergraphBuilder {
        HypergraphBuilder::new()
    }

    /// Builds a hypergraph from edges given as lists of node names.
    ///
    /// Edge labels default to the node names joined with `-` (e.g.
    /// `A-B-C` for the paper's edge `{A, B, C}`).  The separator keeps
    /// distinct edges distinguishable — bare concatenation would label both
    /// `["A", "BC"]` and `["AB", "C"]` as `ABC` — and any label that still
    /// collides (e.g. duplicate edges) is deduplicated with a `#k` suffix.
    ///
    /// ```
    /// use hypergraph::Hypergraph;
    /// let h = Hypergraph::from_edges([
    ///     vec!["A", "B", "C"],
    ///     vec!["C", "D", "E"],
    /// ]).unwrap();
    /// assert_eq!(h.edge_count(), 2);
    /// assert_eq!(h.node_count(), 5);
    /// assert_eq!(h.edges()[0].label, "A-B-C");
    /// ```
    pub fn from_edges<I, E, S>(edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = E>,
        E: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut b = Self::builder();
        let mut used: std::collections::HashSet<String> = std::collections::HashSet::new();
        for edge in edges {
            let names: Vec<String> = edge.into_iter().map(|s| s.as_ref().to_owned()).collect();
            let mut label = names.join("-");
            if !used.insert(label.clone()) {
                let mut k = 2usize;
                label = loop {
                    let candidate = format!("{label}#{k}");
                    if used.insert(candidate.clone()) {
                        break candidate;
                    }
                    k += 1;
                };
            }
            b = b.edge(label, names.iter().map(String::as_str));
        }
        b.build()
    }

    /// Builds a hypergraph over an existing universe from explicit edges.
    ///
    /// Returns an error if any edge is empty or mentions a node outside the
    /// universe.
    pub fn with_universe(universe: Arc<Universe>, edges: Vec<Edge>) -> Result<Self> {
        for e in &edges {
            if e.nodes.is_empty() {
                return Err(HypergraphError::EmptyEdge(e.label.clone()));
            }
            if let Some(bad) = e.nodes.iter().find(|id| !universe.contains_id(*id)) {
                return Err(HypergraphError::UnknownNodeId(bad.0));
            }
        }
        Ok(Self { universe, edges })
    }

    /// The shared universe of node names.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.universe
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterates over `(EdgeId, &Edge)` pairs.
    pub fn edge_entries(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// All edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The set of nodes that appear in at least one edge.
    ///
    /// This may be smaller than the universe (e.g. after node-removal steps).
    pub fn nodes(&self) -> NodeSet {
        let mut s = NodeSet::with_capacity(self.universe.len());
        for e in &self.edges {
            s.union_with(&e.nodes);
        }
        s
    }

    /// Number of nodes appearing in at least one edge.
    pub fn node_count(&self) -> usize {
        self.nodes().len()
    }

    /// True if the hypergraph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Looks a node up by name.
    pub fn node(&self, name: &str) -> Result<NodeId> {
        self.universe
            .get(name)
            .ok_or_else(|| HypergraphError::UnknownNode(name.to_owned()))
    }

    /// Builds a node set from names, failing on unknown names.
    pub fn node_set<'a, I>(&self, names: I) -> Result<NodeSet>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut s = NodeSet::with_capacity(self.universe.len());
        for name in names {
            s.insert(self.node(name)?);
        }
        Ok(s)
    }

    /// The ids of edges containing node `n`.
    pub fn edges_containing(&self, n: NodeId) -> Vec<EdgeId> {
        self.edge_entries()
            .filter(|(_, e)| e.nodes.contains(n))
            .map(|(id, _)| id)
            .collect()
    }

    /// The number of edges containing node `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.edges.iter().filter(|e| e.nodes.contains(n)).count()
    }

    /// True if no edge's node set is a subset of another edge's node set.
    ///
    /// This is the paper's default assumption of a *reduced* hypergraph.
    /// Duplicate edges also make a hypergraph non-reduced.
    pub fn is_reduced(&self) -> bool {
        for (i, a) in self.edges.iter().enumerate() {
            for (j, b) in self.edges.iter().enumerate() {
                if i != j && a.nodes.is_subset(&b.nodes) && (a.nodes != b.nodes || i > j) {
                    return false;
                }
            }
        }
        true
    }

    /// Returns the *reduction* of the hypergraph: edges whose node set is a
    /// (proper or improper) subset of another edge's node set are removed,
    /// keeping one representative of every maximal node set.
    ///
    /// The earliest edge with a given maximal node set is the representative,
    /// so labels of surviving edges are deterministic.
    pub fn reduce(&self) -> Hypergraph {
        let mut keep: Vec<bool> = vec![true; self.edges.len()];
        for i in 0..self.edges.len() {
            if !keep[i] {
                continue;
            }
            for (j, keep_j) in keep.iter_mut().enumerate() {
                if i == j || !*keep_j {
                    continue;
                }
                let (a, b) = (&self.edges[i].nodes, &self.edges[j].nodes);
                if b.is_proper_subset(a) || (a == b && j > i) {
                    *keep_j = false;
                }
            }
        }
        let edges = self
            .edges
            .iter()
            .zip(keep)
            .filter(|(_, k)| *k)
            .map(|(e, _)| e.clone())
            .collect();
        Hypergraph {
            universe: Arc::clone(&self.universe),
            edges,
        }
    }

    /// Returns a hypergraph with the same universe but a different edge list.
    ///
    /// This is the primitive used by reductions; empty edges are dropped.
    pub fn with_edges(&self, edges: Vec<Edge>) -> Hypergraph {
        Hypergraph {
            universe: Arc::clone(&self.universe),
            edges: edges.into_iter().filter(|e| !e.nodes.is_empty()).collect(),
        }
    }

    /// Removes the nodes in `x` from every edge, dropping edges that become
    /// empty.  The result is *not* reduced automatically.
    pub(crate) fn remove_nodes(&self, x: &NodeSet) -> Hypergraph {
        let edges = self
            .edges
            .iter()
            .map(|e| Edge::new(e.label.clone(), e.nodes.difference(x)))
            .filter(|e| !e.nodes.is_empty())
            .collect();
        self.with_edges(edges)
    }

    /// The canonical form of the hypergraph: the sorted set of its edges'
    /// node sets.  Two hypergraphs over the same universe are *equal as
    /// hypergraphs* iff their canonical forms agree (labels and edge order
    /// are ignored).
    pub(crate) fn canonical_edge_sets(&self) -> BTreeSet<NodeSet> {
        self.edges.iter().map(|e| e.nodes.clone()).collect()
    }

    /// Structural equality on node sets, ignoring labels, order and
    /// duplicate edges.
    pub fn same_edge_sets(&self, other: &Hypergraph) -> bool {
        self.canonical_edge_sets() == other.canonical_edge_sets()
    }

    /// True if some edge has exactly the node set `nodes`.
    pub fn contains_edge_set(&self, nodes: &NodeSet) -> bool {
        self.edges.iter().any(|e| &e.nodes == nodes)
    }

    /// True if `nodes` is a subset of at least one edge.
    ///
    /// In the paper's terminology, such a set is a *partial edge*.
    pub fn covers(&self, nodes: &NodeSet) -> bool {
        self.edges.iter().any(|e| nodes.is_subset(&e.nodes))
    }

    /// Renders the hypergraph as `{label{A,B}, label{B,C}}` with node names.
    pub fn display(&self) -> HypergraphDisplay<'_> {
        HypergraphDisplay { h: self }
    }
}

impl fmt::Debug for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hypergraph{}", self.display())
    }
}

impl PartialEq for Hypergraph {
    /// Hypergraphs compare by their canonical edge sets (labels and edge
    /// order are irrelevant), provided they share a universe of the same
    /// names.
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.universe, &other.universe) || self.universe == other.universe)
            && self.same_edge_sets(other)
    }
}

impl Eq for Hypergraph {}

/// Helper returned by [`Hypergraph::display`].
pub struct HypergraphDisplay<'a> {
    h: &'a Hypergraph,
}

impl fmt::Display for HypergraphDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.h.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", e.nodes.display(self.h.universe()))?;
        }
        write!(f, "}}")
    }
}

/// Incremental builder for [`Hypergraph`].
#[derive(Default)]
pub struct HypergraphBuilder {
    universe: Universe,
    edges: Vec<(String, Vec<NodeId>)>,
}

impl HypergraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a node without attaching it to an edge yet.  Useful to fix
    /// node numbering for deterministic output.
    pub fn node(mut self, name: &str) -> Self {
        self.universe.intern(name);
        self
    }

    /// Adds an edge with an explicit label.
    pub fn edge<'a, I>(mut self, label: impl Into<String>, nodes: I) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        let ids = nodes.into_iter().map(|n| self.universe.intern(n)).collect();
        self.edges.push((label.into(), ids));
        self
    }

    /// Finalizes the hypergraph.
    ///
    /// Returns an error if any edge is empty.  An edgeless hypergraph is
    /// permitted (it is the fixed point of a complete Graham reduction).
    pub fn build(self) -> Result<Hypergraph> {
        let universe = Arc::new(self.universe);
        let mut edges = Vec::with_capacity(self.edges.len());
        for (label, ids) in self.edges {
            if ids.is_empty() {
                return Err(HypergraphError::EmptyEdge(label));
            }
            let mut nodes = NodeSet::with_capacity(universe.len());
            for id in ids {
                nodes.insert(id);
            }
            edges.push(Edge::new(label, nodes));
        }
        Ok(Hypergraph { universe, edges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acyclic hypergraph of the paper's Fig. 1.
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
    fn builder_and_from_edges_agree() {
        let b = Hypergraph::builder()
            .edge("ABC", ["A", "B", "C"])
            .edge("CDE", ["C", "D", "E"])
            .edge("AEF", ["A", "E", "F"])
            .edge("ACE", ["A", "C", "E"])
            .build()
            .unwrap();
        assert!(b.same_edge_sets(&fig1()));
        assert_eq!(b.edge_count(), 4);
        assert_eq!(b.node_count(), 6);
    }

    #[test]
    fn empty_edge_is_rejected() {
        let err = Hypergraph::builder().edge("bad", []).build().unwrap_err();
        assert_eq!(err, HypergraphError::EmptyEdge("bad".into()));
    }

    #[test]
    fn unknown_node_lookup_fails() {
        let h = fig1();
        assert!(h.node("A").is_ok());
        assert_eq!(
            h.node("Z").unwrap_err(),
            HypergraphError::UnknownNode("Z".into())
        );
        assert!(h.node_set(["A", "Z"]).is_err());
    }

    #[test]
    fn degree_and_edges_containing() {
        let h = fig1();
        let a = h.node("A").unwrap();
        let d = h.node("D").unwrap();
        assert_eq!(h.degree(a), 3);
        assert_eq!(h.degree(d), 1);
        assert_eq!(h.edges_containing(d), vec![EdgeId(1)]);
    }

    #[test]
    fn reduction_removes_subsumed_and_duplicate_edges() {
        let h = Hypergraph::from_edges([
            vec!["A", "B", "C"],
            vec!["A", "B"],
            vec!["A", "B", "C"],
            vec!["D"],
        ])
        .unwrap();
        assert!(!h.is_reduced());
        let r = h.reduce();
        assert!(r.is_reduced());
        assert_eq!(r.edge_count(), 2);
        assert!(r.contains_edge_set(&h.node_set(["A", "B", "C"]).unwrap()));
        assert!(r.contains_edge_set(&h.node_set(["D"]).unwrap()));
        // Representative keeps the earliest label.
        assert_eq!(r.edges()[0].label, "A-B-C");
    }

    #[test]
    fn default_labels_do_not_collide() {
        // Bare concatenation would label both edges "ABC".
        let h = Hypergraph::from_edges([vec!["A", "BC"], vec!["AB", "C"]]).unwrap();
        assert_eq!(h.edges()[0].label, "A-BC");
        assert_eq!(h.edges()[1].label, "AB-C");
        // Identical node lists still get distinct labels.
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["A", "B"], vec!["A", "B"]]).unwrap();
        assert_eq!(h.edges()[0].label, "A-B");
        assert_eq!(h.edges()[1].label, "A-B#2");
        assert_eq!(h.edges()[2].label, "A-B#3");
    }

    #[test]
    fn fig1_is_already_reduced() {
        assert!(fig1().is_reduced());
        assert_eq!(fig1().reduce().edge_count(), 4);
    }

    #[test]
    fn remove_nodes_drops_empty_edges() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B"]]).unwrap();
        let x = h.node_set(["B"]).unwrap();
        let r = h.remove_nodes(&x);
        assert_eq!(r.edge_count(), 1);
        assert_eq!(r.edges()[0].nodes, h.node_set(["A"]).unwrap());
    }

    #[test]
    fn covers_detects_partial_edges() {
        let h = fig1();
        assert!(h.covers(&h.node_set(["A", "E"]).unwrap()));
        assert!(h.covers(&h.node_set(["A", "C", "E"]).unwrap()));
        assert!(!h.covers(&h.node_set(["B", "D"]).unwrap()));
        assert!(h.covers(&NodeSet::new()));
    }

    #[test]
    fn structural_equality_ignores_labels_and_order() {
        let h1 = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap();
        let h2 = Hypergraph::builder()
            .node("A")
            .node("B")
            .node("C")
            .edge("second", ["B", "C"])
            .edge("first", ["B", "A"])
            .build()
            .unwrap();
        assert!(h1.same_edge_sets(&h2));
        assert_eq!(h1, h2);
    }

    #[test]
    fn display_lists_edges() {
        let h = Hypergraph::from_edges([vec!["A", "B"]]).unwrap();
        assert_eq!(format!("{}", h.display()), "{{A, B}}");
    }

    #[test]
    fn with_universe_validates_ids() {
        let mut u = Universe::default();
        u.intern("A");
        u.intern("B");
        let u = Arc::new(u);
        let bad = Edge::new("x", NodeSet::from_ids([NodeId(5)]));
        assert_eq!(
            Hypergraph::with_universe(Arc::clone(&u), vec![bad]).unwrap_err(),
            HypergraphError::UnknownNodeId(5)
        );
        let ok = Edge::new("x", NodeSet::from_ids([NodeId(0), NodeId(1)]));
        assert!(Hypergraph::with_universe(u, vec![ok]).is_ok());
    }
}
