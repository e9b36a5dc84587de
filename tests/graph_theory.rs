//! The classical graph theorem the paper generalizes, and its relationship
//! to the hypergraph machinery.
//!
//! For ordinary (2-uniform) graphs: a nontrivial connected graph has no
//! articulation point iff it consists of a single biconnected component
//! (equivalently, there are two "independent" ways between every pair of
//! nodes).  These tests exercise the ordinary-graph substrate directly and
//! then check the bridge to hypergraphs: a graph viewed as a hypergraph of
//! binary edges is acyclic iff the graph is a forest of edges glued at
//! articulation points only — i.e. iff it has no graph cycle.

use acyclic_hypergraphs::acyclic::{find_independent_path, AcyclicityExt};
use acyclic_hypergraphs::hypergraph::{Graph, Hypergraph, NodeId};
use acyclic_hypergraphs::workload::{grid, pair_clique, ring};

fn cycle_graph(n: u32) -> Graph {
    let mut g = Graph::new();
    for i in 0..n {
        g.add_edge(NodeId(i), NodeId((i + 1) % n));
    }
    g
}

fn path_graph(n: u32) -> Graph {
    let mut g = Graph::new();
    for i in 0..n.saturating_sub(1) {
        g.add_edge(NodeId(i), NodeId(i + 1));
    }
    g
}

/// The classical equivalence on ordinary graphs: no articulation points
/// ⇔ one biconnected component spanning all nodes (for 2-connected shapes).
#[test]
fn blocks_equal_biconnected_components_on_cycles() {
    for n in [3u32, 5, 8, 13] {
        let g = cycle_graph(n);
        assert!(g.articulation_points().is_empty());
        let comps = g.biconnected_components();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0], g.nodes());
    }
}

#[test]
fn paths_decompose_into_one_block_per_edge() {
    for n in [2u32, 4, 9] {
        let g = path_graph(n);
        assert_eq!(g.biconnected_components().len(), (n - 1) as usize);
        assert_eq!(
            g.articulation_points().len(),
            (n.saturating_sub(2)) as usize
        );
    }
}

/// Two cycles sharing a single vertex: that vertex is the articulation
/// point, and the biconnected components are exactly the two cycles.
#[test]
fn figure_eight_decomposition() {
    let mut g = Graph::new();
    for (a, b) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)] {
        g.add_edge(NodeId(a), NodeId(b));
    }
    let cuts = g.articulation_points();
    assert_eq!(cuts.len(), 1);
    assert!(cuts.contains(NodeId(2)));
    assert_eq!(g.biconnected_components().len(), 2);
}

/// A graph seen as a hypergraph of binary edges is α-acyclic exactly when
/// the graph has no cycle — so ordinary graph cycles are the special case of
/// the paper's hypergraph cycles, and the independent-path certificate
/// exists exactly for cyclic graphs.
#[test]
fn binary_hypergraph_acyclicity_is_graph_forest() {
    // Acyclic cases: paths and stars.
    let path = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap();
    assert!(path.is_acyclic());
    assert!(path.primal_graph().is_forest());
    assert!(find_independent_path(&path).is_none());

    // Cyclic cases: rings, cliques, grids.
    for h in [ring(4), ring(7), pair_clique(4), grid(2, 3)] {
        assert!(!h.is_acyclic());
        assert!(!h.primal_graph().is_forest());
        let path = find_independent_path(&h).expect("cycle certificate");
        assert!(path.is_independent(&h));
    }
}

/// The hypergraph analogue of "two ways between every pair" in a block:
/// inside a hypergraph block without articulation sets that has more than
/// one edge, Theorem 6.1 guarantees an independent path — and splitting at
/// articulation sets reproduces the block decomposition.
#[test]
fn hypergraph_blocks_generalize_graph_blocks() {
    // The 6-ring of binary edges is one block with no articulation set and
    // is cyclic: an independent path exists.
    let h = ring(6);
    assert!(h.find_articulation_set().is_none());
    assert_eq!(h.blocks(), vec![h.nodes()]);
    assert!(find_independent_path(&h).is_some());

    // A chain is all articulation sets: every block is a single edge and no
    // independent path exists.
    let chain = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap();
    assert_eq!(chain.blocks().len(), 3);
    assert!(find_independent_path(&chain).is_none());

    // Fig. 1 is a single block (its articulation sets do not split it into
    // single edges in the graph sense) yet acyclic: the "covering" edge
    // {A,C,E} is what distinguishes hypergraph acyclicity from graph
    // acyclicity.
    let fig1 = Hypergraph::from_edges([
        vec!["A", "B", "C"],
        vec!["C", "D", "E"],
        vec!["A", "E", "F"],
        vec!["A", "C", "E"],
    ])
    .unwrap();
    assert!(fig1.is_acyclic());
    assert!(!fig1.primal_graph().is_forest());
}

/// Articulation sets of the hypergraph project onto articulation points of
/// the primal graph in the binary case.
#[test]
fn articulation_sets_match_articulation_points_for_binary_edges() {
    let h = Hypergraph::from_edges([
        vec!["A", "B"],
        vec!["B", "C"],
        vec!["C", "D"],
        vec!["D", "E"],
    ])
    .unwrap();
    let g = h.primal_graph();
    let points = g.articulation_points();
    for x in h.articulation_sets() {
        assert_eq!(x.len(), 1, "binary edges give singleton articulation sets");
        assert!(x.is_subset(&points));
    }
    assert_eq!(h.articulation_sets().len(), points.len());
}
