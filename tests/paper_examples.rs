//! Integration tests reproducing every worked example of the paper exactly
//! (experiment ids E1–E7 in DESIGN.md), spanning the hypergraph, tableau,
//! acyclic and workload crates.

use acyclic_hypergraphs::acyclic::{
    canonical_connection, check_theorem_6_1, classify, find_independent_path, graham_reduce,
    graham_reduction, AcyclicityExt, Classification, ConnectingTree, GrahamStep, Strategy,
};
use acyclic_hypergraphs::hypergraph::Hypergraph;
use acyclic_hypergraphs::tableau::{minimize, tableau_reduction, RowId, Tableau};
use acyclic_hypergraphs::workload::paper;
use std::collections::BTreeSet;

/// All named paper fixtures, for the sweeps below.
fn all_fixtures() -> Vec<(&'static str, Hypergraph)> {
    let (counterexample, _) = paper::counterexample_after_theorem_3_5();
    vec![
        ("fig1", paper::fig1()),
        ("fig1_ring", paper::fig1_ring()),
        ("counterexample_3_5", counterexample),
        ("fig5_like", paper::fig5_like()),
    ]
}

/// E1 — Example 2.2: `GR(H, {A, D})` removes F and B, then the edges
/// {A,E} and {A,C}, leaving {A,C,E} and {C,D,E}.
#[test]
fn example_2_2_graham_reduction() {
    let h = paper::fig1();
    let x = paper::fig1_sacred_ad(&h);
    let red = graham_reduce(&h, &x, Strategy::NodesFirst);

    assert_eq!(red.result.edge_count(), 2);
    for expected in paper::fig1_expected_reduction(&h) {
        assert!(red.result.contains_edge_set(&expected));
    }

    // The trace removes exactly the non-sacred degree-one nodes F and B and
    // exactly two edges; the sacred D survives although its degree is one.
    let removed: BTreeSet<&str> = red
        .steps
        .iter()
        .filter_map(|s| match s {
            GrahamStep::RemoveNode { node, .. } => Some(h.universe().name(*node)),
            _ => None,
        })
        .collect();
    assert_eq!(removed, BTreeSet::from(["B", "F"]));
    assert_eq!(red.edge_removals(), 2);
    assert!(red.result.nodes().contains(h.node("D").unwrap()));
}

/// E2 — Example 3.1 / Fig. 2: the tableau has one row per edge, special
/// symbols exactly where edges contain the column's node, and distinguished
/// symbols for the sacred nodes A and D.
#[test]
fn example_3_1_tableau_shape() {
    let h = paper::fig1();
    let x = paper::fig1_sacred_ad(&h);
    let t = Tableau::new(&h, &x);

    assert_eq!(t.row_count(), 4);
    assert_eq!(t.columns().len(), 6);

    let a = h.node("A").unwrap();
    let d = h.node("D").unwrap();
    // a is special in rows 1, 3, 4 (paper's numbering) = 0, 2, 3 here.
    assert_eq!(t.rows_with_special(a), vec![RowId(0), RowId(2), RowId(3)]);
    // d is special (and distinguished) only in row 2 (paper) = 1 here.
    assert_eq!(t.rows_with_special(d), vec![RowId(1)]);
    assert!(t.is_distinguished(RowId(1), d));
    assert!(t.is_distinguished(RowId(0), a));
    // Non-sacred special symbols are not distinguished.
    let c = h.node("C").unwrap();
    assert!(!t.is_distinguished(RowId(0), c));
    // The summary carries distinguished symbols only for A and D.
    let distinguished: usize = t.summary().iter().filter(|(_, s)| s.is_some()).count();
    assert_eq!(distinguished, 2);
}

/// E3 — Example 3.3 / Fig. 3: the minimal rows are the second and fourth;
/// the resulting partial edges are {C,D,E} and {A,C,E}.
#[test]
fn example_3_3_tableau_reduction() {
    let h = paper::fig1();
    let x = paper::fig1_sacred_ad(&h);

    let t = Tableau::new(&h, &x);
    let min = minimize(&t);
    assert_eq!(
        min.target,
        BTreeSet::from([RowId(1), RowId(3)]),
        "the minimal rows are the paper's second and fourth"
    );
    // The mapping sends rows 1, 3, 4 (paper) to 4 and fixes row 2.
    assert_eq!(min.mapping.image(RowId(0)), RowId(3));
    assert_eq!(min.mapping.image(RowId(2)), RowId(3));
    assert_eq!(min.mapping.image(RowId(1)), RowId(1));

    let tr = tableau_reduction(&h, &x);
    assert_eq!(tr.edge_count(), 2);
    for expected in paper::fig1_expected_reduction(&h) {
        assert!(tr.contains_edge_set(&expected));
    }
}

/// E4 — Theorem 3.5 on the paper's inputs: `GR = TR` on the acyclic Fig. 1
/// for a spread of sacred sets, and the explicit cyclic counterexample where
/// they differ.
#[test]
fn theorem_3_5_and_its_counterexample() {
    let h = paper::fig1();
    for names in [
        vec![],
        vec!["A"],
        vec!["A", "D"],
        vec!["B", "F"],
        vec!["A", "C"],
        vec!["C", "D", "E"],
        vec!["A", "B", "C", "D", "E", "F"],
    ] {
        let x = h.node_set(names.iter().copied()).unwrap();
        let gr = graham_reduction(&h, &x);
        let tr = tableau_reduction(&h, &x);
        assert!(
            gr.same_edge_sets(&tr),
            "GR != TR on acyclic Fig. 1 for X = {names:?}: {} vs {}",
            gr.display(),
            tr.display()
        );
    }

    let (cyc, d) = paper::counterexample_after_theorem_3_5();
    let gr = graham_reduction(&cyc, &d);
    let tr = tableau_reduction(&cyc, &d);
    assert_eq!(gr.edge_count(), 4, "Graham reduction keeps all four edges");
    assert_eq!(tr.nodes(), d, "tableau reduction keeps only node D");
    assert!(!gr.same_edge_sets(&tr));
}

/// E5 — Lemma 3.6 (TR is node-generated) and Corollary 3.7 (acyclicity is
/// preserved) on every paper fixture.
#[test]
fn lemma_3_6_and_corollary_3_7() {
    for (name, h) in all_fixtures() {
        let node_ids: Vec<_> = h.nodes().iter().collect();
        // Try every singleton and every adjacent pair as the sacred set.
        let mut sacred_sets = vec![];
        for &n in &node_ids {
            sacred_sets.push(hypergraph::NodeSet::from_ids([n]));
        }
        for e in h.edges() {
            sacred_sets.push(e.nodes.clone());
        }
        for x in sacred_sets {
            let tr = tableau_reduction(&h, &x);
            assert!(
                h.is_node_generated_subhypergraph(&tr),
                "TR not node-generated for {name} with X = {}",
                x.display(h.universe())
            );
            if h.is_acyclic() {
                assert!(
                    tr.is_acyclic(),
                    "Corollary 3.7 violated for {name} with X = {}",
                    x.display(h.universe())
                );
            }
        }
    }
}

/// E6 — Example 5.1 / Fig. 6: in the ring (Fig. 1 without {A,C,E}) the
/// canonical connection of {A, C} is the single partial edge {A, C}, and the
/// tree {A} - {E} - {C} is independent; in Fig. 1 itself it is not.
#[test]
fn example_5_1_independent_tree() {
    let ring = paper::fig1_ring();
    let x = ring.node_set(["A", "C"]).unwrap();
    let cc = canonical_connection(&ring, &x);
    assert_eq!(cc.edge_count(), 1);
    assert_eq!(cc.nodes(), x);

    let tree = ConnectingTree::new(paper::fig6_tree_sets(&ring), vec![(0, 1), (1, 2)]);
    assert!(tree.verify(&ring).is_ok());
    assert!(tree.is_independent(&ring));
    let path = tree.extract_independent_path(&ring).expect("Lemma 5.2");
    assert!(path.is_independent(&ring));

    // In Fig. 1 the edge {A, C, E} contains three of the tree's node sets,
    // so the same tree is not even a connecting tree.
    let fig1 = paper::fig1();
    let tree_in_fig1 = ConnectingTree::new(paper::fig6_tree_sets(&fig1), vec![(0, 1), (1, 2)]);
    assert!(tree_in_fig1.verify(&fig1).is_err());
}

/// E7 — Theorem 6.1 / Corollary 6.2 on all fixtures: acyclic fixtures have
/// join trees and no independent paths; cyclic fixtures have verified
/// independent-path certificates.
#[test]
fn theorem_6_1_on_all_fixtures() {
    for (name, h) in all_fixtures() {
        let report = check_theorem_6_1(&h);
        assert!(
            report.consistent(),
            "inconsistent report for {name}: {report:?}"
        );
        match classify(&h) {
            Classification::Acyclic { join_tree } => {
                assert!(h.is_acyclic(), "{name} misclassified");
                assert!(join_tree.unwrap().verify_running_intersection(&h));
                assert!(find_independent_path(&h).is_none());
            }
            Classification::Cyclic { independent_path } => {
                assert!(!h.is_acyclic(), "{name} misclassified");
                assert!(independent_path.is_connecting_path(&h));
                assert!(independent_path.is_independent(&h));
            }
        }
    }
}

/// The paper's definition of acyclicity (every node-generated set of edges
/// is a single edge or has an articulation set) agrees with the GYO test on
/// every fixture — the ground-truth cross-check.
#[test]
fn definition_matches_gyo_on_fixtures() {
    for (name, h) in all_fixtures() {
        assert_eq!(
            h.is_acyclic(),
            h.is_acyclic_by_definition(),
            "definition disagrees with GYO on {name}"
        );
    }
}
