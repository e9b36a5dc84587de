//! Integration tests about the *process* of Graham reduction — the trace
//! structure Lemma 2.1 and Lemma 3.4 talk about — and about the interplay
//! between reductions and the derived structures (join trees, blocks,
//! hierarchy) across crates.

use acyclic_hypergraphs::acyclic::{
    degree, graham_reduce, graham_reduction, graham_reduction_fast, gyo_reduction, is_confluent,
    join_tree, AcyclicityExt, Degree, GrahamStep, Strategy,
};
use acyclic_hypergraphs::hypergraph::NodeSet;
use acyclic_hypergraphs::tableau::{find_mapping_onto, minimize, Tableau};
use acyclic_hypergraphs::workload::{
    chain, paper, random_acyclic, ring, snowflake, star, tpc_like, AcyclicParams,
};
use std::collections::BTreeSet;

/// Every reduction order applies the same number of steps on acyclic
/// hypergraphs: each removes every node once and every edge once.
#[test]
fn trace_lengths_are_order_independent() {
    for h in [
        paper::fig1(),
        chain(6, 3, 1),
        star(5, 3),
        random_acyclic(AcyclicParams::with_edges(12), 3),
    ] {
        let x = NodeSet::new();
        let a = graham_reduce(&h, &x, Strategy::NodesFirst);
        let b = graham_reduce(&h, &x, Strategy::EdgesFirst);
        let c = graham_reduce(&h, &x, Strategy::Seeded(99));
        assert!(a.result.is_empty() && b.result.is_empty() && c.result.is_empty());
        assert_eq!(a.steps.len(), b.steps.len());
        assert_eq!(a.steps.len(), c.steps.len());
        // A full GYO reduction of a connected acyclic hypergraph removes
        // every node by a node-removal step and every edge but the last by
        // an edge-removal step (the final edge is dropped when its last node
        // goes).
        assert_eq!(a.node_removals(), h.node_count());
        assert_eq!(a.edge_removals(), h.edge_count() - 1);
    }
}

/// On cyclic hypergraphs the reduction gets stuck, and the stuck part is the
/// same under every order; the removed prefix differs only in order.
#[test]
fn stuck_remainder_is_order_independent() {
    for h in [ring(5), paper::fig1_ring(), ring(9)] {
        let x = NodeSet::new();
        let nodes_first = graham_reduce(&h, &x, Strategy::NodesFirst).result;
        let edges_first = graham_reduce(&h, &x, Strategy::EdgesFirst).result;
        let seeded = graham_reduce(&h, &x, Strategy::Seeded(5)).result;
        assert!(!nodes_first.is_empty());
        assert!(nodes_first.same_edge_sets(&edges_first));
        assert!(nodes_first.same_edge_sets(&seeded));
        assert!(is_confluent(&h, &x, 12));
    }
}

/// Lemma 3.4's direction in executable form: every Graham-reduction step
/// sequence is matched by a row mapping — so the rows surviving in
/// `GR(H, X)` always admit a retraction from the full tableau.
#[test]
fn graham_survivors_admit_a_row_mapping() {
    for (h, sacred_names) in [
        (paper::fig1(), vec!["A", "D"]),
        (paper::fig1(), vec!["B", "F"]),
        (chain(5, 3, 1), vec!["N00000"]),
        (star(4, 3), vec!["K000", "K002"]),
    ] {
        let x = h.node_set(sacred_names.iter().copied()).unwrap();
        let gr = graham_reduction(&h, &x);
        // Identify the original edges whose (partial) versions survive.
        let survivors: BTreeSet<tableau::RowId> = gr
            .edges()
            .iter()
            .map(|pe| {
                let idx = h
                    .edges()
                    .iter()
                    .position(|e| e.label == pe.label)
                    .expect("labels are preserved by reduction");
                tableau::RowId(idx as u32)
            })
            .collect();
        let t = Tableau::new(&h, &x);
        assert!(
            find_mapping_onto(&t, &survivors).is_some(),
            "no row mapping onto the Graham survivors {survivors:?} for X = {sacred_names:?}"
        );
        // And the tableau minimization target is exactly the survivor set on
        // these acyclic inputs (Theorem 3.5 at the row level).
        assert_eq!(minimize(&t).target, survivors);
    }
}

/// The fast pass-based reducer and the traced reducer agree on larger
/// generated workloads, not just the unit-test fixtures.
#[test]
fn fast_and_traced_reducers_agree_on_workloads() {
    for (i, h) in [
        random_acyclic(AcyclicParams::with_edges(40), 17),
        snowflake(4, 3, 3),
        tpc_like(),
        ring(12),
    ]
    .into_iter()
    .enumerate()
    {
        for selector in [0u64, 0b1011, u64::MAX] {
            let x: NodeSet = h
                .nodes()
                .iter()
                .enumerate()
                .filter(|(k, _)| selector & (1 << (k % 60)) != 0)
                .map(|(_, n)| n)
                .collect();
            let fast = graham_reduction_fast(&h, &x);
            let traced = graham_reduction(&h, &x);
            assert!(
                fast.same_edge_sets(&traced),
                "workload #{i}: fast and traced reducers disagree"
            );
        }
    }
}

/// Removing the root edge of a join tree from an acyclic hypergraph can make
/// it cyclic (Fig. 1!), while removing a leaf edge never can.
#[test]
fn leaf_removal_preserves_acyclicity() {
    for h in [
        paper::fig1(),
        chain(7, 3, 1),
        star(6, 3),
        snowflake(3, 2, 3),
        random_acyclic(AcyclicParams::with_edges(20), 23),
    ] {
        let tree = join_tree(&h).expect("acyclic workload");
        // A leaf of the join tree is an edge with no children.
        let leaf = h
            .edge_ids()
            .find(|e| tree.children(*e).is_empty())
            .expect("every tree has a leaf");
        let remaining: Vec<_> = h
            .edges()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != leaf.index())
            .map(|(_, e)| e.clone())
            .collect();
        let smaller = h.with_edges(remaining);
        assert!(
            smaller.is_acyclic(),
            "removing leaf {leaf} broke acyclicity of {}",
            h.display()
        );
    }
    // The contrast: removing the covering edge {A,C,E} from Fig. 1 (the root
    // of its join tree) leaves the cyclic ring of Example 5.1.
    let fig1 = paper::fig1();
    let without_root: Vec<_> = fig1.edges().iter().take(3).cloned().collect();
    assert!(!fig1.with_edges(without_root).is_acyclic());
}

/// The Berge ⊂ β ⊂ α hierarchy is populated by the workload generators:
/// chains are Berge-acyclic, "wide" overlaps give β-but-not-Berge, Fig. 1 is
/// α-but-not-β, and rings are cyclic.
#[test]
fn hierarchy_degrees_across_workloads() {
    assert_eq!(degree(&chain(5, 2, 1)), Degree::Berge);
    let wide_overlap = acyclic_hypergraphs::hypergraph::Hypergraph::from_edges([
        vec!["A", "B", "C"],
        vec!["A", "B", "D"],
    ])
    .unwrap();
    assert_eq!(degree(&wide_overlap), Degree::Beta);
    assert_eq!(degree(&paper::fig1()), Degree::Alpha);
    assert_eq!(degree(&ring(5)), Degree::Cyclic);
    // GYO agrees with every level above cyclic.
    for h in [chain(5, 2, 1), wide_overlap, paper::fig1()] {
        assert!(h.is_acyclic());
        assert!(gyo_reduction(&h).is_empty());
    }
}

/// Traces only ever mention real nodes and edges of the input, and node
/// removals never touch sacred nodes — a structural audit of the trace API.
#[test]
fn traces_are_well_formed() {
    let h = tpc_like();
    let x = h.node_set(["custkey", "orderkey"]).unwrap();
    let red = graham_reduce(&h, &x, Strategy::Seeded(1234));
    let labels: BTreeSet<&str> = h.edges().iter().map(|e| e.label.as_str()).collect();
    for step in &red.steps {
        match step {
            GrahamStep::RemoveNode { node, from_edge } => {
                assert!(h.nodes().contains(*node));
                assert!(!x.contains(*node), "sacred node removed");
                assert!(labels.contains(from_edge.as_str()));
            }
            GrahamStep::RemoveEdge { edge, subsumed_by } => {
                assert!(labels.contains(edge.as_str()));
                assert!(labels.contains(subsumed_by.as_str()));
                assert_ne!(edge, subsumed_by);
            }
        }
    }
    assert!(x.is_subset(&red.result.nodes()));
}
