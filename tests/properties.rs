//! Property-based tests over randomly generated hypergraphs and databases.
//!
//! These are the workspace-level invariants that tie the crates together:
//! the paper's theorems must hold on *every* generated instance, not just
//! the worked examples.

use acyclic_hypergraphs::acyclic::{
    canonical_connection, check_theorem_6_1, find_independent_path, graham_reduction,
    gyo_reduction, is_acyclic_mcs, is_berge_acyclic, is_beta_acyclic, is_confluent, join_tree,
    AcyclicityExt,
};
use acyclic_hypergraphs::hypergraph::{Hypergraph, NodeSet};
use acyclic_hypergraphs::reldb::{
    is_globally_consistent, is_pairwise_consistent, make_globally_consistent, query_via_connection,
    query_via_full_join, query_yannakakis, yannakakis_join,
};
use acyclic_hypergraphs::tableau::tableau_reduction;
use acyclic_hypergraphs::workload::{
    chain, consistent_database, random_acyclic, random_database, random_hypergraph, star,
    AcyclicParams, DataParams, RandomParams,
};
use proptest::prelude::*;

/// Strategy: a random acyclic hypergraph (by construction).
fn acyclic_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (2usize..14, any::<u64>()).prop_map(|(edges, seed)| {
        random_acyclic(
            AcyclicParams {
                edges,
                min_edge_size: 2,
                max_edge_size: 4,
                max_overlap: 2,
            },
            seed,
        )
    })
}

/// Strategy: a uniformly random hypergraph (acyclic or cyclic).
fn any_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (2usize..10, 4usize..10, any::<u64>()).prop_map(|(edges, nodes, seed)| {
        random_hypergraph(
            RandomParams {
                edges,
                nodes,
                min_edge_size: 2,
                max_edge_size: 3,
            },
            seed,
        )
    })
}

/// Strategy: a random subset of a hypergraph's nodes to use as a sacred set.
fn sacred_subset(h: &Hypergraph, selector: u64) -> NodeSet {
    let nodes: Vec<_> = h.nodes().iter().collect();
    nodes
        .iter()
        .enumerate()
        .filter(|(i, _)| selector & (1 << (i % 63)) != 0)
        .map(|(_, &n)| n)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 3.5: GR(H, X) = TR(H, X) on acyclic hypergraphs, for any X.
    #[test]
    fn gr_equals_tr_on_acyclic(h in acyclic_hypergraph(), selector in any::<u64>()) {
        let x = sacred_subset(&h, selector);
        let gr = graham_reduction(&h, &x);
        let tr = tableau_reduction(&h, &x);
        prop_assert!(gr.same_edge_sets(&tr),
            "GR = {} but TR = {}", gr.display(), tr.display());
    }

    /// Lemma 3.6: TR(H, X) is node-generated, acyclic or not.
    #[test]
    fn tr_is_node_generated(h in any_hypergraph(), selector in any::<u64>()) {
        let x = sacred_subset(&h, selector);
        let tr = tableau_reduction(&h, &x);
        prop_assert!(h.is_node_generated_subhypergraph(&tr));
    }

    /// Corollary 3.7 + Lemma 3.8: acyclicity is preserved by TR and TR is
    /// monotone (on nodes) in the sacred set.
    #[test]
    fn tr_preserves_acyclicity_and_is_monotone(h in acyclic_hypergraph(), selector in any::<u64>()) {
        let x = sacred_subset(&h, selector);
        let tr = tableau_reduction(&h, &x);
        prop_assert!(tr.is_acyclic());
        // Shrinking the sacred set can only shrink the connection's nodes.
        if let Some(first) = x.first() {
            let mut smaller = x.clone();
            smaller.remove(first);
            let tr_small = tableau_reduction(&h, &smaller);
            prop_assert!(tr_small.nodes().is_subset(&tr.nodes()));
        }
    }

    /// Lemma 2.1: Graham reduction is confluent (same fixed point under
    /// nodes-first, edges-first and random orders).
    #[test]
    fn graham_confluent(h in any_hypergraph(), selector in any::<u64>()) {
        let x = sacred_subset(&h, selector);
        prop_assert!(is_confluent(&h, &x, 6));
    }

    /// Theorem 6.1 + Corollary 6.2 + the join-tree characterization: the
    /// GYO test, the MCS test, join-tree existence and independent-path
    /// non-existence all agree.
    #[test]
    fn theorem_6_1_equivalence(h in any_hypergraph()) {
        let report = check_theorem_6_1(&h);
        prop_assert!(report.consistent(), "inconsistent report {report:?} for {}", h.display());
    }

    /// The certificates are real: cyclic hypergraphs yield verified
    /// independent paths, acyclic ones yield join trees satisfying the
    /// running-intersection property.
    #[test]
    fn certificates_verify(h in any_hypergraph()) {
        if h.is_acyclic() {
            if !h.is_empty() {
                let tree = join_tree(&h).expect("acyclic");
                prop_assert!(tree.verify_running_intersection(&h));
            }
            prop_assert!(find_independent_path(&h).is_none());
        } else {
            let path = find_independent_path(&h).expect("cyclic hypergraphs have certificates");
            prop_assert!(path.is_connecting_path(&h));
            prop_assert!(path.is_independent(&h));
        }
    }

    /// GYO agrees with the paper's definition of acyclicity on small inputs.
    #[test]
    fn gyo_matches_definition(h in any_hypergraph()) {
        if h.node_count() <= 14 {
            prop_assert_eq!(h.is_acyclic(), h.is_acyclic_by_definition());
        }
    }

    /// GYO agrees with the MCS (chordality + conformality) test.
    #[test]
    fn gyo_matches_mcs(h in any_hypergraph()) {
        prop_assert_eq!(h.is_acyclic(), is_acyclic_mcs(&h));
    }

    /// The acyclicity hierarchy is a chain: Berge ⇒ β ⇒ α.
    #[test]
    fn hierarchy_is_a_chain(h in any_hypergraph()) {
        if is_berge_acyclic(&h) {
            prop_assert!(is_beta_acyclic(&h));
        }
        if h.edge_count() <= 12 && is_beta_acyclic(&h) {
            prop_assert!(h.is_acyclic());
        }
    }

    /// Canonical connections always cover the queried nodes and only use
    /// partial edges of the hypergraph.
    #[test]
    fn connection_covers_query(h in acyclic_hypergraph(), selector in any::<u64>()) {
        let x = sacred_subset(&h, selector);
        let cc = canonical_connection(&h, &x);
        prop_assert!(x.is_subset(&cc.nodes()));
        for e in cc.edges() {
            prop_assert!(h.covers(&e.nodes));
        }
    }

    /// Acyclic hypergraphs GYO-reduce to nothing; cyclic ones never do.
    #[test]
    fn gyo_reduction_endpoint(h in any_hypergraph()) {
        prop_assert_eq!(gyo_reduction(&h).is_empty(), h.is_acyclic());
    }
}

proptest! {
    // Database-level properties are more expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Yannakakis over the join tree computes exactly the naive
    /// join-then-project answer, on arbitrary (possibly dangling) data.
    #[test]
    fn yannakakis_matches_naive(edges in 2usize..6, seed in any::<u64>(), selector in any::<u64>()) {
        let schema = chain(edges, 3, 1);
        let db = random_database(&schema, DataParams { tuples_per_relation: 24, domain: 4, skew: 0.0, key_cap: 0 }, seed);
        let tree = join_tree(&schema).expect("chains are acyclic");
        let x = sacred_subset(&schema, selector);
        let fast = yannakakis_join(&db, &tree, &x);
        let naive = query_via_full_join(&db, &x);
        prop_assert!(fast.same_contents(&naive));
    }

    /// On globally consistent databases over acyclic schemas the canonical-
    /// connection answer equals the join-everything answer (the §7 claim);
    /// on arbitrary databases it is always a superset.
    #[test]
    fn connection_query_semantics(satellites in 2usize..5, seed in any::<u64>(), selector in any::<u64>()) {
        let schema = star(satellites, 3);
        let x = sacred_subset(&schema, selector);

        let raw = random_database(&schema, DataParams { tuples_per_relation: 16, domain: 3, skew: 0.0, key_cap: 0 }, seed);
        let via_cc = query_via_connection(&raw, &x);
        let naive = query_via_full_join(&raw, &x);
        for t in naive.tuples() {
            prop_assert!(via_cc.contains(&t), "connection answer must contain the naive answer");
        }

        let consistent = make_globally_consistent(&raw);
        let via_cc = query_via_connection(&consistent, &x);
        let naive = query_via_full_join(&consistent, &x);
        let yann = query_yannakakis(&consistent, &x).expect("acyclic schema");
        prop_assert!(via_cc.same_contents(&naive));
        prop_assert!(yann.same_contents(&naive));
    }

    /// Global consistency implies pairwise consistency, and the
    /// `make_globally_consistent` repair really produces both.
    #[test]
    fn consistency_implication(edges in 2usize..5, seed in any::<u64>()) {
        let schema = chain(edges, 2, 1);
        let db = consistent_database(&schema, DataParams { tuples_per_relation: 12, domain: 3, skew: 0.0, key_cap: 0 }, seed);
        prop_assert!(is_globally_consistent(&db));
        prop_assert!(is_pairwise_consistent(&db));
    }
}
