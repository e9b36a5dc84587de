//! Equivalence property suite for the **cyclic** pipeline: decompose →
//! materialize bags → reduce → join must agree tuple-for-tuple with the
//! `reldb::reference` oracle across the cyclic schema families (rings,
//! hyper-rings, pair-cliques) and random data, seeds and projections.
//!
//! This is the safety net under the hypertree-decomposition subsystem: the
//! oracle joins every relation naively and projects, so any bag-cover or
//! running-intersection bug shows up as a tuple diff.

use acyclic_hypergraphs::acyclic::join_tree;
use acyclic_hypergraphs::decomp::{decompose, Heuristic};
use acyclic_hypergraphs::hypergraph::{Hypergraph, NodeSet};
use acyclic_hypergraphs::reldb::reference::naive_full_join;
use acyclic_hypergraphs::reldb::{
    materialize_bags, yannakakis_join_any, yannakakis_join_decomposed, Database, ExecPolicy,
    JoinStrategy, Query,
};
use acyclic_hypergraphs::workload::{hyper_ring, pair_clique, random_database, ring, DataParams};
use proptest::prelude::*;

/// One of the cyclic schema families, scaled by `shape`.
fn cyclic_schema(family: usize, shape: usize) -> Hypergraph {
    match family % 3 {
        0 => ring(3 + shape % 5),
        1 => hyper_ring(3 + shape % 3, 2 + shape % 3),
        _ => pair_clique(3 + shape % 3),
    }
}

fn db_for(family: usize, shape: usize, tuples: usize, domain: i64, seed: u64) -> Database {
    random_database(
        &cyclic_schema(family, shape),
        DataParams {
            tuples_per_relation: tuples,
            domain,
            skew: 0.0,
            key_cap: 0,
        },
        seed,
    )
}

/// The oracle answer: join everything naively, project.
fn oracle(db: &Database, output: &NodeSet) -> acyclic_hypergraphs::reldb::reference::NaiveRelation {
    naive_full_join(db).project(output)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The routed pipeline answers every cyclic family identically to the
    /// oracle, on the full output and on random projections.
    #[test]
    fn cyclic_pipeline_matches_reference(
        family in 0usize..3,
        shape in 0usize..6,
        tuples in 1usize..20,
        domain in 1i64..6,
        seed in 0u64..1_000,
        pick in 0usize..64,
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        prop_assert!(
            join_tree(db.schema()).is_none(),
            "cyclic generators must stay cyclic"
        );
        let output: NodeSet = db
            .schema()
            .nodes()
            .iter()
            .enumerate()
            .filter(|(i, _)| pick & (1 << (i % 6)) != 0)
            .map(|(_, n)| n)
            .collect();
        let fast = yannakakis_join_any(&db, &output, &ExecPolicy::default())
            .expect("cyclic schemas decompose");
        prop_assert!(
            oracle(&db, &output).agrees_with(&fast),
            "cyclic pipeline diverged from the oracle"
        );
    }

    /// Every execution policy — strategies, parallel workers, spawn mode —
    /// and both elimination heuristics produce the identical answer.
    #[test]
    fn cyclic_policies_and_heuristics_agree(
        family in 0usize..3,
        shape in 0usize..6,
        tuples in 1usize..16,
        domain in 1i64..5,
        seed in 0u64..1_000,
        threads in 2usize..5,
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        let all = db.schema().nodes();
        let want = oracle(&db, &all);
        for policy in [
            ExecPolicy::sequential(JoinStrategy::Hash),
            ExecPolicy::sequential(JoinStrategy::SortMerge),
            ExecPolicy::parallel(JoinStrategy::Hash, threads),
            ExecPolicy::parallel(JoinStrategy::Auto, threads),
        ] {
            let got = yannakakis_join_any(&db, &all, &policy).expect("decomposable");
            prop_assert!(want.agrees_with(&got), "diverged under {:?}", policy);
        }
        for heuristic in [Heuristic::MinFill, Heuristic::MinDegree] {
            let d = decompose(db.schema(), heuristic).expect("nonempty schema");
            prop_assert!(d.verify(db.schema()), "decomposition must verify");
            let got = yannakakis_join_decomposed(&db, &d, &all, &ExecPolicy::default());
            prop_assert!(want.agrees_with(&got), "diverged under {:?}", heuristic);
        }
    }

    /// The materialized bag database represents exactly the original join:
    /// joining all bag relations equals joining all original relations.
    #[test]
    fn bag_join_equals_original_join(
        family in 0usize..3,
        shape in 0usize..6,
        tuples in 1usize..14,
        domain in 1i64..5,
        seed in 0u64..1_000,
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        let d = decompose(db.schema(), Heuristic::MinFill).expect("nonempty schema");
        let bag_db = materialize_bags(&db, &d, &ExecPolicy::default());
        let all = db.schema().nodes();
        prop_assert!(
            oracle(&db, &all).agrees_with(&bag_db.full_join().project(&all)),
            "bag join diverged from the original join"
        );
    }

    /// The Query layer routes cyclic schemas too: selections and
    /// projections through `execute_yannakakis` agree with the naive path.
    #[test]
    fn cyclic_queries_with_selections_match_naive(
        family in 0usize..3,
        shape in 0usize..6,
        tuples in 1usize..14,
        domain in 1i64..5,
        seed in 0u64..1_000,
        sel in 0i64..5,
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        let nodes: Vec<_> = db.schema().nodes().iter().collect();
        let q = Query::new()
            .select(nodes[0])
            .select(*nodes.last().expect("nonempty"))
            .filter_eq(nodes[nodes.len() / 2], sel % domain);
        let yann = q.execute_yannakakis(&db).expect("cyclic schemas execute");
        let naive = q.execute_naive(&db);
        prop_assert!(
            yann.same_contents(&naive),
            "cyclic query with selection diverged"
        );
    }
}

/// Fixed regression: the 4-ring and a hyper-ring execute end-to-end with
/// reported width, per the acceptance criteria.
#[test]
fn ring_and_hyper_ring_acceptance() {
    for (schema, expect_width) in [(ring(4), 2), (hyper_ring(4, 3), 2)] {
        let d = decompose(&schema, Heuristic::MinFill).expect("cyclic schemas decompose");
        assert_eq!(d.width(), expect_width);
        assert!(d.verify(&schema));
        let db = random_database(
            &schema,
            DataParams {
                tuples_per_relation: 40,
                domain: 6,
                skew: 0.0,
                key_cap: 0,
            },
            7,
        );
        let all = schema.nodes();
        let fast = yannakakis_join_any(&db, &all, &ExecPolicy::default()).unwrap();
        assert!(oracle(&db, &all).agrees_with(&fast));
    }
}
