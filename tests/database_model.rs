//! Integration tests of the §7 database interpretation across the whole
//! stack: schema hypergraphs from the workload generators, data from the
//! data generators, query answering through canonical connections, the
//! Yannakakis pipeline, and the consistency dichotomy.

use acyclic_hypergraphs::acyclic::{join_tree, AcyclicityExt};
use acyclic_hypergraphs::reldb::{
    full_reduce, is_globally_consistent, is_pairwise_consistent, make_globally_consistent,
    plan_connection, query_via_connection, query_via_full_join, query_yannakakis,
};
use acyclic_hypergraphs::workload::{
    chain, consistent_database, inconsistent_ring_database, random_database, snowflake, star,
    tpc_like, with_cycle, DataParams,
};

/// The TPC-style schema answers attribute-level queries identically through
/// all three execution paths on consistent data.
#[test]
fn tpc_schema_query_paths_agree() {
    let schema = tpc_like();
    assert!(schema.is_acyclic());
    let db = consistent_database(
        &schema,
        DataParams {
            tuples_per_relation: 30,
            domain: 20,
            skew: 0.0,
            key_cap: 0,
        },
        7,
    );
    assert!(is_globally_consistent(&db));
    for attrs in [
        vec!["c_name", "orderdate"],
        vec!["r_name", "c_name"],
        vec!["p_name", "quantity"],
        vec!["s_name", "n_name"],
    ] {
        let x = db.attributes(attrs.iter().copied()).unwrap();
        let via_cc = query_via_connection(&db, &x);
        let naive = query_via_full_join(&db, &x);
        let yann = query_yannakakis(&db, &x).unwrap();
        assert!(
            via_cc.same_contents(&naive),
            "CC path diverged on {attrs:?}"
        );
        assert!(
            yann.same_contents(&naive),
            "Yannakakis diverged on {attrs:?}"
        );
    }
}

/// The canonical connection picks strictly fewer objects than the whole
/// schema for localized queries — the planning payoff of §7.
#[test]
fn localized_queries_touch_few_objects() {
    let schema = tpc_like();
    let db = consistent_database(
        &schema,
        DataParams {
            tuples_per_relation: 10,
            domain: 8,
            skew: 0.0,
            key_cap: 0,
        },
        3,
    );
    // Region name with nation name: only REGION and NATION are needed.
    let x = db.attributes(["r_name", "n_name"]).unwrap();
    let plan = plan_connection(db.schema(), &x);
    assert!(plan.objects.len() <= 2, "plan used {:?}", plan.objects);

    // Part name with supplier name: goes through PARTSUPP.
    let x = db.attributes(["p_name", "s_name"]).unwrap();
    let plan = plan_connection(db.schema(), &x);
    assert!(plan.objects.len() < schema.edge_count());
}

/// The full reducer removes every dangling tuple on random (inconsistent)
/// data and never removes anything on already-consistent data.
#[test]
fn full_reducer_behaviour() {
    for (schema, seed) in [
        (chain(5, 3, 1), 11u64),
        (star(5, 3), 12),
        (snowflake(3, 2, 3), 13),
    ] {
        let tree = join_tree(&schema).expect("acyclic schema");
        let raw = random_database(
            &schema,
            DataParams {
                tuples_per_relation: 12,
                domain: 4,
                skew: 0.0,
                key_cap: 0,
            },
            seed,
        );
        let reduced = full_reduce(&raw, &tree);
        // After reduction the database is globally consistent.
        let reduced_db =
            acyclic_hypergraphs::reldb::Database::new(schema.clone(), reduced.relations.clone())
                .unwrap();
        assert!(is_globally_consistent(&reduced_db));

        let consistent = make_globally_consistent(&raw);
        let second = full_reduce(&consistent, &tree);
        assert_eq!(
            second.total_removed(),
            0,
            "reducer must be idempotent on consistent data"
        );
    }
}

/// Pairwise consistency implies global consistency on acyclic schemas with
/// reduced data, but not on cyclic ones — the semantic dichotomy.
#[test]
fn consistency_dichotomy() {
    // Cyclic: the ring instance is pairwise consistent yet its join is empty.
    for k in [3usize, 4, 6] {
        let db = inconsistent_ring_database(k);
        assert!(!db.schema().is_acyclic());
        assert!(is_pairwise_consistent(&db));
        assert!(!is_globally_consistent(&db));
    }

    // Acyclic: running the full reducer (a pairwise process along the join
    // tree) always reaches global consistency.
    let schema = chain(4, 2, 1);
    let tree = join_tree(&schema).unwrap();
    let raw = random_database(
        &schema,
        DataParams {
            tuples_per_relation: 25,
            domain: 3,
            skew: 0.0,
            key_cap: 0,
        },
        99,
    );
    let reduced = full_reduce(&raw, &tree);
    let db = acyclic_hypergraphs::reldb::Database::new(schema, reduced.relations).unwrap();
    assert!(is_pairwise_consistent(&db));
    assert!(is_globally_consistent(&db));
}

/// Making a schema cyclic (adding a shortcut edge) no longer stops the
/// Yannakakis path: it routes through the hypertree decomposition and
/// agrees tuple-for-tuple with the naive full join.
#[test]
fn cyclic_schema_degrades_gracefully() {
    let schema = with_cycle(&star(4, 3));
    assert!(!schema.is_acyclic());
    let db = random_database(
        &schema,
        DataParams {
            tuples_per_relation: 8,
            domain: 3,
            skew: 0.0,
            key_cap: 0,
        },
        1,
    );
    let x = db.attributes(["K000", "K001"]).expect("hub keys exist");
    let naive = query_via_full_join(&db, &x);
    let yann = query_yannakakis(&db, &x).expect("cyclic schemas execute via decomposition");
    assert!(
        yann.same_contents(&naive),
        "decomposed pipeline diverged from the naive join"
    );
    let via_cc = query_via_connection(&db, &x);
    // The connection answer is still well defined and contains the naive one.
    for t in naive.tuples() {
        assert!(via_cc.contains(&t));
    }
}

/// A query named by attribute names, from a dimension key to the far end
/// of the snowflake, answers the same through every engine.
#[test]
fn declarative_queries_end_to_end() {
    let schema = snowflake(3, 2, 3);
    let db = consistent_database(
        &schema,
        DataParams {
            tuples_per_relation: 18,
            domain: 6,
            skew: 0.0,
            key_cap: 0,
        },
        21,
    );
    let x = db.attributes(["K000_0", "K002_2"]).unwrap();
    let via_cc = query_via_connection(&db, &x);
    let naive = query_via_full_join(&db, &x);
    let yann = query_yannakakis(&db, &x).unwrap();
    assert!(!naive.is_empty());
    assert!(via_cc.same_contents(&naive));
    assert!(yann.same_contents(&naive));
}
