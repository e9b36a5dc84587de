//! The database payoff (paper §7): universal-relation query answering over
//! an order-management schema.
//!
//! The example builds a TPC-style schema, fills it with random data, and
//! answers attribute-set queries three ways — joining the canonical
//! connection's objects, running the Yannakakis algorithm over the join
//! tree, and naively joining everything — then shows the consistency story
//! on a cyclic schema where pairwise consistency is not enough.
//!
//! Run with `cargo run --example universal_relation`.

use acyclic_hypergraphs::acyclic::{join_tree, AcyclicityExt};
use acyclic_hypergraphs::reldb::{
    full_reduce, is_globally_consistent, is_pairwise_consistent, plan_connection,
    query_via_connection, query_via_full_join, query_yannakakis,
};
use acyclic_hypergraphs::workload::{
    consistent_database, inconsistent_ring_database, tpc_like, DataParams,
};

fn main() {
    // ---- An acyclic, TPC-style schema ----
    let schema = tpc_like();
    println!("schema: {}", schema.display());
    println!("acyclic: {}\n", schema.is_acyclic());

    // Key domains comparable to the relation sizes keep join fan-out
    // realistic (roughly foreign-key-like joins).
    let db = consistent_database(
        &schema,
        DataParams {
            tuples_per_relation: 40,
            domain: 24,
            skew: 0.0,
            key_cap: 0,
        },
        2024,
    );
    println!(
        "database: {} tuples across {} relations",
        db.tuple_count(),
        db.relations().len()
    );
    println!("globally consistent: {}\n", is_globally_consistent(&db));

    // A universal-relation query: "customer names together with order dates"
    // — the user only names attributes; the system picks the objects.
    for attrs in [
        vec!["c_name", "orderdate"],
        vec!["r_name", "c_name"],
        vec!["p_name", "quantity"],
    ] {
        let x = db
            .attributes(attrs.iter().copied())
            .expect("known attributes");
        let plan = plan_connection(&db, &x);
        let objects: Vec<&str> = plan
            .objects
            .iter()
            .map(|&i| db.schema().edges()[i].label.as_str())
            .collect();
        let via_cc = query_via_connection(&db, &x);
        let yann = query_yannakakis(&db, &x).expect("acyclic schema");
        let naive = query_via_full_join(&db, &x);
        println!("query {attrs:?}");
        println!("  canonical connection joins: {objects:?}");
        println!(
            "  answers: connection = {} tuples, yannakakis = {} tuples, naive = {} tuples",
            via_cc.len(),
            yann.len(),
            naive.len()
        );
        assert!(yann.same_contents(&naive));
        assert!(via_cc.same_contents(&naive));
    }

    // ---- The full reducer at work ----
    let tree = join_tree(&schema).expect("acyclic");
    let reduced = full_reduce(&db, &tree);
    println!(
        "\nfull reducer removed {} dangling tuples (globally consistent input, so few or none)",
        reduced.total_removed()
    );

    // ---- Why acyclicity matters: the cyclic consistency trap ----
    let ring_db = inconsistent_ring_database(4);
    println!("\ncyclic 4-ring schema: {}", ring_db.schema().display());
    println!("  acyclic: {}", ring_db.schema().is_acyclic());
    println!(
        "  pairwise consistent: {}, globally consistent: {}",
        is_pairwise_consistent(&ring_db),
        is_globally_consistent(&ring_db)
    );
    println!(
        "  full join has {} tuples even though every relation has data — the\n  straightforward universal-relation interpretation breaks on cyclic schemas,\n  which is exactly the warning in the paper's conclusion.",
        ring_db.full_join().len()
    );
}
