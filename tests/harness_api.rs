//! Tier-1 pin on the `reldb` API the frozen benchmark harness calls.
//!
//! `benchmark/` is its own workspace, so `cargo test` never compiles it and
//! a rename under it only surfaces when the pipeline runs
//! `benchmark/run.sh`.  This test coerces each of the seven functions the
//! harness names to the exact `fn` type it calls it at
//! (`benchmark/src/layers.rs`, `benchmark/src/workloads.rs`), runs each once
//! against the one-context form it forwards to, and touches the fields and
//! methods the harness reads off their results.

use acyclic_hypergraphs::acyclic::{join_tree, JoinTree};
use acyclic_hypergraphs::decomp::{decompose, Decomposition, Heuristic};
use acyclic_hypergraphs::hypergraph::NodeSet;
use acyclic_hypergraphs::reldb::{
    full_reduce_with, materialize_bags, query_via_full_join_metered, query_yannakakis_governed,
    query_yannakakis_metered, yannakakis_join_with, CancelToken, CollectingSink, Database,
    EngineError, ExecCtx, ExecPolicy, JoinStrategy, NoopMetrics, QueryGovernor, Reduced, Relation,
};
use acyclic_hypergraphs::workload::{chain, far_apart, random_database, ring, DataParams};
use std::time::Instant;

type Answer = Result<Relation, EngineError>;

#[test]
fn the_names_the_frozen_harness_compiles_against_keep_their_signatures() {
    let reduce: fn(&Database, &JoinTree, &ExecPolicy) -> Reduced = full_reduce_with;
    let join: fn(&Database, &JoinTree, &NodeSet, &ExecPolicy) -> Relation = yannakakis_join_with;
    let bags: fn(&Database, &Decomposition, &ExecPolicy) -> Database = materialize_bags;
    let governed: fn(&Database, &NodeSet, &ExecPolicy, &NoopMetrics, &QueryGovernor) -> Answer =
        query_yannakakis_governed::<NoopMetrics, QueryGovernor>;
    let metered: fn(&Database, &NodeSet, &ExecPolicy, &CollectingSink) -> Answer =
        query_yannakakis_metered::<CollectingSink>;
    let naive: fn(&Database, &NodeSet, &ExecPolicy, &NoopMetrics) -> Relation =
        query_via_full_join_metered::<NoopMetrics>;
    let pair: fn(&Relation, &Relation, JoinStrategy) -> Relation = Relation::join_with;

    let params = DataParams {
        tuples_per_relation: 40,
        domain: 6,
        skew: 0.0,
        key_cap: 0,
    };
    let generated = random_database(&chain(4, 2, 1), params, 17);
    let db = Database::from_snapshot_bytes(&generated.to_snapshot_bytes()).expect("round trip");
    assert_eq!(db.tuple_count(), generated.tuple_count());
    let (x, tree) = (far_apart(db.schema()), join_tree(db.schema()).unwrap());
    let policy = ExecPolicy::default();
    let one_thread = ExecPolicy {
        threads: 1,
        ..ExecPolicy::default()
    };
    let sequential = ExecPolicy::sequential(JoinStrategy::Auto);
    let ctx = ExecCtx::new(&policy);

    let reduced = reduce(&db, &tree, &policy);
    let want = ctx.full_reduce(&db, &tree).unwrap();
    assert_eq!(reduced.total_removed(), want.total_removed());
    let want = ctx.query_yannakakis(&db, &x).unwrap();
    assert!(join(&db, &tree, &x, &policy).same_contents(&want));
    let gov = QueryGovernor::with_token(CancelToken::new()).started_at(Instant::now());
    let got = governed(&db, &x, &one_thread, &NoopMetrics, &gov).unwrap();
    assert!(got.same_contents(&want));
    let sink = CollectingSink::new();
    assert!(metered(&db, &x, &sequential, &sink)
        .unwrap()
        .same_contents(&want));
    let counted = sink.snapshot();
    assert!(counted.semijoins.kept <= counted.semijoins.probed);
    assert!(counted.semijoins.probed <= counted.total_probed());
    let hash = ExecPolicy::sequential(JoinStrategy::Hash);
    assert!(naive(&db, &x, &hash, &NoopMetrics).same_contents(&want));
    let (first, second) = (&db.relations()[0], &db.relations()[1]);
    let joined = pair(first, second, JoinStrategy::Auto);
    assert!(joined.same_contents(&ctx.join(first, second).unwrap()));

    let cyclic = random_database(&ring(4), params, 17);
    let d = decompose(cyclic.schema(), Heuristic::MinFill).unwrap();
    let bag_db = bags(&cyclic, &d, &policy);
    let want = ctx.materialize_bags(&cyclic, &d).unwrap();
    assert_eq!(bag_db.tuple_count(), want.tuple_count());
}
