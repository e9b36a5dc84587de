//! Tier-1 pin on the `reldb` and `hyperqd` API the frozen benchmark harness
//! calls.
//!
//! `benchmark/` is its own workspace, so `cargo test` never compiles it and
//! a rename under it only surfaces when the pipeline runs
//! `benchmark/run.sh`.  The first test coerces each of the seven `reldb`
//! functions the harness names to the exact `fn` type it calls it at
//! (`benchmark/src/layers.rs`, `benchmark/src/workloads.rs`), runs each once
//! against the one-context form it forwards to, and touches the fields and
//! methods the harness reads off their results.  The second does the same
//! for the `hyperqd` names (`json`, `protocol`, `stats`, `load`,
//! `server::answer_frame`) in the forms `benchmark/src/*.rs` writes them.

use acyclic_hypergraphs::acyclic::{join_tree, JoinTree};
use acyclic_hypergraphs::decomp::{decompose, Decomposition, Heuristic};
use acyclic_hypergraphs::hypergraph::{Hypergraph, NodeSet};
use acyclic_hypergraphs::hyperqd::json::{obj, Json};
use acyclic_hypergraphs::hyperqd::load::{parse_database, render_database, ParseError};
use acyclic_hypergraphs::hyperqd::protocol::{
    parse_request, parse_response, render_request, render_response, Overrides, QuerySpec, Request,
    Response, WireError,
};
use acyclic_hypergraphs::hyperqd::server::answer_frame;
use acyclic_hypergraphs::hyperqd::stats::{bucket_floor, Histogram, BUCKETS};
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
    let ctx = ExecCtx::new();

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

#[test]
fn the_hyperqd_names_the_frozen_harness_compiles_against_keep_their_forms() {
    // protocol: four functions, and the frames the harness builds and
    // destructures (`workloads.rs`, `layers.rs`, `e2e.rs`).
    let _: fn(&str) -> Result<Request, WireError> = parse_request;
    let _: fn(&str) -> Result<Response, WireError> = parse_response;
    let _: fn(&Request) -> String = render_request;
    let _: fn(&Response) -> String = render_response;
    let spec = QuerySpec {
        db: "bench".to_owned(),
        select: vec!["N00000".to_owned(), "N00003".to_owned()],
        engine: None,
        overrides: Overrides::default(),
    };
    let query_line = render_request(&Request::Query(spec.clone()));
    let Ok(Request::Query(parsed)) = parse_request(&query_line) else {
        panic!("a rendered query parses as a query: {query_line}");
    };
    assert_eq!(parsed, spec);
    let run = Request::Run {
        name: "q".to_owned(),
        overrides: Overrides::default(),
    };
    let prepare = Request::Prepare {
        name: "q".to_owned(),
        spec,
    };
    for request in [run, prepare] {
        assert_eq!(parse_request(&render_request(&request)), Ok(request));
    }

    // load + server::answer_frame(&Database, &Relation, Option<Json>).
    let _: fn(&Hypergraph, &str) -> Result<Database, ParseError> = parse_database;
    let _: fn(&Database) -> String = render_database;
    let frame: fn(&Database, &Relation, Option<Json>) -> Response = answer_frame;
    let params = DataParams {
        tuples_per_relation: 40,
        domain: 6,
        skew: 0.0,
        key_cap: 0,
    };
    let generated = random_database(&chain(4, 2, 1), params, 17);
    let db = parse_database(generated.schema(), &render_database(&generated)).unwrap();
    assert_eq!(db.tuple_count(), generated.tuple_count());
    let x = far_apart(db.schema());
    let answer = ExecCtx::new().query_yannakakis(&db, &x).unwrap();
    let mut reply = frame(&db, &answer, None);
    if let Response::Answer { rows, trace, .. } = &mut reply {
        assert_eq!(rows.len(), answer.len());
        *trace = Some("q-000001".to_owned());
    }
    let line = render_response(&reply);
    assert_eq!(parse_response(&line), Ok(reply), "frame: {line}");

    // json: the builder, the variants and the accessors (`main.rs`,
    // `trace.rs`, `e2e.rs`).
    let doc = obj([
        ("correct", Json::Bool(true)),
        ("failed", Json::Int(0)),
        ("value", Json::Float(1.5)),
        ("unit", Json::str("ms")),
        ("parent", Json::Null),
        ("nested", Json::Obj(vec![("ok".to_owned(), Json::Int(3))])),
    ]);
    assert_eq!(
        doc.to_string(),
        r#"{"correct":true,"failed":0,"value":1.5,"unit":"ms","parent":null,"nested":{"ok":3}}"#
    );
    let ok = doc.get("nested").and_then(|o| o.get("ok"));
    assert_eq!(ok.and_then(Json::as_u64), Some(3));

    // stats: a scraped `stats` frame decoded the way `e2e.rs::scrape` does,
    // and the bucket geometry `stats.rs::histogram_quantile` walks.
    let mut h = Histogram::new();
    h.record(1100);
    h.record(7);
    let buckets = h
        .sparse()
        .iter()
        .map(|&(idx, n)| Json::Arr(vec![Json::Int(idx as i64), Json::Int(n as i64)]))
        .collect();
    let latency = obj([("max", Json::Int(1100)), ("buckets", Json::Arr(buckets))]);
    let stats_line = render_response(&Response::Stats {
        stats: Some(obj([("latency_us", latency)])),
        text: None,
    });
    let Ok(Response::Stats {
        stats: Some(stats), ..
    }) = parse_response(&stats_line)
    else {
        panic!("a stats frame parses as one: {stats_line}");
    };
    let latency = stats.get("latency_us").unwrap();
    let max = latency.get("max").and_then(Json::as_u64).unwrap();
    let pairs: Vec<(usize, u64)> = latency
        .get("buckets")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|pair| match pair.as_arr()? {
            [idx, count] => Some((idx.as_u64()? as usize, count.as_u64()?)),
            _ => None,
        })
        .collect::<Option<_>>()
        .unwrap();
    let back = Histogram::from_sparse(&pairs, max).unwrap();
    assert_eq!((back.count(), back.sparse()), (2, h.sparse()));
    let (idx, _) = h.sparse()[1];
    assert!(idx + 1 < BUCKETS);
    assert!(bucket_floor(idx) <= 1100 && 1100 < bucket_floor(idx + 1));
}
