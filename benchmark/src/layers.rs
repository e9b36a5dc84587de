//! The traced pass's in-process half: replays the workload's request
//! through the public calls the server makes, with a span around each,
//! and times the layers no request crosses (snapshot codec, text loader,
//! a single join kernel call) on the same data.
//!
//! Spans are taken from outside the program, so an engine stage cannot be
//! timed inside the engine call that contains it.  Each replay therefore
//! has three top-level spans: `request` brackets the calls that make up
//! the server's work for one query, in order; `stages` re-executes the
//! engine's stages one public function at a time; `client` is the reply
//! parse a client would do.  Only `request` counts towards the replay
//! total that `unaccounted_share` compares with the wire latency.

use crate::client::is_expected;
use crate::stats;
use crate::trace::{median_us, Recorder, Span};
use crate::workloads::Inputs;
use crate::Metric;
use acyclic::join_tree;
use decomp::{decompose, Decomposition, Heuristic};
use hypergraph::EdgeId;
use hyperqd::load::{parse_database, render_database};
use hyperqd::protocol::{parse_request, parse_response, render_response, Request, Response};
use hyperqd::server::answer_frame;
use reldb::{
    full_reduce_with, materialize_bags, query_yannakakis_governed, query_yannakakis_metered,
    yannakakis_join_with, CancelToken, CollectingSink, Database, ExecPolicy, JoinStrategy,
    NoopMetrics, QueryGovernor,
};
use std::time::{Duration, Instant};

/// Most replays kept, so the trace file stays readable on fast workloads.
const MAX_REPLAYS: usize = 200;

/// Timed repetitions of each measurement taken outside the replay loop,
/// and replays that also time the off-path decomposition stages.
const SIDE_REPS: usize = 5;

/// The metrics that are the median duration of the span of the same name
/// minus its `_us`.
const SPAN_METRICS: [&str; 9] = [
    "hyperqd.protocol.parse_request_us",
    "hyperqd.protocol.render_response_us",
    "hyperqd.protocol.parse_response_us",
    "hyperqd.server.answer_frame_us",
    "acyclic.jointree.join_tree_us",
    "decomp.decompose_us",
    "reldb.hypertree.materialize_bags_us",
    "reldb.yannakakis.full_reduce_us",
    "reldb.universal.query_us",
];

/// Tuples per relation the text loader is timed on, at most.
const TEXT_SAMPLE_TUPLES: usize = 100_000;

/// What the in-process pass measured.
pub struct Layers {
    /// The per-layer metrics this pass can compute on its own.
    pub metrics: Vec<Metric>,
    /// Every span recorded, for `out/trace-<workload>.json`.
    pub spans: Vec<Span>,
    /// Median duration of the `request` span, in µs.
    pub replay_total_us: f64,
    /// Replays whose rendered reply differed from the expected frame.
    pub failed: u64,
    /// Replays run.
    pub replays: u64,
}

/// Both elimination heuristics, as the engine runs them on a cache miss;
/// the smaller width wins, ties to min-fill.
fn decompose_both(db: &Database) -> Result<Decomposition, String> {
    let fill = decompose(db.schema(), Heuristic::MinFill).map_err(|e| e.to_string())?;
    let degree = decompose(db.schema(), Heuristic::MinDegree).map_err(|e| e.to_string())?;
    Ok(if degree.width() < fill.width() {
        degree
    } else {
        fill
    })
}

/// The first [`TEXT_SAMPLE_TUPLES`] tuples of every relation of `db`: what
/// the text loader is timed on, so the 10⁶-tuple workload does not spend
/// its traced pass parsing text no request ever reads.
fn text_sample(db: &Database) -> Database {
    let mut sample = Database::empty(db.schema().clone());
    for (e, relation) in db.relations().iter().enumerate() {
        for i in 0..relation.len().min(TEXT_SAMPLE_TUPLES) {
            sample.insert(EdgeId(e as u32), relation.tuple_at(i));
        }
    }
    sample
}

/// The median of `reps` timings of `f`, in seconds.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// Replays `inputs`' query in process for about `budget` (at least the
/// workload's `min_replays`, at most [`MAX_REPLAYS`]) on a database
/// decoded from `snapshot`, exactly as the server holds it.
pub fn measure(inputs: &Inputs, snapshot: &[u8], budget: Duration) -> Result<Layers, String> {
    let mut metrics = Vec::new();
    let mut push =
        |name, value: f64, unit, samples| metrics.push(Metric::new(name, value, unit, samples));
    let tuples = inputs.db.tuple_count();
    // Large inputs get fewer repetitions of the whole-database layers.
    let side_reps = if tuples > 1_000_000 { 3 } else { SIDE_REPS };

    let decode_s = time_median(side_reps, || Database::from_snapshot_bytes(snapshot));
    let encode_s = time_median(side_reps, || inputs.db.to_snapshot_bytes());
    push("reldb.snapshot.decode_ms", decode_s * 1e3, "ms", side_reps);
    push("reldb.snapshot.encode_ms", encode_s * 1e3, "ms", side_reps);
    push(
        "reldb.snapshot.bytes_per_tuple",
        snapshot.len() as f64 / tuples as f64,
        "B",
        1,
    );
    let text = render_database(&text_sample(&inputs.db));
    let parse_text_s = time_median(side_reps, || parse_database(inputs.db.schema(), &text));
    drop(text);
    push(
        "hyperqd.load.parse_text_ms",
        parse_text_s * 1e3,
        "ms",
        side_reps,
    );

    let db = Database::from_snapshot_bytes(snapshot).map_err(|e| e.to_string())?;
    let policy = ExecPolicy::default();
    let governor = || QueryGovernor::with_token(CancelToken::new()).started_at(Instant::now());
    // The first query on a decoded database rebuilds its lazy indexes; the
    // end-to-end run reports that as `cold_first_query_ms`, the replays
    // below are warm.
    query_yannakakis_governed(&db, &inputs.x, &policy, &NoopMetrics, &governor())
        .map_err(|e| e.to_string())?;

    let mut rec = Recorder::new();
    let mut failed = 0;
    let mut replays = 0;
    let (mut answer_rows, mut answer_bytes) = (0, 0);
    let (mut width, mut bag_tuples, mut removed) = (0, 0, 0);
    let started = Instant::now();
    while replays < inputs.workload.min_replays
        || (started.elapsed() < budget && replays < MAX_REPLAYS)
    {
        rec.set_request(replays as u32);
        let line = rec.span("request", |rec| -> Result<String, String> {
            let request = rec.span("hyperqd.protocol.parse_request", |_| {
                parse_request(&inputs.query_line)
            });
            let Ok(Request::Query(spec)) = request else {
                return Err("the generated query line does not parse as a query".to_owned());
            };
            let x = rec
                .span("reldb.database.attributes", |_| {
                    db.attributes(spec.select.iter().map(String::as_str))
                })
                .map_err(|e| e.to_string())?;
            let gov = governor();
            let answer = rec
                .span("reldb.universal.query", |_| {
                    query_yannakakis_governed(&db, &x, &policy, &NoopMetrics, &gov)
                })
                .map_err(|e| e.to_string())?;
            let mut frame = rec.span("hyperqd.server.answer_frame", |_| {
                answer_frame(&db, &answer, None)
            });
            if let Response::Answer { rows, trace, .. } = &mut frame {
                answer_rows = rows.len();
                *trace = Some(format!("q-{:06}", replays + 1));
            }
            Ok(rec.span("hyperqd.protocol.render_response", |_| {
                render_response(&frame)
            }))
        })?;
        answer_bytes = line.len() + 1;
        if !is_expected(line.as_bytes(), inputs.expected.as_bytes()) {
            failed += 1;
        }
        rec.span("stages", |rec| -> Result<(), String> {
            let tree = rec.span("acyclic.jointree.join_tree", |_| join_tree(db.schema()));
            // On an acyclic schema the router never decomposes; the two
            // decomposition stages are still timed, on a few replays, as
            // what the cyclic path would add on this data.
            let d = match &tree {
                Some(_) if replays >= SIDE_REPS => None,
                _ => Some(rec.span("decomp.decompose", |_| decompose_both(&db))?),
            };
            let bags = d.as_ref().map(|d| {
                rec.span("reldb.hypertree.materialize_bags", |_| {
                    materialize_bags(&db, d, &policy)
                })
            });
            if let (Some(d), Some(bags)) = (&d, &bags) {
                width = d.width();
                bag_tuples = bags.tuple_count();
            }
            let (stage_db, stage_tree) = match (&tree, &d, &bags) {
                (Some(tree), _, _) => (&db, tree),
                (None, Some(d), Some(bags)) => (bags, d.tree()),
                _ => unreachable!("a cyclic schema is always decomposed"),
            };
            let reduced = rec.span("reldb.yannakakis.full_reduce", |_| {
                full_reduce_with(stage_db, stage_tree, &policy)
            });
            removed = reduced.total_removed();
            rec.span("reldb.yannakakis.yannakakis_join", |_| {
                yannakakis_join_with(stage_db, stage_tree, &inputs.x, &policy)
            });
            Ok(())
        })?;
        rec.span("client", |rec| {
            rec.span("hyperqd.protocol.parse_response", |_| parse_response(&line))
        })
        .map_err(|e| format!("rendered reply does not parse: {e}"))?;
        replays += 1;
    }

    let spans = rec.into_spans();
    let span_us =
        |name: &str| median_us(&spans, name).ok_or_else(|| format!("no {name} span was recorded"));
    for metric in SPAN_METRICS {
        let span = metric.strip_suffix("_us").expect("span metrics are in us");
        let (us, n) = span_us(span)?;
        push(metric, us, "us", n);
    }
    let (reduce_us, _) = span_us("reldb.yannakakis.full_reduce")?;
    let (query_us, _) = span_us("reldb.universal.query")?;
    let (join_us, join_n) = span_us("reldb.yannakakis.yannakakis_join")?;
    let (replay_total_us, _) = span_us("request")?;
    push(
        "reldb.yannakakis.join_phase_us",
        join_us - reduce_us,
        "us",
        join_n,
    );
    push("hyperqd.server.answer_rows", answer_rows as f64, "count", 1);
    push("hyperqd.server.answer_bytes", answer_bytes as f64, "B", 1);
    push("decomp.width", width as f64, "count", 1);
    push("reldb.hypertree.bag_tuples", bag_tuples as f64, "count", 1);
    push(
        "reldb.yannakakis.tuples_removed",
        removed as f64,
        "count",
        1,
    );

    let sequential = ExecPolicy::sequential(JoinStrategy::Auto);
    let sink = CollectingSink::new();
    let answer =
        query_yannakakis_metered(&db, &inputs.x, &sequential, &sink).map_err(|e| e.to_string())?;
    let counted = sink.snapshot();
    push(
        "reldb.metrics.semijoin_probed",
        counted.semijoins.probed as f64,
        "count",
        1,
    );
    push(
        "reldb.metrics.semijoin_kept",
        counted.semijoins.kept as f64,
        "count",
        1,
    );
    push(
        "reldb.metrics.rows_examined_per_result",
        counted.total_probed() as f64 / answer.len().max(1) as f64,
        "ratio",
        1,
    );

    let one_thread = ExecPolicy {
        threads: 1,
        ..ExecPolicy::default()
    };
    let one_thread_s = time_median(side_reps, || {
        query_yannakakis_governed(&db, &inputs.x, &one_thread, &NoopMetrics, &governor())
    });
    push(
        "reldb.exec.parallel_speedup",
        one_thread_s * 1e6 / query_us,
        "ratio",
        side_reps,
    );
    let (first, second) = (&db.relations()[0], &db.relations()[1]);
    let join_pair_s = time_median(side_reps, || first.join_with(second, JoinStrategy::Auto));
    push(
        "reldb.relation.join_pair_us",
        join_pair_s * 1e6,
        "us",
        side_reps,
    );

    Ok(Layers {
        metrics,
        spans,
        replay_total_us,
        failed,
        replays: replays as u64,
    })
}
