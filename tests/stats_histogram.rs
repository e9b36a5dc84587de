//! Property suite for the server telemetry layer: the log-bucketed
//! latency [`Histogram`] behind `hyperqd`'s `stats` op, and the live
//! registry driven over the wire.
//!
//! The histogram properties pin the algebra the repo benchmark's
//! scrape-diff workflow (`benchmark/src/e2e.rs`) depends on: recording is order-insensitive and
//! merge-associative (so two scrapes bracket a window exactly), quantiles
//! are monotone (p50 ≤ p90 ≤ p99 ≤ max), every recorded value lands in a
//! bucket whose representative is within the bucketing scheme's 1/16
//! relative-error bound, and the sparse wire form round-trips.  The live
//! half runs the 8-client soak: the server's histogram count must grow by
//! exactly the number of queries the soak issued — no lost or duplicated
//! observations under concurrency.

use acyclic_hypergraphs::hyperqd::json::Json;
use acyclic_hypergraphs::hyperqd::protocol::{
    parse_response, render_request, EngineKind, Overrides, QuerySpec, Request, Response,
};
use acyclic_hypergraphs::hyperqd::server::Server;
use acyclic_hypergraphs::hyperqd::stats::Histogram;
use acyclic_hypergraphs::workload::{chain, consistent_database, DataParams};
use proptest::collection::vec as arb_vec;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn build(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Recording is order-insensitive and merging is associative: any way
    /// of splitting the observations across histograms and merging them
    /// back yields the same buckets, count and max.
    #[test]
    fn merge_is_associative_and_order_insensitive(
        values in arb_vec(0u64..2_000_000, 0..120),
        cut_a in any::<u64>(),
        cut_b in any::<u64>(),
    ) {
        let whole = build(&values);
        let (i, j) = {
            let n = values.len() as u64 + 1;
            let (a, b) = ((cut_a % n) as usize, (cut_b % n) as usize);
            (a.min(b), a.max(b))
        };
        // (left ∪ mid) ∪ right  ==  left ∪ (mid ∪ right)  ==  whole.
        let (left, mid, right) = (build(&values[..i]), build(&values[i..j]), build(&values[j..]));
        let mut lm = left.clone();
        lm.merge(&mid);
        lm.merge(&right);
        let mut mr = mid.clone();
        mr.merge(&right);
        let mut l_mr = left.clone();
        l_mr.merge(&mr);
        prop_assert_eq!(&lm, &whole);
        prop_assert_eq!(&l_mr, &whole);
        // Reversed insertion order changes nothing either.
        let reversed: Vec<u64> = values.iter().rev().copied().collect();
        prop_assert_eq!(&build(&reversed), &whole);
        prop_assert_eq!(whole.count(), values.len() as u64);
    }

    /// Diff inverts merge: the window between two scrapes is exactly the
    /// observations recorded in between.
    #[test]
    fn diff_recovers_the_merged_window(
        before in arb_vec(0u64..1_000_000, 0..60),
        window in arb_vec(0u64..1_000_000, 0..60),
    ) {
        let earlier = build(&before);
        let mut later = earlier.clone();
        for &v in &window {
            later.record(v);
        }
        let diff = later.diff(&earlier);
        prop_assert_eq!(diff.count(), window.len() as u64);
        // Bucket-wise the diff equals a fresh histogram of the window
        // (the max differs: a cumulative histogram can't forget an old
        // max, so diff keeps the later scrape's).
        prop_assert_eq!(diff.sparse(), build(&window).sparse());
    }

    /// Quantiles are monotone in q, bounded by the exact max, and each
    /// reported quantile is within the bucketing scheme's 1/16 relative
    /// error of some recorded value.
    #[test]
    fn quantiles_are_monotone_and_error_bounded(
        values in arb_vec(0u64..10_000_000, 1..120),
    ) {
        let h = build(&values);
        let (p50, p90, p99) = (h.quantile(0.50), h.quantile(0.90), h.quantile(0.99));
        prop_assert!(p50 <= p90, "p50 {p50} > p90 {p90}");
        prop_assert!(p90 <= p99, "p90 {p90} > p99 {p99}");
        prop_assert!(p99 <= h.max(), "p99 {p99} > max {}", h.max());
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        for q in [p50, p90, p99] {
            let close = values.iter().any(|&v| {
                let err = (q as i128 - v as i128).unsigned_abs();
                err * 16 <= u128::from(v.max(1))
            });
            prop_assert!(close, "quantile {q} near no recorded value {values:?}");
        }
    }

    /// The sparse wire form (what the `stats` op ships) reconstructs the
    /// histogram exactly — the contract the repo benchmark relies on when
    /// it diffs two scrapes client-side.
    #[test]
    fn sparse_wire_form_round_trips(
        values in arb_vec(0u64..5_000_000, 0..120),
    ) {
        let h = build(&values);
        let rebuilt = Histogram::from_sparse(&h.sparse(), h.max())
            .expect("own sparse form is valid");
        prop_assert_eq!(&rebuilt, &h);
    }
}

// ----------------------------------------------------------- live soak

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 25;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let writer = stream.try_clone().expect("clone");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn round_trip(&mut self, request: &Request) -> Response {
        let line = render_request(request);
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .expect("send");
        let mut buf = String::new();
        let n = self.reader.read_line(&mut buf).expect("read in time");
        assert!(n > 0, "server closed the connection unexpectedly");
        parse_response(buf.trim_end()).expect("well-formed response")
    }
}

/// Scrapes the stats op and rebuilds the latency histogram from its
/// sparse wire form, plus the derived `queries_total` and the by-outcome
/// breakdown for the conservation check.
fn scrape(addr: SocketAddr) -> (Histogram, u64, u64) {
    let mut c = Client::connect(addr);
    let stats = match c.round_trip(&Request::Stats { prometheus: false }) {
        Response::Stats {
            stats: Some(stats), ..
        } => stats,
        other => panic!("stats scrape got {other:?}"),
    };
    let latency = stats.get("latency_us").expect("latency_us present");
    let max = latency.get("max").and_then(Json::as_u64).expect("max");
    let pairs: Vec<(usize, u64)> = latency
        .get("buckets")
        .and_then(Json::as_arr)
        .expect("buckets")
        .iter()
        .map(|p| {
            let p = p.as_arr().expect("bucket pair");
            (
                p[0].as_u64().expect("bucket index") as usize,
                p[1].as_u64().expect("bucket count"),
            )
        })
        .collect();
    let histogram = Histogram::from_sparse(&pairs, max).expect("valid sparse form");
    let total = stats
        .get("queries_total")
        .and_then(Json::as_u64)
        .expect("queries_total");
    let by_outcome: u64 = match stats.get("queries_by_outcome").expect("by_outcome") {
        Json::Obj(pairs) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
        other => panic!("queries_by_outcome not an object: {other}"),
    };
    (histogram, total, by_outcome)
}

/// The 8-client soak against the live registry: the latency histogram and
/// `queries_total` each grow by exactly the number of queries issued, and
/// the by-outcome breakdown conserves the total — under full concurrency.
#[test]
fn soak_query_count_matches_the_stats_delta() {
    let schema = chain(3, 2, 1);
    let db = Arc::new(consistent_database(
        &schema,
        DataParams {
            tuples_per_relation: 24,
            domain: 6,
            skew: 0.0,
            key_cap: 0,
        },
        7,
    ));
    let server = Server::bind_preloaded("127.0.0.1:0", vec![("chain".into(), db)]).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let (before, total_before, outcome_before) = scrape(addr);
    assert_eq!(total_before, outcome_before);

    let threads: Vec<_> = (0..CLIENTS)
        .map(|client_id| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for step in 0..QUERIES_PER_CLIENT {
                    let request = Request::Query(QuerySpec {
                        db: "chain".into(),
                        select: vec!["N00000".into(), "N00002".into()],
                        engine: match (client_id + step) % 3 {
                            0 => None,
                            1 => Some(EngineKind::Yannakakis),
                            _ => Some(EngineKind::Connection),
                        },
                        overrides: Overrides::default(),
                    });
                    match c.round_trip(&request) {
                        Response::Answer { trace, .. } => {
                            assert!(
                                trace.as_deref().is_some_and(|t| t.starts_with("q-")),
                                "answer lacks a trace id"
                            );
                        }
                        other => panic!("soak query got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("soak client panicked");
    }

    let (after, total_after, outcome_after) = scrape(addr);
    let issued = (CLIENTS * QUERIES_PER_CLIENT) as u64;
    assert_eq!(
        after.diff(&before).count(),
        issued,
        "histogram delta must equal the queries issued"
    );
    assert_eq!(total_after - total_before, issued);
    assert_eq!(
        total_after, outcome_after,
        "outcomes must conserve the total"
    );

    let mut c = Client::connect(addr);
    assert_eq!(
        c.round_trip(&Request::Shutdown { now: false }),
        Response::Bye
    );
    let stats = handle.join();
    assert!(stats.drained_clean, "drain must finish clean: {stats:?}");
}

/// The Prometheus exposition is served over the same op and carries the
/// counter families the CI scrape greps for.
#[test]
fn prometheus_exposition_is_served_over_the_wire() {
    let schema = chain(3, 2, 1);
    let db = Arc::new(consistent_database(
        &schema,
        DataParams {
            tuples_per_relation: 12,
            domain: 5,
            skew: 0.0,
            key_cap: 0,
        },
        7,
    ));
    let server = Server::bind_preloaded("127.0.0.1:0", vec![("chain".into(), db)]).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut c = Client::connect(addr);
    match c.round_trip(&Request::Query(QuerySpec {
        db: "chain".into(),
        select: vec!["N00000".into()],
        engine: None,
        overrides: Overrides::default(),
    })) {
        Response::Answer { .. } => {}
        other => panic!("warmup query got {other:?}"),
    }
    let text = match c.round_trip(&Request::Stats { prometheus: true }) {
        Response::Stats {
            text: Some(text),
            stats: None,
        } => text,
        other => panic!("prometheus scrape got {other:?}"),
    };
    for family in [
        "# TYPE hyperqd_queries_total counter",
        "hyperqd_queries_total{outcome=\"ok\"} 1",
        "hyperqd_query_latency_us{quantile=\"0.5\"}",
        "hyperqd_query_latency_us_count 1",
        "hyperqd_in_flight_queries 0",
    ] {
        assert!(
            text.contains(family),
            "exposition lacks {family:?}:\n{text}"
        );
    }

    assert_eq!(
        c.round_trip(&Request::Shutdown { now: false }),
        Response::Bye
    );
    assert!(handle.join().drained_clean);
}
