//! Differential concurrency soak for `hyperqd`: 8 client threads fire a
//! mixed workload — acyclic chains and stars, a cyclic ring routed through
//! hypertree decomposition, prepared queries, policy overrides, governed
//! timeouts — at one in-process server, and every successful answer must
//! be **byte-identical** to the frame the sequential single-threaded
//! oracle renders for the same query.  After the soak the served
//! databases' snapshots are bit-identical to their pre-soak snapshots
//! (queries never mutate), and a graceful shutdown drains cleanly.
//!
//! Byte-identity works because [`answer_frame`] is canonical (attributes
//! in universe order, rows sorted) and both sides render through it; any
//! cross-thread interference, lost lease, or engine divergence shows up as
//! a frame diff on some thread.  The server stamps every answer with a
//! per-query trace id the oracle can't predict; each soak client asserts
//! the id is present and well-formed, strips it, and byte-compares the
//! rest.

use acyclic_hypergraphs::hyperqd::protocol::{
    render_request, render_response, EngineKind, ErrorKind, Overrides, QuerySpec, Request, Response,
};
use acyclic_hypergraphs::hyperqd::server::{answer_frame, Server};
use acyclic_hypergraphs::hyperqd::{parse_response, ServerHandle};
use acyclic_hypergraphs::reldb::{
    query_via_connection, query_via_full_join, query_yannakakis, Database, JoinStrategy,
};
use acyclic_hypergraphs::workload::{chain, consistent_database, ring, star, DataParams};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 30; // 240 total, over the 200 floor

fn data(tuples: usize, domain: i64) -> DataParams {
    DataParams {
        tuples_per_relation: tuples,
        domain,
        skew: 0.0,
        key_cap: 0,
    }
}

/// The served databases: two acyclic families and one cyclic (decomposed
/// pipeline), sized so queries are non-trivial but a 240-query soak stays
/// fast on one CPU.
fn databases() -> BTreeMap<String, Arc<Database>> {
    let mut dbs = BTreeMap::new();
    let chain_schema = chain(4, 3, 1);
    dbs.insert(
        "chain".to_owned(),
        Arc::new(consistent_database(&chain_schema, data(48, 8), 11)),
    );
    let star_schema = star(4, 3);
    dbs.insert(
        "star".to_owned(),
        Arc::new(consistent_database(&star_schema, data(32, 6), 12)),
    );
    let ring_schema = ring(5);
    dbs.insert(
        "ring".to_owned(),
        Arc::new(consistent_database(&ring_schema, data(40, 7), 13)),
    );
    dbs
}

/// One soak workload: the request to send and the exact frame expected
/// back (`None` for governed-timeout workloads, checked by kind instead).
#[derive(Clone)]
struct Workload {
    request: String,
    expect: Expected,
}

#[derive(Clone, PartialEq, Debug)]
enum Expected {
    /// The full response line, byte for byte.
    Frame(String),
    /// An error response of this kind (its message carries timing noise).
    ErrorKind(ErrorKind),
}

/// Renders the oracle frame for `spec` by running the same engine the
/// server dispatches to — sequentially, ungoverned, in this thread — and
/// serializing through the server's own canonical [`answer_frame`].
fn oracle_frame(dbs: &BTreeMap<String, Arc<Database>>, spec: &QuerySpec) -> String {
    let db = &dbs[&spec.db];
    let x = db
        .attributes(spec.select.iter().map(String::as_str))
        .expect("soak selects name real attributes");
    let answer = match spec.engine.unwrap_or_default() {
        EngineKind::Yannakakis => query_yannakakis(db, &x).expect("oracle query"),
        EngineKind::Connection => query_via_connection(db, &x),
        EngineKind::Naive => query_via_full_join(db, &x),
    };
    render_response(&answer_frame(db, &answer, None))
}

/// Deterministic workload mix: every (client, step) pair maps to a spec
/// through a fixed table, so the soak reproduces exactly.
fn build_workloads(dbs: &BTreeMap<String, Arc<Database>>) -> Vec<Workload> {
    // (db, select, engine) templates covering all three databases and all
    // three engines; selects span multiple relations to force real joins.
    let templates: &[(&str, &[&str], Option<EngineKind>)] = &[
        ("chain", &["N00000", "N00002"], None),
        ("chain", &["N00001", "N00004"], Some(EngineKind::Yannakakis)),
        ("chain", &["N00000", "N00006"], Some(EngineKind::Connection)),
        ("chain", &["N00002", "N00003"], Some(EngineKind::Naive)),
        ("star", &["K000", "K002"], Some(EngineKind::Yannakakis)),
        ("star", &["K001", "S001_1"], Some(EngineKind::Connection)),
        ("star", &["K003", "S003_2"], None),
        ("ring", &["N0000", "N0002"], Some(EngineKind::Yannakakis)),
        ("ring", &["N0001", "N0003"], Some(EngineKind::Yannakakis)),
        (
            "ring",
            &["N0000", "N0001", "N0002"],
            Some(EngineKind::Yannakakis),
        ),
    ];
    // Exec-policy variations layered on top; none of these may change the
    // canonical answer frame.
    let policies = [
        Overrides::default(),
        Overrides {
            strategy: Some(JoinStrategy::Hash),
            ..Overrides::default()
        },
        Overrides {
            strategy: Some(JoinStrategy::SortMerge),
            ..Overrides::default()
        },
        Overrides {
            strategy: Some(JoinStrategy::Auto),
            threads: Some(2),
            ..Overrides::default()
        },
    ];
    let mut workloads = Vec::new();
    for (i, (db, select, engine)) in templates.iter().enumerate() {
        for (j, policy) in policies.iter().enumerate() {
            let spec = QuerySpec {
                db: (*db).to_owned(),
                select: select.iter().map(|s| (*s).to_owned()).collect(),
                engine: *engine,
                overrides: policy.clone(),
            };
            let expect = Expected::Frame(oracle_frame(dbs, &spec));
            // Every fourth variation rides the prepared-query path; the
            // expected frame is identical either way.
            let request = if (i + j) % 4 == 0 {
                render_request(&Request::Run {
                    name: format!("prep{i}"),
                    overrides: spec.overrides.clone(),
                })
            } else {
                render_request(&Request::Query(spec))
            };
            workloads.push(Workload { request, expect });
        }
    }
    // Governed-timeout workloads: a zero deadline trips the governor at
    // its first checkpoint, deterministically.
    for (db, select) in [("chain", "N00000"), ("ring", "N0000")] {
        workloads.push(Workload {
            request: render_request(&Request::Query(QuerySpec {
                db: db.to_owned(),
                select: vec![select.to_owned()],
                engine: Some(EngineKind::Yannakakis),
                overrides: Overrides {
                    timeout_ms: Some(0),
                    ..Overrides::default()
                },
            })),
            expect: Expected::ErrorKind(ErrorKind::Deadline),
        });
    }
    workloads
}

/// Registers the prepared queries the `Run` workloads reference: one per
/// template, engine and select stored server-side, overrides per request.
fn prepare_all(addr: SocketAddr, dbs: &BTreeMap<String, Arc<Database>>) {
    let templates: &[(&str, &[&str], Option<EngineKind>)] = &[
        ("chain", &["N00000", "N00002"], None),
        ("chain", &["N00001", "N00004"], Some(EngineKind::Yannakakis)),
        ("chain", &["N00000", "N00006"], Some(EngineKind::Connection)),
        ("chain", &["N00002", "N00003"], Some(EngineKind::Naive)),
        ("star", &["K000", "K002"], Some(EngineKind::Yannakakis)),
        ("star", &["K001", "S001_1"], Some(EngineKind::Connection)),
        ("star", &["K003", "S003_2"], None),
        ("ring", &["N0000", "N0002"], Some(EngineKind::Yannakakis)),
        ("ring", &["N0001", "N0003"], Some(EngineKind::Yannakakis)),
        (
            "ring",
            &["N0000", "N0001", "N0002"],
            Some(EngineKind::Yannakakis),
        ),
    ];
    let mut client = SoakClient::connect(addr);
    for (i, (db, select, engine)) in templates.iter().enumerate() {
        assert!(dbs.contains_key(*db));
        let response = client.round_trip(&render_request(&Request::Prepare {
            name: format!("prep{i}"),
            spec: QuerySpec {
                db: (*db).to_owned(),
                select: select.iter().map(|s| (*s).to_owned()).collect(),
                engine: *engine,
                overrides: Overrides::default(),
            },
        }));
        assert!(
            matches!(parse_response(&response), Ok(Response::Prepared { .. })),
            "prepare {i} got {response}"
        );
    }
}

struct SoakClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl SoakClient {
    fn connect(addr: SocketAddr) -> SoakClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let writer = stream.try_clone().expect("clone");
        SoakClient {
            reader: BufReader::new(stream),
            writer,
        }
    }

    /// Sends one frame, returns the raw response line (no terminator).
    fn round_trip(&mut self, request_line: &str) -> String {
        self.writer
            .write_all(request_line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .expect("send");
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read in time");
        assert!(n > 0, "server closed mid-soak");
        line.truncate(line.trim_end().len());
        line
    }
}

/// Asserts the server stamped a well-formed trace id on an answer frame,
/// then re-renders the frame without it so the byte-identity comparison
/// against the (trace-free) oracle frame still holds.
fn strip_trace(got: &str) -> Option<String> {
    match parse_response(got) {
        Ok(Response::Answer {
            attrs,
            rows,
            metrics,
            trace: Some(trace),
        }) if trace.starts_with("q-") => Some(render_response(&Response::Answer {
            attrs,
            rows,
            metrics,
            trace: None,
        })),
        _ => None,
    }
}

fn shut_down_clean(handle: ServerHandle) -> acyclic_hypergraphs::hyperqd::ServeStats {
    let mut c = SoakClient::connect(handle.addr());
    let bye = c.round_trip(&render_request(&Request::Shutdown { now: false }));
    assert!(
        matches!(parse_response(&bye), Ok(Response::Bye)),
        "shutdown got {bye}"
    );
    let stats = handle.join();
    assert!(stats.drained_clean, "drain must finish clean: {stats:?}");
    stats
}

#[test]
fn concurrent_soak_is_byte_identical_to_the_sequential_oracle() {
    let dbs = databases();
    let pre_soak: BTreeMap<String, Vec<u8>> = dbs
        .iter()
        .map(|(name, db)| (name.clone(), db.to_snapshot_bytes()))
        .collect();
    let workloads = Arc::new(build_workloads(&dbs));

    let server = Server::bind_preloaded(
        "127.0.0.1:0",
        dbs.iter()
            .map(|(name, db)| (name.clone(), Arc::clone(db)))
            .collect(),
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    prepare_all(addr, &dbs);

    let threads: Vec<_> = (0..CLIENTS)
        .map(|client_id| {
            let workloads = Arc::clone(&workloads);
            std::thread::spawn(move || {
                let mut client = SoakClient::connect(addr);
                let mut failures = Vec::new();
                for step in 0..QUERIES_PER_CLIENT {
                    // Stride by a prime co-prime to the table size so each
                    // client walks the whole mix in a different order.
                    let w = &workloads[(client_id * 7 + step * 13) % workloads.len()];
                    let got = client.round_trip(&w.request);
                    let ok = match &w.expect {
                        Expected::Frame(frame) => {
                            strip_trace(&got).as_deref() == Some(frame.as_str())
                        }
                        // Error frames carry the trace id too, so a failed
                        // query is still correlatable with the slow-query
                        // log and the server's stderr.
                        Expected::ErrorKind(kind) => matches!(
                            parse_response(&got),
                            Ok(Response::Error(e))
                                if e.kind == *kind
                                    && e.trace.as_deref().is_some_and(|t| t.starts_with("q-"))
                        ),
                    };
                    if !ok {
                        failures.push(format!(
                            "client {client_id} step {step}:\n  sent {}\n  want {:?}\n  got  {got}",
                            w.request, w.expect
                        ));
                    }
                }
                failures
            })
        })
        .collect();

    let mut failures = Vec::new();
    for t in threads {
        failures.extend(t.join().expect("soak client panicked"));
    }
    assert!(
        failures.is_empty(),
        "{} divergent responses:\n{}",
        failures.len(),
        failures.join("\n")
    );

    let stats = shut_down_clean(handle);
    let executed = (CLIENTS * QUERIES_PER_CLIENT) as u64;
    assert!(
        stats.queries >= executed,
        "server saw {} queries, soak sent {executed}",
        stats.queries
    );

    // Queries never mutate: the served databases' snapshots are
    // bit-identical to the pre-soak snapshots.
    for (name, db) in &dbs {
        assert_eq!(
            db.to_snapshot_bytes(),
            pre_soak[name],
            "database {name} changed during the soak"
        );
    }
}

/// Metrics-carrying answers can't be byte-compared (timings), but their
/// relational payload must still match the oracle and the metrics document
/// must be present and well-formed — under concurrency.
#[test]
fn concurrent_metrics_answers_match_the_oracle_payload() {
    let dbs = databases();
    let server = Server::bind_preloaded(
        "127.0.0.1:0",
        dbs.iter()
            .map(|(name, db)| (name.clone(), Arc::clone(db)))
            .collect(),
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let spec = QuerySpec {
        db: "ring".to_owned(),
        select: vec!["N0000".to_owned(), "N0002".to_owned()],
        engine: Some(EngineKind::Yannakakis),
        overrides: Overrides {
            metrics: Some(true),
            ..Overrides::default()
        },
    };
    let want = {
        let mut plain = spec.clone();
        plain.overrides.metrics = None;
        oracle_frame(&dbs, &plain)
    };
    let want = match parse_response(&want).expect("oracle frame parses") {
        Response::Answer { attrs, rows, .. } => (attrs, rows),
        other => panic!("oracle produced {other:?}"),
    };

    let threads: Vec<_> = (0..4)
        .map(|_| {
            let spec = spec.clone();
            let want = want.clone();
            std::thread::spawn(move || {
                let mut client = SoakClient::connect(addr);
                for _ in 0..8 {
                    let got = client.round_trip(&render_request(&Request::Query(spec.clone())));
                    match parse_response(&got).expect("answer parses") {
                        Response::Answer {
                            attrs,
                            rows,
                            metrics,
                            trace,
                        } => {
                            assert_eq!((attrs, rows), want);
                            assert!(
                                trace.as_deref().is_some_and(|t| t.starts_with("q-")),
                                "metrics answer lacks a trace id: {trace:?}"
                            );
                            let m = metrics.expect("metrics requested but absent");
                            let leases = m
                                .get("pool")
                                .and_then(|p| p.get("leases"))
                                .and_then(|l| l.as_arr())
                                .unwrap_or_else(|| {
                                    panic!("metrics document lacks lease stats: {m}")
                                });
                            // The whole decomposed pipeline shares one
                            // worker lease — the lease-count regression
                            // guard, observed over the wire.
                            assert_eq!(leases.len(), 1, "leases: {m}");
                        }
                        other => panic!("metrics query got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("metrics client panicked");
    }
    shut_down_clean(handle);
}
