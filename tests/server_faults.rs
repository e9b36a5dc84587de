//! Over-the-wire fault injection for `hyperqd` (feature `failpoints`).
//!
//! A request can arm `reldb`'s deterministic failpoints through the
//! protocol's `fail_at_semijoin`/`fail_panic` overrides.  These tests
//! prove the blast radius is one query: the injected failure surfaces as
//! a typed error response *on that connection*, concurrent clients'
//! answers stay byte-identical to the oracle, the failing connection
//! itself remains usable, and the server survives to shut down cleanly —
//! including gracefully under load, draining or cancelling every
//! in-flight query.  The last case needs no failpoint: a client that
//! pipelines large queries and never reads a reply is cut off by the
//! server's write timeout, alone.

#![cfg(feature = "failpoints")]

use acyclic_hypergraphs::hyperqd::json::Json;
use acyclic_hypergraphs::hyperqd::protocol::{
    parse_response, render_request, render_response, EngineKind, ErrorKind, Overrides, QuerySpec,
    Request, Response,
};
use acyclic_hypergraphs::hyperqd::server::{answer_frame, Server, ServerHandle};
use acyclic_hypergraphs::reldb::{query_yannakakis, Database};
use acyclic_hypergraphs::workload::{chain, consistent_database, ring, DataParams};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn db(
    schema: &acyclic_hypergraphs::hypergraph::Hypergraph,
    tuples: usize,
    seed: u64,
) -> Arc<Database> {
    Arc::new(consistent_database(
        schema,
        DataParams {
            tuples_per_relation: tuples,
            domain: 7,
            skew: 0.0,
            key_cap: 0,
        },
        seed,
    ))
}

fn serve() -> (ServerHandle, Arc<Database>, Arc<Database>) {
    let chain_db = db(&chain(4, 3, 1), 48, 21);
    let ring_db = db(&ring(5), 40, 22);
    let server = Server::bind_preloaded(
        "127.0.0.1:0",
        vec![
            ("chain".into(), Arc::clone(&chain_db)),
            ("ring".into(), Arc::clone(&ring_db)),
        ],
    )
    .expect("bind");
    (server.spawn(), chain_db, ring_db)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Reply bytes read so far, newlines included.
    received: u64,
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
            received: 0,
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
        self.received += n as u64;
        parse_response(buf.trim_end()).expect("well-formed response")
    }
}

fn ring_query(overrides: Overrides) -> Request {
    Request::Query(QuerySpec {
        db: "ring".into(),
        select: vec!["N0000".into(), "N0002".into()],
        engine: Some(EngineKind::Yannakakis),
        overrides,
    })
}

fn oracle_answer(db: &Database, select: &[&str]) -> Response {
    let x = db
        .attributes(select.iter().copied())
        .expect("attributes resolve");
    answer_frame(db, &query_yannakakis(db, &x).expect("oracle"), None)
}

/// Asserts the server stamped a well-formed trace id on an answer frame,
/// then re-renders it trace-free so oracle byte-comparisons hold.
fn stripped(got: Response) -> String {
    match got {
        Response::Answer {
            attrs,
            rows,
            metrics,
            trace,
        } => {
            assert!(
                trace.as_deref().is_some_and(|t| t.starts_with("q-")),
                "answer frame lacks a trace id: {trace:?}"
            );
            render_response(&Response::Answer {
                attrs,
                rows,
                metrics,
                trace: None,
            })
        }
        other => panic!("expected an answer frame, got {other:?}"),
    }
}

/// Asserts an error frame carries the per-query trace id — the handle
/// that correlates a client-visible failure with the server's slow-query
/// log and stderr.
fn assert_traced(e: &acyclic_hypergraphs::hyperqd::WireError) {
    assert!(
        e.trace.as_deref().is_some_and(|t| t.starts_with("q-")),
        "error frame lacks a trace id: {e}"
    );
}

fn shut_down_clean(handle: ServerHandle, now: bool) -> acyclic_hypergraphs::hyperqd::ServeStats {
    let mut c = Client::connect(handle.addr());
    assert_eq!(c.round_trip(&Request::Shutdown { now }), Response::Bye);
    let stats = handle.join();
    assert!(stats.drained_clean, "drain must finish clean: {stats:?}");
    stats
}

#[test]
fn injected_error_surfaces_as_a_typed_response_and_spares_everyone_else() {
    let (handle, _chain_db, ring_db) = serve();
    let addr = handle.addr();
    let want = render_response(&oracle_answer(&ring_db, &["N0000", "N0002"]));

    // Concurrent bystanders run clean queries the whole time.
    let bystanders: Vec<_> = (0..3)
        .map(|_| {
            let want = want.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for _ in 0..10 {
                    let got = c.round_trip(&ring_query(Overrides::default()));
                    assert_eq!(stripped(got), want, "bystander answer diverged");
                }
            })
        })
        .collect();

    // The faulty client arms a failpoint at the first semijoin.
    let mut faulty = Client::connect(addr);
    for _ in 0..10 {
        match faulty.round_trip(&ring_query(Overrides {
            fail_at_semijoin: Some(0),
            ..Overrides::default()
        })) {
            Response::Error(e) => {
                assert_eq!(e.kind, ErrorKind::Cancelled, "fired failpoint: {e}");
                assert_traced(&e);
            }
            other => panic!("armed failpoint produced {other:?}"),
        }
    }
    // The same connection still works for clean queries afterwards.
    let got = faulty.round_trip(&ring_query(Overrides::default()));
    assert_eq!(stripped(got), want);

    for t in bystanders {
        t.join().expect("bystander diverged or died");
    }
    shut_down_clean(handle, false);
}

#[test]
fn injected_panic_is_contained_to_the_query() {
    let (handle, _chain_db, ring_db) = serve();
    let mut c = Client::connect(handle.addr());
    match c.round_trip(&ring_query(Overrides {
        fail_at_semijoin: Some(0),
        fail_panic: Some(true),
        ..Overrides::default()
    })) {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::Panic, "injected panic: {e}");
            assert_eq!(e.kind.code(), 5);
            assert_traced(&e);
        }
        other => panic!("injected panic produced {other:?}"),
    }
    // Same connection, same server: a clean query still answers.
    let want = render_response(&oracle_answer(&ring_db, &["N0000", "N0002"]));
    let got = c.round_trip(&ring_query(Overrides::default()));
    assert_eq!(stripped(got), want);
    shut_down_clean(handle, false);
}

/// Graceful shutdown under load: workers hammer the server while another
/// client asks it to stop.  Every worker response must be a well-formed
/// frame — a correct answer or a typed `shutdown` refusal — and the
/// server drains clean with no orphan queries.
#[test]
fn graceful_shutdown_under_load_drains_cleanly() {
    let (handle, chain_db, _ring_db) = serve();
    let addr = handle.addr();
    let want = render_response(&oracle_answer(&chain_db, &["N00000", "N00004"]));

    let workers: Vec<_> = (0..4)
        .map(|_| {
            let want = want.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let mut answered = 0u32;
                for _ in 0..40 {
                    let request = Request::Query(QuerySpec {
                        db: "chain".into(),
                        select: vec!["N00000".into(), "N00004".into()],
                        engine: None,
                        overrides: Overrides::default(),
                    });
                    match c.round_trip(&request) {
                        Response::Error(e) => {
                            // Once shutdown begins this is the only
                            // acceptable error; stop sending.
                            assert_eq!(e.kind, ErrorKind::Shutdown, "under load: {e}");
                            assert_traced(&e);
                            break;
                        }
                        got @ Response::Answer { .. } => {
                            assert_eq!(stripped(got), want, "answer diverged");
                            answered += 1;
                        }
                        other => panic!("unexpected frame {other:?}"),
                    }
                }
                answered
            })
        })
        .collect();

    // Let the load build, then pull the plug gracefully.
    std::thread::sleep(Duration::from_millis(50));
    let stats = shut_down_clean(handle, false);

    let mut total = 0u32;
    for w in workers {
        total += w.join().expect("worker saw a malformed shutdown");
    }
    assert!(
        total > 0,
        "soak produced no successful answers before shutdown"
    );
    assert!(stats.queries >= u64::from(total));
}

/// `shutdown now` cancels in-flight queries through the shared token:
/// responses after the cut are `cancelled` or `shutdown`, each one a
/// typed frame on its own connection, and the drain still finishes.
#[test]
fn shutdown_now_cancels_in_flight_queries_cleanly() {
    let (handle, chain_db, _ring_db) = serve();
    let addr = handle.addr();
    let want = render_response(&oracle_answer(&chain_db, &["N00000", "N00006"]));

    let workers: Vec<_> = (0..4)
        .map(|_| {
            let want = want.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for _ in 0..40 {
                    let request = Request::Query(QuerySpec {
                        db: "chain".into(),
                        select: vec!["N00000".into(), "N00006".into()],
                        engine: None,
                        overrides: Overrides::default(),
                    });
                    match c.round_trip(&request) {
                        Response::Error(e) => {
                            assert!(
                                matches!(e.kind, ErrorKind::Shutdown | ErrorKind::Cancelled),
                                "shutdown-now leaked error {e}"
                            );
                            assert_traced(&e);
                            break;
                        }
                        got @ Response::Answer { .. } => {
                            assert_eq!(stripped(got), want, "answer diverged");
                        }
                        other => panic!("unexpected frame {other:?}"),
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(30));
    shut_down_clean(handle, true);
    for w in workers {
        w.join().expect("worker saw a malformed cancellation");
    }
}

/// The counter `key` of a stats snapshot, or of its labelled family `key`
/// summed over the labels.
fn counter(stats: &Json, key: &str) -> u64 {
    match stats.get(key) {
        Some(Json::Obj(labels)) => labels.iter().filter_map(|(_, v)| v.as_u64()).sum(),
        Some(v) => v
            .as_u64()
            .unwrap_or_else(|| panic!("{key} is not a counter: {v}")),
        None => panic!("stats snapshot lacks {key}: {stats}"),
    }
}

/// A client pipelines queries with large answers and never reads a byte.
/// The server must not let it pin a thread, a reply buffer and an
/// in-flight guard forever: once the socket has taken nothing for the
/// write timeout, that connection — and only that one — is closed.  A
/// second connection is served throughout, the registry's conservation
/// invariants (`scripts/check_stats.py`) hold afterwards, `bytes_out`
/// counts what sockets took rather than what was rendered, and a graceful
/// shutdown drains clean.
#[test]
fn a_client_that_never_reads_is_cut_off_alone_and_the_drain_still_finishes() {
    let wide_db = Arc::new(consistent_database(
        &chain(3, 2, 1),
        DataParams {
            tuples_per_relation: 400,
            domain: 50,
            skew: 0.0,
            key_cap: 0,
        },
        23,
    ));
    let select = ["N00000", "N00001", "N00002", "N00003"];
    let handle = Server::bind_preloaded("127.0.0.1:0", vec![("wide".into(), Arc::clone(&wide_db))])
        .expect("bind")
        .spawn();
    let addr = handle.addr();
    let request = Request::Query(QuerySpec {
        db: "wide".into(),
        select: select.map(String::from).to_vec(),
        engine: None,
        overrides: Overrides::default(),
    });
    let want = render_response(&oracle_answer(&wide_db, &select));
    // A reply as sent: the frame, its trace id, the newline.
    let reply_len = (want.len() + ",\"trace\":\"q-000001\"".len() + 1) as u64;
    assert!(reply_len > 64 << 10, "each reply must pass the flush bound");

    // 64 MiB of replies is far more than loopback socket buffers take.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    let line = format!("{}\n", render_request(&request));
    let pipelined = (64 << 20) / reply_len + 1;
    stalled
        .write_all(line.repeat(pipelined as usize).as_bytes())
        .expect("send the pipeline");

    let started = Instant::now();
    let mut bystander = Client::connect(addr);
    let mut bystander_queries = 0;
    let scrape = |c: &mut Client| match c.round_trip(&Request::Stats { prometheus: false }) {
        Response::Stats {
            stats: Some(stats), ..
        } => stats,
        other => panic!("stats scrape got {other:?}"),
    };
    // Served while the other connection is stuck; then wait for the server
    // to give up on it: nothing in flight and no query finished between
    // two scrapes (the stalled connection is either mid-query, blocked in
    // its write with the query still in flight, or closed).
    let mut last = None;
    let stats = loop {
        assert_eq!(stripped(bystander.round_trip(&request)), want);
        bystander_queries += 1;
        let stats = scrape(&mut bystander);
        let seen = (
            counter(&stats, "in_flight"),
            counter(&stats, "queries_total"),
        );
        if seen.0 == 0 && last == Some((0, seen.1 - 1)) {
            break stats;
        }
        last = Some(seen);
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "the stalled connection was never cut off: {stats}"
        );
        std::thread::sleep(Duration::from_millis(200));
    };

    // check_stats.py's conservation invariants.
    assert_eq!(
        counter(&stats, "requests_total"),
        counter(&stats, "requests_by_op")
    );
    assert_eq!(
        counter(&stats, "queries_total"),
        counter(&stats, "queries_by_outcome")
    );
    assert!(counter(&stats, "queries_by_engine") <= counter(&stats, "queries_total"));
    // Every executed query succeeded; the stalled client's share of them
    // is what the bystander did not send.
    let executed = counter(&stats, "queries_total");
    assert_eq!(
        stats.get("queries_by_outcome").and_then(|o| o.get("ok")),
        Some(&Json::Int(executed as i64))
    );
    let stalled_queries = executed - bystander_queries;
    assert!(
        (1..pipelined).contains(&stalled_queries),
        "the stalled pipeline ran {stalled_queries} of {pipelined} queries"
    );
    // The reply the write gave up on was rendered but not taken whole.
    let bytes_out = counter(&stats, "bytes_out");
    assert!(
        bytes_out < stalled_queries * reply_len + bystander.received,
        "bytes_out {bytes_out} counts bytes no socket took \
         ({stalled_queries} stalled replies of {reply_len} B, bystander read {})",
        bystander.received
    );
    assert!(bytes_out >= bystander.received);

    shut_down_clean(handle, false);
    // The server closed the stalled connection: reading it now ends (EOF,
    // or a reset since requests were left unread) instead of blocking.
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut sink = Vec::new();
    if let Err(e) = stalled.read_to_end(&mut sink) {
        assert_ne!(e.kind(), std::io::ErrorKind::WouldBlock, "still open");
        assert_ne!(e.kind(), std::io::ErrorKind::TimedOut, "still open");
    }
    assert!((sink.len() as u64) < stalled_queries * reply_len);
}

/// A loaded chain whose all-attributes answer renders to well over what
/// loopback sockets buffer for a reader that stops reading, served alone:
/// the server, the database and the query with its rendered answer.
fn long_reply_server() -> (ServerHandle, Request, String) {
    let built = consistent_database(
        &chain(3, 2, 1),
        DataParams {
            tuples_per_relation: 6_000,
            domain: 600,
            skew: 0.0,
            key_cap: 0,
        },
        31,
    );
    let db = Arc::new(Database::from_snapshot_bytes(&built.to_snapshot_bytes()).unwrap());
    let select = ["N00000", "N00001", "N00002", "N00003"];
    let want = render_response(&oracle_answer(&db, &select));
    assert!(want.len() > 8 << 20, "a {} byte reply", want.len());
    let request = Request::Query(QuerySpec {
        db: "long".into(),
        select: select.map(String::from).to_vec(),
        engine: None,
        overrides: Overrides::default(),
    });
    let handle = Server::bind_preloaded("127.0.0.1:0", vec![("long".into(), db)])
        .expect("bind")
        .spawn();
    (handle, request, want)
}

/// A peer that hangs up while its long reply is being written in pieces
/// costs the server that connection only: the next piece's write fails,
/// the connection closes, its query is no longer in flight, and the
/// server still answers `ping` and drains clean.
#[test]
fn a_peer_that_hangs_up_mid_reply_leaves_the_server_answering() {
    let (handle, request, want) = long_reply_server();
    let addr = handle.addr();
    let mut gone = TcpStream::connect(addr).expect("connect");
    gone.write_all(format!("{}\n", render_request(&request)).as_bytes())
        .expect("send");
    let mut first = [0u8; 1024];
    gone.read_exact(&mut first).expect("the reply starts");
    drop(gone);

    let mut c = Client::connect(addr);
    let started = Instant::now();
    loop {
        assert_eq!(c.round_trip(&Request::Ping), Response::Pong);
        let stats = match c.round_trip(&Request::Stats { prometheus: false }) {
            Response::Stats {
                stats: Some(stats), ..
            } => stats,
            other => panic!("stats scrape got {other:?}"),
        };
        if counter(&stats, "in_flight") == 0 {
            assert!(counter(&stats, "bytes_out") < want.len() as u64);
            break;
        }
        assert!(started.elapsed() < Duration::from_secs(60), "{stats}");
        std::thread::sleep(Duration::from_millis(50));
    }
    shut_down_clean(handle, false);
}

/// A graceful shutdown that arrives while a long reply is still being
/// written waits for its last piece: the server has not returned while the
/// client holds the rest unread, and once it reads on, the reply is whole
/// and the drain clean.
#[test]
fn a_graceful_drain_waits_for_the_last_piece_of_a_reply() {
    let (handle, request, want) = long_reply_server();
    let addr = handle.addr();
    let mut slow = Client::connect(addr);
    slow.writer
        .write_all(format!("{}\n", render_request(&request)).as_bytes())
        .expect("send");
    // The reply has started, so its query is in flight.
    assert!(!slow.reader.fill_buf().expect("the reply starts").is_empty());

    let mut closer = Client::connect(addr);
    assert_eq!(
        closer.round_trip(&Request::Shutdown { now: false }),
        Response::Bye
    );
    let server = std::thread::spawn(move || handle.join());
    std::thread::sleep(Duration::from_millis(300));
    assert!(!server.is_finished(), "the drain left a reply half written");

    let mut line = String::new();
    slow.reader
        .read_line(&mut line)
        .expect("the rest of the reply");
    assert_eq!(stripped(parse_response(line.trim_end()).unwrap()), want);
    let stats = server.join().expect("the server thread");
    assert!(stats.drained_clean, "{stats:?}");
    assert_eq!(stats.queries, 1);
}
