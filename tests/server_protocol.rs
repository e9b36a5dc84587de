//! Protocol property suite for the `hyperqd` wire format and server
//! framing: serialization round-trips exactly (`parse ∘ render` is the
//! identity on every frame), and malformed input — truncations, bad JSON,
//! oversized lines, interleaved garbage, invalid UTF-8 — always yields a
//! structured error response, never a panic and never a hung connection.
//!
//! The live-server half drives an in-process [`Server`] on an ephemeral
//! port; every read carries a timeout so a server that stops answering
//! fails the test instead of wedging the suite.

use acyclic_hypergraphs::hypergraph::{EdgeId, Hypergraph};
use acyclic_hypergraphs::hyperqd::json::Json;
use acyclic_hypergraphs::hyperqd::load::DbSource;
use acyclic_hypergraphs::hyperqd::protocol::{
    metrics_json, parse_request, parse_response, render_request, render_response, DbInfo,
    EngineKind, ErrorKind, Overrides, QuerySpec, Request, Response, Rows, WireError, MAX_LINE,
};
use acyclic_hypergraphs::hyperqd::server::{answer_frame, run_engine, Server, ServerConfig};
use acyclic_hypergraphs::reldb::{query_yannakakis, CollectingSink, Database, ExecCtx, Value};
use acyclic_hypergraphs::workload::{
    chain, consistent_database, random_database, ring, DataParams,
};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------- builders

/// A random [`Overrides`] decoded from integer dice.
fn arb_overrides(bits: u64, a: u64, b: u64) -> Overrides {
    Overrides {
        timeout_ms: (bits & 0b1000 != 0).then_some(b % 10_000),
        mem_budget_mb: (bits & 0b1_0000 != 0).then_some(1 + a % 512),
        metrics: (bits & 0b10_0000 != 0).then_some(bits & 0b100_0000 != 0),
        fail_at_semijoin: (bits & 0b1000_0000 != 0).then_some(b % 17),
        fail_panic: (bits & 0b1_0000_0000 != 0).then_some(a & 1 == 0),
    }
}

/// A random [`QuerySpec`] over synthetic names (including characters that
/// need JSON escaping).
fn arb_spec(sel: u64, bits: u64, a: u64, b: u64) -> QuerySpec {
    let names = ["A", "B2", "weird \"name\"", "tab\tchar", "Ω", "N00001"];
    let k = 1 + (sel as usize % names.len());
    QuerySpec {
        db: format!("db{}", sel % 5),
        select: names[..k].iter().map(|s| (*s).to_owned()).collect(),
        engine: match sel % 4 {
            0 => None,
            1 => Some(EngineKind::Yannakakis),
            2 => Some(EngineKind::Connection),
            _ => Some(EngineKind::Naive),
        },
        overrides: arb_overrides(bits, a, b),
    }
}

fn arb_request(sel: u64, bits: u64, a: u64, b: u64) -> Request {
    match sel % 7 {
        0 => Request::Ping,
        1 => Request::List,
        2 => Request::Shutdown { now: a & 1 == 1 },
        3 => Request::Query(arb_spec(a, bits, a, b)),
        4 => Request::Prepare {
            name: format!("prep\n{}", a % 7),
            spec: arb_spec(b, bits, a, b),
        },
        5 => Request::Stats {
            prometheus: b & 1 == 1,
        },
        _ => Request::Run {
            name: format!("q{}", a % 7),
            overrides: arb_overrides(bits, a, b),
        },
    }
}

fn arb_response(sel: u64, bits: u64, a: u64, b: u64) -> Response {
    match sel % 7 {
        0 => Response::Pong,
        1 => Response::Bye,
        2 => Response::Prepared {
            name: format!("p{}", a % 9),
        },
        3 => Response::Listing {
            databases: (0..a % 4)
                .map(|i| DbInfo {
                    name: format!("db{i}"),
                    relations: b % 10,
                    tuples: b % 1000,
                    acyclic: (b >> i) & 1 == 1,
                })
                .collect(),
            queries: (0..b % 4).map(|i| format!("q{i}")).collect(),
        },
        4 => Response::Answer {
            attrs: (0..1 + a % 4).map(|i| format!("A{i}")).collect(),
            rows: Rows::from_rows(
                1 + (a % 4) as usize,
                &(0..b % 5)
                    .map(|r| {
                        (0..1 + a % 4)
                            .map(|c| {
                                if (bits >> (r + c)) & 1 == 1 {
                                    Json::Int((a ^ (r << c)) as i64 - 500)
                                } else {
                                    Json::Str(format!("v{r}\"{c}\\"))
                                }
                            })
                            .collect()
                    })
                    .collect::<Vec<Vec<Json>>>(),
            )
            .expect("every row has one cell per attribute"),
            metrics: (bits & 1 == 1).then(|| Json::Obj(vec![("x".into(), Json::Int(3))])),
            trace: (bits & 0b10 != 0).then(|| format!("q-{:06}", a % 1_000_000)),
        },
        5 => {
            // Exactly one of the JSON snapshot / Prometheus text sides is
            // populated — the invariant the parser enforces.
            if a & 1 == 1 {
                Response::Stats {
                    stats: Some(Json::Obj(vec![
                        ("uptime_ms".into(), Json::Int((b % 100_000) as i64)),
                        (
                            "latency_us".into(),
                            Json::Obj(vec![
                                ("count".into(), Json::Int((a % 50) as i64)),
                                (
                                    "buckets".into(),
                                    Json::Arr(vec![Json::Arr(vec![
                                        Json::Int((b % 400) as i64),
                                        Json::Int(1 + (a % 9) as i64),
                                    ])]),
                                ),
                            ]),
                        ),
                    ])),
                    text: None,
                }
            } else {
                Response::Stats {
                    stats: None,
                    text: Some(format!(
                        "# TYPE hyperqd_queries_total counter\nhyperqd_queries_total {}\n",
                        b % 1000
                    )),
                }
            }
        }
        _ => {
            let e = WireError::new(
                match a % 11 {
                    0 => ErrorKind::Proto,
                    1 => ErrorKind::UnknownDb,
                    2 => ErrorKind::UnknownQuery,
                    3 => ErrorKind::Schema,
                    4 => ErrorKind::Parse,
                    5 => ErrorKind::Io,
                    6 => ErrorKind::Deadline,
                    7 => ErrorKind::Cancelled,
                    8 => ErrorKind::Budget,
                    9 => ErrorKind::Panic,
                    _ => ErrorKind::Shutdown,
                },
                format!("detail {b} with \"quotes\" and \u{1F980}"),
            );
            Response::Error(if bits & 0b100 != 0 {
                e.with_trace(format!("q-{:06}", b % 1_000_000))
            } else {
                e
            })
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `parse_request ∘ render_request` is the identity on every frame.
    #[test]
    fn request_frames_round_trip(
        sel in any::<u64>(),
        bits in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let request = arb_request(sel, bits, a, b);
        let line = render_request(&request);
        prop_assert!(!line.contains('\n'), "frames must be single lines: {line}");
        prop_assert_eq!(parse_request(&line).unwrap(), request, "frame: {}", line);
    }

    /// `parse_response ∘ render_response` is the identity on every frame.
    #[test]
    fn response_frames_round_trip(
        sel in any::<u64>(),
        bits in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let response = arb_response(sel, bits, a, b);
        let line = render_response(&response);
        prop_assert!(!line.contains('\n'), "frames must be single lines: {line}");
        prop_assert_eq!(parse_response(&line).unwrap(), response, "frame: {}", line);
    }

    /// Truncating a valid frame at any byte boundary never panics the
    /// parser: the result is a parse (of a prefix that happens to be
    /// valid JSON — impossible for object frames) or a structured error.
    #[test]
    fn truncated_frames_never_panic(
        sel in any::<u64>(),
        bits in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let line = render_request(&arb_request(sel, bits, a, b));
        let mut cut = cut as usize % line.len();
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        if cut < line.len() {
            let e = parse_request(&line[..cut]).unwrap_err();
            prop_assert_eq!(e.kind, ErrorKind::Proto);
        }
    }

    /// Flipping an arbitrary byte of a valid frame never panics either
    /// parser; whatever comes back is a value or a structured error.
    #[test]
    fn mutated_frames_never_panic(
        sel in any::<u64>(),
        bits in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
        pos in any::<u64>(),
        xor in 1u16..256,
    ) {
        let line = render_request(&arb_request(sel, bits, a, b));
        let mut bytes = line.into_bytes();
        let at = pos as usize % bytes.len();
        bytes[at] ^= xor as u8;
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        let _ = parse_request(&mutated);
        let _ = parse_response(&mutated);
    }

    /// Arbitrary garbage bytes never panic the parsers.
    #[test]
    fn garbage_never_panics(seed in any::<u64>(), len in 0usize..200) {
        let mut state = seed;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let garbage = String::from_utf8_lossy(&bytes).into_owned();
        let _ = parse_request(&garbage);
        let _ = parse_response(&garbage);
    }
}

// ----------------------------------------------------------- live server

/// One test client with a bounded read: a server that stops answering
/// fails the test instead of hanging it.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let writer = stream.try_clone().expect("clone");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send");
        self.writer.flush().expect("flush");
    }

    /// One reply line as sent, without its newline.
    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .expect("read within timeout");
        assert!(n > 0, "server closed the connection instead of answering");
        assert_eq!(line.pop(), Some('\n'), "reply cut short: {line}");
        line
    }

    fn read_response(&mut self) -> Response {
        parse_response(&self.read_line()).expect("well-formed response frame")
    }

    fn round_trip(&mut self, request: &Request) -> Response {
        self.send_raw(format!("{}\n", render_request(request)).as_bytes());
        self.read_response()
    }
}

fn tiny_server() -> (
    acyclic_hypergraphs::hyperqd::server::ServerHandle,
    Arc<Database>,
) {
    let schema = chain(3, 2, 1);
    let db = Arc::new(consistent_database(
        &schema,
        DataParams {
            tuples_per_relation: 12,
            domain: 5,
            skew: 0.0,
            key_cap: 0,
        },
        42,
    ));
    let server = Server::bind_preloaded("127.0.0.1:0", vec![("chain".into(), Arc::clone(&db))])
        .expect("bind");
    (server.spawn(), db)
}

fn shut_down(handle: acyclic_hypergraphs::hyperqd::server::ServerHandle) {
    let mut c = Client::connect(handle.addr());
    assert_eq!(
        c.round_trip(&Request::Shutdown { now: false }),
        Response::Bye
    );
    let stats = handle.join();
    assert!(stats.drained_clean, "drain must finish: {stats:?}");
}

#[test]
fn malformed_frames_get_structured_errors_and_the_connection_survives() {
    let (handle, _db) = tiny_server();
    let mut c = Client::connect(handle.addr());
    for garbage in [
        "not json at all\n",
        "{\"op\":\"query\"}\n",
        "{\"op\": \"ping\"\n", // truncated JSON
        "[1,2,3]\n",
        "{\"op\":\"warp\"}\n",
        "\u{FFFD}\u{FFFD}\n",
    ] {
        c.send_raw(garbage.as_bytes());
        match c.read_response() {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::Proto, "input {garbage:?}"),
            other => panic!("garbage {garbage:?} got non-error {other:?}"),
        }
        // The connection is still good: a valid request right after works.
        assert_eq!(c.round_trip(&Request::Ping), Response::Pong);
    }
    shut_down(handle);
}

#[test]
fn invalid_utf8_bytes_get_a_structured_error() {
    let (handle, _db) = tiny_server();
    let mut c = Client::connect(handle.addr());
    c.send_raw(b"\xFF\xFE{\"op\":\"ping\"}\n");
    match c.read_response() {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::Proto),
        other => panic!("invalid UTF-8 got {other:?}"),
    }
    assert_eq!(c.round_trip(&Request::Ping), Response::Pong);
    shut_down(handle);
}

#[test]
fn blank_lines_are_ignored_keepalives() {
    let (handle, _db) = tiny_server();
    let mut c = Client::connect(handle.addr());
    c.send_raw(b"\n\r\n\n");
    assert_eq!(c.round_trip(&Request::Ping), Response::Pong);
    shut_down(handle);
}

#[test]
fn unterminated_final_line_is_still_answered() {
    let (handle, _db) = tiny_server();
    let mut c = Client::connect(handle.addr());
    // No trailing newline; half-close the write side to signal EOF.
    c.send_raw(render_request(&Request::Ping).as_bytes());
    c.writer
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    assert_eq!(c.read_response(), Response::Pong);
    shut_down(handle);
}

#[test]
fn oversized_line_gets_an_error_then_the_connection_closes() {
    let (handle, _db) = tiny_server();
    let mut c = Client::connect(handle.addr());
    // MAX_LINE+1 bytes of non-newline: unframeable.
    let big = vec![b'x'; MAX_LINE + 1];
    c.send_raw(&big);
    match c.read_response() {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::Proto),
        other => panic!("oversized line got {other:?}"),
    }
    // The server must close this connection (it cannot resynchronize).
    let mut rest = Vec::new();
    let n = c.reader.read_to_end(&mut rest).expect("read to EOF");
    assert_eq!(n, 0, "connection must be closed after an unframeable line");
    shut_down(handle);
}

#[test]
fn interleaved_garbage_keeps_real_requests_flowing_in_order() {
    let (handle, _db) = tiny_server();
    let mut c = Client::connect(handle.addr());
    // Batch: garbage, ping, garbage, list — written in one packet.  Every
    // frame is answered, in order.
    let batch = format!(
        "?!\n{}\n{{bad\n{}\n",
        render_request(&Request::Ping),
        render_request(&Request::List),
    );
    c.send_raw(batch.as_bytes());
    assert!(matches!(c.read_response(), Response::Error(e) if e.kind == ErrorKind::Proto));
    assert_eq!(c.read_response(), Response::Pong);
    assert!(matches!(c.read_response(), Response::Error(e) if e.kind == ErrorKind::Proto));
    match c.read_response() {
        Response::Listing { databases, .. } => {
            assert_eq!(databases.len(), 1);
            assert_eq!(databases[0].name, "chain");
            assert!(databases[0].acyclic);
        }
        other => panic!("expected listing, got {other:?}"),
    }
    shut_down(handle);
}

/// `list` reads each database's acyclicity from its plan: a chain has a
/// join tree, a 4-ring does not — on the first listing, which builds the
/// plans, and on the next, which reads them.
#[test]
fn a_listing_reports_acyclicity_from_the_plan() {
    let params = DataParams {
        tuples_per_relation: 8,
        domain: 4,
        skew: 0.0,
        key_cap: 0,
    };
    let dbs = vec![
        (
            "chain".into(),
            Arc::new(random_database(&chain(3, 2, 1), params, 1)),
        ),
        (
            "ring".into(),
            Arc::new(random_database(&ring(4), params, 1)),
        ),
    ];
    let handle = Server::bind_preloaded("127.0.0.1:0", dbs)
        .expect("bind")
        .spawn();
    let mut c = Client::connect(handle.addr());
    for _ in 0..2 {
        match c.round_trip(&Request::List) {
            Response::Listing { databases, .. } => {
                let acyclic: Vec<(&str, bool)> = databases
                    .iter()
                    .map(|d| (d.name.as_str(), d.acyclic))
                    .collect();
                assert_eq!(acyclic, [("chain", true), ("ring", false)]);
            }
            other => panic!("expected listing, got {other:?}"),
        }
    }
    shut_down(handle);
}

/// A snapshot with a repeated row is never served: `bind` refuses it,
/// naming the relation and the row, and no listener comes up.
#[test]
fn a_snapshot_with_a_repeated_row_is_never_served() {
    let schema = Hypergraph::builder()
        .edge("R0", ["A", "B"])
        .edge("R1", ["B", "C"])
        .build()
        .expect("schema builds");
    let mut db = Database::empty(schema);
    for (e, row) in [(0, [1, 2]), (1, [2, 3]), (1, [2, 4]), (1, [5, 6])] {
        db.insert_values(EdgeId(e), row.map(Value::Int));
    }
    let mut bytes = db.to_snapshot_bytes();
    assert!(Database::from_snapshot_bytes(&bytes).is_ok());
    // R1 is the last relation, so its three rows of two `u32`s end the
    // file: overwrite row 1 with row 0.
    let rows_at = bytes.len() - 3 * 8;
    bytes.copy_within(rows_at..rows_at + 8, rows_at + 8);
    let path = std::env::temp_dir().join(format!(
        "hq_server_protocol_{}_repeated_row.hqs",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).expect("write the snapshot");
    let config = ServerConfig {
        databases: vec![("dup".into(), DbSource::Snapshot(path.clone()))],
        slow_ms: None,
    };
    // A port that was free a moment ago: after the refusal nothing may
    // listen on it.
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("an ephemeral port");
    let refused = Server::bind(&addr.to_string(), &config);
    std::fs::remove_file(&path).ok();
    let err = refused
        .err()
        .expect("a snapshot with a repeated row was served");
    assert_eq!(err.kind, ErrorKind::Parse);
    assert!(
        err.message
            .contains("relation \"R1\": row 1 is not above row 0"),
        "{}",
        err.message
    );
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_err(),
        "something listens on {addr}"
    );
}

#[cfg(not(feature = "failpoints"))]
#[test]
fn fault_injection_requests_are_refused_without_the_feature() {
    let (handle, _db) = tiny_server();
    let mut c = Client::connect(handle.addr());
    let response = c.round_trip(&Request::Query(QuerySpec {
        db: "chain".into(),
        select: vec!["N00001".into()],
        engine: None,
        overrides: Overrides {
            fail_at_semijoin: Some(1),
            ..Overrides::default()
        },
    }));
    match response {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::Proto);
            assert!(e.message.contains("failpoints"), "message: {}", e.message);
        }
        other => panic!("fault request without the feature got {other:?}"),
    }
    shut_down(handle);
}

// --------------------------------------------------------------- metrics

/// A metrics document without what differs from run to run: each level's
/// wall clock.
fn without_clocks(doc: &Json) -> Json {
    let Json::Obj(members) = doc else {
        panic!("a metrics document is an object: {doc}");
    };
    let members = members.iter().map(|(name, value)| {
        let value = match name.as_str() {
            "levels" => Json::Arr(
                value
                    .as_arr()
                    .expect("levels is an array")
                    .iter()
                    .map(|level| {
                        let Json::Obj(fields) = level else {
                            panic!("a level is an object: {level}");
                        };
                        let timeless = fields.iter().filter(|(k, _)| k != "nanos");
                        Json::Obj(timeless.cloned().collect())
                    })
                    .collect(),
            ),
            _ => value.clone(),
        };
        (name.clone(), value)
    });
    Json::Obj(members.collect())
}

/// `hyperq query --metrics-json` and a served `"metrics":true` answer emit
/// one document: same members, same order, same counters for the same
/// query.
#[test]
fn a_served_metrics_member_is_the_document_the_cli_prints() {
    let (handle, db) = tiny_server();
    let select = ["N00000", "N00003"];
    let mut c = Client::connect(handle.addr());
    let response = c.round_trip(&Request::Query(QuerySpec {
        db: "chain".into(),
        select: select.map(String::from).to_vec(),
        engine: Some(EngineKind::Yannakakis),
        overrides: Overrides {
            metrics: Some(true),
            ..Overrides::default()
        },
    }));
    let Response::Answer {
        metrics: Some(served),
        ..
    } = response
    else {
        panic!("a metrics request is answered with metrics: {response:?}");
    };

    // What the one-shot CLI runs and prints.
    let sink = CollectingSink::new();
    let x = db.attributes(select).unwrap();
    let ctx = ExecCtx::new().metrics(&sink);
    run_engine(&db, EngineKind::Yannakakis, &x, &ctx).unwrap();
    let printed = metrics_json(&sink.snapshot());

    assert_eq!(without_clocks(&served), without_clocks(&printed));
    let semijoins = served.get("semijoin").and_then(|s| s.get("ops"));
    assert!(semijoins.and_then(Json::as_u64) > Some(0), "{served}");
    shut_down(handle);
}

/// A request that still carries a retired member — `"threads"`, or a
/// `"strategy"` spelled right or wrong — parses to the same request as one
/// without it, and is answered with the same frame once the trace ids are
/// stripped.
#[test]
fn a_retired_threads_member_is_ignored() {
    let (handle, _db) = tiny_server();
    let mut c = Client::connect(handle.addr());
    let plain = all_attrs_query();
    let mut answer = |line: &str| {
        c.send_raw(format!("{line}\n").as_bytes());
        without_trace(&c.read_line())
    };
    let want = answer(&plain);
    assert!(want.contains("\"op\":\"answer\""), "{want}");
    for member in [
        "\"threads\":2",
        "\"strategy\":\"hash\"",
        "\"strategy\":\"quantum\"",
    ] {
        let retired = plain.replacen('{', &format!("{{{member},"), 1);
        assert!(retired.contains(member), "{retired}");
        assert_eq!(parse_request(&retired), parse_request(&plain), "{member}");
        assert_eq!(answer(&retired), want, "{member}");
    }
    shut_down(handle);
}

/// `"select":[]` asks whether the join is nonempty: every engine answers
/// the one empty tuple on the tiny chain, whose consistent data joins, in
/// the same frame once the trace ids are stripped.
#[test]
fn an_empty_select_gets_one_answer_from_every_engine() {
    let (handle, db) = tiny_server();
    assert!(!db.full_join().is_empty(), "the chain's data must join");
    let mut c = Client::connect(handle.addr());
    let frames: Vec<String> = [
        EngineKind::Yannakakis,
        EngineKind::Connection,
        EngineKind::Naive,
    ]
    .into_iter()
    .map(|engine| {
        let request = render_request(&Request::Query(QuerySpec {
            db: "chain".into(),
            select: Vec::new(),
            engine: Some(engine),
            overrides: Overrides::default(),
        }));
        c.send_raw(format!("{request}\n").as_bytes());
        without_trace(&c.read_line())
    })
    .collect();
    assert!(
        frames[0].contains("\"op\":\"answer\",\"attrs\":[],\"tuples\":1,"),
        "{}",
        frames[0]
    );
    assert_eq!(frames[1], frames[0], "connection");
    assert_eq!(frames[2], frames[0], "naive");
    shut_down(handle);
}

// ------------------------------------------------------------ pipelining

/// A reply line without its per-query trace id (`,"trace":"q-NNNNNN"`, the
/// frame's last field), so lines from different requests compare equal.
fn without_trace(line: &str) -> String {
    match line.rfind(",\"trace\":\"q-") {
        Some(at) if line.ends_with("\"}") => format!("{}}}", &line[..at]),
        _ => line.to_owned(),
    }
}

fn all_attrs_query() -> String {
    render_request(&Request::Query(QuerySpec {
        db: "chain".into(),
        select: ["N00000", "N00001", "N00002", "N00003"]
            .map(String::from)
            .to_vec(),
        engine: None,
        overrides: Overrides::default(),
    }))
}

/// One write carrying 64 mixed lines is answered exactly like the same
/// lines sent one at a time: same replies, same order, byte for byte once
/// the trace ids are stripped; blank keep-alives stay unanswered.
#[test]
fn a_pipelined_batch_is_answered_like_depth_one() {
    let (handle, _db) = tiny_server();
    let mut setup = Client::connect(handle.addr());
    let prepared = setup.round_trip(&Request::Prepare {
        name: "far".into(),
        spec: QuerySpec {
            db: "chain".into(),
            select: vec!["N00000".into(), "N00003".into()],
            engine: Some(EngineKind::Connection),
            overrides: Overrides::default(),
        },
    });
    assert_eq!(prepared, Response::Prepared { name: "far".into() });

    let kinds = [
        all_attrs_query(),
        render_request(&Request::Run {
            name: "far".into(),
            overrides: Overrides::default(),
        }),
        render_request(&Request::Ping),
        "{\"op\":\"query\",\"db\":".to_owned(), // malformed frame
        render_request(&Request::Query(QuerySpec {
            db: "nowhere".into(),
            select: vec!["N00000".into()],
            engine: None,
            overrides: Overrides::default(),
        })),
        String::new(), // blank keep-alive
        render_request(&Request::Run {
            name: "never-prepared".into(),
            overrides: Overrides::default(),
        }),
    ];
    let lines: Vec<&String> = (0..64).map(|i| &kinds[i % kinds.len()]).collect();
    let answered = lines.iter().filter(|l| !l.is_empty()).count();

    let mut one_by_one = Client::connect(handle.addr());
    let want: Vec<String> = lines
        .iter()
        .filter_map(|line| {
            one_by_one.send_raw(format!("{line}\n").as_bytes());
            (!line.is_empty()).then(|| without_trace(&one_by_one.read_line()))
        })
        .collect();
    assert_eq!(want.len(), answered);
    assert!(want.iter().any(|l| l.contains("\"op\":\"answer\"")));
    assert!(want.iter().any(|l| l.contains("\"kind\":\"unknown-db\"")));

    let mut pipelined = Client::connect(handle.addr());
    let batch: String = lines.iter().map(|l| format!("{l}\n")).collect();
    pipelined.send_raw(batch.as_bytes());
    let got: Vec<String> = (0..answered)
        .map(|_| without_trace(&pipelined.read_line()))
        .collect();
    assert_eq!(got, want);
    // Nothing extra follows: the connection is idle and still in step.
    assert_eq!(pipelined.round_trip(&Request::Ping), Response::Pong);
    shut_down(handle);
}

/// A batch whose replies add up to several times the server's flush bound
/// (64 KiB) and whose requests overflow its 8 KiB read buffer: the replies
/// leave in several writes, every one complete and in order.
#[test]
fn a_batch_larger_than_the_flush_bound_arrives_whole_and_in_order() {
    let (handle, _db) = tiny_server();
    let mut c = Client::connect(handle.addr());
    let query = all_attrs_query();
    c.send_raw(format!("{query}\n").as_bytes());
    let want = without_trace(&c.read_line());
    let requests = 1 + 5 * (64 << 10) / want.len();
    assert!(requests * (query.len() + 1) > 8 << 10);

    // Every third request is a ping, so a reply out of place shows.
    let batch: String = (0..requests)
        .map(|i| {
            if i % 3 == 2 {
                format!("{}\n", render_request(&Request::Ping))
            } else {
                format!("{query}\n")
            }
        })
        .collect();
    c.send_raw(batch.as_bytes());
    for i in 0..requests {
        let got = c.read_line();
        if i % 3 == 2 {
            assert_eq!(got, render_response(&Response::Pong), "reply {i}");
        } else {
            assert_eq!(without_trace(&got), want, "reply {i}");
        }
    }
    shut_down(handle);
}

/// A reply many times the flush bound (64 KiB) leaves in pieces, written as
/// they are rendered, and arrives byte for byte the frame the server
/// renders in one piece — after the pong sent before it and before the
/// pong sent after it, from one pipelined write.
#[test]
fn a_reply_far_over_the_flush_bound_arrives_byte_identical() {
    let schema = chain(3, 2, 1);
    let params = DataParams {
        tuples_per_relation: 2_000,
        domain: 500,
        skew: 0.0,
        key_cap: 0,
    };
    let built = random_database(&schema, params, 9);
    let db = Arc::new(Database::from_snapshot_bytes(&built.to_snapshot_bytes()).unwrap());
    let x = db.schema().nodes();
    let want = render_response(&answer_frame(
        &db,
        &query_yannakakis(&db, &x).unwrap(),
        None,
    ));
    assert!(want.len() > 8 * (64 << 10), "{} bytes", want.len());
    let server = Server::bind_preloaded("127.0.0.1:0", vec![("chain".into(), Arc::clone(&db))])
        .expect("bind");
    let handle = server.spawn();
    let mut c = Client::connect(handle.addr());
    let (ping, query) = (render_request(&Request::Ping), all_attrs_query());
    c.send_raw(format!("{ping}\n{query}\n{ping}\n").as_bytes());
    assert_eq!(c.read_response(), Response::Pong);
    assert_eq!(without_trace(&c.read_line()), want);
    assert_eq!(c.read_response(), Response::Pong);
    shut_down(handle);
}

/// A batch ending in `shutdown`: every earlier reply is delivered, in
/// order, before `bye`; then the connection closes and the drain is clean.
#[test]
fn a_batch_ending_in_shutdown_delivers_every_reply_before_bye() {
    let (handle, _db) = tiny_server();
    let mut c = Client::connect(handle.addr());
    let query = all_attrs_query();
    c.send_raw(format!("{query}\n").as_bytes());
    let want = without_trace(&c.read_line());

    let batch = format!(
        "{query}\n{query}\n{ping}\n{query}\n{bye}\n{ping}\n",
        ping = render_request(&Request::Ping),
        bye = render_request(&Request::Shutdown { now: false }),
    );
    c.send_raw(batch.as_bytes());
    assert_eq!(without_trace(&c.read_line()), want);
    assert_eq!(without_trace(&c.read_line()), want);
    assert_eq!(c.read_response(), Response::Pong);
    assert_eq!(without_trace(&c.read_line()), want);
    assert_eq!(c.read_response(), Response::Bye);
    // The request after `shutdown` is never served: the connection closes.
    let mut rest = Vec::new();
    let _ = c.reader.read_to_end(&mut rest);
    assert!(rest.is_empty(), "bytes after bye: {rest:?}");
    let stats = handle.join();
    assert!(stats.drained_clean, "drain must finish: {stats:?}");
    assert_eq!(stats.queries, 4);
}

/// A partial trailing line does not hold back the replies already earned:
/// they arrive while the server still waits for the rest of the line.
#[test]
fn a_partial_trailing_line_does_not_hold_back_earlier_replies() {
    let (handle, _db) = tiny_server();
    let mut c = Client::connect(handle.addr());
    let ping = render_request(&Request::Ping);
    let (head, tail) = ping.split_at(ping.len() / 2);
    c.send_raw(format!("{ping}\n{}\n{head}", all_attrs_query()).as_bytes());
    assert_eq!(c.read_response(), Response::Pong);
    assert!(matches!(c.read_response(), Response::Answer { .. }));
    c.send_raw(format!("{tail}\n").as_bytes());
    assert_eq!(c.read_response(), Response::Pong);
    shut_down(handle);
}
