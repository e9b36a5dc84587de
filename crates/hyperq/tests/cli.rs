//! End-to-end tests driving the compiled `hyperq` binary on the paper's
//! Fig. 1 hypergraph and the 4-ring — the acceptance scenario for the CLI.

use hyperqd::json::{self, Json};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn fixture(name: &str) -> String {
    let p: PathBuf = [env!("CARGO_MANIFEST_DIR"), "fixtures", name]
        .iter()
        .collect();
    p.to_str().expect("utf-8 path").to_owned()
}

fn hyperq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hyperq"))
        .args(args)
        .output()
        .expect("spawn hyperq")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn classify_fig1_reports_acyclic_with_join_tree() {
    let out = hyperq(&["classify", &fixture("fig1.hg")]);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = stdout(&out);
    assert!(text.contains("6 nodes, 4 edges"), "got: {text}");
    assert!(text.contains("classification: ACYCLIC"));
    assert!(text.contains("running-intersection verified: true"));
    assert!(text.contains("cross-check: GYO and MCS agree = true"));
}

#[test]
fn classify_ring_reports_cyclic_with_certificate() {
    let out = hyperq(&["classify", &fixture("ring4.hg")]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("classification: CYCLIC"));
    assert!(text.contains("independent path"));
    assert!(text.contains("verified: true"));
}

#[test]
fn query_fig1_all_engines_agree() {
    for engine in ["connection", "yannakakis", "naive"] {
        let out = hyperq(&[
            "query",
            &fixture("fig1.hg"),
            &fixture("fig1.data"),
            "--select",
            "B,D",
            "--engine",
            engine,
        ]);
        assert!(out.status.success(), "engine {engine}: {:?}", out.stderr);
        let text = stdout(&out);
        // B appears with 2 and 7, D with 4 and 9, all joinable: 4 tuples.
        assert!(
            text.contains("answer (4 tuples):"),
            "engine {engine}: {text}"
        );
    }
}

#[test]
fn query_connection_joins_only_the_canonical_connection() {
    let out = hyperq(&[
        "query",
        &fixture("fig1.hg"),
        &fixture("fig1.data"),
        "--select",
        "A,D",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    // CC({A, D}) for Fig. 1 is two partial edges (Example 5.2-style), so
    // the plan must not join all four objects.
    assert!(text.contains("objects joined:"));
    let joined = text
        .lines()
        .find(|l| l.starts_with("objects joined:"))
        .unwrap();
    assert!(
        joined.matches(", ").count() < 3,
        "joined too much: {joined}"
    );
    // A=1 joins with both D=4 and D=9 through C=3/E=5.
    assert!(text.contains("answer (2 tuples):"), "got: {text}");
}

/// The report does no work outside the governed engine: it counts the
/// tuples but runs no consistency check, whose full join and pairwise
/// semijoins no deadline or budget would bound.
#[test]
fn query_report_runs_no_ungoverned_consistency_checks() {
    let out = hyperq(&[
        "query",
        &fixture("fig1.hg"),
        &fixture("fig1.data"),
        "--select",
        "A,D",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    let database = text.lines().find(|l| l.starts_with("database:"));
    assert!(
        database.is_some_and(|l| l.ends_with(" tuples")),
        "got: {text}"
    );
    assert!(!text.contains("consistent"), "got: {text}");
}

#[test]
fn decompose_ring4_reports_bags_and_width() {
    let out = hyperq(&["decompose", &fixture("ring4.hg")]);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = stdout(&out);
    assert!(text.contains("cyclic (no join tree"), "got: {text}");
    assert!(text.contains("2 bags, width 2"), "got: {text}");
    assert!(
        text.contains("verified (edge coverage + running intersection): true"),
        "got: {text}"
    );

    // The min-degree heuristic and the DOT rendering work too.
    let out = hyperq(&[
        "decompose",
        &fixture("ring4.hg"),
        "--heuristic",
        "min-degree",
        "--dot",
    ]);
    assert!(out.status.success());
    let dot = stdout(&out);
    assert!(dot.starts_with("graph decomposition {"));
    assert!(dot.contains("covers:"));

    // Unknown heuristics are rejected with a hint.
    let out = hyperq(&["decompose", &fixture("ring4.hg"), "--heuristic", "magic"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("min-fill"));
}

#[test]
fn query_yannakakis_executes_cyclic_ring_end_to_end() {
    // The 4-ring is cyclic, so the yannakakis engine must route through
    // decompose -> materialize -> reduce -> join; the closed cycles (values
    // 1 and 2) survive, the dangling A=3 chain does not.
    for (engine, select) in [
        ("yannakakis", "A,C"),
        ("naive", "A,C"),
        ("yannakakis", "A,B,C,D"),
        ("naive", "A,B,C,D"),
    ] {
        let out = hyperq(&[
            "query",
            &fixture("ring4.hg"),
            &fixture("ring4.data"),
            "--select",
            select,
            "--engine",
            engine,
        ]);
        assert!(out.status.success(), "engine {engine}: {:?}", out.stderr);
        let text = stdout(&out);
        assert!(
            text.contains("answer (2 tuples):"),
            "engine {engine}, select {select}: {text}"
        );
    }
}

#[test]
fn query_metrics_flags_drive_the_observability_surface() {
    // --metrics appends the counter table after the answer.
    let out = hyperq(&[
        "query",
        &fixture("fig1.hg"),
        &fixture("fig1.data"),
        "--select",
        "A,D",
        "--engine",
        "yannakakis",
        "--metrics",
    ]);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = stdout(&out);
    assert!(text.contains("answer (2 tuples):"), "got: {text}");
    assert!(text.contains("metrics:"), "got: {text}");
    assert!(text.contains("levels:"), "got: {text}");

    // --metrics-json replaces the report with the machine document, on the
    // acyclic fixture (null decomposition) and the cyclic one (widths from
    // both heuristics, materialized bags).
    let out = hyperq(&[
        "query",
        &fixture("fig1.hg"),
        &fixture("fig1.data"),
        "--select",
        "A,D",
        "--engine",
        "yannakakis",
        "--metrics-json",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(
        !text.contains("answer ("),
        "json mode must not print the report"
    );
    let doc = json::parse(&text).expect("stdout is one JSON document");
    assert_eq!(doc.get("decomposition"), Some(&Json::Null), "got: {text}");
    assert_eq!(doc.get("bags"), Some(&Json::Arr(Vec::new())), "got: {text}");

    let out = hyperq(&[
        "query",
        &fixture("ring4.hg"),
        &fixture("ring4.data"),
        "--select",
        "A,C",
        "--engine",
        "yannakakis",
        "--metrics-json",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    let doc = json::parse(&text).expect("stdout is one JSON document");
    let widths = doc.get("decomposition").expect("a decomposition report");
    assert!(widths.get("min_fill_width").is_some(), "got: {text}");
    assert!(widths.get("min_degree_width").is_some(), "got: {text}");
    let bags = doc.get("bags").and_then(Json::as_arr);
    assert!(bags.is_some_and(|b| !b.is_empty()), "got: {text}");

    // The two flags are mutually exclusive.
    let out = hyperq(&[
        "query",
        &fixture("fig1.hg"),
        &fixture("fig1.data"),
        "--select",
        "A,D",
        "--metrics",
        "--metrics-json",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
}

#[test]
fn both_front_ends_read_engine_through_one_table() {
    // An unknown --engine: same exit code, same line, with the hint, from
    // the one-shot command and from the client (flags are read before any
    // file is opened or any connection made).
    let one_shot = hyperq(&[
        "query", "s.hg", "s.data", "--select", "A", "--engine", "turbo",
    ]);
    let client = hyperq(&["client", "127.0.0.1:1", "query", "db", "--engine", "turbo"]);
    for out in [&one_shot, &client] {
        assert_eq!(out.status.code(), Some(2));
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "hyperq: unknown engine \"turbo\" (expected connection, yannakakis or naive)\n"
        );
    }
}

/// `--strategy` is no flag: a query's semijoins take no strategy and its
/// joins run the server's default, so the word is a stray argument, refused
/// before any connection is made.
#[test]
fn client_refuses_the_retired_strategy_flag() {
    let out = hyperq(&["client", "127.0.0.1:1", "run", "q", "--strategy", "hash"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("client run expects exactly one"),
        "stderr: {err}"
    );
}

/// An answer far past the protocol's 1 MiB *request*-line limit comes
/// through `hyperq client` whole: every tuple printed, and `--raw` equal to
/// the bytes a raw socket reads.
#[test]
fn client_prints_an_answer_larger_than_the_request_line_limit() {
    use std::io::{BufRead, BufReader, Write};
    const TUPLES: i64 = 120_000;
    let schema = hypergraph::Hypergraph::from_edges([vec!["A", "B"]]).expect("one edge");
    let mut db = reldb::Database::empty(schema);
    for i in 0..TUPLES {
        db.insert_values(hypergraph::EdgeId(0), [i, i + 1]);
    }
    let served = vec![("big".to_owned(), std::sync::Arc::new(db))];
    let handle = hyperqd::server::Server::bind_preloaded("127.0.0.1:0", served)
        .expect("bind")
        .spawn();
    let addr = handle.addr().to_string();
    // Each answer carries its own trace id, the frame's last member.
    let without_trace = |frame: &str| {
        let at = frame.rfind(",\"trace\":\"").expect("a trace id");
        frame[..at].to_owned()
    };

    let mut socket = std::net::TcpStream::connect(handle.addr()).expect("connect");
    socket
        .write_all(b"{\"op\":\"query\",\"db\":\"big\",\"select\":[\"A\",\"B\"]}\n")
        .expect("send");
    let mut wire = String::new();
    BufReader::new(socket)
        .read_line(&mut wire)
        .expect("read the answer frame");
    assert!(wire.len() > hyperqd::protocol::MAX_LINE, "{} B", wire.len());

    let query = ["client", &addr, "query", "big", "--select", "A,B"];
    let raw = hyperq(&[&query[..], &["--raw"]].concat());
    assert!(raw.status.success(), "stderr: {:?}", raw.stderr);
    assert_eq!(without_trace(&stdout(&raw)), without_trace(&wire));

    let out = hyperq(&query);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = stdout(&out);
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("A | B"));
    for i in 0..TUPLES {
        assert_eq!(lines.next(), Some(format!("{i} | {}", i + 1).as_str()));
    }
    assert_eq!(lines.next(), Some(format!("({TUPLES} tuples)").as_str()));

    let bye = hyperq(&["client", &addr, "shutdown"]);
    assert!(bye.status.success(), "stderr: {:?}", bye.stderr);
    assert!(handle.join().drained_clean);
}

#[test]
fn bench_json_rows_carry_tuple_counters() {
    let out_path = std::env::temp_dir().join(format!("hyperq_metrics_{}.json", std::process::id()));
    let out_path = out_path.to_str().expect("utf-8 path");
    let out = hyperq(&["bench", "--tiny", "--out", out_path]);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let rows = bench_rows(&std::fs::read_to_string(out_path).expect("bench JSON written"));
    // The engine rows embed the per-row metrics counters.
    let metered = rows
        .iter()
        .find(|r| r.get("op") == Some(&Json::str("full_reduce")))
        .expect("a full_reduce row");
    for counter in ["probed", "kept", "join_ops", "semijoin_ops"] {
        assert!(metered.get(counter).is_some(), "no {counter}: {metered}");
    }
    let _ = std::fs::remove_file(out_path);
}

#[test]
fn dot_output_is_wellformed_graphviz() {
    let out = hyperq(&["dot", &fixture("fig1.hg"), "--name", "fig1"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with("graph fig1 {"));
    assert!(text.trim_end().ends_with('}'));
    for label in ["R1", "R2", "R3", "R4"] {
        assert!(text.contains(label));
    }
}

#[test]
fn stats_reports_structure() {
    let out = hyperq(&["stats", &fixture("fig1.hg")]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("nodes: 6"));
    assert!(text.contains("edges: 4"));
    assert!(text.contains("incidence:"));
}

#[test]
fn bench_writes_json_and_guards_against_regressions() {
    let out_path = std::env::temp_dir().join(format!("hyperq_bench_{}.json", std::process::id()));
    let out_path = out_path.to_str().expect("utf-8 path");

    // Tiny profile: measure, print the summary and the ratios, write the
    // JSON document.
    let out = hyperq(&["bench", "--tiny", "--out", out_path]);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = stdout(&out);
    assert!(text.contains("full_reduce"), "summary: {text}");
    assert!(text.contains("vs_columnar"), "summary: {text}");
    let json = std::fs::read_to_string(out_path).expect("bench JSON written");
    let rows = bench_rows(&json);
    for engine in [
        "columnar",
        "columnar-governed",
        "reference",
        // The cyclic decomposition pipeline rows.
        "columnar-decomp",
        "naive",
    ] {
        assert!(has_row(&rows, "engine", engine), "missing {engine} rows");
    }
    for op in [
        "full_reduce",
        "yannakakis_join",
        "acyclicity_gyo",
        "acyclicity_mcs",
        "decompose",
        "cyclic_join",
    ] {
        assert!(has_row(&rows, "op", op), "missing {op} rows");
    }
    for workload in [
        "chain-6",
        "star-6",
        "snowflake-2x2",
        "chain-6-zipf-capped",
        "ring-8",
        "hyper-ring-5x3",
        "clique-5",
    ] {
        assert!(
            has_row(&rows, "workload", workload),
            "missing {workload} rows"
        );
    }
    // Every row carries its dispersion: the median batch beside the fastest.
    for row in &rows {
        let ns = |key| row.get(key).and_then(Json::as_i64);
        assert!(ns("ns_median") >= ns("ns_per_iter"), "row: {row}");
        assert!(ns("ns_per_iter").is_some(), "row: {row}");
    }

    // The run ends with the ratios computed from its own rows.  Values are
    // not asserted: a debug build at 60 tuples proves nothing about them.
    let ratios = &text[text.find("ratios:").expect("a ratios: block")..];
    for line in ["governed_overhead", "engine_speedup", "snapshot_speedup"] {
        assert!(ratios.contains(line), "no {line} line in: {ratios}");
    }
    for gone in ["parallel", "pinned"] {
        assert!(!ratios.contains(gone), "{ratios}");
    }

    // The guard reads nothing but the run itself: `--check` is a bare switch.
    let out = hyperq(&["bench", "--tiny", "--check", out_path]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        err.contains("takes no positional arguments"),
        "stderr: {err}"
    );

    let _ = std::fs::remove_file(out_path);
}

/// The `results` rows of a bench JSON document.
fn bench_rows(document: &str) -> Vec<Json> {
    let doc = json::parse(document).expect("a bench document is valid JSON");
    doc.get("results")
        .and_then(Json::as_arr)
        .expect("a results array")
        .to_vec()
}

/// True if some row's string member `key` is `value`.
fn has_row(rows: &[Json], key: &str, value: &str) -> bool {
    rows.iter().any(|r| r.get(key) == Some(&Json::str(value)))
}

#[test]
fn query_timeout_exits_with_code_3_and_a_clean_message() {
    // --timeout-ms 0 expires before the first engine checkpoint, so the
    // outcome is deterministic: exit code 3, one diagnostic line, no answer.
    let out = hyperq(&[
        "query",
        &fixture("ring4.hg"),
        &fixture("ring4.data"),
        "--select",
        "A,C",
        "--engine",
        "yannakakis",
        "--timeout-ms",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {:?}", out.stderr);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("hyperq: deadline exceeded"),
        "stderr: {err}"
    );
    assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
    assert!(stdout(&out).is_empty(), "no partial answer on timeout");
}

#[test]
fn query_budget_exhaustion_exits_with_code_4() {
    // A 0 MiB budget rejects the first engine allocation.
    let out = hyperq(&[
        "query",
        &fixture("ring4.hg"),
        &fixture("ring4.data"),
        "--select",
        "A,C",
        "--engine",
        "yannakakis",
        "--mem-budget-mb",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(4), "stderr: {:?}", out.stderr);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("memory budget exceeded"),
        "stderr: {:?}",
        out.stderr
    );
}

#[test]
fn generous_governor_limits_leave_the_answer_unchanged() {
    let governed = hyperq(&[
        "query",
        &fixture("ring4.hg"),
        &fixture("ring4.data"),
        "--select",
        "A,C",
        "--engine",
        "yannakakis",
        "--timeout-ms",
        "600000",
        "--mem-budget-mb",
        "1024",
    ]);
    assert!(governed.status.success(), "stderr: {:?}", governed.stderr);
    let plain = hyperq(&[
        "query",
        &fixture("ring4.hg"),
        &fixture("ring4.data"),
        "--select",
        "A,C",
        "--engine",
        "yannakakis",
    ]);
    assert_eq!(stdout(&governed), stdout(&plain));
    assert!(stdout(&governed).contains("answer (2 tuples):"));
}

#[test]
fn parse_errors_exit_2_with_file_and_line() {
    let bad = std::env::temp_dir().join(format!("hyperq_bad_{}.hg", std::process::id()));
    std::fs::write(&bad, "R1: A B\nR1: C D\n").unwrap();
    let out = hyperq(&["classify", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("line 2:") && err.contains("duplicate"),
        "stderr: {err}"
    );
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn snapshot_save_load_round_trips_and_feeds_query() {
    let snap = std::env::temp_dir().join(format!("hyperq_cli_{}.hqs", std::process::id()));
    let snap = snap.to_str().expect("utf-8 path");

    // save: text data in, binary snapshot out.
    let out = hyperq(&[
        "snapshot",
        "save",
        &fixture("fig1.hg"),
        &fixture("fig1.data"),
        snap,
    ]);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    assert!(
        stdout(&out).contains("snapshot: wrote"),
        "got: {}",
        stdout(&out)
    );

    // load: summary of what the snapshot holds.
    let out = hyperq(&["snapshot", "load", snap]);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = stdout(&out);
    assert!(text.contains("4 relations"), "got: {text}");

    // A snapshot is accepted anywhere a text data file is: the query
    // answer must be identical to the text-data run.
    let from_snap = hyperq(&["query", &fixture("fig1.hg"), snap, "--select", "B,D"]);
    assert!(from_snap.status.success(), "stderr: {:?}", from_snap.stderr);
    let from_text = hyperq(&[
        "query",
        &fixture("fig1.hg"),
        &fixture("fig1.data"),
        "--select",
        "B,D",
    ]);
    assert_eq!(stdout(&from_snap), stdout(&from_text));
    assert!(stdout(&from_snap).contains("answer (4 tuples):"));

    // Corrupt snapshots are structured parse errors (exit 2), not panics.
    let mut bytes = std::fs::read(snap).unwrap();
    let mid = bytes.len() / 2;
    bytes.truncate(mid);
    std::fs::write(snap, &bytes).unwrap();
    let out = hyperq(&["snapshot", "load", snap]);
    assert_eq!(out.status.code(), Some(2), "stderr: {:?}", out.stderr);
    // The diagnostic carries the byte offset in the standard line field.
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("line "), "stderr: {err}");

    let _ = std::fs::remove_file(snap);
}

#[test]
fn gen_writes_text_and_snapshot_datasets() {
    let dir = std::env::temp_dir();
    let text = dir.join(format!("hyperq_gen_{}.data", std::process::id()));
    let snap = dir.join(format!("hyperq_gen_{}.hqs", std::process::id()));
    let (text, snap) = (text.to_str().unwrap(), snap.to_str().unwrap());

    let out = hyperq(&[
        "gen",
        &fixture("chain3.hg"),
        text,
        "--tuples",
        "100",
        "--seed",
        "7",
    ]);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    assert!(stdout(&out).contains("300 tuples"), "got: {}", stdout(&out));

    let out = hyperq(&[
        "gen",
        &fixture("chain3.hg"),
        snap,
        "--tuples",
        "100",
        "--seed",
        "7",
        "--snapshot",
    ]);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    assert!(stdout(&out).contains("snapshot"), "got: {}", stdout(&out));

    // Same generator parameters, two encodings, one answer.
    let a = hyperq(&["query", &fixture("chain3.hg"), text, "--select", "A,D"]);
    let b = hyperq(&["query", &fixture("chain3.hg"), snap, "--select", "A,D"]);
    assert!(a.status.success() && b.status.success());
    assert_eq!(stdout(&a), stdout(&b));

    let _ = std::fs::remove_file(text);
    let _ = std::fs::remove_file(snap);
}

/// A reader that closes the pipe early (`hyperq query … | head -1`) ends
/// the query with status 141, as a SIGPIPE death would, and nothing on
/// stderr.  The answer is larger than a pipe's buffer, so the write fails
/// whenever the reader goes.
#[test]
fn a_closed_stdout_exits_141_without_a_panic() {
    let data = std::env::temp_dir().join(format!("hyperq_pipe_{}.data", std::process::id()));
    let data = data.to_str().unwrap();
    let out = hyperq(&["gen", &fixture("chain3.hg"), data, "--tuples", "4000"]);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);

    let mut child = Command::new(env!("CARGO_BIN_EXE_hyperq"))
        .args(["query", &fixture("chain3.hg"), data, "--select", "A,B,C,D"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hyperq");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for hyperq");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(141), "stderr: {stderr}");
    assert!(stderr.is_empty(), "no panic, no message: {stderr}");

    let _ = std::fs::remove_file(data);
}

#[test]
fn bench_profile_flags_are_mutually_exclusive() {
    for args in [
        ["bench", "--quick", "--tiny"].as_slice(),
        &["bench", "--quick", "--scale"],
        &["bench", "--tiny", "--scale"],
    ] {
        let out = hyperq(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"),
            "{args:?}: {:?}",
            out.stderr
        );
    }
}

#[test]
fn bad_usage_fails_with_diagnostics() {
    let out = hyperq(&["classify", "/nonexistent/schema.hg"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let out = hyperq(&["frobnicate"]);
    assert!(!out.status.success());

    let out = hyperq(&["query", &fixture("fig1.hg")]);
    assert!(!out.status.success());

    let out = hyperq(&["--help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
}
