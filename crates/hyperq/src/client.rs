//! The `hyperq client` subcommand: a protocol client for `hyperqd`.
//!
//! Speaks one request per invocation over TCP — the same line-oriented
//! JSON frames defined in [`hyperqd::protocol`] — and maps server error
//! responses onto the CLI exit-code contract (`kind.code()`: 3 deadline or
//! cancelled, 4 budget, 5 engine panic, 2 everything else), so shell
//! scripts and the CI `server` job can assert on `$?` exactly as they do
//! for one-shot `hyperq query`.
//!
//! Beyond the one-shot ops, `client stats` scrapes the server's telemetry
//! registry (canonical JSON, or the Prometheus text exposition with
//! `--prometheus`), and `client bench` drives N concurrent client threads
//! against a served database, brackets the run with two stats scrapes, and
//! reports the *server-side* latency quantiles of exactly the bracketed
//! window by diffing the two mergeable histograms — rows that land in
//! `BENCH_results.json` under the same regression guard as the engine
//! benchmarks.

use crate::bench::BenchRecord;
use crate::commands::CliError;
use hyperqd::json::Json;
use hyperqd::protocol::{
    parse_response, render_request, EngineKind, Overrides, QuerySpec, Request, Response,
    StrategyKind, MAX_LINE,
};
use hyperqd::stats::Histogram;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Runs `hyperq client <addr> <op> ...`.  `args` holds everything after
/// the `client` word; flags are extracted in place, positionals remain.
pub fn run_client(args: &mut Vec<String>) -> Result<String, CliError> {
    let raw = crate::take_switch(args, "--raw");
    if args.len() < 2 {
        return Err("client expects <addr> and an operation \
                    (ping | list | stats | query | prepare | run | bench | shutdown)"
            .into());
    }
    let addr = args.remove(0);
    let op = args.remove(0);
    let request = match op.as_str() {
        "ping" => Request::Ping,
        "list" => Request::List,
        "stats" => Request::Stats {
            prometheus: crate::take_switch(args, "--prometheus"),
        },
        "bench" => {
            if raw {
                return Err("client bench does not support --raw".into());
            }
            return run_bench(&addr, args);
        }
        "shutdown" => Request::Shutdown {
            now: crate::take_switch(args, "--now"),
        },
        "query" => {
            let overrides = take_overrides(args)?;
            let engine = take_engine(args)?;
            let select = take_select(args)?;
            let [db] = args.as_slice() else {
                return Err("client query expects exactly one <db> name".into());
            };
            let db = db.clone();
            args.truncate(0);
            Request::Query(QuerySpec {
                db,
                select,
                engine,
                overrides,
            })
        }
        "prepare" => {
            let overrides = take_overrides(args)?;
            let engine = take_engine(args)?;
            let select = take_select(args)?;
            let [name, db] = args.as_slice() else {
                return Err("client prepare expects <name> and <db>".into());
            };
            let (name, db) = (name.clone(), db.clone());
            args.truncate(0);
            Request::Prepare {
                name,
                spec: QuerySpec {
                    db,
                    select,
                    engine,
                    overrides,
                },
            }
        }
        "run" => {
            let overrides = take_overrides(args)?;
            let [name] = args.as_slice() else {
                return Err("client run expects exactly one prepared-query <name>".into());
            };
            let name = name.clone();
            args.truncate(0);
            Request::Run { name, overrides }
        }
        other => return Err(format!("unknown client operation {other:?}").into()),
    };
    if !args.is_empty() {
        return Err(format!("client {op}: unexpected arguments {args:?}").into());
    }
    let line = exchange(&addr, &render_request(&request))?;
    if raw {
        return Ok(format!("{line}\n"));
    }
    let response = parse_response(&line)
        .map_err(|e| CliError::from(format!("{addr}: unparseable response ({e}): {line}")))?;
    render(&addr, response)
}

/// One request/response exchange: connect, send the frame, read one line.
fn exchange(addr: &str, request_line: &str) -> Result<String, CliError> {
    let io_err = |what: &str, e: std::io::Error| CliError::from(format!("{addr}: {what}: {e}"));
    let mut stream = TcpStream::connect(addr).map_err(|e| io_err("cannot connect", e))?;
    stream
        .write_all(request_line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush())
        .map_err(|e| io_err("cannot send request", e))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // Cap the read at the protocol frame limit: a server bug cannot make
    // the client buffer without bound.
    reader
        .by_ref()
        .take(MAX_LINE as u64)
        .read_line(&mut line)
        .map_err(|e| io_err("cannot read response", e))?;
    if line.is_empty() {
        return Err(format!("{addr}: server closed the connection without a response").into());
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Renders a parsed response for the terminal; server errors become
/// [`CliError`]s carrying the protocol's exit code.
fn render(addr: &str, response: Response) -> Result<String, CliError> {
    match response {
        Response::Pong => Ok("pong\n".to_owned()),
        Response::Bye => Ok("bye\n".to_owned()),
        Response::Prepared { name } => Ok(format!("prepared {name}\n")),
        Response::Listing { databases, queries } => {
            let mut out = String::new();
            for d in &databases {
                out.push_str(&format!(
                    "database {}: {} relations, {} tuples, {}\n",
                    d.name,
                    d.relations,
                    d.tuples,
                    if d.acyclic { "acyclic" } else { "cyclic" }
                ));
            }
            for q in &queries {
                out.push_str(&format!("prepared {q}\n"));
            }
            if out.is_empty() {
                out.push_str("(nothing served)\n");
            }
            Ok(out)
        }
        Response::Answer {
            attrs,
            rows,
            metrics,
            trace,
        } => {
            let mut out = String::new();
            out.push_str(&attrs.join(" | "));
            out.push('\n');
            for row in rows.iter() {
                let cells: Vec<String> = row.map(cell).collect();
                out.push_str(&cells.join(" | "));
                out.push('\n');
            }
            out.push_str(&format!("({} tuples)\n", rows.len()));
            if let Some(m) = metrics {
                out.push_str(&format!("metrics: {m}\n"));
            }
            if let Some(t) = trace {
                out.push_str(&format!("trace: {t}\n"));
            }
            Ok(out)
        }
        Response::Stats { stats, text } => {
            // Exactly one side is populated (the protocol parser enforces
            // it); the Prometheus exposition is already newline-terminated.
            match (stats, text) {
                (Some(s), _) => Ok(format!("{s}\n")),
                (None, Some(t)) => Ok(t),
                (None, None) => Err(format!("{addr}: empty stats response").into()),
            }
        }
        Response::Error(e) => Err(CliError {
            code: e.kind.code(),
            message: format!("{addr}: server error: {e}"),
        }),
    }
}

/// Runs `hyperq client <addr> bench <db> --select ...`: `--clients`
/// threads each issue `--requests` ad-hoc queries, and the server's own
/// latency histogram — scraped via the `stats` op before and after, then
/// diffed — yields the p50/p90/p99 of exactly the bracketed window.
/// `--out` merges the quantile rows into a `BENCH_results.json` document
/// (replacing rows with the same identity); `--check` compares them
/// against a baseline under `--max-regression`.
fn run_bench(addr: &str, args: &mut Vec<String>) -> Result<String, CliError> {
    let mut parse_count = |flag: &str, default: usize| -> Result<usize, CliError> {
        match crate::take_flag(args, flag)? {
            None => Ok(default),
            Some(s) => match s.parse::<usize>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(format!("{flag}: expected a positive count, got {s:?}").into()),
            },
        }
    };
    let clients = parse_count("--clients", 4)?;
    let requests = parse_count("--requests", 25)?;
    let out_path = crate::take_flag(args, "--out")?;
    let check_path = crate::take_flag(args, "--check")?;
    let max_regression = match crate::take_flag(args, "--max-regression")? {
        Some(s) => s
            .parse::<f64>()
            .map_err(|_| format!("--max-regression: not a number: {s:?}"))?,
        None => 2.0,
    };
    let overrides = take_overrides(args)?;
    let engine = take_engine(args)?;
    let select = take_select(args)?;
    let [db] = args.as_slice() else {
        return Err("client bench expects exactly one <db> name".into());
    };
    let db = db.clone();
    args.truncate(0);
    let request_line = render_request(&Request::Query(QuerySpec {
        db: db.clone(),
        select,
        engine,
        overrides,
    }));

    let before = scrape_latency(addr)?;
    let mut handles = Vec::new();
    for _ in 0..clients {
        let addr = addr.to_owned();
        let line = request_line.clone();
        handles.push(std::thread::spawn(move || -> Result<(), CliError> {
            for _ in 0..requests {
                let response_line = exchange(&addr, &line)?;
                match parse_response(&response_line) {
                    Ok(Response::Error(e)) => {
                        return Err(CliError {
                            code: e.kind.code(),
                            message: format!("{addr}: server error: {e}"),
                        })
                    }
                    Ok(_) => {}
                    Err(e) => {
                        return Err(
                            format!("{addr}: unparseable response ({e}): {response_line}").into(),
                        )
                    }
                }
            }
            Ok(())
        }));
    }
    for handle in handles {
        handle
            .join()
            .map_err(|_| CliError::from("bench client thread panicked".to_owned()))??;
    }
    let after = scrape_latency(addr)?;

    let window = after.diff(&before);
    let issued = (clients * requests) as u64;
    if window.count() < issued {
        return Err(format!(
            "server histogram grew by {} queries but the bench issued {issued}",
            window.count()
        )
        .into());
    }
    let quantiles = [
        ("server_query_p50", window.quantile(0.50)),
        ("server_query_p90", window.quantile(0.90)),
        ("server_query_p99", window.quantile(0.99)),
    ];
    let records: Vec<BenchRecord> = quantiles
        .iter()
        .map(|&(op, us)| BenchRecord {
            op: op.to_owned(),
            engine: "server".to_owned(),
            workload: db.clone(),
            size: issued as usize,
            units: window.count() as usize,
            iters: window.count() as usize,
            ns_per_iter: us as f64 * 1000.0,
            metrics: None,
        })
        .collect();

    let mut out = format!(
        "server latency over {} queries ({clients} clients x {requests} requests, db {db}):\n",
        window.count()
    );
    for &(op, us) in &quantiles {
        out.push_str(&format!("  {}: {us} us\n", &op["server_query_".len()..]));
    }
    out.push_str(&format!("  max (since server start): {} us\n", after.max()));
    if let Some(path) = out_path {
        let existing = std::fs::read_to_string(&path).unwrap_or_default();
        let merged = crate::bench::merge_json(&existing, &records);
        std::fs::write(&path, merged).map_err(|e| format!("cannot write {path}: {e}"))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    if let Some(path) = check_path {
        let baseline =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        out.push_str(&crate::bench::check_baseline(
            &records,
            &baseline,
            max_regression,
        )?);
    }
    Ok(out)
}

/// Scrapes the server's latency histogram: one `stats` exchange, then the
/// sparse `latency_us.buckets` pairs rebuilt into a mergeable
/// [`Histogram`] (the wire form exists exactly so two scrapes can be
/// diffed client-side).
fn scrape_latency(addr: &str) -> Result<Histogram, CliError> {
    let line = exchange(addr, &render_request(&Request::Stats { prometheus: false }))?;
    let response = parse_response(&line)
        .map_err(|e| CliError::from(format!("{addr}: unparseable stats response ({e}): {line}")))?;
    let stats = match response {
        Response::Stats {
            stats: Some(stats), ..
        } => stats,
        Response::Error(e) => {
            return Err(CliError {
                code: e.kind.code(),
                message: format!("{addr}: server error: {e}"),
            })
        }
        _ => return Err(format!("{addr}: expected a stats frame, got {line}").into()),
    };
    let malformed = || CliError::from(format!("{addr}: malformed latency_us in stats frame"));
    let latency = stats.get("latency_us").ok_or_else(malformed)?;
    let max = latency
        .get("max")
        .and_then(Json::as_u64)
        .ok_or_else(malformed)?;
    let pairs: Vec<(usize, u64)> = latency
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or_else(malformed)?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            match pair {
                [idx, count] => Some((idx.as_u64()? as usize, count.as_u64()?)),
                _ => None,
            }
        })
        .collect::<Option<_>>()
        .ok_or_else(malformed)?;
    Histogram::from_sparse(&pairs, max).ok_or_else(malformed)
}

/// A row cell for display: strings bare (matching the CLI's relation
/// printer), everything else in JSON form.
fn cell(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

fn take_select(args: &mut Vec<String>) -> Result<Vec<String>, CliError> {
    let select = crate::take_flag(args, "--select")?.ok_or("client requires --select A,B[,..]")?;
    let attrs: Vec<String> = select
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    if attrs.is_empty() {
        return Err("--select needs at least one attribute".into());
    }
    Ok(attrs)
}

fn take_engine(args: &mut Vec<String>) -> Result<Option<EngineKind>, CliError> {
    Ok(match crate::take_flag(args, "--engine")?.as_deref() {
        None => None,
        Some("yannakakis") => Some(EngineKind::Yannakakis),
        Some("connection") => Some(EngineKind::Connection),
        Some("naive") => Some(EngineKind::Naive),
        Some(other) => return Err(format!("unknown engine {other:?}").into()),
    })
}

/// Extracts the shared override flags (`--strategy`, `--threads`,
/// `--timeout-ms`, `--mem-budget-mb`, `--metrics`, and the
/// failpoints-feature fault-injection pair).
fn take_overrides(args: &mut Vec<String>) -> Result<Overrides, CliError> {
    let strategy = match crate::take_flag(args, "--strategy")?.as_deref() {
        None => None,
        Some("hash") => Some(StrategyKind::Hash),
        Some("sort-merge") => Some(StrategyKind::SortMerge),
        Some("auto") => Some(StrategyKind::Auto),
        Some(other) => return Err(format!("unknown strategy {other:?}").into()),
    };
    let mut o = Overrides {
        strategy,
        ..Overrides::default()
    };
    for (flag, slot) in [
        ("--threads", &mut o.threads),
        ("--timeout-ms", &mut o.timeout_ms),
        ("--mem-budget-mb", &mut o.mem_budget_mb),
        ("--fail-at-semijoin", &mut o.fail_at_semijoin),
    ] {
        if let Some(s) = crate::take_flag(args, flag)? {
            *slot = Some(
                s.parse::<u64>()
                    .map_err(|_| format!("{flag}: expected a non-negative integer, got {s:?}"))?,
            );
        }
    }
    if crate::take_switch(args, "--metrics") {
        o.metrics = Some(true);
    }
    if crate::take_switch(args, "--fail-panic") {
        o.fail_panic = Some(true);
    }
    Ok(o)
}
