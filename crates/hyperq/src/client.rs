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
//! `--prometheus`).

use crate::commands::CliError;
use hyperqd::json::Json;
use hyperqd::protocol::{
    parse_response, render_request, EngineKind, Overrides, QuerySpec, Request, Response,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// The most bytes of one reply line the client buffers.  Answers are far
/// larger than requests (the protocol's `MAX_LINE` bounds only those: an
/// all-attributes answer over a few thousand tuples is megabytes), so the
/// reply has a cap of its own — large enough for any answer `hyperqd`
/// renders, and still a bound: a server bug cannot make the client buffer
/// without limit.
const MAX_REPLY: u64 = 256 << 20;

/// Runs `hyperq client <addr> <op> ...`.  `args` holds everything after
/// the `client` word; flags are extracted in place, positionals remain.
pub fn run_client(args: &mut Vec<String>) -> Result<String, CliError> {
    let raw = crate::take_switch(args, "--raw");
    if args.len() < 2 {
        return Err("client expects <addr> and an operation \
                    (ping | list | stats | query | prepare | run | shutdown)"
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
    let response = parse_response(&line).map_err(|e| {
        // Enough of the line to see what answered, not a megabyte of it.
        let mut end = line.len().min(200);
        while !line.is_char_boundary(end) {
            end -= 1;
        }
        let head = &line[..end];
        CliError::from(format!("{addr}: unparseable response ({e}): {head}"))
    })?;
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
    read_reply(BufReader::new(stream), MAX_REPLY).map_err(|e| format!("{addr}: {e}").into())
}

/// Reads one reply line of at most `cap` bytes, without its line ending.
fn read_reply(reader: impl BufRead, cap: u64) -> Result<String, String> {
    let mut bytes = Vec::new();
    reader
        .take(cap)
        .read_until(b'\n', &mut bytes)
        .map_err(|e| format!("cannot read response: {e}"))?;
    if bytes.is_empty() {
        return Err("server closed the connection without a response".to_owned());
    }
    if bytes.len() as u64 == cap && bytes.last() != Some(&b'\n') {
        return Err(format!("response exceeds {cap} bytes"));
    }
    let mut line = String::from_utf8(bytes).map_err(|_| "response is not UTF-8".to_owned())?;
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
    let name = crate::take_flag(args, "--engine")?;
    Ok(name.as_deref().map(EngineKind::parse).transpose()?)
}

/// Extracts the shared override flags (`--timeout-ms`, `--mem-budget-mb`,
/// `--metrics`, and the failpoints-feature fault-injection pair).
fn take_overrides(args: &mut Vec<String>) -> Result<Overrides, CliError> {
    let mut o = Overrides::default();
    for (flag, slot) in [
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

#[cfg(test)]
mod tests {
    use super::read_reply;

    #[test]
    fn a_reply_is_read_whole_up_to_its_cap() {
        assert_eq!(
            read_reply(&b"{\"ok\":true}\r\nnext"[..], 64).unwrap(),
            "{\"ok\":true}"
        );
        // A line that just fits, with and without its newline inside the cap.
        assert_eq!(read_reply(&b"abc\n"[..], 4).unwrap(), "abc");
        assert_eq!(read_reply(&b"abc"[..], 4).unwrap(), "abc");
        // One that does not is reported as such, not handed on cut short.
        let err = read_reply(&b"abcdef\n"[..], 4).unwrap_err();
        assert_eq!(err, "response exceeds 4 bytes");
        let err = read_reply(&b""[..], 4).unwrap_err();
        assert!(err.contains("closed the connection"), "err: {err}");
    }
}
