//! The `hyperqd` binary: parse `--listen`/`--db` flags, load every
//! database, serve until a `shutdown` request drains the last query.

use hyperqd::load::DbSource;
use hyperqd::server::{Server, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
hyperqd — universal-relation query server

USAGE:
    hyperqd [--listen ADDR] --db NAME=SOURCE [--db NAME=SOURCE ...]

OPTIONS:
    --listen ADDR    address to bind (default 127.0.0.1:7411; port 0 picks
                     an ephemeral port, printed on startup)
    --db NAME=SOURCE serve a database under NAME.  SOURCE is either a
                     single .hqs snapshot path, or SCHEMA,DATA — a schema
                     edge-list file and a data file (text tuples or a
                     snapshot, sniffed by magic)
    --slow-ms N      arm the slow-query log: queries taking >= N ms write
                     one JSON line (trace id, outcome, metrics with stage
                     timings) to stderr; queries run metered while armed
    -h, --help       print this help

PROTOCOL:
    One JSON object per line over TCP; see the README \"Serving\" section.
    A {\"op\":\"shutdown\"} request drains in-flight queries and exits 0.

EXAMPLE:
    hyperqd --listen 127.0.0.1:7411 \\
        --db fig1=fixtures/fig1.hg,fixtures/fig1.data \\
        --db big=snapshots/chain_1m.hqs
";

fn parse_db_flag(value: &str) -> Result<(String, DbSource), String> {
    let (name, source) = value
        .split_once('=')
        .ok_or_else(|| format!("--db expects NAME=SOURCE, got {value:?}"))?;
    if name.is_empty() {
        return Err(format!("--db {value:?}: empty database name"));
    }
    let source = match source.split_once(',') {
        None => DbSource::Snapshot(PathBuf::from(source)),
        Some((schema, data)) => DbSource::Text {
            schema: PathBuf::from(schema),
            data: PathBuf::from(data),
        },
    };
    Ok((name.to_owned(), source))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen = "127.0.0.1:7411".to_owned();
    let mut config = ServerConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--listen" => {
                i += 1;
                match args.get(i) {
                    Some(addr) => listen = addr.clone(),
                    None => return usage_error("--listen needs an address"),
                }
            }
            "--db" => {
                i += 1;
                let Some(value) = args.get(i) else {
                    return usage_error("--db needs NAME=SOURCE");
                };
                match parse_db_flag(value) {
                    Ok(entry) => config.databases.push(entry),
                    Err(e) => return usage_error(&e),
                }
            }
            "--slow-ms" => {
                i += 1;
                let Some(value) = args.get(i) else {
                    return usage_error("--slow-ms needs a millisecond threshold");
                };
                match value.parse::<u64>() {
                    Ok(ms) => config.slow_ms = Some(ms),
                    Err(_) => {
                        return usage_error(&format!(
                            "--slow-ms expects a non-negative integer, got {value:?}"
                        ))
                    }
                }
            }
            other => return usage_error(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if config.databases.is_empty() {
        return usage_error("at least one --db NAME=SOURCE is required");
    }
    let server = match Server::bind(&listen, &config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hyperqd: {e}");
            return ExitCode::from(2);
        }
    };
    // Scripts block on this line to know the server is ready (and, with
    // port 0, which port it got).
    println!("hyperqd listening on {}", server.local_addr());
    for (name, _) in &config.databases {
        println!("hyperqd serving database {name}");
    }
    let stats = server.run();
    println!(
        "hyperqd shut down: {} connections, {} queries, drained={}",
        stats.connections, stats.queries, stats.drained_clean
    );
    if stats.drained_clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("hyperqd: {message}\n\n{USAGE}");
    ExitCode::from(2)
}
