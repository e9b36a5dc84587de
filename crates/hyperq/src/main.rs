//! `hyperq` — the CLI driver for the Maier & Ullman reproduction.
//!
//! Loads hypergraph schemas from edge-list files, classifies them under
//! Theorem 6.1 (acyclic with a join-tree certificate, cyclic with a
//! verified independent-path certificate), answers universal-relation
//! queries over canonical connections, and renders Graphviz DOT.
//!
//! ```text
//! hyperq classify  <schema>
//! hyperq query     <schema> <data> --select A,B[,..] [--engine connection|yannakakis|naive]
//! hyperq decompose <schema> [--heuristic min-fill|min-degree] [--dot]
//! hyperq dot       <schema> [--name G]
//! hyperq stats     <schema>
//! hyperq bench     [--out FILE] [--check]
//! ```
//!
//! Module map: `load` parses the edge-list/tuple file formats into
//! `hypergraph`/`reldb` values; `commands` implements classify (the
//! Theorem 6.1 dichotomy with certificates), query (§7 universal-relation
//! answering, cyclic schemas routed through hypertree decomposition),
//! decompose (bag-tree stats/DOT for cyclic schemas), dot and stats;
//! `bench` is the in-repo perf harness behind `BENCH_results.json`: the
//! served engine beside its comparison rows, guarded by ratios between rows
//! of one run.

#![forbid(unsafe_code)]

mod bench;
mod client;
mod commands;
mod load;

use commands::{CliError, MetricsMode};
use hyperqd::protocol::EngineKind;
use reldb::QueryGovernor;
use std::io::{self, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
hyperq — acyclic-hypergraph schema tool (Maier & Ullman, PODS '82)

USAGE:
    hyperq classify  <schema>
    hyperq query     <schema> <data> --select A,B[,..] [--engine ENGINE]
                     [--metrics | --metrics-json]
                     [--timeout-ms N] [--mem-budget-mb N]
    hyperq decompose <schema> [--heuristic HEURISTIC] [--dot]
    hyperq dot       <schema> [--name NAME]
    hyperq stats     <schema>
    hyperq snapshot  save <schema> <data> <out> | load <snapshot>
    hyperq gen       <schema> <out> [--tuples N] [--domain N] [--skew F]
                     [--seed N] [--snapshot]
    hyperq bench     [--out FILE] [--check]
                     [--quick | --tiny | --scale]
    hyperq client    <addr> ping | list | shutdown [--now]
    hyperq client    <addr> stats [--prometheus] [--raw]
    hyperq client    <addr> query <db> --select A,B[,..] [--engine ENGINE]
                     [--timeout-ms N] [--mem-budget-mb N] [--metrics] [--raw]
    hyperq client    <addr> prepare <name> <db> --select A,B[,..] [flags]
    hyperq client    <addr> run <name> [override flags] [--raw]

COMMANDS:
    classify   Decide acyclic vs. cyclic and print the Theorem 6.1
               certificate (join tree / independent path)
    query      Answer the universal-relation query pi_X over the canonical
               connection CC(X); ENGINE is connection (default),
               yannakakis or naive.  connection runs the Yannakakis
               engine over CC(X)'s objects, yannakakis over every object;
               both handle cyclic schemas via hypertree decomposition.
               naive joins every object in schema order.
               --metrics appends the execution counter table (tuples
               probed/kept/built, kernels run, level timings, bag
               sizes); --metrics-json prints only the machine-readable
               metrics document — one compact line, the document a server
               embeds in an answer asked for with \"metrics\":true — for
               piping into checkers.
               --timeout-ms bounds wall-clock time (measured from process
               start, so load time counts; 0 expires immediately) and
               --mem-budget-mb bounds estimated engine-held row memory;
               either flag runs the query governed, aborting cleanly at
               the next engine checkpoint with the database left intact
    decompose  Hypertree-decompose the schema: triangulate the primal graph
               (HEURISTIC is min-fill, the default, or min-degree), report
               bags, width, fill edges and verification, and with --dot
               render the bag tree as Graphviz DOT
    dot        Emit the schema as Graphviz DOT (bipartite incidence view)
    stats      Print a structural summary (degree hierarchy, articulation
               sets, incidence table)
    snapshot   save: load <schema>+<data> (text tuples or an existing
               snapshot) and write the versioned binary snapshot format to
               <out>; load: read a snapshot back and print its summary.
               Snapshots are also accepted directly as the <data> argument
               of query — recognized by their magic bytes — loading a
               10^6-tuple database in milliseconds instead of re-parsing
               text
    gen        Write a deterministic random dataset for <schema> to <out>:
               --tuples per relation (default 64), --domain value range
               (default: the tuple count, about one join match per key),
               --skew Zipf exponent (default 0 = uniform), --seed (default
               9).  Text tuple format by default; --snapshot writes the
               binary snapshot directly
    bench      Run the query/acyclicity benchmarks at fixed workload sizes:
               the engine hyperqd serves (columnar) beside its
               governed twin and the naive reference.
               Every run ends with a ratios: block
               computed from its own rows; --check exits non-zero unless
               governed_overhead <= 1.25, engine_speedup >= 10 and
               snapshot_speedup >= 20 hold for each one the profile
               measured (at least one).  --out writes the rows as JSON,
               --quick trims the workload sizes for CI, --scale runs only
               the 10^6-tuple rows (snapshot-load vs text-parse,
               snapshot-save, and the served engine at that size)
    client     Talk to a running hyperqd server at <addr> (HOST:PORT):
               ping, list the served databases and prepared queries,
               run ad-hoc or prepared queries with per-request governance
               and metrics overrides, scrape the telemetry registry
               (stats; --prometheus switches the canonical JSON snapshot
               to the Prometheus text exposition), or ask the server to
               shut down (--now cancels in-flight queries instead of
               draining).  ENGINE is spelled as for query (the server's
               default is yannakakis).  --raw prints the server's response frame verbatim.  Server
               errors map to the exit codes below via the protocol's
               \"code\" field, so scripts assert on $? exactly as for the
               one-shot query command

FILES:
    <schema>   One edge per line: 'LABEL: A B C' (label optional)
    <data>     One tuple per line: 'LABEL: A=1 B=text ...', or a binary
               snapshot written by 'hyperq snapshot save'

EXIT CODES:
    0   success
    2   usage, parse, schema or I/O error
    3   deadline exceeded or query cancelled (--timeout-ms)
    4   memory budget exceeded (--mem-budget-mb)
    5   the engine panicked (contained)
    141 stdout closed before the output was written (e.g. piped into head)
";

fn fail(e: &CliError) -> ExitCode {
    eprintln!("hyperq: {}", e.message);
    ExitCode::from(e.code)
}

/// Writes `text` to stdout and flushes it, returning the error `print!`
/// would panic on.
fn write_stdout(text: &str) -> io::Result<()> {
    let mut out = io::stdout().lock();
    out.write_all(text.as_bytes())?;
    out.flush()
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Extracts a boolean `--flag` from `args`, leaving only positionals behind.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

/// Extracts `--flag value` from `args`, leaving only positionals behind.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} requires a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

fn run(started: Instant) -> Result<String, CliError> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") || args.is_empty() {
        return Ok(USAGE.to_owned());
    }
    let command = args.remove(0);
    match command.as_str() {
        "classify" | "stats" | "dot" => {
            let name = take_flag(&mut args, "--name")?.unwrap_or_else(|| "H".to_owned());
            let [schema_path] = args.as_slice() else {
                return Err(format!("{command} expects exactly one <schema> file").into());
            };
            let schema = load::parse_schema(&read(schema_path)?)
                .map_err(|e| CliError::parse(schema_path, e))?;
            Ok(match command.as_str() {
                "classify" => commands::run_classify(&schema),
                "dot" => commands::run_dot(&schema, &name),
                _ => commands::run_stats(&schema),
            })
        }
        "decompose" => {
            let heuristic = match take_flag(&mut args, "--heuristic")? {
                Some(s) => decomp::Heuristic::parse(&s)?,
                None => decomp::Heuristic::MinFill,
            };
            let dot = take_switch(&mut args, "--dot");
            let [schema_path] = args.as_slice() else {
                return Err("decompose expects exactly one <schema> file".into());
            };
            let schema = load::parse_schema(&read(schema_path)?)
                .map_err(|e| CliError::parse(schema_path, e))?;
            commands::run_decompose(&schema, heuristic, dot).map_err(CliError::from)
        }
        "query" => {
            let select =
                take_flag(&mut args, "--select")?.ok_or("query requires --select A,B[,..]")?;
            let engine = match take_flag(&mut args, "--engine")? {
                Some(e) => EngineKind::parse(&e)?,
                None => EngineKind::Connection,
            };
            let metrics = match (
                take_switch(&mut args, "--metrics"),
                take_switch(&mut args, "--metrics-json"),
            ) {
                (true, true) => {
                    return Err("--metrics and --metrics-json are mutually exclusive".into())
                }
                (true, false) => MetricsMode::Table,
                (false, true) => MetricsMode::Json,
                (false, false) => MetricsMode::Off,
            };
            let timeout_ms = match take_flag(&mut args, "--timeout-ms")? {
                Some(s) => Some(s.parse::<u64>().map_err(|_| {
                    format!(
                        "--timeout-ms: expected milliseconds (0 = expire immediately), got {s:?}"
                    )
                })?),
                None => None,
            };
            let budget_mb = match take_flag(&mut args, "--mem-budget-mb")? {
                Some(s) => Some(
                    s.parse::<u64>()
                        .map_err(|_| format!("--mem-budget-mb: expected mebibytes, got {s:?}"))?,
                ),
                None => None,
            };
            let [schema_path, data_path] = args.as_slice() else {
                return Err("query expects <schema> and <data> files".into());
            };
            let db = load::load_data(schema_path, data_path)?;
            let attrs: Vec<&str> = select
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            if attrs.is_empty() {
                return Err("--select needs at least one attribute".into());
            }
            let governor = if timeout_ms.is_some() || budget_mb.is_some() {
                let mut g = QueryGovernor::new();
                if let Some(ms) = timeout_ms {
                    // Backdate the clock to process entry so schema/data
                    // load time counts against the deadline — the user
                    // bounded the *invocation*, not just the join.
                    g = g
                        .with_deadline(Duration::from_millis(ms))
                        .started_at(started);
                }
                if let Some(mb) = budget_mb {
                    g = g.with_memory_budget(mb.saturating_mul(1024 * 1024));
                }
                Some(g)
            } else {
                None
            };
            commands::run_query(&db, &attrs, engine, metrics, governor.as_ref())
        }
        "snapshot" => {
            if args.is_empty() {
                return Err("snapshot expects a subcommand: save or load".into());
            }
            let sub = args.remove(0);
            match sub.as_str() {
                "save" => {
                    let [schema_path, data_path, out_path] = args.as_slice() else {
                        return Err("snapshot save expects <schema> <data> <out> files".into());
                    };
                    // The data file may itself be a snapshot — save then
                    // doubles as a verification pass.
                    let db = load::load_data(schema_path, data_path)?;
                    commands::run_snapshot_save(&db, out_path)
                }
                "load" => {
                    let [path] = args.as_slice() else {
                        return Err("snapshot load expects exactly one <snapshot> file".into());
                    };
                    commands::run_snapshot_load(path)
                }
                other => Err(format!("unknown snapshot subcommand {other:?}").into()),
            }
        }
        "gen" => {
            let tuples = match take_flag(&mut args, "--tuples")? {
                Some(s) => s
                    .parse::<usize>()
                    .map_err(|_| format!("--tuples: expected a tuple count, got {s:?}"))?,
                None => 64,
            };
            let domain = match take_flag(&mut args, "--domain")? {
                Some(s) => s
                    .parse::<i64>()
                    .map_err(|_| format!("--domain: expected a value range, got {s:?}"))?,
                // One expected join match per key: joins on the generated
                // data stay O(n), the regime the scale scenarios want.
                None => (tuples as i64).max(2),
            };
            let skew = match take_flag(&mut args, "--skew")? {
                Some(s) => s
                    .parse::<f64>()
                    .map_err(|_| format!("--skew: expected a Zipf exponent, got {s:?}"))?,
                None => 0.0,
            };
            let seed = match take_flag(&mut args, "--seed")? {
                Some(s) => s
                    .parse::<u64>()
                    .map_err(|_| format!("--seed: expected an integer seed, got {s:?}"))?,
                None => 9,
            };
            let snapshot = take_switch(&mut args, "--snapshot");
            let [schema_path, out_path] = args.as_slice() else {
                return Err("gen expects <schema> and <out> paths".into());
            };
            let schema = load::parse_schema(&read(schema_path)?)
                .map_err(|e| CliError::parse(schema_path, e))?;
            commands::run_gen(&schema, tuples, domain, skew, seed, out_path, snapshot)
        }
        "bench" => {
            let out_path = take_flag(&mut args, "--out")?;
            let check = take_switch(&mut args, "--check");
            let quick = take_switch(&mut args, "--quick");
            let tiny = take_switch(&mut args, "--tiny");
            let scale = take_switch(&mut args, "--scale");
            if !args.is_empty() {
                return Err(format!("bench takes no positional arguments, got {args:?}").into());
            }
            let profile = match (tiny, quick, scale) {
                (true, false, false) => bench::Profile::Tiny,
                (false, true, false) => bench::Profile::Quick,
                (false, false, true) => bench::Profile::Scale,
                (false, false, false) => bench::Profile::Full,
                _ => return Err("--quick, --tiny and --scale are mutually exclusive".into()),
            };
            let records = bench::run_all(profile);
            let mut out = bench::summary(&records);
            if let Some(path) = out_path {
                std::fs::write(&path, bench::to_json(&records))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                out.push_str(&format!("wrote {path}\n"));
            }
            let (block, failures) = bench::ratios(&records);
            out.push_str(&block);
            if check && !failures.is_empty() {
                // A failed check is exactly when the measured rows are
                // needed: print them (best effort) before the error.
                let _ = write_stdout(&out);
                return Err(format!("bench check failed: {}", failures.join("; ")).into());
            }
            Ok(out)
        }
        "client" => client::run_client(&mut args),
        other => Err(format!("unknown command {other:?}\n\n{USAGE}").into()),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    match run(started) {
        Ok(output) => match write_stdout(&output) {
            Ok(()) => ExitCode::SUCCESS,
            // The reader went away (`hyperq query … | head -1`): exit
            // quietly with the status a shell reports for death by SIGPIPE.
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::from(141),
            Err(e) => fail(&CliError::from(format!("cannot write to stdout: {e}"))),
        },
        Err(e) => fail(&e),
    }
}
