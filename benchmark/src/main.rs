//! The repo benchmark: drives the real `hyperqd` binary over TCP on one of
//! five generated workloads, checks every answer, and reports either the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a separate
//! traced pass (`--trace 1`).  `README.md` beside this crate is the
//! glossary; `BENCHMARK.json` at the repo root is the contract.
//!
//! Output: one `workload metric value unit n=samples` line per metric,
//! then — last line of stdout — one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

#![forbid(unsafe_code)]

mod client;
mod e2e;
mod layers;
mod server;
mod stats;
mod trace;
mod workloads;

use client::Conn;
use e2e::{Cycle, Phase, Tally};
use hyperqd::json::{obj, Json};
use server::ServerProc;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Inputs, Workload};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

impl Metric {
    /// A metric named `name` of `value` `unit`, summarizing `samples`.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    hyperqd: PathBuf,
    out: PathBuf,
}

const USAGE: &str = "usage: hyperqd-benchmark --workload NAME --seed N --seconds S --trace 0|1 \
                     --hyperqd PATH --out DIR";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 9;
    let mut seconds = 15;
    let mut trace = false;
    let mut hyperqd = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::find(&value).ok_or_else(|| {
                    let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => match value.parse() {
                Ok(s) if s >= 1 => seconds = s,
                _ => return Err(format!("bad --seconds {value:?}")),
            },
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--hyperqd" => hyperqd = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        hyperqd: hyperqd.ok_or_else(|| format!("--hyperqd is required\n{USAGE}"))?,
        out: out.ok_or_else(|| format!("--out is required\n{USAGE}"))?,
    })
}

/// What the server-facing part of a run produced.
struct Served {
    /// Every set-up cycle of the run.
    cycles: Vec<Cycle>,
    /// The slices' steady phases, pooled.
    phase: Phase,
    /// Median over the slices' servers.
    peak_rss_mb: f64,
    /// Median depth-1 round trip of the workload's query in µs, and how
    /// many were timed (traced runs).
    pingpong_us: Option<(f64, usize)>,
    /// Every request sent, set-up and round trips included.
    tally: Tally,
}

/// Slices the server-facing part of a run is cut into.  This VM alternates
/// between a fast and a ~35 % slower state in stretches of 2–16 s; set-up
/// cycles bunched at the start of a run all fall into one stretch, spread
/// over the run's ~20 s they almost always see the fast one.
const SLICES: u32 = 5;

/// Runs [`SLICES`] slices, each: the workload's set-up cycles per slice,
/// then `seconds / SLICES` of steady phase on the last cycle's server,
/// then its shutdown.
fn serve(
    inputs: &Inputs,
    args: &Args,
    snapshot: &Path,
    seconds: Duration,
) -> Result<Served, String> {
    let mut cycles = Vec::new();
    let mut tally = Tally::default();
    let mut phase = Phase::default();
    let mut peak_rss_mb = Vec::new();
    let mut pingpong_us = None;
    for slice in 0..SLICES {
        let mut set_up = || -> Result<(ServerProc, Conn), String> {
            let (server, conn, cycle, sent) = e2e::setup_cycle(inputs, &args.hyperqd, snapshot)?;
            cycles.push(cycle);
            tally.add(sent);
            Ok((server, conn))
        };
        for _ in 1..inputs.workload.cycles_per_slice {
            let (server, mut conn) = set_up()?;
            server.shutdown(&mut conn)?;
        }
        let (server, mut conn) = set_up()?;
        let part = e2e::steady_phase(inputs, &server.addr, &mut conn, seconds / SLICES)?;
        tally.add(part.warmup);
        tally.add(part.tally);
        phase.absorb(part);
        if args.trace && slice + 1 == SLICES {
            let (rtt_us, sent) = e2e::pingpong(&mut conn, inputs);
            tally.add(sent);
            pingpong_us = Some((rtt_us, sent.attempted as usize));
        }
        peak_rss_mb.push(server.peak_rss_mb()?);
        server.shutdown(&mut conn)?;
    }
    Ok(Served {
        cycles,
        phase,
        peak_rss_mb: stats::median(&peak_rss_mb),
        pingpong_us,
        tally,
    })
}

fn median_of(cycles: &[Cycle], field: impl Fn(&Cycle) -> f64) -> f64 {
    stats::median(&cycles.iter().map(field).collect::<Vec<_>>())
}

/// The gated metrics.  Both timings read the fast end of their samples:
/// every op of a workload is the same request on the same data and every
/// set-up cycle the same work, so what varies between them is interference
/// from the box, which only ever adds time.  Medians of the same samples
/// moved by 25 % between back-to-back runs of one build on this VM, these
/// by 2 %.  The 1st percentile rather than the fastest op, because on
/// `tiny-pipelined` one batch in some thousands slips past the delayed-ACK
/// timer and finishes in 8 ms instead of 44; with 100 ops or fewer the
/// two are the same sample.
fn end_to_end_metrics(served: &Served) -> Vec<Metric> {
    let cycles = &served.cycles;
    let fastest_setup = cycles
        .iter()
        .map(|c| c.setup_s)
        .fold(f64::INFINITY, f64::min);
    vec![
        Metric::new("setup_s", fastest_setup, "s", cycles.len()),
        Metric::new(
            "latency_p1_ms",
            served.phase.p1_ms(),
            "ms",
            served.phase.latencies_ms.len(),
        ),
        Metric::new("peak_rss_mb", served.peak_rss_mb, "MiB", SLICES as usize),
    ]
}

/// What a client sees of the steady phase on this box, interference
/// included: too unsteady here to gate, reported with every run.
fn observed_metrics(phase: &Phase) -> Vec<Metric> {
    let ops = phase.latencies_ms.len();
    vec![
        Metric::new("latency_p50_ms", phase.p50_ms(), "ms", ops),
        Metric::new("latency_p90_ms", phase.p90_ms(), "ms", ops),
        Metric::new("throughput_qps", phase.throughput_qps(), "1/s", ops),
    ]
}

/// The per-layer metrics that need both the served phase and the replay.
fn served_layer_metrics(served: &Served, batch: usize, replay_total_us: f64) -> Vec<Metric> {
    let phase = &served.phase;
    let ops = phase.latencies_ms.len();
    let per_request_us = phase.p50_ms() * 1e3 / batch as f64;
    let server_p50_us = stats::histogram_quantile(&phase.server_latency, 0.50);
    let server_n = phase.server_latency.count() as usize;
    let (pingpong_us, pingpong_n) = served.pingpong_us.expect("traced runs measure round trips");
    let first_query_ms = median_of(&served.cycles, |c| c.first_query_ms);
    vec![
        Metric::new("hyperqd.stats.server_p50_us", server_p50_us, "us", server_n),
        Metric::new(
            "hyperqd.stats.server_p99_us",
            stats::histogram_quantile(&phase.server_latency, 0.99),
            "us",
            server_n,
        ),
        Metric::new(
            "hyperqd.stats.queries_ok",
            phase.server_queries_ok as f64,
            "count",
            1,
        ),
        Metric::new(
            "hyperqd.server.wire_residual_us",
            per_request_us - server_p50_us,
            "us",
            ops,
        ),
        Metric::new(
            "hyperqd.server.pingpong_rtt_us",
            pingpong_us,
            "us",
            pingpong_n,
        ),
        Metric::new(
            "hyperqd.server.unaccounted_share",
            (per_request_us - replay_total_us) / per_request_us,
            "ratio",
            ops,
        ),
        Metric::new(
            "cold_ready_ms",
            median_of(&served.cycles, |c| c.ready_ms),
            "ms",
            served.cycles.len(),
        ),
        Metric::new(
            "cold_first_query_ms",
            first_query_ms,
            "ms",
            served.cycles.len(),
        ),
        Metric::new(
            "reldb.relation.lazy_index_ms",
            first_query_ms - pingpong_us / 1e3,
            "ms",
            served.cycles.len(),
        ),
    ]
}

fn run(args: &Args) -> Result<(bool, Tally, Vec<Metric>), String> {
    let w = args.workload;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let snapshot = args.out.join(format!("{}.hqs", w.name));
    let inputs = Inputs::generate(w, args.seed);

    if !args.trace {
        let served = serve(&inputs, args, &snapshot, args.seconds)?;
        print_lines(w.name, " (ungated)", &observed_metrics(&served.phase));
        let correct = served.tally.failed == 0
            && served.phase.server_queries_ok == served.phase.tally.attempted;
        return Ok((correct, served.tally, end_to_end_metrics(&served)));
    }

    // The traced pass splits its time between a served phase (the stats
    // scrapes, the wire residual) and the in-process replay (the spans).
    let half = args.seconds / 2;
    let served = serve(&inputs, args, &snapshot, half)?;
    let bytes = std::fs::read(&snapshot).map_err(|e| format!("{}: {e}", snapshot.display()))?;
    let layers = layers::measure(&inputs, &bytes, half)?;
    let trace_path = args.out.join(format!("trace-{}.json", w.name));
    std::fs::write(
        &trace_path,
        trace::to_json(w.name, args.seed, &layers.spans),
    )
    .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let mut metrics = layers.metrics;
    metrics.extend(served_layer_metrics(
        &served,
        w.batch,
        layers.replay_total_us,
    ));
    metrics.extend(observed_metrics(&served.phase));
    print_lines(w.name, " (traced pass)", &end_to_end_metrics(&served));
    let ops = served.phase.latencies_ms.len();
    if stats::samples_beyond(ops, 90.0) < 10 {
        println!(
            "{} tail: {ops} ops leave fewer than ten samples beyond p90; \
             read latency_p90_ms as indicative",
            w.name
        );
    }
    let mut tally = served.tally;
    tally.add(Tally {
        attempted: layers.replays,
        failed: layers.failed,
    });
    let correct =
        tally.failed == 0 && served.phase.server_queries_ok == served.phase.tally.attempted;
    Ok((correct, tally, metrics))
}

/// One `workload metric value unit n=samples` line per metric; `tag` marks
/// lines whose metrics are not in this run's result object.
fn print_lines(workload: &str, tag: &str, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{workload}{tag} {} {} {} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hyperqd-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let (correct, tally, metrics) = match run(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("hyperqd-benchmark: {}: {e}", args.workload.name);
            return ExitCode::from(1);
        }
    };
    print_lines(args.workload.name, "", &metrics);
    let result = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(tally.attempted as i64)),
        ("failed", Json::Int(tally.failed as i64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let value =
                            obj([("value", Json::Float(m.value)), ("unit", Json::str(m.unit))]);
                        (m.name.to_owned(), value)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "hyperqd-benchmark: {}: {} of {} requests failed or went uncounted by the server",
            args.workload.name, tally.failed, tally.attempted
        );
        ExitCode::from(1)
    }
}
