//! The end-to-end side of a run: set-up cycles against a fresh `hyperqd`
//! child, then a closed-loop steady phase over TCP with every reply
//! checked.

use crate::client::{is_expected, Conn};
use crate::server::ServerProc;
use crate::stats;
use crate::workloads::Inputs;
use hyperqd::json::Json;
use hyperqd::protocol::{parse_response, Response};
use hyperqd::stats::Histogram;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Ops answered on a fresh server, after its first query, before a set-up
/// cycle counts as warmed.
const WARM_OPS: usize = 2;

/// Closed-loop time each connection spends before the steady phase starts
/// recording (caches, the worker pool and the allocator settle here).
const PHASE_WARMUP: Duration = Duration::from_millis(500);

/// Most depth-1 round trips a traced run times, and the time it may spend
/// on them.
const PINGPONG_MAX_OPS: usize = 200;
const PINGPONG_BUDGET: Duration = Duration::from_secs(1);

/// What one set-up cycle measured.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    /// Snapshot write → server ready → first query → warm ops, in seconds.
    pub setup_s: f64,
    /// Spawn → the `hyperqd listening on` line, in milliseconds.
    pub ready_ms: f64,
    /// The first query on the fresh server, in milliseconds.
    pub first_query_ms: f64,
}

/// Counts of requests sent and answered wrongly.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that hit a transport error, an error frame or an answer
    /// differing from the expected frame.
    pub failed: u64,
}

impl Tally {
    /// Adds `other`'s counts to this tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one op came to.
struct Op {
    /// First byte written to last reply read; checking that last reply
    /// happens off the clock.
    latency: Duration,
    tally: Tally,
    /// The connection failed: nothing more can be sent on it.
    broken: bool,
}

/// Sends one op (`payload` holds `batch` request lines) and checks every
/// reply.
fn run_op(conn: &mut Conn, inputs: &Inputs, payload: &[u8], batch: usize) -> Op {
    let mut op = Op {
        latency: Duration::ZERO,
        tally: Tally {
            attempted: batch as u64,
            failed: 0,
        },
        broken: false,
    };
    let started = Instant::now();
    if conn.send(payload).is_err() {
        op.tally.failed = op.tally.attempted;
        op.broken = true;
        return op;
    }
    for answered in 0..batch {
        let reply = conn.recv();
        op.latency = started.elapsed();
        match reply {
            Ok(r) if is_expected(r, inputs.expected.as_bytes()) => {}
            Ok(_) => op.tally.failed += 1,
            Err(_) => {
                op.tally.failed += (batch - answered) as u64;
                op.broken = true;
                break;
            }
        }
    }
    op
}

/// One set-up: write the snapshot, start a server on it, wait until it is
/// ready, prepare the named query if the workload uses one, answer a first
/// query and [`WARM_OPS`] warm ops.  Returns the warmed server, a control
/// connection to it, the measurements and the tally of the requests sent.
pub fn setup_cycle(
    inputs: &Inputs,
    hyperqd: &Path,
    snapshot: &Path,
) -> Result<(ServerProc, Conn, Cycle, Tally), String> {
    let started = Instant::now();
    inputs
        .db
        .save_snapshot(snapshot)
        .map_err(|e| e.to_string())?;
    let (server, ready) = ServerProc::spawn(hyperqd, snapshot)?;
    let mut conn = Conn::connect(&server.addr)?;
    if let Some(prepare) = &inputs.prepare_line {
        let reply = conn.roundtrip(format!("{prepare}\n").as_bytes())?;
        if !reply.starts_with(b"{\"ok\":true,\"op\":\"prepared\"") {
            return Err(format!(
                "prepare refused: {}",
                String::from_utf8_lossy(reply)
            ));
        }
    }
    let first_line = format!("{}\n", inputs.query_line);
    let first = run_op(&mut conn, inputs, first_line.as_bytes(), 1);
    let mut tally = first.tally;
    for _ in 0..WARM_OPS {
        tally.add(run_op(&mut conn, inputs, &inputs.op_payload, inputs.workload.batch).tally);
    }
    let cycle = Cycle {
        setup_s: started.elapsed().as_secs_f64(),
        ready_ms: ready.as_secs_f64() * 1e3,
        first_query_ms: first.latency.as_secs_f64() * 1e3,
    };
    Ok((server, conn, cycle, tally))
}

/// A scrape of the server's `stats` op: queries answered `ok` and the
/// latency histogram, both since server start.
pub struct Scrape {
    /// `queries_by_outcome.ok`.
    pub queries_ok: u64,
    /// The server-side latency histogram, in microseconds.
    pub latency: Histogram,
}

/// Fetches and decodes one `stats` frame over `conn`.
pub fn scrape(conn: &mut Conn) -> Result<Scrape, String> {
    let reply = conn.roundtrip(b"{\"op\":\"stats\"}\n")?;
    let text = std::str::from_utf8(reply).map_err(|e| format!("stats frame: {e}"))?;
    let stats = match parse_response(text) {
        Ok(Response::Stats {
            stats: Some(stats), ..
        }) => stats,
        _ => return Err(format!("expected a stats frame, got {text}")),
    };
    let malformed = || "malformed stats frame".to_owned();
    let queries_ok = stats
        .get("queries_by_outcome")
        .and_then(|o| o.get("ok"))
        .and_then(Json::as_u64)
        .ok_or_else(malformed)?;
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
        .map(|pair| match pair.as_arr()? {
            [idx, count] => Some((idx.as_u64()? as usize, count.as_u64()?)),
            _ => None,
        })
        .collect::<Option<_>>()
        .ok_or_else(malformed)?;
    Ok(Scrape {
        queries_ok,
        latency: Histogram::from_sparse(&pairs, max).ok_or_else(malformed)?,
    })
}

/// What a steady phase, or several pooled, measured.
#[derive(Default)]
pub struct Phase {
    /// Client-observed latency of every recorded op that was answered
    /// correctly, ascending, in ms.  Not empty once a phase ran.
    pub latencies_ms: Vec<f64>,
    /// Requests sent and failed during the recorded part.
    pub tally: Tally,
    /// Requests sent and failed during the discarded warm-up.
    pub warmup: Tally,
    /// First recorded op's start to last recorded op's end, in seconds.
    pub wall_s: f64,
    /// Server-side latency of the queries answered during the recorded
    /// part (the difference of two scrapes bracketing it), in µs.
    pub server_latency: Histogram,
    /// Queries the server counted `ok` during the recorded part.
    pub server_queries_ok: u64,
}

impl Phase {
    /// Pools `other`'s measurements into this phase's.
    pub fn absorb(&mut self, other: Phase) {
        self.latencies_ms.extend(other.latencies_ms);
        stats::sort(&mut self.latencies_ms);
        self.tally.add(other.tally);
        self.warmup.add(other.warmup);
        self.wall_s += other.wall_s;
        self.server_latency.merge(&other.server_latency);
        self.server_queries_ok += other.server_queries_ok;
    }

    /// Requests answered correctly per second of recorded phase.
    pub fn throughput_qps(&self) -> f64 {
        (self.tally.attempted - self.tally.failed) as f64 / self.wall_s
    }

    /// The 1st-percentile op latency in ms.
    pub fn p1_ms(&self) -> f64 {
        stats::percentile(&self.latencies_ms, 1.0)
    }

    /// The median op latency in ms.
    pub fn p50_ms(&self) -> f64 {
        stats::percentile(&self.latencies_ms, 50.0)
    }

    /// The 90th-percentile op latency in ms.
    pub fn p90_ms(&self) -> f64 {
        stats::percentile(&self.latencies_ms, 90.0)
    }
}

/// Runs the closed-loop steady phase against the server at `addr`: the
/// workload's connection count, each sending its next op when the previous
/// one is answered, [`PHASE_WARMUP`] discarded, then `seconds` recorded.
/// `control` scrapes the server's stats around the recorded part.
pub fn steady_phase(
    inputs: &Inputs,
    addr: &str,
    control: &mut Conn,
    seconds: Duration,
) -> Result<Phase, String> {
    let w = inputs.workload;
    let conns = (0..w.conns)
        .map(|_| Conn::connect(addr))
        .collect::<Result<Vec<Conn>, String>>()?;
    let barrier = &Barrier::new(w.conns + 1);
    struct ClientResult {
        latencies_ms: Vec<f64>,
        tally: Tally,
        warmup: Tally,
        first_start: Instant,
        last_end: Instant,
    }
    let (clients, before) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                scope.spawn(move || {
                    let mut warmup = Tally::default();
                    let warm_until = Instant::now() + PHASE_WARMUP;
                    let mut broken = false;
                    while !broken && Instant::now() < warm_until {
                        let op = run_op(&mut conn, inputs, &inputs.op_payload, w.batch);
                        warmup.add(op.tally);
                        broken = op.broken;
                    }
                    barrier.wait();
                    barrier.wait();
                    let first_start = Instant::now();
                    let deadline = first_start + seconds;
                    let mut result = ClientResult {
                        latencies_ms: Vec::new(),
                        tally: Tally::default(),
                        warmup,
                        first_start,
                        last_end: first_start,
                    };
                    // A dead connection ends the loop: its ops are counted
                    // as failed once, not retried until the deadline.
                    while !broken && result.last_end < deadline {
                        let op = run_op(&mut conn, inputs, &inputs.op_payload, w.batch);
                        if op.tally.failed == 0 {
                            result.latencies_ms.push(op.latency.as_secs_f64() * 1e3);
                        }
                        result.tally.add(op.tally);
                        result.last_end = Instant::now();
                        broken = op.broken;
                    }
                    result
                })
            })
            .collect();
        barrier.wait();
        // Every client is idle between the barriers: this scrape and the
        // one after the phase bracket exactly the recorded requests.
        let before = scrape(control);
        barrier.wait();
        let clients: Vec<ClientResult> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (clients, before)
    });
    let before = before?;
    let after = scrape(control)?;
    let mut phase = Phase {
        latencies_ms: Vec::new(),
        tally: Tally::default(),
        warmup: Tally::default(),
        wall_s: 0.0,
        server_latency: after.latency.diff(&before.latency),
        server_queries_ok: after.queries_ok - before.queries_ok,
    };
    for client in &clients {
        phase.latencies_ms.extend(&client.latencies_ms);
        phase.tally.add(client.tally);
        phase.warmup.add(client.warmup);
    }
    if phase.latencies_ms.is_empty() {
        return Err("no op of the steady phase was answered correctly".to_owned());
    }
    stats::sort(&mut phase.latencies_ms);
    let first_start = clients.iter().map(|c| c.first_start).min();
    let last_end = clients.iter().map(|c| c.last_end).max();
    phase.wall_s = match (first_start, last_end) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => return Err("steady phase ran no client".to_owned()),
    };
    Ok(phase)
}

/// Depth-1 round trips of the workload's query on `conn`: up to
/// [`PINGPONG_MAX_OPS`] or until [`PINGPONG_BUDGET`] is spent, at least
/// three.  Returns the median in µs and the tally.
pub fn pingpong(conn: &mut Conn, inputs: &Inputs) -> (f64, Tally) {
    let line = format!("{}\n", inputs.query_line);
    let started = Instant::now();
    let mut rtts_us = Vec::new();
    let mut total = Tally::default();
    while rtts_us.len() < PINGPONG_MAX_OPS
        && (rtts_us.len() < 3 || started.elapsed() < PINGPONG_BUDGET)
    {
        let op = run_op(conn, inputs, line.as_bytes(), 1);
        rtts_us.push(op.latency.as_secs_f64() * 1e6);
        total.add(op.tally);
        if op.broken {
            break;
        }
    }
    (stats::median(&rtts_us), total)
}
