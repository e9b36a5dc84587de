//! The `hyperqd` server: databases loaded once, thread-per-connection TCP,
//! per-request governance, graceful shutdown.
//!
//! # Concurrency model
//!
//! The build environment is registry-less, so there is no async runtime:
//! each accepted connection gets an OS thread that reads one line, answers
//! it, and loops.  Replies are rendered into one output buffer per
//! connection and written — `TCP_NODELAY` on, in request order — when the
//! connection's input holds no further complete request line or the buffer
//! passes 64 KiB, so a pipelined batch is answered in one write and a lone
//! request at once.  A long answer is rendered and written in pieces of at
//! most 64 KiB, so a reply is never held whole; a piece the peer does not
//! take, or takes nothing of for the write timeout, closes the connection.
//! A query runs start to finish on its connection's thread — the engine
//! spawns no threads of its own — so N busy connections use at most N
//! cores, and the OS scheduler arbitrates between them.
//!
//! Databases are immutable once loaded and shared as `Arc<Database>`: a
//! query never mutates its database (governed pipelines abort by returning
//! early, never by leaving partial state), which is what the differential
//! soak harness verifies end to end — post-soak snapshots are bit-identical
//! to pre-soak ones.
//!
//! # Shutdown
//!
//! A `shutdown` request stops the accept loop and *drains*: connections
//! stop taking new queries, in-flight queries run to completion and their
//! responses are flushed before [`Server::run`] returns (a query stays in
//! flight until the last piece of its reply is handed to the socket).
//! `shutdown now` additionally cancels in-flight queries through the shared
//! [`CancelToken`] wired into every per-request governor, so they abort at
//! their next checkpoint with a typed `cancelled` error response.
//!
//! # Telemetry
//!
//! Every query/run request is stamped with a trace id (`q-000001`, …) at
//! admission and echoes it in its answer or error frame.  A process-wide
//! stats registry counts requests by op, queries by engine and outcome,
//! bytes in/out and in-flight queries, and buckets server-side latency;
//! the `stats` op snapshots it.  When the slow-query log is armed
//! ([`ServerConfig::slow_ms`]), every query runs metered, under the
//! [`reldb::CollectingSink`] a `"metrics":true` request gets — otherwise
//! its [`reldb::ExecCtx`] keeps the [`reldb::NoopMetrics`] default, so
//! metering costs nothing when off — and any query at or over the
//! threshold writes one JSON line to stderr with its trace id, outcome and
//! metrics document, whose `levels` run from the request's `parse` through
//! the engine's stages to the answer's `serialize`.

use crate::json::{self, Json};
use crate::load::{load_source, DbSource};
use crate::protocol::{
    metrics_json, parse_request, render_response_into, DbInfo, EngineKind, ErrorKind, Overrides,
    QuerySpec, Request, Response, Rows, WireError, FLUSH_BOUND, MAX_LINE,
};
use crate::rank::rank_cells;
use crate::stats::StatsRegistry;
use hypergraph::NodeSet;
use reldb::metrics::{timed, LevelTiming};
use reldb::{
    CancelToken, CollectingSink, Database, EngineError, ExecCtx, Governor, MetricsSink, Phase,
    QueryGovernor, QueryMetrics, Relation,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often an idle connection wakes up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Upper bound on waiting for in-flight queries during a graceful drain.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// How long one socket write may wait for the peer to take data before
/// the peer counts as gone: a client that pipelines requests but stops
/// reading must not pin its thread, its buffered replies and their
/// in-flight guards forever.  (A write that had queued part of its data
/// when the wait ran out reports that part; the next one then fails, so a
/// dead peer is dropped within twice this.)
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Server construction parameters.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// The served databases, by name.
    pub databases: Vec<(String, DbSource)>,
    /// Arms the slow-query log: queries taking at least this many
    /// milliseconds log one JSON line to stderr (and every query runs
    /// metered, so the line carries its metrics document).  `None` disables
    /// both the log and the metering overhead.
    pub slow_ms: Option<u64>,
}

/// Counters reported by [`Server::run`] after shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Query/run requests executed (successful or not).
    pub queries: u64,
    /// Whether every in-flight query finished within the drain limit.
    pub drained_clean: bool,
}

struct State {
    dbs: BTreeMap<String, Arc<Database>>,
    prepared: Mutex<BTreeMap<String, QuerySpec>>,
    shutting_down: AtomicBool,
    cancel_all: CancelToken,
    active: Mutex<usize>,
    drained: Condvar,
    connections: AtomicU64,
    queries: AtomicU64,
    stats: StatsRegistry,
    next_trace: AtomicU64,
    /// Slow-query threshold in milliseconds; 0 = log (and metering) off.
    slow_ms: AtomicU64,
}

impl State {
    /// Marks a query/run request in flight (drain counter and the stats
    /// gauge together).  The returned guard is held across execution *and*
    /// until the reply's bytes are written ([`Outbox::flush`]), so a clean
    /// drain guarantees every accepted query was answered on the wire.
    fn begin_query(&self) -> QueryGuard<'_> {
        *self.active.lock().expect("active lock") += 1;
        self.stats.query_begin();
        QueryGuard(self)
    }

    fn end_query(&self) {
        self.stats.query_end();
        let mut n = self.active.lock().expect("active lock");
        *n -= 1;
        if *n == 0 {
            self.drained.notify_all();
        }
    }

    /// The next per-query trace id; ids are unique for the process
    /// lifetime and echoed in answer and error frames.
    fn new_trace_id(&self) -> String {
        format!(
            "q-{:06}",
            self.next_trace.fetch_add(1, Ordering::Relaxed) + 1
        )
    }
}

/// Guard so a connection thread that dies mid-query still decrements the
/// in-flight counter and lets the drain finish.
struct QueryGuard<'a>(&'a State);

impl Drop for QueryGuard<'_> {
    fn drop(&mut self) {
        self.0.end_query();
    }
}

/// A bound, loaded server, ready to [`run`](Server::run) or
/// [`spawn`](Server::spawn).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<State>,
}

/// Handle to a server running on a background thread (the in-process
/// harness the test suites drive).
pub struct ServerHandle {
    addr: SocketAddr,
    join: std::thread::JoinHandle<ServeStats>,
}

impl ServerHandle {
    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to shut down and returns its counters.
    pub fn join(self) -> ServeStats {
        self.join.join().expect("server thread panicked")
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and loads
    /// every configured database.  Loading happens once, here — queries
    /// only ever read the shared `Arc<Database>`s.
    pub fn bind(addr: &str, config: &ServerConfig) -> Result<Server, WireError> {
        let mut databases = Vec::new();
        for (name, source) in &config.databases {
            let db = load_source(source).map_err(WireError::from)?;
            databases.push((name.clone(), Arc::new(db)));
        }
        let server = Server::bind_preloaded(addr, databases)?;
        if let Some(ms) = config.slow_ms {
            server.set_slow_ms(ms);
        }
        Ok(server)
    }

    /// Binds `addr` and serves already-loaded databases — the in-process
    /// entry point the differential soak and fault harnesses use.  Callers
    /// keeping a clone of an `Arc<Database>` observe exactly the object the
    /// server queries, so post-soak snapshot comparison proves the served
    /// database was never mutated.
    pub fn bind_preloaded(
        addr: &str,
        databases: Vec<(String, Arc<Database>)>,
    ) -> Result<Server, WireError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| WireError::new(ErrorKind::Io, format!("bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| WireError::new(ErrorKind::Io, format!("local_addr: {e}")))?;
        let mut dbs = BTreeMap::new();
        for (name, db) in databases {
            if dbs.insert(name.clone(), db).is_some() {
                return Err(WireError::new(
                    ErrorKind::Io,
                    format!("duplicate database name {name:?}"),
                ));
            }
        }
        Ok(Server {
            listener,
            addr: local,
            state: Arc::new(State {
                dbs,
                prepared: Mutex::new(BTreeMap::new()),
                shutting_down: AtomicBool::new(false),
                cancel_all: CancelToken::new(),
                active: Mutex::new(0),
                drained: Condvar::new(),
                connections: AtomicU64::new(0),
                queries: AtomicU64::new(0),
                stats: StatsRegistry::new(),
                next_trace: AtomicU64::new(0),
                slow_ms: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Arms the slow-query log at `ms` milliseconds (0 disarms it).  While
    /// armed, queries execute under a [`CollectingSink`] so logged lines
    /// carry their metrics; disarmed servers run the unmetered pipelines.
    pub(crate) fn set_slow_ms(&self, ms: u64) {
        self.state.slow_ms.store(ms, Ordering::Relaxed);
    }

    /// Serves until a `shutdown` request arrives, then drains and returns.
    pub fn run(self) -> ServeStats {
        let Server {
            listener,
            addr,
            state,
        } = self;
        for stream in listener.incoming() {
            if state.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue, // transient accept failure
            };
            state.connections.fetch_add(1, Ordering::Relaxed);
            let state = Arc::clone(&state);
            let server_addr = addr;
            std::thread::spawn(move || handle_connection(&state, stream, server_addr));
        }
        // Drain: wait until no query is in flight (each one's response is
        // flushed before the counter drops, so a clean drain means every
        // accepted query was answered).
        let deadline = Instant::now() + DRAIN_LIMIT;
        let mut active = state.active.lock().expect("active lock");
        let mut drained_clean = true;
        while *active > 0 {
            let now = Instant::now();
            if now >= deadline {
                drained_clean = false;
                break;
            }
            let (guard, _timeout) = state
                .drained
                .wait_timeout(active, deadline - now)
                .expect("drain wait");
            active = guard;
        }
        drop(active);
        ServeStats {
            connections: state.connections.load(Ordering::Relaxed),
            queries: state.queries.load(Ordering::Relaxed),
            drained_clean,
        }
    }

    /// Runs the server on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let join = std::thread::spawn(move || self.run());
        ServerHandle { addr, join }
    }
}

/// What reading one frame yielded.
enum Frame {
    Line(String),
    /// Peer closed (or errored); stop serving this connection.
    Closed,
    /// The line exceeded [`MAX_LINE`]; the connection can no longer be
    /// framed and must close after an error response.
    TooLong,
    /// Server is shutting down and the connection is idle.
    ShuttingDown,
}

/// Reads one `\n`-terminated line, polling the shutdown flag while idle
/// and enforcing [`MAX_LINE`] while reading.
fn read_frame(reader: &mut BufReader<TcpStream>, state: &State) -> Frame {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if buf.len() > MAX_LINE {
            return Frame::TooLong;
        }
        let budget = (MAX_LINE + 1 - buf.len()) as u64;
        match reader.by_ref().take(budget).read_until(b'\n', &mut buf) {
            Ok(0) => {
                // EOF — or the `take` budget ran out exactly at the cap.
                if buf.len() > MAX_LINE {
                    return Frame::TooLong;
                }
                if buf.is_empty() {
                    return Frame::Closed;
                }
                // A final, unterminated line still gets an answer.
                return frame_from(buf);
            }
            Ok(_) => {
                if buf.last() == Some(&b'\n') {
                    return frame_from(buf);
                }
                // Budget exhausted mid-line; loop re-checks the cap.
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if state.shutting_down.load(Ordering::SeqCst) && buf.is_empty() {
                    return Frame::ShuttingDown;
                }
            }
            Err(_) => return Frame::Closed,
        }
    }
}

fn frame_from(mut buf: Vec<u8>) -> Frame {
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    match String::from_utf8(buf) {
        Ok(line) => Frame::Line(line),
        // Invalid UTF-8 still yields a parseable-looking line so the
        // request parser can reject it with a structured error.
        Err(e) => Frame::Line(String::from_utf8_lossy(e.as_bytes()).into_owned()),
    }
}

/// A connection's outgoing side: replies are rendered into one buffer and
/// leave in one write per drained pipeline (see [`handle_connection`]); a
/// long answer leaves in pieces of at most [`FLUSH_BOUND`] bytes, each
/// written as it fills.
struct Outbox<'a> {
    state: &'a State,
    stream: TcpStream,
    buf: Vec<u8>,
    /// In-flight guards of the queries whose replies sit in `buf`, or went
    /// out of it in pieces.
    guards: Vec<QueryGuard<'a>>,
}

impl<'a> Outbox<'a> {
    /// Renders `response` after the replies already buffered, writing out
    /// every full piece of a long answer on the way.  The query's guard is
    /// held until its last piece is written, by [`Outbox::flush`].  False
    /// when a piece could not be written: the connection must close.
    fn push(&mut self, response: &Response, guard: Option<QueryGuard<'a>>) -> bool {
        self.guards.extend(guard);
        let (state, stream) = (self.state, &self.stream);
        let mut spill = |buf: &mut Vec<u8>| write_out(state, stream, buf);
        let sent = render_response_into(response, &mut self.buf, Some(&mut spill));
        self.buf.push(b'\n');
        sent
    }

    /// True when buffered replies must go out now: the buffer passed
    /// [`FLUSH_BOUND`], or `reader` holds no further complete request line
    /// (the pipeline is drained — the client may be waiting on these).
    fn is_due(&self, reader: &BufReader<TcpStream>) -> bool {
        !self.buf.is_empty() && (self.buf.len() >= FLUSH_BOUND || !reader.buffer().contains(&b'\n'))
    }

    /// Writes everything buffered, then releases the guards of the queries
    /// it answered.  Returns false when the peer is gone or took nothing
    /// for [`WRITE_TIMEOUT`]; the connection must close (the guards are
    /// released all the same, so a drain never waits on a dead peer).
    fn flush(&mut self) -> bool {
        let sent = write_out(self.state, &self.stream, &mut self.buf);
        if self.buf.capacity() > FLUSH_BOUND {
            // A large answer went through; do not keep its allocation.
            self.buf = Vec::new();
        }
        self.guards.clear();
        sent
    }
}

/// Writes all of `buf` to `stream` and empties it; `bytes_out` counts what
/// the socket actually took.  False when the peer is gone or took nothing
/// for [`WRITE_TIMEOUT`].
fn write_out(state: &State, mut stream: &TcpStream, buf: &mut Vec<u8>) -> bool {
    let mut rest = buf.as_slice();
    while !rest.is_empty() {
        match stream.write(rest) {
            Ok(0) => break,
            Ok(n) => {
                state.stats.add_bytes_out(n as u64);
                rest = &rest[n..];
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    let sent = rest.is_empty();
    buf.clear();
    sent
}

/// The stats-registry op label of a parsed request.
fn op_label(request: &Request) -> &'static str {
    match request {
        Request::Ping => "ping",
        Request::List => "list",
        Request::Query(_) => "query",
        Request::Prepare { .. } => "prepare",
        Request::Run { .. } => "run",
        Request::Stats { .. } => "stats",
        Request::Shutdown { .. } => "shutdown",
    }
}

/// Serves one connection.  Replies go out in request order, rendered into
/// the connection's [`Outbox`] and written when the input buffer holds no
/// further complete request line or the buffer passes [`FLUSH_BOUND`]: a
/// pipelined batch is answered in one write, a lone request immediately.
/// `TCP_NODELAY` is on, so that write never waits for the peer's ACK.
fn handle_connection(state: &State, stream: TcpStream, server_addr: SocketAddr) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut out = match stream.try_clone() {
        Ok(stream) => Outbox {
            state,
            stream,
            buf: Vec::new(),
            guards: Vec::new(),
        },
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        if out.is_due(&reader) && !out.flush() {
            return;
        }
        match read_frame(&mut reader, state) {
            Frame::Closed | Frame::ShuttingDown => break,
            Frame::TooLong => {
                state.stats.record_request("invalid");
                let e = WireError::new(
                    ErrorKind::Proto,
                    format!("request line exceeds MAX_LINE ({MAX_LINE} bytes); closing"),
                );
                let _ = out.push(&Response::Error(e), None);
                break;
            }
            Frame::Line(line) => {
                if line.is_empty() {
                    continue; // blank keep-alive line
                }
                state.stats.add_bytes_in(line.len() as u64 + 1);
                let parse_t0 = Instant::now();
                let request = match parse_request(&line) {
                    Ok(r) => r,
                    Err(e) => {
                        state.stats.record_request("invalid");
                        // Malformed frame: answer it, keep the connection.
                        if !out.push(&Response::Error(e), None) {
                            return;
                        }
                        continue;
                    }
                };
                let parse_nanos = parse_t0.elapsed().as_nanos() as u64;
                state.stats.record_request(op_label(&request));
                // The in-flight guard spans execution AND the reply's
                // flush: the graceful drain in `Server::run` must not
                // return while an answer is still in this thread's hands.
                let guard = match &request {
                    Request::Query(_) | Request::Run { .. } => Some(state.begin_query()),
                    _ => None,
                };
                let (response, close) = handle_request(state, request, parse_nanos);
                if !out.push(&response, guard) {
                    return; // the peer stopped taking a long answer mid-reply
                }
                if close {
                    // Every earlier reply and the farewell are on the wire
                    // (or the peer is gone); only now unblock the accept
                    // loop so the process cannot exit before they are.
                    out.flush();
                    let _ = TcpStream::connect(server_addr);
                    return;
                }
            }
        }
    }
    out.flush();
}

fn handle_request(state: &State, request: Request, parse_nanos: u64) -> (Response, bool) {
    match request {
        Request::Ping => (Response::Pong, false),
        Request::List => (list(state), false),
        Request::Stats { prometheus } => {
            let resp = if prometheus {
                Response::Stats {
                    stats: None,
                    text: Some(state.stats.prometheus()),
                }
            } else {
                Response::Stats {
                    stats: Some(state.stats.snapshot_json()),
                    text: None,
                }
            };
            (resp, false)
        }
        Request::Shutdown { now } => {
            state.shutting_down.store(true, Ordering::SeqCst);
            if now {
                state.cancel_all.cancel();
            }
            // The caller wakes the accept loop — after Bye is flushed.
            (Response::Bye, true)
        }
        Request::Prepare { name, spec } => {
            if state.shutting_down.load(Ordering::SeqCst) {
                return (refuse_during_shutdown(None), false);
            }
            match validate(state, &spec) {
                Err(e) => (Response::Error(e), false),
                Ok(()) => {
                    state
                        .prepared
                        .lock()
                        .expect("prepared lock")
                        .insert(name.clone(), spec);
                    (Response::Prepared { name }, false)
                }
            }
        }
        Request::Query(spec) => {
            let trace_id = state.new_trace_id();
            if state.shutting_down.load(Ordering::SeqCst) {
                state
                    .stats
                    .record_query(None, Err(ErrorKind::Shutdown), parse_nanos / 1_000);
                return (refuse_during_shutdown(Some(trace_id)), false);
            }
            (execute(state, &spec, &trace_id, parse_nanos), false)
        }
        Request::Run { name, overrides } => {
            let trace_id = state.new_trace_id();
            if state.shutting_down.load(Ordering::SeqCst) {
                state
                    .stats
                    .record_query(None, Err(ErrorKind::Shutdown), parse_nanos / 1_000);
                return (refuse_during_shutdown(Some(trace_id)), false);
            }
            let stored = state
                .prepared
                .lock()
                .expect("prepared lock")
                .get(&name)
                .cloned();
            match stored {
                None => {
                    state.stats.record_query(
                        None,
                        Err(ErrorKind::UnknownQuery),
                        parse_nanos / 1_000,
                    );
                    (
                        Response::Error(
                            WireError::new(
                                ErrorKind::UnknownQuery,
                                format!("no prepared query named {name:?}"),
                            )
                            .with_trace(trace_id),
                        ),
                        false,
                    )
                }
                Some(mut spec) => {
                    spec.overrides = overrides.layered_over(&spec.overrides);
                    (execute(state, &spec, &trace_id, parse_nanos), false)
                }
            }
        }
    }
}

fn refuse_during_shutdown(trace: Option<String>) -> Response {
    let mut e = WireError::new(
        ErrorKind::Shutdown,
        "server is shutting down; no new queries accepted",
    );
    if let Some(t) = trace {
        e = e.with_trace(t);
    }
    Response::Error(e)
}

fn list(state: &State) -> Response {
    let databases = state
        .dbs
        .iter()
        .map(|(name, db)| DbInfo {
            name: name.clone(),
            relations: db.relations().len() as u64,
            tuples: db.tuple_count() as u64,
            acyclic: db.is_acyclic(),
        })
        .collect();
    let queries = state
        .prepared
        .lock()
        .expect("prepared lock")
        .keys()
        .cloned()
        .collect();
    Response::Listing { databases, queries }
}

fn validate(state: &State, spec: &QuerySpec) -> Result<(), WireError> {
    let db = state.dbs.get(&spec.db).ok_or_else(|| {
        WireError::new(
            ErrorKind::UnknownDb,
            format!("no database named {:?}", spec.db),
        )
    })?;
    db.attributes(spec.select.iter().map(String::as_str))
        .map_err(|e| WireError::new(ErrorKind::Schema, format!("bad select: {e}")))?;
    Ok(())
}

/// Builds the per-request governor: the server-wide cancel token (so
/// `shutdown now` aborts every in-flight query), plus the request's
/// deadline and memory budget.
fn governor_for(state: &State, o: &Overrides, started: Instant) -> QueryGovernor {
    let mut g = QueryGovernor::with_token(state.cancel_all.clone()).started_at(started);
    if let Some(ms) = o.timeout_ms {
        g = g.with_deadline(Duration::from_millis(ms));
    }
    if let Some(mb) = o.mem_budget_mb {
        g = g.with_memory_budget(mb.saturating_mul(1024 * 1024));
    }
    g
}

/// Runs `engine` over the attribute set `x` under `ctx` — the one engine
/// dispatch, which the one-shot CLI (`hyperq query`) calls too.  A result
/// produced after the deadline still counts as a timeout: the caller asked
/// for an answer *within* its budget, so the outcome must not depend on
/// which checkpoint happened to notice.
pub fn run_engine<M: MetricsSink, G: Governor>(
    db: &Database,
    engine: EngineKind,
    x: &NodeSet,
    ctx: &ExecCtx<'_, M, G>,
) -> Result<Relation, EngineError> {
    let answer = match engine {
        EngineKind::Yannakakis => ctx.query_yannakakis(db, x),
        EngineKind::Connection => ctx.query_via_connection(db, x),
        EngineKind::Naive => ctx.query_via_full_join(db, x),
    }?;
    ctx.gov.checkpoint()?;
    Ok(answer)
}

/// Executes one query request end to end, producing its response frame —
/// always stamped with `trace_id` — and recording its outcome, engine and
/// latency into the stats registry.
fn execute(state: &State, spec: &QuerySpec, trace_id: &str, parse_nanos: u64) -> Response {
    let started = Instant::now();
    let slow_ms = state.slow_ms.load(Ordering::Relaxed);
    let sink = (slow_ms > 0 || spec.overrides.metrics == Some(true)).then(CollectingSink::new);
    let engine = spec.engine.unwrap_or_default();
    let (response, engine_reached, outcome) = execute_inner(state, spec, trace_id, sink.as_ref());
    let elapsed = started.elapsed();
    state.stats.record_query(
        engine_reached.then_some(engine),
        outcome,
        elapsed.as_micros() as u64,
    );
    if let Some(sink) = sink.filter(|_| slow_ms > 0 && elapsed.as_millis() as u64 >= slow_ms) {
        state.stats.record_slow();
        let line = slow_query_line(
            spec,
            trace_id,
            outcome,
            elapsed,
            parse_nanos,
            sink.snapshot(),
        );
        eprintln!("{line}");
    }
    response
}

/// The slow-query log line of one query: trace id, query shape, outcome,
/// and its metrics document with the request's `parse` entry put before
/// the engine's stages (the answer's `serialize` entry, when one was
/// rendered, is already the last).
fn slow_query_line(
    spec: &QuerySpec,
    trace_id: &str,
    outcome: Result<(), ErrorKind>,
    elapsed: Duration,
    parse_nanos: u64,
    mut metrics: QueryMetrics,
) -> Json {
    let parse = LevelTiming {
        phase: Phase::Parse,
        level: 0,
        nanos: parse_nanos,
    };
    metrics.levels.insert(0, parse);
    let outcome_label = match outcome {
        Ok(()) => "ok",
        Err(k) => k.as_str(),
    };
    let select = spec.select.iter().map(Json::str).collect();
    json::obj([
        ("slow_query", Json::str(trace_id)),
        ("db", Json::str(&spec.db)),
        ("select", Json::Arr(select)),
        (
            "engine",
            Json::str(spec.engine.unwrap_or_default().as_str()),
        ),
        ("outcome", Json::str(outcome_label)),
        ("elapsed_us", Json::Int(elapsed.as_micros() as i64)),
        ("metrics", metrics_json(&metrics)),
    ])
}

/// The engine-dispatch half of [`execute`]: returns the response plus what
/// the registry should record (whether an engine ran, and the outcome).
/// A present `sink` meters the engine and times the answer's
/// serialization; the response carries its report only when the request
/// asked for metrics.
fn execute_inner(
    state: &State,
    spec: &QuerySpec,
    trace_id: &str,
    sink: Option<&CollectingSink>,
) -> (Response, bool, Result<(), ErrorKind>) {
    let db = match state.dbs.get(&spec.db) {
        Some(db) => Arc::clone(db),
        None => {
            return (
                Response::Error(
                    WireError::new(
                        ErrorKind::UnknownDb,
                        format!("no database named {:?}", spec.db),
                    )
                    .with_trace(trace_id),
                ),
                false,
                Err(ErrorKind::UnknownDb),
            )
        }
    };
    state.queries.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    let base = governor_for(state, &spec.overrides, started);
    let want_metrics = spec.overrides.metrics == Some(true);
    let fail_requested =
        spec.overrides.fail_at_semijoin.is_some() || spec.overrides.fail_panic == Some(true);

    #[cfg(not(feature = "failpoints"))]
    if fail_requested {
        return (
            Response::Error(
                WireError::new(
                    ErrorKind::Proto,
                    "fault injection requires a server built with the failpoints feature",
                )
                .with_trace(trace_id),
            ),
            false,
            Err(ErrorKind::Proto),
        );
    }

    let run = || -> Result<Relation, WireError> {
        let x = db
            .attributes(spec.select.iter().map(String::as_str))
            .map_err(|e| WireError::new(ErrorKind::Schema, format!("bad select: {e}")))?;
        let engine = spec.engine.unwrap_or_default();
        // The sink is optional per request but static per call: attach it,
        // when present, to the governed context.
        macro_rules! with_gov {
            ($gov:expr) => {{
                let ctx = ExecCtx::new().gov($gov);
                match sink {
                    Some(sink) => run_engine(&db, engine, &x, &ctx.metrics(sink)),
                    None => run_engine(&db, engine, &x, &ctx),
                }
                .map_err(WireError::from)
            }};
        }
        #[cfg(feature = "failpoints")]
        if fail_requested {
            let mut gov = reldb::FailpointGovernor::with_base(base.clone());
            if let Some(n) = spec.overrides.fail_at_semijoin {
                gov = gov.fail_at_semijoin(n);
            }
            if spec.overrides.fail_panic == Some(true) {
                gov = gov.fail_mode(reldb::FailMode::Panic);
            }
            return with_gov!(&gov);
        }
        with_gov!(&base)
    };

    let result = run();
    let metrics = sink
        .filter(|_| want_metrics)
        .map(|s| metrics_json(&s.snapshot()));

    match result {
        Err(e) => {
            let kind = e.kind;
            (Response::Error(e.with_trace(trace_id)), true, Err(kind))
        }
        Ok(answer) => {
            let serialize = || answer_frame(&db, &answer, metrics);
            let mut resp = match sink {
                Some(s) => timed(s, Phase::Serialize, 0, serialize),
                None => serialize(),
            };
            if let Response::Answer { trace, .. } = &mut resp {
                *trace = Some(trace_id.to_owned());
            }
            (resp, true, Ok(()))
        }
    }
}

/// Renders a relation as a canonical `answer` frame: attributes in schema
/// universe order, rows sorted by value — so equal relations yield
/// byte-identical frames no matter which engine or thread count produced
/// them.  The differential soak harness depends on exactly this.
///
/// The frame is built from the answer's handle rows, and neither ordering
/// compares tuples.  The handles the rows use are ranked once by
/// [`reldb::Value`] order and each becomes one cell, its value rendered
/// once into a token (`rank::rank_cells`: a bitmap of the distinct
/// handles, taken in handle order where the pool's handle order is value
/// order — a snapshot-loaded pool's — and through [`reldb::value_order`],
/// the snapshot saver's sort, anywhere else); rows are then ordered as
/// tuples of ranks by [`reldb::sort_ids_by_key`], the one id sorter, which
/// the sort-merge semijoin kernel, `Relation::same_contents`,
/// [`reldb::value_order`] and the snapshot saver share.  An answer the
/// engine enumerated from a loaded snapshot arrives in that order already,
/// and the sorter's neighbour scan returns it as it is.
/// No `Value` is cloned and no [`json::Json`] built per cell or per
/// distinct value, and no row is moved: the frame's [`Rows`] hold the
/// tokens, the ranked rows where the engine left them and the sort's
/// permutation, and the rows' tokens are gathered in that order when the
/// reply is rendered, straight into its text.
///
/// The pool lock — database-wide, so shared by every connection querying
/// that database — is held for taking the distinct handles in value order
/// and rendering their tokens: for an ordered pool a sweep of the marks,
/// for any other the whole value sort, integers and strings (the keys
/// borrow from the dictionary).  Marking, the per-cell rewrite and the row
/// order run outside it.
pub fn answer_frame(db: &Database, answer: &Relation, metrics: Option<json::Json>) -> Response {
    let universe = db.schema().universe();
    let columns = answer.columns();
    let attrs = columns
        .iter()
        .map(|&n| universe.name(n).to_owned())
        .collect();
    let (width, len) = (columns.len(), answer.len());
    let handles = answer.handle_rows();
    assert_eq!(handles.len(), len * width, "one handle per cell");
    let (tokens, ranked) = rank_cells(answer.pool(), handles);
    let order = reldb::sort_ids_by_key(&ranked, width, len);
    Response::Answer {
        attrs,
        rows: Rows::from_parts(width, len, tokens, ranked, order),
        metrics,
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::{EdgeId, Hypergraph};

    #[test]
    fn slow_query_line_wraps_the_engine_stages_in_parse_and_serialize() {
        let schema = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap();
        let mut db = Database::empty(schema);
        db.insert_values(EdgeId(0), [1, 2]);
        db.insert_values(EdgeId(1), [2, 3]);
        let x = db.attributes(["A", "C"]).unwrap();
        let sink = CollectingSink::new();
        let ctx = ExecCtx::new().metrics(&sink);
        let answer = run_engine(&db, EngineKind::Yannakakis, &x, &ctx).unwrap();
        timed(&sink, Phase::Serialize, 0, || {
            answer_frame(&db, &answer, None)
        });

        let spec = QuerySpec {
            db: "say \"big\"".into(),
            select: vec!["A".into(), "C".into()],
            engine: None,
            overrides: Overrides::default(),
        };
        let elapsed = Duration::from_micros(1500);
        let line = slow_query_line(&spec, "q-000007", Ok(()), elapsed, 4_000, sink.snapshot());
        let text = line.to_string();
        assert!(text.contains(r#""db":"say \"big\"""#), "{text}");
        assert_eq!(json::parse(&text).unwrap(), line);
        for (member, want) in [
            ("slow_query", Json::str("q-000007")),
            ("engine", Json::str("yannakakis")),
            ("outcome", Json::str("ok")),
            ("elapsed_us", Json::Int(1500)),
        ] {
            assert_eq!(line.get(member), Some(&want), "{member}");
        }

        let metrics = line.get("metrics").expect("a metrics member");
        let levels = metrics.get("levels").and_then(Json::as_arr).unwrap();
        let phase = |l: &Json| l.get("phase").and_then(Json::as_str).unwrap().to_owned();
        let phases: Vec<String> = levels.iter().map(phase).collect();
        assert_eq!(
            phases.first().map(String::as_str),
            Some("parse"),
            "{phases:?}"
        );
        assert_eq!(levels[0].get("nanos"), Some(&Json::Int(4_000)));
        assert_eq!(
            phases.last().map(String::as_str),
            Some("serialize"),
            "{phases:?}"
        );
        let engine = &phases[1..phases.len() - 1];
        for stage in ["reduce-up", "reduce-down", "join"] {
            assert!(engine.iter().any(|p| p == stage), "{stage} in {phases:?}");
        }
        assert!(engine.iter().all(|p| p != "parse" && p != "serialize"));

        let counter = |path: [&str; 2]| metrics.get(path[0]).and_then(|m| m.get(path[1]));
        assert!(counter(["semijoin", "ops"]).and_then(Json::as_u64) > Some(0));
        assert!(counter(["join", "probed"]).and_then(Json::as_u64) > Some(0));
        assert!(metrics.get("decomposition").is_some() && metrics.get("bags").is_some());
    }
}
