//! The `hyperqd` wire protocol: one JSON object per `\n`-terminated line.
//!
//! # Requests
//!
//! ```text
//! {"op":"ping"}
//! {"op":"list"}
//! {"op":"query","db":"fig1","select":["B","D"],"engine":"yannakakis",
//!  "timeout_ms":500,"mem_budget_mb":64,"metrics":true}
//! {"op":"prepare","name":"bd","db":"fig1","select":["B","D"]}
//! {"op":"run","name":"bd","timeout_ms":250}
//! {"op":"stats"}                      // telemetry snapshot (JSON)
//! {"op":"stats","format":"prometheus"}  // text exposition
//! {"op":"shutdown"}            // graceful: drain in-flight queries
//! {"op":"shutdown","mode":"now"}  // cancel in-flight queries, then stop
//! ```
//!
//! Unknown members are ignored, so an older client's request — one still
//! carrying the retired `"threads"` or `"strategy"` member, say — keeps
//! working: the server ignores both.
//!
//! # Responses
//!
//! Every response carries `"ok"` plus an `"op"` tag; errors carry the
//! machine-readable `"kind"` and the `"code"` a CLI client should exit
//! with (the same contract as one-shot `hyperq`: 3 deadline/cancelled,
//! 4 budget, 5 engine panic, 2 everything else).
//!
//! ```text
//! {"ok":true,"op":"answer","attrs":["B","D"],"tuples":4,"rows":[[1,4],…],"trace":"q-000017"}
//! {"ok":false,"op":"error","kind":"deadline","message":"…","code":3,"trace":"q-000018"}
//! ```
//!
//! The server stamps every admitted query with a trace id (`"trace"`,
//! last field) and echoes it in the answer **and** error frames, so a
//! client can correlate a response with the server's slow-query log.
//!
//! Serialization is canonical — fixed field order, optional fields omitted
//! — so `parse ∘ render` is the identity on every frame; the protocol
//! proptests pin that, and the differential soak harness relies on it for
//! byte-identical response comparison.

use crate::json::{into_text, obj, parse as parse_json, write_escaped, Json, INFALLIBLE};
use reldb::metrics::OpAgg;
use reldb::{EngineError, QueryMetrics};
use std::io::Write as _;

/// Hard cap on one protocol line, terminator included.  A peer that sends
/// more without a newline gets a structured [`ErrorKind::Proto`] response
/// and its connection closed (the line can no longer be framed).
pub const MAX_LINE: usize = 1 << 20;

/// Which query engine a request selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The production path: Yannakakis over the join tree, routed through
    /// the hypertree decomposition when the schema is cyclic.
    #[default]
    Yannakakis,
    /// The Yannakakis engine over the objects of the canonical connection
    /// `CC(X)` only (paper §7).
    Connection,
    /// Join every object, then project — the naive baseline.
    Naive,
}

impl EngineKind {
    /// The canonical wire name of this engine (`"yannakakis"`,
    /// `"connection"`, `"naive"`) — also the `engine` label value in the
    /// server's stats registry.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Yannakakis => "yannakakis",
            EngineKind::Connection => "connection",
            EngineKind::Naive => "naive",
        }
    }

    /// Parses a wire name.  The `--engine` flag of `hyperq query` and of
    /// `hyperq client`, and the protocol's `"engine"` member, all read
    /// through this.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "yannakakis" => Ok(EngineKind::Yannakakis),
            "connection" => Ok(EngineKind::Connection),
            "naive" => Ok(EngineKind::Naive),
            other => Err(format!(
                "unknown engine {other:?} (expected connection, yannakakis or naive)"
            )),
        }
    }
}

/// Per-request governance and reporting overrides.  Every field is
/// optional; on a prepared query, request-time overrides win over the
/// values stored at `prepare` time, field by field.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Overrides {
    /// Wall-clock deadline for the query, in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Memory budget for intermediate results, in mebibytes.
    pub mem_budget_mb: Option<u64>,
    /// Attach per-query [`reldb::QueryMetrics`] to the answer.
    pub metrics: Option<bool>,
    /// Fault injection: arm a failpoint at the n-th semijoin of this query.
    /// Honored only by servers compiled with the `failpoints` feature;
    /// otherwise the request is rejected with a [`ErrorKind::Proto`] error.
    pub fail_at_semijoin: Option<u64>,
    /// Fault injection: a fired failpoint panics (contained to this query)
    /// instead of returning a typed error.  Same feature gate as
    /// [`Overrides::fail_at_semijoin`].
    pub fail_panic: Option<bool>,
}

impl Overrides {
    /// True when no field is set.
    pub fn is_empty(&self) -> bool {
        *self == Overrides::default()
    }

    /// Request-time overrides layered over prepared defaults.
    pub fn layered_over(&self, base: &Overrides) -> Overrides {
        Overrides {
            timeout_ms: self.timeout_ms.or(base.timeout_ms),
            mem_budget_mb: self.mem_budget_mb.or(base.mem_budget_mb),
            metrics: self.metrics.or(base.metrics),
            fail_at_semijoin: self.fail_at_semijoin.or(base.fail_at_semijoin),
            fail_panic: self.fail_panic.or(base.fail_panic),
        }
    }

    /// Appends the set fields.  A count past `i64::MAX`, the largest wire
    /// integer, goes out as `i64::MAX`: a limit that large is no limit
    /// either way.
    fn push_fields(&self, pairs: &mut Vec<(String, Json)>) {
        let int = |n: u64| Json::Int(i64::try_from(n).unwrap_or(i64::MAX));
        if let Some(n) = self.timeout_ms {
            pairs.push(("timeout_ms".to_owned(), int(n)));
        }
        if let Some(n) = self.mem_budget_mb {
            pairs.push(("mem_budget_mb".to_owned(), int(n)));
        }
        if let Some(b) = self.metrics {
            pairs.push(("metrics".to_owned(), Json::Bool(b)));
        }
        if let Some(n) = self.fail_at_semijoin {
            pairs.push(("fail_at_semijoin".to_owned(), int(n)));
        }
        if let Some(b) = self.fail_panic {
            pairs.push(("fail_panic".to_owned(), Json::Bool(b)));
        }
    }

    fn from_json(v: &Json) -> Result<Overrides, WireError> {
        let mut o = Overrides::default();
        for (field, slot) in [
            ("timeout_ms", &mut o.timeout_ms),
            ("mem_budget_mb", &mut o.mem_budget_mb),
            ("fail_at_semijoin", &mut o.fail_at_semijoin),
        ] {
            if let Some(n) = v.get(field) {
                *slot = Some(
                    n.as_u64()
                        .ok_or_else(|| proto(format!("{field} must be a non-negative integer")))?,
                );
            }
        }
        if let Some(b) = v.get("metrics") {
            o.metrics = Some(
                b.as_bool()
                    .ok_or_else(|| proto("metrics must be a boolean"))?,
            );
        }
        if let Some(b) = v.get("fail_panic") {
            o.fail_panic = Some(
                b.as_bool()
                    .ok_or_else(|| proto("fail_panic must be a boolean"))?,
            );
        }
        Ok(o)
    }
}

/// An ad-hoc (or prepared) query: which database, which attributes, which
/// engine, plus overrides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// The database name, as registered at server startup.
    pub db: String,
    /// The universal-relation attribute set `X`, by name.
    pub select: Vec<String>,
    /// Engine selection; `None` means [`EngineKind::Yannakakis`].
    pub engine: Option<EngineKind>,
    /// Execution and governance overrides.
    pub overrides: Overrides,
}

impl QuerySpec {
    fn push_fields(&self, pairs: &mut Vec<(String, Json)>) {
        pairs.push(("db".to_owned(), Json::str(&self.db)));
        pairs.push((
            "select".to_owned(),
            Json::Arr(self.select.iter().map(Json::str).collect()),
        ));
        if let Some(e) = self.engine {
            pairs.push(("engine".to_owned(), Json::str(e.as_str())));
        }
        self.overrides.push_fields(pairs);
    }

    fn from_json(v: &Json) -> Result<QuerySpec, WireError> {
        let db = v
            .get("db")
            .and_then(Json::as_str)
            .ok_or_else(|| proto("missing \"db\" (string)"))?
            .to_owned();
        let select = v
            .get("select")
            .and_then(Json::as_arr)
            .ok_or_else(|| proto("missing \"select\" (array of attribute names)"))?
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| proto("\"select\" entries must be strings"))
            })
            .collect::<Result<Vec<String>, WireError>>()?;
        let engine = match v.get("engine") {
            None => None,
            Some(e) => {
                let name = e.as_str().ok_or_else(|| proto("engine must be a string"))?;
                Some(EngineKind::parse(name).map_err(proto)?)
            }
        };
        Ok(QuerySpec {
            db,
            select,
            engine,
            overrides: Overrides::from_json(v)?,
        })
    }
}

/// One client request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Enumerate databases and prepared queries.
    List,
    /// Stop the server: gracefully (drain in-flight queries) or `now`
    /// (cancel them through their governors first).
    Shutdown {
        /// Cancel in-flight queries instead of draining them.
        now: bool,
    },
    /// Run an ad-hoc query.
    Query(QuerySpec),
    /// Register a named query for later `run` requests.
    Prepare {
        /// The name subsequent [`Request::Run`] frames will use.
        name: String,
        /// The stored query, including default overrides.
        spec: QuerySpec,
    },
    /// Run a prepared query, with optional per-request overrides.
    Run {
        /// The prepared-query name.
        name: String,
        /// Overrides layered over the prepared defaults.
        overrides: Overrides,
    },
    /// Fetch the server's telemetry snapshot.
    Stats {
        /// Return Prometheus-style text exposition instead of the
        /// canonical JSON snapshot.
        prometheus: bool,
    },
}

/// Renders a request as one canonical protocol line (no trailing newline).
pub fn render_request(r: &Request) -> String {
    let mut pairs: Vec<(String, Json)> = Vec::new();
    let op = |s: &str| ("op".to_owned(), Json::str(s));
    match r {
        Request::Ping => pairs.push(op("ping")),
        Request::List => pairs.push(op("list")),
        Request::Shutdown { now } => {
            pairs.push(op("shutdown"));
            if *now {
                pairs.push(("mode".to_owned(), Json::str("now")));
            }
        }
        Request::Query(spec) => {
            pairs.push(op("query"));
            spec.push_fields(&mut pairs);
        }
        Request::Prepare { name, spec } => {
            pairs.push(op("prepare"));
            pairs.push(("name".to_owned(), Json::str(name)));
            spec.push_fields(&mut pairs);
        }
        Request::Run { name, overrides } => {
            pairs.push(op("run"));
            pairs.push(("name".to_owned(), Json::str(name)));
            overrides.push_fields(&mut pairs);
        }
        Request::Stats { prometheus } => {
            pairs.push(op("stats"));
            if *prometheus {
                pairs.push(("format".to_owned(), Json::str("prometheus")));
            }
        }
    }
    Json::Obj(pairs).to_string()
}

/// Parses one request line.  Every failure is a [`WireError`] of kind
/// [`ErrorKind::Proto`], ready to be sent back as a structured error
/// response — malformed input never panics and never goes unanswered.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    if line.len() >= MAX_LINE {
        return Err(proto(format!(
            "request line exceeds MAX_LINE ({MAX_LINE} bytes)"
        )));
    }
    let v = parse_json(line).map_err(|e| proto(format!("invalid JSON: {e}")))?;
    if !matches!(v, Json::Obj(_)) {
        return Err(proto("request must be a JSON object"));
    }
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| proto("missing \"op\" (string)"))?;
    match op {
        "ping" => Ok(Request::Ping),
        "list" => Ok(Request::List),
        "shutdown" => {
            let now = match v.get("mode") {
                None => false,
                Some(m) => match m.as_str() {
                    Some("now") => true,
                    Some("graceful") => false,
                    _ => return Err(proto("shutdown mode must be \"graceful\" or \"now\"")),
                },
            };
            Ok(Request::Shutdown { now })
        }
        "query" => Ok(Request::Query(QuerySpec::from_json(&v)?)),
        "prepare" => {
            let name = required_name(&v)?;
            Ok(Request::Prepare {
                name,
                spec: QuerySpec::from_json(&v)?,
            })
        }
        "run" => {
            let name = required_name(&v)?;
            Ok(Request::Run {
                name,
                overrides: Overrides::from_json(&v)?,
            })
        }
        "stats" => {
            let prometheus = match v.get("format") {
                None => false,
                Some(f) => match f.as_str() {
                    Some("prometheus") => true,
                    Some("json") => false,
                    _ => return Err(proto("stats format must be \"json\" or \"prometheus\"")),
                },
            };
            Ok(Request::Stats { prometheus })
        }
        other => Err(proto(format!("unknown op {other:?}"))),
    }
}

fn required_name(v: &Json) -> Result<String, WireError> {
    v.get("name")
        .and_then(Json::as_str)
        .filter(|n| !n.is_empty())
        .map(str::to_owned)
        .ok_or_else(|| proto("missing \"name\" (non-empty string)"))
}

/// Machine-readable error classes, each with a fixed client exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed frame: bad JSON, unknown op, wrong field types.
    Proto,
    /// The request named a database the server does not hold.
    UnknownDb,
    /// The request named a prepared query that does not exist.
    UnknownQuery,
    /// Attribute/schema mismatch (e.g. `select` names an unknown column).
    Schema,
    /// Server-side file parse failure.
    Parse,
    /// Server-side I/O failure.
    Io,
    /// The query's deadline expired ([`EngineError::DeadlineExceeded`]).
    Deadline,
    /// The query was cancelled (shutdown `now`, or its token tripped).
    Cancelled,
    /// The query's memory budget was exceeded.
    Budget,
    /// The engine panicked; the panic was contained to this query.
    Panic,
    /// The server is shutting down and no longer accepts queries.
    Shutdown,
}

impl ErrorKind {
    /// The exit code a CLI client maps this error to: 3 deadline/cancelled,
    /// 4 budget, 5 panic, 2 everything else.  One-shot `hyperq query` exits
    /// by this table too (its engine errors convert through [`WireError`]).
    pub fn code(self) -> u8 {
        match self {
            ErrorKind::Deadline | ErrorKind::Cancelled => 3,
            ErrorKind::Budget => 4,
            ErrorKind::Panic => 5,
            _ => 2,
        }
    }

    /// The canonical wire name of this error kind — also the `outcome`
    /// label value in the server's stats registry.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Proto => "proto",
            ErrorKind::UnknownDb => "unknown-db",
            ErrorKind::UnknownQuery => "unknown-query",
            ErrorKind::Schema => "schema",
            ErrorKind::Parse => "parse",
            ErrorKind::Io => "io",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::Budget => "budget",
            ErrorKind::Panic => "panic",
            ErrorKind::Shutdown => "shutdown",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "proto" => ErrorKind::Proto,
            "unknown-db" => ErrorKind::UnknownDb,
            "unknown-query" => ErrorKind::UnknownQuery,
            "schema" => ErrorKind::Schema,
            "parse" => ErrorKind::Parse,
            "io" => ErrorKind::Io,
            "deadline" => ErrorKind::Deadline,
            "cancelled" => ErrorKind::Cancelled,
            "budget" => ErrorKind::Budget,
            "panic" => ErrorKind::Panic,
            "shutdown" => ErrorKind::Shutdown,
            _ => return None,
        })
    }
}

/// A structured error, as carried by [`Response::Error`] frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The error class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// The per-query trace id the server assigned at accept time, echoed
    /// so a failed query can be correlated with the slow-query log.
    /// Absent on errors raised before a query was admitted (protocol
    /// errors, client-side parse failures).
    pub trace: Option<String>,
}

impl WireError {
    /// Constructs an error of the given kind, with no trace id.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        WireError {
            kind,
            message: message.into(),
            trace: None,
        }
    }

    /// The same error stamped with a per-query trace id.
    pub fn with_trace(mut self, trace: impl Into<String>) -> Self {
        self.trace = Some(trace.into());
        self
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for WireError {}

impl From<EngineError> for WireError {
    fn from(e: EngineError) -> Self {
        let kind = match &e {
            EngineError::Cancelled => ErrorKind::Cancelled,
            EngineError::DeadlineExceeded { .. } => ErrorKind::Deadline,
            EngineError::BudgetExceeded { .. } => ErrorKind::Budget,
            EngineError::WorkerPanic(_) => ErrorKind::Panic,
            EngineError::SchemaMismatch(_) => ErrorKind::Schema,
            EngineError::Parse { .. } => ErrorKind::Parse,
            EngineError::Io(_) => ErrorKind::Io,
        };
        WireError::new(kind, e.to_string())
    }
}

fn proto(message: impl Into<String>) -> WireError {
    WireError::new(ErrorKind::Proto, message)
}

/// Summary of one served database, for [`Response::Listing`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbInfo {
    /// The registered name.
    pub name: String,
    /// Relations (schema edges) in the database.
    pub relations: u64,
    /// Total stored tuples.
    pub tuples: u64,
    /// Whether the schema is acyclic (has a join tree).
    pub acyclic: bool,
}

/// The rows of a [`Response::Answer`] as a compact table: a cell list of
/// rendered tokens (each value's JSON text and a comma), rows as indices
/// into it, and the order the rows come in as a permutation over them.  The
/// server renders each distinct value once, so a large answer costs one
/// `u32` per cell and a few bytes per distinct value, not a [`Json`] per
/// either; its rows stay where the engine left them, only `order` is
/// sorted, and rendering the reply only gathers their tokens in that order.
/// The server's tokens are rendered while
/// [`answer_frame`](crate::server::answer_frame) reads the dictionary: for
/// an ordered pool (a loaded snapshot's), all of them under the database's
/// pool lock.
///
/// Equality is by content — two tables are equal when they hold the same
/// rows in the same order, cell for cell the same JSON text, however their
/// token lists and rows are laid out.
#[derive(Debug, Clone)]
pub struct Rows {
    width: usize,
    len: usize,
    /// The cell list, followed by [`CHUNK`] bytes of padding.
    tokens: Tokens,
    /// `len * width` positions in `tokens`: stored row `s` is
    /// `index[s * width..(s + 1) * width]`.
    index: Vec<u32>,
    /// Row `r` of the table is stored row `order[r]`.
    order: Vec<u32>,
}

/// A cell list as [`Rows`] holds it: every cell's token — its JSON text and
/// the comma after it — back to back in `text`.  Token `c` is
/// `text[bounds[c]..bounds[c + 1]]`.
#[derive(Debug, Clone)]
pub(crate) struct Tokens {
    text: Vec<u8>,
    bounds: Vec<u32>,
}

impl Tokens {
    /// An empty list with room for `tokens` tokens of `bytes` bytes in all.
    pub(crate) fn with_capacity(tokens: usize, bytes: usize) -> Tokens {
        let mut bounds = Vec::with_capacity(tokens + 1);
        bounds.push(0);
        Tokens {
            text: Vec::with_capacity(bytes),
            bounds,
        }
    }

    /// Appends one token: `write` appends the JSON text, the comma follows.
    ///
    /// # Panics
    /// Panics once the list outgrows 4 GiB of text.
    #[inline]
    pub(crate) fn push(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        write(&mut self.text);
        self.text.push(b',');
        let end = u32::try_from(self.text.len()).expect("a cell list under 4 GiB of text");
        self.bounds.push(end);
    }

    /// Where token `c` starts in `text`, and its length with the comma.
    #[inline]
    fn span(&self, c: u32) -> (usize, usize) {
        let ends = self
            .bounds
            .get(c as usize..c as usize + 2)
            .expect(INDEX_WITHIN_CELLS);
        (ends[0] as usize, (ends[1] - ends[0]) as usize)
    }

    /// Token `c`'s JSON text, without its comma.
    fn text(&self, c: u32) -> &[u8] {
        let (from, n) = self.span(c);
        &self.text[from..from + n - 1]
    }
}

/// Bytes [`Rows::write_to`] reserves beyond the rows themselves for what
/// closes an answer frame after them (the trace id, the brace, the
/// newline).  A metrics document, when one was asked for, may still grow
/// the buffer.
const REPLY_TAIL_ROOM: usize = 64;

/// [`Rows::write_to`] copies a cell's token as one chunk of this many bytes
/// — a copy of fixed size is a register move, one of measured size a call —
/// and only a longer token takes a second, sized copy.  Sixteen covers a
/// quoted 13-byte string or a 15-digit number with its comma.
const CHUNK: usize = 16;

/// The invariant of [`Rows`] that is checked at each read of an entry.
const INDEX_WITHIN_CELLS: &str = "index entries point into the cell list";

impl Rows {
    /// A table of `len` rows of `width` cells: row `r`, column `c` holds
    /// token `index[order[r] * width + c]` of `tokens`.
    ///
    /// # Panics
    /// Panics unless `index` has `len * width` entries and `order` has
    /// `len`, all of them `< len`.  That the entries of `index` lie within
    /// `tokens` is checked where each is read, so that a frame pays for one
    /// pass over them, not two: rendering, [`iter`](Rows::iter) and `==`
    /// panic on the first that does not, naming it.
    pub(crate) fn from_parts(
        width: usize,
        len: usize,
        mut tokens: Tokens,
        index: Vec<u32>,
        order: Vec<u32>,
    ) -> Rows {
        assert_eq!(index.len(), len * width, "one index entry per cell");
        assert_eq!(order.len(), len, "one order entry per row");
        assert!(
            order.iter().all(|&s| (s as usize) < len),
            "order entries name rows of the table"
        );
        // A chunk read at the last token stays inside the padding.
        tokens.text.resize(tokens.text.len() + CHUNK, 0);
        Rows {
            width,
            len,
            tokens,
            index,
            order,
        }
    }

    /// A table from explicit rows; `None` if some row does not have exactly
    /// `width` cells.
    pub fn from_rows<R: AsRef<[Json]>>(width: usize, rows: &[R]) -> Option<Rows> {
        if rows.iter().any(|row| row.as_ref().len() != width) {
            return None;
        }
        let cells = rows.len() * width;
        let mut tokens = Tokens::with_capacity(cells, 0);
        for cell in rows.iter().flat_map(AsRef::as_ref) {
            tokens.push(|out| cell.write_to(out));
        }
        let index = (0..u32::try_from(cells).ok()?).collect();
        let order = (0..u32::try_from(rows.len()).ok()?).collect();
        Some(Rows::from_parts(width, rows.len(), tokens, index, order))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `r` as positions in `tokens`.
    fn row(&self, r: usize) -> &[u32] {
        let stored = self.order[r] as usize;
        &self.index[stored * self.width..(stored + 1) * self.width]
    }

    /// The rows in order, each as its cells in attribute order, every cell
    /// parsed from its token into a [`Json`] of its own.
    pub fn iter(&self) -> impl Iterator<Item = impl Iterator<Item = Json> + '_> + '_ {
        (0..self.len).map(move |r| self.row(r).iter().map(move |&c| self.cell(c)))
    }

    /// Token `c` of the cell list, parsed.
    fn cell(&self, c: u32) -> Json {
        let text = std::str::from_utf8(self.tokens.text(c)).expect("tokens are UTF-8");
        parse_json(text).expect("tokens are JSON")
    }

    /// Appends the rows as a JSON array of arrays, gathering the rows'
    /// tokens in table order.
    fn write_to(&self, out: &mut Vec<u8>) {
        let (text, span) = (&self.tokens.text, |c| self.tokens.span(c));
        // Size the reply once: the rows' exact length is known here — the
        // tokens (a row's last comma turns into its closing bracket), each
        // row's opening bracket and the comma after it (the last one turns
        // into the array's closing bracket), a closing bracket of its own
        // for a row without cells or an array without rows.  Doubling into
        // a multi-megabyte answer would copy it and hold twice its size.
        let tokens: usize = self.index.iter().map(|&c| span(c).1).sum();
        let brackets = self.len * (2 + usize::from(self.width == 0));
        let total = 1 + tokens + brackets + usize::from(self.len == 0);
        let start = out.len();
        out.reserve(total + CHUNK + REPLY_TAIL_ROOM);
        out.resize(start + total + CHUNK, 0);
        out[start] = b'[';
        let mut at = start + 1;
        for r in 0..self.len {
            out[at] = b'[';
            at += 1;
            for &c in self.row(r) {
                // The bytes a chunk carries past its token's end are the
                // next thing written over.
                let (from, n) = span(c);
                out[at..at + CHUNK].copy_from_slice(&text[from..from + CHUNK]);
                if n > CHUNK {
                    out[at + CHUNK..at + n].copy_from_slice(&text[from + CHUNK..from + n]);
                }
                at += n;
            }
            at -= usize::from(self.width > 0);
            out[at..at + 2].copy_from_slice(b"],");
            at += 2;
        }
        at -= usize::from(self.len > 0);
        out[at] = b']';
        assert_eq!(at + 1, start + total, "the rows' length was computed");
        out.truncate(start + total);
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        let same = |(&a, &b): (&u32, &u32)| self.tokens.text(a) == other.tokens.text(b);
        self.width == other.width
            && self.len == other.len
            && (0..self.len).all(|r| self.row(r).iter().zip(other.row(r)).all(same))
    }
}

/// One server response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::List`].
    Listing {
        /// The served databases.
        databases: Vec<DbInfo>,
        /// Names of prepared queries, sorted.
        queries: Vec<String>,
    },
    /// Reply to [`Request::Shutdown`]; the connection closes after it.
    Bye,
    /// Reply to [`Request::Prepare`].
    Prepared {
        /// The registered name.
        name: String,
    },
    /// A query answer.  `rows` are sorted lexicographically, so equal
    /// relations serialize to byte-identical frames regardless of which
    /// engine produced them.
    Answer {
        /// Output attribute names, in schema-universe order.
        attrs: Vec<String>,
        /// One row per tuple, one cell per attribute; cells are
        /// `Json::Int` or `Json::Str`.
        rows: Rows,
        /// Per-query metrics, when the request asked for them.
        metrics: Option<Json>,
        /// The per-query trace id the server assigned at accept time.
        trace: Option<String>,
    },
    /// Reply to [`Request::Stats`]: the canonical JSON snapshot, or the
    /// Prometheus-style text exposition when the request asked for it.
    /// Exactly one of the two fields is set.
    Stats {
        /// The JSON snapshot ([`crate::stats::StatsRegistry::snapshot_json`]).
        stats: Option<Json>,
        /// The text exposition ([`crate::stats::StatsRegistry::prometheus`]).
        text: Option<String>,
    },
    /// A structured error; the connection stays usable afterwards (except
    /// after unframeable input, which closes it).
    Error(WireError),
}

/// The JSON document of a [`QueryMetrics`] report: the `metrics` member of
/// a [`Response::Answer`], and the whole output of `hyperq query
/// --metrics-json` (`scripts/check_metrics.py` is its schema contract).
/// A query that took no decomposition reports `null` for it.
pub fn metrics_json(m: &QueryMetrics) -> Json {
    let int = |n: u64| Json::Int(n as i64);
    let agg = |a: &OpAgg| {
        obj([
            ("ops", int(a.ops)),
            ("hash_ops", int(a.hash_ops)),
            ("sortmerge_ops", int(a.sortmerge_ops)),
            ("dense_ops", int(a.dense_ops)),
            ("probed", int(a.probed)),
            ("kept", int(a.kept)),
            ("built", int(a.built)),
            ("build_rows", int(a.build_rows)),
        ])
    };
    let levels = m.levels.iter().map(|l| {
        obj([
            ("phase", Json::str(l.phase.label())),
            ("level", int(l.level as u64)),
            ("nanos", int(l.nanos)),
        ])
    });
    let bags = m
        .bags
        .iter()
        .map(|b| obj([("name", Json::str(&b.name)), ("rows", int(b.rows))]));
    let decomposition = m.widths.map_or(Json::Null, |w| {
        obj([
            ("min_fill_width", int(w.min_fill as u64)),
            ("min_degree_width", int(w.min_degree as u64)),
            ("chosen", Json::str(w.chosen)),
        ])
    });
    obj([
        ("join", agg(&m.joins)),
        ("semijoin", agg(&m.semijoins)),
        ("levels", Json::Arr(levels.collect())),
        ("bags", Json::Arr(bags.collect())),
        ("decomposition", decomposition),
    ])
}

/// Renders a response as one canonical protocol line (no trailing newline).
pub fn render_response(r: &Response) -> String {
    let mut out = Vec::new();
    render_response_into(r, &mut out);
    into_text(out)
}

/// Appends the canonical protocol line of `r` (no trailing newline) to
/// `out` — how the server renders a reply straight into its connection's
/// output buffer.
pub(crate) fn render_response_into(r: &Response, out: &mut Vec<u8>) {
    fn strings(items: &[String], out: &mut Vec<u8>) {
        out.push(b'[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            write_escaped(item, out);
        }
        out.push(b']');
    }
    match r {
        Response::Pong => out.extend_from_slice(b"{\"ok\":true,\"op\":\"pong\"}"),
        Response::Bye => out.extend_from_slice(b"{\"ok\":true,\"op\":\"bye\"}"),
        Response::Prepared { name } => {
            out.extend_from_slice(b"{\"ok\":true,\"op\":\"prepared\",\"name\":");
            write_escaped(name, out);
            out.push(b'}');
        }
        Response::Listing { databases, queries } => {
            out.extend_from_slice(b"{\"ok\":true,\"op\":\"list\",\"databases\":[");
            for (i, d) in databases.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                out.extend_from_slice(b"{\"name\":");
                write_escaped(&d.name, out);
                write!(
                    out,
                    ",\"relations\":{},\"tuples\":{},\"acyclic\":{}}}",
                    d.relations, d.tuples, d.acyclic
                )
                .expect(INFALLIBLE);
            }
            out.extend_from_slice(b"],\"queries\":");
            strings(queries, out);
            out.push(b'}');
        }
        Response::Answer {
            attrs,
            rows,
            metrics,
            trace,
        } => {
            out.extend_from_slice(b"{\"ok\":true,\"op\":\"answer\",\"attrs\":");
            strings(attrs, out);
            write!(out, ",\"tuples\":{},\"rows\":", rows.len()).expect(INFALLIBLE);
            rows.write_to(out);
            if let Some(m) = metrics {
                out.extend_from_slice(b",\"metrics\":");
                m.write_to(out);
            }
            if let Some(t) = trace {
                out.extend_from_slice(b",\"trace\":");
                write_escaped(t, out);
            }
            out.push(b'}');
        }
        Response::Stats { stats, text } => {
            out.extend_from_slice(b"{\"ok\":true,\"op\":\"stats\"");
            if let Some(s) = stats {
                out.extend_from_slice(b",\"stats\":");
                s.write_to(out);
            }
            if let Some(t) = text {
                out.extend_from_slice(b",\"text\":");
                write_escaped(t, out);
            }
            out.push(b'}');
        }
        Response::Error(e) => {
            write!(
                out,
                "{{\"ok\":false,\"op\":\"error\",\"kind\":\"{}\",\"message\":",
                e.kind.as_str()
            )
            .expect(INFALLIBLE);
            write_escaped(&e.message, out);
            write!(out, ",\"code\":{}", e.kind.code()).expect(INFALLIBLE);
            if let Some(t) = &e.trace {
                out.extend_from_slice(b",\"trace\":");
                write_escaped(t, out);
            }
            out.push(b'}');
        }
    }
}

/// Parses one response line (the client side of [`render_response`]).
pub fn parse_response(line: &str) -> Result<Response, WireError> {
    let v = parse_json(line).map_err(|e| proto(format!("invalid JSON: {e}")))?;
    let ok = v
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or_else(|| proto("missing \"ok\" (boolean)"))?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| proto("missing \"op\" (string)"))?;
    match (ok, op) {
        (true, "pong") => Ok(Response::Pong),
        (true, "bye") => Ok(Response::Bye),
        (true, "prepared") => Ok(Response::Prepared {
            name: required_name(&v)?,
        }),
        (true, "list") => {
            let databases = v
                .get("databases")
                .and_then(Json::as_arr)
                .ok_or_else(|| proto("missing \"databases\""))?
                .iter()
                .map(|d| {
                    Ok(DbInfo {
                        name: d
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or_else(|| proto("database entry missing \"name\""))?
                            .to_owned(),
                        relations: d
                            .get("relations")
                            .and_then(Json::as_u64)
                            .ok_or_else(|| proto("database entry missing \"relations\""))?,
                        tuples: d
                            .get("tuples")
                            .and_then(Json::as_u64)
                            .ok_or_else(|| proto("database entry missing \"tuples\""))?,
                        acyclic: d
                            .get("acyclic")
                            .and_then(Json::as_bool)
                            .ok_or_else(|| proto("database entry missing \"acyclic\""))?,
                    })
                })
                .collect::<Result<Vec<DbInfo>, WireError>>()?;
            let queries = v
                .get("queries")
                .and_then(Json::as_arr)
                .ok_or_else(|| proto("missing \"queries\""))?
                .iter()
                .map(|q| {
                    q.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| proto("\"queries\" entries must be strings"))
                })
                .collect::<Result<Vec<String>, WireError>>()?;
            Ok(Response::Listing { databases, queries })
        }
        (true, "answer") => {
            let attrs = v
                .get("attrs")
                .and_then(Json::as_arr)
                .ok_or_else(|| proto("missing \"attrs\""))?
                .iter()
                .map(|a| {
                    a.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| proto("\"attrs\" entries must be strings"))
                })
                .collect::<Result<Vec<String>, WireError>>()?;
            let rows = v
                .get("rows")
                .and_then(Json::as_arr)
                .ok_or_else(|| proto("missing \"rows\""))?
                .iter()
                .map(|r| {
                    r.as_arr()
                        .ok_or_else(|| proto("\"rows\" entries must be arrays"))
                })
                .collect::<Result<Vec<&[Json]>, WireError>>()?;
            let rows = Rows::from_rows(attrs.len(), &rows)
                .ok_or_else(|| proto("every row must have one cell per attribute"))?;
            Ok(Response::Answer {
                attrs,
                rows,
                metrics: v.get("metrics").cloned(),
                trace: v.get("trace").and_then(Json::as_str).map(str::to_owned),
            })
        }
        (true, "stats") => {
            let stats = v.get("stats").cloned();
            let text = v.get("text").and_then(Json::as_str).map(str::to_owned);
            if stats.is_some() == text.is_some() {
                return Err(proto(
                    "stats frame must carry exactly one of \"stats\" and \"text\"",
                ));
            }
            Ok(Response::Stats { stats, text })
        }
        (false, "error") => {
            let kind_name = v
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| proto("error frame missing \"kind\""))?;
            let kind = ErrorKind::from_str(kind_name)
                .ok_or_else(|| proto(format!("unknown error kind {kind_name:?}")))?;
            let message = v
                .get("message")
                .and_then(Json::as_str)
                .ok_or_else(|| proto("error frame missing \"message\""))?
                .to_owned();
            let trace = v.get("trace").and_then(Json::as_str).map(str::to_owned);
            Ok(Response::Error(WireError {
                kind,
                message,
                trace,
            }))
        }
        (ok, op) => Err(proto(format!(
            "unrecognized response frame ok={ok} op={op:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldb::metrics::{Kernel, OpKind, OpMetrics};
    use reldb::{CollectingSink, MetricsSink, Phase};

    #[test]
    fn request_frames_round_trip() {
        let specs = [
            Request::Ping,
            Request::List,
            Request::Shutdown { now: false },
            Request::Shutdown { now: true },
            Request::Query(QuerySpec {
                db: "fig1".into(),
                select: vec!["B".into(), "D".into()],
                engine: Some(EngineKind::Connection),
                overrides: Overrides {
                    timeout_ms: Some(500),
                    mem_budget_mb: Some(64),
                    metrics: Some(true),
                    fail_at_semijoin: Some(3),
                    fail_panic: Some(false),
                },
            }),
            Request::Prepare {
                name: "bd".into(),
                spec: QuerySpec {
                    db: "fig1".into(),
                    select: vec!["B".into()],
                    engine: None,
                    overrides: Overrides::default(),
                },
            },
            Request::Run {
                name: "bd".into(),
                overrides: Overrides {
                    timeout_ms: Some(1),
                    ..Overrides::default()
                },
            },
            Request::Stats { prometheus: false },
            Request::Stats { prometheus: true },
        ];
        for r in specs {
            let line = render_request(&r);
            assert_eq!(parse_request(&line).unwrap(), r, "frame: {line}");
        }
    }

    /// Overrides past `i64::MAX` saturate on the wire instead of wrapping
    /// to negative numbers the server would refuse.
    #[test]
    fn overrides_past_i64_max_saturate_on_the_wire() {
        let huge = Overrides {
            timeout_ms: Some(u64::MAX),
            mem_budget_mb: Some(u64::MAX),
            fail_at_semijoin: Some(u64::MAX),
            ..Overrides::default()
        };
        let saturated = Overrides {
            timeout_ms: Some(i64::MAX as u64),
            mem_budget_mb: Some(i64::MAX as u64),
            fail_at_semijoin: Some(i64::MAX as u64),
            ..Overrides::default()
        };
        let spec = |overrides| QuerySpec {
            db: "fig1".into(),
            select: vec!["A".into(), "D".into()],
            engine: None,
            overrides,
        };
        let run = |overrides| Request::Run {
            name: "ad".into(),
            overrides,
        };
        for (sent, want) in [
            (
                Request::Query(spec(huge.clone())),
                Request::Query(spec(saturated.clone())),
            ),
            (run(huge.clone()), run(saturated.clone())),
        ] {
            let line = render_request(&sent);
            let doc = parse_json(&line).unwrap();
            for field in ["timeout_ms", "mem_budget_mb", "fail_at_semijoin"] {
                assert_eq!(doc.get(field), Some(&Json::Int(i64::MAX)), "{line}");
            }
            assert_eq!(parse_request(&line).unwrap(), want, "frame: {line}");
        }
    }

    #[test]
    fn malformed_requests_become_proto_errors() {
        for bad in [
            "",
            "not json",
            "[1,2]",
            "{\"op\":\"warp\"}",
            "{\"op\":\"query\"}",
            "{\"op\":\"query\",\"db\":3,\"select\":[]}",
            "{\"op\":\"query\",\"db\":\"d\",\"select\":[1]}",
            "{\"op\":\"run\"}",
            "{\"op\":\"prepare\",\"name\":\"\"}",
            "{\"op\":\"query\",\"db\":\"d\",\"select\":[],\"timeout_ms\":-1}",
            "{\"op\":\"shutdown\",\"mode\":\"later\"}",
            "{\"op\":\"stats\",\"format\":\"xml\"}",
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Proto, "input {bad:?} gave {e:?}");
        }
    }

    #[test]
    fn error_codes_match_the_cli_contract() {
        assert_eq!(ErrorKind::Deadline.code(), 3);
        assert_eq!(ErrorKind::Cancelled.code(), 3);
        assert_eq!(ErrorKind::Budget.code(), 4);
        assert_eq!(ErrorKind::Panic.code(), 5);
        assert_eq!(ErrorKind::Proto.code(), 2);
        assert_eq!(ErrorKind::Schema.code(), 2);
    }

    #[test]
    fn engine_error_mapping_matches_kinds() {
        let e = WireError::from(EngineError::Cancelled);
        assert_eq!(e.kind, ErrorKind::Cancelled);
        let e = WireError::from(EngineError::WorkerPanic("boom".into()));
        assert_eq!(e.kind, ErrorKind::Panic);
    }

    fn op(kind: OpKind, probed: u64, kept: u64) -> OpMetrics {
        OpMetrics {
            kind,
            kernel: Kernel::Hash,
            probed,
            kept,
            built: kept,
            build_rows: probed / 2,
        }
    }

    /// `doc` at `path`: member names and array indices joined by dots.
    fn at<'a>(doc: &'a Json, path: &str) -> &'a Json {
        path.split('.')
            .fold(doc, |v, step| match step.parse::<usize>() {
                Ok(i) => &v.as_arr().expect(path)[i],
                Err(_) => v.get(step).expect(path),
            })
    }

    #[test]
    fn metrics_json_report_is_well_formed_and_complete() {
        // A bag name no hand-rolled writer got right: quote, backslash,
        // newline.
        let bag = "B0\"B1\\\n";
        let sink = CollectingSink::new();
        sink.record_op(op(OpKind::Semijoin, 10, 7));
        sink.record_level(Phase::ReduceUp, 1, 1234);
        sink.record_bag(bag, 42);
        sink.record_widths(2, 3, "min-fill");
        let doc = metrics_json(&sink.snapshot());
        assert_eq!(parse_json(&doc.to_string()).unwrap(), doc);

        // Every member `scripts/check_metrics.py` reads, in document order.
        let Json::Obj(members) = &doc else {
            panic!("not an object: {doc}");
        };
        let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names.join(" "), "join semijoin levels bags decomposition");
        for op in ["join", "semijoin"] {
            let Json::Obj(counters) = at(&doc, op) else {
                panic!("{op} is not an object: {doc}");
            };
            let names: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                names.join(" "),
                "ops hash_ops sortmerge_ops dense_ops probed kept built build_rows",
                "{op}"
            );
        }
        for (path, want) in [
            ("join.ops", Json::Int(0)),
            ("semijoin.ops", Json::Int(1)),
            ("semijoin.hash_ops", Json::Int(1)),
            ("semijoin.sortmerge_ops", Json::Int(0)),
            ("semijoin.dense_ops", Json::Int(0)),
            ("semijoin.probed", Json::Int(10)),
            ("semijoin.kept", Json::Int(7)),
            ("semijoin.built", Json::Int(7)),
            ("semijoin.build_rows", Json::Int(5)),
            ("levels.0.phase", Json::str("reduce-up")),
            ("levels.0.level", Json::Int(1)),
            ("levels.0.nanos", Json::Int(1234)),
            ("bags.0.name", Json::str(bag)),
            ("bags.0.rows", Json::Int(42)),
            ("decomposition.min_fill_width", Json::Int(2)),
            ("decomposition.min_degree_width", Json::Int(3)),
            ("decomposition.chosen", Json::str("min-fill")),
        ] {
            assert_eq!(at(&doc, path), &want, "{path}");
        }
    }

    #[test]
    fn empty_metrics_report_renders_null_sections() {
        let doc = metrics_json(&QueryMetrics::default());
        for path in ["levels", "bags"] {
            assert_eq!(at(&doc, path), &Json::Arr(Vec::new()), "{path}");
        }
        assert_eq!(at(&doc, "decomposition"), &Json::Null);
    }

    #[test]
    fn answer_rows_render_into_a_buffer_sized_once() {
        // The last shape appends to the earlier replies of a pipelined batch.
        let earlier = b"{\"ok\":true,\"op\":\"pong\"}\n";
        for (width, len, prefix) in [
            (1usize, 0usize, &b""[..]),
            (1, 1, b""),
            (3, 1, b""),
            (7, 20_000, b""),
            (7, 20_000, earlier),
        ] {
            let rows: Vec<Vec<Json>> = (0..len as i64)
                .map(|r| (0..width as i64).map(|c| Json::Int(r * 31 + c)).collect())
                .collect();
            let table = Rows::from_rows(width, &rows).unwrap();
            let mut out = prefix.to_vec();
            table.write_to(&mut out);
            assert_eq!(&out[..prefix.len()], prefix, "{width}x{len}");
            // Never doubled past the text: the reservation covered it, with
            // exactly the copy's slack and the tail room to spare.
            assert!(
                out.capacity() <= out.len() + CHUNK + REPLY_TAIL_ROOM,
                "{width}x{len}: {} bytes in a {}-byte buffer",
                out.len(),
                out.capacity()
            );
        }
    }

    /// A cell list holding `cells`' tokens, in order.
    fn tokens(cells: &[Json]) -> Tokens {
        let mut tokens = Tokens::with_capacity(cells.len(), 0);
        for cell in cells {
            tokens.push(|out| cell.write_to(out));
        }
        tokens
    }

    #[test]
    fn equal_rows_in_different_cell_layouts_compare_equal() {
        let (one, s) = (Json::Int(1), Json::str("1"));
        let rows = [[one.clone(), s.clone()], [s.clone(), s.clone()]];
        let explicit = Rows::from_rows(2, &rows).unwrap();
        // The same rows over a deduplicated list in the other order, stored
        // in the other order and served through the permutation.
        let shared = Rows::from_parts(
            2,
            2,
            tokens(&[s.clone(), one.clone()]),
            vec![0, 0, 1, 0],
            vec![1, 0],
        );
        // Every cell its own token, a spare token no row uses.
        let spread = tokens(&[Json::Null, one.clone(), s.clone(), s.clone(), s.clone()]);
        let spread = Rows::from_parts(2, 2, spread, vec![1, 2, 3, 4], vec![0, 1]);
        for (a, b) in [
            (&explicit, &shared),
            (&shared, &spread),
            (&spread, &explicit),
        ] {
            assert_eq!(a, b);
            assert_eq!(b, a);
            let (mut left, mut right) = (Vec::new(), Vec::new());
            a.write_to(&mut left);
            b.write_to(&mut right);
            assert_eq!(into_text(left), "[[1,\"1\"],[\"1\",\"1\"]]");
            assert_eq!(into_text(right), "[[1,\"1\"],[\"1\",\"1\"]]");
        }
        // The integer 1 and the string "1" are different cells.
        let swapped = Rows::from_rows(2, &[[s.clone(), s.clone()], [s.clone(), s]]).unwrap();
        assert_ne!(explicit, swapped);
        assert_ne!(shared, swapped);
    }

    #[test]
    fn rows_come_in_the_order_of_their_permutation() {
        let x = || Json::str("x");
        // Stored rows (7,"x") (9,7) ("x",9), served third, first, second.
        let cells = tokens(&[Json::Int(7), x(), Json::Int(9)]);
        let index = vec![0, 1, 2, 0, 1, 2];
        let table = Rows::from_parts(2, 3, cells.clone(), index.clone(), vec![2, 0, 1]);
        let written_out = [
            [x(), Json::Int(9)],
            [Json::Int(7), x()],
            [Json::Int(9), Json::Int(7)],
        ];
        let explicit = Rows::from_rows(2, &written_out).unwrap();
        assert_eq!(table, explicit);
        assert_eq!(explicit, table);
        let unpermuted = Rows::from_parts(2, 3, cells, index, vec![0, 1, 2]);
        assert_ne!(table, unpermuted);
        assert_ne!(unpermuted, table);
        let listed: Vec<Vec<Json>> = table.iter().map(Iterator::collect).collect();
        assert_eq!(listed, written_out);
        let (mut permuted, mut plain) = (Vec::new(), Vec::new());
        table.write_to(&mut permuted);
        explicit.write_to(&mut plain);
        assert_eq!(permuted, plain);
        assert_eq!(into_text(plain), "[[\"x\",9],[7,\"x\"],[9,7]]");
    }

    #[test]
    fn a_malformed_table_panics_naming_the_broken_invariant() {
        // One column, two rows, one cell value.
        for (index, order, invariant) in [
            (vec![0], vec![0, 1], "one index entry per cell"),
            (vec![0, 0], vec![0], "one order entry per row"),
            (
                vec![0, 0],
                vec![0, 2],
                "order entries name rows of the table",
            ),
            (
                vec![0, 1],
                vec![1, 0],
                "index entries point into the cell list",
            ),
        ] {
            let reads: [fn(&Rows); 3] = [
                |t| t.write_to(&mut Vec::new()),
                |t| assert_eq!(t.iter().flatten().count(), 2),
                |t| assert!(*t == t.clone()),
            ];
            for read in reads {
                let (index, order) = (index.clone(), order.clone());
                let panic = std::panic::catch_unwind(move || {
                    read(&Rows::from_parts(
                        1,
                        2,
                        tokens(&[Json::Int(5)]),
                        index,
                        order,
                    ))
                })
                .expect_err(invariant);
                let message = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .expect("a panic message");
                assert!(message.contains(invariant), "{message:?} for {invariant:?}");
            }
        }
    }

    /// A frame as the server builds it, from rows that do not arrive sorted.
    fn served_answer() -> Response {
        let schema = hypergraph::Hypergraph::from_edges([vec!["A", "B"]]).expect("one edge");
        let db = reldb::Database::empty(schema.clone());
        let mut answer = reldb::Relation::new("answer", schema.nodes());
        for (a, b) in [(3, "z"), (1, "y"), (2, "x"), (1, "x")] {
            answer.insert_values([reldb::Value::Int(a), reldb::Value::str(b)]);
        }
        crate::server::answer_frame(&db, &answer, None)
    }

    #[test]
    fn response_frames_round_trip() {
        let frames = [
            Response::Pong,
            Response::Bye,
            Response::Prepared { name: "bd".into() },
            Response::Listing {
                databases: vec![DbInfo {
                    name: "fig1".into(),
                    relations: 4,
                    tuples: 12,
                    acyclic: true,
                }],
                queries: vec!["bd".into()],
            },
            Response::Answer {
                attrs: vec!["B".into(), "D".into()],
                rows: Rows::from_rows(
                    2,
                    &[[Json::Int(1), Json::str("x")], [Json::Int(2), Json::Int(9)]],
                )
                .unwrap(),
                metrics: None,
                trace: None,
            },
            Response::Answer {
                attrs: vec!["B".into()],
                rows: Rows::from_rows(1, &[[Json::Int(1)]]).unwrap(),
                metrics: None,
                trace: Some("q-000017".into()),
            },
            served_answer(),
            Response::Stats {
                stats: Some(obj([("queries_total", Json::Int(3))])),
                text: None,
            },
            Response::Stats {
                stats: None,
                text: Some("# HELP hyperqd_requests_total …\n".into()),
            },
            Response::Error(WireError::new(ErrorKind::Deadline, "too slow")),
            Response::Error(
                WireError::new(ErrorKind::Budget, "over budget").with_trace("q-000018"),
            ),
        ];
        for r in frames {
            let line = render_response(&r);
            assert_eq!(parse_response(&line).unwrap(), r, "frame: {line}");
        }
        // A stats frame carries exactly one payload.
        assert!(parse_response("{\"ok\":true,\"op\":\"stats\"}").is_err());
    }
}
