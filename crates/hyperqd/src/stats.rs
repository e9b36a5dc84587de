//! Server-side telemetry aggregation: latency histograms and monotonic
//! counters, exposed through the `stats` protocol op.
//!
//! Two layers:
//!
//! * [`Histogram`] — a plain-value log-bucketed latency histogram whose
//!   arithmetic (bucketing, merge, quantiles) is pure and proptestable;
//! * the server's lock-free registry, its aggregation point: atomic
//!   counters keyed by protocol op, engine and outcome, byte meters, an
//!   in-flight gauge and an atomic edition of the histogram, snapshotted
//!   into canonical JSON or Prometheus-style text exposition.
//!
//! # Bucketing scheme
//!
//! HDR-style logarithmic buckets with 3 significant sub-bucket bits:
//! values below 8 are exact; above, each power-of-two octave splits into 8
//! sub-buckets, so a bucket's width is at most 1/8 of its lower bound and
//! the half-width representative value a quantile reports is within
//! **6.25 % (1/16)** of any sample in the bucket.  The exact maximum is
//! tracked separately, and quantiles never report beyond it.  64 octaves ×
//! 8 sub-buckets = [`BUCKETS`] = 496 buckets cover the full `u64` range —
//! small enough to ship raw counts over the wire, which is what lets a
//! load generator (`benchmark/`) diff two snapshots and quote quantiles of
//! just its own run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::json::{obj, Json};
use crate::protocol::{EngineKind, ErrorKind};

/// Total bucket count: 8 exact buckets below 8, then 8 sub-buckets for
/// each of the 61 remaining octaves of `u64`.
pub const BUCKETS: usize = 496;

/// The bucket a value lands in.  Exact below 8; logarithmic with 3
/// significant bits above.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let o = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (o - 3)) & 7) as usize;
        (o - 2) * 8 + sub
    }
}

/// The smallest value landing in bucket `idx`.
#[inline]
pub fn bucket_floor(idx: usize) -> u64 {
    debug_assert!(idx < BUCKETS);
    if idx < 8 {
        idx as u64
    } else {
        let o = idx / 8 + 2;
        let sub = (idx % 8) as u64;
        (8 + sub) << (o - 3)
    }
}

/// The representative value a quantile reports for bucket `idx`: its floor
/// plus half its width, which bounds the relative error at 1/16.
#[inline]
pub(crate) fn bucket_value(idx: usize) -> u64 {
    if idx < 8 {
        idx as u64
    } else {
        let o = idx / 8 + 2;
        bucket_floor(idx) + (1u64 << (o - 3)) / 2
    }
}

/// A log-bucketed histogram as a plain value: insert, merge and quantile
/// arithmetic with no atomics, shared by the server's registry snapshots
/// and the client's before/after diffing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.max = self.max.max(v);
    }

    /// Adds every sample of `other` into `self` (bucket-wise addition, max
    /// of maxima).  Merging is associative and commutative, so snapshots
    /// from many servers — or the two sides of a before/after diff — can
    /// combine in any order.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.max = self.max.max(other.max);
    }

    /// Subtracts an earlier snapshot, leaving the samples recorded between
    /// the two (saturating per bucket; the max is kept from `self` — the
    /// tracked maximum is not invertible).
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let counts = self
            .counts
            .iter()
            .zip(&earlier.counts)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        Histogram {
            counts,
            max: self.max,
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The largest recorded sample, exactly.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket-representative value,
    /// capped at the exact tracked maximum.  Returns 0 on an empty
    /// histogram.  Monotone in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_value(idx).min(self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets as `(index, count)` pairs — the wire form in
    /// stats snapshots.
    pub fn sparse(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Rebuilds a histogram from its sparse wire form.  Pairs with an
    /// out-of-range index are rejected as `None`.
    pub fn from_sparse(pairs: &[(usize, u64)], max: u64) -> Option<Histogram> {
        let mut h = Histogram::new();
        for &(i, c) in pairs {
            if i >= BUCKETS {
                return None;
            }
            h.counts[i] += c;
        }
        h.max = max;
        Some(h)
    }
}

/// The atomic edition of [`Histogram`]: relaxed per-bucket increments (one
/// `fetch_add` plus one `fetch_max` per sample), snapshotted into the
/// plain value for all arithmetic.
#[derive(Debug)]
pub(crate) struct AtomicHistogram {
    counts: Vec<AtomicU64>,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            max: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Records one sample.
    pub(crate) fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy.  The total is derived from the bucket counts,
    /// so a snapshot is always internally consistent (count == Σ buckets)
    /// even while samples arrive concurrently.
    pub(crate) fn snapshot(&self) -> Histogram {
        Histogram {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Protocol-op labels for the request counters, `invalid` covering frames
/// that never parsed to an op.
pub const OP_LABELS: [&str; 8] = [
    "ping", "list", "query", "prepare", "run", "stats", "shutdown", "invalid",
];

/// Engine labels for the per-engine query counters, in [`EngineKind`]
/// order.
pub const ENGINE_LABELS: [&str; 3] = ["yannakakis", "connection", "naive"];

/// Outcome labels for the per-outcome query counters: `ok` first, then
/// every [`ErrorKind`] in wire-name form.  The registry guarantees
/// `queries_total == Σ queries_by_outcome` — each executed query records
/// exactly one outcome.
pub const OUTCOME_LABELS: [&str; 12] = [
    "ok",
    "proto",
    "unknown-db",
    "unknown-query",
    "schema",
    "parse",
    "io",
    "deadline",
    "cancelled",
    "budget",
    "panic",
    "shutdown",
];

fn outcome_index(outcome: Result<(), ErrorKind>) -> usize {
    let kind = match outcome {
        Ok(()) => return 0,
        Err(k) => k,
    };
    1 + OUTCOME_LABELS[1..]
        .iter()
        .position(|&l| l == kind.as_str())
        .expect("every ErrorKind has an outcome label")
}

fn engine_index(engine: EngineKind) -> usize {
    match engine {
        EngineKind::Yannakakis => 0,
        EngineKind::Connection => 1,
        EngineKind::Naive => 2,
    }
}

/// The server's aggregation point: monotonic counters, gauges and the
/// latency histogram, all updated with relaxed atomics on the request
/// path and snapshotted by the `stats` op.
#[derive(Debug)]
pub(crate) struct StatsRegistry {
    started: Instant,
    requests_by_op: [AtomicU64; 8],
    queries_by_engine: [AtomicU64; 3],
    queries_by_outcome: [AtomicU64; 12],
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    in_flight: AtomicU64,
    latency: AtomicHistogram,
    slow_queries: AtomicU64,
}

impl Default for StatsRegistry {
    fn default() -> Self {
        StatsRegistry {
            started: Instant::now(),
            requests_by_op: Default::default(),
            queries_by_engine: Default::default(),
            queries_by_outcome: Default::default(),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            latency: AtomicHistogram::default(),
            slow_queries: AtomicU64::new(0),
        }
    }
}

impl StatsRegistry {
    /// A fresh registry; uptime counts from here.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Counts one request frame under its op label (an index into
    /// [`OP_LABELS`]; `"invalid"` for unframeable input).
    pub(crate) fn record_request(&self, op_label: &str) {
        let idx = OP_LABELS
            .iter()
            .position(|&l| l == op_label)
            .unwrap_or(OP_LABELS.len() - 1);
        self.requests_by_op[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one executed query: which engine ran it (when execution was
    /// reached), how it ended, and its server-side latency in
    /// microseconds.
    pub(crate) fn record_query(
        &self,
        engine: Option<EngineKind>,
        outcome: Result<(), ErrorKind>,
        micros: u64,
    ) {
        if let Some(e) = engine {
            self.queries_by_engine[engine_index(e)].fetch_add(1, Ordering::Relaxed);
        }
        self.queries_by_outcome[outcome_index(outcome)].fetch_add(1, Ordering::Relaxed);
        self.latency.record(micros);
    }

    /// Meters bytes read off client sockets.
    pub(crate) fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Meters bytes written to client sockets.
    pub(crate) fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the in-flight query gauge.
    pub(crate) fn query_begin(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Lowers the in-flight query gauge.
    pub(crate) fn query_end(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts one slow-query-log line.
    pub(crate) fn record_slow(&self) {
        self.slow_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// The canonical JSON snapshot behind `{"op":"stats"}`.  Field order is
    /// fixed; `queries_total` is derived as Σ `queries_by_outcome` at
    /// snapshot time, so the invariant `queries_total == Σ by_outcome`
    /// holds by construction.  The histogram ships its raw non-empty
    /// buckets so clients can merge or diff snapshots exactly.
    pub(crate) fn snapshot_json(&self) -> Json {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let by_op: Vec<(String, Json)> = OP_LABELS
            .iter()
            .zip(&self.requests_by_op)
            .map(|(l, c)| ((*l).to_owned(), Json::Int(load(c) as i64)))
            .collect();
        let by_engine: Vec<(String, Json)> = ENGINE_LABELS
            .iter()
            .zip(&self.queries_by_engine)
            .map(|(l, c)| ((*l).to_owned(), Json::Int(load(c) as i64)))
            .collect();
        let by_outcome: Vec<(String, Json)> = OUTCOME_LABELS
            .iter()
            .zip(&self.queries_by_outcome)
            .map(|(l, c)| ((*l).to_owned(), Json::Int(load(c) as i64)))
            .collect();
        let requests_total: u64 = self.requests_by_op.iter().map(load).sum();
        let queries_total: u64 = self.queries_by_outcome.iter().map(load).sum();
        let lat = self.latency.snapshot();
        let buckets = Json::Arr(
            lat.sparse()
                .into_iter()
                .map(|(i, c)| Json::Arr(vec![Json::Int(i as i64), Json::Int(c as i64)]))
                .collect(),
        );
        obj([
            (
                "uptime_ms",
                Json::Int(self.started.elapsed().as_millis() as i64),
            ),
            ("requests_total", Json::Int(requests_total as i64)),
            ("requests_by_op", Json::Obj(by_op)),
            ("queries_total", Json::Int(queries_total as i64)),
            ("queries_by_engine", Json::Obj(by_engine)),
            ("queries_by_outcome", Json::Obj(by_outcome)),
            ("bytes_in", Json::Int(load(&self.bytes_in) as i64)),
            ("bytes_out", Json::Int(load(&self.bytes_out) as i64)),
            ("in_flight", Json::Int(load(&self.in_flight) as i64)),
            (
                "latency_us",
                obj([
                    ("count", Json::Int(lat.count() as i64)),
                    ("p50", Json::Int(lat.quantile(0.50) as i64)),
                    ("p90", Json::Int(lat.quantile(0.90) as i64)),
                    ("p99", Json::Int(lat.quantile(0.99) as i64)),
                    ("max", Json::Int(lat.max() as i64)),
                    ("buckets", buckets),
                ]),
            ),
            ("slow_queries", Json::Int(load(&self.slow_queries) as i64)),
        ])
    }

    /// Prometheus-style text exposition of the same snapshot (counters as
    /// `_total`, the gauge and quantiles as gauges).
    pub(crate) fn prometheus(&self) -> String {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut out = String::new();
        let mut metric = |help: &str, kind: &str, name: &str, lines: &[(String, u64)]| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            for (labels, v) in lines {
                out.push_str(&format!("{name}{labels} {v}\n"));
            }
        };
        metric(
            "Seconds since the stats registry was created.",
            "gauge",
            "hyperqd_uptime_seconds",
            &[(String::new(), self.started.elapsed().as_secs())],
        );
        let op_lines: Vec<(String, u64)> = OP_LABELS
            .iter()
            .zip(&self.requests_by_op)
            .map(|(l, c)| (format!("{{op=\"{l}\"}}"), load(c)))
            .collect();
        metric(
            "Request frames received, by protocol op.",
            "counter",
            "hyperqd_requests_total",
            &op_lines,
        );
        let engine_lines: Vec<(String, u64)> = ENGINE_LABELS
            .iter()
            .zip(&self.queries_by_engine)
            .map(|(l, c)| (format!("{{engine=\"{l}\"}}"), load(c)))
            .collect();
        metric(
            "Queries executed, by engine.",
            "counter",
            "hyperqd_queries_by_engine_total",
            &engine_lines,
        );
        let outcome_lines: Vec<(String, u64)> = OUTCOME_LABELS
            .iter()
            .zip(&self.queries_by_outcome)
            .map(|(l, c)| (format!("{{outcome=\"{l}\"}}"), load(c)))
            .collect();
        metric(
            "Queries executed, by outcome.",
            "counter",
            "hyperqd_queries_total",
            &outcome_lines,
        );
        metric(
            "Bytes read from client sockets.",
            "counter",
            "hyperqd_bytes_in_total",
            &[(String::new(), load(&self.bytes_in))],
        );
        metric(
            "Bytes written to client sockets.",
            "counter",
            "hyperqd_bytes_out_total",
            &[(String::new(), load(&self.bytes_out))],
        );
        metric(
            "Queries currently executing.",
            "gauge",
            "hyperqd_in_flight_queries",
            &[(String::new(), load(&self.in_flight))],
        );
        let lat = self.latency.snapshot();
        let quantile_lines: Vec<(String, u64)> = [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")]
            .iter()
            .map(|&(q, l)| (format!("{{quantile=\"{l}\"}}"), lat.quantile(q)))
            .collect();
        metric(
            "Server-side query latency quantiles, microseconds.",
            "gauge",
            "hyperqd_query_latency_us",
            &quantile_lines,
        );
        metric(
            "Largest server-side query latency, microseconds.",
            "gauge",
            "hyperqd_query_latency_us_max",
            &[(String::new(), lat.max())],
        );
        metric(
            "Queries measured by the latency histogram.",
            "counter",
            "hyperqd_query_latency_us_count",
            &[(String::new(), lat.count())],
        );
        metric(
            "Queries that exceeded --slow-ms and were logged.",
            "counter",
            "hyperqd_slow_queries_total",
            &[(String::new(), load(&self.slow_queries))],
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exact_below_eight_and_cover_u64() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_value(v as usize), v);
        }
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(15), 15);
        assert!(bucket_index(u64::MAX) < BUCKETS);
        // Floors are monotone and consistent with the index map.
        for idx in 1..BUCKETS {
            assert!(bucket_floor(idx) > bucket_floor(idx - 1), "idx {idx}");
            assert_eq!(bucket_index(bucket_floor(idx)), idx, "idx {idx}");
        }
    }

    #[test]
    fn representative_error_is_bounded() {
        // For any sample, the representative of its bucket is within 1/16.
        for v in [8u64, 100, 999, 12_345, 7_777_777, u64::MAX / 3] {
            let rep = bucket_value(bucket_index(v));
            let err = rep.abs_diff(v) as f64 / v as f64;
            assert!(err <= 1.0 / 16.0 + 1e-9, "v={v} rep={rep} err={err}");
        }
    }

    #[test]
    fn quantiles_are_ordered_and_capped_at_max() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 5, 80, 120, 950, 10_000, 10_001] {
            h.record(v);
        }
        let (p50, p90, p99) = (h.quantile(0.50), h.quantile(0.90), h.quantile(0.99));
        assert!(p50 <= p90 && p90 <= p99 && p99 <= h.max());
        assert_eq!(h.max(), 10_001);
        assert_eq!(h.count(), 8);
        assert_eq!(Histogram::new().quantile(0.99), 0);
    }

    #[test]
    fn merge_and_diff_are_inverse_on_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 9, 200] {
            a.record(v);
        }
        for v in [9u64, 4_000] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 5);
        assert_eq!(merged.diff(&a).sparse(), b.sparse());
        let wire = Histogram::from_sparse(&merged.sparse(), merged.max()).unwrap();
        assert_eq!(wire, merged);
        assert!(Histogram::from_sparse(&[(BUCKETS, 1)], 0).is_none());
    }

    #[test]
    fn registry_snapshot_holds_the_outcome_invariant() {
        let reg = StatsRegistry::new();
        reg.record_request("query");
        reg.record_request("query");
        reg.record_request("nonsense"); // counts as invalid
        reg.record_query(Some(EngineKind::Yannakakis), Ok(()), 1_500);
        reg.record_query(Some(EngineKind::Naive), Err(ErrorKind::Deadline), 40);
        reg.record_query(None, Err(ErrorKind::UnknownQuery), 5);
        let snap = reg.snapshot_json();
        assert_eq!(snap.get("queries_total").and_then(Json::as_u64), Some(3));
        let by_outcome = snap.get("queries_by_outcome").unwrap();
        let sum: u64 = OUTCOME_LABELS
            .iter()
            .map(|l| by_outcome.get(l).and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(sum, 3);
        assert_eq!(by_outcome.get("deadline").and_then(Json::as_u64), Some(1));
        let by_op = snap.get("requests_by_op").unwrap();
        assert_eq!(by_op.get("invalid").and_then(Json::as_u64), Some(1));
        let lat = snap.get("latency_us").unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(lat.get("max").and_then(Json::as_u64), Some(1_500));
        // The exposition mentions every metric family.
        let text = reg.prometheus();
        for family in [
            "hyperqd_requests_total",
            "hyperqd_queries_total",
            "hyperqd_query_latency_us",
            "hyperqd_in_flight_queries",
            "hyperqd_slow_queries_total",
        ] {
            assert!(text.contains(family), "missing {family}");
        }
        assert!(text.contains("hyperqd_queries_total{outcome=\"deadline\"} 1"));
    }
}
