//! `hyperq bench` — the in-repo perf harness: the ratios one run can know.
//!
//! Times the engine `hyperqd` serves — the `columnar` rows — on
//! `full_reduce` and `yannakakis_join` (the paper's full reducer and the
//! join over the unique connection) beside what it is compared with: the
//! same engine with Governor checkpoints live
//! (`columnar-governed`) and the naive `reference` oracle; plus the cyclic
//! decomposition pipeline, the GYO/MCS acyclicity tests
//! and, under the full profile or `--scale` alone, the 10⁶-tuple rows.
//!
//! Every run ends with a `ratios:` block computed from its own rows (see
//! [`ratios`]) and `--check` fails the run when a bounded ratio is out of
//! bound.  Nothing is compared with numbers recorded on another machine or
//! in another run: absolute latency is measured end to end, with
//! alternating parent/change pairs, by the repo benchmark under
//! `benchmark/`.

use acyclic::{is_acyclic_mcs, join_tree, AcyclicityExt, JoinTree};
use decomp::{decompose, Heuristic};
use hypergraph::{Hypergraph, NodeSet};
use hyperqd::json::Json;
use reldb::reference::{naive_full_reduce, naive_yannakakis_join};
use reldb::{query_via_full_join, CollectingSink, Database, ExecCtx, QueryGovernor};
use std::hint::black_box;
use std::time::{Duration, Instant};
use workload::{
    chain, far_apart, hyper_ring, pair_clique, random_database, ring, snowflake_tree, star,
    DataParams,
};

/// Engine counters for one benchmark row, captured by running the measured
/// operation once under a [`CollectingSink`] (outside the timed loop, so
/// metering never contaminates the timing).  Rows without a metered path
/// (the naive reference engine, the structural acyclicity/decompose ops)
/// carry none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowMetrics {
    /// Total rows probed across all join/semijoin operations.
    pub probed: u64,
    /// Total rows kept (join output + semijoin survivors).
    pub kept: u64,
    /// Join operations executed.
    pub join_ops: u64,
    /// Semijoin operations executed.
    pub semijoin_ops: u64,
}

impl RowMetrics {
    fn capture(f: impl FnOnce(&CollectingSink)) -> Self {
        let sink = CollectingSink::new();
        f(&sink);
        let m = sink.snapshot();
        Self {
            probed: m.total_probed(),
            kept: m.total_kept(),
            join_ops: m.joins.ops,
            semijoin_ops: m.semijoins.ops,
        }
    }
}

/// One measured data point.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Operation name (`full_reduce`, `yannakakis_join`, `acyclicity_gyo`, …).
    pub op: String,
    /// `columnar` (the served engine), `reference` (the naive oracle), or
    /// one of the comparison engines.
    pub engine: String,
    /// Workload name (`chain-6`, `star-6`, `chain-64`, …).
    pub workload: String,
    /// Workload scale knob: tuples per relation, or edge count.
    pub size: usize,
    /// Work items processed per iteration: database tuples, or edges.
    pub units: usize,
    /// Timed iterations, over all batches.
    pub iters: usize,
    /// Nanoseconds per iteration of the fastest batch — what the ratios
    /// are computed from.
    pub ns_per_iter: f64,
    /// Nanoseconds per iteration of the median batch: the row's dispersion.
    pub ns_median: f64,
    /// Engine counters for the row's operation, when it has a metered path.
    pub metrics: Option<RowMetrics>,
}

impl BenchRecord {
    fn units_per_sec(&self) -> f64 {
        if self.ns_per_iter <= 0.0 {
            return 0.0;
        }
        self.units as f64 * 1e9 / self.ns_per_iter
    }

    /// The record as one JSON object: identity, timing (whole nanoseconds),
    /// then the row's counters when it has them.
    fn json(&self) -> Json {
        let int = |n: usize| Json::Int(n as i64);
        let per_sec = self.units_per_sec().round() as i64;
        let mut pairs = vec![
            ("op", Json::str(&self.op)),
            ("engine", Json::str(&self.engine)),
            ("workload", Json::str(&self.workload)),
            ("size", int(self.size)),
            ("units", int(self.units)),
            ("iters", int(self.iters)),
            ("ns_per_iter", Json::Int(self.ns_per_iter.round() as i64)),
            ("ns_median", Json::Int(self.ns_median.round() as i64)),
            ("units_per_sec", Json::Int(per_sec)),
        ];
        if let Some(m) = self.metrics {
            pairs.extend([
                ("probed", Json::Int(m.probed as i64)),
                ("kept", Json::Int(m.kept as i64)),
                ("join_ops", Json::Int(m.join_ops as i64)),
                ("semijoin_ops", Json::Int(m.semijoin_ops as i64)),
            ]);
        }
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }
}

/// What one timed side reports: iterations over all batches, and the
/// per-iteration nanoseconds of its fastest and of its median batch.
#[derive(Debug, Clone, Copy)]
struct Sample {
    iters: usize,
    ns_min: f64,
    ns_median: f64,
}

/// One side of an interleaved measurement.
type Side<'a> = Box<dyn FnMut() + 'a>;

fn side<'a, T>(mut f: impl FnMut() -> T + 'a) -> Side<'a> {
    Box::new(move || drop(black_box(f())))
}

/// Timed batches per side.
const BATCHES: usize = 5;

/// Times every side, interleaved.  One warm-up run sizes a side: enough
/// iterations to fill roughly 200 ms (between 2 and 100), split evenly
/// over up to [`BATCHES`] batches — a side whose single iteration already exceeds
/// the budget gets two batches of one.  The batches then run round-robin
/// (A B A B …), so a noisy second on a shared box hits every side of a
/// compared pair rather than one of them.
fn measure_interleaved(sides: &mut [Side<'_>]) -> Vec<Sample> {
    let mut plans = Vec::new();
    for f in sides.iter_mut() {
        let start = Instant::now();
        f();
        let once_ns = start.elapsed().as_nanos().max(1);
        let iters = (200_000_000 / once_ns).clamp(2, 100) as usize;
        let batches = iters.min(BATCHES);
        plans.push((batches, iters / batches, Vec::new()));
    }
    for round in 0..BATCHES {
        for (f, (batches, per_batch, ns)) in sides.iter_mut().zip(&mut plans) {
            if round < *batches {
                let start = Instant::now();
                (0..*per_batch).for_each(|_| f());
                ns.push(start.elapsed().as_nanos() as f64 / *per_batch as f64);
            }
        }
    }
    let sample = |(batches, per_batch, mut ns): (usize, usize, Vec<f64>)| {
        ns.sort_by(f64::total_cmp);
        Sample {
            iters: batches * per_batch,
            ns_min: ns[0],
            ns_median: ns[ns.len() / 2],
        }
    };
    plans.into_iter().map(sample).collect()
}

/// Which workload sizes to run: the full trajectory, the trimmed CI set,
/// a smoke-sized profile for tests, or the scale-up rows alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// All sizes (1000/4000 tuples per relation), plus the scale rows.
    Full,
    /// CI sizes (1000) — fast enough for every push.
    Quick,
    /// Smoke sizes (60) — for the CLI test suite under debug builds.
    Tiny,
    /// Only the 10⁶-tuple scale rows (snapshot-load vs text-parse, and the
    /// served engine at that size) — the CI `scale` job's profile.
    Scale,
}

/// A row to be measured: its op and engine names and its counters, and the
/// code to time.
type Row<'a> = ((&'static str, &'static str, Option<RowMetrics>), Side<'a>);

fn row<'a, T>(
    op: &'static str,
    engine: &'static str,
    metrics: Option<RowMetrics>,
    f: impl FnMut() -> T + 'a,
) -> Row<'a> {
    ((op, engine, metrics), side(f))
}

/// Times the rows of one (workload, size) cell, interleaved, and appends a
/// record for each.
fn record_cell(
    records: &mut Vec<BenchRecord>,
    workload: &str,
    size: usize,
    units: usize,
    rows: Vec<Row<'_>>,
) {
    let (names, mut sides): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    let samples = measure_interleaved(&mut sides);
    for ((op, engine, metrics), sample) in names.into_iter().zip(samples) {
        records.push(BenchRecord {
            op: op.to_owned(),
            engine: engine.to_owned(),
            workload: workload.to_owned(),
            size,
            units,
            iters: sample.iters,
            ns_per_iter: sample.ns_min,
            ns_median: sample.ns_median,
            metrics,
        });
    }
}

/// The seeded random database every row of a cell runs on: `size` tuples
/// per relation over `domain` values, Zipf-skewed and key-capped on request.
fn data(schema: &Hypergraph, size: usize, domain: usize, skew: f64, key_cap: usize) -> Database {
    let params = DataParams {
        tuples_per_relation: size,
        domain: domain as i64,
        skew,
        key_cap,
    };
    random_database(schema, params, 9)
}

/// The `full_reduce` and `yannakakis_join` rows of one cell: the engine
/// timed with nobody watching as `columnar` (plus one run under a
/// collecting sink for the row's counters).  `gov` adds
/// `columnar-governed` — the same engine checkpointing against it — right
/// behind the `columnar` rows it is compared with, and `reference` adds the
/// naive oracle.
fn pipeline_rows<'a>(
    gov: Option<&'a QueryGovernor>,
    reference: bool,
    db: &'a Database,
    tree: &'a JoinTree,
    x: &'a NodeSet,
) -> Vec<Row<'a>> {
    let ctx = ExecCtx::new();
    let counters = RowMetrics::capture(|s| drop(ctx.metrics(s).full_reduce(db, tree)));
    let mut rows = vec![row("full_reduce", "columnar", Some(counters), move || {
        ctx.full_reduce(db, tree)
    })];
    let counters = RowMetrics::capture(|s| drop(ctx.metrics(s).yannakakis_join(db, tree, x)));
    rows.push(row(
        "yannakakis_join",
        "columnar",
        Some(counters),
        move || ctx.yannakakis_join(db, tree, x),
    ));
    if let Some(gov) = gov {
        let ctx = ctx.gov(gov);
        rows.push(row("full_reduce", "columnar-governed", None, move || {
            ctx.full_reduce(db, tree).expect("limits never fire")
        }));
        rows.push(row(
            "yannakakis_join",
            "columnar-governed",
            None,
            move || ctx.yannakakis_join(db, tree, x).expect("limits never fire"),
        ));
    }
    if reference {
        rows.push(row("full_reduce", "reference", None, || {
            naive_full_reduce(db, tree)
        }));
        rows.push(row("yannakakis_join", "reference", None, || {
            naive_yannakakis_join(db, tree, x)
        }));
    }
    rows
}

fn query_records(profile: Profile, records: &mut Vec<BenchRecord>) {
    let sizes: &[usize] = match profile {
        Profile::Full => &[1000, 4000],
        Profile::Quick => &[1000],
        Profile::Tiny => &[60],
        Profile::Scale => &[],
    };
    // Name, schema, whether the data is the skewed regime and whether to
    // time the naive reference engine (slow; kept for the chain/star rows).
    // Skewed means a Zipf draw (exponent 1.1) whose join-column values are
    // capped at 8 occurrences, so join outputs stay proportional to the
    // input and the rows measure kernel cost, not output materialization
    // (which `chain6-wide` in `benchmark/` measures end to end); the other
    // workloads draw uniformly from half as many values as tuples.
    let workloads = [
        ("chain-6", chain(6, 2, 1), false, true),
        ("star-6", star(6, 2), false, true),
        ("snowflake-2x2", snowflake_tree(2, 2, 3), false, false),
        ("chain-6-zipf-capped", chain(6, 2, 1), true, false),
    ];
    // Armed with limits that never fire, so every checkpoint reads the
    // clock and every allocation is charged: all the work governance does
    // for a request with a deadline and a budget.
    let gov = QueryGovernor::new()
        .with_deadline(Duration::from_secs(3600))
        .with_memory_budget(u64::MAX);
    for (name, schema, skewed, reference) in workloads {
        let tree = join_tree(&schema).expect("benchmark schemas are acyclic");
        let x = far_apart(&schema);
        for &size in sizes {
            let db = if skewed {
                data(&schema, size, size, 1.1, 8)
            } else {
                data(&schema, size, size / 2, 0.0, 0)
            };
            let rows = pipeline_rows(Some(&gov), reference, &db, &tree, &x);
            record_cell(records, name, size, db.tuple_count(), rows);
        }
    }
}

/// The cyclic workload family: rings, hyper-rings and pair-cliques have no
/// join tree, so they exercise the full decompose → materialize → reduce →
/// join pipeline (`query_yannakakis` routes them through the hypertree
/// path).  The op rows are
///
/// * `decompose` — structural cost only (min-fill triangulation, bag tree);
/// * `cyclic_join` / `columnar-decomp` — the served engine;
/// * `cyclic_join` / `naive` — join-everything-then-project baseline.
fn cyclic_records(profile: Profile, records: &mut Vec<BenchRecord>) {
    let sizes: &[usize] = match profile {
        Profile::Full => &[200, 1000],
        Profile::Quick => &[200],
        Profile::Tiny => &[60],
        Profile::Scale => &[],
    };
    let workloads = [
        ("ring-8", ring(8)),
        ("hyper-ring-5x3", hyper_ring(5, 3)),
        ("clique-5", pair_clique(5)),
    ];
    for (name, schema) in workloads {
        assert!(
            join_tree(&schema).is_none(),
            "cyclic bench workloads must be cyclic"
        );
        let x = far_apart(&schema);
        for &size in sizes {
            let db = data(&schema, size, size / 2, 0.0, 0);
            let (db, x) = (&db, &x);
            let mut rows = vec![row("decompose", "columnar", None, || {
                decompose(&schema, Heuristic::MinFill).expect("nonempty schema")
            })];
            let ctx = ExecCtx::new();
            let counters = RowMetrics::capture(|s| drop(ctx.metrics(s).query_yannakakis(db, x)));
            rows.push(row(
                "cyclic_join",
                "columnar-decomp",
                Some(counters),
                move || ctx.query_yannakakis(db, x).expect("decomposable"),
            ));
            rows.push(row("cyclic_join", "naive", None, || {
                query_via_full_join(db, x)
            }));
            record_cell(records, name, size, db.tuple_count(), rows);
        }
    }
}

fn acyclicity_records(profile: Profile, records: &mut Vec<BenchRecord>) {
    let sizes: &[usize] = match profile {
        Profile::Full => &[64, 256],
        Profile::Quick => &[64],
        Profile::Tiny => &[16],
        Profile::Scale => &[],
    };
    for &size in sizes {
        let schema = chain(size, 3, 1);
        let rows = vec![
            row("acyclicity_gyo", "columnar", None, || schema.is_acyclic()),
            row("acyclicity_mcs", "columnar", None, || {
                is_acyclic_mcs(&schema)
            }),
        ];
        let workload = format!("chain-{size}");
        record_cell(records, &workload, size, schema.edge_count(), rows);
    }
}

/// The scale workload: the bench rows at 10⁶ tuples/relation.
///
/// One schema (a 3-relation chain), one size, two kinds of rows:
///
/// * `data_load` / `text-parse` vs `data_load` / `snapshot-load` — parsing
///   the text rendering of the database against decoding its binary
///   snapshot, on byte-identical data (the ≥20× snapshot payoff the
///   format exists for);
/// * `full_reduce` / `yannakakis_join` on `columnar`, the served engine.
///
/// The value domain equals the relation size, so each probe key expects
/// about one match and the pipeline stays O(n): the rows measure kernel
/// and load throughput, not join-output materialization.
fn scale_records(records: &mut Vec<BenchRecord>) {
    let schema = chain(3, 2, 1);
    let size = 1_000_000;
    let db = data(&schema, size, size, 0.0, 0);
    let (name, units) = ("scale-chain-3", db.tuple_count());
    let text = crate::load::render_database(&db);
    let bytes = db.to_snapshot_bytes();
    let loads = vec![
        row("data_load", "text-parse", None, || {
            crate::load::parse_database(&schema, &text).expect("rendered text re-parses")
        }),
        row("data_load", "snapshot-load", None, || {
            Database::from_snapshot_bytes(&bytes).expect("fresh snapshot decodes")
        }),
    ];
    record_cell(records, name, size, units, loads);
    // ~150 MB the engine rows below have no use for.
    drop((text, bytes));
    let tree = join_tree(&schema).expect("chains are acyclic");
    let x = far_apart(&schema);
    let rows = pipeline_rows(None, false, &db, &tree, &x);
    record_cell(records, name, size, units, rows);
}

/// Runs every benchmark, returning the records.  The 10⁶-tuple scale rows
/// run under the [`Profile::Full`] trajectory and alone under
/// [`Profile::Scale`]; the per-push Quick/Tiny profiles skip them.
pub fn run_all(profile: Profile) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    if profile != Profile::Scale {
        query_records(profile, &mut records);
        cyclic_records(profile, &mut records);
        acyclicity_records(profile, &mut records);
    }
    if matches!(profile, Profile::Full | Profile::Scale) {
        scale_records(&mut records);
    }
    records
}

/// Renders the records as the `BENCH_results.json` document (one record per
/// line, so the file diffs and greps cleanly).
pub fn to_json(records: &[BenchRecord]) -> String {
    let created = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let lines: Vec<String> = records
        .iter()
        .map(|r| format!("    {}", r.json()))
        .collect();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 2,\n");
    out.push_str(&format!("  \"created_unix\": {created},\n"));
    out.push_str("  \"results\": [\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Which side of its bound a ratio must stay on.
#[derive(Debug, Clone, Copy)]
enum Bound {
    AtMost(f64),
    AtLeast(f64),
}

/// What [`ratios`] reports, as `(line, numerator engine, denominator
/// engine, bound)`: each is the geometric mean of `num ÷ den` fastest-batch
/// times over every pair of rows that differ only in engine.  The three
/// are what `--check` guards: governance stays near free (ten runs
/// of an unchanged tree on a shared 2-CPU box read 0.93–1.06, checkpointing
/// every 8 rows instead of every 4096 reads 1.55–1.57), the engine keeps its
/// order of magnitude over the naive oracle (a healthy build reads 34–45),
/// and a snapshot loads ≥ 20× faster than its text (README's acceptance
/// figure).
#[rustfmt::skip]
const RATIOS: [(&str, &str, &str, Bound); 3] = [
    ("governed_overhead", "columnar-governed", "columnar", Bound::AtMost(1.25)),
    ("engine_speedup", "reference", "columnar", Bound::AtLeast(10.0)),
    ("snapshot_speedup", "text-parse", "snapshot-load", Bound::AtLeast(20.0)),
];

/// The row that differs from `of` only in being measured on `engine`.
fn partner<'a>(
    records: &'a [BenchRecord],
    of: &BenchRecord,
    engine: &str,
) -> Option<&'a BenchRecord> {
    records.iter().find(|r| {
        r.engine == engine && r.op == of.op && r.workload == of.workload && r.size == of.size
    })
}

/// The geometric mean: one 4× outlier among sixteen ratios moves it 9 %,
/// where it would move the arithmetic mean 19 %.
fn geomean(ratios: &[f64]) -> f64 {
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// The `ratios:` block of a run, computed from its own rows, and what
/// `--check` fails on: a bounded ratio out of bound (compared as printed,
/// to three decimals), a numerator row whose partner row is missing (a
/// silently smaller mean otherwise), or no bounded ratio measured at all
/// (a profile or a rename must not empty the guard).
pub fn ratios(records: &[BenchRecord]) -> (String, Vec<String>) {
    let mut out = String::from("ratios: geometric mean of fastest-batch time, num / den\n");
    let mut failures = Vec::new();
    let mut bounded = 0;
    for (line, num_engine, den_engine, bound) in RATIOS {
        let mut pairs = Vec::new();
        for num in records.iter().filter(|r| r.engine == num_engine) {
            match partner(records, num, den_engine) {
                Some(den) => pairs.push(num.ns_per_iter / den.ns_per_iter),
                None => failures.push(format!(
                    "{}/{}/{} size {} has no {den_engine} row to pair with",
                    num.op, num.engine, num.workload, num.size
                )),
            }
        }
        let name = format!("{num_engine} / {den_engine}");
        if pairs.is_empty() {
            out.push_str(&format!("  {line:<17} {name:<42} not measured\n"));
            continue;
        }
        let value = (geomean(&pairs) * 1000.0).round() / 1000.0;
        bounded += 1;
        let (ok, text) = match bound {
            Bound::AtMost(b) => (value <= b, format!("<= {b}")),
            Bound::AtLeast(b) => (value >= b, format!(">= {b}")),
        };
        if !ok {
            failures.push(format!("{line} {value:.3} is not {text}"));
        }
        out.push_str(&format!(
            "  {line:<17} {name:<42} {value:>8.3} over {:>2} pairs  bound {text}: {}\n",
            pairs.len(),
            if ok { "ok" } else { "OUT OF BOUND" },
        ));
    }
    if bounded == 0 {
        failures.push("no bounded ratio was measured".to_owned());
    }
    (out, failures)
}

/// A human-readable summary table of the records: every engine row, with
/// the speedup over the `columnar` row where both were measured (reference
/// rows show their slowdown the same way).
pub fn summary(records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:<24} {:<19} {:>7} {:>8} {:>14} {:>14} {:>12}\n",
        "op", "engine", "workload", "size", "units", "ns_per_iter", "ns_median", "vs_columnar"
    ));
    for r in records {
        let vs = match partner(records, r, "columnar") {
            Some(b) if r.engine != "columnar" => format!("{:.2}x", b.ns_per_iter / r.ns_per_iter),
            _ => "-".to_owned(),
        };
        out.push_str(&format!(
            "{:<16} {:<24} {:<19} {:>7} {:>8} {:>14.0} {:>14.0} {:>12}\n",
            r.op, r.engine, r.workload, r.size, r.units, r.ns_per_iter, r.ns_median, vs,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperqd::json;

    fn record(op: &str, engine: &str, workload: &str, size: usize, ns: f64) -> BenchRecord {
        BenchRecord {
            op: op.into(),
            engine: engine.into(),
            workload: workload.into(),
            size,
            units: 100,
            iters: 3,
            ns_per_iter: ns,
            ns_median: ns * 1.5,
            metrics: None,
        }
    }

    /// One pair of rows: `num` at `num_ns` beside `den` at 1000 ns.
    fn pair(num: &str, den: &str, num_ns: f64) -> Vec<BenchRecord> {
        vec![
            record("full_reduce", den, "chain-6", 1000, 1000.0),
            record("full_reduce", num, "chain-6", 1000, num_ns),
        ]
    }

    /// The `results` rows of a bench document.
    fn rows(document: &str) -> Vec<Json> {
        let doc = json::parse(document).expect("a bench document is valid JSON");
        doc.get("results").and_then(Json::as_arr).unwrap().to_vec()
    }

    #[test]
    fn json_embeds_row_metrics_when_present() {
        let mut r = record("full_reduce", "columnar", "chain-6", 200, 1000.0);
        r.metrics = Some(RowMetrics {
            probed: 500,
            kept: 400,
            join_ops: 0,
            semijoin_ops: 10,
        });
        let document = to_json(&[r, record("full_reduce", "reference", "chain-6", 200, 1.0)]);
        // One record per line, so the checked-in document diffs by row.
        assert_eq!(document.lines().filter(|l| l.contains("\"op\"")).count(), 2);
        let rows = rows(&document);
        let [metered, bare] = &rows[..] else {
            panic!("two rows in: {document}");
        };
        assert_eq!(metered.get("probed"), Some(&Json::Int(500)));
        assert_eq!(metered.get("kept"), Some(&Json::Int(400)));
        assert_eq!(metered.get("semijoin_ops"), Some(&Json::Int(10)));
        // Identity and both timings sit beside the metrics.
        assert_eq!(metered.get("op"), Some(&Json::str("full_reduce")));
        assert_eq!(metered.get("size"), Some(&Json::Int(200)));
        assert_eq!(metered.get("ns_per_iter"), Some(&Json::Int(1000)));
        assert_eq!(metered.get("ns_median"), Some(&Json::Int(1500)));
        // A metric-less record emits no metrics keys at all.
        assert_eq!(bare.get("probed"), None, "bare: {bare}");
    }

    #[test]
    fn interleaved_sides_each_report_fastest_and_median_batch() {
        let (mut fast, mut slow) = (0usize, 0usize);
        let samples = measure_interleaved(&mut [
            side(|| fast += 1),
            side(|| {
                slow += 1;
                std::thread::sleep(Duration::from_millis(45));
            }),
        ]);
        // A trivial side fills the iteration clamp in five batches; a side
        // of ≥ 45 ms an iteration fits at most four single runs into the
        // budget (fewer if the sleep overshoots on a loaded box).
        assert_eq!(samples[0].iters, 100);
        assert!((2..=4).contains(&samples[1].iters), "{:?}", samples[1]);
        for s in &samples {
            assert!(s.ns_median >= s.ns_min && s.ns_min >= 0.0, "{s:?}");
        }
        assert!(samples[1].ns_min >= 45e6, "{:?}", samples[1]);
        // Every timed iteration ran, plus the sizing run.
        assert_eq!((fast, slow), (101, samples[1].iters + 1));
    }

    #[test]
    fn bounded_ratios_pass_at_the_bound_and_fail_past_it() {
        for (line, num, den, at_bound, past_bound) in [
            (
                "governed_overhead",
                "columnar-governed",
                "columnar",
                1250.0,
                1260.0,
            ),
            ("engine_speedup", "reference", "columnar", 10_000.0, 9_900.0),
            (
                "snapshot_speedup",
                "text-parse",
                "snapshot-load",
                20_000.0,
                19_900.0,
            ),
        ] {
            let (block, failures) = ratios(&pair(num, den, at_bound));
            assert!(failures.is_empty(), "{line} at its bound: {failures:?}");
            assert!(block.contains(": ok"), "block: {block}");
            let (block, failures) = ratios(&pair(num, den, past_bound));
            assert_eq!(failures.len(), 1, "{line} past its bound: {failures:?}");
            assert!(failures[0].starts_with(line), "{failures:?}");
            assert!(block.contains("OUT OF BOUND"), "block: {block}");
        }
    }

    #[test]
    fn a_row_without_its_partner_is_an_error_naming_the_row() {
        // A second governed row whose `columnar` partner is missing must not
        // just make the mean one pair smaller.
        let mut records = pair("columnar-governed", "columnar", 1000.0);
        records.push(record(
            "full_reduce",
            "columnar-governed",
            "star-6",
            1000,
            1.0,
        ));
        let (block, failures) = ratios(&records);
        assert!(block.contains("over  1 pairs"), "block: {block}");
        assert_eq!(
            failures,
            ["full_reduce/columnar-governed/star-6 size 1000 has no columnar row to pair with"]
        );
    }

    #[test]
    fn a_run_without_a_bounded_pair_fails_the_check() {
        // Rows no ratio pairs (or nothing at all) leave the guard empty.
        for records in [pair("naive", "columnar", 900.0), Vec::new()] {
            assert_eq!(ratios(&records).1, ["no bounded ratio was measured"]);
        }
    }

    #[test]
    fn ratios_are_geometric_means() {
        // One 4x outlier among sixteen pairs at 1.0: 4^(1/16) = 1.09, where
        // the arithmetic mean would read 1.19.
        let mut records = Vec::new();
        for size in 0..16 {
            let governed_ns = if size == 0 { 4000.0 } else { 1000.0 };
            records.push(record("full_reduce", "columnar", "chain-6", size, 1000.0));
            let governed = record(
                "full_reduce",
                "columnar-governed",
                "chain-6",
                size,
                governed_ns,
            );
            records.push(governed);
        }
        let (block, failures) = ratios(&records);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(block.contains("1.091 over 16 pairs"), "block: {block}");
    }

    #[test]
    fn summary_pairs_engines() {
        let records = vec![
            record("full_reduce", "columnar", "chain-6", 200, 1000.0),
            record("full_reduce", "reference", "chain-6", 200, 9000.0),
            record("full_reduce", "columnar-governed", "chain-6", 200, 500.0),
        ];
        let s = summary(&records);
        assert!(s.contains("0.11x"), "reference slowdown shown: {s}");
        assert!(s.contains("2.00x"), "speedup shown: {s}");
    }

    #[test]
    fn cyclic_records_cover_the_decomposition_pipeline() {
        let mut records = Vec::new();
        cyclic_records(Profile::Tiny, &mut records);
        for workload in ["ring-8", "hyper-ring-5x3", "clique-5"] {
            assert!(
                records
                    .iter()
                    .any(|r| r.workload == workload && r.op == "decompose"),
                "missing decompose row for {workload}"
            );
            for engine in ["columnar-decomp", "naive"] {
                assert!(
                    records.iter().any(|r| r.workload == workload
                        && r.op == "cyclic_join"
                        && r.engine == engine),
                    "missing cyclic_join/{engine} row for {workload}"
                );
            }
        }
    }

    #[test]
    fn quick_bench_produces_all_engines() {
        // Tiny smoke: run only the acyclicity half to keep the test fast.
        let mut records = Vec::new();
        acyclicity_records(Profile::Tiny, &mut records);
        assert!(records.iter().any(|r| r.op == "acyclicity_gyo"));
        assert!(records.iter().any(|r| r.op == "acyclicity_mcs"));
        assert!(records.iter().all(|r| r.ns_per_iter > 0.0));
    }
}
