//! `hyperq bench` — the machine-readable perf harness.
//!
//! Runs the query-engine (B4: Yannakakis full reduce + join) and
//! acyclicity micro-benchmarks at fixed workload sizes, timing both the
//! columnar engine and the retained naive reference engine, and writes the
//! results as `BENCH_results.json` so the perf trajectory accumulates in
//! CI artifacts.  The full profile (and `--scale` alone) adds the
//! 10⁶-tuple-per-relation scale rows: `data_load` (binary snapshot decode
//! vs text parse — the ≥20× load-speedup acceptance row) and the
//! sequential vs morsel-driven engines on the same workload.  With
//! `--check <baseline.json>` it additionally compares the measured
//! columnar `full_reduce` and `yannakakis_join` numbers (the sequential,
//! pool-leased parallel and morsel engines), the `cyclic_join`
//! decomposition rows and the `data_load` rows against a checked-in
//! baseline and fails on a regression beyond `--max-regression` (default
//! 2×, deliberately generous to tolerate runner noise).

use acyclic::{is_acyclic_mcs, join_tree, AcyclicityExt};
use decomp::{decompose, Heuristic};
use hypergraph::EdgeId;
use hypergraph::Hypergraph;
use hyperqd::json::{self, Json};
use reldb::reference::{naive_full_reduce, naive_yannakakis_join};
use reldb::{
    naive_join_project, CollectingSink, Database, ExecCtx, ExecPolicy, JoinStrategy, QueryGovernor,
    Relation, AUTO_JOIN_SORTMERGE_MAX_DISTINCT_RATIO, AUTO_SEMIJOIN_SORTMERGE_MAX_DISTINCT_RATIO,
};
use std::collections::HashMap;
use std::time::Instant;
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
    /// `columnar` (the engine) or `reference` (the naive baseline).
    pub engine: String,
    /// Workload name (`chain-6`, `star-6`, `chain-64`, …).
    pub workload: String,
    /// Workload scale knob: tuples per relation, or edge count.
    pub size: usize,
    /// Work items processed per iteration: database tuples, or edges.
    pub units: usize,
    /// Timed iterations.
    pub iters: usize,
    /// Mean nanoseconds per iteration.
    pub ns_per_iter: f64,
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

/// Times `f`: one warmup/calibration run, then enough iterations to fill
/// roughly 200ms (between 2 and 100), returning `(iters, mean ns/iter)`.
fn measure<T>(mut f: impl FnMut() -> T) -> (usize, f64) {
    let start = Instant::now();
    std::hint::black_box(f());
    let once_ns = start.elapsed().as_nanos().max(1);
    let iters = (200_000_000 / once_ns).clamp(2, 100) as usize;
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    (iters, start.elapsed().as_nanos() as f64 / iters as f64)
}

/// Which workload sizes to run: the full trajectory, the trimmed CI set,
/// a smoke-sized profile for tests, or the scale-up rows alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// All sizes (200/1000/4000 tuples per relation), plus the scale rows.
    Full,
    /// CI sizes (200/1000) — fast enough for every push.
    Quick,
    /// Smoke sizes (60) — for the CLI test suite under debug builds.
    Tiny,
    /// Only the 10⁶-tuple scale rows (snapshot-load vs text-parse, and the
    /// morsel-parallel engine) — the CI `scale` job's profile.
    Scale,
}

/// One benchmark schema family: its name, schema, data skew, and which
/// engine rows to measure on it.
struct QueryWorkload {
    name: &'static str,
    schema: Hypergraph,
    /// Zipf skew for the generated data (`0.0` = uniform).
    skew: f64,
    /// Divisor mapping tuples/relation to the value domain: small divisors
    /// mean more distinct keys.
    domain_div: i64,
    /// Per-join-column value cap (`0` = unbounded): the output-bounded
    /// skewed regime that isolates kernel cost from join-output size.
    key_cap: usize,
    /// Measure the naive reference engine (slow; kept for the original
    /// chain/star trajectory rows).
    reference: bool,
    /// Measure the sort-merge and parallel engine variants.
    variants: bool,
}

/// The strategy/parallelism engine variants measured alongside the default
/// columnar hash engine.  The engine label is what lands in the JSON rows.
///
/// `columnar-parallel` leases long-lived workers from the shared
/// `WorkerPool` (the production parallel path); `columnar-auto` runs the
/// Auto planner with its calibrated per-operator crossovers (an
/// informational row, not regression-guarded).
fn engine_policies(threads: usize) -> Vec<(&'static str, ExecPolicy)> {
    vec![
        (
            "columnar-sortmerge",
            ExecPolicy::sequential(JoinStrategy::SortMerge),
        ),
        ("columnar-auto", ExecPolicy::sequential(JoinStrategy::Auto)),
        (
            "columnar-parallel",
            ExecPolicy::parallel(JoinStrategy::Hash, threads),
        ),
    ]
}

/// The two pipeline rows every engine gets: `full_reduce` and
/// `yannakakis_join` timed under `ctx` as given (nobody watching), each
/// with one extra run under a collecting sink for the row's counters.
fn reduce_and_join_rows(
    push: &mut impl FnMut(&str, &str, (usize, f64), Option<RowMetrics>),
    engine: &str,
    ctx: &ExecCtx<'_>,
    db: &Database,
    tree: &acyclic::JoinTree,
    x: &hypergraph::NodeSet,
) {
    push(
        "full_reduce",
        engine,
        measure(|| ctx.full_reduce(db, tree)),
        Some(RowMetrics::capture(|s| {
            ctx.metrics(s)
                .full_reduce(db, tree)
                .expect("no governor to abort");
        })),
    );
    push(
        "yannakakis_join",
        engine,
        measure(|| ctx.yannakakis_join(db, tree, x)),
        Some(RowMetrics::capture(|s| {
            ctx.metrics(s)
                .yannakakis_join(db, tree, x)
                .expect("no governor to abort");
        })),
    );
}

fn query_records(profile: Profile, threads: usize, records: &mut Vec<BenchRecord>) {
    let sizes: &[usize] = match profile {
        Profile::Full => &[200, 1000, 4000],
        Profile::Quick => &[200, 1000],
        Profile::Tiny => &[60],
        Profile::Scale => &[],
    };
    let workloads = vec![
        QueryWorkload {
            name: "chain-6",
            schema: chain(6, 2, 1),
            skew: 0.0,
            domain_div: 2,
            key_cap: 0,
            reference: true,
            variants: true,
        },
        QueryWorkload {
            name: "star-6",
            schema: star(6, 2),
            skew: 0.0,
            domain_div: 2,
            key_cap: 0,
            reference: true,
            variants: false,
        },
        QueryWorkload {
            name: "snowflake-2x2",
            schema: snowflake_tree(2, 2, 3),
            skew: 0.0,
            domain_div: 2,
            key_cap: 0,
            reference: false,
            variants: true,
        },
        QueryWorkload {
            name: "chain-6-zipf",
            schema: chain(6, 2, 1),
            skew: 1.1,
            domain_div: 1,
            key_cap: 0,
            reference: false,
            variants: true,
        },
        // The output-bounded skewed regime: same Zipf draw, but join-column
        // values are capped so join outputs stay proportional to the input
        // and the row measures kernel cost, not output materialization.
        QueryWorkload {
            name: "chain-6-zipf-capped",
            schema: chain(6, 2, 1),
            skew: 1.1,
            domain_div: 1,
            key_cap: 8,
            reference: false,
            variants: true,
        },
    ];
    let hash_seq = ExecPolicy::sequential(JoinStrategy::Hash);
    for w in &workloads {
        let tree = join_tree(&w.schema).expect("benchmark schemas are acyclic");
        let x = far_apart(&w.schema);
        for &size in sizes {
            let db: Database = random_database(
                &w.schema,
                DataParams {
                    tuples_per_relation: size,
                    domain: (size as i64 / w.domain_div).max(2),
                    skew: w.skew,
                    key_cap: w.key_cap,
                },
                9,
            );
            let units = db.tuple_count();
            let mut push =
                |op: &str, engine: &str, (iters, ns): (usize, f64), metrics: Option<RowMetrics>| {
                    records.push(BenchRecord {
                        op: op.to_owned(),
                        engine: engine.to_owned(),
                        workload: w.name.to_owned(),
                        size,
                        units,
                        iters,
                        ns_per_iter: ns,
                        metrics,
                    });
                };
            let columnar = ExecCtx::new(&hash_seq);
            reduce_and_join_rows(&mut push, "columnar", &columnar, &db, &tree, &x);
            // The same kernels with Governor checkpoints live but no limit
            // set: these rows hold the governance layer's overhead under
            // the regression guard alongside the ungoverned engine.
            let gov = QueryGovernor::new();
            let governed = columnar.gov(&gov);
            push(
                "full_reduce",
                "columnar-governed",
                measure(|| governed.full_reduce(&db, &tree).expect("no limit set")),
                None,
            );
            push(
                "yannakakis_join",
                "columnar-governed",
                measure(|| {
                    governed
                        .yannakakis_join(&db, &tree, &x)
                        .expect("no limit set")
                }),
                None,
            );
            if w.reference {
                push(
                    "full_reduce",
                    "reference",
                    measure(|| naive_full_reduce(&db, &tree)),
                    None,
                );
                push(
                    "yannakakis_join",
                    "reference",
                    measure(|| naive_yannakakis_join(&db, &tree, &x)),
                    None,
                );
            }
            if w.variants {
                for (engine, policy) in engine_policies(threads) {
                    let ctx = ExecCtx::new(&policy);
                    reduce_and_join_rows(&mut push, engine, &ctx, &db, &tree, &x);
                }
                // A single binary join of the schema's first two relations,
                // isolating the strategy difference from the Yannakakis
                // pipeline.  Every bench schema's first two edges share a
                // key; assert it so a future workload cannot silently turn
                // this row into a cross-product measurement.
                let (r0, r1) = (&db.relations()[0], &db.relations()[1]);
                assert!(
                    !r0.attributes().intersection(r1.attributes()).is_empty(),
                    "join_pair workload relations must share a key"
                );
                for (engine, strategy) in [
                    ("columnar", JoinStrategy::Hash),
                    ("columnar-sortmerge", JoinStrategy::SortMerge),
                ] {
                    let policy = ExecPolicy::sequential(strategy);
                    push(
                        "join_pair",
                        engine,
                        measure(|| r0.join_with(r1, strategy)),
                        Some(RowMetrics::capture(|s| {
                            ExecCtx::new(&policy)
                                .metrics(s)
                                .join(r0, r1)
                                .expect("no governor to abort");
                        })),
                    );
                }
            }
        }
    }
}

/// The cyclic workload family: rings, hyper-rings and pair-cliques have no
/// join tree, so they exercise the full decompose → materialize → reduce →
/// join pipeline (`yannakakis_join_any` routes them through the hypertree
/// path).  The op rows are
///
/// * `decompose` — structural cost only (min-fill triangulation, bag tree);
/// * `cyclic_join` / `columnar-decomp` — the sequential pipeline;
/// * `cyclic_join` / `columnar-decomp-parallel` — bag materialization and
///   both Yannakakis phases on leased pool workers;
/// * `cyclic_join` / `naive` — join-everything-then-project baseline.
fn cyclic_records(profile: Profile, threads: usize, records: &mut Vec<BenchRecord>) {
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
    let seq = ExecPolicy::sequential(JoinStrategy::Hash);
    let par = ExecPolicy::parallel(JoinStrategy::Hash, threads);
    for (name, schema) in workloads {
        assert!(
            join_tree(&schema).is_none(),
            "cyclic bench workloads must be cyclic"
        );
        let x = far_apart(&schema);
        for &size in sizes {
            let db: Database = random_database(
                &schema,
                DataParams {
                    tuples_per_relation: size,
                    domain: (size as i64 / 2).max(2),
                    skew: 0.0,
                    key_cap: 0,
                },
                9,
            );
            let units = db.tuple_count();
            let mut push =
                |op: &str, engine: &str, (iters, ns): (usize, f64), metrics: Option<RowMetrics>| {
                    records.push(BenchRecord {
                        op: op.to_owned(),
                        engine: engine.to_owned(),
                        workload: name.to_owned(),
                        size,
                        units,
                        iters,
                        ns_per_iter: ns,
                        metrics,
                    });
                };
            push(
                "decompose",
                "columnar",
                measure(|| decompose(&schema, Heuristic::MinFill).expect("nonempty schema")),
                None,
            );
            for (engine, policy) in [
                ("columnar-decomp", &seq),
                ("columnar-decomp-parallel", &par),
            ] {
                let ctx = ExecCtx::new(policy);
                push(
                    "cyclic_join",
                    engine,
                    measure(|| ctx.yannakakis_join_any(&db, &x).expect("decomposable")),
                    Some(RowMetrics::capture(|s| {
                        ctx.metrics(s)
                            .yannakakis_join_any(&db, &x)
                            .expect("no governor to abort");
                    })),
                );
            }
            push(
                "cyclic_join",
                "naive",
                measure(|| naive_join_project(&db, &x)),
                None,
            );
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
        let units = schema.edge_count();
        let mut push = |op: &str, (iters, ns): (usize, f64)| {
            records.push(BenchRecord {
                op: op.to_owned(),
                engine: "columnar".to_owned(),
                workload: format!("chain-{size}"),
                size,
                units,
                iters,
                ns_per_iter: ns,
                metrics: None,
            });
        };
        push("acyclicity_gyo", measure(|| schema.is_acyclic()));
        push("acyclicity_mcs", measure(|| is_acyclic_mcs(&schema)));
    }
}

/// The scale workload: the first bench rows at 10⁶ tuples/relation.
///
/// One schema (a 3-relation chain), one size, four kinds of rows:
///
/// * `data_load` / `text-parse` vs `data_load` / `snapshot-load` — parsing
///   the text rendering of the database against decoding its binary
///   snapshot, on byte-identical data (the ≥20× snapshot payoff the
///   format exists for);
/// * `full_reduce` / `yannakakis_join` on the sequential `columnar` engine
///   and on `columnar-morsel` — the pool-leased parallel engine whose
///   probe loops pull [`reldb::MorselQueue`] morsels (at 10⁶ rows a join
///   spans ~61 default-sized morsels, so the work-pull path is exercised
///   for real rather than falling back to sequential).
///
/// The value domain equals the relation size, so each probe key expects
/// about one match and the pipeline stays O(n): the rows measure kernel
/// and load throughput, not join-output materialization.
fn scale_records(threads: usize, records: &mut Vec<BenchRecord>) {
    let schema = chain(3, 2, 1);
    let size = 1_000_000;
    let tree = join_tree(&schema).expect("chains are acyclic");
    let x = far_apart(&schema);
    let db: Database = random_database(
        &schema,
        DataParams {
            tuples_per_relation: size,
            domain: size as i64,
            skew: 0.0,
            key_cap: 0,
        },
        9,
    );
    let units = db.tuple_count();
    let mut push =
        |op: &str, engine: &str, (iters, ns): (usize, f64), metrics: Option<RowMetrics>| {
            records.push(BenchRecord {
                op: op.to_owned(),
                engine: engine.to_owned(),
                workload: "scale-chain-3".to_owned(),
                size,
                units,
                iters,
                ns_per_iter: ns,
                metrics,
            });
        };
    let text = crate::load::render_database(&db);
    let bytes = db.to_snapshot_bytes();
    push(
        "data_load",
        "text-parse",
        measure(|| crate::load::parse_database(&schema, &text).expect("rendered text re-parses")),
        None,
    );
    push(
        "data_load",
        "snapshot-load",
        measure(|| Database::from_snapshot_bytes(&bytes).expect("fresh snapshot decodes")),
        None,
    );
    let seq = ExecPolicy::sequential(JoinStrategy::Hash);
    let morsel = ExecPolicy::parallel(JoinStrategy::Hash, threads);
    for (engine, policy) in [("columnar", &seq), ("columnar-morsel", &morsel)] {
        reduce_and_join_rows(&mut push, engine, &ExecCtx::new(policy), &db, &tree, &x);
    }
}

/// Runs every benchmark, returning the records.  `threads` pins the worker
/// count of the `columnar-parallel` engine rows (CI passes a fixed value so
/// the trajectory is reproducible across runners).  The 10⁶-tuple scale
/// rows run under the [`Profile::Full`] trajectory and alone under
/// [`Profile::Scale`]; the per-push Quick/Tiny profiles skip them.
pub fn run_all(profile: Profile, threads: usize) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    if profile != Profile::Scale {
        query_records(profile, threads, &mut records);
        cyclic_records(profile, threads, &mut records);
        acyclicity_records(profile, &mut records);
    }
    if matches!(profile, Profile::Full | Profile::Scale) {
        scale_records(threads, &mut records);
    }
    records
}

/// Builds the two-relation calibration instance: `R0(A, B)` and `R1(B, C)`
/// with `n` rows each and roughly `n·ratio` distinct values in the shared
/// key column `B`.  Keys are drawn from a fixed-seed LCG rather than
/// assigned cyclically — a periodic pattern aliases with the engine's
/// evenly-strided ratio sampler and would make the sampled ratio lie about
/// the instance.  The non-key columns stay unique per row, so key
/// duplication is the only skew.
fn calibration_pair(n: usize, ratio: f64) -> (Relation, Relation) {
    let schema = hypergraph::Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]])
        .expect("calibration schema");
    let mut db = Database::empty(schema);
    let k = ((n as f64 * ratio).round() as i64).max(2);
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15 ^ (n as u64);
    let mut next_key = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as i64).rem_euclid(k)
    };
    for i in 0..n as i64 {
        db.insert_values(EdgeId(0), [i, next_key()]);
        db.insert_values(EdgeId(1), [next_key(), i]);
    }
    let r0 = db.relations()[0].clone();
    let r1 = db.relations()[1].clone();
    (r0, r1)
}

/// The nanoseconds of the best of three [`measure`] calls — the standard
/// minimum-of-repeats noise filter, which matters on shared single-CPU
/// runners where any one timing can absorb a scheduling hiccup.
fn measure_min<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..3)
        .map(|_| measure(&mut f).1)
        .fold(f64::INFINITY, f64::min)
}

/// `hyperq bench --calibrate`: sweeps the two-relation workload of
/// [`calibration_pair`] across distinct-key counts and relation sizes,
/// timing the hash and sort-merge kernels separately for joins and for
/// semijoins (their cost structures differ: a join materializes output rows
/// where a semijoin only flags survivors), and reports the measured
/// crossover next to the shipped [`JoinStrategy::Auto`] defaults.
///
/// The `sampled` column is the engine's own distinct-key-ratio estimate
/// (distinct keys among ≤128 evenly spaced rows, over the sample size) —
/// the quantity the Auto planner actually compares against its threshold,
/// so crossovers are reported in *sampled* units, not in the true `k/n` the
/// sweep dialed in.
pub fn calibrate(profile: Profile) -> String {
    let sizes: &[usize] = match profile {
        Profile::Full | Profile::Scale => &[1000, 4000],
        Profile::Quick => &[1000],
        Profile::Tiny => &[200],
    };
    let ratios = [0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.50, 1.0];
    let hash_policy = ExecPolicy::sequential(JoinStrategy::Hash);
    let hash_ctx = ExecCtx::new(&hash_policy);
    let mut out = String::new();
    out.push_str("calibration sweep: R0(A,B) join/semijoin R1(B,C), best-of-3 timings\n");
    out.push_str(&format!(
        "{:<9} {:>6} {:>8} {:>9} {:>12} {:>12}  {}\n",
        "op", "rows", "ratio", "sampled", "hash_ns", "merge_ns", "winner"
    ));
    let mut summaries = Vec::new();
    for op in ["join", "semijoin"] {
        // Per size: the largest sampled ratio where sort-merge won and the
        // smallest where hash won — the crossover lies between them.
        let mut merge_best: Option<f64> = None;
        let mut hash_best: Option<f64> = None;
        for &n in sizes {
            for &r in &ratios {
                let (r0, r1) = calibration_pair(n, r);
                let sink = CollectingSink::new();
                let (hash_ns, merge_ns, sampled) = if op == "join" {
                    hash_ctx
                        .metrics(&sink)
                        .join(&r0, &r1)
                        .expect("no governor to abort");
                    (
                        measure_min(|| r0.join_with(&r1, JoinStrategy::Hash)),
                        measure_min(|| r0.join_with(&r1, JoinStrategy::SortMerge)),
                        sink.snapshot().joins.ratio_mean(),
                    )
                } else {
                    let mut probe = r0.clone();
                    hash_ctx
                        .metrics(&sink)
                        .retain_semijoin(&mut probe, &r1)
                        .expect("no governor to abort");
                    (
                        measure_min(|| r0.semijoin_with(&r1, JoinStrategy::Hash)),
                        measure_min(|| r0.semijoin_with(&r1, JoinStrategy::SortMerge)),
                        sink.snapshot().semijoins.ratio_mean(),
                    )
                };
                let s = sampled.unwrap_or(1.0);
                if merge_ns <= hash_ns {
                    merge_best = Some(merge_best.map_or(s, |m: f64| m.max(s)));
                } else {
                    hash_best = Some(hash_best.map_or(s, |m: f64| m.min(s)));
                }
                out.push_str(&format!(
                    "{:<9} {:>6} {:>8.3} {:>9.4} {:>12.0} {:>12.0}  {}\n",
                    op,
                    n,
                    r,
                    s,
                    hash_ns,
                    merge_ns,
                    if merge_ns <= hash_ns {
                        "sort-merge"
                    } else {
                        "hash"
                    },
                ));
            }
        }
        summaries.push((op, merge_best, hash_best));
    }
    for (op, merge_best, hash_best) in summaries {
        let shipped = if op == "join" {
            AUTO_JOIN_SORTMERGE_MAX_DISTINCT_RATIO
        } else {
            AUTO_SEMIJOIN_SORTMERGE_MAX_DISTINCT_RATIO
        };
        let span = match (merge_best, hash_best) {
            (Some(m), Some(h)) => {
                format!("sort-merge won up to sampled {m:.4}, hash from sampled {h:.4}")
            }
            (Some(m), None) => format!("sort-merge won everywhere swept (up to sampled {m:.4})"),
            (None, Some(h)) => format!("hash won everywhere swept (down to sampled {h:.4})"),
            (None, None) => "no cells measured".to_owned(),
        };
        out.push_str(&format!(
            "measured crossover, {op}: {span} (shipped Auto default {shipped})\n",
        ));
    }
    out
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
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"created_unix\": {created},\n"));
    out.push_str("  \"results\": [\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Compares measured columnar `full_reduce` and `yannakakis_join` records
/// against a baseline document (the format written by [`to_json`]).
/// Returns a summary, or an error naming every regression beyond
/// `max_regression`.
pub fn check_baseline(
    records: &[BenchRecord],
    baseline: &str,
    max_regression: f64,
) -> Result<String, String> {
    let doc = json::parse(baseline).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    // (op, engine, workload, size) → ns_per_iter; rows without all five
    // members (other documents' rows, say) are not baseline records.
    let base: HashMap<(&str, &str, &str, u64), f64> = doc
        .get("results")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|row| {
            let text = |key| row.get(key).and_then(Json::as_str);
            let size = row.get("size")?.as_u64()?;
            let key = (text("op")?, text("engine")?, text("workload")?, size);
            Some((key, row.get("ns_per_iter")?.as_i64()? as f64))
        })
        .collect();
    let mut compared = 0usize;
    let mut failures = Vec::new();
    let mut out = String::new();
    for r in records {
        // Guard the sequential hash engine and the parallel (pool-leased)
        // engine alike, on the reducer, the full join pipeline, *and* the
        // cyclic decomposition pipeline: a regression in any of them is a
        // regression in a production path.  The scale rows join the guard
        // too — the morsel-parallel engine, and both sides of the
        // snapshot-vs-text load shoot-out (a snapshot decoder that slows
        // toward text-parse speed has lost its reason to exist).
        let guarded = matches!(
            (r.op.as_str(), r.engine.as_str()),
            (
                "full_reduce" | "yannakakis_join",
                "columnar" | "columnar-parallel" | "columnar-governed" | "columnar-morsel"
            ) | (
                "cyclic_join",
                "columnar-decomp" | "columnar-decomp-parallel"
            ) | ("data_load", "snapshot-load" | "text-parse")
        );
        if !guarded {
            continue;
        }
        let key = (
            r.op.as_str(),
            r.engine.as_str(),
            r.workload.as_str(),
            r.size as u64,
        );
        let Some(&base_ns) = base.get(&key) else {
            // A measured record the baseline does not cover must not
            // silently narrow the guard.
            failures.push(format!(
                "{}/{}/{} size {} has no baseline record",
                r.op, r.engine, r.workload, r.size
            ));
            continue;
        };
        compared += 1;
        let ratio = r.ns_per_iter / base_ns;
        out.push_str(&format!(
            "check {}/{}/{} size {}: {:.0} ns vs baseline {:.0} ns ({}{:.2}x)\n",
            r.op,
            r.engine,
            r.workload,
            r.size,
            r.ns_per_iter,
            base_ns,
            if ratio >= 1.0 { "+" } else { "" },
            ratio,
        ));
        if ratio > max_regression {
            failures.push(format!(
                "{}/{}/{} size {} regressed {ratio:.2}x (limit {max_regression:.2}x)",
                r.op, r.engine, r.workload, r.size
            ));
        }
    }
    if compared == 0 {
        return Err(
            "baseline contains no matching columnar full_reduce/yannakakis_join/cyclic_join records"
                .to_owned(),
        );
    }
    if !failures.is_empty() {
        return Err(format!("bench regression: {}", failures.join("; ")));
    }
    out.push_str(&format!(
        "baseline check passed: {compared} records within {max_regression:.2}x\n"
    ));
    Ok(out)
}

/// A human-readable summary table of the records: every engine row, with
/// the speedup over the sequential columnar hash engine where both were
/// measured (reference rows show their slowdown the same way).
pub fn summary(records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:<19} {:<13} {:>6} {:>8} {:>14} {:>12}\n",
        "op", "engine", "workload", "size", "units", "ns_per_iter", "vs_columnar"
    ));
    for r in records {
        let baseline = records.iter().find(|b| {
            b.engine == "columnar" && b.op == r.op && b.workload == r.workload && b.size == r.size
        });
        let vs = match baseline {
            Some(b) if r.engine != "columnar" => format!("{:.2}x", b.ns_per_iter / r.ns_per_iter),
            _ => "-".to_owned(),
        };
        out.push_str(&format!(
            "{:<16} {:<19} {:<13} {:>6} {:>8} {:>14.0} {:>12}\n",
            r.op, r.engine, r.workload, r.size, r.units, r.ns_per_iter, vs,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(op: &str, engine: &str, workload: &str, size: usize, ns: f64) -> BenchRecord {
        BenchRecord {
            op: op.into(),
            engine: engine.into(),
            workload: workload.into(),
            size,
            units: 100,
            iters: 3,
            ns_per_iter: ns,
            metrics: None,
        }
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
        // One record per line, so the checked-in documents diff by row.
        assert_eq!(document.lines().filter(|l| l.contains("\"op\"")).count(), 2);
        let rows = rows(&document);
        let [metered, bare] = &rows[..] else {
            panic!("two rows in: {document}");
        };
        assert_eq!(metered.get("probed"), Some(&Json::Int(500)));
        assert_eq!(metered.get("kept"), Some(&Json::Int(400)));
        assert_eq!(metered.get("semijoin_ops"), Some(&Json::Int(10)));
        // Identity and timing sit beside the metrics.
        assert_eq!(metered.get("op"), Some(&Json::str("full_reduce")));
        assert_eq!(metered.get("size"), Some(&Json::Int(200)));
        assert_eq!(metered.get("ns_per_iter"), Some(&Json::Int(1000)));
        // A metric-less record emits no metrics keys at all.
        assert_eq!(bare.get("probed"), None, "bare: {bare}");
    }

    #[test]
    fn baseline_check_tolerates_old_format_baselines() {
        // Pre-metrics BENCH_baseline.json records carry no probed/kept/
        // join_ops/semijoin_ops fields; the check only reads the identity
        // and timing fields, so new-format measurements must still compare
        // cleanly against them.
        let old_baseline = to_json(&[record("full_reduce", "columnar", "chain-6", 200, 1000.0)]);
        assert!(!old_baseline.contains("probed"));
        let mut measured = record("full_reduce", "columnar", "chain-6", 200, 1100.0);
        measured.metrics = Some(RowMetrics {
            probed: 123,
            kept: 45,
            join_ops: 6,
            semijoin_ops: 7,
        });
        let report = check_baseline(&[measured], &old_baseline, 2.0).unwrap();
        assert!(
            report.contains("baseline check passed: 1 records"),
            "report: {report}"
        );
    }

    #[test]
    fn engine_policies_include_the_auto_pair() {
        let engines: Vec<&str> = engine_policies(2).into_iter().map(|(e, _)| e).collect();
        assert!(engines.contains(&"columnar-auto"));
    }

    #[test]
    fn calibration_sweep_reports_both_operators() {
        let report = calibrate(Profile::Tiny);
        assert!(
            report.contains("measured crossover, join:"),
            "report: {report}"
        );
        assert!(
            report.contains("measured crossover, semijoin:"),
            "report: {report}"
        );
        // The engine's own sampled ratio confirms the sweep's skew knob: at
        // least one row must carry a sampled value, none a placeholder only.
        assert!(report.contains("0.0"), "sampled ratios shown: {report}");
        // Tiny sweeps one size over eight ratios per operator.
        let rows = |op: &str| {
            report
                .lines()
                .filter(|l| l.starts_with(&format!("{op} ")))
                .count()
        };
        assert_eq!(rows("join"), 8, "join rows: {report}");
        assert_eq!(rows("semijoin"), 8, "semijoin rows: {report}");
    }

    #[test]
    fn baseline_check_passes_and_fails_on_ratio() {
        let baseline = to_json(&[record("full_reduce", "columnar", "chain-6", 200, 1000.0)]);
        let ok = vec![record("full_reduce", "columnar", "chain-6", 200, 1500.0)];
        assert!(check_baseline(&ok, &baseline, 2.0).is_ok());
        let slow = vec![record("full_reduce", "columnar", "chain-6", 200, 2500.0)];
        let err = check_baseline(&slow, &baseline, 2.0).unwrap_err();
        assert!(err.contains("regressed"));
        // Records missing from the baseline are an error, not a silent pass.
        let other = vec![record("full_reduce", "columnar", "star-6", 200, 10.0)];
        assert!(check_baseline(&other, &baseline, 2.0).is_err());
    }

    #[test]
    fn summary_pairs_engines() {
        let records = vec![
            record("full_reduce", "columnar", "chain-6", 200, 1000.0),
            record("full_reduce", "reference", "chain-6", 200, 9000.0),
            record("full_reduce", "columnar-parallel", "chain-6", 200, 500.0),
        ];
        let s = summary(&records);
        assert!(s.contains("0.11x"), "reference slowdown shown: {s}");
        assert!(s.contains("2.00x"), "parallel speedup shown: {s}");
    }

    #[test]
    fn baseline_check_covers_parallel_engine() {
        let baseline = to_json(&[
            record("full_reduce", "columnar", "chain-6", 200, 1000.0),
            record("full_reduce", "columnar-parallel", "chain-6", 200, 1000.0),
        ]);
        let ok = vec![
            record("full_reduce", "columnar", "chain-6", 200, 900.0),
            record("full_reduce", "columnar-parallel", "chain-6", 200, 1100.0),
        ];
        assert!(check_baseline(&ok, &baseline, 2.0).is_ok());
        let slow_par = vec![
            record("full_reduce", "columnar", "chain-6", 200, 900.0),
            record("full_reduce", "columnar-parallel", "chain-6", 200, 5000.0),
        ];
        let err = check_baseline(&slow_par, &baseline, 2.0).unwrap_err();
        assert!(err.contains("columnar-parallel"), "err: {err}");
        // A parallel row missing from the baseline is flagged, not skipped.
        let unknown = vec![record(
            "full_reduce",
            "columnar-parallel",
            "star-6",
            200,
            10.0,
        )];
        assert!(check_baseline(&unknown, &baseline, 2.0).is_err());
    }

    #[test]
    fn baseline_check_covers_yannakakis_join() {
        let baseline = to_json(&[
            record("full_reduce", "columnar", "chain-6", 200, 1000.0),
            record("yannakakis_join", "columnar", "chain-6", 200, 1000.0),
            record(
                "yannakakis_join",
                "columnar-parallel",
                "chain-6",
                200,
                1000.0,
            ),
        ]);
        let ok = vec![
            record("full_reduce", "columnar", "chain-6", 200, 900.0),
            record("yannakakis_join", "columnar", "chain-6", 200, 1100.0),
            record(
                "yannakakis_join",
                "columnar-parallel",
                "chain-6",
                200,
                1200.0,
            ),
        ];
        assert!(check_baseline(&ok, &baseline, 2.0).is_ok());
        // A regressed join pipeline trips the guard even when the reducer
        // is fine.
        let slow_join = vec![
            record("full_reduce", "columnar", "chain-6", 200, 900.0),
            record("yannakakis_join", "columnar", "chain-6", 200, 5000.0),
        ];
        let err = check_baseline(&slow_join, &baseline, 2.0).unwrap_err();
        assert!(err.contains("yannakakis_join"), "err: {err}");
        // The strategy-comparison rows are informational, not guarded.
        let unguarded = vec![
            record("full_reduce", "columnar", "chain-6", 200, 900.0),
            record("yannakakis_join", "columnar-sortmerge", "chain-6", 200, 1e9),
        ];
        assert!(check_baseline(&unguarded, &baseline, 2.0).is_ok());
    }

    #[test]
    fn baseline_check_covers_cyclic_join() {
        let baseline = to_json(&[
            record("cyclic_join", "columnar-decomp", "ring-8", 200, 1000.0),
            record(
                "cyclic_join",
                "columnar-decomp-parallel",
                "ring-8",
                200,
                1000.0,
            ),
        ]);
        let ok = vec![
            record("cyclic_join", "columnar-decomp", "ring-8", 200, 1100.0),
            record(
                "cyclic_join",
                "columnar-decomp-parallel",
                "ring-8",
                200,
                900.0,
            ),
        ];
        assert!(check_baseline(&ok, &baseline, 2.0).is_ok());
        // A regressed cyclic pipeline trips the guard.
        let slow = vec![record(
            "cyclic_join",
            "columnar-decomp",
            "ring-8",
            200,
            5000.0,
        )];
        let err = check_baseline(&slow, &baseline, 2.0).unwrap_err();
        assert!(err.contains("cyclic_join"), "err: {err}");
        // A cyclic row missing from the baseline is flagged, not skipped.
        let unknown = vec![record(
            "cyclic_join",
            "columnar-decomp",
            "clique-5",
            200,
            10.0,
        )];
        assert!(check_baseline(&unknown, &baseline, 2.0).is_err());
        // The naive cyclic baseline rows are informational, not guarded.
        let naive_only = vec![
            record("cyclic_join", "columnar-decomp", "ring-8", 200, 1000.0),
            record("cyclic_join", "naive", "ring-8", 200, 1e9),
        ];
        assert!(check_baseline(&naive_only, &baseline, 2.0).is_ok());
    }

    #[test]
    fn baseline_check_covers_the_scale_rows() {
        let baseline = to_json(&[
            record(
                "data_load",
                "snapshot-load",
                "scale-chain-3",
                1_000_000,
                1e8,
            ),
            record("data_load", "text-parse", "scale-chain-3", 1_000_000, 4e9),
            record(
                "full_reduce",
                "columnar-morsel",
                "scale-chain-3",
                1_000_000,
                1e9,
            ),
        ]);
        let ok = vec![
            record(
                "data_load",
                "snapshot-load",
                "scale-chain-3",
                1_000_000,
                9e7,
            ),
            record("data_load", "text-parse", "scale-chain-3", 1_000_000, 4e9),
            record(
                "full_reduce",
                "columnar-morsel",
                "scale-chain-3",
                1_000_000,
                1.1e9,
            ),
        ];
        assert!(check_baseline(&ok, &baseline, 2.0).is_ok());
        // A snapshot decoder drifting toward text-parse speed trips the
        // guard like any other regression.
        let slow_load = vec![record(
            "data_load",
            "snapshot-load",
            "scale-chain-3",
            1_000_000,
            3e8,
        )];
        let err = check_baseline(&slow_load, &baseline, 2.0).unwrap_err();
        assert!(err.contains("snapshot-load"), "err: {err}");
        // So does the morsel-parallel engine.
        let slow_morsel = vec![record(
            "full_reduce",
            "columnar-morsel",
            "scale-chain-3",
            1_000_000,
            5e9,
        )];
        let err = check_baseline(&slow_morsel, &baseline, 2.0).unwrap_err();
        assert!(err.contains("columnar-morsel"), "err: {err}");
        // A scale row missing from the baseline is flagged, not skipped.
        let unknown = vec![record(
            "yannakakis_join",
            "columnar-morsel",
            "scale-chain-3",
            1_000_000,
            10.0,
        )];
        assert!(check_baseline(&unknown, &baseline, 2.0).is_err());
    }

    #[test]
    fn baseline_check_reads_any_json_layout() {
        // The committed baseline, as checked in (a space after every colon
        // and comma) and re-serialized compactly: the same lookup.
        let committed = include_str!("../../../BENCH_baseline.json");
        let compact = json::parse(committed).unwrap().to_string();
        assert!(!compact.contains("\": "), "compact: {compact}");
        let measured = [
            record("full_reduce", "columnar", "chain-6", 200, 1.0),
            record("cyclic_join", "columnar-decomp", "ring-8", 200, 1.0),
        ];
        for baseline in [committed, compact.as_str()] {
            let report = check_baseline(&measured, baseline, 2.0).unwrap();
            assert!(report.contains("passed: 2 records"), "report: {report}");
        }
        // Text that is not a JSON document is an error, not an empty baseline.
        let err = check_baseline(&measured, r#"{"results": ["#, 2.0).unwrap_err();
        assert!(err.contains("not valid JSON"), "err: {err}");
    }

    #[test]
    fn cyclic_records_cover_the_decomposition_pipeline() {
        let mut records = Vec::new();
        cyclic_records(Profile::Tiny, 2, &mut records);
        for workload in ["ring-8", "hyper-ring-5x3", "clique-5"] {
            assert!(
                records
                    .iter()
                    .any(|r| r.workload == workload && r.op == "decompose"),
                "missing decompose row for {workload}"
            );
            for engine in ["columnar-decomp", "columnar-decomp-parallel", "naive"] {
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
