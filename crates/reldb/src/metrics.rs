//! Zero-cost-when-off metrics through the execution engine.
//!
//! Every planning decision in the engine — notably the [`JoinStrategy::Auto`]
//! distinct-key-ratio crossover — needs *measured* evidence to be anything
//! better than a guess.  This module supplies the evidence channel: a
//! [`MetricsSink`] trait threaded generically through the relation kernels,
//! the Yannakakis reducer/join, bag materialization and the worker pool.
//! A pipeline's one entry point takes the sink inside its
//! [`ExecCtx`](crate::ExecCtx) (`ExecCtx::new(&policy).metrics(&sink)`) and
//! is monomorphized per sink type, so the default [`NoopMetrics`] sink
//! compiles to *nothing*: its recording methods are empty `#[inline]` bodies
//! the optimizer erases, and everything with a runtime cost of its own
//! (wall-clock reads, ratio sampling that `Auto` would not already do) is
//! gated on the compile-time constant [`MetricsSink::ENABLED`].  The plain
//! wrappers ([`full_reduce`](crate::full_reduce()), [`Relation::join`]…) are
//! that same entry point under the all-no-op context — there is one engine,
//! not two.
//!
//! # What is measured
//!
//! | Signal | Recorded by | Report field |
//! |---|---|---|
//! | per-op counters: tuples probed / kept / built, build-side rows, resolved kernel, sampled distinct-key ratio | join/semijoin kernels ([`OpMetrics`]) | [`QueryMetrics::joins`], [`QueryMetrics::semijoins`] |
//! | per-level wall timings (reducer passes, bottom-up join, bag materialization) | the level-synchronous drivers | [`QueryMetrics::levels`] |
//! | bag materialization sizes | [`materialize_bags`](crate::materialize_bags) | [`QueryMetrics::bags`] |
//! | pool lease / occupancy | lease acquisition | [`QueryMetrics::leases`] |
//! | dedup-index rebuilds saved by deferral | the reducer | [`QueryMetrics::index_rebuilds`] |
//! | min-fill vs. min-degree decomposition widths | [`yannakakis_join_any`](crate::yannakakis_join_any) | [`QueryMetrics::widths`] |
//!
//! # Collecting
//!
//! [`CollectingSink`] aggregates everything into a [`QueryMetrics`] report
//! (shareable across the pool's worker threads — recording happens at
//! operation granularity, never per tuple, so a mutex is plenty).  The
//! report is a plain struct; this crate renders it only as a human table
//! ([`QueryMetrics::render_table`], behind `hyperq query --metrics`).  Its
//! JSON document — `--metrics-json`, the `metrics` member of a served
//! answer — is written by `hyperqd::protocol::metrics_json`, where every
//! other wire rendering lives.
//!
//! [`JoinStrategy::Auto`]: crate::JoinStrategy::Auto
//! [`Relation::join`]: crate::Relation::join

use std::sync::{Arc, Mutex};

/// Which logical operator an [`OpMetrics`] record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A binary natural join.
    Join,
    /// A semijoin (mask computation), including the in-place reducer form.
    Semijoin,
}

/// Which physical kernel an operator resolved to (the [`Auto`] planner's
/// *output*, where [`crate::JoinStrategy`] is its input).
///
/// [`Auto`]: crate::JoinStrategy::Auto
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Hash build + probe.
    Hash,
    /// Sorted row-id permutations + merge.
    SortMerge,
    /// Direct-address bitset over the packed handle key space — `Auto`
    /// semijoins whose key space fits; see
    /// [`Relation::retain_semijoin_with`](crate::Relation::retain_semijoin_with).
    Dense,
}

impl Kernel {
    /// The JSON/table spelling.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Hash => "hash",
            Kernel::SortMerge => "sort-merge",
            Kernel::Dense => "dense",
        }
    }
}

/// One join or semijoin operation's counters, recorded by the kernel that
/// executed it.
#[derive(Debug, Clone, Copy)]
pub struct OpMetrics {
    /// Join or semijoin.
    pub kind: OpKind,
    /// The physical kernel that ran (post-`Auto` resolution).
    pub kernel: Kernel,
    /// Rows scanned on the probe side (the relation being filtered, for a
    /// semijoin; the larger side, for a hash join).
    pub probed: u64,
    /// Rows surviving: output cardinality for a join, surviving rows for a
    /// semijoin.
    pub kept: u64,
    /// Entries added to the build-side structure: distinct keys for a hash
    /// table or a dense bitset, sorted permutation entries for sort-merge.
    pub built: u64,
    /// Build-side input rows.
    pub build_rows: u64,
    /// The sampled distinct-key ratio of the strategy-deciding side, when it
    /// was sampled (always when [`Auto`] chose between hash and sort-merge
    /// by it; under a pinned strategy, and for semijoins the dense kernel
    /// took, only when the sink is enabled, so the no-op path never pays for
    /// sampling).
    ///
    /// [`Auto`]: crate::JoinStrategy::Auto
    pub distinct_ratio: Option<f64>,
}

/// Which level-synchronous phase a [`LevelTiming`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Reducer upward pass (parent ⋉ children, deepest level first).
    ReduceUp,
    /// Reducer downward pass (child ⋉ parent, top-down).
    ReduceDown,
    /// Bottom-up join along the tree.
    Join,
    /// Bag materialization of a hypertree decomposition.
    Materialize,
}

impl Phase {
    /// The JSON/table spelling.
    pub fn label(self) -> &'static str {
        match self {
            Phase::ReduceUp => "reduce-up",
            Phase::ReduceDown => "reduce-down",
            Phase::Join => "join",
            Phase::Materialize => "materialize",
        }
    }
}

/// The metrics sink threaded through every engine layer.
///
/// Implementations must be cheaply cloneable (jobs handed to pool workers
/// carry their own handle) and record at *operation* granularity — kernels
/// accumulate per-tuple counts locally and report once per op, so a sink is
/// never invoked inside a probe loop.
///
/// All recording methods default to empty bodies; [`ENABLED`] is the
/// compile-time switch the engine consults before doing work that only
/// exists to be recorded (reading clocks, sampling ratios a pinned strategy
/// would not sample).  See the module docs for the zero-cost argument.
///
/// [`ENABLED`]: MetricsSink::ENABLED
pub trait MetricsSink: Clone + Send + Sync + 'static {
    /// Whether this sink records anything.  `false` lets the engine skip
    /// metric-only work entirely at compile time.
    const ENABLED: bool;

    /// One join/semijoin operation completed.
    #[inline]
    fn record_op(&self, _op: OpMetrics) {}

    /// One level of a level-synchronous phase completed in `_nanos`
    /// wall-clock nanoseconds, running `_jobs` jobs.
    #[inline]
    fn record_level(&self, _phase: Phase, _level: usize, _jobs: usize, _nanos: u64) {}

    /// A decomposition bag materialized with `_rows` tuples.
    #[inline]
    fn record_bag(&self, _name: &str, _rows: u64) {}

    /// A worker lease was acquired: `_threads` workers serving the call,
    /// `_idle` workers left parked in the shared pool.
    #[inline]
    fn record_lease(&self, _threads: usize, _idle: usize) {}

    /// The reducer triggered `_n` deferred dedup-index rebuilds.
    #[inline]
    fn record_index_rebuilds(&self, _n: u64) {}

    /// Both decomposition heuristics ran; their widths and the winner.
    #[inline]
    fn record_widths(&self, _min_fill: usize, _min_degree: usize, _chosen: &'static str) {}

    /// The schema-keyed decomposition cache answered a lookup (`_hit` says
    /// whether the elimination runs were skipped).
    #[inline]
    fn record_decomp_cache(&self, _hit: bool) {}
}

/// The default sink: records nothing, costs nothing — what
/// [`ExecCtx::new`](crate::ExecCtx::new) starts with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopMetrics;

impl MetricsSink for NoopMetrics {
    const ENABLED: bool = false;
}

/// Aggregated counters for one operator kind (joins or semijoins).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpAgg {
    /// Operations recorded.
    pub ops: u64,
    /// Operations resolved to the hash kernel.
    pub hash_ops: u64,
    /// Operations resolved to the sort-merge kernel.
    pub sortmerge_ops: u64,
    /// Operations resolved to the dense (direct-address bitset) kernel.
    pub dense_ops: u64,
    /// Total rows probed.
    pub probed: u64,
    /// Total rows kept (output rows for joins, survivors for semijoins).
    pub kept: u64,
    /// Total build-side structure entries.
    pub built: u64,
    /// Total build-side input rows.
    pub build_rows: u64,
    /// How many ops carried a sampled distinct-key ratio.
    pub ratio_samples: u64,
    /// Sum of sampled ratios (mean = `ratio_sum / ratio_samples`).
    pub ratio_sum: f64,
    /// Smallest sampled ratio.
    pub ratio_min: f64,
    /// Largest sampled ratio.
    pub ratio_max: f64,
}

impl OpAgg {
    fn add(&mut self, op: &OpMetrics) {
        self.ops += 1;
        match op.kernel {
            Kernel::Hash => self.hash_ops += 1,
            Kernel::SortMerge => self.sortmerge_ops += 1,
            Kernel::Dense => self.dense_ops += 1,
        }
        self.probed += op.probed;
        self.kept += op.kept;
        self.built += op.built;
        self.build_rows += op.build_rows;
        if let Some(r) = op.distinct_ratio {
            if self.ratio_samples == 0 {
                self.ratio_min = r;
                self.ratio_max = r;
            } else {
                self.ratio_min = self.ratio_min.min(r);
                self.ratio_max = self.ratio_max.max(r);
            }
            self.ratio_samples += 1;
            self.ratio_sum += r;
        }
    }

    /// Mean sampled distinct-key ratio, if any op was sampled.
    pub fn ratio_mean(&self) -> Option<f64> {
        (self.ratio_samples > 0).then(|| self.ratio_sum / self.ratio_samples as f64)
    }
}

/// One recorded level timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelTiming {
    /// The phase the level belongs to.
    pub phase: Phase,
    /// Level index within the phase (reducer passes count tree depths; bag
    /// materialization records a single level `0`).
    pub level: usize,
    /// Jobs the level ran.
    pub jobs: usize,
    /// Wall-clock nanoseconds the level took.
    pub nanos: u64,
}

/// One materialized decomposition bag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BagStat {
    /// The bag relation's name (its bag label).
    pub name: String,
    /// Materialized tuple count.
    pub rows: u64,
}

/// One worker-pool lease acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseStat {
    /// Workers serving the leasing call (`1` = inline/sequential).
    pub threads: usize,
    /// Workers left idle in the shared pool after the lease.
    pub idle: usize,
}

/// Widths measured by running both decomposition heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidthReport {
    /// Width of the min-fill decomposition.
    pub min_fill: usize,
    /// Width of the min-degree decomposition.
    pub min_degree: usize,
    /// Which heuristic's decomposition was used (`"min-fill"` or
    /// `"min-degree"`).
    pub chosen: &'static str,
}

/// Everything one metered query execution recorded — the report behind
/// `hyperq query --metrics` and the per-row metrics in `hyperq bench` JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryMetrics {
    /// Aggregated join counters.
    pub joins: OpAgg,
    /// Aggregated semijoin counters.
    pub semijoins: OpAgg,
    /// Per-level wall timings, in recording order.
    pub levels: Vec<LevelTiming>,
    /// Materialized bag sizes (cyclic pipeline only).
    pub bags: Vec<BagStat>,
    /// Worker-pool lease acquisitions.
    pub leases: Vec<LeaseStat>,
    /// Deferred dedup-index rebuilds the reduced relations actually paid.
    pub index_rebuilds: u64,
    /// Decomposition widths, when the cyclic pipeline ran both heuristics.
    pub widths: Option<WidthReport>,
    /// Schema-keyed decomposition cache hits (elimination runs skipped).
    pub decomp_cache_hits: u64,
    /// Schema-keyed decomposition cache misses (both heuristics ran).
    pub decomp_cache_misses: u64,
}

impl QueryMetrics {
    /// Total rows probed across joins and semijoins.
    pub fn total_probed(&self) -> u64 {
        self.joins.probed + self.semijoins.probed
    }

    /// Total rows kept across joins and semijoins.
    pub fn total_kept(&self) -> u64 {
        self.joins.kept + self.semijoins.kept
    }

    /// Renders the report as a human-readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>5} {:>6} {:>6} {:>6} {:>12} {:>12} {:>12} {:>12} {:>10}\n",
            "op", "ops", "hash", "merge", "dense", "probed", "kept", "built", "build_rows", "ratio"
        ));
        for (name, agg) in [("join", &self.joins), ("semijoin", &self.semijoins)] {
            let ratio = agg
                .ratio_mean()
                .map_or("-".to_owned(), |m| format!("{m:.4}"));
            out.push_str(&format!(
                "{:<10} {:>5} {:>6} {:>6} {:>6} {:>12} {:>12} {:>12} {:>12} {:>10}\n",
                name,
                agg.ops,
                agg.hash_ops,
                agg.sortmerge_ops,
                agg.dense_ops,
                agg.probed,
                agg.kept,
                agg.built,
                agg.build_rows,
                ratio,
            ));
        }
        if !self.levels.is_empty() {
            out.push_str("levels:\n");
            for l in &self.levels {
                out.push_str(&format!(
                    "  {:<12} level {:<3} {:>3} jobs {:>12} ns\n",
                    l.phase.label(),
                    l.level,
                    l.jobs,
                    l.nanos
                ));
            }
        }
        if !self.bags.is_empty() {
            out.push_str("bags:\n");
            for b in &self.bags {
                out.push_str(&format!("  {:<24} {:>10} rows\n", b.name, b.rows));
            }
        }
        if !self.leases.is_empty() {
            out.push_str("pool leases:\n");
            for l in &self.leases {
                out.push_str(&format!(
                    "  {} worker(s), {} idle in pool\n",
                    l.threads, l.idle
                ));
            }
        }
        out.push_str(&format!("index rebuilds: {}\n", self.index_rebuilds));
        if self.decomp_cache_hits + self.decomp_cache_misses > 0 {
            out.push_str(&format!(
                "decomposition cache: {} hit(s), {} miss(es)\n",
                self.decomp_cache_hits, self.decomp_cache_misses
            ));
        }
        if let Some(w) = &self.widths {
            out.push_str(&format!(
                "decomposition widths: min-fill {} / min-degree {} (chosen: {})\n",
                w.min_fill, w.min_degree, w.chosen
            ));
        }
        out
    }
}

/// A sink that aggregates everything into a [`QueryMetrics`] report.
///
/// Cloning shares the underlying report (handles ride into pool-worker
/// jobs); recording locks a mutex per *operation* — never per tuple — so
/// contention is negligible next to the work being measured.
///
/// # Examples
///
/// ```
/// use reldb::metrics::{CollectingSink, MetricsSink};
/// use reldb::{Database, ExecCtx, ExecPolicy, Tuple};
/// use hypergraph::{EdgeId, Hypergraph};
/// use acyclic::join_tree;
///
/// let schema = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap();
/// let (a, b, c) = (
///     schema.node("A").unwrap(),
///     schema.node("B").unwrap(),
///     schema.node("C").unwrap(),
/// );
/// let mut db = Database::empty(schema);
/// db.insert(EdgeId(0), Tuple::from_pairs([(a, 1), (b, 2)]));
/// db.insert(EdgeId(1), Tuple::from_pairs([(b, 2), (c, 3)]));
/// db.insert(EdgeId(1), Tuple::from_pairs([(b, 9), (c, 9)])); // dangling
///
/// let tree = join_tree(db.schema()).unwrap();
/// let sink = CollectingSink::new();
/// let policy = ExecPolicy::default();
/// let reduced = ExecCtx::new(&policy).metrics(&sink).full_reduce(&db, &tree).unwrap();
/// let report = sink.snapshot();
/// assert_eq!(reduced.total_removed(), 1);
/// assert!(report.semijoins.ops > 0);
/// assert!(report.semijoins.probed >= report.semijoins.kept);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CollectingSink {
    inner: Arc<Mutex<QueryMetrics>>,
}

impl CollectingSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> QueryMetrics {
        self.inner.lock().expect("metrics lock").clone()
    }

    fn with(&self, f: impl FnOnce(&mut QueryMetrics)) {
        f(&mut self.inner.lock().expect("metrics lock"));
    }
}

impl MetricsSink for CollectingSink {
    const ENABLED: bool = true;

    fn record_op(&self, op: OpMetrics) {
        self.with(|m| match op.kind {
            OpKind::Join => m.joins.add(&op),
            OpKind::Semijoin => m.semijoins.add(&op),
        });
    }

    fn record_level(&self, phase: Phase, level: usize, jobs: usize, nanos: u64) {
        self.with(|m| {
            m.levels.push(LevelTiming {
                phase,
                level,
                jobs,
                nanos,
            })
        });
    }

    fn record_bag(&self, name: &str, rows: u64) {
        self.with(|m| {
            m.bags.push(BagStat {
                name: name.to_owned(),
                rows,
            })
        });
    }

    fn record_lease(&self, threads: usize, idle: usize) {
        self.with(|m| m.leases.push(LeaseStat { threads, idle }));
    }

    fn record_index_rebuilds(&self, n: u64) {
        self.with(|m| m.index_rebuilds += n);
    }

    fn record_widths(&self, min_fill: usize, min_degree: usize, chosen: &'static str) {
        self.with(|m| {
            m.widths = Some(WidthReport {
                min_fill,
                min_degree,
                chosen,
            })
        });
    }

    fn record_decomp_cache(&self, hit: bool) {
        self.with(|m| {
            if hit {
                m.decomp_cache_hits += 1;
            } else {
                m.decomp_cache_misses += 1;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: OpKind, kernel: Kernel, probed: u64, kept: u64, ratio: Option<f64>) -> OpMetrics {
        OpMetrics {
            kind,
            kernel,
            probed,
            kept,
            built: kept.min(probed),
            build_rows: probed / 2,
            distinct_ratio: ratio,
        }
    }

    #[test]
    fn collecting_sink_aggregates_ops_by_kind_and_kernel() {
        let sink = CollectingSink::new();
        sink.record_op(op(OpKind::Join, Kernel::Hash, 100, 40, Some(0.5)));
        sink.record_op(op(OpKind::Join, Kernel::SortMerge, 50, 10, Some(0.01)));
        sink.record_op(op(OpKind::Semijoin, Kernel::Hash, 30, 30, None));
        sink.record_op(op(OpKind::Semijoin, Kernel::Dense, 20, 5, None));
        let m = sink.snapshot();
        assert_eq!(m.joins.ops, 2);
        assert_eq!(m.joins.hash_ops, 1);
        assert_eq!(m.joins.sortmerge_ops, 1);
        assert_eq!(m.joins.probed, 150);
        assert_eq!(m.joins.kept, 50);
        assert_eq!(m.joins.ratio_samples, 2);
        assert!((m.joins.ratio_min - 0.01).abs() < 1e-12);
        assert!((m.joins.ratio_max - 0.5).abs() < 1e-12);
        assert!((m.joins.ratio_mean().unwrap() - 0.255).abs() < 1e-12);
        assert_eq!(m.semijoins.ops, 2);
        assert_eq!(m.semijoins.hash_ops, 1);
        assert_eq!(m.semijoins.dense_ops, 1);
        assert_eq!(m.semijoins.probed, 50);
        assert_eq!(m.semijoins.ratio_samples, 0);
        assert_eq!(m.semijoins.ratio_mean(), None);
    }

    #[test]
    fn clones_share_the_report() {
        let sink = CollectingSink::new();
        let clone = sink.clone();
        clone.record_index_rebuilds(3);
        clone.record_lease(4, 2);
        assert_eq!(sink.snapshot().index_rebuilds, 3);
        assert_eq!(
            sink.snapshot().leases,
            vec![LeaseStat {
                threads: 4,
                idle: 2
            }]
        );
    }

    #[test]
    fn table_renders_all_sections() {
        let sink = CollectingSink::new();
        sink.record_op(op(OpKind::Join, Kernel::SortMerge, 100, 80, Some(0.02)));
        sink.record_level(Phase::Join, 0, 3, 999);
        sink.record_bag("bag", 5);
        sink.record_lease(2, 1);
        sink.record_widths(2, 2, "min-fill");
        let t = sink.snapshot().render_table();
        for needle in [
            "join",
            "0.0200",
            "levels:",
            "bags:",
            "pool leases:",
            "min-degree 2",
        ] {
            assert!(t.contains(needle), "missing {needle:?} in:\n{t}");
        }
    }
}
