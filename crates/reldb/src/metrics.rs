//! Zero-cost-when-off metrics through the execution engine.
//!
//! What a query did, and where its time went, is *measured* here, not
//! guessed.  This module supplies the evidence channel: a [`MetricsSink`]
//! trait threaded generically through the relation kernels, the Yannakakis
//! reducer/join and bag materialization.
//! A pipeline's one entry point takes the sink inside its
//! [`ExecCtx`](crate::ExecCtx) (`ExecCtx::new().metrics(&sink)`) and
//! is monomorphized per sink type, so the default [`NoopMetrics`] sink
//! compiles to *nothing*: its recording methods are empty `#[inline]` bodies
//! the optimizer erases, and everything with a runtime cost of its own
//! (wall-clock reads) is gated on the compile-time constant
//! [`MetricsSink::ENABLED`].  The plain wrappers
//! ([`full_reduce`](crate::full_reduce()), [`Relation::join`]…) are that
//! same entry point under the all-no-op context — there is one engine, not
//! two.
//!
//! # What is measured
//!
//! | Signal | Recorded by | Report field |
//! |---|---|---|
//! | per-op counters: tuples probed / kept / built, build-side rows, kernel that ran | join/semijoin kernels ([`OpMetrics`]) | [`QueryMetrics::joins`], [`QueryMetrics::semijoins`] |
//! | per-stage wall timings (decompose, bag materialization, each reducer and join level, each engine) | every stage, through [`timed`] | [`QueryMetrics::levels`] |
//! | bag materialization sizes | [`ExecCtx::materialize_bags`](crate::ExecCtx::materialize_bags) | [`QueryMetrics::bags`] |
//! | min-fill vs. min-degree decomposition widths | [`ExecCtx::query_yannakakis`](crate::ExecCtx::query_yannakakis) | [`QueryMetrics::widths`] |
//!
//! # Collecting
//!
//! [`CollectingSink`] aggregates everything into a [`QueryMetrics`] report
//! (recording happens at operation granularity, never per tuple).  The
//! report is a plain struct; this crate renders it only as a human table
//! ([`QueryMetrics::render_table`], behind `hyperq query --metrics`).  Its
//! JSON document — `--metrics-json`, the `metrics` member of a served
//! answer — is written by `hyperqd::protocol::metrics_json`, where every
//! other wire rendering lives.
//!
//! # Timing
//!
//! Counts and clocks go to the same sink.  Every stage of a query — the
//! paper's §7 recipe: decompose and materialize for a cyclic scheme, the
//! reducer's upward and downward passes, the join — runs inside
//! [`timed`], which records one [`LevelTiming`] per stage level into
//! [`QueryMetrics::levels`], in the order the stages finish.  `hyperqd`
//! times its own request parse and answer serialization with the same
//! [`Phase`] vocabulary for the slow-query log.
//!
//! [`Relation::join`]: crate::Relation::join

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which logical operator an [`OpMetrics`] record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A binary natural join.
    Join,
    /// A semijoin (mask computation), including the reducer's in-place form.
    Semijoin,
}

/// Which physical kernel an operator ran: hash for a join, or enumerate
/// for a Yannakakis answer taken from sorted relations; dense or
/// sort-merge, by its key space, for a semijoin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Hash build + probe (joins).
    Hash,
    /// Sorted row-id permutations + merge (semijoins).
    SortMerge,
    /// Direct-address bitset over the packed handle key space — semijoins
    /// whose key space fits; see
    /// [`Relation::semijoin`](crate::Relation::semijoin).
    Dense,
    /// A Yannakakis answer emitted in order without a pairwise join: a
    /// two-attribute answer walked along a path of the join subtree through
    /// per-relation run indexes, or the subtree's whole join by nested loops
    /// over its sorted, reduced relations (see
    /// [`ExecCtx::yannakakis_join`](crate::ExecCtx::yannakakis_join)).
    Enumerate,
}

impl Kernel {}

/// One join or semijoin operation's counters, recorded by the kernel that
/// executed it.
#[derive(Debug, Clone, Copy)]
pub struct OpMetrics {
    /// Join or semijoin.
    pub kind: OpKind,
    /// The physical kernel that ran.
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
}

/// The stage of a query a [`LevelTiming`] belongs to, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Request-frame parsing (server-side).
    Parse,
    /// Reading a cyclic schema's plan from its database: both hypertree
    /// decompositions on the database's first query, a lookup after.
    Decompose,
    /// Bag materialization of a hypertree decomposition.
    Materialize,
    /// Reducer upward pass (parent ⋉ children, deepest level first).
    ReduceUp,
    /// Reducer downward pass (child ⋉ parent, top-down).
    ReduceDown,
    /// Bottom-up join along the tree, or a whole join-only engine.
    Join,
    /// Answer-frame serialization (server-side).
    Serialize,
}

impl Phase {
    /// The JSON/table spelling.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Decompose => "decompose",
            Phase::Materialize => "materialize",
            Phase::ReduceUp => "reduce-up",
            Phase::ReduceDown => "reduce-down",
            Phase::Join => "join",
            Phase::Serialize => "serialize",
        }
    }
}

/// The metrics sink threaded through every engine layer.
///
/// Implementations record at *operation* granularity — kernels accumulate
/// per-tuple counts locally and report once per op, so a sink is never
/// invoked inside a probe loop.
///
/// All recording methods default to empty bodies; [`ENABLED`] is the
/// compile-time switch the engine consults before doing work that only
/// exists to be recorded (reading clocks).  See the module docs for the
/// zero-cost argument.
///
/// [`ENABLED`]: MetricsSink::ENABLED
pub trait MetricsSink {
    /// Whether this sink records anything.  `false` lets the engine skip
    /// metric-only work entirely at compile time.
    const ENABLED: bool;

    /// One join/semijoin operation completed.
    #[inline]
    fn record_op(&self, _op: OpMetrics) {}

    /// One level of a stage completed (or aborted) after `_nanos`
    /// wall-clock nanoseconds.  [`timed`] is the one caller in the engine
    /// but for the [`Phase::Decompose`] entry, which a query records only
    /// once the plan it has read turns out to be a decomposition.
    #[inline]
    fn record_level(&self, _phase: Phase, _level: usize, _nanos: u64) {}

    /// A decomposition bag materialized with `_rows` tuples.
    #[inline]
    fn record_bag(&self, _name: &str, _rows: u64) {}

    /// A cyclic query read its plan: both decomposition heuristics' widths
    /// and the winner.
    #[inline]
    fn record_widths(&self, _min_fill: usize, _min_degree: usize, _chosen: &'static str) {}
}

/// The default sink: records nothing, costs nothing — what
/// [`ExecCtx::new`](crate::ExecCtx::new) starts with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopMetrics;

impl MetricsSink for NoopMetrics {
    const ENABLED: bool = false;
}

/// Runs `f` as level `level` of `phase`, recording its wall clock into
/// `sink`.  The entry is recorded even when `f` returns an error, so a stage
/// that aborts still shows the time it spent.  Under a disabled sink this is
/// `f()`: no clock is read.
#[inline]
pub fn timed<M: MetricsSink, R>(sink: &M, phase: Phase, level: usize, f: impl FnOnce() -> R) -> R {
    if !M::ENABLED {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    sink.record_level(phase, level, t0.elapsed().as_nanos() as u64);
    out
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
    /// Joins answered by enumerating sorted relations.
    pub enumerate_ops: u64,
    /// Total rows probed.
    pub probed: u64,
    /// Total rows kept (output rows for joins, survivors for semijoins).
    pub kept: u64,
    /// Total build-side structure entries.
    pub built: u64,
    /// Total build-side input rows.
    pub build_rows: u64,
}

impl OpAgg {
    fn add(&mut self, op: &OpMetrics) {
        self.ops += 1;
        match op.kernel {
            Kernel::Hash => self.hash_ops += 1,
            Kernel::SortMerge => self.sortmerge_ops += 1,
            Kernel::Dense => self.dense_ops += 1,
            Kernel::Enumerate => self.enumerate_ops += 1,
        }
        self.probed += op.probed;
        self.kept += op.kept;
        self.built += op.built;
        self.build_rows += op.build_rows;
    }
}

/// One recorded level timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelTiming {
    /// The phase the level belongs to.
    pub phase: Phase,
    /// Level index within the phase (reducer passes and the join count tree
    /// depths; every other stage records a single level `0`).
    pub level: usize,
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
    /// Per-stage wall timings, in the order the stages finished.
    pub levels: Vec<LevelTiming>,
    /// Materialized bag sizes (cyclic pipeline only).
    pub bags: Vec<BagStat>,
    /// Decomposition widths, when the cyclic pipeline ran both heuristics.
    pub widths: Option<WidthReport>,
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
            "{:<10} {:>5} {:>6} {:>6} {:>6} {:>6} {:>12} {:>12} {:>12} {:>12}\n",
            "op", "ops", "hash", "merge", "dense", "enum", "probed", "kept", "built", "build_rows"
        ));
        for (name, agg) in [("join", &self.joins), ("semijoin", &self.semijoins)] {
            out.push_str(&format!(
                "{:<10} {:>5} {:>6} {:>6} {:>6} {:>6} {:>12} {:>12} {:>12} {:>12}\n",
                name,
                agg.ops,
                agg.hash_ops,
                agg.sortmerge_ops,
                agg.dense_ops,
                agg.enumerate_ops,
                agg.probed,
                agg.kept,
                agg.built,
                agg.build_rows,
            ));
        }
        if !self.levels.is_empty() {
            out.push_str("levels:\n");
            for l in &self.levels {
                out.push_str(&format!(
                    "  {:<12} level {:<3} {:>12} ns\n",
                    l.phase.label(),
                    l.level,
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
/// Cloning shares the underlying report; recording locks a mutex per
/// *operation* — never per tuple — so its cost is negligible next to the
/// work being measured.
///
/// # Examples
///
/// ```
/// use reldb::metrics::{CollectingSink, MetricsSink};
/// use reldb::{Database, ExecCtx, Tuple};
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
/// let reduced = ExecCtx::new().metrics(&sink).full_reduce(&db, &tree).unwrap();
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

    fn record_level(&self, phase: Phase, level: usize, nanos: u64) {
        self.with(|m| {
            m.levels.push(LevelTiming {
                phase,
                level,
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

    fn record_widths(&self, min_fill: usize, min_degree: usize, chosen: &'static str) {
        self.with(|m| {
            m.widths = Some(WidthReport {
                min_fill,
                min_degree,
                chosen,
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: OpKind, kernel: Kernel, probed: u64, kept: u64) -> OpMetrics {
        OpMetrics {
            kind,
            kernel,
            probed,
            kept,
            built: kept.min(probed),
            build_rows: probed / 2,
        }
    }

    #[test]
    fn collecting_sink_aggregates_ops_by_kind_and_kernel() {
        let sink = CollectingSink::new();
        sink.record_op(op(OpKind::Join, Kernel::Hash, 100, 40));
        sink.record_op(op(OpKind::Join, Kernel::SortMerge, 50, 10));
        sink.record_op(op(OpKind::Join, Kernel::Enumerate, 10, 90));
        sink.record_op(op(OpKind::Semijoin, Kernel::Hash, 30, 30));
        sink.record_op(op(OpKind::Semijoin, Kernel::Dense, 20, 5));
        let m = sink.snapshot();
        assert_eq!(m.joins.ops, 3);
        assert_eq!(m.joins.hash_ops, 1);
        assert_eq!(m.joins.sortmerge_ops, 1);
        assert_eq!(m.joins.enumerate_ops, 1);
        assert_eq!(m.joins.probed, 160);
        assert_eq!(m.joins.kept, 140);
        assert_eq!(m.semijoins.ops, 2);
        assert_eq!(m.semijoins.hash_ops, 1);
        assert_eq!(m.semijoins.dense_ops, 1);
        assert_eq!(m.semijoins.probed, 50);
    }

    #[test]
    fn clones_share_the_report() {
        let sink = CollectingSink::new();
        let clone = sink.clone();
        clone.record_bag("bag", 3);
        assert_eq!(sink.snapshot().bags[0].rows, 3);
    }

    #[test]
    fn table_renders_all_sections() {
        let sink = CollectingSink::new();
        sink.record_op(op(OpKind::Join, Kernel::Hash, 100, 80));
        sink.record_level(Phase::Join, 0, 999);
        sink.record_bag("bag", 5);
        sink.record_widths(2, 2, "min-fill");
        let t = sink.snapshot().render_table();
        for needle in ["join", "build_rows", "levels:", "bags:", "min-degree 2"] {
            assert!(t.contains(needle), "missing {needle:?} in:\n{t}");
        }
    }

    #[test]
    fn timed_passes_results_through() {
        let sink = CollectingSink::new();
        assert_eq!(timed(&sink, Phase::Decompose, 0, || 7), 7);
        let err: Result<(), &str> = timed(&sink, Phase::Materialize, 0, || Err("abort"));
        assert!(err.is_err());
        // A stage that returns an error still records its entry.
        let phases: Vec<Phase> = sink.snapshot().levels.iter().map(|l| l.phase).collect();
        assert_eq!(phases, [Phase::Decompose, Phase::Materialize]);
        // A disabled sink records nothing and still passes the value on.
        assert_eq!(timed(&NoopMetrics, Phase::Join, 0, || 8), 8);
    }
}
