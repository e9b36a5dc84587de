//! The execution context: the [`ExecCtx`] every pipeline entry point is a
//! method of.
//!
//! A query's answer depends only on the schema, the data and the output
//! attributes, so nothing a caller sets picks a plan or a kernel.  Every
//! join runs one kernel: hash — build the smaller side, probe the larger.
//! Semijoins — the full reducer's only operator — have two, and their
//! inputs alone choose: a dense bitset where the packed key space fits and
//! sort-merge otherwise (see [`Relation::semijoin`](crate::Relation::semijoin)).
//!
//! What a caller does choose is who watches: [`ExecCtx`] is the two
//! instrumentation sinks — metrics (counters and stage clocks alike) and
//! governance.  Every pipeline has exactly one generic entry point, a
//! method on it, and runs on the calling thread: `hyperqd` gives each
//! connection a thread, so queries run side by side and none of them
//! splits across threads.
//!
//! The context holds no plan.  Whether a Yannakakis query runs over a join
//! tree or a hypertree decomposition depends on the schema alone, so the
//! [`Database`](crate::Database) builds that plan on its first query and
//! carries it; [`ExecCtx::query_yannakakis`] reads it.

use crate::govern::NoopGovernor;
use crate::metrics::NoopMetrics;

/// What one engine call runs under: the two instrumentation sinks —
/// [`MetricsSink`](crate::MetricsSink), which records what each stage did
/// and how long it took, and [`Governor`](crate::Governor) — and nothing
/// else.
///
/// Every pipeline has exactly **one** generic entry point, a method on this
/// type defined next to the pipeline it runs (the query engines such as
/// [`ExecCtx::query_yannakakis`], the Yannakakis stages, the single
/// operators — see the method list).  All return `Result<_, EngineError>`;
/// who is watching is a property of the context, not of a function name.
///
/// The context borrows everything and is `Copy`.  [`ExecCtx::new`] starts
/// with the two zero-sized no-op sinks and each of [`ExecCtx::metrics`] /
/// [`ExecCtx::gov`] swaps one type parameter, so an entry point is
/// monomorphized per sink combination and the all-no-op context compiles
/// every hook away: the plain wrappers
/// ([`full_reduce`](crate::full_reduce()), [`Relation::join`](crate::Relation::join)…)
/// are the same code under `ExecCtx::new()` — one engine, not two.
///
/// # Examples
///
/// ```
/// # use reldb::{CollectingSink, Database, ExecCtx, Phase, QueryGovernor};
/// # use hypergraph::{EdgeId, Hypergraph};
/// # let mut db = Database::empty(Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap());
/// # db.insert_values(EdgeId(0), [1, 2]);
/// # db.insert_values(EdgeId(1), [2, 3]);
/// # let x = db.attributes(["A", "C"]).unwrap();
/// let plain = ExecCtx::new().query_yannakakis(&db, &x)?;
///
/// // The same call, with whichever sinks the caller wants attached.
/// let (sink, gov) = (CollectingSink::new(), QueryGovernor::new());
/// let ctx = ExecCtx::new().metrics(&sink).gov(&gov);
/// assert!(ctx.query_yannakakis(&db, &x)?.same_contents(&plain));
/// let report = sink.snapshot();
/// assert_eq!(report.semijoins.ops, 2);
/// assert_eq!(report.levels.last().map(|l| l.phase), Some(Phase::Join));
/// # Ok::<(), reldb::EngineError>(())
/// ```
#[derive(Debug)]
pub struct ExecCtx<'a, M = NoopMetrics, G = NoopGovernor> {
    /// Where kernels and stages record what they did and how long it took.
    pub metrics: &'a M,
    /// Who may abort the call: cancellation, deadline, memory budget.
    pub gov: &'a G,
}

impl<M, G> Clone for ExecCtx<'_, M, G> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M, G> Copy for ExecCtx<'_, M, G> {}

impl ExecCtx<'_> {
    /// A context with nobody watching.
    pub fn new() -> Self {
        Self {
            metrics: &NoopMetrics,
            gov: &NoopGovernor,
        }
    }
}

impl Default for ExecCtx<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, M, G> ExecCtx<'a, M, G> {
    /// The same context recording into `metrics`.
    pub fn metrics<M2>(self, metrics: &'a M2) -> ExecCtx<'a, M2, G> {
        ExecCtx {
            metrics,
            gov: self.gov,
        }
    }

    /// The same context checkpointed against `gov`.
    pub fn gov<G2>(self, gov: &'a G2) -> ExecCtx<'a, M, G2> {
        ExecCtx {
            metrics: self.metrics,
            gov,
        }
    }
}
