//! Execution policy and context: the [`ExecCtx`] every pipeline entry
//! point is a method of.
//!
//! Every join runs one kernel: hash — build the smaller side, probe the
//! larger.  Semijoins — the full reducer's only operator — have two, and
//! their inputs alone choose: a dense bitset where the packed key space
//! fits and sort-merge otherwise (see
//! [`Relation::retain_semijoin`](crate::Relation::retain_semijoin)).  So no
//! policy picks a kernel.
//!
//! [`ExecPolicy`] carries a join strategy nothing reads.  [`ExecCtx`] is
//! what a pipeline actually runs under: the policy plus the two
//! instrumentation sinks — metrics (counters and stage clocks alike) and
//! governance.  Every
//! pipeline has exactly one generic entry point, a method on it, and runs
//! on the calling thread: `hyperqd` gives each connection a thread, so
//! queries run side by side and none of them splits across threads.
//!
//! The context holds no plan.  Whether a Yannakakis query runs over a join
//! tree or a hypertree decomposition depends on the schema alone, so the
//! [`Database`](crate::Database) builds that plan on its first query and
//! carries it; [`ExecCtx::query_yannakakis`] reads it.

use crate::govern::NoopGovernor;
use crate::metrics::NoopMetrics;

/// A join strategy, kept only because the benchmark harness under
/// `benchmark/` names [`JoinStrategy::Hash`] and [`JoinStrategy::Auto`]:
/// every join hashes under both, and semijoins never read it.
///
/// # Examples
///
/// ```
/// use reldb::{JoinStrategy, Relation};
/// use hypergraph::Hypergraph;
///
/// assert_eq!(JoinStrategy::default(), JoinStrategy::Auto);
///
/// // Every strategy joins to the same tuples.
/// let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap();
/// let mut r = Relation::new("R", h.node_set(["A", "B"]).unwrap());
/// let mut s = Relation::with_pool("S", h.node_set(["B", "C"]).unwrap(), r.pool().clone());
/// r.insert_values([1, 2]);
/// s.insert_values([2, 3]);
/// let hash = r.join_with(&s, JoinStrategy::Hash);
/// assert!(hash.same_contents(&r.join_with(&s, JoinStrategy::Auto)));
/// assert_eq!(hash.len(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Hash build + probe.
    Hash,
    /// The default; also hash build + probe.
    #[default]
    Auto,
}

/// How a query executes.  Nothing in it changes a query's plan or kernels.
///
/// Every query runs on its caller's thread — a `hyperqd` connection's, or
/// the CLI's — and the engine spawns no threads of its own.
///
/// # Examples
///
/// ```
/// use reldb::{ExecPolicy, JoinStrategy};
///
/// assert_eq!(ExecPolicy::default().strategy, JoinStrategy::Auto);
/// assert_eq!(ExecPolicy::sequential(JoinStrategy::Hash).threads, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPolicy {
    /// Nothing reads this: every join hashes.  The field stays only because
    /// the benchmark harness under `benchmark/` builds
    /// `ExecPolicy::sequential(JoinStrategy::Hash)`.
    pub strategy: JoinStrategy,
    /// Nothing reads this: a query always runs on one thread.  The field
    /// stays only because the benchmark harness under `benchmark/` builds
    /// `ExecPolicy { threads: 1, ..ExecPolicy::default() }`.
    pub threads: usize,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self::sequential(JoinStrategy::Auto)
    }
}

impl ExecPolicy {
    /// The policy with an explicit (unread) join strategy; the benchmark
    /// harness under `benchmark/` calls it.
    pub fn sequential(strategy: JoinStrategy) -> Self {
        Self {
            strategy,
            threads: 1,
        }
    }
}

/// What one engine call runs under: the [`ExecPolicy`] plus the two
/// instrumentation sinks — [`MetricsSink`](crate::MetricsSink), which
/// records what each stage did and how long it took, and
/// [`Governor`](crate::Governor) — and nothing else.
///
/// Every pipeline has exactly **one** generic entry point, a method on this
/// type defined next to the pipeline it runs (the query engines such as
/// [`ExecCtx::query_yannakakis`], the Yannakakis stages, the single
/// operators — see the method list).  All return `Result<_, EngineError>`;
/// who is watching is a property of the context, not of a function name.
///
/// The context borrows everything and is `Copy`.  [`ExecCtx::new`] starts
/// with the two zero-sized no-op sinks and each of [`ExecCtx::metrics`] /
/// [`ExecCtx::gov`] swaps one type parameter, so an entry point is monomorphized per sink combination and
/// the all-no-op context compiles every hook away: the plain wrappers
/// ([`full_reduce`](crate::full_reduce()), [`Relation::join`](crate::Relation::join)…)
/// are the same code under `ExecCtx::new(&policy)` — one engine, not two.
///
/// # Examples
///
/// ```
/// # use reldb::{CollectingSink, Database, ExecCtx, ExecPolicy, Phase, QueryGovernor};
/// # use hypergraph::{EdgeId, Hypergraph};
/// # let mut db = Database::empty(Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap());
/// # db.insert_values(EdgeId(0), [1, 2]);
/// # db.insert_values(EdgeId(1), [2, 3]);
/// # let x = db.attributes(["A", "C"]).unwrap();
/// let policy = ExecPolicy::default();
/// let plain = ExecCtx::new(&policy).query_yannakakis(&db, &x)?;
///
/// // The same call, with whichever sinks the caller wants attached.
/// let (sink, gov) = (CollectingSink::new(), QueryGovernor::new());
/// let ctx = ExecCtx::new(&policy).metrics(&sink).gov(&gov);
/// assert!(ctx.query_yannakakis(&db, &x)?.same_contents(&plain));
/// let report = sink.snapshot();
/// assert_eq!(report.semijoins.ops, 2);
/// assert_eq!(report.levels.last().map(|l| l.phase), Some(Phase::Join));
/// # Ok::<(), reldb::EngineError>(())
/// ```
#[derive(Debug)]
pub struct ExecCtx<'a, M = NoopMetrics, G = NoopGovernor> {
    /// The policy (which no kernel reads).
    pub policy: &'a ExecPolicy,
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

impl<'a> ExecCtx<'a> {
    /// A context that runs under `policy` with nobody watching.
    pub fn new(policy: &'a ExecPolicy) -> Self {
        Self {
            policy,
            metrics: &NoopMetrics,
            gov: &NoopGovernor,
        }
    }
}

impl<'a, M, G> ExecCtx<'a, M, G> {
    /// The same context recording into `metrics`.
    pub fn metrics<M2>(self, metrics: &'a M2) -> ExecCtx<'a, M2, G> {
        ExecCtx {
            policy: self.policy,
            metrics,
            gov: self.gov,
        }
    }

    /// The same context checkpointed against `gov`.
    pub fn gov<G2>(self, gov: &'a G2) -> ExecCtx<'a, M, G2> {
        ExecCtx {
            policy: self.policy,
            metrics: self.metrics,
            gov,
        }
    }
}
