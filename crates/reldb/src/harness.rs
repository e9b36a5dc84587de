//! Names the frozen benchmark harness under `benchmark/` compiles against
//! and the engine itself does not use.
//!
//! The harness is its own workspace and is never edited, so every name it
//! calls must keep its path and signature.  A query's answer depends only
//! on the schema, the data and the output attributes, so the engine takes
//! no policy: each forward here accepts the policy or strategy the harness
//! passes, ignores it, and runs the one-context entry point under
//! [`ExecCtx::new`] with the sinks the harness hands it.  All of it is
//! re-exported from the crate root, where the harness imports it:
//!
//! | Name | Called from |
//! |---|---|
//! | [`ExecPolicy`] (`default()`, `sequential(..)`, `{ threads: 1, ..default() }`) | `benchmark/src/layers.rs`, `benchmark/src/workloads.rs` |
//! | [`JoinStrategy::Hash`], [`JoinStrategy::Auto`] | `benchmark/src/layers.rs`, `benchmark/src/workloads.rs` |
//! | [`full_reduce_with`], [`yannakakis_join_with`], [`materialize_bags`] | `benchmark/src/layers.rs` |
//! | [`query_yannakakis_metered`], [`query_yannakakis_governed`] | `benchmark/src/layers.rs` |
//! | [`query_via_full_join_metered`] | `benchmark/src/workloads.rs` |
//! | [`Relation::join_with`] | `benchmark/src/layers.rs` |
//!
//! `tests/harness_api.rs` coerces each of them to the type the harness
//! calls it at, so a rename fails tier-1 rather than only the benchmark.

use crate::database::Database;
use crate::exec::ExecCtx;
use crate::govern::{unfail, EngineError, Governor};
use crate::metrics::MetricsSink;
use crate::relation::Relation;
use crate::yannakakis::Reduced;
use acyclic::JoinTree;
use decomp::Decomposition;
use hypergraph::NodeSet;

/// A join strategy nothing reads: the inputs pick a join's kernel under both.
///
/// # Examples
///
/// ```
/// use reldb::{JoinStrategy, Relation};
/// use hypergraph::Hypergraph;
///
/// assert_eq!(JoinStrategy::default(), JoinStrategy::Auto);
///
/// // The strategy is ignored: `join_with` is `join`.
/// let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap();
/// let mut r = Relation::new("R", h.node_set(["A", "B"]).unwrap());
/// let mut s = Relation::with_pool("S", h.node_set(["B", "C"]).unwrap(), r.pool().clone());
/// r.insert_values([1, 2]);
/// s.insert_values([2, 3]);
/// let joined = r.join_with(&s, JoinStrategy::Hash);
/// assert!(joined.same_contents(&r.join(&s)));
/// assert_eq!(joined.len(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Hash build + probe.
    Hash,
    /// The default; also hash build + probe.
    #[default]
    Auto,
}

/// An execution policy nothing reads: every query runs on its caller's
/// thread and the inputs pick every kernel.
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
    /// Unread.
    pub strategy: JoinStrategy,
    /// Unread.
    pub threads: usize,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self::sequential(JoinStrategy::Auto)
    }
}

impl ExecPolicy {
    /// The policy with an explicit (unread) join strategy.
    pub fn sequential(strategy: JoinStrategy) -> Self {
        Self {
            strategy,
            threads: 1,
        }
    }
}

/// [`ExecCtx::full_reduce`] with nobody watching; `policy` is ignored.
pub fn full_reduce_with(db: &Database, tree: &JoinTree, _policy: &ExecPolicy) -> Reduced {
    unfail(ExecCtx::new().full_reduce(db, tree))
}

/// [`ExecCtx::yannakakis_join`] with nobody watching; `policy` is ignored.
pub fn yannakakis_join_with(
    db: &Database,
    tree: &JoinTree,
    output: &NodeSet,
    _policy: &ExecPolicy,
) -> Relation {
    unfail(ExecCtx::new().yannakakis_join(db, tree, output))
}

/// [`ExecCtx::materialize_bags`] with nobody watching; `policy` is ignored.
pub fn materialize_bags(db: &Database, d: &Decomposition, _policy: &ExecPolicy) -> Database {
    unfail(ExecCtx::new().materialize_bags(db, d))
}

/// [`ExecCtx::query_via_full_join`] recording into `sink`; `policy` is
/// ignored.
pub fn query_via_full_join_metered<M: MetricsSink>(
    db: &Database,
    x: &NodeSet,
    _policy: &ExecPolicy,
    sink: &M,
) -> Relation {
    unfail(ExecCtx::new().metrics(sink).query_via_full_join(db, x))
}

/// [`ExecCtx::query_yannakakis`] recording into `sink`; `policy` is ignored.
pub fn query_yannakakis_metered<M: MetricsSink>(
    db: &Database,
    x: &NodeSet,
    _policy: &ExecPolicy,
    sink: &M,
) -> Result<Relation, EngineError> {
    ExecCtx::new().metrics(sink).query_yannakakis(db, x)
}

/// [`ExecCtx::query_yannakakis`] recording into `sink` and checkpointed
/// against `gov`; `policy` is ignored.
pub fn query_yannakakis_governed<M: MetricsSink, G: Governor>(
    db: &Database,
    x: &NodeSet,
    _policy: &ExecPolicy,
    sink: &M,
    gov: &G,
) -> Result<Relation, EngineError> {
    ExecCtx::new()
        .metrics(sink)
        .gov(gov)
        .query_yannakakis(db, x)
}

impl Relation {
    /// [`Relation::join`]; `strategy` is ignored.
    pub fn join_with(&self, other: &Relation, _strategy: JoinStrategy) -> Relation {
        self.join(other)
    }
}
