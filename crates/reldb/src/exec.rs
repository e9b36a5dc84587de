//! Execution policy and context: join-strategy selection, and the
//! [`ExecCtx`] every pipeline entry point is a method of.
//!
//! The columnar kernels come in two physical flavors — hash (build the
//! smaller side, probe the larger) and sort-merge (sort row-id permutations
//! by the key columns, merge equal-key runs).  Hash wins on near-unique
//! keys; sort-merge wins when keys are heavily duplicated (skewed data),
//! where the pattern-defeating sort degenerates towards linear and the merge
//! replaces per-row hashing.  [`JoinStrategy::Auto`] picks per operation
//! from an estimated distinct-key ratio (the rows themselves are distinct by
//! construction, so sampled key duplication measures genuine key skew).
//!
//! [`ExecPolicy`] carries the strategy.  [`ExecCtx`] is what a pipeline
//! actually runs under: the policy plus the two instrumentation sinks —
//! metrics (counters and stage clocks alike) and governance.  Every pipeline
//! has exactly one generic entry point, a method on it, and runs on the
//! calling thread: `hyperqd` gives each connection a thread, so queries run
//! side by side and none of them splits across threads.

use crate::govern::NoopGovernor;
use crate::metrics::NoopMetrics;

/// Which physical join/semijoin kernel to run.
///
/// # Examples
///
/// ```
/// use reldb::JoinStrategy;
///
/// // The spellings round-trip; `Auto` is the default cost-pick planner.
/// assert_eq!(JoinStrategy::parse("sort-merge"), Ok(JoinStrategy::SortMerge));
/// assert_eq!(JoinStrategy::parse("sortmerge"), Ok(JoinStrategy::SortMerge));
/// assert_eq!(JoinStrategy::SortMerge.as_str(), "sort-merge");
/// assert_eq!(JoinStrategy::default(), JoinStrategy::Auto);
/// assert!(JoinStrategy::parse("quantum").is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Hash build + probe (the columnar default).
    Hash,
    /// Sort row-id permutations by the key columns and merge.
    SortMerge,
    /// Pick per operation from the estimated distinct-key ratio: sort-merge
    /// at or below the operator's calibrated crossover
    /// ([`AUTO_JOIN_SORTMERGE_MAX_DISTINCT_RATIO`] for joins,
    /// [`AUTO_SEMIJOIN_SORTMERGE_MAX_DISTINCT_RATIO`] for semijoins), hash
    /// otherwise.  Semijoins whose packed handle key space fits run the
    /// dense bitset kernel before that choice is made (see
    /// `AUTO_SEMIJOIN_SORTMERGE_MAX_DISTINCT_RATIO`).
    #[default]
    Auto,
}

impl JoinStrategy {
    /// The canonical spelling (`hash`, `sort-merge`, `auto`) — what the
    /// wire protocol renders and [`parse`](Self::parse) reads back.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Hash => "hash",
            Self::SortMerge => "sort-merge",
            Self::Auto => "auto",
        }
    }

    /// Parses a spelling: the canonical ones of [`as_str`](Self::as_str),
    /// plus `sortmerge`.  The `--strategy` flag and the protocol's
    /// `"strategy"` member both read through this.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "hash" => Ok(Self::Hash),
            "sortmerge" | "sort-merge" => Ok(Self::SortMerge),
            "auto" => Ok(Self::Auto),
            other => Err(format!(
                "unknown join strategy {other:?} (expected hash, sort-merge or auto)"
            )),
        }
    }
}

/// Distinct-key-ratio crossover for **joins** under [`JoinStrategy::Auto`]:
/// at or below this *sampled* ratio (the estimator samples ≤128 evenly
/// spaced rows) the sort-merge kernel is picked over hash build + probe.
///
/// Calibrated with `hyperq bench --calibrate`, which sweeps two-relation
/// join workloads across distinct-key counts and relation sizes and times
/// both kernels; the metrics layer ([`crate::metrics`]) reports the
/// engine's own sampled ratio per cell, so the crossover is expressed in
/// the units the planner actually compares.  Measured (4-core-class x86,
/// single-column keys): at 4000 rows/side sort-merge won every swept cell
/// (5–21%); at 1000 rows the kernels sat within noise below sampled ≈0.55
/// and hash pulled slightly ahead above it.  0.55 keeps sort-merge where
/// key duplication is real and leaves near-unique joins — the hash build's
/// cheapest regime — on hash.  The old one-size 0.05 guess starved joins of
/// sort-merge wins an order of magnitude wide; see README "Observability".
pub const AUTO_JOIN_SORTMERGE_MAX_DISTINCT_RATIO: f64 = 0.55;

/// Distinct-key-ratio crossover for **semijoins** under
/// [`JoinStrategy::Auto`]: at or below this sampled ratio the sort-merge
/// mask kernel is picked over the hash mask.
///
/// Calibrated separately from joins (same `hyperq bench --calibrate`
/// sweep), and the measurement was one-sided: the hash mask never won a
/// single swept cell at any ratio or size (sort-merge margins 20–45%), and
/// the pipeline-level bench rows agree (`full_reduce` under the pinned
/// sort-merge engine beats the pinned hash engine 1.5–2.2× on every
/// workload).  Sorting interned `u32` key handles is simply cheaper than
/// per-row hashing here, so the threshold is 1.0.
///
/// The threshold only decides semijoins the dense kernel does not take:
/// `Auto` first runs a direct-address bitset over the packed handle key
/// space whenever `pool.len()^k` is at most eight bits per input row (the
/// bitset never outweighs one byte per row it serves; past that, zeroing
/// and missing on a sparse bitset costs more than the sort), and falls back
/// to this sort-merge-vs-hash choice otherwise.  At 1.0 that makes the
/// order *dense if the key space fits, else sort-merge; hash only when
/// pinned*.
pub const AUTO_SEMIJOIN_SORTMERGE_MAX_DISTINCT_RATIO: f64 = 1.0;

/// How a query executes: the join strategy every semijoin and join runs
/// under.
///
/// Every query runs on its caller's thread — a `hyperqd` connection's, or
/// the CLI's — and the engine spawns no threads of its own.
///
/// # Examples
///
/// ```
/// use reldb::{ExecPolicy, JoinStrategy};
///
/// // The default policy: the auto strategy.
/// assert_eq!(ExecPolicy::default().strategy, JoinStrategy::Auto);
///
/// // A pinned kernel, for measurements that isolate one.
/// let pinned = ExecPolicy::sequential(JoinStrategy::SortMerge);
/// assert_eq!(pinned.strategy, JoinStrategy::SortMerge);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPolicy {
    /// Physical kernel selection for every join/semijoin.
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
    /// The policy with an explicit strategy — what the benchmarks use to
    /// isolate one kernel.
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
/// type defined next to the pipeline it runs (the query engines, the
/// Yannakakis stages, [`Query`](crate::Query) execution, the single
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
    /// The join strategy.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_parses_cli_spellings() {
        assert_eq!(JoinStrategy::parse("hash"), Ok(JoinStrategy::Hash));
        assert_eq!(
            JoinStrategy::parse("sortmerge"),
            Ok(JoinStrategy::SortMerge)
        );
        assert_eq!(
            JoinStrategy::parse("sort-merge"),
            Ok(JoinStrategy::SortMerge)
        );
        assert_eq!(JoinStrategy::parse("auto"), Ok(JoinStrategy::Auto));
        assert!(JoinStrategy::parse("quantum").is_err());
    }
}
