//! Resource governance and fault tolerance through the execution engine.
//!
//! The engine's long-running-service story needs the same treatment
//! [`metrics`](crate::metrics) gave observability: a zero-cost-when-off
//! control plane threaded through every kernel.  This module supplies it —
//! a [`Governor`] trait the kernels consult at well-defined checkpoints, a
//! [`QueryGovernor`] carrying a cooperative cancellation token, a deadline
//! and a memory budget, and (behind the `failpoints` feature) a
//! deterministic `FailpointGovernor` for fault-injection testing.
//!
//! # Checkpoint granularity
//!
//! Governed kernels call back at *operation* or *batch* granularity, never
//! per tuple:
//!
//! | Checkpoint | Site | Worst-case overrun before the next check |
//! |---|---|---|
//! | [`Governor::checkpoint`] | every [`CHECK_BATCH`] rows in probe/emit loops | one batch (4096 rows) |
//! | [`Governor::at_semijoin`] | before each semijoin (reducer step) | one semijoin's mask scan |
//! | [`Governor::at_level`] | before each reducer/join level | one level's semijoins or joins |
//! | [`Governor::at_bag`] | before each hypertree bag materialization | one bag's cover join |
//! | [`Governor::approve_alloc`] | before building hash tables / sort permutations, per output batch, per materialized bag | one batch of over-budget output |
//!
//! A pipeline's one entry point takes the governor inside its
//! [`ExecCtx`](crate::ExecCtx) (`ExecCtx::new().gov(&gov)`) and is
//! monomorphized per governor type, so the default [`NoopGovernor`] compiles
//! to nothing — its checkpoint methods are `#[inline] Ok(())` bodies the
//! optimizer erases, and anything with a runtime cost of its own is gated on
//! the compile-time constant [`Governor::ENABLED`].  The plain wrappers are
//! that same entry point under the all-no-op context: one engine, not two.
//!
//! # The abort invariant
//!
//! Checkpoints only fire during *read-only* phases of a kernel: mask
//! computation for semijoins, probe/emit loops that build fresh output
//! relations, and bag materialization (which constructs a brand-new
//! [`Database`](crate::Database)).
//! [`ExecCtx::retain_semijoin`](crate::ExecCtx::retain_semijoin) compacts an
//! owned target, or copies a borrowed one's survivors, unconditionally
//! *after* the mask is complete, and the reducer's targets start borrowed
//! from the database, which it never writes.  An aborted query — cancelled,
//! past deadline, over budget, or panicked — therefore leaves the source
//! database bit-identical, and the next query over it is still
//! tuple-for-tuple correct.
//! `tests/govern_props.rs` proves this by snapshot comparison under random
//! failpoints.
//!
//! # Budget estimation
//!
//! The memory budget is charged in *estimated bytes* before allocations
//! happen: build-side rows × row width for hash tables and sort
//! permutations, output rows × width per emitted batch, and materialized
//! rows per hypertree bag.  For cyclic schemas the router additionally
//! pre-screens bag-cover cardinality products: a decomposition whose
//! estimated widest bag exceeds the budget falls back to the tree with the
//! smaller estimate (the *other* elimination heuristic's, when its worst
//! bag is smaller), before erroring with [`EngineError::BudgetExceeded`]
//! once the actual charges exceed it.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::database::DbError;

/// Rows processed between two [`Governor::checkpoint`] calls inside a
/// kernel's probe/emit loop — the batch after which a cancellation or an
/// expired deadline is observed.
pub const CHECK_BATCH: usize = 4096;

/// Bytes charged per interned row cell when estimating memory use (a `u32`
/// value handle).
const BYTES_PER_CELL: u64 = 4;

/// A structured error from an engine entry point.
///
/// Every public `reldb` query path returns this instead of panicking: the
/// govern layer's checkpoints surface as [`Cancelled`], [`DeadlineExceeded`]
/// and [`BudgetExceeded`]; schema and input problems surface as
/// [`SchemaMismatch`], [`Io`] and [`Parse`]; a panic caught escaping the
/// engine surfaces as [`WorkerPanic`].
///
/// [`Cancelled`]: EngineError::Cancelled
/// [`DeadlineExceeded`]: EngineError::DeadlineExceeded
/// [`BudgetExceeded`]: EngineError::BudgetExceeded
/// [`SchemaMismatch`]: EngineError::SchemaMismatch
/// [`Io`]: EngineError::Io
/// [`Parse`]: EngineError::Parse
/// [`WorkerPanic`]: EngineError::WorkerPanic
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The query's cancellation token was triggered.
    Cancelled,
    /// The query ran past its deadline.
    DeadlineExceeded {
        /// Wall-clock time elapsed when the overrun was observed.
        elapsed: Duration,
    },
    /// An allocation would push the query past its memory budget.
    BudgetExceeded {
        /// Estimated bytes the query would have held after the allocation.
        estimated: u64,
        /// The configured budget, in bytes.
        limit: u64,
    },
    /// The query or data does not fit the schema hypergraph.
    SchemaMismatch(String),
    /// An input file could not be read.
    Io(String),
    /// An input file could not be parsed.
    Parse {
        /// 1-based line number of the offending input line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// A panic escaped the engine and was contained at the entry point.
    WorkerPanic(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Cancelled => write!(f, "query cancelled"),
            Self::DeadlineExceeded { elapsed } => {
                write!(
                    f,
                    "deadline exceeded after {:.3}ms",
                    elapsed.as_secs_f64() * 1e3
                )
            }
            Self::BudgetExceeded { estimated, limit } => write!(
                f,
                "memory budget exceeded: estimated {estimated} bytes over a {limit}-byte budget"
            ),
            Self::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            Self::Io(msg) => write!(f, "io error: {msg}"),
            Self::Parse { line, message } => write!(f, "line {line}: {message}"),
            Self::WorkerPanic(msg) => write!(f, "engine panicked: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DbError> for EngineError {
    fn from(e: DbError) -> Self {
        Self::SchemaMismatch(e.to_string())
    }
}

/// The governance hook threaded through every engine layer, mirroring
/// [`MetricsSink`](crate::MetricsSink).
///
/// All checkpoint methods default to `Ok(())`
/// with `#[inline]` bodies; [`ENABLED`] is the compile-time switch the
/// engine consults before doing governance-only work (clock reads, batch
/// counting).  Returning an error from any checkpoint aborts the entry
/// point with that error before any in-place mutation happens.
///
/// [`ENABLED`]: Governor::ENABLED
pub trait Governor {
    /// Whether this governor checks anything.  `false` lets the engine skip
    /// governance work entirely at compile time.
    const ENABLED: bool;

    /// Generic cancellation/deadline checkpoint, called every
    /// [`CHECK_BATCH`] rows inside kernel probe/emit loops.
    #[inline]
    fn checkpoint(&self) -> Result<(), EngineError> {
        Ok(())
    }

    /// About to compute one semijoin mask (enabled governors that care
    /// about ordinals count calls themselves).
    #[inline]
    fn at_semijoin(&self) -> Result<(), EngineError> {
        Ok(())
    }

    /// About to run one level of a level-synchronous phase.
    #[inline]
    fn at_level(&self, _phase: crate::metrics::Phase, _level: usize) -> Result<(), EngineError> {
        Ok(())
    }

    /// About to materialize hypertree bag `_bag`.
    #[inline]
    fn at_bag(&self, _bag: usize) -> Result<(), EngineError> {
        Ok(())
    }

    /// About to hold roughly `_rows × _width` more interned cells (a hash
    /// table build side, a batch of join output, a materialized bag).
    /// Charges the memory budget; errors if the allocation would exceed it.
    #[inline]
    fn approve_alloc(&self, _rows: u64, _width: usize) -> Result<(), EngineError> {
        Ok(())
    }

    /// Whether an allocation of `_rows × _width` cells *would* exceed the
    /// remaining budget, without charging it — the routing pre-screen used
    /// to pick a cheaper decomposition before committing to one.
    #[inline]
    fn alloc_would_exceed(&self, _rows: u64, _width: usize) -> bool {
        false
    }
}

/// The default governor: checks nothing, costs nothing — what
/// [`ExecCtx::new`](crate::ExecCtx::new) starts with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopGovernor;

impl Governor for NoopGovernor {
    const ENABLED: bool = false;
}

/// Unwraps the result of a plain wrapper's all-no-op context.  No
/// checkpoint can abort under [`NoopGovernor`], so an `Err` here is a panic
/// the entry point contained (or a schema the pipeline cannot run on): it
/// is re-raised with its message, as if it had never been caught.
#[inline]
pub(crate) fn unfail<T>(r: Result<T, EngineError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// A cloneable handle for cooperatively cancelling a governed query from
/// another thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation: every governed query holding this token
    /// aborts with [`EngineError::Cancelled`] at its next checkpoint.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct GovernorInner {
    cancel: CancelToken,
    start: Instant,
    deadline: Option<Duration>,
    budget: Option<u64>,
    charged: AtomicU64,
}

/// The production governor: a cancellation token, an optional deadline and
/// an optional memory budget.  Clones share one token, clock and budget.
///
/// A default `QueryGovernor` (no deadline, no budget, nobody holding the
/// token) still pays for its checkpoints — an atomic load per batch, a
/// clock read when a deadline is set — which the `columnar-governed` bench
/// rows show is within noise of the ungoverned path.
///
/// # Examples
///
/// ```
/// use reldb::govern::{EngineError, Governor, QueryGovernor};
/// use std::time::Duration;
///
/// let gov = QueryGovernor::new().with_deadline(Duration::ZERO);
/// assert!(matches!(
///     gov.checkpoint(),
///     Err(EngineError::DeadlineExceeded { .. })
/// ));
///
/// let gov = QueryGovernor::new();
/// let token = gov.token();
/// token.cancel();
/// assert_eq!(gov.checkpoint(), Err(EngineError::Cancelled));
/// ```
#[derive(Debug, Clone)]
pub struct QueryGovernor {
    inner: Arc<GovernorInner>,
}

impl Default for QueryGovernor {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryGovernor {
    /// A governor with no deadline, no budget and a fresh cancellation
    /// token.
    pub fn new() -> Self {
        Self::with_token(CancelToken::new())
    }

    /// A governor observing an existing cancellation token.
    pub fn with_token(token: CancelToken) -> Self {
        Self {
            inner: Arc::new(GovernorInner {
                cancel: token,
                start: Instant::now(),
                deadline: None,
                budget: None,
                charged: AtomicU64::new(0),
            }),
        }
    }

    /// Sets a wall-clock deadline, measured from *now* (the clock restarts
    /// so CLI setup time is not charged to the query unless the caller
    /// builds the governor first).
    pub fn with_deadline(self, deadline: Duration) -> Self {
        self.rebuild(|inner| GovernorInner {
            start: Instant::now(),
            deadline: Some(deadline),
            ..inner
        })
    }

    /// Backdates the governor's clock to `start`, so time spent before the
    /// governor was built (argument parsing, file loading) counts against
    /// the deadline.  Apply *after* [`with_deadline`](Self::with_deadline),
    /// which restarts the clock.
    pub fn started_at(self, start: Instant) -> Self {
        self.rebuild(|inner| GovernorInner { start, ..inner })
    }

    /// Sets a memory budget in estimated bytes of engine-held row data.
    pub fn with_memory_budget(self, bytes: u64) -> Self {
        self.rebuild(|inner| GovernorInner {
            budget: Some(bytes),
            ..inner
        })
    }

    fn rebuild(self, f: impl FnOnce(GovernorInner) -> GovernorInner) -> Self {
        let inner = Arc::try_unwrap(self.inner).unwrap_or_else(|arc| GovernorInner {
            cancel: arc.cancel.clone(),
            start: arc.start,
            deadline: arc.deadline,
            budget: arc.budget,
            charged: AtomicU64::new(arc.charged.load(Ordering::Relaxed)),
        });
        Self {
            inner: Arc::new(f(inner)),
        }
    }

    /// The cancellation token governed queries observe.
    pub fn token(&self) -> CancelToken {
        self.inner.cancel.clone()
    }

    /// Estimated bytes charged against the budget so far.
    pub fn charged_bytes(&self) -> u64 {
        self.inner.charged.load(Ordering::Relaxed)
    }

    fn estimate(rows: u64, width: usize) -> u64 {
        rows.saturating_mul(width as u64)
            .saturating_mul(BYTES_PER_CELL)
    }
}

impl Governor for QueryGovernor {
    const ENABLED: bool = true;

    #[inline]
    fn checkpoint(&self) -> Result<(), EngineError> {
        if self.inner.cancel.is_cancelled() {
            return Err(EngineError::Cancelled);
        }
        if let Some(deadline) = self.inner.deadline {
            let elapsed = self.inner.start.elapsed();
            if elapsed >= deadline {
                return Err(EngineError::DeadlineExceeded { elapsed });
            }
        }
        Ok(())
    }

    #[inline]
    fn at_semijoin(&self) -> Result<(), EngineError> {
        self.checkpoint()
    }

    #[inline]
    fn at_level(&self, _phase: crate::metrics::Phase, _level: usize) -> Result<(), EngineError> {
        self.checkpoint()
    }

    #[inline]
    fn at_bag(&self, _bag: usize) -> Result<(), EngineError> {
        self.checkpoint()
    }

    fn approve_alloc(&self, rows: u64, width: usize) -> Result<(), EngineError> {
        let Some(limit) = self.inner.budget else {
            return Ok(());
        };
        let bytes = Self::estimate(rows, width);
        let before = self.inner.charged.fetch_add(bytes, Ordering::Relaxed);
        let estimated = before.saturating_add(bytes);
        if estimated > limit {
            return Err(EngineError::BudgetExceeded { estimated, limit });
        }
        Ok(())
    }

    fn alloc_would_exceed(&self, rows: u64, width: usize) -> bool {
        match self.inner.budget {
            Some(limit) => {
                let charged = self.inner.charged.load(Ordering::Relaxed);
                charged.saturating_add(Self::estimate(rows, width)) > limit
            }
            None => false,
        }
    }
}

/// Fault-injection support, compiled only with the `failpoints` feature.
#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;
    use crate::metrics::Phase;

    /// What an armed failpoint does when it fires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FailMode {
        /// Surface a structured [`EngineError`] from the checkpoint.
        Error,
        /// Panic at the checkpoint — exercises the panic containment
        /// of the query entry points.
        Panic,
    }

    #[derive(Debug)]
    struct FailpointInner {
        fail_at_semijoin: Option<u64>,
        mode: FailMode,
        semijoins: AtomicU64,
        alloc_fail_bag: Option<usize>,
        base: QueryGovernor,
    }

    /// A deterministic fault-injection governor for tests: fail at the
    /// `n`-th semijoin, or refuse the allocation for a chosen hypertree bag
    /// — both on top of a base [`QueryGovernor`] whose
    /// deadline/budget/cancellation still apply.
    ///
    /// # Examples
    ///
    /// ```
    /// use reldb::govern::{EngineError, FailpointGovernor, Governor};
    ///
    /// let gov = FailpointGovernor::new().fail_at_semijoin(1);
    /// assert!(gov.at_semijoin().is_ok());
    /// assert_eq!(gov.at_semijoin(), Err(EngineError::Cancelled));
    /// ```
    #[derive(Debug, Clone)]
    pub struct FailpointGovernor {
        inner: Arc<FailpointInner>,
    }

    impl Default for FailpointGovernor {
        fn default() -> Self {
            Self::new()
        }
    }

    impl FailpointGovernor {
        /// A governor with no failpoints armed.
        pub fn new() -> Self {
            Self::with_base(QueryGovernor::new())
        }

        /// A governor layering failpoints over an existing
        /// [`QueryGovernor`] (its deadline, budget and token still apply).
        pub fn with_base(base: QueryGovernor) -> Self {
            Self {
                inner: Arc::new(FailpointInner {
                    fail_at_semijoin: None,
                    mode: FailMode::Error,
                    semijoins: AtomicU64::new(0),
                    alloc_fail_bag: None,
                    base,
                }),
            }
        }

        fn rebuild(self, f: impl FnOnce(&mut FailpointInner)) -> Self {
            let mut inner = match Arc::try_unwrap(self.inner) {
                Ok(inner) => inner,
                Err(arc) => FailpointInner {
                    fail_at_semijoin: arc.fail_at_semijoin,
                    mode: arc.mode,
                    semijoins: AtomicU64::new(arc.semijoins.load(Ordering::Relaxed)),
                    alloc_fail_bag: arc.alloc_fail_bag,
                    base: arc.base.clone(),
                },
            };
            f(&mut inner);
            Self {
                inner: Arc::new(inner),
            }
        }

        /// Arms a failpoint at the `n`-th semijoin of the query (0-based).
        pub fn fail_at_semijoin(self, n: u64) -> Self {
            self.rebuild(|i| i.fail_at_semijoin = Some(n))
        }

        /// Chooses what a fired failpoint does ([`FailMode::Error`] is the
        /// default).
        pub fn fail_mode(self, mode: FailMode) -> Self {
            self.rebuild(|i| i.mode = mode)
        }

        /// Refuses the allocation for hypertree bag `bag`.
        pub fn alloc_fail_bag(self, bag: usize) -> Self {
            self.rebuild(|i| i.alloc_fail_bag = Some(bag))
        }

        /// Semijoins observed so far — lets a test size `fail_at_semijoin`
        /// sweeps to the query being exercised.
        pub fn semijoins_seen(&self) -> u64 {
            self.inner.semijoins.load(Ordering::Relaxed)
        }

        fn fire(&self) -> Result<(), EngineError> {
            match self.inner.mode {
                FailMode::Error => Err(EngineError::Cancelled),
                FailMode::Panic => panic!("injected failpoint panic"),
            }
        }
    }

    impl Governor for FailpointGovernor {
        const ENABLED: bool = true;

        #[inline]
        fn checkpoint(&self) -> Result<(), EngineError> {
            self.inner.base.checkpoint()
        }

        fn at_semijoin(&self) -> Result<(), EngineError> {
            let seen = self.inner.semijoins.fetch_add(1, Ordering::Relaxed);
            if self.inner.fail_at_semijoin == Some(seen) {
                self.fire()?;
            }
            self.inner.base.at_semijoin()
        }

        fn at_level(&self, phase: Phase, level: usize) -> Result<(), EngineError> {
            self.inner.base.at_level(phase, level)
        }

        fn at_bag(&self, bag: usize) -> Result<(), EngineError> {
            if self.inner.alloc_fail_bag == Some(bag) {
                return Err(EngineError::BudgetExceeded {
                    estimated: u64::MAX,
                    limit: 0,
                });
            }
            self.inner.base.at_bag(bag)
        }

        fn approve_alloc(&self, rows: u64, width: usize) -> Result<(), EngineError> {
            self.inner.base.approve_alloc(rows, width)
        }

        fn alloc_would_exceed(&self, rows: u64, width: usize) -> bool {
            self.inner.base.alloc_would_exceed(rows, width)
        }
    }
}

#[cfg(feature = "failpoints")]
pub use failpoints::{FailMode, FailpointGovernor};

/// Runs an entry point with panic containment: a panic escaping the
/// engine (a kernel bug, an injected failpoint panic) is
/// caught and surfaced as [`EngineError::WorkerPanic`] instead of unwinding
/// through the caller.
///
/// The closure only *reads* the database (in-place reducer forms operate on
/// copies), so resuming after the catch observes no torn state.
pub(crate) fn contain_panics<T>(
    f: impl FnOnce() -> Result<T, EngineError>,
) -> Result<T, EngineError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_owned()
            };
            Err(EngineError::WorkerPanic(msg))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Phase;

    #[test]
    fn noop_governor_never_fails() {
        let g = NoopGovernor;
        assert!(g.checkpoint().is_ok());
        assert!(g.at_semijoin().is_ok());
        assert!(g.at_level(Phase::Join, 3).is_ok());
        assert!(g.at_bag(0).is_ok());
        assert!(g.approve_alloc(u64::MAX, usize::MAX).is_ok());
        assert!(!g.alloc_would_exceed(u64::MAX, usize::MAX));
        const { assert!(!NoopGovernor::ENABLED) };
    }

    #[test]
    fn cancellation_token_is_shared_across_clones() {
        let gov = QueryGovernor::new();
        let clone = gov.clone();
        assert!(clone.checkpoint().is_ok());
        gov.token().cancel();
        assert_eq!(clone.checkpoint(), Err(EngineError::Cancelled));
        assert_eq!(
            gov.at_level(Phase::ReduceUp, 0),
            Err(EngineError::Cancelled)
        );
    }

    #[test]
    fn zero_deadline_trips_the_first_checkpoint() {
        let gov = QueryGovernor::new().with_deadline(Duration::ZERO);
        match gov.checkpoint() {
            Err(EngineError::DeadlineExceeded { .. }) => {}
            other => panic!("expected deadline error, got {other:?}"),
        }
        // Semijoin/level/bag checkpoints all observe the deadline too.
        assert!(gov.at_semijoin().is_err());
        assert!(gov.at_bag(2).is_err());
    }

    #[test]
    fn generous_deadline_passes() {
        let gov = QueryGovernor::new().with_deadline(Duration::from_secs(3600));
        assert!(gov.checkpoint().is_ok());
    }

    #[test]
    fn budget_charges_accumulate_until_exceeded() {
        // 100 cells of 4 bytes = 400 bytes; budget of 1000 admits two
        // charges and rejects the third.
        let gov = QueryGovernor::new().with_memory_budget(1000);
        assert!(gov.approve_alloc(50, 2).is_ok());
        assert!(!gov.alloc_would_exceed(50, 2));
        assert!(gov.approve_alloc(50, 2).is_ok());
        assert!(gov.alloc_would_exceed(50, 2));
        match gov.approve_alloc(50, 2) {
            Err(EngineError::BudgetExceeded { estimated, limit }) => {
                assert_eq!(limit, 1000);
                assert_eq!(estimated, 1200);
            }
            other => panic!("expected budget error, got {other:?}"),
        }
        assert_eq!(gov.charged_bytes(), 1200);
    }

    #[test]
    fn no_budget_means_no_charges() {
        let gov = QueryGovernor::new();
        assert!(gov.approve_alloc(u64::MAX, 64).is_ok());
        assert!(!gov.alloc_would_exceed(u64::MAX, 64));
    }

    #[test]
    fn errors_render_one_line_diagnostics() {
        for (err, needle) in [
            (EngineError::Cancelled, "cancelled"),
            (
                EngineError::DeadlineExceeded {
                    elapsed: Duration::from_millis(5),
                },
                "deadline exceeded",
            ),
            (
                EngineError::BudgetExceeded {
                    estimated: 10,
                    limit: 5,
                },
                "budget exceeded",
            ),
            (EngineError::SchemaMismatch("R".into()), "schema mismatch"),
            (EngineError::Io("gone".into()), "io error"),
            (
                EngineError::Parse {
                    line: 3,
                    message: "bad tuple".into(),
                },
                "line 3",
            ),
            (EngineError::WorkerPanic("boom".into()), "panicked"),
        ] {
            let rendered = err.to_string();
            assert!(rendered.contains(needle), "{rendered:?}");
            assert!(!rendered.contains('\n'), "{rendered:?}");
        }
    }

    #[test]
    fn db_errors_convert_to_schema_mismatch() {
        let e: EngineError = DbError::SchemaMismatch("R0".to_owned()).into();
        assert!(matches!(e, EngineError::SchemaMismatch(_)));
    }

    #[test]
    fn contain_panics_surfaces_worker_panic() {
        let r: Result<(), _> = contain_panics(|| panic!("kernel bug {}", 7));
        assert_eq!(r, Err(EngineError::WorkerPanic("kernel bug 7".into())));
        let ok = contain_panics(|| Ok(42));
        assert_eq!(ok, Ok(42));
        let err: Result<(), _> = contain_panics(|| Err(EngineError::Cancelled));
        assert_eq!(err, Err(EngineError::Cancelled));
    }

    #[cfg(feature = "failpoints")]
    mod failpoint_tests {
        use super::*;

        #[test]
        fn fail_at_nth_semijoin_trips_deterministically() {
            let gov = FailpointGovernor::new().fail_at_semijoin(2);
            assert!(gov.at_semijoin().is_ok());
            assert!(gov.at_semijoin().is_ok());
            assert_eq!(gov.at_semijoin(), Err(EngineError::Cancelled));
            assert_eq!(gov.semijoins_seen(), 3);
        }

        #[test]
        fn alloc_fail_bag_fires_only_for_the_armed_bag() {
            let gov = FailpointGovernor::new().alloc_fail_bag(1);
            assert!(gov.at_bag(0).is_ok());
            assert!(matches!(
                gov.at_bag(1),
                Err(EngineError::BudgetExceeded { .. })
            ));
        }

        #[test]
        fn panic_mode_panics_and_is_containable() {
            let gov = FailpointGovernor::new()
                .fail_at_semijoin(0)
                .fail_mode(FailMode::Panic);
            let r = contain_panics(|| gov.at_semijoin().map(|_| ()));
            assert!(matches!(r, Err(EngineError::WorkerPanic(_))));
        }
    }
}
