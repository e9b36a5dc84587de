//! Execution policy and worker pool: join-strategy selection, parallelism
//! knobs, and the leased worker threads behind the level-synchronous
//! Yannakakis engine.
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
//! [`ExecPolicy`] bundles the strategy with the parallelism knobs used by
//! the level-synchronous Yannakakis reducer and bottom-up join
//! ([`ExecCtx::full_reduce`], [`ExecCtx::yannakakis_join`]): how many worker
//! threads to lease from the shared [`WorkerPool`], the total-tuple threshold
//! below which parallel execution costs more than it saves, and the morsel
//! size of the work-pulling paths.
//!
//! [`ExecCtx`] is what a pipeline actually runs under: the policy plus the
//! three instrumentation sinks (metrics, governance, trace spans).  Every
//! pipeline has exactly one generic entry point, a method on it.
//!
//! # The worker pool
//!
//! Per-level `std::thread::scope` spawning dominates small tree levels (the
//! common case: a chain's levels are singletons and a star has exactly two),
//! so the parallel engine does not spawn per level.  Instead it leases
//! workers once per reducer/join call from a process-wide [`WorkerPool`] of
//! long-lived threads, feeds every level's jobs to them through channels,
//! and returns the workers when the call ends ([`WorkerLease`] returns them
//! on drop).  Jobs own their data (`'static` closures), which is what lets
//! safe Rust hand them to threads that outlive any one call.

use crate::govern::{Governor, NoopGovernor};
use crate::metrics::{MetricsSink, NoopMetrics};
use crate::trace::NoopTrace;
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};

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

/// Default morsel size for [`ExecPolicy::morsel_rows`]: the number of rows
/// one worker claims from a [`MorselQueue`] per pull.
///
/// Chosen so a morsel's row span (tens of KiB of handles at typical widths)
/// stays cache-friendly while keeping the queue's atomic traffic far below
/// per-row cost: a 10⁷-row probe is ~600 pulls, a 10⁵-row probe still
/// splits into enough morsels to balance a handful of workers.
pub const DEFAULT_MORSEL_ROWS: usize = 16_384;

/// A shared work queue over the row range `0..total`, handing out
/// fixed-size chunks ("morsels") to whoever asks next.
///
/// This is the engine's work-stealing primitive: instead of pre-slicing a
/// row range into one shard per worker (which serializes on the slowest
/// shard when selectivity is uneven), every worker loops
/// `while let Some(range) = queue.next()` and pulls the next unclaimed
/// morsel.  The cursor is a single atomic fetch-add, so claiming a morsel
/// is contention-free in practice at [`DEFAULT_MORSEL_ROWS`] granularity.
///
/// # Examples
///
/// ```
/// use reldb::exec::MorselQueue;
///
/// let q = MorselQueue::new(10, 4);
/// assert_eq!(q.morsels(), 3);
/// assert_eq!(q.next(), Some(0..4));
/// assert_eq!(q.next(), Some(4..8));
/// assert_eq!(q.next(), Some(8..10)); // final partial morsel
/// assert_eq!(q.next(), None);
/// ```
#[derive(Debug)]
pub struct MorselQueue {
    cursor: AtomicUsize,
    total: usize,
    morsel: usize,
}

impl MorselQueue {
    /// A queue over `0..total` rows in chunks of `morsel_rows` (clamped to
    /// at least 1).
    pub fn new(total: usize, morsel_rows: usize) -> Self {
        Self {
            cursor: AtomicUsize::new(0),
            total,
            morsel: morsel_rows.max(1),
        }
    }

    /// Claims the next unclaimed morsel, or `None` when the range is
    /// exhausted.  Safe to call from any number of threads; every row is
    /// handed out exactly once.
    pub fn next(&self) -> Option<Range<usize>> {
        let start = self.cursor.fetch_add(self.morsel, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        Some(start..self.total.min(start + self.morsel))
    }

    /// Total rows the queue spans.
    pub fn total(&self) -> usize {
        self.total
    }

    /// How many morsels the range splits into.
    pub fn morsels(&self) -> usize {
        self.total.div_ceil(self.morsel)
    }
}

/// How the Yannakakis reducer and join execute: join strategy plus the
/// worker-thread parallelism knobs.
///
/// # Examples
///
/// ```
/// use reldb::{ExecPolicy, JoinStrategy};
///
/// // The default policy: auto strategy, auto-detected worker count,
/// // sequential below the tuple threshold.
/// let policy = ExecPolicy::default();
/// assert_eq!(policy.strategy, JoinStrategy::Auto);
/// assert_eq!(policy.effective_threads(16), 1); // small input stays sequential
///
/// // A pinned policy for reproducible measurements.
/// let pinned = ExecPolicy::parallel(JoinStrategy::Auto, 2);
/// assert_eq!(pinned.effective_threads(1_000_000), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPolicy {
    /// Physical kernel selection for every join/semijoin.
    pub strategy: JoinStrategy,
    /// Worker threads for the level-synchronous reducer and join passes;
    /// `0` means auto-detect ([`std::thread::available_parallelism`]).
    pub threads: usize,
    /// Total database tuples below which execution stays sequential even
    /// when `threads > 1` (worker hand-off would dominate).
    pub parallel_threshold: usize,
    /// Rows per morsel for the work-pulling parallel paths (join probe
    /// sharding in the bottom-up join and bag materialization): workers claim
    /// chunks of this many rows from a shared [`MorselQueue`] instead of
    /// receiving one pre-sliced shard each.  Inputs smaller than one morsel
    /// fall back to the sequential kernel.  Defaults to
    /// [`DEFAULT_MORSEL_ROWS`]; `0` is treated as `1`.
    pub morsel_rows: usize,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self {
            strategy: JoinStrategy::Auto,
            threads: 0,
            parallel_threshold: 4096,
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }
}

impl ExecPolicy {
    /// A fully sequential policy with an explicit strategy — what the
    /// benchmarks use to isolate one kernel.
    pub fn sequential(strategy: JoinStrategy) -> Self {
        Self {
            strategy,
            threads: 1,
            parallel_threshold: usize::MAX,
            ..Self::default()
        }
    }

    /// A parallel policy pinned to `threads` pool workers that always
    /// engages (no tuple threshold) — what the benchmarks and CI use for
    /// reproducible worker counts.
    pub fn parallel(strategy: JoinStrategy, threads: usize) -> Self {
        Self {
            strategy,
            threads: threads.max(1),
            parallel_threshold: 0,
            ..Self::default()
        }
    }

    /// The worker count to actually use for a workload of `total_tuples`:
    /// resolves `threads == 0` to the machine's available parallelism and
    /// applies the sequential-fallback threshold.
    pub fn effective_threads(&self, total_tuples: usize) -> usize {
        if total_tuples < self.parallel_threshold {
            return 1;
        }
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            t => t,
        }
    }

    /// The morsel queue this policy prescribes for a scan of `rows` rows.
    pub fn morsels(&self, rows: usize) -> MorselQueue {
        MorselQueue::new(rows, self.morsel_rows)
    }

    /// Acquires the workers this policy wants for a workload of
    /// `total_tuples`: an inline (sequential) lease below the threshold,
    /// leased [`WorkerPool`] threads otherwise.
    pub fn lease(&self, total_tuples: usize) -> WorkerLease {
        WorkerPool::lease(self.effective_threads(total_tuples))
    }
}

/// What one engine call runs under: the [`ExecPolicy`] plus the three
/// instrumentation sinks — [`MetricsSink`], [`Governor`], and
/// [`TraceSink`](crate::TraceSink) — and nothing else.
///
/// Every pipeline has exactly **one** generic entry point, a method on this
/// type defined next to the pipeline it runs (the query engines, the
/// Yannakakis stages, [`Query`](crate::Query) execution, the single
/// operators — see the method list).  All return `Result<_, EngineError>`;
/// who is watching is a property of the context, not of a function name.
///
/// The context borrows everything and is `Copy`.  [`ExecCtx::new`] starts
/// with the three zero-sized no-op sinks and each builder call swaps one type
/// parameter, so an entry point is monomorphized per sink combination and
/// the all-no-op context compiles every hook away: the plain wrappers
/// ([`full_reduce`](crate::full_reduce()), [`Relation::join`](crate::Relation::join)…)
/// are the same code under `ExecCtx::new(&policy)` — one engine, not two.
///
/// # Examples
///
/// ```
/// # use reldb::{CollectingSink, CollectingTracer, Database, ExecCtx, ExecPolicy, QueryGovernor};
/// # use hypergraph::{EdgeId, Hypergraph};
/// # let mut db = Database::empty(Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap());
/// # db.insert_values(EdgeId(0), [1, 2]);
/// # db.insert_values(EdgeId(1), [2, 3]);
/// # let x = db.attributes(["A", "C"]).unwrap();
/// let policy = ExecPolicy::default();
/// let plain = ExecCtx::new(&policy).query_yannakakis(&db, &x)?;
///
/// // The same call, with whichever sinks the caller wants attached.
/// let (sink, gov, tracer) = (CollectingSink::new(), QueryGovernor::new(), CollectingTracer::new());
/// let ctx = ExecCtx::new(&policy).metrics(&sink).gov(&gov).trace(&tracer);
/// assert!(ctx.query_yannakakis(&db, &x)?.same_contents(&plain));
/// assert_eq!(sink.snapshot().semijoins.ops, 2);
/// assert!(!tracer.take().roots.is_empty());
/// # Ok::<(), reldb::EngineError>(())
/// ```
#[derive(Debug)]
pub struct ExecCtx<'a, M = NoopMetrics, G = NoopGovernor, T = NoopTrace> {
    /// Join strategy and parallelism knobs.
    pub policy: &'a ExecPolicy,
    /// Where kernels and drivers record what they did.
    pub metrics: &'a M,
    /// Who may abort the call: cancellation, deadline, memory budget.
    pub gov: &'a G,
    /// Where pipeline stages report their wall-clock spans.
    pub trace: &'a T,
}

impl<M, G, T> Clone for ExecCtx<'_, M, G, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M, G, T> Copy for ExecCtx<'_, M, G, T> {}

impl<'a> ExecCtx<'a> {
    /// A context that runs under `policy` with nobody watching.
    pub fn new(policy: &'a ExecPolicy) -> Self {
        Self {
            policy,
            metrics: &NoopMetrics,
            gov: &NoopGovernor,
            trace: &NoopTrace,
        }
    }
}

impl<'a, M, G, T> ExecCtx<'a, M, G, T> {
    /// The same context recording into `metrics`.
    pub fn metrics<M2>(self, metrics: &'a M2) -> ExecCtx<'a, M2, G, T> {
        ExecCtx {
            policy: self.policy,
            metrics,
            gov: self.gov,
            trace: self.trace,
        }
    }

    /// The same context checkpointed against `gov`.
    pub fn gov<G2>(self, gov: &'a G2) -> ExecCtx<'a, M, G2, T> {
        ExecCtx {
            policy: self.policy,
            metrics: self.metrics,
            gov,
            trace: self.trace,
        }
    }

    /// The same context reporting its stage spans into `trace`.
    pub fn trace<T2>(self, trace: &'a T2) -> ExecCtx<'a, M, G, T2> {
        ExecCtx {
            policy: self.policy,
            metrics: self.metrics,
            gov: self.gov,
            trace,
        }
    }
}

impl<M: MetricsSink, G: Governor, T> ExecCtx<'_, M, G, T> {
    /// Acquires the workers the policy wants for `total_tuples` of input
    /// ([`ExecPolicy::lease`]) and records the lease — the one place a
    /// pipeline leases, so each pipeline leases (and reports) exactly once
    /// for all its phases.
    pub(crate) fn lease(&self, total_tuples: usize) -> WorkerLease {
        let lease = self.policy.lease(total_tuples);
        if M::ENABLED {
            self.metrics
                .record_lease(lease.threads(), WorkerPool::idle_workers());
        }
        lease
    }

    /// Owned clones of the policy and the two sinks kernels consult, for a
    /// `'static` worker job to rebuild its context from.  Span hooks fire on
    /// the dispatching thread only, so the tracer stays behind.
    pub(crate) fn owned(&self) -> (ExecPolicy, M, G) {
        (self.policy.clone(), self.metrics.clone(), self.gov.clone())
    }
}

/// A unit of work handed to a worker thread: an owned closure.  Jobs carry
/// their data (`'static`) so they can outlive the call that created them —
/// results travel back through channels the job captures.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// What one job's completion reports back: `Ok` on success, or the caught
/// panic payload so the lease can re-raise it verbatim on the caller.
type JobResult = Result<(), Box<dyn Any + Send>>;

/// What a pool worker receives: a job plus the completion channel for the
/// batch it belongs to.
type WorkerMsg = (Job, Sender<JobResult>);

/// One long-lived pool thread, addressed by its private job channel.
struct PoolWorker {
    tx: Sender<WorkerMsg>,
    /// Set by the worker loop when a job panicked on this thread.  The loop
    /// itself survives the unwind and keeps serving the rest of the batch,
    /// but a thread that has unwound once is treated as suspect (thread-
    /// locals and any state a job leaked are in an unknown condition), so
    /// the lease retires it on return and spawns a replacement —
    /// self-healing instead of slow pool decay.
    poisoned: Arc<AtomicBool>,
}

impl PoolWorker {
    fn spawn() -> Self {
        let (tx, rx) = channel::<WorkerMsg>();
        let poisoned = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&poisoned);
        std::thread::Builder::new()
            .name("reldb-worker".to_owned())
            .spawn(move || Self::work(rx, flag))
            .expect("spawn pool worker");
        Self { tx, poisoned }
    }

    /// The worker loop: run jobs until the pool drops the channel.  A
    /// panicking job is caught and its payload shipped through the batch's
    /// completion channel so the lease can re-raise it on the caller's
    /// thread instead of deadlocking the batch; the worker marks itself
    /// poisoned so the lease can retire it afterwards.
    fn work(rx: Receiver<WorkerMsg>, poisoned: Arc<AtomicBool>) {
        while let Ok((job, done)) = rx.recv() {
            let result = catch_unwind(AssertUnwindSafe(job));
            if result.is_err() {
                poisoned.store(true, Ordering::Relaxed);
            }
            let _ = done.send(result);
        }
    }
}

/// The process-wide pool of long-lived worker threads behind the parallel
/// Yannakakis engine.
///
/// Threads are created lazily on first lease, handed out in batches
/// ([`WorkerPool::lease`]), and returned to the free list when the
/// [`WorkerLease`] drops — so repeated reducer/join calls (and every level
/// within one call) reuse the same threads instead of paying a spawn per
/// level.  Idle workers block on their channel and cost nothing.
pub struct WorkerPool;

fn free_workers() -> &'static Mutex<Vec<PoolWorker>> {
    static FREE: OnceLock<Mutex<Vec<PoolWorker>>> = OnceLock::new();
    FREE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Total pool workers retired-and-replaced after a panicking job poisoned
/// them — the deterministic observability hook behind the self-healing
/// tests.
static RESPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Total worker threads spawned at lease time because the free list could
/// not cover the request — the "pool lease wait" signal `hyperqd`'s stats
/// registry exposes (a warm pool keeps this flat; growth under steady load
/// means leases are contending for workers).
static LEASE_SPAWNED: AtomicUsize = AtomicUsize::new(0);

impl WorkerPool {
    /// Leases `threads` workers from the pool, spawning new threads only if
    /// the free list cannot cover the request.  The workers are returned
    /// when the lease drops.
    pub fn lease(threads: usize) -> WorkerLease {
        if threads <= 1 {
            return WorkerLease::inline();
        }
        let mut workers = {
            let mut free = free_workers().lock().expect("worker pool lock");
            let at = free.len() - free.len().min(threads);
            free.split_off(at)
        };
        while workers.len() < threads {
            workers.push(PoolWorker::spawn());
            LEASE_SPAWNED.fetch_add(1, Ordering::Relaxed);
        }
        WorkerLease {
            mode: LeaseMode::Pooled(workers),
        }
    }

    /// Number of idle workers currently parked in the pool — observability
    /// for the lease/return cycle (tests assert workers come back).
    pub fn idle_workers() -> usize {
        free_workers().lock().expect("worker pool lock").len()
    }

    /// Process-lifetime count of pool workers that were retired after a
    /// panicking job and replaced with fresh threads at lease return —
    /// observability for the pool's self-healing (a healthy process keeps
    /// this at `0`).
    pub fn respawned_workers() -> usize {
        RESPAWNED.load(Ordering::Relaxed)
    }

    /// Process-lifetime count of worker threads spawned at lease time
    /// because the free list could not cover the request — the lease-wait
    /// counter behind the server stats registry.  Flat under steady load;
    /// growing means concurrent leases exceed the pool's high-water mark.
    pub fn lease_spawned_workers() -> usize {
        LEASE_SPAWNED.load(Ordering::Relaxed)
    }
}

enum LeaseMode {
    /// No workers: run batches inline on the caller thread.
    Inline,
    /// Leased long-lived pool threads.
    Pooled(Vec<PoolWorker>),
}

/// A batch executor over some worker threads, handed out by
/// [`WorkerPool::lease`] (or [`WorkerLease::inline`]).  Dropping a pooled
/// lease returns its workers to the pool.
pub struct WorkerLease {
    mode: LeaseMode,
}

impl WorkerLease {
    /// A lease with no workers: [`WorkerLease::run`] executes inline.
    pub fn inline() -> Self {
        Self {
            mode: LeaseMode::Inline,
        }
    }

    /// How many workers batches are spread across (`1` = inline).
    pub fn threads(&self) -> usize {
        match &self.mode {
            LeaseMode::Inline => 1,
            LeaseMode::Pooled(w) => w.len(),
        }
    }

    /// Runs a batch of jobs to completion.  Jobs are distributed round-robin
    /// across the leased workers; the call returns only after every job has
    /// finished, so borrow-free batches can be sequenced safely.
    ///
    /// # Panics
    /// If a job panicked, its payload is re-raised on the calling thread —
    /// after the whole batch has finished, so no job is left running
    /// through the caller's unwind.
    pub fn run(&self, jobs: Vec<Job>) {
        match &self.mode {
            LeaseMode::Inline => {
                for job in jobs {
                    job();
                }
            }
            LeaseMode::Pooled(workers) => {
                let (done_tx, done_rx) = channel();
                let mut dispatched = 0usize;
                let mut first_panic: Option<Box<dyn Any + Send>> = None;
                for (i, job) in jobs.into_iter().enumerate() {
                    match workers[i % workers.len()].tx.send((job, done_tx.clone())) {
                        Ok(()) => dispatched += 1,
                        // The worker thread is gone (job panics are caught,
                        // so this means the thread itself died).  Run the
                        // job inline rather than losing it or unwinding
                        // with jobs undispatched.
                        Err(send_err) => {
                            let (job, _) = send_err.0;
                            if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                                first_panic.get_or_insert(payload);
                            }
                        }
                    }
                }
                drop(done_tx);
                // Drain the whole batch before re-raising, preserving the
                // first panic's payload.
                for _ in 0..dispatched {
                    match done_rx.recv() {
                        Ok(Ok(())) => {}
                        Ok(Err(payload)) => {
                            first_panic.get_or_insert(payload);
                        }
                        // Every completion sender is gone with jobs still
                        // pending: a worker died mid-job.  Surface it as a
                        // panic payload instead of unwinding the runtime
                        // with an expect.
                        Err(_) => {
                            first_panic.get_or_insert(Box::new(
                                "pool worker died with jobs pending".to_owned(),
                            )
                                as Box<dyn Any + Send>);
                            break;
                        }
                    }
                }
                if let Some(payload) = first_panic {
                    resume_unwind(payload);
                }
            }
        }
    }
}

impl Drop for WorkerLease {
    fn drop(&mut self) {
        if let LeaseMode::Pooled(workers) = &mut self.mode {
            // Self-healing: poisoned workers (a job panicked on them) are
            // retired here — dropping the handle closes the channel and the
            // old thread exits — and replaced with fresh spawns, so the
            // pool returns to full strength instead of accumulating suspect
            // threads.
            let mut returned: Vec<PoolWorker> = workers
                .drain(..)
                .map(|w| {
                    if w.poisoned.load(Ordering::Relaxed) {
                        RESPAWNED.fetch_add(1, Ordering::Relaxed);
                        drop(w);
                        PoolWorker::spawn()
                    } else {
                        w
                    }
                })
                .collect();
            free_workers()
                .lock()
                .expect("worker pool lock")
                .append(&mut returned);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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

    #[test]
    fn effective_threads_applies_threshold_and_pin() {
        let p = ExecPolicy::parallel(JoinStrategy::Hash, 4);
        assert_eq!(p.effective_threads(0), 4);
        assert_eq!(p.effective_threads(1_000_000), 4);
        let s = ExecPolicy::sequential(JoinStrategy::Hash);
        assert_eq!(s.effective_threads(1_000_000), 1);
        let auto = ExecPolicy::default();
        assert_eq!(
            auto.effective_threads(10),
            1,
            "below threshold stays sequential"
        );
        assert!(auto.effective_threads(1_000_000) >= 1);
    }

    #[test]
    fn morsel_queue_covers_range_exactly_once() {
        let q = MorselQueue::new(100, 32);
        assert_eq!(q.total(), 100);
        assert_eq!(q.morsels(), 4);
        let mut seen = [false; 100];
        while let Some(r) = q.next() {
            for i in r {
                assert!(!seen[i], "row {i} handed out twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "queue skipped rows");
        assert_eq!(q.next(), None, "exhausted queue stays exhausted");
        // Degenerate shapes.
        assert_eq!(MorselQueue::new(0, 8).next(), None);
        assert_eq!(MorselQueue::new(5, 0).next(), Some(0..1)); // clamped to 1
        assert_eq!(MorselQueue::new(3, 100).next(), Some(0..3));
    }

    /// Concurrent pullers partition the range: no row is claimed twice and
    /// none is dropped, whatever the interleaving.
    #[test]
    fn morsel_queue_is_safe_under_concurrent_pull() {
        let q = Arc::new(MorselQueue::new(10_000, 7));
        let claimed = Arc::new(AtomicUsize::new(0));
        let lease = WorkerPool::lease(4);
        let jobs: Vec<Job> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                let claimed = Arc::clone(&claimed);
                Box::new(move || {
                    while let Some(r) = q.next() {
                        claimed.fetch_add(r.len(), Ordering::SeqCst);
                    }
                }) as Job
            })
            .collect();
        lease.run(jobs);
        assert_eq!(claimed.load(Ordering::SeqCst), 10_000);
        assert_eq!(q.next(), None);
    }

    #[test]
    fn policy_carries_morsel_rows() {
        assert_eq!(ExecPolicy::default().morsel_rows, DEFAULT_MORSEL_ROWS);
        let p = ExecPolicy {
            morsel_rows: 64,
            ..ExecPolicy::parallel(JoinStrategy::Hash, 2)
        };
        let q = p.morsels(130);
        assert_eq!(q.morsels(), 3);
    }

    /// Every lease mode runs every job exactly once and waits for all of
    /// them before returning.
    #[test]
    fn leases_run_all_jobs_to_completion() {
        for lease in [WorkerLease::inline(), WorkerPool::lease(3)] {
            let counter = Arc::new(AtomicUsize::new(0));
            let jobs: Vec<Job> = (0..17)
                .map(|_| {
                    let c = Arc::clone(&counter);
                    Box::new(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    }) as Job
                })
                .collect();
            lease.run(jobs);
            assert_eq!(counter.load(Ordering::SeqCst), 17);
            // A second batch on the same lease works too (reuse in one call).
            let c = Arc::clone(&counter);
            lease.run(vec![Box::new(move || {
                c.fetch_add(10, Ordering::SeqCst);
            })]);
            assert_eq!(counter.load(Ordering::SeqCst), 27);
        }
    }

    /// Dropping a pooled lease returns its workers: a subsequent lease can
    /// be served and the free list refills.
    #[test]
    fn pooled_workers_are_returned_on_drop() {
        // Two overlapping leases force distinct worker sets to exist.
        let a = WorkerPool::lease(3);
        let b = WorkerPool::lease(2);
        assert_eq!(a.threads(), 3);
        assert_eq!(b.threads(), 2);
        drop(a);
        drop(b);
        // The free list is process-wide and other tests lease from it
        // concurrently, so poll instead of asserting a snapshot: the five
        // returned workers cannot all stay leased-out forever.
        for _ in 0..200 {
            if WorkerPool::idle_workers() >= 1 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("dropped lease never returned workers to the pool");
    }

    #[test]
    fn policy_lease_respects_threshold_mode_and_pool_flag() {
        let seq = ExecPolicy::sequential(JoinStrategy::Hash);
        assert_eq!(seq.lease(1_000_000).threads(), 1);
        let pooled = ExecPolicy::parallel(JoinStrategy::Hash, 2);
        assert_eq!(pooled.lease(0).threads(), 2);
        // Below the threshold every mode degrades to inline.
        let auto = ExecPolicy::default();
        assert_eq!(auto.lease(1).threads(), 1);
    }

    /// A panicking job on a pool worker surfaces as a panic on the calling
    /// thread (the pool must not deadlock on a lost job), and the original
    /// payload survives the trip — a parallel-only failure must be as
    /// debuggable as a sequential one.
    #[test]
    fn panicking_jobs_propagate_with_payload() {
        let lease = WorkerPool::lease(2);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            lease.run(vec![
                Box::new(|| {}) as Job,
                Box::new(|| panic!("boom in job")) as Job,
            ]);
        }));
        let payload = boom.expect_err("job panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned());
        assert_eq!(msg.as_deref(), Some("boom in job"));
        // The lease stays usable afterwards.
        lease.run(vec![Box::new(|| {}) as Job]);
    }

    /// A panicking job poisons its pool worker; returning the lease retires
    /// that worker and spawns a replacement, so the pool recovers to full
    /// strength — `idle_workers` refills and later leases run fine.
    #[test]
    fn pool_recovers_full_strength_after_a_panic() {
        let lease = WorkerPool::lease(2);
        let respawned_before = WorkerPool::respawned_workers();
        let boom = catch_unwind(AssertUnwindSafe(|| {
            lease.run(vec![Box::new(|| panic!("poison the worker")) as Job]);
        }));
        assert!(boom.is_err(), "the job panic must propagate");
        drop(lease); // retires the poisoned worker, spawns its replacement
        assert!(
            WorkerPool::respawned_workers() > respawned_before,
            "returning a lease with a poisoned worker must respawn it"
        );
        // Both leased workers come back (the survivor plus the fresh
        // replacement).  The free list is process-wide and other tests
        // lease from it concurrently, so poll rather than snapshotting.
        for _ in 0..200 {
            if WorkerPool::idle_workers() >= 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(
            WorkerPool::idle_workers() >= 2,
            "pool never recovered to full strength after the panic"
        );
        // And the recovered pool is healthy: a fresh lease runs a batch.
        let counter = Arc::new(AtomicUsize::new(0));
        let fresh = WorkerPool::lease(2);
        let jobs: Vec<Job> = (0..8)
            .map(|_| {
                let c = Arc::clone(&counter);
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as Job
            })
            .collect();
        fresh.run(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }
}
