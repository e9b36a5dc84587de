//! Property suite for the governance layer: limits must bound the engine,
//! never corrupt it.
//!
//! Three invariant families over random acyclic *and* cyclic databases:
//!
//! 1. **Transparency** — a governor with no limits set yields tuple-for-tuple
//!    the same answer as the ungoverned path (the same entry point under a
//!    context whose governor is the no-op).
//! 2. **No wrong answers** — a racing deadline either returns the correct
//!    answer or `Err(DeadlineExceeded)`; it never returns a wrong relation.
//! 3. **Abort hygiene** — however a query is aborted (cancellation, a zero
//!    deadline, a starved budget, or an injected failpoint), the loaded
//!    database is left bit-identical and the next ungoverned query over it
//!    still matches the naive-join oracle.

use acyclic_hypergraphs::acyclic::join_tree;
use acyclic_hypergraphs::hypergraph::EdgeId;
use acyclic_hypergraphs::hypergraph::{Hypergraph, NodeSet};
use acyclic_hypergraphs::reldb::govern::CHECK_BATCH;
use acyclic_hypergraphs::reldb::{
    full_reduce, query_via_full_join, query_yannakakis, CancelToken, CollectingSink, Database,
    EngineError, ExecCtx, ExecPolicy, Governor, JoinStrategy, Query, QueryGovernor, Tuple,
};
use acyclic_hypergraphs::workload::{
    chain, far_apart, random_database, ring, snowflake, star, DataParams,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Acyclic benchmark families plus the cyclic ring, so the governed paths
/// through both the join tree and the hypertree decomposition are covered.
fn schema(family: usize, shape: usize) -> Hypergraph {
    match family % 4 {
        0 => chain(2 + shape % 4, 2 + shape % 2, 1),
        1 => star(2 + shape % 4, 2),
        2 => snowflake(2 + shape % 2, 2, 2),
        _ => ring(4 + shape % 3),
    }
}

fn db_for(family: usize, shape: usize, tuples: usize, domain: i64, seed: u64) -> Database {
    random_database(
        &schema(family, shape),
        DataParams {
            tuples_per_relation: tuples,
            domain,
            skew: 0.0,
            key_cap: 0,
        },
        seed,
    )
}

/// Output attributes selected by a bitmask, never empty.
fn select(db: &Database, selector: u64) -> NodeSet {
    let nodes: Vec<_> = db.schema().nodes().iter().collect();
    let x: NodeSet = nodes
        .iter()
        .enumerate()
        .filter(|(i, _)| selector & (1 << (i % 63)) != 0)
        .map(|(_, &n)| n)
        .collect();
    if x.is_empty() {
        std::iter::once(nodes[0]).collect()
    } else {
        x
    }
}

/// `π_x σ_{first attribute = 0}`: a [`Query`] with a selection, for the two
/// engines of the declarative layer.
fn selecting(db: &Database, x: &NodeSet) -> Query {
    let first = db.schema().nodes().iter().next().expect("nonempty schema");
    Query::new().select_all(x.iter()).filter_eq(first, 0)
}

/// The database's observable state: every relation's exact tuple sequence.
fn snapshot(db: &Database) -> Vec<Vec<Tuple>> {
    db.relations()
        .iter()
        .map(|r| r.tuples().collect())
        .collect()
}

/// Asserts the strongest abort guarantee: the database is bit-identical to
/// `before`, and a fresh ungoverned query still matches the oracle.
fn assert_untouched(db: &Database, before: &[Vec<Tuple>], x: &NodeSet) {
    assert_eq!(snapshot(db), before, "abort mutated the database");
    let oracle = query_via_full_join(db, x);
    let after = query_yannakakis(db, x).expect("post-abort query must succeed");
    assert!(
        after.same_contents(&oracle),
        "post-abort query disagrees with the oracle"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Transparency: a governor with no limits is invisible — the reducer
    /// and the routed Yannakakis query agree tuple-for-tuple with the
    /// ungoverned paths.
    #[test]
    fn unlimited_governor_does_not_perturb_results(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..16,
        domain in 1i64..5,
        seed in any::<u64>(),
        selector in any::<u64>(),
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        let x = select(&db, selector);
        let policy = ExecPolicy::default();
        let gov = QueryGovernor::new();
        if let Some(tree) = join_tree(db.schema()) {
            let governed = ExecCtx::new(&policy).gov(&gov).full_reduce(&db, &tree)
                .expect("no limit can trip");
            let plain = full_reduce(&db, &tree);
            prop_assert_eq!(&governed.removed, &plain.removed);
            for (g, p) in governed.relations.iter().zip(&plain.relations) {
                prop_assert!(g.same_contents(p), "governed reducer changed a relation");
            }
        }
        let governed = ExecCtx::new(&policy).gov(&gov).query_yannakakis(&db, &x)
            .expect("no limit can trip");
        let plain = query_yannakakis(&db, &x).expect("ungoverned query");
        prop_assert!(governed.same_contents(&plain), "governed query changed the answer");
        let (q, ctx) = (selecting(&db, &x), ExecCtx::new(&policy).gov(&gov));
        let governed = ctx.execute(&q, &db).expect("no limit can trip");
        prop_assert!(governed.same_contents(&q.execute(&db)), "governed Query::execute");
        let governed = ctx.execute_yannakakis(&q, &db).expect("no limit can trip");
        let plain = q.execute_yannakakis(&db).expect("ungoverned query");
        prop_assert!(governed.same_contents(&plain), "governed Query::execute_yannakakis");
    }

    /// No wrong answers under deadline pressure: whatever instant the clock
    /// runs out, the governed query either completes correctly or surfaces
    /// `DeadlineExceeded` — never a wrong relation, never a panic.
    #[test]
    fn racing_deadline_is_timeout_or_correct_never_wrong(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..16,
        domain in 1i64..5,
        seed in any::<u64>(),
        selector in any::<u64>(),
        deadline_us in 0u64..200,
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        let x = select(&db, selector);
        let gov = QueryGovernor::new().with_deadline(Duration::from_micros(deadline_us));
        match ExecCtx::new(&ExecPolicy::default()).gov(&gov).query_yannakakis(&db, &x) {
            Ok(answer) => {
                let oracle = query_via_full_join(&db, &x);
                prop_assert!(answer.same_contents(&oracle),
                    "a governed query beat its deadline with a wrong answer");
            }
            Err(EngineError::DeadlineExceeded { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected abort: {other}"),
        }
    }

    /// Abort hygiene: cancellation, a zero deadline and a one-byte budget
    /// all abort with the documented error, leave the database bit-identical
    /// and keep the next query correct.
    #[test]
    fn aborted_query_leaves_database_unchanged(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..16,
        domain in 1i64..5,
        seed in any::<u64>(),
        selector in any::<u64>(),
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        let x = select(&db, selector);
        let policy = ExecPolicy::default();
        let before = snapshot(&db);

        let token = CancelToken::new();
        token.cancel();
        let gov = QueryGovernor::with_token(token);
        match ExecCtx::new(&policy).gov(&gov).query_yannakakis(&db, &x) {
            Err(EngineError::Cancelled) => {}
            other => prop_assert!(false, "cancelled token must abort, got {other:?}"),
        }
        assert_untouched(&db, &before, &x);

        let gov = QueryGovernor::new().with_deadline(Duration::ZERO);
        match ExecCtx::new(&policy).gov(&gov).query_yannakakis(&db, &x) {
            Err(EngineError::DeadlineExceeded { .. }) => {}
            other => prop_assert!(false, "zero deadline must abort, got {other:?}"),
        }
        assert_untouched(&db, &before, &x);
        let (q, ctx) = (selecting(&db, &x), ExecCtx::new(&policy).gov(&gov));
        match ctx.execute_yannakakis(&q, &db) {
            Err(EngineError::DeadlineExceeded { .. }) => {}
            other => prop_assert!(false, "zero deadline must abort, got {other:?}"),
        }
        match ctx.execute(&q, &db) {
            Err(EngineError::DeadlineExceeded { .. }) => {}
            // The connection plan only checkpoints inside a join of two
            // nonempty operands; without one it legitimately finishes.
            Ok(answer) => prop_assert!(answer.same_contents(&q.execute(&db))),
            Err(other) => prop_assert!(false, "unexpected abort: {other}"),
        }
        assert_untouched(&db, &before, &x);

        // One byte of budget: anything that materializes a row trips; a
        // query whose every intermediate is empty may legitimately finish.
        let gov = QueryGovernor::new().with_memory_budget(1);
        match ExecCtx::new(&policy).gov(&gov).query_yannakakis(&db, &x) {
            Err(EngineError::BudgetExceeded { .. }) => {}
            Ok(answer) => {
                let oracle = query_via_full_join(&db, &x);
                prop_assert!(answer.same_contents(&oracle),
                    "a starved query that finished must still be correct");
            }
            Err(other) => prop_assert!(false, "unexpected abort: {other}"),
        }
        assert_untouched(&db, &before, &x);
    }
}

/// A governor that cancels its own query at the `trip_at`-th in-kernel
/// [`Governor::checkpoint`] (0-based) — a fault that lands *inside* a mask
/// loop, where the operation-level checkpoints cannot put one.  It also sums
/// the words (`rows × width`) the kernels charge through `approve_alloc`.
#[derive(Clone)]
struct TripAtCheckpoint {
    base: QueryGovernor,
    seen: Arc<AtomicU64>,
    words: Arc<AtomicU64>,
    trip_at: u64,
}

impl TripAtCheckpoint {
    fn new(trip_at: u64) -> Self {
        Self {
            base: QueryGovernor::new(),
            seen: Arc::default(),
            words: Arc::default(),
            trip_at,
        }
    }

    /// A governor that only counts: nothing ever trips it.
    fn never() -> Self {
        Self::new(u64::MAX)
    }

    fn checkpoints_seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// `(checkpoints seen, words charged)` so far.
    fn totals(&self) -> (u64, u64) {
        (self.checkpoints_seen(), self.words.load(Ordering::Relaxed))
    }
}

impl Governor for TripAtCheckpoint {
    const ENABLED: bool = true;

    fn checkpoint(&self) -> Result<(), EngineError> {
        if self.seen.fetch_add(1, Ordering::Relaxed) == self.trip_at {
            self.base.token().cancel();
        }
        self.base.checkpoint()
    }

    fn approve_alloc(&self, rows: u64, width: usize) -> Result<(), EngineError> {
        self.words.fetch_add(rows * width as u64, Ordering::Relaxed);
        Ok(())
    }
}

/// Rows per relation of [`two_big_relations`]: a partial fourth batch on top
/// of three full ones, so both mask loops checkpoint four times.
const BIG_ROWS: usize = 3 * CHECK_BATCH + 100;

/// `R(A,B)` and `S(B,C)` over one pool of `BIG_ROWS` values, sized so the
/// semijoin's packed key space fits and `Auto` takes the dense kernel.  `B`
/// ranges over 0..5000 in `R` and 2500..6000 in `S`, so rows dangle on both
/// sides and either reducer pass has something to remove.
fn two_big_relations() -> Database {
    let mut db = Database::empty(chain(2, 2, 1));
    for i in 0..BIG_ROWS as i64 {
        db.insert_values(EdgeId(0), [i, i % 5000]);
        db.insert_values(EdgeId(1), [2500 + i % 3500, i]);
    }
    db
}

/// Abort hygiene inside the dense semijoin kernel: a fault at *any* of its
/// batch checkpoints (build loop or probe loop), a zero deadline and a
/// cancelled token all return the structured error with the target relation
/// bit-identical, and the whole-reducer form leaves `db` bit-identical.
#[test]
fn dense_mask_aborts_cleanly_at_every_checkpoint() {
    let db = two_big_relations();
    let policy = ExecPolicy::sequential(JoinStrategy::Auto);
    let (target, source) = (&db.relations()[0], &db.relations()[1]);
    let want = target.semijoin(source);
    assert!(!want.is_empty() && want.len() < target.len());

    // A clean governed run: the dense kernel, one checkpoint per
    // `CHECK_BATCH` rows of each loop.
    let batches = 2 * BIG_ROWS.div_ceil(CHECK_BATCH) as u64;
    let gov = TripAtCheckpoint::new(u64::MAX);
    let sink = CollectingSink::new();
    let mut reduced = target.clone();
    let removed = ExecCtx::new(&policy)
        .metrics(&sink)
        .gov(&gov)
        .retain_semijoin(&mut reduced, source)
        .expect("nothing trips");
    assert_eq!(sink.snapshot().semijoins.dense_ops, 1);
    assert_eq!(gov.checkpoints_seen(), batches);
    assert_eq!(removed, target.len() - want.len());
    assert!(reduced.same_contents(&want));

    // The same semijoin, cancelled at each of those checkpoints in turn.
    for trip_at in 0..batches {
        let gov = TripAtCheckpoint::new(trip_at);
        let mut victim = target.clone();
        let got = ExecCtx::new(&policy)
            .gov(&gov)
            .retain_semijoin(&mut victim, source);
        assert_eq!(got, Err(EngineError::Cancelled), "checkpoint {trip_at}");
        assert_eq!(gov.checkpoints_seen(), trip_at + 1, "aborted on the spot");
        assert_eq!(victim.len(), target.len());
        assert_eq!(
            victim.handle_rows(),
            target.handle_rows(),
            "checkpoint {trip_at}"
        );
    }

    // A zero deadline and a cancelled token abort before the mask starts.
    let token = CancelToken::new();
    token.cancel();
    for (gov, cancelled) in [
        (QueryGovernor::new().with_deadline(Duration::ZERO), false),
        (QueryGovernor::with_token(token), true),
    ] {
        let mut victim = target.clone();
        match ExecCtx::new(&policy)
            .gov(&gov)
            .retain_semijoin(&mut victim, source)
        {
            Err(EngineError::Cancelled) if cancelled => {}
            Err(EngineError::DeadlineExceeded { .. }) if !cancelled => {}
            other => panic!("expected a structured abort, got {other:?}"),
        }
        assert_eq!(victim.handle_rows(), target.handle_rows());
    }

    // Through the reducer: the abort lands in the downward pass (whose
    // build side the upward pass has shrunk to two or three batches), after
    // the upward semijoin already compacted the reducer's working copy.
    let tree = join_tree(db.schema()).expect("chains are acyclic");
    let before = snapshot(&db);
    let plain = full_reduce(&db, &tree);
    assert!(plain.removed.iter().all(|&n| n > 0));
    for trip_at in [batches, batches + 2, batches + 5] {
        let gov = TripAtCheckpoint::new(trip_at);
        let got = ExecCtx::new(&policy).gov(&gov).full_reduce(&db, &tree);
        assert_eq!(
            got.err(),
            Some(EngineError::Cancelled),
            "checkpoint {trip_at}"
        );
        assert_eq!(snapshot(&db), before, "abort mutated the database");
    }
    let again = full_reduce(&db, &tree);
    assert_eq!(again.removed, plain.removed);
}

/// A four-edge chain with `BIG_ROWS` arithmetic rows per relation: every
/// relation dangles somewhere, and the all-attributes answer outgrows two
/// `CHECK_BATCH`es, so the join kernels checkpoint and charge mid-loop.
fn big_chain() -> Database {
    let mut db = Database::empty(chain(4, 2, 1));
    for e in 0..4u32 {
        let shift = 700 * i64::from(e);
        for i in 0..BIG_ROWS as i64 {
            db.insert_values(EdgeId(e), [(i + shift) % 9000, (i * 3) % 9000]);
        }
    }
    db
}

/// A lease in the policy never reaches a semijoin: on a chain (singleton
/// levels) whose relations span several morsels, the pinned-hash reducer on
/// two workers fires exactly the in-kernel checkpoints of the sequential
/// one, and a cancellation at each of them leaves `db` bit-identical.
#[test]
fn parallel_policy_reduces_a_chain_with_the_sequential_checkpoints() {
    let db = big_chain();
    let tree = join_tree(db.schema()).expect("chains are acyclic");
    let before = snapshot(&db);
    let sequential = ExecPolicy::sequential(JoinStrategy::Hash);
    let parallel = ExecPolicy {
        morsel_rows: CHECK_BATCH,
        ..ExecPolicy::parallel(JoinStrategy::Hash, 2)
    };
    let untripped = |policy| {
        let gov = TripAtCheckpoint::never();
        let got = ExecCtx::new(policy).gov(&gov).full_reduce(&db, &tree);
        (gov.totals(), got.expect("nothing trips").removed)
    };
    let want = untripped(&sequential);
    let checkpoints = want.0 .0;
    assert!(checkpoints > 8, "every mask loop spans several batches");
    assert_eq!(untripped(&parallel), want);
    for policy in [&sequential, &parallel] {
        for trip_at in 0..checkpoints {
            let gov = TripAtCheckpoint::new(trip_at);
            let got = ExecCtx::new(policy).gov(&gov).full_reduce(&db, &tree);
            assert_eq!(got.err(), Some(EngineError::Cancelled), "{trip_at}");
            assert_eq!(gov.checkpoints_seen(), trip_at + 1, "aborted on the spot");
            assert_eq!(snapshot(&db), before, "abort mutated the database");
        }
    }
}

/// Governance is unchanged by how the join kernels emit rows: the in-kernel
/// checkpoint count and the words charged to the budget are the totals the
/// parent commit (PR 13, per-row dedup on every emitted row) read on the same
/// inputs — the numbers below were recorded there.
#[test]
fn join_governance_totals_match_the_recorded_ones() {
    let db = two_big_relations();
    let (r, s) = (&db.relations()[0], &db.relations()[1]);
    for (strategy, want) in [
        (JoinStrategy::Hash, RECORDED_HASH_JOIN),
        (JoinStrategy::SortMerge, RECORDED_SORT_MERGE_JOIN),
    ] {
        let gov = TripAtCheckpoint::never();
        let policy = ExecPolicy::sequential(strategy);
        let out = ExecCtx::new(&policy)
            .gov(&gov)
            .join(r, s)
            .expect("nothing trips");
        assert_eq!(out.len(), RECORDED_JOIN_ROWS, "{strategy:?}");
        assert_eq!(gov.totals(), want, "{strategy:?}");
    }

    let db = big_chain();
    let tree = join_tree(db.schema()).expect("chains are acyclic");
    let (all, ends) = (db.schema().nodes(), far_apart(db.schema()));
    for (x, want_rows, want) in [
        (&all, RECORDED_CHAIN_ALL_ROWS, RECORDED_CHAIN_ALL),
        (&ends, RECORDED_CHAIN_ENDS_ROWS, RECORDED_CHAIN_ENDS),
    ] {
        let gov = TripAtCheckpoint::never();
        let policy = ExecPolicy::sequential(JoinStrategy::Auto);
        let out = ExecCtx::new(&policy)
            .gov(&gov)
            .yannakakis_join(&db, &tree, x)
            .expect("nothing trips");
        assert_eq!(out.len(), want_rows);
        assert_eq!(gov.totals(), want);
    }
}

/// `(in-kernel checkpoints, words charged)` read at the parent commit.
const RECORDED_HASH_JOIN: (u64, u64) = (8, 81_104);
const RECORDED_SORT_MERGE_JOIN: (u64, u64) = (7, 81_104);
const RECORDED_JOIN_ROWS: usize = 18_776;
const RECORDED_CHAIN_ALL: (u64, u64) = (37, 118_000);
const RECORDED_CHAIN_ALL_ROWS: usize = 9_000;
const RECORDED_CHAIN_ENDS: (u64, u64) = (37, 91_000);
const RECORDED_CHAIN_ENDS_ROWS: usize = 9_000;

/// Cancelling at the n-th in-kernel checkpoint of a join — whichever kernel,
/// wherever in its build or emit loop — returns `Cancelled` on the spot with
/// both inputs bit-identical; through the whole pipeline, `db` is.
#[test]
fn join_cancelled_at_any_checkpoint_leaves_inputs_untouched() {
    let db = two_big_relations();
    let (r, s) = (&db.relations()[0], &db.relations()[1]);
    let (r_rows, s_rows) = (r.handle_rows().to_vec(), s.handle_rows().to_vec());
    for (strategy, recorded) in [
        (JoinStrategy::Hash, RECORDED_HASH_JOIN),
        (JoinStrategy::SortMerge, RECORDED_SORT_MERGE_JOIN),
    ] {
        let policy = ExecPolicy::sequential(strategy);
        for trip_at in 0..recorded.0 {
            let gov = TripAtCheckpoint::new(trip_at);
            let got = ExecCtx::new(&policy).gov(&gov).join(r, s);
            assert_eq!(
                got.err(),
                Some(EngineError::Cancelled),
                "{strategy:?} checkpoint {trip_at}"
            );
            assert_eq!(gov.checkpoints_seen(), trip_at + 1, "aborted on the spot");
            assert_eq!(r.handle_rows(), r_rows);
            assert_eq!(s.handle_rows(), s_rows);
        }
    }

    let db = big_chain();
    let tree = join_tree(db.schema()).expect("chains are acyclic");
    let all: NodeSet = db.schema().nodes();
    let before = snapshot(&db);
    let policy = ExecPolicy::sequential(JoinStrategy::Auto);
    for trip_at in [0, RECORDED_CHAIN_ALL.0 / 2, RECORDED_CHAIN_ALL.0 - 1] {
        let gov = TripAtCheckpoint::new(trip_at);
        let got = ExecCtx::new(&policy)
            .gov(&gov)
            .yannakakis_join(&db, &tree, &all);
        assert_eq!(
            got.err(),
            Some(EngineError::Cancelled),
            "checkpoint {trip_at}"
        );
        assert_eq!(snapshot(&db), before, "abort mutated the database");
    }
}

#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;
    use acyclic_hypergraphs::decomp::{decompose, Heuristic};
    use acyclic_hypergraphs::reldb::{FailMode, FailpointGovernor};
    use acyclic_hypergraphs::workload::hyper_ring;

    /// An injected failpoint at either semijoin of the big dense reduction
    /// (error and panic flavor) surfaces structurally and leaves the
    /// database bit-identical.
    #[test]
    fn failpoint_during_dense_reduction_leaves_database_unchanged() {
        let db = two_big_relations();
        let x: NodeSet = db.schema().nodes();
        let before = snapshot(&db);
        let policy = ExecPolicy::sequential(JoinStrategy::Auto);
        for nth in 0..2 {
            for mode in [FailMode::Error, FailMode::Panic] {
                let gov = FailpointGovernor::new()
                    .fail_at_semijoin(nth)
                    .fail_mode(mode);
                match ExecCtx::new(&policy).gov(&gov).query_yannakakis(&db, &x) {
                    Err(EngineError::Cancelled) if mode == FailMode::Error => {}
                    Err(EngineError::WorkerPanic(_)) if mode == FailMode::Panic => {}
                    other => panic!("semijoin {nth} {mode:?}: got {other:?}"),
                }
                assert_eq!(snapshot(&db), before, "abort mutated the database");
            }
        }
    }

    /// Bags build children-first, so a bag's checkpoint fires after its
    /// children's relations exist.  A refused allocation at the root bag
    /// (built last) or at a middle bag still aborts with the database
    /// byte-identical, and an untripped run reports the bags in bag-index
    /// order — on `ring(8)` and on `hyper_ring(5, 3)`, whose min-fill bags
    /// build out of index order.
    #[test]
    fn bag_failpoint_in_build_order_leaves_database_unchanged() {
        let params = DataParams {
            tuples_per_relation: 60,
            domain: 12,
            skew: 0.0,
            key_cap: 0,
        };
        let mut out_of_index_order = false;
        for schema in [ring(8), hyper_ring(5, 3)] {
            let db = random_database(&schema, params, 7);
            let d = decompose(db.schema(), Heuristic::MinFill).expect("nonempty schema");
            let tree = d.tree();
            let order = tree.bottom_up_order();
            let root = tree.root();
            let middle = *order
                .iter()
                .find(|&&b| tree.parent(b).is_some() && !tree.children(b).is_empty())
                .expect("a ring's bag tree has an inner bag");
            assert_eq!(order.last(), Some(&root));
            out_of_index_order |= order.iter().enumerate().any(|(i, b)| b.index() != i);

            let x: NodeSet = db.schema().nodes();
            let before = db.to_snapshot_bytes();
            let policy = ExecPolicy::default();
            for bag in [root, middle] {
                let gov = FailpointGovernor::new().alloc_fail_bag(bag.index());
                let got = ExecCtx::new(&policy)
                    .gov(&gov)
                    .yannakakis_join_decomposed(&db, &d, &x);
                assert!(
                    matches!(got, Err(EngineError::BudgetExceeded { .. })),
                    "bag {bag:?}: {got:?}"
                );
                assert_eq!(db.to_snapshot_bytes(), before, "abort mutated the database");
            }

            let sink = CollectingSink::new();
            let answer = ExecCtx::new(&policy)
                .metrics(&sink)
                .gov(&FailpointGovernor::new())
                .yannakakis_join_decomposed(&db, &d, &x)
                .expect("nothing armed");
            assert!(answer.same_contents(&query_via_full_join(&db, &x)));
            let names: Vec<String> = sink.snapshot().bags.into_iter().map(|b| b.name).collect();
            let labels: Vec<String> = d.bags().edges().iter().map(|e| e.label.clone()).collect();
            assert_eq!(names, labels, "bags reported in bag-index order");
        }
        assert!(
            out_of_index_order,
            "some bag tree builds out of index order"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A fault injected at a random semijoin either never fires (the
        /// query is correct) or aborts cleanly with the database untouched.
        #[test]
        fn random_semijoin_failpoint_aborts_cleanly(
            family in 0usize..4,
            shape in 0usize..4,
            tuples in 1usize..16,
            domain in 1i64..5,
            seed in any::<u64>(),
            selector in any::<u64>(),
            nth in 1u64..8,
        ) {
            let db = db_for(family, shape, tuples, domain, seed);
            let x = select(&db, selector);
            let before = snapshot(&db);
            let gov = FailpointGovernor::new().fail_at_semijoin(nth);
            match ExecCtx::new(&ExecPolicy::default()).gov(&gov).query_yannakakis(&db, &x) {
                Ok(answer) => {
                    let oracle = query_via_full_join(&db, &x);
                    prop_assert!(answer.same_contents(&oracle),
                        "failpoint never fired but the answer is wrong");
                }
                Err(EngineError::Cancelled) => {}
                Err(other) => prop_assert!(false, "unexpected abort: {other}"),
            }
            assert_untouched(&db, &before, &x);
        }

        /// Same failpoint, panic flavor: the injected panic is contained to
        /// `Err(WorkerPanic)` — it never escapes the public API — and the
        /// database survives untouched.
        #[test]
        fn injected_panic_is_contained_and_leaves_database_unchanged(
            family in 0usize..4,
            shape in 0usize..4,
            tuples in 2usize..16,
            domain in 1i64..4,
            seed in any::<u64>(),
            selector in any::<u64>(),
        ) {
            let db = db_for(family, shape, tuples, domain, seed);
            let x = select(&db, selector);
            let before = snapshot(&db);
            let gov = FailpointGovernor::new()
                .fail_at_semijoin(1)
                .fail_mode(FailMode::Panic);
            match ExecCtx::new(&ExecPolicy::default()).gov(&gov).query_yannakakis(&db, &x) {
                Err(EngineError::WorkerPanic(msg)) => {
                    prop_assert!(msg.contains("injected"), "payload: {msg}");
                }
                Ok(_) => {
                    // Single-relation schemas have no semijoin to fail at.
                    prop_assert!(db.relations().len() == 1,
                        "the first-semijoin panic failpoint never fired");
                }
                Err(other) => prop_assert!(false, "unexpected abort: {other}"),
            }
            assert_untouched(&db, &before, &x);
        }
    }
}
