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
use acyclic_hypergraphs::decomp::{decompose, Decomposition, Heuristic};
use acyclic_hypergraphs::hypergraph::EdgeId;
use acyclic_hypergraphs::hypergraph::{Hypergraph, NodeSet};
use acyclic_hypergraphs::reldb::govern::CHECK_BATCH;
use acyclic_hypergraphs::reldb::reference::naive_full_join;
use acyclic_hypergraphs::reldb::{
    full_reduce, query_via_connection, query_via_full_join, query_yannakakis, CancelToken,
    CollectingSink, Database, EngineError, ExecCtx, Governor, Phase, QueryGovernor, Tuple, Value,
};
use acyclic_hypergraphs::workload::{
    chain, far_apart, grid, random_database, ring, snowflake, star, DataParams,
};
use proptest::prelude::*;
use std::borrow::Cow;
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
        let gov = QueryGovernor::new();
        if let Some(tree) = join_tree(db.schema()) {
            let governed = ExecCtx::new().gov(&gov).full_reduce(&db, &tree)
                .expect("no limit can trip");
            let plain = full_reduce(&db, &tree);
            prop_assert_eq!(&governed.removed, &plain.removed);
            for (g, p) in governed.relations.iter().zip(&plain.relations) {
                prop_assert!(g.same_contents(p), "governed reducer changed a relation");
            }
        }
        let governed = ExecCtx::new().gov(&gov).query_yannakakis(&db, &x)
            .expect("no limit can trip");
        let plain = query_yannakakis(&db, &x).expect("ungoverned query");
        prop_assert!(governed.same_contents(&plain), "governed query changed the answer");
        let ctx = ExecCtx::new().gov(&gov);
        let governed = ctx.query_via_connection(&db, &x).expect("no limit can trip");
        prop_assert!(governed.same_contents(&query_via_connection(&db, &x)),
            "governed connection query changed the answer");
        let governed = ctx.query_via_full_join(&db, &x).expect("no limit can trip");
        prop_assert!(governed.same_contents(&query_via_full_join(&db, &x)),
            "governed full-join query changed the answer");
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
        match ExecCtx::new().gov(&gov).query_yannakakis(&db, &x) {
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
        let before = snapshot(&db);

        let token = CancelToken::new();
        token.cancel();
        let gov = QueryGovernor::with_token(token);
        match ExecCtx::new().gov(&gov).query_yannakakis(&db, &x) {
            Err(EngineError::Cancelled) => {}
            other => prop_assert!(false, "cancelled token must abort, got {other:?}"),
        }
        assert_untouched(&db, &before, &x);

        let gov = QueryGovernor::new().with_deadline(Duration::ZERO);
        match ExecCtx::new().gov(&gov).query_yannakakis(&db, &x) {
            Err(EngineError::DeadlineExceeded { .. }) => {}
            other => prop_assert!(false, "zero deadline must abort, got {other:?}"),
        }
        assert_untouched(&db, &before, &x);
        let ctx = ExecCtx::new().gov(&gov);
        // The connection engine is the Yannakakis engine over `CC(X)`'s
        // objects, so it checkpoints before its first stage too.
        match ctx.query_via_connection(&db, &x) {
            Err(EngineError::DeadlineExceeded { .. }) => {}
            other => prop_assert!(false, "zero deadline must abort, got {other:?}"),
        }
        match ctx.query_via_full_join(&db, &x) {
            Err(EngineError::DeadlineExceeded { .. }) => {}
            // Likewise the full join: it checkpoints only inside its joins.
            Ok(answer) => prop_assert!(answer.same_contents(&query_via_full_join(&db, &x))),
            Err(other) => prop_assert!(false, "unexpected abort: {other}"),
        }
        assert_untouched(&db, &before, &x);

        // One byte of budget: anything that materializes a row trips; a
        // query whose every intermediate is empty may legitimately finish.
        let gov = QueryGovernor::new().with_memory_budget(1);
        match ExecCtx::new().gov(&gov).query_yannakakis(&db, &x) {
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

/// An aborted stage is still timed: a zero deadline stops the query in its
/// first governed stage — the reducer's deepest upward level over a join
/// tree, bag materialization on a cyclic schema — and that stage's entry is
/// the last of the report's levels.
#[test]
fn a_stage_cut_short_by_a_deadline_keeps_its_level_entry() {
    let acyclic = db_for(0, 2, 8, 3, 5);
    let deepest = join_tree(acyclic.schema())
        .expect("a chain is acyclic")
        .levels()
        .len()
        - 1;
    for (db, stopped_in) in [
        (acyclic, (Phase::ReduceUp, deepest)),
        (db_for(3, 1, 8, 3, 5), (Phase::Materialize, 0)),
    ] {
        let x = select(&db, u64::MAX);
        let sink = CollectingSink::new();
        let gov = QueryGovernor::new().with_deadline(Duration::ZERO);
        match ExecCtx::new()
            .metrics(&sink)
            .gov(&gov)
            .query_yannakakis(&db, &x)
        {
            Err(EngineError::DeadlineExceeded { .. }) => {}
            other => panic!("zero deadline must abort, got {other:?}"),
        }
        let levels = sink.snapshot().levels;
        let last = levels.last().map(|l| (l.phase, l.level));
        assert_eq!(last, Some(stopped_in), "levels: {levels:?}");
    }
}

/// Rung 2 of the budget degradation ladder: when the chosen tree's worst
/// bag estimate blows the budget, the runner-up with the smaller estimate
/// runs.  `grid(3, 5)`'s heuristics tie at width 3, so the plan prefers
/// min-fill, one of whose bags covers edges 13 and 14; no min-degree bag
/// covers both.  With those two edges at about 1000 rows and the rest at
/// about 10, min-fill's pessimistic worst bag is about 10^7 rows against
/// min-degree's 10^5.  A budget between the two must run min-degree's bags
/// and still answer exactly.
#[test]
fn a_budget_the_chosen_tree_blows_runs_the_smaller_estimate() {
    let schema = grid(3, 5);
    let fill = decompose(&schema, Heuristic::MinFill).expect("nonempty schema");
    let degree = decompose(&schema, Heuristic::MinDegree).expect("nonempty schema");
    assert_eq!(
        (fill.width(), degree.width()),
        (3, 3),
        "a tie: min-fill is chosen"
    );
    let (e13, e14) = (EdgeId(13), EdgeId(14));
    let holds_both = |d: &Decomposition, b: usize| {
        let cover: Vec<EdgeId> = d.cover(b).collect();
        cover.contains(&e13) && cover.contains(&e14)
    };
    assert!((0..fill.bag_count()).any(|b| holds_both(&fill, b)));
    assert!(!(0..degree.bag_count()).any(|b| holds_both(&degree, b)));

    // A consistent core — every edge holds the diagonal `(v, v)`, so the
    // answer is the ten constant tuples — plus 990 dangling rows on each
    // of the two big edges.
    let mut db = Database::empty(schema.clone());
    for e in 0..schema.edge_count() {
        let big = [e13, e14].contains(&EdgeId(e as u32));
        for i in 0..if big { 1000i64 } else { 10 } {
            let row = if big { [i % 10, i / 10] } else { [i, i] };
            db.insert_values(EdgeId(e as u32), row);
        }
    }
    // The ladder's estimate: the widest bag's cover product times its
    // width, in cells.
    let worst_cells = |d: &Decomposition| -> u64 {
        (0..d.bag_count())
            .map(|b| {
                let rows: u64 = d.cover(b).map(|e| db.relation(e).len() as u64).product();
                rows * d.bags().edges()[b].nodes.len() as u64
            })
            .max()
            .expect("bags")
    };
    let (fill_cells, degree_cells) = (worst_cells(&fill), worst_cells(&degree));
    assert!(
        fill_cells > 10_000_000 && degree_cells < 1_000_000,
        "{fill_cells} vs {degree_cells}"
    );

    let x = schema.nodes();
    let bags_of = |d: &Decomposition| {
        let sink = CollectingSink::new();
        ExecCtx::new()
            .metrics(&sink)
            .yannakakis_join_decomposed(&db, d, &x)
            .expect("nobody can abort");
        sink.snapshot().bags
    };
    let degree_bags = bags_of(&degree);
    assert_ne!(
        degree_bags,
        bags_of(&fill),
        "the two trees must be told apart"
    );

    // Four bytes a cell, as the governor charges: a budget of 10^6 cells
    // lies between the two estimates.
    let sink = CollectingSink::new();
    let gov = QueryGovernor::new().with_memory_budget(4_000_000);
    let got = ExecCtx::new()
        .metrics(&sink)
        .gov(&gov)
        .query_yannakakis(&db, &x)
        .expect("min-degree's bags fit the budget");
    assert!(naive_full_join(&db).project(&x).agrees_with(&got));
    assert_eq!(got.len(), 10, "the diagonal survives");
    let report = sink.snapshot();
    assert_eq!(report.widths.map(|w| w.chosen), Some("min-fill"));
    assert_eq!(report.bags, degree_bags, "rung 2 runs min-degree's bags");
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
/// semijoin's packed key space fits and takes the dense kernel.  `B`
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
/// bit-identical — an owned target unmoved, a borrowed one still borrowed —
/// and the whole-reducer form leaves `db` bit-identical.
#[test]
fn dense_mask_aborts_cleanly_at_every_checkpoint() {
    let db = two_big_relations();
    let (target, source) = (&db.relations()[0], &db.relations()[1]);
    let want = target.semijoin(source);
    assert!(!want.is_empty() && want.len() < target.len());

    // A clean governed run: the dense kernel, one checkpoint per
    // `CHECK_BATCH` rows of each loop.
    let batches = 2 * BIG_ROWS.div_ceil(CHECK_BATCH) as u64;
    let gov = TripAtCheckpoint::new(u64::MAX);
    let sink = CollectingSink::new();
    let mut reduced = Cow::Borrowed(target);
    let removed = ExecCtx::new()
        .metrics(&sink)
        .gov(&gov)
        .retain_semijoin(&mut reduced, source)
        .expect("nothing trips");
    assert_eq!(sink.snapshot().semijoins.dense_ops, 1);
    assert_eq!(gov.checkpoints_seen(), batches);
    assert_eq!(removed, target.len() - want.len());
    assert!(reduced.same_contents(&want));

    // The same semijoin, cancelled at each of those checkpoints in turn,
    // on an owned target (compacted in place) and on a borrowed one (copied
    // at its first shrinking semijoin).
    for borrowed in [false, true] {
        for trip_at in 0..batches {
            let gov = TripAtCheckpoint::new(trip_at);
            let mut victim = if borrowed {
                Cow::Borrowed(target)
            } else {
                Cow::Owned(target.clone())
            };
            let got = ExecCtx::new()
                .gov(&gov)
                .retain_semijoin(&mut victim, source);
            assert_eq!(got, Err(EngineError::Cancelled), "checkpoint {trip_at}");
            assert_eq!(gov.checkpoints_seen(), trip_at + 1, "aborted on the spot");
            assert_eq!(
                matches!(victim, Cow::Borrowed(_)),
                borrowed,
                "an abort copied or dropped the target (checkpoint {trip_at})"
            );
            assert_eq!(victim.len(), target.len());
            assert_eq!(
                victim.handle_rows(),
                target.handle_rows(),
                "checkpoint {trip_at}"
            );
        }
    }

    // A zero deadline and a cancelled token abort before the mask starts.
    let token = CancelToken::new();
    token.cancel();
    for (gov, cancelled) in [
        (QueryGovernor::new().with_deadline(Duration::ZERO), false),
        (QueryGovernor::with_token(token), true),
    ] {
        let mut victim = Cow::Borrowed(target);
        match ExecCtx::new()
            .gov(&gov)
            .retain_semijoin(&mut victim, source)
        {
            Err(EngineError::Cancelled) if cancelled => {}
            Err(EngineError::DeadlineExceeded { .. }) if !cancelled => {}
            other => panic!("expected a structured abort, got {other:?}"),
        }
        assert!(
            matches!(victim, Cow::Borrowed(_)),
            "an abort copied the target"
        );
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
        let got = ExecCtx::new().gov(&gov).full_reduce(&db, &tree);
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
/// `CHECK_BATCH`es, so the join kernel checkpoints and charges mid-loop.
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

/// [`big_chain`] with its pool grown past the dense bound of every semijoin
/// the reducer runs (eight bits per row of two `BIG_ROWS` relations, plus
/// the 1024-bit floor), so each one sorts instead.
fn big_chain_past_the_dense_bound() -> Database {
    let db = big_chain();
    for v in 0..(16 * BIG_ROWS + 1024) as i64 {
        db.pool().intern(&Value::Int(-1 - v));
    }
    db
}

/// On a chain whose relations span several batches, the reducer
/// checkpoints inside every mask loop — the dense kernel's on
/// [`big_chain`], the sort-merge kernel's once the pool outgrows the dense
/// bound — and a cancellation at each of those checkpoints aborts on the
/// spot with `db` bit-identical, through the full reducer and through a
/// whole Yannakakis query (whose reducer borrows the stored relations and
/// copies one only once a semijoin shrinks it).
#[test]
fn chain_reducer_cancelled_at_every_checkpoint_leaves_db_untouched() {
    for (db, dense) in [
        (big_chain(), true),
        (big_chain_past_the_dense_bound(), false),
    ] {
        let tree = join_tree(db.schema()).expect("chains are acyclic");
        let all = db.schema().nodes();
        let before = snapshot(&db);
        let (gov, sink) = (TripAtCheckpoint::never(), CollectingSink::new());
        let want = ExecCtx::new()
            .metrics(&sink)
            .gov(&gov)
            .full_reduce(&db, &tree);
        assert!(want.expect("nothing trips").total_removed() > 0);
        let m = sink.snapshot().semijoins;
        let kernels = if dense { (m.ops, 0) } else { (0, m.ops) };
        assert_eq!((m.dense_ops, m.sortmerge_ops), kernels, "{m:?}");
        let run = |gov: &TripAtCheckpoint, join: bool| {
            let ctx = ExecCtx::new().gov(gov);
            match join {
                false => ctx.full_reduce(&db, &tree).err(),
                true => ctx.yannakakis_join(&db, &tree, &all).err(),
            }
        };
        for join in [false, true] {
            let name = if join {
                "yannakakis_join"
            } else {
                "full_reduce"
            };
            let gov = TripAtCheckpoint::never();
            assert_eq!(run(&gov, join), None, "{name}: nothing trips");
            let checkpoints = gov.checkpoints_seen();
            assert!(checkpoints > 8, "every mask loop spans several batches");
            for trip_at in 0..checkpoints {
                let gov = TripAtCheckpoint::new(trip_at);
                let got = run(&gov, join);
                assert_eq!(got, Some(EngineError::Cancelled), "{name} {trip_at}");
                assert_eq!(gov.checkpoints_seen(), trip_at + 1, "aborted on the spot");
                assert_eq!(snapshot(&db), before, "{name}: abort mutated the database");
            }
        }
    }
}

/// Governance is unchanged by how the join kernel emits rows: the in-kernel
/// checkpoint count and the words charged to the budget are the totals the
/// parent commit (PR 13, per-row dedup on every emitted row) read on the same
/// inputs — the numbers below were recorded there.
#[test]
fn join_governance_totals_match_the_recorded_ones() {
    let db = two_big_relations();
    let (r, s) = (&db.relations()[0], &db.relations()[1]);
    let gov = TripAtCheckpoint::never();
    let out = ExecCtx::new().gov(&gov).join(r, s).expect("nothing trips");
    assert_eq!(out.len(), RECORDED_JOIN_ROWS);
    assert_eq!(gov.totals(), RECORDED_HASH_JOIN);

    let db = big_chain();
    let tree = join_tree(db.schema()).expect("chains are acyclic");
    let (all, ends) = (db.schema().nodes(), far_apart(db.schema()));
    for (x, want_rows, want) in [
        (&all, RECORDED_CHAIN_ALL_ROWS, RECORDED_CHAIN_ALL),
        (&ends, RECORDED_CHAIN_ENDS_ROWS, RECORDED_CHAIN_ENDS),
    ] {
        let gov = TripAtCheckpoint::never();
        let out = ExecCtx::new()
            .gov(&gov)
            .yannakakis_join(&db, &tree, x)
            .expect("nothing trips");
        assert_eq!(out.len(), want_rows);
        assert_eq!(gov.totals(), want);
    }
}

/// `(in-kernel checkpoints, words charged)` read at the parent commit.
const RECORDED_HASH_JOIN: (u64, u64) = (8, 81_104);
const RECORDED_JOIN_ROWS: usize = 18_776;
const RECORDED_CHAIN_ALL: (u64, u64) = (37, 118_000);
const RECORDED_CHAIN_ALL_ROWS: usize = 9_000;
const RECORDED_CHAIN_ENDS: (u64, u64) = (37, 91_000);
const RECORDED_CHAIN_ENDS_ROWS: usize = 9_000;

/// Cancelling at the n-th in-kernel checkpoint of a join — wherever in its
/// build or emit loop — returns `Cancelled` on the spot with both inputs
/// bit-identical; through the whole pipeline, `db` is.
#[test]
fn join_cancelled_at_any_checkpoint_leaves_inputs_untouched() {
    let db = two_big_relations();
    let (r, s) = (&db.relations()[0], &db.relations()[1]);
    let (r_rows, s_rows) = (r.handle_rows().to_vec(), s.handle_rows().to_vec());
    for trip_at in 0..RECORDED_HASH_JOIN.0 {
        let gov = TripAtCheckpoint::new(trip_at);
        let got = ExecCtx::new().gov(&gov).join(r, s);
        assert_eq!(
            got.err(),
            Some(EngineError::Cancelled),
            "checkpoint {trip_at}"
        );
        assert_eq!(gov.checkpoints_seen(), trip_at + 1, "aborted on the spot");
        assert_eq!(r.handle_rows(), r_rows);
        assert_eq!(s.handle_rows(), s_rows);
    }

    let db = big_chain();
    let tree = join_tree(db.schema()).expect("chains are acyclic");
    let all: NodeSet = db.schema().nodes();
    let before = snapshot(&db);
    for trip_at in [0, RECORDED_CHAIN_ALL.0 / 2, RECORDED_CHAIN_ALL.0 - 1] {
        let gov = TripAtCheckpoint::new(trip_at);
        let got = ExecCtx::new().gov(&gov).yannakakis_join(&db, &tree, &all);
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
        for nth in 0..2 {
            for mode in [FailMode::Error, FailMode::Panic] {
                let gov = FailpointGovernor::new()
                    .fail_at_semijoin(nth)
                    .fail_mode(mode);
                match ExecCtx::new().gov(&gov).query_yannakakis(&db, &x) {
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
            for bag in [root, middle] {
                let gov = FailpointGovernor::new().alloc_fail_bag(bag.index());
                let got = ExecCtx::new()
                    .gov(&gov)
                    .yannakakis_join_decomposed(&db, &d, &x);
                assert!(
                    matches!(got, Err(EngineError::BudgetExceeded { .. })),
                    "bag {bag:?}: {got:?}"
                );
                assert_eq!(db.to_snapshot_bytes(), before, "abort mutated the database");
            }

            let sink = CollectingSink::new();
            let answer = ExecCtx::new()
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

    /// Fig. 1 answers `{A, D}` from ACE and CDE: three upward semijoins,
    /// then one downward one.  A failpoint at that fourth semijoin — between
    /// the passes — trips and leaves the database bit-identical; `{A, E}`
    /// lies in the root ACE, so its plan stops after the upward pass and the
    /// same failpoint never fires.
    #[test]
    fn a_failpoint_between_the_passes_trips_only_when_a_downward_pass_runs() {
        let db = random_database(
            &acyclic_hypergraphs::workload::paper::fig1(),
            DataParams {
                tuples_per_relation: 12,
                domain: 3,
                skew: 0.0,
                key_cap: 0,
            },
            7,
        );
        let before = snapshot(&db);
        for (names, trips) in [(["A", "D"], true), (["A", "E"], false)] {
            let x = db.attributes(names).unwrap();
            let gov = FailpointGovernor::new().fail_at_semijoin(3);
            let got = ExecCtx::new().gov(&gov).query_yannakakis(&db, &x);
            match got {
                Err(EngineError::Cancelled) if trips => {}
                Ok(answer) if !trips => {
                    assert!(answer.same_contents(&query_via_full_join(&db, &x)));
                    assert_eq!(gov.semijoins_seen(), 3, "the upward pass only");
                }
                other => panic!("{names:?}: got {other:?}"),
            }
            assert_untouched(&db, &before, &x);
        }
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
            match ExecCtx::new().gov(&gov).query_yannakakis(&db, &x) {
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
            match ExecCtx::new().gov(&gov).query_yannakakis(&db, &x) {
                Err(EngineError::WorkerPanic(msg)) => {
                    prop_assert!(msg.contains("injected"), "payload: {msg}");
                }
                Ok(_) => {
                    // A plan with one semijoin or none has no second one to
                    // fail at: a single relation, or an `X` whose covering
                    // subtree needs no downward pass past the first upward
                    // semijoin.
                    prop_assert!(gov.semijoins_seen() < 2,
                        "the second-semijoin panic failpoint never fired");
                }
                Err(other) => prop_assert!(false, "unexpected abort: {other}"),
            }
            assert_untouched(&db, &before, &x);
        }
    }
}
