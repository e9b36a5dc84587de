//! The Yannakakis algorithm: full reduction and join over a join tree.
//!
//! For an acyclic schema, a *full reducer* is a sequence of semijoins that
//! removes every dangling tuple (a tuple that does not participate in the
//! full join).  Running the reducer and then joining bottom-up along the
//! join tree computes the full join — and any projection of it — in time
//! polynomial in input + output, whereas the naive join can build huge
//! intermediate results.  This is the practical payoff of acyclicity that
//! the paper's §7 interpretation points at, and the subject of benchmark B4.
//!
//! Both phases are *level-synchronous*: the join tree is partitioned into
//! depth levels ([`JoinTree::levels`]), and within one level the reducer's
//! semijoins write pairwise-distinct targets while the join phase's subtree
//! jobs write disjoint partial-result slots — so each level's work runs
//! concurrently on workers leased once per call from the shared
//! [`WorkerPool`](crate::exec::WorkerPool) (no per-level thread spawning).

use crate::database::Database;
use crate::exec::{ExecCtx, ExecPolicy, Job, WorkerLease};
use crate::govern::{unfail, EngineError, Governor};
use crate::metrics::{MetricsSink, Phase};
use crate::relation::Relation;
use crate::trace::{with_span, NoopTrace, SpanKind, TraceSink};
use acyclic::JoinTree;
use hypergraph::{EdgeId, NodeSet};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

/// The result of running a full reducer: the reduced relations (in schema
/// order) and the number of tuples removed from each.
#[derive(Debug, Clone)]
pub struct Reduced {
    /// Reduced relations, in schema-edge order.
    pub relations: Vec<Relation>,
    /// Tuples removed from each relation by the semijoin passes.
    pub removed: Vec<usize>,
}

impl Reduced {
    /// Total number of dangling tuples removed.
    pub fn total_removed(&self) -> usize {
        self.removed.iter().sum()
    }
}

/// Mutable access to `rels[i]` alongside shared access to `rels[j]`.
fn pair_mut(rels: &mut [Relation], i: usize, j: usize) -> (&mut Relation, &Relation) {
    assert_ne!(i, j);
    if i < j {
        let (a, b) = rels.split_at_mut(j);
        (&mut a[i], &b[0])
    } else {
        let (a, b) = rels.split_at_mut(i);
        (&mut b[0], &a[j])
    }
}

/// One level's worth of reducer work: semijoin the target relation with
/// each source relation in turn, in place.
struct LevelJob {
    /// Index of the relation being reduced.
    target: usize,
    /// Indices of the relations it is semijoined against (children in the
    /// upward pass; the single parent in the downward pass).
    sources: Vec<usize>,
}

/// An empty throwaway relation left in a slot whose real relation has been
/// moved into a worker job.  Never read: within a level no job's sources
/// intersect the level's targets.
fn placeholder() -> Relation {
    Relation::new("·", NodeSet::new())
}

/// Runs one level of reducer jobs, sequentially or across leased workers.
///
/// Within a level the targets are pairwise distinct and never appear among
/// any job's sources (upward: targets are parents at depth `d`, sources
/// their children at `d+1`; downward: targets at depth `d`, sources their
/// parents at `d-1`), so target relations can be taken out of the vector
/// and mutated concurrently while the remainder is shared read-only behind
/// an [`Arc`] (moved in and out — never cloned).  A singleton level (chains:
/// every level is one) runs inline on the calling thread — a semijoin
/// ([`ExecCtx::retain_semijoin`]) is never split across workers.
///
/// Jobs are dispatched **biggest first**: the lease hands jobs out
/// round-robin, so a skewed level (a snowflake's fact relation next to its
/// dimensions) would otherwise park the fat job behind small ones on one
/// worker while the rest idle.  Sorting by estimated cost (target tuples
/// plus source tuples) approximates longest-processing-time scheduling
/// without a work queue.
fn run_level<M: MetricsSink, G: Governor>(
    ctx: &ExecCtx<'_, M, G>,
    lease: &WorkerLease,
    relations: &mut Vec<Relation>,
    removed: &mut [usize],
    mut jobs: Vec<LevelJob>,
) -> Result<(), EngineError> {
    if jobs.is_empty() {
        return Ok(());
    }
    let threads = lease.threads();
    if threads <= 1 || jobs.len() == 1 {
        for job in &jobs {
            for &s in &job.sources {
                let (t, src) = pair_mut(relations, job.target, s);
                removed[job.target] += ctx.retain_semijoin(t, src)?;
            }
        }
        return Ok(());
    }
    let cost = |j: &LevelJob| -> usize {
        relations[j.target].len() + j.sources.iter().map(|&s| relations[s].len()).sum::<usize>()
    };
    jobs.sort_by_key(|j| std::cmp::Reverse(cost(j)));
    // Take the targets out, move the remaining relations into an Arc the
    // jobs share, run one owned job per target on the lease, then
    // reassemble.  Jobs drop their Arc handle *before* signalling their
    // result so the unwrap below cannot race a worker still holding one.
    let targets: Vec<Relation> = jobs
        .iter()
        .map(|j| std::mem::replace(&mut relations[j.target], placeholder()))
        .collect();
    let shared = Arc::new(std::mem::take(relations));
    let (tx, rx) = channel();
    let work: Vec<Job> = jobs
        .into_iter()
        .zip(targets)
        .map(|(job, mut target)| {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            let (policy, sink, gov) = ctx.owned();
            Box::new(move || {
                let ctx = ExecCtx::new(&policy).metrics(&sink).gov(&gov);
                let mut removed_here = 0usize;
                let mut res = Ok(());
                for &s in &job.sources {
                    match ctx.retain_semijoin(&mut target, &shared[s]) {
                        Ok(n) => removed_here += n,
                        Err(e) => {
                            res = Err(e);
                            break;
                        }
                    }
                }
                drop(shared);
                // The target relation is sent back even on abort: a governed
                // semijoin that errors leaves it untouched, so reassembly
                // below restores the level exactly as it was.
                let _ = tx.send((job.target, target, removed_here, res));
            }) as Job
        })
        .collect();
    drop(tx);
    lease.run(work);
    *relations = Arc::try_unwrap(shared)
        .unwrap_or_else(|_| unreachable!("level jobs returned their shared handles"));
    let mut first_err = None;
    for (t, rel, rem, res) in rx.try_iter() {
        relations[t] = rel;
        removed[t] += rem;
        if let Err(e) = res {
            first_err = first_err.or(Some(e));
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

impl<M: MetricsSink, G: Governor, T: TraceSink> ExecCtx<'_, M, G, T> {
    /// Runs the two semijoin passes of the Yannakakis full reducer over
    /// `tree`, level-synchronously.
    ///
    /// The upward pass semijoins every parent with each of its children
    /// (deepest levels first); the downward pass semijoins every child with
    /// its parent (top-down).  Afterwards every remaining tuple participates
    /// in the full join.  Each semijoin reduces the relation *in place*
    /// ([`ExecCtx::retain_semijoin`]): the row buffer is compacted by a
    /// keep-mask rather than rebuilding the relation every pass, and the
    /// dedup index rebuild is deferred until something actually reads it.
    ///
    /// Within one tree level the semijoins write pairwise-distinct target
    /// relations and only read relations from the adjacent level, so each
    /// level's jobs run concurrently on workers leased once per call
    /// (`policy.threads` of them, from the shared
    /// [`WorkerPool`](crate::exec::WorkerPool), with a sequential fallback
    /// below `policy.parallel_threshold` total tuples).  The result is
    /// tuple-for-tuple identical to the sequential pass: surviving rows
    /// depend only on the *set* of semijoins applied, and within one target
    /// they are applied in the same child order as the sequential walk.
    ///
    /// The metrics sink receives per-semijoin counters, per-level wall
    /// timings and the pool lease; the governor is consulted before every
    /// tree level and at every [`CHECK_BATCH`](crate::govern::CHECK_BATCH)
    /// rows inside the semijoin kernels; the tracer brackets each pass
    /// ([`SpanKind::ReduceUp`] / [`SpanKind::ReduceDown`]).  An abort —
    /// cancellation, deadline, budget or injected failpoint — surfaces as
    /// `Err(EngineError)` and leaves `db` untouched: the reducer operates on
    /// copies of the stored relations, and every checkpoint fires during
    /// read-only kernel phases.
    pub fn full_reduce(&self, db: &Database, tree: &JoinTree) -> Result<Reduced, EngineError> {
        full_reduce_leased(self, &self.lease(db.tuple_count()), db, tree)
    }

    /// Computes the projection of the full join onto `output` by the
    /// Yannakakis algorithm: full-reduce, then join bottom-up along the tree,
    /// projecting intermediate results onto (needed separator ∪ output)
    /// attributes to keep them small.  The policy picks the physical join
    /// strategy ([`crate::JoinStrategy`]) for every semijoin and join, and
    /// the worker parallelism of *both* phases: sibling subtrees at one tree
    /// level are independent, so their joins run concurrently on the same
    /// workers the reducer leased, merging each subtree's partial result into
    /// its own slot (disjoint writes).  The output is tuple-for-tuple
    /// identical to the sequential engine: every subtree job computes exactly
    /// the sequential walk's intermediate relation, and sibling subtrees
    /// never read each other.
    ///
    /// On top of what [`ExecCtx::full_reduce`] reports, the governor is
    /// consulted before every join level and inside every kernel loop, output
    /// allocations are charged against its memory budget, and the tracer
    /// brackets the bottom-up join levels ([`SpanKind::Join`]).  An abort
    /// surfaces as `Err(EngineError)`; `db` is never mutated, so an aborted
    /// query leaves the database exactly as loaded.
    pub fn yannakakis_join(
        &self,
        db: &Database,
        tree: &JoinTree,
        output: &NodeSet,
    ) -> Result<Relation, EngineError> {
        // One lease serves the reducer passes and the join levels alike.
        yannakakis_join_leased(self, &self.lease(db.tuple_count()), db, tree, output)
    }
}

/// [`ExecCtx::full_reduce`] with nobody watching, under the default
/// [`ExecPolicy`] (auto strategy, parallel above the tuple threshold).
pub fn full_reduce(db: &Database, tree: &JoinTree) -> Reduced {
    full_reduce_with(db, tree, &ExecPolicy::default())
}

/// [`ExecCtx::full_reduce`] with nobody watching, under an explicit
/// [`ExecPolicy`].
// pinned by benchmark/src/layers.rs
pub fn full_reduce_with(db: &Database, tree: &JoinTree, policy: &ExecPolicy) -> Reduced {
    unfail(ExecCtx::new(policy).full_reduce(db, tree))
}

/// The reducer body, on an already-acquired lease — shared by
/// [`ExecCtx::full_reduce`] and [`yannakakis_join_leased`] so the join
/// pipeline leases its workers exactly once for both phases.
fn full_reduce_leased<M: MetricsSink, G: Governor, T: TraceSink>(
    ctx: &ExecCtx<'_, M, G, T>,
    lease: &WorkerLease,
    db: &Database,
    tree: &JoinTree,
) -> Result<Reduced, EngineError> {
    let (sink, gov, tracer) = (ctx.metrics, ctx.gov, ctx.trace);
    // Nothing below a pass reports spans, so it is not instantiated per tracer.
    let untraced = ctx.trace(&NoopTrace);
    // Working copies of the rows only: the reducer never reads a dedup index.
    let mut relations: Vec<Relation> = db.relations().iter().map(Relation::clone_rows).collect();
    let mut removed: Vec<usize> = vec![0; relations.len()];
    let levels = tree.levels();
    let rebuilds_before: usize = relations.iter().map(Relation::index_rebuild_count).sum();

    // Upward pass: parent ⋉ each child, deepest parent level first.  The
    // governor is consulted once per level even when the level has no
    // semijoin work, so a zero deadline trips deterministically on any
    // tree, single-edge schemas included.
    with_span(tracer, SpanKind::ReduceUp, || -> Result<(), EngineError> {
        for (depth, level) in levels.iter().enumerate().rev() {
            if G::ENABLED {
                gov.at_level(Phase::ReduceUp, depth)?;
            }
            let jobs: Vec<LevelJob> = level
                .iter()
                .filter(|&&e| !tree.children(e).is_empty())
                .map(|&e| LevelJob {
                    target: e.index(),
                    sources: tree.children(e).iter().map(|c| c.index()).collect(),
                })
                .collect();
            let n = jobs.len();
            let t0 = M::ENABLED.then(Instant::now);
            run_level(&untraced, lease, &mut relations, &mut removed, jobs)?;
            if let Some(t0) = t0 {
                if n > 0 {
                    sink.record_level(Phase::ReduceUp, depth, n, t0.elapsed().as_nanos() as u64);
                }
            }
        }
        Ok(())
    })?;
    // Downward pass: child ⋉ parent, top-down.
    with_span(
        tracer,
        SpanKind::ReduceDown,
        || -> Result<(), EngineError> {
            for (depth, level) in levels.iter().enumerate().skip(1) {
                if G::ENABLED {
                    gov.at_level(Phase::ReduceDown, depth)?;
                }
                let jobs: Vec<LevelJob> = level
                    .iter()
                    .map(|&e| LevelJob {
                        target: e.index(),
                        sources: vec![tree.parent(e).expect("non-root level").index()],
                    })
                    .collect();
                let n = jobs.len();
                let t0 = M::ENABLED.then(Instant::now);
                run_level(&untraced, lease, &mut relations, &mut removed, jobs)?;
                if let Some(t0) = t0 {
                    if n > 0 {
                        sink.record_level(
                            Phase::ReduceDown,
                            depth,
                            n,
                            t0.elapsed().as_nanos() as u64,
                        );
                    }
                }
            }
            Ok(())
        },
    )?;

    if M::ENABLED {
        // Rebuilds the reduction itself paid: with the deferred-rebuild
        // optimization this stays 0 (each retain only marks the index
        // stale), which is exactly what the counter is there to prove.
        let after: usize = relations.iter().map(Relation::index_rebuild_count).sum();
        sink.record_index_rebuilds((after - rebuilds_before) as u64);
    }
    Ok(Reduced { relations, removed })
}

/// [`ExecCtx::yannakakis_join`] with nobody watching, under the default
/// [`ExecPolicy`].
pub fn yannakakis_join(db: &Database, tree: &JoinTree, output: &NodeSet) -> Relation {
    yannakakis_join_with(db, tree, output, &ExecPolicy::default())
}

/// [`ExecCtx::yannakakis_join`] with nobody watching, under an explicit
/// [`ExecPolicy`].
///
/// # Examples
///
/// ```
/// use hypergraph::{EdgeId, Hypergraph};
/// use reldb::{yannakakis_join_with, Database, ExecPolicy, JoinStrategy, Tuple};
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
/// db.insert(EdgeId(0), Tuple::from_pairs([(a, 7), (b, 9)])); // dangling
/// db.insert(EdgeId(1), Tuple::from_pairs([(b, 2), (c, 3)]));
///
/// let tree = join_tree(db.schema()).expect("chain schemas are acyclic");
/// let output = db.attributes(["A", "C"]).unwrap();
/// // Two leased workers; the sequential default policy gives the same rows.
/// let policy = ExecPolicy::parallel(JoinStrategy::Auto, 2);
/// let answer = yannakakis_join_with(&db, &tree, &output, &policy);
/// assert_eq!(answer.len(), 1);
/// ```
// pinned by benchmark/src/layers.rs
pub fn yannakakis_join_with(
    db: &Database,
    tree: &JoinTree,
    output: &NodeSet,
    policy: &ExecPolicy,
) -> Relation {
    unfail(ExecCtx::new(policy).yannakakis_join(db, tree, output))
}

/// The reduce-then-join pipeline on an already-acquired lease — shared by
/// [`ExecCtx::yannakakis_join`] and the decomposed cyclic pipeline
/// ([`ExecCtx::yannakakis_join_decomposed`]), so a cyclic query leases its
/// workers exactly once across bag materialization, the reducer passes and
/// the join levels.
pub(crate) fn yannakakis_join_leased<M: MetricsSink, G: Governor, T: TraceSink>(
    ctx: &ExecCtx<'_, M, G, T>,
    lease: &WorkerLease,
    db: &Database,
    tree: &JoinTree,
    output: &NodeSet,
) -> Result<Relation, EngineError> {
    let (sink, gov, tracer) = (ctx.metrics, ctx.gov, ctx.trace);
    let untraced = ctx.trace(&NoopTrace);
    let reduced = full_reduce_leased(ctx, lease, db, tree)?;
    let mut relations = reduced.relations;

    // Attributes that must be kept while processing each subtree: the output
    // attributes plus anything shared with the edge's parent.
    let keep_for = |e: EdgeId| -> NodeSet {
        let own = db.schema().edges()[e.index()].nodes.clone();
        let mut keep = own.intersection(output);
        if let Some(p) = tree.parent(e) {
            keep.union_with(&own.intersection(&db.schema().edges()[p.index()].nodes));
        }
        keep
    };

    // Bottom-up join, level-synchronous: each edge accumulates the join of
    // its subtree, projected onto the attributes still needed above it.
    // Within a level the jobs consume their own reduced relation and their
    // children's partials and write disjoint `partial` slots, so a
    // multi-edge level fans out across the leased workers.
    let mut partial: Vec<Option<Relation>> = vec![None; relations.len()];
    let levels = tree.levels_bottom_up();
    let threads = lease.threads();
    with_span(tracer, SpanKind::Join, || -> Result<(), EngineError> {
        for (li, level) in levels.iter().enumerate() {
            if G::ENABLED {
                gov.at_level(Phase::Join, li)?;
            }
            let t0 = M::ENABLED.then(Instant::now);
            if threads <= 1 || level.len() <= 1 {
                // Fewer targets than workers (chains: every join level is a
                // singleton): parallelism drops *inside* the join instead — the
                // whole lease pulls probe morsels from the shared queue
                // ([`ExecCtx::join_on_lease`]), so one huge binary
                // join no longer serializes the level.
                for &e in level {
                    let base = std::mem::replace(&mut relations[e.index()], placeholder());
                    let children = take_children(tree, e, &mut partial);
                    partial[e.index()] = Some(join_subtree(
                        &untraced,
                        lease,
                        base,
                        &children,
                        keep_for(e),
                        output,
                    )?);
                }
            } else {
                // Biggest subtree jobs first, for the same longest-processing-
                // time reason as the reducer levels: round-robin dispatch over
                // the leased workers balances best when the fat job leads the
                // batch.
                let mut order: Vec<EdgeId> = level.clone();
                let cost = |e: EdgeId| -> usize {
                    relations[e.index()].len()
                        + tree
                            .children(e)
                            .iter()
                            .map(|c| partial[c.index()].as_ref().map_or(0, Relation::len))
                            .sum::<usize>()
                };
                order.sort_by_key(|&e| std::cmp::Reverse(cost(e)));
                let (tx, rx) = channel();
                let work: Vec<Job> = order
                    .iter()
                    .map(|&e| {
                        let base = std::mem::replace(&mut relations[e.index()], placeholder());
                        let children = take_children(tree, e, &mut partial);
                        let keep = keep_for(e);
                        let output = output.clone();
                        let tx = tx.clone();
                        let (policy, sink, gov) = ctx.owned();
                        let idx = e.index();
                        Box::new(move || {
                            let ctx = ExecCtx::new(&policy).metrics(&sink).gov(&gov);
                            let inline = WorkerLease::inline();
                            let _ = tx.send((
                                idx,
                                join_subtree(&ctx, &inline, base, &children, keep, &output),
                            ));
                        }) as Job
                    })
                    .collect();
                drop(tx);
                lease.run(work);
                let mut first_err = None;
                for (idx, res) in rx.try_iter() {
                    match res {
                        Ok(rel) => partial[idx] = Some(rel),
                        Err(e) => first_err = first_err.or(Some(e)),
                    }
                }
                if let Some(e) = first_err {
                    return Err(e);
                }
            }
            if let Some(t0) = t0 {
                sink.record_level(Phase::Join, li, level.len(), t0.elapsed().as_nanos() as u64);
            }
        }
        Ok(())
    })?;
    let root_result = partial[tree.root().index()]
        .take()
        .expect("root processed last");
    Ok(root_result.into_project(output))
}

/// Takes edge `e`'s children's partial results out of their slots (they are
/// each consumed exactly once, by their parent).
fn take_children(tree: &JoinTree, e: EdgeId, partial: &mut [Option<Relation>]) -> Vec<Relation> {
    tree.children(e)
        .iter()
        .map(|c| partial[c.index()].take().expect("children processed first"))
        .collect()
}

/// One bottom-up join job: joins an edge's reduced relation with its
/// children's subtree results (in child order, matching the sequential
/// walk) and projects onto the attributes still needed above it — the
/// output attributes surfaced so far plus the separator towards the parent.
fn join_subtree<M: MetricsSink, G: Governor>(
    ctx: &ExecCtx<'_, M, G>,
    probe: &WorkerLease,
    base: Relation,
    children: &[Relation],
    mut keep: NodeSet,
    output: &NodeSet,
) -> Result<Relation, EngineError> {
    let mut acc = base;
    for child in children {
        acc = ctx.join_on_lease(&acc, child, probe)?;
    }
    keep.union_with(&acc.attributes().intersection(output));
    Ok(acc.into_project(&keep))
}

/// The same projection computed naively: join every relation, then project.
/// Used as the baseline in tests and benchmark B4.
pub fn naive_join_project(db: &Database, output: &NodeSet) -> Relation {
    db.full_join().into_project(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Tuple;
    use acyclic::join_tree;
    use hypergraph::Hypergraph;

    /// A chain schema R(A,B), S(B,C), T(C,D) with data containing dangling
    /// tuples.
    fn chain_db() -> Database {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap();
        let (a, b, c, d) = (
            h.node("A").unwrap(),
            h.node("B").unwrap(),
            h.node("C").unwrap(),
            h.node("D").unwrap(),
        );
        let mut db = Database::empty(h);
        for i in 0..5i64 {
            db.insert(EdgeId(0), Tuple::from_pairs([(a, i), (b, i)]));
        }
        // Dangling: B values 3, 4 have no continuation.
        for i in 0..3i64 {
            db.insert(EdgeId(1), Tuple::from_pairs([(b, i), (c, i * 10)]));
        }
        db.insert(EdgeId(1), Tuple::from_pairs([(b, 99), (c, 990)])); // dangling
        for i in 0..2i64 {
            db.insert(EdgeId(2), Tuple::from_pairs([(c, i * 10), (d, i + 100)]));
        }
        db
    }

    #[test]
    fn full_reducer_removes_dangling_tuples() {
        let db = chain_db();
        let tree = join_tree(db.schema()).unwrap();
        let reduced = full_reduce(&db, &tree);
        assert!(reduced.total_removed() > 0);
        // After reduction, every relation's tuples participate in the full
        // join: re-reducing removes nothing more.
        let db2 = Database::new(db.schema().clone(), reduced.relations.clone()).unwrap();
        let again = full_reduce(&db2, &tree);
        assert_eq!(again.total_removed(), 0);
    }

    #[test]
    fn yannakakis_matches_naive_join_on_full_output() {
        let db = chain_db();
        let tree = join_tree(db.schema()).unwrap();
        let all = db.schema().nodes();
        let fast = yannakakis_join(&db, &tree, &all);
        let naive = naive_join_project(&db, &all);
        assert!(fast.same_contents(&naive), "fast != naive");
    }

    #[test]
    fn yannakakis_matches_naive_join_on_projections() {
        let db = chain_db();
        let tree = join_tree(db.schema()).unwrap();
        for attrs in [
            vec!["A"],
            vec!["A", "D"],
            vec!["B", "C"],
            vec!["A", "C", "D"],
        ] {
            let output = db.attributes(attrs.iter().copied()).unwrap();
            let fast = yannakakis_join(&db, &tree, &output);
            let naive = naive_join_project(&db, &output);
            assert!(
                fast.same_contents(&naive),
                "mismatch for output {attrs:?}: fast {} naive {}",
                fast.len(),
                naive.len()
            );
        }
    }

    #[test]
    fn fig1_schema_queries_match() {
        let h = Hypergraph::from_edges([
            vec!["A", "B", "C"],
            vec!["C", "D", "E"],
            vec!["A", "E", "F"],
            vec!["A", "C", "E"],
        ])
        .unwrap();
        let ids: Vec<_> = ["A", "B", "C", "D", "E", "F"]
            .iter()
            .map(|n| h.node(n).unwrap())
            .collect();
        let mut db = Database::empty(h.clone());
        // A small instance where every attribute value is the row index
        // modulo a couple of divisors, giving partial join matches.
        for (ei, e) in h.edges().iter().enumerate() {
            for row in 0..6i64 {
                let t = Tuple::from_pairs(e.nodes.iter().map(|n| {
                    (
                        n,
                        row % (2 + (ids.iter().position(|&x| x == n).unwrap() as i64 % 3)),
                    )
                }));
                db.insert(EdgeId(ei as u32), t);
            }
        }
        let tree = join_tree(&h).unwrap();
        for attrs in [
            vec!["A", "D"],
            vec!["B", "F"],
            vec!["A", "B", "C", "D", "E", "F"],
        ] {
            let output = db.attributes(attrs.iter().copied()).unwrap();
            let fast = yannakakis_join(&db, &tree, &output);
            let naive = naive_join_project(&db, &output);
            assert!(fast.same_contents(&naive), "mismatch for {attrs:?}");
        }
    }

    /// A small snowflake schema (fact hub with two arms of depth two) with
    /// random-ish data containing dangling tuples.
    fn snowflake_db() -> Database {
        let h = Hypergraph::from_edges([
            vec!["K0", "K1"],        // FACT
            vec!["K0", "D0", "K00"], // DIM arm 0 level 0
            vec!["K00", "D00"],      // DIM arm 0 level 1
            vec!["K1", "D1", "K10"], // DIM arm 1 level 0
            vec!["K10", "D10"],      // DIM arm 1 level 1
        ])
        .unwrap();
        let mut db = Database::empty(h.clone());
        for (ei, e) in h.edges().iter().enumerate() {
            for row in 0..12i64 {
                let t = Tuple::from_pairs(
                    e.nodes
                        .iter()
                        .enumerate()
                        .map(|(j, n)| (n, (row * (ei as i64 + 1) + j as i64) % 5)),
                );
                db.insert(EdgeId(ei as u32), t);
            }
        }
        db
    }

    #[test]
    fn snowflake_parallel_and_strategies_agree_with_sequential() {
        use crate::exec::{ExecPolicy, JoinStrategy};
        let db = snowflake_db();
        let tree = join_tree(db.schema()).unwrap();
        // The snowflake tree has multi-edge levels, so the parallel path
        // exercises target-sharding (singleton levels run inline).
        assert!(tree.levels().iter().any(|l| l.len() > 1));
        let baseline = full_reduce_with(&db, &tree, &ExecPolicy::sequential(JoinStrategy::Hash));
        for policy in [
            ExecPolicy::sequential(JoinStrategy::SortMerge),
            ExecPolicy::sequential(JoinStrategy::Auto),
            ExecPolicy::parallel(JoinStrategy::Hash, 4),
            ExecPolicy::parallel(JoinStrategy::SortMerge, 3),
            ExecPolicy::parallel(JoinStrategy::Auto, 2),
        ] {
            let got = full_reduce_with(&db, &tree, &policy);
            assert_eq!(
                got.removed, baseline.removed,
                "removed counts diverged under {policy:?}"
            );
            for (b, g) in baseline.relations.iter().zip(&got.relations) {
                assert!(b.same_contents(g), "relations diverged under {policy:?}");
            }
        }
        // The full pipeline agrees with the naive join on every policy; the
        // parallel rows exercise the level-synchronous bottom-up join (the
        // snowflake tree has multi-edge levels, so sibling subtree jobs run
        // on the leased workers).
        let all = db.schema().nodes();
        let naive = naive_join_project(&db, &all);
        for policy in [
            ExecPolicy::sequential(JoinStrategy::SortMerge),
            ExecPolicy::parallel(JoinStrategy::Auto, 4),
            ExecPolicy::parallel(JoinStrategy::Hash, 2),
        ] {
            let fast = yannakakis_join_with(&db, &tree, &all, &policy);
            assert!(
                fast.same_contents(&naive),
                "pipeline diverged under {policy:?}"
            );
        }
    }

    /// The parallel join phase produces tuple-for-tuple the sequential
    /// engine's projections, not just the full output (projection decisions
    /// happen inside the per-subtree jobs).
    #[test]
    fn parallel_join_matches_sequential_on_projections() {
        use crate::exec::{ExecPolicy, JoinStrategy};
        let db = snowflake_db();
        let tree = join_tree(db.schema()).unwrap();
        let sequential = ExecPolicy::sequential(JoinStrategy::Hash);
        for attrs in [vec!["K0", "D10"], vec!["D0", "D1"], vec!["K0"]] {
            let output = db.attributes(attrs.iter().copied()).unwrap();
            let want = yannakakis_join_with(&db, &tree, &output, &sequential);
            for threads in [2, 4] {
                let got = yannakakis_join_with(
                    &db,
                    &tree,
                    &output,
                    &ExecPolicy::parallel(JoinStrategy::Hash, threads),
                );
                assert!(
                    want.same_contents(&got),
                    "projection {attrs:?} diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn empty_relation_propagates_to_empty_result() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap();
        let a = h.node("A").unwrap();
        let b = h.node("B").unwrap();
        let mut db = Database::empty(h.clone());
        db.insert(EdgeId(0), Tuple::from_pairs([(a, 1), (b, 1)]));
        // Relation BC stays empty.
        let tree = join_tree(&h).unwrap();
        let out = yannakakis_join(&db, &tree, &h.nodes());
        assert!(out.is_empty());
        let reduced = full_reduce(&db, &tree);
        assert_eq!(reduced.relations[0].len(), 0, "dangling tuple must go");
    }
}
