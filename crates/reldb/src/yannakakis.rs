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
//! A query `π_X` needs less than the whole reducer and join.  After the
//! upward pass towards the root, the root holds exactly the full join's
//! projection onto it (Yannakakis, VLDB 1981); and on a globally consistent
//! database `π_X` of the full join is `π_X` of any connected join subtree
//! whose edges cover `X` (Beeri–Fagin–Maier–Yannakakis, JACM 1983).  So
//! [`ExecCtx::yannakakis_join`] runs the upward pass over the whole tree,
//! then the downward pass only along the path from the root to
//! `S` = [`JoinTree::connection_subtree`] — whose edges reduce to the
//! canonical connection `CC(X)` (Theorem 3.5) — and inside `S`, then joins
//! only inside `S`: no join at all when `S` is one edge.  The cyclic path
//! ([`crate::hypertree`]) answers the same way over its bag tree, whose
//! materialization already is the upward pass.  [`ExecCtx::full_reduce`]
//! runs both passes over every edge with the same two pass helpers.
//!
//! Every pass walks the join tree level by level ([`JoinTree::levels`]) on
//! the calling thread: the upward pass deepest level first, the downward
//! pass and the join top-down and bottom-up, so every child is done before
//! its parent reads it.
//!
//! The passes read the stored relations where they are, borrowed, and copy
//! one only when a semijoin first removes one of its rows — then only its
//! survivors, which later semijoins compact in place.  A relation no
//! semijoin shrinks is never copied, and the database is never written.

use crate::database::Database;
use crate::exec::ExecCtx;
use crate::govern::{unfail, EngineError, Governor};
use crate::metrics::{timed, MetricsSink, Phase};
use crate::relation::Relation;
use acyclic::JoinTree;
use hypergraph::{EdgeId, Hypergraph, NodeSet};
use std::borrow::Cow;

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
fn pair_mut<T>(rels: &mut [T], i: usize, j: usize) -> (&mut T, &T) {
    assert_ne!(i, j);
    if i < j {
        let (a, b) = rels.split_at_mut(j);
        (&mut a[i], &b[0])
    } else {
        let (a, b) = rels.split_at_mut(i);
        (&mut b[0], &a[j])
    }
}

/// One level of a reducer pass, timed as one [`Phase`] entry: each
/// `(target, sources)` job semijoins the target relation with each source
/// relation in turn ([`ExecCtx::retain_semijoin`]).  The governor is
/// consulted once per level even when the level has no job, so a zero
/// deadline trips deterministically on any tree, single-edge schemas
/// included.
fn reduce_level<M: MetricsSink, G: Governor>(
    ctx: &ExecCtx<'_, M, G>,
    (phase, depth): (Phase, usize),
    jobs: &[(usize, Vec<usize>)],
    relations: &mut [Cow<'_, Relation>],
    removed: &mut [usize],
) -> Result<(), EngineError> {
    timed(ctx.metrics, phase, depth, || -> Result<(), EngineError> {
        if G::ENABLED {
            ctx.gov.at_level(phase, depth)?;
        }
        for (target, sources) in jobs {
            for &source in sources {
                let (t, s) = pair_mut(relations, *target, source);
                removed[*target] += ctx.retain_semijoin(t, s)?;
            }
        }
        Ok(())
    })
}

impl<M: MetricsSink, G: Governor> ExecCtx<'_, M, G> {
    /// The reducer's upward pass: every parent ⋉ each of its children,
    /// deepest parent level first, one [`Phase::ReduceUp`] entry per tree
    /// level.  Afterwards the root holds exactly the full join's projection
    /// onto it, and every other edge the projection of its subtree's join.
    fn reduce_up(
        &self,
        tree: &JoinTree,
        levels: &[Vec<EdgeId>],
        relations: &mut [Cow<'_, Relation>],
        removed: &mut [usize],
    ) -> Result<(), EngineError> {
        for (depth, level) in levels.iter().enumerate().rev() {
            let jobs: Vec<(usize, Vec<usize>)> = level
                .iter()
                .filter(|&&e| !tree.children(e).is_empty())
                .map(|&e| {
                    let children = tree.children(e).iter().map(|c| c.index());
                    (e.index(), children.collect())
                })
                .collect();
            let at = (Phase::ReduceUp, depth);
            reduce_level(self, at, &jobs, relations, removed)?;
        }
        Ok(())
    }

    /// The reducer's downward pass over the edges `within` marks — a
    /// connected set holding the root: each marked child ⋉ its parent,
    /// top-down, one [`Phase::ReduceDown`] entry per level that has a
    /// marked child.  After an upward pass every marked edge holds exactly
    /// the full join's projection onto it.
    fn reduce_down(
        &self,
        tree: &JoinTree,
        levels: &[Vec<EdgeId>],
        within: &[bool],
        relations: &mut [Cow<'_, Relation>],
        removed: &mut [usize],
    ) -> Result<(), EngineError> {
        for (depth, level) in levels.iter().enumerate().skip(1) {
            let jobs: Vec<(usize, Vec<usize>)> = level
                .iter()
                .filter(|e| within[e.index()])
                .map(|&e| {
                    let parent = tree.parent(e).expect("non-root level");
                    (e.index(), vec![parent.index()])
                })
                .collect();
            if jobs.is_empty() {
                break;
            }
            let at = (Phase::ReduceDown, depth);
            reduce_level(self, at, &jobs, relations, removed)?;
        }
        Ok(())
    }

    /// Runs the two semijoin passes of the Yannakakis full reducer over
    /// `tree`, level by level.
    ///
    /// The upward pass semijoins every parent with each of its children
    /// (deepest levels first); the downward pass semijoins every child with
    /// its parent (top-down).  Afterwards every remaining tuple participates
    /// in the full join.  The passes work on the stored relations,
    /// borrowed: the first semijoin that removes a row from one copies its
    /// survivors, later ones compact that copy in place by a keep-mask
    /// ([`ExecCtx::retain_semijoin`]), and a relation no semijoin shrinks is
    /// copied only at the end, into [`Reduced::relations`].  No copy carries
    /// a dedup index: only insertion builds one.
    ///
    /// The metrics sink receives per-semijoin counters and one wall timing
    /// per tree level of each pass ([`Phase::ReduceUp`] deepest level
    /// first, then [`Phase::ReduceDown`]); the governor is consulted before
    /// every tree level and at every
    /// [`CHECK_BATCH`](crate::govern::CHECK_BATCH) rows inside the semijoin
    /// kernels.  An abort —
    /// cancellation, deadline, budget or injected failpoint — surfaces as
    /// `Err(EngineError)` and leaves `db` untouched: the reducer only ever
    /// reads the stored relations, and every checkpoint fires during
    /// read-only kernel phases, before any row of a copy moves.
    pub fn full_reduce(&self, db: &Database, tree: &JoinTree) -> Result<Reduced, EngineError> {
        let mut relations: Vec<Cow<'_, Relation>> =
            db.relations().iter().map(Cow::Borrowed).collect();
        let mut removed: Vec<usize> = vec![0; relations.len()];
        let levels = tree.levels();
        self.reduce_up(tree, &levels, &mut relations, &mut removed)?;
        let everything = vec![true; relations.len()];
        self.reduce_down(tree, &levels, &everything, &mut relations, &mut removed)?;
        let relations = relations
            .into_iter()
            .map(|r| match r {
                Cow::Borrowed(stored) => stored.clone_rows(),
                Cow::Owned(reduced) => reduced,
            })
            .collect();
        Ok(Reduced { relations, removed })
    }

    /// Computes the projection of the full join onto `output` by the
    /// Yannakakis algorithm, restricted to what connects `output`: the
    /// upward pass runs over the whole tree, the downward pass only along
    /// the path from the root to `S`, the smallest connected subtree whose
    /// edges cover `output` ([`JoinTree::connection_subtree`]), and inside
    /// `S`, and the bottom-up join only inside `S` — none at all when `S`
    /// is one edge, whose reduced relation is then projected.  Every join
    /// hashes; the reducer's semijoins choose their kernel from their
    /// inputs.
    ///
    /// The metrics sink receives per-semijoin and per-join counters and one
    /// wall timing per level of each stage that runs; the governor is
    /// consulted before every level and inside every kernel loop, and join
    /// output allocations are charged against its memory budget.  An abort
    /// surfaces as `Err(EngineError)`; `db` is never mutated, so an aborted
    /// query leaves the database exactly as loaded.  As in
    /// [`ExecCtx::full_reduce`], a stored relation is copied only once a
    /// semijoin shrinks it, and then only its survivors.
    pub fn yannakakis_join(
        &self,
        db: &Database,
        tree: &JoinTree,
        output: &NodeSet,
    ) -> Result<Relation, EngineError> {
        let mut relations: Vec<Cow<'_, Relation>> =
            db.relations().iter().map(Cow::Borrowed).collect();
        let levels = tree.levels();
        let mut removed = vec![0; relations.len()];
        self.reduce_up(tree, &levels, &mut relations, &mut removed)?;
        self.answer_from_upward_pass(db.schema(), tree, &levels, relations, output)
    }

    /// Answers `π_output(⋈)` from `relations` (one per edge of `h`, in edge
    /// order, each borrowed until a semijoin shrinks it) that an upward pass
    /// towards `tree`'s root has already reduced, working only on `S`, the
    /// smallest connected subtree covering `output`
    /// ([`JoinTree::connection_subtree`]).
    ///
    /// The root holds exactly the full join's projection onto it
    /// (Yannakakis, VLDB 1981), so the downward pass along the path from the
    /// root to `S` and inside `S` makes `S` globally consistent, and then
    /// `π_output` of the join of `S` alone is `π_output` of the full join
    /// (Beeri–Fagin–Maier–Yannakakis, JACM 1983).  With `|S| = 1` that is a
    /// projection of one relation, with no join; otherwise `S` joins
    /// bottom-up below its top, each edge's result projected onto the
    /// output attributes gathered so far plus the separator towards its
    /// parent, one [`Phase::Join`] entry per level of `S` (level 0 the
    /// deepest).
    pub(crate) fn answer_from_upward_pass(
        &self,
        h: &Hypergraph,
        tree: &JoinTree,
        levels: &[Vec<EdgeId>],
        mut relations: Vec<Cow<'_, Relation>>,
        output: &NodeSet,
    ) -> Result<Relation, EngineError> {
        let member = tree.connection_subtree(h, output);
        let is_member = |e: EdgeId| member[e.index()];
        let top = (0..tree.len())
            .map(|i| EdgeId(i as u32))
            .find(|&e| is_member(e) && !tree.parent(e).is_some_and(is_member))
            .expect("S is never empty");
        let mut reached = member.clone();
        let mut up = top;
        while let Some(p) = tree.parent(up) {
            reached[p.index()] = true;
            up = p;
        }
        let mut removed = vec![0; relations.len()];
        self.reduce_down(tree, levels, &reached, &mut relations, &mut removed)?;

        let edges = h.edges();
        let s_levels: Vec<Vec<EdgeId>> = levels
            .iter()
            .map(|level| level.iter().copied().filter(|&e| is_member(e)).collect())
            .filter(|level: &Vec<EdgeId>| !level.is_empty())
            .collect();
        if s_levels.len() == 1 && s_levels[0].len() == 1 {
            return Ok(into_project(relations.swap_remove(top.index()), output));
        }
        // Bottom-up join inside S: each member's slot starts as its reduced
        // relation and ends as the join of its part of S — its relation
        // joined with its member children's results, in child order —
        // projected onto the output attributes gathered so far plus the
        // separator towards its parent.  Children sit at deeper levels, so
        // they are done (and consumed) before their parent.
        let mut slots: Vec<Option<Cow<'_, Relation>>> = relations.into_iter().map(Some).collect();
        for (li, level) in s_levels.iter().rev().enumerate() {
            timed(
                self.metrics,
                Phase::Join,
                li,
                || -> Result<(), EngineError> {
                    if G::ENABLED {
                        self.gov.at_level(Phase::Join, li)?;
                    }
                    for &e in level {
                        let mut acc = slots[e.index()].take().expect("each edge joins once");
                        for &c in tree.children(e).iter().filter(|&&c| is_member(c)) {
                            let child = slots[c.index()].take().expect("children join first");
                            acc = Cow::Owned(self.join(&acc, &child)?);
                        }
                        let mut keep = acc.attributes().intersection(output);
                        if let Some(p) = tree.parent(e).filter(|_| e != top) {
                            let own = &edges[e.index()].nodes;
                            keep.union_with(&own.intersection(&edges[p.index()].nodes));
                        }
                        slots[e.index()] = Some(Cow::Owned(into_project(acc, &keep)));
                    }
                    Ok(())
                },
            )?;
        }
        let joined = slots[top.index()].take().expect("the top joins last");
        Ok(into_project(joined, output))
    }
}

/// [`Relation::project`] of a working relation the caller is done with: an
/// owned one moves its rows when the projection keeps every column.
fn into_project(relation: Cow<'_, Relation>, attrs: &NodeSet) -> Relation {
    match relation {
        Cow::Borrowed(stored) => stored.project(attrs),
        Cow::Owned(owned) => owned.into_project(attrs),
    }
}

/// [`ExecCtx::full_reduce`] with nobody watching.
pub fn full_reduce(db: &Database, tree: &JoinTree) -> Reduced {
    unfail(ExecCtx::new().full_reduce(db, tree))
}

/// [`ExecCtx::yannakakis_join`] with nobody watching.
///
/// # Examples
///
/// ```
/// use hypergraph::{EdgeId, Hypergraph};
/// use reldb::{yannakakis_join, Database, Tuple};
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
/// let answer = yannakakis_join(&db, &tree, &output);
/// assert_eq!(answer.len(), 1);
/// ```
pub fn yannakakis_join(db: &Database, tree: &JoinTree, output: &NodeSet) -> Relation {
    unfail(ExecCtx::new().yannakakis_join(db, tree, output))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Tuple;
    use crate::universal::query_via_full_join;
    use acyclic::join_tree;
    use hypergraph::{EdgeId, Hypergraph};

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

    /// The passes copy a relation only once a semijoin removes one of its
    /// rows: in `chain_db`, T(C,D) loses nothing and is still the stored
    /// relation, borrowed, after both passes; R and S are copies.
    #[test]
    fn a_relation_no_semijoin_shrinks_stays_borrowed() {
        let db = chain_db();
        let tree = join_tree(db.schema()).unwrap();
        let levels = tree.levels();
        let mut relations: Vec<Cow<'_, Relation>> =
            db.relations().iter().map(Cow::Borrowed).collect();
        let mut removed = vec![0; relations.len()];
        let everything = vec![true; relations.len()];
        let ctx = ExecCtx::new();
        ctx.reduce_up(&tree, &levels, &mut relations, &mut removed)
            .unwrap();
        ctx.reduce_down(&tree, &levels, &everything, &mut relations, &mut removed)
            .unwrap();
        assert_eq!(removed, [3, 2, 0]);
        assert!(matches!(relations[0], Cow::Owned(_)));
        assert!(matches!(relations[1], Cow::Owned(_)));
        let stored = &db.relations()[2];
        assert!(matches!(relations[2], Cow::Borrowed(r) if std::ptr::eq(r, stored)));
    }

    #[test]
    fn yannakakis_matches_naive_join_on_full_output() {
        let db = chain_db();
        let tree = join_tree(db.schema()).unwrap();
        let all = db.schema().nodes();
        let fast = yannakakis_join(&db, &tree, &all);
        let naive = query_via_full_join(&db, &all);
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
            let naive = query_via_full_join(&db, &output);
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
            let naive = query_via_full_join(&db, &output);
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

    /// The snowflake (a tree with multi-edge levels) reduces to the
    /// oracle's relations, and its full pipeline agrees with the naive
    /// join.
    #[test]
    fn snowflake_strategies_agree_with_sequential() {
        let db = snowflake_db();
        let tree = join_tree(db.schema()).unwrap();
        assert!(tree.levels().iter().any(|l| l.len() > 1));
        let got = full_reduce(&db, &tree);
        let (want, removed) = crate::reference::naive_full_reduce(&db, &tree);
        assert_eq!(got.removed, removed, "removed counts diverged");
        for (w, g) in want.iter().zip(&got.relations) {
            assert!(w.agrees_with(g), "relations diverged");
        }
        let all = db.schema().nodes();
        let naive = query_via_full_join(&db, &all);
        assert!(yannakakis_join(&db, &tree, &all).same_contents(&naive));
    }

    /// The join phase produces tuple-for-tuple the oracle's and the naive
    /// join's projections, not just the full output (projection decisions
    /// happen per subtree).
    #[test]
    fn join_strategies_match_sequential_on_projections() {
        let db = snowflake_db();
        let tree = join_tree(db.schema()).unwrap();
        for attrs in [vec!["K0", "D10"], vec!["D0", "D1"], vec!["K0"]] {
            let output = db.attributes(attrs.iter().copied()).unwrap();
            let got = yannakakis_join(&db, &tree, &output);
            assert!(
                got.same_contents(&query_via_full_join(&db, &output)),
                "projection {attrs:?} diverged from the naive join"
            );
            assert!(
                crate::reference::naive_yannakakis_join(&db, &tree, &output).agrees_with(&got),
                "projection {attrs:?} diverged from the oracle"
            );
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
