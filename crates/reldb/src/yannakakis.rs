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
//! The join inside `S` has three forms, and the input picks one.
//!
//! - **Path expansion.**  When the output is two attributes `x < y`, `S` is
//!   a path of two edges or more whose every separator is one attribute
//!   (with `|X| = 2` a many-edge `S` always is a path: each of its leaves
//!   holds an output attribute no other member holds), and `S`'s relations
//!   share a pool, the answer is a join-project shaped like a sparse
//!   Boolean matrix product (Amossen and Pagh, ICDT 2009; Deep, Hu and
//!   Koutris, SIGMOD 2020).  Each relation gets a run index — its rows
//!   ordered by the column the walk looks them up by, the distinct keys
//!   marked in a [`RankedBits`], one start offset per key and the column
//!   handed on copied out — and then, for each value `a` of `x` in
//!   ascending handle order, the walk hops from the end holding `x` to the
//!   end holding `y`, gathering every value's run and deduplicating the
//!   small list after each hop, and emits `(a, d)` for each distinct `d`.
//!   The rows come out strictly ascending, with no hash table and no
//!   intermediate relation.
//! - **Enumeration.**  When the output holds every attribute of `S`, `S`'s
//!   relations share a pool and each one's rows are strictly ascending (as
//!   a loaded snapshot stores them and semijoins keep them), and some
//!   pre-order of `S` meets the attributes in ascending order, the answer
//!   is enumerated by nested loops over the reduced relations: `S` is
//!   globally consistent, so no loop dead-ends, and the rows come out in
//!   the answer's lexicographic handle order, which in a loaded pool is
//!   value order (Bagan, Durand and Grandjean, CSL 2007, for enumerating
//!   full acyclic joins; Carmeli, Tziavelis, Gatterbauer, Kimelfeld and
//!   Riedewald, PODS 2021, for the orders this reaches).
//! - **Bottom-up hash join.**  Every other answer with `S` of two edges or
//!   more: an output of three attributes or more that is not all of a
//!   sorted `S` met in order, a path with a separator of two attributes or
//!   more, or relations in different pools.
//!
//! Both of the first two forms record one [`Kernel::Enumerate`] join op
//! and time one [`Phase::Join`] level.

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
use crate::govern::{unfail, EngineError, Governor, CHECK_BATCH};
use crate::metrics::{timed, Kernel, MetricsSink, OpKind, OpMetrics, Phase};
use crate::pool::NO_HANDLE;
use crate::rank::RankedBits;
use crate::relation::{first_unordered_row, sort_ids_by_key, Relation};
use acyclic::JoinTree;
use hypergraph::{EdgeId, Hypergraph, NodeId, NodeSet};
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
    /// [`CHECK_BATCH`] rows inside the semijoin
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
    /// `S`, and the join only inside `S` — none at all when `S` is one edge,
    /// whose reduced relation is then projected.  The join expands a path
    /// with one-attribute separators for a two-attribute output, enumerates
    /// `S`'s sorted relations where the output is all of `S`'s attributes
    /// and a pre-order of `S` meets them in order (see the module docs), and
    /// hashes bottom-up otherwise; the reducer's semijoins choose their
    /// kernel from their inputs.
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
    /// projection of one relation, with no join.  Where [`path_expansion`]
    /// finds a plan, the two-attribute answer is walked along the path
    /// ([`ExecCtx::expand_path`]), and where [`sorted_enumeration`] finds
    /// one, `S`'s whole join is enumerated from its sorted relations
    /// ([`ExecCtx::enumerate_join`]), each as one [`Phase::Join`] entry;
    /// otherwise `S` joins bottom-up below its top, each edge's result
    /// projected onto the output attributes gathered so far plus the
    /// separator towards its parent, one [`Phase::Join`] entry per level of
    /// `S` (level 0 the deepest).
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
        if let Some(hops) = path_expansion(tree, &member, &relations, output) {
            return timed(self.metrics, Phase::Join, 0, || {
                if G::ENABLED {
                    self.gov.at_level(Phase::Join, 0)?;
                }
                self.expand_path(&hops, &relations, output)
            });
        }
        if let Some(steps) = sorted_enumeration(tree, &member, &relations, output) {
            return timed(self.metrics, Phase::Join, 0, || {
                if G::ENABLED {
                    self.gov.at_level(Phase::Join, 0)?;
                }
                self.enumerate_join(&steps, &relations)
            });
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

/// One relation of the path [`ExecCtx::expand_path`] walks, as column
/// positions in its rows.
struct Hop {
    /// The edge's index (into the schema's edges and the relations).
    edge: usize,
    /// The column a run is looked up by: the first output attribute at the
    /// start of the path, the separator towards the previous edge after it.
    key: usize,
    /// The column a run hands on: the separator towards the next edge, the
    /// second output attribute at the far end.
    value: usize,
}

/// The plan for answering `output` from `S` (the members of `tree` that
/// `member` marks) by expansion along a path, or `None` when the rule does
/// not hold:
///
/// - **(a)** `output` is two attributes, `x < y`;
/// - **(b)** `S` is a path of two edges or more, walked from an end that
///   holds `x` to one that holds `y`;
/// - **(c)** every separator on the path is a single attribute;
/// - **(d)** `S`'s relations share one pool.
///
/// With `|X| = 2`, (b) holds whenever `S` has two edges: each leaf of `S`
/// holds an output attribute no other member holds
/// ([`JoinTree::connection_subtree`]), so `S` has exactly two leaves.  Under
/// (c) the join of the path is the chains of rows that agree with their
/// neighbours on one attribute each — running intersection puts whatever
/// two edges share on every separator between them — so `π_{x,y}` of it is
/// what [`ExecCtx::expand_path`] reaches hop by hop.
fn path_expansion(
    tree: &JoinTree,
    member: &[bool],
    relations: &[Cow<'_, Relation>],
    output: &NodeSet,
) -> Option<Vec<Hop>> {
    let mut attributes = output.iter();
    let (x, y) = (attributes.next()?, attributes.next()?);
    if attributes.next().is_some() {
        return None;
    }
    let neighbours = |e: usize| {
        let id = EdgeId(e as u32);
        (tree.parent(id).into_iter())
            .chain(tree.children(id).iter().copied())
            .map(EdgeId::index)
            .filter(|&n| member[n])
    };
    let start = (0..tree.len()).find(|&e| {
        member[e] && neighbours(e).count() == 1 && relations[e].attributes().contains(x)
    })?;
    let pool = relations[start].pool();
    let column = |e: usize, a: NodeId| relations[e].columns().binary_search(&a).ok();
    let mut hops = Vec::new();
    let (mut previous, mut edge, mut key) = (None, start, x);
    loop {
        let own = relations[edge].attributes();
        if !relations[edge].pool().same_pool(pool) {
            return None;
        }
        let mut next = neighbours(edge).filter(|&n| Some(n) != previous);
        let (value, next) = match (next.next(), next.next()) {
            (None, _) => (y, None),
            (Some(n), None) => {
                let separator = own.intersection(relations[n].attributes());
                if separator.len() != 1 {
                    return None;
                }
                (separator.first()?, Some(n))
            }
            (Some(_), Some(_)) => return None,
        };
        hops.push(Hop {
            edge,
            key: column(edge, key)?,
            value: column(edge, value)?,
        });
        let Some(n) = next else { break };
        (previous, edge, key) = (Some(edge), n, value);
    }
    (hops.len() >= 2 && hops.len() == member.iter().filter(|&&m| m).count()).then_some(hops)
}

/// One hop's relation as [`ExecCtx::expand_path`] reads it: for every
/// distinct handle of the key column, the run of value-column handles on
/// the rows that hold it.  The offsets and the values live in one buffer
/// shared by the path's indexes ([`run_indexes`]).
struct RunIndex<'c> {
    /// The distinct key handles.
    keys: RankedBits,
    /// `starts[r]..starts[r + 1]`: the run of the `r`-th key in `values`.
    starts: &'c [u32],
    /// The value column, copied out grouped by key.
    values: &'c [u32],
}

impl RunIndex<'_> {
    /// The run of the `r`-th distinct key.
    #[inline]
    fn run_at(&self, r: usize) -> &[u32] {
        &self.values[self.starts[r] as usize..self.starts[r + 1] as usize]
    }

    /// The run of `key`: empty when no row holds it.
    #[inline]
    fn run(&self, key: u32) -> &[u32] {
        match self.keys.position(key as usize) {
            Some(r) => self.run_at(r as usize),
            None => &[],
        }
    }
}

/// The run index of each hop's relation, its offsets and values carved out
/// of `cells`, which is sized once for all of them.
///
/// Each relation's distinct keys are marked first, which sizes its
/// offsets.  Then its rows are ordered by the key column with
/// [`sort_ids_by_key`] — the identity after one neighbour scan where that
/// column leads rows stored sorted, as on a loaded snapshot, a radix sort
/// anywhere else — and the value column is copied out in that order, one
/// start offset per distinct key.  Nothing grows by doubling, and the
/// sort's key copy and permutation, allocated after `cells`, are freed
/// before the next relation's.  (Kept in six smaller buffers, the indexes
/// stayed resident in a server thread's heap after each query: on a
/// 2-vCPU box `scale-cold`'s `peak_rss_mb` read 87–92 MiB against the hash
/// join's 85, and 85.6–85.8 from one buffer.)
fn run_indexes<'c>(rels: &[&Relation], hops: &[Hop], cells: &'c mut Vec<u32>) -> Vec<RunIndex<'c>> {
    fn columns(r: &Relation) -> std::slice::ChunksExact<'_, u32> {
        r.raw_rows().chunks_exact(r.columns().len())
    }
    let marks: Vec<RankedBits> = (rels.iter().zip(hops))
        .map(|(r, hop)| {
            let keys = || columns(r).map(|row| row[hop.key] as usize);
            RankedBits::marking(keys().max().map_or(0, |k| k + 1), keys())
        })
        .collect();
    let sizes = (marks.iter().zip(rels)).map(|(m, r)| m.count() + 1 + r.len());
    *cells = vec![0; sizes.sum()];
    let mut free: &mut [u32] = cells;
    let mut indexes = Vec::with_capacity(hops.len());
    for ((keys, r), hop) in marks.into_iter().zip(rels).zip(hops) {
        let (starts, rest) = std::mem::take(&mut free).split_at_mut(keys.count() + 1);
        let (values, rest) = rest.split_at_mut(r.len());
        free = rest;
        let (rows, width) = (r.raw_rows(), r.columns().len());
        let key_column: Vec<u32> = columns(r).map(|row| row[hop.key]).collect();
        let order = sort_ids_by_key(&key_column, 1, key_column.len());
        let (mut run, mut last) = (0, None);
        for (i, &id) in order.iter().enumerate() {
            let key = key_column[id as usize];
            if last != Some(key) {
                starts[run] = i as u32;
                run += 1;
                last = Some(key);
            }
            values[i] = rows[id as usize * width + hop.value];
        }
        starts[run] = order.len() as u32;
        indexes.push(RunIndex {
            keys,
            starts,
            values,
        });
    }
    indexes
}

/// Sorts a gathered list of handles and drops its repeats.
fn sort_dedup(values: &mut Vec<u32>) {
    if values.len() > 1 {
        values.sort_unstable();
        values.dedup();
    }
}

impl<M: MetricsSink, G: Governor> ExecCtx<'_, M, G> {
    /// `π_{x,y}` of the join of the path `hops` ([`path_expansion`] proved
    /// it sound), `x` read at its start and `y` at its far end.
    ///
    /// Each relation gets a [`RunIndex`] first ([`run_indexes`]), charged
    /// to the governor's budget as two words per row (its start offsets and
    /// its gathered column).  Then, for each value `a` of `x` in ascending handle order,
    /// the walk gathers `a`'s run at the start, and at every later hop the
    /// runs of all the values in hand, sorting and deduplicating the small
    /// list after each hop.  The distinct values at the far end are `a`'s
    /// partners, emitted ascending, so the answer comes out strictly
    /// ascending with no hash table and no intermediate relation.  The
    /// governor is checkpointed every [`CHECK_BATCH`] gathered values, so a
    /// hub value with a huge run cannot run unchecked, and every
    /// [`CHECK_BATCH`] emitted rows, when that batch is charged to the
    /// budget (the answer's size is not known in advance).  Records one
    /// [`Kernel::Enumerate`] join op: the values gathered as `probed`, the
    /// answer rows as `kept`, the distinct keys indexed as `built` and the
    /// rows indexed as `build_rows`.
    fn expand_path(
        &self,
        hops: &[Hop],
        relations: &[Cow<'_, Relation>],
        output: &NodeSet,
    ) -> Result<Relation, EngineError> {
        let rels: Vec<&Relation> = hops.iter().map(|h| &*relations[h.edge]).collect();
        let build_rows: u64 = rels.iter().map(|r| r.len() as u64).sum();
        if G::ENABLED {
            self.gov.approve_alloc(build_rows, 2)?;
        }
        let mut cells = Vec::new();
        let indexes = run_indexes(&rels, hops, &mut cells);
        let (start, rest) = indexes.split_first().expect("the path has two hops");
        let (mut cur, mut next) = (Vec::new(), Vec::new());
        let mut out = Vec::new();
        let (mut gathered, mut checked) = (0usize, 0usize);
        let (mut len, mut charged) = (0usize, 0usize);
        for (r, a) in start.keys.ones().enumerate() {
            cur.clear();
            cur.extend_from_slice(start.run_at(r));
            gathered += cur.len();
            for index in rest {
                sort_dedup(&mut cur);
                next.clear();
                for &v in &cur {
                    let run = index.run(v);
                    next.extend_from_slice(run);
                    gathered += run.len();
                    if G::ENABLED && gathered - checked >= CHECK_BATCH {
                        checked = gathered;
                        self.gov.checkpoint()?;
                    }
                }
                std::mem::swap(&mut cur, &mut next);
            }
            sort_dedup(&mut cur);
            for &d in &cur {
                out.extend_from_slice(&[a as u32, d]);
                len += 1;
                if G::ENABLED && len - charged == CHECK_BATCH {
                    charged = len;
                    self.gov.checkpoint()?;
                    self.gov.approve_alloc(CHECK_BATCH as u64, 2)?;
                }
            }
        }
        if G::ENABLED && len > charged {
            self.gov.approve_alloc((len - charged) as u64, 2)?;
        }
        assert!(len < NO_HANDLE as usize, "relation too large");
        // Grown by doubling: drop the spare capacity, as the hash join does.
        out.shrink_to_fit();
        if M::ENABLED {
            self.metrics.record_op(OpMetrics {
                kind: OpKind::Join,
                kernel: Kernel::Enumerate,
                probed: gathered as u64,
                kept: len as u64,
                built: indexes.iter().map(|i| i.keys.count() as u64).sum(),
                build_rows,
            });
        }
        let names: Vec<&str> = rels.iter().map(|r| r.name()).collect();
        Ok(Relation::from_distinct_rows(
            format!("π({})", names.join("⋈")),
            output.clone(),
            rels[0].pool().clone(),
            out,
            len,
        ))
    }
}

/// One edge of `S` in the pre-order [`ExecCtx::enumerate_join`] loops in.
struct Step {
    /// The edge's index (into the schema's edges and the relations).
    edge: usize,
    /// The step of the edge's parent in the pre-order; `None` at the root.
    parent: Option<usize>,
    /// Where the separator towards the parent sits among the parent's
    /// columns.  It is the edge's own leading columns, in the same order.
    separator: Vec<usize>,
}

/// The plan for answering `output` from `S` (the members of `tree` that
/// `member` marks, at least two) by enumerating `S`'s join, or `None` when
/// the answer must be joined by hashing.  The rule, most selective test
/// first:
///
/// - **(a)** `output` holds every attribute of `S`, so the answer is the
///   whole join of `S` and its rows are distinct by construction;
/// - **(b)** `S`'s relations share one pool and each one's rows are
///   strictly ascending in handle order ([`first_unordered_row`]) — as the
///   snapshot loader stores them, and as semijoins keep them;
/// - **(c)** some edge `r` of `S`, with every edge's neighbours in `S`
///   visited in order of their smallest new attribute, gives a pre-order
///   that meets the attributes in strictly ascending [`NodeId`] order:
///   first `r`'s attributes, then each edge's attributes not in its parent.
///
/// Under (c) every separator is the leading columns of its child and ranks
/// below the child's new attributes, so a parent row's matches in a child
/// are one contiguous run of its sorted rows, in order of the new columns.
/// The test is sufficient, not the full disruptive-trio test (Carmeli,
/// Tziavelis, Gatterbauer, Kimelfeld and Riedewald, PODS 2021): `A–C, C–B`
/// with `A < B < C` falls back.
fn sorted_enumeration(
    tree: &JoinTree,
    member: &[bool],
    relations: &[Cow<'_, Relation>],
    output: &NodeSet,
) -> Option<Vec<Step>> {
    let in_s: Vec<usize> = (0..tree.len()).filter(|&e| member[e]).collect();
    let mut attributes = NodeSet::new();
    for &e in &in_s {
        attributes.union_with(relations[e].attributes());
    }
    if !attributes.is_subset(output) {
        return None;
    }
    let pool = relations[in_s[0]].pool();
    let sorted = |r: &Relation| {
        let width = r.columns().len();
        r.pool().same_pool(pool)
            && width > 0
            && first_unordered_row(r.raw_rows(), width, true).is_none()
    };
    if !in_s.iter().all(|&e| sorted(&relations[e])) {
        return None;
    }
    let smallest = attributes.first()?;
    in_s.iter()
        .filter(|&&r| relations[r].attributes().contains(smallest))
        .find_map(|&r| {
            let mut steps = Vec::with_capacity(in_s.len());
            let mut last = None;
            ascending_preorder(tree, member, relations, (r, None), &mut steps, &mut last)
                .then_some(steps)
        })
}

/// Appends the pre-order of `S` below `edge` (reached from `parent`, a
/// step already in `steps`) to `steps`, visiting each edge's neighbours in
/// order of their smallest new attribute.  False as soon as an edge's new
/// attributes do not all lie above `last`, the largest attribute met so far.
fn ascending_preorder(
    tree: &JoinTree,
    member: &[bool],
    relations: &[Cow<'_, Relation>],
    (edge, parent): (usize, Option<usize>),
    steps: &mut Vec<Step>,
    last: &mut Option<NodeId>,
) -> bool {
    let own = relations[edge].attributes();
    let from = parent.map(|p| steps[p].edge);
    let new = match from {
        Some(p) => own.difference(relations[p].attributes()),
        None => own.clone(),
    };
    if new
        .first()
        .zip(*last)
        .is_some_and(|(first, last)| first <= last)
    {
        return false;
    }
    *last = new.iter().last().or(*last);
    let separator = match from {
        Some(p) => (relations[p].columns().iter().enumerate())
            .filter(|&(_, &a)| own.contains(a))
            .map(|(i, _)| i)
            .collect(),
        None => Vec::new(),
    };
    let at = steps.len();
    steps.push(Step {
        edge,
        parent,
        separator,
    });
    let e = EdgeId(edge as u32);
    let mut next: Vec<(Option<NodeId>, usize)> = (tree.parent(e).into_iter())
        .chain(tree.children(e).iter().copied())
        .map(EdgeId::index)
        .filter(|&n| member[n] && Some(n) != from)
        .map(|n| (relations[n].attributes().difference(own).first(), n))
        .collect();
    next.sort_unstable();
    next.into_iter()
        .all(|(_, n)| ascending_preorder(tree, member, relations, (n, Some(at)), steps, last))
}

/// One step's relation as [`ExecCtx::enumerate_join`] walks it.
struct Level<'r> {
    /// The sorted rows, flat.
    rows: &'r [u32],
    width: usize,
    /// The leading separator columns: matched against the parent, not
    /// emitted.
    skip: usize,
    /// `runs[p]`: the rows matching the parent's row `p`.
    runs: Vec<(u32, u32)>,
    /// `below[r]`: the completions of the rows before `r` (prefix sums, so
    /// `below[r + 1] - below[r]` is row `r`'s own).
    below: Vec<u64>,
}

impl Level<'_> {
    fn len(&self) -> u32 {
        (self.rows.len() / self.width) as u32
    }

    /// Row `r`'s columns past the separator.
    #[inline]
    fn emitted(&self, r: u32) -> &[u32] {
        let at = r as usize * self.width;
        &self.rows[at + self.skip..at + self.width]
    }

    /// The first row from `r` on that has a completion.
    #[inline]
    fn live_from(&self, mut r: u32, end: u32) -> u32 {
        while r < end && self.below[r as usize + 1] == self.below[r as usize] {
            r += 1;
        }
        r
    }
}

impl<M: MetricsSink, G: Governor> ExecCtx<'_, M, G> {
    /// For every row of `parent`, the run of `child`'s rows that match it
    /// on the `separator` columns of `parent`, which lead `child`'s sorted
    /// rows.  The parent's keys are put in order by
    /// [`sort_ids_by_key`], then one merge walk over both finds every run.
    fn runs(
        &self,
        parent: &Level<'_>,
        separator: &[usize],
        child: &Level<'_>,
    ) -> Result<Vec<(u32, u32)>, EngineError> {
        let k = separator.len();
        let keys: Vec<u32> = (parent.rows.chunks_exact(parent.width))
            .flat_map(|row| separator.iter().map(move |&c| row[c]))
            .collect();
        let key = |p: u32| &keys[p as usize * k..][..k];
        let head = |r: u32| &child.rows[r as usize * child.width..][..k];
        let mut runs = vec![(0, 0); parent.len() as usize];
        let (mut lo, mut hi) = (0, 0);
        let order = sort_ids_by_key(&keys, k, parent.len() as usize);
        for (n, &p) in order.iter().enumerate() {
            if G::ENABLED && n % CHECK_BATCH == 0 {
                self.gov.checkpoint()?;
            }
            if n == 0 || key(order[n - 1]) != key(p) {
                // A larger key: its run starts past the last one.
                lo = hi;
                while lo < child.len() && head(lo) < key(p) {
                    lo += 1;
                }
                hi = lo;
                while hi < child.len() && head(hi) == key(p) {
                    hi += 1;
                }
            }
            runs[p as usize] = (lo, hi);
        }
        Ok(runs)
    }

    /// The whole join of `S` by nested loops over its reduced relations in
    /// the pre-order `steps` ([`sorted_enumeration`] proved it sound): each
    /// step loops over the run of its sorted rows that matches its parent's
    /// current row on their separator, and contributes its columns past the
    /// separator to the output row.  The rows come out in ascending handle
    /// order, with no hash table, no intermediate result and no dedup table.
    ///
    /// First every parent row's run in each child is found
    /// ([`ExecCtx::runs`]) and every row's number of completions below it
    /// counted, bottom-up; the governor's budget is charged once for the
    /// counted answer, which is then allocated at its exact size and filled
    /// with a checkpoint every [`CHECK_BATCH`] rows.  A row without
    /// completions — none in a globally consistent `S` — is skipped.
    /// Records one [`Kernel::Enumerate`] join op.
    fn enumerate_join(
        &self,
        steps: &[Step],
        relations: &[Cow<'_, Relation>],
    ) -> Result<Relation, EngineError> {
        let rels: Vec<&Relation> = steps.iter().map(|s| &*relations[s.edge]).collect();
        let mut levels: Vec<Level<'_>> = (rels.iter().zip(steps))
            .map(|(r, step)| Level {
                rows: r.raw_rows(),
                width: r.columns().len(),
                skip: step.separator.len(),
                runs: Vec::new(),
                below: Vec::new(),
            })
            .collect();
        for i in (0..steps.len()).rev() {
            if let Some(p) = steps[i].parent {
                levels[i].runs = self.runs(&levels[p], &steps[i].separator, &levels[i])?;
            }
            let children: Vec<usize> = (i + 1..steps.len())
                .filter(|&j| steps[j].parent == Some(i))
                .collect();
            let mut below = Vec::with_capacity(levels[i].len() as usize + 1);
            let mut total = 0u64;
            below.push(total);
            for r in 0..levels[i].len() as usize {
                let completions = children.iter().fold(1u64, |acc, &j| {
                    let (lo, hi) = levels[j].runs[r];
                    let child = &levels[j].below;
                    acc.saturating_mul(child[hi as usize] - child[lo as usize])
                });
                total = total.saturating_add(completions);
                below.push(total);
            }
            levels[i].below = below;
        }

        let attributes = rels.iter().fold(NodeSet::new(), |mut all, r| {
            all.union_with(r.attributes());
            all
        });
        let width = attributes.len();
        let total = *levels[0].below.last().expect("a count per row, plus one");
        if G::ENABLED {
            self.gov.approve_alloc(total, width)?;
        }
        assert!(total < u64::from(NO_HANDLE), "relation too large");
        let len = total as usize;
        let mut out = vec![0u32; len * width];
        // The last step in pre-order is a leaf, so every row of its runs is
        // live: the loops below position the steps before it, keep their
        // emitted columns in `prefix`, and copy out one whole leaf run per
        // position.
        let (leaf, last) = (levels.len() - 1, levels.last().expect("S has two edges"));
        let leaf_parent = steps[leaf].parent.expect("the leaf is no root");
        let mut offsets = vec![0usize];
        for level in &levels[..leaf] {
            offsets.push(offsets.last().expect("starts at 0") + level.width - level.skip);
        }
        let mut prefix = vec![0u32; offsets[leaf]];
        let (mut cur, mut end) = (vec![0u32; leaf], vec![0u32; leaf]);
        let (mut at, mut checked) = (0usize, 0usize);
        let mut open = 0;
        while at < out.len() {
            // Open every step from `open` on at its first live row.
            for i in open..leaf {
                let (lo, hi) = match steps[i].parent {
                    Some(p) => levels[i].runs[cur[p] as usize],
                    None => (0, levels[i].len()),
                };
                (cur[i], end[i]) = (levels[i].live_from(lo, hi), hi);
                prefix[offsets[i]..offsets[i + 1]].copy_from_slice(levels[i].emitted(cur[i]));
            }
            let (lo, hi) = last.runs[cur[leaf_parent] as usize];
            for r in lo..hi {
                // Cell by cell: the rows are a few words wide, too narrow
                // for a copy call to pay.
                let row = &mut out[at..at + width];
                let (head, tail) = row.split_at_mut(prefix.len());
                head.iter_mut().zip(&prefix).for_each(|(o, &v)| *o = v);
                tail.iter_mut()
                    .zip(last.emitted(r))
                    .for_each(|(o, &v)| *o = v);
                at += width;
            }
            if G::ENABLED && at / width >= checked + CHECK_BATCH {
                checked = at / width;
                self.gov.checkpoint()?;
            }
            // Advance the deepest step that has a live row left.
            open = leaf;
            while open > 0 {
                let i = open - 1;
                cur[i] = levels[i].live_from(cur[i] + 1, end[i]);
                if cur[i] < end[i] {
                    prefix[offsets[i]..offsets[i + 1]].copy_from_slice(levels[i].emitted(cur[i]));
                    break;
                }
                open -= 1;
            }
        }
        if M::ENABLED {
            let rows = |l: &Level<'_>| u64::from(l.len());
            let parents = steps.iter().filter_map(|s| s.parent);
            self.metrics.record_op(OpMetrics {
                kind: OpKind::Join,
                kernel: Kernel::Enumerate,
                probed: levels.iter().map(rows).sum(),
                kept: total,
                built: parents.map(|p| rows(&levels[p])).sum(),
                build_rows: levels[1..].iter().map(rows).sum(),
            });
        }
        let names: Vec<&str> = rels.iter().map(|r| r.name()).collect();
        Ok(Relation::from_distinct_rows(
            format!("π({})", names.join("⋈")),
            attributes,
            rels[0].pool().clone(),
            out,
            len,
        ))
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
