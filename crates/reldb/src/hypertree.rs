//! Cyclic-schema execution: materialize the bags of a hypertree
//! decomposition, then run the ordinary Yannakakis pipeline over the bag
//! tree.
//!
//! A cyclic schema has no join tree, so [`ExecCtx::yannakakis_join`] cannot
//! run on it directly.  The remedy is the classic reduction to the acyclic
//! case, with the structural half supplied by the [`decomp`] crate:
//!
//! 1. **decompose** — triangulate the schema's primal graph into maximal-
//!    clique *bags* with a running-intersection tree
//!    ([`decompose()`](decomp::decompose()));
//! 2. **materialize** — bags build one at a time, children before parents
//!    along the bag tree ([`ExecCtx::materialize_bags`]).  Each bag becomes one
//!    relation: the join of the original relations in its cover (assigned
//!    edges joined whole, extra overlapping edges projected down) and of one
//!    *message* per child — the already-built child bag projected onto the
//!    separator `child ∩ bag` — projected onto the bag's nodes.  A message
//!    lies inside the bag, so joining it is a semijoin filter: this is the
//!    upward pass of the full reducer run while the bags are built, and it
//!    keeps a ring's bags from being the cross products their covers alone
//!    would give;
//! 3. **reduce + join** — the bag database is an ordinary acyclic database
//!    over the bag hypergraph whose upward pass step 2 already ran, so the
//!    root bag holds exactly the full join's projection onto it.  What the
//!    acyclic engine does after its own upward pass runs next, on the
//!    owned bag relations: the downward pass along the path from the root
//!    to the smallest bag subtree covering the output
//!    ([`JoinTree::connection_subtree`](acyclic::JoinTree::connection_subtree))
//!    and inside it, then the join inside it.  No second upward pass runs:
//!    every bag was built by joining its children's separator projections,
//!    so a parent ⋉ child semijoin could remove nothing.
//!
//! The result is tuple-for-tuple the projection of the full join.  Every
//! original edge is wholly contained in the bag it is assigned to and
//! enters it whole, so the join of the bags is contained in the full join.
//! Conversely every bag contains the full join's projection onto it: by
//! induction up the tree each child does, so each message contains the
//! full join's projection onto the separator, and filtering by it (or by a
//! trimmed extra edge) never drops a tuple the full join needs.  Messages
//! and extras only ever shrink bags; the downward pass and the join over
//! the covering bag subtree handle the rest.
//!
//! [`ExecCtx::query_yannakakis`] is the one entry point.  It reads the
//! database's plan — an acyclic schema's join tree, or both heuristics'
//! decompositions of a cyclic one, built on the database's first query and
//! shared by its clones — and takes the direct join-tree path or the
//! decomposition path accordingly.

use crate::database::Database;
use crate::exec::ExecCtx;
use crate::govern::{contain_panics, EngineError, Governor};
use crate::metrics::{timed, MetricsSink, Phase};
use crate::relation::Relation;
use acyclic::{join_tree, JoinTree};
use decomp::{decompose, Decomposition, Heuristic};
use hypergraph::{Hypergraph, NodeSet};
use std::borrow::Cow;
use std::time::Instant;

/// Trims one bag-cover input to the bag: relations already inside the bag
/// pass through (borrowed); overlapping extras and child bags are projected
/// onto their in-bag attributes (owned) — for a child bag that is its
/// separator message.
///
/// Projecting an extra *before* joining may lose join constraints it
/// carried on out-of-bag attributes, making the bag a superset of
/// `π_bag(⋈ cover)` on the extra part — which is harmless: a bag only needs
/// to (a) contain the full join's projection onto it (supersets qualify)
/// and (b) enforce its *assigned* edges exactly, and assigned relations
/// always enter whole.  The payoff is that an extra edge overlapping the
/// bag in one attribute contributes its few hundred distinct values
/// instead of its full tuple count.
fn trim_to_bag<'a>(r: &'a Relation, bag_nodes: &NodeSet) -> Cow<'a, Relation> {
    if r.attributes().is_subset(bag_nodes) {
        Cow::Borrowed(r)
    } else {
        Cow::Owned(r.project(bag_nodes))
    }
}

/// Greedily orders a bag's cover relations smallest-estimated-intermediate
/// first: start from the smallest relation, then repeatedly append the
/// relation minimizing the estimated join output against everything joined
/// so far, from a sampled distinct-key estimate
/// (`Relation::estimate_distinct_ratio_on`).  The estimate is the textbook
/// `|A|·|B| / max(d_B(shared), 1)` with `d_B` the sampled distinct count of
/// the shared columns on the candidate's side; a relation sharing no
/// attribute takes `d_B = 1`, the cross-product estimate `|A|·|B|`, so it
/// sorts after any candidate that shares a key.  Joins are commutative
/// under set semantics, so any order is correct — this one just keeps
/// intermediates small.
fn order_cover(cover: &mut [Cow<'_, Relation>]) {
    let n = cover.len();
    if n <= 1 {
        return;
    }
    let first = (0..n).min_by_key(|&i| cover[i].len()).expect("nonempty");
    cover.swap(0, first);
    let mut acc_attrs = cover[0].attributes().clone();
    let mut acc_est = cover[0].len() as f64;
    for k in 1..n - 1 {
        let estimate = |r: &Relation| -> f64 {
            let d = if r.attributes().is_disjoint(&acc_attrs) {
                1.0
            } else {
                (r.estimate_distinct_ratio_on(&acc_attrs) * r.len() as f64).max(1.0)
            };
            acc_est * r.len() as f64 / d
        };
        let best = (k..n)
            .min_by(|&i, &j| {
                estimate(&cover[i])
                    .partial_cmp(&estimate(&cover[j]))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("nonempty tail");
        cover.swap(k, best);
        acc_est = estimate(&cover[k]).max(1.0);
        acc_attrs.union_with(cover[k].attributes());
    }
}

/// The bag-join fold: joins the (already trimmed) cover relations and
/// child messages — reordered smallest estimated intermediate first by
/// [`order_cover`] — and projects onto the bag's nodes.
fn join_cover<'a, M: MetricsSink, G: Governor>(
    ctx: &ExecCtx<'_, M, G>,
    cover: impl IntoIterator<Item = Cow<'a, Relation>>,
    bag_nodes: &NodeSet,
    name: &str,
) -> Result<Relation, EngineError> {
    let mut cover: Vec<Cow<'a, Relation>> = cover.into_iter().collect();
    order_cover(&mut cover);
    let mut acc: Option<Relation> = None;
    for r in cover {
        acc = Some(match acc {
            None => r.into_owned(),
            Some(a) => ctx.join(&a, &r)?,
        });
    }
    let Some(joined) = acc else {
        return Err(EngineError::SchemaMismatch(format!(
            "bag {name} has an empty cover"
        )));
    };
    let rel = joined.into_project(bag_nodes).with_name(name.to_owned());
    // The bag relation outlives materialization as a stored relation of the
    // bag database, so charge it against the budget even when the cover was
    // a single relation and no join kernel ran.
    if G::ENABLED {
        ctx.gov
            .approve_alloc(rel.len() as u64, rel.attributes().len())?;
    }
    Ok(rel)
}

impl<M: MetricsSink, G: Governor> ExecCtx<'_, M, G> {
    /// Materializes every bag of `d` against `db`, producing a database over
    /// the bag hypergraph.
    ///
    /// Walks the bag tree bottom-up, one bag at a time.  A bag's join inputs
    /// are its cover relations trimmed to the bag plus, for each child (built
    /// already), the child's *message*: the child bag projected onto the
    /// separator `child ∩ bag`.  The message's attributes lie inside the bag,
    /// so it only filters — the bag shrinks, never grows — and it still
    /// contains the full join's projection onto the separator, so nothing the
    /// answer needs is lost.  Every bag is therefore a subset of its cover's
    /// join and still a superset of the full join's projection onto it.
    ///
    /// The metrics sink receives each bag's materialized size (in bag-index
    /// order), the per-bag join ops and one [`Phase::Materialize`] wall
    /// timing, recorded even when the pass aborts; the governor is consulted
    /// once before each bag, in build order, and charged for every
    /// materialized bag relation plus the join kernel's intermediate output
    /// batches.  An abort surfaces as `Err(EngineError)` and leaves `db`
    /// untouched: materialization only reads the original relations.
    pub fn materialize_bags(
        &self,
        db: &Database,
        d: &Decomposition,
    ) -> Result<Database, EngineError> {
        let relations = self.build_bags(db, d)?;
        Database::new(d.bags().clone(), relations).map_err(EngineError::from)
    }

    /// The bag relations [`ExecCtx::materialize_bags`] builds, in bag-index
    /// order, with every sink and checkpoint it documents.
    fn build_bags(&self, db: &Database, d: &Decomposition) -> Result<Vec<Relation>, EngineError> {
        timed(self.metrics, Phase::Materialize, 0, || {
            let tree = d.tree();
            let mut built: Vec<Option<Relation>> = vec![None; d.bag_count()];
            for bag in tree.bottom_up_order() {
                let b = bag.index();
                if G::ENABLED {
                    self.gov.at_bag(b)?;
                }
                let bag_edge = &d.bags().edges()[b];
                let cover = d.cover(b).map(|e| &db.relations()[e.index()]);
                let messages = tree
                    .children(bag)
                    .iter()
                    .map(|c| built[c.index()].as_ref().expect("children build first"));
                let inputs = cover
                    .chain(messages)
                    .map(|r| trim_to_bag(r, &bag_edge.nodes));
                let rel = join_cover(self, inputs, &bag_edge.nodes, &bag_edge.label)?;
                built[b] = Some(rel);
            }
            let relations: Vec<Relation> = built.into_iter().flatten().collect();
            if M::ENABLED {
                for r in &relations {
                    self.metrics.record_bag(r.name(), r.len() as u64);
                }
            }
            Ok(relations)
        })
    }

    /// Runs the full cyclic pipeline over an already-computed decomposition:
    /// materialize the bags ([`ExecCtx::materialize_bags`]), which already
    /// is the upward reducer pass over the bag tree, then answer from the
    /// bags as [`ExecCtx::yannakakis_join`] does after its own upward pass —
    /// the downward pass towards and inside the smallest bag subtree
    /// covering `output`, and the join inside it — projecting onto
    /// `output`, every sink active throughout.  The bag relations are
    /// consumed, not copied.  An abort surfaces as `Err(EngineError)` and
    /// leaves `db` untouched.
    pub fn yannakakis_join_decomposed(
        &self,
        db: &Database,
        d: &Decomposition,
        output: &NodeSet,
    ) -> Result<Relation, EngineError> {
        let bags = self
            .build_bags(db, d)?
            .into_iter()
            .map(Cow::Owned)
            .collect();
        let tree = d.tree();
        self.answer_from_upward_pass(d.bags(), tree, &tree.levels(), bags, output)
    }
}

/// Both heuristics' decompositions of one cyclic schema, in preference
/// order, plus the width evidence a metered query reports.
#[derive(Debug)]
pub(crate) struct DecompPair {
    /// The smaller-width decomposition (ties go to min-fill).
    chosen: Decomposition,
    /// The runner-up, kept for the budget degradation ladder.
    other: Decomposition,
    /// Width of the min-fill decomposition.
    fill_width: usize,
    /// Width of the min-degree decomposition.
    degree_width: usize,
    /// Which heuristic won (`"min-fill"` or `"min-degree"`).
    chosen_label: &'static str,
}

/// What a database's schema alone decides about answering a Yannakakis
/// query: the join tree when the schema is acyclic, both heuristics'
/// decompositions when it is cyclic.  Neither the data nor `X` changes it,
/// so each [`Database`] builds its plan once, on first use, and shares it
/// with its clones.
#[derive(Debug)]
pub(crate) enum Plan {
    /// An acyclic schema's join tree.
    Tree(JoinTree),
    /// A cyclic schema's decompositions.
    Decomposed(Box<DecompPair>),
}

impl Plan {
    /// The join tree when GYO finds one; otherwise decomposes the schema
    /// with **both** elimination-order heuristics (min-fill and
    /// min-degree) and prefers the smaller width — the heuristics genuinely
    /// disagree on some schemas, and width bounds the bag cross products,
    /// so a cheap second decomposition run (pure graph work, no data)
    /// regularly saves real join work.  Ties go to min-fill, the historical
    /// default.  The runner-up is kept because the budget degradation
    /// ladder may still prefer it (smaller *estimated rows* can beat
    /// smaller width on skewed covers).  Fails only on an edgeless schema.
    pub(crate) fn build(schema: &Hypergraph) -> Result<Self, EngineError> {
        if let Some(tree) = join_tree(schema) {
            return Ok(Plan::Tree(tree));
        }
        let cannot = |e: decomp::DecompError| -> EngineError {
            EngineError::SchemaMismatch(format!("cannot decompose schema: {e}"))
        };
        let fill = decompose(schema, Heuristic::MinFill).map_err(cannot)?;
        let degree = decompose(schema, Heuristic::MinDegree).map_err(cannot)?;
        let (fill_width, degree_width) = (fill.width(), degree.width());
        Ok(Plan::Decomposed(Box::new(if degree_width < fill_width {
            DecompPair {
                chosen: degree,
                other: fill,
                fill_width,
                degree_width,
                chosen_label: "min-degree",
            }
        } else {
            DecompPair {
                chosen: fill,
                other: degree,
                fill_width,
                degree_width,
                chosen_label: "min-fill",
            }
        })))
    }
}

/// Pessimistic cost of the widest bag of `d` against `db`: the product of
/// its cover relations' cardinalities (the cross-product worst case —
/// joins and child messages only shrink it) and that bag's attribute
/// count.  This is what the budget degradation ladder compares against the
/// governor's memory limit *before* materializing anything.
fn worst_bag_estimate(db: &Database, d: &Decomposition) -> (u64, usize) {
    let mut worst = (0u64, 0usize);
    for b in 0..d.bag_count() {
        let width = d.bags().edges()[b].nodes.len();
        let rows: u64 = d
            .cover(b)
            .map(|e| db.relations()[e.index()].len() as u64)
            .fold(1u64, u64::saturating_mul);
        if rows.saturating_mul(width as u64) > worst.0.saturating_mul(worst.1 as u64) {
            worst = (rows, width);
        }
    }
    worst
}

impl<M: MetricsSink, G: Governor> ExecCtx<'_, M, G> {
    /// Answers the query `π_X(⋈)` with the Yannakakis algorithm, for
    /// **any** schema: the database's plan routes acyclic schemas to the
    /// direct join-tree pipeline ([`ExecCtx::yannakakis_join`]) and cyclic
    /// schemas through decompose → materialize → reduce → join
    /// ([`ExecCtx::yannakakis_join_decomposed`]).  Fails only when the
    /// schema has no edges at all, or when the governor aborts.
    ///
    /// Every layer underneath records into the metrics sink — on the cyclic
    /// path including both decomposition heuristics' widths (the plan holds
    /// min-fill's *and* min-degree's and prefers the smaller width) — and
    /// every stage is timed into its levels: on the cyclic path one
    /// [`Phase::Decompose`] entry around reading the plan (which builds it
    /// on the database's first query) and one [`Phase::Materialize`] entry
    /// come first, then the downward pass's and the join's per-level
    /// entries (an acyclic query starts with the upward pass's).
    ///
    /// Under an enabled governor the cyclic path runs the memory-budget
    /// **degradation ladder**.  Before materializing anything, the widest
    /// bag's pessimistic cost (cover cardinality product × bag width) is
    /// tested against the governor's budget:
    ///
    /// 1. the smaller-width decomposition runs if its estimate fits;
    /// 2. otherwise whichever tree has the smaller estimate runs — the
    ///    heuristics disagree on some schemas, so the runner-up by width can
    ///    have the smaller worst bag — letting the kernels' actual allocation
    ///    charges decide (the estimate is a cross-product worst case; real
    ///    bags are usually far smaller);
    /// 3. only when those charges genuinely exceed the limit does the query
    ///    abort with [`EngineError::BudgetExceeded`].
    ///
    /// Every panic escaping the engine below this point is contained and
    /// surfaced as [`EngineError::WorkerPanic`], whatever the sinks: this
    /// entry point never unwinds.  An aborted query leaves `db` untouched.
    ///
    /// # Examples
    ///
    /// ```
    /// use hypergraph::{EdgeId, Hypergraph};
    /// use reldb::{Database, ExecCtx, Tuple};
    ///
    /// // A triangle: cyclic, so no join tree exists — the decomposition path
    /// // still answers the query.
    /// let schema =
    ///     Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["A", "C"]]).unwrap();
    /// let (a, b, c) = (
    ///     schema.node("A").unwrap(),
    ///     schema.node("B").unwrap(),
    ///     schema.node("C").unwrap(),
    /// );
    /// let mut db = Database::empty(schema);
    /// db.insert(EdgeId(0), Tuple::from_pairs([(a, 1), (b, 2)]));
    /// db.insert(EdgeId(1), Tuple::from_pairs([(b, 2), (c, 3)]));
    /// db.insert(EdgeId(2), Tuple::from_pairs([(a, 1), (c, 3)]));
    /// db.insert(EdgeId(2), Tuple::from_pairs([(a, 9), (c, 9)])); // dangling
    ///
    /// let out = db.attributes(["A", "C"]).unwrap();
    /// let answer = ExecCtx::new().query_yannakakis(&db, &out).unwrap();
    /// assert_eq!(answer.len(), 1);
    /// assert!(!db.is_acyclic());
    /// ```
    pub fn query_yannakakis(&self, db: &Database, x: &NodeSet) -> Result<Relation, EngineError> {
        contain_panics(|| {
            let t0 = M::ENABLED.then(Instant::now);
            let pair = match db.plan().map(|p| &**p) {
                Ok(Plan::Tree(tree)) => return self.yannakakis_join(db, tree, x),
                Ok(Plan::Decomposed(pair)) => Ok(pair),
                Err(e) => Err(e),
            };
            if let Some(t0) = t0 {
                let nanos = t0.elapsed().as_nanos() as u64;
                self.metrics.record_level(Phase::Decompose, 0, nanos);
            }
            let pair = pair?;
            if M::ENABLED {
                let (fill, degree) = (pair.fill_width, pair.degree_width);
                self.metrics.record_widths(fill, degree, pair.chosen_label);
            }
            let (mut d, other) = (&pair.chosen, &pair.other);
            if G::ENABLED {
                // Rung 2: the chosen tree's worst bag blows the budget, so
                // run the smaller estimate.  A runner-up that fits is
                // always the smaller one.
                let (rows, width) = worst_bag_estimate(db, d);
                if self.gov.alloc_would_exceed(rows, width) {
                    let (orows, owidth) = worst_bag_estimate(db, other);
                    if orows.saturating_mul(owidth as u64) < rows.saturating_mul(width as u64) {
                        d = other;
                    }
                }
            }
            self.yannakakis_join_decomposed(db, d, x)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CollectingSink;
    use crate::relation::Tuple;
    use crate::universal::{query_via_full_join, query_yannakakis};
    use hypergraph::{EdgeId, Hypergraph};
    use std::sync::Arc;

    /// A 4-ring of binary edges with data whose cycle closes for some
    /// values only (and contains dangling tuples).
    fn ring4_db() -> Database {
        let h = Hypergraph::from_edges([
            vec!["A", "B"],
            vec!["B", "C"],
            vec!["C", "D"],
            vec!["D", "A"],
        ])
        .unwrap();
        let ids: Vec<_> = ["A", "B", "C", "D"]
            .iter()
            .map(|n| h.node(n).unwrap())
            .collect();
        let mut db = Database::empty(h);
        for (ei, (x, y)) in [(0, 1), (1, 2), (2, 3), (3, 0)].into_iter().enumerate() {
            for v in 0..4i64 {
                // Edge i relates v to v for v < 3; the cycle closes there.
                let w = if v < 3 { v } else { v + ei as i64 };
                db.insert(
                    EdgeId(ei as u32),
                    Tuple::from_pairs([(ids[x], v), (ids[y], w)]),
                );
            }
        }
        db
    }

    #[test]
    fn cyclic_ring_matches_naive_join() {
        let db = ring4_db();
        let all = db.schema().nodes();
        let naive = query_via_full_join(&db, &all);
        assert!(!naive.is_empty(), "the instance must close the cycle");
        let fast = query_yannakakis(&db, &all).unwrap();
        assert!(fast.same_contents(&naive), "decomposed pipeline diverged");
        // Projections agree too.
        for attrs in [vec!["A"], vec!["A", "C"], vec!["B", "D"]] {
            let out = db.attributes(attrs.iter().copied()).unwrap();
            let fast = query_yannakakis(&db, &out).unwrap();
            assert!(
                fast.same_contents(&query_via_full_join(&db, &out)),
                "projection {attrs:?} diverged"
            );
        }
    }

    /// A chain `A–B–C` with one dangling tuple.
    fn chain_db() -> Database {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap();
        let mut db = Database::empty(h);
        db.insert_values(EdgeId(0), [1, 2]);
        db.insert_values(EdgeId(1), [2, 3]);
        db.insert_values(EdgeId(1), [9, 9]);
        db
    }

    /// The plan is built once per database: the 1st and the 100th query
    /// read one `Arc<Plan>`, and a clone taken after them shares it.
    #[test]
    fn a_database_builds_its_plan_once_and_clones_share_it() {
        for (db, acyclic) in [(chain_db(), true), (ring4_db(), false)] {
            let all = db.schema().nodes();
            let want = query_via_full_join(&db, &all);
            assert!(query_yannakakis(&db, &all).unwrap().same_contents(&want));
            let plan = Arc::clone(db.plan().unwrap());
            for _ in 1..100 {
                assert!(query_yannakakis(&db, &all).unwrap().same_contents(&want));
            }
            assert!(Arc::ptr_eq(&plan, db.plan().unwrap()));
            let clone = db.clone();
            assert!(Arc::ptr_eq(&plan, clone.plan().unwrap()));
            assert_eq!(db.is_acyclic(), acyclic);
            assert_eq!(matches!(*plan, Plan::Tree(_)), acyclic);
        }
    }

    /// A metered cyclic query reports the same widths and the same stage
    /// sequence on the database's first query, which builds the plan, as
    /// on later ones, which only read it.
    #[test]
    fn a_metered_cyclic_query_reports_the_same_widths_and_stages_every_time() {
        let db = ring4_db();
        let x = db.attributes(["A", "C"]).unwrap();
        let run = || {
            let sink = CollectingSink::new();
            let got = ExecCtx::new()
                .metrics(&sink)
                .query_yannakakis(&db, &x)
                .unwrap();
            assert!(got.same_contents(&query_via_full_join(&db, &x)));
            let m = sink.snapshot();
            let stages: Vec<(Phase, usize)> = m.levels.iter().map(|l| (l.phase, l.level)).collect();
            (m.widths, stages)
        };
        let first = run();
        assert!(first.0.is_some(), "a cyclic query reports its widths");
        assert_eq!(
            first.1[..2],
            [(Phase::Decompose, 0), (Phase::Materialize, 0)]
        );
        for _ in 0..3 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn an_edgeless_schema_has_no_plan() {
        let db = Database::empty(Hypergraph::from_edges(Vec::<Vec<&str>>::new()).unwrap());
        for _ in 0..2 {
            let got = query_yannakakis(&db, &NodeSet::new());
            assert!(
                matches!(got, Err(EngineError::SchemaMismatch(_))),
                "{got:?}"
            );
        }
        assert!(!db.is_acyclic());
    }

    #[test]
    fn acyclic_schemas_take_the_direct_path() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap();
        let (a, b, c) = (
            h.node("A").unwrap(),
            h.node("B").unwrap(),
            h.node("C").unwrap(),
        );
        let mut db = Database::empty(h);
        db.insert(EdgeId(0), Tuple::from_pairs([(a, 1), (b, 2)]));
        db.insert(EdgeId(1), Tuple::from_pairs([(b, 2), (c, 3)]));
        let out = db.attributes(["A", "C"]).unwrap();
        let got = query_yannakakis(&db, &out).unwrap();
        assert_eq!(got.len(), 1);
        assert!(got.same_contents(&query_via_full_join(&db, &out)));
    }

    #[test]
    fn bag_database_matches_the_bag_schema() {
        let db = ring4_db();
        let d = decompose(db.schema(), Heuristic::MinFill).unwrap();
        assert!(d.verify(db.schema()));
        let bag_db = ExecCtx::new().materialize_bags(&db, &d).unwrap();
        assert_eq!(bag_db.relations().len(), d.bag_count());
        for (bag, rel) in d.bags().edges().iter().zip(bag_db.relations()) {
            assert_eq!(rel.attributes(), &bag.nodes);
            assert_eq!(rel.name(), bag.label);
        }
        // The bag join equals the original full join.
        let all = db.schema().nodes();
        assert!(bag_db
            .full_join()
            .project(&all)
            .same_contents(&db.full_join().project(&all)));
    }

    /// The cover `X(B,C)` (20 rows), `S(A)` (2 rows), `Y(A,B)` (50 rows,
    /// 10 distinct `A`).  `order_cover` starts from `S`, the smallest; `Y`
    /// shares `A` with it and estimates `2·50/10 = 10` rows, while `X`
    /// shares nothing and its real estimate is the cross product
    /// `2·20 = 40`.  So `Y` must come second.
    #[test]
    fn order_cover_ranks_a_cross_product_after_a_shared_key() {
        let h = Hypergraph::from_edges([vec!["A", "B", "C"]]).unwrap();
        let (a, b, c) = (
            h.node("A").unwrap(),
            h.node("B").unwrap(),
            h.node("C").unwrap(),
        );
        let mut x = Relation::new("X", h.node_set(["B", "C"]).unwrap());
        for i in 0..20 {
            x.insert(Tuple::from_pairs([(b, i), (c, i)]));
        }
        let mut s = Relation::new("S", h.node_set(["A"]).unwrap());
        for i in 0..2 {
            s.insert(Tuple::from_pairs([(a, i)]));
        }
        let mut y = Relation::new("Y", h.node_set(["A", "B"]).unwrap());
        for i in 0..50 {
            y.insert(Tuple::from_pairs([(a, i % 10), (b, i)]));
        }
        let mut cover = vec![Cow::Owned(x), Cow::Owned(s), Cow::Owned(y)];
        order_cover(&mut cover);
        let names: Vec<&str> = cover.iter().map(|r| r.name()).collect();
        assert_eq!(names, ["S", "Y", "X"]);
    }

    #[test]
    fn empty_cyclic_relations_propagate() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["A", "C"]]).unwrap();
        let db = Database::empty(h);
        let out = db.schema().nodes();
        let got = query_yannakakis(&db, &out).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn min_degree_heuristic_agrees() {
        let db = ring4_db();
        let d = decompose(db.schema(), Heuristic::MinDegree).unwrap();
        let all = db.schema().nodes();
        let got = ExecCtx::new()
            .yannakakis_join_decomposed(&db, &d, &all)
            .unwrap();
        assert!(got.same_contents(&query_via_full_join(&db, &all)));
    }
}
