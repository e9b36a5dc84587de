//! Cyclic-schema execution: materialize the bags of a hypertree
//! decomposition, then run the ordinary Yannakakis pipeline over the bag
//! tree.
//!
//! A cyclic schema has no join tree, so [`yannakakis_join_with`](crate::yannakakis_join_with) cannot run
//! on it directly.  The remedy is the classic reduction to the acyclic
//! case, with the structural half supplied by the [`decomp`] crate:
//!
//! 1. **decompose** — triangulate the schema's primal graph into maximal-
//!    clique *bags* with a running-intersection tree
//!    ([`decompose()`](decomp::decompose()));
//! 2. **materialize** — bags build one at a time, children before parents
//!    along the bag tree ([`materialize_bags`]).  Each bag becomes one
//!    relation: the join of the original relations in its cover (assigned
//!    edges joined whole, extra overlapping edges projected down) and of one
//!    *message* per child — the already-built child bag projected onto the
//!    separator `child ∩ bag` — projected onto the bag's nodes.  A message
//!    lies inside the bag, so joining it is a semijoin filter: this is the
//!    upward pass of the full reducer run while the bags are built, and it
//!    keeps a ring's bags from being the cross products their covers alone
//!    would give;
//! 3. **reduce + join** — the bag database is an ordinary acyclic database
//!    over the bag hypergraph, so the existing full reducer and bottom-up
//!    join run on it unchanged.
//!
//! The result is tuple-for-tuple the projection of the full join.  Every
//! original edge is wholly contained in the bag it is assigned to and
//! enters it whole, so the join of the bags is contained in the full join.
//! Conversely every bag contains the full join's projection onto it: by
//! induction up the tree each child does, so each message contains the
//! full join's projection onto the separator, and filtering by it (or by a
//! trimmed extra edge) never drops a tuple the full join needs.  Messages
//! and extras only ever shrink bags; Yannakakis handles the rest.
//!
//! [`yannakakis_join_any`] is the transparent entry point: acyclic schemas
//! take the direct join-tree path, cyclic schemas the decomposition path.

use crate::database::Database;
use crate::exec::{ExecCtx, ExecPolicy, WorkerLease};
use crate::govern::{contain_panics, unfail, EngineError, Governor};
use crate::metrics::{MetricsSink, Phase};
use crate::relation::Relation;
use crate::trace::{with_span, NoopTrace, SpanKind, TraceSink};
use crate::yannakakis::yannakakis_join_leased;
use acyclic::join_tree;
use decomp::{decompose, Decomposition, Heuristic};
use hypergraph::{Edge, Hypergraph, NodeSet};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
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
/// so far, using the same sampled distinct-key estimator the `Auto`
/// strategy planner runs on.  The estimate is the textbook
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
/// [`order_cover`] — and projects onto the bag's nodes.  Large probe sides
/// spread over `probe`'s workers at morsel granularity
/// ([`ExecCtx::join_on_lease`]), so one wide bag still uses every leased
/// worker.
fn join_cover<'a, M: MetricsSink, G: Governor>(
    ctx: &ExecCtx<'_, M, G>,
    probe: &WorkerLease,
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
            Some(a) => ctx.join_on_lease(&a, &r, probe)?,
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

impl<M: MetricsSink, G: Governor, T: TraceSink> ExecCtx<'_, M, G, T> {
    /// Materializes every bag of `d` against `db`, producing a database over
    /// the bag hypergraph.
    ///
    /// Bags build one at a time, children first: each bag joins its cover
    /// with its children's separator messages (module docs), so every bag
    /// is a subset of its cover's join and still a superset of the full
    /// join's projection onto it.  A parallel [`ExecPolicy`] spreads each
    /// bag join's probe side over the leased workers.
    ///
    /// The metrics sink receives each bag's materialized size (in bag-index
    /// order), the per-bag join ops and one [`Phase::Materialize`] wall
    /// timing; the governor is consulted once before each bag, in build
    /// order, and charged for every materialized bag relation plus the join
    /// kernels' intermediate output batches; the tracer brackets the whole
    /// bag pass in one [`SpanKind::Materialize`] span.  An abort surfaces as
    /// `Err(EngineError)` and leaves `db` untouched: materialization only
    /// reads the original relations.
    pub fn materialize_bags(
        &self,
        db: &Database,
        d: &Decomposition,
    ) -> Result<Database, EngineError> {
        materialize_bags_leased(self, &self.lease(db.tuple_count()), db, d)
    }

    /// Runs the full cyclic pipeline over an already-computed decomposition:
    /// materialize the bags ([`ExecCtx::materialize_bags`]), then full-reduce
    /// and join bottom-up along the bag tree ([`ExecCtx::yannakakis_join`]),
    /// projecting onto `output` — every sink active in both phases.  An
    /// abort surfaces as `Err(EngineError)` and leaves `db` untouched.
    pub fn yannakakis_join_decomposed(
        &self,
        db: &Database,
        d: &Decomposition,
        output: &NodeSet,
    ) -> Result<Relation, EngineError> {
        // One lease serves bag materialization, the reducer passes and the join
        // levels alike: sized on the input database, which bounds every bag.
        let lease = self.lease(db.tuple_count());
        let bag_db = materialize_bags_leased(self, &lease, db, d)?;
        yannakakis_join_leased(self, &lease, &bag_db, d.tree(), output)
    }
}

/// [`ExecCtx::materialize_bags`] with nobody watching, under an explicit
/// [`ExecPolicy`].
// pinned by benchmark/src/layers.rs
pub fn materialize_bags(db: &Database, d: &Decomposition, policy: &ExecPolicy) -> Database {
    unfail(ExecCtx::new(policy).materialize_bags(db, d))
}

/// [`ExecCtx::yannakakis_join_decomposed`] with nobody watching, under an
/// explicit [`ExecPolicy`].
pub fn yannakakis_join_decomposed(
    db: &Database,
    d: &Decomposition,
    output: &NodeSet,
    policy: &ExecPolicy,
) -> Relation {
    unfail(ExecCtx::new(policy).yannakakis_join_decomposed(db, d, output))
}

/// The materialization pass on an already-acquired lease — shared by
/// [`ExecCtx::materialize_bags`] and [`ExecCtx::yannakakis_join_decomposed`]
/// so the cyclic pipeline leases its workers exactly once for all phases.
fn materialize_bags_leased<M: MetricsSink, G: Governor, T: TraceSink>(
    ctx: &ExecCtx<'_, M, G, T>,
    lease: &WorkerLease,
    db: &Database,
    d: &Decomposition,
) -> Result<Database, EngineError> {
    with_span(ctx.trace, SpanKind::Materialize, || {
        materialize_bags_body(&ctx.trace(&NoopTrace), lease, db, d)
    })
}

/// The span-free materialization body behind [`materialize_bags_leased`]:
/// nothing from here down is instantiated per tracer type.
///
/// Walks the bag tree bottom-up, one bag at a time.  A bag's join inputs
/// are its cover relations trimmed to the bag plus, for each child (built
/// already), the child's *message*: the child bag projected onto the
/// separator `child ∩ bag`.  The message's attributes lie inside the bag,
/// so it only filters — the bag shrinks, never grows — and it still
/// contains the full join's projection onto the separator, so nothing the
/// answer needs is lost.
fn materialize_bags_body<M: MetricsSink, G: Governor>(
    ctx: &ExecCtx<'_, M, G>,
    lease: &WorkerLease,
    db: &Database,
    d: &Decomposition,
) -> Result<Database, EngineError> {
    let (sink, tree, nbags) = (ctx.metrics, d.tree(), d.bag_count());
    let t0 = M::ENABLED.then(Instant::now);
    let mut built: Vec<Option<Relation>> = vec![None; nbags];
    for bag in tree.bottom_up_order() {
        let b = bag.index();
        if G::ENABLED {
            ctx.gov.at_bag(b)?;
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
        let rel = join_cover(ctx, lease, inputs, &bag_edge.nodes, &bag_edge.label)?;
        built[b] = Some(rel);
    }
    let relations: Vec<Relation> = built.into_iter().flatten().collect();
    if M::ENABLED {
        for r in &relations {
            sink.record_bag(r.name(), r.len() as u64);
        }
        if let Some(t0) = t0 {
            sink.record_level(Phase::Materialize, 0, nbags, t0.elapsed().as_nanos() as u64);
        }
    }
    Database::new(d.bags().clone(), relations).map_err(EngineError::from)
}

/// Both heuristics' decompositions of one schema, in preference order, plus
/// the width evidence a metered cache hit replays into its sink.
struct DecompPair {
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

/// The structural identity of a schema for decomposition caching: its node
/// names in id order plus its labeled edge set.  Two hypergraphs with equal
/// keys decompose identically — bags, labels and tree are all functions of
/// exactly this data — so the cache can never serve a decomposition that
/// `verify` would reject for the queried schema.
type SchemaKey = (Vec<String>, Vec<Edge>);

fn schema_key(schema: &Hypergraph) -> SchemaKey {
    let names = schema
        .nodes()
        .iter()
        .map(|n| schema.universe().name(n).to_owned())
        .collect();
    (names, schema.edges().to_vec())
}

/// Process-wide decomposition cache behind [`decompose_pair`].  Schemas are
/// immutable once built and decomposition is pure graph work, so entries
/// never invalidate; the map is bounded — a full cache is cleared rather
/// than grown, which keeps the common server shape (a handful of hot
/// schemas queried repeatedly) permanently cached.
static DECOMP_CACHE: OnceLock<Mutex<HashMap<SchemaKey, Arc<DecompPair>>>> = OnceLock::new();

/// Entry cap for [`DECOMP_CACHE`].
const DECOMP_CACHE_CAP: usize = 64;

fn decomp_cache() -> &'static Mutex<HashMap<SchemaKey, Arc<DecompPair>>> {
    DECOMP_CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Decomposes a cyclic schema with **both** elimination-order heuristics
/// (min-fill and min-degree) and returns the pair with the smaller-width
/// result as `chosen` — the heuristics genuinely disagree on some schemas,
/// and width bounds the bag cross products, so a cheap second decomposition
/// run (pure graph work, no data) regularly saves real join work.  Ties go
/// to min-fill, the historical default.  Both widths are recorded into
/// `sink`; the runner-up is kept because the budget degradation ladder may
/// still prefer it (smaller *estimated rows* can beat smaller width on
/// skewed covers).
///
/// Results are cached process-wide keyed by the schema's structural
/// identity ([`SchemaKey`]): schemas are immutable, so a repeated query
/// against the same schema — the server shape — skips both elimination
/// runs entirely.  Hits and misses are recorded into `sink`
/// ([`MetricsSink::record_decomp_cache`]); a hit replays the cached width
/// report so metered output is identical either way.
fn decompose_pair<M: MetricsSink>(
    schema: &Hypergraph,
    sink: &M,
) -> Result<Arc<DecompPair>, EngineError> {
    let key = schema_key(schema);
    let cached = decomp_cache()
        .lock()
        .expect("decomp cache lock")
        .get(&key)
        .cloned();
    if let Some(pair) = cached {
        if M::ENABLED {
            sink.record_decomp_cache(true);
            sink.record_widths(pair.fill_width, pair.degree_width, pair.chosen_label);
        }
        return Ok(pair);
    }
    let cannot = |e: decomp::DecompError| -> EngineError {
        EngineError::SchemaMismatch(format!("cannot decompose schema: {e}"))
    };
    // Decompose outside the lock: a concurrent miss on the same schema
    // duplicates pure graph work at worst, and never blocks other schemas.
    let fill = decompose(schema, Heuristic::MinFill).map_err(cannot)?;
    let degree = decompose(schema, Heuristic::MinDegree).map_err(cannot)?;
    let (fill_width, degree_width) = (fill.width(), degree.width());
    let pair = Arc::new(if degree_width < fill_width {
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
    });
    if M::ENABLED {
        sink.record_decomp_cache(false);
        sink.record_widths(fill_width, degree_width, pair.chosen_label);
    }
    let mut cache = decomp_cache().lock().expect("decomp cache lock");
    if cache.len() >= DECOMP_CACHE_CAP {
        cache.clear();
    }
    cache.insert(key, Arc::clone(&pair));
    Ok(pair)
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

impl<M: MetricsSink, G: Governor, T: TraceSink> ExecCtx<'_, M, G, T> {
    /// Computes the projection of the full join onto `output` for **any**
    /// schema: acyclic schemas route to the direct join-tree pipeline
    /// ([`ExecCtx::yannakakis_join`]), cyclic schemas through decompose →
    /// materialize → reduce → join
    /// ([`ExecCtx::yannakakis_join_decomposed`]).  Fails only when the
    /// schema has no edges at all, or when the governor aborts.
    ///
    /// Every layer underneath records into the metrics sink — on the cyclic
    /// path including both decomposition heuristics' widths (the engine runs
    /// min-fill *and* min-degree and keeps the smaller width) — and the
    /// tracer receives the pipeline stages as wall-clock spans:
    /// [`SpanKind::Decompose`] around the heuristic pair (cache hits
    /// included), then [`SpanKind::Materialize`], [`SpanKind::ReduceUp`] /
    /// [`SpanKind::ReduceDown`] and [`SpanKind::Join`].
    ///
    /// Under an enabled governor the cyclic path runs the memory-budget
    /// **degradation ladder**.  Before materializing anything, the widest
    /// bag's pessimistic cost (cover cardinality product × bag width) is
    /// tested against the governor's budget:
    ///
    /// 1. the smaller-width decomposition runs if its estimate fits;
    /// 2. otherwise the *other* elimination heuristic's tree is tried — the
    ///    heuristics disagree on some schemas, and the runner-up by width can
    ///    still have the smaller worst bag;
    /// 3. otherwise the smaller-*estimate* tree runs **on one thread** (no
    ///    morsel-probe copies in flight; bags always build one at a time),
    ///    letting the kernels' actual allocation charges decide;
    /// 4. only when those charges genuinely exceed the limit does the query
    ///    abort with [`EngineError::BudgetExceeded`].
    ///
    /// Every panic escaping the engine below this point — worker jobs
    /// included, whose payloads [`WorkerLease::run`](crate::exec::WorkerLease::run)
    /// re-raises on the caller thread — is contained and surfaced as
    /// [`EngineError::WorkerPanic`], whatever the sinks: this entry point
    /// never unwinds.  An aborted query leaves `db` untouched.
    pub fn yannakakis_join_any(
        &self,
        db: &Database,
        output: &NodeSet,
    ) -> Result<Relation, EngineError> {
        contain_panics(|| match join_tree(db.schema()) {
            Some(tree) => self.yannakakis_join(db, &tree, output),
            None => {
                let pair = with_span(self.trace, SpanKind::Decompose, || {
                    decompose_pair(db.schema(), self.metrics)
                })?;
                let (chosen, other) = (&pair.chosen, &pair.other);
                if G::ENABLED {
                    let (rows, width) = worst_bag_estimate(db, chosen);
                    if self.gov.alloc_would_exceed(rows, width) {
                        let (orows, owidth) = worst_bag_estimate(db, other);
                        if !self.gov.alloc_would_exceed(orows, owidth) {
                            // Rung 2: the runner-up heuristic's worst bag fits.
                            return self.yannakakis_join_decomposed(db, other, output);
                        }
                        // Rung 3: both estimates blow the budget — run the
                        // smaller-estimate tree on one thread and let the
                        // actual charges decide (the estimate is a cross-product
                        // worst case; real bags are usually far smaller).
                        let streaming = ExecPolicy {
                            threads: 1,
                            ..self.policy.clone()
                        };
                        let smaller = if orows.saturating_mul(owidth as u64)
                            < rows.saturating_mul(width as u64)
                        {
                            other
                        } else {
                            chosen
                        };
                        let ctx = ExecCtx {
                            policy: &streaming,
                            ..*self
                        };
                        return ctx.yannakakis_join_decomposed(db, smaller, output);
                    }
                }
                self.yannakakis_join_decomposed(db, chosen, output)
            }
        })
    }
}

/// [`ExecCtx::yannakakis_join_any`] with nobody watching, under an explicit
/// [`ExecPolicy`]: the Yannakakis answer for **any** schema, acyclic or
/// cyclic.
///
/// # Examples
///
/// ```
/// use hypergraph::{EdgeId, Hypergraph};
/// use reldb::{yannakakis_join_any, Database, ExecPolicy, Tuple};
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
/// let answer = yannakakis_join_any(&db, &out, &ExecPolicy::default()).unwrap();
/// assert_eq!(answer.len(), 1);
/// ```
pub fn yannakakis_join_any(
    db: &Database,
    output: &NodeSet,
    policy: &ExecPolicy,
) -> Result<Relation, EngineError> {
    ExecCtx::new(policy).yannakakis_join_any(db, output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::JoinStrategy;
    use crate::relation::Tuple;
    use crate::yannakakis::naive_join_project;
    use hypergraph::{EdgeId, Hypergraph};

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
        let naive = naive_join_project(&db, &all);
        assert!(!naive.is_empty(), "the instance must close the cycle");
        let fast = yannakakis_join_any(&db, &all, &ExecPolicy::default()).unwrap();
        assert!(fast.same_contents(&naive), "decomposed pipeline diverged");
        // Projections agree too.
        for attrs in [vec!["A"], vec!["A", "C"], vec!["B", "D"]] {
            let out = db.attributes(attrs.iter().copied()).unwrap();
            let fast = yannakakis_join_any(&db, &out, &ExecPolicy::default()).unwrap();
            assert!(
                fast.same_contents(&naive_join_project(&db, &out)),
                "projection {attrs:?} diverged"
            );
        }
    }

    #[test]
    fn policies_agree_on_the_cyclic_path() {
        let db = ring4_db();
        let all = db.schema().nodes();
        let want =
            yannakakis_join_any(&db, &all, &ExecPolicy::sequential(JoinStrategy::Hash)).unwrap();
        for policy in [
            ExecPolicy::sequential(JoinStrategy::SortMerge),
            ExecPolicy::sequential(JoinStrategy::Auto),
            ExecPolicy::parallel(JoinStrategy::Hash, 3),
            ExecPolicy::parallel(JoinStrategy::Auto, 2),
        ] {
            let got = yannakakis_join_any(&db, &all, &policy).unwrap();
            assert!(got.same_contents(&want), "diverged under {policy:?}");
        }
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
        let got = yannakakis_join_any(&db, &out, &ExecPolicy::default()).unwrap();
        assert_eq!(got.len(), 1);
        assert!(got.same_contents(&naive_join_project(&db, &out)));
    }

    #[test]
    fn bag_database_matches_the_bag_schema() {
        let db = ring4_db();
        let d = decompose(db.schema(), Heuristic::MinFill).unwrap();
        assert!(d.verify(db.schema()));
        for policy in [
            ExecPolicy::sequential(JoinStrategy::Hash),
            ExecPolicy::parallel(JoinStrategy::Hash, 3),
        ] {
            let bag_db = materialize_bags(&db, &d, &policy);
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
        let got = yannakakis_join_any(&db, &out, &ExecPolicy::default()).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn min_degree_heuristic_agrees() {
        let db = ring4_db();
        let d = decompose(db.schema(), Heuristic::MinDegree).unwrap();
        let all = db.schema().nodes();
        let got = yannakakis_join_decomposed(&db, &d, &all, &ExecPolicy::default());
        assert!(got.same_contents(&naive_join_project(&db, &all)));
    }
}
