//! Universal-relation query answering via canonical connections (paper §7).
//!
//! In the universal-relation model a query names a set of attributes `X`;
//! the system decides which objects (relations) to join on the user's
//! behalf.  The paper's proposal: join exactly the objects in the
//! *canonical connection* `CC(X)` and project onto `X`.  Theorem 6.1 is the
//! statement that this is well defined — the connection is unique — exactly
//! when the schema hypergraph is acyclic.
//!
//! Three query paths are provided and compared by tests and benchmark B4:
//!
//! * [`query_via_connection`] — tableau reduction picks the objects of
//!   `CC(X)`, and the Yannakakis engine answers over the sub-database they
//!   form;
//! * [`query_yannakakis`] — after the reducer's upward pass, reduce
//!   downward towards and join only the smallest join subtree covering
//!   `X` ([`acyclic::JoinTree::connection_subtree`]), whose objects
//!   reduce to `CC(X)` by Theorem 3.5 (the production path);
//! * [`query_via_full_join`] — join *every* object, project onto `X`
//!   (the naive baseline).

use crate::database::Database;
use crate::exec::ExecCtx;
use crate::govern::{contain_panics, unfail, EngineError, Governor};
use crate::metrics::{timed, MetricsSink, Phase};
use crate::relation::Relation;
use acyclic::canonical_connection;
use hypergraph::{Hypergraph, NodeSet};

/// The objects (schema edges, by label) chosen by the canonical connection
/// of `x`, together with the connection itself.
#[derive(Debug, Clone)]
pub struct ConnectionPlan {
    /// The canonical connection `CC(X)` as a hypergraph of partial edges.
    pub connection: Hypergraph,
    /// Indices (into the schema's edge list) of the objects to join.
    pub objects: Vec<usize>,
}

/// Plans a universal-relation query: computes `CC(X)` and maps its partial
/// edges back to the schema objects that will be joined.
pub fn plan_connection(schema: &Hypergraph, x: &NodeSet) -> ConnectionPlan {
    let connection = canonical_connection(schema, x);
    let mut objects = Vec::new();
    for partial in connection.edges() {
        // Each partial edge descends from an original edge; prefer the edge
        // with the same label, falling back to any edge covering it.
        let idx = schema
            .edges()
            .iter()
            .position(|e| e.label == partial.label && partial.nodes.is_subset(&e.nodes))
            .or_else(|| {
                schema
                    .edges()
                    .iter()
                    .position(|e| partial.nodes.is_subset(&e.nodes))
            })
            .expect("every partial edge of CC(X) is covered by a schema edge");
        if !objects.contains(&idx) {
            objects.push(idx);
        }
    }
    objects.sort_unstable();
    ConnectionPlan {
        connection,
        objects,
    }
}

/// Two of the three universal-relation query engines; the third,
/// [`ExecCtx::query_yannakakis`], lives in `hypertree` beside the plan it
/// reads.  Each runs inside panic containment whatever the sinks: a panic
/// escaping the engine — a kernel bug, a sink — surfaces as
/// [`EngineError::WorkerPanic`], never as an unwind through the caller.
impl<M: MetricsSink, G: Governor> ExecCtx<'_, M, G> {
    /// Answers the query `π_X (⋈ of the objects in CC(X))`: tableau
    /// reduction picks the objects ([`plan_connection`]), and
    /// [`ExecCtx::query_yannakakis`] answers over the sub-database they
    /// form, with every stage, sink and checkpoint it documents.  The
    /// sub-database has its own plan: a join tree, or decompositions when
    /// the objects are cyclic.  Reducing within the objects preserves their
    /// join, so on an inconsistent database this answer can hold more than
    /// the full join's projection.  When the objects are every edge, or
    /// none (`X = ∅`), the query runs over `db` itself and its plan.
    pub fn query_via_connection(
        &self,
        db: &Database,
        x: &NodeSet,
    ) -> Result<Relation, EngineError> {
        contain_panics(|| {
            let objects = plan_connection(db.schema(), x).objects;
            if objects.is_empty() || objects.len() == db.relations().len() {
                return self.query_yannakakis(db, x);
            }
            self.query_yannakakis(&db.restrict(&objects), x)
        })
    }

    /// Answers the query by joining **all** objects (the universal relation)
    /// and projecting — the naive baseline, timed as one [`Phase::Join`]
    /// entry at level 0.  The governor's checkpoints matter most here: this is the one
    /// engine whose intermediate results can explode, which is exactly what a
    /// deadline or memory budget is for.
    pub fn query_via_full_join(&self, db: &Database, x: &NodeSet) -> Result<Relation, EngineError> {
        timed(self.metrics, Phase::Join, 0, || {
            contain_panics(|| Ok(self.full_join(db)?.into_project(x)))
        })
    }
}

/// [`ExecCtx::query_via_connection`] with nobody watching.
pub fn query_via_connection(db: &Database, x: &NodeSet) -> Relation {
    unfail(ExecCtx::new().query_via_connection(db, x))
}

/// [`ExecCtx::query_via_full_join`] with nobody watching
/// ([`Database::full_join`]) — the baseline the tests and the bench compare
/// every other engine with.
pub fn query_via_full_join(db: &Database, x: &NodeSet) -> Relation {
    db.full_join().into_project(x)
}

/// [`ExecCtx::query_yannakakis`] with nobody watching.
pub fn query_yannakakis(db: &Database, x: &NodeSet) -> Result<Relation, EngineError> {
    ExecCtx::new().query_yannakakis(db, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Tuple;
    use hypergraph::EdgeId;

    /// Fig. 1 as a schema with a small *globally consistent* instance: the
    /// relations are the projections of one universal relation that itself
    /// satisfies the join dependency of the schema.
    fn fig1_db() -> Database {
        let h = Hypergraph::from_edges([
            vec!["A", "B", "C"],
            vec!["C", "D", "E"],
            vec!["A", "E", "F"],
            vec!["A", "C", "E"],
        ])
        .unwrap();
        let seed_rows: Vec<[i64; 6]> = vec![
            // A, B, C, D, E, F
            [1, 1, 1, 1, 1, 1],
            [1, 2, 1, 2, 1, 1],
            [2, 1, 2, 1, 2, 2],
            [2, 2, 2, 2, 2, 1],
            [3, 1, 1, 2, 2, 2],
        ];
        let names = ["A", "B", "C", "D", "E", "F"];
        let mut seed_db = Database::empty(h.clone());
        for (ei, e) in h.edges().iter().enumerate() {
            for row in &seed_rows {
                let t = Tuple::from_pairs(e.nodes.iter().map(|n| {
                    let pos = names
                        .iter()
                        .position(|x| *x == h.universe().name(n))
                        .unwrap();
                    (n, row[pos])
                }));
                seed_db.insert(EdgeId(ei as u32), t);
            }
        }
        // Joining projections and re-projecting is idempotent, so the
        // resulting database is globally consistent by construction.
        let universal = seed_db.full_join();
        let mut db = Database::empty(h.clone());
        for (ei, e) in h.edges().iter().enumerate() {
            for t in universal.project(&e.nodes).tuples() {
                db.insert(EdgeId(ei as u32), t.clone());
            }
        }
        db
    }

    #[test]
    fn plan_for_a_d_joins_cde_and_ace() {
        let db = fig1_db();
        let x = db.attributes(["A", "D"]).unwrap();
        let plan = plan_connection(db.schema(), &x);
        assert_eq!(plan.connection.edge_count(), 2);
        assert_eq!(plan.objects, vec![1, 3]); // CDE and ACE
    }

    #[test]
    fn plan_for_a_c_joins_a_single_object() {
        let db = fig1_db();
        let x = db.attributes(["A", "C"]).unwrap();
        let plan = plan_connection(db.schema(), &x);
        assert_eq!(plan.objects.len(), 1);
    }

    #[test]
    fn connection_query_matches_full_join_on_consistent_instances() {
        let db = fig1_db();
        for names in [
            vec!["A", "D"],
            vec!["A"],
            vec!["B", "F"],
            vec!["C", "E"],
            vec!["A", "B", "C", "D", "E", "F"],
        ] {
            let x = db.attributes(names.iter().copied()).unwrap();
            let via_cc = query_via_connection(&db, &x);
            let naive = query_via_full_join(&db, &x);
            let yann = query_yannakakis(&db, &x).unwrap();
            assert!(
                via_cc.same_contents(&naive),
                "CC-query differs from full join for {names:?}"
            );
            assert!(
                yann.same_contents(&naive),
                "Yannakakis differs from full join for {names:?}"
            );
        }
    }

    #[test]
    fn connection_query_can_differ_on_inconsistent_instances() {
        // If the stored objects are NOT projections of one universal
        // relation, joining fewer objects (the canonical connection) can
        // legitimately return more tuples than joining everything — this is
        // exactly why the choice of connection matters.
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap();
        let (a, b, c, d) = (
            h.node("A").unwrap(),
            h.node("B").unwrap(),
            h.node("C").unwrap(),
            h.node("D").unwrap(),
        );
        let mut db = Database::empty(h);
        db.insert(EdgeId(0), Tuple::from_pairs([(a, 1), (b, 1)]));
        db.insert(EdgeId(1), Tuple::from_pairs([(b, 1), (c, 1)]));
        // CD is empty: the full join is empty, but a query about {A, B}
        // only joins the AB object.
        let x = db.attributes(["A", "B"]).unwrap();
        let via_cc = query_via_connection(&db, &x);
        let naive = query_via_full_join(&db, &x);
        assert_eq!(via_cc.len(), 1);
        assert!(naive.is_empty());
        let _ = (c, d);
    }

    #[test]
    fn cyclic_schema_routes_through_decomposition() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["A", "C"]]).unwrap();
        let (a, b, c) = (
            h.node("A").unwrap(),
            h.node("B").unwrap(),
            h.node("C").unwrap(),
        );
        let mut db = Database::empty(h);
        for v in 0..3i64 {
            db.insert(EdgeId(0), Tuple::from_pairs([(a, v), (b, v)]));
            db.insert(EdgeId(1), Tuple::from_pairs([(b, v), (c, v)]));
            // The triangle only closes for v < 2.
            db.insert(EdgeId(2), Tuple::from_pairs([(a, v), (c, v % 2)]));
        }
        for names in [vec!["A"], vec!["A", "C"], vec!["A", "B", "C"]] {
            let x = db.attributes(names.iter().copied()).unwrap();
            let yann = query_yannakakis(&db, &x).expect("cyclic schemas now execute");
            let naive = query_via_full_join(&db, &x);
            assert!(
                yann.same_contents(&naive),
                "decomposed Yannakakis differs from full join for {names:?}"
            );
        }
    }

    /// Stands in for any panic escaping the engine below an entry point.
    #[derive(Clone)]
    struct PanickingSink;

    impl MetricsSink for PanickingSink {
        const ENABLED: bool = true;

        fn record_op(&self, _op: crate::metrics::OpMetrics) {
            panic!("sink exploded");
        }
    }

    #[test]
    fn every_engine_contains_a_panic_whatever_the_sinks() {
        let db = fig1_db();
        let x = db.attributes(["A", "D"]).unwrap();
        let ctx = ExecCtx::new().metrics(&PanickingSink);
        for (engine, got) in [
            ("connection", ctx.query_via_connection(&db, &x)),
            ("naive", ctx.query_via_full_join(&db, &x)),
            ("yannakakis", ctx.query_yannakakis(&db, &x)),
        ] {
            let want = EngineError::WorkerPanic("sink exploded".to_owned());
            assert_eq!(got.err(), Some(want), "{engine}");
        }
    }

    #[test]
    fn empty_attribute_set_yields_empty_schema_relation() {
        let db = fig1_db();
        let x = NodeSet::new();
        let r = query_via_connection(&db, &x);
        assert!(r.attributes().is_empty());
    }
}
