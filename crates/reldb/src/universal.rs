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
//! * [`query_via_connection`] — join the objects of `CC(X)` (tableau
//!   reduction picks them), project onto `X`;
//! * [`query_yannakakis`] — same object selection, but evaluated with a
//!   full reducer and join-tree join (the production path);
//! * [`query_via_full_join`] — join *every* object, project onto `X`
//!   (the naive baseline).

use crate::database::Database;
use crate::exec::ExecPolicy;
use crate::govern::{contain_panics, EngineError, Governor};
use crate::hypertree::{
    yannakakis_join_any, yannakakis_join_any_governed, yannakakis_join_any_metered,
    yannakakis_join_any_traced,
};
use crate::metrics::{MetricsSink, NoopMetrics};
use crate::relation::Relation;
use crate::trace::{with_span, SpanKind, TraceSink};
use crate::yannakakis::naive_join_project;
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

/// Answers the query `π_X (⋈ of the objects in CC(X))`.
pub fn query_via_connection(db: &Database, x: &NodeSet) -> Relation {
    query_via_connection_metered(db, x, &ExecPolicy::default(), &NoopMetrics)
}

/// The metered form of [`query_via_connection`]: the same plan, with every
/// join executed under `policy` and recorded into `sink`.
pub fn query_via_connection_metered<M: MetricsSink>(
    db: &Database,
    x: &NodeSet,
    policy: &ExecPolicy,
    sink: &M,
) -> Relation {
    let plan = plan_connection(db.schema(), x);
    let mut acc: Option<Relation> = None;
    for &i in &plan.objects {
        let r = &db.relations()[i];
        acc = Some(match acc {
            None => r.clone(),
            Some(a) => a.join_metered(r, policy, sink),
        });
    }
    match acc {
        Some(a) => a.into_project(x),
        None => Relation::new("∅", x.clone()),
    }
}

/// The governed form of [`query_via_connection_metered`]: the same
/// canonical-connection plan, with every join checkpointed against the
/// [`Governor`] and its output charged to the governor's memory budget, and
/// any engine panic contained as [`EngineError::WorkerPanic`].
pub fn query_via_connection_governed<M: MetricsSink, G: Governor>(
    db: &Database,
    x: &NodeSet,
    policy: &ExecPolicy,
    sink: &M,
    gov: &G,
) -> Result<Relation, EngineError> {
    contain_panics(|| {
        let plan = plan_connection(db.schema(), x);
        let mut acc: Option<Relation> = None;
        for &i in &plan.objects {
            let r = &db.relations()[i];
            acc = Some(match acc {
                None => r.clone(),
                Some(a) => a.join_governed(r, policy, sink, gov)?,
            });
        }
        Ok(match acc {
            Some(a) => a.into_project(x),
            None => Relation::new("∅", x.clone()),
        })
    })
}

/// The traced form of [`query_via_connection_governed`]: the whole
/// join-then-project plan is bracketed in one [`SpanKind::Join`] wall-clock
/// span (this engine has no reducer phases to break out).
/// [`query_via_connection_governed`] is this function monomorphized over
/// [`NoopTrace`](crate::NoopTrace).
pub fn query_via_connection_traced<M: MetricsSink, G: Governor, T: TraceSink>(
    db: &Database,
    x: &NodeSet,
    policy: &ExecPolicy,
    sink: &M,
    gov: &G,
    tracer: &T,
) -> Result<Relation, EngineError> {
    with_span(tracer, SpanKind::Join, || {
        query_via_connection_governed(db, x, policy, sink, gov)
    })
}

/// Answers the query by joining **all** objects (the universal relation) and
/// projecting — the naive baseline.
pub fn query_via_full_join(db: &Database, x: &NodeSet) -> Relation {
    naive_join_project(db, x)
}

/// The metered form of [`query_via_full_join`]: the naive all-objects join,
/// with each binary join recorded into `sink`.
pub fn query_via_full_join_metered<M: MetricsSink>(
    db: &Database,
    x: &NodeSet,
    policy: &ExecPolicy,
    sink: &M,
) -> Relation {
    db.full_join_metered(policy, sink).into_project(x)
}

/// The governed form of [`query_via_full_join_metered`]: the naive
/// all-objects join under a [`Governor`], with panics contained.  The
/// checkpoints matter most here — this is the one engine whose intermediate
/// results can explode, which is exactly what a deadline or memory budget
/// is for.
pub fn query_via_full_join_governed<M: MetricsSink, G: Governor>(
    db: &Database,
    x: &NodeSet,
    policy: &ExecPolicy,
    sink: &M,
    gov: &G,
) -> Result<Relation, EngineError> {
    contain_panics(|| Ok(db.full_join_governed(policy, sink, gov)?.into_project(x)))
}

/// The traced form of [`query_via_full_join_governed`]: the naive
/// all-objects join and projection under one [`SpanKind::Join`] wall-clock
/// span.  [`query_via_full_join_governed`] is this function monomorphized
/// over [`NoopTrace`](crate::NoopTrace).
pub fn query_via_full_join_traced<M: MetricsSink, G: Governor, T: TraceSink>(
    db: &Database,
    x: &NodeSet,
    policy: &ExecPolicy,
    sink: &M,
    gov: &G,
    tracer: &T,
) -> Result<Relation, EngineError> {
    with_span(tracer, SpanKind::Join, || {
        query_via_full_join_governed(db, x, policy, sink, gov)
    })
}

/// Answers the query with the Yannakakis algorithm: over the schema's join
/// tree when it is acyclic, or through the hypertree-decomposition pipeline
/// ([`yannakakis_join_any`]) when it is cyclic.  Fails only on an edgeless
/// schema.
pub fn query_yannakakis(db: &Database, x: &NodeSet) -> Result<Relation, EngineError> {
    yannakakis_join_any(db, x, &ExecPolicy::default())
}

/// The metered form of [`query_yannakakis`], under an explicit policy:
/// routes through [`yannakakis_join_any_metered`] so acyclic and cyclic
/// schemas alike fill `sink`.
pub fn query_yannakakis_metered<M: MetricsSink>(
    db: &Database,
    x: &NodeSet,
    policy: &ExecPolicy,
    sink: &M,
) -> Result<Relation, EngineError> {
    yannakakis_join_any_metered(db, x, policy, sink)
}

/// The governed form of [`query_yannakakis_metered`]: the same routed
/// pipeline under a [`Governor`] — cancellation, deadline and budget
/// checkpoints at every level and kernel batch, panic containment, and the
/// cyclic path's budget degradation ladder
/// ([`yannakakis_join_any_governed`]).
pub fn query_yannakakis_governed<M: MetricsSink, G: Governor>(
    db: &Database,
    x: &NodeSet,
    policy: &ExecPolicy,
    sink: &M,
    gov: &G,
) -> Result<Relation, EngineError> {
    yannakakis_join_any_governed(db, x, policy, sink, gov)
}

/// The traced form of [`query_yannakakis_governed`]: identical routing and
/// governance, with the pipeline's stage spans — decompose, materialize,
/// reduce-up/down, join — reported into `tracer`
/// ([`yannakakis_join_any_traced`]).  [`query_yannakakis_governed`] is this
/// function monomorphized over [`NoopTrace`](crate::NoopTrace).
pub fn query_yannakakis_traced<M: MetricsSink, G: Governor, T: TraceSink>(
    db: &Database,
    x: &NodeSet,
    policy: &ExecPolicy,
    sink: &M,
    gov: &G,
    tracer: &T,
) -> Result<Relation, EngineError> {
    yannakakis_join_any_traced(db, x, policy, sink, gov, tracer)
}

/// Convenience: answer a query given attribute names.
pub fn query_attributes(db: &Database, names: &[&str]) -> Result<Relation, EngineError> {
    let x = db.attributes(names.iter().copied())?;
    Ok(query_via_connection(db, &x))
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
    fn query_attributes_resolves_names() {
        let db = fig1_db();
        let r = query_attributes(&db, &["A", "D"]).unwrap();
        assert_eq!(r.attributes(), &db.attributes(["A", "D"]).unwrap());
        assert!(query_attributes(&db, &["Z"]).is_err());
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

    #[test]
    fn empty_attribute_set_yields_empty_schema_relation() {
        let db = fig1_db();
        let x = NodeSet::new();
        let r = query_via_connection(&db, &x);
        assert!(r.attributes().is_empty());
    }
}
