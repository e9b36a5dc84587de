//! A small declarative query layer over the universal-relation model.
//!
//! A [`Query`] names output attributes and equality selections — the
//! "tableau-expressible" queries the paper's §7 has in mind.  Planning picks
//! the objects in the canonical connection of every attribute the query
//! mentions (output and selections alike), and execution pushes the
//! selections below the join, runs the join over the chosen objects, and
//! projects.  [`Query::execute_naive`] evaluates the same query against the
//! full join of all objects, which is the correctness baseline used by the
//! tests and the query benchmark.

use crate::database::Database;
use crate::exec::{ExecCtx, ExecPolicy};
use crate::govern::{contain_panics, unfail, EngineError, Governor};
use crate::metrics::MetricsSink;
use crate::relation::Relation;
use crate::trace::TraceSink;
use crate::universal::plan_connection;
use crate::value::Value;
use hypergraph::{NodeId, NodeSet};
use std::fmt;

/// An equality selection `attribute = value`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// The attribute being constrained.
    pub attribute: NodeId,
    /// The required value.
    pub value: Value,
}

/// A universal-relation query: output attributes plus equality selections.
///
/// # Examples
///
/// ```
/// use hypergraph::{EdgeId, Hypergraph};
/// use reldb::{Database, Query, Tuple};
///
/// let schema = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap();
/// let (a, b, c) = (
///     schema.node("A").unwrap(),
///     schema.node("B").unwrap(),
///     schema.node("C").unwrap(),
/// );
/// let mut db = Database::empty(schema);
/// db.insert(EdgeId(0), Tuple::from_pairs([(a, 1), (b, 2)]));
/// db.insert(EdgeId(1), Tuple::from_pairs([(b, 2), (c, 3)]));
/// db.insert(EdgeId(1), Tuple::from_pairs([(b, 2), (c, 4)]));
///
/// // π_A σ_{C=3}: plan over the canonical connection, push the selection
/// // below the join, project.
/// let q = Query::new().select(a).filter_eq(c, 3);
/// let answer = q.execute(&db);
/// assert_eq!(answer.len(), 1);
/// // The Yannakakis engine answers the same query over the join tree.
/// assert!(q.execute_yannakakis(&db).unwrap().same_contents(&answer));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Query {
    output: Vec<NodeId>,
    selections: Vec<Selection>,
}

impl Query {
    /// Starts an empty query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an output attribute.
    pub fn select(mut self, attribute: NodeId) -> Self {
        if !self.output.contains(&attribute) {
            self.output.push(attribute);
        }
        self
    }

    /// Adds several output attributes.
    pub fn select_all<I: IntoIterator<Item = NodeId>>(mut self, attributes: I) -> Self {
        for a in attributes {
            self = self.select(a);
        }
        self
    }

    /// Adds an equality selection.
    pub fn filter_eq(mut self, attribute: NodeId, value: impl Into<Value>) -> Self {
        self.selections.push(Selection {
            attribute,
            value: value.into(),
        });
        self
    }

    /// The output attributes as a node set.
    pub fn output_set(&self) -> NodeSet {
        self.output.iter().copied().collect()
    }

    /// Every attribute the query mentions (output and selections) — the set
    /// whose canonical connection decides which objects are joined.
    pub fn mentioned(&self) -> NodeSet {
        let mut s = self.output_set();
        for sel in &self.selections {
            s.insert(sel.attribute);
        }
        s
    }

    /// The selections.
    pub fn selections(&self) -> &[Selection] {
        &self.selections
    }

    /// Plans the query against `db`'s schema: the objects of the canonical
    /// connection of every mentioned attribute.
    pub fn plan(&self, db: &Database) -> QueryPlan {
        let plan = plan_connection(db.schema(), &self.mentioned());
        QueryPlan {
            objects: plan.objects,
            output: self.output_set(),
        }
    }

    /// The selections a relation's schema can evaluate, as `(attribute,
    /// value)` predicate pairs.
    fn applicable(&self, relation: &Relation) -> Vec<(NodeId, Value)> {
        self.selections
            .iter()
            .filter(|sel| relation.attributes().contains(sel.attribute))
            .map(|sel| (sel.attribute, sel.value.clone()))
            .collect()
    }

    /// Applies the selections that an object's schema can evaluate, all of
    /// them fused into a single row scan with one output build
    /// ([`Relation::select_eq_all`]) instead of materializing one
    /// intermediate relation per selection.
    fn filtered(&self, relation: &Relation) -> Relation {
        let preds = self.applicable(relation);
        if preds.is_empty() {
            return relation.clone();
        }
        relation.select_eq_all(&preds)
    }

    /// Executes via the canonical connection under the default
    /// [`ExecPolicy`] with nobody watching — see [`ExecCtx::execute`].
    pub fn execute(&self, db: &Database) -> Relation {
        unfail(ExecCtx::new(&ExecPolicy::default()).execute(self, db))
    }

    /// Executes with the Yannakakis algorithm under the default
    /// [`ExecPolicy`] with nobody watching — see
    /// [`ExecCtx::execute_yannakakis`].
    pub fn execute_yannakakis(&self, db: &Database) -> Result<Relation, EngineError> {
        ExecCtx::new(&ExecPolicy::default()).execute_yannakakis(self, db)
    }

    /// Executes against the full join of every object — the baseline.
    pub fn execute_naive(&self, db: &Database) -> Relation {
        self.finish(db.full_join())
    }

    /// Applies the remaining selections to a joined relation (fused into
    /// one scan) and projects.
    fn finish(&self, joined: Relation) -> Relation {
        let preds = self.applicable(&joined);
        let r = if preds.is_empty() {
            joined
        } else {
            joined.select_eq_all(&preds)
        };
        r.project(&self.output_set())
    }
}

impl<M: MetricsSink, G: Governor, T: TraceSink> ExecCtx<'_, M, G, T> {
    /// Executes `query` via the canonical connection: filter each chosen
    /// object, join them, apply any remaining selections, project onto the
    /// output.  Every join records into the metrics sink and is checkpointed
    /// against the governor (cancellation, deadline, output charged to the
    /// memory budget); engine panics are contained as
    /// [`EngineError::WorkerPanic`].
    pub fn execute(&self, query: &Query, db: &Database) -> Result<Relation, EngineError> {
        contain_panics(|| {
            let plan = query.plan(db);
            let mut acc: Option<Relation> = None;
            for &i in &plan.objects {
                let filtered = query.filtered(&db.relations()[i]);
                acc = Some(match acc {
                    None => filtered,
                    Some(a) => self.join(&a, &filtered)?,
                });
            }
            let joined = acc.unwrap_or_else(|| Relation::new("∅", query.mentioned()));
            Ok(query.finish(joined))
        })
    }

    /// Executes `query` with the Yannakakis algorithm: over the schema's join
    /// tree when it is acyclic, or transparently through the hypertree-
    /// decomposition pipeline (decompose → materialize bags → reduce → join,
    /// see [`crate::hypertree`]) when it is cyclic.  Selections are applied
    /// to the relevant relations before reduction either way, which is where
    /// pushing selections below semijoins (and below bag materialization)
    /// pays off; the routed pipeline then runs as
    /// [`ExecCtx::yannakakis_join_any`].  An abort leaves `db` untouched:
    /// the pushdown filters into fresh relations and the engine below never
    /// mutates its input database.
    pub fn execute_yannakakis(
        &self,
        query: &Query,
        db: &Database,
    ) -> Result<Relation, EngineError> {
        let filtered: Vec<Relation> = db.relations().iter().map(|r| query.filtered(r)).collect();
        let filtered_db = Database::new(db.schema().clone(), filtered)?;
        let joined = self.yannakakis_join_any(&filtered_db, &query.mentioned())?;
        Ok(query.finish(joined))
    }
}

/// The physical plan of a [`Query`]: which objects are joined and what is
/// projected at the end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Indices of the schema edges (objects) to join.
    pub objects: Vec<usize>,
    /// The output attributes.
    pub output: NodeSet,
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "join objects {:?} then project", self.objects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::make_globally_consistent;
    use crate::relation::Tuple;
    use hypergraph::{EdgeId, Hypergraph};

    fn chain_db() -> Database {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap();
        let (a, b, c, d) = (
            h.node("A").unwrap(),
            h.node("B").unwrap(),
            h.node("C").unwrap(),
            h.node("D").unwrap(),
        );
        let mut db = Database::empty(h);
        for i in 0..6i64 {
            db.insert(EdgeId(0), Tuple::from_pairs([(a, i), (b, i % 3)]));
            db.insert(EdgeId(1), Tuple::from_pairs([(b, i % 3), (c, i % 2)]));
            db.insert(EdgeId(2), Tuple::from_pairs([(c, i % 2), (d, i)]));
        }
        db
    }

    #[test]
    fn builder_accumulates_attributes_and_selections() {
        let db = chain_db();
        let a = db.schema().node("A").unwrap();
        let d = db.schema().node("D").unwrap();
        let q = Query::new().select(a).select(a).select(d).filter_eq(d, 3);
        assert_eq!(q.output_set().len(), 2);
        assert_eq!(q.mentioned().len(), 2);
        assert_eq!(q.selections().len(), 1);
    }

    #[test]
    fn connection_plan_uses_only_needed_objects() {
        let db = chain_db();
        let a = db.schema().node("A").unwrap();
        let b = db.schema().node("B").unwrap();
        // A query about {A, B} only needs the AB object.
        let q = Query::new().select(a).select(b);
        assert_eq!(q.plan(&db).objects, vec![0]);
        // A query about {A, D} needs the whole chain.
        let d = db.schema().node("D").unwrap();
        let q = Query::new().select(a).select(d);
        assert_eq!(q.plan(&db).objects, vec![0, 1, 2]);
    }

    #[test]
    fn execution_paths_agree_on_consistent_data() {
        let db = make_globally_consistent(&chain_db());
        let schema = db.schema().clone();
        let (a, c, d) = (
            schema.node("A").unwrap(),
            schema.node("C").unwrap(),
            schema.node("D").unwrap(),
        );
        for q in [
            Query::new().select(a).select(d),
            Query::new().select(a).select(d).filter_eq(c, 1),
            Query::new().select(a).filter_eq(d, 3),
            Query::new().select_all([a, c, d]),
        ] {
            let via_cc = q.execute(&db);
            let naive = q.execute_naive(&db);
            let yann = q.execute_yannakakis(&db).unwrap();
            assert!(via_cc.same_contents(&naive), "connection plan diverged");
            assert!(yann.same_contents(&naive), "yannakakis diverged");
        }
    }

    #[test]
    fn selections_filter_results() {
        let db = make_globally_consistent(&chain_db());
        let schema = db.schema().clone();
        let (a, b, d) = (
            schema.node("A").unwrap(),
            schema.node("B").unwrap(),
            schema.node("D").unwrap(),
        );
        let unfiltered = Query::new().select(a).execute(&db);
        assert_eq!(unfiltered.len(), 6);
        // Constraining B to a single value keeps only the A values paired
        // with it (a ∈ {1, 4} in this instance).
        let filtered = Query::new().select(a).filter_eq(b, 1).execute(&db);
        assert_eq!(filtered.len(), 2);
        // A selection on a far-away attribute still type-checks and agrees
        // with the naive evaluation.
        let far = Query::new().select(a).filter_eq(d, 0);
        assert!(far.execute(&db).same_contents(&far.execute_naive(&db)));
    }

    #[test]
    fn cyclic_schema_routes_through_the_decomposition_path() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["A", "C"]]).unwrap();
        let (a, b, c) = (
            h.node("A").unwrap(),
            h.node("B").unwrap(),
            h.node("C").unwrap(),
        );
        let mut db = Database::empty(h);
        for v in 0..4i64 {
            db.insert(EdgeId(0), Tuple::from_pairs([(a, v), (b, v)]));
            db.insert(EdgeId(1), Tuple::from_pairs([(b, v), (c, v)]));
            db.insert(EdgeId(2), Tuple::from_pairs([(a, v), (c, v % 3)]));
        }
        // Output + selection queries agree with the naive full join.
        for q in [
            Query::new().select(a),
            Query::new().select(a).select(c).filter_eq(b, 1),
            Query::new().select_all([a, b, c]),
        ] {
            let yann = q.execute_yannakakis(&db).expect("cyclic schemas execute");
            let naive = q.execute_naive(&db);
            assert!(yann.same_contents(&naive), "decomposed query diverged");
        }
        // The connection path still works (it never needs a join tree).
        assert!(!Query::new().select(a).execute(&db).is_empty());
    }

    #[test]
    fn query_with_no_matching_objects_is_empty() {
        let db = chain_db();
        let q = Query::new();
        assert!(q.execute(&db).attributes().is_empty());
        assert_eq!(format!("{}", q.plan(&db)), "join objects [] then project");
    }
}
