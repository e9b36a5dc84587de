//! Databases: one relation ("object") per hyperedge of a schema hypergraph.

use crate::exec::ExecCtx;
use crate::govern::{unfail, EngineError, Governor};
use crate::hypertree::Plan;
use crate::metrics::MetricsSink;
use crate::pool::ValuePool;
use crate::relation::{Relation, Tuple};
use crate::value::Value;
use hypergraph::{EdgeId, Hypergraph, NodeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Errors raised while assembling or querying a database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// The number of relations differs from the number of schema edges.
    RelationCountMismatch {
        /// Edges in the schema hypergraph.
        edges: usize,
        /// Relations supplied.
        relations: usize,
    },
    /// A relation's attribute set differs from its schema edge.
    SchemaMismatch(String),
    /// The query mentions an attribute outside the schema.
    UnknownAttribute(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RelationCountMismatch { edges, relations } => write!(
                f,
                "schema has {edges} edges but {relations} relations were supplied"
            ),
            Self::SchemaMismatch(name) => {
                write!(f, "relation {name:?} does not match its schema edge")
            }
            Self::UnknownAttribute(name) => write!(f, "unknown attribute {name:?}"),
        }
    }
}

impl std::error::Error for DbError {}

/// A database instance over a hypergraph schema: the *objects* of the
/// paper's §7, one relation per hyperedge, in edge order.
///
/// The database also carries its schema's query plan — the join tree, or
/// the hypertree decompositions of a cyclic schema — built by the first
/// query that needs it and shared by every clone.  Nothing that changes a
/// database changes its schema, so the plan never goes stale.
#[derive(Debug, Clone)]
pub struct Database {
    schema: Hypergraph,
    relations: Vec<Relation>,
    pool: ValuePool,
    plan: OnceLock<Arc<Plan>>,
}

impl Database {
    /// Creates an empty database (all relations empty) over `schema`.
    ///
    /// All relations share one [`ValuePool`], so every cross-relation kernel
    /// (join, semijoin, reduction) compares plain handles with no
    /// translation step.
    pub fn empty(schema: Hypergraph) -> Self {
        let pool = ValuePool::new();
        let relations = schema
            .edges()
            .iter()
            .map(|e| Relation::with_pool(e.label.clone(), e.nodes.clone(), pool.clone()))
            .collect();
        Self {
            schema,
            relations,
            pool,
            plan: OnceLock::new(),
        }
    }

    /// Assembles a database from a schema and relations given in edge order.
    ///
    /// Relations produced by this crate's kernels from a common ancestor
    /// (the usual case: reductions, projections, repairs) already share one
    /// pool.  Independently built relations keep their own pools — the
    /// kernels still work, copying one operand into the other's pool at the
    /// start of every cross-pool operation.
    pub fn new(schema: Hypergraph, relations: Vec<Relation>) -> Result<Self, DbError> {
        if relations.len() != schema.edge_count() {
            return Err(DbError::RelationCountMismatch {
                edges: schema.edge_count(),
                relations: relations.len(),
            });
        }
        for (e, r) in schema.edges().iter().zip(&relations) {
            if &e.nodes != r.attributes() {
                return Err(DbError::SchemaMismatch(r.name().to_owned()));
            }
        }
        let pool = relations
            .first()
            .map_or_else(ValuePool::new, |r| r.pool().clone());
        Ok(Self {
            schema,
            relations,
            pool,
            plan: OnceLock::new(),
        })
    }

    /// The sub-database of the objects at `edges` (schema-edge indices):
    /// their edges, and copies of their rows that share this database's
    /// pool.  It builds its own plan.
    pub(crate) fn restrict(&self, edges: &[usize]) -> Self {
        let edge = |&i: &usize| self.schema.edges()[i].clone();
        Self {
            schema: self.schema.with_edges(edges.iter().map(edge).collect()),
            relations: edges
                .iter()
                .map(|&i| self.relations[i].clone_rows())
                .collect(),
            pool: self.pool.clone(),
            plan: OnceLock::new(),
        }
    }

    /// The schema hypergraph.
    pub fn schema(&self) -> &Hypergraph {
        &self.schema
    }

    /// The schema's plan, built on first use ([`Plan::build`]).  An
    /// edgeless schema has none: every call reports that error again.
    pub(crate) fn plan(&self) -> Result<&Arc<Plan>, EngineError> {
        if let Some(plan) = self.plan.get() {
            return Ok(plan);
        }
        let plan = Plan::build(&self.schema)?;
        Ok(self.plan.get_or_init(|| Arc::new(plan)))
    }

    /// Whether the schema is acyclic — has a join tree — read from the
    /// plan, which this builds if no query has yet.  An edgeless schema is
    /// not.
    pub fn is_acyclic(&self) -> bool {
        matches!(self.plan().map(|p| &**p), Ok(Plan::Tree(_)))
    }

    /// The relations, in schema-edge order.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// The relation stored for schema edge `e`.
    pub fn relation(&self, e: EdgeId) -> &Relation {
        &self.relations[e.index()]
    }

    /// The database's value pool: the pool every relation of an
    /// [`Database::empty`]-built database interns into (for assembled
    /// databases, the first relation's pool — see [`Database::new`]).
    pub fn pool(&self) -> &ValuePool {
        &self.pool
    }

    /// Inserts a tuple into the relation of schema edge `e`.
    pub fn insert(&mut self, e: EdgeId, t: Tuple) -> bool {
        self.relations[e.index()].insert(t)
    }

    /// Inserts a tuple given as values in column order (ascending attribute
    /// id) into the relation of schema edge `e` — the bulk-loading fast
    /// path; see [`Relation::insert_values`].
    pub fn insert_values<I, V>(&mut self, e: EdgeId, values: I) -> bool
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        self.relations[e.index()].insert_values(values)
    }

    /// Total number of tuples across all relations.
    pub fn tuple_count(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Resolves attribute names to a node set of the schema.
    pub fn attributes<'a, I>(&self, names: I) -> Result<NodeSet, DbError>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut out = NodeSet::new();
        for n in names {
            let id = self
                .schema
                .node(n)
                .map_err(|_| DbError::UnknownAttribute(n.to_owned()))?;
            out.insert(id);
        }
        Ok(out)
    }

    /// The natural join of *all* relations: the paper's universal-relation
    /// interpretation joins every object.  Exponential in the worst case —
    /// this is the naive baseline the canonical-connection and Yannakakis
    /// query paths are compared against.  Runs [`ExecCtx::full_join`] with
    /// nobody watching.
    pub fn full_join(&self) -> Relation {
        unfail(ExecCtx::new().full_join(self))
    }
}

impl<M: MetricsSink, G: Governor> ExecCtx<'_, M, G> {
    /// The natural join of *all* of `db`'s relations, folded in schema-edge
    /// order: each binary join records into the metrics sink and is
    /// checkpointed against the governor with its output charged to the
    /// memory budget ([`ExecCtx::join`]).
    pub fn full_join(&self, db: &Database) -> Result<Relation, EngineError> {
        let mut it = db.relations.iter();
        let Some(first) = it.next() else {
            return Ok(Relation::new("∅", NodeSet::new()));
        };
        let mut acc = first.clone();
        for r in it {
            acc = self.join(&acc, r)?;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::Hypergraph;

    fn schema() -> Hypergraph {
        Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap()
    }

    fn sample() -> Database {
        let h = schema();
        let (a, b, c) = (
            h.node("A").unwrap(),
            h.node("B").unwrap(),
            h.node("C").unwrap(),
        );
        let mut db = Database::empty(h);
        db.insert(EdgeId(0), Tuple::from_pairs([(a, 1), (b, 10)]));
        db.insert(EdgeId(0), Tuple::from_pairs([(a, 2), (b, 20)]));
        db.insert(EdgeId(1), Tuple::from_pairs([(b, 10), (c, 100)]));
        db
    }

    #[test]
    fn empty_database_has_schema_shaped_relations() {
        let db = Database::empty(schema());
        assert_eq!(db.relations().len(), 2);
        assert_eq!(db.tuple_count(), 0);
        assert_eq!(db.relation(EdgeId(0)).name(), "A-B");
        assert_eq!(
            db.relation(EdgeId(1)).attributes(),
            &db.schema().node_set(["B", "C"]).unwrap()
        );
    }

    #[test]
    fn new_validates_count_and_schema() {
        let h = schema();
        let r0 = Relation::new("AB", h.node_set(["A", "B"]).unwrap());
        assert!(matches!(
            Database::new(h.clone(), vec![r0.clone()]),
            Err(DbError::RelationCountMismatch { .. })
        ));
        let bad = Relation::new("BC", h.node_set(["A", "C"]).unwrap());
        assert!(matches!(
            Database::new(h.clone(), vec![r0.clone(), bad]),
            Err(DbError::SchemaMismatch(_))
        ));
        let good = Relation::new("BC", h.node_set(["B", "C"]).unwrap());
        assert!(Database::new(h, vec![r0, good]).is_ok());
    }

    #[test]
    fn insert_and_count() {
        let db = sample();
        assert_eq!(db.tuple_count(), 3);
        assert_eq!(db.relation(EdgeId(0)).len(), 2);
    }

    #[test]
    fn full_join_combines_all_objects() {
        let db = sample();
        let j = db.full_join();
        assert_eq!(j.len(), 1); // only B=10 matches
        assert_eq!(j.attributes(), &db.schema().nodes());
    }

    #[test]
    fn attribute_resolution_errors_on_unknown_names() {
        let db = sample();
        assert!(db.attributes(["A", "C"]).is_ok());
        assert!(matches!(
            db.attributes(["A", "Z"]),
            Err(DbError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn error_display() {
        assert!(DbError::SchemaMismatch("R".into())
            .to_string()
            .contains("R"));
        assert!(DbError::RelationCountMismatch {
            edges: 2,
            relations: 1
        }
        .to_string()
        .contains("2"));
    }
}
