//! Relational database substrate for "Connections in Acyclic Hypergraphs"
//! (Maier & Ullman, §7).
//!
//! The paper's database interpretation treats a hypergraph as a universal-
//! relation schema: nodes are attributes, edges are *objects* (stored
//! relations).  A query names a set of attributes `X`; the system joins the
//! objects in the canonical connection `CC(X)` and projects onto `X`.  This
//! crate supplies everything needed to run that model:
//!
//! * relations with set semantics: projection, selection, natural join,
//!   semijoin ([`Relation`], [`Tuple`], [`Value`]);
//! * databases bound to a schema hypergraph ([`Database`]);
//! * universal-relation query answering via canonical connections, with the
//!   naive join-everything baseline ([`query_via_connection`],
//!   [`query_via_full_join`]);
//! * the Yannakakis full reducer and join over a join tree
//!   ([`full_reduce`], [`yannakakis_join`]) — the production query path for
//!   acyclic schemas;
//! * cyclic-schema execution by hypertree decomposition: bag
//!   materialization over a [`decomp::Decomposition`] and transparent
//!   routing ([`yannakakis_join_any`]) so *any* connected schema — ring,
//!   clique, grid — answers through the same engine;
//! * pairwise vs. global consistency, the semantic face of acyclicity
//!   ([`is_pairwise_consistent`], [`is_globally_consistent`]).
//!
//! Each pipeline has one generic entry point, a method on [`ExecCtx`] — the
//! [`ExecPolicy`] plus the metrics, governance and trace sinks, all no-ops
//! by default — and at most one plain wrapper beside it (the functions named
//! above) that runs it with nobody watching.
//!
//! # Module map
//!
//! | Module | Paper concept / engine role |
//! |---|---|
//! | `value`, `pool` | attribute values and the interning dictionary behind the columnar `u32`-handle rows |
//! | `relation` | one stored *object* (hyperedge) as a relation: flat interned rows, hash and sort-merge join/semijoin kernels (§7), and the LSD counting/radix id sorter they share with the server's answer frame ([`sort_ids_by_key`]) |
//! | `database` | a database bound to a schema hypergraph — one relation per object (§7) |
//! | `universal` | universal-relation queries `π_X(⋈ CC(X))` over canonical connections (§5, §7) |
//! | `query` | the declarative [`Query`] layer: tableau-expressible output + equality selections, selection pushdown |
//! | `yannakakis` | the Yannakakis full reducer and bottom-up join over a join tree, level-synchronous in both phases (§7's efficiency payoff) |
//! | [`hypertree`] | cyclic schemas: bag materialization over a hypertree decomposition (`decomp` crate) and the acyclic-vs-cyclic router [`yannakakis_join_any`] |
//! | [`snapshot`] | the versioned binary snapshot format behind [`Database::save_snapshot`] / [`Database::load_snapshot`] — scale-up loads in milliseconds instead of re-parsing text |
//! | [`exec`] | [`ExecCtx`] (the one execution context every pipeline entry point is a method of), [`ExecPolicy`], [`JoinStrategy`] cost-pick, the [`MorselQueue`] work-pull cursor, and the leased [`WorkerPool`] the parallel engine runs on |
//! | [`metrics`] | zero-cost-when-off observability: the [`MetricsSink`] an [`ExecCtx`] carries into every kernel, collected into a [`QueryMetrics`] report — a struct and a text table; its JSON document is rendered by `hyperqd::protocol` |
//! | [`govern`] | zero-cost-when-off governance: the [`Governor`] checkpoints (cancellation, deadlines, memory budgets) an [`ExecCtx`] carries into every kernel, structured [`EngineError`] aborts, and the `failpoints` fault-injection harness |
//! | [`trace`] | zero-cost-when-off trace spans: the [`TraceSink`] stage hooks an [`ExecCtx`] carries through the pipelines, collected into a hierarchical [`TraceReport`] (decompose → materialize → reduce → join wall clock; rendered for the slow-query log by `hyperqd::protocol`) |
//! | `consistency` | pairwise vs. global consistency and repairs — the semantic characterization of acyclicity (§7) |
//! | [`mod@reference`] | the pre-rewrite naive engine, kept as the equivalence-test oracle and benchmark baseline |
//!
//! # Example
//!
//! ```
//! use hypergraph::{Hypergraph, EdgeId};
//! use reldb::{Database, Tuple, query_via_connection};
//!
//! let schema = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap();
//! let (a, b, c) = (schema.node("A").unwrap(), schema.node("B").unwrap(), schema.node("C").unwrap());
//! let mut db = Database::empty(schema);
//! db.insert(EdgeId(0), Tuple::from_pairs([(a, 1), (b, 2)]));
//! db.insert(EdgeId(1), Tuple::from_pairs([(b, 2), (c, 3)]));
//!
//! let x = db.attributes(["A", "C"]).unwrap();
//! let answer = query_via_connection(&db, &x);
//! assert_eq!(answer.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod consistency;
mod database;
pub mod exec;
pub mod govern;
pub mod hypertree;
pub mod metrics;
mod pool;
mod query;
pub mod reference;
mod relation;
pub mod snapshot;
pub mod trace;
mod universal;
mod value;
mod yannakakis;

pub use consistency::{
    dangling_report, is_globally_consistent, is_pairwise_consistent, make_globally_consistent,
};
pub use database::{Database, DbError};
pub use exec::{
    ExecCtx, ExecPolicy, JoinStrategy, MorselQueue, WorkerLease, WorkerPool,
    AUTO_JOIN_SORTMERGE_MAX_DISTINCT_RATIO, AUTO_SEMIJOIN_SORTMERGE_MAX_DISTINCT_RATIO,
    DEFAULT_MORSEL_ROWS,
};
pub use govern::{CancelToken, EngineError, Governor, NoopGovernor, QueryGovernor};
#[cfg(feature = "failpoints")]
pub use govern::{FailMode, FailpointGovernor};
pub use hypertree::{materialize_bags, yannakakis_join_any, yannakakis_join_decomposed};
pub use metrics::{CollectingSink, MetricsSink, NoopMetrics, Phase, QueryMetrics};
pub use pool::ValuePool;
pub use query::{Query, QueryPlan, Selection};
pub use relation::{sort_ids_by_key, Relation, Tuple};
pub use snapshot::is_snapshot;
pub use trace::{CollectingTracer, NoopTrace, Span, SpanKind, TraceReport, TraceSink};
pub use universal::{
    plan_connection, query_attributes, query_via_connection, query_via_full_join,
    query_via_full_join_metered, query_yannakakis, query_yannakakis_governed,
    query_yannakakis_metered, ConnectionPlan,
};
pub use value::Value;
pub use yannakakis::{
    full_reduce, full_reduce_with, naive_join_project, yannakakis_join, yannakakis_join_with,
    Reduced,
};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::{
        full_reduce, full_reduce_with, is_globally_consistent, is_pairwise_consistent,
        plan_connection, query_via_connection, query_via_full_join, query_yannakakis,
        yannakakis_join, yannakakis_join_any, yannakakis_join_with, CancelToken, Database, DbError,
        EngineError, ExecCtx, ExecPolicy, JoinStrategy, NoopGovernor, Query, QueryGovernor,
        Relation, Tuple, Value,
    };
}
