//! Relational database substrate for "Connections in Acyclic Hypergraphs"
//! (Maier & Ullman, §7).
//!
//! The paper's database interpretation treats a hypergraph as a universal-
//! relation schema: nodes are attributes, edges are *objects* (stored
//! relations).  A query names a set of attributes `X`; the system joins the
//! objects in the canonical connection `CC(X)` and projects onto `X`.  This
//! crate supplies everything needed to run that model:
//!
//! * relations with set semantics: projection, natural join, semijoin
//!   ([`Relation`], [`Tuple`], [`Value`]);
//! * databases bound to a schema hypergraph ([`Database`]);
//! * universal-relation query answering via canonical connections, with the
//!   naive join-everything baseline ([`query_via_connection`],
//!   [`query_via_full_join`]);
//! * the Yannakakis full reducer and join over a join tree
//!   ([`full_reduce`], [`yannakakis_join`]) — the production query path for
//!   acyclic schemas;
//! * cyclic-schema execution by hypertree decomposition: bag
//!   materialization over a [`decomp::Decomposition`], and one entry point
//!   ([`query_yannakakis`]) that routes by the plan each [`Database`]
//!   builds once from its schema, so *any* connected schema — ring,
//!   clique, grid — answers through the same engine;
//! * pairwise vs. global consistency, the semantic face of acyclicity
//!   ([`is_pairwise_consistent`], [`is_globally_consistent`]).
//!
//! Each pipeline has one generic entry point, a method on [`ExecCtx`] — the
//! metrics and governance sinks, both no-ops by default — and at most one
//! plain wrapper beside it (the functions named above) that runs it with
//! nobody watching.
//!
//! # Module map
//!
//! | Module | Paper concept / engine role |
//! |---|---|
//! | `value`, `pool` | attribute values and the interning dictionary behind the columnar `u32`-handle rows |
//! | `relation` | one stored *object* (hyperedge) as a relation: flat interned rows, the hash join kernel and the dense and sort-merge semijoin kernels (§7), which see one pool (a cross-pool operand is brought into it at the kernel's door), and the LSD counting/radix id sorter they share with the server's answer frame ([`sort_ids_by_key`]) |
//! | `database` | a database bound to a schema hypergraph — one relation per object (§7) — carrying its schema's plan ([`Database::is_acyclic`]) |
//! | `universal` | universal-relation queries `π_X(⋈ CC(X))` over canonical connections (§5, §7): the connection engine (`CC(X)` by Graham reduction on an acyclic schema, tableau reduction on a cyclic one; one tie rule maps it to objects; the Yannakakis engine answers over them) and the full-join baseline |
//! | `yannakakis` | the Yannakakis full reducer, and queries answered from the join subtree covering `X` after the upward pass, level by level in every pass (§7's efficiency payoff), a two-attribute answer walked along a path of the subtree through run indexes, the subtree's whole join enumerated in order from sorted relations |
//! | `rank` | [`RankedBits`], the rank bitmap over handles that the path expansion's run index and `hyperqd`'s answer frame share |
//! | [`hypertree`] | cyclic schemas: bag materialization over a hypertree decomposition (`decomp` crate), the per-database plan (join tree or decompositions, built once from the schema) and the one Yannakakis entry point [`ExecCtx::query_yannakakis`], which routes by it |
//! | [`snapshot`] | the versioned binary snapshot format behind [`Database::save_snapshot`] / [`Database::load_snapshot`] — scale-up loads in milliseconds instead of re-parsing text |
//! | [`exec`] | [`ExecCtx`], the one execution context every pipeline entry point is a method of: the metrics and governance sinks, nothing else — the inputs pick every kernel and every query runs on its caller's thread, whoever calls |
//! | `harness` | what the frozen benchmark harness under `benchmark/` names and the engine does not use: a policy type, a strategy enum and seven forwards that accept and ignore them, re-exported at the crate root |
//! | [`metrics`] | zero-cost-when-off observability: the [`MetricsSink`] an [`ExecCtx`] carries into every kernel and stage — counters per operation, wall clock per stage level (decompose → materialize → reduce → join) — collected into a [`QueryMetrics`] report, a struct and a text table; its JSON document is rendered by `hyperqd::protocol` |
//! | [`govern`] | zero-cost-when-off governance: the [`Governor`] checkpoints (cancellation, deadlines, memory budgets) an [`ExecCtx`] carries into every kernel, structured [`EngineError`] aborts, and the `failpoints` fault-injection harness |
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
mod harness;
pub mod hypertree;
pub mod metrics;
mod pool;
mod rank;
pub mod reference;
mod relation;
pub mod snapshot;
mod universal;
mod value;
mod yannakakis;

pub use consistency::{is_globally_consistent, is_pairwise_consistent, make_globally_consistent};
pub use database::{Database, DbError};
pub use exec::ExecCtx;
pub use govern::{CancelToken, EngineError, Governor, NoopGovernor, QueryGovernor};
#[cfg(feature = "failpoints")]
pub use govern::{FailMode, FailpointGovernor};
pub use harness::{
    full_reduce_with, materialize_bags, query_via_full_join_metered, query_yannakakis_governed,
    query_yannakakis_metered, yannakakis_join_with, ExecPolicy, JoinStrategy,
};
pub use metrics::{CollectingSink, MetricsSink, NoopMetrics, Phase, QueryMetrics};
pub use pool::{value_order, ValuePool};
pub use rank::RankedBits;
pub use relation::{sort_ids_by_key, Relation, Tuple};
pub use snapshot::is_snapshot;
pub use universal::{
    plan_connection, query_via_connection, query_via_full_join, query_yannakakis, ConnectionPlan,
};
pub use value::Value;
pub use yannakakis::{full_reduce, yannakakis_join, Reduced};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::{
        full_reduce, is_globally_consistent, is_pairwise_consistent, plan_connection,
        query_via_connection, query_via_full_join, query_yannakakis, yannakakis_join, CancelToken,
        Database, DbError, EngineError, ExecCtx, NoopGovernor, QueryGovernor, Relation, Tuple,
        Value,
    };
}
