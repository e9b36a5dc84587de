//! Hypergraph substrate for "Connections in Acyclic Hypergraphs"
//! (Maier & Ullman).
//!
//! This crate provides the data structures of the paper's §1:
//!
//! * interned node names ([`Universe`], [`NodeId`]) and bit-set node sets
//!   ([`NodeSet`]),
//! * hyperedges and hypergraphs ([`Edge`], [`Hypergraph`]) with reduction
//!   (removal of subsumed edges),
//! * connectivity and components,
//! * node-generated sets of edges (induced partial-edge hypergraphs),
//! * articulation sets,
//! * ordinary graphs ([`Graph`]) with articulation points and biconnected
//!   components — the classical theory the paper generalizes — plus primal
//!   and DOT views of hypergraphs.
//!
//! The algorithms of the paper itself (Graham reduction, tableau reduction,
//! canonical connections, independent paths, Theorem 6.1) live in the
//! `acyclic` and `tableau` crates, which build on this one.
//!
//! # Module map
//!
//! | Module | Paper concept |
//! |---|---|
//! | `interner`, `nodeset` | node universe `N` and node sets `X ⊆ N` (§1); sets are bit vectors over interned ids |
//! | `edge`, `hypergraph` | hyperedges and hypergraphs `H = (N, E)`, reduction by subsumed-edge removal (§1) |
//! | `connectivity` | connectedness and components of a hypergraph (§1) |
//! | `induced` | node-generated partial-edge hypergraphs `H(X)` (§2) |
//! | `articulation` | articulation sets — the hypergraph generalization of articulation points (§4) |
//! | `graph` | ordinary graphs, articulation points, biconnected components — the classical theory being generalized |
//! | `primal` | the primal ("2-section") graph used by the MCS acyclicity test and by decompositions |
//! | `dot` | Graphviz/ASCII rendering of the bipartite incidence structure (presentation only) |
//! | `error` | shared error type for malformed inputs |
//!
//! # Example
//!
//! ```
//! use hypergraph::Hypergraph;
//!
//! // Fig. 1 of the paper.
//! let h = Hypergraph::from_edges([
//!     vec!["A", "B", "C"],
//!     vec!["C", "D", "E"],
//!     vec!["A", "E", "F"],
//!     vec!["A", "C", "E"],
//! ]).unwrap();
//!
//! assert!(h.is_connected());
//! assert!(h.is_reduced());
//! assert!(h.has_articulation_set());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod articulation;
mod connectivity;
mod dot;
mod edge;
mod error;
mod graph;
mod hypergraph;
mod induced;
mod interner;
mod nodeset;
mod primal;

pub use edge::{Edge, EdgeId};
pub use error::{HypergraphError, Result};
pub use graph::Graph;
pub use hypergraph::{Hypergraph, HypergraphBuilder, HypergraphDisplay};
pub use interner::{NodeId, Universe};
pub use nodeset::{NodeSet, NodeSetDisplay};

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::{Edge, EdgeId, Graph, Hypergraph, HypergraphError, NodeId, NodeSet, Universe};
}
