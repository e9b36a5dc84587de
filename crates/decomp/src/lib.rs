//! Hypertree decomposition: executing *cyclic* hypergraph queries by
//! reduction to the acyclic machinery of Maier & Ullman.
//!
//! The paper characterizes what makes acyclic hypergraphs tractable —
//! GYO/Graham reduction, join trees, the running-intersection property — and
//! the `acyclic`/`reldb` crates exploit exactly that.  A cyclic hypergraph
//! has no join tree, but it can be *made* acyclic: triangulate its primal
//! graph with an elimination order, collect the maximal cliques of the
//! chordal completion as *bags*, and assemble the bags into a tree.  The
//! bag hypergraph is acyclic by construction (maximal cliques of a chordal
//! graph always admit a join tree), so the existing ear-decomposition and
//! Yannakakis machinery runs on it unchanged.  The price of cyclicity is
//! the *width* of the decomposition: the largest bag joins that many
//! attributes at once.
//!
//! # Module map
//!
//! | Module | Concept / engine role |
//! |---|---|
//! | [`mod@elimination`] | elimination orders over the primal graph: min-fill and min-degree heuristics, fill-edge accounting |
//! | [`mod@decompose`] | bag collection (one bag per elimination step, subsumed bags dropped), running-intersection tree assembly via [`acyclic::join_tree`], [`Decomposition::width`], [`Decomposition::verify`], DOT rendering of the bag tree |
//!
//! The relational half of the pipeline — materializing each bag as the join
//! of the relations it covers and running the Yannakakis reducer/join over
//! the bag tree — lives in `reldb::hypertree`, which consumes the
//! [`Decomposition`] produced here.
//!
//! # Example
//!
//! ```
//! use hypergraph::Hypergraph;
//! use decomp::{decompose, Heuristic};
//!
//! // A 4-ring: the smallest cyclic family.  Triangulation yields two
//! // 3-node bags, so the decomposition has width 2.
//! let ring = Hypergraph::from_edges([
//!     vec!["A", "B"],
//!     vec!["B", "C"],
//!     vec!["C", "D"],
//!     vec!["D", "A"],
//! ]).unwrap();
//!
//! let d = decompose(&ring, Heuristic::MinFill).unwrap();
//! assert_eq!(d.width(), 2);
//! assert_eq!(d.bag_count(), 2);
//! assert!(d.verify(&ring));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decompose;
pub mod elimination;

pub use decompose::{decompose, DecompError, Decomposition};
pub use elimination::Heuristic;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::{decompose, Decomposition, Heuristic};
}
