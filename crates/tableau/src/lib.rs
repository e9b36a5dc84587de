//! Tableaux and tableau reduction for "Connections in Acyclic Hypergraphs"
//! (Maier & Ullman, §3).
//!
//! A tableau is built from a hypergraph and a set of *sacred* nodes: rows
//! correspond to edges, columns to nodes, each column's *special symbol*
//! appears in exactly the rows whose edge contains the node, and special
//! symbols of sacred nodes are *distinguished*.  Row mappings
//! (homomorphisms) fold rows onto one another; because row mappings form a
//! finite Church–Rosser system there is a unique minimal row subset, and
//! reading the surviving partial edges off that subset yields `TR(H, X)` —
//! the *canonical connection* of `X` in `H`.
//!
//! # Module map
//!
//! | Module | Paper concept |
//! |---|---|
//! | `symbol` | distinguished / nondistinguished symbols and row ids (§3) |
//! | `tableau` | the tableau `T(H, X)` built from a hypergraph and sacred nodes (§3) |
//! | `mapping` | row mappings (containment homomorphisms) that fold rows (§3) |
//! | `minimize` | Church–Rosser minimization to the unique minimal row subset (Lemma 3.1) |
//! | `reduce` | tableau reduction `TR(H, X)` — reading canonical connections off the minimal tableau (§3) |
//! | `equivalence` | tableau containment / equivalence via homomorphisms (the chase-style check) |
//!
//! # Example
//!
//! ```
//! use hypergraph::Hypergraph;
//! use tableau::{Tableau, minimize, tableau_reduction};
//!
//! let h = Hypergraph::from_edges([
//!     vec!["A", "B", "C"],
//!     vec!["C", "D", "E"],
//!     vec!["A", "E", "F"],
//!     vec!["A", "C", "E"],
//! ]).unwrap();
//! let sacred = h.node_set(["A", "D"]).unwrap();
//!
//! let t = Tableau::new(&h, &sacred);
//! assert_eq!(minimize(&t).target.len(), 2);           // Example 3.3
//! assert_eq!(tableau_reduction(&h, &sacred).edge_count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod equivalence;
mod mapping;
mod minimize;
mod reduce;
mod symbol;
mod tableau;

pub use equivalence::{contains, equivalent};
pub use mapping::{MappingError, RowMapping};
pub use minimize::{find_mapping_onto, minimize, Minimization};
pub use reduce::tableau_reduction;
pub use symbol::{RowId, Symbol};
pub use tableau::{Row, Tableau};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::{
        find_mapping_onto, minimize, tableau_reduction, Minimization, RowId, RowMapping, Symbol,
        Tableau,
    };
}
