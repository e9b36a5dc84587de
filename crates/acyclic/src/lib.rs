//! Core algorithms of "Connections in Acyclic Hypergraphs"
//! (Maier & Ullman).
//!
//! This crate implements the paper's contribution on top of the
//! [`hypergraph`] and [`tableau`] substrates:
//!
//! * **Graham reduction with sacred nodes** `GR(H, X)` (§2): one
//!   pass-based fixed point, plus a traced form with alternative rule
//!   orders and an empirical Church–Rosser checker (Lemma 2.1);
//! * **acyclicity tests**: GYO reduction, the definition-based baseline,
//!   and a maximum-cardinality-search (chordality + conformality) test;
//! * **join trees** via ear decomposition, with running-intersection
//!   verification — the structure acyclic query processing consumes;
//! * **canonical connections** `CC_H(X) = TR(H, X)` (§5), computable by
//!   tableau reduction or — on acyclic hypergraphs, by Theorem 3.5 — by
//!   Graham reduction;
//! * **connecting / independent trees and paths** (§5) and the constructive
//!   **Theorem 6.1** machinery (§6): classify any hypergraph as acyclic
//!   (with a join tree certificate) or cyclic (with a verified independent
//!   path certificate);
//! * the **acyclicity-degree hierarchy** (Berge / β / α) as an extension.
//!
//! # Module map
//!
//! | Module | Paper concept |
//! |---|---|
//! | `graham` | Graham reduction with sacred nodes `GR(H, X)` (`graham_reduction`, the one fixed point every caller uses) and GYO reduction; `graham_reduce` is the same reduction one rule at a time, with its step trace (§2) |
//! | `confluence` | empirical Church–Rosser check for Graham reduction rule orders (Lemma 2.1) |
//! | `acyclicity` | acyclicity tests: GYO-reduces-to-empty, plus the definition-based baseline (§2) |
//! | `mcs` | maximum-cardinality-search test: chordality + conformality of the primal graph (the classical equivalent) |
//! | `jointree` | join trees by ear decomposition, running-intersection verification, depth levels — what the `reldb` Yannakakis engine consumes (§4) |
//! | `connection` | canonical connections `CC_H(X) = TR(H, X)`, computable by Graham reduction on acyclic inputs (§5, Theorem 3.5) |
//! | `independent` | connecting/independent trees and paths — the cyclicity certificates (§5) |
//! | `theorem` | the constructive Theorem 6.1 dichotomy: join tree xor verified independent path (§6) |
//! | `hierarchy` | Berge / β / α acyclicity degrees (extension beyond the paper) |
//!
//! # Example
//!
//! ```
//! use hypergraph::Hypergraph;
//! use acyclic::{AcyclicityExt, canonical_connection, classify, Classification};
//!
//! let h = Hypergraph::from_edges([
//!     vec!["A", "B", "C"],
//!     vec!["C", "D", "E"],
//!     vec!["A", "E", "F"],
//!     vec!["A", "C", "E"],
//! ]).unwrap();
//!
//! assert!(h.is_acyclic());
//! let x = h.node_set(["A", "D"]).unwrap();
//! assert_eq!(canonical_connection(&h, &x).edge_count(), 2);
//! assert!(matches!(classify(&h), Classification::Acyclic { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acyclicity;
mod confluence;
mod connection;
mod graham;
mod hierarchy;
mod independent;
mod jointree;
mod mcs;
mod theorem;

pub use acyclicity::{is_acyclic, AcyclicityExt};
pub use confluence::is_confluent;
pub use connection::{canonical_connection, graham_equals_tableau};
pub use graham::{
    graham_reduce, graham_reduction, gyo_reduction, GrahamReduction, GrahamStep, Strategy,
};
pub use hierarchy::{degree, is_berge_acyclic, is_beta_acyclic, Degree, BETA_EDGE_LIMIT};
pub use independent::{find_independent_path, ConnectingPath, ConnectingTree, ConnectionViolation};
pub use jointree::{join_tree, join_tree_with_separators, JoinTree};
pub use mcs::is_acyclic_mcs;
pub use theorem::{check_theorem_6_1, classify, Classification, TheoremReport};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::{
        canonical_connection, check_theorem_6_1, classify, find_independent_path, graham_reduction,
        gyo_reduction, is_acyclic, is_acyclic_mcs, join_tree, AcyclicityExt, Classification,
        ConnectingPath, ConnectingTree, JoinTree,
    };
}
