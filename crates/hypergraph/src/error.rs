//! Error types for the hypergraph substrate.

use std::fmt;

/// Errors produced while building or transforming hypergraphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HypergraphError {
    /// A node name was used that is not in the universe.
    UnknownNode(String),
    /// A node id outside the universe was used.
    UnknownNodeId(u32),
    /// An edge with no nodes was supplied where a nonempty edge is required.
    EmptyEdge(String),
}

impl fmt::Display for HypergraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownNode(name) => write!(f, "unknown node name {name:?}"),
            Self::UnknownNodeId(id) => write!(f, "node id n{id} is not in the universe"),
            Self::EmptyEdge(label) => write!(f, "edge {label:?} has no nodes"),
        }
    }
}

impl std::error::Error for HypergraphError {}

/// Convenience alias used throughout the hypergraph crate.
pub type Result<T> = std::result::Result<T, HypergraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            HypergraphError::UnknownNode("X".into()).to_string(),
            "unknown node name \"X\""
        );
        assert!(HypergraphError::UnknownNodeId(7).to_string().contains("n7"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<HypergraphError>();
    }
}
