//! Tableau symbols.
//!
//! In the paper's tableaux (§3) each column (node) has one *special symbol*
//! that appears in exactly the rows whose edge contains the node.  Every
//! other entry is a symbol appearing nowhere else (rendered as a blank).
//! Special symbols of *sacred* nodes also appear in the summary and are
//! called *distinguished*.

use hypergraph::NodeId;
use std::fmt;

/// Identifier of a tableau row (one row per hyperedge, in edge order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u32);

impl RowId {
    /// Index of the row.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A symbol occupying one tableau cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Symbol {
    /// The special symbol of a column; written `a, b, c, …` in the paper.
    /// It appears in every row whose edge contains the column's node.
    Special(NodeId),
    /// A symbol unique to one cell (row, column); rendered as a blank.
    Unique(RowId, NodeId),
}

impl Symbol {}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Symbol::Special(n) => write!(f, "s[{n}]"),
            Symbol::Unique(r, n) => write!(f, "u[{r},{n}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_and_kind() {
        let s = Symbol::Special(NodeId(2));
        let u = Symbol::Unique(RowId(1), NodeId(2));
        assert!(matches!(s, Symbol::Special(n) if n == NodeId(2)));
        assert!(matches!(u, Symbol::Unique(_, n) if n == NodeId(2)));
        assert_ne!(s, u);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Symbol::Special(NodeId(0))), "s[n0]");
        assert_eq!(
            format!("{}", Symbol::Unique(RowId(3), NodeId(1))),
            "u[r3,n1]"
        );
        assert_eq!(format!("{}", RowId(3)), "r3");
        assert_eq!(RowId(3).index(), 3);
    }
}
