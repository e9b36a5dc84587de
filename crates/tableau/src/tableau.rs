//! The tableau of a hypergraph with a set of sacred nodes.

use crate::symbol::{RowId, Symbol};
use hypergraph::{Hypergraph, NodeId, NodeSet, Universe};
use std::fmt;
use std::sync::Arc;

/// One tableau row: the edge it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Label of the originating hyperedge.
    pub label: String,
    /// Nodes of the originating hyperedge (the columns holding the row's
    /// special symbols).
    pub nodes: NodeSet,
}

/// A tableau in the paper's restricted sense (§3): columns are the nodes of
/// a hypergraph, rows correspond to its edges, the summary holds the
/// distinguished symbols of the *sacred* nodes, the special symbol of a
/// column appears exactly in the rows whose edge contains that node, and
/// every other cell holds a symbol unique to that cell.
///
/// Because the symbol pattern is fully determined by the hypergraph and the
/// sacred set, the tableau is stored intensionally — cells are computed by
/// [`Tableau::symbol_at`] rather than materialized.
#[derive(Debug, Clone)]
pub struct Tableau {
    universe: Arc<Universe>,
    columns: NodeSet,
    rows: Vec<Row>,
    sacred: NodeSet,
}

impl Tableau {
    /// Builds the tableau of `h` with the nodes of `sacred` distinguished
    /// (step (1) of the paper's `TR(H, X)` construction).
    ///
    /// Sacred nodes that do not occur in `h` are ignored, matching the
    /// paper's usage where `X` is always a subset of the nodes.
    pub fn new(h: &Hypergraph, sacred: &NodeSet) -> Self {
        let columns = h.nodes();
        Self {
            universe: Arc::clone(h.universe()),
            columns: columns.clone(),
            rows: h
                .edges()
                .iter()
                .map(|e| Row {
                    label: e.label.clone(),
                    nodes: e.nodes.clone(),
                })
                .collect(),
            sacred: sacred.intersection(&columns),
        }
    }

    /// The columns (nodes) of the tableau.
    pub fn columns(&self) -> &NodeSet {
        &self.columns
    }

    /// The sacred (distinguished) nodes.
    pub(crate) fn sacred(&self) -> &NodeSet {
        &self.sacred
    }

    /// All rows in edge order.
    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// All row ids.
    pub fn row_ids(&self) -> impl Iterator<Item = RowId> + '_ {
        (0..self.rows.len() as u32).map(RowId)
    }

    /// The row with id `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn row(&self, r: RowId) -> &Row {
        &self.rows[r.index()]
    }

    /// The symbol in row `r`, column `col`.
    pub fn symbol_at(&self, r: RowId, col: NodeId) -> Symbol {
        if self.rows[r.index()].nodes.contains(col) {
            Symbol::Special(col)
        } else {
            Symbol::Unique(r, col)
        }
    }

    /// True if the symbol in row `r`, column `col` is distinguished
    /// (special *and* its node is sacred).
    pub fn is_distinguished(&self, r: RowId, col: NodeId) -> bool {
        self.sacred.contains(col) && self.rows[r.index()].nodes.contains(col)
    }

    /// The summary row: for each column, the distinguished symbol if the
    /// node is sacred, otherwise `None`.
    pub fn summary(&self) -> Vec<(NodeId, Option<Symbol>)> {
        self.columns
            .iter()
            .map(|c| (c, self.sacred.contains(c).then_some(Symbol::Special(c))))
            .collect()
    }

    /// The ids of rows whose edge contains node `n` (the rows in which the
    /// special symbol of column `n` appears).
    pub fn rows_with_special(&self, n: NodeId) -> Vec<RowId> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| row.nodes.contains(n))
            .map(|(i, _)| RowId(i as u32))
            .collect()
    }

    /// Renders the tableau like the paper's Fig. 2: one column per node, the
    /// summary between rules, special symbols shown as the lowercase node
    /// name, unique symbols as blanks, distinguished entries marked.
    pub(crate) fn render(&self) -> String {
        let cols: Vec<NodeId> = self.columns.iter().collect();
        let width = 4usize;
        let mut out = String::new();
        out.push_str(&format!("{:8}", ""));
        for &c in &cols {
            out.push_str(&format!("{:>width$}", self.universe.name(c)));
        }
        out.push('\n');
        out.push_str(&"-".repeat(8 + width * cols.len()));
        out.push('\n');
        out.push_str(&format!("{:8}", "summary"));
        for &c in &cols {
            if self.sacred.contains(c) {
                out.push_str(&format!("{:>width$}", self.universe.name(c).to_lowercase()));
            } else {
                out.push_str(&format!("{:>width$}", ""));
            }
        }
        out.push('\n');
        out.push_str(&"-".repeat(8 + width * cols.len()));
        out.push('\n');
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&format!("{:8}", row.label));
            for &c in &cols {
                match self.symbol_at(RowId(i as u32), c) {
                    Symbol::Special(n) => {
                        out.push_str(&format!("{:>width$}", self.universe.name(n).to_lowercase()))
                    }
                    Symbol::Unique(..) => out.push_str(&format!("{:>width$}", ".")),
                }
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Tableau {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> Hypergraph {
        Hypergraph::from_edges([
            vec!["A", "B", "C"],
            vec!["C", "D", "E"],
            vec!["A", "E", "F"],
            vec!["A", "C", "E"],
        ])
        .unwrap()
    }

    fn fig2() -> Tableau {
        let h = fig1();
        let sacred = h.node_set(["A", "D"]).unwrap();
        Tableau::new(&h, &sacred)
    }

    #[test]
    fn construction_matches_fig2() {
        let t = fig2();
        assert_eq!(t.row_count(), 4);
        assert_eq!(t.columns().len(), 6);
        assert_eq!(t.sacred().len(), 2);
    }

    #[test]
    fn special_symbols_follow_membership() {
        let t = fig2();
        let h = fig1();
        let a = h.node("A").unwrap();
        let d = h.node("D").unwrap();
        // Row 0 is {A, B, C}: special in A, unique in D.
        assert_eq!(t.symbol_at(RowId(0), a), Symbol::Special(a));
        assert_eq!(t.symbol_at(RowId(0), d), Symbol::Unique(RowId(0), d));
        // Row 1 is {C, D, E}: special (and distinguished) in D.
        assert_eq!(t.symbol_at(RowId(1), d), Symbol::Special(d));
        assert!(t.is_distinguished(RowId(1), d));
        assert!(t.is_distinguished(RowId(0), a));
        // C is special in row 0 but not distinguished (C is not sacred).
        let c = h.node("C").unwrap();
        assert!(!t.is_distinguished(RowId(0), c));
    }

    #[test]
    fn rows_with_special_counts() {
        let t = fig2();
        let h = fig1();
        assert_eq!(t.rows_with_special(h.node("A").unwrap()).len(), 3);
        assert_eq!(t.rows_with_special(h.node("D").unwrap()).len(), 1);
        assert_eq!(t.rows_with_special(h.node("C").unwrap()).len(), 3);
        assert_eq!(t.rows_with_special(h.node("E").unwrap()).len(), 3);
        assert_eq!(t.rows_with_special(h.node("B").unwrap()), vec![RowId(0)]);
    }

    #[test]
    fn summary_has_distinguished_symbols_only_for_sacred() {
        let t = fig2();
        let h = fig1();
        let a = h.node("A").unwrap();
        let b = h.node("B").unwrap();
        let summary = t.summary();
        let entry = |n| summary.iter().find(|(c, _)| *c == n).unwrap().1;
        assert_eq!(entry(a), Some(Symbol::Special(a)));
        assert_eq!(entry(b), None);
    }

    #[test]
    fn sacred_nodes_outside_hypergraph_are_dropped() {
        let h = Hypergraph::from_edges([vec!["A", "B"]]).unwrap();
        let mut sacred = h.node_set(["A"]).unwrap();
        sacred.insert(hypergraph::NodeId(40)); // not a node of h
        let t = Tableau::new(&h, &sacred);
        assert_eq!(t.sacred().len(), 1);
    }

    #[test]
    fn render_contains_summary_and_rows() {
        let t = fig2();
        let s = t.render();
        assert!(s.contains("summary"));
        assert!(s.contains("A-B-C"));
        assert!(s.lines().count() >= 8);
    }
}
