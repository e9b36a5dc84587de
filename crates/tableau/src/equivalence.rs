//! Tableau containment and equivalence.
//!
//! Tableaux are queries: applied to a universal-relation instance they
//! return the valuations of their distinguished (summary) symbols for which
//! every row can be mapped to a tuple of the instance.  Following Aho, Sagiv
//! & Ullman (the paper's reference [1]), tableau `T1` *contains* `T2`
//! (returns a superset of answers on every instance) iff there is a
//! homomorphism from `T1`'s rows to `T2`'s rows that preserves distinguished
//! symbols and is consistent on repeated symbols.  Two tableaux are
//! *equivalent* iff each contains the other.
//!
//! In this crate tableaux always arise from a hypergraph plus a sacred set,
//! so containment and equivalence let us compare *schemas*: e.g. the reduced
//! tableau of `TR(H, X)` is always equivalent to the original tableau of
//! `(H, X)` — which is the semantic justification for answering queries over
//! the canonical connection only.

use crate::symbol::RowId;
use crate::tableau::Tableau;
use hypergraph::NodeId;

/// A homomorphism between the rows of two tableaux over the same universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TableauHomomorphism {
    /// `images[i]` is the row of the target tableau that row `i` of the
    /// source tableau maps to.
    pub images: Vec<RowId>,
}

/// Checks whether the candidate assignment of source rows to target rows is
/// a valid homomorphism: distinguished symbols are preserved and rows
/// sharing a special symbol (in the source) get images agreeing on that
/// column (in the target).
fn is_valid_assignment(source: &Tableau, target: &Tableau, images: &[RowId]) -> bool {
    // Distinguished preservation: a source row containing a sacred node must
    // map to a target row containing that node, and the node must be sacred
    // in the target too (otherwise the distinguished symbol is lost).
    for (i, row) in source.rows().iter().enumerate() {
        for n in row.nodes.intersection(source.sacred()).iter() {
            if !target.sacred().contains(n) || !target.row(images[i]).nodes.contains(n) {
                return false;
            }
        }
    }
    // Symbol consistency per shared column of the source.
    for col in source.columns().iter() {
        let holders = source.rows_with_special(col);
        if holders.len() < 2 {
            continue;
        }
        let reference = target.symbol_at(images[holders[0].index()], col);
        if holders[1..]
            .iter()
            .any(|r| target.symbol_at(images[r.index()], col) != reference)
        {
            return false;
        }
    }
    true
}

/// Searches for a homomorphism from `source` to `target` (both over the same
/// universe).  Returns `None` when no homomorphism exists.
pub(crate) fn find_homomorphism(source: &Tableau, target: &Tableau) -> Option<TableauHomomorphism> {
    if source.row_count() == 0 {
        return Some(TableauHomomorphism { images: Vec::new() });
    }
    if target.row_count() == 0 {
        return None;
    }
    // Domains restricted by distinguished-symbol preservation.
    let domains: Vec<Vec<RowId>> = source
        .rows()
        .iter()
        .map(|row| {
            let sacred: Vec<NodeId> = row.nodes.intersection(source.sacred()).iter().collect();
            target
                .row_ids()
                .filter(|&t| {
                    sacred
                        .iter()
                        .all(|&n| target.sacred().contains(n) && target.row(t).nodes.contains(n))
                })
                .collect()
        })
        .collect();
    if domains.iter().any(Vec::is_empty) {
        return None;
    }

    let n = source.row_count();
    let mut images: Vec<RowId> = vec![RowId(0); n];
    fn dfs(
        source: &Tableau,
        target: &Tableau,
        domains: &[Vec<RowId>],
        depth: usize,
        images: &mut Vec<RowId>,
    ) -> bool {
        if depth == domains.len() {
            return is_valid_assignment(source, target, images);
        }
        for &candidate in &domains[depth] {
            images[depth] = candidate;
            // Prune early: check consistency of the prefix by validating the
            // full assignment only at the leaves (tableaux here are small);
            // a cheap partial check on sacred nodes is already encoded in
            // the domains.
            if dfs(source, target, domains, depth + 1, images) {
                return true;
            }
        }
        false
    }
    if dfs(source, target, &domains, 0, &mut images) {
        Some(TableauHomomorphism { images })
    } else {
        None
    }
}

/// True if `general` contains `specific`: on every instance, `general`
/// returns at least the answers of `specific`.  Witnessed by a homomorphism
/// from `general` to `specific`.
pub fn contains(general: &Tableau, specific: &Tableau) -> bool {
    find_homomorphism(general, specific).is_some()
}

/// True if the two tableaux are equivalent (each contains the other).
pub fn equivalent(a: &Tableau, b: &Tableau) -> bool {
    contains(a, b) && contains(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::tableau_reduction;
    use hypergraph::Hypergraph;

    fn fig1() -> Hypergraph {
        Hypergraph::from_edges([
            vec!["A", "B", "C"],
            vec!["C", "D", "E"],
            vec!["A", "E", "F"],
            vec!["A", "C", "E"],
        ])
        .unwrap()
    }

    #[test]
    fn every_tableau_is_equivalent_to_itself() {
        let h = fig1();
        for names in [vec!["A", "D"], vec![], vec!["B", "F"]] {
            let x = h.node_set(names.iter().copied()).unwrap();
            let t = Tableau::new(&h, &x);
            assert!(equivalent(&t, &t));
        }
    }

    #[test]
    fn reduced_tableau_is_equivalent_to_the_original() {
        // TR(H, X) viewed as a hypergraph over the same universe, with the
        // same sacred set, yields a tableau equivalent to the original one —
        // the semantic content of tableau minimization.
        let h = fig1();
        let x = h.node_set(["A", "D"]).unwrap();
        let original = Tableau::new(&h, &x);
        let reduced_h = tableau_reduction(&h, &x);
        let reduced = Tableau::new(&reduced_h, &x);
        assert!(equivalent(&original, &reduced));
    }

    #[test]
    fn dropping_a_constraining_edge_breaks_equivalence() {
        // The chain A-B, B-C, C-D with A and D sacred is NOT equivalent to
        // just its two end edges: the middle edge genuinely constrains how A
        // and D connect.
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap();
        let ends = Hypergraph::builder()
            .node("A")
            .node("B")
            .node("C")
            .node("D")
            .edge("AB", ["A", "B"])
            .edge("CD", ["C", "D"])
            .build()
            .unwrap();
        let x = h.node_set(["A", "D"]).unwrap();
        let full = Tableau::new(&h, &x);
        let partial = Tableau::new(&ends, &x);
        // The two-edge tableau contains the three-edge one (fewer
        // constraints) but not vice versa.
        assert!(contains(&partial, &full));
        assert!(!contains(&full, &partial));
        assert!(!equivalent(&full, &partial));
    }

    #[test]
    fn containment_respects_distinguished_symbols() {
        // A tableau whose sacred set is larger cannot be mapped into one
        // that lacks the extra distinguished symbol.
        let h = fig1();
        let big = Tableau::new(&h, &h.node_set(["A", "D"]).unwrap());
        let small = Tableau::new(&h, &h.node_set(["A"]).unwrap());
        assert!(!contains(&big, &small));
        // The identity mapping witnesses the other direction.
        assert!(contains(&small, &big));
    }

    #[test]
    fn empty_tableau_edge_cases() {
        let h = Hypergraph::builder().build().unwrap();
        let empty = Tableau::new(&h, &hypergraph::NodeSet::new());
        let fig = Tableau::new(&fig1(), &hypergraph::NodeSet::new());
        assert!(contains(&empty, &fig));
        assert!(!contains(&fig, &empty));
        assert!(equivalent(&empty, &empty));
    }
}
