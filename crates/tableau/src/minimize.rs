//! Tableau minimization.
//!
//! The rows of a tableau together with its row mappings form a finite
//! Church–Rosser system (Aho, Sagiv & Ullman; cited as [1] in the paper), so
//! there is a unique (up to symbol renaming) minimal subset of rows onto
//! which the whole tableau maps.
//!
//! [`minimize`] computes that subset as a *core* computation: repeatedly
//! look for a row `r` of the current row set such that a symbol-consistent,
//! distinguished-preserving homomorphism from the current sub-tableau into
//! the current rows minus `r` exists; replace the current rows by the image
//! of that homomorphism.  A structure is minimal exactly when no such
//! homomorphism exists for any `r`, and confluence guarantees the result
//! does not depend on the folding order.  A final retraction (a row mapping
//! in the paper's sense, with the target rows fixed) from the full row set
//! onto the minimal subset is then produced by [`find_mapping_onto`].

use crate::mapping::RowMapping;
use crate::symbol::RowId;
use crate::tableau::Tableau;
use hypergraph::{NodeId, NodeSet};
use std::collections::BTreeSet;

/// Result of [`minimize`]: the minimal row subset and a witnessing row
/// mapping from the full row set onto it.
#[derive(Debug, Clone)]
pub struct Minimization {
    /// The minimal set of rows (unique up to symbol renaming).
    pub target: BTreeSet<RowId>,
    /// A row mapping from all rows onto `target`, identity on `target`.
    pub mapping: RowMapping,
}

/// Per-column state used during the backtracking search.
///
/// For every column whose special symbol is held by at least two *active*
/// rows, constraint 2 forces the images of all its holders to agree on that
/// column: either every image contains the column's node (they all show the
/// special symbol), or every holder maps to one and the same row (they all
/// show that row's unique symbol).
#[derive(Debug, Clone, PartialEq, Eq)]
enum ColumnState {
    /// No holder of this column's special symbol has been assigned yet.
    Unset,
    /// Some assigned holder maps to a row containing the column's node, so
    /// every holder must map to a row containing it.
    MustContain,
    /// Some assigned holder maps to this specific row, which does *not*
    /// contain the column's node, so every holder must map to exactly this
    /// row.
    FixedRow(RowId),
}

/// Generic backtracking solver.
///
/// `active` lists the rows of the (sub-)tableau being folded; `domains[i]`
/// lists the rows the `i`-th active row may map to.  Symbol repetition
/// (constraint 2) is evaluated *within the active rows*: a special symbol
/// held by a single active row behaves like a unique symbol.  Constraint 3
/// (preserve distinguished symbols) must already be reflected in the
/// domains.  Returns the images parallel to `active`, or `None`.
fn solve(t: &Tableau, active: &[RowId], domains: &[Vec<RowId>]) -> Option<Vec<RowId>> {
    debug_assert_eq!(active.len(), domains.len());
    if domains.iter().any(Vec::is_empty) {
        return None;
    }

    // Columns whose special symbol is held by at least two active rows.
    let shared_columns: Vec<NodeId> = t
        .columns()
        .iter()
        .filter(|&c| {
            active
                .iter()
                .filter(|&&r| t.row(r).nodes.contains(c))
                .count()
                >= 2
        })
        .collect();
    let column_index = |c: NodeId| shared_columns.iter().position(|&x| x == c);

    // Process rows in ascending domain size (most constrained first).
    let mut order: Vec<usize> = (0..active.len()).collect();
    order.sort_by_key(|&i| domains[i].len());

    let mut states: Vec<ColumnState> = vec![ColumnState::Unset; shared_columns.len()];
    let mut images: Vec<Option<RowId>> = vec![None; active.len()];

    /// Applies `r -> s`, returning the column-state changes for undo, or
    /// `None` on conflict (in which case nothing is changed).
    fn apply(
        t: &Tableau,
        states: &mut [ColumnState],
        column_index: &dyn Fn(NodeId) -> Option<usize>,
        r: RowId,
        s: RowId,
    ) -> Option<Vec<(usize, ColumnState)>> {
        let mut changed = Vec::new();
        for c in t.row(r).nodes.iter() {
            let Some(ci) = column_index(c) else { continue };
            let image_contains = t.row(s).nodes.contains(c);
            let new_state = match (&states[ci], image_contains) {
                (ColumnState::Unset, true) => Some(ColumnState::MustContain),
                (ColumnState::Unset, false) => Some(ColumnState::FixedRow(s)),
                (ColumnState::MustContain, true) => None,
                (ColumnState::MustContain, false) => {
                    undo(states, changed);
                    return None;
                }
                (ColumnState::FixedRow(f), _) => {
                    if *f == s {
                        None
                    } else {
                        undo(states, changed);
                        return None;
                    }
                }
            };
            if let Some(st) = new_state {
                changed.push((ci, states[ci].clone()));
                states[ci] = st;
            }
        }
        Some(changed)
    }

    fn undo(states: &mut [ColumnState], changed: Vec<(usize, ColumnState)>) {
        for (ci, old) in changed.into_iter().rev() {
            states[ci] = old;
        }
    }

    // The arguments are the full backtracking state; bundling them into a
    // struct would just rename the problem.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        t: &Tableau,
        active: &[RowId],
        domains: &[Vec<RowId>],
        order: &[usize],
        depth: usize,
        column_index: &dyn Fn(NodeId) -> Option<usize>,
        states: &mut Vec<ColumnState>,
        images: &mut Vec<Option<RowId>>,
    ) -> bool {
        let Some(&i) = order.get(depth) else {
            return true;
        };
        let r = active[i];
        for &s in &domains[i] {
            if let Some(changed) = apply(t, states, column_index, r, s) {
                images[i] = Some(s);
                if dfs(
                    t,
                    active,
                    domains,
                    order,
                    depth + 1,
                    column_index,
                    states,
                    images,
                ) {
                    return true;
                }
                images[i] = None;
                undo(states, changed);
            }
        }
        false
    }

    if dfs(
        t,
        active,
        domains,
        &order,
        0,
        &column_index,
        &mut states,
        &mut images,
    ) {
        Some(images.into_iter().map(|o| o.expect("assigned")).collect())
    } else {
        None
    }
}

/// The rows a row `r` may map to while preserving its distinguished symbols
/// (constraint 3): candidates whose edge contains every sacred node of `r`.
fn sacred_compatible(t: &Tableau, r: RowId, candidates: &[RowId]) -> Vec<RowId> {
    let sacred_of_r: NodeSet = t.row(r).nodes.intersection(t.sacred());
    candidates
        .iter()
        .copied()
        .filter(|&s| sacred_of_r.is_subset(&t.row(s).nodes))
        .collect()
}

/// Searches for a row mapping (in the paper's sense, with every row of
/// `target` a fixed point) from all rows of `t` onto a subset of `target`.
/// Returns `None` if no such mapping exists.
pub fn find_mapping_onto(t: &Tableau, target: &BTreeSet<RowId>) -> Option<RowMapping> {
    if target.is_empty() {
        return if t.row_count() == 0 {
            Some(RowMapping::identity(0))
        } else {
            None
        };
    }
    if target.iter().any(|r| r.index() >= t.row_count()) {
        return None;
    }
    let active: Vec<RowId> = t.row_ids().collect();
    let target_vec: Vec<RowId> = target.iter().copied().collect();
    let domains: Vec<Vec<RowId>> = active
        .iter()
        .map(|&r| {
            if target.contains(&r) {
                vec![r]
            } else {
                sacred_compatible(t, r, &target_vec)
            }
        })
        .collect();
    let images = solve(t, &active, &domains)?;
    let mapping = RowMapping::new(images);
    debug_assert!(
        mapping.is_valid(t),
        "search produced an invalid row mapping"
    );
    Some(mapping)
}

/// Searches for a homomorphism of the sub-tableau induced by `current` whose
/// image avoids `forbidden`.  Returns the image row of every row of
/// `current` (parallel to the iteration order of `current`), or `None`.
fn find_folding_avoiding(
    t: &Tableau,
    current: &BTreeSet<RowId>,
    forbidden: RowId,
) -> Option<Vec<RowId>> {
    let active: Vec<RowId> = current.iter().copied().collect();
    let candidates: Vec<RowId> = active.iter().copied().filter(|&r| r != forbidden).collect();
    if candidates.is_empty() {
        return None;
    }
    let domains: Vec<Vec<RowId>> = active
        .iter()
        .map(|&r| sacred_compatible(t, r, &candidates))
        .collect();
    solve(t, &active, &domains)
}

/// Computes the minimal row subset of `t` and a row mapping witnessing it.
///
/// By the finite Church–Rosser property of row mappings the subset is
/// independent of the folding order (up to renaming of symbols); the
/// deterministic scan used here makes the concrete subset reproducible.
pub fn minimize(t: &Tableau) -> Minimization {
    let mut current: BTreeSet<RowId> = t.row_ids().collect();
    'outer: loop {
        if current.len() <= 1 {
            break;
        }
        for &r in current.clone().iter() {
            if let Some(images) = find_folding_avoiding(t, &current, r) {
                current = images.into_iter().collect();
                continue 'outer;
            }
        }
        break;
    }
    let mapping = find_mapping_onto(t, &current)
        .expect("the full row set always maps onto the minimal target");
    // The image of the retraction may in principle be a proper subset of the
    // folded row set; take the image as the canonical target.
    let target = mapping.target();
    Minimization { target, mapping }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn example_3_3_minimal_rows_are_second_and_fourth() {
        let h = fig1();
        let t = Tableau::new(&h, &h.node_set(["A", "D"]).unwrap());
        let min = minimize(&t);
        assert_eq!(
            min.target,
            [RowId(1), RowId(3)].into_iter().collect::<BTreeSet<_>>()
        );
        assert!(min.mapping.is_valid(&t));
        assert_eq!(min.mapping.image(RowId(0)), RowId(3));
        assert_eq!(min.mapping.image(RowId(2)), RowId(3));
    }

    #[test]
    fn fully_sacred_tableau_cannot_fold() {
        let h = fig1();
        let t = Tableau::new(&h, &h.nodes());
        let min = minimize(&t);
        assert_eq!(min.target.len(), 4);
        assert_eq!(min.mapping, RowMapping::identity(t.row_count()));
    }

    #[test]
    fn no_sacred_nodes_folds_to_single_row() {
        let h = fig1();
        let t = Tableau::new(&h, &NodeSet::new());
        let min = minimize(&t);
        assert_eq!(min.target.len(), 1);
    }

    #[test]
    fn cyclic_counterexample_folds_to_one_row() {
        // Edges {A,B}, {A,C}, {B,C}, {A,D}, with only D sacred: the paper
        // notes all rows can be mapped to the {A, D} row.  This requires a
        // folding that merges three rows at once — single-row retraction
        // steps alone cannot reach it.
        let h = Hypergraph::from_edges([
            vec!["A", "B"],
            vec!["A", "C"],
            vec!["B", "C"],
            vec!["A", "D"],
        ])
        .unwrap();
        let t = Tableau::new(&h, &h.node_set(["D"]).unwrap());
        let min = minimize(&t);
        assert_eq!(min.target, [RowId(3)].into_iter().collect::<BTreeSet<_>>());
    }

    #[test]
    fn find_mapping_onto_rejects_impossible_targets() {
        let h = fig1();
        let t = Tableau::new(&h, &h.node_set(["A", "D"]).unwrap());
        // Row 1 is the only one containing sacred D; a target without it is
        // impossible.
        let target: BTreeSet<RowId> = [RowId(0), RowId(3)].into_iter().collect();
        assert!(find_mapping_onto(&t, &target).is_none());
        // The empty target is impossible for a nonempty tableau.
        assert!(find_mapping_onto(&t, &BTreeSet::new()).is_none());
        // Out-of-range targets are rejected.
        let bad: BTreeSet<RowId> = [RowId(17)].into_iter().collect();
        assert!(find_mapping_onto(&t, &bad).is_none());
    }

    #[test]
    fn find_mapping_onto_full_set_is_identity() {
        let h = fig1();
        let t = Tableau::new(&h, &h.node_set(["A"]).unwrap());
        let all: BTreeSet<RowId> = t.row_ids().collect();
        let m = find_mapping_onto(&t, &all).unwrap();
        assert_eq!(m, RowMapping::identity(t.row_count()));
    }

    #[test]
    fn chain_with_endpoints_sacred_keeps_all_rows() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap();
        let t = Tableau::new(&h, &h.node_set(["A", "D"]).unwrap());
        let min = minimize(&t);
        assert_eq!(min.target.len(), 3);
    }

    #[test]
    fn chain_with_one_endpoint_sacred_folds_to_one() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap();
        let t = Tableau::new(&h, &h.node_set(["A"]).unwrap());
        let min = minimize(&t);
        assert_eq!(min.target.len(), 1);
        assert!(min.target.contains(&RowId(0)));
    }

    #[test]
    fn triangle_with_no_sacred_nodes_folds_to_one_row() {
        // The triangle is cyclic, but with nothing distinguished any row can
        // absorb the others one at a time… actually no single row can: each
        // pair of rows shares a node held by the third.  The minimization
        // still reaches a single row because constraint 2 only binds within
        // the shrinking sub-tableau.
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["A", "C"]]).unwrap();
        let t = Tableau::new(&h, &NodeSet::new());
        let min = minimize(&t);
        assert_eq!(min.target.len(), 1);
    }

    #[test]
    fn empty_tableau_minimizes_to_nothing() {
        let h = Hypergraph::builder().build().unwrap();
        let t = Tableau::new(&h, &NodeSet::new());
        let min = minimize(&t);
        assert!(min.target.is_empty());
        assert_eq!(min.mapping, RowMapping::identity(0));
    }

    #[test]
    fn minimization_is_idempotent() {
        let h = fig1();
        for names in [vec!["A", "D"], vec!["B", "F"], vec!["A"], vec!["C", "E"]] {
            let sacred = h.node_set(names.iter().copied()).unwrap();
            let t = Tableau::new(&h, &sacred);
            let first = minimize(&t);
            // Re-minimizing the already-minimal tableau changes nothing: no
            // folding exists among the target rows.
            for &r in &first.target {
                assert!(find_folding_avoiding(&t, &first.target, r).is_none());
            }
        }
    }
}
