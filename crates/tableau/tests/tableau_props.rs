//! Property-based tests for tableaux, row mappings, minimization and
//! tableau reduction.

use hypergraph::{Hypergraph, NodeSet};
use proptest::prelude::*;
use tableau::{
    contains, equivalent, find_mapping_onto, minimize, tableau_reduction, RowMapping, Tableau,
};

/// A small random hypergraph over named nodes n0..n9.
fn small_hypergraph() -> impl Strategy<Value = Hypergraph> {
    proptest::collection::vec(proptest::collection::btree_set(0u32..10, 1..4), 1..7).prop_map(
        |edges| {
            Hypergraph::from_edges(
                edges
                    .iter()
                    .map(|e| e.iter().map(|i| format!("n{i}")).collect::<Vec<_>>()),
            )
            .expect("nonempty edges")
        },
    )
}

fn sacred_from(h: &Hypergraph, selector: u64) -> NodeSet {
    h.nodes()
        .iter()
        .enumerate()
        .filter(|(i, _)| selector & (1 << (i % 60)) != 0)
        .map(|(_, n)| n)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tableau's symbol layout mirrors edge membership exactly.
    #[test]
    fn symbols_follow_membership(h in small_hypergraph(), selector in any::<u64>()) {
        let sacred = sacred_from(&h, selector);
        let t = Tableau::new(&h, &sacred);
        prop_assert_eq!(t.row_count(), h.edge_count());
        for (i, e) in h.edges().iter().enumerate() {
            for col in t.columns().iter() {
                let sym = t.symbol_at(tableau::RowId(i as u32), col);
                prop_assert_eq!(matches!(sym, tableau::Symbol::Special(_)), e.nodes.contains(col));
            }
        }
        // Distinguished cells are exactly sacred ∩ membership.
        for col in t.columns().iter() {
            let holders = t.rows_with_special(col);
            prop_assert_eq!(holders.len(), h.degree(col));
        }
    }

    /// The minimization produces a valid row mapping whose target is a
    /// fixed point of further minimization.
    #[test]
    fn minimization_is_sound_and_stable(h in small_hypergraph(), selector in any::<u64>()) {
        let sacred = sacred_from(&h, selector);
        let t = Tableau::new(&h, &sacred);
        let min = minimize(&t);
        prop_assert!(min.mapping.is_valid(&t));
        prop_assert_eq!(min.mapping.target(), min.target.clone());
        // Every target row maps to itself.
        for &r in &min.target {
            prop_assert_eq!(min.mapping.image(r), r);
        }
        // A retraction onto the target exists (and is the one returned).
        prop_assert!(find_mapping_onto(&t, &min.target).is_some());
        // Every row holding a distinguished symbol maps to a row holding it.
        for r in t.row_ids() {
            for col in sacred.iter() {
                if t.row(r).nodes.contains(col) {
                    prop_assert!(t.row(min.mapping.image(r)).nodes.contains(col));
                }
            }
        }
    }

    /// The identity is always a valid row mapping, and composing the
    /// minimizing mapping with itself is idempotent.
    #[test]
    fn identity_and_idempotence(h in small_hypergraph(), selector in any::<u64>()) {
        let sacred = sacred_from(&h, selector);
        let t = Tableau::new(&h, &sacred);
        let id = RowMapping::identity(t.row_count());
        prop_assert!(id.is_valid(&t));
        let min = minimize(&t);
        let twice = min.mapping.then(&min.mapping);
        prop_assert_eq!(twice, min.mapping.clone());
    }

    /// Tableau reduction output: node-generated, covered by the hypergraph,
    /// contains the sacred nodes, and is stable under re-reduction.
    #[test]
    fn reduction_output_invariants(h in small_hypergraph(), selector in any::<u64>()) {
        let sacred = sacred_from(&h, selector).intersection(&h.nodes());
        let tr = tableau_reduction(&h, &sacred);
        prop_assert!(h.is_node_generated_subhypergraph(&tr));
        prop_assert!(sacred.is_subset(&tr.nodes()));
        for e in tr.edges() {
            prop_assert!(h.covers(&e.nodes));
        }
    }

    /// Lemma 3.8 (monotonicity): removing a sacred node can only shrink the
    /// node set of the reduction.
    #[test]
    fn reduction_monotone_in_sacred_set(h in small_hypergraph(), selector in any::<u64>()) {
        let sacred = sacred_from(&h, selector).intersection(&h.nodes());
        prop_assume!(!sacred.is_empty());
        let full = tableau_reduction(&h, &sacred);
        let dropped = sacred.first().expect("nonempty");
        let mut smaller = sacred.clone();
        smaller.remove(dropped);
        let reduced = tableau_reduction(&h, &smaller);
        prop_assert!(reduced.nodes().is_subset(&full.nodes()));
    }

    /// The original tableau and the tableau of its reduction are equivalent
    /// as queries (each contains the other).
    #[test]
    fn reduction_preserves_equivalence(h in small_hypergraph(), selector in any::<u64>()) {
        let sacred = sacred_from(&h, selector).intersection(&h.nodes());
        let original = Tableau::new(&h, &sacred);
        let tr = tableau_reduction(&h, &sacred);
        prop_assume!(!tr.is_empty());
        let reduced = Tableau::new(&tr, &sacred);
        prop_assert!(equivalent(&original, &reduced));
        // Containment is reflexive.
        prop_assert!(contains(&original, &original));
    }

    /// Lemma 3.9 consequence: nodes absent from the reduction's node set
    /// never appear in any partial edge, and every kept node is sacred or
    /// shared by two target edges.
    #[test]
    fn kept_nodes_are_justified(h in small_hypergraph(), selector in any::<u64>()) {
        let sacred = sacred_from(&h, selector).intersection(&h.nodes());
        let tr = tableau_reduction(&h, &sacred);
        for n in tr.nodes().iter() {
            let occurrences = tr.edges().iter().filter(|e| e.nodes.contains(n)).count();
            prop_assert!(sacred.contains(n) || occurrences >= 2,
                "node {n:?} kept without justification");
        }
    }
}
