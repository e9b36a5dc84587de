//! Row mappings (tableau homomorphisms).
//!
//! A *row mapping* `h` sends every row of a tableau to a row of a target
//! subset, subject to (paper §3):
//!
//! 1. rows of the target subset map to themselves,
//! 2. if a symbol appears in two or more rows, their images agree on that
//!    symbol's column, and
//! 3. a row holding a distinguished symbol maps to a row holding the same
//!    distinguished symbol.

use crate::symbol::RowId;
use crate::tableau::Tableau;
use std::collections::BTreeSet;
use std::fmt;

/// Why a candidate row mapping is not valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// The mapping has the wrong number of entries for the tableau.
    WrongArity {
        /// Entries supplied.
        got: usize,
        /// Rows in the tableau.
        expected: usize,
    },
    /// Some image is not a row of the tableau.
    ImageOutOfRange(RowId),
    /// A row in the target subset does not map to itself
    /// (violates constraint 1).
    TargetNotFixed(RowId),
    /// Two rows sharing a special symbol have images that disagree on its
    /// column (violates constraint 2).
    ColumnDisagreement {
        /// The column whose special symbol is shared.
        column: hypergraph::NodeId,
        /// The two offending rows.
        rows: (RowId, RowId),
    },
    /// A distinguished symbol would be mapped to a different symbol
    /// (violates constraint 3).
    DistinguishedLost {
        /// The sacred column.
        column: hypergraph::NodeId,
        /// The row whose image drops the distinguished symbol.
        row: RowId,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WrongArity { got, expected } => {
                write!(f, "mapping has {got} entries but the tableau has {expected} rows")
            }
            Self::ImageOutOfRange(r) => write!(f, "image {r} is not a row of the tableau"),
            Self::TargetNotFixed(r) => write!(f, "target row {r} does not map to itself"),
            Self::ColumnDisagreement { column, rows } => write!(
                f,
                "rows {} and {} share the special symbol of column {column} but their images disagree there",
                rows.0, rows.1
            ),
            Self::DistinguishedLost { column, row } => write!(
                f,
                "row {row} holds the distinguished symbol of column {column} but its image does not"
            ),
        }
    }
}

impl std::error::Error for MappingError {}

/// A total mapping from tableau rows to tableau rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMapping {
    images: Vec<RowId>,
}

impl RowMapping {
    /// Creates a mapping from the vector of images (`images[i]` is the image
    /// of row `i`).
    pub(crate) fn new(images: Vec<RowId>) -> Self {
        Self { images }
    }

    /// The identity mapping on `n` rows.
    pub fn identity(n: usize) -> Self {
        Self {
            images: (0..n as u32).map(RowId).collect(),
        }
    }

    /// The image of row `r`.
    pub fn image(&self, r: RowId) -> RowId {
        self.images[r.index()]
    }

    /// The image set (target subset) of the mapping.
    pub fn target(&self) -> BTreeSet<RowId> {
        self.images.iter().copied().collect()
    }

    /// Composition `other ∘ self` (apply `self` first).  Both mappings must
    /// be over the same row set.
    pub fn then(&self, other: &RowMapping) -> RowMapping {
        RowMapping {
            images: self.images.iter().map(|&r| other.image(r)).collect(),
        }
    }

    /// Checks the mapping against tableau `t`, returning the first violated
    /// constraint if any.
    pub(crate) fn validate(&self, t: &Tableau) -> Result<(), MappingError> {
        if self.images.len() != t.row_count() {
            return Err(MappingError::WrongArity {
                got: self.images.len(),
                expected: t.row_count(),
            });
        }
        for &img in &self.images {
            if img.index() >= t.row_count() {
                return Err(MappingError::ImageOutOfRange(img));
            }
        }
        // Constraint 1: rows of the target subset are fixed points.
        let target = self.target();
        for &r in &target {
            if self.image(r) != r {
                return Err(MappingError::TargetNotFixed(r));
            }
        }
        // Constraint 3: distinguished symbols are preserved.
        for r in t.row_ids() {
            for col in t.sacred().iter() {
                if t.is_distinguished(r, col) && !t.row(self.image(r)).nodes.contains(col) {
                    return Err(MappingError::DistinguishedLost {
                        column: col,
                        row: r,
                    });
                }
            }
        }
        // Constraint 2: rows sharing a special symbol agree after mapping.
        for col in t.columns().iter() {
            let holders = t.rows_with_special(col);
            if holders.len() < 2 {
                continue;
            }
            let first = holders[0];
            let ref_sym = t.symbol_at(self.image(first), col);
            for &r in &holders[1..] {
                if t.symbol_at(self.image(r), col) != ref_sym {
                    return Err(MappingError::ColumnDisagreement {
                        column: col,
                        rows: (first, r),
                    });
                }
            }
        }
        Ok(())
    }

    /// True if the mapping satisfies all three row-mapping constraints for
    /// tableau `t`.
    pub fn is_valid(&self, t: &Tableau) -> bool {
        self.validate(t).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;
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

    fn fig2() -> Tableau {
        let h = fig1();
        let sacred = h.node_set(["A", "D"]).unwrap();
        Tableau::new(&h, &sacred)
    }

    fn m(images: &[u32]) -> RowMapping {
        RowMapping::new(images.iter().map(|&i| RowId(i)).collect())
    }

    #[test]
    fn identity_is_always_valid() {
        let t = fig2();
        let id = RowMapping::identity(t.row_count());
        assert_eq!(id, m(&[0, 1, 2, 3]));
        assert!(id.is_valid(&t));
        assert_eq!(id.target().len(), 4);
    }

    #[test]
    fn paper_example_3_3_mapping_is_valid() {
        // h sends rows 1, 3, 4 to 4 and row 2 to 2 (1-indexed in the paper),
        // i.e. rows 0, 2, 3 -> 3 and 1 -> 1 here.
        let t = fig2();
        let h = m(&[3, 1, 3, 3]);
        assert!(h.is_valid(&t));
        assert_eq!(h.target(), [RowId(1), RowId(3)].into_iter().collect());
    }

    #[test]
    fn mapping_that_drops_distinguished_symbol_is_invalid() {
        // Row 1 is {C, D, E}, the only edge containing the sacred node D.
        // Mapping it anywhere else loses the distinguished d.
        let t = fig2();
        let h = m(&[3, 3, 3, 3]);
        assert_eq!(
            h.validate(&t),
            Err(MappingError::DistinguishedLost {
                column: fig1().node("D").unwrap(),
                row: RowId(1)
            })
        );
    }

    #[test]
    fn mapping_with_column_disagreement_is_invalid() {
        // Map row 0 ({A,B,C}) to row 1 ({C,D,E}) and keep the rest: rows 0,
        // 2, 3 all hold the special symbol a of column A, but row 1 does
        // not, so the images disagree on column A.
        let t = fig2();
        let h = m(&[1, 1, 2, 3]);
        assert!(matches!(
            h.validate(&t),
            Err(MappingError::ColumnDisagreement { .. })
                | Err(MappingError::DistinguishedLost { .. })
        ));
        assert!(!h.is_valid(&t));
    }

    #[test]
    fn non_idempotent_mapping_is_invalid() {
        // Row 3 maps to row 2 while row 2 maps to row 3: the target contains
        // both, but neither is fixed.
        let t = fig2();
        let h = m(&[0, 1, 3, 2]);
        assert!(matches!(
            h.validate(&t),
            Err(MappingError::TargetNotFixed(_))
        ));
    }

    #[test]
    fn arity_and_range_errors() {
        let t = fig2();
        assert!(matches!(
            m(&[0, 1]).validate(&t),
            Err(MappingError::WrongArity {
                got: 2,
                expected: 4
            })
        ));
        assert!(matches!(
            m(&[0, 1, 2, 9]).validate(&t),
            Err(MappingError::ImageOutOfRange(_))
        ));
    }

    #[test]
    fn composition_and_symbol_image() {
        let t = fig2();
        let h = fig1();
        let first = m(&[0, 1, 3, 3]); // fold row 2 into 3
        let second = m(&[3, 1, 3, 3]); // then fold row 0 into 3
        let composed = first.then(&second);
        assert_eq!(composed, m(&[3, 1, 3, 3]));
        assert!(composed.is_valid(&t));

        // Under the composed mapping the special symbol b of column B (held
        // only by row 0) maps to the unique symbol of row 3 in column B.
        let b = h.node("B").unwrap();
        assert_eq!(t.rows_with_special(b), [RowId(0)]);
        assert_eq!(
            t.symbol_at(composed.image(RowId(0)), b),
            Symbol::Unique(RowId(3), b)
        );
        // The distinguished a stays special.
        let a = h.node("A").unwrap();
        for r in t.rows_with_special(a) {
            assert_eq!(t.symbol_at(composed.image(r), a), Symbol::Special(a));
        }
    }

    #[test]
    fn error_display_is_informative() {
        let t = fig2();
        let err = m(&[3, 3, 3, 3]).validate(&t).unwrap_err();
        assert!(err.to_string().contains("distinguished"));
    }
}
