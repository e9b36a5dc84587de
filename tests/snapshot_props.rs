//! Snapshot format property suite.
//!
//! Two guarantees under test.  First, round-tripping any
//! workload-generated database through the binary snapshot format —
//! including databases whose relations live in separate value pools —
//! preserves contents and pool-sharing structure exactly.  Second, the
//! decoder is total: arbitrary corruption (bit flips, truncation, garbage
//! appended, a repeated or swapped row), in memory or in a file, yields a
//! structured [`EngineError`], never a panic, and never a half-built
//! database.

use acyclic_hypergraphs::reldb::{Database, EngineError, Relation};
use acyclic_hypergraphs::workload::{
    chain, random_database, snowflake, snowflake_tree, star, DataParams,
};
use proptest::prelude::*;

/// One of the acyclic benchmark schema families, scaled by `shape`.
fn db_for(
    family: usize,
    shape: usize,
    tuples: usize,
    domain: i64,
    skew: f64,
    seed: u64,
) -> Database {
    let schema = match family % 4 {
        0 => chain(2 + shape % 4, 2 + shape % 2, 1),
        1 => star(2 + shape % 4, 2),
        2 => snowflake(2 + shape % 2, 2, 2),
        _ => snowflake_tree(1 + shape % 2, 2, 2 + shape % 2),
    };
    random_database(
        &schema,
        DataParams {
            tuples_per_relation: tuples,
            domain,
            skew,
            key_cap: 0,
        },
        seed,
    )
}

/// Schema-equal, relation-by-relation content-equal.
fn same_database(x: &Database, y: &Database) -> bool {
    x.schema().same_edge_sets(y.schema())
        && x.relations().len() == y.relations().len()
        && x.relations()
            .iter()
            .zip(y.relations())
            .all(|(a, b)| a.same_contents(b))
}

/// Rebuilds `db` with every relation interning into its own private pool.
fn split_pools(db: &Database) -> Database {
    let split: Vec<Relation> = db
        .relations()
        .iter()
        .map(|r| {
            let mut own = Relation::new(r.name().to_owned(), r.attributes().clone());
            for t in r.tuples() {
                own.insert(t);
            }
            own
        })
        .collect();
    Database::new(db.schema().clone(), split).expect("same schema")
}

/// Where each relation's rows sit in a snapshot image: `(offset, width,
/// row count)`, walking the version-2 layout (see `reldb::snapshot`).
fn row_sections(b: &[u8]) -> Vec<(usize, usize, usize)> {
    // Reads a u32 count at `at` and skips it plus `per` bytes per unit.
    fn count(b: &[u8], at: &mut usize, per: usize) -> usize {
        let v = u32::from_le_bytes(b[*at..*at + 4].try_into().unwrap()) as usize;
        *at += 4 + per * v;
        v
    }
    let mut at = 12;
    for _ in 0..count(b, &mut at, 0) {
        count(b, &mut at, 1); // node name
    }
    let widths: Vec<usize> = (0..count(b, &mut at, 0))
        .map(|_| {
            count(b, &mut at, 1); // label
            count(b, &mut at, 4) // node ids
        })
        .collect();
    for _ in 0..count(b, &mut at, 0) {
        for _ in 0..count(b, &mut at, 0) {
            at += 1;
            match b[at - 1] {
                0 => at += 8,
                _ => {
                    count(b, &mut at, 1);
                }
            }
        }
    }
    widths
        .into_iter()
        .map(|w| {
            let len = u64::from_le_bytes(b[at + 4..at + 12].try_into().unwrap()) as usize;
            let start = at + 12;
            at = start + len * w * 4;
            (start, w, len)
        })
        .collect()
}

/// A fresh path in the temp directory for one test case's file.
fn temp_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "hq_snapshot_props_{}_{tag}_{n}.hqs",
        std::process::id()
    ))
}

/// Writes `bytes` to a file and loads it back through the streaming path.
fn load_file(tag: &str, bytes: &[u8]) -> Result<Database, EngineError> {
    let path = temp_path(tag);
    std::fs::write(&path, bytes).unwrap();
    let loaded = Database::load_snapshot(&path);
    std::fs::remove_file(&path).ok();
    loaded
}

#[test]
fn version_1_files_ask_for_a_re_save() {
    let mut bytes = db_for(0, 1, 8, 4, 0.0, 1).to_snapshot_bytes();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    match load_file("v1", &bytes) {
        Err(EngineError::Parse { line: 8, message }) => {
            assert!(message.contains("version 1"), "{message}");
            assert!(message.contains("hyperq snapshot save"), "{message}");
        }
        other => panic!("expected one Parse naming version 1, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot round trips are lossless across schema families, sizes and
    /// skew: same schema, same tuples, same pool-sharing structure, and the
    /// reloaded database answers value lookups identically.
    #[test]
    fn round_trip_is_lossless(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 0usize..48,
        domain in 1i64..8,
        skew_tenths in 0usize..16,
        seed in 0u64..1_000,
    ) {
        let db = db_for(family, shape, tuples, domain, skew_tenths as f64 / 10.0, seed);
        let loaded = Database::from_snapshot_bytes(&db.to_snapshot_bytes()).unwrap();
        prop_assert!(same_database(&db, &loaded));
        // The generator interns everything into one shared pool; the round
        // trip must preserve that sharing (handle equality stays global).
        for r in loaded.relations() {
            prop_assert!(r.pool().same_pool(loaded.relations()[0].pool()));
        }
    }

    /// Databases whose relations were built independently (one pool each)
    /// keep that structure through a round trip: contents equal, pools
    /// still distinct per relation.
    #[test]
    fn round_trip_preserves_cross_pool_structure(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..24,
        domain in 1i64..6,
        seed in 0u64..1_000,
    ) {
        let db = split_pools(&db_for(family, shape, tuples, domain, 0.0, seed));
        let loaded = Database::from_snapshot_bytes(&db.to_snapshot_bytes()).unwrap();
        prop_assert!(same_database(&db, &loaded));
        let rels = loaded.relations();
        for (a, b) in rels.iter().zip(rels.iter().skip(1)) {
            prop_assert!(!a.pool().same_pool(b.pool()));
        }
    }

    /// A single flipped byte anywhere in the image either still decodes to
    /// a well-formed database (flips inside value payloads are legitimate
    /// different values) or fails with a structured parse/IO error — it
    /// never panics and never half-applies.
    #[test]
    fn single_byte_flips_never_panic(
        tuples in 1usize..24,
        domain in 1i64..6,
        seed in 0u64..1_000,
        pos_pick in 0usize..4096,
        bit in 0u8..8,
    ) {
        let db = db_for(0, 2, tuples, domain, 0.3, seed);
        let mut bytes = db.to_snapshot_bytes();
        let pos = pos_pick % bytes.len();
        bytes[pos] ^= 1 << bit;
        match Database::from_snapshot_bytes(&bytes) {
            // Some flips land in value payloads or row handles that stay in
            // range: a different but well-formed database is acceptable.
            Ok(loaded) => {
                prop_assert!(loaded.schema().edge_count() == db.schema().edge_count()
                    || pos < 64, "decoded schema changed shape from a data-section flip");
            }
            Err(EngineError::Parse { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error variant: {other:?}"),
        }
    }

    /// Truncation at any prefix and garbage appended at the end are always
    /// structured parse errors.
    #[test]
    fn truncation_and_trailing_garbage_are_structured_errors(
        tuples in 1usize..16,
        seed in 0u64..1_000,
        cut_pick in 0usize..4096,
        garbage in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let db = db_for(1, 1, tuples, 4, 0.0, seed);
        let bytes = db.to_snapshot_bytes();
        let cut = cut_pick % bytes.len();
        prop_assert!(matches!(
            Database::from_snapshot_bytes(&bytes[..cut]),
            Err(EngineError::Parse { .. })
        ));
        let mut extended = bytes.clone();
        extended.extend_from_slice(&garbage);
        prop_assert!(matches!(
            Database::from_snapshot_bytes(&extended),
            Err(EngineError::Parse { .. })
        ));
    }

    /// Rows are stored strictly ascending, so a row overwritten with
    /// another row of its relation (a repeat) or two rows swapped is a
    /// structured parse error at or after the changed row — never a
    /// relation that is not a set.
    #[test]
    fn repeated_or_swapped_rows_are_parse_errors(
        family in 0usize..4,
        tuples in 2usize..32,
        seed in 0u64..1_000,
        rel_pick in 0usize..16,
        i_pick in 0usize..1024,
        j_pick in 0usize..1024,
        swap in any::<bool>(),
    ) {
        let db = db_for(family, 1, tuples, 6, 0.0, seed);
        let mut bytes = db.to_snapshot_bytes();
        let sections: Vec<_> = row_sections(&bytes)
            .into_iter()
            .filter(|&(_, _, len)| len >= 2)
            .collect();
        prop_assume!(!sections.is_empty());
        let (start, w, len) = sections[rel_pick % sections.len()];
        let i = i_pick % len;
        let j = (i + 1 + j_pick % (len - 1)) % len;
        let row = |k: usize| start + k * w * 4..start + (k + 1) * w * 4;
        let old_i = bytes[row(i)].to_vec();
        bytes.copy_within(row(j), row(i).start);
        if swap {
            bytes[row(j)].copy_from_slice(&old_i);
        }
        match Database::from_snapshot_bytes(&bytes) {
            Err(EngineError::Parse { line, message }) => {
                prop_assert!(line >= start && line < start + len * w * 4, "{line}: {message}");
                prop_assert!(message.contains("ascending"), "{message}");
            }
            other => prop_assert!(false, "expected Parse, got {other:?}"),
        }
    }

    /// Through the file path too: a snapshot truncated on disk, or one
    /// with bytes appended, is a structured parse error.
    #[test]
    fn truncated_or_extended_files_are_parse_errors(
        tuples in 1usize..16,
        seed in 0u64..1_000,
        cut_pick in 0usize..4096,
        garbage in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let db = db_for(2, 1, tuples, 4, 0.0, seed);
        let bytes = db.to_snapshot_bytes();
        let round_trip = load_file("whole", &bytes).unwrap();
        prop_assert!(same_database(&db, &round_trip));
        let cut = cut_pick % bytes.len();
        prop_assert!(matches!(
            load_file("cut", &bytes[..cut]),
            Err(EngineError::Parse { .. })
        ));
        let mut extended = bytes.clone();
        extended.extend_from_slice(&garbage);
        prop_assert!(matches!(
            load_file("extended", &extended),
            Err(EngineError::Parse { .. })
        ));
    }
}
