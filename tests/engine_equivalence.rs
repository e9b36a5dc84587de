//! Equivalence property suite: the columnar engine against the retained
//! naive reference implementation (`reldb::reference`).
//!
//! Random acyclic databases come from the workload generators; every core
//! kernel — join, semijoin, projection, selection, the full reducer and the
//! Yannakakis join — must agree with the reference tuple-for-tuple.  This is
//! the safety net under the columnar rewrite: the reference is the
//! pre-rewrite engine kept alive as an oracle.

use acyclic_hypergraphs::acyclic::{join_tree, JoinTree};
use acyclic_hypergraphs::decomp::{decompose, Decomposition, Heuristic};
use acyclic_hypergraphs::hypergraph::{EdgeId, Hypergraph, HypergraphBuilder, NodeId, NodeSet};
use acyclic_hypergraphs::reldb::reference::{
    naive_full_join, naive_full_reduce, naive_yannakakis_join, NaiveRelation,
};
use acyclic_hypergraphs::reldb::{
    full_reduce, yannakakis_join, CollectingSink, Database, EngineError, ExecCtx, Governor, Phase,
    Relation, Tuple, Value,
};
use acyclic_hypergraphs::workload::{
    chain, far_apart, hyper_ring, pair_clique, random_acyclic, random_database, ring, snowflake,
    snowflake_tree, star, AcyclicParams, DataParams,
};
use proptest::prelude::*;
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One of the acyclic benchmark schema families, scaled by `shape`.
fn schema(family: usize, shape: usize) -> Hypergraph {
    match family % 4 {
        0 => chain(2 + shape % 4, 2 + shape % 2, 1),
        1 => star(2 + shape % 4, 2),
        2 => snowflake(2 + shape % 2, 2, 2),
        // The fanout-tree snowflake: multi-edge join-tree levels.
        _ => snowflake_tree(1 + shape % 2, 2, 2 + shape % 2),
    }
}

fn db_for_skewed(
    family: usize,
    shape: usize,
    tuples: usize,
    domain: i64,
    skew: f64,
    seed: u64,
) -> Database {
    random_database(
        &schema(family, shape),
        DataParams {
            tuples_per_relation: tuples,
            domain,
            skew,
            key_cap: 0,
        },
        seed,
    )
}

fn db_for(family: usize, shape: usize, tuples: usize, domain: i64, seed: u64) -> Database {
    db_for_skewed(family, shape, tuples, domain, 0.0, seed)
}

/// The same database with every relation rebuilt into a private pool of its
/// own, each numbered from a different offset (the relation's name is
/// interned first), so no two relations agree on any handle by accident.
fn with_private_pools(db: &Database) -> Database {
    let split = db.relations().iter().map(|r| {
        let mut own = Relation::new(r.name().to_owned(), r.attributes().clone());
        own.pool().intern(&Value::str(r.name()));
        for t in r.tuples() {
            own.insert(t);
        }
        own
    });
    Database::new(db.schema().clone(), split.collect()).expect("same schema")
}

/// A deterministic stream of small integers (an LCG) for hand-built
/// operands: `draw(m)` is the next value in `0..m`.
fn lcg(seed: u64) -> impl FnMut(i64) -> i64 {
    let mut x = seed;
    move |modulus| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 33) as i64).rem_euclid(modulus)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pairwise join and semijoin agree with the reference on every pair of
    /// relations of a random acyclic database.
    #[test]
    fn join_and_semijoin_match_reference(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..24,
        domain in 1i64..6,
        seed in 0u64..1_000,
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        let rels = db.relations();
        let naive: Vec<NaiveRelation> = rels.iter().map(NaiveRelation::from_relation).collect();
        for i in 0..rels.len() {
            for j in 0..rels.len() {
                prop_assert!(
                    naive[i].join(&naive[j]).agrees_with(&rels[i].join(&rels[j])),
                    "join diverged on relations {i}×{j}"
                );
                prop_assert!(
                    naive[i].semijoin(&naive[j]).agrees_with(&rels[i].semijoin(&rels[j])),
                    "semijoin diverged on relations {i}⋉{j}"
                );
            }
        }
    }

    /// Projection onto random attribute subsets agrees with the reference,
    /// including the empty projection.
    #[test]
    fn projection_matches_reference(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..24,
        domain in 1i64..6,
        seed in 0u64..1_000,
        keep_mask in 0usize..64,
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        for r in db.relations() {
            let naive = NaiveRelation::from_relation(r);
            let kept: NodeSet = r
                .attributes()
                .iter()
                .enumerate()
                .filter(|(i, _)| keep_mask & (1 << (i % 6)) != 0)
                .map(|(_, n)| n)
                .collect();
            prop_assert!(
                naive.project(&kept).agrees_with(&r.project(&kept)),
                "projection diverged on {} -> {} attrs",
                r.attributes().len(),
                kept.len()
            );
        }
    }

    /// The in-place full reducer removes exactly the tuples the reference
    /// reducer removes — same counts, same survivors.
    #[test]
    fn full_reduce_matches_reference(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..24,
        domain in 1i64..6,
        seed in 0u64..1_000,
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        let tree = join_tree(db.schema()).expect("generator schemas are acyclic");
        let fast = full_reduce(&db, &tree);
        let (naive_rels, naive_removed) = naive_full_reduce(&db, &tree);
        prop_assert_eq!(&fast.removed, &naive_removed, "removed-tuple counts diverged");
        for (n, f) in naive_rels.iter().zip(&fast.relations) {
            prop_assert!(n.agrees_with(f), "reduced relation contents diverged");
        }
    }

    /// The full Yannakakis pipeline agrees with the reference pipeline on
    /// random output attribute sets.
    #[test]
    fn yannakakis_join_matches_reference(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..16,
        domain in 1i64..5,
        seed in 0u64..1_000,
        pick in any::<u64>(),
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        let tree = join_tree(db.schema()).expect("generator schemas are acyclic");
        let all: Vec<_> = db.schema().nodes().iter().collect();
        let output: NodeSet = all
            .iter()
            .enumerate()
            .filter(|&(i, _)| pick >> i & 1 == 1)
            .map(|(_, &n)| n)
            .collect();
        let fast = yannakakis_join(&db, &tree, &output);
        let slow = naive_yannakakis_join(&db, &tree, &output);
        prop_assert!(slow.agrees_with(&fast), "yannakakis output diverged");
    }

    /// Kernels translate handles correctly across independently built
    /// relations (distinct value pools), matching the shared-pool result.
    #[test]
    fn cross_pool_kernels_match_shared_pool(
        tuples in 1usize..20,
        domain in 1i64..5,
        seed in 0u64..1_000,
    ) {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap();
        let (a, b, c) = (
            h.node("A").unwrap(),
            h.node("B").unwrap(),
            h.node("C").unwrap(),
        );
        // r and s_own intern into unrelated pools; s_shared mirrors s_own
        // inside r's pool.
        let mut r = Relation::new("R", h.node_set(["A", "B"]).unwrap());
        let mut s_own = Relation::new("S", h.node_set(["B", "C"]).unwrap());
        let mut s_shared =
            Relation::with_pool("S", h.node_set(["B", "C"]).unwrap(), r.pool().clone());
        let mut draw = lcg(seed);
        let mut next = || Value::Int(draw(domain));
        for _ in 0..tuples {
            let (va, vb) = (next(), next());
            r.insert(Tuple::from_pairs([(a, va), (b, vb)]));
            let (vb2, vc) = (next(), next());
            s_own.insert(Tuple::from_pairs([(b, vb2.clone()), (c, vc.clone())]));
            s_shared.insert(Tuple::from_pairs([(b, vb2), (c, vc)]));
        }
        // Semijoins and contents comparisons read across pools and leave
        // both pools as they were; only a join re-interns.
        let lens = || (r.pool().len(), s_own.pool().len());
        let before = lens();
        prop_assert!(s_own.same_contents(&s_shared) && s_shared.same_contents(&s_own));
        prop_assert!(r.semijoin(&s_own).same_contents(&r.semijoin(&s_shared)));
        prop_assert_eq!(lens(), before);
        // The join translates handles into the reference's answer and the
        // shared-pool one.
        let naive = NaiveRelation::from_relation(&r).join(&NaiveRelation::from_relation(&s_own));
        let joined = r.join(&s_own);
        prop_assert!(naive.agrees_with(&joined), "cross-pool join diverged from oracle");
        prop_assert!(joined.same_contents(&r.join(&s_shared)));
    }

    /// The full reducer removes exactly the reference oracle's tuples,
    /// across schema families (fanout trees have multi-edge
    /// levels) and Zipf-skewed data.
    #[test]
    fn full_reduce_strategies_match_reference_on_skewed_data(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..32,
        domain in 1i64..8,
        skew_tenths in 0usize..16,
        seed in 0u64..1_000,
    ) {
        let db = db_for_skewed(family, shape, tuples, domain, skew_tenths as f64 / 10.0, seed);
        let tree = join_tree(db.schema()).expect("generator schemas are acyclic");
        let (naive_rels, naive_removed) = naive_full_reduce(&db, &tree);
        let fast = full_reduce(&db, &tree);
        prop_assert_eq!(&fast.removed, &naive_removed, "removed counts");
        for (n, f) in naive_rels.iter().zip(&fast.relations) {
            prop_assert!(n.agrees_with(f), "reducer diverged from oracle");
        }
    }

    /// The join agrees with the reference oracle, and the semijoin (dense or sort-merge) with the oracle, including on
    /// Zipf-skewed (high-duplicate) data.
    #[test]
    fn sort_merge_kernels_match_hash_and_reference(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..24,
        domain in 1i64..6,
        skew_tenths in 0usize..16,
        seed in 0u64..1_000,
    ) {
        let db = db_for_skewed(family, shape, tuples, domain, skew_tenths as f64 / 10.0, seed);
        let rels = db.relations();
        let naive: Vec<NaiveRelation> = rels.iter().map(NaiveRelation::from_relation).collect();
        for i in 0..rels.len() {
            for j in 0..rels.len() {
                prop_assert!(
                    naive[i].join(&naive[j]).agrees_with(&rels[i].join(&rels[j])),
                    "join diverged on relations {i}×{j}"
                );
                prop_assert!(
                    naive[i].semijoin(&naive[j]).agrees_with(&rels[i].semijoin(&rels[j])),
                    "semijoin diverged on relations {i}⋉{j}"
                );
            }
        }
    }

    /// The bottom-up join agrees with the reference oracle, across schema
    /// families (fanout snowflake trees have multi-edge levels), Zipf-skewed
    /// data and random projections.
    #[test]
    fn bottom_up_join_strategies_match_sequential_and_reference(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..24,
        domain in 1i64..6,
        skew_tenths in 0usize..16,
        seed in 0u64..1_000,
        pick in any::<u64>(),
    ) {
        let db = db_for_skewed(family, shape, tuples, domain, skew_tenths as f64 / 10.0, seed);
        let tree = join_tree(db.schema()).expect("generator schemas are acyclic");
        let output: NodeSet = db
            .schema()
            .nodes()
            .iter()
            .enumerate()
            .filter(|&(i, _)| pick >> i & 1 == 1)
            .map(|(_, n)| n)
            .collect();
        let got = yannakakis_join(&db, &tree, &output);
        let slow = naive_yannakakis_join(&db, &tree, &output);
        prop_assert!(slow.agrees_with(&got), "bottom-up join diverged from oracle");
    }

    /// The pipeline also holds when the database's relations were built
    /// independently (one value pool each): every semijoin and join in both
    /// phases pays the cross-pool handle translation, and the result still
    /// matches the oracle and the shared-pool engine.
    #[test]
    fn pipeline_strategies_match_on_cross_pool_relations(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..16,
        domain in 1i64..5,
        seed in 0u64..1_000,
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        let split_db = with_private_pools(&db);
        let split = split_db.relations();
        for (a, b) in split.iter().zip(split.iter().skip(1)) {
            prop_assert!(!a.pool().same_pool(b.pool()));
        }
        let tree = join_tree(db.schema()).expect("generator schemas are acyclic");
        let output = db.schema().nodes();
        let want = yannakakis_join(&db, &tree, &output);
        let got = yannakakis_join(&split_db, &tree, &output);
        prop_assert!(want.same_contents(&got), "cross-pool pipeline diverged");
        let slow = naive_yannakakis_join(&split_db, &tree, &output);
        prop_assert!(slow.agrees_with(&want), "cross-pool oracle diverged");
    }

    /// The full Yannakakis pipeline agrees with the reference on
    /// Zipf-skewed data and random projections.
    #[test]
    fn yannakakis_policies_match_reference_on_skewed_data(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..16,
        domain in 1i64..5,
        skew_tenths in 0usize..14,
        seed in 0u64..1_000,
        pick in any::<u64>(),
    ) {
        let db = db_for_skewed(family, shape, tuples, domain, skew_tenths as f64 / 10.0, seed);
        let tree = join_tree(db.schema()).expect("generator schemas are acyclic");
        let output: NodeSet = db
            .schema()
            .nodes()
            .iter()
            .enumerate()
            .filter(|&(i, _)| pick >> i & 1 == 1)
            .map(|(_, n)| n)
            .collect();
        let slow = naive_yannakakis_join(&db, &tree, &output);
        let fast = yannakakis_join(&db, &tree, &output);
        prop_assert!(slow.agrees_with(&fast), "yannakakis diverged");
    }
}

/// Interns `extra` values no relation uses into `pool` — a dictionary that
/// has grown since the relations over it were built.
fn grow_pool(pool: &acyclic_hypergraphs::reldb::ValuePool, extra: usize) {
    for i in 0..extra as i64 {
        pool.intern(&Value::Int(1_000_000 + i));
    }
}

/// Two operands for a binary kernel: `shared` key columns `K*` on both
/// sides plus `extra.0` / `extra.1` columns of their own (a side with
/// neither is a zero-width relation), `rows.0` / `rows.1` drawn rows over
/// `0..domain`.  Every fourth right-side cell is a value the left never
/// holds; with `cross_pool` the right side interns into an unrelated pool
/// numbered from a different offset.
fn binary_operands(
    shared: usize,
    extra: (usize, usize),
    rows: (usize, usize),
    domain: i64,
    cross_pool: bool,
    seed: u64,
) -> (Relation, Relation) {
    let side = |tag: &str, own: usize| -> Vec<String> {
        (0..shared)
            .map(|i| format!("K{i}"))
            .chain((0..own).map(|i| format!("{tag}{i}")))
            .collect()
    };
    let (left_names, right_names) = (side("L", extra.0), side("R", extra.1));
    // One edge naming every column (and a spare, so it is never empty)
    // numbers the attributes K*, L*, R*.
    let universe: Vec<String> = (left_names.iter())
        .chain(&right_names)
        .cloned()
        .chain(["Z".to_owned()])
        .collect();
    let h = Hypergraph::from_edges([universe]).unwrap();
    let attrs = |names: &[String]| h.node_set(names.iter().map(String::as_str)).unwrap();
    let mut next = lcg(seed);
    let mut left = Relation::new("L", attrs(&left_names));
    let mut right = if cross_pool {
        let own = Relation::new("R", attrs(&right_names));
        // Offset the right pool's numbering from the left's.
        own.pool().intern(&Value::Int(-1));
        own
    } else {
        Relation::with_pool("R", attrs(&right_names), left.pool().clone())
    };
    for _ in 0..rows.0 {
        left.insert_values((0..left_names.len()).map(|_| next(domain)));
    }
    for _ in 0..rows.1 {
        right.insert_values((0..right_names.len()).map(|_| {
            if next(4) == 0 {
                100 + next(2)
            } else {
                next(domain)
            }
        }));
    }
    (left, right)
}

/// True if the stored rows are pairwise distinct — read off the handle rows
/// themselves, sorted.  `same_contents` and `agrees_with` compare `len` plus
/// membership, so on their own they accept a duplicate row that displaces a
/// missing one; with this they amount to set equality.
fn rows_distinct(r: &Relation) -> bool {
    let w = r.columns().len();
    if w == 0 {
        return r.len() <= 1;
    }
    let mut rows: Vec<&[u32]> = r.handle_rows().chunks_exact(w).collect();
    assert_eq!(rows.len(), r.len());
    rows.sort_unstable();
    rows.windows(2).all(|pair| pair[0] != pair[1])
}

/// `got` is a set, and the set `want`.
fn is_the_set(want: &NaiveRelation, got: &Relation) -> bool {
    rows_distinct(got) && want.agrees_with(got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One semijoin, every way its operands can be shaped: 0–3 shared key
    /// columns, keys that are the whole row on either side, empty operands,
    /// operands in unrelated pools (numbered differently, the right one
    /// holding values the left pool has never seen), and a left pool that
    /// grew after the relations were built — by a little (still dense) and
    /// then by enough that the semijoin must fall back to sorting.  On each
    /// side of that bound `semijoin` and `retain_semijoin`, on an owned and
    /// on a borrowed target, agree with the reference tuple for tuple,
    /// removed count included; the kernel is the one the eligibility rule
    /// predicts.
    #[test]
    fn auto_semijoin_matches_pinned_kernels_and_reference(
        shared in 0usize..4,
        left_extra in 0usize..2,
        right_extra in 0usize..2,
        left_rows in 0usize..24,
        right_rows in 0usize..24,
        domain in 1i64..5,
        cross_pool in any::<bool>(),
        grow in 0usize..2,
        seed in 0u64..1_000,
    ) {
        // A side without key columns always gets a column of its own (no
        // zero-width relations).
        let own = |extra| if shared == 0 { 1 } else { extra };
        let (left, right) = binary_operands(
            shared,
            (own(left_extra), own(right_extra)),
            (left_rows, right_rows),
            domain,
            cross_pool,
            seed,
        );
        let naive =
            NaiveRelation::from_relation(&left).semijoin(&NaiveRelation::from_relation(&right));
        // ≤ 3 + 2 + 3 values per pool fit any key space here; 2 000 more
        // overflow the bound for every nonempty key.
        for extra in [[0, 3][grow], 2_000] {
            grow_pool(left.pool(), extra);
            prop_assert!(naive.agrees_with(&left.semijoin(&right)), "semijoin diverged");
            for mut target in [Cow::Owned(left.clone()), Cow::Borrowed(&left)] {
                let removed = ExecCtx::new()
                    .retain_semijoin(&mut target, &right)
                    .expect("nobody can abort");
                prop_assert_eq!(removed, left.len() - naive.len(), "removed count");
                prop_assert!(naive.agrees_with(&target), "retain_semijoin diverged");
            }

            let sink = CollectingSink::new();
            ExecCtx::new()
                .metrics(&sink)
                .retain_semijoin(&mut Cow::Borrowed(&left), &right)
                .expect("nobody can abort");
            let counts = sink.snapshot().semijoins;
            let fits = (left.pool().len() as u128).pow(shared as u32)
                <= 8 * (left.len() + right.len()) as u128 + 1024;
            let expect_dense = u64::from(shared == 0 || fits);
            prop_assert_eq!(counts.dense_ops, expect_dense, "eligibility rule ({:?})", counts);
            prop_assert_eq!(counts.sortmerge_ops, 1 - expect_dense, "({:?})", counts);
            prop_assert_eq!(counts.kept, naive.len() as u64);
        }
    }

    /// The full reducer over chains whose separators are 1, 2 and 3 columns
    /// wide — shared pool, one pool per relation, and a pool grown after
    /// the load — removes exactly what the reference removes, every
    /// semijoin taking the dense kernel while its key space fits and
    /// sort-merge once the pool outgrows it.
    #[test]
    fn full_reduce_matches_reference_on_wide_separators(
        key_width in 1usize..4,
        edges in 2usize..5,
        tuples in 0usize..24,
        domain in 1i64..4,
        cross_pool in any::<bool>(),
        grow in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let db = random_database(
            &chain(edges, key_width + 1, key_width),
            DataParams { tuples_per_relation: tuples, domain, skew: 0.0, key_cap: 0 },
            seed,
        );
        let db = if cross_pool { with_private_pools(&db) } else { db };
        for r in db.relations() {
            grow_pool(r.pool(), [0, 3, 2_000][grow]);
        }
        let tree = join_tree(db.schema()).expect("chains are acyclic");
        let (naive_rels, naive_removed) = naive_full_reduce(&db, &tree);
        let sink = CollectingSink::new();
        let fast = ExecCtx::new()
            .metrics(&sink)
            .full_reduce(&db, &tree)
            .expect("nobody can abort");
        prop_assert_eq!(&fast.removed, &naive_removed, "removed counts");
        for (n, f) in naive_rels.iter().zip(&fast.relations) {
            prop_assert!(n.agrees_with(f), "reduced contents diverged");
        }
        let m = sink.snapshot().semijoins;
        prop_assert_eq!(m.ops, 2 * (edges as u64 - 1));
        prop_assert_eq!(m.hash_ops, 0);
        if grow < 2 {
            // ≤ 3 + 3 + 1 values per pool: 7³ < 1024, every key space fits.
            prop_assert_eq!(m.dense_ops, m.ops, "a fitting semijoin sorted: {:?}", m);
        } else {
            // ≥ 2 000 values per pool, ≤ 48 rows per semijoin: none fits.
            prop_assert_eq!(m.sortmerge_ops, m.ops, "an oversized key space: {:?}", m);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Join kernels emit without re-deduplicating, so the set property is
    /// checked where it is produced: a join's rows are pairwise distinct and are the reference's — over 0–3 shared columns (0 = cross product), operands
    /// with one schema (join = intersection), empty and zero-width sides,
    /// and a right operand in an unrelated pool holding values the left has
    /// never seen.  An insert into the output afterwards still deduplicates,
    /// through the index that first insertion builds.
    #[test]
    fn join_outputs_are_sets_equal_to_the_reference(
        shared in 0usize..4,
        left_extra in 0usize..2,
        right_extra in 0usize..2,
        left_rows in 0usize..24,
        right_rows in 0usize..24,
        domain in 1i64..5,
        cross_pool in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let (left, right) = binary_operands(
            shared,
            (left_extra, right_extra),
            (left_rows, right_rows),
            domain,
            cross_pool,
            seed,
        );
        let want = NaiveRelation::from_relation(&left).join(&NaiveRelation::from_relation(&right));
        let mut out = left.join(&right);
        prop_assert!(is_the_set(&want, &out), "join");
        if !out.is_empty() && !out.columns().is_empty() {
            let (first, last) = (out.tuple_at(0), out.tuple_at(out.len() - 1));
            prop_assert!(!out.insert(first), "duplicate accepted");
            prop_assert!(!out.insert(last), "duplicate accepted");
            let fresh = Tuple::from_pairs(out.columns().iter().map(|&a| (a, 7_777)));
            prop_assert!(out.insert(fresh), "new tuple rejected");
            prop_assert_eq!(out.len(), want.len() + 1);
            prop_assert!(rows_distinct(&out));
        }
    }

    /// The pipeline's projections: with every attribute in the output each
    /// one is the identity (rows move, nothing is hashed); with a far-apart
    /// pair each one drops a column (and must deduplicate).  Either way the
    /// answer is a set and the reference's.
    #[test]
    fn yannakakis_answers_are_sets_equal_to_the_reference(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..24,
        domain in 1i64..5,
        seed in 0u64..1_000,
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        let tree = join_tree(db.schema()).expect("generator schemas are acyclic");
        let (all, ends) = (db.schema().nodes(), far_apart(db.schema()));
        for output in [&all, &ends] {
            let want = naive_yannakakis_join(&db, &tree, output);
            let got = yannakakis_join(&db, &tree, output);
            prop_assert!(is_the_set(&want, &got), "{} attributes", output.len());
        }
    }

    /// Every bag of a cyclic schema's decomposition (rings, hyper-rings and
    /// pair-cliques) is a set, and exactly the children-first reference
    /// bag.  It sits between the two bounds that make the bag join correct:
    /// inside the old definition's bag (its cover's join alone) and around
    /// the full join's projection onto it.  No join intermediate charged
    /// while a bag builds is wider than that bag.
    #[test]
    fn ring_bags_are_sets_equal_to_the_reference(
        family in 0usize..3,
        shape in 0usize..6,
        tuples in 1usize..20,
        domain in 1i64..5,
        seed in 0u64..1_000,
    ) {
        let schema = match family {
            0 => ring(3 + shape),
            1 => hyper_ring(3 + shape % 2, 2 + shape / 3),
            _ => pair_clique(3 + shape % 3),
        };
        let db = random_database(
            &schema,
            DataParams { tuples_per_relation: tuples, domain, skew: 0.0, key_cap: 0 },
            seed,
        );
        let d = decompose(db.schema(), Heuristic::MinFill).expect("nonempty schema");
        let watch = BagWidthWatch::default();
        let bag_db = ExecCtx::new()
            .gov(&watch)
            .materialize_bags(&db, &d)
            .expect("nothing aborts");
        let (want, old) = (naive_bags(&db, &d, true), naive_bags(&db, &d, false));
        let full = naive_full_join(&db);
        for (b, got) in bag_db.relations().iter().enumerate() {
            let bag = &d.bags().edges()[b].nodes;
            prop_assert!(is_the_set(&want[b], got), "bag {b}");
            let got = NaiveRelation::from_relation(got);
            prop_assert!(got.tuples.is_subset(&old[b].tuples), "bag {b} grew");
            prop_assert!(
                got.tuples.is_superset(&full.project(bag).tuples),
                "bag {b} lost a tuple of the full join"
            );
        }
        for (b, width) in watch.charges.lock().unwrap().iter().copied() {
            let bag = d.bags().edges()[b].nodes.len();
            prop_assert!(width <= bag, "bag {b} ({bag} nodes) charged {width} columns");
        }
    }
}

/// `db` as a server holds it: saved as a snapshot and loaded back, so its
/// pool is in value order and every relation's rows ascend.  A database
/// built by insertion seldom has its rows in order, so the enumerated join
/// is tested on databases built this way.
fn reloaded(db: &Database) -> Database {
    Database::from_snapshot_bytes(&db.to_snapshot_bytes()).expect("a saved database loads")
}

/// The metered Yannakakis answer of `db` onto `x`, checked against the
/// reference, with the number of joins that hashed and that enumerated (an
/// enumeration timed as one join level).
fn answer_and_kernels(db: &Database, x: &NodeSet) -> (Relation, (u64, u64)) {
    let tree = join_tree(db.schema()).expect("acyclic");
    let sink = CollectingSink::new();
    let got = ExecCtx::new()
        .metrics(&sink)
        .yannakakis_join(db, &tree, x)
        .expect("nobody aborts");
    assert!(
        naive_yannakakis_join(db, &tree, x).agrees_with(&got),
        "answer diverged"
    );
    let m = sink.snapshot();
    if m.joins.enumerate_ops > 0 {
        let levels = m.levels.iter().filter(|l| l.phase == Phase::Join);
        assert_eq!(levels.count(), 1, "an enumeration is one join level");
    }
    (got, (m.joins.hash_ops, m.joins.enumerate_ops))
}

/// True if the rows are strictly ascending in handle order.
fn rows_ascend(r: &Relation) -> bool {
    let w = r.columns().len();
    let rows: Vec<&[u32]> = r.handle_rows().chunks(w).collect();
    rows.windows(2).all(|pair| pair[0] < pair[1])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With every attribute asked for, a loaded chain, star or snowflake is
    /// answered tuple for tuple as the naive full join.  Chains and stars
    /// meet their attributes in order, so they are enumerated and their
    /// rows come out strictly ascending; any answer that was enumerated
    /// does.
    #[test]
    fn full_join_answers_of_loaded_databases_match_the_naive_join(
        family in 0usize..3,
        shape in 0usize..4,
        tuples in 1usize..24,
        domain in 1i64..6,
        seed in 0u64..1_000,
    ) {
        let db = reloaded(&db_for(family, shape, tuples, domain, seed));
        let (got, (hashed, enumerated)) = answer_and_kernels(&db, &db.schema().nodes());
        prop_assert!(naive_full_join(&db).agrees_with(&got), "not the full join");
        if family < 2 {
            prop_assert_eq!((hashed, enumerated), (0, 1), "chains and stars enumerate");
        }
        if enumerated == 1 {
            prop_assert!(rows_ascend(&got), "an enumerated answer is in order");
        }
    }
}

/// Each part of the enumeration rule, on one case that passes or fails it
/// alone: a chain in attribute order and a star enumerate; `A–C, C–B` with
/// `A < B < C`, an output without one of `S`'s attributes, one row out of
/// order and a relation in a pool of its own each fall back to hashing.
#[test]
fn the_enumeration_rule_accepts_and_rejects_exactly() {
    let params = DataParams {
        tuples_per_relation: 30,
        domain: 6,
        skew: 0.0,
        key_cap: 0,
    };
    let loaded = |schema: &Hypergraph| reloaded(&random_database(schema, params, 5));
    for schema in [chain(3, 2, 1), star(3, 2)] {
        let db = loaded(&schema);
        let (got, kernels) = answer_and_kernels(&db, &db.schema().nodes());
        assert_eq!(kernels, (0, 1), "{schema:?}");
        assert!(!got.is_empty() && rows_ascend(&got));
    }

    let acb = HypergraphBuilder::new()
        .node("A")
        .node("B")
        .node("C")
        .edge("AC", ["A", "C"])
        .edge("CB", ["C", "B"])
        .build()
        .unwrap();
    let db = loaded(&acb);
    assert_eq!(answer_and_kernels(&db, &db.schema().nodes()).1, (1, 0));

    // The chain A–B, B–C, C–D asked for A, B and D: S is the whole chain,
    // whose join holds C too.
    let db = loaded(&chain(3, 2, 1));
    let abd = db.attributes(["N00000", "N00001", "N00003"]).unwrap();
    assert_eq!(answer_and_kernels(&db, &abd).1, (2, 0));

    // The middle relation with its last two rows swapped, in the same pool.
    let mut relations = db.relations().to_vec();
    let middle = &relations[1];
    let mut tuples: Vec<Tuple> = middle.tuples().collect();
    let n = tuples.len();
    assert!(n >= 2);
    tuples.swap(n - 2, n - 1);
    let mut swapped = Relation::with_pool(
        middle.name(),
        middle.attributes().clone(),
        middle.pool().clone(),
    );
    for t in tuples {
        swapped.insert(t);
    }
    relations[1] = swapped;
    let unordered = Database::new(db.schema().clone(), relations).unwrap();
    assert_eq!(
        answer_and_kernels(&unordered, &db.schema().nodes()).1,
        (2, 0)
    );

    // The middle relation in a pool of its own, numbered in value order so
    // that its rows still ascend there.
    let mut relations = db.relations().to_vec();
    let middle = &relations[1];
    let mut values: Vec<Value> = middle
        .tuples()
        .flat_map(|t| t.iter().map(|(_, v)| v.clone()).collect::<Vec<_>>())
        .collect();
    values.sort_unstable();
    values.dedup();
    let mut own = Relation::new(middle.name(), middle.attributes().clone());
    for v in &values {
        own.pool().intern(v);
    }
    for t in middle.tuples() {
        own.insert(t);
    }
    assert!(rows_ascend(&own));
    relations[1] = own;
    let split = Database::new(db.schema().clone(), relations).unwrap();
    assert_eq!(answer_and_kernels(&split, &db.schema().nodes()).1, (2, 0));
}

/// Whether the path expansion answers `x` over `tree`, the join tree (or bag
/// tree) of `h`: `x` is two attributes, the smallest subtree `S` covering it
/// has two edges or more, and every separator inside `S` is one attribute.
/// (Every database here keeps its relations in one pool, the rule's last
/// part.)
fn expands(tree: &JoinTree, h: &Hypergraph, x: &NodeSet) -> bool {
    let member = tree.connection_subtree(h, x);
    let nodes = |e: EdgeId| &h.edges()[e.index()].nodes;
    x.len() == 2
        && member.iter().filter(|&&m| m).count() >= 2
        && (tree.tree_edges().into_iter())
            .filter(|(c, p)| member[c.index()] && member[p.index()])
            .all(|(c, p)| nodes(c).intersection(nodes(p)).len() == 1)
}

/// Every two-attribute subset of `h`'s attributes.
fn attribute_pairs(h: &Hypergraph) -> Vec<NodeSet> {
    let nodes: Vec<NodeId> = h.nodes().iter().collect();
    let mut pairs = Vec::new();
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            pairs.push(NodeSet::from_ids([a, b]));
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every two-attribute query on a chain, star, snowflake or random
    /// acyclic schema, built by insertion and loaded from a snapshot, is the
    /// reference's answer, a set.  Exactly where the expansion rule holds
    /// the join is one enumerated op and no hash join, and the rows come
    /// out strictly ascending in handle order — value order, in the loaded
    /// database's ordered pool.
    #[test]
    fn two_attribute_answers_expand_exactly_where_the_rule_holds(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..16,
        domain in 1i64..5,
        seed in 0u64..1_000,
    ) {
        let schema = match family {
            0 => chain(2 + shape % 4, 2 + shape % 2, 1),
            1 => star(2 + shape % 4, 2),
            2 => snowflake(2 + shape % 2, 2, 2),
            _ => random_acyclic(
                AcyclicParams { edges: 3 + shape, min_edge_size: 2, max_edge_size: 3, max_overlap: 2 },
                seed,
            ),
        };
        let params = DataParams { tuples_per_relation: tuples, domain, skew: 0.0, key_cap: 0 };
        let inserted = random_database(&schema, params, seed);
        for db in [reloaded(&inserted), inserted] {
            let tree = join_tree(db.schema()).expect("generator schemas are acyclic");
            for x in attribute_pairs(db.schema()) {
                let (got, (hashed, enumerated)) = answer_and_kernels(&db, &x);
                prop_assert!(rows_distinct(&got), "{x:?}: rows repeat");
                let rule = expands(&tree, db.schema(), &x);
                prop_assert_eq!(enumerated, u64::from(rule), "{:?}: rule {}", x, rule);
                if rule {
                    prop_assert_eq!(hashed, 0, "{:?}: expanded and hashed", x);
                    prop_assert!(rows_ascend(&got), "{:?}: an expanded answer is in order", x);
                }
            }
        }
    }
}

/// The expansion gathers each distinct value once per hop: `R(A,B)` holds
/// `(1,1), (1,2)`, `S(B,C)` holds `(1,5), (2,5)` and `T(C,D)` holds
/// `(5,7), (5,8)`.  From `a = 1` the walk gathers `B ∈ {1, 2}`, then `C = 5`
/// twice, deduplicated to one `5`, then `D ∈ {7, 8}`: six values in all
/// (eight, were the repeated `5` walked twice), two answer rows, four
/// distinct keys over six indexed rows.
#[test]
fn expansion_gathers_each_distinct_value_once() {
    let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap();
    let mut db = Database::empty(h);
    for (e, rows) in [[[1, 1], [1, 2]], [[1, 5], [2, 5]], [[5, 7], [5, 8]]]
        .iter()
        .enumerate()
    {
        for row in rows {
            db.insert_values(EdgeId(e as u32), *row);
        }
    }
    let x = db.attributes(["A", "D"]).unwrap();
    for db in [reloaded(&db), db] {
        let tree = join_tree(db.schema()).unwrap();
        let sink = CollectingSink::new();
        let got = ExecCtx::new()
            .metrics(&sink)
            .yannakakis_join(&db, &tree, &x)
            .unwrap();
        assert!(naive_yannakakis_join(&db, &tree, &x).agrees_with(&got));
        let joins = sink.snapshot().joins;
        assert_eq!((joins.ops, joins.enumerate_ops), (1, 1));
        let counts = (joins.probed, joins.kept, joins.built, joins.build_rows);
        assert_eq!(counts, (6, 2, 4, 6));
    }
}

/// Bag trees take the expansion too, where a path of bags with
/// one-attribute separators is reached: a triangle `A, B, C` with a tail
/// `C–D, D–E` decomposes into the bags `{A,B,C}`, `{C,D}` and `{D,E}`, so
/// `{A, E}` walks all three.  Every two-attribute query of it and of the
/// 5-ring (whose bags share two attributes, so it hashes), built by
/// insertion and loaded from a snapshot, is the naive full join's
/// projection, a set, and enumerated exactly where the rule holds on the
/// engine's bag tree, with no hash join but those that built the bags.
#[test]
fn bag_paths_with_one_attribute_separators_expand() {
    let tailed = Hypergraph::from_edges([
        vec!["A", "B"],
        vec!["B", "C"],
        vec!["A", "C"],
        vec!["C", "D"],
        vec!["D", "E"],
    ])
    .unwrap();
    let params = DataParams {
        tuples_per_relation: 30,
        domain: 4,
        skew: 0.0,
        key_cap: 0,
    };
    let mut expanded = [0, 0];
    for (i, schema) in [tailed, ring(5)].iter().enumerate() {
        for seed in 0..6 {
            let inserted = random_database(schema, params, seed);
            for db in [reloaded(&inserted), inserted] {
                let full = naive_full_join(&db);
                for x in attribute_pairs(db.schema()) {
                    let sink = CollectingSink::new();
                    let got = ExecCtx::new()
                        .metrics(&sink)
                        .query_yannakakis(&db, &x)
                        .expect("nobody aborts");
                    assert!(is_the_set(&full.project(&x), &got), "{x:?}");
                    let report = sink.snapshot();
                    let heuristic = match report.widths.map(|w| w.chosen) {
                        Some("min-degree") => Heuristic::MinDegree,
                        _ => Heuristic::MinFill,
                    };
                    let d = decompose(db.schema(), heuristic).expect("nonempty schema");
                    let rule = expands(d.tree(), d.bags(), &x);
                    assert_eq!(report.joins.enumerate_ops, u64::from(rule), "{x:?}");
                    if rule {
                        // Every hash join is one that built a bag.
                        let built = CollectingSink::new();
                        ExecCtx::new()
                            .metrics(&built)
                            .materialize_bags(&db, &d)
                            .expect("nobody aborts");
                        let bag_joins = built.snapshot().joins.hash_ops;
                        assert_eq!(report.joins.hash_ops, bag_joins, "{x:?}");
                        assert!(rows_ascend(&got), "{x:?}");
                        expanded[i] += 1;
                    }
                }
            }
        }
    }
    assert!(
        expanded[0] > 0,
        "the tailed triangle reaches a path of bags"
    );
    assert_eq!(expanded[1], 0, "the ring's separators are two attributes");
}

/// The reference bags of `d`, built children-first along the bag tree: each
/// is the join of its cover (assigned relations whole, extras trimmed to
/// the bag) and, with `messages`, of every child bag projected onto the
/// separator — then projected onto the bag.  Without `messages` this is
/// the old definition, the cover's join alone.
fn naive_bags(db: &Database, d: &Decomposition, messages: bool) -> Vec<NaiveRelation> {
    let tree = d.tree();
    let mut bags: Vec<Option<NaiveRelation>> = vec![None; d.bag_count()];
    for bag in tree.bottom_up_order() {
        let nodes = &d.bags().edges()[bag.index()].nodes;
        let cover = d
            .cover(bag.index())
            .map(|e| NaiveRelation::from_relation(&db.relations()[e.index()]));
        let children = tree
            .children(bag)
            .iter()
            .filter(|_| messages)
            .map(|c| bags[c.index()].clone().expect("children build first"));
        let joined = cover
            .chain(children)
            .map(|r| r.project(nodes))
            .reduce(|acc, r| acc.join(&r))
            .expect("every bag has a cover");
        bags[bag.index()] = Some(joined.project(nodes));
    }
    bags.into_iter().flatten().collect()
}

/// A governor that records, for every allocation the engine charges, the
/// bag being built ([`Governor::at_bag`]) and the charged row width.
#[derive(Clone, Default)]
struct BagWidthWatch {
    bag: Arc<AtomicUsize>,
    charges: Arc<Mutex<Vec<(usize, usize)>>>,
}

impl Governor for BagWidthWatch {
    const ENABLED: bool = true;

    fn at_bag(&self, bag: usize) -> Result<(), EngineError> {
        self.bag.store(bag, Ordering::Relaxed);
        Ok(())
    }

    fn approve_alloc(&self, _rows: u64, width: usize) -> Result<(), EngineError> {
        let bag = self.bag.load(Ordering::Relaxed);
        self.charges.lock().unwrap().push((bag, width));
        Ok(())
    }
}

/// Fixed regression: the rewrite must remove exactly the same number of
/// dangling tuples as the pre-rewrite reducer did (the reference preserves
/// its semantics) on the canonical chain instance of the yannakakis tests.
#[test]
fn full_reduce_removed_counts_regression() {
    let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["C", "D"]]).unwrap();
    let (a, b, c, d) = (
        h.node("A").unwrap(),
        h.node("B").unwrap(),
        h.node("C").unwrap(),
        h.node("D").unwrap(),
    );
    let mut db = Database::empty(h);
    for i in 0..5i64 {
        db.insert(EdgeId(0), Tuple::from_pairs([(a, i), (b, i)]));
    }
    for i in 0..3i64 {
        db.insert(EdgeId(1), Tuple::from_pairs([(b, i), (c, i * 10)]));
    }
    db.insert(EdgeId(1), Tuple::from_pairs([(b, 99), (c, 990)]));
    for i in 0..2i64 {
        db.insert(EdgeId(2), Tuple::from_pairs([(c, i * 10), (d, i + 100)]));
    }
    let tree = join_tree(db.schema()).unwrap();
    let fast = full_reduce(&db, &tree);
    let (_, naive_removed) = naive_full_reduce(&db, &tree);
    assert_eq!(fast.removed, naive_removed);
    assert_eq!(fast.total_removed(), naive_removed.iter().sum::<usize>());
    assert!(
        fast.total_removed() > 0,
        "instance must contain dangling tuples"
    );
}
