//! Equivalence property suite: the columnar engine against the retained
//! naive reference implementation (`reldb::reference`).
//!
//! Random acyclic databases come from the workload generators; every core
//! kernel — join, semijoin, projection, selection, the full reducer and the
//! Yannakakis join — must agree with the reference tuple-for-tuple.  This is
//! the safety net under the columnar rewrite: the reference is the
//! pre-rewrite engine kept alive as an oracle.

use acyclic_hypergraphs::acyclic::join_tree;
use acyclic_hypergraphs::decomp::{decompose, Decomposition, Heuristic};
use acyclic_hypergraphs::hypergraph::{Hypergraph, NodeSet};
use acyclic_hypergraphs::reldb::reference::{
    naive_full_join, naive_full_reduce, naive_yannakakis_join, NaiveRelation,
};
use acyclic_hypergraphs::reldb::{
    full_reduce, full_reduce_with, yannakakis_join, yannakakis_join_with, CollectingSink, Database,
    EngineError, ExecCtx, ExecPolicy, Governor, JoinStrategy, Relation, Tuple, Value, WorkerPool,
    DEFAULT_MORSEL_ROWS,
};
use acyclic_hypergraphs::workload::{
    chain, far_apart, hyper_ring, pair_clique, random_database, ring, snowflake, snowflake_tree,
    star, DataParams,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One of the acyclic benchmark schema families, scaled by `shape`.
fn schema(family: usize, shape: usize) -> Hypergraph {
    match family % 4 {
        0 => chain(2 + shape % 4, 2 + shape % 2, 1),
        1 => star(2 + shape % 4, 2),
        2 => snowflake(2 + shape % 2, 2, 2),
        // The fanout-tree snowflake: multi-edge join-tree levels, the shape
        // that exercises the parallel reducer's target-sharding.
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
        pick in 0usize..64,
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        let tree = join_tree(db.schema()).expect("generator schemas are acyclic");
        let all: Vec<_> = db.schema().nodes().iter().collect();
        let output: NodeSet = all
            .iter()
            .enumerate()
            .filter(|(i, _)| pick & (1 << (i % 6)) != 0)
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
        prop_assert!(s_own.same_contents(&s_shared));
        prop_assert!(r.join(&s_own).same_contents(&r.join(&s_shared)));
        prop_assert!(r.semijoin(&s_own).same_contents(&r.semijoin(&s_shared)));
        // The sort-merge kernels translate handles exactly like the hash
        // kernels do.
        prop_assert!(r
            .join_with(&s_own, JoinStrategy::SortMerge)
            .same_contents(&r.join(&s_shared)));
        prop_assert!(r
            .semijoin_with(&s_own, JoinStrategy::SortMerge)
            .same_contents(&r.semijoin(&s_shared)));
        prop_assert_eq!(r.semijoin_count(&s_own), r.semijoin_count(&s_shared));
    }

    /// The level-synchronous parallel reducer is tuple-for-tuple identical
    /// to the sequential pass and to the reference oracle, across schema
    /// families (chains stress probe-sharding, fanout trees stress
    /// target-sharding) and Zipf-skewed data.
    #[test]
    fn parallel_full_reduce_matches_sequential_and_reference(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..32,
        domain in 1i64..8,
        skew_tenths in 0usize..16,
        seed in 0u64..1_000,
        threads in 2usize..6,
    ) {
        let db = db_for_skewed(family, shape, tuples, domain, skew_tenths as f64 / 10.0, seed);
        let tree = join_tree(db.schema()).expect("generator schemas are acyclic");
        let sequential = full_reduce_with(&db, &tree, &ExecPolicy::sequential(JoinStrategy::Hash));
        let parallel = full_reduce_with(&db, &tree, &ExecPolicy::parallel(JoinStrategy::Hash, threads));
        prop_assert_eq!(&sequential.removed, &parallel.removed, "removed counts diverged");
        for (s, p) in sequential.relations.iter().zip(&parallel.relations) {
            prop_assert!(s.same_contents(p), "parallel reducer diverged from sequential");
        }
        let (naive_rels, naive_removed) = naive_full_reduce(&db, &tree);
        prop_assert_eq!(&parallel.removed, &naive_removed, "removed counts diverged from oracle");
        for (n, p) in naive_rels.iter().zip(&parallel.relations) {
            prop_assert!(n.agrees_with(p), "parallel reducer diverged from oracle");
        }
    }

    /// The sort-merge kernels and the auto cost-pick agree with the hash
    /// kernels and the reference oracle on joins and semijoins, including
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
                let naive_join = naive[i].join(&naive[j]);
                let naive_semi = naive[i].semijoin(&naive[j]);
                for strategy in [JoinStrategy::SortMerge, JoinStrategy::Auto] {
                    prop_assert!(
                        naive_join.agrees_with(&rels[i].join_with(&rels[j], strategy)),
                        "{strategy:?} join diverged on relations {i}×{j}"
                    );
                    prop_assert!(
                        naive_semi.agrees_with(&rels[i].semijoin_with(&rels[j], strategy)),
                        "{strategy:?} semijoin diverged on relations {i}⋉{j}"
                    );
                }
            }
        }
    }

    /// The level-synchronous parallel bottom-up join is tuple-for-tuple
    /// identical to the sequential join and the reference oracle, across
    /// schema families (fanout snowflake trees have multi-edge levels, so
    /// sibling subtree jobs genuinely fan out; chains degrade to the
    /// sequential per-level path), Zipf-skewed data, random projections,
    /// and both worker modes (leased pool and spawn-per-batch).
    #[test]
    fn parallel_bottom_up_join_matches_sequential_and_reference(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..24,
        domain in 1i64..6,
        skew_tenths in 0usize..16,
        seed in 0u64..1_000,
        threads in 2usize..6,
        pick in 0usize..64,
    ) {
        let db = db_for_skewed(family, shape, tuples, domain, skew_tenths as f64 / 10.0, seed);
        let tree = join_tree(db.schema()).expect("generator schemas are acyclic");
        let output: NodeSet = db
            .schema()
            .nodes()
            .iter()
            .enumerate()
            .filter(|(i, _)| pick & (1 << (i % 6)) != 0)
            .map(|(_, n)| n)
            .collect();
        let sequential =
            yannakakis_join_with(&db, &tree, &output, &ExecPolicy::sequential(JoinStrategy::Hash));
        for policy in [
            ExecPolicy::parallel(JoinStrategy::Hash, threads),
            ExecPolicy::parallel(JoinStrategy::Auto, threads),
        ] {
            let parallel = yannakakis_join_with(&db, &tree, &output, &policy);
            prop_assert!(
                sequential.same_contents(&parallel),
                "parallel join diverged from sequential under {:?}",
                policy
            );
        }
        let slow = naive_yannakakis_join(&db, &tree, &output);
        prop_assert!(slow.agrees_with(&sequential), "sequential diverged from oracle");
    }

    /// The parallel pipeline also holds when the database's relations were
    /// built independently (one value pool each): every semijoin and join
    /// in both phases pays the cross-pool handle translation, and the
    /// result still matches the oracle and the sequential engine.
    #[test]
    fn parallel_pipeline_matches_on_cross_pool_relations(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..16,
        domain in 1i64..5,
        seed in 0u64..1_000,
        threads in 2usize..5,
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        let split_db = with_private_pools(&db);
        let split = split_db.relations();
        for (a, b) in split.iter().zip(split.iter().skip(1)) {
            prop_assert!(!a.pool().same_pool(b.pool()));
        }
        let tree = join_tree(db.schema()).expect("generator schemas are acyclic");
        let output = db.schema().nodes();
        let want = yannakakis_join_with(&db, &tree, &output, &ExecPolicy::sequential(JoinStrategy::Hash));
        for policy in [
            ExecPolicy::sequential(JoinStrategy::Hash),
            ExecPolicy::parallel(JoinStrategy::Hash, threads),
            ExecPolicy::parallel(JoinStrategy::Auto, threads),
        ] {
            let got = yannakakis_join_with(&split_db, &tree, &output, &policy);
            prop_assert!(
                want.same_contents(&got),
                "cross-pool pipeline diverged under {:?}",
                policy
            );
        }
        let slow = naive_yannakakis_join(&split_db, &tree, &output);
        prop_assert!(slow.agrees_with(&want), "cross-pool oracle diverged");
    }

    /// Morsel-driven execution is tuple-for-tuple identical to the
    /// sequential engine and the reference oracle at every morsel size:
    /// one-row morsels (maximal scheduling interleaving), the default, and
    /// morsels larger than any input (degenerating to one chunk per scan).
    /// Covers both pipeline phases — reduce and the bottom-up join with its
    /// materialized output — across schema families and Zipf skew.
    #[test]
    fn morsel_sizes_match_sequential_and_reference(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..32,
        domain in 1i64..6,
        skew_tenths in 0usize..16,
        seed in 0u64..1_000,
        threads in 2usize..6,
        pick in 0usize..64,
    ) {
        let db = db_for_skewed(family, shape, tuples, domain, skew_tenths as f64 / 10.0, seed);
        let tree = join_tree(db.schema()).expect("generator schemas are acyclic");
        let output: NodeSet = db
            .schema()
            .nodes()
            .iter()
            .enumerate()
            .filter(|(i, _)| pick & (1 << (i % 6)) != 0)
            .map(|(_, n)| n)
            .collect();
        let sequential = ExecPolicy::sequential(JoinStrategy::Hash);
        let reduced = full_reduce_with(&db, &tree, &sequential);
        let joined = yannakakis_join_with(&db, &tree, &output, &sequential);
        for morsel_rows in [1usize, 3, DEFAULT_MORSEL_ROWS, usize::MAX / 2] {
            let policy = ExecPolicy {
                morsel_rows,
                ..ExecPolicy::parallel(JoinStrategy::Hash, threads)
            };
            let r = full_reduce_with(&db, &tree, &policy);
            prop_assert_eq!(&reduced.removed, &r.removed,
                "removed counts diverged at morsel_rows={}", morsel_rows);
            for (s, p) in reduced.relations.iter().zip(&r.relations) {
                prop_assert!(s.same_contents(p),
                    "morsel reducer diverged at morsel_rows={morsel_rows}");
            }
            let j = yannakakis_join_with(&db, &tree, &output, &policy);
            prop_assert!(joined.same_contents(&j),
                "morsel join diverged at morsel_rows={morsel_rows}");
        }
        let (naive_rels, naive_removed) = naive_full_reduce(&db, &tree);
        prop_assert_eq!(&reduced.removed, &naive_removed, "reduce diverged from oracle");
        for (n, s) in naive_rels.iter().zip(&reduced.relations) {
            prop_assert!(n.agrees_with(s), "reduced contents diverged from oracle");
        }
        let slow = naive_yannakakis_join(&db, &tree, &output);
        prop_assert!(slow.agrees_with(&joined), "join diverged from oracle");
    }

    /// The full Yannakakis pipeline agrees with the reference under every
    /// policy combination (strategy × parallelism) on skewed data.
    #[test]
    fn yannakakis_policies_match_reference_on_skewed_data(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..16,
        domain in 1i64..5,
        skew_tenths in 0usize..14,
        seed in 0u64..1_000,
        pick in 0usize..64,
    ) {
        let db = db_for_skewed(family, shape, tuples, domain, skew_tenths as f64 / 10.0, seed);
        let tree = join_tree(db.schema()).expect("generator schemas are acyclic");
        let output: NodeSet = db
            .schema()
            .nodes()
            .iter()
            .enumerate()
            .filter(|(i, _)| pick & (1 << (i % 6)) != 0)
            .map(|(_, n)| n)
            .collect();
        let slow = naive_yannakakis_join(&db, &tree, &output);
        for policy in [
            ExecPolicy::sequential(JoinStrategy::SortMerge),
            ExecPolicy::sequential(JoinStrategy::Auto),
            ExecPolicy::parallel(JoinStrategy::Auto, 3),
        ] {
            let fast = yannakakis_join_with(&db, &tree, &output, &policy);
            prop_assert!(slow.agrees_with(&fast), "yannakakis diverged under {:?}", policy);
        }
    }
}

/// Every strategy a semijoin can run under: `Auto` (the dense bitset
/// kernel wherever the packed key space fits, sort-merge past it) and the
/// two pinned kernels.
const STRATEGIES: [JoinStrategy; 3] = [
    JoinStrategy::Auto,
    JoinStrategy::Hash,
    JoinStrategy::SortMerge,
];

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
    /// grew after the relations were built — by a little (still dense) or
    /// by enough that `Auto` must fall back to sorting.  `Auto`, pinned
    /// `Hash` and pinned `SortMerge` agree with the reference tuple for
    /// tuple on `semijoin_with` and `retain_semijoin_with`, removed count
    /// included, and `Auto` runs the kernel the eligibility rule predicts
    /// with the counters the hash kernel reports.
    #[test]
    fn auto_semijoin_matches_pinned_kernels_and_reference(
        shared in 0usize..4,
        left_extra in 0usize..2,
        right_extra in 0usize..2,
        left_rows in 0usize..24,
        right_rows in 0usize..24,
        domain in 1i64..5,
        cross_pool in any::<bool>(),
        grow in 0usize..3,
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
        grow_pool(left.pool(), [0, 3, 2_000][grow]);

        let naive =
            NaiveRelation::from_relation(&left).semijoin(&NaiveRelation::from_relation(&right));
        for strategy in STRATEGIES {
            prop_assert!(
                naive.agrees_with(&left.semijoin_with(&right, strategy)),
                "{strategy:?} semijoin_with diverged from the reference"
            );
            let mut in_place = left.clone();
            let removed = in_place.retain_semijoin_with(&right, strategy);
            prop_assert_eq!(removed, left.len() - naive.len(), "{:?} removed count", strategy);
            prop_assert!(
                naive.agrees_with(&in_place),
                "{strategy:?} retain_semijoin_with diverged from the reference"
            );
        }

        // The kernel `Auto` resolved to, and its counters next to pinned hash's.
        let metered = |strategy| {
            let sink = CollectingSink::new();
            ExecCtx::new(&ExecPolicy::sequential(strategy))
                .metrics(&sink)
                .retain_semijoin(&mut left.clone(), &right)
                .expect("nobody can abort");
            sink.snapshot().semijoins
        };
        let (auto, hash) = (metered(JoinStrategy::Auto), metered(JoinStrategy::Hash));
        let fits = (left.pool().len() as u128).pow(shared as u32)
            <= 8 * (left.len() + right.len()) as u128 + 1024;
        let expect_dense = u64::from(shared > 0 && fits);
        prop_assert_eq!(auto.dense_ops, expect_dense, "eligibility rule ({:?})", auto);
        prop_assert_eq!(auto.hash_ops + auto.sortmerge_ops, 1 - expect_dense);
        prop_assert_eq!((auto.probed, auto.kept, auto.build_rows),
            (hash.probed, hash.kept, hash.build_rows));
        if expect_dense == 1 {
            prop_assert_eq!(auto.built, hash.built, "distinct build keys");
        }
    }

    /// The full reducer over chains whose separators are 1, 2 and 3 columns
    /// wide — shared pool, one pool per relation, and a pool grown after
    /// the load — removes exactly what the reference removes under `Auto`
    /// and both pinned kernels, and under `Auto` every semijoin whose key
    /// space fits takes the dense kernel.
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
        for strategy in STRATEGIES {
            let fast = full_reduce_with(&db, &tree, &ExecPolicy::sequential(strategy));
            prop_assert_eq!(&fast.removed, &naive_removed, "{:?} removed counts", strategy);
            for (n, f) in naive_rels.iter().zip(&fast.relations) {
                prop_assert!(n.agrees_with(f), "{strategy:?} reduced contents diverged");
            }
        }
        let sink = CollectingSink::new();
        ExecCtx::new(&ExecPolicy::sequential(JoinStrategy::Auto))
            .metrics(&sink)
            .full_reduce(&db, &tree)
            .expect("nobody can abort");
        let m = sink.snapshot().semijoins;
        prop_assert_eq!(m.ops, 2 * (edges as u64 - 1));
        prop_assert_eq!(m.hash_ops, 0);
        if grow < 2 {
            // ≤ 3 + 3 + 1 values per pool: 7³ < 1024, every key space fits.
            prop_assert_eq!(m.dense_ops, m.ops, "a fitting semijoin sorted: {:?}", m);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Join kernels emit without re-deduplicating, so the set property is
    /// checked where it is produced: under every strategy, inline and
    /// through a 2-worker lease with morsels small enough to engage the
    /// morsel probe, a join's rows are pairwise distinct and are the
    /// reference's — over 0–3 shared columns (0 = cross product), operands
    /// with one schema (join = intersection), empty and zero-width sides,
    /// and a right operand in an unrelated pool holding values the left has
    /// never seen.  An insert into the output afterwards still deduplicates,
    /// building the deferred index exactly once.
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
        let lease = WorkerPool::lease(2);
        for strategy in STRATEGIES {
            let inline = left.join_with(&right, strategy);
            prop_assert!(is_the_set(&want, &inline), "{strategy:?} inline join");
            let policy = ExecPolicy {
                morsel_rows: 2,
                ..ExecPolicy::parallel(strategy, 2)
            };
            let morsel = ExecCtx::new(&policy)
                .join_on_lease(&left, &right, &lease)
                .expect("the no-op governor never aborts");
            prop_assert!(is_the_set(&want, &morsel), "{strategy:?} morsel join");
            prop_assert_eq!(inline.handle_rows(), morsel.handle_rows(), "{:?} row order", strategy);

            let mut out = inline;
            if out.is_empty() || out.columns().is_empty() {
                continue;
            }
            prop_assert_eq!(out.index_rebuild_count(), 0, "the output's index is deferred");
            let (first, last) = (out.tuple_at(0), out.tuple_at(out.len() - 1));
            prop_assert!(!out.insert(first), "{strategy:?}: duplicate accepted");
            prop_assert!(!out.insert(last), "{strategy:?}: duplicate accepted");
            let fresh = Tuple::from_pairs(out.columns().iter().map(|&a| (a, 7_777)));
            prop_assert!(out.insert(fresh), "{strategy:?}: new tuple rejected");
            prop_assert_eq!(out.index_rebuild_count(), 1, "one rebuild serves every insert");
            prop_assert_eq!(out.len(), want.len() + 1);
            prop_assert!(rows_distinct(&out));
        }
    }

    /// The pipeline's projections: with every attribute in the output each
    /// one is the identity (rows move, nothing is hashed); with a far-apart
    /// pair each one drops a column (and must deduplicate).  Either way the
    /// answer is a set and the reference's, sequentially under each
    /// strategy and on two workers with two-row morsels.
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
        let policies = STRATEGIES.map(ExecPolicy::sequential).into_iter().chain([ExecPolicy {
            morsel_rows: 2,
            parallel_threshold: 0,
            ..ExecPolicy::parallel(JoinStrategy::Auto, 2)
        }]);
        for policy in policies {
            for output in [&all, &ends] {
                let want = naive_yannakakis_join(&db, &tree, output);
                let got = yannakakis_join_with(&db, &tree, output, &policy);
                prop_assert!(
                    is_the_set(&want, &got),
                    "{} attributes under {policy:?}", output.len()
                );
            }
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
        threads in 1usize..3,
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
        let policy = ExecPolicy {
            morsel_rows: 2,
            parallel_threshold: 0,
            ..ExecPolicy::parallel(JoinStrategy::Auto, threads)
        };
        let watch = BagWidthWatch::default();
        let bag_db = ExecCtx::new(&policy)
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
    use acyclic_hypergraphs::hypergraph::EdgeId;
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
