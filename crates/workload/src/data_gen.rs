//! Relation-instance generators for a schema hypergraph.
//!
//! Two regimes matter for the experiments:
//!
//! * [`random_database`] — independent random tuples per relation, with a
//!   tunable domain size controlling join selectivity.  Such instances
//!   usually contain dangling tuples, which is what makes the Yannakakis
//!   full reducer shine in benchmark B4.
//! * [`consistent_database`] — the globally consistent repair of a random
//!   instance (every relation is a projection of the full join), the regime
//!   in which universal-relation query answering via canonical connections
//!   agrees with the join-everything semantics.

use hypergraph::{EdgeId, Hypergraph, NodeSet};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use reldb::{make_globally_consistent, Database, Tuple};

/// The benchmark-B4 query attributes of a schema: the two "far apart"
/// attributes (the first attribute of the first edge and the last of the
/// last edge) — shared by `hyperq bench` and the `benchmark/` harness so
/// both measure the same query.
///
/// # Panics
/// Panics if the schema has no edges or an empty edge.
pub fn far_apart(h: &Hypergraph) -> NodeSet {
    let first = h.edges()[0].nodes.first().expect("nonempty edge");
    let last = h.edges()[h.edge_count() - 1]
        .nodes
        .iter()
        .last()
        .expect("nonempty edge");
    NodeSet::from_ids([first, last])
}

/// Parameters for the random data generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataParams {
    /// Tuples generated per relation (before set-semantics deduplication).
    pub tuples_per_relation: usize,
    /// Every attribute draws values from `0..domain`.
    pub domain: i64,
    /// Zipf skew exponent `s`: `0.0` (the default) draws uniformly; `s > 0`
    /// draws value `k` with probability proportional to `1/(k+1)^s`, so
    /// large `s` concentrates the mass on a few hot keys — the
    /// high-duplicate regime where sort-merge kernels beat hash builds.
    pub skew: f64,
    /// Output bound for skewed workloads: with `key_cap > 0`, a value may
    /// occur at most `key_cap` times per *join column* (an attribute shared
    /// by two or more schema edges) of each relation — a draw that would
    /// exceed the cap deterministically spills to the next under-cap value.
    /// A binary join then emits at most `key_cap²` tuples per key, so the
    /// output stays proportional to the input even under heavy Zipf skew
    /// and the benchmark isolates kernel cost from output size.  `0` (the
    /// default) leaves draws unbounded.  Non-join columns always keep their
    /// raw (skewed) draws.
    pub key_cap: usize,
}

impl Default for DataParams {
    fn default() -> Self {
        Self {
            tuples_per_relation: 64,
            domain: 8,
            skew: 0.0,
            key_cap: 0,
        }
    }
}

/// Inverse-CDF sampler for the (finite) Zipf distribution over
/// `0..domain`: value `k` has probability proportional to `1/(k+1)^s`.
/// The CDF is precomputed once per generator run; each sample is one
/// uniform draw plus a binary search.
struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    fn new(domain: i64, s: f64) -> Self {
        assert!(domain >= 1 && s > 0.0);
        let mut cdf = Vec::with_capacity(domain as usize);
        let mut total = 0.0f64;
        for k in 0..domain {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> i64 {
        // 53-bit uniform in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.cdf.partition_point(|&c| c <= u) as i64
    }
}

/// Fills every relation of `schema` with independent random tuples.
///
/// Tuples are loaded through the column-order bulk path
/// ([`Database::insert_values`]): edge node sets iterate in ascending
/// attribute order, which is exactly the relation's column order, so no
/// per-tuple attribute map is ever built.
pub fn random_database(schema: &Hypergraph, params: DataParams, seed: u64) -> Database {
    assert!(params.domain >= 1);
    assert!(params.skew >= 0.0, "skew must be non-negative");
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = (params.skew > 0.0).then(|| ZipfSampler::new(params.domain, params.skew));
    let mut db = Database::empty(schema.clone());
    let mut row: Vec<i64> = Vec::new();
    for (i, e) in schema.edges().iter().enumerate() {
        // Join columns (attributes shared with another edge) are the ones
        // whose duplication multiplies join outputs; with `key_cap` set,
        // their per-value occurrence counts are tracked and capped.
        let capped: Vec<bool> = e
            .nodes
            .iter()
            .map(|n| params.key_cap > 0 && schema.degree(n) >= 2)
            .collect();
        let mut counts: Vec<Vec<u32>> = capped
            .iter()
            .map(|&c| {
                if c {
                    vec![0u32; params.domain as usize]
                } else {
                    Vec::new()
                }
            })
            .collect();
        for _ in 0..params.tuples_per_relation {
            row.clear();
            for (col, &cap_col) in capped.iter().enumerate() {
                let mut v = match &zipf {
                    None => rng.gen_range(0..params.domain),
                    Some(z) => z.sample(&mut rng),
                };
                if cap_col {
                    let counts = &mut counts[col];
                    if counts[v as usize] >= params.key_cap as u32 {
                        // Deterministic spill: walk to the next value still
                        // under the cap (wrapping).  If every value is at
                        // the cap the raw draw stands — the cap is a bound
                        // on skew, not on the total row count.
                        let mut probe = v;
                        for _ in 0..params.domain {
                            probe = (probe + 1) % params.domain;
                            if counts[probe as usize] < params.key_cap as u32 {
                                v = probe;
                                break;
                            }
                        }
                    }
                    counts[v as usize] += 1;
                }
                row.push(v);
            }
            db.insert_values(EdgeId(i as u32), row.iter().copied());
        }
    }
    db
}

/// A globally consistent database: generate random tuples, take the full
/// join, and re-project every relation from it.
///
/// Joining the projections of a join of projections is idempotent, so the
/// result is exactly consistent.  Note the full join is computed here, so
/// keep `schema` and `params` moderate.
pub fn consistent_database(schema: &Hypergraph, params: DataParams, seed: u64) -> Database {
    let raw = random_database(schema, params, seed);
    make_globally_consistent(&raw)
}

/// The classic pairwise-consistent but globally inconsistent instance over a
/// ring of binary edges: edge `i` relates `x` to `x + [i == k-1]` modulo 2,
/// so every pair of adjacent relations joins but the full cycle cannot
/// close.  Used by the consistency experiment.
pub fn inconsistent_ring_database(k: usize) -> Database {
    let schema = crate::cyclic_gen::ring(k);
    let mut db = Database::empty(schema.clone());
    for (i, e) in schema.edges().iter().enumerate() {
        let nodes: Vec<_> = e.nodes.iter().collect();
        // Nodes are N_i and N_{(i+1) mod k}; order them as (from, to).
        let from = schema.node(&format!("N{i:04}")).expect("ring node");
        let to = schema
            .node(&format!("N{:04}", (i + 1) % k))
            .expect("ring node");
        debug_assert!(nodes.contains(&from) && nodes.contains(&to));
        for x in 0..2i64 {
            let y = if i == k - 1 { (x + 1) % 2 } else { x };
            db.insert(EdgeId(i as u32), Tuple::from_pairs([(from, x), (to, y)]));
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acyclic_gen::chain;
    use reldb::{is_globally_consistent, is_pairwise_consistent};

    #[test]
    fn random_database_is_deterministic_and_sized() {
        let schema = chain(4, 3, 1);
        let a = random_database(&schema, DataParams::default(), 1);
        let b = random_database(&schema, DataParams::default(), 1);
        assert_eq!(a.tuple_count(), b.tuple_count());
        assert!(a.tuple_count() > 0);
        // Set semantics may deduplicate, but never exceed the requested count.
        for r in a.relations() {
            assert!(r.len() <= DataParams::default().tuples_per_relation);
        }
    }

    #[test]
    fn consistent_database_is_globally_consistent() {
        let schema = chain(3, 3, 1);
        let db = consistent_database(
            &schema,
            DataParams {
                tuples_per_relation: 20,
                domain: 3,
                skew: 0.0,
                key_cap: 0,
            },
            42,
        );
        assert!(is_globally_consistent(&db));
        assert!(is_pairwise_consistent(&db));
    }

    #[test]
    fn inconsistent_ring_is_pairwise_but_not_globally_consistent() {
        for k in [3, 4, 5] {
            let db = inconsistent_ring_database(k);
            assert!(
                is_pairwise_consistent(&db),
                "ring({k}) should be pairwise consistent"
            );
            assert!(
                !is_globally_consistent(&db),
                "ring({k}) should not be globally consistent"
            );
            assert!(db.full_join().is_empty());
        }
    }

    #[test]
    fn zipf_skew_concentrates_values() {
        let schema = chain(2, 2, 1);
        let params = DataParams {
            tuples_per_relation: 400,
            domain: 64,
            skew: 1.5,
            key_cap: 0,
        };
        let skewed = random_database(&schema, params, 3);
        let uniform = random_database(
            &schema,
            DataParams {
                skew: 0.0,
                ..params
            },
            3,
        );
        // Count how often the hottest value (0) appears in the first column
        // of the first relation.
        let hot = |db: &Database| {
            db.relations()[0]
                .tuples()
                .filter(|t| {
                    t.iter()
                        .next()
                        .is_some_and(|(_, v)| *v == reldb::Value::Int(0))
                })
                .count()
        };
        assert!(
            hot(&skewed) > 4 * hot(&uniform).max(1),
            "skewed data must concentrate on the hot key: {} vs {}",
            hot(&skewed),
            hot(&uniform)
        );
        // Determinism per seed holds for the skewed path too.
        let again = random_database(&schema, params, 3);
        assert_eq!(skewed.tuple_count(), again.tuple_count());
    }

    #[test]
    fn key_cap_bounds_join_column_duplication() {
        let schema = chain(3, 2, 1);
        let params = DataParams {
            tuples_per_relation: 300,
            domain: 128,
            skew: 1.5,
            key_cap: 4,
        };
        let capped = random_database(&schema, params, 11);
        let uncapped = random_database(
            &schema,
            DataParams {
                key_cap: 0,
                ..params
            },
            11,
        );
        // Every join-column value occurs at most key_cap times per relation.
        let max_dup = |db: &Database| {
            db.relations()
                .iter()
                .flat_map(|r| {
                    r.attributes()
                        .iter()
                        .filter(|&n| schema.degree(n) >= 2)
                        .map(|n| {
                            let mut counts = std::collections::HashMap::new();
                            for t in r.tuples() {
                                *counts.entry(t.get(n).cloned()).or_insert(0usize) += 1;
                            }
                            counts.into_values().max().unwrap_or(0)
                        })
                        .collect::<Vec<_>>()
                })
                .max()
                .unwrap_or(0)
        };
        assert!(
            max_dup(&capped) <= 4,
            "cap violated: {} > 4",
            max_dup(&capped)
        );
        assert!(
            max_dup(&uncapped) > 8,
            "uncapped Zipf draws must concentrate: {}",
            max_dup(&uncapped)
        );
        // Bounded key duplication bounds the join output.
        assert!(capped.full_join().len() < uncapped.full_join().len());
        // Determinism per seed holds for the capped path.
        assert_eq!(
            random_database(&schema, params, 11).tuple_count(),
            capped.tuple_count()
        );
    }

    #[test]
    fn zipf_sampler_covers_and_bounds_domain() {
        let z = ZipfSampler::new(5, 1.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [0usize; 5];
        for _ in 0..2000 {
            let v = z.sample(&mut rng);
            assert!((0..5).contains(&v));
            seen[v as usize] += 1;
        }
        // Monotone-ish head: the hottest value dominates the coldest.
        assert!(seen[0] > seen[4]);
        assert!(seen.iter().all(|&c| c > 0));
    }

    #[test]
    fn small_domain_produces_joinable_data() {
        let schema = chain(3, 2, 1);
        let db = random_database(
            &schema,
            DataParams {
                tuples_per_relation: 30,
                domain: 2,
                skew: 0.0,
                key_cap: 0,
            },
            7,
        );
        assert!(!db.full_join().is_empty());
    }
}
