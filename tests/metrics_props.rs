//! Property suite for the metrics layer: instrumentation must observe the
//! engine, never perturb it.
//!
//! Three invariant families over random acyclic databases:
//!
//! 1. **Conservation** — a (semi)join can only keep rows it probed, and a
//!    semijoin's `kept` counter is exactly the surviving cardinality.
//! 2. **Transparency** — running any pipeline under a [`CollectingSink`]
//!    yields tuple-for-tuple the same answer as the unmetered path (which
//!    is the same code monomorphized over [`NoopMetrics`]).
//! 3. **Coverage** — a metered reducer run accounts for every semijoin the
//!    join tree implies and times at least one level.
//!
//! Alongside each: **kernel conservation** — per op kind, every recorded op
//! resolved to exactly one kernel (`hash + sort-merge + dense = ops`), and a
//! pinned strategy never resolves to another kernel.

use acyclic_hypergraphs::acyclic::join_tree;
use acyclic_hypergraphs::decomp::{decompose, Heuristic};
use acyclic_hypergraphs::hypergraph::{Hypergraph, NodeSet};
use acyclic_hypergraphs::reldb::{
    full_reduce, query_yannakakis, yannakakis_join_decomposed, CollectingSink, Database, ExecCtx,
    ExecPolicy, JoinStrategy, QueryMetrics,
};
use acyclic_hypergraphs::workload::{chain, random_database, ring, snowflake, star, DataParams};
use proptest::prelude::*;

/// One of the acyclic benchmark schema families, scaled by `shape`.
fn schema(family: usize, shape: usize) -> Hypergraph {
    match family % 3 {
        0 => chain(2 + shape % 4, 2 + shape % 2, 1),
        1 => star(2 + shape % 4, 2),
        _ => snowflake(2 + shape % 2, 2, 2),
    }
}

fn db_for(family: usize, shape: usize, tuples: usize, domain: i64, seed: u64) -> Database {
    random_database(
        &schema(family, shape),
        DataParams {
            tuples_per_relation: tuples,
            domain,
            skew: 0.0,
            key_cap: 0,
        },
        seed,
    )
}

/// Every engine the metrics layer instruments, including the calibrated
/// Auto planner whose kernel picks depend on the sampled ratios.
fn policies() -> [ExecPolicy; 3] {
    [
        ExecPolicy::sequential(JoinStrategy::Hash),
        ExecPolicy::sequential(JoinStrategy::SortMerge),
        ExecPolicy::sequential(JoinStrategy::Auto),
    ]
}

/// Kernel conservation for one report: per op kind the three kernel
/// counters add up to `ops`, the dense kernel runs only under `Auto`, and
/// pinned `Hash` resolves nowhere else.  (Pinned `SortMerge` may still
/// report hash ops: a key-less cross product / nonempty test has no key to
/// sort and is recorded under the hash kernel.)
fn kernels_conserved(m: &QueryMetrics, strategy: JoinStrategy) -> Result<(), String> {
    for (kind, agg) in [("join", &m.joins), ("semijoin", &m.semijoins)] {
        if agg.hash_ops + agg.sortmerge_ops + agg.dense_ops != agg.ops {
            return Err(format!(
                "{kind}: hash + sort-merge + dense != ops ({agg:?})"
            ));
        }
        if strategy != JoinStrategy::Auto && agg.dense_ops != 0 {
            return Err(format!(
                "{kind}: pinned {strategy:?} ran the dense kernel ({agg:?})"
            ));
        }
        if strategy == JoinStrategy::Hash && agg.hash_ops != agg.ops {
            return Err(format!("{kind}: pinned hash resolved elsewhere ({agg:?})"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation at operation granularity: for every relation pair, a
    /// metered semijoin probes at least as many rows as it keeps, and the
    /// kept counter is exactly the surviving cardinality.
    #[test]
    fn semijoin_counters_conserve_rows(
        family in 0usize..3,
        shape in 0usize..4,
        tuples in 1usize..24,
        domain in 1i64..6,
        seed in any::<u64>(),
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        for policy in policies() {
            for r1 in db.relations() {
                for r0 in db.relations() {
                    let sink = CollectingSink::new();
                    let mut probe = r0.clone();
                    let removed = ExecCtx::new(&policy).metrics(&sink)
                        .retain_semijoin(&mut probe, r1).expect("nobody can abort");
                    let m = sink.snapshot();
                    prop_assert_eq!(m.joins.ops, 0, "a semijoin must not record joins");
                    prop_assert_eq!(m.semijoins.ops, 1);
                    prop_assert!(m.semijoins.kept <= m.semijoins.probed,
                        "kept {} > probed {}", m.semijoins.kept, m.semijoins.probed);
                    prop_assert_eq!(m.semijoins.kept, probe.len() as u64,
                        "kept must equal the surviving cardinality");
                    prop_assert_eq!(m.semijoins.probed, r0.len() as u64,
                        "a semijoin probes every input row exactly once");
                    prop_assert_eq!(removed, r0.len() - probe.len());
                    prop_assert_eq!(kernels_conserved(&m, policy.strategy), Ok(()));
                }
            }
        }
    }

    /// Transparency: the metered reducer and Yannakakis query return
    /// tuple-for-tuple the same answers as the unmetered (no-op sink)
    /// paths, under every kernel strategy.
    #[test]
    fn collecting_sink_does_not_perturb_results(
        family in 0usize..3,
        shape in 0usize..4,
        tuples in 1usize..24,
        domain in 1i64..6,
        seed in any::<u64>(),
        selector in any::<u64>(),
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        let tree = join_tree(db.schema()).expect("schemas are acyclic by construction");
        let nodes: Vec<_> = db.schema().nodes().iter().collect();
        let x: NodeSet = nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| selector & (1 << (i % 63)) != 0)
            .map(|(_, &n)| n)
            .collect();
        for policy in policies() {
            let sink = CollectingSink::new();
            let metered = ExecCtx::new(&policy).metrics(&sink)
                .full_reduce(&db, &tree).expect("nobody can abort");
            let plain = full_reduce(&db, &tree);
            prop_assert_eq!(&metered.removed, &plain.removed);
            for (m, p) in metered.relations.iter().zip(&plain.relations) {
                prop_assert!(m.same_contents(p), "metered reducer changed a relation");
            }
            if !x.is_empty() {
                let sink = CollectingSink::new();
                let metered = ExecCtx::new(&policy).metrics(&sink).query_yannakakis(&db, &x);
                prop_assert_eq!(kernels_conserved(&sink.snapshot(), policy.strategy), Ok(()));
                let plain = query_yannakakis(&db, &x);
                match (metered, plain) {
                    (Ok(m), Ok(p)) => prop_assert!(m.same_contents(&p),
                        "metered query changed the answer"),
                    (Err(_), Err(_)) => {}
                    (m, p) => prop_assert!(false, "metered {m:?} vs unmetered {p:?}"),
                }
            }
        }
    }

    /// Coverage: a metered full reduce records exactly the semijoins the
    /// join tree implies (one up and one down per parent-child edge),
    /// conserves rows across them, and times at least one level.
    #[test]
    fn full_reduce_accounts_for_every_semijoin(
        family in 0usize..3,
        shape in 0usize..4,
        tuples in 1usize..24,
        domain in 1i64..6,
        seed in any::<u64>(),
    ) {
        let db = db_for(family, shape, tuples, domain, seed);
        let tree = join_tree(db.schema()).expect("schemas are acyclic by construction");
        for policy in policies() {
            let sink = CollectingSink::new();
            let reduced = ExecCtx::new(&policy).metrics(&sink)
                .full_reduce(&db, &tree).expect("nobody can abort");
            let m = sink.snapshot();
            let tree_edges = (db.relations().len() - 1) as u64;
            prop_assert_eq!(m.semijoins.ops, 2 * tree_edges,
                "one upward and one downward semijoin per join-tree edge");
            prop_assert!(m.semijoins.kept <= m.semijoins.probed);
            prop_assert_eq!(kernels_conserved(&m, policy.strategy), Ok(()));
            prop_assert_eq!(
                m.semijoins.probed - m.semijoins.kept,
                reduced.total_removed() as u64,
                "rows dropped by semijoins must equal the reducer's removals"
            );
            if tree_edges > 0 {
                prop_assert!(!m.levels.is_empty(), "no level timings recorded");
                prop_assert!(m.levels.iter().any(|l| l.jobs > 0));
            }
            prop_assert!(!m.leases.is_empty(), "the reducer leases workers exactly once");
        }
    }
}

/// Regression for the carried-over lease item: the decomposed cyclic
/// pipeline — bag materialization, both reducer passes and the bottom-up
/// join — acquires **one** worker lease per query.  It used to lease once
/// per phase (materialize, then reduce+join), doubling pool traffic and
/// letting a concurrent query steal workers between the phases.
#[test]
fn decomposed_pipeline_leases_workers_exactly_once() {
    let schema = ring(5);
    let db = random_database(
        &schema,
        DataParams {
            tuples_per_relation: 48,
            domain: 8,
            skew: 0.0,
            key_cap: 0,
        },
        7,
    );
    let d = decompose(db.schema(), Heuristic::MinFill).expect("rings are nonempty");
    let output: NodeSet = db.schema().nodes().iter().collect();
    let mut policies = vec![
        ExecPolicy::sequential(JoinStrategy::Hash),
        ExecPolicy::parallel(JoinStrategy::Auto, 2),
    ];
    // A pooled lease too: drop the threshold so 240 tuples go parallel.
    let mut pooled = ExecPolicy::parallel(JoinStrategy::Hash, 2);
    pooled.parallel_threshold = 1;
    policies.push(pooled);
    for policy in policies {
        let sink = CollectingSink::new();
        let got = ExecCtx::new(&policy)
            .metrics(&sink)
            .yannakakis_join_decomposed(&db, &d, &output)
            .expect("nobody can abort");
        let want = yannakakis_join_decomposed(&db, &d, &output, &ExecPolicy::default());
        assert!(got.same_contents(&want), "lease sharing changed the answer");
        let m = sink.snapshot();
        assert_eq!(
            m.leases.len(),
            1,
            "decomposed pipeline must lease exactly once (threads={})",
            policy.threads
        );
    }
}

/// The acyclic pipeline held this invariant already — keep it pinned.
#[test]
fn acyclic_pipeline_leases_workers_exactly_once() {
    let db = db_for(0, 2, 20, 4, 11);
    let x: NodeSet = db.schema().nodes().iter().collect();
    for policy in [
        ExecPolicy::sequential(JoinStrategy::Hash),
        ExecPolicy::parallel(JoinStrategy::Auto, 2),
    ] {
        let sink = CollectingSink::new();
        ExecCtx::new(&policy)
            .metrics(&sink)
            .query_yannakakis(&db, &x)
            .expect("full output is joinable");
        assert_eq!(sink.snapshot().leases.len(), 1);
    }
}
