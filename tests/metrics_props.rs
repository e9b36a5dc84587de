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
//!    join tree implies and times every level of both passes.
//! 4. **Stage order** — every engine's level timings come in pipeline
//!    order, one entry per stage level.
//!
//! Alongside each: **kernel conservation** — per op kind, every recorded op
//! resolved to exactly one kernel (`hash + sort-merge + dense = ops`), no
//! semijoin hashes and no join runs the dense kernel under any policy, and a
//! pinned hash join never resolves to another kernel.

use acyclic_hypergraphs::acyclic::join_tree;
use acyclic_hypergraphs::hypergraph::{Hypergraph, NodeSet};
use acyclic_hypergraphs::reldb::{
    full_reduce, query_yannakakis, CollectingSink, Database, ExecCtx, ExecPolicy, JoinStrategy,
    Phase, QueryMetrics,
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
    db_over(&schema(family, shape), tuples, domain, seed)
}

fn db_over(schema: &Hypergraph, tuples: usize, domain: i64, seed: u64) -> Database {
    random_database(
        schema,
        DataParams {
            tuples_per_relation: tuples,
            domain,
            skew: 0.0,
            key_cap: 0,
        },
        seed,
    )
}

/// A report's level timings as `(phase, level)`, in recording order.
fn stages(m: &QueryMetrics) -> Vec<(Phase, usize)> {
    m.levels.iter().map(|l| (l.phase, l.level)).collect()
}

/// The full reducer's and the bottom-up join's level timings over a tree
/// of `depth` levels: the upward pass deepest level first, the downward
/// pass top-down from level 1, then the join bottom-up.
fn reducer_then_join(depth: usize) -> Vec<(Phase, usize)> {
    let up = (0..depth).rev().map(|l| (Phase::ReduceUp, l));
    let down = (1..depth).map(|l| (Phase::ReduceDown, l));
    let join = (0..depth).map(|l| (Phase::Join, l));
    up.chain(down).chain(join).collect()
}

/// Every policy the metrics layer instruments: both pinned join kernels and
/// the calibrated Auto planner whose join picks depend on the sampled
/// ratios.
fn policies() -> [ExecPolicy; 3] {
    [
        ExecPolicy::sequential(JoinStrategy::Hash),
        ExecPolicy::sequential(JoinStrategy::SortMerge),
        ExecPolicy::sequential(JoinStrategy::Auto),
    ]
}

/// Kernel conservation for one report: per op kind the three kernel
/// counters add up to `ops`; semijoins run dense or sort-merge and joins
/// hash or sort-merge, whatever the policy; and a pinned `Hash` join
/// resolves nowhere else.  (Pinned `SortMerge` may still report hash joins:
/// a key-less cross product has no key to sort and is recorded under the
/// hash kernel.)
fn kernels_conserved(m: &QueryMetrics, strategy: JoinStrategy) -> Result<(), String> {
    let (joins, semijoins) = (&m.joins, &m.semijoins);
    for (kind, agg) in [("join", joins), ("semijoin", semijoins)] {
        if agg.hash_ops + agg.sortmerge_ops + agg.dense_ops != agg.ops {
            return Err(format!(
                "{kind}: hash + sort-merge + dense != ops ({agg:?})"
            ));
        }
    }
    if semijoins.hash_ops != 0 {
        return Err(format!("a semijoin hashed ({semijoins:?})"));
    }
    if joins.dense_ops != 0 {
        return Err(format!("a join ran the dense kernel ({joins:?})"));
    }
    if strategy == JoinStrategy::Hash && joins.hash_ops != joins.ops {
        return Err(format!("pinned hash join resolved elsewhere ({joins:?})"));
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
    /// conserves rows across them, and times every level of both passes.
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
            prop_assert_eq!(stages(&m).len(), 2 * tree.levels().len() - 1,
                "one timing per level of each reducer pass");
        }
    }

    /// Stage order: the Yannakakis engine times the reducer's upward pass
    /// deepest level first, then its downward pass, then the join levels —
    /// after one decompose and one materialize entry on a cyclic schema;
    /// the connection and naive engines time one join entry at level 0.
    #[test]
    fn levels_follow_the_pipeline_stage_order(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..24,
        domain in 1i64..6,
        seed in any::<u64>(),
    ) {
        let db = if family == 3 {
            db_over(&ring(4 + shape % 3), tuples, domain, seed)
        } else {
            db_for(family, shape, tuples, domain, seed)
        };
        let x: NodeSet = db.schema().nodes().iter().take(2).collect();
        let policy = ExecPolicy::default();

        let sink = CollectingSink::new();
        ExecCtx::new(&policy).metrics(&sink).query_yannakakis(&db, &x).expect("nobody can abort");
        let got = stages(&sink.snapshot());
        let (tail, depth) = match join_tree(db.schema()) {
            Some(tree) => (&got[..], tree.levels().len()),
            None => {
                prop_assert_eq!(&got[..2], &[(Phase::Decompose, 0), (Phase::Materialize, 0)]);
                // The bag tree is the engine's pick: read its depth off the upward pass.
                let tail = &got[2..];
                (tail, tail.iter().filter(|(p, _)| *p == Phase::ReduceUp).count())
            }
        };
        prop_assert_eq!(tail, &reducer_then_join(depth)[..]);

        let sink = CollectingSink::new();
        ExecCtx::new(&policy).metrics(&sink).query_via_connection(&db, &x).expect("nobody can abort");
        prop_assert_eq!(stages(&sink.snapshot()), vec![(Phase::Join, 0)]);
        let sink = CollectingSink::new();
        ExecCtx::new(&policy).metrics(&sink).query_via_full_join(&db, &x).expect("nobody can abort");
        prop_assert_eq!(stages(&sink.snapshot()), vec![(Phase::Join, 0)]);
    }
}
