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
//!    order, one entry per stage level that runs: the Yannakakis engine's
//!    downward pass and join cover only the subtree that connects `X`, and
//!    the connection engine runs those stages over `CC(X)`'s objects.
//!
//! Alongside each: **kernel conservation** — per op kind, every recorded op
//! resolved to exactly one kernel (`hash + sort-merge + dense + enumerate
//! = ops`), no semijoin hashes or enumerates, and every join does one.

use acyclic_hypergraphs::acyclic::{join_tree, JoinTree};
use acyclic_hypergraphs::decomp::{decompose, Heuristic};
use acyclic_hypergraphs::hypergraph::{EdgeId, Hypergraph, NodeSet};
use acyclic_hypergraphs::reldb::{
    full_reduce, plan_connection, query_via_full_join, query_yannakakis, CollectingSink, Database,
    ExecCtx, Phase, QueryMetrics,
};
use acyclic_hypergraphs::workload::paper::fig1;
use acyclic_hypergraphs::workload::{chain, random_database, ring, snowflake, star, DataParams};
use proptest::prelude::*;
use std::borrow::Cow;

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

/// The level timings the Yannakakis engine records after its upward pass
/// over `tree` (or the bag materialization that is one) answering `x`,
/// computed from the tree's depths and `S = tree.connection_subtree(h, x)`:
/// the downward pass from level 1 down to `S`'s deepest level, then — unless
/// `S` is one edge — the join: one level when `x` is two attributes and
/// every separator inside `S` is one (the path expansion), else one join
/// level per depth of `S`, deepest first.
fn after_upward_pass(tree: &JoinTree, h: &Hypergraph, x: &NodeSet) -> Vec<(Phase, usize)> {
    let member = tree.connection_subtree(h, x);
    let s_depths: Vec<usize> = tree
        .levels()
        .iter()
        .enumerate()
        .filter(|(_, level)| level.iter().any(|e| member[e.index()]))
        .map(|(depth, _)| depth)
        .collect();
    let (top, bottom) = (s_depths[0], s_depths[s_depths.len() - 1]);
    let down = (1..=bottom).map(|l| (Phase::ReduceDown, l));
    let nodes = |e: EdgeId| &h.edges()[e.index()].nodes;
    let single_separators = (tree.tree_edges().into_iter())
        .filter(|(c, p)| member[c.index()] && member[p.index()])
        .all(|(c, p)| nodes(c).intersection(nodes(p)).len() == 1);
    let joins = match member.iter().filter(|&&m| m).count() {
        1 => 0,
        _ if x.len() == 2 && single_separators => 1,
        _ => bottom - top + 1,
    };
    down.chain((0..joins).map(|l| (Phase::Join, l))).collect()
}

/// The database the connection engine answers `x` over: the sub-database
/// of `CC(x)`'s objects, or `db` itself when they are every edge or none.
fn connection_db(db: &Database, x: &NodeSet) -> Database {
    let objects = plan_connection(db, x).objects;
    if objects.is_empty() || objects.len() == db.relations().len() {
        return db.clone();
    }
    let edges = objects.iter().map(|&i| db.schema().edges()[i].clone());
    let relations = objects.iter().map(|&i| db.relations()[i].clone());
    Database::new(db.schema().with_edges(edges.collect()), relations.collect())
        .expect("each object keeps its edge")
}

/// A subset of `db`'s attributes drawn by the bits of `pick`, one bit per
/// attribute (schemas here have fewer than 64).
fn subset(db: &Database, pick: u64) -> NodeSet {
    let nodes = db.schema().nodes();
    assert!(nodes.len() < 64, "one bit per attribute");
    let bit = |i: usize| pick >> i & 1 == 1;
    nodes
        .iter()
        .enumerate()
        .filter(|&(i, _)| bit(i))
        .map(|(_, n)| n)
        .collect()
}

/// Kernel conservation for one report: per op kind the four kernel
/// counters add up to `ops`; semijoins run dense or sort-merge and every
/// join hashes or enumerates.
fn kernels_conserved(m: &QueryMetrics) -> Result<(), String> {
    let (joins, semijoins) = (&m.joins, &m.semijoins);
    for (kind, agg) in [("join", joins), ("semijoin", semijoins)] {
        if agg.hash_ops + agg.sortmerge_ops + agg.dense_ops + agg.enumerate_ops != agg.ops {
            return Err(format!(
                "{kind}: hash + sort-merge + dense + enumerate != ops ({agg:?})"
            ));
        }
    }
    if semijoins.hash_ops + semijoins.enumerate_ops != 0 {
        return Err(format!("a semijoin hashed or enumerated ({semijoins:?})"));
    }
    if joins.hash_ops + joins.enumerate_ops != joins.ops {
        return Err(format!("a join neither hashed nor enumerated ({joins:?})"));
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
        for r1 in db.relations() {
            for r0 in db.relations() {
                let sink = CollectingSink::new();
                let mut probe = Cow::Borrowed(r0);
                let removed = ExecCtx::new().metrics(&sink)
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
                prop_assert_eq!(kernels_conserved(&m), Ok(()));
            }
        }
    }

    /// Transparency: the metered reducer and Yannakakis query return
    /// tuple-for-tuple the same answers as the unmetered (no-op sink)
    /// paths.
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
        let sink = CollectingSink::new();
        let metered = ExecCtx::new().metrics(&sink)
            .full_reduce(&db, &tree).expect("nobody can abort");
        let plain = full_reduce(&db, &tree);
        prop_assert_eq!(&metered.removed, &plain.removed);
        for (m, p) in metered.relations.iter().zip(&plain.relations) {
            prop_assert!(m.same_contents(p), "metered reducer changed a relation");
        }
        if !x.is_empty() {
            let sink = CollectingSink::new();
            let metered = ExecCtx::new().metrics(&sink).query_yannakakis(&db, &x);
            prop_assert_eq!(kernels_conserved(&sink.snapshot()), Ok(()));
            let plain = query_yannakakis(&db, &x);
            match (metered, plain) {
                (Ok(m), Ok(p)) => prop_assert!(m.same_contents(&p),
                    "metered query changed the answer"),
                (Err(_), Err(_)) => {}
                (m, p) => prop_assert!(false, "metered {m:?} vs unmetered {p:?}"),
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
        let sink = CollectingSink::new();
        let reduced = ExecCtx::new().metrics(&sink)
            .full_reduce(&db, &tree).expect("nobody can abort");
        let m = sink.snapshot();
        let tree_edges = (db.relations().len() - 1) as u64;
        prop_assert_eq!(m.semijoins.ops, 2 * tree_edges,
            "one upward and one downward semijoin per join-tree edge");
        prop_assert!(m.semijoins.kept <= m.semijoins.probed);
        prop_assert_eq!(kernels_conserved(&m), Ok(()));
        prop_assert_eq!(
            m.semijoins.probed - m.semijoins.kept,
            reduced.total_removed() as u64,
            "rows dropped by semijoins must equal the reducer's removals"
        );
        prop_assert_eq!(stages(&m).len(), 2 * tree.levels().len() - 1,
            "one timing per level of each reducer pass");
    }

    /// Stage order: the Yannakakis engine times the reducer's upward pass
    /// deepest level first — replaced by one decompose and one materialize
    /// entry on a cyclic schema, where building the bags is that pass —
    /// then the downward pass towards and inside `S`, the smallest subtree
    /// covering `x`, then the join levels of `S`.  The connection engine
    /// records the stages the Yannakakis engine records over the
    /// sub-database of `CC(x)`'s objects; the naive engine times one join
    /// entry at level 0.
    #[test]
    fn levels_follow_the_pipeline_stage_order(
        family in 0usize..4,
        shape in 0usize..4,
        tuples in 1usize..24,
        domain in 1i64..6,
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let db = if family == 3 {
            db_over(&ring(4 + shape % 3), tuples, domain, seed)
        } else {
            db_for(family, shape, tuples, domain, seed)
        };
        let x = subset(&db, pick);

        let sink = CollectingSink::new();
        ExecCtx::new().metrics(&sink).query_yannakakis(&db, &x).expect("nobody can abort");
        let report = sink.snapshot();
        let want: Vec<(Phase, usize)> = match join_tree(db.schema()) {
            Some(tree) => {
                let up = (0..tree.levels().len()).rev().map(|l| (Phase::ReduceUp, l));
                up.chain(after_upward_pass(&tree, db.schema(), &x)).collect()
            }
            None => {
                // The bag tree is the engine's pick: rebuild it from the
                // heuristic the report names.
                let heuristic = match report.widths.map(|w| w.chosen) {
                    Some("min-degree") => Heuristic::MinDegree,
                    _ => Heuristic::MinFill,
                };
                let d = decompose(db.schema(), heuristic).expect("nonempty schema");
                let built = [(Phase::Decompose, 0), (Phase::Materialize, 0)];
                built.into_iter().chain(after_upward_pass(d.tree(), d.bags(), &x)).collect()
            }
        };
        prop_assert_eq!(stages(&report), want);

        let sink = CollectingSink::new();
        ExecCtx::new().metrics(&sink).query_via_connection(&db, &x).expect("nobody can abort");
        let over_objects = CollectingSink::new();
        ExecCtx::new()
            .metrics(&over_objects)
            .query_yannakakis(&connection_db(&db, &x), &x)
            .expect("nobody can abort");
        prop_assert_eq!(stages(&sink.snapshot()), stages(&over_objects.snapshot()));
        let sink = CollectingSink::new();
        ExecCtx::new().metrics(&sink).query_via_full_join(&db, &x).expect("nobody can abort");
        prop_assert_eq!(stages(&sink.snapshot()), vec![(Phase::Join, 0)]);
    }
}

/// Fig. 1's join tree hangs ABC, CDE and AEF off the root ACE.  `{A, E}`
/// lies in the root, so the query is the upward pass and a projection: no
/// downward level, no join.  `{A, D}` needs ACE and CDE (Example 3.3): one
/// downward level and one join.
#[test]
fn a_query_inside_the_root_runs_no_downward_pass_and_no_join() {
    let db = db_over(&fig1(), 12, 3, 7);
    let tree = join_tree(db.schema()).expect("Fig. 1 is acyclic");
    assert_eq!(db.schema().edges()[tree.root().index()].label, "A-C-E");
    let up = [(Phase::ReduceUp, 1), (Phase::ReduceUp, 0)];
    for (names, tail, joins) in [
        (["A", "E"], vec![], 0),
        (
            ["A", "D"],
            vec![(Phase::ReduceDown, 1), (Phase::Join, 0), (Phase::Join, 1)],
            1,
        ),
    ] {
        let x = db.attributes(names).unwrap();
        let sink = CollectingSink::new();
        let answer = ExecCtx::new()
            .metrics(&sink)
            .query_yannakakis(&db, &x)
            .expect("nobody can abort");
        assert!(answer.same_contents(&query_via_full_join(&db, &x)));
        let m = sink.snapshot();
        let want: Vec<(Phase, usize)> = up.into_iter().chain(tail).collect();
        assert_eq!(stages(&m), want, "{names:?}");
        assert_eq!(m.joins.ops, joins, "{names:?}");
        assert_eq!(m.semijoins.ops, 3 + joins, "{names:?}");
    }
}
