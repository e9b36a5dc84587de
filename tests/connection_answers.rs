//! The Yannakakis engine answers `π_X` from the smallest join subtree that
//! covers `X` (`JoinTree::connection_subtree`): after the upward pass it
//! runs the downward pass and the join only there.  The connection engine
//! runs that engine over the sub-database of `CC(X)`'s objects.  This suite
//! holds both to the `reldb::reference` oracle for *every* `X` of up to six
//! attributes — not a sample — on data with dangling tuples, across the
//! chain, star, snowflake, ring, hyper-ring and clique families; holds the
//! planner's objects to tableau reduction's under the tie rule, so the
//! Graham-reduction route is checked against the definition and not
//! against itself; checks Theorem 3.5 on the subtree the engine picks; and
//! pins the edge cases a pruned plan could get wrong.

use acyclic_hypergraphs::acyclic::{canonical_connection, graham_reduction, join_tree};
use acyclic_hypergraphs::hypergraph::{EdgeId, Hypergraph, NodeSet};
use acyclic_hypergraphs::reldb::reference::{naive_full_join, NaiveRelation};
use acyclic_hypergraphs::reldb::{
    full_reduce, plan_connection, query_via_connection, query_via_full_join, query_yannakakis,
    yannakakis_join, CollectingSink, Database, ExecCtx, QueryGovernor,
};
use acyclic_hypergraphs::workload::paper::fig1;
use acyclic_hypergraphs::workload::{
    chain, hyper_ring, pair_clique, random_database, ring, snowflake, snowflake_tree, star,
    DataParams,
};

/// Every subset of `nodes` with at most `k` members, the empty set
/// included.
fn subsets_up_to(nodes: &NodeSet, k: usize) -> Vec<NodeSet> {
    let mut out = vec![NodeSet::new()];
    for n in nodes.iter() {
        let grown: Vec<NodeSet> = out
            .iter()
            .filter(|s| s.len() < k)
            .map(|s| {
                let mut s = s.clone();
                s.insert(n);
                s
            })
            .collect();
        out.extend(grown);
    }
    out
}

/// Small random data over `schema`: a narrow domain, so joins match, and
/// few rows, so plenty of them dangle.
fn small_db(schema: &Hypergraph, seed: u64) -> Database {
    let params = DataParams {
        tuples_per_relation: 10,
        domain: 6,
        skew: 0.0,
        key_cap: 0,
    };
    random_database(schema, params, seed)
}

/// The six-attribute bound of the exhaustive sweeps.
const MAX_X: usize = 6;

/// `CC(X)`'s objects by the definition, independently of the engine's
/// planner: tableau reduction, then the tie rule written out — each
/// partial edge maps to the lowest-indexed schema edge that contains it.
fn cc_objects(schema: &Hypergraph, x: &NodeSet) -> Vec<usize> {
    let mut objects: Vec<usize> = canonical_connection(schema, x)
        .edges()
        .iter()
        .map(|partial| {
            (0..schema.edge_count())
                .find(|&i| partial.nodes.is_subset(&schema.edges()[i].nodes))
                .expect("a schema edge holds every partial edge")
        })
        .collect();
    objects.sort_unstable();
    objects.dedup();
    objects
}

/// The §7 answer by the reference engine: the naive join of `objects`,
/// projected onto `X`.  No object (`X = ∅`) answers the full join's
/// projection.
fn connection_oracle(
    db: &Database,
    objects: &[usize],
    x: &NodeSet,
    everything: &NaiveRelation,
) -> NaiveRelation {
    let joined = objects
        .iter()
        .map(|&i| NaiveRelation::from_relation(&db.relations()[i]))
        .reduce(|acc, r| acc.join(&r));
    joined.as_ref().unwrap_or(everything).project(x)
}

/// Acyclic families: for every `X` of up to six attributes both engines'
/// answers are the oracle's, and the subtree the Yannakakis engine answers
/// from reduces to the canonical connection — `GR(S, X) = CC(H, X)`,
/// compared as sets of node sets (several objects can hold `X`, like
/// Fig. 1's `ACE` and `AEF` for `{A, E}`, so object indices are not
/// compared).  The planner's objects, read off Graham reduction on these
/// schemas, are tableau reduction's under the tie rule.  `CC(X)`'s objects
/// are acyclic, so a metered connection query reports no decomposition:
/// it always runs over a join tree.
#[test]
fn every_x_on_acyclic_families_matches_the_oracle_and_theorem_3_5() {
    let families = [
        ("fig1", fig1()),
        ("chain", chain(6, 2, 1)),
        ("star", star(4, 2)),
        ("snowflake", snowflake(2, 2, 2)),
        ("snowflake-tree", snowflake_tree(2, 2, 2)),
    ];
    for (name, schema) in families {
        let tree = join_tree(&schema).expect("acyclic family");
        let xs = subsets_up_to(&schema.nodes(), MAX_X);
        for x in &xs {
            let member = tree.connection_subtree(&schema, x);
            let objects = schema.edges().iter().zip(&member);
            let s = schema.with_edges(
                objects
                    .filter(|(_, &m)| m)
                    .map(|(e, _)| e.clone())
                    .collect(),
            );
            assert!(
                graham_reduction(&s, x).same_edge_sets(&canonical_connection(&schema, x)),
                "{name}: GR(S, X) != CC(H, X) for X = {x:?}"
            );
        }
        let cc: Vec<Vec<usize>> = xs.iter().map(|x| cc_objects(&schema, x)).collect();
        for seed in [3, 11] {
            let db = small_db(&schema, seed);
            assert!(
                full_reduce(&db, &tree).total_removed() > 0,
                "{name} seed {seed}: the data must dangle"
            );
            let everything = naive_full_join(&db);
            for (x, objects) in xs.iter().zip(&cc) {
                let got = yannakakis_join(&db, &tree, x);
                assert!(
                    everything.project(x).agrees_with(&got),
                    "{name} seed {seed}: answer diverged for X = {x:?}"
                );
                assert_eq!(
                    plan_connection(&db, x).objects,
                    *objects,
                    "{name}: objects differ from TR's for X = {x:?}"
                );
                let sink = CollectingSink::new();
                let got = ExecCtx::new()
                    .metrics(&sink)
                    .query_via_connection(&db, x)
                    .expect("nobody can abort");
                assert!(
                    connection_oracle(&db, objects, x, &everything).agrees_with(&got),
                    "{name} seed {seed}: connection answer diverged for X = {x:?}"
                );
                assert_eq!(
                    sink.snapshot().widths,
                    None,
                    "{name} seed {seed}: CC(X) decomposed for X = {x:?}"
                );
            }
        }
    }
}

/// Cyclic families, through the decomposition path: for every `X` of up to
/// six attributes the answer from the bag subtree covering `X` is the
/// oracle's, and so is the connection engine's.
#[test]
fn every_x_on_cyclic_families_matches_the_oracle() {
    let families = [
        ("ring", ring(8)),
        ("hyper-ring", hyper_ring(4, 3)),
        ("clique", pair_clique(5)),
    ];
    for (name, schema) in families {
        assert!(join_tree(&schema).is_none(), "{name} must be cyclic");
        let xs = subsets_up_to(&schema.nodes(), MAX_X);
        let cc: Vec<Vec<usize>> = xs.iter().map(|x| cc_objects(&schema, x)).collect();
        for seed in [3, 11] {
            let db = small_db(&schema, seed);
            let everything = naive_full_join(&db);
            let total: usize = db.relations().iter().map(|r| r.len()).sum();
            let kept: usize = db
                .relations()
                .iter()
                .map(|r| everything.project(r.attributes()).len())
                .sum();
            assert!(kept < total, "{name} seed {seed}: the data must dangle");
            for (x, objects) in xs.iter().zip(&cc) {
                let got = query_yannakakis(&db, x).expect("cyclic");
                assert!(
                    everything.project(x).agrees_with(&got),
                    "{name} seed {seed}: answer diverged for X = {x:?}"
                );
                assert_eq!(
                    plan_connection(&db, x).objects,
                    *objects,
                    "{name}: objects differ from TR's for X = {x:?}"
                );
                let got = query_via_connection(&db, x);
                assert!(
                    connection_oracle(&db, objects, x, &everything).agrees_with(&got),
                    "{name} seed {seed}: connection answer diverged for X = {x:?}"
                );
            }
        }
    }
}

/// A database over binary edges named by their two attributes (`"AB"`),
/// with row `i` inserted into edge `i` (values in attribute-id order).
fn db_of(edges: &[&str], rows: &[[i64; 2]]) -> Database {
    let split = edges
        .iter()
        .map(|e| e.chars().map(String::from).collect::<Vec<_>>());
    let mut db = Database::empty(Hypergraph::from_edges(split).unwrap());
    for (e, row) in rows.iter().enumerate() {
        db.insert_values(EdgeId(e as u32), *row);
    }
    db
}

const CHAIN3: &[&str] = &["AB", "BC", "CD"];
const RING4: &[&str] = &["AB", "BC", "CD", "AD"];

/// An empty relation in a component `X` does not touch still empties the
/// answer — the upward pass runs over the whole tree, and the pruning
/// comes only after it — on an acyclic and on a cyclic schema, for every
/// `X`.
#[test]
fn an_empty_relation_outside_the_connection_empties_every_answer() {
    for (edges, rows) in [
        (CHAIN3, &[[1, 2], [2, 3], [3, 4]][..]),
        (RING4, &[[1, 2], [2, 3], [3, 4], [1, 4]][..]),
    ] {
        assert!(!naive_full_join(&db_of(edges, rows)).is_empty());
        // A second component over fresh attributes, its relation empty.
        let db = db_of(&[edges, &["YZ"]].concat(), rows);
        assert!(naive_full_join(&db).is_empty());
        for x in subsets_up_to(&db.schema().nodes(), MAX_X) {
            let got = query_yannakakis(&db, &x).expect("answers");
            assert!(got.is_empty(), "X = {x:?} answered {} rows", got.len());
        }
    }
}

/// `X = ∅` answers `{()}` exactly when the full join is nonempty, on an
/// acyclic and on a cyclic schema, from every engine.
#[test]
fn the_empty_projection_is_the_empty_tuple_exactly_when_the_join_is_nonempty() {
    for (edges, rows, nonempty) in [
        (CHAIN3, &[[1, 2], [2, 3], [3, 4]][..], true),
        (CHAIN3, &[[1, 2], [2, 3], [4, 5]][..], false),
        (RING4, &[[1, 2], [2, 3], [3, 4], [1, 4]][..], true),
        (RING4, &[[1, 2], [2, 3], [3, 4], [1, 9]][..], false),
    ] {
        let db = db_of(edges, rows);
        assert_eq!(!naive_full_join(&db).is_empty(), nonempty);
        let x = NodeSet::new();
        for (engine, got) in [
            ("yannakakis", query_yannakakis(&db, &x).unwrap()),
            ("connection", query_via_connection(&db, &x)),
            ("naive", query_via_full_join(&db, &x)),
        ] {
            assert!(got.attributes().is_empty(), "{engine}");
            assert_eq!(
                got.len(),
                usize::from(nonempty),
                "{engine}: {edges:?} {rows:?}"
            );
        }
    }
}

/// A skewed six-edge chain queried for its two ends: `CC(X)` is every
/// object, and joining them left-deep holds tens of megabytes of
/// intermediate rows for a far smaller answer.  The connection engine
/// reduces first, so it answers under a 32 MiB budget, as the Yannakakis
/// engine does, and the two answers agree.
#[test]
fn the_connection_engine_answers_a_skewed_chain_within_a_budget() {
    let schema = chain(6, 2, 1);
    let params = DataParams {
        tuples_per_relation: 1500,
        domain: 1500,
        skew: 0.9,
        key_cap: 0,
    };
    let db = random_database(&schema, params, 9);
    let ends = db.attributes(["N00000", "N00006"]).unwrap();
    assert_eq!(plan_connection(&db, &ends).objects, [0, 1, 2, 3, 4, 5]);
    let budget = || QueryGovernor::new().with_memory_budget(32 << 20);
    let want = ExecCtx::new()
        .gov(&budget())
        .query_yannakakis(&db, &ends)
        .expect("the Yannakakis engine fits the budget");
    let got = ExecCtx::new()
        .gov(&budget())
        .query_via_connection(&db, &ends)
        .expect("the connection engine fits the budget");
    assert!(got.same_contents(&want));
    assert!(got.len() > 100_000, "{} rows", got.len());
}
