//! The paper's schema-level results, checked exhaustively at small scope.
//!
//! The sweep walks every reduced hypergraph — every antichain of nonempty
//! node sets that uses all its nodes — on `n` labelled nodes, smallest
//! first: by nodes, then by edges.  The first failure is therefore a
//! minimal counterexample in that order, and no shrinker is needed
//! (Jackson's small-scope hypothesis, *Software Abstractions*, 2006;
//! Runciman, Naylor and Lindblad, "SmallCheck and Lazy SmallCheck",
//! Haskell Symposium 2008).  On every schema `H`:
//!
//! * acyclic (GYO) ⇔ a join tree exists ⇔ the MCS test ⇔ the definition;
//! * Graham reduction reaches one fixed point under every rule order
//!   (Lemma 2.1), checked with `X = ∅`.
//!
//! On every acyclic `H` and every `X ⊆ nodes(H)`:
//!
//! * the pass-based `GR(H, X)`, the traced `GR(H, X)` and `TR(H, X)` have
//!   equal edge sets (Theorem 3.5);
//! * the tie rule, written out below, gives equal objects from all three,
//!   and the planner's objects are those;
//! * the objects form an acyclic hypergraph;
//! * `GR(S, X) = CC(H, X)` for the join subtree `S` the Yannakakis engine
//!   answers from (`JoinTree::connection_subtree`).
//!
//! `n ≤ 5` runs here; `n = 6` is ignored by default and runs in release:
//! `cargo test --release --test small_scope -- --ignored`.

use acyclic_hypergraphs::acyclic::{
    canonical_connection, graham_reduce, graham_reduction, is_acyclic_mcs, is_confluent, join_tree,
    AcyclicityExt, Strategy,
};
use acyclic_hypergraphs::hypergraph::{Hypergraph, NodeSet};
use acyclic_hypergraphs::reldb::{plan_connection, Database};

const NAMES: [&str; 6] = ["A", "B", "C", "D", "E", "F"];

/// Calls `visit` with every antichain of exactly `k` nonempty subsets of
/// `n ≤ 6` nodes, as ascending bitmasks, whose union is all `n` nodes.
fn antichains(n: u32, k: usize, visit: &mut impl FnMut(&[u32])) {
    let masks = 1u32..1 << n;
    // Bit `b` of `comparable[a]` is set when mask `b` is a subset or a
    // superset of mask `a`: choosing `a` rules those masks out.
    let comparable = (0..1u32 << n)
        .map(|a| {
            masks
                .clone()
                .filter(|&b| a & b == a || a & b == b)
                .fold(0, |bits, b| bits | 1 << b)
        })
        .collect();
    let mut walk = Walk {
        k,
        full: (1 << n) - 1,
        comparable,
        chosen: Vec::with_capacity(k),
        visit,
    };
    walk.grow(masks.fold(0, |bits, m| bits | 1 << m));
}

/// The depth-first walk behind [`antichains`].
struct Walk<'a, F> {
    k: usize,
    full: u32,
    comparable: Vec<u64>,
    chosen: Vec<u32>,
    visit: &'a mut F,
}

impl<F: FnMut(&[u32])> Walk<'_, F> {
    /// Extends `chosen` to `k` masks from `allowed`: the masks above the
    /// last chosen one and incomparable with every chosen one.
    fn grow(&mut self, allowed: u64) {
        let missing = self.k - self.chosen.len();
        if missing == 0 {
            if self.chosen.iter().fold(0, |u, m| u | m) == self.full {
                (self.visit)(&self.chosen);
            }
            return;
        }
        if (allowed.count_ones() as usize) < missing {
            return;
        }
        let mut rest = allowed;
        while rest != 0 {
            let m = rest.trailing_zeros();
            rest &= rest - 1;
            self.chosen.push(m);
            self.grow(rest & !self.comparable[m as usize]);
            self.chosen.pop();
        }
    }
}

/// The hypergraph whose edges are the node sets `masks`, nodes named
/// `A`, `B`, … by bit.
fn hypergraph(masks: &[u32]) -> Hypergraph {
    Hypergraph::from_edges(masks.iter().map(|&m| {
        (0..NAMES.len())
            .filter(|&b| m >> b & 1 == 1)
            .map(|b| NAMES[b])
            .collect::<Vec<_>>()
    }))
    .unwrap()
}

/// The tie rule: each partial edge of `connection` maps to the
/// lowest-indexed edge of `schema` that contains it.
fn tie_rule(schema: &Hypergraph, connection: &Hypergraph) -> Vec<usize> {
    let mut objects: Vec<usize> = connection
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

/// The sub-hypergraph of `h` made of the edges `member` marks.
fn edges_of(h: &Hypergraph, member: impl Fn(usize) -> bool) -> Hypergraph {
    let edges = h.edges().iter().enumerate();
    h.with_edges(
        edges
            .filter(|(i, _)| member(*i))
            .map(|(_, e)| e.clone())
            .collect(),
    )
}

/// Every subset of `h`'s nodes.
fn subsets(h: &Hypergraph) -> Vec<NodeSet> {
    let nodes: Vec<_> = h.nodes().iter().collect();
    (0..1u32 << nodes.len())
        .map(|bits| {
            let chosen = nodes.iter().enumerate().filter(|(b, _)| bits >> b & 1 == 1);
            chosen.map(|(_, &n)| n).collect()
        })
        .collect()
}

/// How much a sweep checked.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counts {
    schemas: usize,
    acyclic: usize,
    pairs: usize,
}

/// Checks one schema, and every `X` on it when it is acyclic; panics with
/// the schema and `X` at the first failure.
fn check(h: &Hypergraph, counts: &mut Counts) {
    let shown = h.display();
    let acyclic = h.is_acyclic();
    let tree = join_tree(h);
    assert_eq!(tree.is_some(), acyclic, "join tree vs GYO on {shown}");
    assert_eq!(is_acyclic_mcs(h), acyclic, "MCS vs GYO on {shown}");
    assert_eq!(
        h.is_acyclic_by_definition(),
        acyclic,
        "the definition vs GYO on {shown}"
    );
    assert!(
        is_confluent(h, &NodeSet::new(), 2),
        "not confluent: {shown}"
    );
    counts.schemas += 1;
    let Some(tree) = tree else { return };
    counts.acyclic += 1;
    let db = Database::empty(h.clone());
    for x in subsets(h) {
        let at = format!("{shown} with X = {}", x.display(h.universe()));
        let gr = graham_reduction(h, &x);
        let traced = graham_reduce(h, &x, Strategy::NodesFirst).result;
        let tr = canonical_connection(h, &x);
        assert!(gr.same_edge_sets(&tr), "GR != TR: {at}");
        assert!(traced.same_edge_sets(&tr), "traced GR != TR: {at}");
        let objects = tie_rule(h, &tr);
        assert_eq!(tie_rule(h, &gr), objects, "GR's objects: {at}");
        assert_eq!(tie_rule(h, &traced), objects, "traced GR's objects: {at}");
        assert_eq!(
            plan_connection(&db, &x).objects,
            objects,
            "planner's objects: {at}"
        );
        assert!(
            edges_of(h, |i| objects.contains(&i)).is_acyclic(),
            "cyclic objects {objects:?}: {at}"
        );
        let member = tree.connection_subtree(h, &x);
        let s = edges_of(h, |i| member[i]);
        assert!(
            graham_reduction(&s, &x).same_edge_sets(&tr),
            "GR(S, X) != CC(H, X): {at}"
        );
        counts.pairs += 1;
    }
}

/// Sweeps every schema on `n` nodes, for each `n` in `nodes`, smallest
/// first.
fn sweep(nodes: std::ops::RangeInclusive<u32>) -> Counts {
    let mut counts = Counts::default();
    for n in nodes {
        // No antichain on `n` nodes is wider than the middle layer.
        let widest = (1..=n / 2).fold(1, |c, i| c * (n + 1 - i) / i) as usize;
        for k in 1..=widest {
            antichains(n, k, &mut |masks| check(&hypergraph(masks), &mut counts));
        }
    }
    counts
}

/// The schema counts are the numbers of antichains covering an `n`-set
/// (OEIS A006126: 1, 2, 9, 114, 6 894 and 7 785 062 for `n` = 1 to 6), so
/// they pin the enumeration as well as the checks.
#[test]
fn every_schema_on_up_to_five_nodes() {
    let counts = sweep(1..=5);
    assert_eq!(
        counts,
        Counts {
            schemas: 7_020,
            acyclic: 894,
            pairs: 27_354,
        }
    );
}

#[test]
#[ignore = "about 6 minutes in a release build; CI runs it with --release --ignored"]
fn every_schema_on_six_nodes() {
    let counts = sweep(6..=6);
    assert_eq!(
        counts,
        Counts {
            schemas: 7_785_062,
            acyclic: 18_154,
            pairs: 1_161_856,
        }
    );
}
