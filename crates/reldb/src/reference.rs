//! The naive reference engine: the pre-columnar implementation, retained.
//!
//! Before the columnar rewrite, every tuple was an owned attribute→value
//! map and every relation a `BTreeSet` of such tuples; joins and semijoins
//! indexed *cloned projected tuples*.  That implementation lives on here,
//! verbatim in spirit, for two jobs:
//!
//! * **test oracle** — the equivalence property suites check the columnar
//!   kernels tuple-for-tuple against these functions on random databases;
//! * **benchmark baseline** — `hyperq bench` and benchmark B4 time the
//!   reference engine next to the columnar engine, so the speedup the
//!   rewrite bought stays measured instead of remembered.
//!
//! Nothing here is optimized, and nothing here should be: its value is
//! being obviously correct.

use crate::database::Database;
use crate::relation::{Relation, Tuple};
use acyclic::JoinTree;
use hypergraph::{EdgeId, NodeSet};
use std::collections::{BTreeMap, BTreeSet};

/// A relation in the reference representation: an attribute set plus an
/// ordered set of owned tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveRelation {
    /// The attribute set.
    pub attributes: NodeSet,
    /// The tuples, in canonical order.
    pub tuples: BTreeSet<Tuple>,
}

impl NaiveRelation {
    /// An empty reference relation over `attributes`.
    pub(crate) fn new(attributes: NodeSet) -> Self {
        Self {
            attributes,
            tuples: BTreeSet::new(),
        }
    }

    /// Decodes a columnar [`Relation`] into the reference representation.
    pub fn from_relation(r: &Relation) -> Self {
        Self {
            attributes: r.attributes().clone(),
            tuples: r.tuples().collect(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// True if the columnar relation `r` holds exactly these tuples over the
    /// same attributes — the tuple-for-tuple agreement check used by the
    /// equivalence property suites.  Equal lengths plus set equality: a
    /// duplicated row in `r` cannot stand in for a missing one.
    pub fn agrees_with(&self, r: &Relation) -> bool {
        self.attributes == *r.attributes()
            && self.len() == r.len()
            && r.tuples().collect::<BTreeSet<_>>() == self.tuples
    }

    /// Projection with duplicate elimination (naive: clones every tuple).
    pub fn project(&self, attrs: &NodeSet) -> NaiveRelation {
        let kept = self.attributes.intersection(attrs);
        NaiveRelation {
            tuples: self.tuples.iter().map(|t| t.project(&kept)).collect(),
            attributes: kept,
        }
    }

    /// Natural join (naive: index of cloned projected tuples).
    pub fn join(&self, other: &NaiveRelation) -> NaiveRelation {
        let shared = self.attributes.intersection(&other.attributes);
        let mut index: BTreeMap<Tuple, Vec<&Tuple>> = BTreeMap::new();
        for t in &other.tuples {
            index.entry(t.project(&shared)).or_default().push(t);
        }
        let mut out = NaiveRelation::new(self.attributes.union(&other.attributes));
        for t in &self.tuples {
            if let Some(matches) = index.get(&t.project(&shared)) {
                for m in matches {
                    if let Some(joined) = t.join(m) {
                        out.tuples.insert(joined);
                    }
                }
            }
        }
        out
    }

    /// Semijoin (naive: set of cloned projected key tuples).
    pub fn semijoin(&self, other: &NaiveRelation) -> NaiveRelation {
        let shared = self.attributes.intersection(&other.attributes);
        let keys: BTreeSet<Tuple> = other.tuples.iter().map(|t| t.project(&shared)).collect();
        NaiveRelation {
            attributes: self.attributes.clone(),
            tuples: self
                .tuples
                .iter()
                .filter(|t| keys.contains(&t.project(&shared)))
                .cloned()
                .collect(),
        }
    }
}

/// The reference Yannakakis full reducer: the same two semijoin passes as
/// [`full_reduce`](crate::full_reduce), run on reference relations.
/// Returns the reduced relations and the tuples removed from each.
pub fn naive_full_reduce(db: &Database, tree: &JoinTree) -> (Vec<NaiveRelation>, Vec<usize>) {
    let mut relations: Vec<NaiveRelation> = db
        .relations()
        .iter()
        .map(NaiveRelation::from_relation)
        .collect();
    let before: Vec<usize> = relations.iter().map(NaiveRelation::len).collect();
    let order = tree.bottom_up_order();
    for &child in &order {
        if let Some(parent) = tree.parent(child) {
            relations[parent.index()] =
                relations[parent.index()].semijoin(&relations[child.index()]);
        }
    }
    for &child in order.iter().rev() {
        if let Some(parent) = tree.parent(child) {
            relations[child.index()] =
                relations[child.index()].semijoin(&relations[parent.index()]);
        }
    }
    let removed = relations
        .iter()
        .zip(before)
        .map(|(r, b)| b - r.len())
        .collect();
    (relations, removed)
}

/// The reference Yannakakis join: the same full-reduce + bottom-up join +
/// projection pipeline as [`yannakakis_join`](crate::yannakakis_join), run
/// on reference relations — the pre-rewrite B4 hot path, preserved as the
/// benchmark's "before" engine.
pub fn naive_yannakakis_join(db: &Database, tree: &JoinTree, output: &NodeSet) -> NaiveRelation {
    let (relations, _) = naive_full_reduce(db, tree);

    let keep_for = |e: EdgeId| -> NodeSet {
        let own = db.schema().edges()[e.index()].nodes.clone();
        let mut keep = own.intersection(output);
        if let Some(p) = tree.parent(e) {
            keep.union_with(&own.intersection(&db.schema().edges()[p.index()].nodes));
        }
        keep
    };

    let mut partial: Vec<Option<NaiveRelation>> = vec![None; relations.len()];
    for e in tree.bottom_up_order() {
        let mut acc = relations[e.index()].clone();
        for c in tree.children(e) {
            let child = partial[c.index()].take().expect("children processed first");
            acc = acc.join(&child);
        }
        let mut keep = keep_for(e);
        keep.union_with(&acc.attributes.intersection(output));
        acc = acc.project(&keep);
        partial[e.index()] = Some(acc);
    }
    partial[tree.root().index()]
        .take()
        .expect("root processed last")
        .project(output)
}

/// The reference full join of every relation of `db`.
pub fn naive_full_join(db: &Database) -> NaiveRelation {
    let mut it = db.relations().iter().map(NaiveRelation::from_relation);
    let Some(mut acc) = it.next() else {
        return NaiveRelation::new(NodeSet::new());
    };
    for r in it {
        acc = acc.join(&r);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::{EdgeId, Hypergraph};

    fn sample() -> (Database, Relation, Relation) {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap();
        let (a, b, c) = (
            h.node("A").unwrap(),
            h.node("B").unwrap(),
            h.node("C").unwrap(),
        );
        let mut db = Database::empty(h);
        db.insert(EdgeId(0), Tuple::from_pairs([(a, 1), (b, 10)]));
        db.insert(EdgeId(0), Tuple::from_pairs([(a, 2), (b, 20)]));
        db.insert(EdgeId(1), Tuple::from_pairs([(b, 10), (c, 5)]));
        db.insert(EdgeId(1), Tuple::from_pairs([(b, 10), (c, 6)]));
        let r = db.relations()[0].clone();
        let s = db.relations()[1].clone();
        (db, r, s)
    }

    #[test]
    fn reference_matches_columnar_on_fixed_case() {
        let (db, r, s) = sample();
        let (nr, ns) = (
            NaiveRelation::from_relation(&r),
            NaiveRelation::from_relation(&s),
        );
        assert!(nr.join(&ns).agrees_with(&r.join(&s)));
        assert!(nr.semijoin(&ns).agrees_with(&r.semijoin(&s)));
        assert!(ns.semijoin(&nr).agrees_with(&s.semijoin(&r)));
        let x = db.attributes(["A", "B"]).unwrap();
        assert!(nr.project(&x).agrees_with(&r.project(&x)));
        assert!(naive_full_join(&db).agrees_with(&db.full_join()));
        assert!(!nr.is_empty());
    }

    #[test]
    fn naive_reducer_counts_match_columnar() {
        let (db, _, _) = sample();
        let tree = acyclic::join_tree(db.schema()).unwrap();
        let (rels, removed) = naive_full_reduce(&db, &tree);
        let fast = crate::full_reduce(&db, &tree);
        assert_eq!(removed, fast.removed);
        for (n, f) in rels.iter().zip(&fast.relations) {
            assert!(n.agrees_with(f));
        }
    }

    #[test]
    fn naive_yannakakis_matches_columnar() {
        let (db, _, _) = sample();
        let tree = acyclic::join_tree(db.schema()).unwrap();
        for attrs in [vec!["A", "C"], vec!["A", "B", "C"], vec!["B"]] {
            let x = db.attributes(attrs.iter().copied()).unwrap();
            let slow = naive_yannakakis_join(&db, &tree, &x);
            let fast = crate::yannakakis_join(&db, &tree, &x);
            assert!(slow.agrees_with(&fast), "mismatch for {attrs:?}");
        }
    }
}
