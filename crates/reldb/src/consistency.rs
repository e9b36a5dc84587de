//! Pairwise versus global consistency.
//!
//! A database is *pairwise consistent* when every two relations agree on
//! their shared attributes (neither loses tuples when semijoined with the
//! other), and *globally consistent* when every relation is exactly the
//! projection of the full join (no relation has dangling tuples).
//!
//! Globally consistent always implies pairwise consistent.  The converse is
//! the celebrated characterization of acyclicity (Beeri–Fagin–Maier–
//! Yannakakis, the paper's reference [4]): pairwise consistency implies
//! global consistency **for every instance** exactly when the schema is
//! acyclic.  The cyclic triangle schema has pairwise consistent instances
//! whose full join is empty — the classic counterexample, covered by the
//! tests below and by the workload generators.

use crate::database::Database;
use crate::relation::Relation;

/// True if every pair of relations is consistent: semijoining either with
/// the other removes no tuples.
pub fn is_pairwise_consistent(db: &Database) -> bool {
    let rels = db.relations();
    for i in 0..rels.len() {
        for j in 0..rels.len() {
            if i == j {
                continue;
            }
            if rels[i].semijoin(&rels[j]).len() != rels[i].len() {
                return false;
            }
        }
    }
    true
}

/// True if every relation equals the projection of the full join onto its
/// attributes (no dangling tuples anywhere).
pub fn is_globally_consistent(db: &Database) -> bool {
    let full = db.full_join();
    db.relations()
        .iter()
        .all(|r| full.project(r.attributes()).same_contents(r))
}

/// Makes a database globally consistent by replacing every relation with the
/// projection of the full join — the semantic "repair" used to build
/// consistent test instances.
pub fn make_globally_consistent(db: &Database) -> Database {
    let full = db.full_join();
    let relations: Vec<Relation> = db
        .relations()
        .iter()
        .map(|r| full.project(r.attributes()).with_name(r.name().to_owned()))
        .collect();
    Database::new(db.schema().clone(), relations).expect("schema unchanged")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Tuple;
    use hypergraph::{EdgeId, Hypergraph};

    /// The classic triangle counterexample: pairwise consistent, globally
    /// inconsistent.
    fn triangle_db() -> Database {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"], vec!["A", "C"]]).unwrap();
        let (a, b, c) = (
            h.node("A").unwrap(),
            h.node("B").unwrap(),
            h.node("C").unwrap(),
        );
        let mut db = Database::empty(h);
        // R(A,B) = {(0,0), (1,1)}; S(B,C) = {(0,1), (1,0)}; T(A,C) = {(0,0), (1,1)}
        // Every pair joins compatibly but the three-way join is empty.
        db.insert(EdgeId(0), Tuple::from_pairs([(a, 0), (b, 0)]));
        db.insert(EdgeId(0), Tuple::from_pairs([(a, 1), (b, 1)]));
        db.insert(EdgeId(1), Tuple::from_pairs([(b, 0), (c, 1)]));
        db.insert(EdgeId(1), Tuple::from_pairs([(b, 1), (c, 0)]));
        db.insert(EdgeId(2), Tuple::from_pairs([(a, 0), (c, 0)]));
        db.insert(EdgeId(2), Tuple::from_pairs([(a, 1), (c, 1)]));
        db
    }

    #[test]
    fn triangle_is_pairwise_but_not_globally_consistent() {
        let db = triangle_db();
        assert!(is_pairwise_consistent(&db));
        assert!(!is_globally_consistent(&db));
        assert!(db.full_join().is_empty());
        // So every tuple of every relation dangles.
        assert!(db.relations().iter().all(|r| r.len() == 2));
    }

    #[test]
    fn acyclic_chain_with_dangling_tuple_is_not_pairwise_consistent() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap();
        let (a, b, c) = (
            h.node("A").unwrap(),
            h.node("B").unwrap(),
            h.node("C").unwrap(),
        );
        let mut db = Database::empty(h);
        db.insert(EdgeId(0), Tuple::from_pairs([(a, 1), (b, 1)]));
        db.insert(EdgeId(0), Tuple::from_pairs([(a, 2), (b, 2)])); // dangling
        db.insert(EdgeId(1), Tuple::from_pairs([(b, 1), (c, 1)]));
        assert!(!is_pairwise_consistent(&db));
        assert!(!is_globally_consistent(&db));
        let repaired = make_globally_consistent(&db);
        assert!(is_globally_consistent(&repaired));
        assert!(is_pairwise_consistent(&repaired));
        assert_eq!(repaired.relation(EdgeId(0)).len(), 1);
    }

    #[test]
    fn global_consistency_implies_pairwise() {
        let db = triangle_db();
        let repaired = make_globally_consistent(&db);
        assert!(is_globally_consistent(&repaired));
        assert!(is_pairwise_consistent(&repaired));
    }

    #[test]
    fn empty_database_is_consistent() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap();
        let db = Database::empty(h);
        assert!(is_pairwise_consistent(&db));
        assert!(is_globally_consistent(&db));
    }
}
