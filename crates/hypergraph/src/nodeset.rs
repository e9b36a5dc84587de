//! Dynamic bit-set of nodes.
//!
//! Set algebra on node sets dominates the inner loops of Graham reduction,
//! tableau minimization, and articulation-set discovery, so node sets are
//! stored as packed `u64` words rather than sorted vectors or hash sets.

use crate::interner::{NodeId, Universe};
use std::fmt;
use std::ops::{BitAnd, BitOr, Sub};

const BITS: usize = 64;

/// A set of [`NodeId`]s backed by a dynamic bitset.
///
/// The set grows automatically on insertion; all binary operations accept
/// operands of different capacities.
#[derive(Debug, Clone, Default, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set with room for nodes `0..capacity` without
    /// reallocation.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(BITS)],
        }
    }

    /// Builds a set from anything yielding node ids.
    pub fn from_ids<I: IntoIterator<Item = NodeId>>(ids: I) -> Self {
        let mut s = Self::new();
        for id in ids {
            s.insert(id);
        }
        s
    }

    #[inline]
    fn word_bit(id: NodeId) -> (usize, u64) {
        (id.index() / BITS, 1u64 << (id.index() % BITS))
    }

    /// Inserts a node.  Returns `true` if the node was not already present.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let (w, b) = Self::word_bit(id);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let was = self.words[w] & b != 0;
        self.words[w] |= b;
        !was
    }

    /// Removes a node.  Returns `true` if the node was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let (w, b) = Self::word_bit(id);
        if w >= self.words.len() {
            return false;
        }
        let was = self.words[w] & b != 0;
        self.words[w] &= !b;
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        let (w, b) = Self::word_bit(id);
        self.words.get(w).is_some_and(|word| word & b != 0)
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set contains no node.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the node ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(NodeId((wi * BITS + bit) as u32))
                }
            })
        })
    }

    /// Smallest node id in the set, if any.
    pub fn first(&self) -> Option<NodeId> {
        self.iter().next()
    }

    fn binary(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        let n = self.words.len().max(other.words.len());
        let mut words = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.words.get(i).copied().unwrap_or(0);
            let b = other.words.get(i).copied().unwrap_or(0);
            words.push(f(a, b));
        }
        Self { words }
    }

    /// Set union.
    pub fn union(&self, other: &Self) -> Self {
        self.binary(other, |a, b| a | b)
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Self) -> Self {
        self.binary(other, |a, b| a & b)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &Self) -> Self {
        self.binary(other, |a, b| a & !b)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Self) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (i, &w) in other.words.iter().enumerate() {
            self.words[i] |= w;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &Self) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// In-place difference.
    pub fn subtract(&mut self, other: &Self) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= !other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// True if `self ⊆ other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// True if `self ⊂ other` (subset and not equal).
    pub fn is_proper_subset(&self, other: &Self) -> bool {
        self.is_subset(other) && self != other
    }

    /// True if the two sets share no node.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(&a, &b)| a & b == 0)
    }

    /// Renders the set using the node names of `universe`, e.g. `{A, C, E}`.
    pub fn display<'a>(&'a self, universe: &'a Universe) -> NodeSetDisplay<'a> {
        NodeSetDisplay {
            set: self,
            universe,
        }
    }

    /// The node names of this set, in id order.
    pub fn names<'a>(&self, universe: &'a Universe) -> Vec<&'a str> {
        self.iter().map(|id| universe.name(id)).collect()
    }
}

impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        let n = self.words.len().max(other.words.len());
        (0..n).all(|i| {
            self.words.get(i).copied().unwrap_or(0) == other.words.get(i).copied().unwrap_or(0)
        })
    }
}

impl std::hash::Hash for NodeSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Trailing zero words must not affect the hash (they do not affect
        // equality), so hash only up to the last nonzero word.
        let last = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        self.words[..last].hash(state);
    }
}

impl PartialOrd for NodeSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NodeSet {
    /// Lexicographic order on the sorted element sequence; gives a stable,
    /// deterministic ordering for canonical output.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        Self::from_ids(iter)
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = Box<dyn Iterator<Item = NodeId> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl BitOr for &NodeSet {
    type Output = NodeSet;
    fn bitor(self, rhs: Self) -> NodeSet {
        self.union(rhs)
    }
}

impl BitAnd for &NodeSet {
    type Output = NodeSet;
    fn bitand(self, rhs: Self) -> NodeSet {
        self.intersection(rhs)
    }
}

impl Sub for &NodeSet {
    type Output = NodeSet;
    fn sub(self, rhs: Self) -> NodeSet {
        self.difference(rhs)
    }
}

/// Helper returned by [`NodeSet::display`].
pub struct NodeSetDisplay<'a> {
    set: &'a NodeSet,
    universe: &'a Universe,
}

impl fmt::Display for NodeSetDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.set.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match self.universe.try_name(id) {
                Some(name) => write!(f, "{name}")?,
                None => write!(f, "{id}")?,
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::Hypergraph;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new();
        assert!(s.insert(NodeId(3)));
        assert!(!s.insert(NodeId(3)));
        assert!(s.contains(NodeId(3)));
        assert!(!s.contains(NodeId(2)));
        assert!(s.remove(NodeId(3)));
        assert!(!s.remove(NodeId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn insert_beyond_initial_capacity() {
        let mut s = NodeSet::with_capacity(4);
        assert!(s.insert(NodeId(200)));
        assert!(s.contains(NodeId(200)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = set(&[0, 1, 2, 70]);
        let b = set(&[1, 2, 3]);
        assert_eq!(a.union(&b), set(&[0, 1, 2, 3, 70]));
        assert_eq!(a.intersection(&b), set(&[1, 2]));
        assert_eq!(a.difference(&b), set(&[0, 70]));
        assert_eq!(b.difference(&a), set(&[3]));
    }

    #[test]
    fn operator_sugar() {
        let a = set(&[0, 1]);
        let b = set(&[1, 2]);
        assert_eq!(&a | &b, set(&[0, 1, 2]));
        assert_eq!(&a & &b, set(&[1]));
        assert_eq!(&a - &b, set(&[0]));
    }

    #[test]
    fn subset_superset_disjoint() {
        let a = set(&[1, 2]);
        let b = set(&[0, 1, 2, 3]);
        assert!(a.is_subset(&b));
        assert!(a.is_proper_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(!a.is_proper_subset(&a.clone()));
        assert!(a.is_subset(&a.clone()));
        assert!(set(&[5]).is_disjoint(&a));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn equality_ignores_capacity() {
        let a = set(&[1]);
        let mut b = NodeSet::with_capacity(1000);
        b.insert(NodeId(1));
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn iteration_is_sorted() {
        let s = set(&[65, 3, 0, 128]);
        let ids: Vec<u32> = s.iter().map(|n| n.0).collect();
        assert_eq!(ids, vec![0, 3, 65, 128]);
        assert_eq!(s.first(), Some(NodeId(0)));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn in_place_ops() {
        let mut a = set(&[0, 1, 2]);
        a.union_with(&set(&[3, 100]));
        assert_eq!(a, set(&[0, 1, 2, 3, 100]));
        a.intersect_with(&set(&[1, 2, 3]));
        assert_eq!(a, set(&[1, 2, 3]));
        a.subtract(&set(&[2]));
        assert_eq!(a, set(&[1, 3]));
    }

    #[test]
    fn full_and_from_names() {
        let h = Hypergraph::from_edges([vec!["A", "B", "C"]]).unwrap();
        let s = h.node_set(["A", "C"]).unwrap();
        assert_eq!(s.names(h.universe()), vec!["A", "C"]);
        assert!(h.node_set(["A", "Z"]).is_err());
    }

    #[test]
    fn display_uses_names() {
        let h = Hypergraph::from_edges([vec!["A", "B", "C"]]).unwrap();
        let s = h.node_set(["C", "A"]).unwrap();
        assert_eq!(format!("{}", s.display(h.universe())), "{A, C}");
    }

    #[test]
    fn ordering_is_lexicographic_on_elements() {
        assert!(set(&[0, 5]) < set(&[1]));
        assert!(set(&[1, 2]) < set(&[1, 3]));
        assert!(set(&[1]) < set(&[1, 0x40]));
    }
}
