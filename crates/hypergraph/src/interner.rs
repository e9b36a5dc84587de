//! Node (attribute) interning.
//!
//! Hypergraph nodes are identified by small integer [`NodeId`]s that index
//! into a [`Universe`].  A `Universe` is the fixed set of node names over
//! which one or more hypergraphs are defined.  Derived hypergraphs (Graham
//! reductions, tableau reductions, node-generated sub-hypergraphs, …) share
//! the universe of the hypergraph they came from, so node identity is stable
//! across every transformation in this workspace.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a node (an *attribute* in the database reading of the
/// paper).  `NodeId`s index into the [`Universe`] they were created by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index of this node inside its universe.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An immutable, shared set of node names.
///
/// A universe is created once (usually by
/// [`HypergraphBuilder`](crate::hypergraph::HypergraphBuilder)) and then
/// shared, via [`Arc`](std::sync::Arc), by every hypergraph derived from the original.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Universe {
    names: Vec<String>,
    index: HashMap<String, NodeId>,
}

impl Universe {
    /// Interns `name`, returning its id.  Idempotent.
    pub(crate) fn intern(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = NodeId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Looks up a name without interning it.
    pub(crate) fn get(&self, name: &str) -> Option<NodeId> {
        self.index.get(name).copied()
    }

    /// The name of `id`.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this universe.
    pub fn name(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// The name of `id`, if it belongs to this universe.
    pub(crate) fn try_name(&self, id: NodeId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no node has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// True if `id` is a valid node of this universe.
    pub(crate) fn contains_id(&self, id: NodeId) -> bool {
        id.index() < self.names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe(names: &[&str]) -> Universe {
        let mut u = Universe::default();
        for name in names {
            u.intern(name);
        }
        u
    }

    #[test]
    fn intern_is_idempotent() {
        let mut u = Universe::default();
        let a = u.intern("A");
        let b = u.intern("B");
        let a2 = u.intern("A");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn lookup_by_name_and_id() {
        let u = universe(&["A", "B", "C"]);
        assert_eq!(u.get("B"), Some(NodeId(1)));
        assert_eq!(u.name(NodeId(2)), "C");
        assert_eq!(u.get("Z"), None);
        assert_eq!(u.try_name(NodeId(9)), None);
    }

    #[test]
    fn from_names_dedups() {
        let u = universe(&["A", "B", "A"]);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn iteration_order_is_interning_order() {
        let u = universe(&["X", "Y", "Z"]);
        let names: Vec<&str> = (0..3).map(|i| u.name(NodeId(i))).collect();
        assert_eq!(names, vec!["X", "Y", "Z"]);
    }

    #[test]
    fn contains_id_bounds() {
        let u = universe(&["A"]);
        assert!(u.contains_id(NodeId(0)));
        assert!(!u.contains_id(NodeId(1)));
    }
}
