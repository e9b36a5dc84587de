//! The primal (Gaifman) graph of a hypergraph.
//!
//! This ordinary-graph view connects the hypergraph world of the paper back
//! to classical graph theory: the primal graph joins two nodes iff they
//! co-occur in an edge.

use crate::graph::Graph;
use crate::hypergraph::Hypergraph;
use crate::interner::NodeId;

impl Hypergraph {
    /// The primal (Gaifman) graph: nodes of the hypergraph, with an edge
    /// between two nodes whenever some hyperedge contains both.
    pub fn primal_graph(&self) -> Graph {
        let mut g = Graph::new();
        for n in self.nodes().iter() {
            g.add_node(n);
        }
        for e in self.edges() {
            let members: Vec<NodeId> = e.nodes.iter().collect();
            for i in 0..members.len() {
                for j in i + 1..members.len() {
                    g.add_edge(members[i], members[j]);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> Hypergraph {
        Hypergraph::from_edges([
            vec!["A", "B", "C"],
            vec!["C", "D", "E"],
            vec!["A", "E", "F"],
            vec!["A", "C", "E"],
        ])
        .unwrap()
    }

    #[test]
    fn primal_graph_of_fig1() {
        let h = fig1();
        let g = h.primal_graph();
        assert_eq!(g.node_count(), 6);
        let a = h.node("A").unwrap();
        let b = h.node("B").unwrap();
        let d = h.node("D").unwrap();
        let c = h.node("C").unwrap();
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(c, d));
        assert!(!g.has_edge(b, d));
        assert!(g.is_connected());
    }

    #[test]
    fn primal_graph_of_single_edge_is_clique() {
        let h = Hypergraph::from_edges([vec!["A", "B", "C", "D"]]).unwrap();
        let g = h.primal_graph();
        assert_eq!(g.edge_count(), 6);
        assert!(g.articulation_points().is_empty());
    }
}
