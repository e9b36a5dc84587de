//! Database-schema-shaped hypergraph families.
//!
//! These are the shapes the paper's universal-relation motivation cares
//! about: chains of foreign-key joins, star and snowflake schemas, and a
//! fixed TPC-style order/lineitem-like schema.  All of them are acyclic;
//! [`with_cycle`] adds a shortcut edge that makes any of them cyclic, which
//! is how the benchmarks obtain matched acyclic/cyclic pairs.

use hypergraph::{Hypergraph, HypergraphBuilder};

/// A snowflake: a star whose satellites each have their own dimension edges
/// hanging off them.
pub fn snowflake(arms: usize, depth: usize, width: usize) -> Hypergraph {
    assert!(arms >= 1 && depth >= 1 && width >= 2);
    let mut builder = HypergraphBuilder::new();
    let hub_keys: Vec<String> = (0..arms).map(|a| format!("K{a:03}_0")).collect();
    builder = builder.edge("FACT", hub_keys.iter().map(String::as_str));
    for a in 0..arms {
        for d in 0..depth {
            let mut names = vec![format!("K{a:03}_{d}")];
            for w in 1..width.saturating_sub(1) {
                names.push(format!("D{a:03}_{d}_{w}"));
            }
            names.push(format!("K{a:03}_{}", d + 1));
            builder = builder.edge(format!("DIM{a}_{d}"), names.iter().map(String::as_str));
        }
    }
    builder.build().expect("nonempty edges")
}

/// A snowflake whose dimensions branch: a fact hub with `fanout` arms, each
/// dimension edge at depth `d < depth` having `fanout` child dimensions of
/// its own, every edge `width` attributes wide (one key shared with the
/// parent, one key per child, padding attributes in between).
///
/// Unlike [`snowflake`] (whose arms are chains), the dimension tree is a
/// complete `fanout`-ary tree, so the join tree has `fanout^d` edges at
/// depth `d` — the shape that exercises the level-synchronous reducer's
/// target-sharding (a chain's levels are singletons and run inline).
pub fn snowflake_tree(depth: usize, fanout: usize, width: usize) -> Hypergraph {
    assert!(depth >= 1 && fanout >= 1 && width >= 2);
    let mut builder = HypergraphBuilder::new();
    // The hub shares one key with each top-level dimension.
    let hub_keys: Vec<String> = (0..fanout).map(|a| format!("K{a}")).collect();
    builder = builder.edge("FACT", hub_keys.iter().map(String::as_str));
    // Breadth-first over the dimension tree; each node is named by its
    // root-to-node path of child indices.
    let mut frontier: Vec<String> = (0..fanout).map(|a| a.to_string()).collect();
    for d in 0..depth {
        let mut next = Vec::new();
        for path in frontier {
            let mut names = vec![format!("K{path}")];
            for w in 0..width.saturating_sub(2) {
                names.push(format!("D{path}_{w}"));
            }
            if d + 1 < depth {
                for c in 0..fanout {
                    names.push(format!("K{path}{c}"));
                    next.push(format!("{path}{c}"));
                }
            } else {
                names.push(format!("L{path}"));
            }
            builder = builder.edge(format!("DIM{path}"), names.iter().map(String::as_str));
        }
        frontier = next;
    }
    builder.build().expect("nonempty edges")
}

/// A fixed order-management schema in the spirit of TPC benchmarks:
/// region–nation–customer–orders–lineitem–part/supplier.  Eight relations,
/// acyclic, with realistic key sharing.
pub fn tpc_like() -> Hypergraph {
    Hypergraph::builder()
        .edge("REGION", ["regionkey", "r_name"])
        .edge("NATION", ["nationkey", "regionkey", "n_name"])
        .edge("CUSTOMER", ["custkey", "nationkey", "c_name", "acctbal"])
        .edge("ORDERS", ["orderkey", "custkey", "orderdate", "totalprice"])
        .edge(
            "LINEITEM",
            ["orderkey", "partkey", "suppkey", "quantity", "price"],
        )
        .edge("PARTSUPP", ["partkey", "suppkey", "supplycost"])
        .edge("PART", ["partkey", "p_name", "brand"])
        .edge("SUPPLIER", ["suppkey", "s_name", "s_nationkey"])
        .build()
        .expect("static schema")
}

/// Adds a "shortcut" edge connecting the first node of the first edge with
/// the last node of the last edge *and nothing else*, which creates a cycle
/// in any connected schema with at least two edges whose reduction does not
/// already cover that pair.
pub fn with_cycle(h: &Hypergraph) -> Hypergraph {
    let first_edge = &h.edges()[0].nodes;
    let last_edge = &h.edges()[h.edge_count() - 1].nodes;
    let a = first_edge.iter().next().expect("nonempty edge");
    let b = last_edge.iter().last().expect("nonempty edge");
    let universe = h.universe();
    let mut builder = HypergraphBuilder::new();
    for e in h.edges() {
        let names: Vec<&str> = e.nodes.iter().map(|n| universe.name(n)).collect();
        builder = builder.edge(e.label.clone(), names);
    }
    builder = builder.edge("SHORTCUT", [universe.name(a), universe.name(b)]);
    builder.build().expect("nonempty edges")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acyclic_gen::{chain, star};
    use acyclic::AcyclicityExt;

    #[test]
    fn snowflake_is_acyclic_and_sized() {
        let h = snowflake(3, 2, 3);
        assert_eq!(h.edge_count(), 1 + 3 * 2);
        assert!(h.is_acyclic());
        assert!(h.is_connected());
    }

    #[test]
    fn snowflake_tree_is_acyclic_with_fanout_levels() {
        let h = snowflake_tree(2, 2, 3);
        // FACT + 2 dimensions at depth 1 + 4 at depth 2.
        assert_eq!(h.edge_count(), 1 + 2 + 4);
        assert!(h.is_acyclic());
        assert!(h.is_connected());
        let tree = acyclic::join_tree(&h).expect("acyclic");
        let levels = tree.levels();
        assert!(
            levels.iter().any(|l| l.len() >= 2),
            "fanout tree must produce multi-edge levels"
        );
        let deep = snowflake_tree(3, 3, 4);
        assert_eq!(deep.edge_count(), 1 + 3 + 9 + 27);
        assert!(deep.is_acyclic());
    }

    #[test]
    fn tpc_like_is_acyclic() {
        let h = tpc_like();
        assert_eq!(h.edge_count(), 8);
        assert!(h.is_acyclic());
        assert!(h.is_connected());
        assert!(h.is_reduced());
    }

    #[test]
    fn with_cycle_makes_schemas_cyclic() {
        for base in [chain(6, 3, 1), star(5, 3), snowflake(2, 2, 3), tpc_like()] {
            assert!(base.is_acyclic());
            let cyclic = with_cycle(&base);
            assert_eq!(cyclic.edge_count(), base.edge_count() + 1);
            assert!(
                !cyclic.is_acyclic(),
                "shortcut failed to create a cycle in {}",
                base.display()
            );
        }
    }
}
