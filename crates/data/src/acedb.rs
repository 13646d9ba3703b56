//! ACeDB-style biology trees (§1.1).
//!
//! "Another example ... is the database management system ACeDB, which is
//! popular with biologists. ... this schema imposes only loose constraints
//! on the data ... there are structures that are naturally expressed in
//! ACeDB, such as trees of arbitrary depth, that cannot be queried using
//! conventional techniques."
//!
//! The generator produces ragged taxonomies: every node *may* have any of
//! its attributes, subtrees nest to random depth, and leaves mix value
//! types — loose structure by construction.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssd_graph::{Graph, NodeId};

/// Configuration for the ACeDB-like generator.
#[derive(Debug, Clone)]
pub struct AcedbConfig {
    /// Number of top-level objects (e.g. genes).
    pub objects: usize,
    /// Maximum nesting depth of the ragged subtrees.
    pub max_depth: usize,
    /// Mean branching factor within subtrees.
    pub branching: usize,
    pub seed: u64,
}

impl Default for AcedbConfig {
    fn default() -> Self {
        AcedbConfig {
            objects: 50,
            max_depth: 8,
            branching: 3,
            seed: 11,
        }
    }
}

const SECTION_NAMES: &[&str] = &[
    "Sequence",
    "Homology",
    "Expression",
    "Phenotype",
    "Reference",
    "Remark",
    "Clone",
    "Map",
];

/// Generate an ACeDB-like database: `root --Gene--> object`, objects with
/// ragged, arbitrarily deep section trees.
pub fn acedb(cfg: &AcedbConfig) -> Graph {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut g = Graph::new();
    let root = g.root();
    for i in 0..cfg.objects {
        let obj = g.add_node();
        g.add_sym_edge(root, "Gene", obj);
        g.add_attr(obj, "Name", format!("gene-{i}"));
        grow(&mut g, obj, cfg.max_depth, cfg.branching, &mut rng);
    }
    g
}

fn grow(g: &mut Graph, node: NodeId, depth: usize, branching: usize, rng: &mut SmallRng) {
    if depth == 0 {
        return;
    }
    let children = rng.gen_range(0..=branching);
    for _ in 0..children {
        let name = SECTION_NAMES[rng.gen_range(0..SECTION_NAMES.len())];
        let child = g.add_node();
        g.add_sym_edge(node, name, child);
        match rng.gen_range(0..4) {
            0 => {
                g.add_value_edge(child, rng.gen_range(0..100_000) as i64);
            }
            1 => {
                g.add_value_edge(child, format!("annotation-{}", rng.gen_range(0..1000)));
            }
            2 => {
                g.add_value_edge(child, rng.gen_range(0.0..1.0));
            }
            _ => {}
        }
        // Recurse to a *random* remaining depth — ragged trees.
        let next_depth = rng.gen_range(0..depth);
        grow(g, child, next_depth, branching, rng);
    }
}

/// Maximum depth (in edges) of the tree below the root — used to verify
/// the "trees of arbitrary depth" property.
pub fn max_depth(g: &Graph) -> usize {
    fn walk(g: &Graph, n: ssd_graph::NodeId, seen: &mut Vec<bool>) -> usize {
        if seen[n.index()] {
            return 0;
        }
        seen[n.index()] = true;
        let d = g
            .edges(n)
            .iter()
            .map(|e| 1 + walk(g, e.to, seen))
            .max()
            .unwrap_or(0);
        seen[n.index()] = false;
        d
    }
    let mut seen = vec![false; g.node_count()];
    walk(g, g.root(), &mut seen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let cfg = AcedbConfig::default();
        let a = acedb(&cfg);
        let b = acedb(&cfg);
        assert_eq!(a.edge_count(), b.edge_count());
    }

    #[test]
    fn object_count() {
        let g = acedb(&AcedbConfig::default());
        assert_eq!(g.successors_by_name(g.root(), "Gene").len(), 50);
    }

    #[test]
    fn trees_are_ragged_and_deep() {
        let g = acedb(&AcedbConfig {
            objects: 30,
            max_depth: 10,
            branching: 3,
            seed: 5,
        });
        let d = max_depth(&g);
        assert!(d >= 5, "expected deep trees, got depth {d}");
        assert!(!g.has_cycle());
    }

    #[test]
    fn mixed_value_types_present() {
        let g = acedb(&AcedbConfig::default());
        let kinds: std::collections::BTreeSet<_> = g
            .reachable()
            .into_iter()
            .flat_map(|n| g.edges(n))
            .filter_map(|e| e.label.as_value().map(|v| v.kind()))
            .collect();
        assert!(kinds.len() >= 2, "expected mixed leaf types: {kinds:?}");
    }

    #[test]
    fn loose_structure_not_all_objects_alike() {
        // Some gene has a Sequence section and some gene lacks it.
        let g = acedb(&AcedbConfig::default());
        let genes = g.successors_by_name(g.root(), "Gene");
        let with: usize = genes
            .iter()
            .filter(|&&o| !g.successors_by_name(o, "Sequence").is_empty())
            .count();
        assert!(with > 0);
        assert!(with < genes.len());
    }
}
