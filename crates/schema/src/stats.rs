//! Data statistics for static cost analysis (ssd-cost).
//!
//! §4 frames optimization of path queries as reasoning against schemas
//! and DataGuides; Goldman–Widom attach *statistics* to the summary so
//! the optimizer can estimate how many objects a path touches. This
//! module is that collector: one deterministic pass over the reachable
//! fragment of a data graph records global sizes (node/edge counts,
//! per-symbol edge counts) and — when a schema is supplied — the
//! number of data nodes assigned to each schema node by the reachable
//! product of data and schema (every data node reachable *while* the
//! schema tracks it with a matching predicate edge).
//!
//! The product numbers are what make schema-typed cardinality bounds
//! sound: when the data conforms to the schema, every data path matched
//! by a query path lands on nodes counted under the schema nodes the
//! typing analysis reaches, so `Σ assigned(t)` over the typing-reachable
//! schema nodes bounds the binding's match count from above.

use crate::schema::{Schema, SchemaNodeId};
use crate::simulation::conforms;
use ssd_graph::{Graph, Label, NodeId, SymbolId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Statistics over the reachable fragment of one data graph, optionally
/// refined by a schema. All counts are finite and deterministic: the
/// collector is a plain BFS with ordered sets, so the same graph always
/// yields the same profile (cycles included).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DataStats {
    /// Nodes reachable from the root.
    pub nodes_reachable: u64,
    /// Edges with a reachable source.
    pub edges_reachable: u64,
    /// Out-degree of the root.
    pub root_fanout: u64,
    /// Distinct nodes appearing as an endpoint of a reachable edge, plus
    /// the root — exactly the `node/1` EDB relation datalog reads.
    pub edb_nodes: u64,
    /// Distinct edge labels in the reachable fragment.
    pub distinct_labels: u64,
    /// Does the graph contain a cycle? Acyclic data bounds the number of
    /// label words any path expression can match even without a schema.
    /// `true` is always sound.
    pub cyclic: bool,
    /// Edge count per symbol label, by id. Value labels are not counted.
    pub symbol_counts: BTreeMap<SymbolId, u64>,
    /// With a schema: for each schema node, how many distinct data nodes
    /// the reachable data×schema product assigns to it. Empty without a
    /// schema.
    pub per_schema_node: Vec<u64>,
    /// With a schema: does the data conform (simulation)? Conformance is
    /// what licenses the per-schema-node counts as cardinality bounds.
    pub conforms: bool,
}

impl DataStats {
    /// Collect global statistics only (no schema refinement).
    pub fn collect(g: &Graph) -> DataStats {
        let mut stats = DataStats::default();
        let reachable = g.reachable();
        stats.nodes_reachable = reachable.len() as u64;
        stats.root_fanout = g.out_degree(g.root()) as u64;
        stats.cyclic = g.has_cycle();
        let mut endpoints: BTreeSet<NodeId> = BTreeSet::new();
        endpoints.insert(g.root());
        let mut labels: BTreeSet<&Label> = BTreeSet::new();
        for &n in &reachable {
            for e in g.edges(n) {
                stats.edges_reachable += 1;
                endpoints.insert(n);
                endpoints.insert(e.to);
                labels.insert(&e.label);
                if let Label::Symbol(s) = &e.label {
                    *stats.symbol_counts.entry(*s).or_insert(0) += 1;
                }
            }
        }
        stats.edb_nodes = endpoints.len() as u64;
        stats.distinct_labels = labels.len() as u64;
        stats
    }

    /// Collect global statistics plus per-schema-node assignment counts
    /// from the reachable data×schema product, and the conformance flag.
    pub fn collect_with_schema(g: &Graph, schema: &Schema) -> DataStats {
        DataStats::collect(g).refine(g, schema)
    }

    /// Refine global statistics of `g`, however they were gathered, with
    /// the per-schema-node assignment counts of the reachable data×schema
    /// product and the conformance flag.
    pub fn refine(mut self, g: &Graph, schema: &Schema) -> DataStats {
        let mut assigned: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); schema.node_count()];
        let mut visited: BTreeSet<(NodeId, SchemaNodeId)> = BTreeSet::new();
        let start = (g.root(), schema.root());
        visited.insert(start);
        assigned[schema.root().index()].insert(g.root());
        let mut queue: VecDeque<(NodeId, SchemaNodeId)> = VecDeque::new();
        queue.push_back(start);
        while let Some((n, s)) = queue.pop_front() {
            for e in g.edges(n) {
                for se in schema.edges(s) {
                    if se.pred.matches(&e.label, g.symbols()) {
                        let next = (e.to, se.to);
                        if visited.insert(next) {
                            assigned[se.to.index()].insert(e.to);
                            queue.push_back(next);
                        }
                    }
                }
            }
        }
        self.per_schema_node = assigned.iter().map(|s| s.len() as u64).collect();
        self.conforms = conforms(g, schema);
        self
    }

    /// Data nodes assigned to `n` by the product traversal, if a schema
    /// was supplied at collection time.
    pub fn schema_extent(&self, n: SchemaNodeId) -> Option<u64> {
        self.per_schema_node.get(n.index()).copied()
    }

    /// Edges carrying the symbol `s`, zero if absent.
    pub fn symbol_count(&self, s: SymbolId) -> u64 {
        self.symbol_counts.get(&s).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::figure1_schema;
    use ssd_graph::literal::parse_graph;

    /// Figure 1's movie database with the References/Is_referenced_in
    /// back-edges, so the data graph is genuinely cyclic.
    fn cyclic_figure1() -> Graph {
        parse_graph(
            r#"{Entry: @e1 = {Movie: {Title: "Casablanca",
                                      Cast: {Actors: "Bogart"},
                                      References: @e2 = {Movie: {Title: "Play it again, Sam",
                                                                 References: @e1}}}},
                Entry: @e2}"#,
        )
        .unwrap()
    }

    #[test]
    fn global_stats_on_cyclic_graph_are_finite() {
        let g = cyclic_figure1();
        assert!(g.has_cycle(), "fixture must be cyclic");
        let stats = DataStats::collect(&g);
        assert!(stats.cyclic);
        assert_eq!(stats.nodes_reachable, g.reachable().len() as u64);
        assert_eq!(stats.edges_reachable, g.edge_count() as u64);
        let count = |name: &str| stats.symbol_count(g.symbols().intern(name));
        assert_eq!(count("Entry"), 2);
        assert_eq!(count("Title"), 2);
        assert_eq!(count("References"), 2);
        assert_eq!(stats.root_fanout, 2);
        // Six symbols plus the three string values.
        assert_eq!(stats.distinct_labels, 9);
        // Every edge not counted by symbol carries one of the values.
        assert_eq!(
            stats.edges_reachable,
            stats.symbol_counts.values().sum::<u64>() + 3
        );
        // Every reachable node is an edge endpoint here.
        assert_eq!(stats.edb_nodes, stats.nodes_reachable);
    }

    #[test]
    fn collection_is_deterministic() {
        let g = cyclic_figure1();
        let schema = figure1_schema();
        let a = DataStats::collect_with_schema(&g, &schema);
        let b = DataStats::collect_with_schema(&g, &schema);
        assert_eq!(a, b);
        // And stable across graph re-parses of the same literal.
        let c = DataStats::collect_with_schema(&cyclic_figure1(), &schema);
        assert_eq!(a.per_schema_node, c.per_schema_node);
        assert_eq!(a.edges_reachable, c.edges_reachable);
    }

    #[test]
    fn schema_product_assigns_cyclic_data_finitely() {
        let g = cyclic_figure1();
        let schema = figure1_schema();
        let stats = DataStats::collect_with_schema(&g, &schema);
        assert!(stats.conforms, "fixture conforms to the Figure 1 schema");
        assert_eq!(stats.per_schema_node.len(), schema.node_count());
        // Root schema node holds exactly the data root.
        assert_eq!(stats.schema_extent(schema.root()), Some(1));
        // No schema node can be assigned more data nodes than exist.
        for &count in &stats.per_schema_node {
            assert!(count <= stats.nodes_reachable);
        }
        // The entry schema node (s1) covers both entry nodes.
        assert_eq!(stats.per_schema_node[1], 2);
    }

    #[test]
    fn nonconforming_data_is_flagged() {
        // A label the Figure 1 schema's root does not allow.
        let g = parse_graph(r#"{Unexpected: {X: 1}}"#).unwrap();
        let stats = DataStats::collect_with_schema(&g, &figure1_schema());
        assert!(!stats.conforms);
        // Global stats are still collected.
        assert!(stats.nodes_reachable > 0);
    }

    #[test]
    fn empty_graph_stats() {
        let g = Graph::new();
        let stats = DataStats::collect(&g);
        assert_eq!(stats.nodes_reachable, 1);
        assert_eq!(stats.edges_reachable, 0);
        assert_eq!(stats.edb_nodes, 1);
        assert_eq!(stats.distinct_labels, 0);
    }
}
