//! The triple store: the graph shredded into its edge relation, with
//! hash indexes.
//!
//! §3 lists four complications of the "graph as one big relation" approach;
//! this module addresses each:
//!
//! 1. *"Our labels are drawn from a heterogeneous collection of types, so it
//!    may be appropriate to use more than one relation."* — the store keeps
//!    one physical relation but exposes typed views
//!    ([`TripleStore::symbol_triples`], [`TripleStore::value_triples`]),
//!    and the by-label index buckets labels of every type.
//! 2. *"If information also is held at nodes, one needs additional
//!    relations to express this."* — our model holds no node information
//!    (node-labeled variants are converted first; see
//!    `ssd_graph::variants::node_labeled`).
//! 3. *"The node identifiers may only be used as temporary node labels"* —
//!    node ids appear in query results only as opaque [`NodeId`]s; the
//!    algebra layer ([`crate::algebra`]) can project them away.
//! 4. *"We are concerned with what is accessible from a given root by
//!    forward traversal"* — the store is built from the root-reachable
//!    fragment only, and records the root.
//!
//! The hash indexes (`by_src`, `by_dst`, `by_label`, `by_src_label`) are
//! read by [`crate::algebra`] / [`crate::paths`] through the `with_*`
//! scans and by the datalog evaluator through
//! [`crate::datalog::StoreEdb`] — the EDB it runs on when no columnar
//! index exists (tests, E6, and the facade's SSD051 fallback).

use crate::triple::Triple;
use ssd_graph::{Graph, Label, NodeId, SymbolId, Value};
use std::collections::HashMap;

/// An immutable, indexed snapshot of a graph's edge relation.
#[derive(Debug)]
pub struct TripleStore {
    triples: Vec<Triple>,
    root: NodeId,
    by_src: HashMap<NodeId, Vec<u32>>,
    by_dst: HashMap<NodeId, Vec<u32>>,
    by_label: HashMap<Label, Vec<u32>>,
    by_src_label: HashMap<(NodeId, Label), Vec<u32>>,
}

impl TripleStore {
    /// Shred the root-reachable fragment of `g` into a triple store.
    pub fn from_graph(g: &Graph) -> TripleStore {
        let mut triples = Vec::with_capacity(g.edge_count());
        for n in g.reachable() {
            for e in g.edges(n) {
                triples.push(Triple::new(n, e.label.clone(), e.to));
            }
        }
        Self::from_triples(triples, g.root())
    }

    /// Build a store from explicit triples (used by tests and by query
    /// decomposition, which re-shreds graph fragments per site).
    pub fn from_triples(triples: Vec<Triple>, root: NodeId) -> TripleStore {
        let mut by_src: HashMap<NodeId, Vec<u32>> = HashMap::new();
        let mut by_dst: HashMap<NodeId, Vec<u32>> = HashMap::new();
        let mut by_label: HashMap<Label, Vec<u32>> = HashMap::new();
        let mut by_src_label: HashMap<(NodeId, Label), Vec<u32>> = HashMap::new();
        for (i, t) in triples.iter().enumerate() {
            let i = i as u32;
            by_src.entry(t.src).or_default().push(i);
            by_dst.entry(t.dst).or_default().push(i);
            by_label.entry(t.label.clone()).or_default().push(i);
            by_src_label
                .entry((t.src, t.label.clone()))
                .or_default()
                .push(i);
        }
        TripleStore {
            triples,
            root,
            by_src,
            by_dst,
            by_label,
            by_src_label,
        }
    }

    pub fn root(&self) -> NodeId {
        self.root
    }

    pub fn len(&self) -> usize {
        self.triples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Triple> {
        self.triples.iter()
    }

    fn resolve(&self, ids: Option<&Vec<u32>>) -> Vec<&Triple> {
        ids.map_or_else(Vec::new, |v| {
            v.iter().map(|&i| &self.triples[i as usize]).collect()
        })
    }

    /// Positions (into [`TripleStore::iter`] order) the most selective
    /// hash index offers for the given bound arguments, or `None` when
    /// nothing is bound and every triple is a candidate. `by_src_label`
    /// and the single-column indexes are exact for the columns they
    /// cover; the caller filters on the rest.
    pub(crate) fn positions(
        &self,
        src: Option<NodeId>,
        label: Option<&Label>,
        dst: Option<NodeId>,
    ) -> Option<&[u32]> {
        let picks = match (src, label, dst) {
            (Some(s), Some(l), _) => self.by_src_label.get(&(s, l.clone())),
            (Some(s), None, _) => self.by_src.get(&s),
            (None, Some(l), _) => self.by_label.get(l),
            (None, None, Some(d)) => self.by_dst.get(&d),
            (None, None, None) => return None,
        };
        Some(picks.map_or(&[], Vec::as_slice))
    }

    /// Index scan: all triples with the given source.
    pub fn with_src(&self, src: NodeId) -> Vec<&Triple> {
        self.resolve(self.by_src.get(&src))
    }

    /// Index scan: all triples with the given destination (reverse
    /// traversal — note the query language restricts itself to forward
    /// traversal; this index exists for maintenance and statistics).
    pub fn with_dst(&self, dst: NodeId) -> Vec<&Triple> {
        self.resolve(self.by_dst.get(&dst))
    }

    /// Index scan: all triples with the given label.
    pub fn with_label(&self, label: &Label) -> Vec<&Triple> {
        self.resolve(self.by_label.get(label))
    }

    /// Index scan: all triples with the given source and label.
    pub fn with_src_label(&self, src: NodeId, label: &Label) -> Vec<&Triple> {
        self.resolve(self.by_src_label.get(&(src, label.clone())))
    }

    /// Typed view: symbol-labeled triples (the "schema-ish" relation).
    pub fn symbol_triples(&self) -> impl Iterator<Item = (&Triple, SymbolId)> {
        self.triples.iter().filter_map(|t| match &t.label {
            Label::Symbol(s) => Some((t, *s)),
            _ => None,
        })
    }

    /// Typed view: value-labeled triples (the "data" relation).
    pub fn value_triples(&self) -> impl Iterator<Item = (&Triple, &Value)> {
        self.triples.iter().filter_map(|t| match &t.label {
            Label::Value(v) => Some((t, v)),
            _ => None,
        })
    }

    /// Full scan with a predicate (the baseline the indexes beat).
    pub fn scan<'a>(&'a self, pred: impl Fn(&Triple) -> bool + 'a) -> Vec<&'a Triple> {
        self.triples.iter().filter(|t| pred(t)).collect()
    }

    /// Distinct labels appearing in the store.
    pub fn labels(&self) -> impl Iterator<Item = &Label> {
        self.by_label.keys()
    }

    /// Number of distinct source nodes.
    pub fn src_count(&self) -> usize {
        self.by_src.len()
    }

    /// The triples in SPO order — `(src, label, dst)`, sorted by source
    /// then destination, deduplicated. This is the columnar index's
    /// canonical build order (`ssd-index` sorts the same relation into
    /// its SPO permutation), exposed here so the two substrates can be
    /// cross-checked triple for triple.
    pub fn spo_sorted(&self) -> Vec<(NodeId, &Label, NodeId)> {
        let mut out: Vec<(NodeId, &Label, NodeId)> = self
            .triples
            .iter()
            .map(|t| (t.src, &t.label, t.dst))
            .collect();
        out.sort_by_cached_key(|(s, l, o)| (s.index(), format!("{l:?}"), o.index()));
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_graph::literal::parse_graph;

    fn store() -> (Graph, TripleStore) {
        let g = parse_graph(
            r#"{Movie: {Title: "C", Cast: {Actors: "Bogart", Actors: "Bacall"}},
                Movie: {Title: "S"}}"#,
        )
        .unwrap();
        let s = TripleStore::from_graph(&g);
        (g, s)
    }

    #[test]
    fn shreds_all_reachable_edges() {
        let (g, s) = store();
        assert_eq!(s.len(), g.edge_count());
        assert_eq!(s.root(), g.root());
    }

    #[test]
    fn unreachable_edges_excluded() {
        let mut g = parse_graph("{a: 1}").unwrap();
        let orphan = g.add_node();
        let leaf = g.add_node();
        g.add_sym_edge(orphan, "ghost", leaf);
        let s = TripleStore::from_graph(&g);
        assert_eq!(s.len(), 2); // a-edge + value edge
    }

    #[test]
    fn src_index() {
        let (g, s) = store();
        let from_root = s.with_src(g.root());
        assert_eq!(from_root.len(), 2);
        assert!(from_root.iter().all(|t| t.src == g.root()));
    }

    #[test]
    fn label_index() {
        let (g, s) = store();
        let movie = Label::symbol(g.symbols(), "Movie");
        assert_eq!(s.with_label(&movie).len(), 2);
        let actors = Label::symbol(g.symbols(), "Actors");
        assert_eq!(s.with_label(&actors).len(), 2);
        let nope = Label::symbol(g.symbols(), "Nope");
        assert!(s.with_label(&nope).is_empty());
    }

    #[test]
    fn src_label_index_matches_scan() {
        let (g, s) = store();
        let movie = Label::symbol(g.symbols(), "Movie");
        let via_index = s.with_src_label(g.root(), &movie);
        let via_scan = s.scan(|t| t.src == g.root() && t.label == movie);
        assert_eq!(via_index.len(), via_scan.len());
        assert_eq!(via_index.len(), 2);
    }

    #[test]
    fn dst_index_inverts_src() {
        let (g, s) = store();
        for t in s.iter() {
            assert!(s.with_dst(t.dst).contains(&t));
        }
        let _ = g;
    }

    #[test]
    fn typed_views_partition_the_store() {
        let (_, s) = store();
        let syms = s.symbol_triples().count();
        let vals = s.value_triples().count();
        assert_eq!(syms + vals, s.len());
        assert!(vals >= 4); // "C", "Bogart", "Bacall", "S"
    }

    #[test]
    fn labels_are_distinct() {
        let (_, s) = store();
        let labels: Vec<&Label> = s.labels().collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }

    #[test]
    fn empty_graph_empty_store() {
        let g = Graph::new();
        let s = TripleStore::from_graph(&g);
        assert!(s.is_empty());
        assert_eq!(s.src_count(), 0);
    }
}
