//! The §1.3 browsing queries.
//!
//! "Generally speaking, a user cannot write a database query without
//! knowledge of the schema ... It may help in understanding the schema to
//! be able to query data without full knowledge of the schema. For example
//! the queries:
//!
//! * Where in the database is the string "Casablanca" to be found?
//! * Are there integers in the database greater than 2^16?
//! * What objects in the database have an attribute name that starts with
//!   "act"?
//!
//! Such questions cannot be answered in any generic fashion by standard
//! relational or object-oriented query languages."
//!
//! Here they *are* answered, generically, in two ways each: by a full scan
//! of the reachable graph (`locate_*_scan`, the reference and experiment
//! E2's baseline) and from the generation's [`TripleIndex`]
//! (`locate_*_indexed`, the §4 "indices on labels and strings"). The index
//! turns each question into a search of its label dictionary — one exact
//! lookup for a string, one pass over the ids for an integer range, the
//! symbol table's prefix search for an attribute name — followed by one
//! POS range per matching label. [`annotate`] then reports each located
//! edge with one shortest label path from the root, so the answer is
//! *localised* ("where in the database"), not just boolean.

use ssd_graph::{Graph, Label, NodeId, Value};
use ssd_index::TripleIndex;
use std::collections::VecDeque;

/// An occurrence of a browsing hit: the edge, plus one shortest label path
/// from the root to the edge's source.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    pub from: NodeId,
    pub label: Label,
    pub to: NodeId,
    /// Shortest path of labels from the root to `from` (empty if `from` is
    /// the root).
    pub path: Vec<Label>,
}

/// Raw located edge, before path annotation.
pub type Located = (NodeId, Label, NodeId);

/// Attach to each located edge one shortest label path from the root to
/// its source. One BFS records, per node, the `(parent, label)` edge that
/// first discovered it; only the hits' paths are rebuilt from those links.
pub fn annotate(g: &Graph, located: Vec<Located>) -> Vec<Hit> {
    if located.is_empty() {
        return Vec::new();
    }
    let root = g.root();
    let mut parent: Vec<Option<(NodeId, &Label)>> = vec![None; g.node_count()];
    let mut queue = VecDeque::from([root]);
    while let Some(n) = queue.pop_front() {
        for e in g.edges(n) {
            if e.to != root && parent[e.to.index()].is_none() {
                parent[e.to.index()] = Some((n, &e.label));
                queue.push_back(e.to);
            }
        }
    }
    located
        .into_iter()
        .map(|(from, label, to)| {
            let mut path = Vec::new();
            let mut n = from;
            while let Some((p, l)) = parent[n.index()] {
                path.push(l.clone());
                n = p;
            }
            path.reverse();
            Hit {
                from,
                label,
                to,
                path,
            }
        })
        .collect()
}

/// Append the indexed edges carrying label id `p` (one POS range).
fn push_labeled(idx: &TripleIndex, p: u32, out: &mut Vec<Located>) {
    let Some(label) = idx.dict().resolve(p) else {
        return;
    };
    out.extend(idx.by_label(p).iter().map(|&[_, o, s]| {
        (
            NodeId::from_index(s as usize),
            label.clone(),
            NodeId::from_index(o as usize),
        )
    }));
}

/// Every reachable edge whose label satisfies `pred`, in BFS order of its
/// source.
fn scan(g: &Graph, pred: impl Fn(&Label) -> bool) -> Vec<Located> {
    let mut out = Vec::new();
    for n in g.reachable() {
        for e in g.edges(n) {
            if pred(&e.label) {
                out.push((n, e.label.clone(), e.to));
            }
        }
    }
    out
}

/// Q1 locate (scan): edges carrying the string `text` as a value or a
/// symbol name.
pub fn locate_string_scan(g: &Graph, text: &str) -> Vec<Located> {
    scan(g, |l| match l {
        Label::Value(Value::Str(s)) => s == text,
        Label::Symbol(s) => &*g.symbols().resolve(*s) == text,
        _ => false,
    })
}

/// Q1 locate (index): the string value `text`, then the symbol named
/// `text` — two dictionary lookups, each followed by its POS range.
pub fn locate_string_indexed(g: &Graph, idx: &TripleIndex, text: &str) -> Vec<Located> {
    let symbol = g.symbols().get(text).map(Label::Symbol);
    let mut out = Vec::new();
    for label in [Some(Label::str(text)), symbol].iter().flatten() {
        if let Some(p) = idx.label_id(label) {
            push_labeled(idx, p, &mut out);
        }
    }
    out
}

/// Q2 locate (scan): integer edges with value > `threshold`.
pub fn locate_ints_greater_scan(g: &Graph, threshold: i64) -> Vec<Located> {
    scan(
        g,
        |l| matches!(l, Label::Value(Value::Int(i)) if *i > threshold),
    )
}

/// Q2 locate (index): one pass over the dictionary for the integer labels
/// above `threshold`, then their POS ranges in ascending value order.
pub fn locate_ints_greater_indexed(idx: &TripleIndex, threshold: i64) -> Vec<Located> {
    let mut ints: Vec<(i64, u32)> = idx
        .dict()
        .iter()
        .filter_map(|(p, l)| match l {
            Label::Value(Value::Int(i)) if *i > threshold => Some((*i, p)),
            _ => None,
        })
        .collect();
    ints.sort_unstable();
    let mut out = Vec::new();
    for (_, p) in ints {
        push_labeled(idx, p, &mut out);
    }
    out
}

/// Q3 locate (scan): symbol edges whose name starts with `prefix`.
pub fn locate_attrs_prefix_scan(g: &Graph, prefix: &str) -> Vec<Located> {
    scan(g, |l| match l {
        Label::Symbol(s) => g.symbols().resolve(*s).starts_with(prefix),
        _ => false,
    })
}

/// Q3 locate (index): the symbol table's prefix search, then each symbol's
/// POS range — no graph scan at all.
pub fn locate_attrs_prefix_indexed(g: &Graph, idx: &TripleIndex, prefix: &str) -> Vec<Located> {
    let mut out = Vec::new();
    for sym in g.symbols().symbols_with_prefix(prefix) {
        if let Some(p) = idx.label_id(&Label::Symbol(sym)) {
            push_labeled(idx, p, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_graph::literal::parse_graph;
    use std::collections::BTreeSet;

    fn db() -> Graph {
        parse_graph(
            r#"{Entry: {Movie: {Title: "Casablanca",
                                Cast: {Actors: "Bogart", Actors: "Bacall"},
                                BoxOffice: 1200000,
                                Year: 1942}},
                Entry: {Movie: {Title: "Play it again, Sam",
                                Cast: {Credit: {actors: "Allen"}},
                                Year: 1972}}}"#,
        )
        .unwrap()
    }

    fn set(located: &[Located]) -> BTreeSet<Located> {
        located.iter().cloned().collect()
    }

    fn ints(located: &[Located]) -> Vec<i64> {
        located
            .iter()
            .map(|(_, l, _)| match l {
                Label::Value(Value::Int(i)) => *i,
                other => panic!("not an int label: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn q1_scan_and_index_agree() {
        let g = db();
        let idx = TripleIndex::build(&g);
        for text in ["Casablanca", "Bogart", "Title", "actors", "nothing-here"] {
            let s = locate_string_scan(&g, text);
            let i = locate_string_indexed(&g, &idx, text);
            assert_eq!(set(&s), set(&i), "disagree on {text}");
        }
        assert!(locate_string_indexed(&g, &idx, "nothing-here").is_empty());
    }

    #[test]
    fn q1_finds_casablanca_with_path() {
        let g = db();
        let idx = TripleIndex::build(&g);
        let hits = annotate(&g, locate_string_indexed(&g, &idx, "Casablanca"));
        assert_eq!(hits.len(), 1);
        let path: Vec<String> = hits[0]
            .path
            .iter()
            .map(|l| l.display(g.symbols()).to_string())
            .collect();
        assert_eq!(path, vec!["Entry", "Movie", "Title"]);
    }

    #[test]
    fn find_string_matches_symbols_too() {
        let g = db();
        let idx = TripleIndex::build(&g);
        // "Title" occurs as a symbol on two edges, never as a string.
        let hits = locate_string_indexed(&g, &idx, "Title");
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|(_, l, _)| l.is_symbol()));
    }

    #[test]
    fn q2_scan_and_index_agree() {
        let g = db();
        let idx = TripleIndex::build(&g);
        for threshold in [i64::MIN, 0, 1941, 65536, 10_000_000, i64::MAX] {
            let s = locate_ints_greater_scan(&g, threshold);
            let i = locate_ints_greater_indexed(&idx, threshold);
            assert_eq!(set(&s), set(&i), "disagree at threshold {threshold}");
        }
        assert!(locate_ints_greater_indexed(&idx, i64::MAX).is_empty());
        assert_eq!(locate_ints_greater_indexed(&idx, i64::MIN).len(), 3);
    }

    #[test]
    fn q2_index_lists_values_in_ascending_order() {
        let g = db();
        let idx = TripleIndex::build(&g);
        assert_eq!(
            ints(&locate_ints_greater_indexed(&idx, 0)),
            vec![1942, 1972, 1_200_000]
        );
    }

    #[test]
    fn q2_finds_ints_above_2_16() {
        let g = db();
        let idx = TripleIndex::build(&g);
        let hits = annotate(&g, locate_ints_greater_indexed(&idx, 1 << 16));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].label, Label::int(1_200_000));
        assert_eq!(
            ints(&locate_ints_greater_scan(&g, 1 << 16)),
            vec![1_200_000]
        );
    }

    #[test]
    fn q3_scan_and_index_agree() {
        let g = db();
        let idx = TripleIndex::build(&g);
        for prefix in ["Act", "act", "T", "Zzz", ""] {
            let s = locate_attrs_prefix_scan(&g, prefix);
            let i = locate_attrs_prefix_indexed(&g, &idx, prefix);
            assert_eq!(set(&s), set(&i), "disagree on {prefix}");
        }
    }

    #[test]
    fn q3_finds_act_attributes() {
        let g = db();
        let idx = TripleIndex::build(&g);
        // Case-sensitive: "Actors" x2 + "actors" x1.
        assert_eq!(locate_attrs_prefix_scan(&g, "Act").len(), 2);
        assert_eq!(locate_attrs_prefix_scan(&g, "act").len(), 1);
        assert_eq!(locate_attrs_prefix_indexed(&g, &idx, "Act").len(), 2);
        assert_eq!(locate_attrs_prefix_indexed(&g, &idx, "act").len(), 1);
        assert!(locate_attrs_prefix_indexed(&g, &idx, "zzz").is_empty());
    }

    #[test]
    fn unreachable_edges_are_not_found() {
        let mut g = db();
        let orphan = g.add_node();
        let leaf = g.add_node();
        g.add_edge(orphan, Label::str("ghost"), leaf);
        g.add_edge(orphan, Label::int(1 << 20), leaf);
        g.add_sym_edge(orphan, "ghostly", leaf);
        let idx = TripleIndex::build(&g);
        assert!(locate_string_indexed(&g, &idx, "ghost").is_empty());
        assert!(locate_string_scan(&g, "ghost").is_empty());
        assert!(locate_string_indexed(&g, &idx, "ghostly").is_empty());
        assert!(locate_attrs_prefix_indexed(&g, &idx, "ghost").is_empty());
        assert_eq!(
            ints(&locate_ints_greater_indexed(&idx, 1 << 16)),
            vec![1_200_000]
        );
    }

    #[test]
    fn browsing_works_on_cyclic_data() {
        let g = parse_graph(r#"@e = {References: @e, Title: "Loop"}"#).unwrap();
        let idx = TripleIndex::build(&g);
        let hits = annotate(&g, locate_string_indexed(&g, &idx, "Loop"));
        assert_eq!(hits.len(), 1);
        assert!(locate_ints_greater_scan(&g, 0).is_empty());
        assert!(locate_ints_greater_indexed(&idx, 0).is_empty());
    }

    #[test]
    fn paths_are_shortest() {
        // Two routes to the same node; the reported path must be the short
        // one.
        let g = parse_graph(r#"{short: @t = {leaf: "X"}, long: {mid: @t}}"#).unwrap();
        let hits = annotate(&g, locate_string_scan(&g, "X"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].path.len(), 2); // short.leaf
    }

    #[test]
    fn annotating_nothing_finds_nothing() {
        assert!(annotate(&db(), Vec::new()).is_empty());
    }
}
