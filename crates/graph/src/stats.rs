//! Descriptive statistics of a data graph — the numbers a user browses
//! before writing queries against an unknown database (§1.3's spirit).

use crate::graph::{Graph, NodeId};
use crate::label::{Label, LabelKind};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// A statistical profile of the reachable part of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphProfile {
    pub nodes: usize,
    pub edges: usize,
    pub leaves: usize,
    pub cyclic: bool,
    /// Edge counts per label kind (symbol/int/real/string/bool).
    pub kind_histogram: BTreeMap<LabelKind, usize>,
    /// Edge counts per symbol name, descending.
    pub symbol_histogram: Vec<(String, usize)>,
    /// Max out-degree and the node attaining it.
    pub max_out_degree: (usize, NodeId),
    /// Max in-degree (within the reachable fragment) and its node.
    pub max_in_degree: (usize, NodeId),
    /// Eccentricity of the root: the BFS depth of the farthest node.
    pub depth: usize,
}

/// Profile the reachable fragment of `g`.
pub fn profile(g: &Graph) -> GraphProfile {
    let reachable = g.reachable();
    let mut kind_histogram: BTreeMap<LabelKind, usize> = BTreeMap::new();
    let mut symbol_counts: HashMap<String, usize> = HashMap::new();
    let mut indeg = vec![0usize; g.node_count()];
    let mut edges = 0usize;
    let mut leaves = 0usize;
    let mut max_out = (0usize, g.root());
    for &n in &reachable {
        let deg = g.out_degree(n);
        if deg == 0 {
            leaves += 1;
        }
        if deg > max_out.0 {
            max_out = (deg, n);
        }
        for e in g.edges(n) {
            edges += 1;
            *kind_histogram.entry(e.label.kind()).or_insert(0) += 1;
            if let Label::Symbol(s) = &e.label {
                *symbol_counts
                    .entry(g.symbols().resolve(*s).to_string())
                    .or_insert(0) += 1;
            }
            indeg[e.to.index()] += 1;
        }
    }
    let mut symbol_histogram: Vec<(String, usize)> = symbol_counts.into_iter().collect();
    symbol_histogram.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    // Ties go to the smallest node id.
    let max_in = indeg
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .max_by_key(|&(i, &c)| (c, Reverse(i)))
        .map_or((0, g.root()), |(i, &c)| (c, NodeId::from_index(i)));
    // Root eccentricity by BFS.
    let mut depth = 0usize;
    let mut seen = vec![false; g.node_count()];
    let mut queue: VecDeque<(NodeId, usize)> = VecDeque::new();
    seen[g.root().index()] = true;
    queue.push_back((g.root(), 0));
    while let Some((n, d)) = queue.pop_front() {
        depth = depth.max(d);
        for e in g.edges(n) {
            if !seen[e.to.index()] {
                seen[e.to.index()] = true;
                queue.push_back((e.to, d + 1));
            }
        }
    }
    GraphProfile {
        nodes: reachable.len(),
        edges,
        leaves,
        cyclic: g.has_cycle(),
        kind_histogram,
        symbol_histogram,
        max_out_degree: max_out,
        max_in_degree: max_in,
        depth,
    }
}

impl std::fmt::Display for GraphProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} nodes ({} leaves), {} edges, BFS depth {}{}",
            self.nodes,
            self.leaves,
            self.edges,
            self.depth,
            if self.cyclic { ", cyclic" } else { "" }
        )?;
        writeln!(
            f,
            "max out-degree {} at {}, max in-degree {} at {}",
            self.max_out_degree.0,
            self.max_out_degree.1,
            self.max_in_degree.0,
            self.max_in_degree.1
        )?;
        write!(f, "edge kinds:")?;
        for (k, c) in &self.kind_histogram {
            write!(f, " {k}={c}")?;
        }
        writeln!(f)?;
        write!(f, "top symbols:")?;
        for (name, c) in self.symbol_histogram.iter().take(8) {
            write!(f, " {name}={c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::parse_graph;

    fn db() -> Graph {
        parse_graph(
            r#"{Movie: {Title: "C", Cast: {Actors: "B", Actors: "L"}, Year: 1942},
                Movie: {Title: "S"},
                Loop: @x = {next: @x}}"#,
        )
        .unwrap()
    }

    #[test]
    fn counts_are_consistent() {
        let g = db();
        let p = profile(&g);
        assert_eq!(p.nodes, g.reachable().len());
        assert_eq!(p.edges, g.edge_count());
        assert!(p.cyclic);
        assert!(p.leaves > 0);
        let kind_total: usize = p.kind_histogram.values().sum();
        assert_eq!(kind_total, p.edges);
    }

    #[test]
    fn symbol_histogram_sorted_desc() {
        let p = profile(&db());
        assert!(p.symbol_histogram.windows(2).all(|w| w[0].1 >= w[1].1));
        let movie = p
            .symbol_histogram
            .iter()
            .find(|(n, _)| n == "Movie")
            .expect("Movie counted");
        assert_eq!(movie.1, 2);
    }

    #[test]
    fn degrees_and_depth() {
        let g = parse_graph("{a: {b: {c: {d: 1}}}}").unwrap();
        let p = profile(&g);
        assert_eq!(p.depth, 5); // a.b.c.d + value edge
        assert_eq!(p.max_out_degree.0, 1);
        let g2 = parse_graph("{x: @s = {}, y: @s, z: @s}").unwrap();
        let p2 = profile(&g2);
        assert_eq!(p2.max_in_degree.0, 3);
        assert_eq!(p2.max_out_degree.0, 3);
    }

    #[test]
    fn max_in_degree_ties_go_to_the_smallest_node() {
        let g = parse_graph(
            "{a: @p = {}, b: @p, c: @q = {}, d: @q, e: @r = {}, f: @r, \
              g: @s = {}, h: @s, i: @t = {}, j: @t, k: @u = {}, l: @u}",
        )
        .unwrap();
        let mut indeg = vec![0; g.node_count()];
        for n in g.reachable() {
            for e in g.edges(n) {
                indeg[e.to.index()] += 1;
            }
        }
        let first = indeg.iter().position(|&c| c == 2).unwrap();
        // Each profile hashes afresh, so a hash-order tie-break would
        // differ from run to run.
        for _ in 0..5 {
            assert_eq!(profile(&g).max_in_degree, (2, NodeId::from_index(first)));
        }
    }

    #[test]
    fn empty_graph_profile() {
        let g = Graph::new();
        let p = profile(&g);
        assert_eq!(p.nodes, 1);
        assert_eq!(p.edges, 0);
        assert_eq!(p.leaves, 1);
        assert_eq!(p.depth, 0);
        assert!(!p.cyclic);
    }

    #[test]
    fn display_is_informative() {
        let shown = profile(&db()).to_string();
        assert!(shown.contains("cyclic"));
        assert!(shown.contains("edge kinds:"));
        assert!(shown.contains("Movie=2"));
    }
}
