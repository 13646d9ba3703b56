//! The three-permutation triple index over one data-graph generation.
//!
//! Every reachable edge `(src, label, dst)` is encoded to `[u32; 3]`
//! through the [`Dictionary`] (node ids are already dense — a `NodeId`
//! *is* its index) and stored three ways:
//!
//! | run | key order | answers |
//! |---|---|---|
//! | SPO | `[src, label, dst]` | "edges out of `s`", "`s` via label `p`" |
//! | POS | `[label, dst, src]` | "edges labeled `p`", label cardinalities |
//! | OSP | `[dst, src, label]` | "edges into `o`" |
//!
//! The index covers exactly the triples whose source is *reachable* from
//! the root — the fragment every evaluator operates on.
//!
//! Each generation's index is built once from that generation's own
//! graph ([`TripleIndex::build`]): one encoding pass over the reachable
//! edges, one sort per permutation.

use crate::dict::Dictionary;
use crate::run::{Key, SortedRun};
use ssd_diag::Diagnostic;
use ssd_graph::{Graph, Label};

/// Dictionary-encoded SPO/POS/OSP sorted-run permutations of one graph's
/// reachable triples.
#[derive(Debug, Clone)]
pub struct TripleIndex {
    dict: Dictionary,
    spo: SortedRun,
    pos: SortedRun,
    osp: SortedRun,
    root: u32,
}

impl TripleIndex {
    /// Build from scratch: encode every reachable edge through a fresh
    /// dictionary, then sort each permutation once.
    pub fn build(g: &Graph) -> TripleIndex {
        let mut dict = Dictionary::new();
        let mut keys: Vec<Key> = Vec::with_capacity(g.edge_count());
        for &n in &g.reachable() {
            let s = n.index() as u32;
            for e in g.edges(n) {
                keys.push([s, dict.intern(&e.label), e.to.index() as u32]);
            }
        }
        let spo = SortedRun::from_unsorted(keys);
        let pos = SortedRun::from_unsorted(spo.iter().map(|&[s, p, o]| [p, o, s]).collect());
        let osp = SortedRun::from_unsorted(spo.iter().map(|&[s, p, o]| [o, s, p]).collect());
        TripleIndex {
            dict,
            spo,
            pos,
            osp,
            root: g.root().index() as u32,
        }
    }

    /// Number of distinct indexed triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Encoded id of the graph root.
    pub fn root(&self) -> u32 {
        self.root
    }

    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    pub fn spo(&self) -> &SortedRun {
        &self.spo
    }

    pub fn pos(&self) -> &SortedRun {
        &self.pos
    }

    pub fn osp(&self) -> &SortedRun {
        &self.osp
    }

    /// Dense id of `label`, if it occurs in the indexed graph.
    pub fn label_id(&self, label: &Label) -> Option<u32> {
        self.dict.lookup(label)
    }

    /// How many indexed edges carry label `p` (one POS range lookup) —
    /// the per-step selectivity the access-path planner works from.
    pub fn label_count(&self, p: u32) -> usize {
        self.pos.range1(p).len()
    }

    /// `[s, p, o]` keys out of source `s`.
    pub fn edges_from(&self, s: u32) -> &[Key] {
        self.spo.range1(s)
    }

    /// `[s, p, o]` keys out of `s` labeled `p`.
    pub fn edges_from_labeled(&self, s: u32, p: u32) -> &[Key] {
        self.spo.range2(s, p)
    }

    /// `[p, o, s]` keys labeled `p`.
    pub fn by_label(&self, p: u32) -> &[Key] {
        self.pos.range1(p)
    }

    /// `[o, s, p]` keys into destination `o`.
    pub fn edges_into(&self, o: u32) -> &[Key] {
        self.osp.range1(o)
    }

    /// Guard-accounted bytes the three permutations plus the dictionary
    /// occupy.
    pub fn encoded_bytes(&self) -> u64 {
        self.spo.bytes() + self.pos.bytes() + self.osp.bytes() + self.dict.encoded_bytes()
    }

    /// The indexed triples decoded back to labels, in SPO order — the
    /// dictionary-independent view equality tests compare.
    pub fn decoded(&self) -> Vec<(u32, Label, u32)> {
        self.spo
            .iter()
            .filter_map(|&[s, p, o]| self.dict.resolve(p).map(|l| (s, l.clone(), o)))
            .collect()
    }

    /// The index of `g`, equal to [`TripleIndex::build`]`(g)` — the step
    /// `ssd-store`'s commit runs. It exists only because the benchmark's
    /// onion (`benchmark/src/onion.rs`) calls it to time that step as
    /// `index.merge_delta_ms`; ROADMAP item 2 deletes it.
    pub fn merge_delta(&self, g: &Graph) -> Result<TripleIndex, Diagnostic> {
        Ok(TripleIndex::build(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_graph::literal::parse_graph;

    fn movie_graph() -> Graph {
        parse_graph(
            r#"{Entry: {Movie: {Title: "Casablanca", Year: 1942}},
                Entry: {Movie: {Title: "Play it again, Sam", Year: 1972}}}"#,
        )
        .unwrap()
    }

    #[test]
    fn build_covers_reachable_edges_in_all_permutations() {
        let g = movie_graph();
        let idx = TripleIndex::build(&g);
        assert_eq!(idx.len(), g.edge_count());
        assert_eq!(idx.spo.len(), idx.pos.len());
        assert_eq!(idx.spo.len(), idx.osp.len());
        assert!(idx.spo.is_strictly_sorted());
        assert!(idx.pos.is_strictly_sorted());
        assert!(idx.osp.is_strictly_sorted());
        assert_eq!(idx.root(), g.root().index() as u32);
        let entry = idx
            .label_id(&Label::symbol(g.symbols(), "Entry"))
            .expect("Entry is indexed");
        assert_eq!(idx.label_count(entry), 2);
        assert_eq!(idx.edges_from(idx.root()).len(), 2);
        // SPO, POS, OSP agree triple-by-triple after permuting back.
        let mut via_pos: Vec<Key> = idx.pos.iter().map(|&[p, o, s]| [s, p, o]).collect();
        via_pos.sort_unstable();
        assert_eq!(via_pos, idx.spo.as_slice());
        let mut via_osp: Vec<Key> = idx.osp.iter().map(|&[o, s, p]| [s, p, o]).collect();
        via_osp.sort_unstable();
        assert_eq!(via_osp, idx.spo.as_slice());
    }

    #[test]
    fn prefix_lookups_follow_paths() {
        let g = movie_graph();
        let idx = TripleIndex::build(&g);
        let entry = idx.label_id(&Label::symbol(g.symbols(), "Entry")).unwrap();
        let movie = idx.label_id(&Label::symbol(g.symbols(), "Movie")).unwrap();
        let title = idx.label_id(&Label::symbol(g.symbols(), "Title")).unwrap();
        // root -Entry-> e -Movie-> m -Title-> t: two titles.
        let mut frontier = vec![idx.root()];
        for p in [entry, movie, title] {
            let mut next: Vec<u32> = Vec::new();
            for &s in &frontier {
                next.extend(idx.edges_from_labeled(s, p).iter().map(|k| k[2]));
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }
        assert_eq!(frontier.len(), 2);
        // Each title node has one incoming edge, visible through OSP.
        for &t in &frontier {
            assert_eq!(idx.edges_into(t).len(), 1);
        }
    }

    #[test]
    fn merge_delta_drops_unreachable_fragments() {
        let mut g = movie_graph();
        let idx = TripleIndex::build(&g);
        // Cut both Entry edges: everything below the root unreachable.
        g.set_edges(g.root(), Vec::new());
        let merged = idx.merge_delta(&g).unwrap();
        assert!(merged.is_empty());
        assert_eq!(merged.spo.as_slice(), TripleIndex::build(&g).spo.as_slice());
    }
}
