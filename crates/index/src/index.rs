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
//! [`TripleIndex::merge_delta`] maintains the index across an id-stable
//! graph mutation (node ids of surviving nodes unchanged — the contract
//! `ssd-store`'s commit path provides) by diffing per-node edge lists
//! against the base SPO run and folding the resulting delta runs in with
//! linear merges; the base runs are never re-sorted.

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
    /// Build from scratch: encode every reachable edge, then sort each
    /// permutation once. A fresh dictionary fills only past `u32::MAX`
    /// labels, a programming error like the 2³²-th `NodeId`.
    pub fn build(g: &Graph) -> TripleIndex {
        let fresh = TripleIndex::build_with_dict(g, Dictionary::new());
        // lint: allow(panic) — past u32::MAX labels, the same programming error as NodeId::from_index's
        fresh.expect("more than u32::MAX distinct labels in one graph")
    }

    /// Build reusing (and extending) `dict`, so encoded label ids stay
    /// comparable with runs produced against it.
    fn build_with_dict(g: &Graph, mut dict: Dictionary) -> Result<TripleIndex, Diagnostic> {
        let mut keys: Vec<Key> = Vec::with_capacity(g.edge_count());
        for &n in &g.reachable() {
            let s = n.index() as u32;
            for e in g.edges(n) {
                keys.push([s, dict.intern(&e.label)?, e.to.index() as u32]);
            }
        }
        let spo = SortedRun::from_unsorted(keys);
        let pos = SortedRun::from_unsorted(spo.iter().map(|&[s, p, o]| [p, o, s]).collect());
        let osp = SortedRun::from_unsorted(spo.iter().map(|&[s, p, o]| [o, s, p]).collect());
        Ok(TripleIndex {
            dict,
            spo,
            pos,
            osp,
            root: g.root().index() as u32,
        })
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

    /// Rebuild the index for `g`, an **id-stable evolution** of the
    /// indexed graph (node ids present in both graphs mean the same
    /// node — `ssd-store`'s commit mutators guarantee this), by merging
    /// delta runs instead of re-sorting:
    ///
    /// 1. old triples whose source fell out of the reachable fragment are
    ///    deleted wholesale (one linear SPO walk);
    /// 2. each reachable node's encoded edge list is diffed against its
    ///    SPO range (two-pointer, per-node);
    /// 3. the accumulated inserts/deletes — typically tiny next to the
    ///    base — are sorted and folded into each permutation with a
    ///    linear [`SortedRun::merge`].
    pub fn merge_delta(&self, g: &Graph) -> Result<TripleIndex, Diagnostic> {
        let mut dict = self.dict.clone();
        let mut live = g.reachable();
        live.sort_unstable();
        let mut reach = vec![false; g.node_count()];
        for &n in &live {
            reach[n.index()] = true;
        }
        let mut ins: Vec<Key> = Vec::new();
        let mut del: Vec<Key> = Vec::new();
        for &k in self.spo.iter() {
            let s = k[0] as usize;
            if s >= reach.len() || !reach[s] {
                del.push(k);
            }
        }
        for &n in &live {
            let s = n.index() as u32;
            let mut now: Vec<Key> = Vec::with_capacity(g.out_degree(n));
            for e in g.edges(n) {
                now.push([s, dict.intern(&e.label)?, e.to.index() as u32]);
            }
            now.sort_unstable();
            now.dedup();
            let before = self.spo.range1(s);
            if before == now.as_slice() {
                continue;
            }
            let (mut i, mut j) = (0usize, 0usize);
            while i < before.len() || j < now.len() {
                match (before.get(i), now.get(j)) {
                    (Some(b), Some(c)) if b == c => {
                        i += 1;
                        j += 1;
                    }
                    (Some(b), Some(c)) if b < c => {
                        del.push(*b);
                        i += 1;
                    }
                    (Some(_), Some(c)) => {
                        ins.push(*c);
                        j += 1;
                    }
                    (Some(b), None) => {
                        del.push(*b);
                        i += 1;
                    }
                    (None, Some(c)) => {
                        ins.push(*c);
                        j += 1;
                    }
                    (None, None) => break,
                }
            }
        }
        // Only the delta is sorted; the base runs are merged linearly.
        let ins = SortedRun::from_unsorted(ins);
        let del = SortedRun::from_unsorted(del);
        let spo = SortedRun::merge(&self.spo, &ins, &del);
        let permute =
            |r: &SortedRun, f: fn(&Key) -> Key| SortedRun::from_unsorted(r.iter().map(f).collect());
        let pos = SortedRun::merge(
            &self.pos,
            &permute(&ins, |&[s, p, o]| [p, o, s]),
            &permute(&del, |&[s, p, o]| [p, o, s]),
        );
        let osp = SortedRun::merge(
            &self.osp,
            &permute(&ins, |&[s, p, o]| [o, s, p]),
            &permute(&del, |&[s, p, o]| [o, s, p]),
        );
        Ok(TripleIndex {
            dict,
            spo,
            pos,
            osp,
            root: g.root().index() as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_graph::literal::parse_graph;
    use std::collections::HashSet;

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
    fn merge_delta_tracks_id_stable_edits() {
        let mut g = movie_graph();
        let idx = TripleIndex::build(&g);
        // Id-stable mutation: add a node + edges, drop nothing.
        let n = g.add_node();
        let year = Label::symbol(g.symbols(), "Remake");
        g.add_edge(g.root(), year.clone(), n);
        let merged = idx.merge_delta(&g).unwrap();
        let rebuilt = TripleIndex::build_with_dict(&g, idx.dict().clone()).unwrap();
        assert_eq!(merged.spo.as_slice(), rebuilt.spo.as_slice());
        assert_eq!(merged.pos.as_slice(), rebuilt.pos.as_slice());
        assert_eq!(merged.osp.as_slice(), rebuilt.osp.as_slice());
        assert_eq!(merged.len(), idx.len() + 1);
    }

    /// A dictionary carried across merges can fill, a fresh one cannot:
    /// `merge_delta` over a full dictionary is SSD051, and a build of the
    /// same graph still indexes exactly its reachable edges. This is the
    /// path a store commit falls back on (it publishes the generation
    /// unseeded, and the first use rebuilds).
    #[test]
    fn merge_delta_overflow_is_ssd051_and_a_fresh_build_still_succeeds() {
        let mut g = movie_graph();
        let full = Dictionary::with_limit(TripleIndex::build(&g).dict().len() as u32);
        let idx = TripleIndex::build_with_dict(&g, full).unwrap();
        let n = g.add_node();
        let remake = Label::symbol(g.symbols(), "Remake");
        g.add_edge(g.root(), remake, n);
        let err = idx.merge_delta(&g).unwrap_err();
        assert_eq!(err.code.as_str(), "SSD051");
        let walked: HashSet<(u32, Label, u32)> = g
            .reachable()
            .into_iter()
            .flat_map(|n| {
                let s = n.index() as u32;
                g.edges(n)
                    .iter()
                    .map(move |e| (s, e.label.clone(), e.to.index() as u32))
            })
            .collect();
        let built: HashSet<(u32, Label, u32)> =
            TripleIndex::build(&g).decoded().into_iter().collect();
        assert_eq!(built, walked);
    }

    #[test]
    fn merge_delta_drops_unreachable_fragments() {
        let mut g = movie_graph();
        let idx = TripleIndex::build(&g);
        // Cut both Entry edges: everything below the root unreachable.
        g.set_edges(g.root(), Vec::new());
        let merged = idx.merge_delta(&g).unwrap();
        assert!(merged.is_empty());
        let rebuilt = TripleIndex::build_with_dict(&g, idx.dict().clone()).unwrap();
        assert_eq!(merged.spo.as_slice(), rebuilt.spo.as_slice());
    }
}
