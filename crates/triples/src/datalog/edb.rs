//! The EDB access interface: how the evaluator reads `edge`, `node` and
//! `root`.
//!
//! §3 treats the graph as one relation `edge(src, label, dst)`; graph
//! datalog recurses *over that relation*, not over a copy of it. The
//! evaluator therefore never materializes the EDB: it asks an [`Edb`] for
//! the triples matching whichever of `src`, `label`, `dst` are already
//! resolved, as encoded `[u32; 3]` keys (node index, label id, node
//! index). Two implementations exist: the columnar triple index of a
//! `Database` snapshot (a wrapper in the facade crate, one sorted
//! permutation per bound-argument pattern) and [`StoreEdb`] over a
//! [`TripleStore`]'s hash indexes. Both offer *exactly* the matching
//! triples, so a program ticks the same fuel on either.

use crate::store::TripleStore;
use ssd_graph::{Label, NodeId};
use std::collections::HashMap;

/// One encoded triple `[src, label, dst]`: node indexes and label ids.
pub type Key = [u32; 3];

/// Read access to the extensional relations of one graph snapshot.
///
/// Node indexes and label ids must stay below `2^31`: the evaluator
/// tags label ids with the top bit to keep the two id spaces apart in
/// one `u32` tuple (it checks [`Edb::max_node`] and
/// [`Edb::label_count`] up front and refuses larger snapshots).
pub trait Edb {
    /// `"index"` or `"triples"` — the `edb` field of the datalog span.
    fn name(&self) -> &'static str;

    /// Node index of the graph root.
    fn root(&self) -> u32;

    /// The largest node index in any triple (or the root's).
    fn max_node(&self) -> u32;

    /// Label ids are dense: `0..label_count()`.
    fn label_count(&self) -> usize;

    /// The id of `label`, if the snapshot knows it.
    fn label_id(&self, label: &Label) -> Option<u32>;

    /// The label behind an id below [`Edb::label_count`].
    fn label(&self, id: u32) -> Option<&Label>;

    /// Call `visit` with every triple whose resolved positions equal
    /// `s`, `p`, `o` — those and no others — until it returns `false`.
    fn scan(
        &self,
        s: Option<u32>,
        p: Option<u32>,
        o: Option<u32>,
        visit: &mut dyn FnMut(Key) -> bool,
    );

    /// The `node/1` relation: every endpoint of a triple plus the root,
    /// sorted and distinct.
    fn nodes(&self) -> Vec<u32>;
}

/// [`Edb`] over a [`TripleStore`]: labels are numbered in first-arrival
/// order and each lookup goes to the most selective of the store's hash
/// indexes (`by_src_label`, `by_src`, `by_label`, `by_dst`), filtered on
/// whatever that index does not cover.
pub struct StoreEdb<'s> {
    store: &'s TripleStore,
    labels: Vec<&'s Label>,
    ids: HashMap<&'s Label, u32>,
    /// Encoded triples, parallel to the store's positions.
    keys: Vec<Key>,
    max_node: u32,
}

impl<'s> StoreEdb<'s> {
    pub fn new(store: &'s TripleStore) -> StoreEdb<'s> {
        let mut labels: Vec<&Label> = Vec::new();
        let mut ids: HashMap<&Label, u32> = HashMap::new();
        let mut keys = Vec::with_capacity(store.len());
        let mut max_node = store.root().index() as u32;
        for t in store.iter() {
            let p = *ids.entry(&t.label).or_insert_with(|| {
                labels.push(&t.label);
                (labels.len() - 1) as u32
            });
            let (s, o) = (t.src.index() as u32, t.dst.index() as u32);
            max_node = max_node.max(s).max(o);
            keys.push([s, p, o]);
        }
        StoreEdb {
            store,
            labels,
            ids,
            keys,
            max_node,
        }
    }
}

impl Edb for StoreEdb<'_> {
    fn name(&self) -> &'static str {
        "triples"
    }

    fn root(&self) -> u32 {
        self.store.root().index() as u32
    }

    fn max_node(&self) -> u32 {
        self.max_node
    }

    fn label_count(&self) -> usize {
        self.labels.len()
    }

    fn label_id(&self, label: &Label) -> Option<u32> {
        self.ids.get(label).copied()
    }

    fn label(&self, id: u32) -> Option<&Label> {
        self.labels.get(id as usize).copied()
    }

    fn scan(
        &self,
        s: Option<u32>,
        p: Option<u32>,
        o: Option<u32>,
        visit: &mut dyn FnMut(Key) -> bool,
    ) {
        let node = |n: u32| NodeId::from_index(n as usize);
        let label = p.and_then(|p| self.label(p));
        if p.is_some() && label.is_none() {
            return;
        }
        let matches = |k: &Key| {
            s.is_none_or(|s| k[0] == s)
                && p.is_none_or(|p| k[1] == p)
                && o.is_none_or(|o| k[2] == o)
        };
        match self.store.positions(s.map(node), label, o.map(node)) {
            Some(picks) => {
                for &i in picks {
                    let k = self.keys[i as usize];
                    if matches(&k) && !visit(k) {
                        return;
                    }
                }
            }
            None => {
                for k in &self.keys {
                    if !visit(*k) {
                        return;
                    }
                }
            }
        }
    }

    fn nodes(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self.keys.iter().flat_map(|k| [k[0], k[2]]).collect();
        out.push(self.root());
        out.sort_unstable();
        out.dedup();
        out
    }
}
