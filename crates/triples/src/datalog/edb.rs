//! The EDB access interface: how the evaluator reads `edge`, `node` and
//! `root`.
//!
//! §3 treats the graph as one relation `edge(src, label, dst)`; graph
//! datalog recurses *over that relation*, not over a copy of it. The
//! evaluator therefore never materializes the EDB: it asks an [`Edb`] for
//! the triples matching whichever of `src`, `label`, `dst` are already
//! resolved, as encoded `[u32; 3]` keys (node index, label id, node
//! index). The relation is a snapshot's triple index, read in place by
//! the facade's `semistructured::Triples`: each bound-argument pattern of
//! `edge` is one contiguous range of the permutation sorted for it, so
//! the evaluator is offered exactly the matching triples and ticks fuel
//! for those alone.

use ssd_graph::Label;

/// One encoded triple `[src, label, dst]`: node indexes and label ids.
pub type Key = [u32; 3];

/// Read access to the extensional relations of one graph snapshot.
///
/// Node indexes and label ids must stay below `2^31`: the evaluator
/// tags label ids with the top bit to keep the two id spaces apart in
/// one `u32` tuple (it checks [`Edb::max_node`] and
/// [`Edb::label_count`] up front and refuses larger snapshots).
pub trait Edb {
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

/// The reference EDB this crate's unit tests evaluate on: the reachable
/// edges of a direct graph walk in a `Vec`, labels numbered in
/// first-arrival order, every lookup a filter over the whole `Vec`.
#[cfg(test)]
pub(crate) mod walked {
    use super::{Edb, Key};
    use ssd_graph::{Graph, Label};

    pub(crate) struct Walked {
        root: u32,
        labels: Vec<Label>,
        keys: Vec<Key>,
    }

    impl Walked {
        pub(crate) fn new(g: &Graph) -> Walked {
            let mut edb = Walked {
                root: g.root().index() as u32,
                labels: Vec::new(),
                keys: Vec::new(),
            };
            for n in g.reachable() {
                for e in g.edges(n) {
                    let p = edb.label_id(&e.label).unwrap_or_else(|| {
                        edb.labels.push(e.label.clone());
                        edb.labels.len() as u32 - 1
                    });
                    edb.keys.push([n.index() as u32, p, e.to.index() as u32]);
                }
            }
            edb
        }
    }

    impl Edb for Walked {
        fn root(&self) -> u32 {
            self.root
        }

        fn max_node(&self) -> u32 {
            self.nodes().last().copied().unwrap_or(self.root)
        }

        fn label_count(&self) -> usize {
            self.labels.len()
        }

        fn label_id(&self, label: &Label) -> Option<u32> {
            self.labels
                .iter()
                .position(|l| l == label)
                .map(|i| i as u32)
        }

        fn label(&self, id: u32) -> Option<&Label> {
            self.labels.get(id as usize)
        }

        fn scan(
            &self,
            s: Option<u32>,
            p: Option<u32>,
            o: Option<u32>,
            visit: &mut dyn FnMut(Key) -> bool,
        ) {
            let hit = |k: &&Key| {
                [s, p, o]
                    .iter()
                    .zip(*k)
                    .all(|(want, v)| want.is_none_or(|w| w == *v))
            };
            for &k in self.keys.iter().filter(hit) {
                if !visit(k) {
                    return;
                }
            }
        }

        fn nodes(&self) -> Vec<u32> {
            let mut out: Vec<u32> = self.keys.iter().flat_map(|k| [k[0], k[2]]).collect();
            out.push(self.root);
            out.sort_unstable();
            out.dedup();
            out
        }
    }
}
