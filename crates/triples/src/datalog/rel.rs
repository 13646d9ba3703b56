//! IDB relations as flat encoded tuples.
//!
//! A relation is an append-only arena of fixed-arity `u32` rows. Rows
//! arrive in derivation order, so "the tuples last round added" is a row
//! range, not a second set: semi-naive evaluation reads `full = [0, vis)`
//! and `delta = [prev, vis)` off the same arena. Set semantics and bound
//! argument lookups come from [`ColIndex`]es — chained hash indexes over
//! a fixed column subset (all columns, for deduplication; the columns a
//! body literal arrives with already bound, for joins).

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::ops::Range;

const NIL: u32 = u32::MAX;

/// A chained hash index over the `cols` of a relation's rows. `heads`
/// holds each bucket's newest row, `next` links a row to the next older
/// one in its bucket, so a probe walks matching rows newest first.
#[derive(Debug)]
struct ColIndex {
    cols: Vec<usize>,
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl ColIndex {
    fn new(cols: Vec<usize>) -> ColIndex {
        ColIndex {
            cols,
            heads: vec![NIL; 16],
            next: Vec::new(),
        }
    }

    fn bucket(&self, hash: u64) -> usize {
        // Power-of-two table: the mask keeps the well-mixed low bits.
        hash as usize & (self.heads.len() - 1)
    }
}

/// One IDB relation; see the module docs.
#[derive(Debug)]
pub(super) struct Relation {
    arity: usize,
    len: usize,
    rows: Vec<u32>,
    /// `indexes[0]` covers every column (the deduplication index).
    indexes: Vec<ColIndex>,
    /// Keyed per relation: tuple values come from user data, so bucket
    /// placement must not be predictable.
    hasher: RandomState,
    /// Rows `[prev, vis)` were added by the previous fixpoint round.
    pub(super) prev: usize,
    /// Rows `[0, vis)` are visible to rule bodies in the current round.
    pub(super) vis: usize,
}

impl Relation {
    pub(super) fn new(arity: usize) -> Relation {
        Relation {
            arity,
            len: 0,
            rows: Vec::new(),
            indexes: vec![ColIndex::new((0..arity).collect())],
            hasher: RandomState::new(),
            prev: 0,
            vis: 0,
        }
    }

    pub(super) fn arity(&self) -> usize {
        self.arity
    }

    pub(super) fn len(&self) -> usize {
        self.len
    }

    pub(super) fn row(&self, i: usize) -> &[u32] {
        &self.rows[i * self.arity..(i + 1) * self.arity]
    }

    /// The rows alone, for the finished [`super::Evaluation`].
    pub(super) fn into_rows(self) -> Vec<u32> {
        self.rows
    }

    /// The index over exactly `cols` (ascending), created on first ask.
    /// Called while compiling rules, before any row exists.
    pub(super) fn index_on(&mut self, cols: Vec<usize>) -> usize {
        if let Some(i) = self.indexes.iter().position(|ix| ix.cols == cols) {
            return i;
        }
        self.indexes.push(ColIndex::new(cols));
        self.indexes.len() - 1
    }

    fn hash(&self, vals: impl Iterator<Item = u32>) -> u64 {
        let mut h = self.hasher.build_hasher();
        for v in vals {
            h.write_u32(v);
        }
        h.finish()
    }

    pub(super) fn contains(&self, tuple: &[u32]) -> bool {
        let mut found = false;
        self.probe(0, &|c| tuple[c], 0..self.len, &mut |_| {
            found = true;
            false
        });
        found
    }

    /// Append `tuple`; the caller has checked it is not yet present.
    pub(super) fn insert(&mut self, tuple: &[u32]) {
        assert!(self.len < NIL as usize, "relation row ids exhausted");
        self.rows.extend_from_slice(tuple);
        self.len += 1;
        for i in 0..self.indexes.len() {
            if self.len > self.indexes[i].heads.len() {
                // Double the table and rechain every row, oldest first,
                // so chains stay newest-first.
                let buckets = self.indexes[i].heads.len() * 2;
                self.indexes[i].heads = vec![NIL; buckets];
                self.indexes[i].next.clear();
                for r in 0..self.len {
                    self.link(i, r);
                }
            } else {
                self.link(i, self.len - 1);
            }
        }
    }

    /// Put row `r` at the head of its bucket chain in index `i`.
    fn link(&mut self, i: usize, r: usize) {
        let row = self.row(r);
        let hash = self.hash(self.indexes[i].cols.iter().map(|&c| row[c]));
        let ix = &mut self.indexes[i];
        let b = ix.bucket(hash);
        ix.next.push(ix.heads[b]);
        ix.heads[b] = r as u32;
    }

    /// Offer `visit` every row in `range` whose `index` columns equal
    /// `val(col)` — exact matches only, newest first — until it returns
    /// `false`.
    pub(super) fn probe(
        &self,
        index: usize,
        val: &dyn Fn(usize) -> u32,
        range: Range<usize>,
        visit: &mut dyn FnMut(&[u32]) -> bool,
    ) {
        let ix = &self.indexes[index];
        let hash = self.hash(ix.cols.iter().map(|&c| val(c)));
        let mut r = ix.heads[ix.bucket(hash)];
        while r != NIL && r as usize >= range.start {
            let row = self.row(r as usize);
            if (r as usize) < range.end && ix.cols.iter().all(|&c| row[c] == val(c)) && !visit(row)
            {
                return;
            }
            r = ix.next[r as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Enough rows to double the tables several times: set semantics,
    /// column probes and row ranges all survive the rechaining.
    #[test]
    fn probes_are_exact_across_growth_and_ranges() {
        let mut rel = Relation::new(2);
        let by_first = rel.index_on(vec![0]);
        for i in 0..1000u32 {
            let t = [i % 10, i];
            assert!(!rel.contains(&t));
            rel.insert(&t);
            assert!(rel.contains(&t));
        }
        assert_eq!(rel.len(), 1000);
        assert!(!rel.contains(&[3, 4]));
        let mut seen = Vec::new();
        rel.probe(by_first, &|_| 3, 100..500, &mut |row| {
            seen.push(row[1]);
            true
        });
        // Exactly the rows 100..500 whose first column is 3, newest first.
        let want: Vec<u32> = (100..500).rev().filter(|i| i % 10 == 3).collect();
        assert_eq!(seen, want);
        // A visitor can stop the walk.
        let mut first = None;
        rel.probe(by_first, &|_| 3, 0..1000, &mut |row| {
            first = Some(row[1]);
            false
        });
        assert_eq!(first, Some(993));
    }

    #[test]
    fn nullary_relations_hold_at_most_the_empty_tuple() {
        let mut rel = Relation::new(0);
        assert!(!rel.contains(&[]));
        rel.insert(&[]);
        assert!(rel.contains(&[]));
        assert_eq!((rel.len(), rel.row(0).len()), (1, 0));
    }
}
