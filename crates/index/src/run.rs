//! Sorted runs of encoded triples.
//!
//! A run is a strictly sorted, duplicate-free `Vec<[u32; 3]>`. The same
//! representation serves all three permutations (SPO, POS, OSP) — only
//! the meaning of the key components differs. Lookups are prefix range
//! scans found by *galloping* (exponential probe then binary search in
//! the bracket), which makes walking a run with a sorted probe column a
//! merge join: each probe resumes from the previous match position, so a
//! full join touches each run entry at most once plus logarithmic slop.

/// One encoded triple in some permutation order.
pub type Key = [u32; 3];

/// Bytes one key occupies; the unit of guard memory accounting.
pub const KEY_BYTES: u64 = 12;

/// A strictly sorted, duplicate-free run of encoded triples.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SortedRun {
    keys: Vec<Key>,
}

impl SortedRun {
    pub fn new() -> SortedRun {
        SortedRun::default()
    }

    /// Sort + dedup once; the only place a full sort happens.
    pub fn from_unsorted(mut keys: Vec<Key>) -> SortedRun {
        keys.sort_unstable();
        keys.dedup();
        SortedRun { keys }
    }

    pub fn as_slice(&self) -> &[Key] {
        &self.keys
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Key> {
        self.keys.iter()
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Guard-accounted size of the run.
    pub fn bytes(&self) -> u64 {
        self.keys.len() as u64 * KEY_BYTES
    }

    pub fn contains(&self, key: &Key) -> bool {
        self.keys.binary_search(key).is_ok()
    }

    /// The strictly-sorted/no-duplicates invariant, checked explicitly
    /// (constructors establish it; property tests assert it).
    pub fn is_strictly_sorted(&self) -> bool {
        self.keys.windows(2).all(|w| w[0] < w[1])
    }

    /// First position ≥ `from` whose key is ≥ `key`, found by galloping:
    /// exponential probe to bracket the answer, then binary search inside
    /// the bracket. `O(log gap)` where `gap` is the distance from `from`.
    pub fn gallop_from(&self, from: usize, key: &Key) -> usize {
        let keys = &self.keys;
        if from >= keys.len() || keys[from] >= *key {
            return from.min(keys.len());
        }
        let mut lo = from;
        let mut step = 1usize;
        while lo + step < keys.len() && keys[lo + step] < *key {
            lo += step;
            step <<= 1;
        }
        let hi = (lo + step + 1).min(keys.len());
        lo + keys[lo..hi].partition_point(|k| k < key)
    }

    /// The contiguous range of keys whose first component is `a`,
    /// galloping from position `from` (pass 0 for a cold lookup, or the
    /// previous range's end when probing with a sorted column).
    pub fn range1_from(&self, from: usize, a: u32) -> (usize, usize) {
        let start = self.gallop_from(from, &[a, 0, 0]);
        let end = match a.checked_add(1) {
            Some(next) => self.gallop_from(start, &[next, 0, 0]),
            None => self.keys.len(),
        };
        (start, end)
    }

    /// Keys with first component `a`.
    pub fn range1(&self, a: u32) -> &[Key] {
        let (start, end) = self.range1_from(0, a);
        &self.keys[start..end]
    }

    /// The contiguous range of keys with first components `(a, b)`,
    /// galloping from `from`.
    pub fn range2_from(&self, from: usize, a: u32, b: u32) -> (usize, usize) {
        let start = self.gallop_from(from, &[a, b, 0]);
        let end = match b.checked_add(1) {
            Some(next) => self.gallop_from(start, &[a, next, 0]),
            None => match a.checked_add(1) {
                Some(na) => self.gallop_from(start, &[na, 0, 0]),
                None => self.keys.len(),
            },
        };
        (start, end)
    }

    /// Keys with first components `(a, b)`.
    pub fn range2(&self, a: u32, b: u32) -> &[Key] {
        let (start, end) = self.range2_from(0, a, b);
        &self.keys[start..end]
    }
}

impl<'a> IntoIterator for &'a SortedRun {
    type Item = &'a Key;
    type IntoIter = std::slice::Iter<'a, Key>;

    fn into_iter(self) -> Self::IntoIter {
        self.keys.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(keys: &[Key]) -> SortedRun {
        SortedRun::from_unsorted(keys.to_vec())
    }

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let r = run(&[[2, 0, 0], [1, 5, 5], [2, 0, 0], [0, 9, 9]]);
        assert_eq!(r.as_slice(), &[[0, 9, 9], [1, 5, 5], [2, 0, 0]]);
        assert!(r.is_strictly_sorted());
        assert_eq!(r.bytes(), 36);
    }

    #[test]
    fn gallop_matches_partition_point() {
        let keys: Vec<Key> = (0..200u32).map(|i| [i / 10, i % 10, i]).collect();
        let r = run(&keys);
        for probe in [[0, 0, 0], [3, 5, 0], [19, 9, 199], [25, 0, 0]] {
            for from in [0usize, 5, 50, 199, 200] {
                let expect = from.min(r.len())
                    + r.as_slice()[from.min(r.len())..].partition_point(|k| k < &probe);
                assert_eq!(
                    r.gallop_from(from, &probe),
                    expect,
                    "probe {probe:?} from {from}"
                );
            }
        }
    }

    #[test]
    fn range_lookups() {
        let r = run(&[[1, 1, 1], [1, 1, 2], [1, 2, 1], [3, 0, 0], [u32::MAX, 1, 1]]);
        assert_eq!(r.range1(1).len(), 3);
        assert_eq!(r.range1(2).len(), 0);
        assert_eq!(r.range1(u32::MAX).len(), 1);
        assert_eq!(r.range2(1, 1).len(), 2);
        assert_eq!(r.range2(1, 2), &[[1, 2, 1]]);
        assert_eq!(r.range2(3, 0), &[[3, 0, 0]]);
        assert!(r.contains(&[3, 0, 0]));
        assert!(!r.contains(&[3, 0, 1]));
    }
}
