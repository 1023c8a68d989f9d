//! Dense bitset over node ids, used to represent node subsets `S ⊆ V`.
//!
//! The streaming algorithms of the paper keep exactly this structure in
//! memory: one liveness bit per node (`O(n)` bits) plus the degree vector.
//! Cardinality is maintained incrementally so `ρ(S) = |E(S)|/|S|` is O(1)
//! to evaluate once the induced edge count is known.

/// A fixed-capacity set of node ids backed by a `u64` bit vector.
///
/// The set tracks its own cardinality, so [`NodeSet::len`] is O(1).
#[derive(Clone, PartialEq, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
    capacity: usize,
    len: usize,
}

impl NodeSet {
    /// Creates an empty set with room for ids `0..capacity`.
    pub fn empty(capacity: usize) -> Self {
        NodeSet {
            words: vec![0u64; capacity.div_ceil(64)],
            capacity,
            len: 0,
        }
    }

    /// Creates a full set `{0, 1, …, capacity-1}`.
    pub fn full(capacity: usize) -> Self {
        let mut words = vec![!0u64; capacity.div_ceil(64)];
        // Mask off the bits beyond `capacity` in the last word.
        let spare = words.len() * 64 - capacity;
        if spare > 0 {
            if let Some(last) = words.last_mut() {
                *last >>= spare;
            }
        }
        NodeSet {
            words,
            capacity,
            len: capacity,
        }
    }

    /// Builds a set from an iterator of ids; all ids must be `< capacity`.
    pub fn from_iter<I: IntoIterator<Item = u32>>(capacity: usize, iter: I) -> Self {
        let mut s = NodeSet::empty(capacity);
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// Maximum id capacity (the `n` this set was created with).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of ids currently in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no ids are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        let i = i as usize;
        debug_assert!(
            i < self.capacity,
            "id {i} out of capacity {}",
            self.capacity
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Inserts `i`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, i: u32) -> bool {
        let idx = i as usize;
        assert!(
            idx < self.capacity,
            "id {idx} out of capacity {}",
            self.capacity
        );
        let w = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        if *w & mask == 0 {
            *w |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes `i`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: u32) -> bool {
        let idx = i as usize;
        assert!(
            idx < self.capacity,
            "id {idx} out of capacity {}",
            self.capacity
        );
        let w = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        if *w & mask != 0 {
            *w &= !mask;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Removes every id.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterates over the ids in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collects the ids into a `Vec` in ascending order.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }

    /// In-place intersection with `other` (same capacity required).
    pub fn intersect_with(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let mut len = 0usize;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
            len += a.count_ones() as usize;
        }
        self.len = len;
    }

    /// In-place union with `other` (same capacity required).
    pub fn union_with(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let mut len = 0usize;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
            len += a.count_ones() as usize;
        }
        self.len = len;
    }

    /// In-place difference: removes every id present in `other`.
    pub fn difference_with(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let mut len = 0usize;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
            len += a.count_ones() as usize;
        }
        self.len = len;
    }

    /// Number of ids present in both sets.
    pub fn intersection_len(&self, other: &NodeSet) -> usize {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `true` if every id of `self` is contained in `other`.
    pub fn is_subset_of(&self, other: &NodeSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }
}

impl std::fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Ascending iterator over the ids of a [`NodeSet`].
pub struct Iter<'a> {
    set: &'a NodeSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros();
                self.current &= self.current - 1;
                return Some((self.word_idx * 64) as u32 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = u32;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = NodeSet::empty(130);
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        let f = NodeSet::full(130);
        assert_eq!(f.len(), 130);
        assert!(f.contains(0));
        assert!(f.contains(129));
        assert_eq!(f.iter().count(), 130);
    }

    #[test]
    fn full_masks_spare_bits() {
        for n in [1usize, 63, 64, 65, 127, 128, 129] {
            let f = NodeSet::full(n);
            assert_eq!(f.len(), n);
            assert_eq!(f.iter().count(), n);
            assert_eq!(f.iter().last(), Some((n - 1) as u32));
        }
    }

    #[test]
    fn insert_remove_tracks_len() {
        let mut s = NodeSet::empty(100);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(64));
        assert_eq!(s.len(), 2);
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert_eq!(s.len(), 1);
        assert!(s.contains(64));
        assert!(!s.contains(5));
    }

    #[test]
    fn iter_ascending() {
        let s = NodeSet::from_iter(200, [199u32, 0, 63, 64, 65, 128]);
        assert_eq!(s.to_vec(), vec![0, 63, 64, 65, 128, 199]);
    }

    #[test]
    fn set_algebra() {
        let a = NodeSet::from_iter(70, [1u32, 2, 3, 64]);
        let b = NodeSet::from_iter(70, [2u32, 3, 4, 69]);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![2, 3]);
        assert_eq!(i.len(), 2);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![1, 2, 3, 4, 64, 69]);
        assert_eq!(u.len(), 6);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), vec![1, 64]);

        assert_eq!(a.intersection_len(&b), 2);
        assert!(i.is_subset_of(&a));
        assert!(i.is_subset_of(&b));
        assert!(!a.is_subset_of(&b));
    }

    #[test]
    fn clear_resets() {
        let mut s = NodeSet::full(50);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        let mut s = NodeSet::empty(10);
        s.insert(10);
    }
}
