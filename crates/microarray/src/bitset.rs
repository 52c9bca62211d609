//! A fixed-capacity bitset over `u64` words.
//!
//! Every sample in a discretized microarray dataset is a set of boolean
//! items (gene/interval pairs), and the hot loops of both BST construction
//! and CAR mining are set intersections, differences, and subset tests over
//! these sets. A dense word-packed representation keeps those operations at
//! a few instructions per 64 items, which is what makes the paper's
//! O(|S|²·|G|) bounds practical at ovarian-cancer scale (253 samples ×
//! ~15k items).

use serde::{Deserialize, Serialize};
use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-capacity set of `usize` elements drawn from `0..capacity`.
///
/// The capacity is fixed at construction; all binary operations require both
/// operands to have the same capacity and panic otherwise (mixing item
/// universes is always a logic error in this codebase).
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitSet {
    /// Number of valid bits.
    capacity: usize,
    /// Packed words; bits at positions `>= capacity` are always zero.
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set with room for elements `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet { capacity, words: vec![0; capacity.div_ceil(WORD_BITS)] }
    }

    /// Creates a set containing every element in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.clear_excess();
        s
    }

    /// Builds a set from an iterator of elements.
    ///
    /// # Panics
    /// Panics if any element is `>= capacity`.
    pub fn from_iter<I: IntoIterator<Item = usize>>(capacity: usize, iter: I) -> Self {
        let mut s = Self::new(capacity);
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// The fixed capacity (the size of the underlying universe).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the word vector matches the capacity: exactly
    /// `capacity.div_ceil(64)` words and no bit set at a position
    /// `>= capacity`. Every constructor guarantees this; a deserialized
    /// set is only trustworthy once it has been checked.
    pub fn is_well_formed(&self) -> bool {
        if self.words.len() != self.capacity.div_ceil(WORD_BITS) {
            return false;
        }
        let excess = self.words.len() * WORD_BITS - self.capacity;
        excess == 0 || self.words.last().is_some_and(|&w| w >> (WORD_BITS - excess) == 0)
    }

    /// Inserts `i` into the set.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.capacity, "bit {i} out of range 0..{}", self.capacity);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Removes `i` from the set.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.capacity, "bit {i} out of range 0..{}", self.capacity);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Tests membership of `i`. Out-of-range indices are simply absent.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Number of elements in the set.
    #[inline]
    pub fn len(&self) -> usize {
        crate::simd::count_words(&self.words)
    }

    /// True if the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// In-place union: `self ∪= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        self.check(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection: `self ∩= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        self.check(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference: `self −= other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        self.check(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Returns `self ∩ other` as a new set.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Returns `self ∪ other` as a new set.
    pub fn union(&self, other: &BitSet) -> BitSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Returns `self − other` as a new set.
    pub fn difference(&self, other: &BitSet) -> BitSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// `|self ∩ other|` without allocating. Dispatches to the SIMD
    /// popcount kernel ([`crate::simd`]) when the host supports one.
    #[inline]
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        self.check(other);
        crate::simd::intersection_len_words(&self.words, &other.words)
    }

    /// `|self − other|` without allocating — the AND-NOT+popcount kernel:
    /// for a negative exclusion list mask `self`, this counts the literals
    /// a query `other` satisfies (items of the list the query does *not*
    /// express) at a few instructions per 64 items. Dispatches to the SIMD
    /// popcount kernel ([`crate::simd`]) when the host supports one.
    #[inline]
    pub fn andnot_len(&self, other: &BitSet) -> usize {
        self.check(other);
        crate::simd::andnot_len_words(&self.words, &other.words)
    }

    /// Overwrites `self` with `a ∩ b` without allocating (all three sets
    /// must share one capacity). This is the scratch-buffer form of
    /// [`BitSet::intersection`] used by the compiled inference kernels.
    pub fn assign_intersection(&mut self, a: &BitSet, b: &BitSet) {
        self.check(a);
        self.check(b);
        for (w, (x, y)) in self.words.iter_mut().zip(a.words.iter().zip(&b.words)) {
            *w = x & y;
        }
    }

    /// Fused [`BitSet::assign_intersection`] + [`BitSet::len`]:
    /// overwrites `self` with `a ∩ b` and returns `|self|` in a single
    /// memory pass over the words (SIMD-dispatched). The compiled
    /// inference kernels use this wherever an intersection is immediately
    /// followed by a count or emptiness test.
    pub fn assign_intersection_len(&mut self, a: &BitSet, b: &BitSet) -> usize {
        self.check(a);
        self.check(b);
        crate::simd::and_assign_count_words(&mut self.words, &a.words, &b.words)
    }

    /// One fused carve-and-scatter step of a coverage sweep over `self`
    /// (the remaining set): moves the `expr` bits out of `self`, writes
    /// `value` into `cells` at every moved bit's index, and returns how
    /// many bits moved — one SIMD-dispatched memory pass where the
    /// assign / count / difference trio plus a scan of the moved set
    /// would take four, without ever materializing the moved set.
    /// `cells` must cover this set's capacity.
    pub fn carve_scatter(&mut self, expr: &BitSet, cells: &mut [f64], value: f64) -> usize {
        self.check(expr);
        crate::simd::carve_scatter_words(&mut self.words, &expr.words, cells, value)
    }

    /// Overwrites `self` with `a − b` without allocating (all three sets
    /// must share one capacity). The scratch-buffer form of
    /// [`BitSet::difference`] used by BST construction's per-pair
    /// exclusion-list loop.
    pub fn assign_difference(&mut self, a: &BitSet, b: &BitSet) {
        self.check(a);
        self.check(b);
        for (w, (x, y)) in self.words.iter_mut().zip(a.words.iter().zip(&b.words)) {
            *w = x & !y;
        }
    }

    /// The packed `u64` words backing the set (bit `i` of word `w` is
    /// element `w * 64 + i`; bits at positions `>= capacity` are zero).
    /// Exposed read-only so word-parallel kernels and benchmarks can
    /// operate on the raw representation.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// True if `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.check(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// True if `self` and `other` share no elements.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.check(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Iterates over the elements in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { words: &self.words, word_idx: 0, current: self.words.first().copied().unwrap_or(0) }
    }

    /// `Σ cells[g]` over this set's members in ascending order, plus the
    /// member count — the **exact float operations in the exact order**
    /// of `self.iter().map(|g| cells[g]).sum()`, so callers holding a
    /// bit-identity contract can substitute it freely.
    ///
    /// The point is microarchitecture, not math: the naive bit-walk
    /// interleaves a hard-to-predict "next set bit" branch with the
    /// serial float-add dependency chain, so every mispredict adds to an
    /// already latency-bound loop. Splitting each word into an
    /// integer-only offset-extraction pass (speculation-friendly, no
    /// float inputs) followed by a fixed-trip-count add loop lets the
    /// out-of-order core run extraction ahead while the add chain
    /// drains, which measures markedly faster on the dense shared-item
    /// sets of compiled inference.
    pub fn gather_sum(&self, cells: &[f64]) -> (f64, usize) {
        let mut sum = 0.0;
        let mut n = 0usize;
        let mut offs = [0u8; 64];
        for (wi, &w) in self.words.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let cnt = w.count_ones() as usize;
            let mut m = w;
            for o in offs.iter_mut().take(cnt) {
                *o = m.trailing_zeros() as u8;
                m &= m.wrapping_sub(1);
            }
            let base = wi * 64;
            for &o in offs.iter().take(cnt) {
                sum += cells[base + o as usize];
            }
            n += cnt;
        }
        (sum, n)
    }

    /// Smallest element, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// Collects the elements into a `Vec` (ascending).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    #[inline]
    fn check(&self, other: &BitSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "bitset capacity mismatch: {} vs {}",
            self.capacity, other.capacity
        );
    }

    fn clear_excess(&mut self) {
        let excess = self.words.len() * WORD_BITS - self.capacity;
        if excess > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> excess;
            }
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Ascending-order element iterator over a [`BitSet`].
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * WORD_BITS + bit)
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_elements() {
        let s = BitSet::new(100);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(0));
        assert!(!s.contains(99));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert_eq!(s.len(), 4);
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
        assert_eq!(s.to_vec(), vec![0, 64, 129]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = BitSet::new(10);
        s.insert(10);
    }

    #[test]
    fn full_respects_capacity() {
        let s = BitSet::full(67);
        assert_eq!(s.len(), 67);
        assert!(s.contains(66));
        assert!(!s.contains(67));
        // capacity that is an exact multiple of the word size
        let s = BitSet::full(128);
        assert_eq!(s.len(), 128);
    }

    #[test]
    fn well_formedness_checks_word_count_and_excess_bits() {
        for cap in [0, 1, 63, 64, 65, 128] {
            assert!(BitSet::full(cap).is_well_formed(), "full({cap})");
        }
        let short = BitSet { capacity: 65, words: vec![0] };
        assert!(!short.is_well_formed(), "too few words");
        let long = BitSet { capacity: 64, words: vec![0, 0] };
        assert!(!long.is_well_formed(), "too many words");
        let stray = BitSet { capacity: 65, words: vec![0, 0b10] };
        assert!(!stray.is_well_formed(), "bit 65 is past capacity");
        let edge = BitSet { capacity: 65, words: vec![0, 0b1] };
        assert!(edge.is_well_formed(), "bit 64 is in range");
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_iter(200, [1, 5, 100, 150]);
        let b = BitSet::from_iter(200, [5, 100, 199]);
        assert_eq!(a.intersection(&b).to_vec(), vec![5, 100]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 5, 100, 150, 199]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 150]);
        assert_eq!(a.intersection_len(&b), 2);
        assert!(!a.is_subset(&b));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(!a.is_disjoint(&b));
        assert!(a.difference(&b).is_disjoint(&b));
    }

    #[test]
    fn andnot_len_matches_difference() {
        let a = BitSet::from_iter(200, [1, 5, 100, 150]);
        let b = BitSet::from_iter(200, [5, 100, 199]);
        assert_eq!(a.andnot_len(&b), a.difference(&b).len());
        assert_eq!(b.andnot_len(&a), 1);
        assert_eq!(a.andnot_len(&a), 0);
        let empty = BitSet::new(200);
        assert_eq!(a.andnot_len(&empty), a.len());
        assert_eq!(empty.andnot_len(&a), 0);
    }

    #[test]
    fn assign_intersection_reuses_buffer() {
        let a = BitSet::from_iter(200, [1, 5, 100, 150]);
        let b = BitSet::from_iter(200, [5, 100, 199]);
        let mut out = BitSet::from_iter(200, [0, 42, 160]); // stale content
        out.assign_intersection(&a, &b);
        assert_eq!(out, a.intersection(&b));
        // Degenerate operands are fine too.
        out.assign_intersection(&a, &BitSet::new(200));
        assert!(out.is_empty());
    }

    #[test]
    fn assign_difference_reuses_buffer() {
        let a = BitSet::from_iter(200, [1, 5, 100, 150]);
        let b = BitSet::from_iter(200, [5, 100, 199]);
        let mut out = BitSet::from_iter(200, [0, 42, 160]); // stale content
        out.assign_difference(&a, &b);
        assert_eq!(out, a.difference(&b));
        out.assign_difference(&b, &a);
        assert_eq!(out, b.difference(&a));
        out.assign_difference(&a, &a);
        assert!(out.is_empty());
    }

    #[test]
    fn assign_intersection_len_is_fused_assign_plus_count() {
        let a = BitSet::from_iter(200, [1, 5, 100, 150]);
        let b = BitSet::from_iter(200, [5, 100, 199]);
        let mut out = BitSet::from_iter(200, [0, 42, 160]); // stale content
        assert_eq!(out.assign_intersection_len(&a, &b), 2);
        assert_eq!(out, a.intersection(&b));
        assert_eq!(out.assign_intersection_len(&a, &BitSet::new(200)), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn carve_scatter_moves_expr_bits() {
        let orig = BitSet::from_iter(200, [1, 5, 100, 150, 199]);
        let expr = BitSet::from_iter(200, [5, 100, 42]);
        let mut remaining = orig.clone();
        let mut cells = vec![0.0f64; 200];
        assert_eq!(remaining.carve_scatter(&expr, &mut cells, 0.5), 2);
        assert_eq!(remaining, orig.difference(&expr));
        for (g, &v) in cells.iter().enumerate() {
            let want = if g == 5 || g == 100 { 0.5 } else { 0.0 };
            assert_eq!(v, want, "cell {g}");
        }
        // A second carve with the same expr moves nothing.
        assert_eq!(remaining.carve_scatter(&expr, &mut cells, 9.0), 0);
        assert_eq!(remaining, orig.difference(&expr));
    }

    #[test]
    fn gather_sum_is_bitwise_equal_to_iterated_sum() {
        // Deterministic awkward set: mixed dense/sparse words, partial tail.
        let mut x = 0x9e3779b97f4a7c15u64;
        let set = BitSet::from_iter(
            777,
            (0..777).filter(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & 3 != 3
            }),
        );
        let cells: Vec<f64> = (0..777).map(|g| (g as f64).sin() * 1e3 + 0.1).collect();
        let mut want = 0.0;
        let mut want_n = 0usize;
        for g in set.iter() {
            want += cells[g];
            want_n += 1;
        }
        let (sum, n) = set.gather_sum(&cells);
        // Bitwise equality — gather_sum must run the identical add chain.
        assert_eq!(sum.to_bits(), want.to_bits());
        assert_eq!(n, want_n);
        assert_eq!(BitSet::new(777).gather_sum(&cells), (0.0, 0));
    }

    #[test]
    fn words_expose_packed_representation() {
        let s = BitSet::from_iter(130, [0, 64, 129]);
        let w = s.words();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], 1);
        assert_eq!(w[1], 1);
        assert_eq!(w[2], 2);
        assert_eq!(w.iter().map(|x| x.count_ones() as usize).sum::<usize>(), s.len());
    }

    #[test]
    fn subset_edge_cases() {
        let empty = BitSet::new(50);
        let full = BitSet::full(50);
        assert!(empty.is_subset(&full));
        assert!(empty.is_subset(&empty));
        assert!(full.is_subset(&full));
        assert!(!full.is_subset(&empty));
        assert!(empty.is_disjoint(&empty));
        assert!(empty.is_disjoint(&full));
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn mixed_capacity_panics() {
        let a = BitSet::new(10);
        let b = BitSet::new(11);
        let _ = a.is_subset(&b);
    }

    #[test]
    fn iterator_crosses_word_boundaries() {
        let elems = [0usize, 1, 62, 63, 64, 65, 127, 128, 191];
        let s = BitSet::from_iter(192, elems.iter().copied());
        assert_eq!(s.to_vec(), elems);
        assert_eq!(s.first(), Some(0));
    }

    #[test]
    fn zero_capacity_is_fine() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        let f = BitSet::full(0);
        assert!(f.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::from_iter(70, [3, 69]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let s = BitSet::from_iter(100, [2, 3, 5, 7, 97]);
        let json = serde_json::to_string(&s).unwrap();
        let back: BitSet = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
