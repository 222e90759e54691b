//! Small-set–optimized stripe collections for the transaction hot path.
//!
//! A TL2 transaction tracks three per-attempt stripe sets: the read set,
//! the encounter-time locks and the visible-reader registrations. Their
//! common access pattern is "have I seen this stripe already?", and most
//! transactions touch a handful of stripes — `BTreeMap`/`iter().any(..)`
//! pay tree or linear-rescan costs for what is almost always a miss.
//!
//! [`StripeFilter`] is a 64-bit Bloom-style membership filter: a clear bit
//! proves absence (the common case, answered in O(1) with no memory
//! traffic beyond one word); a set bit falls back to the caller's exact
//! check. [`ReadSet`] combines the filter with inline storage for the
//! first [`INLINE`] stripes (no allocation for small transactions), a
//! spill vector, and an [`FxMap`] exact index once the set outgrows linear
//! scanning.
//!
//! Determinism: a `ReadSet` preserves insertion order and never reorders
//! entries; commit-time validation sorts a scratch copy ascending, which
//! reproduces the `BTreeMap` key order byte for byte.

use crate::fxmap::FxMap;

/// Inline capacity of a [`ReadSet`] — covers typical STAMP transactions
/// without touching the heap.
pub const INLINE: usize = 16;

/// Set size at which a [`ReadSet`] switches membership checks from linear
/// scans to its exact [`FxMap`] index. Below this the [`StripeFilter`]
/// answers most misses in O(1) and the occasional linear scan over ≤64
/// cache-hot `u32`s beats paying an index build + hash probes; building
/// the index only pays off for genuinely large read sets.
const INDEX_THRESHOLD: usize = 64;

/// 64-bit Bloom-style stripe membership filter (one hash, one bit).
///
/// `may_contain` returning `false` proves the stripe was never inserted;
/// `true` means "possibly present" and the caller must do an exact check.
#[derive(Clone, Copy, Debug, Default)]
pub struct StripeFilter(u64);

impl StripeFilter {
    /// An empty filter.
    pub fn new() -> Self {
        StripeFilter(0)
    }

    /// Removes all entries.
    #[inline]
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    #[inline]
    fn bit(stripe: u32) -> u64 {
        // Multiplicative mix so adjacent stripe indices spread over all 64
        // bits (stripes of related vars are often consecutive).
        1u64 << (u64::from(stripe).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
    }

    /// Marks a stripe as present.
    #[inline]
    pub fn insert(&mut self, stripe: u32) {
        self.0 |= Self::bit(stripe);
    }

    /// `false` proves absence; `true` requires an exact check.
    #[inline]
    pub fn may_contain(&self, stripe: u32) -> bool {
        self.0 & Self::bit(stripe) != 0
    }
}

/// The transaction read set: insertion-ordered unique stripe indices.
///
/// Replaces the old `BTreeMap<u32, u64>` (the version value was never
/// read back — inline read validation re-checks the lock word instead).
#[derive(Clone, Debug, Default)]
pub struct ReadSet {
    filter: StripeFilter,
    /// First [`INLINE`] stripes, in insertion order.
    inline: [u32; INLINE],
    /// Stripes beyond the inline capacity, in insertion order.
    spill: Vec<u32>,
    /// Total entry count (inline + spill).
    len: usize,
    /// Exact index, populated once `len` reaches [`INDEX_THRESHOLD`].
    index: FxMap,
}

impl ReadSet {
    /// An empty read set (no allocation).
    pub fn new() -> Self {
        ReadSet::default()
    }

    /// Number of distinct stripes read.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no stripe has been read.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The larger of the spill vector's and the index's allocated slots.
    pub fn capacity(&self) -> usize {
        self.spill.capacity().max(self.index.capacity())
    }

    /// Empties the set, keeping allocations for reuse across attempts.
    pub fn clear(&mut self) {
        self.filter.clear();
        self.spill.clear();
        self.index.clear();
        self.len = 0;
    }

    /// Exact membership test.
    #[inline]
    pub fn contains(&self, stripe: u32) -> bool {
        if !self.filter.may_contain(stripe) {
            return false;
        }
        if !self.index.is_empty() {
            return self.index.get(u64::from(stripe)).is_some();
        }
        self.inline[..self.len.min(INLINE)].contains(&stripe) || self.spill.contains(&stripe)
    }

    /// Inserts a stripe; returns `true` if it was not present before (the
    /// "first read of this stripe" predicate reader registration needs).
    #[inline]
    pub fn insert(&mut self, stripe: u32) -> bool {
        if self.contains(stripe) {
            return false;
        }
        if self.len < INLINE {
            self.inline[self.len] = stripe;
        } else {
            self.spill.push(stripe);
        }
        self.len += 1;
        self.filter.insert(stripe);
        if !self.index.is_empty() {
            self.index.insert(u64::from(stripe), 1);
        } else if self.len == INDEX_THRESHOLD {
            for i in 0..INLINE {
                self.index.insert(u64::from(self.inline[i]), 1);
            }
            for &s in &self.spill {
                self.index.insert(u64::from(s), 1);
            }
        }
        true
    }

    /// Appends every stripe to `out` in insertion order.
    pub fn collect_into(&self, out: &mut Vec<u32>) {
        out.extend_from_slice(&self.inline[..self.len.min(INLINE)]);
        out.extend_from_slice(&self.spill);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_never_false_negative() {
        let mut f = StripeFilter::new();
        for s in (0..2000).step_by(7) {
            f.insert(s);
        }
        for s in (0..2000).step_by(7) {
            assert!(f.may_contain(s));
        }
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut rs = ReadSet::new();
        assert!(rs.insert(5));
        assert!(!rs.insert(5), "second insert of the same stripe is a no-op");
        assert!(rs.insert(9));
        assert_eq!(rs.len(), 2);
        assert!(rs.contains(5) && rs.contains(9) && !rs.contains(6));
    }

    #[test]
    fn preserves_insertion_order_across_spill_and_index() {
        let mut rs = ReadSet::new();
        let stripes: Vec<u32> = (0..100).map(|i| i * 3 + 1).collect();
        for &s in &stripes {
            assert!(rs.insert(s));
        }
        for &s in &stripes {
            assert!(rs.contains(s), "stripe {s} lost after index build");
            assert!(!rs.insert(s));
        }
        let mut collected = Vec::new();
        rs.collect_into(&mut collected);
        assert_eq!(collected, stripes);
        // Sorted ascending == the old BTreeMap key order.
        let mut sorted = collected.clone();
        sorted.sort_unstable();
        let mut expect = stripes.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn clear_resets_but_keeps_working() {
        let mut rs = ReadSet::new();
        for s in 0..50 {
            rs.insert(s);
        }
        rs.clear();
        assert!(rs.is_empty());
        assert!(!rs.contains(3));
        assert!(rs.insert(3));
        let mut out = Vec::new();
        rs.collect_into(&mut out);
        assert_eq!(out, vec![3]);
    }
}
