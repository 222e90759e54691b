//! A tiny open-addressing `u64 -> u32` hash map for the transaction hot
//! path.
//!
//! `std::collections::HashMap` guards against adversarial keys with SipHash
//! and per-instance seeding; neither matters for a transaction's private
//! write index, whose keys are sequential [`crate::ids::VarId`]s and whose
//! lifetime is one attempt. This map trades that robustness for speed: an
//! FxHash-style multiplicative mix, linear probing over a power-of-two slot
//! array, no deletion (transactions only ever add to their write set), and
//! `clear()`-based reuse so a retry never reallocates.
//!
//! One reserved key: `EMPTY_KEY` (`u64::MAX`) marks free slots. Var ids
//! come from a monotonically increasing counter and can never reach it.

/// Reserved key marking an empty slot. Callers must never insert it.
const EMPTY_KEY: u64 = u64::MAX;

/// The 64-bit FxHash multiplier (golden-ratio based, same constant the
/// stripe hash in [`crate::lock_table`] uses).
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Open-addressing `u64 -> u32` map with linear probing and no deletion.
#[derive(Clone, Debug, Default)]
pub(crate) struct FxMap {
    /// `(key, value)` slots; `EMPTY_KEY` marks a free slot. Length is a
    /// power of two (or zero before first insert).
    slots: Vec<(u64, u32)>,
    /// Occupied slot count.
    len: usize,
}

impl FxMap {
    /// Number of entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated slots — what [`clear`](Self::clear) refills when the map
    /// is not empty.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Removes every entry, keeping the allocation for reuse.
    pub(crate) fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill((EMPTY_KEY, 0));
            self.len = 0;
        }
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // Multiplicative mix, then take the high-entropy top bits (the
        // stripe hash in lock_table does the same).
        let h = key.wrapping_mul(SEED);
        (h >> 32) as usize & (self.slots.len() - 1)
    }

    /// Looks up `key`.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        debug_assert_ne!(key, EMPTY_KEY);
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            let (k, v) = self.slots[i];
            if k == key {
                return Some(v);
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts or overwrites `key`, returning the previous value if any.
    #[inline]
    pub(crate) fn insert(&mut self, key: u64, value: u32) -> Option<u32> {
        debug_assert_ne!(key, EMPTY_KEY);
        // Grow at 3/4 occupancy so probe chains stay short.
        if self.slots.is_empty() || (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            let (k, _) = self.slots[i];
            if k == key {
                let old = self.slots[i].1;
                self.slots[i].1 = value;
                return Some(old);
            }
            if k == EMPTY_KEY {
                self.slots[i] = (key, value);
                self.len += 1;
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY_KEY, 0); new_cap]);
        self.len = 0;
        for (k, v) in old {
            if k != EMPTY_KEY {
                self.insert(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_overwrite() {
        let mut m = FxMap::default();
        assert_eq!(m.get(3), None);
        assert_eq!(m.insert(3, 10), None);
        assert_eq!(m.insert(4, 20), None);
        assert_eq!(m.get(3), Some(10));
        assert_eq!(m.get(4), Some(20));
        assert_eq!(m.insert(3, 11), Some(10));
        assert_eq!(m.get(3), Some(11));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn survives_growth_with_sequential_keys() {
        // Var ids are sequential; make sure probing stays correct across
        // several growth steps.
        let mut m = FxMap::default();
        for k in 0..10_000u64 {
            assert_eq!(m.insert(k, (k * 3) as u32), None);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k), Some((k * 3) as u32));
        }
        assert_eq!(m.get(10_000), None);
    }

    #[test]
    fn clear_keeps_capacity_and_empties() {
        let mut m = FxMap::default();
        for k in 0..100 {
            m.insert(k, 1);
        }
        let cap = m.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity(), cap);
        assert_eq!(m.get(5), None);
        m.insert(5, 9);
        assert_eq!(m.get(5), Some(9));
    }

    #[test]
    fn colliding_keys_probe_linearly() {
        // Keys crafted to share low hash bits after masking still resolve.
        let mut m = FxMap::default();
        for k in [1u64, 17, 33, 49, 65, 81] {
            m.insert(k, k as u32);
        }
        for k in [1u64, 17, 33, 49, 65, 81] {
            assert_eq!(m.get(k), Some(k as u32));
        }
    }
}
