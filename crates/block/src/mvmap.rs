//! The per-block multi-version map.
//!
//! One entry per `(key, writer index)`: transaction `i`'s write of `key`
//! is visible only to transactions ordered after `i`, and a read by `i`
//! resolves to the newest write by any `j < i` — the block-order analogue
//! of TL2's "newest version `<= ts`" snapshot rule, with the transaction
//! index playing the timestamp. Aborted writers leave **estimates** behind
//! (the PENDING/ESTIMATE publish protocol): a reader that resolves to one
//! suspends on the writer instead of speculating through a doomed value.
//!
//! The map is striped into `parts` mutex-protected shards by key hash; a
//! stripe holds its keys' versions in one ordered map keyed `(key, writer)`,
//! so a read is one range lookup and a key costs no container of its own.
//! Striping only spreads lock contention; resolution is exact per key, so
//! the stripe count never changes an outcome.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard};

/// What a transaction's slot for one key currently holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Version<V> {
    /// The writer aborted (or is re-executing): the value is coming but
    /// unknown. Readers must suspend on the writer.
    Estimate {
        /// Incarnation whose write was invalidated.
        incarnation: u32,
    },
    /// A committed speculative value from the given incarnation.
    Value {
        /// The written value.
        value: V,
        /// Writer incarnation that produced it (read-set versions compare
        /// this, so a re-executed writer invalidates old readers even
        /// when it happens to write the same bytes).
        incarnation: u32,
    },
}

/// What a read observed, recorded into the reader's read set and
/// re-checked at validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadVersion {
    /// No earlier-ordered transaction wrote the key: the caller's base
    /// state supplied the value.
    Base,
    /// The value came from `writer`'s speculative write.
    Txn {
        /// Block index of the writing transaction.
        writer: usize,
        /// Its incarnation at read time.
        incarnation: u32,
    },
}

/// Outcome of resolving a read for transaction `reader`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Resolution<V> {
    /// Newest earlier-ordered write (and the version to record).
    Speculative(V, ReadVersion),
    /// No earlier-ordered write: read the base state.
    FromBase,
    /// The newest earlier-ordered write is an estimate by this writer.
    Blocked(usize),
}

/// The stripe hasher: Fx's multiply-rotate, one multiply per word. It only
/// has to spread a block's own keys over the stripes, so SipHash's flooding
/// resistance would buy nothing and cost more than the lookup it guards.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_le_bytes(word);
            self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type Stripe<K, V> = BTreeMap<(K, usize), Version<V>>;

/// The striped multi-version map. `K` must hash and order; `K` and `V` are
/// cloned on every read (both are small: serve stores 16-byte entries).
pub struct MvMap<K, V> {
    stripes: Vec<Mutex<Stripe<K, V>>>,
}

impl<K: Hash + Ord + Clone, V: Clone> MvMap<K, V> {
    /// An empty map with `parts` stripes.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero (callers validate via
    /// [`crate::BlockConfig::new`]).
    pub fn new(parts: usize) -> Self {
        assert!(parts > 0, "multi-version map needs at least one stripe");
        MvMap { stripes: (0..parts).map(|_| Mutex::default()).collect() }
    }

    /// The stripe a key hashes to: a pure function of the key (outcomes
    /// never depend on it, but perf reproducibility is nice to have).
    pub fn stripe_of(&self, key: &K) -> usize {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        ((h.finish() >> 32) % self.stripes.len() as u64) as usize
    }

    fn lock(&self, key: &K) -> MutexGuard<'_, Stripe<K, V>> {
        self.stripes[self.stripe_of(key)].lock().expect("mvmap stripe poisoned")
    }

    /// The newest version of `key` written by a transaction before `reader`.
    fn newest_before<'a>(
        stripe: &'a Stripe<K, V>,
        key: &K,
        reader: usize,
    ) -> Option<(usize, &'a Version<V>)> {
        let newest = stripe.range((key.clone(), 0)..(key.clone(), reader)).next_back();
        newest.map(|((_, writer), version)| (*writer, version))
    }

    /// Resolves a read of `key` by transaction `reader`: the newest write
    /// by a transaction ordered strictly before it.
    pub fn resolve(&self, key: &K, reader: usize) -> Resolution<V> {
        match Self::newest_before(&self.lock(key), key, reader) {
            None => Resolution::FromBase,
            Some((writer, Version::Estimate { .. })) => Resolution::Blocked(writer),
            Some((writer, Version::Value { value, incarnation })) => Resolution::Speculative(
                value.clone(),
                ReadVersion::Txn { writer, incarnation: *incarnation },
            ),
        }
    }

    /// Re-checks a recorded read: does `key` still resolve to `observed`
    /// for this reader? An estimate in the way fails conservatively.
    pub fn still_valid(&self, key: &K, reader: usize, observed: ReadVersion) -> bool {
        match (Self::newest_before(&self.lock(key), key, reader), observed) {
            (None, ReadVersion::Base) => true,
            (
                Some((w, Version::Value { incarnation, .. })),
                ReadVersion::Txn { writer, incarnation: seen },
            ) => w == writer && *incarnation == seen,
            _ => false,
        }
    }

    /// Publishes `writer`'s write set for its current incarnation over
    /// whatever the previous one left (values or estimates): the keys it
    /// wrote (`prev_keys`, a slice or any cloneable iterator of references)
    /// that `writes` lacks are removed. Returns whether any key is **new**
    /// relative to `prev_keys` — a write path later readers have not seen.
    pub fn publish<'a>(
        &self,
        writer: usize,
        incarnation: u32,
        writes: &[(K, V)],
        prev_keys: impl IntoIterator<Item = &'a K, IntoIter: Clone>,
    ) -> bool
    where
        K: 'a,
    {
        let prev_keys = prev_keys.into_iter();
        let mut wrote_new = false;
        for (key, value) in writes {
            wrote_new |= !prev_keys.clone().any(|prev| prev == key);
            let version = Version::Value { value: value.clone(), incarnation };
            self.lock(key).insert((key.clone(), writer), version);
        }
        for key in prev_keys.filter(|prev| !writes.iter().any(|(k, _)| k == *prev)) {
            self.lock(key).remove(&(key.clone(), writer));
        }
        wrote_new
    }

    /// The abort path: turns `writer`'s published writes of `keys` into
    /// estimates, which suspend later readers until it republishes.
    pub fn mark_estimates<'a>(
        &self,
        writer: usize,
        incarnation: u32,
        keys: impl IntoIterator<Item = &'a K>,
    ) where
        K: 'a,
    {
        for key in keys {
            if let Some(slot) = self.lock(key).get_mut(&(key.clone(), writer)) {
                *slot = Version::Estimate { incarnation };
            }
        }
    }

    /// Drains the map into the block's final write set: for every key, the
    /// highest-ordered writer's value, sorted by key.
    ///
    /// # Panics
    ///
    /// Panics if any estimate survives: a settled block has republished
    /// real values for every transaction's last incarnation.
    pub fn into_final_writes(self) -> Vec<(K, V)> {
        let mut out: Vec<(K, V)> = Vec::new();
        for stripe in self.stripes {
            // Ascending `(key, writer)`: a key's last entry is its newest.
            for ((key, _), last) in stripe.into_inner().expect("mvmap stripe poisoned") {
                let Version::Value { value, .. } = last else {
                    panic!("estimate survived block completion: scheduler bug")
                };
                match out.last_mut() {
                    Some(newest) if newest.0 == key => newest.1 = value,
                    _ => out.push((key, value)),
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_resolve_to_newest_earlier_writer_only() {
        let map: MvMap<u64, i64> = MvMap::new(4);
        map.publish(2, 0, &[(7, 20)], &[]);
        map.publish(5, 0, &[(7, 50)], &[]);
        // Reader 1 precedes both writers: base state.
        assert_eq!(map.resolve(&7, 1), Resolution::FromBase);
        // Reader 4 sees writer 2, not writer 5.
        assert_eq!(
            map.resolve(&7, 4),
            Resolution::Speculative(20, ReadVersion::Txn { writer: 2, incarnation: 0 })
        );
        // Reader 9 sees the newest earlier writer, 5.
        assert_eq!(
            map.resolve(&7, 9),
            Resolution::Speculative(50, ReadVersion::Txn { writer: 5, incarnation: 0 })
        );
        // A writer never reads its own slot: writer 5 resolves to writer 2.
        assert_eq!(
            map.resolve(&7, 5),
            Resolution::Speculative(20, ReadVersion::Txn { writer: 2, incarnation: 0 })
        );
    }

    #[test]
    fn estimates_block_later_readers() {
        let map: MvMap<u64, i64> = MvMap::new(2);
        map.publish(3, 0, &[(1, 30)], &[]);
        map.mark_estimates(3, 0, &[1]);
        assert_eq!(map.resolve(&1, 6), Resolution::Blocked(3));
        // Earlier readers are unaffected.
        assert_eq!(map.resolve(&1, 2), Resolution::FromBase);
        // Republication (next incarnation) unblocks.
        map.publish(3, 1, &[(1, 31)], &[1]);
        assert_eq!(
            map.resolve(&1, 6),
            Resolution::Speculative(31, ReadVersion::Txn { writer: 3, incarnation: 1 })
        );
    }

    #[test]
    fn validation_compares_writer_and_incarnation() {
        let map: MvMap<u64, i64> = MvMap::new(2);
        assert!(map.still_valid(&9, 4, ReadVersion::Base));
        map.publish(2, 0, &[(9, 1)], &[]);
        assert!(!map.still_valid(&9, 4, ReadVersion::Base), "new write invalidates base read");
        let seen = ReadVersion::Txn { writer: 2, incarnation: 0 };
        assert!(map.still_valid(&9, 4, seen));
        // Same key, same value bytes, new incarnation: still invalid.
        map.publish(2, 1, &[(9, 1)], &[9]);
        assert!(!map.still_valid(&9, 4, seen), "incarnation bump invalidates readers");
        map.mark_estimates(2, 1, &[9]);
        assert!(
            !map.still_valid(&9, 4, ReadVersion::Txn { writer: 2, incarnation: 1 }),
            "estimates fail validation conservatively"
        );
    }

    #[test]
    fn republication_diffs_write_sets() {
        let map: MvMap<u64, i64> = MvMap::new(2);
        assert!(map.publish(1, 0, &[(4, 40), (5, 50)], &[]), "first publish is all-new");
        // Re-publish dropping key 5 and keeping 4: key 5 vanishes for readers.
        assert!(!map.publish(1, 1, &[(4, 41)], &[4, 5]), "no new key");
        assert_eq!(map.resolve(&5, 3), Resolution::FromBase, "dropped key no longer resolves");
        assert!(map.publish(1, 2, &[(4, 42), (6, 60)], &[4]), "key 6 is a new path");
    }

    #[test]
    fn final_writes_take_the_highest_writer_per_key() {
        let map: MvMap<u64, i64> = MvMap::new(3);
        map.publish(0, 0, &[(2, 1), (8, 2)], &[]);
        map.publish(4, 0, &[(2, 9)], &[]);
        assert_eq!(map.into_final_writes(), vec![(2, 9), (8, 2)]);
    }

    #[test]
    #[should_panic(expected = "estimate survived")]
    fn surviving_estimates_are_a_loud_bug() {
        let map: MvMap<u64, i64> = MvMap::new(1);
        map.publish(0, 0, &[(1, 1)], &[]);
        map.mark_estimates(0, 0, &[1]);
        let _ = map.into_final_writes();
    }

    #[test]
    fn version_vector_stays_sorted_when_writers_publish_out_of_order() {
        let map: MvMap<u64, i64> = MvMap::new(1);
        for writer in [6, 2, 9, 4, 0] {
            map.publish(writer, 0, &[(3, writer as i64 * 10)], &[]);
        }
        let seen = |reader| match map.resolve(&3, reader) {
            Resolution::Speculative(v, ReadVersion::Txn { writer, incarnation: 0 }) => {
                assert_eq!(v, writer as i64 * 10);
                Some(writer)
            }
            Resolution::FromBase => None,
            other => panic!("unexpected resolution {other:?}"),
        };
        let newest_before: Vec<_> = (0..=10).map(seen).collect();
        let want = [None, Some(0), Some(0), Some(2), Some(2), Some(4), Some(4)];
        assert_eq!(newest_before[..7], want);
        assert_eq!(newest_before[7..], [Some(6), Some(6), Some(6), Some(9)]);
        // Re-publishing an existing writer replaces its slot in place.
        map.publish(4, 1, &[(3, 41)], &[3]);
        assert_eq!(
            map.resolve(&3, 5),
            Resolution::Speculative(41, ReadVersion::Txn { writer: 4, incarnation: 1 })
        );
        assert_eq!(map.into_final_writes(), vec![(3, 90)]);
    }

    #[test]
    fn shrinking_write_sets_remove_inline_and_spilled_versions() {
        let map: MvMap<u64, i64> = MvMap::new(2);
        // Key 1 has a single (inline) writer, key 2 three (spilled).
        map.publish(5, 0, &[(1, 15), (2, 25)], &[]);
        map.publish(3, 0, &[(2, 23)], &[]);
        map.publish(7, 0, &[(2, 27)], &[]);
        // Writer 5 re-executes and writes nothing: both of its versions go.
        assert!(!map.publish(5, 1, &[], &[1, 2]));
        assert_eq!(map.resolve(&1, 9), Resolution::FromBase, "the inline version is gone");
        assert!(map.still_valid(&1, 9, ReadVersion::Base));
        assert_eq!(
            map.resolve(&2, 6),
            Resolution::Speculative(23, ReadVersion::Txn { writer: 3, incarnation: 0 }),
            "reader 6 falls through to writer 3"
        );
        // Removing the remaining writers one by one empties the key.
        map.publish(7, 1, &[], &[2]);
        map.publish(3, 1, &[], &[2]);
        assert_eq!(map.resolve(&2, 9), Resolution::FromBase);
        assert_eq!(map.into_final_writes(), vec![]);
    }

    #[test]
    fn estimates_turn_back_into_values_in_either_representation() {
        let map: MvMap<u64, i64> = MvMap::new(2);
        map.publish(2, 0, &[(1, 12), (8, 82)], &[]);
        map.publish(4, 0, &[(8, 84)], &[]);
        map.mark_estimates(2, 0, &[1, 8]);
        assert_eq!(map.resolve(&1, 3), Resolution::Blocked(2), "inline slot");
        assert_eq!(map.resolve(&8, 3), Resolution::Blocked(2), "spilled slot");
        assert_eq!(
            map.resolve(&8, 5),
            Resolution::Speculative(84, ReadVersion::Txn { writer: 4, incarnation: 0 }),
            "a newer value hides the estimate from later readers"
        );
        // Marking keys the writer never wrote is a no-op.
        map.mark_estimates(2, 0, &[99]);
        assert_eq!(map.resolve(&99, 3), Resolution::FromBase);
        // The next incarnation keeps key 1, drops key 8.
        map.publish(2, 1, &[(1, 13)], &[1, 8]);
        assert_eq!(
            map.resolve(&1, 3),
            Resolution::Speculative(13, ReadVersion::Txn { writer: 2, incarnation: 1 })
        );
        assert_eq!(map.resolve(&8, 3), Resolution::FromBase);
        assert_eq!(map.into_final_writes(), vec![(1, 13), (8, 84)]);
    }

    #[test]
    fn stripes_are_a_pure_function_of_the_key_and_spread_small_key_spaces() {
        let map: MvMap<u64, i64> = MvMap::new(32);
        let mut used = std::collections::BTreeSet::new();
        for key in 0..256u64 {
            let stripe = map.stripe_of(&key);
            assert!(stripe < 32);
            assert_eq!(stripe, MvMap::<u64, i64>::new(32).stripe_of(&key));
            used.insert(stripe);
        }
        assert!(
            used.len() >= 24,
            "256 sequential keys landed on only {} of 32 stripes",
            used.len()
        );
    }
}
