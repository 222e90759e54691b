//! Bucketized transactional hash map and set.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use gstm_core::{Abort, TVar, Txn};

/// A transactional hash map: a fixed array of buckets, each an independent
/// [`TVar`] holding its entry list.
///
/// Conflict granularity is the bucket, mirroring STAMP's `hashtable` (used
/// by genome's segment table and intruder's fragment map): operations on
/// different buckets commute; growing the map is not supported (STAMP sizes
/// its tables up front too).
///
/// ```
/// use gstm_core::{Stm, StmConfig, ThreadId, TxId};
/// use gstm_collections::THashMap;
///
/// let stm = Stm::new(StmConfig::new(1));
/// let map: THashMap<u64, &'static str> = THashMap::new(16);
/// stm.run(ThreadId::new(0), TxId::new(0), |tx| {
///     map.insert(tx, 7, "seven")?;
///     Ok(())
/// });
/// let got = stm.run(ThreadId::new(0), TxId::new(1), |tx| map.get(tx, &7));
/// assert_eq!(got, Some("seven"));
/// ```
#[derive(Clone)]
pub struct THashMap<K, V> {
    buckets: Vec<TVar<Vec<(K, V)>>>,
}

impl<K, V> std::fmt::Debug for THashMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "THashMap({} buckets)", self.buckets.len())
    }
}

impl<K, V> THashMap<K, V>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Creates a map with `buckets` independent buckets.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn new(buckets: usize) -> Self {
        assert!(buckets > 0, "a map needs at least one bucket");
        THashMap { buckets: (0..buckets).map(|_| TVar::new(Vec::new())).collect() }
    }

    /// The bucket `key` lives in: its hash modulo the bucket count given to
    /// [`THashMap::new`].
    /// A caller that looks the same keys up again and again can keep this
    /// and address the bucket through [`THashMap::get_in`] /
    /// [`THashMap::insert_in`] without hashing.
    pub fn bucket_index(&self, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.buckets.len()
    }

    fn bucket_of(&self, key: &K) -> &TVar<Vec<(K, V)>> {
        &self.buckets[self.bucket_index(key)]
    }

    /// Transactionally inserts, returning the previous value if any.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    pub fn insert(&self, tx: &mut Txn<'_>, key: K, value: V) -> Result<Option<V>, Abort> {
        self.insert_in(tx, self.bucket_index(&key), key, value)
    }

    /// [`THashMap::insert`] into a bucket the caller already knows:
    /// `bucket` must be [`THashMap::bucket_index`] of `key`, or the key
    /// lands where no lookup will find it.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is not below the map's bucket count.
    pub fn insert_in(
        &self,
        tx: &mut Txn<'_>,
        bucket: usize,
        key: K,
        value: V,
    ) -> Result<Option<V>, Abort> {
        debug_assert_eq!(bucket, self.bucket_index(&key), "key addressed through a foreign bucket");
        let var = &self.buckets[bucket];
        let mut entries = copy_with_room(&tx.read_arc(var)?);
        let old = put(&mut entries, key, value);
        tx.write(var, entries)?;
        Ok(old)
    }

    /// Transactionally looks a key up.
    ///
    /// Reads the bucket's shared snapshot in place: only the value found
    /// is cloned, never the bucket.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    pub fn get(&self, tx: &mut Txn<'_>, key: &K) -> Result<Option<V>, Abort> {
        self.get_in(tx, self.bucket_index(key), key)
    }

    /// [`THashMap::get`] from a bucket the caller already knows: `bucket`
    /// must be [`THashMap::bucket_index`] of `key`, or a present key reads
    /// as absent.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is not below the map's bucket count.
    pub fn get_in(&self, tx: &mut Txn<'_>, bucket: usize, key: &K) -> Result<Option<V>, Abort> {
        debug_assert_eq!(bucket, self.bucket_index(key), "key addressed through a foreign bucket");
        let entries = tx.read_arc(&self.buckets[bucket])?;
        Ok(entries.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()))
    }

    /// Transactionally reads bucket `bucket`'s shared entry list, uncopied:
    /// a caller that looks up several keys of one bucket reads it once.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is not below the map's bucket count.
    pub fn bucket_in(&self, tx: &mut Txn<'_>, bucket: usize) -> Result<Arc<Vec<(K, V)>>, Abort> {
        tx.read_arc(&self.buckets[bucket])
    }

    /// Transactionally replaces bucket `bucket`'s entry list with
    /// `entries`: a caller that updates several keys of one bucket writes
    /// it once. Every entry must sit in its key's bucket
    /// ([`THashMap::bucket_index`]) and every key appear once, or lookups
    /// miss it.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is not below the map's bucket count.
    pub fn replace_bucket_in(
        &self,
        tx: &mut Txn<'_>,
        bucket: usize,
        entries: Vec<(K, V)>,
    ) -> Result<(), Abort> {
        tx.write(&self.buckets[bucket], entries)
    }

    /// Transactionally removes a key, returning its value if present.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    pub fn remove(&self, tx: &mut Txn<'_>, key: &K) -> Result<Option<V>, Abort> {
        let var = self.bucket_of(key);
        let shared = tx.read_arc(var)?;
        match shared.iter().position(|(k, _)| k == key) {
            Some(i) => {
                let mut entries = (*shared).clone();
                let (_, v) = entries.swap_remove(i);
                tx.write(var, entries)?;
                Ok(Some(v))
            }
            None => Ok(None),
        }
    }

    /// Read-modify-write on one key: inserts `default()` when absent, then
    /// applies `f`.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    pub fn upsert(
        &self,
        tx: &mut Txn<'_>,
        key: K,
        default: impl FnOnce() -> V,
        f: impl FnOnce(&mut V),
    ) -> Result<(), Abort> {
        let var = self.bucket_of(&key);
        let mut entries = copy_with_room(&tx.read_arc(var)?);
        match entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => f(v),
            None => {
                let mut v = default();
                f(&mut v);
                entries.push((key, v));
            }
        }
        tx.write(var, entries)
    }

    /// Non-transactional insert for pre-run population (setup only — never
    /// call while transactions are running; the store bypasses the STM).
    /// Returns the previous value if the key was present.
    pub fn insert_unlogged(&self, key: K, value: V) -> Option<V> {
        let var = self.bucket_of(&key);
        let mut entries = copy_with_room(&var.load_unlogged());
        let old = put(&mut entries, key, value);
        var.store_unlogged(entries);
        old
    }

    /// Non-transactional population (setup only, like
    /// [`THashMap::insert_unlogged`]): bucket `i` becomes `buckets[i]`,
    /// entries in the order given, and each bucket is stored once. The
    /// caller has already sorted the entries into buckets, so nothing is
    /// hashed here: every entry must sit in its key's bucket
    /// ([`THashMap::bucket_index`]) and every key appear once, or lookups
    /// miss it. Debug builds check both.
    ///
    /// # Panics
    ///
    /// Panics unless `buckets` holds one list per bucket.
    pub fn fill_unlogged(&self, buckets: Vec<Vec<(K, V)>>) {
        assert_eq!(buckets.len(), self.buckets.len(), "one entry list per bucket");
        for (i, (var, bucket)) in self.buckets.iter().zip(buckets).enumerate() {
            debug_assert!(
                bucket.iter().enumerate().all(|(j, (key, _))| self.bucket_index(key) == i
                    && bucket[..j].iter().all(|(k, _)| k != key)),
                "an entry outside its key's bucket, or a key given twice"
            );
            var.store_unlogged(bucket);
        }
    }

    /// Non-transactional snapshot of all entries (teardown only).
    pub fn snapshot_unlogged(&self) -> Vec<(K, V)> {
        self.buckets.iter().flat_map(|b| (*b.load_unlogged()).clone()).collect()
    }

    /// Non-transactional fold over all entries, in [`THashMap::snapshot_unlogged`]
    /// order, reading each bucket's shared list in place (teardown only).
    pub fn fold_unlogged<A>(&self, init: A, mut f: impl FnMut(A, &(K, V)) -> A) -> A {
        self.buckets.iter().fold(init, |acc, b| b.load_unlogged().iter().fold(acc, &mut f))
    }

    /// Non-transactional entry count (teardown only).
    pub fn len_unlogged(&self) -> usize {
        self.buckets.iter().map(|b| b.load_unlogged().len()).sum()
    }
}

/// A private copy of a bucket's shared snapshot with room for one more
/// entry: the one allocation an update of the bucket makes.
fn copy_with_room<K: Clone, V: Clone>(shared: &[(K, V)]) -> Vec<(K, V)> {
    let mut entries = Vec::with_capacity(shared.len() + 1);
    entries.extend_from_slice(shared);
    entries
}

/// Sets `key` to `value` in one bucket's entry list — in place if present,
/// appended otherwise — returning the previous value.
fn put<K: Eq, V>(entries: &mut Vec<(K, V)>, key: K, value: V) -> Option<V> {
    match entries.iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => Some(std::mem::replace(&mut slot.1, value)),
        None => {
            entries.push((key, value));
            None
        }
    }
}

/// A transactional hash set over [`THashMap`].
#[derive(Clone)]
pub struct TSet<K> {
    map: THashMap<K, ()>,
}

impl<K> std::fmt::Debug for TSet<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TSet({} buckets)", self.map.buckets.len())
    }
}

impl<K> TSet<K>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
{
    /// Creates a set with the given bucket count.
    pub fn new(buckets: usize) -> Self {
        TSet { map: THashMap::new(buckets) }
    }

    /// Transactionally inserts; returns whether the key was new.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    pub fn insert(&self, tx: &mut Txn<'_>, key: K) -> Result<bool, Abort> {
        Ok(self.map.insert(tx, key, ())?.is_none())
    }

    /// Non-transactional element snapshot (teardown only).
    pub fn snapshot_unlogged(&self) -> Vec<K> {
        self.map.snapshot_unlogged().into_iter().map(|(k, _)| k).collect()
    }

    /// Non-transactional element count (teardown only).
    pub fn len_unlogged(&self) -> usize {
        self.map.len_unlogged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{Stm, StmConfig, ThreadId, TxId};

    fn with_tx<R>(f: impl FnMut(&mut Txn<'_>) -> Result<R, Abort>) -> R {
        let stm = Stm::new(StmConfig::new(1));
        stm.run(ThreadId::new(0), TxId::new(0), f)
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let map: THashMap<u32, String> = THashMap::new(8);
        let got = with_tx(|tx| {
            assert_eq!(map.insert(tx, 1, "one".into())?, None);
            assert_eq!(map.insert(tx, 1, "uno".into())?, Some("one".into()));
            assert_eq!(map.get(tx, &1)?, Some("uno".into()));
            assert_eq!(map.remove(tx, &1)?, Some("uno".into()));
            map.get(tx, &1)
        });
        assert_eq!(got, None);
    }

    #[test]
    fn many_keys_spread_over_buckets() {
        let map: THashMap<u64, u64> = THashMap::new(4);
        with_tx(|tx| {
            for k in 0..100 {
                map.insert(tx, k, k * 2)?;
            }
            Ok(())
        });
        assert_eq!(map.len_unlogged(), 100);
        let mut snap = map.snapshot_unlogged();
        snap.sort_unstable();
        assert_eq!(snap[10], (10, 20));
    }

    #[test]
    fn upsert_creates_then_mutates() {
        let map: THashMap<u8, Vec<u8>> = THashMap::new(4);
        with_tx(|tx| {
            map.upsert(tx, 1, Vec::new, |v| v.push(10))?;
            map.upsert(tx, 1, Vec::new, |v| v.push(20))?;
            Ok(())
        });
        assert_eq!(map.snapshot_unlogged(), vec![(1, vec![10, 20])]);
    }

    #[test]
    fn insert_unlogged_seeds_transactional_reads() {
        let map: THashMap<u32, u32> = THashMap::new(4);
        assert_eq!(map.insert_unlogged(5, 50), None);
        assert_eq!(map.insert_unlogged(5, 55), Some(50));
        let got = with_tx(|tx| map.get(tx, &5));
        assert_eq!(got, Some(55));
    }

    #[test]
    fn fill_unlogged_matches_one_insert_per_entry() {
        let entries: Vec<(u32, u32)> = (0..40).map(|i| (i * 7 % 40, i)).collect();
        let (bulk, single): (THashMap<u32, u32>, THashMap<u32, u32>) =
            (THashMap::new(4), THashMap::new(4));
        let mut buckets = vec![Vec::new(); 4];
        for &(k, v) in &entries {
            buckets[bulk.bucket_index(&k)].push((k, v));
            single.insert_unlogged(k, v);
        }
        bulk.fill_unlogged(buckets);
        // Bucket by bucket, in bucket order: entry order is part of the
        // store digests built from this.
        assert_eq!(bulk.snapshot_unlogged(), single.snapshot_unlogged());
        assert_eq!(bulk.len_unlogged(), 40);
        assert_eq!(with_tx(|tx| bulk.get(tx, &7)), Some(1));
    }

    #[test]
    #[should_panic(expected = "one entry list per bucket")]
    fn fill_unlogged_needs_one_list_per_bucket() {
        THashMap::<u32, u32>::new(2).fill_unlogged(vec![Vec::new(); 3]);
    }

    /// A value that counts how often it is cloned.
    #[derive(Debug)]
    struct Counted(std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Counted(self.0.clone())
        }
    }

    #[test]
    fn lookups_never_copy_the_bucket() {
        let clones = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let map: THashMap<u32, Counted> = THashMap::new(1);
        for k in 0..8 {
            map.insert_unlogged(k, Counted(clones.clone()));
        }
        let count = |f: &mut dyn FnMut()| {
            let before = clones.load(std::sync::atomic::Ordering::Relaxed);
            f();
            clones.load(std::sync::atomic::Ordering::Relaxed) - before
        };
        assert_eq!(count(&mut || assert!(with_tx(|tx| map.get(tx, &5)).is_some())), 1);
        assert_eq!(count(&mut || assert!(with_tx(|tx| map.get(tx, &50)).is_none())), 0);
        assert_eq!(count(&mut || assert!(with_tx(|tx| map.remove(tx, &50)).is_none())), 0);
        // An update copies the bucket exactly once.
        let fresh = Counted(clones.clone());
        assert_eq!(count(&mut || drop(with_tx(|tx| map.insert(tx, 5, fresh.clone())))), 8 + 1);
        assert_eq!(count(&mut || drop(with_tx(|tx| map.remove(tx, &5)))), 8);
    }

    /// A bucket read by index is the shared list, uncopied; replacing it by
    /// index is what the next lookup sees; the unlogged fold visits every
    /// entry once.
    #[test]
    fn buckets_read_and_replace_by_index() {
        let map: THashMap<u32, u32> = THashMap::new(4);
        for k in 0..12 {
            map.insert_unlogged(k, k * 10);
        }
        let b = map.bucket_index(&5);
        let stm = Stm::new(StmConfig::new(1));
        stm.run(ThreadId::new(0), TxId::new(0), |tx| {
            let shared = map.bucket_in(tx, b)?;
            assert!(shared.contains(&(5, 50)));
            let mut entries = shared.to_vec();
            entries.iter_mut().for_each(|(_, v)| *v += 1);
            map.replace_bucket_in(tx, b, entries)
        });
        assert_eq!(with_tx(|tx| map.get(tx, &5)), Some(51));
        let total = map.fold_unlogged(0, |sum, &(_, v)| sum + v);
        assert_eq!(total, map.snapshot_unlogged().iter().map(|&(_, v)| v).sum::<u32>());
        assert_eq!(map.fold_unlogged(0, |n, _| n + 1), 12);
    }

    #[test]
    fn set_semantics() {
        let set: TSet<&'static str> = TSet::new(4);
        with_tx(|tx| {
            assert!(set.insert(tx, "a")?);
            assert!(!set.insert(tx, "a")?);
            Ok(())
        });
        assert_eq!(set.len_unlogged(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let _: THashMap<u8, u8> = THashMap::new(0);
    }
}
