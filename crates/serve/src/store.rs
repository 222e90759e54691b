//! The sharded transactional store and its typed request API.
//!
//! The store is a fixed keyspace `0..keys` partitioned round-robin over
//! `shards` independent [`THashMap`]s (`shard = key % shards`), each with
//! its own bucket array — two levels of conflict granularity: requests to
//! different shards never share a `TVar`; requests to the same shard
//! conflict only when they hash to the same bucket. Every request executes
//! as **one STM transaction** via [`ShardedStore::apply`], so multi-key
//! operations ([`Request::Transfer`], [`Request::Scan`]) are atomic across
//! shards for free — that is the point of layering a service on the STM
//! rather than on per-shard locks.
//!
//! What a request *means* is written once, in [`interpret`], against the
//! two-method [`EntryAccess`] substrate. The transactional store, the
//! block executor's speculative reads (`apply_with`) and WAL replay
//! (`Materializer`) are three substrates under that one interpreter
//! (DESIGN.md §6e).
//!
//! Each key holds an [`Entry`] with two independent faces:
//!
//! * `balance` — mutated only by `Transfer` (conserved: the sum over all
//!   keys is a run invariant the harness verifies);
//! * `blob` — mutated by `Put`/`Cas` (arbitrary, unconstrained).
//!
//! Keeping the faces separate lets the workload mix write-heavy traffic
//! with a machine-checkable invariant.

use std::sync::Arc;

use gstm_collections::THashMap;
use gstm_core::{Abort, TxId, Txn, TxnKind};

/// Every key starts with this balance; `Transfer`s conserve the total.
pub const INITIAL_BALANCE: i64 = 100;

/// Hard cap on [`Request::Scan`] length, whatever the spec asks for.
pub const MAX_SCAN_LEN: u64 = 64;

/// One stored object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Conserved face: only `Transfer` moves it.
    pub balance: i64,
    /// Free face: `Put` overwrites, `Cas` compare-and-swaps.
    pub blob: u64,
}

impl Entry {
    fn fresh() -> Self {
        Entry { balance: INITIAL_BALANCE, blob: 0 }
    }
}

/// A typed store request. Each variant is one atomic operation — and one
/// static transaction site ([`Request::site`]), so the thread-state
/// automaton model sees `Get` and `Transfer` as distinct atomic blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Read one entry.
    Get {
        /// Key to read.
        key: u64,
    },
    /// Overwrite one entry's blob.
    Put {
        /// Key to write.
        key: u64,
        /// New blob value.
        blob: u64,
    },
    /// Compare-and-swap one entry's blob.
    Cas {
        /// Key to update.
        key: u64,
        /// Expected current blob.
        expect: u64,
        /// Replacement blob if the expectation holds.
        update: u64,
    },
    /// Atomically move balance between two keys (possibly cross-shard).
    Transfer {
        /// Debited key.
        from: u64,
        /// Credited key.
        to: u64,
        /// Amount moved.
        amount: i64,
    },
    /// Bounded atomic range scan: sums balances over `len` consecutive
    /// keys (wrapping around the keyspace).
    Scan {
        /// First key of the range.
        start: u64,
        /// Range length (clamped to [`MAX_SCAN_LEN`]).
        len: u64,
    },
}

impl Request {
    /// Builds a [`Request::Get`].
    pub fn get(key: u64) -> Self {
        Request::Get { key }
    }

    /// Builds a [`Request::Put`].
    pub fn put(key: u64, blob: u64) -> Self {
        Request::Put { key, blob }
    }

    /// Builds a [`Request::Cas`].
    pub fn cas(key: u64, expect: u64, update: u64) -> Self {
        Request::Cas { key, expect, update }
    }

    /// Builds a [`Request::Transfer`].
    pub fn transfer(from: u64, to: u64, amount: i64) -> Self {
        Request::Transfer { from, to, amount }
    }

    /// Builds a [`Request::Scan`] — a read-only request by construction.
    pub fn scan(start: u64, len: u64) -> Self {
        Request::Scan { start, len }
    }

    /// The static transaction site of this request kind (the paper's
    /// `TM_BEGIN(ID)` argument; the model's per-site states key off it).
    pub fn site(&self) -> TxId {
        TxId::new(match self {
            Request::Get { .. } => 0,
            Request::Put { .. } => 1,
            Request::Cas { .. } => 2,
            Request::Transfer { .. } => 3,
            Request::Scan { .. } => 4,
        })
    }

    /// The transaction kind this request declares: `Get` and `Scan` never
    /// write, so the service runs them as [`TxnKind::ReadOnly`]
    /// transactions.
    pub fn txn_kind(&self) -> TxnKind {
        match self {
            Request::Get { .. } | Request::Scan { .. } => TxnKind::ReadOnly,
            Request::Put { .. } | Request::Cas { .. } | Request::Transfer { .. } => TxnKind::Update,
        }
    }
}

/// A typed response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Response {
    /// `Get`: the entry, if the key exists.
    Value(Option<Entry>),
    /// `Put`: acknowledged.
    Ok,
    /// `Cas`: whether the swap happened.
    Swapped(bool),
    /// `Transfer`: whether both keys existed and the move happened.
    Transferred(bool),
    /// `Scan`: number of keys seen and their balance sum.
    ScanSum {
        /// Keys visited.
        count: u64,
        /// Sum of their balances.
        sum: i64,
    },
}

/// What a request executes against: one keyed read and one keyed write.
/// The substrates are the transactional store (reads and writes are STM
/// operations that can abort), the block executor's multi-version reads
/// (a read can suspend on an estimate) and a plain map (WAL replay, the
/// sequential block reference; cannot fail).
pub trait EntryAccess {
    /// Why a read or write can fail; [`interpret`] propagates it untouched.
    type Err;

    /// The entry stored under `key`, if the key exists.
    ///
    /// # Errors
    ///
    /// Substrate-specific (an STM conflict, a blocked speculative read).
    fn read(&mut self, key: u64) -> Result<Option<Entry>, Self::Err>;

    /// Stores `entry` under `key`.
    ///
    /// # Errors
    ///
    /// Substrate-specific (an STM conflict).
    fn write(&mut self, key: u64, entry: Entry) -> Result<(), Self::Err>;
}

/// The request semantics — the only place they are written. Clamps,
/// missing-key behaviour and conditional no-ops are the same on every
/// substrate because every substrate runs this function.
///
/// No request kind reads a key it has already written (a transfer reads
/// both accounts before writing either), so a substrate need not make its
/// own writes visible to its reads. A substrate decides how many STM
/// accesses a call costs: the transactional store reads each bucket once
/// and defers every write to one write-back per changed bucket after this
/// function returns ([`ShardedStore::apply`]). The simulator charges
/// virtual time per STM access, so that count is part of every serve
/// golden; the goldens moved once, when the store stopped re-reading a
/// bucket to write it.
///
/// # Errors
///
/// Propagates the substrate's error from the first failing access.
///
/// # Panics
///
/// Panics on a `Scan` if `keys` (the keyspace size) is zero.
#[inline]
pub fn interpret<A: EntryAccess>(
    req: &Request,
    keys: u64,
    access: &mut A,
) -> Result<Response, A::Err> {
    Ok(match *req {
        Request::Get { key } => Response::Value(access.read(key)?),
        Request::Put { key, blob } => {
            if let Some(mut e) = access.read(key)? {
                e.blob = blob;
                access.write(key, e)?;
            }
            Response::Ok
        }
        Request::Cas { key, expect, update } => match access.read(key)? {
            Some(mut e) if e.blob == expect => {
                e.blob = update;
                access.write(key, e)?;
                Response::Swapped(true)
            }
            _ => Response::Swapped(false),
        },
        Request::Transfer { from, to, amount } => {
            if from == to {
                return Ok(Response::Transferred(false));
            }
            let (Some(mut f), Some(mut t)) = (access.read(from)?, access.read(to)?) else {
                return Ok(Response::Transferred(false));
            };
            // `amount` is caller-supplied (and WAL-decoded): a transfer that
            // would overflow either balance is refused, not wrapped.
            let (Some(debited), Some(credited)) =
                (f.balance.checked_sub(amount), t.balance.checked_add(amount))
            else {
                return Ok(Response::Transferred(false));
            };
            f.balance = debited;
            t.balance = credited;
            access.write(from, f)?;
            access.write(to, t)?;
            Response::Transferred(true)
        }
        Request::Scan { start, len } => {
            let len = len.min(MAX_SCAN_LEN).min(keys);
            let mut key = start % keys;
            let mut sum = 0i64;
            for _ in 0..len {
                if let Some(e) = access.read(key)? {
                    // Single balances can sit near either `i64` limit (only
                    // the keyspace total is conserved), so the sum wraps.
                    sum = sum.wrapping_add(e.balance);
                }
                // `key < keys`: the next key, wrapping round the keyspace
                // without the `start + i` sum a caller's `start` can overflow.
                key = if key + 1 == keys { 0 } else { key + 1 };
            }
            Response::ScanSum { count: len, sum }
        }
    })
}

/// The sharded in-memory transactional store.
#[derive(Clone)]
pub struct ShardedStore {
    shards: Vec<THashMap<u64, Entry>>,
    /// `(shard, bucket)` of every key in `0..keys`, filled when the store is
    /// built: a request finds its bucket with one indexed load instead of
    /// hashing the key and dividing twice. The shape is fixed for the
    /// store's lifetime, so the table never goes stale.
    table: Vec<(u32, u32)>,
    keys: u64,
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardedStore({} shards, {} keys)", self.shards.len(), self.keys)
    }
}

impl ShardedStore {
    /// Builds and populates a store: `keys` entries spread over `shards`
    /// shards of `buckets_per_shard` buckets each, every key funded with
    /// [`INITIAL_BALANCE`]. Population is non-transactional — call before
    /// any worker starts.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, or if `shards` or
    /// `buckets_per_shard` exceeds `u32::MAX`.
    pub fn new(shards: usize, buckets_per_shard: usize, keys: u64) -> Self {
        Self::populated(shards, buckets_per_shard, keys, (0..keys).map(|key| (key, Entry::fresh())))
    }

    /// A store of the given shape holding `entries`, whose keys are
    /// distinct. Each key of the keyspace is hashed once, to fill the
    /// table; every bucket is sized from the table, filled in entry order
    /// and stored once.
    fn populated(
        shards: usize,
        buckets_per_shard: usize,
        keys: u64,
        entries: impl Iterator<Item = (u64, Entry)>,
    ) -> Self {
        assert!(shards > 0 && keys > 0, "store needs at least one shard and one key");
        assert!(
            u32::try_from(shards).is_ok() && u32::try_from(buckets_per_shard).is_ok(),
            "store shape exceeds the bucket table's 32-bit indices"
        );
        let maps: Vec<THashMap<u64, Entry>> =
            (0..shards).map(|_| THashMap::new(buckets_per_shard)).collect();
        let table: Vec<(u32, u32)> = (0..keys)
            .map(|key| {
                let (shard, bucket) = address(&maps, key);
                (shard as u32, bucket as u32)
            })
            .collect();
        // Bucket `bucket` of shard `shard` is list `shard * buckets_per_shard + bucket`.
        let mut sizes = vec![0; shards * buckets_per_shard];
        for &(shard, bucket) in &table {
            sizes[shard as usize * buckets_per_shard + bucket as usize] += 1;
        }
        let mut buckets: Vec<Vec<(u64, Entry)>> =
            sizes.into_iter().map(Vec::with_capacity).collect();
        let store = ShardedStore { shards: maps, table, keys };
        for (key, entry) in entries {
            let (shard, bucket) = store.locate(key);
            buckets[shard * buckets_per_shard + bucket].push((key, entry));
        }
        let mut buckets = buckets.into_iter();
        for map in &store.shards {
            map.fill_unlogged(buckets.by_ref().take(buckets_per_shard).collect());
        }
        store
    }

    /// Keyspace size.
    pub fn key_count(&self) -> u64 {
        self.keys
    }

    /// Shard and bucket (as indices) of `key`: from the table for a key of
    /// the keyspace, by the rule the table was filled with for any other. A
    /// key past the keyspace holds nothing, but reading it still reads its
    /// bucket, exactly as it did when every access hashed.
    #[inline]
    fn locate(&self, key: u64) -> (usize, usize) {
        match usize::try_from(key).ok().and_then(|k| self.table.get(k)) {
            Some(&(shard, bucket)) => (shard as usize, bucket as usize),
            None => address(&self.shards, key),
        }
    }

    /// Executes one request inside the caller's transaction: [`interpret`]
    /// over the store's transactional maps, each bucket read once and
    /// written once. A `Get` reads its one bucket directly; every other
    /// kind runs over a `HeldBuckets` in this frame, which holds the
    /// first two buckets the request reads and writes back the ones it
    /// changed after `interpret` returns.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts (the caller's `Stm::run` retries).
    pub fn apply(&self, tx: &mut Txn<'_>, req: &Request) -> Result<Response, Abort> {
        if let Request::Get { .. } = req {
            return interpret(req, self.keys, &mut TxnAccess { store: self, tx });
        }
        let mut access = HeldBuckets { store: self, tx, held: [None, None] };
        let resp = interpret(req, self.keys, &mut access)?;
        access.write_back()?;
        Ok(resp)
    }

    /// Applies a block-executor write set inside the caller's transaction:
    /// plain inserts of pre-computed entries, in write-set order. The block
    /// executor already resolved every read against the block's
    /// multi-version state, so commit only has to publish the final
    /// values — this is what keeps the per-transaction commit cost of
    /// `ServeMode::Block` independent of the request's read footprint.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts (the caller's `Stm::run` retries; under
    /// block mode's single committer this only happens on capacity aborts).
    pub fn apply_writes(&self, tx: &mut Txn<'_>, writes: &[(u64, Entry)]) -> Result<(), Abort> {
        let mut access = TxnAccess { store: self, tx };
        writes.iter().try_for_each(|&(key, entry)| access.write(key, entry))
    }

    /// Rebuilds a store of the given shape directly from recovered
    /// entries (a snapshot's: distinct keys, in any order), skipping the
    /// usual fresh population — the recovery path's constructor.
    /// Non-transactional; call before any worker starts.
    ///
    /// # Panics
    ///
    /// Panics as [`ShardedStore::new`] does.
    pub fn from_entries(
        shards: usize,
        buckets_per_shard: usize,
        keys: u64,
        entries: &[(u64, Entry)],
    ) -> Self {
        Self::populated(shards, buckets_per_shard, keys, entries.iter().copied())
    }

    /// Non-transactional dump of every entry, sorted by key — the
    /// canonical representation snapshots and digests are built from.
    pub fn entries_unlogged(&self) -> Vec<(u64, Entry)> {
        let mut all: Vec<(u64, Entry)> =
            self.shards.iter().flat_map(|s| s.snapshot_unlogged()).collect();
        all.sort_by_key(|&(k, _)| k);
        all
    }

    /// Non-transactional balance total (verification/teardown only),
    /// summed over each bucket's shared list without copying it.
    pub fn total_balance_unlogged(&self) -> i64 {
        self.shards.iter().map(|s| s.fold_unlogged(0, |sum, (_, e)| sum + e.balance)).sum()
    }

    /// The total every run must conserve.
    pub fn expected_total(&self) -> i64 {
        INITIAL_BALANCE * self.keys as i64
    }
}

/// Where `key` lives among `shards`, as `(shard, bucket)` indices: shards
/// round-robin, the bucket by the shard's own hashing.
fn address(shards: &[THashMap<u64, Entry>], key: u64) -> (usize, usize) {
    let shard = (key % shards.len() as u64) as usize;
    (shard, shards[shard].bucket_index(&key))
}

/// The transactional substrate: entries live in the store's `THashMap`s
/// and every access is an STM read or write of the caller's transaction.
struct TxnAccess<'a, 'tx> {
    store: &'a ShardedStore,
    tx: &'a mut Txn<'tx>,
}

impl EntryAccess for TxnAccess<'_, '_> {
    type Err = Abort;

    #[inline]
    fn read(&mut self, key: u64) -> Result<Option<Entry>, Abort> {
        let (shard, bucket) = self.store.locate(key);
        self.store.shards[shard].get_in(self.tx, bucket, &key)
    }

    #[inline]
    fn write(&mut self, key: u64, entry: Entry) -> Result<(), Abort> {
        let (shard, bucket) = self.store.locate(key);
        self.store.shards[shard].insert_in(self.tx, bucket, key, entry).map(|_| ())
    }
}

/// The request-scoped transactional substrate [`ShardedStore::apply`] runs
/// every request but a `Get` over. The first two distinct buckets a request
/// reads are read once and held; later reads of them are served from the
/// held list, and writes go to one private copy of their bucket, written
/// back once by [`HeldBuckets::write_back`]. Two slots cover every writing
/// kind (a transfer touches at most two buckets); a `Scan` reads any
/// further bucket directly.
struct HeldBuckets<'a, 'tx> {
    store: &'a ShardedStore,
    tx: &'a mut Txn<'tx>,
    held: [Option<HeldBucket>; 2],
}

/// One bucket a request has read: its shared list and, once written, the
/// request's private copy.
struct HeldBucket {
    shard: usize,
    bucket: usize,
    shared: Arc<Vec<(u64, Entry)>>,
    copy: Option<Vec<(u64, Entry)>>,
}

impl HeldBuckets<'_, '_> {
    /// The slot holding `key`'s bucket, reading the bucket into a free slot
    /// on its first touch; `None` once both slots hold other buckets.
    #[inline]
    fn hold(&mut self, key: u64) -> Result<Option<&mut HeldBucket>, Abort> {
        let (shard, bucket) = self.store.locate(key);
        let slot = match self
            .held
            .iter()
            .position(|h| h.as_ref().is_none_or(|h| h.shard == shard && h.bucket == bucket))
        {
            Some(i) => &mut self.held[i],
            None => return Ok(None),
        };
        if slot.is_none() {
            let shared = self.store.shards[shard].bucket_in(self.tx, bucket)?;
            *slot = Some(HeldBucket { shard, bucket, shared, copy: None });
        }
        Ok(slot.as_mut())
    }

    /// Writes every changed bucket back, once each, in the order the
    /// request first read them.
    fn write_back(&mut self) -> Result<(), Abort> {
        for h in self.held.iter_mut().flatten() {
            if let Some(copy) = h.copy.take() {
                self.store.shards[h.shard].replace_bucket_in(self.tx, h.bucket, copy)?;
            }
        }
        Ok(())
    }
}

impl EntryAccess for HeldBuckets<'_, '_> {
    type Err = Abort;

    #[inline]
    fn read(&mut self, key: u64) -> Result<Option<Entry>, Abort> {
        match self.hold(key)? {
            Some(h) => {
                let entries = h.copy.as_deref().unwrap_or(&h.shared);
                Ok(entries.iter().find(|(k, _)| *k == key).map(|&(_, e)| e))
            }
            None => TxnAccess { store: self.store, tx: &mut *self.tx }.read(key),
        }
    }

    #[inline]
    fn write(&mut self, key: u64, entry: Entry) -> Result<(), Abort> {
        match self.hold(key)? {
            Some(h) => {
                let copy = h.copy.get_or_insert_with(|| h.shared.to_vec());
                match copy.iter_mut().find(|(k, _)| *k == key) {
                    Some(slot) => slot.1 = entry,
                    None => copy.push((key, entry)),
                }
                Ok(())
            }
            None => TxnAccess { store: self.store, tx: &mut *self.tx }.write(key, entry),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{Stm, StmConfig, ThreadId};

    fn with_tx<R>(f: impl FnMut(&mut Txn<'_>) -> Result<R, Abort>) -> R {
        let stm = Stm::new(StmConfig::new(1));
        stm.run(ThreadId::new(0), TxId::new(0), f)
    }

    #[test]
    fn populated_store_conserves_initial_total() {
        let store = ShardedStore::new(4, 8, 100);
        assert_eq!(store.total_balance_unlogged(), store.expected_total());
        assert_eq!(store.key_count(), 100);
    }

    /// The bucket-at-a-time constructors lay every bucket out exactly as
    /// one `insert_unlogged` per key did: the digests built from
    /// `entries_unlogged` and the per-bucket entry order both hold.
    #[test]
    fn bulk_population_matches_one_insert_per_key() {
        let per_key = |entries: &[(u64, Entry)]| {
            let shards: Vec<THashMap<u64, Entry>> = (0..3).map(|_| THashMap::new(4)).collect();
            for &(key, entry) in entries {
                shards[(key % 3) as usize].insert_unlogged(key, entry);
            }
            shards.iter().map(THashMap::snapshot_unlogged).collect::<Vec<_>>()
        };
        let layout = |store: &ShardedStore| {
            store.shards.iter().map(THashMap::snapshot_unlogged).collect::<Vec<_>>()
        };
        let fresh: Vec<(u64, Entry)> = (0..100).map(|key| (key, Entry::fresh())).collect();
        let store = ShardedStore::new(3, 4, 100);
        assert_eq!(layout(&store), per_key(&fresh));
        assert_eq!(store.entries_unlogged(), fresh);
        // Recovered entries arrive in any order and may skip keys.
        let recovered: Vec<(u64, Entry)> =
            (0..60u64).map(|i| (i * 37 % 100, Entry { balance: i as i64, blob: i * 3 })).collect();
        let store = ShardedStore::from_entries(3, 4, 100, &recovered);
        assert_eq!(layout(&store), per_key(&recovered));
    }

    /// The table is a cache of the addressing rule, not a second rule: for
    /// every key of the three preset shapes it names the shard and bucket
    /// that `key % shards` and [`THashMap::bucket_index`] name, and past the
    /// keyspace — where there is no table entry — the fallback names them
    /// too, so a request for a key nobody stored still reads that key's
    /// bucket.
    #[test]
    fn the_bucket_table_names_the_bucket_hashing_names_for_every_key() {
        use crate::service::ServeSpec;
        for spec in [ServeSpec::hot(0), ServeSpec::wide(0), ServeSpec::ledger(0)] {
            let store = ShardedStore::new(spec.shards, spec.buckets_per_shard, spec.keys);
            assert_eq!(store.table.len() as u64, spec.keys, "one entry per key of the keyspace");
            for key in (0..spec.keys).chain([spec.keys, spec.keys + 1, u64::MAX]) {
                let shard = (key % spec.shards as u64) as usize;
                let hashed = (shard, store.shards[shard].bucket_index(&key));
                assert_eq!(store.locate(key), hashed, "key {key} of {store:?}");
            }
            let found = with_tx(|tx| store.apply(tx, &Request::get(spec.keys - 1)));
            assert_eq!(found, Response::Value(Some(Entry::fresh())));
            for missing in [spec.keys, spec.keys + 1, u64::MAX] {
                let resp = with_tx(|tx| store.apply(tx, &Request::put(missing, 1)));
                assert_eq!(resp, Response::Ok, "a put past the keyspace is a no-op");
                let resp = with_tx(|tx| store.apply(tx, &Request::get(missing)));
                assert_eq!(resp, Response::Value(None));
            }
        }
    }

    /// A request reads each bucket it touches once through the STM and
    /// writes each bucket it changes once: on the hot store, counted as the
    /// oracle's `ReadCheck` events (reads that crossed into shared state)
    /// and the committed write set.
    #[test]
    fn a_request_reads_and_writes_each_bucket_once() {
        use crate::service::ServeSpec;
        use gstm_core::{cm::Aggressive, AdmitAll, MemorySink, NullGate, TxEvent};
        use std::sync::Arc;

        let spec = ServeSpec::hot(0);
        let store = ShardedStore::new(spec.shards, spec.buckets_per_shard, spec.keys);
        let sink = Arc::new(MemorySink::new());
        let stm = Stm::with_parts(
            StmConfig::builder(1).check_events(true).build(),
            Arc::new(NullGate),
            Arc::clone(&sink) as Arc<dyn gstm_core::EventSink>,
            Arc::new(AdmitAll),
            Arc::new(Aggressive),
        );
        let counts = |req: Request| {
            let resp = stm.run(ThreadId::new(0), req.site(), |tx| store.apply(tx, &req));
            let events = sink.take();
            let reads = events.iter().filter(|e| matches!(e, TxEvent::ReadCheck { .. })).count();
            let writes = events.iter().find_map(|e| match e {
                TxEvent::Commit { writes, .. } => Some(*writes),
                _ => None,
            });
            (resp, reads, writes.expect("one commit"))
        };
        let keys: Vec<u64> = (0..spec.keys).collect();
        let pair = |same: bool| {
            keys.iter()
                .flat_map(|&a| keys.iter().map(move |&b| (a, b)))
                .find(|&(a, b)| a != b && (store.locate(a) == store.locate(b)) == same)
                .expect("the hot store has both kinds of pair")
        };
        let (from, to) = pair(false);
        assert_eq!(counts(Request::transfer(from, to, 1)), (Response::Transferred(true), 2, 2));
        let (from, to) = pair(true);
        assert_eq!(counts(Request::transfer(from, to, 1)), (Response::Transferred(true), 1, 1));
        assert_eq!(counts(Request::put(from, 9)), (Response::Ok, 1, 1));
        assert_eq!(counts(Request::cas(from, 9, 3)), (Response::Swapped(true), 1, 1));
        let (resp, reads, writes) = counts(Request::get(from));
        assert!(matches!(resp, Response::Value(Some(e)) if e.blob == 3), "{resp:?}");
        assert_eq!((reads, writes), (1, 0));
        assert_eq!(store.total_balance_unlogged(), store.expected_total());
    }

    #[test]
    fn request_sites_are_distinct_per_kind() {
        let reqs = [
            Request::get(0),
            Request::put(0, 0),
            Request::cas(0, 0, 0),
            Request::transfer(0, 1, 1),
            Request::scan(0, 1),
        ];
        let mut sites: Vec<u16> = reqs.iter().map(|r| r.site().index() as u16).collect();
        sites.dedup();
        assert_eq!(sites.len(), 5, "each kind is its own atomic-block site");
    }

    #[test]
    fn builders_tag_read_only_intent() {
        assert_eq!(Request::get(1).txn_kind(), TxnKind::ReadOnly);
        assert_eq!(Request::scan(0, 4).txn_kind(), TxnKind::ReadOnly);
        assert_eq!(Request::put(1, 2).txn_kind(), TxnKind::Update);
        assert_eq!(Request::cas(1, 0, 2).txn_kind(), TxnKind::Update);
        assert_eq!(Request::transfer(0, 1, 5).txn_kind(), TxnKind::Update);
        assert_eq!(Request::get(1), Request::Get { key: 1 });
    }

    #[test]
    fn apply_writes_publishes_precomputed_entries_atomically() {
        let store = ShardedStore::new(3, 4, 9);
        // A transfer's write set as the block executor would hand it over:
        // final entries, both shards, one transaction.
        let writes = [
            (1u64, Entry { balance: INITIAL_BALANCE - 30, blob: 0 }),
            (5u64, Entry { balance: INITIAL_BALANCE + 30, blob: 7 }),
        ];
        with_tx(|tx| store.apply_writes(tx, &writes));
        assert_eq!(store.total_balance_unlogged(), store.expected_total());
        let resp = with_tx(|tx| store.apply(tx, &Request::Get { key: 5 }));
        assert_eq!(resp, Response::Value(Some(Entry { balance: INITIAL_BALANCE + 30, blob: 7 })));
        // An empty write set (a read-only request's block commit) is a
        // legal transaction.
        with_tx(|tx| store.apply_writes(tx, &[]));
    }
}
