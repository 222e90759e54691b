//! Pluggable storage backends: ephemeral vs WAL-backed durable.
//!
//! The serve loop talks to a [`StoreBackend`] rather than to the store
//! directly. Both implementations serve requests from the same in-memory
//! [`ShardedStore`]; they differ in what happens *after* a request's
//! transaction commits:
//!
//! * [`EphemeralBackend`] — nothing. A crash loses the store. This is the
//!   original serve behavior, bit-for-bit (the commit hook is a no-op).
//! * [`DurableBackend`] — the request is **command-logged** to a
//!   [`Wal`] keyed by the engine's global commit sequence number. The STM's
//!   commit order *is* the serialization order, so replaying the logged
//!   requests in sequence order against a fresh store reproduces the
//!   committed state exactly — no per-key value logging, no write-set
//!   capture, and multi-key atomicity (transfers) survives for free
//!   because a request is either wholly in the recoverable prefix or
//!   wholly lost.
//!
//! Read-only requests (`Get`, `Scan`) are logged too: every commit takes a
//! sequence number, and recovery cuts at the first *gap*, so skipping
//! read-only seqs would truncate the recoverable prefix at the first read.
//! Their replay is a no-op; the cost is one 25-byte record.
//!
//! A durable commit touches only its own thread's memory: its WAL staging
//! slot and its shard of the ground-truth ledger. Periodically one committer
//! replays the ledger's new contiguous prefix into a [`Materializer`] and
//! installs it as a WAL snapshot (then the log truncates): recovery work is
//! bounded by the snapshot interval.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gstm_core::sync::Mutex;
use gstm_core::{PerThread, TxnKind};
use gstm_wal::{fnv1a64, recover, LogDevice, MemDevice, Recovered, Wal, WalConfig, WalError};

use crate::store::{interpret, Entry, EntryAccess, Request, ShardedStore, INITIAL_BALANCE};

/// Which backend a [`crate::ServeSpec`] runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// In-memory only; commits are not persisted.
    #[default]
    Ephemeral,
    /// Commits are command-logged to a write-ahead log with snapshots.
    Durable,
}

impl BackendKind {
    /// Stable label (cache keys, tables).
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Ephemeral => "ephemeral",
            BackendKind::Durable => "durable",
        }
    }
}

/// What the serve loop needs from storage: the store itself plus a
/// post-commit durability hook.
pub trait StoreBackend: Send + Sync {
    /// The in-memory store requests execute against.
    fn store(&self) -> &ShardedStore;

    /// Called by the worker *after* `stm.run` returned for a served
    /// request — off the lock-hold path. `seq` is the engine's global
    /// commit sequence number for that transaction.
    fn on_commit(&self, seq: u64, req: &Request) {
        let _ = (seq, req);
    }

    /// Called once per worker when its schedule is drained.
    fn flush(&self) {}
}

/// The no-durability backend: exactly the pre-WAL serve behavior.
#[derive(Debug)]
pub struct EphemeralBackend {
    store: ShardedStore,
}

impl EphemeralBackend {
    /// Wraps a populated store.
    pub fn new(store: ShardedStore) -> Self {
        EphemeralBackend { store }
    }
}

impl StoreBackend for EphemeralBackend {
    fn store(&self) -> &ShardedStore {
        &self.store
    }
}

// --- request / state codecs -------------------------------------------------

/// Fixed encoded size of one request payload: kind byte + three u64 words.
pub(crate) const REQUEST_PAYLOAD_LEN: usize = 1 + 3 * 8;

/// Encodes a request as a fixed 25-byte WAL payload.
pub(crate) fn encode_request(req: &Request) -> [u8; REQUEST_PAYLOAD_LEN] {
    let (kind, a, b, c) = match *req {
        Request::Get { key } => (0u8, key, 0, 0),
        Request::Put { key, blob } => (1, key, blob, 0),
        Request::Cas { key, expect, update } => (2, key, expect, update),
        Request::Transfer { from, to, amount } => (3, from, to, amount as u64),
        Request::Scan { start, len } => (4, start, len, 0),
    };
    let mut out = [0u8; REQUEST_PAYLOAD_LEN];
    out[0] = kind;
    out[1..9].copy_from_slice(&a.to_le_bytes());
    out[9..17].copy_from_slice(&b.to_le_bytes());
    out[17..25].copy_from_slice(&c.to_le_bytes());
    out
}

/// Decodes a WAL payload back into a request. `None` means the payload is
/// not a valid request record: among others, kind 5, which a retired
/// multi-key read once used.
pub(crate) fn decode_request(payload: &[u8]) -> Option<Request> {
    if payload.len() != REQUEST_PAYLOAD_LEN {
        return None;
    }
    let a = u64::from_le_bytes(payload[1..9].try_into().ok()?);
    let b = u64::from_le_bytes(payload[9..17].try_into().ok()?);
    let c = u64::from_le_bytes(payload[17..25].try_into().ok()?);
    Some(match payload[0] {
        0 => Request::Get { key: a },
        1 => Request::Put { key: a, blob: b },
        2 => Request::Cas { key: a, expect: b, update: c },
        3 => Request::Transfer { from: a, to: b, amount: c as i64 },
        4 => Request::Scan { start: a, len: b },
        _ => return None,
    })
}

/// Encodes a materialized state (sorted `(key, entry)` triples) as a
/// snapshot payload: 24 bytes per entry.
pub fn encode_state(entries: &[(u64, Entry)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * 24);
    for &(key, e) in entries {
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&e.balance.to_le_bytes());
        out.extend_from_slice(&e.blob.to_le_bytes());
    }
    out
}

/// Decodes a snapshot payload. `None` on any length mismatch.
pub(crate) fn decode_state(bytes: &[u8]) -> Option<Vec<(u64, Entry)>> {
    if !bytes.len().is_multiple_of(24) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / 24);
    for chunk in bytes.chunks_exact(24) {
        let key = u64::from_le_bytes(chunk[0..8].try_into().ok()?);
        let balance = i64::from_le_bytes(chunk[8..16].try_into().ok()?);
        let blob = u64::from_le_bytes(chunk[16..24].try_into().ok()?);
        out.push((key, Entry { balance, blob }));
    }
    Some(out)
}

/// Order-independent content digest of a store (FNV over the canonical
/// sorted entry encoding). Two stores are state-equal iff digests match.
pub fn store_digest(store: &ShardedStore) -> u64 {
    fnv1a64(&encode_state(&store.entries_unlogged()))
}

// --- serial replay ----------------------------------------------------------

/// The plain-map substrate: a keyspace held in a `BTreeMap`, no STM and no
/// speculation. [`interpret`] over it is serial execution — the replay
/// engine behind snapshot construction and recovery, the recovery oracle's
/// expected state, and the block executor's sequential reference and
/// between-block base state.
#[derive(Clone, Debug)]
pub struct Materializer {
    state: BTreeMap<u64, Entry>,
    keys: u64,
}

impl Materializer {
    /// The freshly-populated initial state of a `keys`-sized store.
    pub fn initial(keys: u64) -> Self {
        Materializer {
            state: (0..keys).map(|k| (k, Entry { balance: INITIAL_BALANCE, blob: 0 })).collect(),
            keys,
        }
    }

    /// Restores a materializer from decoded snapshot entries.
    pub fn from_entries(keys: u64, entries: &[(u64, Entry)]) -> Self {
        Materializer { state: entries.iter().copied().collect(), keys }
    }

    /// Replays one logged request for its effect on the state. Read-only
    /// kinds are skipped outright: they cannot change the state, and every
    /// commit is logged, so interpreting them would make replay pay for
    /// each scan a second time.
    pub fn apply(&mut self, req: &Request) {
        if req.txn_kind() == TxnKind::Update {
            let Ok(_) = interpret(req, self.keys, self);
        }
    }

    /// The entry stored under `key`, if the key exists.
    pub fn get(&self, key: u64) -> Option<Entry> {
        self.state.get(&key).copied()
    }

    /// Stores `entry` under `key`.
    pub fn set(&mut self, key: u64, entry: Entry) {
        self.state.insert(key, entry);
    }

    /// The state as sorted entries.
    pub fn entries(&self) -> Vec<(u64, Entry)> {
        self.state.iter().map(|(&k, &e)| (k, e)).collect()
    }

    /// Content digest of the current state.
    pub fn digest(&self) -> u64 {
        fnv1a64(&encode_state(&self.entries()))
    }
}

impl EntryAccess for Materializer {
    type Err = Infallible;

    fn read(&mut self, key: u64) -> Result<Option<Entry>, Infallible> {
        Ok(self.get(key))
    }

    fn write(&mut self, key: u64, entry: Entry) -> Result<(), Infallible> {
        self.set(key, entry);
        Ok(())
    }
}

// --- the durable backend ----------------------------------------------------

/// The snapshot installer's state. Whoever holds its lock installs, so
/// snapshots reach the WAL one at a time, in `applied_seq` order.
struct DurableInner {
    /// Ledger entries pulled and not replayed: a predecessor has not arrived
    /// (the WAL sorts that out at recovery, a snapshot is contiguous *now*).
    pending: Vec<(u64, Request)>,
    /// How many entries of each ledger shard were pulled.
    pulled: [usize; SHARDS],
    /// Highest seq folded into `materialized` (contiguous from 1).
    applied_seq: u64,
    /// Serial replay of `1..=applied_seq`, as [`recover_store`] would do it.
    materialized: Materializer,
}

/// `(seq, request)` in the order one thread committed them.
type LedgerShard = Vec<(u64, Request)>;

/// Ledger shards per backend; like the WAL's staging slots, leased per
/// instance in first-commit order, and committers beyond this fold.
const SHARDS: usize = 64;

/// The WAL-backed backend: command-logs every commit, snapshots
/// periodically, and keeps an in-memory ground-truth ledger so experiments
/// can compare a recovered store against the ideal serial history.
/// A commit takes no lock another committer takes (DESIGN.md §6f).
pub struct DurableBackend {
    store: ShardedStore,
    wal: Wal,
    /// Ground-truth commit ledger `(seq, request)` for the recovery
    /// oracle: what a crash-free serial history would have been.
    ledger: PerThread<Mutex<LedgerShard>>,
    inner: Mutex<DurableInner>,
    /// Set by an advised committer that found the installer's lock taken.
    /// The holder may have pulled the ledger before that commit landed and
    /// so install nothing for it (nothing at all, if it was commit 1); if
    /// no commit follows, nobody else is advised. The next installer clears
    /// it before it pulls, and [`StoreBackend::flush`] installs for a flag
    /// still set if the flushed log still calls for a snapshot.
    advice_pending: AtomicBool,
}

impl std::fmt::Debug for DurableBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableBackend")
            .field("store", &self.store)
            .field("wal", &self.wal)
            .finish_non_exhaustive()
    }
}

impl DurableBackend {
    /// Wraps a populated store with a WAL over the given devices. Use
    /// [`MemDevice`]s under the simulator (deterministic byte-log) and
    /// [`gstm_wal::FileDevice`]s for native runs.
    pub fn new(store: ShardedStore, wal: Wal) -> Self {
        let keys = store.key_count();
        DurableBackend {
            store,
            wal,
            ledger: PerThread::new(SHARDS, Mutex::default),
            inner: Mutex::new(DurableInner {
                pending: Vec::new(),
                pulled: [0; SHARDS],
                applied_seq: 0,
                materialized: Materializer::initial(keys),
            }),
            advice_pending: AtomicBool::new(false),
        }
    }

    /// Convenience: a fresh store with an in-memory WAL (the simulator
    /// configuration), returning the backend plus its two devices so the
    /// caller can later read the post-crash disk image.
    pub fn in_memory(
        store: ShardedStore,
        cfg: WalConfig,
    ) -> (Self, Arc<MemDevice>, Arc<MemDevice>) {
        let log = Arc::new(MemDevice::new());
        let snap = Arc::new(MemDevice::new());
        let wal = Wal::new(cfg, Arc::clone(&log) as Arc<dyn LogDevice>, Arc::clone(&snap) as _);
        (DurableBackend::new(store, wal), log, snap)
    }

    /// The write-ahead log (stats, disk image, kill arming).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// The ground-truth ledger, sorted by commit sequence number.
    pub fn ledger(&self) -> Vec<(u64, Request)> {
        let mut l: Vec<_> = self.ledger.iter().flat_map(|shard| shard.lock().clone()).collect();
        l.sort_by_key(|&(seq, _)| seq);
        l
    }

    /// Takes up any pending advice, then snapshots what is contiguous from
    /// commit 1. The flag is cleared before the pull: a committer whose
    /// flag this clears pushed its ledger entry before setting it, so the
    /// pull sees that entry.
    fn install(&self, inner: &mut DurableInner) {
        self.advice_pending.store(false, Ordering::SeqCst);
        self.replay_new(inner);
        // Until commit 1 is in the ledger there is nothing to snapshot.
        if inner.applied_seq > 0 {
            let state = encode_state(&inner.materialized.entries());
            self.wal.install_snapshot(inner.applied_seq, &state);
        }
    }

    /// Pulls the ledger's new entries and replays the contiguous prefix.
    fn replay_new(&self, inner: &mut DurableInner) {
        for (shard, pulled) in self.ledger.leased().zip(&mut inner.pulled) {
            let shard = shard.lock();
            inner.pending.extend_from_slice(&shard[*pulled..]);
            *pulled = shard.len();
        }
        // Stable: it merges the shards' runs, each already in seq order.
        inner.pending.sort_by_key(|&(seq, _)| seq);
        let next = inner.applied_seq + 1;
        let ready = inner.pending.iter().zip(next..).take_while(|&(e, n)| e.0 == n).count();
        for (seq, req) in inner.pending.drain(..ready) {
            inner.materialized.apply(&req);
            inner.applied_seq = seq;
        }
    }
}

impl StoreBackend for DurableBackend {
    fn store(&self) -> &ShardedStore {
        &self.store
    }

    fn on_commit(&self, seq: u64, req: &Request) {
        debug_assert!(seq > 0, "commit sequence numbers start at 1");
        // Ledger first: it always covers the log, and a stall between the
        // two steps cannot leave this commit acting on stale advice.
        self.ledger.mine().lock().push((seq, *req));
        if !self.wal.append(seq, &encode_request(req)) {
            return;
        }
        // An advised committer that finds an install under way moves on,
        // and leaves its advice for the next installer.
        match self.inner.try_lock() {
            Some(mut inner) => self.install(&mut inner),
            None => self.advice_pending.store(true, Ordering::SeqCst),
        }
    }

    fn flush(&self) {
        self.wal.flush();
        // Only while the log still calls for it: the flag can outlive an
        // install that did cover its commit.
        if self.advice_pending.load(Ordering::SeqCst) && self.wal.advises(0) {
            self.install(&mut self.inner.lock());
        }
    }
}

// --- recovery ---------------------------------------------------------------

/// A store rebuilt from a post-crash disk image.
#[derive(Debug)]
pub struct RecoveredStore {
    /// The rebuilt store (`snapshot + tail` replayed serially).
    pub store: ShardedStore,
    /// The last commit sequence number the rebuilt state reflects.
    pub recovered_seq: u64,
    /// Raw recovery metadata (torn tail, gap drops, snapshot base).
    pub info: Recovered,
}

/// Rebuilds a store from a disk image: verify + decode the WAL, restore
/// the snapshot state (or the fresh initial state), replay the tail in
/// sequence order, and load the result into a store of the given shape.
///
/// # Errors
///
/// Propagates WAL checksum failures and rejects undecodable payloads
/// ([`WalError::BadPayload`]).
pub fn recover_store(
    shards: usize,
    buckets_per_shard: usize,
    keys: u64,
    log_bytes: &[u8],
    snap_bytes: &[u8],
) -> Result<RecoveredStore, WalError> {
    let r = recover(log_bytes, snap_bytes)?;
    let mut m = match &r.snapshot {
        Some(state) => {
            let entries = decode_state(state).ok_or(WalError::CorruptSnapshot)?;
            Materializer::from_entries(keys, &entries)
        }
        None => Materializer::initial(keys),
    };
    for (seq, payload) in &r.tail {
        let req = decode_request(payload).ok_or(WalError::BadPayload { seq: *seq })?;
        m.apply(&req);
    }
    let store = ShardedStore::from_entries(shards, buckets_per_shard, keys, &m.entries());
    Ok(RecoveredStore { store, recovered_seq: r.recovered_seq(), info: r })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::mpsc;

    #[test]
    fn request_codec_round_trips_every_kind() {
        let reqs = [
            Request::Get { key: 7 },
            Request::Put { key: 3, blob: 99 },
            Request::Cas { key: 5, expect: 1, update: 2 },
            Request::Transfer { from: 1, to: 2, amount: -40 },
            Request::Scan { start: 9, len: 4 },
        ];
        for req in reqs {
            assert_eq!(decode_request(&encode_request(&req)), Some(req));
        }
        assert_eq!(decode_request(b"short"), None);
        let mut bad = encode_request(&Request::Get { key: 0 });
        bad[0] = 200;
        assert_eq!(decode_request(&bad), None);
    }

    /// A log written before the multi-key read was retired can hold a frame
    /// of its kind, 5: recovery refuses it by name instead of replaying
    /// something else in its place.
    #[test]
    fn recovery_rejects_a_frame_of_the_retired_kind_5() {
        let (log, snap) = (Arc::new(MemDevice::new()), Arc::new(MemDevice::new()));
        let wal = Wal::new(WalConfig::new(), Arc::clone(&log) as _, Arc::clone(&snap) as _);
        let mut retired = encode_request(&Request::Scan { start: 2, len: 3 });
        retired[0] = 5;
        wal.append(1, &encode_request(&Request::Get { key: 1 }));
        wal.append(2, &retired);
        wal.flush();
        let err = recover_store(2, 4, 8, &log.contents(), &snap.contents()).unwrap_err();
        assert_eq!(err, WalError::BadPayload { seq: 2 });
    }

    #[test]
    fn state_codec_round_trips() {
        let entries = vec![
            (0u64, Entry { balance: 100, blob: 0 }),
            (1, Entry { balance: -3, blob: u64::MAX }),
        ];
        assert_eq!(decode_state(&encode_state(&entries)), Some(entries));
        assert_eq!(decode_state(&[1, 2, 3]), None, "misaligned payload");
    }

    #[test]
    fn durable_backend_logs_and_recovery_matches_live_state() {
        let store = ShardedStore::new(2, 4, 8);
        let (backend, log, snap) =
            DurableBackend::in_memory(store, WalConfig::new().with_batch_records(3));
        // Simulate post-commit hooks in serialization order (seq = 1..).
        let reqs = [
            Request::Transfer { from: 0, to: 5, amount: 10 },
            Request::Put { key: 1, blob: 42 },
            Request::Get { key: 5 },
            Request::Cas { key: 1, expect: 42, update: 43 },
        ];
        for (i, req) in reqs.iter().enumerate() {
            backend.on_commit(i as u64 + 1, req);
        }
        backend.flush();
        let rec = recover_store(2, 4, 8, &log.contents(), &snap.contents()).unwrap();
        assert_eq!(rec.recovered_seq, 4);
        // The ledger materialized to the same point must match the
        // recovered store byte-for-byte.
        let mut m = Materializer::initial(8);
        for (_, req) in backend.ledger() {
            m.apply(&req);
        }
        assert_eq!(store_digest(&rec.store), m.digest());
    }

    #[test]
    fn out_of_order_commits_still_materialize_contiguously() {
        let store = ShardedStore::new(2, 4, 4);
        let (backend, log, snap) = DurableBackend::in_memory(store, WalConfig::new());
        // Thread interleaving delivers seq 2 before seq 1.
        backend.on_commit(2, &Request::Put { key: 1, blob: 5 });
        backend.on_commit(1, &Request::Transfer { from: 0, to: 1, amount: 3 });
        backend.on_commit(3, &Request::Get { key: 0 });
        backend.flush();
        let rec = recover_store(2, 4, 4, &log.contents(), &snap.contents()).unwrap();
        assert_eq!(rec.recovered_seq, 3);
        let entries = rec.store.entries_unlogged();
        assert_eq!(entries[1].1.blob, 5);
        assert_eq!(entries[1].1.balance, INITIAL_BALANCE + 3);
    }

    #[test]
    fn snapshot_policy_truncates_the_log() {
        let store = ShardedStore::new(2, 4, 4);
        let (backend, log, snap) = DurableBackend::in_memory(
            store,
            WalConfig::new().with_batch_records(2).with_snapshot_every(6),
        );
        for seq in 1..=20u64 {
            backend.on_commit(seq, &Request::Put { key: seq % 4, blob: seq });
        }
        backend.flush();
        let stats = backend.wal().stats();
        assert!(stats.snapshots >= 1, "snapshot interval crossed");
        assert!(stats.truncated_records > 0, "truncation reclaimed log frames");
        let rec = recover_store(2, 4, 4, &log.contents(), &snap.contents()).unwrap();
        assert_eq!(rec.recovered_seq, 20);
        assert!(rec.info.base_seq > 0, "recovery started from a snapshot");
        let mut m = Materializer::initial(4);
        for (_, req) in backend.ledger() {
            m.apply(&req);
        }
        assert_eq!(store_digest(&rec.store), m.digest());
    }

    /// The request committed at `seq` in the tests below (8 keys).
    fn request(seq: u64) -> Request {
        match seq % 3 {
            0 => Request::Transfer { from: seq % 8, to: (seq + 3) % 8, amount: seq as i64 },
            1 => Request::Put { key: seq % 8, blob: seq },
            _ => Request::Get { key: seq % 8 },
        }
    }

    /// The backend's device bytes are a function of the sequential
    /// `on_commit` sequence: which record fills a batch, which commit
    /// crosses the snapshot interval, what the snapshot covers while a
    /// predecessor is still missing. Digests recorded on the pre-PR-16
    /// backend (three locks per commit, install under both).
    #[test]
    fn sequential_commit_sequence_is_pinned() {
        let store = ShardedStore::new(2, 4, 8);
        let (backend, log, snap) = DurableBackend::in_memory(
            store,
            WalConfig::new().with_batch_records(3).with_snapshot_every(7),
        );
        // Seq 5 arrives ten commits late, 21 and 22 swap places.
        let order =
            (1..=4u64).chain(6..=15).chain([5]).chain(16..=20).chain([22, 21]).chain(23..=40);
        for seq in order {
            backend.on_commit(seq, &request(seq));
        }
        let image = |b: &DurableBackend| {
            (fnv1a64(&log.contents()), fnv1a64(&snap.contents()), b.wal().stats())
        };
        let stats =
            |appended, flushes, flushed_records, snapshots, truncated_records| gstm_wal::WalStats {
                appended,
                flushes,
                flushed_records,
                snapshots,
                truncated_records,
                lost_dead: 0,
            };
        assert_eq!(
            image(&backend),
            (0xed82_4d33_bb4f_0956, 0x1763_45e2_8b32_5e71, stats(40, 19, 39, 9, 36))
        );
        backend.flush();
        assert_eq!(
            image(&backend),
            (0x491f_ae6d_f743_5fb9, 0x1763_45e2_8b32_5e71, stats(40, 20, 40, 9, 36))
        );
    }

    /// Flushes, recovers from the two devices and checks the oracle's
    /// conditions: nothing appended is unflushed, every seq in `1..=n`
    /// comes back gap-free, and the state is the ledger's serial replay.
    fn assert_recovers_all(
        backend: &DurableBackend,
        log: &dyn LogDevice,
        snap: &dyn LogDevice,
        n: u64,
    ) {
        backend.flush();
        let stats = backend.wal().stats();
        assert_eq!((stats.appended, stats.flushed_records, stats.lost_dead), (n, n, 0));
        let rec = recover_store(2, 4, 8, &log.contents(), &snap.contents()).unwrap();
        assert_eq!((rec.recovered_seq, rec.info.dropped_after_gap), (n, 0));
        let ledger = backend.ledger();
        assert!(ledger.iter().map(|&(seq, _)| seq).eq(1..=n), "the ledger is dense");
        let mut serial = Materializer::initial(8);
        for (_, req) in ledger {
            serial.apply(&req);
        }
        assert_eq!(store_digest(&rec.store), serial.digest());
    }

    /// Runs `threads` committers that draw dense seqs from one counter
    /// until `n` are taken; thread `t` starts `skew(t)` spins late.
    fn commit_concurrently(
        backend: &DurableBackend,
        threads: usize,
        n: u64,
        skew: impl Fn(usize) -> u64,
    ) {
        let next = AtomicU64::new(0);
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (next, start, spins) = (&next, &start, skew(t));
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..spins {
                        std::hint::spin_loop();
                    }
                    loop {
                        let seq = next.fetch_add(1, Ordering::Relaxed) + 1;
                        if seq > n {
                            break;
                        }
                        backend.on_commit(seq, &request(seq));
                    }
                });
            }
        });
    }

    /// Batches swapped out by different threads reach the device in
    /// either order and installs run beside appends; whatever the
    /// interleaving, nothing is lost, duplicated into a gap, or replayed
    /// out of order.
    #[test]
    fn concurrent_commits_recover_gap_free() {
        for seed in 0..50u64 {
            let store = ShardedStore::new(2, 4, 8);
            let (backend, log, snap) = DurableBackend::in_memory(
                store,
                WalConfig::new().with_batch_records(3).with_snapshot_every(7),
            );
            let skew = |t: usize| (seed.wrapping_mul(0x9E37_79B9).rotate_left(t as u32 * 8)) % 4096;
            commit_concurrently(&backend, 4, 400, skew);
            assert_recovers_all(&backend, &*log, &*snap, 400);
            assert!(backend.wal().stats().snapshots > 0, "seed {seed}: the interval was crossed");
        }
    }

    /// A memory device whose next `append` or `reset` after [`arm`] parks
    /// inside the call: it says so on `entered`, then waits for `release`.
    ///
    /// [`arm`]: ParkingDevice::arm
    struct ParkingDevice {
        inner: MemDevice,
        armed: AtomicBool,
        entered: mpsc::Sender<()>,
        /// One receiver for both devices of a test; only the armed one
        /// ever takes the lock.
        release: Arc<Mutex<mpsc::Receiver<()>>>,
    }

    impl ParkingDevice {
        fn park_if_armed(&self) {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.entered.send(()).unwrap();
                let release = self.release.lock();
                release.recv_timeout(2 * LONG).expect("the test releases the parked call");
            }
        }
    }

    impl LogDevice for ParkingDevice {
        fn append(&self, bytes: &[u8]) {
            self.park_if_armed();
            self.inner.append(bytes);
        }
        fn contents(&self) -> Vec<u8> {
            self.inner.contents()
        }
        fn reset(&self, bytes: &[u8]) {
            self.park_if_armed();
            self.inner.reset(bytes);
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    /// How long a test waits for something that should take microseconds.
    const LONG: std::time::Duration = std::time::Duration::from_secs(20);

    /// While one thread is parked inside the device — writing a batch, or
    /// installing a snapshot — a second thread's commits complete, up to
    /// the one that would fill the next batch: no lock a committer needs
    /// is held across device I/O.
    #[test]
    fn commits_complete_while_a_device_call_is_parked() {
        // (which device parks, snapshot interval): the 4th commit fills
        // the batch of 4 and parks in `log.append`; or it crosses the
        // interval of 4 and parks in `snap.reset`.
        for (park_log, snapshot_every) in [(true, 1000), (false, 4)] {
            let (entered_tx, entered) = mpsc::channel();
            let (release_tx, release) = mpsc::channel();
            let release = Arc::new(Mutex::new(release));
            let device = |armed| {
                Arc::new(ParkingDevice {
                    inner: MemDevice::new(),
                    armed: AtomicBool::new(armed),
                    entered: entered_tx.clone(),
                    release: Arc::clone(&release),
                })
            };
            let (log, snap) = (device(park_log), device(!park_log));
            let cfg = WalConfig::new().with_batch_records(4).with_snapshot_every(snapshot_every);
            let wal = Wal::new(cfg, Arc::clone(&log) as _, Arc::clone(&snap) as _);
            let backend = DurableBackend::new(ShardedStore::new(2, 4, 8), wal);
            let (done_tx, done) = mpsc::channel();
            let second_finished = std::thread::scope(|scope| {
                scope.spawn(|| (1..=4).for_each(|seq| backend.on_commit(seq, &request(seq))));
                entered.recv_timeout(LONG).expect("the 4th commit reaches the device");
                scope.spawn(|| {
                    (5..=7).for_each(|seq| backend.on_commit(seq, &request(seq)));
                    done_tx.send(()).unwrap();
                });
                let finished = done.recv_timeout(LONG);
                release_tx.send(()).unwrap();
                finished
            });
            assert!(
                second_finished.is_ok(),
                "commits 5..=7 waited for the parked {}",
                if park_log { "log append" } else { "snapshot reset" }
            );
            assert_recovers_all(&backend, &*log, &*snap, 7);
        }
    }

    /// A committer parked inside its own batch's device write holds the
    /// device lock and nothing else: two more committers each stage a
    /// batch less one record meanwhile — together more than one batch,
    /// which through a shared assembly buffer would have sent one of them
    /// to the device lock.
    #[test]
    fn a_committer_blocked_in_its_device_write_does_not_delay_another() {
        const BATCH: u64 = 8;
        let (entered_tx, entered) = mpsc::channel();
        let (release_tx, release) = mpsc::channel();
        let log = Arc::new(ParkingDevice {
            inner: MemDevice::new(),
            armed: AtomicBool::new(true),
            entered: entered_tx,
            release: Arc::new(Mutex::new(release)),
        });
        let snap = Arc::new(MemDevice::new());
        let cfg = WalConfig::new().with_batch_records(BATCH as usize).with_snapshot_every(1000);
        let wal = Wal::new(cfg, Arc::clone(&log) as _, Arc::clone(&snap) as _);
        let backend = DurableBackend::new(ShardedStore::new(2, 4, 8), wal);
        let (done_tx, done) = mpsc::channel();
        let others_finished = std::thread::scope(|scope| {
            scope.spawn(|| (1..=BATCH).for_each(|seq| backend.on_commit(seq, &request(seq))));
            entered.recv_timeout(LONG).expect("the first committer's batch reaches the device");
            for first in [BATCH + 1, 2 * BATCH] {
                let (backend, done_tx) = (&backend, done_tx.clone());
                scope.spawn(move || {
                    (first..first + BATCH - 1)
                        .for_each(|seq| backend.on_commit(seq, &request(seq)));
                    done_tx.send(()).unwrap();
                });
            }
            let finished = done.recv_timeout(LONG).and_then(|()| done.recv_timeout(LONG));
            release_tx.send(()).unwrap();
            finished
        });
        assert!(others_finished.is_ok(), "a committer waited for another's parked device write");
        assert_recovers_all(&backend, &*log, &*snap, 3 * BATCH - 2);
    }

    /// What a crash leaves off the device is bounded per committer: the
    /// batch each thread has under assembly (or swapped out and unwritten)
    /// and, when snapshots run, the one batch the installer's drain holds.
    /// Whatever the cut, the recovered state is the ledger's serial replay
    /// to the recovered watermark.
    #[test]
    fn a_crash_loses_at_most_one_batch_per_committer() {
        const THREADS: usize = 4;
        const BATCH: usize = 3;
        for seed in 0..50u64 {
            let (log, snap) = (Arc::new(MemDevice::new()), Arc::new(MemDevice::new()));
            let kill = Arc::new(gstm_core::KillSwitch::new());
            // Odd seeds never snapshot, so nothing drains another's slot.
            let snapshot_every = if seed % 2 == 1 { u64::MAX } else { 7 };
            let cfg =
                WalConfig::new().with_batch_records(BATCH).with_snapshot_every(snapshot_every);
            let wal = Wal::new(cfg, Arc::clone(&log) as _, Arc::clone(&snap) as _)
                .with_kill(Arc::clone(&kill));
            let backend = DurableBackend::new(ShardedStore::new(2, 4, 8), wal);
            let kill_at = 20 + seed.wrapping_mul(0x9E37_79B9) % 300;
            let next = AtomicU64::new(0);
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        start.wait();
                        while !backend.wal().is_dead() {
                            let seq = next.fetch_add(1, Ordering::Relaxed) + 1;
                            if seq == kill_at {
                                kill.request(gstm_core::KillPoint::MidBatch);
                            }
                            backend.on_commit(seq, &request(seq));
                        }
                    });
                }
            });
            let rec = recover_store(2, 4, 8, &log.contents(), &snap.contents()).unwrap();
            let on_device: std::collections::BTreeSet<u64> =
                gstm_wal::decode_log(&log.contents()).unwrap().frames.iter().map(|f| f.0).collect();
            let ledger = backend.ledger();
            assert!(ledger.iter().map(|&(seq, _)| seq).eq(1..=ledger.len() as u64), "dense ledger");
            let lost = ledger
                .iter()
                .filter(|(seq, _)| *seq > rec.info.base_seq && !on_device.contains(seq))
                .count();
            let drained = if snapshot_every == u64::MAX { 0 } else { BATCH - 1 };
            assert!(
                (1..=THREADS * BATCH + drained).contains(&lost),
                "seed {seed}: {lost} records off the device"
            );
            let mut serial = Materializer::initial(8);
            for (_, req) in ledger.iter().take_while(|(seq, _)| *seq <= rec.recovered_seq) {
                serial.apply(req);
            }
            assert_eq!(store_digest(&rec.store), serial.digest(), "seed {seed}");
        }
    }

    #[test]
    fn layout_two_committers_ledger_shards_are_a_line_apart() {
        let backend = DurableBackend::in_memory(ShardedStore::new(2, 4, 8), WalConfig::new()).0;
        let shard_after_commit = |seq| {
            std::thread::scope(|scope| {
                let committer = scope.spawn(|| {
                    backend.on_commit(seq, &request(seq));
                    backend.ledger.mine() as *const Mutex<_> as usize
                });
                committer.join().expect("the committer commits")
            })
        };
        let (a, b) = (shard_after_commit(1), shard_after_commit(2));
        assert!(a.abs_diff(b) >= 64, "two committers' ledger shards share a cache line");
        assert_eq!((a % 64, b % 64), (0, 0));
        assert_eq!(backend.ledger().len(), 2);
    }

    /// A snapshot device that notices two resets in flight at once, or a
    /// snapshot older than the one it replaces.
    #[derive(Default)]
    struct SnapshotWitness {
        inner: MemDevice,
        busy: AtomicBool,
        newest: AtomicU64,
        overlaps: AtomicU64,
        regressions: AtomicU64,
    }

    impl LogDevice for SnapshotWitness {
        fn append(&self, bytes: &[u8]) {
            self.inner.append(bytes);
        }
        fn contents(&self) -> Vec<u8> {
            self.inner.contents()
        }
        fn reset(&self, bytes: &[u8]) {
            if self.busy.swap(true, Ordering::SeqCst) {
                self.overlaps.fetch_add(1, Ordering::SeqCst);
            }
            let upto = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
            if upto < self.newest.swap(upto, Ordering::SeqCst) {
                self.regressions.fetch_add(1, Ordering::SeqCst);
            }
            // Stay in the call long enough for the other thread to arrive.
            for _ in 0..2_000 {
                std::hint::spin_loop();
            }
            self.inner.reset(bytes);
            self.busy.store(false, Ordering::SeqCst);
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    /// With an interval of 1 every commit of both threads is told to
    /// snapshot: one install runs at a time, the others are skipped, and
    /// the installed `upto_seq` only grows. How many installs run is up to
    /// the scheduler: none can before commit 1 is in the ledger, so if the
    /// thread that drew seq 1 is descheduled while the other commits all
    /// the rest, commit 1's own install is the only one.
    #[test]
    fn concurrent_snapshot_advice_installs_one_at_a_time_in_order() {
        let log = Arc::new(MemDevice::new());
        let snap = Arc::new(SnapshotWitness::default());
        let cfg = WalConfig::new().with_batch_records(3).with_snapshot_every(1);
        let wal = Wal::new(cfg, Arc::clone(&log) as _, Arc::clone(&snap) as _);
        let backend = DurableBackend::new(ShardedStore::new(2, 4, 8), wal);
        commit_concurrently(&backend, 2, 4000, |_| 0);
        let seen = |counter: &AtomicU64| counter.load(Ordering::SeqCst);
        assert_eq!((seen(&snap.overlaps), seen(&snap.regressions)), (0, 0));
        let installed = backend.wal().stats().snapshots;
        assert!((1..=4000).contains(&installed), "{installed} installs");
        assert_recovers_all(&backend, &*log, &*snap, 4000);
    }

    /// An advised commit made before commit 1 is in the ledger installs
    /// nothing: there is no snapshot of nothing. The next advised commit,
    /// with commit 1 in, installs what is contiguous from 1.
    #[test]
    fn an_advised_commit_before_seq_1_installs_nothing() {
        let store = ShardedStore::new(2, 4, 8);
        let (backend, log, snap) =
            DurableBackend::in_memory(store, WalConfig::new().with_snapshot_every(1));
        backend.on_commit(2, &request(2));
        assert_eq!(backend.wal().stats().snapshots, 0, "seq 2 alone: nothing to install");
        assert_eq!(backend.inner.lock().applied_seq, 0);
        assert!(snap.contents().is_empty());
        backend.on_commit(1, &request(1));
        assert_eq!(backend.wal().stats().snapshots, 1);
        assert_eq!(backend.inner.lock().applied_seq, 2, "1 and 2 are contiguous");
        assert_recovers_all(&backend, &*log, &*snap, 2);
    }

    /// An advised commit that finds the installer's lock taken leaves its
    /// advice behind. The holder here is the test, which pulls nothing, as
    /// a holder that pulled before commit 1 landed would install nothing;
    /// no commit follows, so the flush installs.
    #[test]
    fn advice_a_busy_installer_missed_is_installed_at_flush() {
        let store = ShardedStore::new(2, 4, 8);
        let (backend, log, snap) =
            DurableBackend::in_memory(store, WalConfig::new().with_snapshot_every(1));
        let held = backend.inner.lock();
        std::thread::scope(|scope| {
            scope.spawn(|| backend.on_commit(1, &request(1)));
        });
        drop(held);
        assert_eq!(backend.wal().stats().snapshots, 0, "the advised commit found the lock taken");
        backend.flush();
        assert_eq!(backend.wal().stats().snapshots, 1, "the flush took up the advice");
        assert_recovers_all(&backend, &*log, &*snap, 1);
        backend.flush();
        assert_eq!(backend.wal().stats().snapshots, 1, "and took it up once");
    }

    /// Committers beyond the shard count fold onto leased shards; the
    /// installer's replay still finds every commit.
    #[test]
    fn more_committers_than_ledger_shards_replay_every_commit() {
        let store = ShardedStore::new(2, 4, 8);
        let (backend, log, snap) = DurableBackend::in_memory(store, WalConfig::new());
        let n = SHARDS as u64 + 5;
        for seq in 1..=n {
            std::thread::scope(|scope| {
                scope.spawn(|| backend.on_commit(seq, &request(seq)));
            });
        }
        let mut inner = backend.inner.lock();
        backend.replay_new(&mut inner);
        assert_eq!(inner.applied_seq, n);
        drop(inner);
        assert_recovers_all(&backend, &*log, &*snap, n);
    }

    #[test]
    fn backend_kinds_have_stable_labels() {
        assert_eq!(BackendKind::Ephemeral.label(), "ephemeral");
        assert_eq!(BackendKind::Durable.label(), "durable");
        assert_eq!(BackendKind::default(), BackendKind::Ephemeral);
    }
}
