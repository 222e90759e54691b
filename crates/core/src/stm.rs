//! The TL2 engine: [`Stm`] and the per-attempt [`Txn`] context.
//!
//! The commit protocol follows Dice, Shalev & Shavit's TL2 (§II-A of the
//! paper): sample the global version clock at begin (`rv`); log reads and
//! buffer writes; at commit, lock the write set's stripes, increment the
//! clock (`wv`), validate the read set against `rv`, write back, and release
//! the locks publishing `wv`. Reads are validated inline (pre/post lock-word
//! sample), so doomed zombies cannot observe inconsistent snapshots.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock::VersionClock;
use crate::cm::{Aggressive, ContentionManager};
use crate::config::{Detection, ReadMode, Resolution, StmConfig, TxnKind, READER_WAIT_LIMIT};
use crate::error::{Abort, AbortReason};
use crate::events::{EventSink, NullSink, TxEvent};
use crate::fxmap::FxMap;
use crate::gate::{Gate, NullGate, Ticks, COSTS};
use crate::ids::{CommitSeq, Participant, ThreadId, TxId, VarId};
use crate::lock_table::{LockTable, StripeIndex};
use crate::mvcc::{MvccStats, SnapshotRegistry, VERSION_RING_CAPACITY};
use crate::pad::{CachePadded, PerThread};
use crate::policy::{AdmissionPolicy, AdmitAll};
use crate::readset::{ReadSet, StripeFilter};
use crate::tvar::{downcast, ErasedValue, TVar, VarCell};

/// Flag bit of the per-thread doom word; the full encoding is
/// `DOOM_FLAG | seq<<24 | thread<<8 | tx`.
const DOOM_FLAG: u64 = 1 << 62;

/// Doom word stored by [`DoomHandle::doom`]: a synthetic committer with
/// thread `0xFFFF` and tx `0xFF` (both deliberately out of range for any
/// real participant — `max_threads <= u16::MAX` keeps thread ids below
/// 0xFFFF) and sequence 0. Victims abort with
/// [`AbortReason::DoomedByCommitter`] naming this sentinel, which also
/// exercises the contention managers' unknown-conflictor paths.
const CHAOS_DOOM: u64 = DOOM_FLAG | (0xFFFF << 8) | 0xFF;

/// Clonable fault-injection lever over an [`Stm`]'s doom slots, obtained
/// from [`Stm::doom_handle`]. `gstm-sim`'s `ChaosGate` uses it to force
/// aborts at seeded random points without reaching into engine internals.
#[derive(Clone, Debug)]
pub struct DoomHandle {
    slots: Arc<PerThread<AtomicU64>>,
}

impl DoomHandle {
    /// Dooms `thread`'s in-flight attempt: its next transactional operation
    /// aborts with [`AbortReason::DoomedByCommitter`] naming the synthetic
    /// chaos participant (see `CHAOS_DOOM`'s doc). Out-of-range threads
    /// are ignored; a doom landing between attempts is cleared by the next
    /// begin — a lost injection, not an error.
    pub fn doom(&self, thread: ThreadId) {
        if let Some(slot) = self.slots.get(thread.index()) {
            slot.store(CHAOS_DOOM, Ordering::SeqCst);
        }
    }
}

/// Summary of a successful commit, returned by [`Txn`]-internal commit.
#[derive(Clone, Copy, Debug)]
pub struct CommitInfo {
    /// Global commit sequence number.
    pub seq: CommitSeq,
    /// Write version published to the written stripes.
    pub wv: u64,
    /// Read-set size.
    pub reads: u32,
    /// Write-set size.
    pub writes: u32,
}

/// Lock-table size of every [`Stm`]: `1 << 14` stripes.
const LOG2_STRIPES: u32 = 14;

/// A software transactional memory instance.
///
/// One `Stm` owns the global version clock, the striped lock table, the
/// event sink, the admission policy (where guided execution plugs in) and
/// the contention manager. Worker threads are identified by dense
/// [`ThreadId`]s below `config.max_threads`.
///
/// ```
/// use std::sync::Arc;
/// use gstm_core::{Stm, StmConfig, TVar, ThreadId, TxId};
///
/// let stm = Stm::new(StmConfig::new(2));
/// let counter = TVar::new(0i64);
/// let n = stm.run(ThreadId::new(0), TxId::new(0), |tx| {
///     let v = tx.read(&counter)?;
///     tx.write(&counter, v + 1)?;
///     Ok(v + 1)
/// });
/// assert_eq!(n, 1);
/// ```
pub struct Stm {
    config: StmConfig,
    clock: VersionClock,
    locks: LockTable,
    gate: Arc<dyn Gate>,
    sink: Arc<dyn EventSink>,
    policy: Arc<dyn AdmissionPolicy>,
    cm: Arc<dyn ContentionManager>,
    /// Bumped by every commit. On a line of its own: unpadded it lands,
    /// depending on the size of `config`, beside the lock-table header or
    /// the gate/sink pointers that every read loads (false sharing).
    commit_seq: CachePadded<AtomicU64>,
    /// Snapshot-read registries, allocated only under
    /// [`ReadMode::Snapshot`]; `None` keeps the legacy engine (and the
    /// determinism goldens) entirely untouched.
    mvcc: Option<SnapshotRegistry>,
    /// Per-thread sequence number of the thread's most recent commit
    /// (0 = none yet). A thread reading its own slot right after its own
    /// `run` returns sees exactly that invocation's commit — the seam a
    /// durability layer uses to tag its log records with the global
    /// serialization order. Padded: a thread stores its slot on every
    /// commit, and unpadded the slots of eight threads share one line.
    last_seq: PerThread<AtomicU64>,
    /// Per-thread doom words. Padded for the same reason: the owner loads
    /// its slot at every begin, read and write (and stores it only to
    /// consume a doom), so a neighbour on the same line would make each of
    /// those loads a coherence miss.
    doomed: Arc<PerThread<AtomicU64>>,
    /// Whether the sink / the contention manager read the gate timestamps
    /// they are handed (asked once, at construction). When neither does,
    /// the clock is not sampled.
    sink_reads_time: bool,
    cm_reads_time: bool,
    /// Test-only fault hook: when set, commit performs its write-back
    /// *before* acquiring the write-set locks — a deliberate
    /// lock-discipline violation the opacity oracle must catch. Never set
    /// it outside negative tests.
    broken_early_write_back: std::sync::atomic::AtomicBool,
}

impl std::fmt::Debug for Stm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stm")
            .field("config", &self.config)
            .field("commits", &self.commit_seq.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Stm {
    /// Creates an STM with the default gate (no-op), sink (discard), policy
    /// (admit all) and contention manager (aggressive) — the paper's
    /// "default STM".
    pub fn new(config: StmConfig) -> Self {
        Stm::with_parts(
            config,
            Arc::new(NullGate),
            Arc::new(NullSink),
            Arc::new(AdmitAll),
            Arc::new(Aggressive),
        )
    }

    /// Creates an STM on an explicit gate (machine), with the default sink,
    /// policy and contention manager.
    pub fn new_on(config: StmConfig, gate: Arc<dyn Gate>) -> Self {
        Stm::with_parts(config, gate, Arc::new(NullSink), Arc::new(AdmitAll), Arc::new(Aggressive))
    }

    /// Creates an STM wired to explicit machine, instrumentation and policy
    /// components.
    pub fn with_parts(
        config: StmConfig,
        gate: Arc<dyn Gate>,
        sink: Arc<dyn EventSink>,
        policy: Arc<dyn AdmissionPolicy>,
        cm: Arc<dyn ContentionManager>,
    ) -> Self {
        Stm {
            locks: LockTable::new(LOG2_STRIPES, config.resolution.needs_visible_readers()),
            clock: VersionClock::new(),
            sink_reads_time: sink.reads_time(),
            cm_reads_time: cm.reads_time(),
            gate,
            sink,
            policy,
            cm,
            commit_seq: CachePadded::new(AtomicU64::new(0)),
            mvcc: (config.read_mode == ReadMode::Snapshot)
                .then(|| SnapshotRegistry::new(config.max_threads)),
            last_seq: PerThread::new(config.max_threads, AtomicU64::default),
            doomed: Arc::new(PerThread::new(config.max_threads, AtomicU64::default)),
            broken_early_write_back: std::sync::atomic::AtomicBool::new(false),
            config,
        }
    }

    /// This instance's configuration.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// The gate this instance charges time through.
    pub fn gate(&self) -> &Arc<dyn Gate> {
        &self.gate
    }

    /// Number of commits so far.
    pub fn commit_count(&self) -> u64 {
        self.commit_seq.load(Ordering::SeqCst)
    }

    /// Snapshot-read stat counters (ring hits, fallbacks, publications,
    /// GC evictions/lag, spared validations). All-zero under
    /// [`ReadMode::Latest`], where no snapshot machinery exists.
    ///
    /// Read into serve's `NativeReport`; deliberately *not* folded into the
    /// default telemetry snapshot, whose text the determinism goldens
    /// digest byte-for-byte.
    pub fn mvcc_stats(&self) -> MvccStats {
        self.mvcc.as_ref().map(SnapshotRegistry::stats).unwrap_or_default()
    }

    /// Global sequence number of `thread`'s most recent commit (0 if the
    /// thread has not committed yet). Read by the committing thread itself
    /// immediately after [`Stm::run`] returns, this is exactly that
    /// invocation's position in the global commit order — the hook
    /// `gstm-wal` uses to tag write-ahead-log records so replay can
    /// reconstruct the serialization order.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn last_commit_seq(&self, thread: ThreadId) -> u64 {
        self.last_seq[thread].load(Ordering::Acquire)
    }

    /// A clonable handle for dooming transactions from outside the engine —
    /// the fault-injection lever used by `gstm-sim`'s `ChaosGate`. A doomed
    /// thread's current attempt aborts at its next transactional operation
    /// with [`AbortReason::DoomedByCommitter`] naming a synthetic
    /// out-of-range participant, exactly as a forced abort from a racing
    /// committer would.
    pub fn doom_handle(&self) -> DoomHandle {
        DoomHandle { slots: Arc::clone(&self.doomed) }
    }

    /// Unlock attempts the lock table refused because the caller did not
    /// own the stripe. Always zero in a correct engine; the chaos harness
    /// and the opacity oracle assert on it.
    pub fn lock_discipline_violations(&self) -> u64 {
        self.locks.discipline_violations()
    }

    /// Arms (or disarms) the deliberate early-write-back fault: commit will
    /// write its redo log back *before* taking the write-set locks,
    /// violating lock discipline and opacity. Exists solely so negative
    /// tests can prove the oracle catches a broken engine.
    pub fn set_broken_early_write_back(&self, on: bool) {
        self.broken_early_write_back.store(on, Ordering::SeqCst);
    }

    /// Runs `body` as a transaction, retrying until it commits.
    ///
    /// `thread` must be `< config.max_threads`; `tx` is the static id of
    /// this atomic block (the paper's `TM_BEGIN(ID)` argument). The body
    /// receives a [`Txn`] and must propagate [`Abort`] errors from
    /// [`Txn::read`]/[`Txn::write`] with `?`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn run<R>(
        &self,
        thread: ThreadId,
        tx: TxId,
        mut body: impl FnMut(&mut Txn<'_>) -> Result<R, Abort>,
    ) -> R {
        self.run_attempts(thread, tx, &mut body, u32::MAX, TxnKind::Update)
            .unwrap_or_else(|_| unreachable!("unbounded retry cannot exhaust its budget"))
    }

    /// Runs `body` as a **read-only** transaction, retrying until it
    /// commits. Calling [`Txn::write`] inside the body panics.
    ///
    /// Under [`ReadMode::Latest`] this is the legacy read-only fast path:
    /// reads are still validated inline and may abort on conflict, but the
    /// commit never ticks the clock. Under [`ReadMode::Snapshot`] the
    /// transaction picks a snapshot timestamp at begin and serves every
    /// read from the version rings — zero validation, zero
    /// contention-induced aborts.
    ///
    /// ```
    /// use gstm_core::{ReadMode, Stm, StmConfig, TVar, ThreadId, TxId};
    /// let stm = Stm::new(StmConfig::builder(1).read_mode(ReadMode::Snapshot).build());
    /// let v = TVar::new(3i64);
    /// let got = stm.run_read_only(ThreadId::new(0), TxId::new(0), |tx| tx.read(&v));
    /// assert_eq!(got, 3);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range or the body writes.
    pub fn run_read_only<R>(
        &self,
        thread: ThreadId,
        tx: TxId,
        mut body: impl FnMut(&mut Txn<'_>) -> Result<R, Abort>,
    ) -> R {
        self.run_attempts(thread, tx, &mut body, u32::MAX, TxnKind::ReadOnly)
            .unwrap_or_else(|_| unreachable!("unbounded retry cannot exhaust its budget"))
    }

    /// Runs a single attempt without retrying.
    ///
    /// # Errors
    ///
    /// Returns the attempt's [`Abort`] if it conflicts.
    pub fn try_run_once<R>(
        &self,
        thread: ThreadId,
        tx: TxId,
        mut body: impl FnMut(&mut Txn<'_>) -> Result<R, Abort>,
    ) -> Result<R, Abort> {
        self.run_attempts(thread, tx, &mut body, 1, TxnKind::Update)
    }

    /// Runs up to `max_attempts` attempts (1, or `u32::MAX` for "until it
    /// commits") and returns the last attempt's [`Abort`] if none commits.
    fn run_attempts<R>(
        &self,
        thread: ThreadId,
        tx: TxId,
        body: &mut dyn FnMut(&mut Txn<'_>) -> Result<R, Abort>,
        max_attempts: u32,
        kind: TxnKind,
    ) -> Result<R, Abort> {
        assert!(
            thread.index() < self.config.max_threads,
            "thread {thread} out of range (max_threads = {})",
            self.config.max_threads
        );
        let who = Participant::new(thread, tx);
        let mut attempt: u32 = 0;
        // The thread's own buffers, on loan until this invocation returns or
        // unwinds: neither a retry nor the thread's next transaction
        // allocates for its read/write/lock sets.
        let mut lease = ScratchLease::take();
        let scratch = lease.scratch();
        loop {
            // Admission: guided execution's hold loop lives in the policy.
            let polls = self.policy.admit(who, &mut || {
                self.gate.pass(thread, COSTS.poll);
                std::thread::yield_now();
            });
            if polls > 0 {
                self.sink.record(&TxEvent::Held { who, polls, at: self.event_time() });
            }

            // A doom left over from the last attempt dies here. Cleared only
            // when set: the slot is the owner's to write except for a doom,
            // and one that lands after this load aborts the new attempt — a
            // spurious abort, which the protocol allows — where an
            // unconditional store would have been a locked instruction on
            // every begin.
            let doom = &self.doomed[thread];
            if doom.load(Ordering::SeqCst) != 0 {
                doom.store(0, Ordering::SeqCst);
            }
            self.cm.on_begin(thread, if self.cm_reads_time { self.gate.now() } else { 0 });
            self.gate.pass(thread, COSTS.begin);
            // Snapshot mode: a read-only transaction registers with the
            // reader registry and takes its clamped timestamp as rv, so
            // the GC watermark can never outrun it. The guard unregisters
            // on drop — unwind included, so a panicking body (e.g. the
            // documented write-in-read-only panic) cannot pin the
            // watermark forever. Everything else runs the legacy TL2
            // begin (one clock sample).
            let reader_guard = match (kind, self.mvcc.as_ref()) {
                (TxnKind::ReadOnly, Some(reg)) => Some(reg.begin_guarded(thread, &self.clock)),
                _ => None,
            };
            let snapshot = reader_guard.as_ref().map(|g| g.ts());
            let rv = snapshot.unwrap_or_else(|| self.clock.sample());
            self.sink.record(&TxEvent::Begin { who, attempt, at: self.event_time() });

            scratch.reset();
            let mut txn = Txn {
                stm: self,
                who,
                rv,
                attempt,
                kind,
                snapshot,
                snapshot_reads: 0,
                scratch: &mut *scratch,
            };
            let outcome = match body(&mut txn) {
                Ok(result) => txn.commit().map(|info| (result, info)),
                Err(abort) => {
                    txn.rollback();
                    Err(abort)
                }
            };
            drop(reader_guard);
            match outcome {
                Ok((result, info)) => {
                    self.cm.on_commit(thread);
                    // `Release`, paired with the `Acquire` load in
                    // `last_commit_seq`: whoever reads this seq sees the commit.
                    self.last_seq[thread].store(info.seq.raw(), Ordering::Release);
                    self.sink.record(&TxEvent::Commit {
                        who,
                        seq: info.seq,
                        aborts: attempt,
                        reads: info.reads,
                        writes: info.writes,
                        at: self.event_time(),
                    });
                    return Ok(result);
                }
                Err(abort) => {
                    self.sink.record(&TxEvent::Abort {
                        who,
                        attempt,
                        abort: abort.clone(),
                        at: self.event_time(),
                    });
                    let backoff = self.cm.on_abort(thread, &abort, attempt);
                    self.gate.pass(thread, COSTS.abort + backoff);
                    if backoff > 0 {
                        std::thread::yield_now();
                    }
                    attempt += 1;
                    if attempt == max_attempts {
                        return Err(abort);
                    }
                }
            }
        }
    }

    /// The `at` of an event: gate time, sampled only for a sink that reads
    /// it (on a [`crate::RealGate`] each sample is a clock read).
    #[inline]
    fn event_time(&self) -> u64 {
        if self.sink_reads_time {
            self.gate.now()
        } else {
            0
        }
    }

    /// Marks `victim` doomed on behalf of committing `by` (AbortReaders).
    fn doom(&self, victim: ThreadId, by: Participant, seq: CommitSeq) {
        let enc = DOOM_FLAG
            | ((seq.raw() & 0xFFFF_FFFF) << 24)
            | ((by.thread.raw() as u64) << 8)
            | (by.tx.raw() as u64 & 0xFF);
        self.doomed[victim].store(enc, Ordering::SeqCst);
    }

    #[inline]
    fn check_doomed(&self, thread: ThreadId) -> Result<(), Abort> {
        // Fast path: a plain load (no RMW) when nobody doomed us — this
        // runs on every transactional operation. Only consume the flag
        // with the (expensive) swap once it is actually set; the slot has
        // a single consumer, so the re-check after the swap cannot race.
        let slot = &self.doomed[thread];
        if slot.load(Ordering::SeqCst) & DOOM_FLAG == 0 {
            return Ok(());
        }
        let raw = slot.swap(0, Ordering::SeqCst);
        if raw & DOOM_FLAG == 0 {
            return Ok(());
        }
        let by = Participant::new(
            ThreadId::new(((raw >> 8) & 0xFFFF) as u16),
            TxId::new((raw & 0xFF) as u16),
        );
        let seq = CommitSeq::new((raw >> 24) & 0xFFFF_FFFF);
        Err(Abort::caused_by(AbortReason::DoomedByCommitter { by: Some(by) }, by, seq))
    }

    fn culprit_of(&self, stripe: StripeIndex) -> Option<(Participant, CommitSeq)> {
        self.locks.last_writer(stripe)
    }
}

struct WriteEntry {
    cell: Arc<VarCell>,
    stripe: StripeIndex,
    value: ErasedValue,
}

/// Transaction buffers, one set per OS thread: [`Stm::run_attempts`] leases
/// them ([`ScratchLease`]) for one invocation and reuses them across every
/// retry (including guided retries, where a held transaction may re-attempt
/// many times). `reset` empties the sets but keeps their allocations, so
/// neither an abort-retry cycle nor the thread's next transaction costs
/// allocator traffic — up to [`PARK_LIMIT`]: buffers a large transaction
/// grew past it are dropped, not parked.
///
/// Invariants the commit path relies on:
///
/// * `writes` and `write_index` agree: `write_index[var] = i` iff
///   `writes[i]` is that var's redo-log slot;
/// * `commit_stripes`/`validate_stripes`/`acquired`/`held` are commit-local
///   scratch — dead outside [`Txn::commit`], rebuilt from scratch inside;
/// * `eager_filter` over-approximates the stripes in `eager_locks`
///   (filter hit → exact scan, filter miss → definitely not held).
#[derive(Default)]
struct TxnScratch {
    /// Distinct stripes read (insertion-ordered; sorted copies are taken
    /// at validation to reproduce the historical `BTreeMap` order).
    reads: ReadSet,
    /// Redo log, in first-write order.
    writes: Vec<WriteEntry>,
    /// var raw id → index into `writes` (read-own-writes lookup).
    write_index: FxMap,
    /// Encounter-time locks held: (stripe, pre-lock version).
    eager_locks: Vec<(StripeIndex, u64)>,
    /// Membership filter over `eager_locks` stripes.
    eager_filter: StripeFilter,
    /// Stripes where we registered as a visible reader.
    registered: Vec<StripeIndex>,
    /// Commit scratch: write-set stripes (sorted + deduped once).
    commit_stripes: Vec<StripeIndex>,
    /// Commit scratch: read-set stripes sorted for validation.
    validate_stripes: Vec<u32>,
    /// Commit scratch: locks taken at commit time (stripe, pre-version).
    acquired: Vec<(StripeIndex, u64)>,
    /// Commit scratch: all locks held (eager + acquired).
    held: Vec<(StripeIndex, u64)>,
}

impl TxnScratch {
    /// Empties every per-attempt set, keeping allocations for the retry.
    fn reset(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.write_index.clear();
        self.eager_locks.clear();
        self.eager_filter.clear();
        self.registered.clear();
        self.commit_stripes.clear();
        self.validate_stripes.clear();
        self.acquired.clear();
        self.held.clear();
    }

    /// The largest allocation among the read set, the redo log and its
    /// index, in slots. The other buffers hold at most one entry per read
    /// or written stripe, so they grow no faster than these three.
    fn capacity(&self) -> usize {
        self.reads.capacity().max(self.writes.capacity()).max(self.write_index.capacity())
    }
}

/// Most slots a buffer may have and still be parked for the thread's next
/// transaction. Emptying a non-empty [`FxMap`] refills every slot, so a
/// parked table the size of the largest transaction the thread ever ran
/// would charge each later small transaction for it (and hold that memory
/// for the thread's lifetime). 128 slots is 2 KiB to refill, and covers
/// about 96 writes or reads; a larger transaction allocates its sets
/// afresh, as every transaction did before the lease.
const PARK_LIMIT: usize = 128;

thread_local! {
    /// This thread's transaction buffers while no invocation holds them.
    static PARKED_SCRATCH: Cell<Option<Box<TxnScratch>>> = const { Cell::new(None) };
}

/// The calling thread's [`TxnScratch`], taken out of its thread-local slot
/// for one invocation and put back, emptied (and, past [`PARK_LIMIT`],
/// without its allocations), on drop — so also when the body panics. An
/// invocation nested inside a body (a second [`Stm`]) finds
/// the slot empty and starts from fresh buffers; whichever lease drops last
/// stays parked.
struct ScratchLease(Option<Box<TxnScratch>>);

impl ScratchLease {
    fn take() -> Self {
        // `try_with`: a transaction run from another thread-local's
        // destructor may find this one already gone.
        let parked = PARKED_SCRATCH.try_with(Cell::take).ok().flatten();
        ScratchLease(Some(parked.unwrap_or_default()))
    }

    fn scratch(&mut self) -> &mut TxnScratch {
        self.0.as_mut().expect("present until drop")
    }
}

impl Drop for ScratchLease {
    fn drop(&mut self) {
        if let Some(mut scratch) = self.0.take() {
            // A parked redo log must not keep cells and values alive.
            if scratch.capacity() > PARK_LIMIT {
                *scratch = TxnScratch::default();
            } else {
                scratch.reset();
            }
            let _ = PARKED_SCRATCH.try_with(|slot| slot.set(Some(scratch)));
        }
    }
}

/// One transaction attempt: the context handed to the transaction body.
///
/// Obtained from [`Stm::run`] and friends; provides transactional
/// [`read`](Txn::read)/[`write`](Txn::write) plus [`work`](Txn::work) for
/// declaring application compute to the machine model.
pub struct Txn<'stm> {
    stm: &'stm Stm,
    // (fields below; Debug is implemented manually to avoid dumping the log)
    who: Participant,
    rv: u64,
    attempt: u32,
    /// Declared intent: [`TxnKind::ReadOnly`] bodies may not write.
    kind: TxnKind,
    /// Snapshot timestamp — `Some` exactly for read-only transactions on a
    /// [`ReadMode::Snapshot`] engine; equals `rv` then.
    snapshot: Option<u64>,
    /// Reads served by the snapshot path (which bypasses the read set).
    snapshot_reads: u32,
    /// Read/write/lock sets, leased by the invocation and reused across
    /// attempts.
    scratch: &'stm mut TxnScratch,
}

impl std::fmt::Debug for Txn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn")
            .field("who", &self.who)
            .field("rv", &self.rv)
            .field("attempt", &self.attempt)
            .field("reads", &self.scratch.reads.len())
            .field("writes", &self.scratch.writes.len())
            .finish()
    }
}

impl<'stm> Txn<'stm> {
    /// The executing thread.
    pub fn thread(&self) -> ThreadId {
        self.who.thread
    }

    /// Zero-based attempt number (= aborts suffered so far this invocation).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// This attempt's declared intent.
    pub fn kind(&self) -> TxnKind {
        self.kind
    }

    /// Charges `ticks` of application compute to the machine model.
    ///
    /// In simulation this advances the thread's virtual clock (making the
    /// transaction longer and hence more conflict-prone, as real compute
    /// would); in native mode it is (nearly) free.
    pub fn work(&mut self, ticks: Ticks) {
        self.stm.gate.pass(self.who.thread, ticks);
    }

    /// Transactionally reads `var`, returning a clone of the value.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the variable's stripe is locked or its version
    /// postdates this transaction's snapshot; the caller must propagate the
    /// error out of the transaction body with `?`.
    pub fn read<T: Clone + Send + Sync + 'static>(&mut self, var: &TVar<T>) -> Result<T, Abort> {
        self.read_arc(var).map(|a| (*a).clone())
    }

    /// Like [`Txn::read`] but returns the shared snapshot without cloning
    /// the payload — preferred for large values.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Txn::read`].
    pub fn read_arc<T: Send + Sync + 'static>(&mut self, var: &TVar<T>) -> Result<Arc<T>, Abort> {
        let stm = self.stm;
        // Snapshot path: resolve against the version ring at `ts`. No
        // lock-word sandwich, no read-set entry, no contention-manager or
        // doom crossing — nothing here can abort. Every ring is seeded
        // with `(0, initial value)` and GC keeps the newest version <= the
        // watermark, so a registered reader (ts >= watermark by the
        // registry protocol) always resolves; falling back to the cell's
        // current data here would race a commit with wv > ts into the
        // snapshot.
        if let Some(ts) = self.snapshot {
            stm.gate.pass(self.who.thread, COSTS.read);
            let (wv, value) = var
                .cell()
                .read_at(ts)
                .expect("snapshot read found no version <= ts: watermark outran a reader");
            if let Some(reg) = stm.mvcc.as_ref() {
                reg.note_read(wv != 0);
            }
            self.snapshot_reads = self.snapshot_reads.saturating_add(1);
            if stm.config.check_events {
                stm.sink.record(&TxEvent::SnapshotReadCheck {
                    who: self.who,
                    var: var.id(),
                    wv,
                    ts,
                    at: stm.event_time(),
                });
            }
            return Ok(downcast(value));
        }
        stm.gate.pass(self.who.thread, COSTS.read);
        stm.cm.on_access(self.who.thread);
        stm.check_doomed(self.who.thread)?;

        // Read-own-writes: serve from the redo log.
        if !self.scratch.write_index.is_empty() {
            if let Some(i) = self.scratch.write_index.get(var.id().raw()) {
                return Ok(downcast(Arc::clone(&self.scratch.writes[i as usize].value)));
            }
        }

        // TL2 pre/post lock-word sandwich, on raw words: the uncontended
        // fast path (unlocked stripe, unchanged word) never decodes.
        let stripe = stm.locks.stripe_of(var.id());
        let pre_raw = stm.locks.load_raw(stripe);
        let own = if LockTable::raw_locked(pre_raw) {
            // Slow path: locked — only acceptable if we are the owner
            // (an encounter-time lock of our own).
            if LockTable::decode_raw(pre_raw).owner != Some(self.who.thread) {
                return Err(self.abort_at(AbortReason::Locked { var: var.id() }, stripe));
            }
            true
        } else {
            false
        };
        let pre_version = LockTable::raw_version(pre_raw);
        if pre_version > self.rv {
            return Err(self.abort_at(AbortReason::ReadVersion { var: var.id() }, stripe));
        }
        let (value, stamp) = if stm.config.check_events {
            var.cell().load_stamped()
        } else {
            (var.cell().load(), 0)
        };
        let post_raw = stm.locks.load_raw(stripe);
        if post_raw != pre_raw {
            // Word changed under us — decode and apply the exact TL2
            // post-conditions (same version, not locked by another).
            let post = LockTable::decode_raw(post_raw);
            if post.version != pre_version || (post.locked && post.owner != Some(self.who.thread)) {
                return Err(self.abort_at(AbortReason::ReadVersion { var: var.id() }, stripe));
            }
        }
        if self.scratch.reads.insert(stripe.0) && stm.locks.tracks_readers() && !own {
            stm.locks.register_reader(stripe, self.who.thread);
            self.scratch.registered.push(stripe);
        }
        // The sandwich succeeded: record what this read observed for the
        // oracle. Reads served from the redo log (read-own-writes, above)
        // are deliberately not recorded — they never touch shared state.
        if stm.config.check_events {
            stm.sink.record(&TxEvent::ReadCheck {
                who: self.who,
                var: var.id(),
                stripe: stripe.0,
                version: pre_version,
                stamp,
                rv: self.rv,
                at: stm.event_time(),
            });
        }
        Ok(downcast(value))
    }

    /// Transactionally writes `value` to `var` (buffered until commit).
    ///
    /// # Errors
    ///
    /// In encounter-time mode, returns [`Abort`] if the stripe lock cannot
    /// be acquired or the stripe postdates the snapshot. In commit-time mode
    /// the write itself cannot fail (conflicts surface at commit).
    pub fn write<T: Send + Sync + 'static>(
        &mut self,
        var: &TVar<T>,
        value: T,
    ) -> Result<(), Abort> {
        assert!(
            self.kind == TxnKind::Update,
            "Txn::write inside a read-only transaction (declared via run_read_only)"
        );
        let stm = self.stm;
        stm.gate.pass(self.who.thread, COSTS.write);
        stm.cm.on_access(self.who.thread);
        stm.check_doomed(self.who.thread)?;

        let stripe = stm.locks.stripe_of(var.id());
        if stm.config.detection == Detection::EncounterTime && !self.holds_eager_lock(stripe) {
            match stm.locks.try_lock(stripe, self.who.thread) {
                Ok(old_version) => {
                    if old_version > self.rv {
                        self.unlock_restore(stripe, old_version);
                        return Err(
                            self.abort_at(AbortReason::ReadVersion { var: var.id() }, stripe)
                        );
                    }
                    self.scratch.eager_locks.push((stripe, old_version));
                    self.scratch.eager_filter.insert(stripe.0);
                }
                Err(_) => {
                    return Err(self.abort_at(AbortReason::WriteLockBusy { var: var.id() }, stripe));
                }
            }
        }

        let erased: ErasedValue = Arc::new(value);
        match self.scratch.write_index.get(var.id().raw()) {
            Some(i) => self.scratch.writes[i as usize].value = erased,
            None => {
                self.scratch.write_index.insert(var.id().raw(), self.scratch.writes.len() as u32);
                self.scratch.writes.push(WriteEntry {
                    cell: Arc::clone(var.cell()),
                    stripe,
                    value: erased,
                });
            }
        }
        Ok(())
    }

    /// Whether this attempt already holds the encounter-time lock on
    /// `stripe`. The filter answers the common miss in O(1); a hit falls
    /// back to the exact (short) scan.
    #[inline]
    fn holds_eager_lock(&self, stripe: StripeIndex) -> bool {
        !self.scratch.eager_locks.is_empty()
            && self.scratch.eager_filter.may_contain(stripe.0)
            && self.scratch.eager_locks.iter().any(|(s, _)| *s == stripe)
    }

    /// Reads, transforms and writes back in one step.
    ///
    /// # Errors
    ///
    /// Propagates any [`Abort`] from the underlying read or write.
    pub fn modify<T: Clone + Send + Sync + 'static>(
        &mut self,
        var: &TVar<T>,
        f: impl FnOnce(T) -> T,
    ) -> Result<(), Abort> {
        let v = self.read(var)?;
        self.write(var, f(v))
    }

    fn abort_at(&self, reason: AbortReason, stripe: StripeIndex) -> Abort {
        match self.stm.culprit_of(stripe) {
            Some((p, seq)) => Abort::caused_by(reason, p, seq),
            None => Abort::new(reason),
        }
    }

    /// Commit protocol (TL2 §II-A). Consumes the attempt.
    ///
    /// Hot-path invariants (see DESIGN.md "Hot-path performance"):
    /// every buffer used here lives in the leased [`TxnScratch`] and is
    /// rebuilt — never carried over — per attempt; the write-back loop
    /// is the only Gate crossing that may be batched, because it runs
    /// entirely under the write-set locks and is therefore invisible to
    /// every other thread until `unlock_publish`.
    fn commit(mut self) -> Result<CommitInfo, Abort> {
        let stm = self.stm;
        let thread = self.who.thread;
        let n_reads = self.scratch.reads.len() as u32 + self.snapshot_reads;
        let n_writes = self.scratch.writes.len() as u32;

        // A committer may have doomed us while we were between operations;
        // honor it before publishing anything (AbortReaders resolution).
        if let Err(abort) = stm.check_doomed(thread) {
            self.rollback();
            return Err(abort);
        }

        // Read-only fast path: every read was validated inline against rv,
        // so a read-only transaction is already serializable. TL2 commits it
        // without touching the clock (the GV4 read-mostly fast path).
        if self.scratch.writes.is_empty() {
            // Snapshot commits additionally count the validations the
            // legacy read-only path would have performed on these reads.
            if self.snapshot.is_some() {
                if let Some(reg) = stm.mvcc.as_ref() {
                    reg.note_spared_validations(self.snapshot_reads as u64);
                }
            }
            self.release();
            let seq = CommitSeq::new(stm.commit_seq.fetch_add(1, Ordering::SeqCst) + 1);
            self.record_commit_check(seq, self.rv, 0);
            return Ok(CommitInfo { seq, wv: self.rv, reads: n_reads, writes: 0 });
        }

        // Deliberate fault (negative tests only): install the redo log
        // before a single write-set lock is taken, so the oracle's
        // lock-discipline (unheld write-back) and dirty-read checks have a
        // real engine bug to catch.
        let wrote_early = stm.broken_early_write_back.load(Ordering::SeqCst);
        if wrote_early {
            // The fault path never publishes versions (`None`): it models a
            // broken legacy write-back, not a broken ring.
            self.write_back(None);
        }

        // 1. Lock the write set (stripes deduped, sorted for determinism;
        //    encounter-time locks are already held). The stripe list and
        //    the acquired/held buffers are invocation scratch — sort +
        //    dedup happens once here, and retries reuse the allocations.
        self.scratch.commit_stripes.clear();
        let scratch = &mut *self.scratch;
        scratch.commit_stripes.extend(scratch.writes.iter().map(|w| w.stripe));
        scratch.commit_stripes.sort_unstable();
        scratch.commit_stripes.dedup();
        self.scratch.acquired.clear();
        let eager_is_empty = self.scratch.eager_locks.is_empty();
        for i in 0..self.scratch.commit_stripes.len() {
            let s = self.scratch.commit_stripes[i];
            if !eager_is_empty && self.holds_eager_lock(s) {
                continue;
            }
            stm.gate.pass(thread, COSTS.commit_entry);
            match stm.locks.try_lock(s, thread) {
                Ok(old) => self.scratch.acquired.push((s, old)),
                Err(_) => {
                    for &(a, old) in &self.scratch.acquired {
                        self.unlock_restore(a, old);
                    }
                    let var =
                        self.scratch.writes.iter().find(|w| w.stripe == s).map(|w| w.cell.id());
                    let reason =
                        AbortReason::WriteLockBusy { var: var.unwrap_or(VarId::from_raw(0)) };
                    let abort = self.abort_at(reason, s);
                    self.release();
                    return Err(abort);
                }
            }
        }
        let scratch = &mut *self.scratch;
        scratch.held.clear();
        scratch.held.append(&mut scratch.eager_locks);
        scratch.held.extend_from_slice(&scratch.acquired);
        scratch.eager_filter.clear();

        // 2. Obtain the write version.
        //
        //    Snapshot mode: publish a commit lower bound *before* ticking,
        //    so a reader beginning between the tick and our version-ring
        //    publication clamps its timestamp below our wv instead of
        //    expecting versions we have not written yet (mvcc.rs docs).
        //    The guard clears the bound on every post-tick exit below —
        //    validate failure, reader-wait timeout, success — and on
        //    unwind, so a panicking commit cannot clamp future readers.
        let lb_guard =
            stm.mvcc.as_ref().map(|reg| reg.publish_commit_lb_guarded(thread, &stm.clock));
        let wv = stm.clock.tick();

        // 3. Validate the read set (skippable when nobody committed since
        //    our snapshot — the TL2 rv + 1 == wv optimization). Sorting
        //    the scratch copy ascending reproduces the exact iteration
        //    order the old BTreeMap read set had, so the Gate sees the
        //    same charge sequence.
        if wv != self.rv + 1 {
            let scratch = &mut *self.scratch;
            scratch.validate_stripes.clear();
            scratch.reads.collect_into(&mut scratch.validate_stripes);
            scratch.validate_stripes.sort_unstable();
            for i in 0..self.scratch.validate_stripes.len() {
                let s = StripeIndex(self.scratch.validate_stripes[i]);
                stm.gate.pass(thread, COSTS.validate_entry);
                // Raw fast path: an unlocked word only needs the version
                // compare; decode the owner only when the stripe is locked.
                let raw = stm.locks.load_raw(s);
                let bad = if !LockTable::raw_locked(raw) {
                    LockTable::raw_version(raw) > self.rv
                } else {
                    let w = LockTable::decode_raw(raw);
                    w.owner != Some(thread) || w.version > self.rv
                };
                if bad {
                    let abort =
                        self.abort_at(AbortReason::ValidateFailed { var: VarId::from_raw(0) }, s);
                    for &(h, old) in &self.scratch.held {
                        self.unlock_restore(h, old);
                    }
                    drop(lb_guard);
                    self.release();
                    return Err(abort);
                }
            }
        }

        // 4. Resolve against visible readers (LibTM modes).
        let seq = CommitSeq::new(stm.commit_seq.fetch_add(1, Ordering::SeqCst) + 1);
        match stm.config.resolution {
            Resolution::SelfAbort => {}
            Resolution::AbortReaders => {
                for &(s, _) in &self.scratch.held {
                    for victim in stm.locks.readers_excluding(s, thread) {
                        stm.doom(victim, self.who, seq);
                    }
                }
            }
            Resolution::WaitForReaders => {
                let held = &self.scratch.held;
                let left = wait_for_readers(&*stm.gate, thread, READER_WAIT_LIMIT, || {
                    held.iter().any(|&(s, _)| !stm.locks.readers_excluding(s, thread).is_empty())
                });
                if !left {
                    for &(h, old) in &self.scratch.held {
                        self.unlock_restore(h, old);
                    }
                    drop(lb_guard);
                    self.release();
                    return Err(Abort::new(AbortReason::ReaderWaitTimeout));
                }
            }
        }

        // 5. Write back the redo log (unless the armed fault already did,
        //    early and unprotected). In snapshot mode this also publishes
        //    each written value into its cell's version ring under `wv`.
        if !wrote_early {
            self.write_back(stm.mvcc.as_ref().map(|_| wv));
        }

        // 6. Release, publishing wv and stamping ourselves as last writer.
        for &(s, _) in &self.scratch.held {
            stm.locks.stamp(s, self.who, seq);
            self.unlock_publish(s, wv);
        }
        // The versions are in the rings: readers no longer need the bound.
        drop(lb_guard);
        self.release();
        self.record_commit_check(seq, wv, n_writes);
        Ok(CommitInfo { seq, wv, reads: n_reads, writes: n_writes })
    }

    /// Step 5 of the commit protocol: installs the redo log into the cells.
    /// One batched Gate crossing covers the whole operation group — in a
    /// correct engine every written stripe is locked by us, so the stores
    /// are invisible to other threads until step 6 publishes, and batching
    /// the charges is schedule-invisible while charging the identical
    /// virtual-time total.
    ///
    /// `publish: Some(wv)` (snapshot mode) additionally pushes each written
    /// value into its cell's version ring at `wv`, GC'ing against one
    /// watermark computed for the whole batch, and charges the extra
    /// per-entry `version_publish` cost. `None` — every legacy commit —
    /// adds zero gate crossings, keeping the determinism goldens intact.
    ///
    /// The plain path moves each value out of the redo log into its cell:
    /// nothing reads the log after this step, and a clone here would be
    /// one reference count up now and one down at `reset`.
    fn write_back(&mut self, publish: Option<u64>) {
        let stm = self.stm;
        stm.gate.pass_batch(self.who.thread, COSTS.commit_entry, self.scratch.writes.len() as u64);
        if let (Some(wv), Some(reg)) = (publish, stm.mvcc.as_ref()) {
            stm.gate.pass_batch(
                self.who.thread,
                COSTS.version_publish,
                self.scratch.writes.len() as u64,
            );
            let watermark = reg.watermark(&stm.clock);
            for w in &self.scratch.writes {
                let out =
                    w.cell.push_version(wv, Arc::clone(&w.value), watermark, VERSION_RING_CAPACITY);
                reg.note_publication(out.evicted as u64, out.len as u64, out.over_capacity);
            }
        }
        if stm.config.check_events {
            for w in &self.scratch.writes {
                let held = stm.locks.load(w.stripe).owner == Some(self.who.thread);
                let stamp = w.cell.store_stamped(Arc::clone(&w.value));
                stm.sink.record(&TxEvent::WriteBackCheck {
                    who: self.who,
                    var: w.cell.id(),
                    stripe: w.stripe.0,
                    stamp,
                    held,
                    at: stm.event_time(),
                });
            }
            return;
        }
        for w in self.scratch.writes.drain(..) {
            w.cell.store(w.value);
        }
    }

    /// Releases `stripe` restoring `old` (abort/unwind paths), recording
    /// the unlock for the oracle. The engine only ever releases stripes it
    /// owns, so the lock table's refusal path must be unreachable from here.
    fn unlock_restore(&self, stripe: StripeIndex, old: u64) {
        let ok = self.stm.locks.unlock_restore(stripe, self.who.thread, old);
        debug_assert!(ok, "engine released a stripe it did not own");
        self.record_unlock(stripe, ok, false);
    }

    /// Releases `stripe` publishing `wv` (commit step 6), recording the
    /// unlock for the oracle.
    fn unlock_publish(&self, stripe: StripeIndex, wv: u64) {
        let ok = self.stm.locks.unlock_publish(stripe, self.who.thread, wv);
        debug_assert!(ok, "engine released a stripe it did not own");
        self.record_unlock(stripe, ok, true);
    }

    fn record_unlock(&self, stripe: StripeIndex, owner_ok: bool, publish: bool) {
        if self.stm.config.check_events {
            self.stm.sink.record(&TxEvent::UnlockCheck {
                who: self.who,
                stripe: stripe.0,
                owner_ok,
                publish,
                at: self.stm.event_time(),
            });
        }
    }

    fn record_commit_check(&self, seq: CommitSeq, wv: u64, writes: u32) {
        if self.stm.config.check_events {
            self.stm.sink.record(&TxEvent::CommitCheck {
                who: self.who,
                seq,
                rv: self.rv,
                wv,
                writes,
                at: self.stm.event_time(),
            });
        }
    }

    /// Abort path: release encounter-time locks and reader registrations.
    fn rollback(mut self) {
        for i in 0..self.scratch.eager_locks.len() {
            let (s, old) = self.scratch.eager_locks[i];
            self.unlock_restore(s, old);
        }
        self.scratch.eager_locks.clear();
        self.scratch.eager_filter.clear();
        self.release();
    }

    fn release(&mut self) {
        let thread = self.who.thread;
        for s in self.scratch.registered.drain(..) {
            self.stm.locks.unregister_reader(s, thread);
        }
    }
}

/// The wait of [`Resolution::WaitForReaders`]: true once `busy` reports the
/// readers gone, false if they are still there after `limit` polls, each
/// charging `t` one `COSTS.poll`.
fn wait_for_readers(gate: &dyn Gate, t: ThreadId, limit: u32, busy: impl Fn() -> bool) -> bool {
    for _ in 0..limit {
        if !busy() {
            return true;
        }
        gate.pass(t, COSTS.poll);
        std::thread::yield_now();
    }
    !busy()
}

/// Convenience: an [`Abort`] signalling a user-requested retry, for use as
/// `return Err(gstm_core::retry())` inside a transaction body.
pub fn retry() -> Abort {
    Abort::new(AbortReason::UserRetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StmConfig;

    fn t(i: u16) -> ThreadId {
        ThreadId::new(i)
    }

    fn x(i: u16) -> TxId {
        TxId::new(i)
    }

    #[test]
    fn single_thread_counter() {
        let stm = Stm::new(StmConfig::new(1));
        let v = TVar::new(0i64);
        for _ in 0..100 {
            stm.run(t(0), x(0), |tx| {
                let cur = tx.read(&v)?;
                tx.write(&v, cur + 1)
            });
        }
        assert_eq!(*v.load_unlogged(), 100);
        assert_eq!(stm.commit_count(), 100);
    }

    #[test]
    fn read_own_write() {
        let stm = Stm::new(StmConfig::new(1));
        let v = TVar::new(1i32);
        let seen = stm.run(t(0), x(0), |tx| {
            tx.write(&v, 42)?;
            tx.read(&v)
        });
        assert_eq!(seen, 42);
    }

    #[test]
    fn write_skew_prevented_by_validation() {
        // Classic TL2 property: a transaction that read a stale value fails
        // commit validation once another commit bumps the stripe version.
        let stm = Stm::new(StmConfig::new(2));
        let a = TVar::new(0i64);

        let r = stm.try_run_once(t(0), x(0), |tx| {
            let v = tx.read(&a)?;
            // Simulate an interleaved committer from thread 1.
            stm.run(t(1), x(1), |tx2| {
                let w = tx2.read(&a)?;
                tx2.write(&a, w + 10)
            });
            tx.write(&a, v + 1)
        });
        assert!(r.is_err(), "stale writer must abort: {r:?}");
        assert_eq!(*a.load_unlogged(), 10);
    }

    #[test]
    fn retry_loop_eventually_commits() {
        let stm = Stm::new(StmConfig::new(2));
        let a = TVar::new(0i64);
        let mut interfered = false;
        stm.run(t(0), x(0), |tx| {
            let v = tx.read(&a)?;
            if !interfered {
                interfered = true;
                stm.run(t(1), x(1), |tx2| {
                    let w = tx2.read(&a)?;
                    tx2.write(&a, w + 100)
                });
            }
            tx.write(&a, v + 1)
        });
        assert_eq!(*a.load_unlogged(), 101, "retry must observe the interferer's commit");
    }

    #[test]
    fn read_only_tx_commits_without_clock_tick() {
        let stm = Stm::new(StmConfig::new(1));
        let v = TVar::new(7u8);
        let before = stm.clock.sample();
        let got = stm.run(t(0), x(0), |tx| tx.read(&v));
        assert_eq!(got, 7);
        assert_eq!(stm.clock.sample(), before);
        assert_eq!(stm.commit_count(), 1, "commit still sequenced");
    }

    #[test]
    fn stale_read_aborts_inline() {
        let stm = Stm::new(StmConfig::new(2));
        let a = TVar::new(0i64);
        let b = TVar::new(0i64);
        let r = stm.try_run_once(t(0), x(0), |tx| {
            let _ = tx.read(&a)?;
            stm.run(t(1), x(1), |tx2| tx2.write(&b, 5));
            // b's stripe version now exceeds our rv: the read must abort.
            tx.read(&b)
        });
        assert!(matches!(r, Err(Abort { reason: AbortReason::ReadVersion { .. }, .. })));
    }

    #[test]
    fn culprit_attribution_names_the_committer() {
        let stm = Stm::new(StmConfig::new(2));
        let a = TVar::new(0i64);
        let r = stm.try_run_once(t(0), x(0), |tx| {
            let _ = tx.read(&a)?;
            stm.run(t(1), x(5), |tx2| tx2.write(&a, 5));
            tx.write(&a, 1)
        });
        match r {
            Err(abort) => {
                let (p, _) = abort.culprit.expect("culprit attributed");
                assert_eq!(p.thread, t(1));
                assert_eq!(p.tx, x(5));
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn modify_helper() {
        let stm = Stm::new(StmConfig::new(1));
        let v = TVar::new(3i32);
        stm.run(t(0), x(0), |tx| tx.modify(&v, |n| n * 2));
        assert_eq!(*v.load_unlogged(), 6);
    }

    /// A user `retry()` aborts the single attempt of `try_run_once`: its
    /// budget is one attempt, and the abort comes back as the error.
    #[test]
    fn user_retry_respects_budget() {
        let stm = Stm::new(StmConfig::new(1));
        let mut attempts = 0;
        let r: Result<(), _> = stm.try_run_once(t(0), x(0), |_tx| {
            attempts += 1;
            Err(retry())
        });
        assert!(matches!(r, Err(Abort { reason: AbortReason::UserRetry, .. })), "{r:?}");
        assert_eq!(attempts, 1, "no second attempt");
    }

    #[test]
    fn encounter_time_blocks_second_writer() {
        let cfg = StmConfig::builder(2).detection(Detection::EncounterTime).build();
        let stm = Stm::new(cfg);
        let a = TVar::new(0i64);
        let r = stm.try_run_once(t(0), x(0), |tx| {
            tx.write(&a, 1)?;
            // Thread 1 attempts an eager write to the same stripe: busy.
            let inner = stm.try_run_once(t(1), x(1), |tx2| tx2.write(&a, 2));
            assert!(
                matches!(inner, Err(Abort { reason: AbortReason::WriteLockBusy { .. }, .. })),
                "{inner:?}"
            );
            Ok(())
        });
        assert!(r.is_ok());
        assert_eq!(*a.load_unlogged(), 1);
    }

    #[test]
    fn two_threads_race_to_correct_total() {
        use std::sync::Arc as StdArc;
        let stm = StdArc::new(Stm::new(StmConfig::new(2)));
        let v = TVar::new(0i64);
        let mut handles = Vec::new();
        for i in 0..2u16 {
            let stm = StdArc::clone(&stm);
            let v = v.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    stm.run(t(i), x(0), |tx| {
                        let cur = tx.read(&v)?;
                        tx.write(&v, cur + 1)
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*v.load_unlogged(), 1000);
    }

    #[test]
    fn commit_info_counts_sets() {
        let stm = Stm::new(StmConfig::new(1));
        let sink = Arc::new(crate::events::MemorySink::new());
        let stm = Stm::with_parts(
            *stm.config(),
            Arc::new(NullGate),
            sink.clone(),
            Arc::new(AdmitAll),
            Arc::new(Aggressive),
        );
        let a = TVar::new(0i64);
        let b = TVar::new(0i64);
        stm.run(t(0), x(0), |tx| {
            let _ = tx.read(&a)?;
            tx.write(&b, 1)
        });
        let evs = sink.take();
        let commit = evs
            .iter()
            .find_map(|e| match e {
                TxEvent::Commit { reads, writes, .. } => Some((*reads, *writes)),
                _ => None,
            })
            .unwrap();
        assert_eq!(commit, (1, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_thread_panics() {
        let stm = Stm::new(StmConfig::new(1));
        let v = TVar::new(0);
        stm.run(t(5), x(0), |tx| tx.read(&v));
    }

    #[test]
    fn layout_per_thread_words_sit_on_their_own_lines() {
        use crate::pad::bytes_apart;
        let stm = Stm::new(StmConfig::new(2));
        assert!(bytes_apart(&stm.doomed[0], &stm.doomed[1]) >= 64);
        assert!(bytes_apart(&stm.last_seq[0], &stm.last_seq[1]) >= 64);
        let h = stm.doom_handle();
        assert_eq!(bytes_apart(&h.slots[0], &stm.doomed[0]), 0, "the handle shares the slots");
    }

    /// Counts `now` calls and reports a recognisable time.
    #[derive(Debug, Default)]
    struct ClockCountingGate {
        samples: AtomicU64,
    }

    impl Gate for ClockCountingGate {
        fn pass(&self, _thread: ThreadId, _cost: Ticks) {}

        fn now(&self) -> u64 {
            self.samples.fetch_add(1, Ordering::SeqCst);
            77
        }

        fn thread_time(&self, _thread: ThreadId) -> u64 {
            0
        }
    }

    #[test]
    fn clock_is_sampled_only_for_a_consumer_that_reads_it() {
        use crate::cm::Greedy;
        use crate::events::{MemorySink, MulticastSink};
        let run = |sink: Arc<dyn EventSink>, cm: Arc<dyn ContentionManager>| {
            let gate = Arc::new(ClockCountingGate::default());
            let stm =
                Stm::with_parts(StmConfig::new(1), gate.clone(), sink, Arc::new(AdmitAll), cm);
            let v = TVar::new(0i64);
            stm.run(t(0), x(0), |tx| tx.modify(&v, |n| n + 1));
            gate.samples.load(Ordering::SeqCst)
        };
        let stats = || Arc::new(crate::SiteStatsSink::new());
        assert_eq!(run(Arc::new(NullSink), Arc::new(Aggressive)), 0);
        assert_eq!(run(stats(), Arc::new(Aggressive)), 0);
        assert_eq!(run(stats(), Arc::new(Greedy::new(1, 1))), 1, "begin, for the manager");
        let memory = Arc::new(MemorySink::new());
        assert_eq!(run(memory.clone(), Arc::new(Aggressive)), 2, "Begin and Commit");
        assert!(memory
            .take()
            .iter()
            .all(|e| matches!(e, TxEvent::Begin { at: 77, .. } | TxEvent::Commit { at: 77, .. })));
        // A fan-out reads time as soon as one child does.
        let fan = MulticastSink::new().with(stats()).with(Arc::new(NullSink));
        assert_eq!(run(Arc::new(fan), Arc::new(Aggressive)), 0);
        let fan = MulticastSink::new().with(stats()).with(Arc::new(MemorySink::new()));
        assert_eq!(run(Arc::new(fan), Arc::new(Aggressive)), 2);
    }

    /// The parked buffers' `(reads, writes, write_index)` entry counts and
    /// their largest allocation; `None` while a lease holds them.
    fn parked_scratch() -> Option<((usize, usize, usize), usize)> {
        PARKED_SCRATCH.with(|slot| {
            let parked = slot.take();
            let seen = parked
                .as_ref()
                .map(|s| ((s.reads.len(), s.writes.len(), s.write_index.len()), s.capacity()));
            slot.set(parked);
            seen
        })
    }

    fn parked_scratch_is_empty() -> bool {
        parked_scratch().is_some_and(|(lens, _)| lens == (0, 0, 0))
    }

    /// Reads and rewrites every var in one transaction.
    fn bump_all(stm: &Stm, vars: &[TVar<i64>]) {
        stm.run(t(0), x(0), |tx| {
            for (i, v) in vars.iter().enumerate() {
                let cur = tx.read(v)?;
                tx.write(v, cur + i as i64)?;
            }
            Ok(())
        });
    }

    #[test]
    fn next_transaction_on_the_thread_starts_from_empty_sets() {
        let stm = Stm::new(StmConfig::new(1));
        // Large enough to spill the read set and build its index, small
        // enough that the buffers are parked as they are.
        let vars: Vec<TVar<i64>> = (0..80).map(|_| TVar::new(0)).collect();
        bump_all(&stm, &vars);
        assert!(parked_scratch_is_empty(), "the lease came back emptied");
        let (_, parked) = parked_scratch().unwrap();
        assert!((80..=PARK_LIMIT).contains(&parked), "grown buffers are reused, not dropped");
        // A redo log surviving in the reused buffers would serve this read.
        vars[7].store_unlogged(-1);
        let seen = stm.run(t(0), x(1), |tx| {
            assert!(tx.scratch.reads.is_empty() && tx.scratch.writes.is_empty());
            assert_eq!(tx.scratch.capacity(), parked, "the same buffers");
            tx.read(&vars[7])
        });
        assert_eq!(seen, -1, "stale read-own-write from the previous transaction");
    }

    #[test]
    fn large_transaction_does_not_leave_its_buffers_parked() {
        let stm = Stm::new(StmConfig::new(1));
        let vars: Vec<TVar<i64>> = (0..2000).map(|_| TVar::new(0)).collect();
        bump_all(&stm, &vars);
        assert_eq!(parked_scratch(), Some(((0, 0, 0), 0)), "oversized buffers were dropped");
        // The small transaction after it works on — and empties — a small
        // table, and what it grew stays for the one after.
        stm.run(t(0), x(1), |tx| {
            assert_eq!(tx.scratch.capacity(), 0);
            tx.write(&vars[0], 5)
        });
        let (lens, parked) = parked_scratch().unwrap();
        assert_eq!(lens, (0, 0, 0));
        assert!((1..=PARK_LIMIT).contains(&parked), "parked {parked} slots");
        assert_eq!(stm.run(t(0), x(2), |tx| tx.read(&vars[0])), 5);
    }

    #[test]
    fn panicking_body_returns_the_lease() {
        let stm = Stm::new(StmConfig::new(1));
        let v = TVar::new(0i64);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stm.run(t(0), x(0), |tx| {
                tx.write(&v, 1)?;
                panic!("body failed");
                #[allow(unreachable_code)]
                Ok(())
            });
        }));
        assert!(panicked.is_err());
        assert!(parked_scratch_is_empty(), "unwinding parked the buffers, redo log dropped");
        assert_eq!(stm.run(t(0), x(0), |tx| tx.read(&v)), 0, "the panicked write is gone");
        stm.run(t(0), x(0), |tx| tx.write(&v, 2));
        assert_eq!(*v.load_unlogged(), 2);
    }

    #[test]
    fn run_on_a_second_stm_nested_in_a_body_commits() {
        let (outer, inner) = (Stm::new(StmConfig::new(1)), Stm::new(StmConfig::new(1)));
        let (a, b) = (TVar::new(0i64), TVar::new(0i64));
        let seen = outer.run(t(0), x(0), |tx| {
            tx.write(&a, 1)?;
            inner.run(t(0), x(1), |tx2| {
                assert!(tx2.scratch.writes.is_empty(), "the nested run has buffers of its own");
                tx2.write(&b, 2)
            });
            tx.read(&a)
        });
        assert_eq!(seen, 1, "the outer redo log survived the nested run");
        assert_eq!((*a.load_unlogged(), *b.load_unlogged()), (1, 2));
        assert_eq!((outer.commit_count(), inner.commit_count()), (1, 1));
        assert!(parked_scratch_is_empty());
    }

    /// Thread 0 reads `a` and never leaves while thread 1 commits a write
    /// to it: the committer charges [`READER_WAIT_LIMIT`] polls, then
    /// aborts. A poll costs what a read costs, so the polls are counted as
    /// the committer's charged ticks less the rest of its attempt.
    #[test]
    fn a_reader_that_never_leaves_costs_the_committer_exactly_the_wait_limit() {
        let gate = Arc::new(crate::gate::RealGate::new(0));
        let stm = Stm::with_parts(
            StmConfig::builder(2).resolution(Resolution::WaitForReaders).build(),
            gate.clone(),
            Arc::new(NullSink),
            Arc::new(AdmitAll),
            Arc::new(Aggressive),
        );
        let a = TVar::new(0i64);
        let r = stm.try_run_once(t(0), x(0), |tx| {
            let _ = tx.read(&a)?; // registers thread 0 as a visible reader
            let before = gate.thread_time(t(1));
            let inner = stm.try_run_once(t(1), x(1), |tx2| tx2.write(&a, 1));
            assert!(
                matches!(inner, Err(Abort { reason: AbortReason::ReaderWaitTimeout, .. })),
                "committer must time out on the parked reader: {inner:?}"
            );
            let rest = COSTS.begin + COSTS.write + COSTS.commit_entry + COSTS.abort;
            let polls = (gate.thread_time(t(1)) - before - rest) / COSTS.poll;
            assert_eq!(polls, u64::from(READER_WAIT_LIMIT));
            Ok(())
        });
        assert!(r.is_ok());
        assert_eq!(*a.load_unlogged(), 0, "timed-out committer must not publish");
        // Once the reader drains, the same write commits without waiting.
        stm.run(t(1), x(1), |tx2| tx2.write(&a, 1));
        assert_eq!(*a.load_unlogged(), 1);
    }

    /// The polls `wait_for_readers` charges before it gives up on readers
    /// that never leave, at a limit of `limit`.
    fn polls_until_reader_wait_timeout(limit: u32) -> u64 {
        let gate = crate::gate::RealGate::new(0);
        assert!(!wait_for_readers(&gate, t(0), limit, || true), "the readers never leave");
        gate.thread_time(t(0)) / COSTS.poll
    }

    #[test]
    fn reader_wait_limit_zero_aborts_without_a_single_poll() {
        assert_eq!(polls_until_reader_wait_timeout(0), 0);
        let gate = crate::gate::RealGate::new(0);
        assert!(wait_for_readers(&gate, t(0), 0, || false), "no readers, no wait");
        assert_eq!(gate.thread_time(t(0)), 0);
    }

    #[test]
    fn reader_wait_limit_one_charges_exactly_one_poll() {
        assert_eq!(polls_until_reader_wait_timeout(1), 1);
        // Readers that leave after the one poll let the committer through.
        let gate = crate::gate::RealGate::new(0);
        let looks = std::cell::Cell::new(0);
        let busy = || {
            looks.set(looks.get() + 1);
            looks.get() == 1
        };
        assert!(wait_for_readers(&gate, t(0), 1, busy));
        assert_eq!(gate.thread_time(t(0)), COSTS.poll);
    }

    #[test]
    fn doom_handle_forces_abort_with_synthetic_culprit() {
        let stm = Stm::new(StmConfig::new(1));
        let h = stm.doom_handle();
        let v = TVar::new(0u32);
        let r = stm.try_run_once(t(0), x(0), |tx| {
            h.doom(tx.thread());
            tx.read(&v)
        });
        match r {
            Err(a) => {
                assert!(matches!(a.reason, AbortReason::DoomedByCommitter { .. }), "{a:?}");
                let (p, _) = a.culprit.expect("synthetic culprit attributed");
                assert_eq!(p.thread.raw(), 0xFFFF, "chaos sentinel thread");
                assert_eq!(p.tx.raw(), 0xFF, "chaos sentinel tx");
            }
            other => panic!("expected doomed abort, got {other:?}"),
        }
        // Out-of-range threads are ignored; the doom slot was consumed.
        h.doom(t(5));
        assert_eq!(stm.run(t(0), x(0), |tx| tx.read(&v)), 0);
    }

    /// Begin clears the doom word only when it is set: a doom from before
    /// the attempt began dies there, one stored during the body aborts
    /// exactly that attempt, and the retry starts clean.
    #[test]
    fn a_stale_doom_is_cleared_at_begin_and_a_fresh_one_aborts_its_attempt() {
        let stm = Stm::new(StmConfig::new(2));
        let h = stm.doom_handle();
        let v = TVar::new(7u32);
        h.doom(t(0));
        assert_eq!(stm.try_run_once(t(0), x(0), |tx| tx.read(&v)).ok(), Some(7), "stale doom");
        assert_eq!(stm.doomed[0].load(Ordering::SeqCst), 0, "begin consumed it");
        let mut attempts = 0;
        let got = stm.run(t(0), x(0), |tx| {
            attempts += 1;
            if tx.attempt() == 0 {
                h.doom(tx.thread());
            }
            tx.read(&v)
        });
        assert_eq!((got, attempts), (7, 2), "doomed once, then committed");
        // Thread 1's word was never touched by any of it.
        assert_eq!(stm.doomed[1].load(Ordering::SeqCst), 0);
        assert_eq!(stm.try_run_once(t(1), x(0), |tx| tx.read(&v)).ok(), Some(7));
    }

    fn snapshot_stm(threads: usize) -> Stm {
        Stm::new(StmConfig::builder(threads).read_mode(ReadMode::Snapshot).build())
    }

    /// Tentpole invariant: a snapshot read-only transaction never aborts
    /// and never observes writes committed after its begin, even when an
    /// update transaction interferes mid-body — the exact pattern that
    /// aborts the legacy read path.
    #[test]
    fn snapshot_read_only_ignores_interference_without_aborting() {
        let stm = snapshot_stm(2);
        let a = TVar::new(0i64);
        let b = TVar::new(0i64);
        stm.run(t(0), x(0), |tx| {
            tx.write(&a, 1)?;
            tx.write(&b, 10)
        });
        let got = stm.try_run_once(t(0), x(1), |tx| {
            let va = tx.read(&a)?;
            // Interfering committer: bumps both vars after our snapshot.
            stm.run(t(1), x(2), |tx2| {
                tx2.write(&a, 2)?;
                tx2.write(&b, 20)
            });
            let vb = tx.read(&b)?;
            Ok((va, vb))
        });
        // try_run_once with an update-kind txn: legacy path would abort on
        // the stale b read. Route the same body read-only instead:
        assert!(got.is_err(), "legacy update txn aborts on the stale read: {got:?}");
        let (va, vb) = stm.run_read_only(t(0), x(1), |tx| {
            let va = tx.read(&a)?;
            stm.run(t(1), x(2), |tx2| {
                tx2.write(&a, 3)?;
                tx2.write(&b, 30)
            });
            let vb = tx.read(&b)?;
            Ok((va, vb))
        });
        assert_eq!((va, vb), (2, 20), "snapshot must be consistent at begin time");
        let s = stm.mvcc_stats();
        assert_eq!(s.snapshot_txns, 1);
        assert_eq!(s.snapshot_reads, 2, "both reads served from rings");
        assert_eq!(s.spared_validations, 2);
        assert!(s.versions_published >= 4, "each update commit published its writes");
    }

    #[test]
    fn snapshot_read_falls_back_to_initial_value() {
        let stm = snapshot_stm(1);
        let v = TVar::new(41u32);
        let got = stm.run_read_only(t(0), x(0), |tx| tx.read(&v));
        assert_eq!(got, 41);
        let s = stm.mvcc_stats();
        assert_eq!(s.fallback_initial, 1, "never-written cell served from its initial value");
        assert_eq!(s.snapshot_reads, 0);
    }

    /// Regression (REVIEW: empty-ring fallback): a cell whose *first-ever*
    /// write commits after the reader's begin must still resolve to the
    /// initial value — the old `load()` fallback returned the just-written
    /// future value once the ring's only version had `wv > ts`.
    #[test]
    fn snapshot_never_sees_first_write_committed_after_begin() {
        let stm = snapshot_stm(2);
        let v = TVar::new(7i64); // never written before the reader begins
        let got = stm.run_read_only(t(0), x(0), |tx| {
            stm.run(t(1), x(1), |tx2| tx2.write(&v, 99));
            tx.read(&v)
        });
        assert_eq!(got, 7, "a first write committed after begin must stay invisible");
        assert_eq!(*v.load_unlogged(), 99, "the interfering write itself committed");
        assert_eq!(stm.mvcc_stats().fallback_initial, 1);
    }

    /// A panicking read-only body (the documented write-in-read-only
    /// panic) must unregister its snapshot timestamp, or the GC watermark
    /// stays pinned forever and every ring grows without bound.
    #[test]
    fn panicked_snapshot_reader_does_not_pin_the_watermark() {
        let stm = snapshot_stm(2);
        let v = TVar::new(0i64);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stm.run_read_only(t(0), x(0), |tx| tx.write(&v, 1));
        }));
        assert!(panicked.is_err());
        // With the reader slot released, steady-state commits GC down to
        // the trailing-window shape instead of accreting every version.
        for i in 1..=10i64 {
            stm.run(t(1), x(1), |tx| tx.write(&v, i));
        }
        let s = stm.mvcc_stats();
        assert!(
            s.ring_len_max <= 3,
            "leaked reader registration pinned {} versions",
            s.ring_len_max
        );
        assert_eq!(stm.run_read_only(t(0), x(0), |tx| tx.read(&v)), 10);
    }

    #[test]
    fn snapshot_read_only_never_ticks_clock() {
        let stm = snapshot_stm(1);
        let v = TVar::new(0i64);
        stm.run(t(0), x(0), |tx| tx.write(&v, 5));
        let before = stm.clock.sample();
        for _ in 0..10 {
            assert_eq!(stm.run_read_only(t(0), x(1), |tx| tx.read(&v)), 5);
        }
        assert_eq!(stm.clock.sample(), before);
        assert_eq!(stm.mvcc_stats().snapshot_txns, 10);
    }

    #[test]
    #[should_panic(expected = "read-only transaction")]
    fn write_in_read_only_txn_panics_in_snapshot_mode() {
        let stm = snapshot_stm(1);
        let v = TVar::new(0i64);
        stm.run_read_only(t(0), x(0), |tx| tx.write(&v, 1));
    }

    #[test]
    #[should_panic(expected = "read-only transaction")]
    fn write_in_read_only_txn_panics_in_latest_mode() {
        let stm = Stm::new(StmConfig::new(1));
        let v = TVar::new(0i64);
        stm.run_read_only(t(0), x(0), |tx| tx.write(&v, 1));
    }

    /// Under the default `ReadMode::Latest` the new entry point is the
    /// legacy validated read-only transaction: no snapshot machinery
    /// exists, reads validate inline, and `mvcc_stats` stays zero.
    #[test]
    fn latest_mode_read_only_is_legacy_and_unregistered() {
        let stm = Stm::new(StmConfig::new(2));
        let v = TVar::new(7i64);
        assert_eq!(stm.run_read_only(t(0), x(0), |tx| tx.read(&v)), 7);
        assert_eq!(stm.mvcc_stats(), MvccStats::default());
        // And it can still abort on interference, like any legacy txn: the
        // first attempt's stale read of `b` aborts, the retry commits.
        let a = TVar::new(0i64);
        let b = TVar::new(0i64);
        let mut attempts = Vec::new();
        let got = stm.run_read_only(t(0), x(0), |tx| {
            attempts.push(tx.attempt());
            let _ = tx.read(&a)?;
            if tx.attempt() == 0 {
                stm.run(t(1), x(1), |tx2| tx2.write(&b, 5));
            }
            tx.read(&b)
        });
        assert_eq!((got, attempts), (5, vec![0, 1]), "latest-mode read-only still validates");
    }

    #[test]
    fn snapshot_mode_update_txns_behave_like_legacy() {
        let stm = snapshot_stm(2);
        let v = TVar::new(0i64);
        for i in 0..2u16 {
            for _ in 0..50 {
                stm.run(t(i), x(0), |tx| tx.modify(&v, |n| n + 1));
            }
        }
        assert_eq!(*v.load_unlogged(), 100);
        let s = stm.mvcc_stats();
        assert_eq!(s.versions_published, 100);
        assert_eq!(s.snapshot_txns, 0, "no read-only traffic ran");
    }

    /// GC boundary: with active snapshot readers pinning old timestamps the
    /// rings may exceed their soft capacity (gc-lag), and once readers
    /// drain the next publication collapses history back down.
    #[test]
    fn ring_gc_lag_is_counted_and_recovers() {
        let stm = Stm::new(StmConfig::builder(2).read_mode(ReadMode::Snapshot).build());
        let v = TVar::new(0i64);
        stm.run(t(0), x(0), |tx| tx.write(&v, 1));
        let last = i64::from(VERSION_RING_CAPACITY) + 4;
        stm.run_read_only(t(1), x(1), |tx| {
            // This reader's timestamp pins every version committed below:
            for i in 2..=last {
                stm.run(t(0), x(0), |tx2| tx2.write(&v, i));
            }
            tx.read(&v)
        });
        let s = stm.mvcc_stats();
        assert!(s.gc_lag_events > 0, "the ring must overflow under the pinned reader");
        assert!(s.ring_len_max > u64::from(VERSION_RING_CAPACITY));
        // Reader gone: the next publication GCs everything stale.
        stm.run(t(0), x(0), |tx2| tx2.write(&v, last + 1));
        assert_eq!(stm.run_read_only(t(1), x(1), |tx| tx.read(&v)), last + 1);
        let s2 = stm.mvcc_stats();
        assert!(
            s2.versions_evicted >= u64::from(VERSION_RING_CAPACITY) + 3,
            "drained reader unpins history: {s2:?}"
        );
    }

    fn check_stm(check_events: bool) -> (Stm, Arc<crate::events::MemorySink>) {
        let sink = Arc::new(crate::events::MemorySink::new());
        let stm = Stm::with_parts(
            StmConfig::builder(1).check_events(check_events).build(),
            Arc::new(NullGate),
            sink.clone(),
            Arc::new(AdmitAll),
            Arc::new(Aggressive),
        );
        (stm, sink)
    }

    #[test]
    fn check_events_capture_the_full_commit_shape() {
        let (stm, sink) = check_stm(true);
        let a = TVar::new(0i64);
        stm.run(t(0), x(0), |tx| {
            let v = tx.read(&a)?;
            tx.write(&a, v + 1)
        });
        let (mut reads, mut wbs, mut commits, mut unlocks) = (0, 0, 0, 0);
        for e in sink.take() {
            match e {
                TxEvent::ReadCheck { stamp, .. } => {
                    assert_eq!(stamp, 0, "initial value carries stamp 0");
                    reads += 1;
                }
                TxEvent::WriteBackCheck { held, stamp, .. } => {
                    assert!(held, "write-back must run under the stripe lock");
                    assert!(stamp > 0, "transactional write-back stamps the cell");
                    wbs += 1;
                }
                TxEvent::CommitCheck { writes, rv, wv, .. } => {
                    assert_eq!(writes, 1);
                    assert!(wv > rv, "writer commit must tick the clock");
                    commits += 1;
                }
                TxEvent::UnlockCheck { owner_ok, publish, .. } => {
                    assert!(owner_ok && publish);
                    unlocks += 1;
                }
                _ => {}
            }
        }
        assert_eq!((reads, wbs, commits, unlocks), (1, 1, 1, 1));
    }

    #[test]
    fn check_events_stay_silent_unless_enabled() {
        let (stm, sink) = check_stm(false);
        let a = TVar::new(0i64);
        stm.run(t(0), x(0), |tx| tx.modify(&a, |v| v + 1));
        for e in sink.take() {
            assert!(
                !matches!(
                    e,
                    TxEvent::ReadCheck { .. }
                        | TxEvent::WriteBackCheck { .. }
                        | TxEvent::CommitCheck { .. }
                        | TxEvent::UnlockCheck { .. }
                ),
                "check events must be off by default: {e}"
            );
        }
    }

    #[test]
    fn broken_early_write_back_reports_unheld_write_backs() {
        let (stm, sink) = check_stm(true);
        stm.set_broken_early_write_back(true);
        let a = TVar::new(0i64);
        stm.run(t(0), x(0), |tx| tx.modify(&a, |v| v + 1));
        let evs = sink.take();
        let unheld =
            evs.iter().filter(|e| matches!(e, TxEvent::WriteBackCheck { held: false, .. })).count();
        assert_eq!(unheld, 1, "early write-back must be observed outside the lock");
        assert_eq!(*a.load_unlogged(), 1, "single-threaded result is still right");
        assert_eq!(stm.lock_discipline_violations(), 0, "unlocks themselves stay by-owner");
    }

    /// Property (128 seeded cases): single-threaded transactional programs
    /// behave exactly like their sequential interpretation over arbitrary
    /// op sequences.
    #[test]
    fn prop_sequential_equivalence() {
        use crate::rng::SmallRng;
        for seed in 0..128 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let stm = Stm::new(StmConfig::new(1));
            let vars: Vec<TVar<i64>> = (0..4).map(|_| TVar::new(0)).collect();
            let mut reference = [0i64; 4];
            for _ in 0..rng.gen_range(1..60) {
                let (i, delta) = (rng.gen_range(0usize..4), rng.gen_range(-50i64..50));
                stm.run(t(0), x(0), |tx| {
                    let v = tx.read(&vars[i])?;
                    tx.write(&vars[i], v + delta)
                });
                reference[i] += delta;
            }
            let got: Vec<i64> = vars.iter().map(|v| *v.load_unlogged()).collect();
            assert_eq!(got, reference, "seed {seed}");
        }
    }

    /// Property (128 seeded cases): write-after-write within one
    /// transaction keeps only the last value, and read-own-write always
    /// observes the latest buffered value.
    #[test]
    fn prop_redo_log_last_write_wins() {
        use crate::rng::SmallRng;
        for seed in 0..128 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let writes: Vec<i64> =
                (0..rng.gen_range(1..20)).map(|_| rng.gen_range(-100i64..100)).collect();
            let last = *writes.last().expect("nonempty");
            let stm = Stm::new(StmConfig::new(1));
            let v = TVar::new(i64::MIN);
            let observed = stm.run(t(0), x(0), |tx| {
                for &w in &writes {
                    tx.write(&v, w)?;
                    assert_eq!(tx.read(&v)?, w, "seed {seed}: read-own-write must see the buffer");
                }
                tx.read(&v)
            });
            assert_eq!((observed, *v.load_unlogged()), (last, last), "seed {seed}");
        }
    }
}
