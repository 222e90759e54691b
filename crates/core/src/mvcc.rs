//! Snapshot-read machinery for `ReadMode::Snapshot` (DESIGN.md §3.1d).
//!
//! A snapshot transaction picks a timestamp `ts` at begin and reads the
//! newest committed version `<= ts` from each cell's version ring — no
//! lock-word sandwich, no read-set, no validation, **no aborts**. Two
//! registries make that safe against concurrent committers and the
//! watermark GC:
//!
//! * `readers[t]` — thread `t`'s active snapshot timestamp, or a sentinel;
//! * `commit_lb[t]` — a lower bound on the write version thread `t`'s
//!   in-flight commit will claim, or a sentinel.
//!
//! # The race this design closes
//!
//! A committer samples the clock, then ticks it to claim `wv`. Between
//! those two steps a reader could pick `ts >= wv` from the already-ticked
//! clock while the committer's write-back has not yet published its
//! versions — the reader would miss a version its snapshot must include.
//! So committers publish a **commit lower bound** (a pre-tick clock
//! sample) first, and readers clamp `ts` to the minimum active bound:
//! every commit the clamp lets through has already published its bound,
//! and `wv > lb >= ts` holds for the rest.
//!
//! Symmetrically, the GC watermark must never exceed any present or future
//! reader's `ts`. Both protocols use the same trick: **park a `PENDING`
//! sentinel before sampling the clock**, with `SeqCst` fences ordering the
//! park, the sample, and the scans. A scanner that misses a parked slot
//! has, provably, scanned *after* the parker's fence — so the clock value
//! the scanner uses is `<=` the value the parked protocol will sample, and
//! the bound it computes stays conservative. A scanner that *sees*
//! `PENDING` treats it as "unknown, assume worst": readers started before
//! any such commit could tick (so it cannot constrain them and is
//! ignored), while the GC returns watermark 0 (evicts nothing this round).
//!
//! All registry slots use `SeqCst` stores/loads plus explicit
//! `fence(SeqCst)` calls; the version clock itself keeps its cheaper
//! orderings — the fences here pair with each other, not with the clock.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::clock::VersionClock;
use crate::ids::ThreadId;
use crate::pad::CachePadded;

/// Slot sentinel: no active snapshot reader / no in-flight commit.
const INACTIVE: u64 = u64::MAX;
/// Slot sentinel: the owner is between parking and publishing its clock
/// sample; scanners must assume the worst (see module docs).
const PENDING: u64 = u64::MAX - 1;

/// Counters for the snapshot read path, all maintained relaxed (they are
/// observability, not synchronization). Snapshot via [`crate::Stm::mvcc_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MvccStats {
    /// Snapshot-mode read-only transactions begun.
    pub snapshot_txns: u64,
    /// Reads served from a committed ring version (`wv >= 1`).
    pub snapshot_reads: u64,
    /// Reads that resolved the seeded initial version (`wv == 0`: the cell
    /// had not been transactionally written as of the snapshot).
    pub fallback_initial: u64,
    /// Read-set validations the snapshot path made unnecessary (one per
    /// read a legacy read-only commit would have re-validated).
    pub spared_validations: u64,
    /// Versions published into rings by snapshot-mode commits.
    pub versions_published: u64,
    /// Versions reclaimed by the watermark GC.
    pub versions_evicted: u64,
    /// Publications that left a ring above its soft capacity because a
    /// lagging reader pinned old versions (zero-abort preserved; the ring
    /// grows instead).
    pub gc_lag_events: u64,
    /// Largest ring length observed at any publication.
    pub ring_len_max: u64,
}

/// Soft capacity of each cell's version ring.
///
/// The watermark GC never evicts a version a registered snapshot reader
/// could still need, so a ring may temporarily exceed this bound while
/// readers lag — each such publication is counted as a `gc_lag` event in
/// [`MvccStats`] rather than breaking the zero-abort guarantee.
pub(crate) const VERSION_RING_CAPACITY: u32 = 8;

/// Reader/committer registries + counters backing snapshot mode.
///
/// Allocated once per [`crate::Stm`] when `read_mode == Snapshot`; engines
/// in legacy mode carry `None` and skip every crossing below.
#[derive(Debug)]
pub(crate) struct SnapshotRegistry {
    /// Per-thread active snapshot timestamp (or sentinel).
    readers: Vec<CachePadded<AtomicU64>>,
    /// Per-thread in-flight commit lower bound (or sentinel).
    commit_lb: Vec<CachePadded<AtomicU64>>,
    snapshot_txns: CachePadded<AtomicU64>,
    snapshot_reads: CachePadded<AtomicU64>,
    fallback_initial: CachePadded<AtomicU64>,
    spared_validations: CachePadded<AtomicU64>,
    versions_published: CachePadded<AtomicU64>,
    versions_evicted: CachePadded<AtomicU64>,
    gc_lag_events: CachePadded<AtomicU64>,
    ring_len_max: CachePadded<AtomicU64>,
}

impl SnapshotRegistry {
    pub(crate) fn new(max_threads: u32) -> Self {
        let slot = || CachePadded::new(AtomicU64::new(INACTIVE));
        SnapshotRegistry {
            readers: (0..max_threads).map(|_| slot()).collect(),
            commit_lb: (0..max_threads).map(|_| slot()).collect(),
            snapshot_txns: CachePadded::new(AtomicU64::new(0)),
            snapshot_reads: CachePadded::new(AtomicU64::new(0)),
            fallback_initial: CachePadded::new(AtomicU64::new(0)),
            spared_validations: CachePadded::new(AtomicU64::new(0)),
            versions_published: CachePadded::new(AtomicU64::new(0)),
            versions_evicted: CachePadded::new(AtomicU64::new(0)),
            gc_lag_events: CachePadded::new(AtomicU64::new(0)),
            ring_len_max: CachePadded::new(AtomicU64::new(0)),
        }
    }

    #[inline]
    fn reader_slot(&self, thread: ThreadId) -> &AtomicU64 {
        &self.readers[thread.index() % self.readers.len()]
    }

    #[inline]
    fn commit_slot(&self, thread: ThreadId) -> &AtomicU64 {
        &self.commit_lb[thread.index() % self.commit_lb.len()]
    }

    /// Begins a snapshot transaction on `thread`; returns its timestamp.
    ///
    /// Parks `PENDING` first so a concurrent GC that misses the park has
    /// provably computed its watermark from a clock value `<=` our sample
    /// (the fences order park → sample against the GC's sample → scan),
    /// keeping `ts >= watermark` for every reader the GC did not see.
    pub(crate) fn begin(&self, thread: ThreadId, clock: &VersionClock) -> u64 {
        let slot = self.reader_slot(thread);
        slot.store(PENDING, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let sample = clock.sample();
        fence(Ordering::SeqCst);
        // Clamp to in-flight commits' lower bounds. A commit slot still
        // PENDING here parked *after* our fence-pair, so its clock sample
        // (and a fortiori its wv) is >= our sample and cannot constrain us.
        let mut ts = sample;
        for slot in &self.commit_lb {
            let lb = slot.load(Ordering::SeqCst);
            if lb != INACTIVE && lb != PENDING {
                ts = ts.min(lb);
            }
        }
        slot.store(ts, Ordering::SeqCst);
        self.snapshot_txns.fetch_add(1, Ordering::Relaxed);
        ts
    }

    /// Ends `thread`'s snapshot transaction, unpinning its timestamp.
    pub(crate) fn end(&self, thread: ThreadId) {
        self.reader_slot(thread).store(INACTIVE, Ordering::SeqCst);
    }

    /// [`Self::begin`] wrapped in an RAII guard: the registration is
    /// released on drop, **including unwind** — a panic in the transaction
    /// body (e.g. the documented `Txn::write`-in-read-only panic) must not
    /// pin the GC watermark at this reader's timestamp forever.
    pub(crate) fn begin_guarded<'a>(
        &'a self,
        thread: ThreadId,
        clock: &VersionClock,
    ) -> ReaderGuard<'a> {
        let ts = self.begin(thread, clock);
        ReaderGuard { reg: self, thread, ts }
    }

    /// Publishes `thread`'s commit lower bound: parks `PENDING`, samples
    /// the clock, publishes the sample. Must run **before** the commit
    /// ticks the clock to claim its `wv`; the published bound then
    /// satisfies `lb < wv`, so any reader clamped to `lb` cannot need the
    /// commit's not-yet-written versions.
    pub(crate) fn publish_commit_lb(&self, thread: ThreadId, clock: &VersionClock) {
        let slot = self.commit_slot(thread);
        slot.store(PENDING, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let lb = clock.sample();
        slot.store(lb, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// Clears `thread`'s commit lower bound — call once the commit's
    /// versions are published (or the commit aborted post-tick).
    pub(crate) fn clear_commit_lb(&self, thread: ThreadId) {
        self.commit_slot(thread).store(INACTIVE, Ordering::SeqCst);
    }

    /// [`Self::publish_commit_lb`] wrapped in an RAII guard: the bound is
    /// cleared on drop, **including unwind** — a panic between publication
    /// and version-ring write-back must not leave a stale bound clamping
    /// every future snapshot reader to an old timestamp.
    pub(crate) fn publish_commit_lb_guarded<'a>(
        &'a self,
        thread: ThreadId,
        clock: &VersionClock,
    ) -> CommitLbGuard<'a> {
        self.publish_commit_lb(thread, clock);
        CommitLbGuard { reg: self, thread }
    }

    /// Computes the GC watermark: a version bound `W` such that every
    /// present *and future* snapshot reader holds `ts >= W`, so a ring may
    /// drop any version shadowed by a newer retained version with
    /// `wv <= W`.
    ///
    /// Samples the clock first (future readers sample later, hence see
    /// `>=` this), then scans both registries. Any `PENDING` slot means a
    /// protocol is mid-flight with an unknown bound: return 0 and evict
    /// nothing this round rather than guess.
    pub(crate) fn watermark(&self, clock: &VersionClock) -> u64 {
        let mut w = clock.sample();
        fence(Ordering::SeqCst);
        for slot in self.readers.iter().chain(self.commit_lb.iter()) {
            match slot.load(Ordering::SeqCst) {
                INACTIVE => {}
                PENDING => return 0,
                v => w = w.min(v),
            }
        }
        w
    }

    pub(crate) fn note_read(&self, from_ring: bool) {
        if from_ring {
            self.snapshot_reads.fetch_add(1, Ordering::Relaxed);
        } else {
            self.fallback_initial.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn note_spared_validations(&self, n: u64) {
        self.spared_validations.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_publication(&self, evicted: u64, ring_len: u64, over_capacity: bool) {
        self.versions_published.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.versions_evicted.fetch_add(evicted, Ordering::Relaxed);
        }
        if over_capacity {
            self.gc_lag_events.fetch_add(1, Ordering::Relaxed);
        }
        self.ring_len_max.fetch_max(ring_len, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> MvccStats {
        MvccStats {
            snapshot_txns: self.snapshot_txns.load(Ordering::Relaxed),
            snapshot_reads: self.snapshot_reads.load(Ordering::Relaxed),
            fallback_initial: self.fallback_initial.load(Ordering::Relaxed),
            spared_validations: self.spared_validations.load(Ordering::Relaxed),
            versions_published: self.versions_published.load(Ordering::Relaxed),
            versions_evicted: self.versions_evicted.load(Ordering::Relaxed),
            gc_lag_events: self.gc_lag_events.load(Ordering::Relaxed),
            ring_len_max: self.ring_len_max.load(Ordering::Relaxed),
        }
    }
}

/// Active snapshot-reader registration; unregisters on drop (unwind-safe).
/// Obtained from [`SnapshotRegistry::begin_guarded`].
#[derive(Debug)]
pub(crate) struct ReaderGuard<'a> {
    reg: &'a SnapshotRegistry,
    thread: ThreadId,
    ts: u64,
}

impl ReaderGuard<'_> {
    /// The registered snapshot timestamp.
    pub(crate) fn ts(&self) -> u64 {
        self.ts
    }
}

impl Drop for ReaderGuard<'_> {
    fn drop(&mut self) {
        self.reg.end(self.thread);
    }
}

/// In-flight commit lower bound; cleared on drop (unwind-safe). Obtained
/// from [`SnapshotRegistry::publish_commit_lb_guarded`].
#[derive(Debug)]
pub(crate) struct CommitLbGuard<'a> {
    reg: &'a SnapshotRegistry,
    thread: ThreadId,
}

impl Drop for CommitLbGuard<'_> {
    fn drop(&mut self) {
        self.reg.clear_commit_lb(self.thread);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock_at(v: u64) -> VersionClock {
        let clock = VersionClock::new();
        while clock.sample() < v {
            clock.tick();
        }
        clock
    }

    #[test]
    fn begin_returns_clock_sample_when_no_commits_in_flight() {
        let reg = SnapshotRegistry::new(4);
        let clock = clock_at(7);
        let ts = reg.begin(ThreadId::new(0), &clock);
        assert_eq!(ts, 7);
        assert_eq!(reg.stats().snapshot_txns, 1);
        reg.end(ThreadId::new(0));
    }

    #[test]
    fn begin_clamps_to_active_commit_lower_bound() {
        let reg = SnapshotRegistry::new(4);
        let clock = clock_at(3);
        reg.publish_commit_lb(ThreadId::new(1), &clock);
        clock.tick(); // the committer claimed wv=4
        let ts = reg.begin(ThreadId::new(0), &clock);
        assert_eq!(ts, 3, "reader must not include the unpublished wv=4 commit");
        reg.clear_commit_lb(ThreadId::new(1));
        reg.end(ThreadId::new(0));
        let ts = reg.begin(ThreadId::new(0), &clock);
        assert_eq!(ts, 4, "bound cleared: reader sees the ticked clock");
    }

    #[test]
    fn watermark_is_min_of_clock_and_active_readers() {
        let reg = SnapshotRegistry::new(4);
        let clock = clock_at(10);
        assert_eq!(reg.watermark(&clock), 10, "no readers: watermark is the clock");
        let t0 = ThreadId::new(0);
        let ts = reg.begin(t0, &clock);
        assert_eq!(reg.watermark(&clock), ts);
        reg.end(t0);
        assert_eq!(reg.watermark(&clock), 10);
    }

    #[test]
    fn watermark_sees_commit_bounds_and_pending_slots() {
        let reg = SnapshotRegistry::new(4);
        let clock = clock_at(5);
        reg.publish_commit_lb(ThreadId::new(2), &clock);
        assert_eq!(reg.watermark(&clock), 5, "published bound == clock here");
        // Simulate a parked-but-unpublished protocol slot.
        reg.commit_lb[1].store(PENDING, Ordering::SeqCst);
        assert_eq!(reg.watermark(&clock), 0, "PENDING forces a no-evict round");
        reg.commit_lb[1].store(INACTIVE, Ordering::SeqCst);
        reg.clear_commit_lb(ThreadId::new(2));
        assert_eq!(reg.watermark(&clock), 5);
    }

    #[test]
    fn stats_accumulate() {
        let reg = SnapshotRegistry::new(2);
        reg.note_read(true);
        reg.note_read(true);
        reg.note_read(false);
        reg.note_spared_validations(3);
        reg.note_publication(0, 1, false);
        reg.note_publication(2, 5, true);
        let s = reg.stats();
        assert_eq!(s.snapshot_reads, 2);
        assert_eq!(s.fallback_initial, 1);
        assert_eq!(s.spared_validations, 3);
        assert_eq!(s.versions_published, 2);
        assert_eq!(s.versions_evicted, 2);
        assert_eq!(s.gc_lag_events, 1);
        assert_eq!(s.ring_len_max, 5);
    }

    #[test]
    fn guards_release_their_slots_on_unwind() {
        let reg = SnapshotRegistry::new(4);
        let clock = clock_at(6);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _reader = reg.begin_guarded(ThreadId::new(0), &clock);
            let _lb = reg.publish_commit_lb_guarded(ThreadId::new(1), &clock);
            clock.tick();
            assert_eq!(reg.watermark(&clock), 6, "live guards pin the watermark");
            panic!("transaction body blew up");
        }));
        assert!(panicked.is_err());
        // Neither the reader timestamp nor the commit bound survives the
        // unwind: the watermark tracks the clock again and a fresh reader
        // is unclamped.
        assert_eq!(reg.watermark(&clock), 7);
        assert_eq!(reg.begin(ThreadId::new(2), &clock), 7);
        reg.end(ThreadId::new(2));
    }

    #[test]
    fn sentinels_are_distinct_and_above_any_plausible_version() {
        assert_ne!(INACTIVE, PENDING);
        // The lock word caps versions at 47 bits (lock_table.rs), so no
        // real timestamp can collide with either sentinel.
        const { assert!(PENDING > (1 << 47)) }
    }
}
