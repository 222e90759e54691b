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
use crate::pad::PerThread;

/// Slot sentinel: no active snapshot reader / no in-flight commit.
const INACTIVE: u64 = u64::MAX;
/// Slot sentinel: the owner is between parking and publishing its clock
/// sample; scanners must assume the worst (see module docs).
const PENDING: u64 = u64::MAX - 1;

/// Reader/committer registries backing snapshot mode.
///
/// Allocated once per [`crate::Stm`] when `read_mode == Snapshot`; engines
/// in legacy mode carry `None` and skip every crossing below.
#[derive(Debug)]
pub(crate) struct SnapshotRegistry {
    /// Per-thread active snapshot timestamp (or sentinel).
    readers: PerThread<AtomicU64>,
    /// Per-thread in-flight commit lower bound (or sentinel).
    commit_lb: PerThread<AtomicU64>,
}

impl SnapshotRegistry {
    pub(crate) fn new(max_threads: usize) -> Self {
        let slot = || AtomicU64::new(INACTIVE);
        SnapshotRegistry {
            readers: PerThread::new(max_threads, slot),
            commit_lb: PerThread::new(max_threads, slot),
        }
    }

    /// Begins a snapshot transaction on `thread`; returns its timestamp.
    ///
    /// Parks `PENDING` first so a concurrent GC that misses the park has
    /// provably computed its watermark from a clock value `<=` our sample
    /// (the fences order park → sample against the GC's sample → scan),
    /// keeping `ts >= watermark` for every reader the GC did not see.
    pub(crate) fn begin(&self, thread: ThreadId, clock: &VersionClock) -> u64 {
        let slot = &self.readers[thread];
        slot.store(PENDING, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let sample = clock.sample();
        fence(Ordering::SeqCst);
        // Clamp to in-flight commits' lower bounds. A commit slot still
        // PENDING here parked *after* our fence-pair, so its clock sample
        // (and a fortiori its wv) is >= our sample and cannot constrain us.
        let mut ts = sample;
        for slot in self.commit_lb.iter() {
            let lb = slot.load(Ordering::SeqCst);
            if lb != INACTIVE && lb != PENDING {
                ts = ts.min(lb);
            }
        }
        slot.store(ts, Ordering::SeqCst);
        ts
    }

    /// Ends `thread`'s snapshot transaction, unpinning its timestamp. The
    /// engine calls it from the attempt's drop, so a panicking body (e.g.
    /// the documented write-in-read-only panic) cannot pin the GC
    /// watermark forever.
    pub(crate) fn end(&self, thread: ThreadId) {
        self.readers[thread].store(INACTIVE, Ordering::SeqCst);
    }

    /// Publishes `thread`'s commit lower bound: parks `PENDING`, samples
    /// the clock, publishes the sample. Must run **before** the commit
    /// ticks the clock to claim its `wv`; the published bound then
    /// satisfies `lb < wv`, so any reader clamped to `lb` cannot need the
    /// commit's not-yet-written versions.
    pub(crate) fn publish_commit_lb(&self, thread: ThreadId, clock: &VersionClock) {
        let slot = &self.commit_lb[thread];
        slot.store(PENDING, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let lb = clock.sample();
        slot.store(lb, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// Clears `thread`'s commit lower bound — once the commit's versions
    /// are published, or the commit aborted or unwound after publishing
    /// the bound (the attempt's drop does it on every exit), so a stale
    /// bound cannot clamp every later snapshot reader to an old timestamp.
    pub(crate) fn clear_commit_lb(&self, thread: ThreadId) {
        self.commit_lb[thread].store(INACTIVE, Ordering::SeqCst);
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
    fn sentinels_are_distinct_and_above_any_plausible_version() {
        assert_ne!(INACTIVE, PENDING);
        // The lock word caps versions at 47 bits (lock_table.rs), so no
        // real timestamp can collide with either sentinel.
        const { assert!(PENDING > (1 << 47)) }
    }
}
