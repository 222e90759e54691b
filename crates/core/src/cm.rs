//! Contention managers — the related-work baselines of the paper's §IX.
//!
//! The paper contrasts guided execution with classic contention managers
//! (Polite, Karma, Greedy): CMs withhold threads to raise *throughput* and
//! "clearly compromise one thread over another which only leads to higher
//! variance", whereas guidance withholds threads to stay on common execution
//! paths and lower *variance*. We implement all three so the ablation bench
//! (`ablate-cm`) can test that claim quantitatively.
//!
//! Our CMs are adapted to a lazy (commit-time) STM: conflicts manifest as
//! self-aborts, so the manager's lever is the **backoff** charged before the
//! retry, informed by per-thread priority state (karma / start timestamps).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::Abort;
use crate::gate::Ticks;
use crate::ids::ThreadId;

/// Decides how long an aborted transaction backs off before retrying.
pub trait ContentionManager: Send + Sync {
    /// An invocation (re)starts; `now` is gate time — or 0 for a manager
    /// whose [`reads_time`](ContentionManager::reads_time) says it is not
    /// read.
    fn on_begin(&self, _thread: ThreadId, _now: u64) {}

    /// Whether [`on_begin`](ContentionManager::on_begin) reads its `now`.
    /// The engine asks once, at construction, and samples the gate clock at
    /// begin only for a manager that says yes.
    fn reads_time(&self) -> bool {
        true
    }

    /// A transactional read or write executed (priority accumulation).
    fn on_access(&self, _thread: ThreadId) {}

    /// The invocation committed; transient priority resets here.
    fn on_commit(&self, _thread: ThreadId) {}

    /// The attempt aborted; returns the backoff to charge before retry.
    fn on_abort(&self, thread: ThreadId, abort: &Abort, attempt: u32) -> Ticks;
}

/// Retry immediately (TL2's default behaviour). Named after the classic
/// "Aggressive/Suicide" manager that always restarts the victim.
#[derive(Debug, Default, Clone, Copy)]
pub struct Aggressive;

impl ContentionManager for Aggressive {
    fn reads_time(&self) -> bool {
        false
    }

    fn on_abort(&self, _thread: ThreadId, _abort: &Abort, _attempt: u32) -> Ticks {
        0
    }
}

/// Polite: exponential backoff in the number of consecutive aborts
/// (Herlihy et al., PODC '03).
#[derive(Debug, Clone, Copy)]
pub struct Polite {
    /// Backoff after the first abort.
    pub(crate) base: Ticks,
    /// Exponent cap: backoff saturates at `base << cap`. The pair is not
    /// required to satisfy `base << cap <= u64::MAX` — shifts that would
    /// overflow 64 bits saturate to `Ticks::MAX` instead of panicking
    /// (debug) or wrapping to a tiny backoff (release).
    pub(crate) cap: u32,
}

impl Default for Polite {
    fn default() -> Self {
        Polite { base: 4, cap: 8 }
    }
}

impl ContentionManager for Polite {
    fn on_abort(&self, _thread: ThreadId, _abort: &Abort, attempt: u32) -> Ticks {
        if self.base == 0 {
            return 0;
        }
        let shift = attempt.min(self.cap);
        // `checked_shl` rejects shift >= 64 (the debug-panic case); the
        // leading-zeros guard additionally saturates when high bits of a
        // large `base` would be shifted out silently.
        match self.base.checked_shl(shift) {
            Some(v) if shift <= self.base.leading_zeros() => v,
            _ => Ticks::MAX,
        }
    }
}

/// Karma: priority equals accumulated transactional work; low-karma threads
/// defer to high-karma conflictors (Scherer & Scott, PODC '05).
#[derive(Debug)]
pub struct Karma {
    karma: Vec<AtomicU64>,
    base: Ticks,
}

impl Karma {
    /// Creates a Karma manager for up to `max_threads` threads with the given
    /// per-loss backoff unit.
    pub fn new(max_threads: usize, base: Ticks) -> Self {
        Karma { karma: (0..max_threads).map(|_| AtomicU64::new(0)).collect(), base }
    }
}

impl ContentionManager for Karma {
    fn on_access(&self, thread: ThreadId) {
        self.karma[thread.index()].fetch_add(1, Ordering::Relaxed);
    }

    fn on_commit(&self, thread: ThreadId) {
        self.karma[thread.index()].store(0, Ordering::Relaxed);
    }

    fn on_abort(&self, thread: ThreadId, abort: &Abort, attempt: u32) -> Ticks {
        let mine = self.karma[thread.index()].load(Ordering::Relaxed);
        // An out-of-range culprit thread (e.g. a synthetic participant
        // injected by fault schedules) is an *unknown* conflictor: treat it
        // as karma 0 rather than wrapping onto another thread's slot and
        // mis-attributing priority.
        let theirs = abort
            .culprit
            .and_then(|(p, _)| self.karma.get(p.thread.index()))
            .map(|k| k.load(Ordering::Relaxed))
            .unwrap_or(0);
        if mine >= theirs {
            // We out-rank the conflictor: retry immediately (karma is kept,
            // so we out-rank them even harder next time).
            0
        } else {
            self.base * (attempt as u64 + 1)
        }
    }
}

/// Greedy: the transaction with the earliest start time wins
/// (Guerraoui, Herlihy, Pochon, PODC '05).
#[derive(Debug)]
pub struct Greedy {
    start: Vec<AtomicU64>,
    base: Ticks,
}

impl Greedy {
    /// Creates a Greedy manager for up to `max_threads` threads.
    pub fn new(max_threads: usize, base: Ticks) -> Self {
        Greedy { start: (0..max_threads).map(|_| AtomicU64::new(u64::MAX)).collect(), base }
    }
}

impl ContentionManager for Greedy {
    fn on_begin(&self, thread: ThreadId, now: u64) {
        // Keep the first attempt's timestamp across retries: in Greedy the
        // priority of a transaction is its *original* start time.
        let slot = &self.start[thread.index()];
        let cur = slot.load(Ordering::Relaxed);
        if cur == u64::MAX {
            slot.store(now.max(1), Ordering::Relaxed);
        }
    }

    fn on_commit(&self, thread: ThreadId) {
        self.start[thread.index()].store(u64::MAX, Ordering::Relaxed);
    }

    fn on_abort(&self, thread: ThreadId, abort: &Abort, attempt: u32) -> Ticks {
        let mine = self.start[thread.index()].load(Ordering::Relaxed);
        // As in `Karma`: never index with a wrapped out-of-range culprit.
        // An unknown conflictor gets `u64::MAX` (never started), so the
        // victim wins and retries immediately.
        let theirs = abort
            .culprit
            .and_then(|(p, _)| self.start.get(p.thread.index()))
            .map(|s| s.load(Ordering::Relaxed))
            .unwrap_or(u64::MAX);
        if mine <= theirs {
            0
        } else {
            self.base * (attempt as u64 + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AbortReason;
    use crate::ids::{CommitSeq, Participant, TxId};

    fn abort_by(thread: u16) -> Abort {
        Abort::caused_by(
            AbortReason::UserRetry,
            Participant::new(ThreadId::new(thread), TxId::new(0)),
            CommitSeq::new(1),
        )
    }

    #[test]
    fn aggressive_never_backs_off() {
        assert_eq!(Aggressive.on_abort(ThreadId::new(0), &abort_by(1), 5), 0);
    }

    #[test]
    fn polite_backoff_is_exponential_and_capped() {
        let p = Polite { base: 2, cap: 3 };
        assert_eq!(p.on_abort(ThreadId::new(0), &abort_by(1), 0), 2);
        assert_eq!(p.on_abort(ThreadId::new(0), &abort_by(1), 1), 4);
        assert_eq!(p.on_abort(ThreadId::new(0), &abort_by(1), 3), 16);
        assert_eq!(p.on_abort(ThreadId::new(0), &abort_by(1), 10), 16, "capped");
    }

    #[test]
    fn karma_high_priority_retries_immediately() {
        let k = Karma::new(2, 10);
        for _ in 0..5 {
            k.on_access(ThreadId::new(0));
        }
        k.on_access(ThreadId::new(1));
        // Thread 0 (karma 5) aborted by thread 1 (karma 1): no backoff.
        assert_eq!(k.on_abort(ThreadId::new(0), &abort_by(1), 0), 0);
        // Thread 1 (karma 1) aborted by thread 0 (karma 5): backs off.
        assert!(k.on_abort(ThreadId::new(1), &abort_by(0), 0) > 0);
        // A commit resets thread 0's karma to 0, below thread 1's 1: now it
        // backs off.
        k.on_commit(ThreadId::new(0));
        assert!(k.on_abort(ThreadId::new(0), &abort_by(1), 0) > 0);
    }

    #[test]
    fn greedy_oldest_wins() {
        let g = Greedy::new(2, 10);
        g.on_begin(ThreadId::new(0), 100);
        g.on_begin(ThreadId::new(1), 200);
        assert_eq!(g.on_abort(ThreadId::new(0), &abort_by(1), 0), 0, "older retries free");
        assert!(g.on_abort(ThreadId::new(1), &abort_by(0), 0) > 0, "younger backs off");
    }

    #[test]
    fn greedy_keeps_original_timestamp_across_retries() {
        let g = Greedy::new(2, 10);
        g.on_begin(ThreadId::new(0), 100);
        g.on_begin(ThreadId::new(0), 500); // retry: timestamp must not advance
        g.on_begin(ThreadId::new(1), 200);
        assert_eq!(g.on_abort(ThreadId::new(0), &abort_by(1), 1), 0);
        g.on_commit(ThreadId::new(0));
        g.on_begin(ThreadId::new(0), 900); // fresh invocation: new timestamp
        assert!(g.on_abort(ThreadId::new(0), &abort_by(1), 0) > 0);
    }

    #[test]
    fn abort_without_culprit_is_handled() {
        let k = Karma::new(1, 10);
        let a = Abort::new(AbortReason::UserRetry);
        assert_eq!(k.on_abort(ThreadId::new(0), &a, 0), 0);
    }

    #[test]
    fn polite_saturates_instead_of_overflowing() {
        // shift >= 64 used to panic in debug / wrap in release.
        let p = Polite { base: 4, cap: 80 };
        assert_eq!(p.on_abort(ThreadId::new(0), &abort_by(1), 70), Ticks::MAX);
        // Large base: shifting out high bits must saturate, not truncate.
        let big = Polite { base: 1 << 60, cap: 8 };
        assert_eq!(big.on_abort(ThreadId::new(0), &abort_by(1), 8), Ticks::MAX);
        assert_eq!(big.on_abort(ThreadId::new(0), &abort_by(1), 3), 1 << 63);
        // Zero base stays zero whatever the attempt count.
        let zero = Polite { base: 0, cap: 80 };
        assert_eq!(zero.on_abort(ThreadId::new(0), &abort_by(1), 70), 0);
    }

    #[test]
    fn karma_out_of_range_culprit_is_unknown() {
        // Regression: a culprit thread >= max_threads used to wrap modulo
        // the table size onto thread 0's karma. Here thread 0 has karma 5,
        // so the wrapped lookup would force a backoff; the correct
        // treatment (unknown conflictor, karma 0) retries immediately.
        let k = Karma::new(2, 10);
        for _ in 0..5 {
            k.on_access(ThreadId::new(0));
        }
        k.on_access(ThreadId::new(1));
        assert_eq!(
            k.on_abort(ThreadId::new(1), &abort_by(2), 0),
            0,
            "out-of-range culprit must not alias thread 0's karma"
        );
    }

    #[test]
    fn greedy_out_of_range_culprit_is_unknown() {
        // Same aliasing bug as Karma: culprit thread 2 would wrap onto
        // thread 0 (the oldest), forcing the victim to back off.
        let g = Greedy::new(2, 10);
        g.on_begin(ThreadId::new(0), 100);
        g.on_begin(ThreadId::new(1), 200);
        assert_eq!(
            g.on_abort(ThreadId::new(1), &abort_by(2), 0),
            0,
            "unknown conflictor never out-ranks the victim"
        );
    }
}
