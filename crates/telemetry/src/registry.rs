//! Sharded per-thread metric registries.
//!
//! Each thread owns a [`ThreadMetrics`] shard: plain `AtomicU64` counters
//! and [`LogHistogram`]s written with `Relaxed` operations, never locks.
//! Contention between writers is impossible by construction (one shard per
//! thread); cross-thread merging happens only in [`MetricsRegistry::snapshot`],
//! which is off the transactional fast path.

use std::sync::atomic::{AtomicU64, Ordering};

use gstm_core::error::AbortReason;
use gstm_core::sync::Mutex;
use std::collections::BTreeMap;

use crate::histogram::LogHistogram;
use crate::snapshot::Snapshot;

/// Stable order of abort-reason labels, matching [`AbortReason::label`].
pub const ABORT_REASONS: [&str; 7] = [
    "read-version",
    "locked",
    "write-lock-busy",
    "validate-failed",
    "doomed",
    "reader-wait-timeout",
    "user-retry",
];

/// Index of `reason` into [`ABORT_REASONS`].
pub fn reason_index(reason: &AbortReason) -> usize {
    match reason {
        AbortReason::ReadVersion { .. } => 0,
        AbortReason::Locked { .. } => 1,
        AbortReason::WriteLockBusy { .. } => 2,
        AbortReason::ValidateFailed { .. } => 3,
        AbortReason::DoomedByCommitter { .. } => 4,
        AbortReason::ReaderWaitTimeout => 5,
        AbortReason::UserRetry => 6,
    }
}

/// One thread's metric shard. All writes are `Relaxed`: the counters are
/// monotone event tallies whose cross-thread ordering is irrelevant; the
/// snapshot merge tolerates (and the sim's rendezvous points in practice
/// eliminate) momentary skew between related counters.
#[derive(Debug, Default)]
pub struct ThreadMetrics {
    /// Transaction attempts started (after admission).
    pub begins: AtomicU64,
    /// Invocations committed.
    pub commits: AtomicU64,
    /// Attempts aborted.
    pub aborts: AtomicU64,
    /// Invocations held at least once by the admission policy.
    pub holds: AtomicU64,
    /// Total hold polls spent across all held invocations.
    pub hold_polls: AtomicU64,
    /// Aborts split by [`ABORT_REASONS`] order.
    pub aborts_by_reason: [AtomicU64; ABORT_REASONS.len()],
    /// Read-set size at commit.
    pub reads: LogHistogram,
    /// Write-set size at commit.
    pub writes: LogHistogram,
    /// Aborts suffered before each commit (the paper's tail-figure input).
    pub retries: LogHistogram,
    /// Polls per hold episode.
    pub polls: LogHistogram,
}

impl ThreadMetrics {
    fn new() -> Self {
        Self::default()
    }
}

/// The registry: a fixed array of shards plus a small gauge table for
/// low-rate scalar readings (scheduler ticks, policy k, stand-downs).
///
/// Gauges go through a mutex because they are set a handful of times per
/// run from cold paths, never from inside a transaction attempt.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<ThreadMetrics>,
    gauges: Mutex<BTreeMap<String, u64>>,
}

impl MetricsRegistry {
    /// Creates shards for `max_threads` threads.
    pub fn new(max_threads: usize) -> Self {
        MetricsRegistry {
            shards: (0..max_threads).map(|_| ThreadMetrics::new()).collect(),
            gauges: Mutex::new(BTreeMap::new()),
        }
    }

    /// Number of thread shards.
    pub fn threads(&self) -> usize {
        self.shards.len()
    }

    /// The shard for `thread`, if in range. Hot-path accessor: no locking.
    #[inline]
    pub fn thread(&self, thread: usize) -> Option<&ThreadMetrics> {
        self.shards.get(thread)
    }

    /// Sets (or overwrites) a named gauge. Cold path only.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.gauges.lock().insert(name.to_string(), value);
    }

    /// Reads a gauge back (mainly for tests).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.lock().get(name).copied()
    }

    /// Merges every shard and the gauge table into a plain-data [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        for (t, shard) in self.shards.iter().enumerate() {
            let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
            snap.set_counter("gstm_tx_begins_total", t, load(&shard.begins));
            snap.set_counter("gstm_tx_commits_total", t, load(&shard.commits));
            snap.set_counter("gstm_tx_aborts_total", t, load(&shard.aborts));
            snap.set_counter("gstm_tx_holds_total", t, load(&shard.holds));
            snap.set_counter("gstm_tx_hold_polls_total", t, load(&shard.hold_polls));
            for (i, reason) in ABORT_REASONS.iter().enumerate() {
                let v = load(&shard.aborts_by_reason[i]);
                if v > 0 {
                    snap.set_reason_counter("gstm_tx_aborts_by_reason_total", t, reason, v);
                }
            }
            snap.set_histogram("gstm_tx_read_set", t, shard.reads.snapshot());
            snap.set_histogram("gstm_tx_write_set", t, shard.writes.snapshot());
            snap.set_histogram("gstm_tx_retries", t, shard.retries.snapshot());
            snap.set_histogram("gstm_tx_hold_poll_len", t, shard.polls.snapshot());
        }
        for (name, value) in self.gauges.lock().iter() {
            snap.set_gauge(name, *value);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::ids::VarId;

    #[test]
    fn reason_index_matches_labels() {
        let reasons = [
            AbortReason::ReadVersion { var: VarId::from_raw(0) },
            AbortReason::Locked { var: VarId::from_raw(0) },
            AbortReason::WriteLockBusy { var: VarId::from_raw(0) },
            AbortReason::ValidateFailed { var: VarId::from_raw(0) },
            AbortReason::DoomedByCommitter { by: None },
            AbortReason::ReaderWaitTimeout,
            AbortReason::UserRetry,
        ];
        for r in &reasons {
            assert_eq!(ABORT_REASONS[reason_index(r)], r.label());
        }
    }

    #[test]
    fn shards_are_independent() {
        let reg = MetricsRegistry::new(2);
        reg.thread(0).unwrap().commits.fetch_add(3, Ordering::Relaxed);
        reg.thread(1).unwrap().commits.fetch_add(1, Ordering::Relaxed);
        assert!(reg.thread(2).is_none());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("gstm_tx_commits_total", 0), 3);
        assert_eq!(snap.counter("gstm_tx_commits_total", 1), 1);
    }

    #[test]
    fn gauges_round_trip() {
        let reg = MetricsRegistry::new(1);
        reg.set_gauge("gstm_sim_ticks", 42);
        reg.set_gauge("gstm_sim_ticks", 50);
        assert_eq!(reg.gauge("gstm_sim_ticks"), Some(50));
        assert_eq!(reg.snapshot().gauge_value("gstm_sim_ticks"), Some(50));
    }
}
