//! Sharded per-thread metric registries: the one tally of a run's event
//! stream.
//!
//! Each thread owns a [`ThreadMetrics`] shard: plain `AtomicU64` counters
//! and [`LogHistogram`]s written with `Relaxed` operations, plus the exact
//! aborts-before-commit map behind one mutex that only its own thread
//! takes. Contention between writers is impossible by construction (one
//! shard per thread); cross-thread merging happens only in
//! [`MetricsRegistry::snapshot`], which is off the transactional fast path.

use std::sync::atomic::{AtomicU64, Ordering};

use gstm_core::error::AbortReason;
use gstm_core::sync::Mutex;
use std::collections::BTreeMap;

use crate::histogram::{bucket_of, HistogramSnapshot, LogHistogram};
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

/// One thread's metric shard. All counter writes are `Relaxed`: the counters
/// are monotone event tallies whose cross-thread ordering is irrelevant; the
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
    /// Exact `aborts-before-commit → commits` map: the tail that the paper's
    /// Figs. 5, 7 and 8 are drawn from. One lock per commit.
    pub retries: Mutex<BTreeMap<u32, u64>>,
    /// Polls per hold episode.
    pub polls: LogHistogram,
}

/// The registry: a fixed array of shards plus a small gauge table for
/// low-rate scalar readings (scheduler ticks, hold resolutions).
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
            shards: (0..max_threads).map(|_| ThreadMetrics::default()).collect(),
            gauges: Mutex::new(BTreeMap::new()),
        }
    }

    /// The shards, indexed by thread. Hot-path accessor: no locking.
    #[inline]
    pub fn shards(&self) -> &[ThreadMetrics] {
        &self.shards
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
            snap.set_histogram("gstm_tx_retries", t, log2_series(&shard.retries.lock()));
            snap.set_histogram("gstm_tx_hold_poll_len", t, shard.polls.snapshot());
        }
        for (name, value) in self.gauges.lock().iter() {
            snap.set_gauge(name, *value);
        }
        snap
    }
}

/// Renders an exact `value → count` map as the log2 series a
/// [`LogHistogram`] fed the same values would hold.
fn log2_series(counts: &BTreeMap<u32, u64>) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::empty();
    for (&value, &count) in counts {
        h.buckets[bucket_of(u64::from(value))] += count;
        h.sum += u64::from(value) * count;
    }
    h
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
        reg.shards()[0].commits.fetch_add(3, Ordering::Relaxed);
        reg.shards()[1].commits.fetch_add(1, Ordering::Relaxed);
        assert_eq!(reg.shards().len(), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("gstm_tx_commits_total", 0), 3);
        assert_eq!(snap.counter("gstm_tx_commits_total", 1), 1);
    }

    #[test]
    fn retries_render_as_the_log2_series_of_their_values() {
        let reg = MetricsRegistry::new(1);
        let fed = LogHistogram::new();
        for value in [0u32, 0, 1, 2, 3, 3, 7, 8, 100, 4096, u32::MAX] {
            *reg.shards()[0].retries.lock().entry(value).or_insert(0) += 1;
            fed.record(u64::from(value));
        }
        assert_eq!(reg.snapshot().histogram("gstm_tx_retries", 0), Some(&fed.snapshot()));
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
