//! Transaction event stream — the reproduction of the paper's instrumented
//! `TX_start` / `TX_abort` / `TX_commit` hooks.
//!
//! The profiling phase records the full event sequence (the paper's
//! *transaction sequence*, `Tseq`); the model-generation phase in
//! `gstm-model` parses it into thread-transactional-state tuples; guided
//! execution subscribes online via the same trait.

use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::Abort;
#[cfg(test)]
use crate::ids::TxId;
use crate::ids::{CommitSeq, Participant, ThreadId, VarId};

/// One entry of the transaction sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxEvent {
    /// A transaction attempt started (after admission).
    Begin {
        /// Who is executing.
        who: Participant,
        /// Zero-based attempt number within this invocation (aborts so far).
        attempt: u32,
        /// Gate timestamp.
        at: u64,
    },
    /// An attempt aborted.
    Abort {
        /// Who aborted.
        who: Participant,
        /// Zero-based attempt number that failed.
        attempt: u32,
        /// The failed attempt's abort record (reason + attributed culprit).
        abort: Abort,
        /// Gate timestamp.
        at: u64,
    },
    /// An invocation committed.
    Commit {
        /// Who committed.
        who: Participant,
        /// Global commit sequence number.
        seq: CommitSeq,
        /// Aborts this invocation suffered before committing.
        aborts: u32,
        /// Read-set size at commit.
        reads: u32,
        /// Write-set size at commit.
        writes: u32,
        /// Gate timestamp.
        at: u64,
    },
    /// The admission policy held the transaction back (guided execution's
    /// hold loop); recorded once per invocation that was held at least once.
    Held {
        /// Who was held.
        who: Participant,
        /// Number of hold polls spent before proceeding.
        polls: u32,
        /// Gate timestamp when the hold ended.
        at: u64,
    },
    /// Oracle instrumentation: a transactional read observed a value.
    ///
    /// Emitted only when [`crate::StmConfig::check_events`] is set; never
    /// emitted for read-own-writes (those observe the transaction's private
    /// redo log, not shared state).
    ReadCheck {
        /// Who read.
        who: Participant,
        /// The variable read.
        var: VarId,
        /// The lock-table stripe the variable hashes to.
        stripe: u32,
        /// Stripe version observed by the post-read validation.
        version: u64,
        /// Write stamp of the observed value (0 = initial/unlogged value).
        stamp: u64,
        /// The transaction's read version `rv` at this read.
        rv: u64,
        /// Gate timestamp.
        at: u64,
    },
    /// Oracle instrumentation: one redo-log entry was written back to its
    /// cell during commit (step 5 of the TL2 protocol).
    WriteBackCheck {
        /// Who committed.
        who: Participant,
        /// The variable written.
        var: VarId,
        /// The lock-table stripe the variable hashes to.
        stripe: u32,
        /// Fresh write stamp now identifying the installed value.
        stamp: u64,
        /// Whether the stripe's lock word was held by this thread at the
        /// moment of write-back (must always be true — checked by the
        /// oracle's lock-discipline pass).
        held: bool,
        /// Gate timestamp.
        at: u64,
    },
    /// Oracle instrumentation: commit-protocol versions for one successful
    /// commit. Read-only commits report `wv == rv` (no clock tick).
    CommitCheck {
        /// Who committed.
        who: Participant,
        /// Global commit sequence number (matches the `Commit` event).
        seq: CommitSeq,
        /// Read version sampled at begin.
        rv: u64,
        /// Write version assigned by the global clock.
        wv: u64,
        /// Write-set size (0 for read-only commits).
        writes: u32,
        /// Gate timestamp.
        at: u64,
    },
    /// Oracle instrumentation: a snapshot-mode read resolved against a
    /// version ring (`ReadMode::Snapshot` read-only transactions only).
    /// Emitted under the same gating as [`TxEvent::ReadCheck`].
    SnapshotReadCheck {
        /// Who read.
        who: Participant,
        /// The variable read.
        var: VarId,
        /// Write version of the observed ring entry (0 = ring empty, the
        /// read fell back to the cell's initial value).
        wv: u64,
        /// The transaction's snapshot timestamp.
        ts: u64,
        /// Gate timestamp.
        at: u64,
    },
    /// Oracle instrumentation: one stripe unlock, publishing a new version
    /// or restoring the old one.
    UnlockCheck {
        /// Who unlocked.
        who: Participant,
        /// The stripe unlocked.
        stripe: u32,
        /// Whether the lock table agreed this thread owned the stripe.
        owner_ok: bool,
        /// `true` for version-publishing unlocks (successful commit),
        /// `false` for restoring unlocks (abort paths).
        publish: bool,
        /// Gate timestamp.
        at: u64,
    },
}

impl TxEvent {
    /// The participant this event belongs to.
    pub fn who(&self) -> Participant {
        match self {
            TxEvent::Begin { who, .. }
            | TxEvent::Abort { who, .. }
            | TxEvent::Commit { who, .. }
            | TxEvent::Held { who, .. }
            | TxEvent::ReadCheck { who, .. }
            | TxEvent::WriteBackCheck { who, .. }
            | TxEvent::CommitCheck { who, .. }
            | TxEvent::SnapshotReadCheck { who, .. }
            | TxEvent::UnlockCheck { who, .. } => *who,
        }
    }
}

impl fmt::Display for TxEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxEvent::Begin { who, attempt, .. } => write!(f, "B {who} try{attempt}"),
            TxEvent::Abort { who, attempt, abort, .. } => {
                write!(f, "A {who} try{attempt} ({})", abort.reason.label())
            }
            TxEvent::Commit { who, seq, aborts, .. } => {
                write!(f, "C {who} {seq} after {aborts} aborts")
            }
            TxEvent::Held { who, polls, .. } => write!(f, "H {who} {polls} polls"),
            TxEvent::ReadCheck { who, var, version, stamp, rv, .. } => {
                write!(f, "R {who} {var} v{version} s{stamp} rv{rv}")
            }
            TxEvent::WriteBackCheck { who, var, stamp, held, .. } => {
                write!(f, "W {who} {var} s{stamp}{}", if *held { "" } else { " UNHELD" })
            }
            TxEvent::CommitCheck { who, seq, rv, wv, writes, .. } => {
                write!(f, "V {who} {seq} rv{rv} wv{wv} {writes}w")
            }
            TxEvent::SnapshotReadCheck { who, var, wv, ts, .. } => {
                write!(f, "S {who} {var} wv{wv} ts{ts}")
            }
            TxEvent::UnlockCheck { who, stripe, owner_ok, publish, .. } => {
                write!(
                    f,
                    "U {who} stripe{stripe} {}{}",
                    if *publish { "publish" } else { "restore" },
                    if *owner_ok { "" } else { " NONOWNER" },
                )
            }
        }
    }
}

/// Receiver of the transaction event stream.
///
/// Implementations must be thread-safe and fast: they run inline on the
/// transactional fast path. The default no-op sink makes the instrumented
/// engine equivalent to the paper's "default STM" build.
pub trait EventSink: Send + Sync {
    /// Records one event. Order of delivery equals arrival order at the
    /// sink's internal synchronization point.
    fn record(&self, event: &TxEvent);

    /// Whether this sink reads the `at` timestamps of the events it is
    /// handed. The engine asks once, at construction, and hands a sink that
    /// says no `at: 0` instead of sampling the gate clock per event — on a
    /// native gate each sample is a clock read. Say no only if `record`
    /// never looks at `at`.
    fn reads_time(&self) -> bool {
        true
    }
}

/// Discards all events.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&self, _event: &TxEvent) {}

    fn reads_time(&self) -> bool {
        false
    }
}

/// Buffers the full transaction sequence in memory (profiling mode).
///
/// ```
/// use gstm_core::events::{MemorySink, EventSink, TxEvent};
/// use gstm_core::{ThreadId, TxId, Participant};
/// let sink = MemorySink::new();
/// sink.record(&TxEvent::Begin {
///     who: Participant::new(ThreadId::new(0), TxId::new(0)),
///     attempt: 0,
///     at: 0,
/// });
/// assert_eq!(sink.take().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TxEvent>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains and returns all recorded events in arrival order.
    pub fn take(&self) -> Vec<TxEvent> {
        std::mem::take(&mut self.events.lock())
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl EventSink for MemorySink {
    fn record(&self, event: &TxEvent) {
        self.events.lock().push(event.clone());
    }
}

/// Per-thread commit/abort counters plus the **abort-count histogram** that
/// the paper's tail-distribution figures (Figs. 5, 7, 8) are drawn from:
/// for every committed invocation, how many aborts it suffered first.
#[derive(Debug)]
pub struct CountingSink {
    commits: Vec<AtomicU64>,
    aborts: Vec<AtomicU64>,
    holds: Vec<AtomicU64>,
    hold_polls: Vec<AtomicU64>,
    histograms: Vec<Mutex<BTreeMap<u32, u64>>>,
}

impl CountingSink {
    /// Creates counters for `max_threads` threads.
    pub fn new(max_threads: usize) -> Self {
        CountingSink {
            commits: (0..max_threads).map(|_| AtomicU64::new(0)).collect(),
            aborts: (0..max_threads).map(|_| AtomicU64::new(0)).collect(),
            holds: (0..max_threads).map(|_| AtomicU64::new(0)).collect(),
            hold_polls: (0..max_threads).map(|_| AtomicU64::new(0)).collect(),
            histograms: (0..max_threads).map(|_| Mutex::new(BTreeMap::new())).collect(),
        }
    }

    /// Commits executed by `thread`.
    pub fn commits(&self, thread: ThreadId) -> u64 {
        self.commits[thread.index()].load(Ordering::Relaxed)
    }

    /// Aborts suffered by `thread`.
    pub fn aborts(&self, thread: ThreadId) -> u64 {
        self.aborts[thread.index()].load(Ordering::Relaxed)
    }

    /// Invocations of `thread` that were held by the admission policy.
    pub fn holds(&self, thread: ThreadId) -> u64 {
        self.holds[thread.index()].load(Ordering::Relaxed)
    }

    /// Total hold polls charged to `thread`.
    pub fn hold_polls(&self, thread: ThreadId) -> u64 {
        self.hold_polls[thread.index()].load(Ordering::Relaxed)
    }

    /// The abort-count histogram of `thread`: `aborts-before-commit → freq`.
    pub fn abort_histogram(&self, thread: ThreadId) -> BTreeMap<u32, u64> {
        self.histograms[thread.index()].lock().clone()
    }

    /// Abort ratio across all threads: `aborts / (aborts + commits)`.
    pub fn abort_ratio(&self) -> f64 {
        let a: u64 = self.aborts.iter().map(|x| x.load(Ordering::Relaxed)).sum();
        let c: u64 = self.commits.iter().map(|x| x.load(Ordering::Relaxed)).sum();
        if a + c == 0 {
            0.0
        } else {
            a as f64 / (a + c) as f64
        }
    }
}

impl EventSink for CountingSink {
    fn record(&self, event: &TxEvent) {
        match event {
            TxEvent::Begin { .. } => {}
            TxEvent::Abort { who, .. } => {
                if let Some(c) = self.aborts.get(who.thread.index()) {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            }
            TxEvent::Commit { who, aborts, .. } => {
                if let Some(c) = self.commits.get(who.thread.index()) {
                    c.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(h) = self.histograms.get(who.thread.index()) {
                    *h.lock().entry(*aborts).or_insert(0) += 1;
                }
            }
            TxEvent::Held { who, polls, .. } => {
                if let Some(c) = self.holds.get(who.thread.index()) {
                    c.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(c) = self.hold_polls.get(who.thread.index()) {
                    c.fetch_add(*polls as u64, Ordering::Relaxed);
                }
            }
            // Oracle instrumentation events carry no per-thread tallies.
            _ => {}
        }
    }
}

/// Fans one event stream out to several sinks, in order.
#[derive(Default)]
pub struct MulticastSink {
    sinks: Vec<Arc<dyn EventSink>>,
}

impl MulticastSink {
    /// Creates an empty multicast sink (equivalent to [`NullSink`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a downstream sink; returns `self` for chaining.
    pub fn with(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl fmt::Debug for MulticastSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MulticastSink({} sinks)", self.sinks.len())
    }
}

impl EventSink for MulticastSink {
    fn record(&self, event: &TxEvent) {
        for s in &self.sinks {
            s.record(event);
        }
    }

    fn reads_time(&self) -> bool {
        self.sinks.iter().any(|s| s.reads_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AbortReason;

    fn who(t: u16, x: u16) -> Participant {
        Participant::new(ThreadId::new(t), TxId::new(x))
    }

    fn commit(t: u16, seq: u64, aborts: u32) -> TxEvent {
        TxEvent::Commit {
            who: who(t, 0),
            seq: CommitSeq::new(seq),
            aborts,
            reads: 1,
            writes: 1,
            at: 0,
        }
    }

    #[test]
    fn memory_sink_preserves_order() {
        let s = MemorySink::new();
        s.record(&commit(0, 1, 0));
        s.record(&commit(1, 2, 3));
        let evs = s.take();
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[1], TxEvent::Commit { aborts: 3, .. }));
        assert!(s.is_empty());
    }

    #[test]
    fn counting_sink_histogram() {
        let s = CountingSink::new(2);
        s.record(&commit(0, 1, 0));
        s.record(&commit(0, 2, 0));
        s.record(&commit(0, 3, 2));
        let h = s.abort_histogram(ThreadId::new(0));
        assert_eq!(h.get(&0), Some(&2));
        assert_eq!(h.get(&2), Some(&1));
        assert_eq!(s.commits(ThreadId::new(0)), 3);
        assert_eq!(s.commits(ThreadId::new(1)), 0);
    }

    #[test]
    fn counting_sink_abort_ratio() {
        let s = CountingSink::new(1);
        s.record(&TxEvent::Abort {
            who: who(0, 0),
            attempt: 0,
            abort: Abort::new(AbortReason::UserRetry),
            at: 0,
        });
        s.record(&commit(0, 1, 1));
        assert!((s.abort_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn multicast_fans_out() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(CountingSink::new(1));
        let m = MulticastSink::new()
            .with(a.clone() as Arc<dyn EventSink>)
            .with(b.clone() as Arc<dyn EventSink>);
        m.record(&commit(0, 1, 0));
        assert_eq!(a.len(), 1);
        assert_eq!(b.commits(ThreadId::new(0)), 1);
    }

    #[test]
    fn held_events_counted() {
        let s = CountingSink::new(1);
        s.record(&TxEvent::Held { who: who(0, 0), polls: 7, at: 0 });
        s.record(&TxEvent::Held { who: who(0, 0), polls: 3, at: 0 });
        assert_eq!(s.holds(ThreadId::new(0)), 2);
        assert_eq!(s.hold_polls(ThreadId::new(0)), 10);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(commit(6, 4, 1).to_string(), "C a6 #4 after 1 aborts");
    }
}
