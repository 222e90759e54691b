//! Transaction event stream — the reproduction of the paper's instrumented
//! `TX_start` / `TX_abort` / `TX_commit` hooks.
//!
//! The profiling phase records the full event sequence (the paper's
//! *transaction sequence*, `Tseq`); the model-generation phase in
//! `gstm-model` parses it into thread-transactional-state tuples; guided
//! execution subscribes online via the same trait.

use crate::sync::Mutex;
use std::fmt;
use std::sync::Arc;

use crate::error::Abort;
use crate::ids::{CommitSeq, Participant, VarId};

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
    use crate::ids::{ThreadId, TxId};

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
    fn multicast_fans_out() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let m = MulticastSink::new()
            .with(a.clone() as Arc<dyn EventSink>)
            .with(b.clone() as Arc<dyn EventSink>);
        m.record(&commit(0, 1, 0));
        assert_eq!(a.take(), [commit(0, 1, 0)]);
        assert_eq!(b.take(), [commit(0, 1, 0)]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(commit(6, 4, 1).to_string(), "C a6 #4 after 1 aborts");
    }
}
