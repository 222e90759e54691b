//! [`TelemetrySink`] — the bridge from the engine's event stream into the
//! metric registry and the flight recorder.
//!
//! It implements [`gstm_core::EventSink`], so it composes with the existing
//! capture sinks through `MulticastSink`: profiling capture and live
//! telemetry can subscribe to the same run.

use std::sync::Arc;

use gstm_core::events::{EventSink, TxEvent};

use crate::recorder::{AnomalyConfig, AnomalyDump, FlightRecorder};
use crate::registry::{reason_index, MetricsRegistry};
use crate::snapshot::Snapshot;

/// An event sink that tallies every event into per-thread shards and feeds
/// the flight recorder.
#[derive(Debug)]
pub struct TelemetrySink {
    registry: Arc<MetricsRegistry>,
    recorder: FlightRecorder,
}

impl TelemetrySink {
    /// Creates a sink with a fresh registry for `max_threads` threads and a
    /// default-configured flight recorder.
    pub fn new(max_threads: usize) -> Self {
        TelemetrySink {
            registry: Arc::new(MetricsRegistry::new(max_threads)),
            recorder: FlightRecorder::new(max_threads, 256, AnomalyConfig::default()),
        }
    }

    /// The underlying registry (for gauge writers and snapshotting).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Merged snapshot of the registry.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Drains anomaly dumps captured so far.
    pub fn take_anomalies(&self) -> Vec<AnomalyDump> {
        self.recorder.take_anomalies()
    }
}

impl EventSink for TelemetrySink {
    fn record(&self, event: &TxEvent) {
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(m) = self.registry.thread(event.who().thread.index()) {
            match event {
                TxEvent::Begin { .. } => {
                    m.begins.fetch_add(1, Relaxed);
                }
                TxEvent::Abort { abort, .. } => {
                    m.aborts.fetch_add(1, Relaxed);
                    m.aborts_by_reason[reason_index(&abort.reason)].fetch_add(1, Relaxed);
                }
                TxEvent::Commit { aborts, reads, writes, .. } => {
                    m.commits.fetch_add(1, Relaxed);
                    m.retries.record(u64::from(*aborts));
                    m.reads.record(u64::from(*reads));
                    m.writes.record(u64::from(*writes));
                }
                TxEvent::Held { polls, .. } => {
                    m.holds.fetch_add(1, Relaxed);
                    m.hold_polls.fetch_add(u64::from(*polls), Relaxed);
                    m.polls.record(u64::from(*polls));
                }
                // Oracle instrumentation events carry no per-thread metrics.
                _ => {}
            }
        }
        self.recorder.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::error::{Abort, AbortReason};
    use gstm_core::{CommitSeq, Participant, ThreadId, TxId};

    fn who(t: u16) -> Participant {
        Participant::new(ThreadId::new(t), TxId::new(0))
    }

    #[test]
    fn events_land_in_shards() {
        let sink = TelemetrySink::new(2);
        sink.record(&TxEvent::Begin { who: who(0), attempt: 0, at: 0 });
        sink.record(&TxEvent::Abort {
            who: who(0),
            attempt: 0,
            abort: Abort::new(AbortReason::UserRetry),
            at: 1,
        });
        sink.record(&TxEvent::Begin { who: who(0), attempt: 1, at: 2 });
        sink.record(&TxEvent::Commit {
            who: who(0),
            seq: CommitSeq::new(1),
            aborts: 1,
            reads: 3,
            writes: 2,
            at: 3,
        });
        sink.record(&TxEvent::Held { who: who(1), polls: 5, at: 0 });
        let snap = sink.snapshot();
        assert_eq!(snap.counter("gstm_tx_begins_total", 0), 2);
        assert_eq!(snap.counter("gstm_tx_aborts_total", 0), 1);
        assert_eq!(snap.counter("gstm_tx_commits_total", 0), 1);
        assert_eq!(snap.counter("gstm_tx_holds_total", 1), 1);
        assert_eq!(snap.counter("gstm_tx_hold_polls_total", 1), 5);
        assert_eq!(snap.histogram("gstm_tx_retries", 0).unwrap().sum, 1);
        assert_eq!(snap.histogram("gstm_tx_read_set", 0).unwrap().sum, 3);
        assert!(snap.to_text().contains("reason=\"user-retry\"} 1"));
    }

    #[test]
    fn out_of_range_thread_is_ignored() {
        let sink = TelemetrySink::new(1);
        sink.record(&TxEvent::Begin { who: who(9), attempt: 0, at: 0 });
        assert_eq!(sink.snapshot().total("gstm_tx_begins_total"), 0);
    }
}
