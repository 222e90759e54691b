//! The bridge from the engine's event stream into the registry:
//! [`MetricsRegistry`] is itself a [`gstm_core::EventSink`], so it composes
//! with the capture sinks through `MulticastSink`, and one run has one tally.

use std::sync::atomic::Ordering::Relaxed;

use gstm_core::{EventSink, TxEvent};

use crate::registry::{reason_index, MetricsRegistry};

impl EventSink for MetricsRegistry {
    fn record(&self, event: &TxEvent) {
        let Some(m) = self.shards().get(event.who().thread.index()) else { return };
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
                *m.retries.lock().entry(*aborts).or_insert(0) += 1;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{Abort, AbortReason};
    use gstm_core::{CommitSeq, Participant, ThreadId, TxId};

    fn who(t: u16) -> Participant {
        Participant::new(ThreadId::new(t), TxId::new(0))
    }

    fn commit(t: u16, aborts: u32) -> TxEvent {
        TxEvent::Commit { who: who(t), seq: CommitSeq::new(1), aborts, reads: 3, writes: 2, at: 3 }
    }

    #[test]
    fn events_land_in_shards() {
        let sink = MetricsRegistry::new(2);
        sink.record(&TxEvent::Begin { who: who(0), attempt: 0, at: 0 });
        sink.record(&TxEvent::Abort {
            who: who(0),
            attempt: 0,
            abort: Abort::new(AbortReason::UserRetry),
            at: 1,
        });
        sink.record(&TxEvent::Begin { who: who(0), attempt: 1, at: 2 });
        sink.record(&commit(0, 1));
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
        let sink = MetricsRegistry::new(1);
        sink.record(&TxEvent::Begin { who: who(9), attempt: 0, at: 0 });
        assert_eq!(sink.snapshot().total("gstm_tx_begins_total"), 0);
    }

    #[test]
    fn commits_tally_the_exact_retry_tail() {
        let sink = MetricsRegistry::new(2);
        for aborts in [0, 0, 2] {
            sink.record(&commit(0, aborts));
        }
        let m = &sink.shards()[0];
        assert_eq!(*m.retries.lock(), [(0, 2), (2, 1)].into());
        assert_eq!(m.commits.load(Relaxed), 3);
        assert_eq!(sink.shards()[1].commits.load(Relaxed), 0);
    }

    #[test]
    fn held_events_counted() {
        let sink = MetricsRegistry::new(1);
        sink.record(&TxEvent::Held { who: who(0), polls: 7, at: 0 });
        sink.record(&TxEvent::Held { who: who(0), polls: 3, at: 0 });
        let m = &sink.shards()[0];
        assert_eq!(m.holds.load(Relaxed), 2);
        assert_eq!(m.hold_polls.load(Relaxed), 10);
    }
}
