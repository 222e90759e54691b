//! Per-site statistics: commits, aborts and retry depth broken down by
//! `(thread, transaction-site)` — the granularity the paper's model works
//! at. Useful for understanding *which* atomic block causes the variance a
//! benchmark shows.

use std::collections::BTreeMap;

use crate::sync::Mutex;

use crate::events::{EventSink, TxEvent};
use crate::ids::Participant;

/// Aggregate for one `(thread, site)` pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SiteStats {
    /// Committed invocations.
    pub(crate) commits: u64,
    /// Aborted attempts.
    pub(crate) aborts: u64,
    /// Invocations held by the admission policy.
    pub(crate) holds: u64,
    /// Maximum aborts a single invocation needed before committing.
    pub(crate) worst_retry: u32,
}

impl SiteStats {
    /// Abort ratio for this site.
    pub(crate) fn abort_ratio(&self) -> f64 {
        if self.commits + self.aborts == 0 {
            0.0
        } else {
            self.aborts as f64 / (self.commits + self.aborts) as f64
        }
    }
}

/// An [`EventSink`] aggregating per-participant statistics under one lock:
/// a tool for reports and tests, not for the native request path.
///
/// ```
/// use std::sync::Arc;
/// use gstm_core::{SiteStatsSink, Stm, StmConfig, TVar, ThreadId, TxId, EventSink};
///
/// let sink = Arc::new(SiteStatsSink::new());
/// let stm = Stm::with_parts(
///     StmConfig::new(1),
///     Arc::new(gstm_core::NullGate),
///     sink.clone(),
///     Arc::new(gstm_core::AdmitAll),
///     Arc::new(gstm_core::cm::Aggressive),
/// );
/// let v = TVar::new(0i64);
/// stm.run(ThreadId::new(0), TxId::new(3), |tx| tx.write(&v, 1));
/// assert_eq!(*v.load_unlogged(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SiteStatsSink {
    table: Mutex<BTreeMap<Participant, SiteStats>>,
}

impl SiteStatsSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the per-participant table, sorted by participant.
    pub(crate) fn snapshot(&self) -> BTreeMap<Participant, SiteStats> {
        self.table.lock().clone()
    }

    fn tally(&self, who: Participant, update: impl FnOnce(&mut SiteStats)) {
        update(self.table.lock().entry(who).or_default());
    }

    /// Renders a compact text report, worst abort-ratio first.
    pub fn report(&self) -> String {
        let mut rows: Vec<(Participant, SiteStats)> = self.snapshot().into_iter().collect();
        rows.sort_by(|a, b| {
            b.1.abort_ratio().partial_cmp(&a.1.abort_ratio()).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut out = String::from("site      commits  aborts  holds  worst  abort%\n");
        for (p, s) in rows {
            out.push_str(&format!(
                "{:<9} {:<8} {:<7} {:<6} {:<6} {:.1}\n",
                p.to_string(),
                s.commits,
                s.aborts,
                s.holds,
                s.worst_retry,
                s.abort_ratio() * 100.0,
            ));
        }
        out
    }
}

impl EventSink for SiteStatsSink {
    fn record(&self, event: &TxEvent) {
        match event {
            TxEvent::Abort { who, .. } => self.tally(*who, |s| s.aborts += 1),
            TxEvent::Commit { who, aborts, .. } => self.tally(*who, |s| {
                s.commits += 1;
                s.worst_retry = s.worst_retry.max(*aborts);
            }),
            TxEvent::Held { who, .. } => self.tally(*who, |s| s.holds += 1),
            // `Begin` and the oracle instrumentation events carry no
            // per-site tallies, so they take no lock either.
            _ => {}
        }
    }

    fn reads_time(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{Abort, AbortReason};
    use crate::ids::{CommitSeq, ThreadId, TxId, VarId};

    fn p(t: u16, x: u16) -> Participant {
        Participant::new(ThreadId::new(t), TxId::new(x))
    }

    #[test]
    fn aggregates_by_participant() {
        let s = SiteStatsSink::new();
        s.record(&TxEvent::Abort {
            who: p(0, 1),
            attempt: 0,
            abort: Abort::new(AbortReason::ReadVersion { var: VarId::from_raw(1) }),
            at: 0,
        });
        s.record(&TxEvent::Commit {
            who: p(0, 1),
            seq: CommitSeq::new(1),
            aborts: 1,
            reads: 1,
            writes: 1,
            at: 0,
        });
        s.record(&TxEvent::Commit {
            who: p(1, 1),
            seq: CommitSeq::new(2),
            aborts: 0,
            reads: 1,
            writes: 1,
            at: 0,
        });
        s.record(&TxEvent::Held { who: p(0, 1), polls: 3, at: 0 });
        let table = s.snapshot();
        let a = table[&p(0, 1)];
        assert_eq!(a.commits, 1);
        assert_eq!(a.aborts, 1);
        assert_eq!(a.holds, 1);
        assert_eq!(a.worst_retry, 1);
        assert!((a.abort_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(table[&p(1, 1)].abort_ratio(), 0.0);
    }

    fn commit(t: u16, x: u16, aborts: u32) -> TxEvent {
        TxEvent::Commit { who: p(t, x), seq: CommitSeq::new(0), aborts, reads: 0, writes: 0, at: 0 }
    }

    #[test]
    fn concurrent_recording_snapshots_to_the_serial_tally() {
        const THREADS: u16 = 4;
        const ROUNDS: u32 = 500;
        // Every thread tallies two sites of its own and, each round, one of
        // three participants on other thread ids.
        let events = |t: u16| {
            (0..ROUNDS).flat_map(move |i| {
                [
                    TxEvent::Begin { who: p(t, 0), attempt: 0, at: 0 },
                    TxEvent::Abort {
                        who: p(t, (i % 2) as u16),
                        attempt: 0,
                        abort: Abort::new(AbortReason::UserRetry),
                        at: 0,
                    },
                    commit(t, (i % 2) as u16, i % 7),
                    TxEvent::Held {
                        who: p([64, 128, 192][i as usize % 3] + (t + 1) % THREADS, 9),
                        polls: 1,
                        at: 0,
                    },
                ]
            })
        };
        let serial = SiteStatsSink::new();
        (0..THREADS).flat_map(events).for_each(|e| serial.record(&e));

        let shared = SiteStatsSink::new();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (shared, start) = (&shared, &start);
                scope.spawn(move || {
                    start.wait();
                    events(t).for_each(|e| shared.record(&e));
                });
            }
        });
        let table = shared.snapshot();
        assert_eq!(table, serial.snapshot());
        assert_eq!(table[&p(0, 0)].commits, u64::from(ROUNDS) / 2);
        assert_eq!(table[&p(0, 0)].worst_retry, 6);
        assert_eq!(table.len(), usize::from(THREADS) * 2 + usize::from(THREADS) * 3);
    }

    #[test]
    fn begin_only_stream_leaves_the_table_empty() {
        let s = SiteStatsSink::new();
        for t in 0..4 {
            s.record(&TxEvent::Begin { who: p(t, 1), attempt: 0, at: 0 });
        }
        assert!(s.snapshot().is_empty());
        assert!(!s.reads_time());
    }

    #[test]
    fn report_sorts_by_abort_ratio() {
        let s = SiteStatsSink::new();
        for seq in 0..4 {
            s.record(&TxEvent::Commit {
                who: p(0, 0),
                seq: CommitSeq::new(seq),
                aborts: 0,
                reads: 0,
                writes: 0,
                at: 0,
            });
        }
        s.record(&TxEvent::Abort {
            who: p(1, 1),
            attempt: 0,
            abort: Abort::new(AbortReason::UserRetry),
            at: 0,
        });
        s.record(&TxEvent::Commit {
            who: p(1, 1),
            seq: CommitSeq::new(5),
            aborts: 1,
            reads: 0,
            writes: 0,
            at: 0,
        });
        let report = s.report();
        let hot_line = report.lines().nth(1).expect("one data row");
        assert!(hot_line.starts_with("b1"), "worst ratio first: {report}");
    }

    #[test]
    fn empty_sink_reports_header_only() {
        let s = SiteStatsSink::new();
        assert_eq!(s.report().lines().count(), 1);
        assert!(s.snapshot().is_empty());
    }
}
