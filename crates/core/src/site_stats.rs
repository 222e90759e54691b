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
pub struct SiteStats {
    /// Committed invocations.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Invocations held by the admission policy.
    pub holds: u64,
    /// Maximum aborts a single invocation needed before committing.
    pub worst_retry: u32,
}

impl SiteStats {
    /// Abort ratio for this site.
    pub fn abort_ratio(&self) -> f64 {
        if self.commits + self.aborts == 0 {
            0.0
        } else {
            self.aborts as f64 / (self.commits + self.aborts) as f64
        }
    }
}

/// An [`EventSink`] aggregating per-participant statistics.
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
/// let table = sink.snapshot();
/// assert_eq!(table.len(), 1);
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
    pub fn snapshot(&self) -> BTreeMap<Participant, SiteStats> {
        self.table.lock().clone()
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
        let mut table = self.table.lock();
        match event {
            TxEvent::Begin { .. } => {}
            TxEvent::Abort { who, .. } => {
                table.entry(*who).or_default().aborts += 1;
            }
            TxEvent::Commit { who, aborts, .. } => {
                let e = table.entry(*who).or_default();
                e.commits += 1;
                e.worst_retry = e.worst_retry.max(*aborts);
            }
            TxEvent::Held { who, .. } => {
                table.entry(*who).or_default().holds += 1;
            }
            // Oracle instrumentation events carry no per-site tallies.
            _ => {}
        }
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
