//! Recovery oracle: validates that a crash-recovered store is a correct
//! prefix of the run's serial history.
//!
//! The WAL's correctness argument rests on three claims the live run's
//! event stream can certify:
//!
//! 1. the history itself was opaque/serializable ([`crate::check_history`]
//!    — recovery from a broken history proves nothing);
//! 2. the commit sequence numbers the WAL keyed its records by are
//!    **dense**: every value `1..=max` appears on exactly one commit
//!    event, so "sorted, gap-free from the base" really is a prefix of
//!    the serialization order;
//! 3. the recovered watermark does not exceed the run — a recovered
//!    sequence number beyond `max` means the log invented a commit.
//!
//! Together with the caller's digest comparison (recovered store vs a
//! serial replay of the ground-truth ledger up to the watermark) this
//! closes the loop: the recovered state equals the state the serial
//! history prescribes at some prefix the disk actually survived.

use gstm_core::TxEvent;

use crate::{check_history, OracleReport};

/// One recovery-specific violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryViolation {
    /// A commit sequence number appeared on more than one commit event.
    DuplicateSeq {
        /// The duplicated sequence number.
        seq: u64,
    },
    /// A sequence number in `1..=max` never appeared — the WAL's gap-free
    /// prefix rule would silently truncate at this hole.
    MissingSeq {
        /// The absent sequence number.
        seq: u64,
    },
    /// The recovered watermark exceeds the highest sequence the run
    /// actually committed.
    WatermarkBeyondHistory {
        /// The recovered sequence number.
        recovered: u64,
        /// The run's highest commit sequence.
        max: u64,
    },
}

impl std::fmt::Display for RecoveryViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryViolation::DuplicateSeq { seq } => {
                write!(f, "duplicate commit seq {seq} in history")
            }
            RecoveryViolation::MissingSeq { seq } => {
                write!(f, "commit seq {seq} missing: sequence numbers are not dense")
            }
            RecoveryViolation::WatermarkBeyondHistory { recovered, max } => {
                write!(f, "recovered seq {recovered} exceeds the run's max commit seq {max}")
            }
        }
    }
}

/// What [`check_recovery`] found.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// The underlying history oracle's verdict.
    pub(crate) history: OracleReport,
    /// Recovery-specific violations, in discovery order.
    pub violations: Vec<RecoveryViolation>,
    /// Highest commit sequence number in the history.
    pub(crate) max_seq: u64,
    /// Commit events examined.
    pub(crate) commits: usize,
}

impl RecoveryReport {
    /// True when both the history oracle and the recovery checks passed.
    pub fn ok(&self) -> bool {
        self.history.ok() && self.violations.is_empty()
    }

    /// True when there was nothing to check (no commits, or a vacuous
    /// history) — callers must reject `ok() && is_vacuous()`.
    pub fn is_vacuous(&self) -> bool {
        self.commits == 0 || self.history.is_vacuous()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} recovery violations over {} commits (max seq {}); history: {}",
            self.violations.len(),
            self.commits,
            self.max_seq,
            self.history.summary(),
        )
    }
}

/// Certifies a recovered watermark against the run's event history: the
/// history must be clean, its commit sequence numbers dense `1..=max`,
/// and `recovered_seq <= max` (see the module docs).
pub fn check_recovery(events: &[TxEvent], recovered_seq: u64) -> RecoveryReport {
    let history = check_history(events);
    let mut seqs: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            TxEvent::Commit { seq, .. } => Some(seq.raw()),
            _ => None,
        })
        .collect();
    let commits = seqs.len();
    seqs.sort_unstable();
    let max_seq = seqs.last().copied().unwrap_or(0);
    let mut violations = Vec::new();
    let mut expected = 1u64;
    for &seq in &seqs {
        if seq < expected {
            violations.push(RecoveryViolation::DuplicateSeq { seq });
            continue;
        }
        while expected < seq {
            violations.push(RecoveryViolation::MissingSeq { seq: expected });
            expected += 1;
        }
        expected = seq + 1;
    }
    if recovered_seq > max_seq {
        violations.push(RecoveryViolation::WatermarkBeyondHistory {
            recovered: recovered_seq,
            max: max_seq,
        });
    }
    RecoveryReport { history, violations, max_seq, commits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{MemorySink, Stm, StmConfig, TVar, ThreadId, TxId};
    use std::sync::Arc;

    fn run_history(txns: usize) -> Vec<TxEvent> {
        let sink = Arc::new(MemorySink::new());
        let stm = Stm::with_parts(
            StmConfig::builder(1).check_events(true).build(),
            Arc::new(gstm_core::NullGate),
            sink.clone(),
            Arc::new(gstm_core::AdmitAll),
            Arc::new(gstm_core::cm::Aggressive),
        );
        let v = TVar::new(0i64);
        for _ in 0..txns {
            stm.run(ThreadId::new(0), TxId::new(0), |tx| tx.modify(&v, |n| n + 1));
        }
        sink.take()
    }

    #[test]
    fn clean_history_with_valid_watermark_passes() {
        let events = run_history(5);
        let report = check_recovery(&events, 3);
        assert!(report.ok(), "{}", report.summary());
        assert!(!report.is_vacuous());
        assert_eq!(report.max_seq, 5);
        assert_eq!(report.commits, 5);
    }

    #[test]
    fn watermark_beyond_history_is_flagged() {
        let events = run_history(3);
        let report = check_recovery(&events, 4);
        assert!(!report.ok());
        assert!(matches!(
            report.violations[0],
            RecoveryViolation::WatermarkBeyondHistory { recovered: 4, max: 3 }
        ));
    }

    #[test]
    fn missing_and_duplicate_seqs_are_flagged() {
        let mut events = run_history(4);
        // Drop the commit with seq 2 and duplicate the one with seq 3.
        let is_seq =
            |e: &TxEvent, n: u64| matches!(e, TxEvent::Commit { seq, .. } if seq.raw() == n);
        events.retain(|e| !is_seq(e, 2));
        let dup = events.iter().find(|e| is_seq(e, 3)).cloned().unwrap();
        events.push(dup);
        let report = check_recovery(&events, 1);
        assert!(report.violations.contains(&RecoveryViolation::MissingSeq { seq: 2 }));
        assert!(report.violations.contains(&RecoveryViolation::DuplicateSeq { seq: 3 }));
    }

    #[test]
    fn empty_history_is_vacuous() {
        let report = check_recovery(&[], 0);
        assert!(report.is_vacuous());
    }
}
