//! # gstm-check — offline opacity/serializability oracle
//!
//! Consumes a recorded [`TxEvent`] history (produced by gstm-core with
//! `StmConfig::check_events` enabled) and verifies, per run:
//!
//! 1. **Serializable commit order.** Committed writer transactions admit a
//!    serial order consistent with the global version clock: every writer's
//!    `wv` strictly exceeds its `rv`, write versions are unique, and
//!    read-only commits never tick the clock (`wv == rv`).
//! 2. **Opacity — no zombie reads.** Every successful read, in committed
//!    *and aborted* attempts alike, observed exactly the latest committed
//!    write to its variable with `wv <= rv` (or the initial value when no
//!    such write exists). This is sound for TL2 because a committer locks a
//!    written stripe *before* ticking the clock to obtain `wv` and holds
//!    the lock until it publishes: any read sandwich that passed the
//!    pre/post lock-word check therefore ran entirely outside every commit
//!    window that could have changed the value, so the freshest value it
//!    may legally see is the one published by the last committed write with
//!    `wv <= rv`. Older values are stale reads, higher-`wv` values leaked
//!    through a commit in flight, and values from no committed write at
//!    all are dirty reads of someone's redo log.
//! 3. **Lock discipline.** Every write-back ran under a stripe lock held
//!    by the writer, every unlock was performed by the stripe's owner, and
//!    every write-back is claimed by a following commit of the same thread
//!    (an unclaimed one means values were published without a commit).
//!
//! Reads are matched to writes by **write stamps**: under the `check`
//! feature every transactional write-back brands the cell with a globally
//! unique stamp (0 = initial value), so the oracle identifies *which*
//! write a read observed without comparing payloads. One precondition
//! follows: a workload checked by the oracle must not call
//! `TVar::store_unlogged` while transactions are in flight, since unlogged
//! stores reset the stamp.
//!
//! The oracle is deliberately decoupled from the engine — it sees only the
//! event stream. Feed it with clean runs (expect zero violations), chaos
//! runs under `gstm_sim::ChaosGate` (still zero — faults may abort
//! transactions but must never break opacity), or a deliberately broken
//! engine (`Stm::set_broken_early_write_back`; the oracle must object).
//!
//! ```
//! use gstm_check::check_history;
//! use gstm_core::{MemorySink, Stm, StmConfig, TVar, ThreadId, TxId};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let stm = Stm::with_parts(
//!     StmConfig::builder(1).check_events(true).build(),
//!     Arc::new(gstm_core::NullGate),
//!     sink.clone(),
//!     Arc::new(gstm_core::AdmitAll),
//!     Arc::new(gstm_core::cm::Aggressive),
//! );
//! let v = TVar::new(0i64);
//! stm.run(ThreadId::new(0), TxId::new(0), |tx| tx.modify(&v, |n| n + 1));
//! let report = check_history(&sink.take());
//! assert!(report.ok() && !report.is_vacuous());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use gstm_core::{Participant, TxEvent, VarId};

pub mod block;
pub mod recovery;

pub use block::{
    check_block_equivalence, check_conserved_total, BlockRecord, BlockReport, BlockViolation,
};
pub use recovery::{check_recovery, RecoveryReport, RecoveryViolation};

/// One invariant violation found by [`check_history`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A write-back ran on a stripe the writer did not hold locked.
    UnheldWriteBack {
        /// The offending writer.
        who: Participant,
        /// Variable written.
        var: VarId,
        /// Stamp the write-back installed.
        stamp: u64,
    },
    /// An unlock was refused because the caller did not own the stripe.
    NonOwnerUnlock {
        /// The offending releaser.
        who: Participant,
        /// Stripe index.
        stripe: u32,
    },
    /// A write-back was never claimed by a commit of the same thread —
    /// values reached shared cells without a commit covering them.
    DanglingWriteBack {
        /// The writer whose attempt ended without committing the value.
        who: Participant,
        /// Variable written.
        var: VarId,
        /// Stamp the write-back installed.
        stamp: u64,
    },
    /// A read observed an older committed write than the latest one with
    /// `wv <= rv` — a stale snapshot that inline validation must reject.
    StaleRead {
        /// The reader.
        who: Participant,
        /// Variable read.
        var: VarId,
        /// The reader's snapshot version.
        rv: u64,
        /// Stamp the reader observed (0 = initial value).
        observed: u64,
        /// Stamp it should have observed.
        expected: u64,
    },
    /// A read observed a committed write with `wv > rv` — a value from the
    /// reader's future that leaked through a commit window.
    FutureRead {
        /// The reader.
        who: Participant,
        /// Variable read.
        var: VarId,
        /// The reader's snapshot version.
        rv: u64,
        /// The observed write's version.
        wv: u64,
        /// Stamp the reader observed.
        stamp: u64,
    },
    /// A read observed a stamp no committed write ever produced — a dirty
    /// read of an in-flight (or aborted) redo log.
    DirtyRead {
        /// The reader.
        who: Participant,
        /// Variable read.
        var: VarId,
        /// The observed stamp.
        stamp: u64,
    },
    /// A writer committed with `wv <= rv`, which the clock protocol makes
    /// impossible (the tick happens after the snapshot).
    NonMonotoneWriter {
        /// The writer.
        who: Participant,
        /// Its snapshot version.
        rv: u64,
        /// Its write version.
        wv: u64,
    },
    /// Two committed writers published the same write version.
    DuplicateWriteVersion {
        /// The duplicated version.
        wv: u64,
    },
    /// A read-only commit reported `wv != rv` — it must not tick the clock.
    ReadOnlyCommitTicked {
        /// The committer.
        who: Participant,
        /// Its snapshot version.
        rv: u64,
        /// The reported write version.
        wv: u64,
    },
    /// A writer commit declared a different write-set size than the number
    /// of write-backs it performed.
    WriteCountMismatch {
        /// The writer.
        who: Participant,
        /// Write-backs observed in the stream.
        logged: u32,
        /// Write-set size the commit declared.
        declared: u32,
    },
    /// A snapshot read observed a version newer than its snapshot
    /// timestamp — the MVCC read path leaked a future commit.
    SnapshotFutureRead {
        /// The reader.
        who: Participant,
        /// Variable read.
        var: VarId,
        /// The reader's snapshot timestamp.
        ts: u64,
        /// The observed version (`> ts`).
        wv: u64,
    },
    /// A snapshot read observed an older committed version than the newest
    /// one with `wv <= ts` — the version ring GC evicted a version an
    /// active reader still needed.
    SnapshotStaleRead {
        /// The reader.
        who: Participant,
        /// Variable read.
        var: VarId,
        /// The reader's snapshot timestamp.
        ts: u64,
        /// Version the reader observed (0 = initial-value fallback).
        observed: u64,
        /// Version it should have observed.
        expected: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::UnheldWriteBack { who, var, stamp } => {
                write!(f, "unheld write-back: {who} wrote {var} (stamp {stamp}) without the lock")
            }
            Violation::NonOwnerUnlock { who, stripe } => {
                write!(f, "non-owner unlock: {who} released stripe {stripe} it did not own")
            }
            Violation::DanglingWriteBack { who, var, stamp } => {
                write!(
                    f,
                    "dangling write-back: {who} published {var} (stamp {stamp}) with no commit"
                )
            }
            Violation::StaleRead { who, var, rv, observed, expected } => write!(
                f,
                "stale read: {who} at rv {rv} saw {var} stamp {observed}, expected {expected}"
            ),
            Violation::FutureRead { who, var, rv, wv, stamp } => write!(
                f,
                "future read: {who} at rv {rv} saw {var} stamp {stamp} from commit wv {wv}"
            ),
            Violation::DirtyRead { who, var, stamp } => {
                write!(f, "dirty read: {who} saw {var} stamp {stamp} from no committed write")
            }
            Violation::NonMonotoneWriter { who, rv, wv } => {
                write!(f, "non-monotone writer: {who} committed wv {wv} <= rv {rv}")
            }
            Violation::DuplicateWriteVersion { wv } => {
                write!(f, "duplicate write version: two commits published wv {wv}")
            }
            Violation::ReadOnlyCommitTicked { who, rv, wv } => {
                write!(f, "read-only commit ticked the clock: {who} rv {rv} -> wv {wv}")
            }
            Violation::WriteCountMismatch { who, logged, declared } => write!(
                f,
                "write count mismatch: {who} logged {logged} write-backs, declared {declared}"
            ),
            Violation::SnapshotFutureRead { who, var, ts, wv } => {
                write!(f, "snapshot future read: {who} at ts {ts} saw {var} version wv {wv}")
            }
            Violation::SnapshotStaleRead { who, var, ts, observed, expected } => write!(
                f,
                "snapshot stale read: {who} at ts {ts} saw {var} wv {observed}, expected {expected}"
            ),
        }
    }
}

/// What [`check_history`] found, plus coverage counters so callers can
/// reject vacuous passes.
#[derive(Clone, Debug, Default)]
pub struct OracleReport {
    /// Every violation, in discovery order.
    pub violations: Vec<Violation>,
    /// Read observations examined.
    pub reads: usize,
    /// Commits examined (writers and read-only).
    pub commits: usize,
    /// Committed writer transactions among them.
    pub writers: usize,
    /// Write-backs examined.
    pub write_backs: usize,
    /// Snapshot-mode read observations examined (MVCC read path).
    pub snapshot_reads: usize,
}

impl OracleReport {
    /// True when no violation was found.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// True when the history contained nothing to check — a clean verdict
    /// over a vacuous history proves nothing (e.g. `check_events` was left
    /// off), so harnesses must treat `ok() && is_vacuous()` as a failure.
    pub fn is_vacuous(&self) -> bool {
        self.reads == 0 && self.write_backs == 0 && self.snapshot_reads == 0
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} violations over {} reads, {} commits ({} writers), {} write-backs",
            self.violations.len(),
            self.reads,
            self.commits,
            self.writers,
            self.write_backs,
        )
    }
}

/// A write-back waiting for its thread's next commit to claim it.
struct PendingWrite {
    who: Participant,
    var: VarId,
    stamp: u64,
}

/// Checks one recorded history against the oracle invariants (module docs).
///
/// Events must appear in per-thread program order, which every
/// [`gstm_core::MemorySink`]-style sink preserves; interleaving *between*
/// threads is irrelevant to the oracle.
pub fn check_history(events: &[TxEvent]) -> OracleReport {
    let mut report = OracleReport::default();
    // Pass 1: stream once, attaching write-backs to the commits that claim
    // them and collecting the per-variable committed-write history.
    let mut pending: BTreeMap<u16, Vec<PendingWrite>> = BTreeMap::new();
    let mut reads: Vec<(Participant, VarId, u64, u64)> = Vec::new();
    let mut snap_reads: Vec<(Participant, VarId, u64, u64)> = Vec::new(); // (who, var, wv, ts)
    let mut committed: BTreeMap<VarId, Vec<(u64, u64)>> = BTreeMap::new(); // var -> [(wv, stamp)]
    let mut wv_seen: BTreeSet<u64> = BTreeSet::new();
    for event in events {
        match event {
            TxEvent::ReadCheck { who, var, stamp, rv, .. } => {
                report.reads += 1;
                reads.push((*who, *var, *stamp, *rv));
            }
            TxEvent::SnapshotReadCheck { who, var, wv, ts, .. } => {
                report.snapshot_reads += 1;
                // The timestamp rule needs no history: an observed version
                // above the snapshot is wrong no matter what committed.
                if wv > ts {
                    report.violations.push(Violation::SnapshotFutureRead {
                        who: *who,
                        var: *var,
                        ts: *ts,
                        wv: *wv,
                    });
                } else {
                    snap_reads.push((*who, *var, *wv, *ts));
                }
            }
            TxEvent::WriteBackCheck { who, var, stamp, held, .. } => {
                report.write_backs += 1;
                if !held {
                    report.violations.push(Violation::UnheldWriteBack {
                        who: *who,
                        var: *var,
                        stamp: *stamp,
                    });
                }
                pending.entry(who.thread.raw()).or_default().push(PendingWrite {
                    who: *who,
                    var: *var,
                    stamp: *stamp,
                });
            }
            TxEvent::UnlockCheck { who, stripe, owner_ok, .. } if !owner_ok => {
                report.violations.push(Violation::NonOwnerUnlock { who: *who, stripe: *stripe });
            }
            TxEvent::CommitCheck { who, rv, wv, writes, .. } => {
                report.commits += 1;
                let claimed = pending.remove(&who.thread.raw()).unwrap_or_default();
                if *writes == 0 {
                    if wv != rv {
                        report.violations.push(Violation::ReadOnlyCommitTicked {
                            who: *who,
                            rv: *rv,
                            wv: *wv,
                        });
                    }
                    for w in claimed {
                        report.violations.push(Violation::DanglingWriteBack {
                            who: w.who,
                            var: w.var,
                            stamp: w.stamp,
                        });
                    }
                    continue;
                }
                report.writers += 1;
                if wv <= rv {
                    report.violations.push(Violation::NonMonotoneWriter {
                        who: *who,
                        rv: *rv,
                        wv: *wv,
                    });
                }
                if !wv_seen.insert(*wv) {
                    report.violations.push(Violation::DuplicateWriteVersion { wv: *wv });
                }
                if claimed.len() != *writes as usize {
                    report.violations.push(Violation::WriteCountMismatch {
                        who: *who,
                        logged: claimed.len() as u32,
                        declared: *writes,
                    });
                }
                for w in claimed {
                    committed.entry(w.var).or_default().push((*wv, w.stamp));
                }
            }
            TxEvent::Abort { who, .. } => {
                // The attempt rolled back: any write-back it performed
                // reached shared cells without a commit covering it.
                for w in pending.remove(&who.thread.raw()).unwrap_or_default() {
                    report.violations.push(Violation::DanglingWriteBack {
                        who: w.who,
                        var: w.var,
                        stamp: w.stamp,
                    });
                }
            }
            _ => {}
        }
    }
    // A truncated history can end mid-commit; anything still pending was
    // never claimed.
    for (_, writes) in pending {
        for w in writes {
            report.violations.push(Violation::DanglingWriteBack {
                who: w.who,
                var: w.var,
                stamp: w.stamp,
            });
        }
    }

    // Pass 2: judge every read against the committed-write history.
    let mut stamp_to_wv: BTreeMap<u64, u64> = BTreeMap::new();
    for history in committed.values_mut() {
        history.sort_unstable();
        for &(wv, stamp) in history.iter() {
            stamp_to_wv.insert(stamp, wv);
        }
    }
    let empty: Vec<(u64, u64)> = Vec::new();
    for (who, var, observed, rv) in reads {
        let history = committed.get(&var).unwrap_or(&empty);
        // The latest committed write with wv <= rv is what the read must
        // have seen; stamp 0 (the initial value) when there is none.
        let cut = history.partition_point(|&(wv, _)| wv <= rv);
        let expected = if cut == 0 { 0 } else { history[cut - 1].1 };
        if observed == expected {
            continue;
        }
        match stamp_to_wv.get(&observed) {
            Some(&wv) if wv > rv => {
                report.violations.push(Violation::FutureRead { who, var, rv, wv, stamp: observed });
            }
            Some(_) => {
                report.violations.push(Violation::StaleRead { who, var, rv, observed, expected });
            }
            None if observed == 0 => {
                // Saw the initial value although a committed write with
                // wv <= rv exists: the freshest legal value was missed.
                report.violations.push(Violation::StaleRead { who, var, rv, observed, expected });
            }
            None => {
                report.violations.push(Violation::DirtyRead { who, var, stamp: observed });
            }
        }
    }
    // Snapshot reads are judged by version, not stamp: the read must have
    // resolved to the newest committed version with wv <= ts (0 = the
    // initial value when no such version exists). Anything older means the
    // ring GC evicted a version a live reader still needed.
    for (who, var, observed, ts) in snap_reads {
        let history = committed.get(&var).unwrap_or(&empty);
        let cut = history.partition_point(|&(wv, _)| wv <= ts);
        let expected = if cut == 0 { 0 } else { history[cut - 1].0 };
        if observed != expected {
            report.violations.push(Violation::SnapshotStaleRead {
                who,
                var,
                ts,
                observed,
                expected,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{Abort, AbortReason, CommitSeq, ThreadId, TxId};

    fn who(t: u16) -> Participant {
        Participant::new(ThreadId::new(t), TxId::new(0))
    }

    fn read(t: u16, var: u64, stamp: u64, rv: u64) -> TxEvent {
        TxEvent::ReadCheck {
            who: who(t),
            var: VarId::from_raw(var),
            stripe: var as u32,
            version: 0,
            stamp,
            rv,
            at: 0,
        }
    }

    fn wb(t: u16, var: u64, stamp: u64, held: bool) -> TxEvent {
        TxEvent::WriteBackCheck {
            who: who(t),
            var: VarId::from_raw(var),
            stripe: var as u32,
            stamp,
            held,
            at: 0,
        }
    }

    fn commit(t: u16, rv: u64, wv: u64, writes: u32) -> TxEvent {
        TxEvent::CommitCheck { who: who(t), seq: CommitSeq::new(wv), rv, wv, writes, at: 0 }
    }

    fn unlock(t: u16, owner_ok: bool) -> TxEvent {
        TxEvent::UnlockCheck { who: who(t), stripe: 0, owner_ok, publish: true, at: 0 }
    }

    fn abort(t: u16) -> TxEvent {
        TxEvent::Abort { who: who(t), attempt: 0, abort: Abort::new(AbortReason::UserRetry), at: 0 }
    }

    fn sread(t: u16, var: u64, wv: u64, ts: u64) -> TxEvent {
        TxEvent::SnapshotReadCheck { who: who(t), var: VarId::from_raw(var), wv, ts, at: 0 }
    }

    #[test]
    fn clean_history_passes_and_is_not_vacuous() {
        let events =
            vec![wb(0, 1, 10, true), commit(0, 0, 1, 1), read(1, 1, 10, 1), commit(1, 1, 1, 0)];
        let report = check_history(&events);
        assert!(report.ok(), "{:?}", report.violations);
        assert!(!report.is_vacuous());
        assert_eq!((report.reads, report.commits, report.writers), (1, 2, 1));
    }

    #[test]
    fn empty_history_is_vacuous() {
        let report = check_history(&[]);
        assert!(report.ok() && report.is_vacuous());
    }

    #[test]
    fn initial_value_read_is_legal_before_any_commit() {
        let report = check_history(&[read(0, 1, 0, 5), commit(0, 5, 5, 0)]);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn stale_read_of_older_committed_write() {
        let events = vec![
            wb(0, 1, 10, true),
            commit(0, 0, 1, 1),
            wb(0, 1, 11, true),
            commit(0, 1, 2, 1),
            read(1, 1, 10, 2), // rv 2 covers wv 2: must see stamp 11
        ];
        let report = check_history(&events);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::StaleRead { observed: 10, expected: 11, .. }]
        ));
    }

    #[test]
    fn stale_read_of_initial_value() {
        let events = vec![wb(0, 1, 10, true), commit(0, 0, 1, 1), read(1, 1, 0, 1)];
        let report = check_history(&events);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::StaleRead { observed: 0, expected: 10, .. }]
        ));
    }

    #[test]
    fn future_read_from_a_later_commit() {
        let events = vec![wb(0, 1, 10, true), commit(0, 0, 1, 1), read(1, 1, 10, 0)];
        let report = check_history(&events);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::FutureRead { wv: 1, stamp: 10, .. }]
        ));
    }

    #[test]
    fn dirty_read_of_an_uncommitted_stamp() {
        let report = check_history(&[read(1, 1, 99, 4)]);
        assert!(matches!(report.violations.as_slice(), [Violation::DirtyRead { stamp: 99, .. }]));
    }

    #[test]
    fn unheld_write_back_is_flagged() {
        let events = vec![wb(0, 1, 10, false), commit(0, 0, 1, 1)];
        let report = check_history(&events);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::UnheldWriteBack { stamp: 10, .. }]
        ));
    }

    #[test]
    fn non_owner_unlock_is_flagged() {
        let report = check_history(&[unlock(0, false)]);
        assert!(matches!(report.violations.as_slice(), [Violation::NonOwnerUnlock { .. }]));
    }

    #[test]
    fn write_back_without_commit_dangles() {
        for tail in [vec![abort(0)], vec![]] {
            let mut events = vec![wb(0, 1, 10, true)];
            events.extend(tail);
            let report = check_history(&events);
            assert!(
                matches!(report.violations.as_slice(), [Violation::DanglingWriteBack { .. }]),
                "{:?}",
                report.violations
            );
        }
    }

    #[test]
    fn non_monotone_writer_is_flagged() {
        let events = vec![wb(0, 1, 10, true), commit(0, 5, 5, 1)];
        let report = check_history(&events);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NonMonotoneWriter { rv: 5, wv: 5, .. })));
    }

    #[test]
    fn duplicate_write_version_is_flagged() {
        let events =
            vec![wb(0, 1, 10, true), commit(0, 0, 3, 1), wb(1, 2, 11, true), commit(1, 0, 3, 1)];
        let report = check_history(&events);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DuplicateWriteVersion { wv: 3 })));
    }

    #[test]
    fn read_only_commit_must_not_tick() {
        let report = check_history(&[commit(0, 4, 5, 0)]);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::ReadOnlyCommitTicked { rv: 4, wv: 5, .. }]
        ));
    }

    #[test]
    fn write_count_mismatch_is_flagged() {
        let events = vec![wb(0, 1, 10, true), commit(0, 0, 1, 2)];
        let report = check_history(&events);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::WriteCountMismatch { logged: 1, declared: 2, .. })));
    }

    #[test]
    fn interleaved_threads_attach_write_backs_correctly() {
        // Thread 1's write-backs land between thread 0's write-back and
        // commit; per-thread attachment must not confuse them.
        let events = vec![
            wb(0, 1, 10, true),
            wb(1, 2, 20, true),
            commit(1, 0, 1, 1),
            commit(0, 1, 2, 1),
            read(2, 1, 10, 2),
            read(2, 2, 20, 2),
            commit(2, 2, 2, 0),
        ];
        let report = check_history(&events);
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.writers, 2);
    }

    #[test]
    fn summary_and_display_render() {
        let report = check_history(&[read(1, 1, 99, 4)]);
        assert!(report.summary().contains("1 violations"));
        let text = report.violations[0].to_string();
        assert!(text.contains("dirty read"), "{text}");
    }

    #[test]
    fn clean_snapshot_reads_pass_and_count() {
        let events = vec![
            wb(0, 1, 10, true),
            commit(0, 0, 3, 1),
            wb(0, 1, 11, true),
            commit(0, 3, 7, 1),
            sread(1, 1, 3, 5), // ts 5 covers wv 3 but not wv 7
            sread(1, 1, 7, 9), // ts 9 covers wv 7
            sread(1, 2, 0, 9), // never-written var: initial-value fallback
        ];
        let report = check_history(&events);
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.snapshot_reads, 3);
        assert!(!report.is_vacuous());
    }

    #[test]
    fn snapshot_read_newer_than_ts_is_flagged() {
        let events = vec![wb(0, 1, 10, true), commit(0, 0, 7, 1), sread(1, 1, 7, 5)];
        let report = check_history(&events);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::SnapshotFutureRead { ts: 5, wv: 7, .. }]
        ));
    }

    #[test]
    fn snapshot_read_of_evicted_version_is_stale() {
        // wv 3 and wv 7 both committed; a reader at ts 9 resolving to wv 3
        // means the ring dropped wv 7 — or, reading the initial value (0),
        // dropped everything.
        for (observed, expected) in [(3u64, 7u64), (0, 7)] {
            let events = vec![
                wb(0, 1, 10, true),
                commit(0, 0, 3, 1),
                wb(0, 1, 11, true),
                commit(0, 3, 7, 1),
                sread(1, 1, observed, 9),
            ];
            let report = check_history(&events);
            assert!(
                matches!(
                    report.violations.as_slice(),
                    [Violation::SnapshotStaleRead { ts: 9, observed: o, expected: e, .. }]
                        if *o == observed && *e == expected
                ),
                "observed {observed}: {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn snapshot_violations_render() {
        let f =
            Violation::SnapshotFutureRead { who: who(1), var: VarId::from_raw(1), ts: 5, wv: 7 };
        assert!(f.to_string().contains("snapshot future read"), "{f}");
        let s = Violation::SnapshotStaleRead {
            who: who(1),
            var: VarId::from_raw(1),
            ts: 9,
            observed: 3,
            expected: 7,
        };
        assert!(s.to_string().contains("snapshot stale read"), "{s}");
    }

    /// End-to-end: a snapshot-mode engine under read/write interference
    /// produces a history the oracle accepts, with snapshot reads counted.
    #[test]
    fn live_snapshot_engine_history_is_clean() {
        use gstm_core::{MemorySink, ReadMode, Stm, StmConfig, TVar, ThreadId, TxId};
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        let stm = Stm::with_parts(
            StmConfig::builder(2).read_mode(ReadMode::Snapshot).check_events(true).build(),
            Arc::new(gstm_core::NullGate),
            sink.clone(),
            Arc::new(gstm_core::AdmitAll),
            Arc::new(gstm_core::cm::Aggressive),
        );
        let v = TVar::new(0i64);
        for i in 0..5 {
            stm.run(ThreadId::new(0), TxId::new(0), |tx| tx.write(&v, i));
            stm.run_read_only(ThreadId::new(1), TxId::new(1), |tx| tx.read(&v));
        }
        let report = check_history(&sink.take());
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.snapshot_reads, 5);
        assert!(!report.is_vacuous());
    }
}
