//! Baseline policies the paper argues against.
//!
//! * [`BoundedAbortsPolicy`] — §I's dismissed "potential approach": locally
//!   "prioritize a thread after a certain number of aborts by assigning a
//!   commit priority". The paper predicts this "can sacrifice the essence
//!   of STM execution, i.e. speculation and fairness" without addressing
//!   *global* variance.
//! * [`DeterministicPolicy`] — a DeSTM-style (§IX) fully deterministic
//!   commit order: threads are admitted round-robin. Maximal repeatability,
//!   but it removes speculation entirely — the slowdown end of the
//!   spectrum guided execution is meant to avoid.
//!
//! Both are [`AdmissionPolicy`] + [`EventSink`] pairs: the sink half
//! observes aborts/commits, the policy half gates admission. The
//! `ablate-policy` experiment compares them against guided execution.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use gstm_core::{AdmissionPolicy, EventSink, Participant, TxEvent};

/// No-priority sentinel for [`BoundedAbortsPolicy`]'s holder word.
const NO_HOLDER: u32 = u32::MAX;

/// Local abort-bounding: when a thread accumulates `limit` consecutive
/// aborts it becomes the *priority holder*; all other threads are held at
/// admission (up to `max_polls`) until it commits.
#[derive(Debug)]
pub(crate) struct BoundedAbortsPolicy {
    limit: u32,
    max_polls: u32,
    holder: AtomicU32,
    streaks: Vec<AtomicU32>,
}

impl BoundedAbortsPolicy {
    /// Creates the policy for `max_threads` threads; a thread is promoted
    /// after `limit` consecutive aborts.
    pub(crate) fn new(max_threads: usize, limit: u32, max_polls: u32) -> Self {
        BoundedAbortsPolicy {
            limit: limit.max(1),
            max_polls,
            holder: AtomicU32::new(NO_HOLDER),
            streaks: (0..max_threads).map(|_| AtomicU32::new(0)).collect(),
        }
    }
}

impl EventSink for BoundedAbortsPolicy {
    fn record(&self, event: &TxEvent) {
        match event {
            TxEvent::Abort { who, .. } => {
                let i = who.thread.index();
                if let Some(s) = self.streaks.get(i) {
                    let streak = s.fetch_add(1, Ordering::Relaxed) + 1;
                    if streak >= self.limit {
                        let _ = self.holder.compare_exchange(
                            NO_HOLDER,
                            who.thread.raw() as u32,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                    }
                }
            }
            TxEvent::Commit { who, .. } => {
                if let Some(s) = self.streaks.get(who.thread.index()) {
                    s.store(0, Ordering::Relaxed);
                }
                // The holder committing releases the priority.
                let _ = self.holder.compare_exchange(
                    who.thread.raw() as u32,
                    NO_HOLDER,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
            }
            // Begin/Held and oracle instrumentation events leave streaks
            // untouched.
            _ => {}
        }
    }
}

impl AdmissionPolicy for BoundedAbortsPolicy {
    fn admit(&self, who: Participant, poll: &mut dyn FnMut()) -> u32 {
        let mut polls = 0;
        while polls < self.max_polls {
            let holder = self.holder.load(Ordering::SeqCst);
            if holder == NO_HOLDER || holder == who.thread.raw() as u32 {
                break;
            }
            poll();
            polls += 1;
        }
        polls
    }
}

/// DeSTM-style determinism: threads may only begin transactions in strict
/// round-robin order of thread id; the turn advances on every commit.
///
/// Finished threads would starve the ring, so a thread whose turn check
/// stalls for `max_polls` without any commit happening is admitted anyway
/// (the paper's DeSTM solves this with per-thread quanta; the bound keeps
/// the baseline simple while preserving progress).
#[derive(Debug)]
pub(crate) struct DeterministicPolicy {
    threads: u32,
    max_polls: u32,
    turn: AtomicU32,
    commits_seen: AtomicU64,
}

impl DeterministicPolicy {
    /// Creates the policy for `max_threads` threads.
    pub(crate) fn new(max_threads: usize, max_polls: u32) -> Self {
        DeterministicPolicy {
            threads: max_threads as u32,
            max_polls,
            turn: AtomicU32::new(0),
            commits_seen: AtomicU64::new(0),
        }
    }
}

impl EventSink for DeterministicPolicy {
    fn record(&self, event: &TxEvent) {
        if let TxEvent::Commit { .. } = event {
            self.commits_seen.fetch_add(1, Ordering::SeqCst);
            let next = (self.turn.load(Ordering::SeqCst) + 1) % self.threads;
            self.turn.store(next, Ordering::SeqCst);
        }
    }
}

impl AdmissionPolicy for DeterministicPolicy {
    fn admit(&self, who: Participant, poll: &mut dyn FnMut()) -> u32 {
        let mut polls = 0;
        let mut last_commits = self.commits_seen.load(Ordering::SeqCst);
        let mut stall = 0;
        while self.turn.load(Ordering::SeqCst) != who.thread.raw() as u32 {
            if stall >= self.max_polls {
                // The ring is stuck (the turn thread finished); skip it so
                // the rest of the system can progress.
                let cur = self.turn.load(Ordering::SeqCst);
                let _ = self.turn.compare_exchange(
                    cur,
                    (cur + 1) % self.threads,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                stall = 0;
                continue;
            }
            poll();
            polls += 1;
            let commits = self.commits_seen.load(Ordering::SeqCst);
            if commits == last_commits {
                stall += 1;
            } else {
                last_commits = commits;
                stall = 0;
            }
        }
        polls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{Abort, AbortReason, CommitSeq, ThreadId, TxId, VarId};

    fn p(t: u16) -> Participant {
        Participant::new(ThreadId::new(t), TxId::new(0))
    }

    fn abort_ev(t: u16) -> TxEvent {
        TxEvent::Abort {
            who: p(t),
            attempt: 0,
            abort: Abort::new(AbortReason::ReadVersion { var: VarId::from_raw(1) }),
            at: 0,
        }
    }

    fn commit_ev(t: u16, seq: u64) -> TxEvent {
        TxEvent::Commit {
            who: p(t),
            seq: CommitSeq::new(seq),
            aborts: 0,
            reads: 0,
            writes: 0,
            at: 0,
        }
    }

    #[test]
    fn bounded_aborts_promotes_and_releases() {
        let pol = BoundedAbortsPolicy::new(4, 2, 100);
        // Nobody held initially.
        assert_eq!(pol.admit(p(1), &mut || {}), 0);
        pol.record(&abort_ev(0));
        pol.record(&abort_ev(0)); // streak 2 → promoted
                                  // Other threads are held; the holder itself passes.
        assert_eq!(pol.admit(p(0), &mut || {}), 0);
        let mut polls = 0;
        let spent = pol.admit(p(1), &mut || {
            polls += 1;
            if polls == 3 {
                pol.record(&commit_ev(0, 1)); // holder commits → release
            }
        });
        assert_eq!(spent, 3);
    }

    #[test]
    fn bounded_aborts_commit_resets_streak() {
        let pol = BoundedAbortsPolicy::new(2, 3, 10);
        pol.record(&abort_ev(0));
        pol.record(&abort_ev(0));
        pol.record(&commit_ev(0, 1));
        pol.record(&abort_ev(0));
        // Promoted, thread 0 would hold thread 1 for all 10 polls.
        assert_eq!(pol.admit(p(1), &mut || {}), 0, "streak was reset by the commit");
    }

    #[test]
    fn deterministic_enforces_turn_order() {
        let pol = DeterministicPolicy::new(3, 100);
        // Thread 0's turn: passes immediately; thread 1 waits for a commit.
        assert_eq!(pol.admit(p(0), &mut || {}), 0);
        let mut polls = 0;
        let spent = pol.admit(p(1), &mut || {
            polls += 1;
            if polls == 2 {
                pol.record(&commit_ev(0, 1)); // turn advances to 1
            }
        });
        assert_eq!(spent, 2);
    }

    #[test]
    fn deterministic_skips_stuck_turn() {
        let pol = DeterministicPolicy::new(2, 4);
        // Turn is 0 and nothing ever commits: thread 1 must eventually be
        // admitted via the stall skip.
        let spent = pol.admit(p(1), &mut || {});
        assert!(spent >= 4, "must have stalled before skipping, got {spent}");
    }
}
