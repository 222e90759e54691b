//! The guided-execution admission policy (§V of the paper).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gstm_core::{AdmissionPolicy, Participant};
use gstm_model::StateTracker;

/// Default hold-retry bound `k` (§V: "if the current state does not change
/// after `k` such retries, the transaction is allowed to proceed to avoid
/// deadlock and ensure progress"). Following the paper's wording, `k`
/// bounds consecutive polls **without a state change**: when the system
/// stalls (e.g. the other threads sit at a phase barrier and nobody can
/// commit), the hold releases after only `k` polls, while an actively
/// committing system may legitimately hold a transaction across several
/// state changes. The paper does not publish its value; 16 balances
/// guidance strength against progress in our calibration.
pub const DEFAULT_K: u32 = 16;

/// Hard cap on total polls per hold, as a multiple of `k` — the progress
/// guarantee against a system whose state keeps changing without ever
/// admitting us.
pub(crate) const TOTAL_POLL_FACTOR: u32 = 8;

/// Model-driven admission: holds a transaction back while its `(thread, tx)`
/// pair is not part of any high-probability destination state of the
/// current state.
///
/// The policy re-reads the current state before every poll — a concurrent
/// commit may move the system to a state whose destinations *do* include us
/// (the `U ∈ D` edge in the paper's Figure 2). After `k` polls the
/// transaction proceeds unconditionally; unknown states (never captured
/// during training) also proceed immediately.
#[derive(Debug)]
pub struct GuidedPolicy {
    tracker: Arc<StateTracker>,
    k: u32,
    immediate: AtomicU64,
    admitted_later: AtomicU64,
    bailed_out: AtomicU64,
}

/// How the policy's holds resolved — diagnostics for tuning `k` and the
/// poll cost (printed by the experiment harness in verbose mode).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct HoldStats {
    /// Invocations admitted without any poll.
    pub immediate: u64,
    /// Invocations admitted after the current state changed mid-hold.
    pub admitted_later: u64,
    /// Invocations released by the `k` progress bound.
    pub bailed_out: u64,
}

impl GuidedPolicy {
    /// Creates a policy over a tracker that was built with a model
    /// ([`StateTracker::with_model`]).
    ///
    /// # Panics
    ///
    /// Panics if the tracker has no model: a model-less tracker can never
    /// resolve a current state, making this policy a silent no-op — a
    /// configuration bug.
    pub fn new(tracker: Arc<StateTracker>, k: u32) -> Self {
        assert!(tracker.model().is_some(), "GuidedPolicy requires a tracker with a model");
        GuidedPolicy {
            tracker,
            k,
            immediate: AtomicU64::new(0),
            admitted_later: AtomicU64::new(0),
            bailed_out: AtomicU64::new(0),
        }
    }

    /// Snapshot of how holds have resolved so far.
    pub(crate) fn hold_stats(&self) -> HoldStats {
        HoldStats {
            immediate: self.immediate.load(Ordering::Relaxed),
            admitted_later: self.admitted_later.load(Ordering::Relaxed),
            bailed_out: self.bailed_out.load(Ordering::Relaxed),
        }
    }
}

impl AdmissionPolicy for GuidedPolicy {
    fn admit(&self, who: Participant, poll: &mut dyn FnMut()) -> u32 {
        let model = self.tracker.model().expect("checked at construction");
        let mut polls = 0;
        let mut stale = 0; // consecutive polls without a state change
        let mut last_seen = None;
        let outcome = loop {
            if stale >= self.k || polls >= self.k * TOTAL_POLL_FACTOR {
                break &self.bailed_out;
            }
            match self.tracker.current_state() {
                // Unknown state: training never captured it; let the thread
                // run so the system moves back into known territory.
                None => break if polls == 0 { &self.immediate } else { &self.admitted_later },
                Some(current) if model.admits(current, who) => {
                    break if polls == 0 { &self.immediate } else { &self.admitted_later };
                }
                Some(current) => {
                    if last_seen != Some(current) {
                        last_seen = Some(current);
                        stale = 0;
                    }
                    poll();
                    polls += 1;
                    stale += 1;
                }
            }
        };
        outcome.fetch_add(1, Ordering::Relaxed);
        polls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{CommitSeq, EventSink, ThreadId, TxEvent, TxId};
    use gstm_model::{GuidedModel, StateTracker, Tsa, TsaBuilder, Tts};

    fn p(t: u16, x: u16) -> Participant {
        Participant::new(ThreadId::new(t), TxId::new(x))
    }

    fn commit_event(t: u16, x: u16, seq: u64) -> TxEvent {
        TxEvent::Commit {
            who: p(t, x),
            seq: CommitSeq::new(seq),
            aborts: 0,
            reads: 0,
            writes: 0,
            at: 0,
        }
    }

    /// Model: from {<a0>} the dominant destination is {<a1>}; {<b2>} is rare.
    fn model() -> Tsa {
        let mut b = TsaBuilder::new();
        let mut run = Vec::new();
        for _ in 0..9 {
            run.extend([Tts::solo(p(0, 0)), Tts::solo(p(1, 0))]);
        }
        run.extend([Tts::solo(p(0, 0)), Tts::solo(p(2, 1))]);
        b.add_run(&run);
        b.build()
    }

    fn policy(k: u32) -> (Arc<StateTracker>, GuidedPolicy) {
        let gm = Arc::new(GuidedModel::compile(model(), 4.0));
        let tracker = Arc::new(StateTracker::with_model(gm));
        let p = GuidedPolicy::new(Arc::clone(&tracker), k);
        (tracker, p)
    }

    #[test]
    fn admits_before_first_commit() {
        let (_tracker, pol) = policy(8);
        let mut polls = 0;
        assert_eq!(pol.admit(p(2, 1), &mut || polls += 1), 0);
        assert_eq!(polls, 0);
    }

    #[test]
    fn admits_participant_of_hot_destination() {
        let (tracker, pol) = policy(8);
        tracker.record(&commit_event(0, 0, 1)); // current = {<a0>}
        let mut polls = 0;
        assert_eq!(pol.admit(p(1, 0), &mut || polls += 1), 0);
    }

    #[test]
    fn holds_rare_participant_until_k() {
        let (tracker, pol) = policy(5);
        tracker.record(&commit_event(0, 0, 1));
        let mut polls = 0;
        let spent = pol.admit(p(2, 1), &mut || polls += 1);
        assert_eq!(spent, 5, "held for exactly k polls, then released");
        assert_eq!(polls, 5);
    }

    #[test]
    fn released_when_state_changes_mid_hold() {
        let (tracker, pol) = policy(100);
        tracker.record(&commit_event(0, 0, 1)); // {<a0>}: holds b2
        let tracker2 = Arc::clone(&tracker);
        let mut polls = 0;
        let spent = pol.admit(p(2, 1), &mut || {
            polls += 1;
            if polls == 3 {
                // A concurrent commit moves to an unknown state → release.
                tracker2.record(&commit_event(9, 9, 2));
            }
        });
        assert_eq!(spent, 3);
    }

    #[test]
    #[should_panic(expected = "requires a tracker with a model")]
    fn modelless_tracker_rejected() {
        let _ = GuidedPolicy::new(Arc::new(StateTracker::new()), 8);
    }
}
