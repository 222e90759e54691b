//! Adaptive guidance — an extension beyond the paper.
//!
//! The paper observes that weakly trained models (STAMP's "not
//! representative" medium inputs, vacation at 16 threads) degrade guided
//! execution. [`AdaptivePolicy`] closes that loop at run time: it wraps a
//! [`GuidedPolicy`] and monitors the tracker's *unknown-state rate*. While
//! more than `max_unknown_pct`% of recent tuples miss the model, guidance
//! stands down entirely (admit-all); when the execution returns to
//! well-modelled territory, guidance resumes. The check is evaluated every
//! `window` tuples, so the policy is cheap on the hot path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use gstm_core::{AdmissionPolicy, Participant};

use crate::policy::GuidedPolicy;

/// Window length, in commit tuples, of the online loop's re-evaluation and
/// retrain cadence ([`PolicyChoice::AdaptiveOnline`](crate::PolicyChoice)).
pub const ADAPTIVE_WINDOW: u64 = 128;

/// The online loop's stand-down threshold: guidance pauses while more than
/// this percentage of a window's tuples miss the model.
pub const ADAPTIVE_MAX_UNKNOWN_PCT: u32 = 60;

/// Callback fired once per closed evaluation window, by the single thread
/// that claimed it (see [`AdaptivePolicy::with_observer`]). The online
/// retrain loop hangs off this hook: the window barrier is where a fresh
/// model may install, and the claim guarantees at most one retrain attempt
/// per window however many threads race `admit`.
pub trait WindowObserver: Send + Sync {
    /// Called with the window's transition span and its unknown-tuple
    /// share, after the stand-down decision for the window was published.
    fn on_window(&self, transitions: u64, unknown_pct: u64);
}

/// Guided execution with an automatic stand-down on weak-model evidence.
pub struct AdaptivePolicy {
    inner: Arc<GuidedPolicy>,
    /// Disable guidance while unknown tuples exceed this percentage.
    max_unknown_pct: u32,
    /// Re-evaluate every this many observed tuples.
    window: u64,
    active: AtomicBool,
    last_transitions: AtomicU64,
    last_unknown: AtomicU64,
    stand_downs: AtomicU64,
    observer: Option<Arc<dyn WindowObserver>>,
}

impl std::fmt::Debug for AdaptivePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptivePolicy")
            .field("max_unknown_pct", &self.max_unknown_pct)
            .field("window", &self.window)
            .field("active", &self.active)
            .field("stand_downs", &self.stand_downs)
            .field("observer", &self.observer.as_ref().map(|_| "Some(..)"))
            .finish_non_exhaustive()
    }
}

impl AdaptivePolicy {
    /// Wraps `inner`, standing guidance down while more than
    /// `max_unknown_pct`% of the last `window` tuples missed the model.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `max_unknown_pct` exceeds 100.
    pub fn new(inner: Arc<GuidedPolicy>, max_unknown_pct: u32, window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(max_unknown_pct <= 100, "a percentage");
        AdaptivePolicy {
            inner,
            max_unknown_pct,
            window,
            active: AtomicBool::new(true),
            last_transitions: AtomicU64::new(0),
            last_unknown: AtomicU64::new(0),
            stand_downs: AtomicU64::new(0),
            observer: None,
        }
    }

    /// Attaches a per-window observer, called exactly once per claimed
    /// window by the claiming thread.
    pub fn with_observer(mut self, observer: Arc<dyn WindowObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Whether guidance is currently engaged.
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// How many times guidance stood down.
    pub fn stand_downs(&self) -> u64 {
        self.stand_downs.load(Ordering::Relaxed)
    }

    fn reevaluate(&self) {
        let tracker = self.inner.tracker();
        let transitions = tracker.transition_count();
        let last_t = self.last_transitions.load(Ordering::Acquire);
        if transitions < last_t + self.window {
            return;
        }
        // Claim the window: of all threads that saw the same `last_t` and
        // passed the check above, exactly one moves the marker and gets to
        // evaluate (and count) this window. Before the CAS, every such
        // thread would fall through and double-count `stand_downs` on
        // overlapping spans.
        if self
            .last_transitions
            .compare_exchange(last_t, transitions, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let unknown = tracker.unknown_state_hits();
        let last_u = self.last_unknown.swap(unknown, Ordering::AcqRel);
        let dt = transitions - last_t;
        let du = unknown.saturating_sub(last_u);
        let unknown_pct = 100 * du / dt.max(1);
        let should_be_active = unknown_pct <= self.max_unknown_pct as u64;
        let was = self.active.swap(should_be_active, Ordering::Relaxed);
        if was && !should_be_active {
            self.stand_downs.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(obs) = &self.observer {
            obs.on_window(dt, unknown_pct);
        }
    }
}

impl AdmissionPolicy for AdaptivePolicy {
    fn admit(&self, who: Participant, poll: &mut dyn FnMut()) -> u32 {
        self.reevaluate();
        if self.active.load(Ordering::Relaxed) {
            self.inner.admit(who, poll)
        } else {
            0
        }
    }

    fn name(&self) -> &'static str {
        "adaptive-guided"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{CommitSeq, EventSink, ThreadId, TxEvent, TxId};
    use gstm_model::{GuidedModel, StateTracker, TsaBuilder, Tts};

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

    fn setup() -> (Arc<StateTracker>, AdaptivePolicy) {
        // A model that knows only {<a0>} and {<a1>}; the dominant edge from
        // {<a0>} goes to {<a1>}, so from {<a0>} participant b9 is held.
        let mut b = TsaBuilder::new();
        let mut run = Vec::new();
        for _ in 0..10 {
            run.extend([Tts::solo(p(0, 0)), Tts::solo(p(1, 0))]);
        }
        b.add_run(&run);
        let model = Arc::new(GuidedModel::compile(b.build(), 4.0));
        let tracker = Arc::new(StateTracker::with_model(model));
        let inner = Arc::new(GuidedPolicy::new(Arc::clone(&tracker), 4));
        let adaptive = AdaptivePolicy::new(inner, 50, 4);
        (tracker, adaptive)
    }

    #[test]
    fn stands_down_when_unknown_rate_spikes() {
        let (tracker, adaptive) = setup();
        assert!(adaptive.is_active());
        // Feed a window of unknown tuples.
        for seq in 1..=6 {
            tracker.record(&commit_event(9, 9, seq));
        }
        let mut polls = 0;
        adaptive.admit(p(1, 9), &mut || polls += 1);
        assert!(!adaptive.is_active(), "all-unknown window must disable guidance");
        assert_eq!(polls, 0, "stood-down guidance admits immediately");
        assert_eq!(adaptive.stand_downs(), 1);
    }

    #[test]
    fn resumes_when_model_matches_again() {
        let (tracker, adaptive) = setup();
        for seq in 1..=6 {
            tracker.record(&commit_event(9, 9, seq));
        }
        adaptive.admit(p(0, 0), &mut || {});
        assert!(!adaptive.is_active());
        // A window of well-modelled tuples re-arms guidance.
        for seq in 7..=12 {
            tracker.record(&commit_event(seq as u16 % 2, 0, seq));
        }
        adaptive.admit(p(0, 0), &mut || {});
        assert!(adaptive.is_active(), "known-state window must re-enable guidance");
    }

    #[test]
    fn active_mode_delegates_holds_to_inner() {
        let (tracker, adaptive) = setup();
        tracker.record(&commit_event(0, 0, 1)); // current = {<a0>}, known
        let mut polls = 0;
        let spent = adaptive.admit(p(9, 9), &mut || polls += 1);
        assert!(spent > 0, "unknown participant is held while guidance is active");
    }

    #[test]
    fn concurrent_reevaluate_claims_each_window_once() {
        // Regression: two threads passing the `transitions < last_t +
        // window` check before either stored `last_transitions` evaluated
        // overlapping windows and double-incremented `stand_downs`. The
        // CAS claim makes the window a single-winner race whatever the
        // interleaving.
        for round in 0..50 {
            let (tracker, adaptive) = setup();
            // One full window of unknown tuples, then many threads race
            // the same due window through `admit`.
            for seq in 1..=6 {
                tracker.record(&commit_event(9, 9, seq));
            }
            let adaptive = Arc::new(adaptive);
            std::thread::scope(|s| {
                for _ in 0..8 {
                    let a = Arc::clone(&adaptive);
                    s.spawn(move || a.admit(p(1, 9), &mut || {}));
                }
            });
            assert!(!adaptive.is_active(), "round {round}: all-unknown window must stand down");
            assert_eq!(
                adaptive.stand_downs(),
                1,
                "round {round}: one window must produce exactly one stand-down"
            );
        }
    }

    #[test]
    fn observer_fires_once_per_claimed_window() {
        struct Counting(AtomicU64, AtomicU64);
        impl WindowObserver for Counting {
            fn on_window(&self, _transitions: u64, unknown_pct: u64) {
                self.0.fetch_add(1, Ordering::Relaxed);
                self.1.fetch_add(unknown_pct, Ordering::Relaxed);
            }
        }
        let (tracker, adaptive) = setup();
        let obs = Arc::new(Counting(AtomicU64::new(0), AtomicU64::new(0)));
        let adaptive =
            Arc::new(adaptive.with_observer(Arc::clone(&obs) as Arc<dyn WindowObserver>));
        for seq in 1..=6 {
            tracker.record(&commit_event(9, 9, seq));
        }
        std::thread::scope(|s| {
            for _ in 0..8 {
                let a = Arc::clone(&adaptive);
                s.spawn(move || a.admit(p(1, 9), &mut || {}));
            }
        });
        assert_eq!(obs.0.load(Ordering::Relaxed), 1, "one window → one observer call");
        assert_eq!(obs.1.load(Ordering::Relaxed), 100, "all-unknown window reports 100%");
    }
}
