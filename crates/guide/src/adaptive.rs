//! Adaptive guidance — an extension beyond the paper.
//!
//! The paper observes that weakly trained models (STAMP's "not
//! representative" medium inputs, vacation at 16 threads) degrade guided
//! execution. [`AdaptivePolicy`] closes that loop at run time, and is the
//! whole loop. As the run's event sink it feeds its [`StateTracker`] and
//! cuts the tuples the tracker closes into windows of [`ADAPTIVE_WINDOW`].
//! As the admission policy it wraps a [`GuidedPolicy`] and, once per
//! window, stands guidance down while more than
//! [`ADAPTIVE_MAX_UNKNOWN_PCT`]% of the window's tuples missed the model
//! (admit-all until the execution returns to well-modelled territory), then
//! runs one retrain step (`online.rs`: merge → §IV gate → hot swap). The
//! check runs once per window, so the policy is cheap on the hot path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use gstm_core::sync::Mutex;
use gstm_core::{AdmissionPolicy, EventSink, Participant, TxEvent};
use gstm_model::{GuidedModel, ModelHandle, StateTracker};
use gstm_telemetry::MetricsRegistry;

use crate::online::{Serving, Windows};
use crate::policy::{GuidedPolicy, DEFAULT_K};

/// Window length, in commit tuples, of the online loop's re-evaluation and
/// retrain cadence ([`PolicyChoice::AdaptiveOnline`](crate::PolicyChoice)).
pub const ADAPTIVE_WINDOW: u64 = 128;

/// The online loop's stand-down threshold: guidance pauses while more than
/// this percentage of a window's tuples miss the model.
pub const ADAPTIVE_MAX_UNKNOWN_PCT: u32 = 60;

/// Guided execution that retrains its model online and stands down on
/// weak-model evidence.
#[derive(Debug)]
pub struct AdaptivePolicy {
    /// The guided policy at [`DEFAULT_K`]; it owns the tracker.
    inner: Arc<GuidedPolicy>,
    /// The hot-swap cell the tracker resolves through.
    handle: Arc<ModelHandle>,
    /// Tuples per window: the re-evaluation cadence and the run length.
    window: u64,
    active: AtomicBool,
    last_transitions: AtomicU64,
    last_unknown: AtomicU64,
    stand_downs: AtomicU64,
    windows: Mutex<Windows>,
    serving: Mutex<Serving>,
}

impl AdaptivePolicy {
    /// Serves `model` through a hot-swap handle, retraining it every
    /// [`ADAPTIVE_WINDOW`] tuples.
    pub fn new(model: Arc<GuidedModel>) -> Self {
        AdaptivePolicy::with_window(model, ADAPTIVE_WINDOW)
    }

    /// [`AdaptivePolicy::new`] with `window`-tuple windows, for small-window
    /// unit tests.
    pub(crate) fn with_window(model: Arc<GuidedModel>, window: u64) -> Self {
        let serving = Serving::new(&model);
        let handle = Arc::new(ModelHandle::new(model));
        let tracker = Arc::new(StateTracker::with_handle(Arc::clone(&handle)));
        AdaptivePolicy {
            inner: Arc::new(GuidedPolicy::new(tracker, DEFAULT_K)),
            handle,
            window,
            active: AtomicBool::new(true),
            last_transitions: AtomicU64::new(0),
            last_unknown: AtomicU64::new(0),
            stand_downs: AtomicU64::new(0),
            windows: Mutex::new(Windows::new(window as usize)),
            serving: Mutex::new(serving),
        }
    }

    /// The guided policy that decides admissions while guidance is engaged.
    pub(crate) fn guided(&self) -> &Arc<GuidedPolicy> {
        &self.inner
    }

    /// Writes the loop's gauges: stand-downs, whether guidance is engaged,
    /// what the retrain steps did, the model epoch and the dropped windows.
    pub(crate) fn set_gauges(&self, registry: &MetricsRegistry) {
        registry
            .set_gauge("gstm_guide_stand_downs_total", self.stand_downs.load(Ordering::Relaxed));
        registry.set_gauge("gstm_guide_active", u64::from(self.active.load(Ordering::Relaxed)));
        let serving = self.serving.lock();
        registry.set_gauge("gstm_guide_retrain_attempts_total", serving.attempts);
        registry.set_gauge("gstm_guide_model_installs_total", serving.installs);
        registry.set_gauge("gstm_guide_model_rejects_total", serving.rejects);
        registry.set_gauge("gstm_guide_model_epoch", self.handle.epoch());
        registry.set_gauge("gstm_guide_ingest_dropped_total", self.windows.lock().dropped);
    }

    /// One retrain step: drain the ready windows, merge, gate, maybe
    /// install. Returns whether a new model was installed.
    pub(crate) fn retrain(&self) -> bool {
        let runs = self.windows.lock().drain();
        self.serving.lock().retrain(&runs, &self.handle)
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
        let should_be_active = unknown_pct <= u64::from(ADAPTIVE_MAX_UNKNOWN_PCT);
        let was = self.active.swap(should_be_active, Ordering::Relaxed);
        if was && !should_be_active {
            self.stand_downs.fetch_add(1, Ordering::Relaxed);
        }
        // The claim makes this thread the window's one retrainer, so the
        // training cost never lands on another admission.
        self.retrain();
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
}

/// The loop's one sink: the tracker closes each tuple once, and the closed
/// tuple joins the open window.
impl EventSink for AdaptivePolicy {
    fn record(&self, event: &TxEvent) {
        if let Some(tts) = self.inner.tracker().close(event) {
            self.windows.lock().push(tts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::MAX_READY;
    use gstm_core::{CommitSeq, ThreadId, TxId};
    use gstm_model::{TsaBuilder, Tts};

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

    fn abort_event(t: u16, x: u16) -> TxEvent {
        TxEvent::Abort {
            who: p(t, x),
            attempt: 0,
            abort: gstm_core::Abort::new(gstm_core::AbortReason::ReadVersion {
                var: gstm_core::VarId::from_raw(1),
            }),
            at: 0,
        }
    }

    fn setup() -> AdaptivePolicy {
        // A model that knows only {<a0>} and {<a1>}; the dominant edge from
        // {<a0>} goes to {<a1>}, so from {<a0>} participant b9 is held. Too
        // small to pass the §IV gate, so every retrain step rejects and the
        // served model never moves.
        let mut b = TsaBuilder::new();
        let mut run = Vec::new();
        for _ in 0..10 {
            run.extend([Tts::solo(p(0, 0)), Tts::solo(p(1, 0))]);
        }
        b.add_run(&run);
        AdaptivePolicy::with_window(Arc::new(GuidedModel::compile(b.build(), 4.0)), 4)
    }

    /// Eight threads, lined up on a barrier, race `admit` through whatever
    /// window is due.
    fn race_admits(adaptive: &AdaptivePolicy) {
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    adaptive.admit(p(1, 9), &mut || {})
                });
            }
        });
    }

    #[test]
    fn stands_down_when_unknown_rate_spikes() {
        let adaptive = setup();
        assert!(adaptive.active.load(Ordering::Relaxed));
        // Feed a window of unknown tuples.
        for seq in 1..=6 {
            adaptive.record(&commit_event(9, 9, seq));
        }
        let mut polls = 0;
        adaptive.admit(p(1, 9), &mut || polls += 1);
        assert!(
            !adaptive.active.load(Ordering::Relaxed),
            "all-unknown window must disable guidance"
        );
        assert_eq!(polls, 0, "stood-down guidance admits immediately");
        assert_eq!(adaptive.stand_downs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn resumes_when_model_matches_again() {
        let adaptive = setup();
        for seq in 1..=6 {
            adaptive.record(&commit_event(9, 9, seq));
        }
        adaptive.admit(p(0, 0), &mut || {});
        assert!(!adaptive.active.load(Ordering::Relaxed));
        // A window of well-modelled tuples re-arms guidance.
        for seq in 7..=12 {
            adaptive.record(&commit_event(seq as u16 % 2, 0, seq));
        }
        adaptive.admit(p(0, 0), &mut || {});
        assert!(
            adaptive.active.load(Ordering::Relaxed),
            "known-state window must re-enable guidance"
        );
    }

    #[test]
    fn active_mode_delegates_holds_to_inner() {
        let adaptive = setup();
        adaptive.record(&commit_event(0, 0, 1)); // current = {<a0>}, known
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
            let adaptive = setup();
            // One full window of unknown tuples, then many threads race
            // the same due window through `admit`.
            for seq in 1..=6 {
                adaptive.record(&commit_event(9, 9, seq));
            }
            race_admits(&adaptive);
            assert!(
                !adaptive.active.load(Ordering::Relaxed),
                "round {round}: all-unknown window must stand down"
            );
            assert_eq!(
                adaptive.stand_downs.load(Ordering::Relaxed),
                1,
                "round {round}: one window must produce exactly one stand-down"
            );
        }
    }

    #[test]
    fn concurrent_loop_lands_each_tuple_in_one_window_and_retrains_once_per_claim() {
        // Four OS threads record through the one sink, then eight race
        // `admit`. Thread t's tuple x is an abort of p(t, 100 + x) and a
        // commit of p(t, 10 + x), a tuple the model never saw; the shared
        // pending list may group an abort with another thread's commit,
        // but never with two.
        let adaptive = setup();
        let record = |per_thread: u16| {
            std::thread::scope(|s| {
                for t in 0..4u16 {
                    let a = &adaptive;
                    s.spawn(move || {
                        for x in 0..per_thread {
                            a.record(&abort_event(t, 100 + x));
                            a.record(&commit_event(t, 10 + x, 0));
                        }
                    });
                }
            });
        };
        let participants = |off: u16, per_thread: u16| {
            let mut v: Vec<_> =
                (0..4).flat_map(|t| (0..per_thread).map(move |x| p(t, off + x))).collect();
            v.sort();
            v
        };

        // 64 tuples, 16 windows: each commit and each abort in exactly one.
        record(16);
        {
            let w = adaptive.windows.lock();
            assert_eq!((w.ready.len(), w.dropped), (16, 0));
            assert!(w.open.is_empty() && w.ready.iter().all(|r| r.len() == 4));
            let mut committers: Vec<_> = w.ready.iter().flatten().map(Tts::committer).collect();
            let mut abortees: Vec<_> =
                w.ready.iter().flatten().flat_map(|s| s.aborted().to_vec()).collect();
            committers.sort();
            abortees.sort();
            assert_eq!(committers, participants(10, 16), "every commit closes one tuple");
            assert_eq!(abortees, participants(100, 16), "every abort joins one tuple");
        }

        // Each due span is claimed once: one retrain attempt that takes
        // every ready window. All tuples miss the model, so guidance stands
        // down at the first claim and stays down; a second claimant of the
        // same span would see no new unknown tuples and re-arm it.
        for round in 1..=20 {
            if round > 1 {
                record(1); // one tuple a thread: exactly one more window
            }
            race_admits(&adaptive);
            assert_eq!(adaptive.serving.lock().attempts, round, "one attempt per claim");
            assert!(adaptive.windows.lock().ready.is_empty(), "the attempt took every window");
            assert!(!adaptive.active.load(Ordering::Relaxed), "round {round}: re-armed");
            assert_eq!(adaptive.stand_downs.load(Ordering::Relaxed), 1, "round {round}");
        }

        // 320 tuples, 80 windows: the ready queue keeps the newest 64 and
        // counts the 16 oldest it dropped, so each thread's surviving
        // commits are the tail of its sequence.
        record(80);
        let w = adaptive.windows.lock();
        assert_eq!((w.ready.len(), w.dropped), (MAX_READY, 16));
        assert!(w.open.is_empty() && w.ready.iter().all(|r| r.len() == 4));
        for t in 0..4u16 {
            let mut xs: Vec<u16> = w
                .ready
                .iter()
                .flatten()
                .map(Tts::committer)
                .filter(|c| c.thread == ThreadId::new(t))
                .map(|c| c.tx.raw() - 10)
                .collect();
            xs.sort_unstable();
            let first = 80 - xs.len() as u16;
            assert_eq!(xs, (first..80).collect::<Vec<_>>(), "thread {t} kept a gapless tail");
        }
        drop(w);
        race_admits(&adaptive);
        assert_eq!(adaptive.serving.lock().attempts, 21, "a span of many windows is one claim");
    }
}
