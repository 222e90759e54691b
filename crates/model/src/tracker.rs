//! Online state tracking: the runtime half of guided execution.
//!
//! [`StateTracker`] is an [`EventSink`] that folds the live event stream
//! into the *current* thread transactional state using the same
//! arrival-order grouping as offline model generation: aborts accumulate
//! until the next commit closes the tuple. When wired to a
//! [`GuidedModel`], the tracker resolves each closed tuple to a model
//! [`StateId`] (or *unknown*, in which case guidance stands down — the
//! paper lets threads proceed on states the training runs never captured).
//!
//! The tracker also interns every observed tuple, so the paper's
//! non-determinism measure `|S|` is available for any run — guided or not —
//! without buffering the whole event log.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gstm_core::sync::Mutex;

use gstm_core::{EventSink, Participant, TxEvent};

use crate::online::ModelHandle;
use crate::tsa::GuidedModel;
use crate::tts::{StateId, StateSpace, Tts};

const UNKNOWN: u32 = u32::MAX;

/// Packs a resolved state id with the model epoch it was resolved under.
/// A stale epoch reads back as *unknown*: ids are only meaningful against
/// the model that produced them, so a hot-swap implicitly clears the
/// current state until the next commit resolves against the new model.
fn pack_current(epoch: u64, id: u32) -> u64 {
    ((epoch & 0xFFFF_FFFF) << 32) | u64::from(id)
}

/// Live current-state tracker and non-determinism counter.
#[derive(Debug)]
pub struct StateTracker {
    model: Option<Arc<ModelHandle>>,
    pending: Mutex<Vec<Participant>>,
    observed: Mutex<StateSpace>,
    /// `(epoch << 32) | state_id`, see [`pack_current`].
    current: AtomicU64,
    transitions: AtomicU64,
    unknown_hits: AtomicU64,
}

impl StateTracker {
    /// A tracker with no model: counts non-determinism only (used for the
    /// paper's `ND_only` default-STM measurements).
    pub fn new() -> Self {
        StateTracker {
            model: None,
            pending: Mutex::new(Vec::new()),
            observed: Mutex::new(StateSpace::new()),
            current: AtomicU64::new(pack_current(0, UNKNOWN)),
            transitions: AtomicU64::new(0),
            unknown_hits: AtomicU64::new(0),
        }
    }

    /// A tracker that resolves states against `model` for guidance.
    pub fn with_model(model: Arc<GuidedModel>) -> Self {
        Self::with_handle(Arc::new(ModelHandle::new(model)))
    }

    /// A tracker that resolves states through a shared hot-swap handle:
    /// [`ModelHandle::install`] replaces the model mid-run, and every state
    /// id resolved against the old model immediately reads as unknown.
    pub fn with_handle(handle: Arc<ModelHandle>) -> Self {
        let mut t = StateTracker::new();
        t.model = Some(handle);
        t
    }

    /// The currently served model, if any.
    pub fn model(&self) -> Option<Arc<GuidedModel>> {
        self.model.as_ref().map(|h| h.load())
    }

    /// The hot-swap handle, if this tracker has a model.
    pub fn handle(&self) -> Option<&Arc<ModelHandle>> {
        self.model.as_ref()
    }

    /// Installs a replacement model through the handle.
    ///
    /// # Panics
    ///
    /// Panics if the tracker was built without a model — there is no
    /// serving seam to swap.
    pub fn install_model(&self, model: Arc<GuidedModel>) {
        self.model.as_ref().expect("install_model requires a tracker with a model").install(model);
    }

    /// The model epoch (number of installs; 0 for a model-less tracker).
    pub fn model_epoch(&self) -> u64 {
        self.model.as_ref().map(|h| h.epoch()).unwrap_or(0)
    }

    /// Current state as a model id; `None` while unknown (before the first
    /// commit, when the last tuple is absent from the model, or when the
    /// resolving model has since been swapped out).
    pub fn current_state(&self) -> Option<StateId> {
        let packed = self.current.load(Ordering::SeqCst);
        let id = packed as u32;
        if id == UNKNOWN {
            return None;
        }
        let live_epoch = self.model.as_ref().map(|h| h.epoch()).unwrap_or(0);
        if packed >> 32 != live_epoch & 0xFFFF_FFFF {
            return None;
        }
        Some(StateId(id))
    }

    /// Number of distinct states observed so far — the non-determinism
    /// measure `|S|` of this run.
    pub fn nondeterminism(&self) -> usize {
        self.observed.lock().len()
    }

    /// Number of tuples (commits) observed.
    pub fn transition_count(&self) -> u64 {
        self.transitions.load(Ordering::SeqCst)
    }

    /// How many closed tuples failed to resolve in the model (0 when no
    /// model is attached). High values mean the training input was not
    /// representative — the paper's STAMP "medium input" remark.
    pub fn unknown_state_hits(&self) -> u64 {
        self.unknown_hits.load(Ordering::SeqCst)
    }

    /// Snapshot of the observed state space (for offline inspection).
    pub fn observed_space(&self) -> StateSpace {
        self.observed.lock().clone()
    }
}

impl Default for StateTracker {
    fn default() -> Self {
        StateTracker::new()
    }
}

impl EventSink for StateTracker {
    fn record(&self, event: &TxEvent) {
        match event {
            TxEvent::Abort { who, .. } => {
                self.pending.lock().push(*who);
            }
            TxEvent::Commit { who, .. } => {
                let aborted = std::mem::take(&mut *self.pending.lock());
                let tts = Tts::new(aborted, *who);
                self.observed.lock().intern(tts.clone());
                self.transitions.fetch_add(1, Ordering::SeqCst);
                // Resolve against a consistent (model, epoch) pair: the id
                // is stamped with the epoch of the model that produced it,
                // so an install between resolution and a later read makes
                // the id read back as unknown instead of aliasing a state
                // of the new model.
                let next = match &self.model {
                    Some(handle) => {
                        let (model, epoch) = handle.load_with_epoch();
                        match model.lookup(&tts) {
                            Some(id) => pack_current(epoch, id.0),
                            None => {
                                self.unknown_hits.fetch_add(1, Ordering::SeqCst);
                                pack_current(epoch, UNKNOWN)
                            }
                        }
                    }
                    None => pack_current(0, UNKNOWN),
                };
                self.current.store(next, Ordering::SeqCst);
            }
            // Begin/Held and the oracle's instrumentation events carry no
            // TSA transition.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsa::TsaBuilder;
    use gstm_core::{Abort, AbortReason, CommitSeq, ThreadId, TxId, VarId};

    fn p(t: u16, x: u16) -> Participant {
        Participant::new(ThreadId::new(t), TxId::new(x))
    }

    fn commit(t: u16, x: u16, seq: u64) -> TxEvent {
        TxEvent::Commit {
            who: p(t, x),
            seq: CommitSeq::new(seq),
            aborts: 0,
            reads: 0,
            writes: 0,
            at: 0,
        }
    }

    fn abort(t: u16, x: u16) -> TxEvent {
        TxEvent::Abort {
            who: p(t, x),
            attempt: 0,
            abort: Abort::new(AbortReason::ReadVersion { var: VarId::from_raw(1) }),
            at: 0,
        }
    }

    #[test]
    fn counts_nondeterminism_without_model() {
        let t = StateTracker::new();
        t.record(&commit(0, 0, 1));
        t.record(&commit(0, 0, 2)); // same tuple again
        t.record(&abort(1, 0));
        t.record(&commit(0, 0, 3)); // different tuple
        assert_eq!(t.nondeterminism(), 2);
        assert_eq!(t.transition_count(), 3);
        assert_eq!(t.current_state(), None, "no model → always unknown");
    }

    #[test]
    fn resolves_states_against_model() {
        // Model trained on: {<a0>} → {<a1>} → {<a0>} ...
        let mut b = TsaBuilder::new();
        b.add_run(&[Tts::solo(p(0, 0)), Tts::solo(p(1, 0)), Tts::solo(p(0, 0))]);
        let tsa = b.build();
        let s0 = tsa.lookup(&Tts::solo(p(0, 0))).unwrap();
        let model = Arc::new(GuidedModel::compile(tsa, 4.0));
        let t = StateTracker::with_model(Arc::clone(&model));

        t.record(&commit(0, 0, 1));
        assert_eq!(t.current_state(), Some(s0));

        // An unseen tuple → unknown, counted.
        t.record(&abort(5, 3));
        t.record(&commit(9, 9, 2));
        assert_eq!(t.current_state(), None);
        assert_eq!(t.unknown_state_hits(), 1);
    }

    #[test]
    fn arrival_grouping_matches_offline_parser() {
        let evs = vec![abort(6, 0), commit(7, 1, 1), commit(0, 1, 2)];
        let offline = crate::tseq::parse_states(&evs);
        let tracker = StateTracker::new();
        for e in &evs {
            tracker.record(e);
        }
        let space = tracker.observed_space();
        assert_eq!(space.len(), offline.len());
        for s in &offline {
            assert!(space.lookup(s).is_some(), "offline state {s} must be observed online");
        }
    }

    #[test]
    fn install_invalidates_stale_state_ids() {
        let mut b = TsaBuilder::new();
        b.add_run(&[Tts::solo(p(0, 0)), Tts::solo(p(1, 0))]);
        let old = Arc::new(GuidedModel::compile(b.build(), 4.0));
        let t = StateTracker::with_model(Arc::clone(&old));
        t.record(&commit(0, 0, 1));
        assert!(t.current_state().is_some());

        // New model interns the same tuples in the *opposite* order, so a
        // stale id would alias the wrong state if it survived the swap.
        let mut b2 = TsaBuilder::new();
        b2.add_run(&[Tts::solo(p(1, 0)), Tts::solo(p(0, 0))]);
        let new = Arc::new(GuidedModel::compile(b2.build(), 4.0));
        t.install_model(Arc::clone(&new));
        assert_eq!(t.model_epoch(), 1);
        assert_eq!(t.current_state(), None, "pre-swap id must read as unknown");

        // The next commit resolves against the new model.
        t.record(&commit(1, 0, 2));
        assert_eq!(t.current_state(), new.lookup(&Tts::solo(p(1, 0))));
        assert_eq!(t.unknown_hits.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn handle_is_shared_across_trackers() {
        let mut b = TsaBuilder::new();
        b.add_run(&[Tts::solo(p(0, 0)), Tts::solo(p(1, 0))]);
        let model = Arc::new(GuidedModel::compile(b.build(), 4.0));
        let handle = Arc::new(crate::online::ModelHandle::new(model));
        let t = StateTracker::with_handle(Arc::clone(&handle));
        assert!(t.model().is_some());
        let empty = Arc::new(GuidedModel::compile(TsaBuilder::new().build(), 4.0));
        handle.install(empty);
        assert_eq!(t.model_epoch(), 1, "external installs are visible");
        assert_eq!(t.model().unwrap().tsa().state_count(), 0);
    }

    #[test]
    #[should_panic(expected = "requires a tracker with a model")]
    fn install_on_modelless_tracker_panics() {
        let t = StateTracker::new();
        t.install_model(Arc::new(GuidedModel::compile(TsaBuilder::new().build(), 4.0)));
    }

    #[test]
    fn begin_and_held_do_not_disturb_state() {
        let t = StateTracker::new();
        t.record(&commit(0, 0, 1));
        let before = t.nondeterminism();
        t.record(&TxEvent::Begin { who: p(1, 0), attempt: 0, at: 0 });
        t.record(&TxEvent::Held { who: p(1, 0), polls: 2, at: 0 });
        assert_eq!(t.nondeterminism(), before);
        assert_eq!(t.transition_count(), 1);
    }
}
