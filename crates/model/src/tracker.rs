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

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use gstm_core::sync::Mutex;

use gstm_core::{EventSink, Participant, TxEvent};

use crate::tsa::GuidedModel;
use crate::tts::{StateId, StateSpace, Tts};

/// The `current` value while no model state is known.
const UNKNOWN: u32 = u32::MAX;

/// Live current-state tracker and non-determinism counter.
#[derive(Debug)]
pub struct StateTracker {
    model: Option<Arc<GuidedModel>>,
    pending: Mutex<Vec<Participant>>,
    observed: Mutex<StateSpace>,
    /// The current state's id in `model`, or [`UNKNOWN`].
    current: AtomicU32,
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
            current: AtomicU32::new(UNKNOWN),
            transitions: AtomicU64::new(0),
            unknown_hits: AtomicU64::new(0),
        }
    }

    /// A tracker that resolves states against `model` for guidance.
    pub fn with_model(model: Arc<GuidedModel>) -> Self {
        StateTracker { model: Some(model), ..StateTracker::new() }
    }

    /// The model states resolve against, if any.
    pub fn model(&self) -> Option<&Arc<GuidedModel>> {
        self.model.as_ref()
    }

    /// Current state as a model id; `None` while unknown (before the first
    /// commit, or when the last tuple is absent from the model).
    pub fn current_state(&self) -> Option<StateId> {
        let id = self.current.load(Ordering::SeqCst);
        (id != UNKNOWN).then_some(StateId(id))
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

    /// Folds one event into the current state and hands back the tuple a
    /// commit closes (`None` for any other event). This is the one online
    /// grouping of aborts into tuples; the offline reference is
    /// [`crate::parse_states`].
    pub fn close(&self, event: &TxEvent) -> Option<Tts> {
        match event {
            TxEvent::Abort { who, .. } => {
                self.pending.lock().push(*who);
                None
            }
            TxEvent::Commit { who, .. } => {
                let aborted = std::mem::take(&mut *self.pending.lock());
                let tts = Tts::new(aborted, *who);
                self.observed.lock().intern(&tts);
                self.transitions.fetch_add(1, Ordering::SeqCst);
                let next = match self.model.as_ref().map(|model| model.lookup(&tts)) {
                    Some(Some(id)) => id.0,
                    Some(None) => {
                        self.unknown_hits.fetch_add(1, Ordering::SeqCst);
                        UNKNOWN
                    }
                    None => UNKNOWN,
                };
                self.current.store(next, Ordering::SeqCst);
                Some(tts)
            }
            // Begin/Held and the oracle's instrumentation events carry no
            // TSA transition.
            _ => None,
        }
    }
}

impl Default for StateTracker {
    fn default() -> Self {
        StateTracker::new()
    }
}

impl EventSink for StateTracker {
    fn record(&self, event: &TxEvent) {
        self.close(event);
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

    /// An engine-generated contended log: four simulated threads bump
    /// three shared counters, so commits arrive interleaved with aborts.
    fn contended_log() -> Vec<TxEvent> {
        use gstm_core::{cm::Aggressive, AdmitAll, MemorySink, Stm, StmConfig, TVar};
        use gstm_sim::{SimConfig, SimMachine};
        let machine = SimMachine::new(SimConfig::new(4, 5));
        let sink = Arc::new(MemorySink::new());
        let stm = Arc::new(Stm::with_parts(
            StmConfig::new(4),
            machine.gate(),
            Arc::clone(&sink) as Arc<dyn EventSink>,
            Arc::new(AdmitAll),
            Arc::new(Aggressive),
        ));
        let hot: Vec<TVar<i64>> = (0..3).map(|_| TVar::new(0)).collect();
        let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4u16)
            .map(|t| {
                let (stm, hot) = (Arc::clone(&stm), hot.clone());
                Box::new(move || {
                    for k in 0..30usize {
                        let v = &hot[k % hot.len()];
                        stm.run(ThreadId::new(t), TxId::new((k % 2) as u16), |tx| {
                            let x = tx.read(v)?;
                            tx.work(12);
                            tx.write(v, x + 1)
                        });
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        machine.run(workers);
        sink.take()
    }

    #[test]
    fn arrival_grouping_matches_offline_parser() {
        let events = contended_log();
        let tracker = StateTracker::new();
        let online: Vec<Tts> = events.iter().filter_map(|e| tracker.close(e)).collect();
        let offline = crate::tseq::parse_states(&events);
        assert!(online.iter().any(|s| !s.aborted().is_empty()), "the log must carry aborts");
        assert_eq!(online.len(), offline.len());
        for (i, (on, off)) in online.iter().zip(&offline).enumerate() {
            assert_eq!(on, off, "tuple {i}: the tracker closed {on}, the parser built {off}");
        }
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
