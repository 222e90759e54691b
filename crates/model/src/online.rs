//! Online model maintenance: the hot-swap and merge halves of the adaptive
//! guidance loop.
//!
//! The offline workflow (profile → build → analyze → compile) freezes the
//! model before the measured run starts. Under drifting traffic the frozen
//! automaton goes stale; this module provides the two pieces that let a
//! serving system refresh it without stopping:
//!
//! * [`ModelHandle`] — an epoch-stamped swap cell. Policies read the model
//!   through the handle; [`ModelHandle::install`] publishes a replacement
//!   and bumps the epoch, which atomically invalidates every state id
//!   resolved against the old model (see [`crate::StateTracker`]).
//! * [`merge`] — the count-weighted merge: fold freshly observed runs of
//!   the tuples [`crate::StateTracker::close`] hands back into the serving
//!   automaton's edge counts, exactly equivalent to training on the
//!   concatenated run sets (property-tested below).
//!
//! The windows and the retrain cadence live in `gstm-guide`
//! (`AdaptivePolicy`): they are driven by the adaptive policy's window
//! claim, so under the simulator's deterministic schedule the whole loop
//! replays bit-identically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gstm_core::sync::Mutex;

use crate::tsa::{GuidedModel, Tsa, TsaBuilder};
use crate::tts::Tts;

/// An epoch-stamped, swappable handle to the serving [`GuidedModel`].
///
/// Readers call [`ModelHandle::load`] (a short critical section that clones
/// the `Arc`); writers call [`ModelHandle::install`], which replaces the
/// model and bumps the epoch **under the same lock**, so a `(model, epoch)`
/// pair read via [`ModelHandle::load_with_epoch`] is always consistent.
/// State ids are only meaningful against the model that produced them, so
/// consumers stamp every resolved id with the epoch it was resolved under
/// and treat a stale stamp as *unknown* — installing a model therefore
/// doubles as a barrier that releases any hold decided against the old one.
#[derive(Debug)]
pub struct ModelHandle {
    inner: Mutex<Arc<GuidedModel>>,
    /// Mirrors the number of installs; written only under `inner`'s lock,
    /// read without it.
    epoch: AtomicU64,
}

impl ModelHandle {
    /// A handle serving `model` at epoch 0.
    pub fn new(model: Arc<GuidedModel>) -> Self {
        ModelHandle { inner: Mutex::new(model), epoch: AtomicU64::new(0) }
    }

    /// The currently served model.
    pub fn load(&self) -> Arc<GuidedModel> {
        Arc::clone(&self.inner.lock())
    }

    /// The currently served model together with the epoch it belongs to.
    pub fn load_with_epoch(&self) -> (Arc<GuidedModel>, u64) {
        let guard = self.inner.lock();
        (Arc::clone(&guard), self.epoch.load(Ordering::Acquire))
    }

    /// Publishes a replacement model and bumps the epoch.
    pub fn install(&self, model: Arc<GuidedModel>) {
        let mut guard = self.inner.lock();
        *guard = model;
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// The current epoch (number of installs so far).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// Count-weighted merge: rebuilds the serving automaton with its edge
/// counts, then folds in the fresh `runs` — semantically identical to
/// training one automaton on the union of the original and new runs.
///
/// Base states are interned first, in id order, so fresh runs extend the
/// state space instead of scrambling it, and every state the serving model
/// could still be asked to resolve survives the merge.
pub fn merge(base: &Tsa, runs: &[Vec<Tts>]) -> Tsa {
    let mut b = TsaBuilder::new();
    for (_, tts) in base.space().iter() {
        b.add_transition(tts, tts, 0);
    }
    for (id, from) in base.space().iter() {
        for &(to, count) in base.out_edges(id) {
            b.add_transition(from, base.space().state(to), count);
        }
    }
    for run in runs {
        b.add_run(run);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsa::TsaBuilder;
    use gstm_core::{Participant, ThreadId, TxId};

    fn p(t: u16, x: u16) -> Participant {
        Participant::new(ThreadId::new(t), TxId::new(x))
    }

    fn solo(t: u16) -> Tts {
        Tts::solo(p(t, 0))
    }

    /// Semantic equality: same states, same per-state edge multisets —
    /// interning order (hence raw ids and digests) may differ.
    fn assert_same(a: &Tsa, b: &Tsa) {
        assert_eq!(a.state_count(), b.state_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for (id, tts) in a.space().iter() {
            let bid = b.lookup(tts).expect("state preserved");
            let mut ea: Vec<(String, u64)> =
                a.out_edges(id).iter().map(|&(d, c)| (a.space().state(d).to_string(), c)).collect();
            let mut eb: Vec<(String, u64)> = b
                .out_edges(bid)
                .iter()
                .map(|&(d, c)| (b.space().state(d).to_string(), c))
                .collect();
            ea.sort();
            eb.sort();
            assert_eq!(ea, eb, "edges of {tts} preserved");
        }
    }

    #[test]
    fn handle_swaps_and_bumps_epoch() {
        let m1 = Arc::new(GuidedModel::compile(TsaBuilder::new().build(), 4.0));
        let mut b = TsaBuilder::new();
        b.add_run(&[solo(0), solo(1)]);
        let m2 = Arc::new(GuidedModel::compile(b.build(), 4.0));
        let h = ModelHandle::new(Arc::clone(&m1));
        assert_eq!(h.epoch(), 0);
        assert_eq!(h.load().tsa().state_count(), 0);
        h.install(Arc::clone(&m2));
        assert_eq!(h.epoch(), 1);
        assert_eq!(h.load().tsa().state_count(), 2);
        let (m, e) = h.load_with_epoch();
        assert_eq!(e, 1);
        assert_eq!(m.tsa().state_count(), 2);
    }

    #[test]
    fn merge_at_full_weight_equals_training_on_concatenated_runs() {
        // Property: merge(train(runs_a), runs_b) ≡ train(runs_a ∪ runs_b),
        // for several deterministic run shapes.
        type Runs = Vec<Vec<Tts>>;
        let shapes: Vec<(Runs, Runs)> = vec![
            (
                vec![vec![solo(0), solo(1), solo(0), solo(2)]],
                vec![vec![solo(2), solo(0)], vec![solo(1), solo(3), solo(1)]],
            ),
            (
                vec![vec![Tts::new(vec![p(1, 0)], p(2, 1)), solo(2), solo(1)]],
                vec![vec![solo(9)], vec![solo(2), Tts::new(vec![p(1, 0)], p(2, 1))]],
            ),
            // Overlapping edges: the same transition appears in both halves.
            (
                vec![vec![solo(0), solo(1)], vec![solo(0), solo(1)]],
                vec![vec![solo(0), solo(1), solo(0)]],
            ),
        ];
        for (runs_a, runs_b) in shapes {
            let mut base = TsaBuilder::new();
            for r in &runs_a {
                base.add_run(r);
            }
            let merged = merge(&base.build(), &runs_b);
            let mut all = TsaBuilder::new();
            for r in runs_a.iter().chain(runs_b.iter()) {
                all.add_run(r);
            }
            assert_same(&merged, &all.build());
        }
    }
}
