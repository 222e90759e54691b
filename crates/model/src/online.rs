//! Online model maintenance: the ingestion and hot-swap halves of the
//! adaptive guidance loop.
//!
//! The offline workflow (profile → build → analyze → compile) freezes the
//! model before the measured run starts. Under drifting traffic the frozen
//! automaton goes stale; this module provides the three pieces that let a
//! serving system refresh it without stopping:
//!
//! * [`ModelHandle`] — an epoch-stamped swap cell. Policies read the model
//!   through the handle; [`ModelHandle::install`] publishes a replacement
//!   and bumps the epoch, which atomically invalidates every state id
//!   resolved against the old model (see [`crate::StateTracker`]).
//! * [`WindowIngest`] — an [`EventSink`] that taps the live event stream
//!   and groups closed tuples into fixed-length runs, ready for
//!   incremental training.
//! * [`merge`] — the count-weighted merge: fold the freshly observed runs
//!   into the serving automaton's edge counts, exactly equivalent to
//!   training on the concatenated run sets (property-tested below).
//!
//! The retrain **cadence** lives in `gstm-guide` (`OnlineRetrainer`): it is
//! driven by the adaptive policy's window claim, so under the simulator's
//! deterministic schedule the whole loop replays bit-identically.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gstm_core::sync::Mutex;
use gstm_core::{EventSink, Participant, TxEvent};

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

/// Taps the live event stream and accumulates per-window transition runs.
///
/// Uses the same arrival-order grouping as [`crate::StateTracker`] and the
/// offline parser: aborts pend until the next commit closes the tuple.
/// Every `run_len` closed tuples become one independent run in the ready
/// queue (runs never bridge, matching [`TsaBuilder::add_run`] semantics —
/// the one edge lost at each window boundary is noise at any useful
/// `run_len`). The queue is bounded: if the trainer falls behind, the
/// oldest run is dropped and counted, never blocking the hot path.
#[derive(Debug)]
pub struct WindowIngest {
    run_len: usize,
    max_ready: usize,
    pending: Mutex<Vec<Participant>>,
    open: Mutex<Vec<Tts>>,
    ready: Mutex<VecDeque<Vec<Tts>>>,
    dropped: AtomicU64,
    ingested: AtomicU64,
}

impl WindowIngest {
    /// An ingester closing a run every `run_len` tuples, buffering at most
    /// `max_ready` runs.
    ///
    /// # Panics
    ///
    /// Panics if `run_len` or `max_ready` is zero.
    pub fn new(run_len: usize, max_ready: usize) -> Self {
        assert!(run_len > 0, "run_len must be positive");
        assert!(max_ready > 0, "max_ready must be positive");
        WindowIngest {
            run_len,
            max_ready,
            pending: Mutex::new(Vec::new()),
            open: Mutex::new(Vec::with_capacity(run_len)),
            ready: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
            ingested: AtomicU64::new(0),
        }
    }

    /// Takes every completed run accumulated so far (oldest first).
    pub fn drain(&self) -> Vec<Vec<Tts>> {
        self.ready.lock().drain(..).collect()
    }

    /// Completed runs dropped because the ready queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total tuples ingested (closed, whatever their run's fate).
    pub fn ingested(&self) -> u64 {
        self.ingested.load(Ordering::Relaxed)
    }
}

impl EventSink for WindowIngest {
    fn record(&self, event: &TxEvent) {
        match event {
            TxEvent::Abort { who, .. } => {
                self.pending.lock().push(*who);
            }
            TxEvent::Commit { who, .. } => {
                let aborted = std::mem::take(&mut *self.pending.lock());
                let tts = Tts::new(aborted, *who);
                self.ingested.fetch_add(1, Ordering::Relaxed);
                let mut open = self.open.lock();
                open.push(tts);
                if open.len() >= self.run_len {
                    let run = std::mem::replace(&mut *open, Vec::with_capacity(self.run_len));
                    drop(open);
                    let mut ready = self.ready.lock();
                    if ready.len() >= self.max_ready {
                        ready.pop_front();
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                    ready.push_back(run);
                }
            }
            _ => {}
        }
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
    use gstm_core::{CommitSeq, ThreadId, TxId};

    fn p(t: u16, x: u16) -> Participant {
        Participant::new(ThreadId::new(t), TxId::new(x))
    }

    fn solo(t: u16) -> Tts {
        Tts::solo(p(t, 0))
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
    fn ingest_closes_runs_at_run_len() {
        let w = WindowIngest::new(3, 8);
        for seq in 1..=7 {
            w.record(&commit_event((seq % 2) as u16, 0, seq));
        }
        let runs = w.drain();
        assert_eq!(runs.len(), 2, "7 tuples at run_len 3 → 2 closed runs");
        assert!(runs.iter().all(|r| r.len() == 3));
        assert_eq!(w.ingested(), 7);
        assert!(w.drain().is_empty(), "drain consumes");
    }

    #[test]
    fn ingest_groups_aborts_like_the_tracker() {
        let w = WindowIngest::new(1, 8);
        w.record(&TxEvent::Abort {
            who: p(5, 1),
            attempt: 0,
            abort: gstm_core::Abort::new(gstm_core::AbortReason::ReadVersion {
                var: gstm_core::VarId::from_raw(1),
            }),
            at: 0,
        });
        w.record(&commit_event(7, 0, 1));
        let runs = w.drain();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0][0], Tts::new(vec![p(5, 1)], p(7, 0)));
    }

    #[test]
    fn ingest_bounds_the_ready_queue() {
        let w = WindowIngest::new(1, 2);
        for seq in 1..=5 {
            w.record(&commit_event(seq as u16, 0, seq));
        }
        assert_eq!(w.dropped(), 3, "oldest runs dropped beyond the bound");
        let runs = w.drain();
        assert_eq!(runs.len(), 2);
        // The *newest* runs survive.
        assert_eq!(runs[0][0], solo(4));
        assert_eq!(runs[1][0], solo(5));
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
