//! The online retrain loop: ingestion → merge → §IV gate → hot-swap.
//!
//! [`OnlineRetrainer`] closes the adaptive loop that
//! [`AdaptivePolicy`](crate::adaptive::AdaptivePolicy) opens. The
//! policy's window claim (the `compare_exchange` barrier — one winner per
//! window however many threads race `admit`) fires
//! [`WindowObserver::on_window`] exactly once per window; the retrainer
//! then drains the [`WindowIngest`] sink, merges the fresh runs into the
//! serving automaton with decay ([`merge_decayed`]), and re-runs the
//! paper's §IV analyzer on the candidate. Only a **fit** candidate is
//! compiled and installed through the [`ModelHandle`]; an unfit one is
//! discarded wholesale — the serving model keeps running, and if drift has
//! really invalidated it the unknown-rate monitor stands guidance down,
//! which is the safe floor.
//!
//! Determinism: everything here is a pure function of the ingested event
//! stream and the claim order, both of which the simulator's Gate replays
//! bit-identically per seed — so a sim-mode adaptive run is reproducible
//! even though models swap mid-run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gstm_core::sync::Mutex;
use gstm_model::analyzer::{DEFAULT_METRIC_CUTOFF, DEFAULT_MIN_STATES};
use gstm_model::{
    analyze_with, merge_decayed, GuidedModel, ModelHandle, Tsa, WindowIngest, DEFAULT_MIN_SUPPORT,
    DEFAULT_TFACTOR,
};

use crate::adaptive::WindowObserver;

/// Knobs of the incremental trainer and its §IV acceptance gate.
#[derive(Clone, Copy, Debug)]
pub struct RetrainSpec {
    /// Percentage of each serving-edge count carried into a candidate
    /// (100 = pure accumulation, lower forgets faster).
    pub decay_pct: u32,
    /// `Tfactor` candidates are analyzed and compiled with.
    pub tfactor: f64,
    /// State-support cutoff for compiling an accepted candidate.
    pub min_support: u64,
    /// §IV guidance-metric cutoff: a candidate above it never ships.
    pub metric_cutoff: f64,
    /// §IV minimum state count for a candidate to ship.
    pub min_states: usize,
    /// Metric ratchet: when set, a candidate must also be **no worse**
    /// than the serving model on the §IV guidance metric. Windowed
    /// samples are small and concentrate their counts on exactly the
    /// contention states that decide admissions, so an absolute cutoff
    /// alone still lets noisy candidates churn the load-bearing states;
    /// the ratchet only lets the model move when fresh data genuinely
    /// sharpens its bias.
    pub require_no_regression: bool,
}

impl Default for RetrainSpec {
    fn default() -> Self {
        RetrainSpec {
            decay_pct: 50,
            tfactor: DEFAULT_TFACTOR,
            min_support: DEFAULT_MIN_SUPPORT,
            metric_cutoff: DEFAULT_METRIC_CUTOFF,
            min_states: DEFAULT_MIN_STATES,
            require_no_regression: false,
        }
    }
}

/// Counters describing what the retrain loop did (exported as telemetry
/// gauges by the harness).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetrainStats {
    /// Retrain attempts (windows with at least one ingested run).
    pub attempts: u64,
    /// Candidates that passed the §IV gate and were installed.
    pub installs: u64,
    /// Candidates the gate rejected (serving model kept).
    pub rejects: u64,
}

/// Merges freshly ingested windows into the serving TSA and hot-swaps the
/// compiled result when — and only when — the §IV gate rules it fit.
pub struct OnlineRetrainer {
    ingest: Arc<WindowIngest>,
    handle: Arc<ModelHandle>,
    spec: RetrainSpec,
    /// The automaton the served model was compiled from (plus its §IV
    /// guidance metric, the ratchet's baseline); candidates merge into
    /// this, and it only advances on an accepted install.
    serving: Mutex<Serving>,
    attempts: AtomicU64,
    installs: AtomicU64,
    rejects: AtomicU64,
}

struct Serving {
    tsa: Tsa,
    metric: f64,
}

impl std::fmt::Debug for OnlineRetrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineRetrainer")
            .field("spec", &self.spec)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl OnlineRetrainer {
    /// A retrainer that drains `ingest`, merges into `base` (the automaton
    /// behind the model currently served by `handle`), and installs
    /// accepted candidates through `handle`.
    pub fn new(
        ingest: Arc<WindowIngest>,
        handle: Arc<ModelHandle>,
        base: Tsa,
        spec: RetrainSpec,
    ) -> Self {
        let metric =
            analyze_with(&base, spec.tfactor, spec.metric_cutoff, spec.min_states).guidance_metric;
        OnlineRetrainer {
            ingest,
            handle,
            spec,
            serving: Mutex::new(Serving { tsa: base, metric }),
            attempts: AtomicU64::new(0),
            installs: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
        }
    }

    /// The ingestion sink this retrainer drains.
    pub fn ingest(&self) -> &Arc<WindowIngest> {
        &self.ingest
    }

    /// What the loop has done so far.
    pub fn stats(&self) -> RetrainStats {
        RetrainStats {
            attempts: self.attempts.load(Ordering::Relaxed),
            installs: self.installs.load(Ordering::Relaxed),
            rejects: self.rejects.load(Ordering::Relaxed),
        }
    }

    /// One retrain step: drain, merge, gate, maybe install. Called from
    /// the window claim; also callable directly (tests, manual cadence).
    /// Returns whether a new model was installed.
    pub fn try_retrain(&self) -> bool {
        let runs = self.ingest.drain();
        if runs.is_empty() {
            return false;
        }
        // The serving lock serializes retrains; the claim already
        // guarantees one caller per window, so this never contends in
        // practice.
        let mut serving = self.serving.lock();
        let candidate = merge_decayed(&serving.tsa, self.spec.decay_pct, &runs);
        self.attempts.fetch_add(1, Ordering::Relaxed);
        let analysis = analyze_with(
            &candidate,
            self.spec.tfactor,
            self.spec.metric_cutoff,
            self.spec.min_states,
        );
        let regressed =
            self.spec.require_no_regression && analysis.guidance_metric > serving.metric;
        if !analysis.verdict.is_fit() || regressed {
            // The candidate never ships. The serving model stays; if it is
            // genuinely stale the unknown-rate monitor stands guidance
            // down — the safe floor the race-fixed window claim hardens.
            self.rejects.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let model = Arc::new(GuidedModel::compile_with(
            candidate.clone(),
            self.spec.tfactor,
            self.spec.min_support,
        ));
        self.handle.install(model);
        *serving = Serving { tsa: candidate, metric: analysis.guidance_metric };
        self.installs.fetch_add(1, Ordering::Relaxed);
        true
    }
}

impl WindowObserver for OnlineRetrainer {
    fn on_window(&self, _transitions: u64, _unknown_pct: u64) {
        self.try_retrain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{CommitSeq, EventSink, Participant, ThreadId, TxEvent, TxId};
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

    /// A base automaton big and biased enough to pass the §IV gate with
    /// headroom: a heavy fixed cycle (dominant edges) plus a spread of
    /// rare detours so `|D| ≪ |S|` under the default tfactor.
    fn fit_base() -> Tsa {
        let mut b = TsaBuilder::new();
        let mut run = Vec::new();
        for _ in 0..60 {
            for t in 0..20u16 {
                if t % 2 == 0 {
                    run.push(Tts::new(vec![p((t + 1) % 20, 0)], p(t, 0)));
                } else {
                    run.push(Tts::solo(p(t, 0)));
                }
            }
        }
        for detour in 0..8u16 {
            for t in 0..20u16 {
                run.push(Tts::solo(p(t, 0)));
                run.push(Tts::solo(p(detour, 0)));
            }
        }
        b.add_run(&run);
        b.build()
    }

    fn solo(t: u16) -> Tts {
        Tts::solo(p(t, 0))
    }

    fn setup(
        base: Tsa,
        spec: RetrainSpec,
    ) -> (Arc<WindowIngest>, Arc<ModelHandle>, OnlineRetrainer) {
        let model = Arc::new(GuidedModel::compile(base.clone(), spec.tfactor));
        let handle = Arc::new(ModelHandle::new(model));
        let ingest = Arc::new(WindowIngest::new(4, 8));
        let r = OnlineRetrainer::new(Arc::clone(&ingest), Arc::clone(&handle), base, spec);
        (ingest, handle, r)
    }

    #[test]
    fn no_windows_means_no_attempt() {
        let (_ingest, handle, r) = setup(fit_base(), RetrainSpec::default());
        assert!(!r.try_retrain());
        assert_eq!(r.stats(), RetrainStats::default());
        assert_eq!(handle.epoch(), 0);
    }

    #[test]
    fn fit_candidate_installs_and_advances_the_serving_tsa() {
        // Full-weight merge: at 50% decay the base's count-1 detour edges
        // floor to zero and the candidate is (correctly) ruled unfit.
        let spec = RetrainSpec { decay_pct: 100, ..RetrainSpec::default() };
        let (ingest, handle, r) = setup(fit_base(), spec);
        // Ingest traffic that keeps the model's abort-carrying bias: two
        // windows of mixed commits with aborts.
        let mut seq = 0;
        for _ in 0..2 {
            for t in 0..4u16 {
                ingest.record(&abort_event((t + 1) % 4, 0));
                seq += 1;
                ingest.record(&commit_event(t, 0, seq));
            }
        }
        assert!(r.try_retrain(), "fit candidate must install");
        assert_eq!(handle.epoch(), 1);
        let s = r.stats();
        assert_eq!((s.attempts, s.installs, s.rejects), (1, 1, 0));
        // The freshly observed tuple is now resolvable by the new model.
        let new_model = handle.load();
        assert!(new_model.lookup(&Tts::new(vec![p(1, 0)], p(0, 0))).is_some());
    }

    #[test]
    fn gate_rejects_a_biased_candidate_and_keeps_the_serving_model() {
        // A deliberately tiny base: any merge of it stays under
        // `min_states`, so the §IV gate must refuse to ship it.
        let mut b = TsaBuilder::new();
        b.add_run(&[solo(0), solo(1), solo(0)]);
        let (ingest, handle, r) = setup(b.build(), RetrainSpec::default());
        for seq in 1..=8 {
            ingest.record(&commit_event((seq % 2) as u16, 0, seq));
        }
        assert!(!r.try_retrain(), "unfit candidate must not install");
        assert_eq!(handle.epoch(), 0, "serving model untouched");
        let s = r.stats();
        assert_eq!((s.attempts, s.installs, s.rejects), (1, 0, 1));
    }

    #[test]
    fn ratchet_rejects_a_fit_but_regressing_candidate() {
        // A flat fan out of one state: every destination equally likely.
        // The merged candidate stays under the absolute cutoff (fit) but
        // its §IV metric is worse than the serving model's, so the
        // ratchet must refuse it where the plain gate would ship it.
        let ingest_fan = |ingest: &WindowIngest| {
            let mut seq = 0;
            for i in 1..=8u16 {
                seq += 1;
                ingest.record(&commit_event(0, 0, seq));
                seq += 1;
                ingest.record(&commit_event(i, 0, seq));
            }
        };
        let plain = RetrainSpec { decay_pct: 100, ..RetrainSpec::default() };
        let (ingest, handle, r) = setup(fit_base(), plain);
        ingest_fan(&ingest);
        assert!(r.try_retrain(), "without the ratchet the flattened candidate ships");
        assert_eq!(handle.epoch(), 1);

        let ratchet = RetrainSpec { require_no_regression: true, ..plain };
        let (ingest, handle, r) = setup(fit_base(), ratchet);
        ingest_fan(&ingest);
        assert!(!r.try_retrain(), "the ratchet must refuse a regressing candidate");
        assert_eq!(handle.epoch(), 0, "serving model untouched");
        let s = r.stats();
        assert_eq!((s.attempts, s.installs, s.rejects), (1, 0, 1));
    }

    #[test]
    fn retrain_is_deterministic_for_a_fixed_event_stream() {
        let digest = |r: &OnlineRetrainer| gstm_model::serialize::tsa_digest(&r.serving.lock().tsa);
        let mut digests = Vec::new();
        for _ in 0..2 {
            let (ingest, _handle, r) = setup(fit_base(), RetrainSpec::default());
            let mut seq = 0;
            for _ in 0..3 {
                for t in 0..4u16 {
                    ingest.record(&abort_event((t + 3) % 4, 0));
                    seq += 1;
                    ingest.record(&commit_event(t, 0, seq));
                }
                r.try_retrain();
            }
            digests.push(digest(&r));
        }
        assert_eq!(digests[0], digests[1], "same stream → same serving automaton");
    }
}
