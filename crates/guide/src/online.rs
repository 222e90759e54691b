//! The retrain half of the online loop: windows → merge → §IV gate →
//! hot swap.
//!
//! [`AdaptivePolicy`](crate::AdaptivePolicy) pushes every tuple its tracker
//! closes into its [`Windows`]. Its window claim (the `compare_exchange`
//! barrier — one winner per window however many threads race `admit`)
//! then drains the ready windows into [`Serving::retrain`], which merges
//! them into the serving automaton's counts ([`merge`]) and judges the
//! candidate. It ships — compiled at the serving model's `Tfactor` and
//! installed through the [`ModelHandle`] — only if both rules hold:
//!
//! * **§IV fit**: [`analyze`] rules it fit against the paper's fixed
//!   thresholds.
//! * **No regression**: its guidance metric is no worse than the serving
//!   model's. Windowed samples concentrate their counts on exactly the
//!   contention states that decide admissions, so candidates that pass the
//!   absolute cutoff can still churn the load-bearing states
//!   seed-dependently — which shows up directly as cross-seed tail
//!   variance. The model moves only when fresh data sharpens its bias.
//!
//! A refused candidate is discarded wholesale: the serving model keeps
//! running, and if drift has really invalidated it the unknown-rate monitor
//! stands guidance down, which is the safe floor.
//!
//! The merge never decays the serving counts. Serve automata are
//! count-sparse — most edges are observed once — so any decay floors the
//! base's counts to zero in a single step and the §IV gate (correctly)
//! refuses every resulting near-uniform candidate.
//!
//! Determinism: everything here is a pure function of the recorded event
//! stream and the claim order, both of which the simulator's Gate replays
//! bit-identically per seed — so a sim-mode adaptive run is reproducible
//! even though models swap mid-run.

use std::collections::VecDeque;
use std::sync::Arc;

use gstm_model::{analyze, merge, GuidedModel, ModelHandle, Tsa, Tts};

/// Most ready windows kept: if the claims fall behind, the oldest window
/// is dropped and counted, never blocking the commit path.
pub(crate) const MAX_READY: usize = 64;

/// Closed tuples cut into runs of a fixed length. Runs never bridge,
/// matching [`TsaBuilder::add_run`](gstm_model::TsaBuilder::add_run); the
/// one edge lost at each window boundary is noise at any useful length.
#[derive(Debug)]
pub(crate) struct Windows {
    len: usize,
    pub(crate) open: Vec<Tts>,
    pub(crate) ready: VecDeque<Vec<Tts>>,
    /// Ready windows dropped because [`MAX_READY`] were waiting.
    pub(crate) dropped: u64,
}

impl Windows {
    pub(crate) fn new(len: usize) -> Self {
        Windows { len, open: Vec::with_capacity(len), ready: VecDeque::new(), dropped: 0 }
    }

    pub(crate) fn push(&mut self, tts: Tts) {
        self.open.push(tts);
        if self.open.len() >= self.len {
            let run = std::mem::replace(&mut self.open, Vec::with_capacity(self.len));
            if self.ready.len() >= MAX_READY {
                self.ready.pop_front();
                self.dropped += 1;
            }
            self.ready.push_back(run);
        }
    }

    /// Takes every completed window, oldest first.
    pub(crate) fn drain(&mut self) -> Vec<Vec<Tts>> {
        self.ready.drain(..).collect()
    }
}

/// The automaton the served model was compiled from, with its §IV guidance
/// metric (the no-regression baseline) and `Tfactor`. Candidates merge into
/// it, and it only advances on an accepted install.
#[derive(Debug)]
pub(crate) struct Serving {
    tsa: Tsa,
    metric: f64,
    tfactor: f64,
    /// Retrain steps that had at least one window to merge.
    pub(crate) attempts: u64,
    /// Candidates that passed the gate and were installed.
    pub(crate) installs: u64,
    /// Candidates the gate refused (serving model kept).
    pub(crate) rejects: u64,
}

impl Serving {
    pub(crate) fn new(model: &GuidedModel) -> Self {
        let tfactor = model.tfactor();
        let tsa = model.tsa().clone();
        let metric = analyze(&tsa, tfactor).guidance_metric;
        Serving { tsa, metric, tfactor, attempts: 0, installs: 0, rejects: 0 }
    }

    /// Merges `runs`, gates the candidate and installs it through `handle`
    /// if it ships. Returns whether a new model was installed.
    pub(crate) fn retrain(&mut self, runs: &[Vec<Tts>], handle: &ModelHandle) -> bool {
        if runs.is_empty() {
            return false;
        }
        let candidate = merge(&self.tsa, runs);
        self.attempts += 1;
        let analysis = analyze(&candidate, self.tfactor);
        if !analysis.verdict.is_fit() || analysis.guidance_metric > self.metric {
            // The candidate never ships. The serving model stays; if it is
            // genuinely stale the unknown-rate monitor stands guidance
            // down — the safe floor the race-fixed window claim hardens.
            self.rejects += 1;
            return false;
        }
        handle.install(Arc::new(GuidedModel::compile(candidate.clone(), self.tfactor)));
        self.tsa = candidate;
        self.metric = analysis.guidance_metric;
        self.installs += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdaptivePolicy;
    use gstm_core::{CommitSeq, EventSink, Participant, ThreadId, TxEvent, TxId};
    use gstm_model::TsaBuilder;
    use gstm_telemetry::MetricsRegistry;

    fn p(t: u16, x: u16) -> Participant {
        Participant::new(ThreadId::new(t), TxId::new(x))
    }

    fn solo(t: u16) -> Tts {
        Tts::solo(p(t, 0))
    }

    /// Records `tuples` the way the engine logs them — each tuple's aborts,
    /// then its commit — so the policy's tracker closes exactly `tuples`.
    fn record(policy: &AdaptivePolicy, tuples: &[Tts]) {
        for (seq, tts) in tuples.iter().enumerate() {
            for &who in tts.aborted() {
                let abort = gstm_core::Abort::new(gstm_core::AbortReason::ReadVersion {
                    var: gstm_core::VarId::from_raw(1),
                });
                policy.record(&TxEvent::Abort { who, attempt: 0, abort, at: 0 });
            }
            policy.record(&TxEvent::Commit {
                who: tts.committer(),
                seq: CommitSeq::new(seq as u64 + 1),
                aborts: 0,
                reads: 0,
                writes: 0,
                at: 0,
            });
        }
    }

    /// The loop's (attempts, installs, rejects) as its gauges report them.
    fn counts(policy: &AdaptivePolicy) -> (u64, u64, u64) {
        let registry = MetricsRegistry::new(1);
        policy.set_gauges(&registry);
        let g = |name| registry.gauge(name).expect("the loop sets its gauges");
        (
            g("gstm_guide_retrain_attempts_total"),
            g("gstm_guide_model_installs_total"),
            g("gstm_guide_model_rejects_total"),
        )
    }

    fn epoch(policy: &AdaptivePolicy) -> u64 {
        policy.guided().tracker().model_epoch()
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

    /// A policy serving `base` at `tfactor`, with 4-tuple windows.
    fn setup(base: Tsa, tfactor: f64) -> AdaptivePolicy {
        AdaptivePolicy::with_window(Arc::new(GuidedModel::compile(base, tfactor)), 4)
    }

    /// Two windows of mixed commits with aborts: traffic that keeps the
    /// fit base's abort-carrying bias.
    fn biased() -> Vec<Tts> {
        (0..2).flat_map(|_| (0..4u16).map(|t| Tts::new(vec![p((t + 1) % 4, 0)], p(t, 0)))).collect()
    }

    #[test]
    fn ingest_closes_runs_at_run_len() {
        let mut w = Windows::new(3);
        for t in 1..=7 {
            w.push(solo(t % 2));
        }
        let runs = w.drain();
        assert_eq!(runs.len(), 2, "7 tuples at run_len 3 → 2 closed runs");
        assert!(runs.iter().all(|r| r.len() == 3));
        assert_eq!(w.open.len(), 1, "the seventh tuple waits in the open window");
        assert!(w.drain().is_empty(), "drain consumes");
    }

    #[test]
    fn ingest_bounds_the_ready_queue() {
        let mut w = Windows::new(1);
        let total = MAX_READY as u16 + 3;
        for t in 1..=total {
            w.push(solo(t));
        }
        assert_eq!(w.dropped, 3, "oldest runs dropped beyond the bound");
        let runs = w.drain();
        assert_eq!(runs.len(), MAX_READY);
        // The *newest* runs survive.
        assert_eq!(runs[0][0], solo(4));
        assert_eq!(runs[MAX_READY - 1][0], solo(total));
    }

    #[test]
    fn no_windows_means_no_attempt() {
        let policy = setup(fit_base(), 4.0);
        assert!(!policy.retrain());
        assert_eq!(counts(&policy), (0, 0, 0));
        assert_eq!(epoch(&policy), 0);
    }

    #[test]
    fn fit_candidate_installs_and_advances_the_serving_tsa() {
        let policy = setup(fit_base(), 4.0);
        record(&policy, &biased());
        assert!(policy.retrain(), "fit candidate must install");
        assert_eq!(epoch(&policy), 1);
        assert_eq!(counts(&policy), (1, 1, 0));
        // The freshly observed tuple is now resolvable by the new model.
        let new_model = policy.guided().tracker().model().expect("the policy serves a model");
        assert!(new_model.lookup(&Tts::new(vec![p(1, 0)], p(0, 0))).is_some());
    }

    #[test]
    fn candidates_compile_at_the_serving_models_tfactor() {
        let policy = setup(fit_base(), 2.0);
        record(&policy, &biased());
        assert!(policy.retrain(), "fit candidate must install");
        assert_eq!(policy.guided().tracker().model().unwrap().tfactor(), 2.0);
    }

    #[test]
    fn gate_rejects_a_biased_candidate_and_keeps_the_serving_model() {
        // A deliberately tiny base: any merge of it stays under
        // `DEFAULT_MIN_STATES`, so the §IV gate must refuse to ship it.
        let mut b = TsaBuilder::new();
        b.add_run(&[solo(0), solo(1), solo(0)]);
        let policy = setup(b.build(), 4.0);
        record(&policy, &(1..=8).map(|seq| solo(seq % 2)).collect::<Vec<_>>());
        assert!(!policy.retrain(), "unfit candidate must not install");
        assert_eq!(epoch(&policy), 0, "serving model untouched");
        assert_eq!(counts(&policy), (1, 0, 1));
    }

    #[test]
    fn ratchet_rejects_a_fit_but_regressing_candidate() {
        // A flat fan out of one state: every destination equally likely.
        // The merged candidate stays under the absolute cutoff (fit) but
        // its §IV metric is worse than the serving model's, so it must not
        // ship.
        let fan: Vec<Tts> = (1..=8u16).flat_map(|i| [solo(0), solo(i)]).collect();
        let runs: Vec<Vec<Tts>> = fan.chunks(4).map(<[Tts]>::to_vec).collect();
        let candidate = analyze(&merge(&fit_base(), &runs), 4.0);
        assert!(candidate.verdict.is_fit(), "the fan alone passes the cutoff: {candidate}");

        let policy = setup(fit_base(), 4.0);
        record(&policy, &fan);
        assert!(!policy.retrain(), "a regressing candidate must not install");
        assert_eq!(epoch(&policy), 0, "serving model untouched");
        assert_eq!(counts(&policy), (1, 0, 1));
    }

    #[test]
    fn retrain_is_deterministic_for_a_fixed_event_stream() {
        let mut digests = Vec::new();
        for _ in 0..2 {
            let policy = setup(fit_base(), 4.0);
            for _ in 0..3 {
                let window: Vec<Tts> =
                    (0..4u16).map(|t| Tts::new(vec![p((t + 3) % 4, 0)], p(t, 0))).collect();
                record(&policy, &window);
                policy.retrain();
            }
            let served = policy.guided().tracker().model().unwrap();
            digests.push(gstm_model::serialize::tsa_digest(served.tsa()));
        }
        assert_eq!(digests[0], digests[1], "same stream → same serving automaton");
    }
}
