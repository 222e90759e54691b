//! The model analyzer (§IV): decides whether a TSA is useful for guidance.

use crate::tsa::Tsa;

/// Default cutoff for the guidance metric: "if the metric is above 50 ...
/// most of the transition states in the model are high probability states"
/// and the model is unfit (§IV; this is how ssca2 is rejected).
pub const DEFAULT_METRIC_CUTOFF: f64 = 50.0;

/// Default minimum state count: a model "containing too few states" lacks
/// the bias needed for guidance (§II-C, Model Analysis).
pub const DEFAULT_MIN_STATES: usize = 16;

/// Default minimum visit-weighted share of states that contain at least one
/// aborted participant. Below this the application is "innately nearly
/// zero aborts" (the paper's ssca2, §VII / Figure 8): guidance has no
/// rollback non-determinism to remove and only adds overhead.
pub const DEFAULT_MIN_ABORT_SHARE: f64 = 0.01;

/// Analyzer verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The model is biased enough to guide execution.
    Fit,
    /// Guidance would not help; run unguided.
    Unfit {
        /// Human-readable reason.
        reason: String,
    },
}

impl Verdict {
    /// Whether the verdict is [`Verdict::Fit`].
    pub fn is_fit(&self) -> bool {
        matches!(self, Verdict::Fit)
    }
}

/// Result of analyzing a model.
#[derive(Clone, Debug)]
pub struct ModelAnalysis {
    /// Number of states in the automaton.
    pub states: usize,
    /// `Σ_s |S(s)|`: total transition states reachable in the original
    /// (unguided) execution.
    pub reachable_total: usize,
    /// `Σ_s |D(s)|`: total transition states reachable under guidance.
    pub reachable_guided: usize,
    /// The guidance metric (percent, lower is better):
    /// visit-weighted `100 · Σ|D(s)| / Σ|S(s)|` (Table I / Table V).
    pub guidance_metric: f64,
    /// Visit-weighted share of states containing at least one abortee.
    pub abort_share: f64,
    /// Fit/unfit decision.
    pub verdict: Verdict,
}

impl std::fmt::Display for ModelAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "states={} guided/total={}/{} metric={:.0}% verdict={}",
            self.states,
            self.reachable_guided,
            self.reachable_total,
            self.guidance_metric,
            if self.verdict.is_fit() { "fit" } else { "unfit" },
        )
    }
}

/// Analyzes a TSA against the §IV thresholds: [`DEFAULT_METRIC_CUTOFF`],
/// [`DEFAULT_MIN_STATES`] and [`DEFAULT_MIN_ABORT_SHARE`].
///
/// The guidance metric is the ratio of guided-reachable transition states to
/// all reachable transition states. Each state's contribution is weighted by
/// its visit count: what matters at run time is the bias of the states the
/// execution actually sits in, and an unweighted sum lets the long tail of
/// once-visited states (whose single observed successor makes |D| = |S|)
/// swamp the hot, strongly biased states. The lower the metric, the more
/// bias exists for guided execution to exploit.
pub fn analyze(tsa: &Tsa, tfactor: f64) -> ModelAnalysis {
    let mut total = 0usize;
    let mut guided = 0usize;
    let mut w_total = 0.0f64;
    let mut w_guided = 0.0f64;
    let mut visits_all = 0.0f64;
    let mut visits_aborting = 0.0f64;
    for (id, state) in tsa.space().iter() {
        let out = tsa.out_edges(id).len();
        if out == 0 {
            continue;
        }
        total += out;
        guided += tsa.destinations(id, tfactor).len();
        let visits: u64 = tsa.out_edges(id).iter().map(|(_, c)| c).sum();
        w_total += visits as f64 * out as f64;
        w_guided += visits as f64 * tsa.destinations(id, tfactor).len() as f64;
        visits_all += visits as f64;
        if !state.aborted().is_empty() {
            visits_aborting += visits as f64;
        }
    }
    let metric = if w_total == 0.0 { 100.0 } else { 100.0 * w_guided / w_total };
    let abort_share = if visits_all == 0.0 { 0.0 } else { visits_aborting / visits_all };
    let verdict = if tsa.state_count() < DEFAULT_MIN_STATES {
        Verdict::Unfit {
            reason: format!(
                "too few states ({} < {DEFAULT_MIN_STATES}): no bias to exploit",
                tsa.state_count()
            ),
        }
    } else if abort_share < DEFAULT_MIN_ABORT_SHARE {
        Verdict::Unfit {
            reason: format!(
                "abort share {:.1}% is innately near zero: no rollback \
                 non-determinism to remove",
                abort_share * 100.0
            ),
        }
    } else if metric > DEFAULT_METRIC_CUTOFF {
        Verdict::Unfit {
            reason: format!(
                "guidance metric {metric:.0}% > {DEFAULT_METRIC_CUTOFF:.0}%: \
                 transitions are near-uniform"
            ),
        }
    } else {
        Verdict::Fit
    };
    ModelAnalysis {
        states: tsa.state_count(),
        reachable_total: total,
        reachable_guided: guided,
        guidance_metric: metric,
        abort_share,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsa::TsaBuilder;
    use crate::tts::Tts;
    use gstm_core::{Participant, ThreadId, TxId};

    fn solo(t: u16) -> Tts {
        Tts::solo(Participant::new(ThreadId::new(t), TxId::new(0)))
    }

    fn with_abort(t: u16, victim: u16) -> Tts {
        Tts::new(
            vec![Participant::new(ThreadId::new(victim), TxId::new(0))],
            Participant::new(ThreadId::new(t), TxId::new(0)),
        )
    }

    /// A run that visits many states with one dominant path and plenty of
    /// conflict tuples: fit.
    fn biased_run(states: usize) -> Vec<Tts> {
        let mut run = Vec::new();
        // Dominant cycle over all states, many times; every other tuple
        // carries an abortee so the workload clearly has rollbacks.
        for _ in 0..20 {
            for t in 0..states {
                if t % 2 == 0 {
                    run.push(with_abort(t as u16, ((t + 1) % states) as u16));
                } else {
                    run.push(solo(t as u16));
                }
            }
        }
        // Rare detours: each cycle state occasionally jumps to one of
        // three low-probability targets, so |D(s)| ≪ |S(s)|.
        for detour in 0..3u16 {
            for t in 0..states {
                let s = if t % 2 == 0 {
                    with_abort(t as u16, ((t + 1) % states) as u16)
                } else {
                    solo(t as u16)
                };
                run.push(s);
                run.push(solo(detour));
            }
        }
        run
    }

    /// A model whose transitions are uniform: unfit on its metric alone.
    /// Every state carries an abortee and gets four equal-frequency
    /// successors via independent two-state runs (separate runs never
    /// bridge).
    fn uniform_model(states: usize, repeats: usize) -> crate::tsa::Tsa {
        let state = |i: usize| with_abort(i as u16, ((i + 1) % states) as u16);
        let mut b = TsaBuilder::new();
        for i in 0..states {
            for step in 1..=4 {
                let pair = [state(i), state((i + step) % states)];
                for _ in 0..repeats {
                    b.add_run(&pair);
                }
            }
        }
        b.build()
    }

    #[test]
    fn biased_model_is_fit() {
        let mut b = TsaBuilder::new();
        b.add_run(&biased_run(20));
        let tsa = b.build();
        let a = analyze(&tsa, 4.0);
        assert!(a.verdict.is_fit(), "{a}");
        assert!(a.guidance_metric < 50.0, "{a}");
        assert!(a.abort_share > DEFAULT_MIN_ABORT_SHARE, "{a}");
        assert!(a.reachable_guided <= a.reachable_total);
    }

    #[test]
    fn abortless_model_is_unfit_like_ssca2() {
        // A large, even biased model whose tuples never contain an abortee
        // is rejected: there is no rollback variance to optimize.
        let mut b = TsaBuilder::new();
        let mut run = Vec::new();
        for _ in 0..20 {
            for t in 0..20 {
                run.push(solo(t as u16));
            }
        }
        b.add_run(&run);
        let a = analyze(&b.build(), 4.0);
        match a.verdict {
            Verdict::Unfit { reason } => {
                assert!(reason.contains("abort share"), "{reason}")
            }
            Verdict::Fit => panic!("abort-free model must be unfit"),
        }
    }

    #[test]
    fn uniform_model_is_unfit() {
        // Enough states that the verdict rests on the metric, not the count.
        let a = analyze(&uniform_model(20, 10), 4.0);
        assert!(a.guidance_metric > 50.0, "{a}");
        match a.verdict {
            Verdict::Unfit { reason } => assert!(reason.contains("guidance metric"), "{reason}"),
            Verdict::Fit => panic!("uniform model must be unfit"),
        }
    }

    #[test]
    fn tiny_model_is_unfit() {
        let mut b = TsaBuilder::new();
        b.add_run(&[solo(0), solo(1), solo(0)]);
        let a = analyze(&b.build(), 4.0);
        match a.verdict {
            Verdict::Unfit { reason } => assert!(reason.contains("too few states"), "{reason}"),
            Verdict::Fit => panic!("2-state model must be unfit"),
        }
    }

    #[test]
    fn empty_model_metric_is_100() {
        let a = analyze(&TsaBuilder::new().build(), 4.0);
        assert_eq!(a.guidance_metric, 100.0);
        assert!(!a.verdict.is_fit());
    }

    #[test]
    fn display_is_informative() {
        let mut b = TsaBuilder::new();
        b.add_run(&biased_run(20));
        let a = analyze(&b.build(), 4.0);
        let s = a.to_string();
        assert!(s.contains("states=22"), "{s}");
        assert!(s.contains("verdict=fit"), "{s}");
    }
}
