//! The offline half of the framework (Figure 1): profile → model → analyze.

use std::sync::Arc;

use gstm_model::{analyze, parse_states, GuidedModel, ModelAnalysis, Tsa, TsaBuilder};

use crate::harness::{run_workload, RunOptions, Workload};

/// A trained, analyzed model ready for guided execution.
#[derive(Clone, Debug)]
pub struct TrainedModel {
    /// The raw automaton (Table III's state counts come from here).
    pub tsa: Tsa,
    /// Analyzer output (Table I/V's guidance metric and the fit verdict).
    pub analysis: ModelAnalysis,
    /// Compiled runtime model — present even when the verdict is unfit, so
    /// experiments can demonstrate *why* guiding an unfit model hurts
    /// (the paper's ssca2 case, Figure 8).
    pub model: Arc<GuidedModel>,
}

impl TrainedModel {
    /// Whether the analyzer approved this model for guidance.
    pub fn is_fit(&self) -> bool {
        self.analysis.verdict.is_fit()
    }
}

/// Profiles `workload` once per training seed and builds the TSA
/// (Algorithm 1), then analyzes it (§IV) and compiles the runtime model
/// (§VI) with the given `Tfactor`.
///
/// `base` supplies threads/jitter; its policy is forced to `Default` and
/// event capture is enabled — profiling always runs unguided, like the
/// paper's profile phase. The paper trains from 20 runs of the medium
/// input; pass 20 seeds for parity.
pub fn train(
    workload: &dyn Workload,
    base: &RunOptions,
    train_seeds: &[u64],
    tfactor: f64,
) -> TrainedModel {
    let mut builder = TsaBuilder::new();
    for &seed in train_seeds {
        let opts = RunOptions {
            policy: crate::harness::PolicyChoice::Default,
            capture_events: true,
            seed,
            ..base.clone()
        };
        let outcome = run_workload(workload, &opts);
        let events = outcome.events.expect("capture was enabled");
        let states = parse_states(&events);
        builder.add_run(&states);
    }
    let tsa = builder.build();
    let analysis = analyze(&tsa, tfactor);
    let model = Arc::new(GuidedModel::compile(tsa.clone(), tfactor));
    TrainedModel { tsa, analysis, model }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{PolicyChoice, WorkerEnv, WorkloadRun};
    use gstm_core::{TVar, TxId};

    /// Hot-pair workload: enough contention to exercise training end to end.
    struct HotPair;

    struct HotPairRun {
        a: TVar<i64>,
        b: TVar<i64>,
    }

    impl Workload for HotPair {
        fn name(&self) -> &'static str {
            "hot-pair"
        }

        fn instantiate(&self, _threads: usize, _seed: u64) -> Box<dyn WorkloadRun> {
            Box::new(HotPairRun { a: TVar::new(0), b: TVar::new(0) })
        }
    }

    impl WorkloadRun for HotPairRun {
        fn worker(&self, env: WorkerEnv) -> Box<dyn FnOnce() + Send> {
            let a = self.a.clone();
            let b = self.b.clone();
            Box::new(move || {
                for k in 0..40 {
                    let site = TxId::new((k % 2) as u16);
                    env.stm.run(env.thread, site, |tx| {
                        let x = tx.read(&a)?;
                        let y = tx.read(&b)?;
                        tx.work(10);
                        if k % 2 == 0 {
                            tx.write(&a, x + 1)
                        } else {
                            tx.write(&b, y + 1)
                        }
                    });
                }
            })
        }
    }

    #[test]
    fn training_builds_a_populated_model() {
        let base = RunOptions::new(4, 0);
        let trained = train(&HotPair, &base, &[1, 2, 3], 4.0);
        assert!(trained.tsa.state_count() > 1, "{:?}", trained.analysis);
        assert!(trained.tsa.edge_count() > 0);
        // Commits happened in every training run, so transitions exist.
        assert!(trained.analysis.reachable_total > 0);
    }

    #[test]
    fn guided_run_accepts_trained_model() {
        let base = RunOptions::new(4, 0);
        let trained = train(&HotPair, &base, &(1..=6).collect::<Vec<_>>(), 4.0);
        let opts = RunOptions::new(4, 99).with_policy(PolicyChoice::guided(trained.model));
        let out = run_workload(&HotPair, &opts);
        assert_eq!(out.total_commits(), 4 * 40);
        // The tracker resolved at least some states against the model.
        assert!(out.nondeterminism > 0);
    }

    #[test]
    fn training_is_unguided_even_if_base_says_otherwise() {
        let base = RunOptions::new(2, 0);
        let trained = train(&HotPair, &base, &[5], 4.0);
        // Force a guided base and retrain — must not panic (policy is reset
        // to Default before profiling).
        let guided_base =
            RunOptions::new(2, 0).with_policy(PolicyChoice::guided(Arc::clone(&trained.model)));
        let retrained = train(&HotPair, &guided_base, &[6], 4.0);
        assert!(retrained.tsa.state_count() > 0);
    }
}
