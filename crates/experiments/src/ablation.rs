//! Ablations over the design knobs DESIGN.md calls out.
//!
//! Every ablation resolves its runs through the [`Pipeline`], so baselines
//! and trained models are shared with the main studies (and with each
//! other) via the in-process memo and the content-addressed cache, and
//! repeated sweeps are warm-cache no-ops.

use std::sync::Arc;

use gstm_guide::{
    CmChoice, PolicyChoice, RunOptions, RunOutcome, TrainedModel, Workload, DEFAULT_K,
};
use gstm_stamp::benchmark;
use gstm_stats::{mean, percent_reduction, slowdown, TextTable};

use crate::metrics::{mean_makespan, mean_nondeterminism, per_thread_improvement};
use crate::pipeline::{guided_tag, Pipeline, TAG_DEFAULT};

/// What every ablation shares: one benchmark at the first configured thread
/// count on the test input, the default-STM runs every variant is compared
/// against (the same cached runs for every ablation and the main study),
/// and the table the sweep fills.
struct Ablation<'p, 'a> {
    pipe: &'p Pipeline<'a>,
    name: &'static str,
    threads: usize,
    workload: Box<dyn Workload>,
    wkey: String,
    baseline: Vec<RunOutcome>,
    table: TextTable,
}

impl<'p, 'a> Ablation<'p, 'a> {
    /// An ablation whose baseline is default STM.
    fn new(pipe: &'p Pipeline<'a>, name: &'static str, columns: &[&str]) -> Self {
        let cfg = pipe.cfg();
        let mut ablation = Ablation {
            pipe,
            name,
            threads: cfg.threads_list[0],
            workload: benchmark(name, cfg.test_size).expect("known benchmark"),
            wkey: format!("stamp:{name}:{}", cfg.test_size),
            baseline: Vec::new(),
            table: TextTable::new(columns.iter().map(|c| c.to_string()).collect()),
        };
        ablation.baseline = ablation.runs(TAG_DEFAULT, |o| o);
        ablation
    }

    /// One variant over every test seed; `tag` must name what `opts`
    /// changes beyond the run key's own fields.
    fn runs(&self, tag: &str, opts: impl Fn(RunOptions) -> RunOptions + Sync) -> Vec<RunOutcome> {
        let threads = self.threads;
        self.pipe.measured_runs(&self.wkey, self.workload.as_ref(), tag, |s| {
            opts(RunOptions::new(threads, s))
        })
    }

    /// Guided runs at hold bound `k` under a model compiled at `tfactor`.
    fn guided(&self, trained: &TrainedModel, k: u32, tfactor: f64) -> Vec<RunOutcome> {
        self.runs(&guided_tag(trained, k, tfactor), |o| {
            o.with_policy(PolicyChoice::Guided { model: Arc::clone(&trained.model), k })
        })
    }

    /// The model trained at the configured sweep settings.
    fn trained(&self) -> TrainedModel {
        self.pipe.trained_stamp(self.name, self.threads)
    }

    fn progress(&self, what: &str) {
        self.pipe.progress().report(&format!("{}: {what}", self.name));
    }

    /// Mean per-thread variance improvement of `runs` over the baseline.
    fn improvement(&self, runs: &[RunOutcome]) -> String {
        format!("{:+.1}%", mean(&per_thread_improvement(&self.baseline, runs)))
    }

    /// Slowdown of `runs` against the baseline.
    fn slowdown(&self, runs: &[RunOutcome]) -> String {
        format!("{:.2}x", slowdown(mean_makespan(&self.baseline), mean_makespan(runs)))
    }

    /// The row "variance improvement, nondeterminism reduction, slowdown"
    /// of `runs` against the baseline.
    fn compare(&mut self, label: String, runs: &[RunOutcome]) {
        let nd = percent_reduction(mean_nondeterminism(&self.baseline), mean_nondeterminism(runs));
        let row = vec![label, self.improvement(runs), format!("{nd:+.1}%"), self.slowdown(runs)];
        self.table.row(row);
    }

    fn render(&self, what: &str) -> String {
        format!(
            "== Ablation: {what} on {}, {} threads ==\n{}",
            self.name,
            self.threads,
            self.table.render()
        )
    }
}

/// The columns of a table of [`Ablation::compare`] rows.
fn compared(label: &str) -> [&str; 4] {
    [label, "mean variance improvement", "nondeterminism reduction", "slowdown (x)"]
}

/// Tfactor sweep (§VI: "experimenting with Tfactor values of between 1 to
/// 10, we found that ... 4 strikes a balance"): variance reduction vs
/// slowdown at each setting.
pub fn ablate_tfactor(pipe: &Pipeline<'_>, name: &'static str) -> String {
    let mut ab = Ablation::new(pipe, name, &compared("Tfactor"));
    for tfactor in [1.0, 2.0, 4.0, 6.0, 8.0, 10.0] {
        ab.progress(&format!("Tfactor={tfactor}"));
        let mut sweep_cfg = pipe.cfg().clone();
        sweep_cfg.tfactor = tfactor;
        let trained = pipe.trained_stamp_with(&sweep_cfg, name, ab.threads);
        // The TSA is tfactor-independent (profiling is unguided), so the
        // sweep value must enter the tag explicitly or runs would collide.
        let runs = ab.guided(&trained, DEFAULT_K, tfactor);
        ab.compare(format!("{tfactor:.0}"), &runs);
    }
    ab.render("Tfactor sweep")
}

/// Hold-bound `k` sweep: guidance strength vs progress cost.
pub fn ablate_k(pipe: &Pipeline<'_>, name: &'static str) -> String {
    let columns = ["k", "mean variance improvement", "holds bailed out", "slowdown (x)"];
    let mut ab = Ablation::new(pipe, name, &columns);
    let trained = ab.trained();
    for k in [4u32, 16, 64, 256] {
        ab.progress(&format!("k={k}"));
        let runs = ab.guided(&trained, k, pipe.cfg().tfactor);
        let bails: u64 = runs.iter().filter_map(|r| r.hold_stats).map(|h| h.bailed_out).sum();
        let row = vec![k.to_string(), ab.improvement(&runs), bails.to_string(), ab.slowdown(&runs)];
        ab.table.row(row);
    }
    ab.render("hold bound k sweep")
}

/// Contention managers vs guided execution (§IX's claim: CMs raise
/// throughput but not repeatability).
pub fn ablate_cm(pipe: &Pipeline<'_>, name: &'static str) -> String {
    let mut ab = Ablation::new(pipe, name, &compared("Policy"));
    for cm in [CmChoice::Polite, CmChoice::Karma, CmChoice::Greedy] {
        ab.progress(&format!("{cm:?}"));
        // The CM is part of the run key (RunOptions::cm), so TAG_DEFAULT
        // still addresses each variant distinctly.
        let runs = ab.runs(TAG_DEFAULT, |mut o| {
            o.cm = cm;
            o
        });
        ab.compare(format!("{cm:?}"), &runs);
    }
    ab.progress("guided");
    let runs = ab.guided(&ab.trained(), DEFAULT_K, pipe.cfg().tfactor);
    ab.compare("Guided".into(), &runs);
    ab.render("contention managers vs guidance")
}

/// Detection-mode ablation (§II: "demonstration of guided execution on
/// eager detection mechanism is easily implied by the testimony on lazy
/// conflict detection"): run default and guided under both commit-time and
/// encounter-time locking and compare abort profiles and variance against
/// lazy (commit-time) default STM.
pub fn ablate_detection(pipe: &Pipeline<'_>, name: &'static str) -> String {
    use gstm_core::Detection;
    let columns = [
        "Detection",
        "policy",
        "abort ratio",
        "mean variance improvement",
        "slowdown vs lazy default (x)",
    ];
    let mut ab = Ablation::new(pipe, name, &columns);
    let trained = ab.trained();
    let eager = |o: RunOptions| RunOptions { detection: Some(Detection::EncounterTime), ..o };
    for detection in [Detection::CommitTime, Detection::EncounterTime] {
        for label in ["default", "guided"] {
            ab.progress(&format!("{detection:?} {label}"));
            // Commit-time detection is the engine default, so its rows are
            // the baseline and the guided runs the other ablations share.
            let runs = match (detection, label) {
                (Detection::CommitTime, "default") => ab.baseline.clone(),
                (Detection::CommitTime, _) => ab.guided(&trained, DEFAULT_K, pipe.cfg().tfactor),
                (_, "default") => ab.runs(TAG_DEFAULT, eager),
                _ => ab.runs(&guided_tag(&trained, DEFAULT_K, pipe.cfg().tfactor), |o| {
                    eager(o.with_policy(PolicyChoice::guided(Arc::clone(&trained.model))))
                }),
            };
            let ar = crate::metrics::mean_abort_ratio(&runs);
            let row = vec![
                format!("{detection:?}"),
                label.into(),
                format!("{ar:.3}"),
                ab.improvement(&runs),
                ab.slowdown(&runs),
            ];
            ab.table.row(row);
        }
    }
    ab.render("detection mode x guidance")
}

/// Policy spectrum: default vs the paper's dismissed local prioritization
/// (§I), DeSTM-style determinism (§IX) and guided execution — variance,
/// non-determinism and throughput cost of each point on the
/// speculation/repeatability spectrum.
pub fn ablate_policy(pipe: &Pipeline<'_>, name: &'static str) -> String {
    let mut ab = Ablation::new(pipe, name, &compared("Policy"));
    for (label, policy, tag) in [
        (
            "bounded-aborts(3)",
            PolicyChoice::BoundedAborts { limit: 3 },
            "policy=bounded-aborts;limit=3",
        ),
        ("deterministic", PolicyChoice::Deterministic, "policy=deterministic"),
    ] {
        ab.progress(label);
        let runs = ab.runs(tag, |o| o.with_policy(policy.clone()));
        ab.compare(label.into(), &runs);
    }
    ab.progress("guided");
    let runs = ab.guided(&ab.trained(), DEFAULT_K, pipe.cfg().tfactor);
    ab.compare("guided".into(), &runs);
    ab.render("admission-policy spectrum")
}

/// Training-size ablation (the paper's "medium sized training set is not
/// usually a representative input" remark): how model coverage changes
/// with the training input.
pub fn ablate_train(pipe: &Pipeline<'_>, name: &'static str) -> String {
    use gstm_stamp::InputSize;
    let columns =
        ["Training size", "model states", "unknown-state rate", "mean variance improvement"];
    let mut ab = Ablation::new(pipe, name, &columns);
    for size in [InputSize::Small, InputSize::Medium] {
        ab.progress(&format!("trained on {size}"));
        let mut sweep = pipe.cfg().clone();
        sweep.train_size = size;
        let trained = pipe.trained_stamp_with(&sweep, name, ab.threads);
        let runs = ab.guided(&trained, DEFAULT_K, pipe.cfg().tfactor);
        let unknown: f64 = runs.iter().map(|r| r.unknown_hits as f64).sum::<f64>()
            / runs.iter().map(|r| r.total_commits() as f64).sum::<f64>().max(1.0);
        let row = vec![
            size.to_string(),
            trained.tsa.state_count().to_string(),
            format!("{:.1}%", unknown * 100.0),
            ab.improvement(&runs),
        ];
        ab.table.row(row);
    }
    ab.render("training-input size")
}
