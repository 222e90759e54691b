//! Study data types and training primitives.
//!
//! The cell/study structs every table and figure renders from live here,
//! together with the two training passes (STAMP and SynQuake). *Running*
//! studies is the pipeline's job: build a [`crate::pipeline::StudyPlan`]
//! and resolve it with [`crate::pipeline::Pipeline::resolve`], which shares
//! training passes, caches outcomes and fans independent cells out across
//! worker threads.

use std::collections::BTreeMap;

use gstm_guide::{run_workload, train, RunOptions, RunOutcome, TrainedModel};
use gstm_serve::{ServeSpec, ServeWorkload};
use gstm_stamp::benchmark;
use gstm_synquake::{Quest, SynQuake};
use gstm_telemetry::Snapshot;

use crate::config::ExpConfig;

/// Everything measured for one (benchmark, thread-count) pair.
#[derive(Debug)]
pub struct StampCell {
    /// Benchmark name.
    pub name: &'static str,
    /// Worker/core count.
    pub threads: usize,
    /// Model trained on the medium input.
    pub trained: TrainedModel,
    /// Default-STM test runs (one per seed).
    pub default_runs: Vec<RunOutcome>,
    /// Guided-STM test runs (one per seed).
    pub guided_runs: Vec<RunOutcome>,
}

/// The STAMP half of the evaluation: one [`StampCell`] per
/// (benchmark, thread-count).
#[derive(Debug, Default)]
pub struct StampStudy {
    /// Cells keyed by `(name, threads)`.
    pub cells: BTreeMap<(String, usize), StampCell>,
}

impl StampStudy {
    /// The cell for a benchmark at a thread count.
    pub fn cell(&self, name: &str, threads: usize) -> Option<&StampCell> {
        self.cells.get(&(name.to_string(), threads))
    }
}

/// Trains the model for one benchmark/thread-count (profiling runs on the
/// training input size).
pub fn train_stamp(cfg: &ExpConfig, name: &'static str, threads: usize) -> TrainedModel {
    let workload =
        benchmark(name, cfg.train_size).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let base = RunOptions::new(threads, 0);
    train(workload.as_ref(), &base, &cfg.train_seeds, cfg.tfactor)
}

/// Merges per-run telemetry snapshots (deterministic order: map order, then
/// default runs before guided runs, then seed order). `None` when no run
/// carried telemetry.
pub fn merge_run_telemetry<'a>(runs: impl IntoIterator<Item = &'a RunOutcome>) -> Option<Snapshot> {
    let mut merged: Option<Snapshot> = None;
    for run in runs {
        if let Some(snap) = &run.telemetry {
            merged.get_or_insert_with(Snapshot::new).merge(snap);
        }
    }
    merged
}

/// All measured runs of a STAMP study, in deterministic order.
pub fn stamp_runs(study: &StampStudy) -> impl Iterator<Item = &RunOutcome> {
    study.cells.values().flat_map(|c| c.default_runs.iter().chain(c.guided_runs.iter()))
}

/// All measured runs of a SynQuake study, in deterministic order.
pub fn quake_runs(study: &QuakeStudy) -> impl Iterator<Item = &RunOutcome> {
    study.cells.iter().flat_map(|c| c.default_runs.iter().chain(c.guided_runs.iter()))
}

/// Builds a small synthetic trained model for tests of the report layer
/// (solo-commit round-robin with occasional conflict tuples).
pub fn synthetic_trained(threads: usize) -> TrainedModel {
    use gstm_core::{Participant, ThreadId, TxId};
    use gstm_model::{analyze, GuidedModel, TsaBuilder, Tts};
    let mut b = TsaBuilder::new();
    let mut run = Vec::new();
    for round in 0..30u16 {
        for t in 0..threads as u16 {
            let who = Participant::new(ThreadId::new(t), TxId::new(0));
            if (t + round) % 5 == 0 {
                let victim =
                    Participant::new(ThreadId::new((t + 1) % threads as u16), TxId::new(0));
                run.push(Tts::new(vec![victim], who));
            } else {
                run.push(Tts::solo(who));
            }
        }
    }
    b.add_run(&run);
    let tsa = b.build();
    let analysis = analyze(&tsa, 4.0);
    let model = std::sync::Arc::new(GuidedModel::compile(tsa.clone(), 4.0));
    TrainedModel { tsa, analysis, model }
}

/// One SynQuake test quest's measurements at one thread count.
#[derive(Debug)]
pub struct QuakeCell {
    /// The quest under test.
    pub quest: Quest,
    /// Worker/core count.
    pub threads: usize,
    /// Default-STM runs.
    pub default_runs: Vec<RunOutcome>,
    /// Guided-STM runs.
    pub guided_runs: Vec<RunOutcome>,
}

/// The SynQuake half of the evaluation.
#[derive(Debug, Default)]
pub struct QuakeStudy {
    /// Model per thread count (trained on the two training quests).
    pub trained: BTreeMap<usize, TrainedModel>,
    /// Measured cells keyed by `(quest, threads)`.
    pub cells: Vec<QuakeCell>,
}

/// One serve configuration's measurements at one thread count.
#[derive(Debug)]
pub struct ServeCell {
    /// Store-shape tag (`hot`/`wide`).
    pub shape: &'static str,
    /// Arrival-process tag (`poisson`/`bursty`).
    pub arrival: &'static str,
    /// Worker/core count.
    pub threads: usize,
    /// The full spec the cell ran.
    pub spec: ServeSpec,
    /// Default-admission runs (one per test seed).
    pub default_runs: Vec<RunOutcome>,
    /// Guided-admission runs (one per test seed).
    pub guided_runs: Vec<RunOutcome>,
}

/// The serve (tail-latency) study: one [`ServeCell`] per
/// (shape, arrival, threads).
#[derive(Debug, Default)]
pub struct ServeStudy {
    /// Cells in plan order.
    pub cells: Vec<ServeCell>,
}

/// All measured runs of a serve study, in deterministic order.
pub fn serve_runs(study: &ServeStudy) -> impl Iterator<Item = &RunOutcome> {
    study.cells.iter().flat_map(|c| c.default_runs.iter().chain(c.guided_runs.iter()))
}

/// Trains the serve model for one spec/thread-count (profiling runs of the
/// same open-loop traffic the test runs replay, on the training seeds).
pub fn train_serve(cfg: &ExpConfig, spec: &ServeSpec, threads: usize) -> TrainedModel {
    let workload = ServeWorkload::new(spec.clone());
    let base = RunOptions::new(threads, 0);
    train(&workload, &base, &cfg.train_seeds, cfg.tfactor)
}

/// Trains the SynQuake model for one thread count on the paper's two
/// training quests (`4worst_case` and `4moving`), pooling their profiled
/// transaction sequences into one automaton.
pub fn train_quake(cfg: &ExpConfig, threads: usize) -> TrainedModel {
    use gstm_model::{analyze, parse_states, GuidedModel, TsaBuilder};

    let mut builder = TsaBuilder::new();
    for quest in Quest::training() {
        let workload =
            SynQuake { players: cfg.synquake_players, frames: cfg.synquake_frames.0, quest };
        for &seed in &cfg.train_seeds {
            let opts = RunOptions::new(threads, seed).capturing();
            let outcome = run_workload(&workload, &opts);
            let events = outcome.events.expect("capture enabled");
            builder.add_run(&parse_states(&events));
        }
    }
    let tsa = builder.build();
    let analysis = analyze(&tsa, cfg.tfactor);
    let model = std::sync::Arc::new(GuidedModel::compile(tsa.clone(), cfg.tfactor));
    TrainedModel { tsa, analysis, model }
}
