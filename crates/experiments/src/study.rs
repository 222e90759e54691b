//! Study data types and training primitives.
//!
//! The cell/study types every table and figure renders from live here,
//! together with the training passes (STAMP, SynQuake and serve). *Running*
//! studies is the pipeline's job: build a [`crate::pipeline::StudyPlan`]
//! and resolve it with [`crate::pipeline::Pipeline::resolve`], which shares
//! training passes, caches outcomes and fans independent cells out across
//! worker threads.

use gstm_guide::{train, train_pooled, RunOptions, RunOutcome, TrainedModel};
use gstm_serve::{ServeSpec, ServeWorkload};
use gstm_stamp::benchmark;
use gstm_synquake::{Quest, SynQuake};
use gstm_telemetry::Snapshot;

use crate::config::ExpConfig;

/// Everything measured for one (workload, thread-count) pair: the model
/// the guided arm ran, and default-STM and guided-STM runs, one per test
/// seed. `W` names the workload: a STAMP benchmark, a SynQuake test quest,
/// or a serve (shape, arrival) pair.
#[derive(Debug)]
pub struct Cell<W> {
    /// The workload the cell measured.
    pub workload: W,
    /// Worker/core count.
    pub threads: usize,
    /// The model the guided runs were guided by.
    pub trained: TrainedModel,
    /// Default-STM runs (one per test seed).
    pub default_runs: Vec<RunOutcome>,
    /// Guided-STM runs (one per test seed).
    pub guided_runs: Vec<RunOutcome>,
}

/// The cells of one study, in the order [`Study::runs`] visits them.
#[derive(Debug)]
pub struct Study<W> {
    /// The measured cells.
    pub cells: Vec<Cell<W>>,
}

impl<W> Default for Study<W> {
    fn default() -> Self {
        Study { cells: Vec::new() }
    }
}

impl<W: PartialEq> Study<W> {
    /// The cell for a workload at a thread count.
    pub fn cell(&self, workload: W, threads: usize) -> Option<&Cell<W>> {
        self.cells.iter().find(|c| c.workload == workload && c.threads == threads)
    }
}

impl<W> Study<W> {
    /// Every measured run: cell order, then default runs before guided
    /// runs, then seed order.
    pub fn runs(&self) -> impl Iterator<Item = &RunOutcome> {
        self.cells.iter().flat_map(|c| c.default_runs.iter().chain(&c.guided_runs))
    }
}

/// The STAMP half of the evaluation, one cell per (benchmark, threads).
pub type StampStudy = Study<&'static str>;

/// The SynQuake half of the evaluation, one cell per (test quest, threads).
pub type QuakeStudy = Study<Quest>;

/// The serve (tail-latency) study, one cell per (shape, arrival, threads).
pub type ServeStudy = Study<(&'static str, &'static str)>;

/// Trains the model for one benchmark/thread-count (profiling runs on the
/// training input size).
pub fn train_stamp(cfg: &ExpConfig, name: &'static str, threads: usize) -> TrainedModel {
    let workload =
        benchmark(name, cfg.train_size).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let base = RunOptions::new(threads, 0);
    train(workload.as_ref(), &base, &cfg.train_seeds, cfg.tfactor)
}

/// Merges per-run telemetry snapshots. `None` when no run carried
/// telemetry.
pub fn merge_run_telemetry<'a>(runs: impl IntoIterator<Item = &'a RunOutcome>) -> Option<Snapshot> {
    let mut merged: Option<Snapshot> = None;
    for run in runs {
        if let Some(snap) = &run.telemetry {
            merged.get_or_insert_with(Snapshot::new).merge(snap);
        }
    }
    merged
}

/// Builds a small synthetic trained model for tests of the report layer
/// (solo-commit round-robin with occasional conflict tuples).
pub fn synthetic_trained(threads: usize) -> TrainedModel {
    use gstm_core::{Participant, ThreadId, TxId};
    use gstm_model::{TsaBuilder, Tts};
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
    TrainedModel::new(b.build(), 4.0)
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
    let [a, b] = Quest::training().map(|quest| SynQuake {
        players: cfg.synquake_players,
        frames: cfg.synquake_frames.0,
        quest,
    });
    train_pooled(&[&a, &b], &RunOptions::new(threads, 0), &cfg.train_seeds, cfg.tfactor)
}
