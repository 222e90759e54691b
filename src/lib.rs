//! # gstm — guided software transactional memory
//!
//! Facade over the GSTM workspace: a reproduction of *"Quantifying and
//! Reducing Execution Variance in STM via Model Driven Commit Optimization"*
//! (CGO 2019). Re-exports the public API of every crate in the stack.
//!
//! See [`core`] for the TL2 engine, [`model`] for the thread-state-automaton
//! machinery, [`guide`] for guided execution, [`sim`] for the deterministic
//! virtual-core machine, [`stamp`] and [`synquake`] for the workloads,
//! [`stats`] for the metrics, [`telemetry`] for the sharded metric
//! registry (every run's one tally) and snapshot export, [`check`] for the
//! offline opacity/serializability oracle, [`block`] for the ordered
//! Block-STM-style batch executor, [`serve`] for the sharded
//! transactional store service with open-loop traffic, and [`wal`] for the
//! durable commit log with snapshot/recovery behind it.

#![warn(missing_docs)]

pub use gstm_block as block;
pub use gstm_check as check;
pub use gstm_collections as collections;
pub use gstm_core as core;
pub use gstm_guide as guide;
pub use gstm_model as model;
pub use gstm_serve as serve;
pub use gstm_sim as sim;
pub use gstm_stamp as stamp;
pub use gstm_stats as stats;
pub use gstm_synquake as synquake;
pub use gstm_telemetry as telemetry;
pub use gstm_wal as wal;

pub use gstm_core::{
    Abort, AbortReason, ReadMode, Stm, StmConfig, TVar, ThreadId, TxId, Txn, TxnKind,
};

/// One-line import for the common workflow: build a workload, train a
/// model, run it guided, summarise the outcome.
///
/// ```
/// use gstm::prelude::*;
///
/// let w = benchmark("kmeans", InputSize::Small).unwrap();
/// let out = run_workload(w.as_ref(), &RunOptions::new(2, 7));
/// assert!(out.total_commits() > 0);
/// ```
pub mod prelude {
    pub use gstm_core::{
        retry, Abort, AbortReason, ReadMode, Stm, StmConfig, TVar, ThreadId, TxId, Txn, TxnKind,
        VarIdDomain,
    };
    pub use gstm_guide::{
        run_workload, train, CmChoice, PolicyChoice, RunOptions, RunOutcome, TrainedModel,
        WorkerEnv, Workload, WorkloadRun, DEFAULT_K,
    };
    pub use gstm_model::{analyze, parse_states, GuidedModel, StateId, Tsa, TsaBuilder, Tts};
    pub use gstm_serve::{Arrival, ServeSpec, ServeWorkload};
    pub use gstm_sim::{SimConfig, SimMachine};
    pub use gstm_stamp::{benchmark, InputSize};
    pub use gstm_stats::{mean, percent_reduction, sample_stddev, slowdown};
    pub use gstm_synquake::{Quest, SynQuake};
}
