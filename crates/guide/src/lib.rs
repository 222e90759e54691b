//! # gstm-guide — guided execution: the paper's framework, end to end
//!
//! Wires the four phases of the paper's Figure 1 together:
//!
//! 1. **Profile Execution** — [`run_workload`] with event capture;
//! 2. **Model Generation** — [`train`] parses the profiled transaction
//!    sequences and builds the Thread State Automaton;
//! 3. **Model Analysis** — the analyzer verdict rides along in
//!    [`TrainedModel`]; unfit models (ssca2) should not be used for
//!    guidance;
//! 4. **Guided Execution** — [`GuidedPolicy`] plugs the compiled model into
//!    the STM's admission hook, holding back transactions that would steer
//!    the system into low-probability states.
//!
//! Benchmarks implement [`Workload`]; everything else is provided.
//!
//! ```
//! use gstm_core::{TVar, TxId};
//! use gstm_guide::{
//!     run_workload, train, PolicyChoice, RunOptions, WorkerEnv, Workload, WorkloadRun,
//! };
//!
//! struct Incr;
//! struct IncrRun(TVar<i64>);
//!
//! impl Workload for Incr {
//!     fn name(&self) -> &'static str { "incr" }
//!     fn instantiate(&self, _threads: usize, _seed: u64) -> Box<dyn WorkloadRun> {
//!         Box::new(IncrRun(TVar::new(0)))
//!     }
//! }
//! impl WorkloadRun for IncrRun {
//!     fn worker(&self, env: WorkerEnv) -> Box<dyn FnOnce() + Send> {
//!         let v = self.0.clone();
//!         Box::new(move || {
//!             for _ in 0..10 {
//!                 env.stm.run(env.thread, TxId::new(0), |tx| {
//!                     let x = tx.read(&v)?;
//!                     tx.write(&v, x + 1)
//!                 });
//!             }
//!         })
//!     }
//! }
//!
//! // Train on three seeds, then run guided.
//! let trained = train(&Incr, &RunOptions::new(2, 0), &[1, 2, 3], 4.0);
//! let guided = RunOptions::new(2, 42).with_policy(PolicyChoice::guided(trained.model));
//! let outcome = run_workload(&Incr, &guided);
//! assert_eq!(outcome.total_commits(), 20);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod baselines;
mod harness;
mod policy;
mod train;

pub use baselines::{BoundedAbortsPolicy, DeterministicPolicy};
pub use harness::{
    run_workload, CmChoice, PolicyChoice, RunOptions, RunOutcome, WorkerEnv, Workload, WorkloadRun,
};
pub use policy::{GuidedPolicy, HoldStats, DEFAULT_K};
pub use train::{train, train_pooled, TrainedModel};
