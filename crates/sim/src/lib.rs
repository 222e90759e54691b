//! # gstm-sim — a deterministic virtual-core machine for STM experiments
//!
//! The paper evaluates on dedicated 8-core and 16-core x86 machines with one
//! worker thread pinned per core (Table II). This crate substitutes for that
//! hardware: it is a **discrete-event scheduler** that runs real Rust worker
//! closures (each on its own OS thread) but serializes every observable step
//! through [`SimGate`], an implementation of [`gstm_core::Gate`].
//!
//! Each `pass(thread, cost)` blocks the worker until the step is granted.
//! The grant always goes to the runnable worker with the smallest *virtual
//! clock*, advancing it by the step's cost plus a seeded random jitter (the
//! stand-in for the paper's "architectural artifacts like cache-misses ...
//! non-deterministic memory access latency"). There is no scheduler thread:
//! the last worker to park makes that decision itself, under the machine's
//! one lock. Two runs with the same seed produce byte-identical event
//! sequences; different seeds are the reproduction's equivalent of the
//! paper's repeated timing runs.
//!
//! Because exactly one worker executes between grants, all shared-memory
//! interleaving is serialized in grant order — the engine's atomics stay
//! correct and the whole execution is deterministic.
//!
//! ```
//! use std::sync::Arc;
//! use gstm_core::{Stm, StmConfig, TVar, ThreadId, TxId};
//! use gstm_sim::{SimConfig, SimMachine};
//!
//! let machine = SimMachine::new(SimConfig::new(2, 42));
//! let stm = Arc::new(Stm::with_parts(
//!     StmConfig::new(2),
//!     machine.gate(),
//!     Arc::new(gstm_core::NullSink),
//!     Arc::new(gstm_core::AdmitAll),
//!     Arc::new(gstm_core::cm::Aggressive),
//! ));
//! let v = TVar::new(0i64);
//! let workers = (0..2u16)
//!     .map(|i| {
//!         let stm = Arc::clone(&stm);
//!         let v = v.clone();
//!         Box::new(move || {
//!             for _ in 0..10 {
//!                 stm.run(ThreadId::new(i), TxId::new(0), |tx| {
//!                     let n = tx.read(&v)?;
//!                     tx.write(&v, n + 1)
//!                 });
//!             }
//!         }) as Box<dyn FnOnce() + Send>
//!     })
//!     .collect();
//! let report = machine.run(workers);
//! assert_eq!(*v.load_unlogged(), 20);
//! assert_eq!(report.thread_ticks.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod barrier;
mod chaos;
mod gate;
mod machine;

pub use barrier::{NativeBarrier, SimBarrier, WaitBarrier};
pub use chaos::{ChaosConfig, ChaosGate, ChaosStats};
pub use gate::SimGate;
pub use machine::{RunReport, SimConfig, SimMachine};
