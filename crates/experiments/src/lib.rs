//! # gstm-experiments — regenerate every table and figure of the paper
//!
//! One module per concern:
//!
//! * [`config`] — sweep parameters (threads, seeds, sizes, Tfactor);
//! * [`study`] — study data types and the training passes;
//! * [`pipeline`] — [`pipeline::StudyPlan`] / [`pipeline::Pipeline`]: the
//!   declarative study runner with a content-addressed cache and a bounded
//!   worker pool (`--jobs N`);
//! * [`cache`] — the content-addressed disk cache itself;
//! * [`checkcmd`] — the `check` subcommand: a fault-injected chaos matrix
//!   judged by the `gstm-check` opacity oracle;
//! * [`recovercmd`] — the `recover` subcommand: a kill-and-recover matrix
//!   over the WAL crash points, storage backends and contention managers;
//! * [`progress`] — the [`progress::Progress`] status-line sink;
//! * [`metrics`] — derivations (per-thread stddev, tail metric merges, …);
//! * [`report`] — one renderer per paper table/figure;
//! * [`ablation`] — sweeps over the design knobs (Tfactor, k, CMs,
//!   training size).
//!
//! The `experiments` binary wires these together; see `README.md` for the
//! command map (e.g. `cargo run -p gstm-experiments --release -- table1`).

#![warn(missing_docs)]

pub mod ablation;
pub mod cache;
pub mod checkcmd;
pub mod config;
pub mod metrics;
pub mod pipeline;
pub mod progress;
pub mod recovercmd;
pub mod report;
pub mod servecmd;
pub mod study;
