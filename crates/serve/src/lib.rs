//! # gstm-serve — sharded transactional store service
//!
//! The paper measures STM variance in closed benchmark loops; this crate
//! asks the question a service operator would: **what does commit-time
//! variance do to tail latency under open-loop load?** It layers a sharded
//! in-memory KV/object store on `gstm-collections` maps over the TL2
//! engine, fronts it with a typed request API (`Get`, `Put`, `Cas`,
//! multi-key `Transfer`, bounded `Scan`) where each request executes as
//! one STM transaction, and drives it with a seeded open-loop traffic
//! generator (Poisson or bursty arrivals, Zipf key popularity) with
//! queue-depth backpressure and load shedding.
//!
//! Per-request **sojourn latency** (completion − scheduled arrival) lands
//! in `gstm-telemetry` log-bucket histograms, so p50/p95/p99 and their
//! cross-seed spread can be compared between `default` and `guided`
//! admission — turning the paper's variance story into a tail-latency
//! experiment.
//!
//! The service runs in both worlds through the `Gate` seam:
//!
//! * **Simulated** ([`run_simulated`], or the pipeline's `serve` study):
//!   `SimGate` virtual time, deterministic per seed — byte-identical
//!   tables across reruns.
//! * **Native** ([`run_native`]): OS threads on [`gstm_core::RealGate`] with
//!   wall-clock arrivals — same store, schedules and loop.
//!
//! ```
//! use gstm_guide::RunOptions;
//! use gstm_serve::{run_simulated, ServeSpec};
//!
//! let spec = ServeSpec::hot(60);
//! let out = run_simulated(&spec, &RunOptions::new(2, 1));
//! let p99 = out
//!     .workload_stats
//!     .iter()
//!     .find(|(k, _)| k == "sojourn_p99")
//!     .map(|(_, v)| *v)
//!     .unwrap();
//! assert!(p99 > 0.0);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod block_mode;
pub mod service;
pub mod store;
pub mod traffic;

pub use backend::{
    decode_request, decode_state, encode_request, encode_state, recover_store, store_digest,
    BackendKind, DurableBackend, EphemeralBackend, Materializer, RecoveredStore, StoreBackend,
};
pub use block_mode::{
    apply_with, block_parts, execute_block_order, merge_block_order, response_digest,
    run_block_reference, BlockModeReport,
};
pub use service::{
    run_native, run_simulated, serve_schedule, spine_config, GateClock, NativeReport, ServeClock,
    ServeMode, ServeRun, ServeSpec, ServeWorkload, SpineMode, ThreadLog, WallClock,
};
pub use store::{
    interpret, Entry, EntryAccess, Request, Response, ShardedStore, INITIAL_BALANCE, MAX_SCAN_LEN,
};
pub use traffic::{generate_schedule, Arrival, Drift, Mix, ScheduledRequest, TrafficSpec};
