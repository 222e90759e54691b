//! # gstm-telemetry — sharded metrics and snapshot export
//!
//! Low-overhead observability for the STM engine and the guided-execution
//! stack. Two pieces:
//!
//! 1. **Sharded registries** ([`MetricsRegistry`]): one [`ThreadMetrics`]
//!    shard per thread, plain `AtomicU64` counters, fixed log2-bucket
//!    [`LogHistogram`]s and the exact aborts-before-commit map, written from
//!    the hot path by that thread alone. Merging happens only at snapshot
//!    time.
//! 2. **Snapshot export** ([`Snapshot`]): merging via [`Snapshot::merge`],
//!    a stable Prometheus-style text exposition (`name{thread="3"} value`
//!    lines, byte-identical across identical runs), and a compact
//!    machine-readable dump that [`Snapshot::from_machine`] reads back.
//!
//! The registry is itself an [`gstm_core::EventSink`]: it is a run's one
//! tally of the event stream, and composes with the capture sinks through
//! `MulticastSink`:
//!
//! ```
//! use std::sync::Arc;
//! use gstm_core::{EventSink, MulticastSink, MemorySink};
//! use gstm_telemetry::MetricsRegistry;
//!
//! let capture = Arc::new(MemorySink::new());
//! let registry = Arc::new(MetricsRegistry::new(4));
//! let sink = MulticastSink::new()
//!     .with(capture.clone() as Arc<dyn EventSink>)
//!     .with(registry.clone() as Arc<dyn EventSink>);
//! // hand `sink` to Stm::with_parts(...); afterwards:
//! let _ = sink; // (no events in this doctest)
//! let snapshot = registry.snapshot();
//! print!("{}", snapshot.to_text());
//! ```

#![warn(missing_docs)]

mod histogram;
mod json;
mod registry;
mod sink;
mod snapshot;
mod telemetry_dump;

pub use histogram::{HistogramSnapshot, LogHistogram};
pub use json::JsonValue;
pub use registry::{MetricsRegistry, ThreadMetrics};
pub use snapshot::Snapshot;
