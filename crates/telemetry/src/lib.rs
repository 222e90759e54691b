//! # gstm-telemetry — sharded metrics, flight recorder, snapshot export
//!
//! Low-overhead observability for the STM engine and the guided-execution
//! stack. Three pieces:
//!
//! 1. **Sharded registries** ([`MetricsRegistry`]): one [`ThreadMetrics`]
//!    shard per thread, plain `AtomicU64` counters and fixed log2-bucket
//!    [`LogHistogram`]s, written from the hot path with `Relaxed` stores and
//!    no locks. Merging happens only at snapshot time.
//! 2. **Flight recorder** ([`FlightRecorder`]): a bounded per-thread ring of
//!    recent [`gstm_core::events::TxEvent`]s with conflict attribution,
//!    dumpable on demand or automatically on an abort storm.
//! 3. **Snapshot export** ([`Snapshot`]): deltas via [`Snapshot::diff`], a
//!    stable Prometheus-style text exposition (`name{thread="3"} value`
//!    lines, byte-identical across identical runs), and a compact
//!    machine-readable dump that [`Snapshot::from_machine`] reads back.
//!
//! The bridge into the engine is [`TelemetrySink`], an
//! [`gstm_core::EventSink`] that composes with the existing capture sinks
//! through `MulticastSink`:
//!
//! ```
//! use std::sync::Arc;
//! use gstm_core::events::{EventSink, MulticastSink, MemorySink};
//! use gstm_telemetry::TelemetrySink;
//!
//! let capture = Arc::new(MemorySink::new());
//! let telemetry = Arc::new(TelemetrySink::new(4));
//! let sink = MulticastSink::new()
//!     .with(capture.clone() as Arc<dyn EventSink>)
//!     .with(telemetry.clone() as Arc<dyn EventSink>);
//! // hand `sink` to Stm::with_parts(...); afterwards:
//! let _ = sink; // (no events in this doctest)
//! let snapshot = telemetry.snapshot();
//! print!("{}", snapshot.to_text());
//! ```

#![warn(missing_docs)]

pub mod histogram;
pub mod json;
pub mod pipeline;
pub mod recorder;
pub mod registry;
pub mod sink;
pub mod snapshot;
mod telemetry_dump;

pub use histogram::{HistogramSnapshot, LogHistogram};
pub use json::JsonValue;
pub use pipeline::PipelineGauges;
pub use recorder::{AnomalyConfig, AnomalyDump, FlightRecorder};
pub use registry::{reason_index, MetricsRegistry, ThreadMetrics, ABORT_REASONS};
pub use sink::TelemetrySink;
pub use snapshot::Snapshot;
