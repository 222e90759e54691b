//! # gstm-wal — durable commit log with group commit and crash recovery
//!
//! A write-ahead log derived from *commit write-back events*: after a
//! transaction commits, the caller hands the log an opaque record tagged
//! with the engine's global commit sequence number. Because the STM is
//! serializable and its commit sequence is the serialization order,
//! replaying the records in sequence order against a fresh store rebuilds
//! the exact committed state — command logging, with the STM supplying
//! the total order for free.
//!
//! The crate is split along the durability stack:
//!
//! * `device` — the byte-level "disk" seam: a deterministic in-memory
//!   device for simulator runs and a real file device for native runs;
//! * `frame` — checksummed on-disk framing for log records and the
//!   snapshot envelope, distinguishing *torn* tails (normal after a
//!   crash) from *corrupt* frames (an error);
//! * `log` — the [`Wal`] itself: group-commit batching off the
//!   lock-hold path, snapshot install with log truncation, seeded crash
//!   injection via [`gstm_core::KillSwitch`], and [`recover`] to rebuild
//!   the `snapshot + tail` prefix from a post-crash disk image.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use gstm_wal::{recover, MemDevice, Wal, WalConfig};
//!
//! let log = Arc::new(MemDevice::new());
//! let snap = Arc::new(MemDevice::new());
//! let wal = Wal::new(WalConfig::new().with_batch_records(2), log, snap);
//! wal.append(1, b"credit a 5");
//! wal.append(2, b"debit b 5"); // second record flushes the batch
//! let (log_bytes, snap_bytes) = wal.disk_image();
//! let r = recover(&log_bytes, &snap_bytes).unwrap();
//! assert_eq!(r.recovered_seq(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod device;
mod frame;
mod log;

pub use device::{FileDevice, LogDevice, MemDevice};
pub use frame::{decode_log, fnv1a64, WalError};
pub use log::{recover, Recovered, Wal, WalConfig, WalStats};
