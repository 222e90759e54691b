//! # gstm-core — a TL2 software transactional memory with guidance hooks
//!
//! This crate is the substrate of a reproduction of *"Quantifying and
//! Reducing Execution Variance in STM via Model Driven Commit Optimization"*
//! (Mururu, Gavrilovska & Pande, CGO 2019). It implements:
//!
//! * **TL2** (Transactional Locking II): a write-back STM with lazy conflict
//!   detection, commit-time locking and a global version clock — the STM the
//!   paper instruments for STAMP (§II-A);
//! * **LibTM-style modes**: fully-optimistic detection with *abort-readers*
//!   or *wait-for-readers* resolution over visible reader registries — the
//!   STM SynQuake runs on (§VIII);
//! * **instrumentation** producing the paper's transaction sequence
//!   (begin/abort/commit events with conflict attribution), consumed by
//!   `gstm-model` to build the Thread State Automaton;
//! * an **admission-policy hook** at transaction begin, where `gstm-guide`
//!   installs the model-driven hold logic of guided execution (§V);
//! * classic **contention managers** (Polite, Karma, Greedy) as baselines
//!   (§IX);
//! * the [`Gate`] seam that lets the same engine run on native threads or on
//!   `gstm-sim`'s deterministic virtual-core machine.
//!
//! ## Quickstart
//!
//! ```
//! use gstm_core::{Stm, StmConfig, TVar, ThreadId, TxId};
//!
//! let stm = Stm::new(StmConfig::new(4));
//! let balance = TVar::new(100i64);
//! let withdrawn = stm.run(ThreadId::new(0), TxId::new(0), |tx| {
//!     let b = tx.read(&balance)?;
//!     let take = b.min(30);
//!     tx.write(&balance, b - take)?;
//!     Ok(take)
//! });
//! assert_eq!(withdrawn, 30);
//! assert_eq!(*balance.load_unlogged(), 70);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod cm;
pub mod config;
pub mod error;
pub mod events;
pub mod fxmap;
pub mod gate;
pub mod ids;
pub mod kill;
pub mod lock_table;
mod mvcc;
pub mod pad;
pub mod policy;
pub mod readset;
pub mod rng;
pub mod site_stats;
pub mod stm;
pub mod sync;
pub mod tvar;

pub use clock::VersionClock;
pub use config::{
    Detection, ReadMode, Resolution, StmConfig, StmConfigBuilder, TxnKind, READER_WAIT_LIMIT,
};
pub use error::{Abort, AbortReason};
pub use events::{EventSink, MemorySink, MulticastSink, NullSink, TxEvent};
pub use gate::{CostModel, Gate, NullGate, RealGate, Ticks, COSTS};
pub use ids::{CommitSeq, Participant, ThreadId, TxId, VarId};
pub use kill::{KillPoint, KillSwitch};
pub use pad::{CachePadded, PerThread};
pub use policy::{AdmissionPolicy, AdmitAll};
pub use site_stats::{SiteStats, SiteStatsSink};
pub use stm::{retry, CommitInfo, DoomHandle, Stm, Txn};
pub use tvar::{TVar, VarIdDomain, VarIdDomainGuard};
