//! # gstm-collections — transactional data structures
//!
//! The STAMP suite ships a small library of transactional containers
//! (hashtable, list, queue, heap) that its benchmarks are built from; this
//! crate is the equivalent for the GSTM reproduction. Every operation takes
//! a [`gstm_core::Txn`] and composes with any other transactional work in
//! the same atomic block.
//!
//! * [`TArray`] — fixed array, one `TVar` per element;
//! * [`THashMap`] / [`TSet`] — bucketized hash map/set (bucket-granular
//!   conflicts);
//! * [`TQueue`] — two-stack FIFO;
//! * [`TWorklist`] — sharded work-stealing list for refinement-style loops.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod array;
mod map;
mod queue;

pub use array::TArray;
pub use map::{THashMap, TSet};
pub use queue::{TQueue, TWorklist};
