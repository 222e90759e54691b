//! # gstm-stamp — the STAMP benchmark suite, ported to the GSTM stack
//!
//! Rust reproductions of the seven STAMP applications the paper evaluates
//! (bayes excluded — it seg-faults in the paper's own runs, §VII):
//!
//! | app | transactional shape | contention |
//! |-----|---------------------|------------|
//! | `Genome` | set dedup + map publish/link, 3 barrier phases | medium |
//! | `Intruder` | shared capture queue + reassembly map | high, queue-bound |
//! | [`Kmeans`] | per-point accumulator updates into few cells | high |
//! | `Labyrinth` | long claim transactions over grid paths | bursty |
//! | `Ssca2` | one tiny write per edge, scattered | ~zero |
//! | `Vacation` | multi-table reservation DB, random clients | medium |
//! | `Yada` | cavity refinement with variable read/write sets | cascading |
//!
//! Inputs are seeded synthetic generators with [`InputSize`] presets
//! (training = medium, testing = small, as in the paper's artifact). Every
//! benchmark implements [`gstm_guide::Workload`] and carries a post-run
//! correctness check, so the suite doubles as an STM stress test.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod genome;
mod intruder;
mod kmeans;
mod labyrinth;
mod registry;
mod size;
mod ssca2;
mod vacation;
mod yada;

pub(crate) use genome::Genome;
pub(crate) use intruder::Intruder;
pub use kmeans::Kmeans;
pub(crate) use labyrinth::Labyrinth;
pub use registry::{benchmark, BENCHMARK_NAMES};
pub use size::InputSize;
pub(crate) use ssca2::Ssca2;
pub(crate) use vacation::Vacation;
pub(crate) use yada::Yada;
