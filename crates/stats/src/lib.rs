//! # gstm-stats — statistics for the GSTM experiments
//!
//! Implements exactly the quantities the paper reports:
//!
//! * **execution-time variance**: the sample standard deviation
//!   `s = sqrt( Σ (xᵢ − x̄)² / (N−1) )` over repeated runs (§II-B);
//! * the **tail metric** over abort distributions:
//!   `tailᵢ = Σⱼ j²` over the *distinct* abort counts `j` seen by thread `i`
//!   (squaring emphasizes the tail; Table IV);
//! * **non-determinism**: the number of distinct thread transactional
//!   states, `|S|` (computed in `gstm-model`; the percent-change helpers
//!   here turn two `|S|` values into Figure 9's bars);
//! * percent improvement / slowdown helpers used by every figure.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod describe;
mod table;
mod tail;

pub use describe::{mean, sample_stddev, sample_variance};
pub use table::TextTable;
pub use tail::{percent_change, percent_reduction, slowdown, tail_metric};
