//! # gstm-model — Thread State Automaton construction and analysis
//!
//! The modelling half of the paper's framework (Figure 1):
//!
//! 1. **Profile Execution** — the instrumented STM (`gstm-core`) emits the
//!    transaction sequence; [`parse_states`] groups it into
//!    thread-transactional-state tuples ([`Tts`]).
//! 2. **Model Generation** (§III, Algorithm 1) — [`TsaBuilder`] interns the
//!    states and counts transitions, producing the probabilistic automaton
//!    [`Tsa`].
//! 3. **Model Analysis** (§IV) — [`analyze`] computes the *guidance metric*
//!    (Table I/V) and rules the model fit or unfit (ssca2 is the paper's
//!    unfit example).
//! 4. **Guided Execution** (§V/§VI) — [`GuidedModel::compile`] cuts the
//!    automaton down to per-state allowed-participant sets using the
//!    `Tfactor` threshold, and [`StateTracker`] follows the live event
//!    stream to expose the current state; `gstm-guide` turns the two into
//!    an admission policy.
//!
//! Models persist via [`serialize`] in one compact binary form (GTSA).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analyzer;
pub mod serialize;
mod tracker;
mod tsa;
mod tseq;
mod tts;

pub use analyzer::{analyze, ModelAnalysis};
pub use tracker::StateTracker;
pub use tsa::{GuidedModel, Tsa, TsaBuilder, DEFAULT_MIN_SUPPORT};
pub use tseq::parse_states;
pub use tts::{StateId, StateSpace, Tts};
