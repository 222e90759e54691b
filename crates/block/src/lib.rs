//! Ordered optimistic block execution (Block-STM style).
//!
//! Given a **block** of `n` transactions with a fixed serial order
//! `0, 1, …, n-1`, the executor runs them speculatively in parallel over a
//! per-batch multi-version map and guarantees the outcome — every
//! transaction's output and the block's final write set — is **byte
//! identical to executing the same transactions sequentially in block
//! order**, at any lane count. The serial order is fixed up front, so the
//! commit order is not a race outcome: this is the ordered second half of
//! the multi-version story (DESIGN.md §6h), and the reason block mode
//! collapses cross-seed execution variance.
//!
//! ## How it works
//!
//! * Writes go into an [`MvMap`](mvmap::MvMap) keyed `(key, writer index)`.
//!   A read by transaction `i` resolves to the newest write by a `j < i`
//!   (or the caller's base state) and records the version it saw.
//! * The [scheduler](executor) is lock-free: an execution cursor hands
//!   out transactions, a validation cursor settles them **in block
//!   order**, one atomic status word per transaction says who owns it. A
//!   transaction whose reads no longer hold when the cursor reaches it is
//!   aborted — its writes become **estimates**, which suspend any reader
//!   that meets them — and re-executed at once against the settled prefix.
//!   None is aborted twice; transaction `i`'s body runs at most `i + 1`
//!   times.
//! * The calling thread is always the first lane. [`execute_block`] adds
//!   scoped helpers; [`execute_block_on`] asks a persistent [`BlockPool`]
//!   for help once a block has run long enough for a second lane to pay.
//! * [`stream_block_on`] runs a block whose transactions arrive over time
//!   ([`BlockHooks::admit`]) and hands each one over as soon as the prefix
//!   up to it has settled ([`BlockHooks::settle`]), in block order.
//!
//! The executor knows nothing about TL2, lock tables or WALs: `gstm-serve`
//! layers `ServeMode::Block` on top, committing each transaction through
//! the real engine from its `settle` hook — in block order, one commit
//! sequence number per transaction, so the WAL stays gap-free.

#![warn(missing_docs)]

pub mod executor;
pub mod mvmap;
pub mod pool;

pub use executor::{
    execute_block, execute_block_on, stream_block_on, BlockHooks, BlockOutcome, Blocked, TxnCtx,
};
pub use pool::BlockPool;

/// Knobs of one block execution, validated loudly at construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockConfig {
    /// Maximum transactions per block (callers chop longer sequences).
    pub block_size: usize,
    /// Stripes in the multi-version map (they spread lock contention and
    /// never change an outcome).
    pub parts: usize,
}

impl BlockConfig {
    /// Hard cap on `parts`: beyond this, per-stripe mutexes cost more than
    /// they save on any plausible block size.
    pub const MAX_PARTS: usize = 4096;

    /// Hard cap on `block_size`: a block is a latency batch, not a log.
    pub const MAX_BLOCK_SIZE: usize = 1 << 20;

    /// Builds a validated config.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message when either knob is zero or exceeds
    /// its cap, instead of a panic deep inside stripe sizing.
    pub fn new(block_size: usize, parts: usize) -> Result<Self, String> {
        if block_size == 0 || block_size > Self::MAX_BLOCK_SIZE {
            return Err(format!(
                "block_size must be in 1..={}, got {block_size}",
                Self::MAX_BLOCK_SIZE
            ));
        }
        if parts == 0 || parts > Self::MAX_PARTS {
            return Err(format!("parts must be in 1..={}, got {parts}", Self::MAX_PARTS));
        }
        Ok(BlockConfig { block_size, parts })
    }
}

/// Counters of one (or, merged, many) block executions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Transaction executions, including the first run of each.
    pub executions: u64,
    /// Executions beyond each transaction's first (aborted incarnations
    /// re-run).
    pub re_executions: u64,
    /// Validation passes performed.
    pub validations: u64,
    /// Validations that failed and aborted their transaction.
    pub validation_fails: u64,
    /// Reads that hit an estimate and suspended on the writer.
    pub dependency_stalls: u64,
    /// Validation waves: 1 + the number of aborts (each one sends the
    /// readers of the aborted writes back through validation).
    pub waves: u64,
}

impl BlockStats {
    /// Accumulates another block's counters into this one.
    pub fn merge(&mut self, other: &BlockStats) {
        self.executions += other.executions;
        self.re_executions += other.re_executions;
        self.validations += other.validations;
        self.validation_fails += other.validation_fails;
        self.dependency_stalls += other.dependency_stalls;
        self.waves += other.waves;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_rejects_degenerate_knobs_loudly() {
        assert!(BlockConfig::new(64, 8).is_ok());
        let err = BlockConfig::new(0, 8).unwrap_err();
        assert!(err.contains("block_size"), "message names the knob: {err}");
        let err = BlockConfig::new(64, 0).unwrap_err();
        assert!(err.contains("parts"), "message names the knob: {err}");
        assert!(BlockConfig::new(BlockConfig::MAX_BLOCK_SIZE + 1, 8).is_err());
        assert!(BlockConfig::new(64, BlockConfig::MAX_PARTS + 1).is_err());
    }

    #[test]
    fn stats_merge_is_fieldwise_sum() {
        let mut a = BlockStats {
            executions: 10,
            re_executions: 2,
            validations: 9,
            validation_fails: 1,
            dependency_stalls: 3,
            waves: 2,
        };
        a.merge(&BlockStats {
            executions: 5,
            re_executions: 1,
            validations: 4,
            validation_fails: 0,
            dependency_stalls: 1,
            waves: 1,
        });
        assert_eq!(a.executions, 15);
        assert_eq!(a.re_executions, 3);
        assert_eq!(a.validations, 13);
        assert_eq!(a.validation_fails, 1);
        assert_eq!(a.dependency_stalls, 4);
        assert_eq!(a.waves, 3);
    }
}
