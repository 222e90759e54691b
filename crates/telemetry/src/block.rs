//! Block-executor gauges: waves, re-executions, validation failures and
//! dependency stalls per block-mode run (DESIGN.md §6h).
//!
//! `experiments bench-block` fills one [`BlockGauges`] per measured run
//! from the executor's per-block `BlockStats`, then publishes the values
//! in `BENCH_block.json`. Like [`crate::MvccGauges`], the bundle is
//! plain `AtomicU64`s folded into a [`Snapshot`] on demand, and it is
//! **not** wired into the default run telemetry: the determinism goldens
//! digest that snapshot text byte-for-byte, and the default serve mode
//! never executes a block.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::snapshot::Snapshot;

/// Gauge name: blocks executed.
pub const GAUGE_BLOCK_BLOCKS: &str = "gstm_block_blocks_total";
/// Gauge name: transaction executions (first runs + re-executions).
pub const GAUGE_BLOCK_EXECUTIONS: &str = "gstm_block_executions_total";
/// Gauge name: executions beyond each transaction's first.
pub const GAUGE_BLOCK_RE_EXECUTIONS: &str = "gstm_block_re_executions_total";
/// Gauge name: validation passes performed.
pub const GAUGE_BLOCK_VALIDATIONS: &str = "gstm_block_validations_total";
/// Gauge name: validations that failed and aborted their transaction.
pub const GAUGE_BLOCK_VALIDATION_FAILS: &str = "gstm_block_validation_fails_total";
/// Gauge name: reads that hit an estimate and suspended on the writer.
pub const GAUGE_BLOCK_DEPENDENCY_STALLS: &str = "gstm_block_dependency_stalls_total";
/// Gauge name: validation waves (blocks + aborts) across all blocks.
pub const GAUGE_BLOCK_WAVES: &str = "gstm_block_waves_total";

/// Lock-free counters describing one run's block-executor behaviour.
#[derive(Debug, Default)]
pub struct BlockGauges {
    /// Blocks executed.
    pub blocks: AtomicU64,
    /// Transaction executions, including first runs.
    pub executions: AtomicU64,
    /// Executions beyond each transaction's first.
    pub re_executions: AtomicU64,
    /// Validation passes performed.
    pub validations: AtomicU64,
    /// Validations that failed and aborted their transaction.
    pub validation_fails: AtomicU64,
    /// Reads that hit an estimate and suspended.
    pub dependency_stalls: AtomicU64,
    /// Validation waves (one per block plus one per abort) across all blocks.
    pub waves: AtomicU64,
}

impl BlockGauges {
    /// Creates a zeroed gauge bundle.
    pub fn new() -> Self {
        BlockGauges::default()
    }

    /// Stores `v` into a gauge (the bench harness copies finished-run
    /// totals rather than incrementing live).
    pub fn set(gauge: &AtomicU64, v: u64) {
        gauge.store(v, Ordering::Relaxed);
    }

    /// Folds the current values into a [`Snapshot`] as gauges.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        snap.set_gauge(GAUGE_BLOCK_BLOCKS, self.blocks.load(Ordering::Relaxed));
        snap.set_gauge(GAUGE_BLOCK_EXECUTIONS, self.executions.load(Ordering::Relaxed));
        snap.set_gauge(GAUGE_BLOCK_RE_EXECUTIONS, self.re_executions.load(Ordering::Relaxed));
        snap.set_gauge(GAUGE_BLOCK_VALIDATIONS, self.validations.load(Ordering::Relaxed));
        snap.set_gauge(GAUGE_BLOCK_VALIDATION_FAILS, self.validation_fails.load(Ordering::Relaxed));
        snap.set_gauge(
            GAUGE_BLOCK_DEPENDENCY_STALLS,
            self.dependency_stalls.load(Ordering::Relaxed),
        );
        snap.set_gauge(GAUGE_BLOCK_WAVES, self.waves.load(Ordering::Relaxed));
        snap
    }

    /// One-line human summary, e.g.
    /// `block: blocks 12 execs 800 (re 40), validations 820 (fails 40), stalls 15, waves 20`.
    pub fn summary(&self) -> String {
        format!(
            "block: blocks {} execs {} (re {}), validations {} (fails {}), stalls {}, waves {}",
            self.blocks.load(Ordering::Relaxed),
            self.executions.load(Ordering::Relaxed),
            self.re_executions.load(Ordering::Relaxed),
            self.validations.load(Ordering::Relaxed),
            self.validation_fails.load(Ordering::Relaxed),
            self.dependency_stalls.load(Ordering::Relaxed),
            self.waves.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_exposes_all_gauges() {
        let g = BlockGauges::new();
        BlockGauges::set(&g.blocks, 12);
        BlockGauges::set(&g.executions, 800);
        BlockGauges::set(&g.waves, 20);
        let snap = g.snapshot();
        assert_eq!(snap.gauge_value(GAUGE_BLOCK_BLOCKS), Some(12));
        assert_eq!(snap.gauge_value(GAUGE_BLOCK_EXECUTIONS), Some(800));
        assert_eq!(snap.gauge_value(GAUGE_BLOCK_RE_EXECUTIONS), Some(0));
        assert_eq!(snap.gauge_value(GAUGE_BLOCK_VALIDATION_FAILS), Some(0));
        assert_eq!(snap.gauge_value(GAUGE_BLOCK_DEPENDENCY_STALLS), Some(0));
        assert_eq!(snap.gauge_value(GAUGE_BLOCK_WAVES), Some(20));
    }

    #[test]
    fn summary_is_greppable() {
        let g = BlockGauges::new();
        BlockGauges::set(&g.blocks, 3);
        let s = g.summary();
        assert!(s.starts_with("block: blocks 3 execs 0"), "unexpected summary: {s}");
    }
}
