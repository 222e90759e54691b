//! Pipeline gauges: cache effectiveness and wall-clock accounting for the
//! experiment pipeline.
//!
//! The experiment pipeline (`gstm-experiments`) resolves study cells through
//! a content-addressed cache of trained models and run outcomes. These gauges
//! make that behaviour observable: a warm rerun must show `model_misses == 0`
//! and `train_wall_ms == 0`, and CI greps for exactly that. The struct is a
//! plain bundle of `AtomicU64`s so the pipeline's worker threads can bump it
//! without locks; [`PipelineGauges::snapshot`] folds it into the same
//! [`Snapshot`] machinery every other metric uses.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::snapshot::Snapshot;

/// Gauge name: trained models served from the cache.
pub const GAUGE_MODEL_HITS: &str = "gstm_pipeline_model_cache_hits_total";
/// Gauge name: trained models that had to be trained (and were then stored).
pub const GAUGE_MODEL_MISSES: &str = "gstm_pipeline_model_cache_misses_total";
/// Gauge name: run outcomes served from the cache.
pub const GAUGE_RUN_HITS: &str = "gstm_pipeline_run_cache_hits_total";
/// Gauge name: run outcomes that had to be executed (and were then stored).
pub const GAUGE_RUN_MISSES: &str = "gstm_pipeline_run_cache_misses_total";
/// Gauge name: study cells resolved by the pipeline.
pub const GAUGE_CELLS: &str = "gstm_pipeline_cells_total";

/// Lock-free counters describing one pipeline execution.
///
/// All fields saturate at `u64::MAX` in theory and in practice never get
/// close; `Relaxed` ordering is sufficient because the values are only read
/// for reporting after the work that bumped them has been joined.
#[derive(Debug, Default)]
pub struct PipelineGauges {
    /// Trained models served from the content-addressed cache.
    pub model_hits: AtomicU64,
    /// Trained models that had to be trained from scratch.
    pub model_misses: AtomicU64,
    /// Run outcomes served from the content-addressed cache.
    pub run_hits: AtomicU64,
    /// Run outcomes that had to be executed.
    pub run_misses: AtomicU64,
    /// Study cells resolved.
    pub cells: AtomicU64,
    /// Total wall-clock milliseconds across resolved cells.
    pub cell_wall_ms: AtomicU64,
    /// Wall-clock milliseconds spent in training passes.
    pub train_wall_ms: AtomicU64,
}

impl PipelineGauges {
    /// Creates a zeroed gauge bundle.
    pub fn new() -> Self {
        PipelineGauges::default()
    }

    /// Adds `v` to a counter (internal convenience for the pipeline).
    pub fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Folds the current values into a [`Snapshot`] as gauges, so they merge
    /// and render through the standard exposition formats.
    ///
    /// Only the counters appear here — they are deterministic for a given
    /// cache state, preserving the "snapshots are byte-identical" guarantee.
    /// The wall-clock fields (`cell_wall_ms`, `train_wall_ms`) are genuinely
    /// nondeterministic and stay out of every exported snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        snap.set_gauge(GAUGE_MODEL_HITS, self.model_hits.load(Ordering::Relaxed));
        snap.set_gauge(GAUGE_MODEL_MISSES, self.model_misses.load(Ordering::Relaxed));
        snap.set_gauge(GAUGE_RUN_HITS, self.run_hits.load(Ordering::Relaxed));
        snap.set_gauge(GAUGE_RUN_MISSES, self.run_misses.load(Ordering::Relaxed));
        snap.set_gauge(GAUGE_CELLS, self.cells.load(Ordering::Relaxed));
        snap
    }

    /// One-line human summary, stable enough to grep in CI:
    /// `pipeline cache: models 3 hit / 0 miss, runs 42 hit / 0 miss, cells 12`.
    pub fn summary(&self) -> String {
        format!(
            "pipeline cache: models {} hit / {} miss, runs {} hit / {} miss, cells {}",
            self.model_hits.load(Ordering::Relaxed),
            self.model_misses.load(Ordering::Relaxed),
            self.run_hits.load(Ordering::Relaxed),
            self.run_misses.load(Ordering::Relaxed),
            self.cells.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_exposes_all_gauges() {
        let g = PipelineGauges::new();
        g.model_hits.store(3, Ordering::Relaxed);
        g.run_misses.store(7, Ordering::Relaxed);
        g.cells.store(12, Ordering::Relaxed);
        let snap = g.snapshot();
        assert_eq!(snap.gauge_value(GAUGE_MODEL_HITS), Some(3));
        assert_eq!(snap.gauge_value(GAUGE_MODEL_MISSES), Some(0));
        assert_eq!(snap.gauge_value(GAUGE_RUN_MISSES), Some(7));
        assert_eq!(snap.gauge_value(GAUGE_CELLS), Some(12));
    }

    #[test]
    fn snapshot_excludes_wall_clock_fields() {
        // Wall-clock values vary run to run; exporting them would break the
        // byte-identical snapshot guarantee (README "Telemetry").
        let g = PipelineGauges::new();
        g.cell_wall_ms.store(1234, Ordering::Relaxed);
        g.train_wall_ms.store(567, Ordering::Relaxed);
        let text = g.snapshot().to_text();
        assert!(!text.contains("wall_ms"), "wall-clock leaked into the snapshot: {text}");
    }

    #[test]
    fn summary_is_greppable() {
        let g = PipelineGauges::new();
        g.model_hits.store(2, Ordering::Relaxed);
        g.run_hits.store(5, Ordering::Relaxed);
        let s = g.summary();
        assert_eq!(s, "pipeline cache: models 2 hit / 0 miss, runs 5 hit / 0 miss, cells 0");
    }
}
