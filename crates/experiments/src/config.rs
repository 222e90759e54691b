//! Experiment configuration shared by every table/figure.

use gstm_stamp::InputSize;

/// Configuration of an experiment sweep.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Thread counts to evaluate (the paper: 8 and 16).
    pub threads_list: Vec<usize>,
    /// Seeds used for the measured (test) runs; the paper averages 20 runs.
    pub test_seeds: Vec<u64>,
    /// Seeds used for profiling/training; the paper trains from 20 runs.
    pub train_seeds: Vec<u64>,
    /// The `Tfactor` threshold knob (§VI: 4 balances).
    pub tfactor: f64,
    /// Training input size (the artifact default: medium).
    pub train_size: InputSize,
    /// Test input size (the artifact default: small).
    pub test_size: InputSize,
    /// SynQuake frame counts: (training frames, test frames). The paper
    /// uses 1000/10000 frames with 1000 players; we scale both down so the
    /// full sweep fits a CI budget (DESIGN.md §2).
    pub synquake_frames: (u64, u64),
    /// SynQuake player count (paper: 1000; scaled to 600 by default).
    pub synquake_players: usize,
    /// Requests per thread in the `serve` tail-latency study.
    pub serve_requests: usize,
    /// Directory results are written to: `results/` at full scale only, so
    /// a `--fast` or `--tiny` run never overwrites a committed table.
    pub out_dir: std::path::PathBuf,
    /// Collect telemetry snapshots on every measured run (the CLI's
    /// `--metrics <path>` sets this and writes the merged snapshot there).
    pub telemetry: bool,
    /// Worker-pool width for the pipeline (`--jobs N`; 1 = sequential).
    /// Results are collected by index, so output is identical at any width.
    pub jobs: usize,
    /// Content-addressed cache directory (`--cache-dir PATH`); `None`
    /// (`--no-cache`) disables caching of trained models and run outcomes.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl ExpConfig {
    /// The full configuration used for EXPERIMENTS.md (paper parity:
    /// 20 + 20 seeds).
    pub fn full() -> Self {
        ExpConfig {
            threads_list: vec![8, 16],
            test_seeds: (1000..1020).collect(),
            train_seeds: (1..21).collect(),
            tfactor: 4.0,
            train_size: InputSize::Medium,
            test_size: InputSize::Small,
            synquake_frames: (10, 24),
            synquake_players: 600,
            serve_requests: 400,
            out_dir: "results".into(),
            telemetry: false,
            jobs: 1,
            cache_dir: Some(std::path::PathBuf::from("target/gstm-cache")),
        }
    }

    /// A reduced configuration for smoke testing the harness.
    pub fn fast() -> Self {
        ExpConfig {
            threads_list: vec![4, 8],
            test_seeds: (1000..1006).collect(),
            train_seeds: (1..7).collect(),
            synquake_frames: (5, 10),
            synquake_players: 150,
            serve_requests: 200,
            out_dir: "target/gstm-results/fast".into(),
            ..ExpConfig::full()
        }
    }

    /// A minimal configuration for CI smoke runs and golden tests: one
    /// small thread count, two seeds each way, tiny SynQuake.
    pub fn tiny() -> Self {
        ExpConfig {
            threads_list: vec![2],
            test_seeds: vec![1000, 1001],
            train_seeds: vec![1, 2],
            synquake_frames: (2, 3),
            synquake_players: 40,
            serve_requests: 80,
            out_dir: "target/gstm-results/tiny".into(),
            ..ExpConfig::fast()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matches_paper_parameters() {
        let c = ExpConfig::full();
        assert_eq!(c.threads_list, vec![8, 16]);
        assert_eq!(c.test_seeds.len(), 20);
        assert_eq!(c.train_seeds.len(), 20);
        assert_eq!(c.tfactor, 4.0);
        assert_eq!(c.train_size, InputSize::Medium);
        assert_eq!(c.test_size, InputSize::Small);
    }

    #[test]
    fn fast_is_smaller() {
        let f = ExpConfig::fast();
        assert!(f.test_seeds.len() < 20);
        assert!(f.synquake_players < 1000);
    }

    #[test]
    fn tiny_is_smallest_and_defaults_are_pipeline_safe() {
        let t = ExpConfig::tiny();
        assert_eq!(t.threads_list, vec![2]);
        assert!(t.test_seeds.len() <= ExpConfig::fast().test_seeds.len());
        assert_eq!(t.jobs, 1, "sequential unless --jobs is given");
        assert!(t.cache_dir.is_some(), "caching is on by default");
    }
}
