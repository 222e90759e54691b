//! End-to-end pipeline invariants (golden tests): neither the fan-out
//! width (`--jobs`) nor the cache state (cold vs warm) may change a single
//! byte of the rendered reports.

use std::sync::atomic::Ordering;

use gstm_experiments::cache::DiskCache;
use gstm_experiments::config::ExpConfig;
use gstm_experiments::pipeline::{Pipeline, StudyPlan, StudyResult};
use gstm_experiments::progress::NoProgress;
use gstm_experiments::report;

fn plan(cfg: &ExpConfig) -> StudyPlan {
    let mut p = StudyPlan::new();
    p.stamp_study(cfg, &["kmeans", "ssca2"]);
    p.quake_study(cfg);
    p
}

/// Reports covering both study halves and every aggregate we print
/// (means, stddevs, tails) — a byte-level fingerprint of the outcomes.
fn render(cfg: &ExpConfig, r: &StudyResult) -> String {
    let threads = cfg.threads_list[0];
    let mut out = String::new();
    out.push_str(&report::table1(cfg, &r.stamp));
    out.push_str(&report::table4(cfg, &r.stamp));
    out.push_str(&report::fig_variance(threads, &r.stamp, "Figure 4"));
    out.push_str(&report::table5(cfg, &r.quake));
    out
}

#[test]
fn fan_out_width_is_invisible_in_output() {
    let cfg = ExpConfig::tiny();
    let p = plan(&cfg);
    let seq = Pipeline::new(&cfg, &NoProgress).resolve(&p);
    let par = Pipeline::new(&cfg, &NoProgress).with_jobs(4).resolve(&p);
    assert_eq!(render(&cfg, &seq), render(&cfg, &par), "--jobs 4 diverged from --jobs 1");
}

#[test]
fn warm_cache_reproduces_cold_output_without_training() {
    let cfg = ExpConfig::tiny();
    let p = plan(&cfg);
    let root = std::env::temp_dir().join(format!("gstm-pipeline-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let cold_pipe = Pipeline::new(&cfg, &NoProgress).with_cache(DiskCache::new(root.clone()));
    let cold = cold_pipe.resolve(&p);
    assert!(cold_pipe.gauges().model_misses.load(Ordering::Relaxed) > 0, "cold run should train");

    let warm_pipe = Pipeline::new(&cfg, &NoProgress).with_cache(DiskCache::new(root.clone()));
    let warm = warm_pipe.resolve(&p);
    let g = warm_pipe.gauges();
    assert_eq!(g.model_misses.load(Ordering::Relaxed), 0, "warm run retrained a model");
    assert_eq!(g.run_misses.load(Ordering::Relaxed), 0, "warm run re-measured a run");
    assert!(g.model_hits.load(Ordering::Relaxed) > 0);
    assert!(g.run_hits.load(Ordering::Relaxed) > 0);
    assert_eq!(render(&cfg, &cold), render(&cfg, &warm), "warm rerun diverged from cold run");

    let _ = std::fs::remove_dir_all(&root);
}

/// The sorted file names under `<root>/<dir>`.
fn cache_files(root: &std::path::Path, dir: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(root.join(dir))
        .expect("cache subdirectory")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Every cache file is named by the digest of its key string, so these
/// names pin the model and run key formats of all three study kinds: a
/// changed key silently turns every warm cache cold.
#[test]
fn cache_keys_are_pinned() {
    let cfg = ExpConfig::tiny();
    let mut plan = StudyPlan::new();
    plan.stamp_cell("kmeans", 2).quake(2).serve_cell("hot", "poisson", 2);
    let root = std::env::temp_dir().join(format!("gstm-pipeline-keys-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    Pipeline::new(&cfg, &NoProgress).with_cache(DiskCache::new(root.clone())).resolve(&plan);
    let models = cache_files(&root, "models");
    let runs = cache_files(&root, "runs");
    let _ = std::fs::remove_dir_all(&root);
    // kmeans, synquake and serve:hot:poisson models, all at 2 threads.
    assert_eq!(
        models,
        [
            "054d64bea75375430ec9577b3345ec40.gtsa",
            "5a748c5e01c5bbec84325b9e84c83e27.gtsa",
            "5c50b4631fb51b254a949953a5ba74b4.gtsa",
        ]
    );
    // Two seeds x default and guided: 4 kmeans, 8 synquake (two test
    // quests), 4 serve runs.
    assert_eq!(
        runs,
        [
            "11cf0d4f7417e738596500f844dd07df.json",
            "1bec8f88acb4a28c9f94b7719810b7fe.json",
            "2ac798ab5e776140e9e63290fc0d51b3.json",
            "3752864e806424ac3bfa9e434c6217a5.json",
            "3e2e364b197b8cc830f3db65d4e59484.json",
            "40c3a14578aaf2cbeeb939979ace8679.json",
            "6c6806bcaa752cf309ce0d91b3180d6b.json",
            "950a9e247ef8209d09969201c7f13d76.json",
            "99713714fba8f416d2cb86b4b28e5861.json",
            "adadc73baabf1e3624f270234f153032.json",
            "b2daed3867d541591bea7cf035e8625a.json",
            "ced7b71559976e9723f6e3ed99e8dffd.json",
            "da0366be57656535acfd8245ddec4936.json",
            "e918d65311882a40137d1a429540b2be.json",
            "fc4c60f2ed2c8609b642414f27b2ba47.json",
            "fcc2c756cf9e6c4b5a2f12093f47925c.json",
        ]
    );
}
