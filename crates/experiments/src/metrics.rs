//! Metric derivations shared by the table/figure reports.

use std::collections::BTreeMap;

use gstm_guide::RunOutcome;
use gstm_stats::{mean, percent_reduction, sample_stddev, tail_metric};

/// Per-thread sample stddev of execution time (ticks) across runs — the
/// paper's headline quantity.
pub fn per_thread_stddev(runs: &[RunOutcome]) -> Vec<f64> {
    let threads = runs.first().map(|r| r.thread_ticks.len()).unwrap_or(0);
    (0..threads)
        .map(|t| {
            let xs: Vec<f64> = runs.iter().map(|r| r.thread_ticks[t] as f64).collect();
            sample_stddev(&xs)
        })
        .collect()
}

/// Per-thread % variance (stddev) improvement, default → guided
/// (Figures 4, 6, 8a/8c).
pub fn per_thread_improvement(default: &[RunOutcome], guided: &[RunOutcome]) -> Vec<f64> {
    per_thread_stddev(default)
        .into_iter()
        .zip(per_thread_stddev(guided))
        .map(|(d, g)| percent_reduction(d, g))
        .collect()
}

/// Merges one thread's abort histograms across runs (Figures 5, 7, 8b/8d).
pub fn merged_histogram(runs: &[RunOutcome], thread: usize) -> BTreeMap<u32, u64> {
    let mut merged = BTreeMap::new();
    for run in runs {
        if let Some(h) = run.abort_histograms.get(thread) {
            for (&k, &v) in h {
                *merged.entry(k).or_insert(0) += v;
            }
        }
    }
    merged
}

/// Average % improvement of the abort-tail metric over all threads
/// (Table IV).
pub fn avg_tail_improvement(default: &[RunOutcome], guided: &[RunOutcome]) -> f64 {
    let threads = default.first().map(|r| r.thread_ticks.len()).unwrap_or(0);
    let per_thread: Vec<f64> = (0..threads)
        .map(|t| {
            let d = tail_metric(&merged_histogram(default, t)) as f64;
            let g = tail_metric(&merged_histogram(guided, t)) as f64;
            percent_reduction(d, g)
        })
        .collect();
    mean(&per_thread)
}

/// Mean non-determinism |S| across runs.
pub fn mean_nondeterminism(runs: &[RunOutcome]) -> f64 {
    mean(&runs.iter().map(|r| r.nondeterminism as f64).collect::<Vec<_>>())
}

/// Mean makespan (benchmark execution time) across runs.
pub fn mean_makespan(runs: &[RunOutcome]) -> f64 {
    mean(&runs.iter().map(|r| r.makespan as f64).collect::<Vec<_>>())
}

/// Mean abort ratio across runs.
pub fn mean_abort_ratio(runs: &[RunOutcome]) -> f64 {
    mean(&runs.iter().map(RunOutcome::abort_ratio).collect::<Vec<_>>())
}

/// A named workload stat of one run, if the run reported it.
pub(crate) fn stat(run: &RunOutcome, key: &str) -> Option<f64> {
    run.workload_stats.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

/// Mean of a named workload stat across the runs that reported it (0 when
/// none did).
pub fn mean_stat(runs: &[RunOutcome], key: &str) -> f64 {
    mean(&runs.iter().filter_map(|r| stat(r, key)).collect::<Vec<_>>())
}

/// Renders a sparse abort histogram as the artifact does:
/// `aborts:frequency` pairs ("0:700 implies that 700 times there were zero
/// aborts").
pub fn render_histogram(h: &BTreeMap<u32, u64>) -> String {
    if h.is_empty() {
        return "(empty)".to_string();
    }
    h.iter().map(|(k, v)| format!("{k}:{v}")).collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_guide::RunOutcome;

    fn outcome(ticks: Vec<u64>, nd: usize, hist0: &[(u32, u64)]) -> RunOutcome {
        RunOutcome {
            thread_ticks: ticks.clone(),
            makespan: ticks.iter().copied().max().unwrap_or(0),
            commits: vec![1; ticks.len()],
            aborts: vec![0; ticks.len()],
            holds: vec![0; ticks.len()],
            abort_histograms: {
                let mut v = vec![BTreeMap::new(); ticks.len()];
                v[0] = hist0.iter().copied().collect();
                v
            },
            nondeterminism: nd,
            unknown_hits: 0,
            events: None,
            workload_stats: vec![("x".into(), 2.0)],
            hold_stats: None,
            telemetry: None,
        }
    }

    #[test]
    fn stddev_per_thread() {
        let runs = vec![outcome(vec![10, 20], 1, &[]), outcome(vec![30, 20], 2, &[])];
        let sd = per_thread_stddev(&runs);
        assert!(sd[0] > 0.0);
        assert_eq!(sd[1], 0.0);
    }

    #[test]
    fn improvement_is_signed() {
        let d = vec![outcome(vec![0], 0, &[]), outcome(vec![100], 0, &[])];
        let g = vec![outcome(vec![50], 0, &[]), outcome(vec![50], 0, &[])];
        let imp = per_thread_improvement(&d, &g);
        assert_eq!(imp, vec![100.0]);
    }

    #[test]
    fn histograms_merge_across_runs() {
        let runs =
            vec![outcome(vec![1], 0, &[(0, 5), (2, 1)]), outcome(vec![1], 0, &[(0, 3), (4, 2)])];
        let h = merged_histogram(&runs, 0);
        assert_eq!(h.get(&0), Some(&8));
        assert_eq!(h.get(&2), Some(&1));
        assert_eq!(h.get(&4), Some(&2));
        assert_eq!(render_histogram(&h), "0:8 2:1 4:2");
    }

    #[test]
    fn means_and_stats() {
        let runs = vec![outcome(vec![10], 3, &[]), outcome(vec![20], 5, &[])];
        assert_eq!(mean_nondeterminism(&runs), 4.0);
        assert_eq!(mean_makespan(&runs), 15.0);
        assert_eq!(mean_stat(&runs, "x"), 2.0);
        assert_eq!(mean_stat(&runs, "missing"), 0.0);
    }

    #[test]
    fn empty_histogram_renders() {
        assert_eq!(render_histogram(&BTreeMap::new()), "(empty)");
    }
}
