//! The `serve` subcommand: the tail-latency study over the sharded
//! transactional store service.
//!
//! Cells are (store shape × arrival process × threads). Each cell measures
//! per-request sojourn latency (p50/p95/p99 in virtual ticks) under
//! `default` and `guided` admission over every test seed, then reports the
//! cross-seed spread of the p99 — the serve-side analogue of the paper's
//! execution-variance metric: a guided run is useful to an operator when
//! it makes the *tail* predictable across runs, not just the mean, and the
//! comparison line prices that in throughput.

use gstm_guide::RunOutcome;
use gstm_serve::{Arrival, ServeSpec};
use gstm_stats::{mean, percent_change, sample_stddev, TextTable};

use crate::config::ExpConfig;
use crate::metrics::{mean_stat, stat};
use crate::study::{Cell, ServeStudy};

/// The store shapes the study sweeps.
pub const SERVE_SHAPES: [&str; 2] = ["hot", "wide"];

/// The arrival processes the study sweeps.
pub const SERVE_ARRIVALS: [&str; 2] = ["poisson", "bursty"];

/// Builds the spec for one (shape, arrival) pair, scaled by the config's
/// `serve_requests`.
///
/// # Panics
///
/// Panics on an unknown shape or arrival tag.
pub fn serve_spec(cfg: &ExpConfig, shape: &str, arrival: &str) -> ServeSpec {
    let spec = match shape {
        "hot" => ServeSpec::hot(cfg.serve_requests),
        "wide" => ServeSpec::wide(cfg.serve_requests),
        other => panic!("unknown serve shape {other}"),
    };
    let mean_gap = spec.arrival.mean_gap();
    match arrival {
        "poisson" => spec,
        "bursty" => spec.with_arrival(Arrival::Bursty { mean_gap, burst: 8 }),
        other => panic!("unknown serve arrival {other}"),
    }
}

/// Cross-seed coefficient of variation of one workload stat, in percent.
fn stat_cov_pct(runs: &[RunOutcome], key: &str) -> f64 {
    let xs: Vec<f64> = runs.iter().map(|r| stat(r, key).unwrap_or_default()).collect();
    let m = mean(&xs);
    if m == 0.0 {
        0.0
    } else {
        100.0 * sample_stddev(&xs) / m
    }
}

/// Mean served throughput in requests per kilotick of makespan.
fn throughput(runs: &[RunOutcome]) -> f64 {
    let per_run: Vec<f64> = runs
        .iter()
        .map(|r| {
            let done = stat(r, "req_done").unwrap_or_default();
            if r.makespan == 0 {
                0.0
            } else {
                1000.0 * done / r.makespan as f64
            }
        })
        .collect();
    mean(&per_run)
}

/// Mean shed percentage of offered load.
fn shed_pct(runs: &[RunOutcome]) -> f64 {
    let done = mean_stat(runs, "req_done");
    let shed = mean_stat(runs, "req_shed");
    if done + shed == 0.0 {
        0.0
    } else {
        100.0 * shed / (done + shed)
    }
}

/// The latency columns of a serve table.
const LATENCY_COLUMNS: [&str; 6] = ["p50", "p95", "p99", "p99 CoV%", "thru/ktick", "shed%"];

/// One run set's entries under [`LATENCY_COLUMNS`].
fn latency_row(runs: &[RunOutcome]) -> [String; 6] {
    [
        format!("{:.0}", mean_stat(runs, "sojourn_p50")),
        format!("{:.0}", mean_stat(runs, "sojourn_p95")),
        format!("{:.0}", mean_stat(runs, "sojourn_p99")),
        format!("{:.1}", stat_cov_pct(runs, "sojourn_p99")),
        format!("{:.2}", throughput(runs)),
        format!("{:.1}", shed_pct(runs)),
    ]
}

/// Renders the serve study: the per-cell latency table plus one
/// guided-vs-default comparison line per cell.
pub fn render_serve(cfg: &ExpConfig, study: &ServeStudy) -> String {
    let mut out = format!(
        "== Serve: open-loop store service, sojourn latency in ticks ({} seeds) ==\n",
        cfg.test_seeds.len()
    );
    let mut t = TextTable::new(
        ["cell", "policy"].into_iter().chain(LATENCY_COLUMNS).map(String::from).collect(),
    );
    let label = |cell: &Cell<(&str, &str)>| {
        let (shape, arrival) = cell.workload;
        format!("{shape}/{arrival}/{}t", cell.threads)
    };
    for cell in &study.cells {
        for (policy, runs) in [("default", &cell.default_runs), ("guided", &cell.guided_runs)] {
            t.row([label(cell), policy.into()].into_iter().chain(latency_row(runs)).collect());
        }
    }
    t.render_to(&mut out).expect("writing to a String cannot fail");
    out.push('\n');
    for cell in &study.cells {
        let label = label(cell);
        let cov_d = stat_cov_pct(&cell.default_runs, "sojourn_p99");
        let cov_g = stat_cov_pct(&cell.guided_runs, "sojourn_p99");
        let p99_delta = percent_change(
            mean_stat(&cell.default_runs, "sojourn_p99"),
            mean_stat(&cell.guided_runs, "sojourn_p99"),
        );
        let thru_delta =
            percent_change(throughput(&cell.default_runs), throughput(&cell.guided_runs));
        out.push_str(&format!(
            "{label}: guided p99 spread {cov_g:.1}% vs default {cov_d:.1}% \
             ({:+.1} pp), p99 {p99_delta:+.1}%, throughput {thru_delta:+.1}%\n",
            cov_g - cov_d,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_differ_across_cells() {
        let cfg = ExpConfig::tiny();
        let mut keys = std::collections::BTreeSet::new();
        for shape in SERVE_SHAPES {
            for arrival in SERVE_ARRIVALS {
                let spec = serve_spec(&cfg, shape, arrival);
                assert_eq!(spec.requests_per_thread, cfg.serve_requests);
                assert!(keys.insert(spec.cache_key()), "duplicate cell key for {shape}/{arrival}");
            }
        }
        assert_eq!(keys.len(), 4);
    }

    #[test]
    #[should_panic(expected = "unknown serve shape")]
    fn unknown_shape_rejected() {
        let _ = serve_spec(&ExpConfig::tiny(), "lukewarm", "poisson");
    }

    #[test]
    fn render_handles_empty_study() {
        let cfg = ExpConfig::tiny();
        let body = render_serve(&cfg, &ServeStudy::default());
        assert!(body.contains("Serve: open-loop store service"));
    }
}
