//! Report renderers over a synthetic miniature study: every table/figure
//! function must produce well-formed output without running the full sweep.

use std::collections::BTreeMap;

use gstm_experiments::config::ExpConfig;
use gstm_experiments::report;
use gstm_experiments::study::{synthetic_trained, Cell, QuakeStudy, StampStudy};
use gstm_guide::RunOutcome;

fn outcome(ticks: &[u64], nd: usize) -> RunOutcome {
    RunOutcome {
        thread_ticks: ticks.to_vec(),
        makespan: ticks.iter().copied().max().unwrap_or(0),
        commits: vec![10; ticks.len()],
        aborts: vec![2; ticks.len()],
        holds: vec![0; ticks.len()],
        abort_histograms: vec![
            [(0u32, 8u64), (1, 2)].into_iter().collect::<BTreeMap<_, _>>();
            ticks.len()
        ],
        nondeterminism: nd,
        unknown_hits: 0,
        events: None,
        workload_stats: vec![("frame_mean".into(), 50.0), ("frame_stddev".into(), 5.0)],
        hold_stats: None,
        telemetry: None,
    }
}

fn mini_cfg() -> ExpConfig {
    let mut cfg = ExpConfig::fast();
    cfg.threads_list = vec![2];
    cfg
}

fn mini_stamp(cfg: &ExpConfig) -> StampStudy {
    let mut study = StampStudy::default();
    for name in gstm_stamp::BENCHMARK_NAMES {
        for &threads in &cfg.threads_list {
            study.cells.push(Cell {
                workload: name,
                threads,
                trained: synthetic_trained(threads),
                default_runs: vec![
                    outcome(&vec![100; threads], 9),
                    outcome(&vec![140; threads], 11),
                ],
                guided_runs: vec![outcome(&vec![110; threads], 7), outcome(&vec![120; threads], 8)],
            });
        }
    }
    study
}

#[test]
fn stamp_reports_render() {
    let cfg = mini_cfg();
    let study = mini_stamp(&cfg);
    for body in [
        report::table1(&cfg, &study),
        report::table2(&cfg),
        report::table3(&cfg, &study),
        report::table4(&cfg, &study),
        report::fig3(&cfg, &study),
        report::fig_variance(2, &study, "Figure 4"),
        report::fig_tails(2, &study, "Figure 5", 0),
        report::fig8(&cfg, &study),
        report::fig9(&cfg, &study),
        report::fig10(&cfg, &study),
    ] {
        assert!(body.starts_with("== "), "{body}");
        assert!(body.lines().count() >= 2, "{body}");
    }
    // Table rows cover every benchmark.
    let t3 = report::table3(&cfg, &study);
    for name in gstm_stamp::BENCHMARK_NAMES {
        assert!(t3.contains(name), "{t3}");
    }
}

#[test]
fn quake_reports_render() {
    let cfg = mini_cfg();
    let study = QuakeStudy {
        cells: gstm_synquake::Quest::testing()
            .into_iter()
            .map(|quest| Cell {
                workload: quest,
                threads: 2,
                trained: synthetic_trained(2),
                default_runs: vec![outcome(&[100, 100], 5)],
                guided_runs: vec![outcome(&[105, 104], 4)],
            })
            .collect(),
    };
    let t5 = report::table5(&cfg, &study);
    assert!(t5.contains("SynQuake"), "{t5}");
    let f11 = report::fig_quake(&cfg, &study, gstm_synquake::Quest::Quadrants4, "Figure 11");
    assert!(f11.contains("4quadrants"), "{f11}");
    assert!(f11.contains('x'), "{f11}");
}
