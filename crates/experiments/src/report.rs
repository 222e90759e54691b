//! Renderers: one function per paper table/figure, each returning the
//! text block the harness prints and archives.

use gstm_stats::{percent_reduction, slowdown, TextTable};

use crate::config::ExpConfig;
use crate::metrics::{
    avg_tail_improvement, mean_abort_ratio, mean_makespan, mean_nondeterminism, mean_stat,
    merged_histogram, per_thread_improvement, render_histogram,
};
use crate::study::{Cell, QuakeStudy, StampStudy};

fn header(id: &str, caption: &str) -> String {
    format!("== {id}: {caption} ==\n")
}

/// Header plus table, streamed into one buffer ([`TextTable::render_to`])
/// instead of rendering the table to an intermediate `String`.
fn table_report(id: &str, caption: &str, t: &TextTable) -> String {
    let mut out = header(id, caption);
    t.render_to(&mut out).expect("writing to a String cannot fail");
    out
}

/// A table with one row per label in `rows` and one column per configured
/// thread count; each entry is `entry(label, threads)`, or `-` where that
/// is `None`.
fn by_threads(
    cfg: &ExpConfig,
    id: &str,
    caption: &str,
    rows: &[&'static str],
    entry: impl Fn(&'static str, usize) -> Option<String>,
) -> String {
    let mut t = TextTable::new(
        std::iter::once("Application".to_string())
            .chain(cfg.threads_list.iter().map(|n| format!("{n} threads")))
            .collect(),
    );
    for &label in rows {
        let mut row = vec![label.to_string()];
        row.extend(
            cfg.threads_list
                .iter()
                .map(|&threads| entry(label, threads).unwrap_or_else(|| "-".into())),
        );
        t.row(row);
    }
    table_report(id, caption, &t)
}

/// [`by_threads`] with one row per STAMP benchmark, each entry rendered
/// from that benchmark's cell.
fn per_benchmark(
    cfg: &ExpConfig,
    study: &StampStudy,
    id: &str,
    caption: &str,
    entry: impl Fn(&Cell<&'static str>) -> String,
) -> String {
    by_threads(cfg, id, caption, &gstm_stamp::BENCHMARK_NAMES, |name, threads| {
        study.cell(name, threads).map(&entry)
    })
}

/// Table I — model analyzer guidance metric (%), lower is better.
pub fn table1(cfg: &ExpConfig, study: &StampStudy) -> String {
    let caption = "model analyzer guidance metric % (lower is better)";
    per_benchmark(cfg, study, "Table I", caption, |cell| {
        let a = &cell.trained.analysis;
        let fit = if a.verdict.is_fit() { "" } else { " (unfit)" };
        format!("{:.0}{fit}", a.guidance_metric)
    })
}

/// Table II — configuration of the (simulated) machines.
pub fn table2(cfg: &ExpConfig) -> String {
    let mut t = TextTable::new(vec!["Feature".into(), "machine A".into(), "machine B".into()]);
    let cores: Vec<String> = cfg.threads_list.iter().map(|n| n.to_string()).collect();
    let get = |i: usize| cores.get(i).cloned().unwrap_or_else(|| "-".into());
    t.row(vec!["Virtual cores".into(), get(0), get(1)]);
    t.row(vec!["Scheduler".into(), "deterministic DES".into(), "deterministic DES".into()]);
    t.row(vec!["Cost jitter".into(), "25%".into(), "25%".into()]);
    t.row(vec![
        "Runs per data point".into(),
        cfg.test_seeds.len().to_string(),
        cfg.test_seeds.len().to_string(),
    ]);
    table_report(
        "Table II",
        "machine configuration (simulated; substitutes the paper's 8/16-core x86 hosts)",
        &t,
    )
}

/// Table III — number of states in each model.
pub fn table3(cfg: &ExpConfig, study: &StampStudy) -> String {
    per_benchmark(cfg, study, "Table III", "number of states in the model", |c| {
        c.trained.tsa.state_count().to_string()
    })
}

/// Table IV — average % improvement in the abort tail-distribution metric.
pub fn table4(cfg: &ExpConfig, study: &StampStudy) -> String {
    let caption = "average % improvement in the abort tail distribution";
    per_benchmark(cfg, study, "Table IV", caption, |c| {
        format!("{:.0}%", avg_tail_improvement(&c.default_runs, &c.guided_runs))
    })
}

/// Figure 3 — an excerpt of the kmeans TSA: the hottest state and its
/// transition probabilities.
pub fn fig3(cfg: &ExpConfig, study: &StampStudy) -> String {
    let threads = cfg.threads_list[0];
    let Some(cell) = study.cell("kmeans", threads) else {
        return header("Figure 3", "kmeans TSA excerpt") + "(kmeans not in study)\n";
    };
    let tsa = &cell.trained.tsa;
    // Hottest state = most outbound observations.
    let hot = tsa
        .space()
        .iter()
        .max_by_key(|(id, _)| tsa.out_edges(*id).iter().map(|(_, c)| *c).sum::<u64>());
    let Some((hot_id, hot_state)) = hot else {
        return header("Figure 3", "kmeans TSA excerpt") + "(empty model)\n";
    };
    let mut out = header(
        "Figure 3",
        &format!("kmeans TSA excerpt at {threads} threads: hottest state and its transitions"),
    );
    out.push_str(&format!("state {hot_id} = {hot_state}\n"));
    let mut edges: Vec<_> = tsa.out_edges(hot_id).to_vec();
    edges.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    let total: u64 = edges.iter().map(|(_, c)| c).sum();
    for (to, count) in edges.iter().take(10) {
        out.push_str(&format!(
            "  -> {}  p={:.3}\n",
            tsa.space().state(*to),
            *count as f64 / total as f64
        ));
    }
    if edges.len() > 10 {
        out.push_str(&format!("  ... {} more edges\n", edges.len() - 10));
    }
    out
}

/// Figures 4 (8 threads) and 6 (16 threads) — per-thread % execution-time
/// variance improvement for the six guided benchmarks.
pub fn fig_variance(threads: usize, study: &StampStudy, figure: &str) -> String {
    let mut out = header(
        figure,
        &format!("per-thread % execution-time variance improvement, {threads} threads"),
    );
    for name in gstm_stamp::BENCHMARK_NAMES {
        if name == "ssca2" {
            continue; // rejected by the analyzer; shown in Figure 8.
        }
        let Some(cell) = study.cell(name, threads) else { continue };
        let imp = per_thread_improvement(&cell.default_runs, &cell.guided_runs);
        let cells: Vec<String> = imp.iter().map(|v| format!("{v:+.0}%")).collect();
        out.push_str(&format!("{name:<10} {}\n", cells.join(" ")));
    }
    out
}

/// Figures 5 (8 threads) and 7 (16 threads) — abort tail distributions,
/// default (D) vs guided (G), one serially-picked thread per benchmark.
pub fn fig_tails(threads: usize, study: &StampStudy, figure: &str, thread_base: usize) -> String {
    let mut out =
        header(figure, &format!("abort distributions (aborts:frequency), {threads} threads"));
    let apps: Vec<&str> =
        gstm_stamp::BENCHMARK_NAMES.iter().copied().filter(|&n| n != "ssca2").collect();
    for (i, name) in apps.iter().enumerate() {
        let Some(cell) = study.cell(name, threads) else { continue };
        let thread = (thread_base + i) % threads;
        out.push_str(&format!(
            "{name} thread {thread}\n  D: {}\n  G: {}\n",
            render_histogram(&merged_histogram(&cell.default_runs, thread)),
            render_histogram(&merged_histogram(&cell.guided_runs, thread)),
        ));
    }
    out
}

/// Figure 8 — ssca2 under (mis)guidance: per-thread % change and abort
/// tails at both thread counts.
pub fn fig8(cfg: &ExpConfig, study: &StampStudy) -> String {
    let mut out = header(
        "Figure 8",
        "ssca2 with guided execution (the analyzer-rejected model): % improvement per thread",
    );
    for &threads in &cfg.threads_list {
        let Some(cell) = study.cell("ssca2", threads) else { continue };
        let imp = per_thread_improvement(&cell.default_runs, &cell.guided_runs);
        let cells: Vec<String> = imp.iter().map(|v| format!("{v:+.0}%")).collect();
        out.push_str(&format!("{threads} threads: {}\n", cells.join(" ")));
        let probe = threads / 2;
        out.push_str(&format!(
            "  thread {probe} aborts D: {}\n  thread {probe} aborts G: {}\n",
            render_histogram(&merged_histogram(&cell.default_runs, probe)),
            render_histogram(&merged_histogram(&cell.guided_runs, probe)),
        ));
    }
    out
}

/// Figure 9 — % reduction in non-determinism (|S|), guided vs default.
pub fn fig9(cfg: &ExpConfig, study: &StampStudy) -> String {
    let caption = "% reduction in non-determinism |S| (guided vs default)";
    per_benchmark(cfg, study, "Figure 9", caption, |c| {
        let d = mean_nondeterminism(&c.default_runs);
        let g = mean_nondeterminism(&c.guided_runs);
        format!("{:+.0}% ({d:.0}->{g:.0})", percent_reduction(d, g))
    })
}

/// Figure 10 — slowdown (×) of guided vs default execution.
pub fn fig10(cfg: &ExpConfig, study: &StampStudy) -> String {
    let caption = "slowdown (x) of guided vs default execution";
    per_benchmark(cfg, study, "Figure 10", caption, |c| {
        let s = slowdown(mean_makespan(&c.default_runs), mean_makespan(&c.guided_runs));
        format!("{s:.2}x")
    })
}

/// Table V — SynQuake guidance metric.
pub fn table5(cfg: &ExpConfig, study: &QuakeStudy) -> String {
    let caption = "SynQuake guidance metric % (lower is better)";
    by_threads(cfg, "Table V", caption, &["SynQuake"], |_, threads| {
        let cell = study.cells.iter().find(|c| c.threads == threads)?;
        Some(format!("{:.0}", cell.trained.analysis.guidance_metric))
    })
}

/// Figures 11 (4quadrants) and 12 (4center_spread6) — frame-rate variance
/// improvement, abort-ratio reduction, slowdown.
pub fn fig_quake(
    cfg: &ExpConfig,
    study: &QuakeStudy,
    quest: gstm_synquake::Quest,
    figure: &str,
) -> String {
    let mut t = TextTable::new(vec![
        "Threads".into(),
        "frame variance improvement".into(),
        "abort ratio reduction".into(),
        "slowdown (x)".into(),
    ]);
    for &threads in &cfg.threads_list {
        let Some(cell) = study.cell(quest, threads) else { continue };
        let var_d = mean_stat(&cell.default_runs, "frame_stddev");
        let var_g = mean_stat(&cell.guided_runs, "frame_stddev");
        let ar_d = mean_abort_ratio(&cell.default_runs);
        let ar_g = mean_abort_ratio(&cell.guided_runs);
        let s = slowdown(mean_makespan(&cell.default_runs), mean_makespan(&cell.guided_runs));
        t.row(vec![
            threads.to_string(),
            format!("{:+.1}% ({var_d:.0}->{var_g:.0})", percent_reduction(var_d, var_g)),
            format!("{:+.1}% ({:.3}->{:.3})", percent_reduction(ar_d, ar_g), ar_d, ar_g),
            format!("{s:.2}x"),
        ]);
    }
    table_report(figure, &format!("SynQuake quest {quest}: guided vs default"), &t)
}
