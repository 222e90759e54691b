//! The experiments CLI: regenerate any table or figure of the paper.
//!
//! ```text
//! cargo run -p gstm-experiments --release -- <command>
//!     [--fast | --tiny] [--bench NAME] [--metrics PATH]
//!     [--jobs N] [--cache-dir PATH] [--no-cache]
//!
//! commands:
//!   table1 table2 table3 table4 table5
//!   fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//!   stamp      (table1+3+4, fig3..10 from one shared study)
//!   quake      (table5, fig11, fig12)
//!   serve      (open-loop store service tail-latency study -> serve.txt)
//!   serve-adaptive             (online adaptive guidance vs a stale static
//!                               model under drifting traffic ->
//!                               serve_adaptive.txt)
//!   all        (everything above)
//!   cell --bench NAME          (one STAMP cell; deterministic summary — CI smoke)
//!   ablate-tfactor | ablate-k | ablate-cm | ablate-train | ablate-policy | ablate-detection
//!   train-model --bench NAME   (profile + build + save results/NAME-<threads>t.gtsa)
//!   inspect-model FILE         (analyzer report + hottest states of a saved model)
//!   check [--tiny] [--seed N] [--threads N] [--ops N] [--jobs N]
//!                              (fault-injected chaos matrix judged by the
//!                               gstm-check opacity oracle -> results/check.txt;
//!                               exits 1 on any violation)
//!   recover [--tiny] [--seed N] [--threads N] [--requests N] [--jobs N]
//!           [--cache-dir PATH] [--no-cache]
//!                              (kill-and-recover matrix: WAL crash points x
//!                               backends x CMs, recovered stores checked
//!                               against the serial history ->
//!                               results/recover.txt; exits 1 on any violation)
//!   block-smoke [--threads N,N,..] [--requests N] [--seed N]
//!                              (block determinism smoke: one ordered block
//!                               workload executed at each worker-thread
//!                               count, digests compared against the
//!                               sequential reference; exits 1 on any
//!                               divergence)
//! ```
//!
//! Every study command resolves through the experiment pipeline: trained
//! models and measured run outcomes are cached content-addressed under
//! `--cache-dir` (default `target/gstm-cache`; `--no-cache` disables), and
//! independent cells/seeds fan out over `--jobs N` worker threads. Output
//! is byte-identical whatever the jobs count or cache state.
//!
//! `--metrics PATH` attaches telemetry to every measured run and writes the
//! merged snapshot (including the pipeline's cache gauges) as
//! Prometheus-style text to PATH plus a compact machine dump to
//! PATH.machine (parse with `gstm_stats::telemetry_dump`).
//!
//! Output is printed and archived under `results/`.

use gstm_experiments::ablation;
use gstm_experiments::cache::DiskCache;
use gstm_experiments::config::ExpConfig;
use gstm_experiments::pipeline::{Pipeline, StudyPlan};
use gstm_experiments::progress::{Progress, StderrProgress};
use gstm_experiments::report;
use gstm_experiments::study::StampCell;
use gstm_synquake::Quest;

fn usage() -> ! {
    eprintln!(
        "usage: experiments <table1|table2|table3|table4|table5|fig3..fig12|stamp|quake|serve|\
         serve-adaptive|all|\
         cell|train-model|inspect-model|sites|block-smoke|check|recover|\
         ablate-tfactor|ablate-k|ablate-cm|ablate-train|ablate-policy|ablate-detection> \
         [--fast|--tiny] [--bench NAME] [--metrics PATH] [--jobs N] \
         [--cache-dir PATH] [--no-cache]"
    );
    std::process::exit(2);
}

/// The value following `name` in `args`; exits 2 when the flag is given
/// without one (a forgotten value must not silently run the default).
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a String> {
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1).filter(|v| !v.starts_with("--")).unwrap_or_else(|| {
            eprintln!("{name} requires an argument");
            std::process::exit(2);
        })
    })
}

/// [`flag_value`] parsed as a non-negative integer; exits 2 on anything else.
fn flag_number<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    flag_value(args, name).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{name} requires a non-negative integer, got {v}");
            std::process::exit(2);
        })
    })
}

/// Archives one result body as `<out_dir>/<id>.txt`. `scripts/ci.sh` diffs
/// these files against the committed tables, so a failed write exits 1
/// instead of letting the stale committed copy pass.
fn write_result(out_dir: &std::path::Path, id: &str, body: &str) {
    let path = out_dir.join(format!("{id}.txt"));
    if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// `block-smoke`: execute one ordered block workload at each requested
/// worker-thread count — on the bare executor and on the native serve lane
/// — and compare every run's output digests against the sequential
/// same-order reference. Exits 0 with per-thread digests on success; exits
/// 1 naming the first divergence otherwise. This is the CI gate for the
/// executor's schedule-invariance guarantee.
fn run_block_smoke(args: &[String]) -> ! {
    let requests: usize = flag_number(args, "--requests").unwrap_or(200);
    let seed: u64 = flag_number(args, "--seed").unwrap_or(11);
    let threads: Vec<usize> = flag_value(args, "--threads").map_or(vec![1, 2, 4, 8], |s| {
        s.split(',')
            .map(|part| {
                part.trim().parse().unwrap_or_else(|_| {
                    eprintln!("block-smoke: bad thread count {part:?} in {s:?}");
                    std::process::exit(2);
                })
            })
            .collect()
    });
    // The contended ledger shape: transfer-dominated Zipf traffic over few
    // accounts, so blocks carry real write-write dependency chains.
    let spec = gstm_serve::ServeSpec::ledger(requests).with_block_mode(32);
    let reference = gstm_serve::run_block_reference(&spec, 2, seed);
    println!(
        "block-smoke: {} txns, reference digest {:016x}",
        reference.outputs.len(),
        reference.final_digest
    );
    let parallel: Vec<(usize, gstm_check::BlockRecord)> = threads
        .iter()
        .map(|&t| {
            let (record, stats) = gstm_serve::execute_block_order(&spec, 2, seed, t);
            println!(
                "block-smoke: threads={t} digest {:016x} (re-execs {}, stalls {}, waves {})",
                record.final_digest, stats.re_executions, stats.dependency_stalls, stats.waves
            );
            (t, record)
        })
        .collect();
    let report = gstm_check::check_block_equivalence(&reference, &parallel);
    // The native lane — arrivals on the wall clock, every transaction
    // committed through the engine by whichever lane holds the cursor.
    // `run_native` merges one stream per thread, so each thread count has
    // its own order and its own reference.
    let native_ok = threads.iter().all(|&t| {
        let native = gstm_serve::run_native(&spec, t, seed, 1, 0);
        let record = native.block.expect("a block-mode run reports its record").record;
        let ok = record == gstm_serve::run_block_reference(&spec, t, seed);
        println!(
            "block-smoke: native threads={t} digest {:016x} {}",
            record.final_digest,
            if ok { "= reference" } else { "DIVERGED from its reference" }
        );
        ok
    });
    if report.ok() && !report.is_vacuous() && native_ok {
        println!("block-smoke: PASS ({})", report.summary());
        std::process::exit(0);
    }
    eprintln!("block-smoke: FAIL ({})", report.summary());
    for v in &report.violations {
        eprintln!("block-smoke:   {v}");
    }
    std::process::exit(1);
}

/// `check`: the fault-injected chaos matrix judged by the opacity oracle.
/// Prints the per-cell report, archives it to `results/check.txt`, and
/// exits nonzero if any cell saw a violation (or the history was vacuous).
fn run_check(args: &[String]) -> ! {
    let seed: u64 = flag_number(args, "--seed").unwrap_or(7);
    let mut opts = if args.iter().any(|a| a == "--tiny") {
        gstm_experiments::checkcmd::CheckOptions::tiny(seed)
    } else {
        gstm_experiments::checkcmd::CheckOptions::new(seed)
    };
    if let Some(t) = flag_number::<usize>(args, "--threads") {
        opts.threads = t.max(2);
    }
    if let Some(o) = flag_number(args, "--ops") {
        opts.ops_per_thread = o;
    }
    // The matrix needs only the pipeline's worker pool; the tiny study
    // config supplies the pool defaults (jobs, results dir).
    let mut cfg = ExpConfig::tiny();
    if let Some(jobs) = flag_number::<usize>(args, "--jobs") {
        cfg.jobs = jobs.max(1);
    }
    let progress = StderrProgress::new();
    let pipe = Pipeline::new(&cfg, &progress).with_jobs(cfg.jobs);
    let (body, ok) = gstm_experiments::checkcmd::run_matrix(&opts, &pipe, &progress);
    write_result(&cfg.out_dir, "check", &body);
    println!("{body}");
    std::process::exit(i32::from(!ok));
}

/// `recover`: the kill-and-recover matrix over WAL crash points, storage
/// backends and contention managers. Prints the per-cell report, archives
/// it to `results/recover.txt`, and exits nonzero if any cell's recovered
/// store diverged from the serial history (or injection was vacuous).
fn run_recover(args: &[String]) -> ! {
    let seed: u64 = flag_number(args, "--seed").unwrap_or(7);
    let mut opts = if args.iter().any(|a| a == "--tiny") {
        gstm_experiments::recovercmd::RecoverOptions::tiny(seed)
    } else {
        gstm_experiments::recovercmd::RecoverOptions::new(seed)
    };
    if let Some(t) = flag_number::<usize>(args, "--threads") {
        opts.threads = t.max(2);
    }
    if let Some(r) = flag_number::<usize>(args, "--requests") {
        opts.requests_per_thread = r.max(1);
    }
    // The matrix uses the pipeline's worker pool and its text cache; the
    // tiny study config supplies the pool defaults (jobs, results dir).
    let mut cfg = ExpConfig::tiny();
    if let Some(jobs) = flag_number::<usize>(args, "--jobs") {
        cfg.jobs = jobs.max(1);
    }
    if args.iter().any(|a| a == "--no-cache") {
        cfg.cache_dir = None;
    } else if let Some(dir) = flag_value(args, "--cache-dir") {
        cfg.cache_dir = Some(std::path::PathBuf::from(dir));
    }
    let progress = StderrProgress::new();
    let mut pipe = Pipeline::new(&cfg, &progress).with_jobs(cfg.jobs);
    if let Some(dir) = &cfg.cache_dir {
        pipe = pipe.with_cache(DiskCache::new(dir.clone()));
    }
    let (body, ok) = gstm_experiments::recovercmd::run_matrix(&opts, &pipe, &progress);
    write_result(&cfg.out_dir, "recover", &body);
    progress.report(&pipe.gauges().summary());
    println!("{body}");
    std::process::exit(i32::from(!ok));
}

/// Deterministic per-seed summary of one STAMP cell — the `cell` command's
/// output, diffed byte-for-byte by the CI pipeline smoke (jobs/cache
/// invariance).
fn render_cell(cfg: &ExpConfig, cell: &StampCell) -> String {
    use gstm_experiments::metrics::per_thread_improvement;
    use gstm_stats::mean;
    let mut body = format!(
        "== Cell: {} @ {} threads ({} seeds) ==\n",
        cell.name,
        cell.threads,
        cfg.test_seeds.len()
    );
    for (label, runs) in [("default", &cell.default_runs), ("guided", &cell.guided_runs)] {
        for (seed, run) in cfg.test_seeds.iter().zip(runs.iter()) {
            body.push_str(&format!(
                "{label} seed {seed}: makespan {} commits {} aborts {} nondet {}\n",
                run.makespan,
                run.total_commits(),
                run.total_aborts(),
                run.nondeterminism
            ));
        }
    }
    let imp = mean(&per_thread_improvement(&cell.default_runs, &cell.guided_runs));
    body.push_str(&format!(
        "model states {} | mean variance improvement {imp:+.1}%\n",
        cell.trained.tsa.state_count()
    ));
    body
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let command = args[0].as_str();
    // These paths never touch the study machinery.
    match command {
        "block-smoke" => run_block_smoke(&args[1..]),
        "check" => run_check(&args[1..]),
        "recover" => run_recover(&args[1..]),
        _ => {}
    }
    let fast = args.iter().any(|a| a == "--fast");
    let tiny = args.iter().any(|a| a == "--tiny");
    let no_cache = args.iter().any(|a| a == "--no-cache");
    let bench_name: &'static str = flag_value(&args, "--bench")
        .map(|s| {
            gstm_stamp::BENCHMARK_NAMES.iter().copied().find(|n| *n == s.as_str()).unwrap_or_else(
                || {
                    eprintln!("unknown benchmark {s}; known: {:?}", gstm_stamp::BENCHMARK_NAMES);
                    std::process::exit(2);
                },
            )
        })
        .unwrap_or("kmeans");
    let metrics_path: Option<std::path::PathBuf> =
        flag_value(&args, "--metrics").map(std::path::PathBuf::from);
    let mut cfg = if tiny {
        ExpConfig::tiny()
    } else if fast {
        ExpConfig::fast()
    } else {
        ExpConfig::full()
    };
    cfg.telemetry = metrics_path.is_some();
    if let Some(jobs) = flag_number(&args, "--jobs") {
        cfg.jobs = jobs;
    }
    if no_cache {
        cfg.cache_dir = None;
    } else if let Some(dir) = flag_value(&args, "--cache-dir") {
        cfg.cache_dir = Some(std::path::PathBuf::from(dir));
    }

    let progress = StderrProgress::new();
    let mut pipe = Pipeline::new(&cfg, &progress).with_jobs(cfg.jobs);
    if let Some(dir) = &cfg.cache_dir {
        pipe = pipe.with_cache(DiskCache::new(dir.clone()));
    }

    let mut outputs: Vec<(String, String)> = Vec::new();
    let needs_stamp = matches!(
        command,
        "table1"
            | "table3"
            | "table4"
            | "fig3"
            | "fig4"
            | "fig5"
            | "fig6"
            | "fig7"
            | "fig8"
            | "fig9"
            | "fig10"
            | "stamp"
            | "all"
    );
    let needs_quake = matches!(command, "table5" | "fig11" | "fig12" | "quake" | "all");
    let needs_serve = matches!(command, "serve" | "all");

    // Declare everything the command needs, then resolve the whole plan in
    // one pass: shared training, cached outcomes, `--jobs` fan-out.
    let mut plan = StudyPlan::new();
    if needs_stamp {
        // table1/table3/fig3 only need training; everything else needs the
        // full study. Training dominates anyway, so share one full study.
        plan.stamp_study(&cfg, &gstm_stamp::BENCHMARK_NAMES);
    }
    if needs_quake {
        plan.quake_study(&cfg);
    }
    if needs_serve {
        plan.serve_study(&cfg);
    }
    if command == "cell" {
        plan.stamp_cell(bench_name, cfg.threads_list[0]);
    }
    let result = (!plan.is_empty()).then(|| pipe.resolve(&plan));
    let stamp = result.as_ref().map(|r| &r.stamp).filter(|s| !s.cells.is_empty());
    let quake = result.as_ref().map(|r| &r.quake).filter(|q| !q.cells.is_empty());
    let serve = result.as_ref().map(|r| &r.serve).filter(|s| !s.cells.is_empty());

    let threads_a = cfg.threads_list[0];
    let threads_b = *cfg.threads_list.last().expect("nonempty threads list");
    // serve-adaptive drives the pipeline directly rather than through the
    // study plan; its merged run telemetry is captured here for --metrics.
    let mut adaptive_snap: Option<gstm_telemetry::Snapshot> = None;

    let out_dir = cfg.out_dir.clone();
    let mut emit = |id: &str, body: String| {
        // Flush incrementally so long sweeps leave results behind even if
        // interrupted.
        write_result(&out_dir, id, &body);
        outputs.push((id.to_string(), body));
    };
    match command {
        "table2" => emit("table2", report::table2(&cfg)),
        "table1" => emit("table1", report::table1(&cfg, stamp.unwrap())),
        "table3" => emit("table3", report::table3(&cfg, stamp.unwrap())),
        "table4" => emit("table4", report::table4(&cfg, stamp.unwrap())),
        "fig3" => emit("fig3", report::fig3(&cfg, stamp.unwrap())),
        "fig4" => emit("fig4", report::fig_variance(threads_a, stamp.unwrap(), "Figure 4")),
        "fig6" => emit("fig6", report::fig_variance(threads_b, stamp.unwrap(), "Figure 6")),
        "fig5" => emit("fig5", report::fig_tails(threads_a, stamp.unwrap(), "Figure 5", 0)),
        "fig7" => {
            emit("fig7", report::fig_tails(threads_b, stamp.unwrap(), "Figure 7", threads_b / 2))
        }
        "fig8" => emit("fig8", report::fig8(&cfg, stamp.unwrap())),
        "fig9" => emit("fig9", report::fig9(&cfg, stamp.unwrap())),
        "fig10" => emit("fig10", report::fig10(&cfg, stamp.unwrap())),
        "table5" => emit("table5", report::table5(&cfg, quake.unwrap())),
        "fig11" => {
            emit("fig11", report::fig_quake(&cfg, quake.unwrap(), Quest::Quadrants4, "Figure 11"))
        }
        "fig12" => emit(
            "fig12",
            report::fig_quake(&cfg, quake.unwrap(), Quest::CenterSpread6, "Figure 12"),
        ),
        "serve" => emit("serve", gstm_experiments::servecmd::render_serve(&cfg, serve.unwrap())),
        "serve-adaptive" => {
            let (body, snap) = gstm_experiments::adaptcmd::serve_adaptive_report(&pipe);
            adaptive_snap = snap;
            emit("serve_adaptive", body);
        }
        "cell" => {
            let study = stamp.expect("cell was planned");
            let cell = study.cell(bench_name, threads_a).expect("planned cell resolved");
            emit("cell", render_cell(&cfg, cell));
        }
        "stamp" | "quake" | "all" => {
            if let Some(stamp) = stamp {
                emit("table1", report::table1(&cfg, stamp));
                emit("table2", report::table2(&cfg));
                emit("table3", report::table3(&cfg, stamp));
                emit("table4", report::table4(&cfg, stamp));
                emit("fig3", report::fig3(&cfg, stamp));
                emit("fig4", report::fig_variance(threads_a, stamp, "Figure 4"));
                emit("fig5", report::fig_tails(threads_a, stamp, "Figure 5", 0));
                emit("fig6", report::fig_variance(threads_b, stamp, "Figure 6"));
                emit("fig7", report::fig_tails(threads_b, stamp, "Figure 7", threads_b / 2));
                emit("fig8", report::fig8(&cfg, stamp));
                emit("fig9", report::fig9(&cfg, stamp));
                emit("fig10", report::fig10(&cfg, stamp));
            }
            if let Some(quake) = quake {
                emit("table5", report::table5(&cfg, quake));
                emit("fig11", report::fig_quake(&cfg, quake, Quest::Quadrants4, "Figure 11"));
                emit("fig12", report::fig_quake(&cfg, quake, Quest::CenterSpread6, "Figure 12"));
            }
            if let Some(serve) = serve {
                emit("serve", gstm_experiments::servecmd::render_serve(&cfg, serve));
            }
        }
        "ablate-tfactor" => emit("ablate-tfactor", ablation::ablate_tfactor(&pipe, bench_name)),
        "ablate-k" => emit("ablate-k", ablation::ablate_k(&pipe, bench_name)),
        "ablate-cm" => emit("ablate-cm", ablation::ablate_cm(&pipe, bench_name)),
        "ablate-train" => emit("ablate-train", ablation::ablate_train(&pipe, bench_name)),
        "ablate-policy" => emit("ablate-policy", ablation::ablate_policy(&pipe, bench_name)),
        "ablate-detection" => {
            emit("ablate-detection", ablation::ablate_detection(&pipe, bench_name))
        }
        "train-model" => {
            // Artifact parity: the paper's `exec.sh ... mcmc_data` phase
            // produces a `state_data` model file; this saves our binary form.
            let threads = cfg.threads_list[0];
            progress.report(&format!("training {bench_name} at {threads} threads"));
            let trained = pipe.trained_stamp(bench_name, threads);
            std::fs::create_dir_all(&cfg.out_dir).expect("create results dir");
            let path = cfg.out_dir.join(format!("{bench_name}-{threads}t.gtsa"));
            gstm_model::serialize::save(&trained.tsa, &path).expect("save model");
            emit(
                "train-model",
                format!(
                    "saved {} ({} states, {} edges, {} bytes)\nanalysis: {}\n",
                    path.display(),
                    trained.tsa.state_count(),
                    trained.tsa.edge_count(),
                    std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
                    trained.analysis,
                ),
            );
        }
        "sites" => {
            // Per-site diagnostics: which atomic block drives the aborts.
            // Capturing runs bypass the cache by design, so this path calls
            // the harness directly.
            use gstm_core::{EventSink, SiteStatsSink};
            use gstm_guide::{run_workload, RunOptions};
            let threads = cfg.threads_list[0];
            let w = gstm_stamp::benchmark(bench_name, cfg.test_size).expect("known");
            let sink = SiteStatsSink::new();
            for &seed in &cfg.test_seeds {
                let out = run_workload(w.as_ref(), &RunOptions::new(threads, seed).capturing());
                for e in out.events.expect("captured") {
                    sink.record(&e);
                }
            }
            emit(
                "sites",
                format!(
                    "== Per-site statistics: {bench_name}, {threads} threads, {} seeds ==\n{}",
                    cfg.test_seeds.len(),
                    sink.report()
                ),
            );
        }
        "inspect-model" => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let tsa =
                gstm_model::serialize::load(std::path::Path::new(path)).expect("load model file");
            let analysis = gstm_model::analyze(&tsa, cfg.tfactor);
            let mut body = format!("{}\nanalysis: {analysis}\nhottest states:\n", path);
            let mut by_heat: Vec<_> = tsa
                .space()
                .iter()
                .map(|(id, st)| (tsa.out_edges(id).iter().map(|(_, c)| *c).sum::<u64>(), id, st))
                .collect();
            by_heat.sort_by_key(|entry| std::cmp::Reverse(entry.0));
            for (heat, id, st) in by_heat.iter().take(8) {
                body.push_str(&format!("  {id} {st} ({heat} observations)\n"));
            }
            emit("inspect-model", body);
        }
        _ => usage(),
    }

    if let Some(path) = &metrics_path {
        use gstm_experiments::study::{merge_run_telemetry, quake_runs, serve_runs, stamp_runs};
        use gstm_telemetry::Snapshot;
        let stamp_snap = stamp.and_then(|s| merge_run_telemetry(stamp_runs(s)));
        let quake_snap = quake.and_then(|q| merge_run_telemetry(quake_runs(q)));
        let serve_snap = serve.and_then(|s| merge_run_telemetry(serve_runs(s)));
        let mut merged: Option<Snapshot> = None;
        for snap in
            [stamp_snap, quake_snap, serve_snap, adaptive_snap.clone()].into_iter().flatten()
        {
            match &mut merged {
                Some(m) => m.merge(&snap),
                None => merged = Some(snap),
            }
        }
        if result.is_some() || adaptive_snap.is_some() {
            // The pipeline's cache gauges ride along with the run telemetry.
            merged.get_or_insert_with(Snapshot::new).merge(&pipe.gauges().snapshot());
        }
        match merged {
            Some(snap) => {
                let machine = path.with_extension(match path.extension() {
                    Some(e) => format!("{}.machine", e.to_string_lossy()),
                    None => "machine".to_string(),
                });
                let written = std::fs::write(path, snap.to_text())
                    .and_then(|()| std::fs::write(&machine, snap.to_machine()));
                if let Err(e) = written {
                    eprintln!("--metrics: cannot write {}: {e}", path.display());
                    std::process::exit(2);
                }
                eprintln!(
                    "wrote telemetry snapshot to {} and {}",
                    path.display(),
                    machine.display()
                );
            }
            None => {
                eprintln!("--metrics: command '{command}' ran no measured study; nothing written")
            }
        }
    }

    for (_, body) in &outputs {
        println!("{body}");
    }
    // serve-adaptive drives the pipeline directly rather than through the
    // study plan, so its cache traffic must be reported too.
    if result.is_some() || command == "serve-adaptive" {
        progress.report(&pipe.gauges().summary());
    }
    eprintln!(
        "[{:7.1}s] wrote {} result file(s) to {}",
        progress.elapsed_secs(),
        outputs.len(),
        cfg.out_dir.display()
    );
}
