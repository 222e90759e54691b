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
//!   all        (everything above)
//!   cell --bench NAME          (one STAMP cell; deterministic summary — CI smoke)
//!   sites --bench NAME         (per-site commit/abort statistics of one STAMP
//!                               benchmark from captured runs)
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
//! PATH.machine (parse with `gstm_telemetry::Snapshot::from_machine`).
//!
//! Output is printed and archived under `results/`.

use std::path::Path;
use std::sync::atomic::Ordering;

use gstm_experiments::cache::DiskCache;
use gstm_experiments::checkcmd::CheckOptions;
use gstm_experiments::config::ExpConfig;
use gstm_experiments::pipeline::{Pipeline, StudyPlan, StudyResult};
use gstm_experiments::progress::{Progress, StderrProgress};
use gstm_experiments::recovercmd::RecoverOptions;
use gstm_experiments::servecmd::render_serve;
use gstm_experiments::study::{merge_run_telemetry, Cell};
use gstm_experiments::{ablation, report};
use gstm_synquake::Quest;

/// The study a paper output renders from, which its command plans.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Needs {
    /// None: Table II lists the configuration alone.
    Config,
    Stamp,
    Quake,
    Serve,
}

/// Renders one paper output from the resolved studies.
type Render = fn(&ExpConfig, &StudyResult) -> String;

/// The thread count of Figs. 6 and 7; Figs. 4 and 5 take the first.
fn last_threads(cfg: &ExpConfig) -> usize {
    *cfg.threads_list.last().expect("nonempty threads list")
}

/// Every paper output, in the order `all` prints them. An id names the
/// output's command and its `results/<id>.txt`; `scripts/doccheck` reads
/// the commands from these `("<id>", Needs::…` lines.
static OUTPUTS: [(&str, Needs, Render); 16] = [
    ("table1", Needs::Stamp, |c, r| report::table1(c, &r.stamp)),
    ("table2", Needs::Config, |c, _| report::table2(c)),
    ("table3", Needs::Stamp, |c, r| report::table3(c, &r.stamp)),
    ("table4", Needs::Stamp, |c, r| report::table4(c, &r.stamp)),
    ("fig3", Needs::Stamp, |c, r| report::fig3(c, &r.stamp)),
    ("fig4", Needs::Stamp, |c, r| report::fig_variance(c.threads_list[0], &r.stamp, "Figure 4")),
    ("fig5", Needs::Stamp, |c, r| report::fig_tails(c.threads_list[0], &r.stamp, "Figure 5", 0)),
    ("fig6", Needs::Stamp, |c, r| report::fig_variance(last_threads(c), &r.stamp, "Figure 6")),
    ("fig7", Needs::Stamp, |c, r| {
        report::fig_tails(last_threads(c), &r.stamp, "Figure 7", last_threads(c) / 2)
    }),
    ("fig8", Needs::Stamp, |c, r| report::fig8(c, &r.stamp)),
    ("fig9", Needs::Stamp, |c, r| report::fig9(c, &r.stamp)),
    ("fig10", Needs::Stamp, |c, r| report::fig10(c, &r.stamp)),
    ("table5", Needs::Quake, |c, r| report::table5(c, &r.quake)),
    ("fig11", Needs::Quake, |c, r| report::fig_quake(c, &r.quake, Quest::Quadrants4, "Figure 11")),
    ("fig12", Needs::Quake, |c, r| {
        report::fig_quake(c, &r.quake, Quest::CenterSpread6, "Figure 12")
    }),
    ("serve", Needs::Serve, |c, r| render_serve(c, &r.serve)),
];

/// The paper outputs `command` prints, in `all`'s order: every one for
/// `all`, Tables I–IV and Figs. 3–10 for `stamp`, Table V and Figs. 11–12
/// for `quake`, the one it names for a single-output command, and none for
/// any other command.
fn paper_outputs(command: &str) -> Vec<&'static (&'static str, Needs, Render)> {
    OUTPUTS
        .iter()
        .filter(|(id, needs, _)| match command {
            "all" => true,
            "stamp" => matches!(needs, Needs::Config | Needs::Stamp),
            "quake" => *needs == Needs::Quake,
            _ => *id == command,
        })
        .collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: experiments <table1|table2|table3|table4|table5|fig3..fig12|stamp|quake|serve|\
         all|\
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

/// `--threads` of `check` and `recover`: both matrices need two workers to
/// conflict, and every worker is a 16-bit `ThreadId`, so a count outside
/// `2..=65535` exits 2 before any run.
fn flag_thread_count(args: &[String]) -> Option<usize> {
    flag_number::<usize>(args, "--threads").inspect(|&t| {
        if !(2..=usize::from(u16::MAX)).contains(&t) {
            eprintln!("--threads must be in 2..=65535, got {t}");
            std::process::exit(2);
        }
    })
}

/// Writes one result file (a `<out_dir>/<id>.txt` body, a saved model or a
/// `--metrics` dump), creating its directory. `scripts/ci.sh` diffs result
/// files against the committed tables, so a failed write exits 1 instead of
/// letting the stale committed copy pass.
fn write_file(path: &Path, bytes: &[u8]) {
    let dir = path.parent().unwrap_or(Path::new(""));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, bytes)) {
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
    if requests == 0 {
        eprintln!("block-smoke: --requests must be at least 1, got 0");
        std::process::exit(2);
    }
    let seed: u64 = flag_number(args, "--seed").unwrap_or(11);
    let threads: Vec<usize> = flag_value(args, "--threads").map_or(vec![1, 2, 4, 8], |s| {
        s.split(',')
            .map(|part| match part.trim().parse() {
                Ok(n) if n > 0 => n,
                _ => {
                    eprintln!("block-smoke: bad thread count {part:?} in {s:?}");
                    std::process::exit(2);
                }
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

/// Deterministic per-seed summary of one STAMP cell — the `cell` command's
/// output, diffed byte-for-byte by the CI pipeline smoke (jobs/cache
/// invariance).
fn render_cell(cfg: &ExpConfig, cell: &Cell<&str>) -> String {
    use gstm_experiments::metrics::per_thread_improvement;
    use gstm_stats::mean;
    let mut body = format!(
        "== Cell: {} @ {} threads ({} seeds) ==\n",
        cell.workload,
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
    let paper = paper_outputs(command);
    let needs = |study| paper.iter().any(|&&(_, needs, _)| needs == study);

    // Declare everything the command needs, then resolve the whole plan in
    // one pass: shared training, cached outcomes, `--jobs` fan-out.
    let mut plan = StudyPlan::new();
    if needs(Needs::Stamp) {
        // table1/table3/fig3 only need training; everything else needs the
        // full study. Training dominates anyway, so share one full study.
        plan.stamp_study(&cfg, &gstm_stamp::BENCHMARK_NAMES);
    }
    if needs(Needs::Quake) {
        plan.quake_study(&cfg);
    }
    if needs(Needs::Serve) {
        plan.serve_study(&cfg);
    }
    if command == "cell" {
        plan.stamp_cell(bench_name, cfg.threads_list[0]);
    }
    let result = pipe.resolve(&plan);

    // check and recover exit 1 after reporting a violation.
    let mut passed = true;

    let out_dir = cfg.out_dir.clone();
    let mut emit = |id: &str, body: String| {
        // Flush incrementally so long sweeps leave results behind even if
        // interrupted.
        write_file(&out_dir.join(format!("{id}.txt")), body.as_bytes());
        outputs.push((id.to_string(), body));
    };
    match command {
        "block-smoke" => run_block_smoke(&args[1..]),
        "check" => {
            // The fault-injected chaos matrix judged by the opacity oracle.
            let seed = flag_number(&args, "--seed").unwrap_or(7);
            let mut opts = if tiny { CheckOptions::tiny(seed) } else { CheckOptions::new(seed) };
            if let Some(t) = flag_thread_count(&args) {
                opts.threads = t;
            }
            if let Some(o) = flag_number(&args, "--ops") {
                if o == 0 {
                    eprintln!("check: --ops must be at least 1, got 0");
                    std::process::exit(2);
                }
                opts.ops_per_thread = o;
            }
            let (body, ok) = gstm_experiments::checkcmd::run_matrix(&opts, &pipe);
            passed = ok;
            emit("check", body);
        }
        "recover" => {
            // The kill-and-recover matrix over WAL crash points, storage
            // backends and contention managers.
            let seed = flag_number(&args, "--seed").unwrap_or(7);
            let mut opts =
                if tiny { RecoverOptions::tiny(seed) } else { RecoverOptions::new(seed) };
            if let Some(t) = flag_thread_count(&args) {
                opts.threads = t;
            }
            if let Some(r) = flag_number::<usize>(&args, "--requests") {
                if r == 0 {
                    eprintln!("recover: --requests must be at least 1, got 0");
                    std::process::exit(2);
                }
                opts.requests_per_thread = r;
            }
            let (body, ok) = gstm_experiments::recovercmd::run_matrix(&opts, &pipe);
            passed = ok;
            emit("recover", body);
        }
        "cell" => {
            let cell = result.stamp.cell(bench_name, cfg.threads_list[0]).expect("planned cell");
            emit("cell", render_cell(&cfg, cell));
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
            let path = cfg.out_dir.join(format!("{bench_name}-{threads}t.gtsa"));
            let bytes = gstm_model::serialize::to_bytes(&trained.tsa);
            write_file(&path, &bytes);
            emit(
                "train-model",
                format!(
                    "saved {} ({} states, {} edges, {} bytes)\nanalysis: {}\n",
                    path.display(),
                    trained.tsa.state_count(),
                    trained.tsa.edge_count(),
                    bytes.len(),
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
            let tsa = gstm_model::serialize::load(Path::new(path)).unwrap_or_else(|e| {
                eprintln!("cannot read model {path}: {e}");
                std::process::exit(1);
            });
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
        _ if !paper.is_empty() => {
            for &&(id, _, render) in &paper {
                emit(id, render(&cfg, &result));
            }
        }
        _ => usage(),
    }

    if let Some(path) = &metrics_path {
        use gstm_telemetry::Snapshot;
        let mut merged = merge_run_telemetry(result.runs());
        if !plan.is_empty() {
            // The pipeline's cache gauges ride along with the run telemetry.
            merged.get_or_insert_with(Snapshot::new).merge(&pipe.gauges().snapshot());
        }
        match merged {
            Some(snap) => {
                let machine = path.with_extension(match path.extension() {
                    Some(e) => format!("{}.machine", e.to_string_lossy()),
                    None => "machine".to_string(),
                });
                write_file(path, snap.to_text().as_bytes());
                write_file(&machine, snap.to_machine().as_bytes());
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
    let g = pipe.gauges();
    if [&g.model_hits, &g.model_misses, &g.run_hits, &g.run_misses]
        .iter()
        .any(|c| c.load(Ordering::Relaxed) > 0)
    {
        progress.report(&g.summary());
    }
    eprintln!(
        "[{:7.1}s] wrote {} result file(s) to {}",
        progress.elapsed_secs(),
        outputs.len(),
        cfg.out_dir.display()
    );
    if !passed {
        std::process::exit(1);
    }
}
