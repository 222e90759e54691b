//! GSTM's benchmark. See `README.md` beside this package for why each
//! workload exists and what each metric means.
//!
//! ```text
//! gstm-benchmark run --workload <name|all> --seed N [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! gstm-benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! ```

mod compare;
mod host;
mod metrics;
mod micro;
mod native;
mod report;
mod run;
mod sim;
mod stats;
mod traced;
mod verify;
mod workloads;

use std::process::ExitCode;

use gstm_telemetry::JsonValue;

use run::Mode;

/// Measuring seconds per workload when `--seconds` is absent: an untraced
/// and a traced run that together stay under 30 s.
const DEFAULT_SECONDS: f64 = 26.0;

/// `--quick`: all five workloads in about 15 s, for smoke use.
const QUICK_SECONDS: f64 = 1.5;

const USAGE: &str = "usage:
  gstm-benchmark run --workload <name|all> --seed N [--seconds S] [--trace 0|1] [--quick] [--out FILE]
  gstm-benchmark compare A.json B.json [--bounds BENCHMARK.json]";

struct RunArgs {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    mode: Mode,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        mode: Mode::Both,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.seconds = QUICK_SECONDS;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                parsed.workloads = workloads::WORKLOADS
                    .iter()
                    .map(|(name, _)| *name)
                    .filter(|name| value == "all" || value == name)
                    .collect();
                if parsed.workloads.is_empty() {
                    return Err(format!("unknown workload {value}"));
                }
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?;
            }
            "--trace" => {
                parsed.mode = match value.as_str() {
                    "0" => Mode::Untraced,
                    "1" => Mode::Traced,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn run(args: &RunArgs) -> Result<bool, String> {
    // `run_native` keeps a durable run's WAL under the system temp
    // directory; point that into the scratch directory too.
    let work_dir = host::work_dir();
    std::env::set_var("TMPDIR", &work_dir);
    let spin_ns = host::spin_ns_per_iter();
    println!(
        "gstm-benchmark: seed {} · {} s per workload · {} cores · {} build · revision {} · spin {spin_ns:.3} ns/iter",
        args.seed,
        args.seconds,
        host::nproc(),
        host::profile(),
        host::git_revision(),
    );
    let mut reports = Vec::new();
    for &name in &args.workloads {
        // A panic below is a failed verification inside the product (its
        // harness panics on one): report the workload as wholly failed.
        let outcome = std::panic::catch_unwind(|| {
            run::run_workload(name, args.seed, args.seconds, args.mode, &work_dir)
        });
        let report = outcome.unwrap_or_else(|_| report::WorkloadReport {
            name,
            attempted: 1,
            failed: 1,
            errors: vec!["the run panicked; see the message above".into()],
            ..report::WorkloadReport::default()
        });
        report.print();
        reports.push(report);
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    if let Some(path) = &args.out {
        let doc = JsonValue::obj(vec![
            ("benchmark".into(), JsonValue::Str("gstm-benchmark".into())),
            ("seed".into(), JsonValue::Num(args.seed as f64)),
            ("seconds".into(), JsonValue::Num(args.seconds)),
            ("host".into(), host::to_json(spin_ns)),
            (
                "workloads".into(),
                JsonValue::obj(reports.iter().map(|r| (r.name.to_string(), r.to_json())).collect()),
            ),
        ]);
        std::fs::write(path, doc.render_pretty(2)).map_err(|e| format!("writing {path}: {e}"))?;
    }
    // The driver reads the last line; with several workloads it is the
    // last one's.
    for report in &reports {
        println!("{}", report.result_line());
    }
    Ok(reports.iter().all(report::WorkloadReport::correct))
}

fn read_json(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn compare(args: &[String]) -> Result<bool, String> {
    let (mut files, mut bounds) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds = it.next().ok_or("--bounds needs a path")?.clone();
        } else {
            files.push(arg);
        }
    }
    let [a, b] = files[..] else { return Err("compare takes two report files".into()) };
    let regressed = compare::compare(&read_json(a)?, &read_json(b)?, &read_json(&bounds)?)?;
    Ok(!regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|a| run(&a)),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("gstm-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
