//! What the host looked like while the numbers were taken, so that a noisy
//! host can be told from a regression.

use std::path::PathBuf;
use std::time::Instant;

use gstm_telemetry::JsonValue;

use crate::stats::median;

/// Nanoseconds per iteration of a fixed dependent-arithmetic loop: it
/// touches no memory and makes no call, so it moves only when the core
/// itself is slower (frequency, a sibling's load, steal time).
pub fn spin_ns_per_iter() -> f64 {
    const ITERS: u64 = 2_000_000;
    let reps: Vec<f64> = (0..9)
        .map(|rep| {
            let started = Instant::now();
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64 ^ rep);
            for _ in 0..ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            started.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    median(&reps)
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; "unknown" in an exported tree.
pub fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev
    }
}

/// A scratch directory beside the running binary — inside the build
/// directory, hence inside the checkout and ignored by git. WAL files go
/// here, and `TMPDIR` is pointed here so `run_native`'s own temp directory
/// does too.
pub fn work_dir() -> PathBuf {
    let beside = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    let dir = beside.join(format!("gstm-benchmark-work-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
    dir
}

pub fn to_json(spin_ns: f64) -> JsonValue {
    JsonValue::obj(vec![
        ("nproc".into(), JsonValue::Num(nproc() as f64)),
        ("profile".into(), JsonValue::Str(profile().into())),
        ("git_revision".into(), JsonValue::Str(git_revision())),
        ("spin_ns_per_iter".into(), JsonValue::Num(spin_ns)),
    ])
}
