//! TL2 hot-path microbenchmarks and the `BENCH_*.json` writer.
//!
//! Criterion is off-limits (the workspace builds offline), so this module
//! is a self-contained harness: each microloop drives `gstm-core`
//! transactions directly on a [`gstm_core::NullGate`] STM — no simulator, no virtual
//! time — and reports wall-clock ops/sec for the engine paths the TL2
//! overhaul targets (read, read+validate, write buffering, commit lock
//! acquisition, read-own-write lookup, validation abort). One small STAMP
//! run per detection mode is timed on the full simulated machine so the
//! sim/gate layer shows up in the trajectory too; its `makespan_ticks` is
//! deterministic and doubles as a schedule-stability check between
//! harness runs.
//!
//! Results are written through `gstm-telemetry`'s dependency-free
//! [`JsonValue`] writer as a versioned `BENCH_tl2_hotpath.json`:
//!
//! ```json
//! {
//!   "schema": "gstm-bench", "version": 1,
//!   "preset": "default", "smoke": false, "profile": "release-bench",
//!   "metrics":  {"lazy.read_ops_per_sec": 1.0e7, "...": 0},
//!   "baseline": {"lazy.read_ops_per_sec": 0.8e7, "...": 0}
//! }
//! ```
//!
//! `metrics` is a flat `key -> number` map; `baseline` (optional) carries
//! the same keys from an earlier capture so before/after lives in one
//! committed artifact. Every loop takes the **best of `reps`
//! repetitions**, which filters scheduler noise without averaging away
//! real regressions.

use std::time::Instant;

use gstm_core::{Detection, MvccStats, ReadMode, Stm, StmConfig, TVar, ThreadId, TxId};
use gstm_guide::{run_workload, RunOptions};
use gstm_telemetry::JsonValue;

use crate::progress::Progress;

/// Schema tag of the bench artifact.
pub const BENCH_SCHEMA: &str = "gstm-bench";
/// Version of the bench artifact layout.
pub const BENCH_VERSION: u32 = 1;

/// A suite's runner: `(config, the command's argument list — for a flag
/// only this suite takes —, progress)` to the metric map in artifact order.
pub type SuiteRun = fn(&BenchConfig, &[String], &dyn Progress) -> Vec<(String, f64)>;

/// One bench suite: everything `experiments <command>` and `bench-check`
/// need to know about it.
pub struct Suite {
    /// CLI subcommand that runs the suite.
    pub command: &'static str,
    /// Tag recorded in the artifact's `suite` field; the artifact path
    /// when `--out` is not given is `BENCH_<suite>.json`.
    pub suite: &'static str,
    /// Preset the suite always runs at, whatever `--preset` says; `None`
    /// takes `--preset` (default `default`).
    pub pinned_preset: Option<&'static str>,
    /// Metric keys every valid artifact of this suite must contain
    /// (`bench-check` gates on presence, never on values).
    pub required: &'static [&'static str],
    /// Runs the suite.
    pub run: SuiteRun,
}

/// Every bench suite. The first entry (the TL2 hot path) is what an
/// artifact predating the `suite` field is.
pub const SUITES: &[Suite] = &[
    Suite {
        command: "bench",
        suite: "tl2_hotpath",
        pinned_preset: None,
        required: &[
            "lazy.read_ops_per_sec",
            "lazy.read_validate_ops_per_sec",
            "lazy.write_ops_per_sec",
            "lazy.commit_ops_per_sec",
            "lazy.read_own_write_ops_per_sec",
            "lazy.abort_ops_per_sec",
            "eager.read_ops_per_sec",
            "eager.read_validate_ops_per_sec",
            "eager.write_ops_per_sec",
            "eager.commit_ops_per_sec",
            "eager.read_own_write_ops_per_sec",
            "eager.abort_ops_per_sec",
            "stamp.kmeans.lazy.makespan_ticks",
            "stamp.kmeans.lazy.commits_per_sec",
            "stamp.kmeans.eager.makespan_ticks",
            "stamp.kmeans.eager.commits_per_sec",
        ],
        run: |cfg, _, progress| run_hotpath_suite(cfg, progress),
    },
    Suite {
        command: "bench-pipeline",
        suite: "pipeline",
        pinned_preset: Some("tiny"),
        required: &[
            "pipeline.cold_wall_ms",
            "pipeline.warm_wall_ms",
            "pipeline.warm_speedup",
            "pipeline.cells",
            "pipeline.cold_model_misses",
            "pipeline.cold_train_wall_ms",
            "pipeline.warm_model_hits",
            "pipeline.warm_model_misses",
            "pipeline.warm_run_hits",
            "pipeline.warm_run_misses",
            "pipeline.warm_train_wall_ms",
        ],
        run: |_, args, progress| run_pipeline_suite_at(flag(args, "--cache-dir"), progress),
    },
    Suite {
        command: "bench-wal",
        suite: "wal",
        pinned_preset: Some("tiny"),
        required: &[
            "wal.append_ops_per_sec",
            "wal.recover_1k_us",
            "wal.recover_8k_us",
            "wal.recover_32k_us",
            "wal.serve_ephemeral_wall_ms",
            "wal.serve_durable_wall_ms",
            "wal.durable_overhead_pct",
        ],
        run: |cfg, _, progress| run_wal_suite(cfg, progress),
    },
    // The read-mostly serve cell under each read mode (throughput, overall
    // and read-only tail, read-only aborts), plus the snapshot engine's
    // version-ring counters.
    Suite {
        command: "bench-mvcc",
        suite: "mvcc",
        pinned_preset: None,
        required: &[
            "mvcc.latest.req_per_sec",
            "mvcc.latest.sojourn_p99_ticks",
            "mvcc.latest.sojourn_ro_p99_ticks",
            "mvcc.latest.ro_aborts",
            "mvcc.snapshot.req_per_sec",
            "mvcc.snapshot.sojourn_p99_ticks",
            "mvcc.snapshot.sojourn_ro_p99_ticks",
            "mvcc.snapshot.ro_aborts",
            "mvcc.snapshot.snapshot_txns",
            "mvcc.snapshot.snapshot_reads",
            "mvcc.snapshot.spared_validations",
            "mvcc.snapshot.versions_published",
            "mvcc.snapshot.gc_lag_events",
            "mvcc.snapshot.ring_len_max",
        ],
        run: |cfg, _, progress| run_mvcc_suite(cfg, progress),
    },
    // The drifting serve cell under the stale static model vs the
    // online-adaptive loop (throughput in virtual time, tail, harness
    // wall-clock), the loop's own counters, and the §IV gate's negative
    // control.
    Suite {
        command: "bench-adaptive",
        suite: "adaptive",
        pinned_preset: None,
        required: &[
            "adaptive.static.req_per_ktick",
            "adaptive.static.sojourn_p99_ticks",
            "adaptive.static.wall_ms",
            "adaptive.adaptive.req_per_ktick",
            "adaptive.adaptive.sojourn_p99_ticks",
            "adaptive.adaptive.wall_ms",
            "adaptive.loop.retrain_attempts",
            "adaptive.loop.installs",
            "adaptive.loop.rejects",
            "adaptive.loop.stand_downs",
            "adaptive.gate.uniform_rejected",
        ],
        run: |cfg, _, progress| run_adaptive_suite(cfg, progress),
    },
    // The same read-mostly serve cell under interleaved TL2, interleaved
    // snapshot reads, and ordered block execution (throughput and tail
    // each), the block arm's speedup over TL2, the executor's counters, and
    // the schedule-invariance verdict (1.0 = parallel output byte-identical
    // to the sequential reference at every checked thread count).
    Suite {
        command: "bench-block",
        suite: "block",
        pinned_preset: None,
        required: &[
            "block.tl2.req_per_sec",
            "block.tl2.sojourn_p99_ticks",
            "block.snapshot.req_per_sec",
            "block.snapshot.sojourn_p99_ticks",
            "block.block.req_per_sec",
            "block.block.sojourn_p99_ticks",
            "block.block.speedup_vs_tl2",
            "block.block.blocks",
            "block.block.re_executions",
            "block.block.validation_fails",
            "block.block.dependency_stalls",
            "block.block.waves",
            "block.block.determinism_ok",
        ],
        run: |cfg, _, progress| run_block_suite(cfg, progress),
    },
];

/// The suite an artifact's `suite` tag names.
pub fn suite(tag: &str) -> Option<&'static Suite> {
    SUITES.iter().find(|s| s.suite == tag)
}

/// The value following `name` in a command's argument list.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Runs one suite's command line — `[--out PATH] [--preset tiny|default]
/// [--smoke] [--profile NAME] [--baseline FILE]` — and writes the artifact.
///
/// # Errors
///
/// Returns the message to print (unknown preset, unreadable or malformed
/// baseline, unwritable artifact path).
pub fn run_command(suite: &Suite, args: &[String], progress: &dyn Progress) -> Result<(), String> {
    let default_out = format!("BENCH_{}.json", suite.suite);
    let out = flag(args, "--out").unwrap_or(&default_out);
    let preset = suite.pinned_preset.or(flag(args, "--preset")).unwrap_or("default");
    let mut cfg = BenchConfig::for_preset(preset, args.iter().any(|a| a == "--smoke"))?;
    cfg.suite = suite.suite.to_string();
    if let Some(profile) = flag(args, "--profile") {
        cfg.profile = profile.to_string();
    }
    let baseline = flag(args, "--baseline")
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
            parse_metrics(&text).map_err(|e| format!("bad baseline {path}: {e}"))
        })
        .transpose()?;
    let metrics = (suite.run)(&cfg, args, progress);
    let text = render_artifact(&cfg, &metrics, baseline.as_deref());
    std::fs::write(out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;
    progress.report(&format!("wrote {out}"));
    Ok(())
}

/// Harness parameters (iteration counts scale with the preset, repetition
/// counts with smoke mode).
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Suite tag recorded in the artifact ([`Suite::suite`]); selects
    /// which metric keys `bench-check` requires.
    pub suite: String,
    /// Preset name recorded in the artifact: `tiny` (CI smoke) or `default`.
    pub preset: String,
    /// Smoke mode: fewest reps, smallest loops; checks plumbing, not perf.
    pub smoke: bool,
    /// Cargo profile label recorded in the artifact (the harness cannot
    /// observe it, so `scripts/bench.sh` passes it through `--profile`).
    pub profile: String,
    /// Transactions per timed microloop repetition.
    pub iters: usize,
    /// Repetitions per microloop; best-of is reported.
    pub reps: usize,
}

impl BenchConfig {
    /// Config for a preset name (`tiny` or `default`).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown preset names.
    pub fn for_preset(preset: &str, smoke: bool) -> Result<Self, String> {
        let iters = match preset {
            "tiny" => 2_000,
            "default" => 30_000,
            other => return Err(format!("unknown bench preset {other:?} (tiny|default)")),
        };
        Ok(BenchConfig {
            suite: SUITES[0].suite.to_string(),
            preset: preset.to_string(),
            smoke,
            profile: "unknown".to_string(),
            iters: if smoke { iters.min(500) } else { iters },
            reps: if smoke { 2 } else { 5 },
        })
    }
}

/// Accesses per transaction in each microloop (reads in the read loops,
/// writes in the write/commit loops). Small enough to model real STAMP
/// transactions, large enough that per-access costs dominate begin/commit
/// fixed costs.
const SET_SIZE: usize = 32;

fn engine(detection: Detection) -> Stm {
    // Two logical threads: 0 runs the measured loop, 1 plays the
    // interfering committer that forces validation / aborts.
    Stm::new(StmConfig::builder(2).detection(detection).build())
}

fn vars(n: usize) -> Vec<TVar<u64>> {
    (0..n as u64).map(TVar::new).collect()
}

fn t0() -> ThreadId {
    ThreadId::new(0)
}

fn t1() -> ThreadId {
    ThreadId::new(1)
}

/// Best-of-`reps` ops/sec for `ops_per_iter * iters` operations of `body`.
fn time_loop(cfg: &BenchConfig, ops_per_iter: usize, mut body: impl FnMut()) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..cfg.reps {
        let start = Instant::now();
        for _ in 0..cfg.iters {
            body();
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        best = best.max((cfg.iters * ops_per_iter) as f64 / secs);
    }
    best
}

/// Read-only transactions: `SET_SIZE` reads, read-only commit fast path.
fn bench_read(cfg: &BenchConfig, detection: Detection) -> f64 {
    let stm = engine(detection);
    let vs = vars(SET_SIZE);
    time_loop(cfg, SET_SIZE, || {
        stm.run(t0(), TxId::new(1), |txn| {
            let mut acc = 0u64;
            for v in &vs {
                acc = acc.wrapping_add(txn.read(v)?);
            }
            Ok(acc)
        });
    })
}

/// Reads plus a forced full read-set validation: a thread-1 commit bumps
/// the global clock before each measured transaction, so its commit sees
/// `wv != rv + 1` and must validate all `SET_SIZE` read stripes.
fn bench_read_validate(cfg: &BenchConfig, detection: Detection) -> f64 {
    let stm = engine(detection);
    let vs = vars(SET_SIZE);
    let bump = TVar::new(0u64);
    let out = TVar::new(0u64);
    time_loop(cfg, SET_SIZE, || {
        stm.run(t1(), TxId::new(9), |txn| txn.modify(&bump, |x| x + 1));
        stm.run(t0(), TxId::new(1), |txn| {
            let mut acc = 0u64;
            for v in &vs {
                acc = acc.wrapping_add(txn.read(v)?);
            }
            txn.write(&out, acc)?;
            Ok(())
        });
    })
}

/// Write buffering: `SET_SIZE` writes into `SET_SIZE / 2` vars, so half
/// the writes miss the write index (fresh redo-log entry) and half hit it
/// (in-place overwrite).
fn bench_write(cfg: &BenchConfig, detection: Detection) -> f64 {
    let stm = engine(detection);
    let vs = vars(SET_SIZE / 2);
    time_loop(cfg, SET_SIZE, || {
        stm.run(t0(), TxId::new(1), |txn| {
            for round in 0..2u64 {
                for (i, v) in vs.iter().enumerate() {
                    txn.write(v, round + i as u64)?;
                }
            }
            Ok(())
        });
    })
}

/// Commit lock acquisition: `SET_SIZE` distinct vars written once each, so
/// commit sorts, dedups and locks `SET_SIZE` stripes then writes back.
fn bench_commit(cfg: &BenchConfig, detection: Detection) -> f64 {
    let stm = engine(detection);
    let vs = vars(SET_SIZE);
    time_loop(cfg, SET_SIZE, || {
        stm.run(t0(), TxId::new(1), |txn| {
            for (i, v) in vs.iter().enumerate() {
                txn.write(v, i as u64)?;
            }
            Ok(())
        });
    })
}

/// Read-own-write: one write, then `SET_SIZE` reads of the same var, each
/// of which must find the buffered value via the write index.
fn bench_read_own_write(cfg: &BenchConfig, detection: Detection) -> f64 {
    let stm = engine(detection);
    let v = TVar::new(7u64);
    time_loop(cfg, SET_SIZE, || {
        stm.run(t0(), TxId::new(1), |txn| {
            txn.write(&v, 13)?;
            let mut acc = 0u64;
            for _ in 0..SET_SIZE {
                acc = acc.wrapping_add(txn.read(&v)?);
            }
            Ok(acc)
        });
    })
}

/// Validation-abort path: thread 0 reads a var, thread 1 commits a bump to
/// it mid-body, and thread 0's commit-time validation must abort and roll
/// back. Counts aborted attempts per second.
fn bench_abort(cfg: &BenchConfig, detection: Detection) -> f64 {
    let stm = engine(detection);
    let contended = TVar::new(0u64);
    let other = TVar::new(0u64);
    time_loop(cfg, 1, || {
        let result = stm.try_run_once(t0(), TxId::new(1), |txn| {
            let seen = txn.read(&contended)?;
            stm.run(t1(), TxId::new(9), |inner| inner.modify(&contended, |x| x + 1));
            txn.write(&other, seen)?;
            Ok(())
        });
        assert!(result.is_err(), "abort microloop must conflict every iteration");
    })
}

/// One small STAMP run on the full simulated machine. Returns
/// `(makespan_ticks, commits_per_sec)`; the former is deterministic for a
/// fixed seed, the latter is the wall-clock sim throughput.
fn bench_stamp(cfg: &BenchConfig, detection: Detection) -> (f64, f64) {
    let workload = gstm_stamp::benchmark("kmeans", gstm_stamp::InputSize::Small)
        .expect("kmeans is a known benchmark");
    let opts = RunOptions { detection: Some(detection), ..RunOptions::new(4, 42) };
    let mut makespan = 0u64;
    let mut best = 0.0f64;
    // The sim's wall-clock throughput is by far the noisiest metric here
    // (channel rendezvous under OS scheduling); use every rep for it.
    let reps = if cfg.smoke { 1 } else { cfg.reps };
    for rep in 0..reps {
        let start = Instant::now();
        let out = run_workload(workload.as_ref(), &opts);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        best = best.max(out.total_commits() as f64 / secs);
        if rep == 0 {
            makespan = out.makespan;
        } else {
            assert_eq!(out.makespan, makespan, "sim makespan must be seed-deterministic");
        }
    }
    (makespan as f64, best)
}

/// Append throughput: records buffered + group-committed per second into
/// an in-memory device (fresh WAL per rep so device growth from earlier
/// reps cannot pollute the timing).
fn bench_wal_append(cfg: &BenchConfig) -> f64 {
    use gstm_wal::{LogDevice, MemDevice, Wal, WalConfig};
    let payload = [0xA5u8; 25];
    let mut best = 0.0f64;
    for _ in 0..cfg.reps {
        let log: std::sync::Arc<dyn LogDevice> = std::sync::Arc::new(MemDevice::new());
        let snap: std::sync::Arc<dyn LogDevice> = std::sync::Arc::new(MemDevice::new());
        let wal = Wal::new(WalConfig::new(), log, snap);
        let start = Instant::now();
        for seq in 0..cfg.iters as u64 {
            wal.append(seq + 1, &payload);
        }
        wal.flush();
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        best = best.max(cfg.iters as f64 / secs);
    }
    best
}

/// Best-of-reps recovery time (µs) over a clean log of `records` frames —
/// the "recovery time vs log length" axis of the artifact.
fn bench_wal_recover(cfg: &BenchConfig, records: usize) -> f64 {
    use gstm_wal::{recover, LogDevice, MemDevice, Wal, WalConfig};
    let payload = [0x5Au8; 25];
    let log = std::sync::Arc::new(MemDevice::new());
    let snap = std::sync::Arc::new(MemDevice::new());
    let wal = Wal::new(
        WalConfig::new(),
        std::sync::Arc::clone(&log) as std::sync::Arc<dyn LogDevice>,
        std::sync::Arc::clone(&snap) as std::sync::Arc<dyn LogDevice>,
    );
    for seq in 0..records as u64 {
        wal.append(seq + 1, &payload);
    }
    wal.flush();
    let (log_bytes, snap_bytes) = (log.contents(), snap.contents());
    let mut best = f64::INFINITY;
    for _ in 0..cfg.reps.max(2) {
        let start = Instant::now();
        let r = recover(&log_bytes, &snap_bytes).expect("clean log recovers");
        assert_eq!(r.tail.len(), records, "every frame must survive recovery");
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// Wall time (ms, best of reps) of one simulated serve run on the given
/// backend. The virtual-time outcome is backend-independent by design, so
/// the wall-clock delta between backends is the durable commit overhead.
fn bench_wal_serve(cfg: &BenchConfig, backend: gstm_serve::BackendKind) -> f64 {
    use gstm_serve::{run_simulated, ServeSpec};
    let requests = (cfg.iters / 10).clamp(100, 1_000);
    let spec = ServeSpec::hot(requests).with_backend(backend);
    // One untimed warmup so whichever backend runs first doesn't pay the
    // cold-start (allocator, page-fault) cost in its best-of.
    let _ = run_simulated(&spec, &RunOptions::new(3, 11));
    let mut best = f64::INFINITY;
    for _ in 0..cfg.reps {
        let start = Instant::now();
        let out = run_simulated(&spec, &RunOptions::new(3, 11));
        assert!(out.total_commits() > 0, "the serve run must commit");
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The MVCC study's serve cell: the contended hot store shape under the
/// read-mostly `mvcc_read` mix, offered faster than the validated path
/// can absorb — so throughput reflects service capacity, not the arrival
/// rate, and the two read modes separate.
fn mvcc_spec(cfg: &BenchConfig, read_mode: ReadMode) -> gstm_serve::ServeSpec {
    let requests = (cfg.iters / 10).clamp(50, 1_000);
    gstm_serve::ServeSpec::hot(requests)
        .with_mix(gstm_serve::Mix::mvcc_read())
        .with_arrival(gstm_serve::Arrival::Poisson { mean_gap: 60.0 })
        .with_read_mode(read_mode)
}

/// One native MVCC serve cell under the given read mode. Returns
/// best-of-reps `(req/sec, sojourn p99, read-only sojourn p99, read-only
/// aborts, engine mvcc counters)` — the last three from the best rep.
fn bench_mvcc_serve(cfg: &BenchConfig, read_mode: ReadMode) -> (f64, f64, f64, u64, MvccStats) {
    let spec = mvcc_spec(cfg, read_mode);
    let mut best_rate = 0.0f64;
    let (mut p99, mut ro_p99) = (0.0f64, 0.0f64);
    let mut ro_aborts = 0u64;
    let mut mvcc = MvccStats::default();
    for _ in 0..cfg.reps {
        let start = Instant::now();
        let report = gstm_serve::run_native(&spec, 3, 11, 50, 64);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        let rate = report.done as f64 / secs;
        if rate > best_rate {
            best_rate = rate;
            p99 = report.sojourn.p(0.99);
            ro_p99 = report.sojourn_ro.p(0.99);
            ro_aborts = report.read_only_aborts();
            mvcc = report.mvcc;
        }
    }
    (best_rate, p99, ro_p99, ro_aborts, mvcc)
}

/// Runs the multi-version read-path suite: the same read-mostly serve
/// cell under `ReadMode::Latest` (validated read-only transactions) and
/// `ReadMode::Snapshot` (version-ring reads at a frozen timestamp), plus
/// the snapshot engine's ring counters.
pub fn run_mvcc_suite(cfg: &BenchConfig, progress: &dyn Progress) -> Vec<(String, f64)> {
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut snap = MvccStats::default();
    for (label, read_mode) in [("latest", ReadMode::Latest), ("snapshot", ReadMode::Snapshot)] {
        let (rate, p99, ro_p99, ro_aborts, mvcc) = bench_mvcc_serve(cfg, read_mode);
        progress.report(&format!(
            "mvcc.{label}: {rate:.0} req/s, p99 {p99:.0} ticks, ro p99 {ro_p99:.0} ticks, \
             ro aborts {ro_aborts}"
        ));
        metrics.push((format!("mvcc.{label}.req_per_sec"), rate));
        metrics.push((format!("mvcc.{label}.sojourn_p99_ticks"), p99));
        metrics.push((format!("mvcc.{label}.sojourn_ro_p99_ticks"), ro_p99));
        metrics.push((format!("mvcc.{label}.ro_aborts"), ro_aborts as f64));
        if read_mode == ReadMode::Snapshot {
            snap = mvcc;
        }
    }
    metrics.push(("mvcc.snapshot.snapshot_txns".into(), snap.snapshot_txns as f64));
    metrics.push(("mvcc.snapshot.snapshot_reads".into(), snap.snapshot_reads as f64));
    metrics.push(("mvcc.snapshot.spared_validations".into(), snap.spared_validations as f64));
    metrics.push(("mvcc.snapshot.versions_published".into(), snap.versions_published as f64));
    metrics.push(("mvcc.snapshot.gc_lag_events".into(), snap.gc_lag_events as f64));
    metrics.push(("mvcc.snapshot.ring_len_max".into(), snap.ring_len_max as f64));
    progress.report(&format!("mvcc.snapshot: {snap:?}"));
    metrics
}

/// The block study's serve cell: the contended hot store shape under the
/// read-mostly `mvcc_read` mix, offered well past service capacity
/// (mean inter-arrival gap 8 ticks across 3 streams) — so every arm's
/// throughput reflects how fast it drains requests, not the arrival
/// rate. The interleaved arms (TL2, snapshot) pay per-read engine
/// instrumentation and conflict aborts, and shed under the overload;
/// the block arm executes the same requests speculatively over the
/// per-batch multi-version map, pushes only precomputed write sets
/// through the engine, and completes every request.
fn block_spec(cfg: &BenchConfig) -> gstm_serve::ServeSpec {
    let requests = (cfg.iters / 10).clamp(50, 1_000);
    gstm_serve::ServeSpec::hot(requests)
        .with_mix(gstm_serve::Mix::mvcc_read())
        .with_arrival(gstm_serve::Arrival::Poisson { mean_gap: 8.0 })
}

/// One native serve cell. Returns best-of-reps `(req/sec, sojourn p99,
/// block-mode report from the best rep)`.
fn bench_block_serve(
    cfg: &BenchConfig,
    spec: &gstm_serve::ServeSpec,
) -> (f64, f64, Option<gstm_serve::BlockModeReport>) {
    let mut best_rate = 0.0f64;
    let mut p99 = 0.0f64;
    let mut block = None;
    for _ in 0..cfg.reps {
        let start = Instant::now();
        let report = gstm_serve::run_native(spec, 3, 11, 50, 64);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        let rate = report.done as f64 / secs;
        if rate > best_rate {
            best_rate = rate;
            p99 = report.sojourn.p(0.99);
            block = report.block;
        }
    }
    (best_rate, p99, block)
}

/// Runs the ordered block-execution suite: the read-mostly serve cell
/// under interleaved TL2, interleaved snapshot reads, and
/// `ServeMode::Block`, plus the schedule-invariance oracle (parallel
/// block output vs the sequential reference at 1/2/4 worker threads).
pub fn run_block_suite(cfg: &BenchConfig, progress: &dyn Progress) -> Vec<(String, f64)> {
    const BLOCK_SIZE: usize = 64;
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut tl2_rate = f64::NAN;
    let arms = [
        ("tl2", block_spec(cfg)),
        ("snapshot", block_spec(cfg).with_read_mode(ReadMode::Snapshot)),
        ("block", block_spec(cfg).with_block_mode(BLOCK_SIZE)),
    ];
    for (label, spec) in arms {
        let (rate, p99, block) = bench_block_serve(cfg, &spec);
        progress.report(&format!("block.{label}: {rate:.0} req/s, p99 {p99:.0} ticks"));
        metrics.push((format!("block.{label}.req_per_sec"), rate));
        metrics.push((format!("block.{label}.sojourn_p99_ticks"), p99));
        if label == "tl2" {
            tl2_rate = rate;
        }
        if let Some(report) = block {
            metrics.push(("block.block.speedup_vs_tl2".into(), rate / tl2_rate));
            metrics.push(("block.block.blocks".into(), report.blocks as f64));
            metrics.push(("block.block.re_executions".into(), report.stats.re_executions as f64));
            metrics.push((
                "block.block.validation_fails".into(),
                report.stats.validation_fails as f64,
            ));
            metrics.push((
                "block.block.dependency_stalls".into(),
                report.stats.dependency_stalls as f64,
            ));
            metrics.push(("block.block.waves".into(), report.stats.waves as f64));
            progress.report(&format!("block.block: {} blocks, {:?}", report.blocks, report.stats));
        }
    }
    // Schedule invariance: the pure parallel runner (no engine, no clock)
    // over the same traffic shape at several worker-thread counts, each
    // compared byte-for-byte against the sequential reference.
    let dspec = block_spec(cfg).with_block_mode(BLOCK_SIZE);
    let reference = gstm_serve::run_block_reference(&dspec, 2, 11);
    let parallel: Vec<(usize, gstm_check::BlockRecord)> = [1usize, 2, 4]
        .into_iter()
        .map(|t| (t, gstm_serve::execute_block_order(&dspec, 2, 11, t).0))
        .collect();
    let verdict = gstm_check::check_block_equivalence(&reference, &parallel);
    let ok = verdict.ok() && !verdict.is_vacuous();
    progress.report(&format!("block.determinism: {}", verdict.summary()));
    metrics.push(("block.block.determinism_ok".into(), if ok { 1.0 } else { 0.0 }));
    metrics
}

/// The adaptive suite's serve cell: the hot store shape with the study's
/// drift applied, so the statically trained model goes stale mid-run.
fn adaptive_bench_spec(cfg: &BenchConfig) -> gstm_serve::ServeSpec {
    let requests = (cfg.iters / 10).clamp(60, 600);
    let mut spec = gstm_serve::ServeSpec::hot(requests).with_drift(crate::adaptcmd::STUDY_DRIFT);
    spec.zipf_theta = crate::adaptcmd::STUDY_THETA_START;
    spec
}

/// One simulated drifting serve run under `policy`. Virtual-time stats are
/// deterministic per seed, so only the wall clock takes best-of-reps; the
/// `(req/ktick, sojourn p99, telemetry)` tail comes from the last rep.
fn bench_adaptive_serve(
    cfg: &BenchConfig,
    spec: &gstm_serve::ServeSpec,
    policy: &dyn Fn() -> gstm_guide::PolicyChoice,
) -> (f64, f64, f64, Option<gstm_telemetry::Snapshot>) {
    let workload = gstm_serve::ServeWorkload::new(spec.clone());
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..cfg.reps {
        let opts = RunOptions::new(3, 11).with_policy(policy()).with_telemetry();
        let start = Instant::now();
        let outcome = run_workload(&workload, &opts);
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(outcome);
    }
    let outcome = last.expect("reps >= 1");
    let stat = |key: &str| {
        outcome.workload_stats.iter().find(|(k, _)| k == key).map(|(_, v)| *v).unwrap_or_default()
    };
    let rate = if outcome.makespan == 0 {
        0.0
    } else {
        1000.0 * stat("req_done") / outcome.makespan as f64
    };
    (best_ms, rate, stat("sojourn_p99"), outcome.telemetry)
}

/// Runs the online-adaptive-guidance suite: the drifting serve cell under
/// the stale static model and under the full adaptive loop (windowed
/// ingestion, incremental retraining, §IV gate, hot-swap), plus the loop's
/// telemetry counters and the gate's near-uniform negative control.
pub fn run_adaptive_suite(cfg: &BenchConfig, progress: &dyn Progress) -> Vec<(String, f64)> {
    use std::sync::Arc;

    use crate::adaptcmd::{study_retrain, uniform_candidate, STUDY_MAX_UNKNOWN_PCT, STUDY_WINDOW};

    let spec = adaptive_bench_spec(cfg);
    let mut stationary = gstm_serve::ServeSpec::hot(spec.requests_per_thread);
    stationary.zipf_theta = crate::adaptcmd::STUDY_THETA_START;
    let ecfg =
        if cfg.smoke { crate::config::ExpConfig::tiny() } else { crate::config::ExpConfig::fast() };
    let trained = crate::study::train_serve(&ecfg, &stationary, 3);
    progress.report(&format!(
        "adaptive: static model trained on the stationary shape ({} states)",
        trained.tsa.state_count()
    ));
    let retrain = study_retrain();
    let model = trained.model;
    type PolicyThunk = Box<dyn Fn() -> gstm_guide::PolicyChoice>;
    let arms: [(&str, PolicyThunk); 2] = [
        ("static", {
            let model = Arc::clone(&model);
            Box::new(move || gstm_guide::PolicyChoice::guided(Arc::clone(&model)))
        }),
        ("adaptive", {
            let model = Arc::clone(&model);
            Box::new(move || gstm_guide::PolicyChoice::AdaptiveOnline {
                model: Arc::clone(&model),
                k: gstm_guide::DEFAULT_K,
                max_unknown_pct: STUDY_MAX_UNKNOWN_PCT,
                window: STUDY_WINDOW,
                retrain,
            })
        }),
    ];
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut loop_snap: Option<gstm_telemetry::Snapshot> = None;
    for (label, policy) in &arms {
        let (wall_ms, rate, p99, snap) = bench_adaptive_serve(cfg, &spec, policy.as_ref());
        progress.report(&format!(
            "adaptive.{label}: {rate:.2} req/ktick, p99 {p99:.0} ticks, {wall_ms:.1} ms"
        ));
        metrics.push((format!("adaptive.{label}.req_per_ktick"), rate));
        metrics.push((format!("adaptive.{label}.sojourn_p99_ticks"), p99));
        metrics.push((format!("adaptive.{label}.wall_ms"), wall_ms));
        if *label == "adaptive" {
            loop_snap = snap;
        }
    }
    let gauge = |name: &str| {
        loop_snap.as_ref().and_then(|s| s.gauge_value(name)).unwrap_or_default() as f64
    };
    let attempts = gauge("gstm_guide_retrain_attempts_total");
    let installs = gauge("gstm_guide_model_installs_total");
    let rejects = gauge("gstm_guide_model_rejects_total");
    let stand_downs = gauge("gstm_guide_stand_downs_total");
    progress.report(&format!(
        "adaptive.loop: {attempts:.0} attempts, {installs:.0} installs, \
         {rejects:.0} rejects, {stand_downs:.0} stand-downs"
    ));
    metrics.push(("adaptive.loop.retrain_attempts".into(), attempts));
    metrics.push(("adaptive.loop.installs".into(), installs));
    metrics.push(("adaptive.loop.rejects".into(), rejects));
    metrics.push(("adaptive.loop.stand_downs".into(), stand_downs));
    // The gate's negative control: 1.0 when the §IV analyzer refuses the
    // deliberately near-uniform candidate, 0.0 if it would have shipped it.
    let verdict = gstm_model::analyze_with(
        &uniform_candidate(),
        retrain.tfactor,
        retrain.metric_cutoff,
        retrain.min_states,
    );
    let rejected = f64::from(u8::from(!verdict.verdict.is_fit()));
    progress.report(&format!("adaptive.gate: near-uniform candidate -> {verdict}"));
    metrics.push(("adaptive.gate.uniform_rejected".into(), rejected));
    metrics
}

/// Runs the WAL suite (append throughput, recovery time vs log length,
/// durable-vs-ephemeral serve overhead) and returns the flat `metrics`
/// map in artifact key order.
pub fn run_wal_suite(cfg: &BenchConfig, progress: &dyn Progress) -> Vec<(String, f64)> {
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let append = bench_wal_append(cfg);
    progress.report(&format!("wal.append_ops_per_sec: {append:.0}"));
    metrics.push(("wal.append_ops_per_sec".into(), append));
    for records in [1_000usize, 8_000, 32_000] {
        let us = bench_wal_recover(cfg, records);
        progress.report(&format!("wal.recover_{}k_us: {us:.1}", records / 1_000));
        metrics.push((format!("wal.recover_{}k_us", records / 1_000), us));
    }
    let ephemeral = bench_wal_serve(cfg, gstm_serve::BackendKind::Ephemeral);
    let durable = bench_wal_serve(cfg, gstm_serve::BackendKind::Durable);
    let overhead = (durable - ephemeral) / ephemeral.max(1e-9) * 100.0;
    progress.report(&format!(
        "wal.serve: ephemeral {ephemeral:.1} ms, durable {durable:.1} ms ({overhead:+.1}%)"
    ));
    metrics.push(("wal.serve_ephemeral_wall_ms".into(), ephemeral));
    metrics.push(("wal.serve_durable_wall_ms".into(), durable));
    metrics.push(("wal.durable_overhead_pct".into(), overhead));
    metrics
}

/// One named microloop: key suffix plus the loop function.
type MicroLoop = (&'static str, fn(&BenchConfig, Detection) -> f64);

fn mode_name(detection: Detection) -> &'static str {
    match detection {
        Detection::CommitTime => "lazy",
        Detection::EncounterTime => "eager",
    }
}

/// Runs the hot-path suite and returns the flat `metrics` map in artifact key
/// order. `progress` receives one line per completed metric group.
pub fn run_hotpath_suite(cfg: &BenchConfig, progress: &dyn Progress) -> Vec<(String, f64)> {
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for detection in [Detection::CommitTime, Detection::EncounterTime] {
        let mode = mode_name(detection);
        let loops: [MicroLoop; 6] = [
            ("read_ops_per_sec", bench_read),
            ("read_validate_ops_per_sec", bench_read_validate),
            ("write_ops_per_sec", bench_write),
            ("commit_ops_per_sec", bench_commit),
            ("read_own_write_ops_per_sec", bench_read_own_write),
            ("abort_ops_per_sec", bench_abort),
        ];
        for (name, f) in loops {
            let value = f(cfg, detection);
            progress.report(&format!("{mode}.{name}: {value:.0}"));
            metrics.push((format!("{mode}.{name}"), value));
        }
    }
    for detection in [Detection::CommitTime, Detection::EncounterTime] {
        let mode = mode_name(detection);
        let (makespan, commits_per_sec) = bench_stamp(cfg, detection);
        progress.report(&format!(
            "stamp.kmeans.{mode}: makespan {makespan:.0} ticks, {commits_per_sec:.0} commits/s"
        ));
        metrics.push((format!("stamp.kmeans.{mode}.makespan_ticks"), makespan));
        metrics.push((format!("stamp.kmeans.{mode}.commits_per_sec"), commits_per_sec));
    }
    metrics
}

/// Runs the pipeline cold-vs-warm benchmark: a tiny study resolved twice
/// against a fresh cache at `cache_root`. The cold pass trains and
/// measures everything; the warm pass must hit the cache for every model
/// and every run.
///
/// # Panics
///
/// Panics if the warm pass misses the cache — that means run keys are
/// unstable, which the pipeline's correctness story does not allow.
pub fn run_pipeline_suite(
    progress: &dyn Progress,
    cache_root: &std::path::Path,
) -> Vec<(String, f64)> {
    use std::sync::atomic::Ordering;

    use crate::cache::DiskCache;
    use crate::config::ExpConfig;
    use crate::pipeline::{Pipeline, StudyPlan};

    let cfg = ExpConfig::tiny();
    let mut plan = StudyPlan::new();
    plan.stamp_cell("kmeans", cfg.threads_list[0]).quake(cfg.threads_list[0]);

    let mut passes: Vec<(f64, Vec<u64>)> = Vec::new();
    for label in ["cold", "warm"] {
        let pipe =
            Pipeline::new(&cfg, progress).with_cache(DiskCache::new(cache_root.to_path_buf()));
        let start = Instant::now();
        let _result = pipe.resolve(&plan);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let g = pipe.gauges();
        progress.report(&format!("pipeline.{label}: {:.0} ms, {}", wall_ms, g.summary()));
        passes.push((
            wall_ms,
            vec![
                g.cells.load(Ordering::Relaxed),
                g.model_hits.load(Ordering::Relaxed),
                g.model_misses.load(Ordering::Relaxed),
                g.run_hits.load(Ordering::Relaxed),
                g.run_misses.load(Ordering::Relaxed),
                g.train_wall_ms.load(Ordering::Relaxed),
            ],
        ));
    }
    let (cold_ms, cold) = &passes[0];
    let (warm_ms, warm) = &passes[1];
    assert_eq!(warm[2], 0, "warm pass trained a model — unstable model keys");
    assert_eq!(warm[4], 0, "warm pass executed a run — unstable run keys");
    vec![
        ("pipeline.cold_wall_ms".into(), *cold_ms),
        ("pipeline.warm_wall_ms".into(), *warm_ms),
        ("pipeline.warm_speedup".into(), cold_ms / warm_ms.max(1e-9)),
        ("pipeline.cells".into(), cold[0] as f64),
        ("pipeline.cold_model_misses".into(), cold[2] as f64),
        ("pipeline.cold_train_wall_ms".into(), cold[5] as f64),
        ("pipeline.warm_model_hits".into(), warm[1] as f64),
        ("pipeline.warm_model_misses".into(), warm[2] as f64),
        ("pipeline.warm_run_hits".into(), warm[3] as f64),
        ("pipeline.warm_run_misses".into(), warm[4] as f64),
        ("pipeline.warm_train_wall_ms".into(), warm[5] as f64),
    ]
}

/// [`run_pipeline_suite`] at `--cache-dir`, or — so the first pass is
/// genuinely cold — at a fresh directory that is removed afterwards.
fn run_pipeline_suite_at(cache_dir: Option<&str>, progress: &dyn Progress) -> Vec<(String, f64)> {
    if let Some(dir) = cache_dir {
        return run_pipeline_suite(progress, std::path::Path::new(dir));
    }
    let dir = std::path::PathBuf::from(format!(
        "target/gstm-bench-pipeline-cache-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = run_pipeline_suite(progress, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    metrics
}

/// Assembles the versioned artifact. `baseline` carries an earlier
/// capture's `metrics` map to commit before/after together.
pub fn render_artifact(
    cfg: &BenchConfig,
    metrics: &[(String, f64)],
    baseline: Option<&[(String, f64)]>,
) -> String {
    let to_obj = |m: &[(String, f64)]| {
        JsonValue::Obj(m.iter().map(|(k, v)| (k.clone(), JsonValue::Num(*v))).collect())
    };
    let mut fields = vec![
        ("schema".to_string(), JsonValue::Str(BENCH_SCHEMA.to_string())),
        ("version".to_string(), JsonValue::Num(f64::from(BENCH_VERSION))),
        ("suite".to_string(), JsonValue::Str(cfg.suite.clone())),
        ("preset".to_string(), JsonValue::Str(cfg.preset.clone())),
        ("smoke".to_string(), JsonValue::Bool(cfg.smoke)),
        ("profile".to_string(), JsonValue::Str(cfg.profile.clone())),
        ("metrics".to_string(), to_obj(metrics)),
    ];
    if let Some(base) = baseline {
        fields.push(("baseline".to_string(), to_obj(base)));
    }
    JsonValue::Obj(fields).render_pretty(2)
}

/// Parses an artifact and extracts its `metrics` map (used to thread a
/// previous capture through as `baseline`).
///
/// # Errors
///
/// Returns a description of the first structural problem.
pub fn parse_metrics(text: &str) -> Result<Vec<(String, f64)>, String> {
    let v = JsonValue::parse(text)?;
    let metrics = v.get("metrics").ok_or("missing \"metrics\" object")?;
    let fields = metrics.as_obj().ok_or("\"metrics\" is not an object")?;
    fields
        .iter()
        .map(|(k, val)| {
            val.as_f64().map(|n| (k.clone(), n)).ok_or(format!("metric {k:?} is not a number"))
        })
        .collect()
}

/// Validates a committed artifact: parseable JSON, correct schema/version,
/// and every required key of its suite present and numeric (the `suite`
/// field picks the [`SUITES`] entry; artifacts predating the field are
/// hot-path artifacts). Absolute values are never gated — this protects
/// the artifact's shape, not its numbers.
///
/// # Errors
///
/// Returns a description of the first problem found.
pub fn check_artifact(text: &str) -> Result<(), String> {
    let v = JsonValue::parse(text).map_err(|e| format!("malformed JSON: {e}"))?;
    match v.get("schema").and_then(JsonValue::as_str) {
        Some(BENCH_SCHEMA) => {}
        other => return Err(format!("bad schema field: {other:?}")),
    }
    match v.get("version").and_then(JsonValue::as_f64) {
        Some(ver) if ver == f64::from(BENCH_VERSION) => {}
        other => return Err(format!("unsupported version: {other:?}")),
    }
    let required = match v.get("suite") {
        None => SUITES[0].required,
        Some(tag) => match tag.as_str().and_then(suite) {
            Some(s) => s.required,
            None => return Err(format!("unknown suite: {tag:?}")),
        },
    };
    let metrics = v.get("metrics").ok_or("missing \"metrics\" object")?;
    if metrics.as_obj().is_none() {
        return Err("\"metrics\" is not an object".to_string());
    }
    for key in required {
        match metrics.get(key) {
            Some(val) if val.as_f64().is_some() => {}
            Some(_) => return Err(format!("metric {key:?} is not a number")),
            None => return Err(format!("missing required metric {key:?}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> BenchConfig {
        let mut cfg = BenchConfig::for_preset("tiny", true).unwrap();
        cfg.iters = 20; // keep unit tests fast; shape, not numbers
        cfg.reps = 1;
        cfg
    }

    /// A config tagged for `tag`'s suite plus a metrics map holding exactly
    /// that suite's required keys.
    fn shape(tag: &str) -> (BenchConfig, Vec<(String, f64)>) {
        let mut cfg = smoke_cfg();
        cfg.suite = tag.to_string();
        let required = suite(tag).expect("known suite").required;
        (cfg, required.iter().map(|k| (k.to_string(), 1.0)).collect())
    }

    #[test]
    fn artifact_round_trips_and_checks() {
        let (cfg, metrics) = shape("tl2_hotpath");
        let text = render_artifact(&cfg, &metrics, Some(&metrics));
        check_artifact(&text).unwrap();
        assert_eq!(parse_metrics(&text).unwrap(), metrics);
    }

    #[test]
    fn check_rejects_broken_artifacts() {
        assert!(check_artifact("not json").is_err());
        assert!(check_artifact("{}").is_err());
        let (cfg, mut metrics) = shape("tl2_hotpath");
        metrics.pop();
        let text = render_artifact(&cfg, &metrics, None);
        let err = check_artifact(&text).unwrap_err();
        assert!(err.contains("missing required metric"), "{err}");
    }

    #[test]
    fn microloops_produce_positive_rates() {
        let cfg = smoke_cfg();
        for detection in [Detection::CommitTime, Detection::EncounterTime] {
            assert!(bench_read(&cfg, detection) > 0.0);
            assert!(bench_read_validate(&cfg, detection) > 0.0);
            assert!(bench_write(&cfg, detection) > 0.0);
            assert!(bench_commit(&cfg, detection) > 0.0);
            assert!(bench_read_own_write(&cfg, detection) > 0.0);
            assert!(bench_abort(&cfg, detection) > 0.0);
        }
    }

    #[test]
    fn mvcc_serve_cell() {
        let cfg = smoke_cfg();
        let (rate, _p99, _ro_p99, ro_aborts, stats) = bench_mvcc_serve(&cfg, ReadMode::Snapshot);
        assert!(rate > 0.0);
        assert_eq!(ro_aborts, 0, "snapshot reads never abort");
        assert!(stats.snapshot_txns > 0, "the mvcc mix is read-mostly");
    }

    #[test]
    fn block_suite_full_run() {
        // The tiny suite end-to-end: every required key present, the
        // invariance oracle non-vacuous and green.
        let (cfg, _) = shape("block");
        let metrics = run_block_suite(&cfg, &crate::progress::NoProgress);
        check_artifact(&render_artifact(&cfg, &metrics, None)).unwrap();
        let get = |key: &str| metrics.iter().find(|(k, _)| k == key).unwrap().1;
        assert_eq!(get("block.block.determinism_ok"), 1.0);
        assert!(get("block.block.blocks") >= 1.0);
        assert!(get("block.block.req_per_sec") > 0.0);
    }

    #[test]
    fn adaptive_serve_cell_is_deterministic() {
        let cfg = smoke_cfg();
        // The drifting cell runs in virtual time: two runs under the same
        // policy agree on every stat the suite reports.
        let spec = adaptive_bench_spec(&cfg);
        assert!(spec.drift.is_some(), "the adaptive cell must drift");
        let policy = || gstm_guide::PolicyChoice::Default;
        let (_, rate_a, p99_a, _) = bench_adaptive_serve(&cfg, &spec, &policy);
        let (_, rate_b, p99_b, _) = bench_adaptive_serve(&cfg, &spec, &policy);
        assert!(rate_a > 0.0);
        assert_eq!((rate_a, p99_a), (rate_b, p99_b));
    }

    #[test]
    fn adaptive_suite_emits_exactly_its_required_keys() {
        let cfg = smoke_cfg();
        let metrics = run_adaptive_suite(&cfg, &crate::progress::NoProgress);
        let keys: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, suite("adaptive").unwrap().required.to_vec());
        let get = |k: &str| metrics.iter().find(|(n, _)| n == k).unwrap().1;
        assert_eq!(get("adaptive.gate.uniform_rejected"), 1.0, "gate must refuse uniform");
        assert!(get("adaptive.adaptive.req_per_ktick") > 0.0);
        assert!(get("adaptive.loop.retrain_attempts") >= get("adaptive.loop.installs"));
    }

    #[test]
    fn unknown_preset_is_rejected() {
        assert!(BenchConfig::for_preset("huge", false).is_err());
    }

    #[test]
    fn suite_field_selects_required_metrics() {
        let (_, hot) = shape("tl2_hotpath");
        for s in SUITES {
            let (cfg, own) = shape(s.suite);
            check_artifact(&render_artifact(&cfg, &own, None)).unwrap();
            if s.suite != "tl2_hotpath" {
                // Hot-path keys do not satisfy any other suite's artifact.
                let err = check_artifact(&render_artifact(&cfg, &hot, None)).unwrap_err();
                assert!(err.contains(s.required[0]), "{}: {err}", s.suite);
            }
        }
        // An unknown suite is rejected outright...
        let mut cfg = smoke_cfg();
        cfg.suite = "nonsense".to_string();
        let err = check_artifact(&render_artifact(&cfg, &hot, None)).unwrap_err();
        assert!(err.contains("unknown suite"), "{err}");
        // ...and an artifact with no suite field is a hot-path artifact.
        let legacy = format!(
            "{{\"schema\":\"gstm-bench\",\"version\":1,\"metrics\":{{{}}}}}",
            hot.iter().map(|(k, _)| format!("\"{k}\":1")).collect::<Vec<_>>().join(",")
        );
        check_artifact(&legacy).unwrap();
    }

    #[test]
    fn run_command_writes_a_checked_artifact_and_reports_bad_flags() {
        let wal = suite("wal").unwrap();
        let out = std::env::temp_dir().join(format!("gstm-bench-cmd-{}.json", std::process::id()));
        let args: Vec<String> =
            ["--out", out.to_str().unwrap(), "--smoke", "--profile", "test", "--preset", "default"]
                .map(String::from)
                .to_vec();
        run_command(wal, &args, &crate::progress::NoProgress).unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        check_artifact(&text).unwrap();
        let v = JsonValue::parse(&text).unwrap();
        assert_eq!(v.get("suite").and_then(JsonValue::as_str), Some("wal"));
        assert_eq!(
            v.get("preset").and_then(JsonValue::as_str),
            Some("tiny"),
            "wal pins its preset"
        );
        assert_eq!(v.get("profile").and_then(JsonValue::as_str), Some("test"));
        let bad: Vec<String> = ["--preset", "huge"].map(String::from).to_vec();
        let err = run_command(&SUITES[0], &bad, &crate::progress::NoProgress).unwrap_err();
        assert!(err.contains("unknown bench preset"), "{err}");
    }
}
