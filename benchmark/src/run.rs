//! Turns a workload name, a seed and a time budget into a
//! [`WorkloadReport`]: the untraced run for the end-to-end metrics, the
//! traced run for the per-layer ones.

use std::path::Path;
use std::time::Instant;

use gstm_telemetry::JsonValue;

use crate::native::{run_rounds, run_slice, PhaseRun, SAT_SEEDS};
use crate::report::{per_layer, Metric, WorkloadReport};
use crate::stats::{exact_quantile, ratio, stalled_share, Quartiles};
use crate::traced::{replay, Trace, LATE_NS};
use crate::workloads::{native, NativeWorkload, Phase, THREADS};
use crate::{host, micro, sim, verify};

/// Which runs to make.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics only (`--trace 0`).
    Untraced,
    /// Per-layer metrics only (`--trace 1`).
    Traced,
    /// Both, splitting the time budget 70/30.
    Both,
}

/// The four `guided_*_pct` metrics, in catalogue order.
fn guided_metrics(values: [f64; 4]) -> impl Iterator<Item = Metric> {
    ["guided_stddev_pct", "guided_nondet_pct", "guided_makespan_pct", "guided_p99_pct"]
        .into_iter()
        .zip(values)
        .map(|(name, value)| Metric::exact(name, value))
}

/// Runs `name` and reports. `seconds` is the measuring time of the whole
/// call; WAL files go under `work_dir`.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn run_workload(
    name: &'static str,
    seed: u64,
    seconds: f64,
    mode: Mode,
    work_dir: &Path,
) -> WorkloadReport {
    let (untraced_s, traced_s) = match mode {
        Mode::Untraced => (seconds, 0.0),
        Mode::Traced => (0.0, seconds),
        Mode::Both => (seconds * 0.7, seconds * 0.3),
    };
    let mut report = WorkloadReport { name, ..WorkloadReport::default() };
    match native(name) {
        Some(workload) => {
            if untraced_s > 0.0 {
                native_untraced(&workload, seed, untraced_s, &mut report);
            }
            if traced_s > 0.0 {
                native_traced(&workload, seed, traced_s, work_dir, &mut report);
            }
        }
        None => {
            assert_eq!(name, "sim_guided", "unknown workload {name}");
            simulated(seed, untraced_s, traced_s, work_dir, &mut report);
        }
    }
    if !report.correct() {
        // A run whose outputs are wrong has no valid measurement.
        report.failed = report.attempted.max(1);
    }
    report
}

fn native_untraced(w: &NativeWorkload, seed: u64, seconds: f64, report: &mut WorkloadReport) {
    let rounds = run_rounds(w, seconds, seed);
    let (fixed, sat) = (&rounds.fixed, &rounds.sat);
    report.errors.extend(fixed.errors.iter().chain(&sat.errors).cloned());
    let fixed_spec = w.slice_spec(&w.fixed);
    if w.name == "serve_block" {
        if let Some((slice_seed, native)) = &rounds.first_fixed {
            report
                .errors
                .extend(verify::block_matches_reference(&fixed_spec, *slice_seed, native).err());
        }
    }
    if w.name == "serve_durable" {
        report.notes.push(
            "flush policy: group commit of 32 records to a file, snapshot advice every 256 records, no fsync",
        );
        report.errors.extend(
            verify::recovery_matches_live_store(&fixed_spec, seed.wrapping_mul(1000)).err(),
        );
    }

    // At the fixed rate nothing should be refused; at saturation shedding
    // is the load shape, not a failure.
    let failed = fixed.shed() + fixed.unverified + sat.unverified;
    report.attempted += fixed.offered() + sat.unverified;
    report.failed += failed;
    report.end_to_end = vec![
        Metric::quiet_low("setup_s", fixed.quartiles(|s| s.setup_s)),
        Metric::quiet_high("sat_req_per_s", sat.quartiles(|s| s.req_per_s)),
        Metric::quiet_low("p50_us", fixed.quartiles(|s| s.p50_us)),
        Metric::exact(
            "ok_share_pct",
            100.0 * (1.0 - ratio(failed as f64, report.attempted as f64)),
        ),
    ];
    // The serve workloads run the default admission policy: guided =
    // default, so every guided/default ratio is 100 %.
    report.end_to_end.extend(guided_metrics([100.0; 4]));
    report.detail.push(("fixed".into(), phase_json(&w.fixed, fixed)));
    report.detail.push(("sat".into(), phase_json(&w.sat, sat)));
    report
        .detail
        .push(("host.stalled_slice_share".into(), JsonValue::Num(fixed.stalled_slice_share())));
}

fn phase_json(phase: &Phase, run: &PhaseRun) -> JsonValue {
    let mut fields = vec![
        ("offered_req_per_s".to_string(), JsonValue::Num(phase.rate)),
        ("max_queue_depth".to_string(), JsonValue::Num(phase.max_queue_depth as f64)),
    ];
    if let JsonValue::Obj(more) = run.to_json() {
        fields.extend(more);
    }
    JsonValue::obj(fields)
}

/// Exact per-request quantiles (µs) and completions per second of one
/// traced slice.
struct TracedSlice {
    p50_us: f64,
    p99_us: f64,
    queue_wait_p50_us: f64,
    queue_wait_p99_us: f64,
    req_per_s: f64,
}

/// Replays slices of `phase` with spans until `seconds` have passed (at
/// least one), on the schedules the untraced run uses. Returns the pooled
/// spans and every slice's own figures.
fn traced_phase(
    w: &NativeWorkload,
    phase: &Phase,
    seconds: f64,
    first_seed: u64,
    wal_dir: &Path,
) -> (Trace, Vec<TracedSlice>) {
    let spec = w.slice_spec(phase);
    let started = Instant::now();
    let (mut pooled, mut slices) = (Trace::default(), Vec::new());
    while slices.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let mut trace =
            replay(&spec, THREADS, first_seed.wrapping_add(slices.len() as u64), wal_dir);
        let us = |samples: &mut [u64], q: f64| exact_quantile(samples, q) / 1e3;
        slices.push(TracedSlice {
            p50_us: us(&mut trace.sojourn_ns, 0.50),
            p99_us: us(&mut trace.sojourn_ns, 0.99),
            queue_wait_p50_us: us(&mut trace.queue_wait_ns, 0.50),
            queue_wait_p99_us: us(&mut trace.queue_wait_ns, 0.99),
            req_per_s: ratio(trace.done as f64, trace.elapsed_ns as f64 / 1e9),
        });
        pooled.absorb(trace);
    }
    (pooled, slices)
}

/// First quartile across traced slices — the untraced run's estimator, so
/// `trace.p50_us` checks `p50_us`'s histogram interpolation like for like.
fn quiet(slices: &[TracedSlice], f: impl Fn(&TracedSlice) -> f64) -> f64 {
    Quartiles::of(&slices.iter().map(f).collect::<Vec<_>>()).q1
}

fn native_traced(
    w: &NativeWorkload,
    seed: u64,
    seconds: f64,
    work_dir: &Path,
    report: &mut WorkloadReport,
) {
    let wal_dir = work_dir.join("traced-wal");
    let base = seed.wrapping_mul(1000);
    let (mut fixed, fixed_slices) = traced_phase(w, &w.fixed, seconds * 0.45, base, &wal_dir);
    let (sat, sat_slices) =
        traced_phase(w, &w.sat, seconds * 0.15, base.wrapping_add(SAT_SEEDS), &wal_dir);
    // The same saturating slices through the product's entry point: the
    // difference is what tracing costs.
    let sat_spec = w.slice_spec(&w.sat);
    let untraced_sat: Vec<f64> = (0..sat_slices.len() as u64)
        .filter_map(|i| run_slice(&sat_spec, base.wrapping_add(SAT_SEEDS + i)).ok())
        .map(|(slice, _)| slice.req_per_s)
        .collect();
    let traced_sat: Vec<f64> = sat_slices.iter().map(|s| s.req_per_s).collect();
    let overhead_pct =
        100.0 * (1.0 - ratio(Quartiles::of(&traced_sat).q3, Quartiles::of(&untraced_sat).q3));

    let slice_p99s: Vec<f64> = fixed_slices.iter().map(|s| s.p99_us).collect();
    let reqs = fixed.done as f64;
    let us_per_req = |ns: u64| ratio(ns as f64 / 1e3, reqs);
    let late = fixed.queue_wait_ns.iter().filter(|&&q| q > LATE_NS).count();
    let mean_sojourn_us = us_per_req(fixed.sojourn_ns.iter().sum());
    let accounted_us =
        us_per_req(fixed.queue_wait_ns.iter().sum::<u64>() + fixed.txn_ns + fixed.on_commit_ns);
    if (accounted_us - mean_sojourn_us).abs() > 0.1 * mean_sojourn_us {
        report.errors.push(format!(
            "spans account for {accounted_us:.3} us of a {mean_sojourn_us:.3} us mean sojourn"
        ));
    }

    let mut m: Vec<(&'static str, f64)> = vec![
        ("serve.service.queue_wait_us_p50", quiet(&fixed_slices, |s| s.queue_wait_p50_us)),
        ("serve.service.queue_wait_us_p99", quiet(&fixed_slices, |s| s.queue_wait_p99_us)),
        ("serve.service.late_share", ratio(late as f64, reqs)),
        ("core.stm.txn_us_per_req", us_per_req(fixed.txn_ns)),
        ("core.stm.self_us_per_req", us_per_req(fixed.txn_ns - fixed.body_ns)),
        ("core.stm.attempts_per_commit", ratio(fixed.attempts as f64, reqs)),
        ("core.stm.wasted_us_per_req", us_per_req(fixed.wasted_ns)),
        ("core.stm.aborts_per_commit", ratio((fixed.attempts - fixed.done) as f64, reqs)),
        (
            "core.stm.ro_aborts_per_ro_commit",
            ratio((fixed.attempts_ro - fixed.done_ro) as f64, fixed.done_ro as f64),
        ),
        (
            "core.stm.aborts_per_commit_sat",
            ratio((sat.attempts - sat.done) as f64, sat.done as f64),
        ),
        ("core.stm.txn_us_per_req_sat", ratio(sat.txn_ns as f64 / 1e3, sat.done as f64)),
        (
            "serve.store.apply_us_per_attempt",
            ratio(fixed.body_ns as f64 / 1e3, fixed.attempts as f64),
        ),
        ("serve.backend.on_commit_us_per_req", us_per_req(fixed.on_commit_ns)),
        ("serve.backend.flush_us", ratio(fixed.flush_ns as f64 / 1e3, fixed.flushes as f64)),
        ("trace.p50_us", quiet(&fixed_slices, |s| s.p50_us)),
        ("trace.p99_us", quiet(&fixed_slices, |s| s.p99_us)),
        ("trace.overhead_pct", overhead_pct),
        ("host.spin_ns_per_iter", host::spin_ns_per_iter()),
        ("host.stalled_slice_share", stalled_share(&slice_p99s)),
    ];
    if let Some(wal) = fixed.wal {
        m.extend([
            (
                "wal.log.records_per_flush",
                ratio(wal.stats.flushed_records as f64, wal.stats.flushes as f64),
            ),
            ("wal.log.bytes_per_req", ratio(wal.device_bytes as f64, reqs)),
            ("wal.log.snapshots_per_kreq", ratio(wal.stats.snapshots as f64 * 1e3, reqs)),
        ]);
    }
    if let Some(mut block) = fixed.block.take() {
        let blocks = block.blocks as f64;
        let per_txn = |count: u64| ratio(count as f64, reqs);
        m.extend([
            // Nanoseconds per request are microseconds per thousand.
            ("serve.block_mode.merge_us_per_kreq", ratio(block.merge_ns as f64, reqs)),
            (
                "serve.block_mode.formation_wait_us_p50",
                exact_quantile(&mut block.formation_wait_ns, 0.50) / 1e3,
            ),
            ("block.executor.execute_us_per_block", ratio(block.execute_ns as f64 / 1e3, blocks)),
            ("block.executor.re_executions_per_txn", per_txn(block.stats.re_executions)),
            ("block.executor.validation_fails_per_txn", per_txn(block.stats.validation_fails)),
            ("block.executor.dependency_stalls_per_txn", per_txn(block.stats.dependency_stalls)),
            ("serve.block_mode.commit_us_per_txn", us_per_req(block.commit_ns)),
            (
                "serve.block_mode.shadow_update_us_per_block",
                ratio(block.shadow_ns as f64 / 1e3, blocks),
            ),
        ]);
    }
    m.extend(micro_loops(work_dir, seconds));
    report.per_layer = per_layer(&m);
    report.attempted += fixed.done + fixed.shed;
    report.failed += fixed.shed;
    report.detail.push((
        "traced".into(),
        JsonValue::obj(vec![
            ("fixed_slices".into(), JsonValue::Num(fixed_slices.len() as f64)),
            ("fixed_done".into(), JsonValue::Num(fixed.done as f64)),
            ("fixed_shed".into(), JsonValue::Num(fixed.shed as f64)),
            ("sat_slices".into(), JsonValue::Num(sat_slices.len() as f64)),
            ("sat_done".into(), JsonValue::Num(sat.done as f64)),
            ("sat_shed".into(), JsonValue::Num(sat.shed as f64)),
            ("mean_sojourn_us".into(), JsonValue::Num(mean_sojourn_us)),
            ("accounted_us".into(), JsonValue::Num(accounted_us)),
        ]),
    ));
}

/// The microloops, sized to take about a fifth of a traced run.
fn micro_loops(work_dir: &Path, seconds: f64) -> Vec<(&'static str, f64)> {
    micro::run(&work_dir.join("micro-wal"), (seconds / 20.0).clamp(0.02, 1.0))
}

fn simulated(
    seed: u64,
    untraced_s: f64,
    traced_s: f64,
    work_dir: &Path,
    report: &mut WorkloadReport,
) {
    report.notes.push(
        "time is virtual: 8 simulated cores, 1 tick = 10 ns (the native workloads' tick); every metric but setup_s repeats exactly for a given seed and run length",
    );
    // The studies are sized by the run length; a combined run makes them
    // once, at the untraced share's size.
    let outcome = sim::run(seed, if untraced_s > 0.0 { untraced_s } else { traced_s });
    report.attempted += outcome.attempted;
    report.errors.extend(outcome.errors.iter().cloned());
    let (p50_us, p99_us) =
        (outcome.guided_sojourn_us("sojourn_p50"), outcome.guided_sojourn_us("sojourn_p99"));
    if untraced_s > 0.0 {
        report.end_to_end = vec![
            Metric::quiet_low("setup_s", outcome.setup_s),
            Metric::exact("sat_req_per_s", outcome.guided_req_per_s()),
            Metric::exact("p50_us", p50_us),
            Metric::exact("ok_share_pct", outcome.served_share_pct()),
        ];
        report.end_to_end.extend(guided_metrics([
            outcome.guided_stddev_pct(),
            outcome.guided_nondet_pct(),
            outcome.guided_makespan_pct(),
            outcome.guided_p99_pct(),
        ]));
    }
    if traced_s > 0.0 {
        let mut m: Vec<(&'static str, f64)> = vec![
            ("model.tsa.states", outcome.kmeans.trained.tsa.state_count() as f64),
            ("model.tsa.train_wall_s", outcome.kmeans.train_wall_s),
            ("guide.policy.holds_per_commit", outcome.holds_per_commit()),
            ("guide.policy.k_bailouts", outcome.k_bailouts() as f64),
            ("guide.policy.serve_p99_cov_pct", outcome.guided_p99_cov_pct()),
            ("sim.machine.wall_us_per_step", sim::wall_us_per_step(seed, traced_s)),
            ("trace.p50_us", p50_us),
            ("trace.p99_us", p99_us),
            ("host.spin_ns_per_iter", host::spin_ns_per_iter()),
        ];
        m.extend(micro_loops(work_dir, traced_s));
        report.per_layer = per_layer(&m);
    }
    report.detail.push((
        "studies".into(),
        JsonValue::obj(vec![
            ("test_seeds".into(), JsonValue::Num(outcome.kmeans.default.len() as f64)),
            ("kmeans_model".into(), JsonValue::Str(outcome.kmeans.trained.analysis.to_string())),
            ("serve_model".into(), JsonValue::Str(outcome.serve.trained.analysis.to_string())),
            ("kmeans_train_wall_s".into(), JsonValue::Num(outcome.kmeans.train_wall_s)),
            ("serve_train_wall_s".into(), JsonValue::Num(outcome.serve.train_wall_s)),
        ]),
    ));
}
