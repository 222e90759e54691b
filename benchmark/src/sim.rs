//! `sim_guided`: the paper's pipeline in virtual time on `gstm-sim`.
//!
//! (a) kmeans — train on the Medium input, analyze, then run the Small
//! input default vs guided over the test seeds; (b) `ServeSpec::hot(200)`
//! served in the simulator, default vs guided, trained with the
//! `experiments serve --fast` recipe. Every number except `setup_s` is a
//! pure function of `(seed, seconds)` and repeats exactly.
//!
//! Simulated runs hand control between OS threads at every step, so their
//! wall time is set by the host scheduler, not by the program (the same
//! training pass takes 0.5 s or 7 s back to back when the other core sits
//! idle). Wall time is therefore no metric here, and independent runs are
//! kept [`JOBS`] at a time so that both cores stay busy.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gstm_guide::{
    run_workload, train, PolicyChoice, RunOptions, RunOutcome, TrainedModel, Workload,
};
use gstm_serve::{ServeSpec, ServeWorkload};
use gstm_stamp::{benchmark, InputSize};
use gstm_stats::{mean, sample_stddev};

use crate::stats::{ratio, Quartiles};
use crate::workloads::{NANOS_PER_TICK, US_PER_TICK};

/// Virtual cores of every simulated run.
pub const CORES: usize = 8;

/// The paper's threshold knob (§VI).
const TFACTOR: f64 = 4.0;

/// Training seeds per model.
const TRAIN_SEEDS: u64 = 6;

/// Simulated runs in flight at once.
const JOBS: usize = 4;

/// Test seeds per policy and study for a run of `seconds`: five per second
/// is about what four jobs simulate in that time. The paper's ten seeds
/// leave a per-thread standard deviation with a quarter of its value as
/// sampling error; at a hundred the variance ratio's spread across
/// benchmark seeds is 2 %.
pub fn test_seeds(seconds: f64) -> usize {
    ((seconds * 5.0).round() as usize).max(6)
}

/// Runs `f(0..n)` on [`JOBS`] threads; results in index order.
fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..JOBS.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                out.lock().expect("a simulated run panicked")[i] = Some(value);
            });
        }
    });
    out.into_inner()
        .expect("a simulated run panicked")
        .into_iter()
        .map(|v| v.expect("every index was run"))
        .collect()
}

/// Default and guided runs of one study over the same test seeds.
pub struct Study {
    pub trained: TrainedModel,
    pub train_wall_s: f64,
    pub default: Vec<RunOutcome>,
    pub guided: Vec<RunOutcome>,
}

fn stat(run: &RunOutcome, key: &str) -> f64 {
    run.workload_stats.iter().find(|(k, _)| k == key).map(|(_, v)| *v).unwrap_or_default()
}

fn mean_of(runs: &[RunOutcome], f: impl Fn(&RunOutcome) -> f64) -> f64 {
    mean(&runs.iter().map(f).collect::<Vec<_>>())
}

fn per_thread_stddev(runs: &[RunOutcome]) -> Vec<f64> {
    (0..CORES)
        .map(|t| sample_stddev(&runs.iter().map(|r| r.thread_ticks[t] as f64).collect::<Vec<_>>()))
        .collect()
}

fn cov(runs: &[RunOutcome], key: &str) -> f64 {
    let xs: Vec<f64> = runs.iter().map(|r| stat(r, key)).collect();
    ratio(sample_stddev(&xs), mean(&xs))
}

/// What the two studies measured, in the benchmark's metric names.
pub struct SimOutcome {
    pub kmeans: Study,
    pub serve: Study,
    /// Across test seeds: wall time to build one run's inputs.
    pub setup_s: Quartiles,
    pub attempted: u64,
    pub errors: Vec<String>,
}

impl SimOutcome {
    /// Guided per-thread execution-time stddev as a percentage of the
    /// default's, mean over threads (kmeans). `100 −` this is the paper's
    /// variance reduction.
    pub fn guided_stddev_pct(&self) -> f64 {
        let d = per_thread_stddev(&self.kmeans.default);
        let g = per_thread_stddev(&self.kmeans.guided);
        100.0 * mean(&d.iter().zip(&g).map(|(d, g)| ratio(*g, *d)).collect::<Vec<_>>())
    }

    /// Guided non-determinism |S| as a percentage of the default's (kmeans).
    pub fn guided_nondet_pct(&self) -> f64 {
        let nd = |runs: &[RunOutcome]| mean_of(runs, |r| r.nondeterminism as f64);
        100.0 * ratio(nd(&self.kmeans.guided), nd(&self.kmeans.default))
    }

    /// Guided makespan as a percentage of the default's (kmeans).
    pub fn guided_makespan_pct(&self) -> f64 {
        let mk = |runs: &[RunOutcome]| mean_of(runs, |r| r.makespan as f64);
        100.0 * ratio(mk(&self.kmeans.guided), mk(&self.kmeans.default))
    }

    /// Guided serve p99 as a percentage of the default's.
    pub fn guided_p99_pct(&self) -> f64 {
        let p99 = |runs: &[RunOutcome]| mean_of(runs, |r| stat(r, "sojourn_p99"));
        100.0 * ratio(p99(&self.serve.guided), p99(&self.serve.default))
    }

    /// Guided cross-seed CoV of the serve p99 as a percentage of the
    /// default's. A ratio of two dispersion estimates: at a hundred seeds
    /// it still spreads 16–19 % across benchmark seeds, wider than any
    /// bound could hold, so it is reported per layer, unbounded.
    pub fn guided_p99_cov_pct(&self) -> f64 {
        100.0
            * ratio(cov(&self.serve.guided, "sojourn_p99"), cov(&self.serve.default, "sojourn_p99"))
    }

    /// Guided serve sojourn quantile in virtual microseconds, mean over
    /// seeds.
    pub fn guided_sojourn_us(&self, key: &str) -> f64 {
        mean_of(&self.serve.guided, |r| stat(r, key)) * US_PER_TICK
    }

    /// Guided serve completions per virtual second, mean over seeds.
    pub fn guided_req_per_s(&self) -> f64 {
        mean_of(&self.serve.guided, |r| {
            ratio(stat(r, "req_done"), r.makespan as f64 * NANOS_PER_TICK as f64 / 1e9)
        })
    }

    /// Share of the guided serve runs' offered requests that were served
    /// rather than shed, in percent.
    pub fn served_share_pct(&self) -> f64 {
        let done: f64 = self.serve.guided.iter().map(|r| stat(r, "req_done")).sum();
        let shed: f64 = self.serve.guided.iter().map(|r| stat(r, "req_shed")).sum();
        100.0 * ratio(done, done + shed)
    }

    /// Guided kmeans invocations that were held, per commit.
    pub fn holds_per_commit(&self) -> f64 {
        let holds: u64 = self.kmeans.guided.iter().map(|r| r.holds.iter().sum::<u64>()).sum();
        let commits: u64 = self.kmeans.guided.iter().map(RunOutcome::total_commits).sum();
        ratio(holds as f64, commits as f64)
    }

    /// Guided kmeans holds released by the `k`-retry bail-out.
    pub fn k_bailouts(&self) -> u64 {
        self.kmeans.guided.iter().filter_map(|r| r.hold_stats).map(|h| h.bailed_out).sum()
    }
}

fn same_outcome(a: &RunOutcome, b: &RunOutcome) -> bool {
    a.thread_ticks == b.thread_ticks
        && a.makespan == b.makespan
        && a.commits == b.commits
        && a.aborts == b.aborts
        && a.holds == b.holds
        && a.nondeterminism == b.nondeterminism
        && a.workload_stats == b.workload_stats
}

fn timed_train(workload: &dyn Workload, seeds: &[u64]) -> (TrainedModel, f64) {
    let started = Instant::now();
    let trained = train(workload, &RunOptions::new(CORES, 0), seeds, TFACTOR);
    (trained, started.elapsed().as_secs_f64())
}

/// One simulated run of `workload`, under `model`'s guidance or unguided.
fn run_once(workload: &dyn Workload, model: &TrainedModel, seed: u64, guided: bool) -> RunOutcome {
    let opts = RunOptions::new(CORES, seed);
    if guided {
        run_workload(workload, &opts.with_policy(PolicyChoice::guided(Arc::clone(&model.model))))
    } else {
        run_workload(workload, &opts)
    }
}

/// Default and guided runs of `workload` over `seeds`, [`JOBS`] at a time.
fn test_runs(
    workload: &dyn Workload,
    model: &TrainedModel,
    seeds: &[u64],
) -> (Vec<RunOutcome>, Vec<RunOutcome>) {
    let mut runs =
        par_map(2 * seeds.len(), |i| run_once(workload, model, seeds[i / 2], i % 2 == 1));
    let mut default = Vec::with_capacity(seeds.len());
    let mut guided = Vec::with_capacity(seeds.len());
    for (i, run) in runs.drain(..).enumerate() {
        if i % 2 == 0 { &mut default } else { &mut guided }.push(run);
    }
    (default, guided)
}

/// Runs both studies. Seeds: training `seed·1000 + 1..=6`, kmeans tests
/// from `seed·1000 + 100`, serve tests from `seed·1000 + 500`.
pub fn run(seed: u64, seconds: f64) -> SimOutcome {
    let base = seed.wrapping_mul(1000);
    let train_seeds: Vec<u64> = (1..=TRAIN_SEEDS).map(|i| base.wrapping_add(i)).collect();
    let n = test_seeds(seconds);
    let kmeans_seeds: Vec<u64> = (0..n as u64).map(|i| base.wrapping_add(100 + i)).collect();
    let serve_seeds: Vec<u64> = (0..n as u64).map(|i| base.wrapping_add(500 + i)).collect();

    let kmeans_train = benchmark("kmeans", InputSize::Medium).expect("kmeans is registered");
    let kmeans_test = benchmark("kmeans", InputSize::Small).expect("kmeans is registered");
    let serve = ServeWorkload::new(ServeSpec::hot(200));

    // Set-up is what a run pays before its first simulated step: building
    // the workload's inputs (points and centres; store and schedules). It
    // is timed on a second pass over the seeds: the first pass pays the
    // process's page faults, whose cost on a VM is the hypervisor's (the
    // first-pass figure read 72 or 100 µs from one run to the next).
    let build_inputs = || -> Vec<f64> {
        kmeans_seeds
            .iter()
            .zip(&serve_seeds)
            .map(|(&ks, &ss)| {
                let started = Instant::now();
                std::hint::black_box(kmeans_test.instantiate(CORES, ks));
                std::hint::black_box(serve.instantiate(CORES, ss));
                started.elapsed().as_secs_f64()
            })
            .collect()
    };
    build_inputs();
    let setup_s = Quartiles::of(&build_inputs());

    // The two training passes are sequential inside `train`; running them
    // side by side keeps both cores busy.
    let ((kmeans_model, kmeans_wall), (serve_model, serve_wall)) = std::thread::scope(|scope| {
        let a = scope.spawn(|| timed_train(kmeans_train.as_ref(), &train_seeds));
        let b = scope.spawn(|| timed_train(&serve, &train_seeds));
        (a.join().expect("kmeans training panicked"), b.join().expect("serve training panicked"))
    });

    let (kd, kg) = test_runs(kmeans_test.as_ref(), &kmeans_model, &kmeans_seeds);
    let (sd, sg) = test_runs(&serve, &serve_model, &serve_seeds);

    let mut errors = Vec::new();
    if !kmeans_model.is_fit() {
        errors.push(format!("kmeans model judged unfit: {}", kmeans_model.analysis));
    }
    // One seed of each study again: a simulated run must repeat exactly.
    let again = par_map(4, |i| {
        let (workload, model, seed): (&dyn Workload, _, _) = if i < 2 {
            (kmeans_test.as_ref(), &kmeans_model, kmeans_seeds[0])
        } else {
            (&serve, &serve_model, serve_seeds[0])
        };
        run_once(workload, model, seed, i % 2 == 1)
    });
    for (label, first, second) in [
        ("kmeans default", &kd[0], &again[0]),
        ("kmeans guided", &kg[0], &again[1]),
        ("serve default", &sd[0], &again[2]),
        ("serve guided", &sg[0], &again[3]),
    ] {
        if !same_outcome(first, second) {
            errors.push(format!("{label}: the same seed gave two different outcomes"));
        }
    }

    SimOutcome {
        kmeans: Study { trained: kmeans_model, train_wall_s: kmeans_wall, default: kd, guided: kg },
        serve: Study { trained: serve_model, train_wall_s: serve_wall, default: sd, guided: sg },
        setup_s,
        attempted: (4 * n + 4) as u64,
        errors,
    }
}

/// Wall microseconds per scheduler grant of sequential kmeans runs — the
/// simulator's hand-off cost. Informational: it measures the host
/// scheduler as much as the machine.
pub fn wall_us_per_step(seed: u64, seconds: f64) -> f64 {
    let runs = (seconds / 4.0).clamp(1.0, 5.0) as u64;
    let workload = benchmark("kmeans", InputSize::Small).expect("kmeans is registered");
    let (mut wall_s, mut grants) = (0.0, 0u64);
    for i in 0..runs {
        let opts = RunOptions::new(CORES, seed.wrapping_mul(1000).wrapping_add(900 + i));
        let started = Instant::now();
        let out = run_workload(workload.as_ref(), &opts.with_telemetry());
        wall_s += started.elapsed().as_secs_f64();
        grants += out
            .telemetry
            .and_then(|t| t.gauge_value("gstm_sim_sched_grants_total"))
            .unwrap_or_default();
    }
    ratio(wall_s * 1e6, grants as f64)
}
