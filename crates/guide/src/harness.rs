//! Workload harness: runs any [`Workload`] on the simulated machine under a
//! chosen policy, collecting every metric the paper reports.

use std::collections::BTreeMap;
use std::sync::Arc;

use gstm_core::cm::{Aggressive, ContentionManager, Greedy, Karma, Polite};
use gstm_core::{
    AdmissionPolicy, AdmitAll, CountingSink, Detection, EventSink, MemorySink, MulticastSink,
    Resolution, Stm, StmConfig, ThreadId, TxEvent,
};
use gstm_model::{GuidedModel, ModelHandle, StateTracker, WindowIngest};
use gstm_sim::{SimConfig, SimMachine, WaitBarrier};
use gstm_telemetry::{Snapshot, TelemetrySink};

use crate::adaptive::AdaptivePolicy;
use crate::baselines::{BoundedAbortsPolicy, DeterministicPolicy};
use crate::online::{OnlineRetrainer, RetrainSpec};
use crate::policy::{GuidedPolicy, HoldStats, DEFAULT_K};

/// Everything a worker closure needs.
#[derive(Clone)]
pub struct WorkerEnv {
    /// The STM instance shared by all workers.
    pub stm: Arc<Stm>,
    /// This worker's thread id (also its virtual core).
    pub thread: ThreadId,
    /// Total number of workers.
    pub threads: usize,
    /// All-worker barrier (SynQuake's frame loop synchronizes on this).
    pub barrier: Arc<dyn WaitBarrier>,
}

impl std::fmt::Debug for WorkerEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerEnv")
            .field("thread", &self.thread)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

/// One run instance of a benchmark: owns the shared transactional state.
pub trait WorkloadRun: Send + Sync {
    /// Produces the closure executed by `env.thread`.
    fn worker(&self, env: WorkerEnv) -> Box<dyn FnOnce() + Send>;

    /// Post-run invariant check.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    fn verify(&self) -> Result<(), String> {
        Ok(())
    }

    /// Workload-specific metrics (e.g. SynQuake frame times).
    fn stats(&self) -> Vec<(String, f64)> {
        Vec::new()
    }
}

/// A benchmark: instantiates fresh [`WorkloadRun`]s, one per run/seed.
///
/// `Send + Sync` so a `Box<dyn Workload>` (and `&dyn Workload`) can cross
/// the experiment pipeline's worker-pool threads: independent cells and
/// seeds of a study fan out across OS threads sharing one workload.
pub trait Workload: Send + Sync {
    /// Benchmark name (table/figure row label).
    fn name(&self) -> &'static str;

    /// Creates the shared state for one run. `seed` derives any stochastic
    /// input data; `threads` sizes the work partitioning.
    fn instantiate(&self, threads: usize, seed: u64) -> Box<dyn WorkloadRun>;

    /// STM configuration this workload requires (LibTM modes for SynQuake).
    fn stm_config(&self, threads: usize) -> StmConfig {
        StmConfig::new(threads)
    }
}

/// Which contention manager the run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CmChoice {
    /// Retry immediately (TL2 default).
    #[default]
    Aggressive,
    /// Exponential backoff.
    Polite,
    /// Work-priority (Karma).
    Karma,
    /// Oldest-first (Greedy).
    Greedy,
}

impl CmChoice {
    fn build(self, threads: usize) -> Arc<dyn ContentionManager> {
        match self {
            CmChoice::Aggressive => Arc::new(Aggressive),
            CmChoice::Polite => Arc::new(Polite::default()),
            CmChoice::Karma => Arc::new(Karma::new(threads, 8)),
            CmChoice::Greedy => Arc::new(Greedy::new(threads, 8)),
        }
    }
}

/// Admission policy of a run.
#[derive(Clone, Default)]
pub enum PolicyChoice {
    /// Unguided (the paper's "default STM").
    #[default]
    Default,
    /// Model-driven guided execution.
    Guided {
        /// Compiled model.
        model: Arc<GuidedModel>,
        /// Hold-retry bound `k`.
        k: u32,
    },
    /// Adaptive guidance with the online retrain loop engaged: the model
    /// serves through a hot-swap handle, ingested windows merge into it on
    /// the window-claim cadence, and the §IV gate decides what ships.
    AdaptiveOnline {
        /// Initially served compiled model.
        model: Arc<GuidedModel>,
        /// Hold-retry bound `k`.
        k: u32,
        /// Stand guidance down above this unknown-tuple percentage.
        max_unknown_pct: u32,
        /// Re-evaluate (and possibly retrain) every this many tuples.
        window: u64,
        /// Incremental-trainer and §IV-gate knobs.
        retrain: RetrainSpec,
    },
    /// §I's dismissed local approach: priority after `limit` aborts.
    BoundedAborts {
        /// Consecutive aborts before a thread is prioritized.
        limit: u32,
    },
    /// DeSTM-style deterministic round-robin admission (§IX baseline).
    Deterministic,
}

impl std::fmt::Debug for PolicyChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyChoice::Default => write!(f, "Default"),
            PolicyChoice::Guided { k, .. } => write!(f, "Guided {{ k: {k} }}"),
            PolicyChoice::AdaptiveOnline { k, max_unknown_pct, window, retrain, .. } => write!(
                f,
                "AdaptiveOnline {{ k: {k}, max_unknown_pct: {max_unknown_pct}, \
                 window: {window}, retrain: {retrain:?} }}"
            ),
            PolicyChoice::BoundedAborts { limit } => {
                write!(f, "BoundedAborts {{ limit: {limit} }}")
            }
            PolicyChoice::Deterministic => write!(f, "Deterministic"),
        }
    }
}

impl PolicyChoice {
    /// Guided with the default `k`.
    pub fn guided(model: Arc<GuidedModel>) -> Self {
        PolicyChoice::Guided { model, k: DEFAULT_K }
    }
}

/// Options for one run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Worker/core count (the paper pins one worker per core).
    pub threads: usize,
    /// Machine seed — the identity of the run.
    pub seed: u64,
    /// Machine jitter percentage.
    pub jitter_pct: u32,
    /// Admission policy.
    pub policy: PolicyChoice,
    /// Contention manager.
    pub cm: CmChoice,
    /// Buffer the full event log (profiling mode); costs memory.
    pub capture_events: bool,
    /// Override detection mode (defaults to the workload's config).
    pub detection: Option<Detection>,
    /// Override resolution mode (defaults to the workload's config).
    pub resolution: Option<Resolution>,
    /// Attach a [`TelemetrySink`] and return its merged [`Snapshot`] in
    /// [`RunOutcome::telemetry`].
    pub telemetry: bool,
}

impl RunOptions {
    /// Default options for `threads` workers with the given seed.
    pub fn new(threads: usize, seed: u64) -> Self {
        RunOptions {
            threads,
            seed,
            jitter_pct: 25,
            policy: PolicyChoice::Default,
            cm: CmChoice::Aggressive,
            capture_events: false,
            detection: None,
            resolution: None,
            telemetry: false,
        }
    }

    /// Replaces the policy.
    pub fn with_policy(mut self, policy: PolicyChoice) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables full event capture.
    pub fn capturing(mut self) -> Self {
        self.capture_events = true;
        self
    }

    /// Enables telemetry collection.
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }
}

/// Everything measured in one run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Per-thread execution time in virtual ticks — the thread's **active**
    /// time (its own work, rollbacks and hold polls, excluding barrier
    /// waits). This is the quantity whose stddev the paper reports: it
    /// "accounts for the number of rollbacks seen by the thread".
    pub thread_ticks: Vec<u64>,
    /// Per-thread wall-clock-like time including barrier waits.
    pub thread_wall_ticks: Vec<u64>,
    /// Max thread time — "execution time of the benchmark".
    pub makespan: u64,
    /// Per-thread commit counts.
    pub commits: Vec<u64>,
    /// Per-thread abort counts.
    pub aborts: Vec<u64>,
    /// Per-thread held-invocation counts.
    pub holds: Vec<u64>,
    /// Per-thread abort-count histograms (aborts-before-commit → freq).
    pub abort_histograms: Vec<BTreeMap<u32, u64>>,
    /// Distinct thread transactional states — non-determinism |S|.
    pub nondeterminism: usize,
    /// Tuples that missed the model (guided runs only).
    pub unknown_hits: u64,
    /// Full event log when `capture_events` was set.
    pub events: Option<Vec<TxEvent>>,
    /// Workload-specific stats.
    pub workload_stats: Vec<(String, f64)>,
    /// How guided holds resolved (`None` for unguided runs).
    pub hold_stats: Option<HoldStats>,
    /// Merged telemetry snapshot when [`RunOptions::telemetry`] was set.
    pub telemetry: Option<Snapshot>,
}

impl RunOutcome {
    /// Total aborts across threads.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Total commits across threads.
    pub fn total_commits(&self) -> u64 {
        self.commits.iter().sum()
    }

    /// Abort ratio `aborts / (aborts + commits)`.
    pub fn abort_ratio(&self) -> f64 {
        let a = self.total_aborts() as f64;
        let c = self.total_commits() as f64;
        if a + c == 0.0 {
            0.0
        } else {
            a / (a + c)
        }
    }
}

/// Runs `workload` once under `opts` on a fresh simulated machine.
///
/// # Panics
///
/// Panics if the workload's post-run verification fails — a correctness bug
/// in the STM or the benchmark, never an expected outcome.
pub fn run_workload(workload: &dyn Workload, opts: &RunOptions) -> RunOutcome {
    let threads = opts.threads;
    // Every run allocates its TVars in a fresh id domain, so its stripe
    // assignments — and therefore its schedule — are a pure function of
    // (workload, threads, seed): independent of process history and of
    // other runs executing concurrently on the pipeline's worker pool.
    let var_domain = gstm_core::VarIdDomain::new();
    let mut machine =
        SimMachine::new(SimConfig::new(threads, opts.seed).with_jitter(opts.jitter_pct));
    let telemetry = opts.telemetry.then(|| Arc::new(TelemetrySink::new(threads)));
    if let Some(t) = &telemetry {
        machine = machine.with_metrics(Arc::clone(t.registry()));
    }

    let counting = Arc::new(CountingSink::new(threads));
    let memory = opts.capture_events.then(MemorySink::new).map(Arc::new);
    let mut guided_policy: Option<Arc<GuidedPolicy>> = None;
    let mut adaptive_policy: Option<Arc<AdaptivePolicy>> = None;
    let mut retrainer: Option<Arc<OnlineRetrainer>> = None;
    let mut policy_sink: Option<Arc<dyn EventSink>> = None;
    let (tracker, policy): (Arc<StateTracker>, Arc<dyn AdmissionPolicy>) = match &opts.policy {
        PolicyChoice::Default => (Arc::new(StateTracker::new()), Arc::new(AdmitAll)),
        PolicyChoice::Guided { model, k } => {
            let tracker = Arc::new(StateTracker::with_model(Arc::clone(model)));
            let policy = Arc::new(GuidedPolicy::new(Arc::clone(&tracker), *k));
            guided_policy = Some(Arc::clone(&policy));
            (tracker, policy)
        }
        PolicyChoice::AdaptiveOnline { model, k, max_unknown_pct, window, retrain } => {
            let handle = Arc::new(ModelHandle::new(Arc::clone(model)));
            let tracker = Arc::new(StateTracker::with_handle(Arc::clone(&handle)));
            let inner = Arc::new(GuidedPolicy::new(Arc::clone(&tracker), *k));
            guided_policy = Some(Arc::clone(&inner));
            // One ingested run per adaptive window, bounded so a stalled
            // claim never grows the buffer without limit.
            let ingest = Arc::new(WindowIngest::new(*window as usize, 64));
            policy_sink = Some(Arc::clone(&ingest) as Arc<dyn EventSink>);
            let rt = Arc::new(OnlineRetrainer::new(
                Arc::clone(&ingest),
                handle,
                model.tsa().clone(),
                *retrain,
            ));
            retrainer = Some(Arc::clone(&rt));
            let policy =
                Arc::new(AdaptivePolicy::new(inner, *max_unknown_pct, *window).with_observer(rt));
            adaptive_policy = Some(Arc::clone(&policy));
            (tracker, policy)
        }
        PolicyChoice::BoundedAborts { limit } => {
            let policy = Arc::new(BoundedAbortsPolicy::new(threads, *limit, 256));
            policy_sink = Some(Arc::clone(&policy) as Arc<dyn EventSink>);
            (Arc::new(StateTracker::new()), policy)
        }
        PolicyChoice::Deterministic => {
            let policy = Arc::new(DeterministicPolicy::new(threads, 64));
            policy_sink = Some(Arc::clone(&policy) as Arc<dyn EventSink>);
            (Arc::new(StateTracker::new()), policy)
        }
    };
    let mut sink = MulticastSink::new()
        .with(Arc::clone(&counting) as Arc<dyn EventSink>)
        .with(Arc::clone(&tracker) as Arc<dyn EventSink>);
    if let Some(ps) = policy_sink {
        sink = sink.with(ps);
    }
    if let Some(mem) = &memory {
        sink = sink.with(Arc::clone(mem) as Arc<dyn EventSink>);
    }
    if let Some(t) = &telemetry {
        sink = sink.with(Arc::clone(t) as Arc<dyn EventSink>);
    }

    let mut config = workload.stm_config(threads);
    if let Some(d) = opts.detection {
        config.detection = d;
    }
    if let Some(r) = opts.resolution {
        config.resolution = r;
    }
    let stm = Arc::new(Stm::with_parts(
        config,
        machine.gate(),
        Arc::new(sink),
        policy,
        opts.cm.build(threads),
    ));

    let run = {
        let _ids = var_domain.install();
        workload.instantiate(threads, opts.seed)
    };
    let barrier: Arc<dyn WaitBarrier> = Arc::new(machine.barrier(threads));
    let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..threads)
        .map(|i| {
            let env = WorkerEnv {
                stm: Arc::clone(&stm),
                thread: ThreadId::new(i as u16),
                threads,
                barrier: Arc::clone(&barrier),
            };
            let inner: Box<dyn FnOnce() + Send + '_> = run.worker(env);
            // Workers run on their own OS threads; install the run's id
            // domain there too so mid-run allocations (if a workload ever
            // makes any) stay inside the run's namespace.
            let domain = var_domain.clone();
            let boxed: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let _ids = domain.install();
                inner();
            });
            boxed
        })
        .collect();
    let report = machine.run(workers);

    if let Err(msg) = run.verify() {
        panic!("workload '{}' failed verification: {msg}", workload.name());
    }

    let ids = |i: usize| ThreadId::new(i as u16);
    let hold_stats = guided_policy.as_ref().map(|p| p.hold_stats());
    let snapshot = telemetry.map(|t| {
        let reg = t.registry();
        reg.set_gauge("gstm_model_nondeterminism_states", tracker.nondeterminism() as u64);
        reg.set_gauge("gstm_model_unknown_state_hits_total", tracker.unknown_state_hits());
        reg.set_gauge("gstm_model_transitions_total", tracker.transition_count());
        if let Some(hs) = &hold_stats {
            reg.set_gauge("gstm_guide_holds_immediate_total", hs.immediate);
            reg.set_gauge("gstm_guide_holds_admitted_later_total", hs.admitted_later);
            reg.set_gauge("gstm_guide_holds_bailed_out_total", hs.bailed_out);
        }
        if let Some(ap) = &adaptive_policy {
            reg.set_gauge("gstm_guide_stand_downs_total", ap.stand_downs());
            reg.set_gauge("gstm_guide_active", u64::from(ap.is_active()));
        }
        if let Some(rt) = &retrainer {
            let rs = rt.stats();
            reg.set_gauge("gstm_guide_retrain_attempts_total", rs.attempts);
            reg.set_gauge("gstm_guide_model_installs_total", rs.installs);
            reg.set_gauge("gstm_guide_model_rejects_total", rs.rejects);
            reg.set_gauge("gstm_guide_model_epoch", tracker.model_epoch());
            reg.set_gauge("gstm_guide_ingest_dropped_total", rt.ingest().dropped());
        }
        t.snapshot()
    });
    RunOutcome {
        thread_ticks: report.active_ticks,
        thread_wall_ticks: report.thread_ticks,
        makespan: report.makespan,
        commits: (0..threads).map(|i| counting.commits(ids(i))).collect(),
        aborts: (0..threads).map(|i| counting.aborts(ids(i))).collect(),
        holds: (0..threads).map(|i| counting.holds(ids(i))).collect(),
        abort_histograms: (0..threads).map(|i| counting.abort_histogram(ids(i))).collect(),
        nondeterminism: tracker.nondeterminism(),
        unknown_hits: tracker.unknown_state_hits(),
        events: memory.map(|m| m.take()),
        workload_stats: run.stats(),
        hold_stats,
        telemetry: snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{retry, Abort, TVar, TxId, Txn};

    /// A tiny built-in workload: every thread increments a shared counter
    /// `per_thread` times through one transaction site.
    struct Counter {
        per_thread: usize,
    }

    struct CounterRun {
        var: TVar<i64>,
        expected: i64,
        per_thread: usize,
    }

    impl Workload for Counter {
        fn name(&self) -> &'static str {
            "counter"
        }

        fn instantiate(&self, threads: usize, _seed: u64) -> Box<dyn WorkloadRun> {
            Box::new(CounterRun {
                var: TVar::new(0),
                expected: (threads * self.per_thread) as i64,
                per_thread: self.per_thread,
            })
        }
    }

    impl WorkloadRun for CounterRun {
        fn worker(&self, env: WorkerEnv) -> Box<dyn FnOnce() + Send> {
            let var = self.var.clone();
            let per = self.per_thread;
            Box::new(move || {
                for _ in 0..per {
                    env.stm.run(env.thread, TxId::new(0), |tx: &mut Txn<'_>| {
                        let v = tx.read(&var)?;
                        tx.work(5);
                        tx.write(&var, v + 1)
                    });
                }
            })
        }

        fn verify(&self) -> Result<(), String> {
            let got = *self.var.load_unlogged();
            if got == self.expected {
                Ok(())
            } else {
                Err(format!("expected {}, got {got}", self.expected))
            }
        }

        fn stats(&self) -> Vec<(String, f64)> {
            vec![("final".into(), *self.var.load_unlogged() as f64)]
        }
    }

    #[test]
    fn run_collects_all_metrics() {
        let w = Counter { per_thread: 30 };
        let out = run_workload(&w, &RunOptions::new(4, 11).capturing());
        assert_eq!(out.thread_ticks.len(), 4);
        assert_eq!(out.total_commits(), 120);
        assert!(out.total_aborts() > 0, "4 threads on one counter must conflict");
        assert!(out.nondeterminism > 0);
        assert!(out.events.is_some());
        assert_eq!(out.workload_stats[0].1, 120.0);
        assert!(out.abort_ratio() > 0.0 && out.abort_ratio() < 1.0);
    }

    #[test]
    fn telemetry_snapshot_matches_counting_sink() {
        let w = Counter { per_thread: 25 };
        let out = run_workload(&w, &RunOptions::new(4, 3).with_telemetry());
        let snap = out.telemetry.as_ref().expect("telemetry was requested");
        assert_eq!(snap.total("gstm_tx_commits_total"), out.total_commits());
        assert_eq!(snap.total("gstm_tx_aborts_total"), out.total_aborts());
        assert_eq!(snap.gauge_value("gstm_sim_makespan_ticks"), Some(out.makespan));
        assert_eq!(
            snap.gauge_value("gstm_model_nondeterminism_states"),
            Some(out.nondeterminism as u64)
        );
        assert!(snap.histogram("gstm_tx_retries", 0).is_some());
    }

    #[test]
    fn runs_are_deterministic_per_seed_at_summary_level() {
        let w = Counter { per_thread: 20 };
        let a = run_workload(&w, &RunOptions::new(3, 5));
        let b = run_workload(&w, &RunOptions::new(3, 5));
        // TVar ids differ between instantiations (global counter), so exact
        // tick equality is not guaranteed — but the counts of work done are.
        assert_eq!(a.total_commits(), b.total_commits());
        assert_eq!(a.thread_ticks.len(), b.thread_ticks.len());
    }

    #[test]
    #[should_panic(expected = "failed verification")]
    fn verification_failure_panics() {
        struct Broken;
        struct BrokenRun;
        impl Workload for Broken {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn instantiate(&self, _: usize, _: u64) -> Box<dyn WorkloadRun> {
                Box::new(BrokenRun)
            }
        }
        impl WorkloadRun for BrokenRun {
            fn worker(&self, _env: WorkerEnv) -> Box<dyn FnOnce() + Send> {
                Box::new(|| {})
            }
            fn verify(&self) -> Result<(), String> {
                Err("always broken".into())
            }
        }
        run_workload(&Broken, &RunOptions::new(1, 1));
    }

    #[test]
    fn user_retry_is_usable_from_workloads() {
        // Check the retry() helper plugs into the harness types.
        let _f = |_tx: &mut Txn<'_>| -> Result<(), Abort> { Err(retry()) };
    }
}
