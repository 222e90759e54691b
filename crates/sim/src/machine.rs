//! The discrete-event scheduler.
//!
//! There is no scheduler thread. Scheduling decisions are only ever needed
//! when **no** worker is on-CPU, and the worker whose arrival makes that so
//! is awake, holds the one lock and has the whole state in front of it — so
//! it makes the pick itself ([`Sched::decide`]) and wakes the chosen worker,
//! or simply returns when it chose itself. The caller of
//! [`SimMachine::run`] is the watchdog and nothing else.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::time::Duration;

use gstm_core::rng::SmallRng;
use gstm_core::sync::Mutex;
use gstm_core::Ticks;
use gstm_telemetry::MetricsRegistry;

use crate::barrier::SimBarrier;
use crate::gate::{SimGate, CENTI};

/// Configuration of a simulated machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of virtual cores. When more workers than cores are unfinished,
    /// step costs are scaled up by the oversubscription factor — a coarse
    /// processor-sharing model. The experiments follow the paper and run one
    /// worker per core, where the model is exact.
    pub cores: usize,
    /// RNG seed: the identity of "a run" (the paper averages over 20 runs;
    /// we average over 20 seeds).
    pub seed: u64,
    /// Per-step cost jitter in percent (0 disables). Models the timing noise
    /// of real hardware; also the tie-breaker that makes interleavings
    /// differ across seeds.
    pub jitter_pct: u32,
}

impl SimConfig {
    /// A machine with `cores` cores, the given seed, and the default 25%
    /// jitter.
    pub fn new(cores: usize, seed: u64) -> Self {
        assert!(cores > 0, "a machine needs at least one core");
        SimConfig { cores, seed, jitter_pct: 25 }
    }

    /// Sets the jitter percentage.
    pub fn with_jitter(mut self, pct: u32) -> Self {
        self.jitter_pct = pct;
        self
    }
}

/// Outcome of one simulated run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Final virtual clock of each worker, in ticks, *including* barrier
    /// waiting (wall-clock-like).
    pub thread_ticks: Vec<u64>,
    /// Per-worker **active** time: the costs the thread itself was charged
    /// (work, reads/writes, commit effort, abort penalties and re-executed
    /// attempts, guidance hold polls) — excluding time parked at barriers.
    /// This is the paper's "execution time of a thread": it "accounts for
    /// the number of rollbacks seen by the thread" (§II-B).
    pub active_ticks: Vec<u64>,
    /// Virtual makespan (max thread clock), in ticks.
    pub makespan: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum St {
    Running,
    /// Parked at the gate: `(cost, steps_left)`. A plain pass is a batch of
    /// one; a `pass_batch` parks with its full count and is re-queued here
    /// (without waking) until the last sub-step is granted.
    Waiting(Ticks, u64),
    InBarrier,
    Finished,
}

/// How long the watchdog sleeps between looks at the grant counter. A run
/// that is neither finished nor aborted and granted nothing for one whole
/// period has a worker blocked outside the gate.
#[cfg(not(test))]
const WATCHDOG_PERIOD: Duration = Duration::from_secs(60);
#[cfg(test)]
const WATCHDOG_PERIOD: Duration = Duration::from_millis(250);

const STARVED: &str = "sim scheduler starved: a worker blocked outside the gate";
const DEADLOCK: &str = "sim deadlock: no runnable workers \
                        (all remaining workers parked in barriers that cannot fill)";

/// Payload a parked worker unwinds with when the run is aborted. Raised with
/// `resume_unwind`, so it is neither printed nor reported as that worker's
/// panic.
struct Aborted;

/// Everything a scheduling decision reads or writes, under one lock.
#[derive(Debug)]
struct Sched {
    rng: SmallRng,
    /// One entry per worker of the run (empty until `run` starts).
    status: Vec<St>,
    /// Workers on-CPU. Decisions are made exactly when this reaches zero.
    running: usize,
    finished: usize,
    /// Barrier id → (parties, parked members).
    barriers: HashMap<u32, (usize, Vec<usize>)>,
    /// Scheduling decisions (steps granted).
    grants: u64,
    barrier_releases: u64,
    /// Why the run was aborted; once set, every parked worker unwinds.
    abort: Option<&'static str>,
}

/// State shared by the workers' gate, the barriers and the watchdog.
#[derive(Debug)]
pub(crate) struct Shared {
    config: SimConfig,
    sched: Mutex<Sched>,
    /// `wake[i]` is where worker `i` sleeps while parked, so a pick wakes
    /// exactly the picked worker.
    wake: Vec<Condvar>,
    /// Where the watchdog sleeps; notified when the last worker finishes or
    /// the run aborts.
    done: Condvar,
    /// Per-thread virtual clocks, in centiticks.
    pub(crate) clocks: Vec<AtomicU64>,
    /// Per-thread *active* time: charged costs only, excluding barrier-wait
    /// alignment, in centiticks.
    active: Vec<AtomicU64>,
    /// Global virtual time (monotone max of granted clocks), centiticks.
    pub(crate) now: AtomicU64,
}

impl Shared {
    /// Worker `thread` asks for `count` consecutive steps of `cost` ticks
    /// and sleeps until the last of them is granted.
    pub(crate) fn pass(&self, thread: usize, cost: Ticks, count: u64) {
        self.park(self.sched.lock(), thread, St::Waiting(cost, count));
    }

    /// Worker `thread` enters barrier `id` and sleeps until it has filled
    /// and the worker is granted its next (zero-cost) step.
    pub(crate) fn barrier(&self, thread: usize, id: u32, parties: usize) {
        let mut s = self.sched.lock();
        s.barriers.entry(id).or_insert((parties, Vec::new())).1.push(thread);
        self.park(s, thread, St::InBarrier);
    }

    /// Takes `thread` off-CPU for the given reason; if that leaves no worker
    /// on-CPU this thread makes the scheduling decision. Returns once
    /// `thread` is the granted worker; unwinds if the run was aborted.
    fn park<'a>(&'a self, mut s: MutexGuard<'a, Sched>, thread: usize, why: St) {
        if s.abort.is_none() {
            if let Some(pick) = self.leave_cpu(&mut s, thread, why).filter(|&p| p != thread) {
                // Wake the pick with the lock released: a woken thread that
                // preempts its waker (one CPU) would otherwise run straight
                // into the held lock and bounce back — two more switches.
                drop(s);
                self.wake[pick].notify_one();
                s = self.sched.lock();
            }
        }
        loop {
            if s.abort.is_some() {
                drop(s);
                std::panic::resume_unwind(Box::new(Aborted));
            }
            if s.status[thread] == St::Running {
                return;
            }
            s = self.wake[thread].wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Worker `thread` is done (returned or panicked). Never sleeps.
    fn finish(&self, thread: usize) {
        let mut s = self.sched.lock();
        if s.abort.is_some() {
            return;
        }
        s.finished += 1;
        let pick = self.leave_cpu(&mut s, thread, St::Finished);
        drop(s);
        if let Some(pick) = pick {
            self.wake[pick].notify_one();
        }
    }

    /// Records why `thread` stopped running and, if it was the last worker
    /// on-CPU, decides who runs next. Returns the worker to wake, if any.
    fn leave_cpu(&self, s: &mut Sched, thread: usize, why: St) -> Option<usize> {
        s.status[thread] = why;
        s.running -= 1;
        if s.running > 0 {
            return None;
        }
        let pick = s.decide(self);
        if pick.is_none() {
            // Finished or deadlocked: either way the watchdog takes over.
            if s.abort.is_some() {
                self.wake_all(s);
            }
            self.done.notify_one();
        }
        pick
    }

    /// Wakes every parked worker (after setting `abort`, so they unwind).
    fn wake_all(&self, s: &Sched) {
        for cv in &self.wake[..s.status.len()] {
            cv.notify_one();
        }
    }

    /// The caller of `run` waits here until every worker has finished or
    /// the run was aborted, and aborts it itself when a whole period passes
    /// without a grant. Returns the grant and barrier-release counts and
    /// the abort reason.
    fn watch(&self) -> (u64, u64, Option<&'static str>) {
        let mut s = self.sched.lock();
        let mut seen = None;
        while s.finished < s.status.len() && s.abort.is_none() {
            let (guard, wait) =
                self.done.wait_timeout(s, WATCHDOG_PERIOD).unwrap_or_else(PoisonError::into_inner);
            s = guard;
            if wait.timed_out() && s.finished < s.status.len() && s.abort.is_none() {
                if seen == Some(s.grants) {
                    s.abort = Some(STARVED);
                    self.wake_all(&s);
                }
                seen = Some(s.grants);
            }
        }
        (s.grants, s.barrier_releases, s.abort)
    }
}

impl Sched {
    /// The scheduling decision, taken with no worker on-CPU: release the
    /// barriers that filled, then grant steps to the minimum-clock waiting
    /// worker until one of them has to be woken. Returns that worker, or
    /// `None` when all workers have finished or none can run (`abort` set).
    fn decide(&mut self, shared: &Shared) -> Option<usize> {
        let n = self.status.len();
        loop {
            // Release any barrier that filled: align clocks to the slowest
            // member (that is what a barrier does to time) and make all
            // members runnable.
            let full: Vec<u32> = self
                .barriers
                .iter()
                .filter(|(_, (parties, waiters))| waiters.len() >= *parties)
                .map(|(&id, _)| id)
                .collect();
            for id in full {
                self.barrier_releases += 1;
                let (_, waiters) = self.barriers.remove(&id).expect("barrier disappeared");
                let max_clock = waiters
                    .iter()
                    .map(|&w| shared.clocks[w].load(Ordering::SeqCst))
                    .max()
                    .unwrap_or(0);
                for w in waiters {
                    shared.clocks[w].store(max_clock, Ordering::SeqCst);
                    self.status[w] = St::Waiting(0, 1);
                }
            }

            if self.finished == n {
                return None;
            }

            // Pick the waiting worker with the smallest clock (seeded
            // tie-break), charge its cost + jitter, and grant the step.
            let min_clock = self
                .status
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, St::Waiting(..)))
                .map(|(i, _)| shared.clocks[i].load(Ordering::SeqCst))
                .min();
            let Some(min_clock) = min_clock else {
                self.abort = Some(DEADLOCK);
                return None;
            };
            let candidates: Vec<usize> = self
                .status
                .iter()
                .enumerate()
                .filter(|(i, s)| {
                    matches!(s, St::Waiting(..))
                        && shared.clocks[*i].load(Ordering::SeqCst) == min_clock
                })
                .map(|(i, _)| i)
                .collect();
            let pick = candidates[self.rng.gen_range(0..candidates.len())];
            let St::Waiting(cost, left) = self.status[pick] else { unreachable!() };

            let active = n - self.finished;
            let scale = active.div_ceil(shared.config.cores) as u64;
            let base = cost * CENTI;
            let jitter = if shared.config.jitter_pct > 0 && base > 0 {
                self.rng.gen_range(0..=base * shared.config.jitter_pct as u64 / 100)
            } else {
                0
            };
            let advance = (base + jitter) * scale;
            let new_clock = min_clock + advance;
            shared.clocks[pick].store(new_clock, Ordering::SeqCst);
            shared.active[pick].fetch_add(advance, Ordering::SeqCst);
            shared.now.fetch_max(new_clock, Ordering::SeqCst);

            self.grants += 1;
            if left > 1 {
                // Remaining sub-steps of a batched crossing: the worker is
                // still parked, so re-queue it exactly as if it had
                // immediately requested the next pass — the loop goes back
                // through the same barrier checks, min-clock pick and RNG
                // draws a chain of individual passes would see.
                self.status[pick] = St::Waiting(cost, left - 1);
            } else {
                self.status[pick] = St::Running;
                self.running = 1;
                return Some(pick);
            }
        }
    }
}

/// A deterministic simulated multicore machine.
///
/// Construct, wire its [`SimMachine::gate`] into an [`gstm_core::Stm`],
/// then [`SimMachine::run`] a vector of worker closures (index = thread id).
/// A machine instance runs **once**; build a fresh one per seed.
#[derive(Debug)]
pub struct SimMachine {
    shared: Arc<Shared>,
    next_barrier: AtomicU32,
    used: AtomicBool,
    metrics: Option<Arc<MetricsRegistry>>,
}

/// Upper bound on workers a single machine supports.
const MAX_WORKERS: usize = 512;

impl SimMachine {
    /// Creates a machine.
    pub fn new(config: SimConfig) -> Self {
        let shared = Arc::new(Shared {
            config,
            sched: Mutex::new(Sched {
                rng: SmallRng::seed_from_u64(config.seed),
                status: Vec::new(),
                running: 0,
                finished: 0,
                barriers: HashMap::new(),
                grants: 0,
                barrier_releases: 0,
                abort: None,
            }),
            wake: (0..MAX_WORKERS).map(|_| Condvar::new()).collect(),
            done: Condvar::new(),
            clocks: (0..MAX_WORKERS).map(|_| AtomicU64::new(0)).collect(),
            active: (0..MAX_WORKERS).map(|_| AtomicU64::new(0)).collect(),
            now: AtomicU64::new(0),
        });
        SimMachine {
            shared,
            next_barrier: AtomicU32::new(0),
            used: AtomicBool::new(false),
            metrics: None,
        }
    }

    /// Attaches a telemetry registry: after [`SimMachine::run`] completes,
    /// the machine publishes its virtual-time gauges (makespan, global
    /// clock, grant and barrier-release counts, per-thread active ticks)
    /// into it.
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// This machine's configuration.
    pub fn config(&self) -> SimConfig {
        self.shared.config
    }

    /// The gate to install into the STM (and to use for `work` charging).
    pub fn gate(&self) -> Arc<SimGate> {
        Arc::new(SimGate { shared: Arc::clone(&self.shared) })
    }

    /// Creates a barrier for `parties` workers, usable inside worker
    /// closures via [`crate::WaitBarrier`].
    pub fn barrier(&self, parties: usize) -> SimBarrier {
        let id = self.next_barrier.fetch_add(1, Ordering::Relaxed);
        SimBarrier::new(id, parties, Arc::clone(&self.shared))
    }

    /// Runs the workers to completion under the deterministic scheduler and
    /// returns per-thread virtual times.
    ///
    /// Worker `i` is thread `i`; every `Gate` call inside must use
    /// `ThreadId::new(i)`.
    ///
    /// # Panics
    ///
    /// Panics if called twice, if a worker panics (the payload message is
    /// propagated), if workers deadlock (all parked in barriers that cannot
    /// fill), or if no step is granted for 60 s of wall time (a worker
    /// blocked outside the gate). Parked workers are unwound first in every
    /// case; a worker blocked outside the gate is waited for.
    pub fn run(&self, workers: Vec<Box<dyn FnOnce() + Send + '_>>) -> RunReport {
        assert!(
            !self.used.swap(true, Ordering::SeqCst),
            "a SimMachine runs once; create a fresh one per seed"
        );
        let n = workers.len();
        assert!(n > 0 && n <= MAX_WORKERS, "worker count must be in 1..={MAX_WORKERS}");
        {
            let mut s = self.shared.sched.lock();
            s.status = vec![St::Running; n];
            s.running = n;
        }

        let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        let (grants, barrier_releases, abort) = std::thread::scope(|scope| {
            for (i, f) in workers.into_iter().enumerate() {
                let shared = &*self.shared;
                let panics = &panics;
                scope.spawn(move || {
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        // First rendezvous: the machine controls even the
                        // workers' start order.
                        shared.pass(i, 0, 1);
                        f()
                    }));
                    if let Err(payload) = result {
                        if !payload.is::<Aborted>() {
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "worker panicked".into());
                            panics.lock().push((i, msg));
                        }
                    }
                    // Always: the others may be waiting for this worker to
                    // leave the CPU.
                    shared.finish(i);
                });
            }
            self.shared.watch()
        });
        // A worker's own panic is the cause; a deadlock among the workers
        // it left behind is only the consequence.
        let panics = panics.into_inner();
        if let Some((i, msg)) = panics.into_iter().next() {
            panic!("sim worker {i} panicked: {msg}");
        }
        if let Some(msg) = abort {
            panic!("{msg}");
        }
        let thread_ticks: Vec<u64> =
            (0..n).map(|i| self.shared.clocks[i].load(Ordering::SeqCst) / CENTI).collect();
        let active_ticks: Vec<u64> =
            (0..n).map(|i| self.shared.active[i].load(Ordering::SeqCst) / CENTI).collect();
        let makespan = thread_ticks.iter().copied().max().unwrap_or(0);
        if let Some(reg) = &self.metrics {
            reg.set_gauge("gstm_sim_sched_grants_total", grants);
            reg.set_gauge("gstm_sim_barrier_releases_total", barrier_releases);
            reg.set_gauge("gstm_sim_makespan_ticks", makespan);
            reg.set_gauge("gstm_sim_now_ticks", self.shared.now.load(Ordering::SeqCst) / CENTI);
            for (i, &t) in active_ticks.iter().enumerate() {
                reg.set_gauge(&format!("gstm_sim_active_ticks{{thread=\"{i}\"}}"), t);
            }
        }
        RunReport { thread_ticks, active_ticks, makespan }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{Gate, ThreadId};

    fn boxed<'a>(f: impl FnOnce() + Send + 'a) -> Box<dyn FnOnce() + Send + 'a> {
        Box::new(f)
    }

    #[test]
    fn single_worker_accumulates_cost() {
        let m = SimMachine::new(SimConfig::new(1, 7).with_jitter(0));
        let gate = m.gate();
        let report = m.run(vec![boxed({
            let gate = Arc::clone(&gate);
            move || {
                for _ in 0..10 {
                    gate.pass(ThreadId::new(0), 5);
                }
            }
        })]);
        assert_eq!(report.thread_ticks, vec![50]);
        assert_eq!(report.makespan, 50);
    }

    #[test]
    fn identical_seeds_identical_outcome() {
        let run = |seed: u64| {
            let m = SimMachine::new(SimConfig::new(2, seed));
            let gate = m.gate();
            let order = Arc::new(Mutex::new(Vec::new()));
            let workers = (0..2usize)
                .map(|i| {
                    let gate = Arc::clone(&gate);
                    let order = Arc::clone(&order);
                    boxed(move || {
                        for k in 0..20u32 {
                            gate.pass(ThreadId::new(i as u16), 1 + (k % 3) as u64);
                            order.lock().push((i, k));
                        }
                    })
                })
                .collect();
            let report = m.run(workers);
            (report, Arc::try_unwrap(order).unwrap().into_inner())
        };
        let (r1, o1) = run(33);
        let (r2, o2) = run(33);
        assert_eq!(r1, r2);
        assert_eq!(o1, o2, "interleavings must be deterministic per seed");
        let (_, o3) = run(34);
        assert_ne!(o1, o3, "different seeds should interleave differently");
    }

    #[test]
    fn min_clock_scheduling_is_fair() {
        let m = SimMachine::new(SimConfig::new(2, 1).with_jitter(0));
        let gate = m.gate();
        let workers = (0..2usize)
            .map(|i| {
                let gate = Arc::clone(&gate);
                boxed(move || {
                    for _ in 0..100 {
                        gate.pass(ThreadId::new(i as u16), 1);
                    }
                })
            })
            .collect();
        let report = m.run(workers);
        assert_eq!(report.thread_ticks[0], report.thread_ticks[1]);
    }

    #[test]
    fn oversubscription_dilates_time() {
        let run = |cores| {
            let m = SimMachine::new(SimConfig::new(cores, 1).with_jitter(0));
            let gate = m.gate();
            let workers = (0..4usize)
                .map(|i| {
                    let gate = Arc::clone(&gate);
                    boxed(move || {
                        for _ in 0..10 {
                            gate.pass(ThreadId::new(i as u16), 1);
                        }
                    })
                })
                .collect();
            m.run(workers).makespan
        };
        let full = run(4);
        let half = run(2);
        assert!(half > full, "2 cores must be slower than 4 for 4 workers");
    }

    #[test]
    #[should_panic(expected = "worker 0 panicked: boom")]
    fn worker_panic_propagates() {
        let m = SimMachine::new(SimConfig::new(1, 1));
        m.run(vec![boxed(|| panic!("boom"))]);
    }

    #[test]
    fn worker_blocked_outside_the_gate_is_starvation_and_parked_workers_unwind() {
        // Worker 0 blocks outside the gate until both other workers have
        // dropped their locals, which they only do by unwinding out of the
        // gate they are parked in.
        struct TellOnDrop(std::sync::mpsc::Sender<usize>, usize);
        impl Drop for TellOnDrop {
            fn drop(&mut self) {
                let _ = self.0.send(self.1);
            }
        }
        let m = SimMachine::new(SimConfig::new(3, 1));
        let gate = m.gate();
        let (tx, rx) = std::sync::mpsc::channel();
        let unwound = Mutex::new(Vec::new());
        let mut workers = vec![boxed({
            let gate = Arc::clone(&gate);
            let unwound = &unwound;
            move || {
                gate.pass(ThreadId::new(0), 1);
                for _ in 0..2 {
                    let who = rx.recv_timeout(Duration::from_secs(20));
                    unwound.lock().push(who.expect("a parked worker did not unwind"));
                }
                gate.pass(ThreadId::new(0), 1);
                unreachable!("an aborted run grants nothing");
            }
        })];
        for i in 1..3usize {
            let gate = Arc::clone(&gate);
            let tell = TellOnDrop(tx.clone(), i);
            workers.push(boxed(move || {
                let _tell = tell;
                loop {
                    gate.pass(ThreadId::new(i as u16), 1);
                }
            }));
        }
        drop(tx);
        let died = std::panic::catch_unwind(AssertUnwindSafe(|| m.run(workers)))
            .expect_err("a starved run must panic, not return a report");
        assert_eq!(died.downcast_ref::<String>().map(String::as_str), Some(STARVED));
        let mut unwound = unwound.into_inner();
        unwound.sort_unstable();
        assert_eq!(unwound, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "runs once")]
    fn machine_runs_once() {
        let m = SimMachine::new(SimConfig::new(1, 1));
        m.run(vec![boxed(|| {})]);
        m.run(vec![boxed(|| {})]);
    }

    #[test]
    fn borrowing_workers_is_allowed() {
        let data = [1u64, 2, 3];
        let m = SimMachine::new(SimConfig::new(1, 1));
        let gate = m.gate();
        let sum = Mutex::new(0u64);
        m.run(vec![boxed(|| {
            gate.pass(ThreadId::new(0), 1);
            *sum.lock() = data.iter().sum();
        })]);
        assert_eq!(*sum.lock(), 6);
    }

    #[test]
    fn telemetry_gauges_published() {
        let reg = Arc::new(MetricsRegistry::new(1));
        let m = SimMachine::new(SimConfig::new(1, 1).with_jitter(0)).with_metrics(Arc::clone(&reg));
        let gate = m.gate();
        m.run(vec![boxed(move || gate.pass(ThreadId::new(0), 9))]);
        assert_eq!(reg.gauge("gstm_sim_makespan_ticks"), Some(9));
        assert_eq!(reg.gauge("gstm_sim_now_ticks"), Some(9));
        assert!(reg.gauge("gstm_sim_sched_grants_total").unwrap() >= 1);
        assert_eq!(reg.gauge("gstm_sim_active_ticks{thread=\"0\"}"), Some(9));
    }

    #[test]
    fn pass_batch_is_indistinguishable_from_looped_pass() {
        // Two contending workers, jitter on: the batched crossing must
        // yield the exact same clocks, makespan, and grant count as the
        // equivalent chain of individual passes (same RNG draw sequence).
        let run = |batched: bool| {
            let m = SimMachine::new(SimConfig::new(2, 11));
            let reg = Arc::new(MetricsRegistry::new(2));
            let m = m.with_metrics(Arc::clone(&reg));
            let gate = m.gate();
            let workers = (0..2usize)
                .map(|i| {
                    let gate = Arc::clone(&gate);
                    boxed(move || {
                        let t = ThreadId::new(i as u16);
                        for _ in 0..5 {
                            gate.pass(t, 2);
                            if batched {
                                gate.pass_batch(t, 3, 4);
                            } else {
                                for _ in 0..4 {
                                    gate.pass(t, 3);
                                }
                            }
                        }
                    })
                })
                .collect();
            let report = m.run(workers);
            (report, reg.gauge("gstm_sim_sched_grants_total"))
        };
        let (plain, plain_grants) = run(false);
        let (batch, batch_grants) = run(true);
        assert_eq!(plain, batch, "batching must not change any virtual time");
        assert_eq!(plain_grants, batch_grants, "each sub-step is a grant");
    }

    #[test]
    fn pass_batch_small_counts_degenerate() {
        let m = SimMachine::new(SimConfig::new(1, 3).with_jitter(0));
        let gate = m.gate();
        let report = m.run(vec![boxed({
            let gate = Arc::clone(&gate);
            move || {
                gate.pass_batch(ThreadId::new(0), 4, 0);
                gate.pass_batch(ThreadId::new(0), 4, 1);
                gate.pass_batch(ThreadId::new(0), 4, 2);
            }
        })]);
        assert_eq!(report.thread_ticks, vec![12]);
    }

    #[test]
    fn now_is_monotone_and_tracks_max() {
        let m = SimMachine::new(SimConfig::new(1, 1).with_jitter(0));
        let gate = m.gate();
        let g2 = Arc::clone(&gate);
        m.run(vec![boxed(move || {
            g2.pass(ThreadId::new(0), 7);
        })]);
        assert_eq!(gate.now(), 7);
        assert_eq!(gate.thread_time(ThreadId::new(0)), 7);
    }
}
