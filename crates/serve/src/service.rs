//! The service layer: specs, clocks, the worker loop, and the harness
//! integration that lets a serve run flow through `gstm-guide` (and hence
//! the experiment pipeline) like any other workload.
//!
//! ## Latency accounting
//!
//! Each request's **sojourn time** is `completion − scheduled arrival`:
//! queueing delay (the request waited while the thread served its backlog
//! or retried conflicting transactions) plus service time (the successful
//! attempt and all aborted ones). Sojourns are recorded into a per-thread
//! [`LogHistogram`] and merged at the end, so p50/p95/p99 come out of
//! lock-free counters without per-request allocation.
//!
//! ## Backpressure
//!
//! A thread whose backlog (requests already due but not yet served) exceeds
//! [`ServeSpec::max_queue_depth`] **sheds** the oldest due request instead
//! of serving it: it is counted and skipped without starting a transaction.
//! Shedding bounds queue growth when offered load transiently exceeds
//! service rate — without it, one conflict storm would inflate every later
//! sojourn in the run and the tail would measure the storm's echo, not the
//! policy's behavior.
//!
//! ## Clocks
//!
//! The loop runs in both worlds through [`ServeClock`]: [`GateClock`]
//! reads/advances the thread's virtual clock through the `Gate` seam (so a
//! SimGate run is deterministic per seed), and [`WallClock`] maps real
//! nanoseconds to ticks for native `RealGate` runs.

use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use gstm_core::{Gate, RealGate, Stm, StmConfig, ThreadId, TxnKind};
use gstm_guide::{RunOptions, RunOutcome, WorkerEnv, Workload, WorkloadRun};
use gstm_telemetry::{HistogramSnapshot, LogHistogram};

use crate::affinity;
use crate::backend::{BackendKind, DurableBackend, EphemeralBackend, StoreBackend};
use crate::store::{Request, ShardedStore};
use crate::traffic::{generate_schedules, Arrival, Drift, Mix, ScheduledRequest, TrafficSpec};
use gstm_wal::{FileDevice, LogDevice, Wal, WalConfig};

/// Upper bound on a single idle wait charged through the gate. Waiting in
/// small steps and re-reading the clock keeps the simulator's per-pass cost
/// jitter from overshooting the scheduled arrival by more than one chunk.
const WAIT_CHUNK: u64 = 32;

/// The commit spine's one organization: a global lock table and clock.
/// Kept only because the frozen `benchmark/` package names it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpineMode {
    /// One global lock table and the `fetch_add` clock.
    #[default]
    Global,
}

/// How requests are executed against the store (DESIGN.md §6h).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServeMode {
    /// The original open-loop worker loop: each thread serves its own
    /// schedule, one STM transaction per request, commit order decided by
    /// the race. The default — every pre-block spec, cache key and golden
    /// is unchanged.
    #[default]
    Interleaved,
    /// Ordered block execution: the per-thread schedules are merged into
    /// one global arrival order, chopped into blocks of `block_size`, and
    /// each block runs through the `gstm-block` executor — speculative
    /// parallel execution, outcome byte-identical to sequential execution
    /// in block order at any thread count. Commits claim one engine
    /// sequence number per transaction in block order, so the WAL stays
    /// gap-free. Native runs only; backpressure shedding does not apply
    /// (the block boundary is the batching policy).
    Block {
        /// Transactions per block.
        block_size: usize,
    },
}

/// Full description of one serve configuration — store shape, traffic, and
/// service parameters. Everything that defines the offered load lives
/// here, so a spec plus a seed fully determines a run's input.
#[derive(Clone, Debug)]
pub struct ServeSpec {
    /// Number of store shards.
    pub shards: usize,
    /// Buckets per shard (conflict granularity within a shard).
    pub buckets_per_shard: usize,
    /// Keyspace size.
    pub keys: u64,
    /// Zipf popularity skew θ.
    pub zipf_theta: f64,
    /// Arrival process.
    pub arrival: Arrival,
    /// Requests per thread.
    pub requests_per_thread: usize,
    /// Backlog depth above which due requests are shed.
    pub max_queue_depth: usize,
    /// Non-transactional compute ticks charged per request attempt.
    pub work: u64,
    /// `Scan` range length.
    pub scan_len: u64,
    /// Request-kind mix.
    pub mix: Mix,
    /// Storage backend: ephemeral (in-memory only) or durable
    /// (WAL-backed command logging with snapshots).
    pub backend: BackendKind,
    /// Always [`SpineMode::Global`]; kept only because the frozen
    /// `benchmark/` package reads it.
    pub spine: SpineMode,
    /// Optional non-stationary traffic (time-varying Zipf exponent plus
    /// hotspot migration, DESIGN.md §6g). `None` — the default every
    /// pre-drift spec used — leaves schedules byte-identical.
    pub drift: Option<Drift>,
    /// Execution mode: the default interleaved worker loop, or ordered
    /// block execution (native runs only, DESIGN.md §6h).
    pub mode: ServeMode,
}

impl ServeSpec {
    /// A contended "hot" shape: small keyspace, strong skew, coarse
    /// buckets and a transfer-heavy mix — most traffic fights over a few
    /// buckets, so admission policy decides the tail.
    pub fn hot(requests_per_thread: usize) -> Self {
        ServeSpec {
            shards: 2,
            buckets_per_shard: 2,
            keys: 32,
            zipf_theta: 0.99,
            arrival: Arrival::Poisson { mean_gap: 220.0 },
            requests_per_thread,
            max_queue_depth: 24,
            work: 40,
            scan_len: 8,
            mix: Mix::transfer_heavy(),
            backend: BackendKind::Ephemeral,
            spine: SpineMode::Global,
            drift: None,
            mode: ServeMode::Interleaved,
        }
    }

    /// An uncontended "wide" shape: large keyspace, mild skew, fine
    /// buckets and a read-mostly mix — conflicts are rare and the tail is
    /// mostly queueing.
    pub fn wide(requests_per_thread: usize) -> Self {
        ServeSpec {
            shards: 8,
            buckets_per_shard: 32,
            keys: 4096,
            zipf_theta: 0.6,
            arrival: Arrival::Poisson { mean_gap: 220.0 },
            requests_per_thread,
            max_queue_depth: 24,
            work: 40,
            scan_len: 8,
            mix: Mix::read_mostly(),
            backend: BackendKind::Ephemeral,
            spine: SpineMode::Global,
            drift: None,
            mode: ServeMode::Interleaved,
        }
    }

    /// The ledger shape: a mid-sized account space with strong Zipf skew
    /// and the `Mix::ledger` transfer graph — 80% of traffic atomically
    /// moves balance between two skewed accounts, so the conserved-total
    /// oracle ([`gstm_check::check_conserved_total`]) covers essentially
    /// all writes. This is the canonical block-executor workload: hot
    /// accounts produce dense write-write dependency chains that ordered
    /// re-execution resolves deterministically.
    pub fn ledger(requests_per_thread: usize) -> Self {
        ServeSpec {
            shards: 4,
            buckets_per_shard: 8,
            keys: 256,
            zipf_theta: 0.9,
            arrival: Arrival::Poisson { mean_gap: 180.0 },
            requests_per_thread,
            max_queue_depth: 24,
            work: 40,
            scan_len: 8,
            mix: Mix::ledger(),
            backend: BackendKind::Ephemeral,
            spine: SpineMode::Global,
            drift: None,
            mode: ServeMode::Interleaved,
        }
    }

    /// Replaces the arrival process.
    pub fn with_arrival(mut self, arrival: Arrival) -> Self {
        self.arrival = arrival;
        self
    }

    /// Replaces the storage backend.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Switches to ordered block execution with the given block size
    /// (native runs only).
    pub fn with_block_mode(mut self, block_size: usize) -> Self {
        self.mode = ServeMode::Block { block_size };
        self
    }

    /// Canonical cache-key fragment: every field that shapes the run, in a
    /// fixed order. Feeds the pipeline's content-addressed run cache, so
    /// any spec change must change this string. The `apply=` token names
    /// the store's access protocol: how many STM accesses a request makes
    /// moves every simulated serve run, so a run cached under another
    /// protocol must not be found.
    pub fn cache_key(&self) -> String {
        let arrival = match self.arrival {
            Arrival::Poisson { mean_gap } => format!("poisson(g={mean_gap})"),
            Arrival::Bursty { mean_gap, burst } => format!("bursty(g={mean_gap},b={burst})"),
        };
        let mut key = format!(
            "sh={};bk={};keys={};th={};arr={};rq={};qd={};wk={};sc={};mix={:?};be={};\
             apply=bucket-once",
            self.shards,
            self.buckets_per_shard,
            self.keys,
            self.zipf_theta,
            arrival,
            self.requests_per_thread,
            self.max_queue_depth,
            self.work,
            self.scan_len,
            self.mix.0,
            self.backend.label(),
        );
        // Appended (rather than inlined) and only when set, so stationary
        // specs keep their pre-drift keys.
        if let Some(d) = self.drift {
            key.push_str(&format!(
                ";drift=(te={},ph={},hs={})",
                d.theta_end, d.phases, d.hotspot_step
            ));
        }
        // And for the execution mode: interleaved specs keep their keys.
        if let ServeMode::Block { block_size } = self.mode {
            key.push_str(&format!(";mode=block(bs={block_size})"));
        }
        key
    }

    /// The traffic half of the spec: what `generate_schedule` needs to
    /// produce each thread's request schedule.
    pub fn traffic(&self) -> TrafficSpec {
        TrafficSpec {
            keys: self.keys,
            zipf_theta: self.zipf_theta,
            arrival: self.arrival,
            requests_per_thread: self.requests_per_thread,
            mix: self.mix,
            scan_len: self.scan_len,
            drift: self.drift,
        }
    }
}

/// A thread-local view of time for the serve loop, in ticks.
pub trait ServeClock: Send + Sync {
    /// The thread's current time.
    fn now(&self, thread: ThreadId) -> u64;

    /// Blocks (or charges idle ticks) until the thread's time reaches `at`.
    fn wait_until(&self, thread: ThreadId, at: u64);
}

/// [`ServeClock`] over the STM's own [`Gate`]: time is the thread's charged
/// tick total, and idle waits are charged through `pass` in bounded chunks
/// (each chunk's cost is re-derived from the clock, so simulator jitter
/// cannot compound into a large overshoot).
pub(crate) struct GateClock {
    gate: Arc<dyn Gate>,
}

impl GateClock {
    /// Wraps a gate (usually `stm.gate()`).
    pub(crate) fn new(gate: Arc<dyn Gate>) -> Self {
        GateClock { gate }
    }
}

impl ServeClock for GateClock {
    fn now(&self, thread: ThreadId) -> u64 {
        self.gate.thread_time(thread)
    }

    fn wait_until(&self, thread: ThreadId, at: u64) {
        loop {
            let now = self.gate.thread_time(thread);
            if now >= at {
                return;
            }
            self.gate.pass(thread, (at - now).min(WAIT_CHUNK));
        }
    }
}

/// [`ServeClock`] over wall time for native runs: ticks are
/// `elapsed_nanos / nanos_per_tick` since construction, shared by all
/// threads.
///
/// A wait yields the core while the arrival is far off and spins through
/// the last two microseconds, so that nothing stands between a request
/// being due and its service starting but one clock reading.
pub struct WallClock {
    epoch: Instant,
    nanos_per_tick: u64,
}

/// How near an arrival must be for [`WallClock::wait_until`] to stop yielding
/// and spin for it. A `sched_yield` that finds nothing else to run takes
/// ≈ 0.2 µs, and a waiter that is inside one when its request falls due
/// picks it up that much late — every request, at rates where the thread is
/// mostly idle. Ten such round-trips is ample margin for entering the spin
/// before the arrival, and is also what the spin can cost: on a host with
/// more runnable threads than cores, at most this much CPU per request is
/// held back from whoever else could have used it. Beyond the window every
/// wait still yields.
///
/// One turn of the spin is one clock reading (≈ 27 ns on the host this was
/// tuned on) and nothing else, so that is the most a due request goes
/// unnoticed. There is no `PAUSE` in the loop: it (≈ 11 ns there) would
/// stand between a request falling due and the reading that finds it so,
/// and measured that way — `serve_wide` median sojourn 0.43 → 0.40 µs
/// without it, five of five alternating runs.
const SPIN_WINDOW_NANOS: u64 = 2_000;

impl WallClock {
    /// A clock where one tick is `nanos_per_tick` wall nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `nanos_per_tick` is zero.
    pub fn new(nanos_per_tick: u64) -> Self {
        assert!(nanos_per_tick > 0, "a tick must span at least one nanosecond");
        WallClock { epoch: Instant::now(), nanos_per_tick }
    }

    fn elapsed_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from now until tick `at` begins; zero once it has. A
    /// tick beyond what a `u64` of nanoseconds can hold is further away than
    /// any run lasts, and saturates to that.
    fn nanos_until(&self, at: u64) -> u64 {
        at.saturating_mul(self.nanos_per_tick).saturating_sub(self.elapsed_nanos())
    }

    /// If tick `at` is due or no further off than the spin window, waits
    /// for it and answers `true`; otherwise answers `false` without waiting.
    /// For a caller that has other things to look at between polls (block
    /// mode's lanes) but should not take a trip round its own loop when the
    /// arrival is this close.
    pub(crate) fn wait_if_near(&self, thread: ThreadId, at: u64) -> bool {
        let left = self.nanos_until(at);
        if left > SPIN_WINDOW_NANOS {
            return false;
        }
        if left > 0 {
            self.wait_until(thread, at);
        }
        true
    }
}

impl ServeClock for WallClock {
    fn now(&self, _thread: ThreadId) -> u64 {
        self.elapsed_nanos() / self.nanos_per_tick
    }

    fn wait_until(&self, _thread: ThreadId, at: u64) {
        loop {
            match self.nanos_until(at) {
                0 => return,
                left if left > SPIN_WINDOW_NANOS => std::thread::yield_now(),
                // No `PAUSE`: the clock reading is the pacing (see
                // `SPIN_WINDOW_NANOS`).
                _ => {}
            }
        }
    }
}

/// Per-thread request accounting: the sojourn histogram and the completion
/// and shed counters. Lock-free so `stats()` can read while (in principle)
/// workers still hold clones.
#[derive(Debug, Default)]
pub struct ThreadLog {
    /// Sojourn-latency histogram (ticks), all served requests.
    pub(crate) sojourn: LogHistogram,
    /// Requests served to completion.
    pub(crate) done: AtomicU64,
    /// Read-only requests served to completion.
    pub(crate) done_ro: AtomicU64,
    /// Requests shed by backpressure.
    pub(crate) shed: AtomicU64,
    /// Served requests that were already due when [`serve_schedule`]
    /// reached them. Only that thread writes it.
    pub(crate) late: AtomicU64,
}

impl ThreadLog {
    /// Accounts for one served request and its sojourn.
    pub(crate) fn served(&self, req: &Request, sojourn: u64) {
        self.sojourn.record(sojourn);
        self.done.fetch_add(1, Ordering::Relaxed);
        if req.txn_kind() == TxnKind::ReadOnly {
            self.done_ro.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Whether more than `depth` requests from cursor `i` on are already due at
/// `now`. The schedule is sorted by arrival, so that is the case exactly when
/// the request `depth` places past the cursor is due.
fn backlog_exceeds(schedule: &[ScheduledRequest], i: usize, now: u64, depth: usize) -> bool {
    i.checked_add(depth).and_then(|j| schedule.get(j)).is_some_and(|s| s.at <= now)
}

/// Replays one thread's schedule against the store: the core serve loop.
///
/// Open-loop semantics: if the next request's arrival is in the future the
/// thread waits for it; if the backlog of *due* requests exceeds
/// `max_queue_depth` the oldest due request is shed. Every served request
/// runs as one STM transaction at its kind's site, and its sojourn
/// (completion − arrival) is recorded.
///
/// After each served request commits, the backend's durability hook runs
/// with the engine's commit sequence number — *after* `stm.run` returned,
/// so logging never extends a lock hold. The backend flushes once the
/// schedule drains.
pub fn serve_schedule(
    stm: &Stm,
    thread: ThreadId,
    backend: &dyn StoreBackend,
    schedule: &[ScheduledRequest],
    clock: &dyn ServeClock,
    spec: &ServeSpec,
    log: &ThreadLog,
) {
    let (work, max_queue_depth) = (spec.work, spec.max_queue_depth);
    let store = backend.store();
    let mut i = 0;
    while i < schedule.len() {
        let sr = &schedule[i];
        let now = clock.now(thread);
        let late = sr.at <= now;
        if !late {
            clock.wait_until(thread, sr.at);
        } else if backlog_exceeds(schedule, i, now, max_queue_depth) {
            log.shed.fetch_add(1, Ordering::Relaxed);
            i += 1;
            continue;
        }
        let req = sr.req;
        let body = |tx: &mut gstm_core::Txn<'_>| {
            tx.work(work);
            store.apply(tx, &req)
        };
        // Read-only intent is declared up front: the validated read path
        // with the write capability removed (same gate crossings, same
        // outcome as an update transaction that writes nothing).
        if req.txn_kind() == TxnKind::ReadOnly {
            stm.run_read_only(thread, req.site(), body);
        } else {
            stm.run(thread, req.site(), body);
        }
        // Read-only transactions claim a commit sequence number too, so
        // durable backends log them — skipping them would leave gaps that
        // truncate the recoverable prefix.
        backend.on_commit(stm.last_commit_seq(thread), &req);
        let sojourn = clock.now(thread).saturating_sub(sr.at);
        log.served(&req, sojourn);
        if late {
            // A plain load and store, not a locked add: this thread is the
            // word's only writer. Released after `done`'s bump for readers
            // that compare the two.
            log.late.store(log.late.load(Ordering::Relaxed) + 1, Ordering::Release);
        }
        i += 1;
    }
    backend.flush();
}

/// One instantiated serve run: the populated store, the per-thread
/// schedules, and the per-thread logs.
pub struct ServeRun {
    spec: ServeSpec,
    backend: Arc<dyn StoreBackend>,
    schedules: Vec<Arc<Vec<ScheduledRequest>>>,
    logs: Vec<Arc<ThreadLog>>,
}

impl ServeRun {
    /// Builds the store (behind the spec's backend) and materializes every
    /// thread's schedule. A durable spec gets an in-memory WAL here — the
    /// deterministic simulator disk; native runs that want real files use
    /// [`run_native`], which builds the backend itself.
    pub(crate) fn new(spec: ServeSpec, threads: usize, seed: u64) -> Self {
        let store = ShardedStore::new(spec.shards, spec.buckets_per_shard, spec.keys);
        let backend: Arc<dyn StoreBackend> = match spec.backend {
            BackendKind::Ephemeral => Arc::new(EphemeralBackend::new(store)),
            BackendKind::Durable => Arc::new(DurableBackend::in_memory(store, WalConfig::new()).0),
        };
        Self::with_backend(spec, backend, threads, seed)
    }

    /// Builds a run over a caller-supplied backend (recovery experiments
    /// arm kill switches and hold the disk devices themselves).
    pub fn with_backend(
        spec: ServeSpec,
        backend: Arc<dyn StoreBackend>,
        threads: usize,
        seed: u64,
    ) -> Self {
        assert!(
            spec.mode == ServeMode::Interleaved,
            "ServeMode::Block is native-only: the block executor runs OS worker threads, \
             which the simulator's virtual cores cannot host — use run_native"
        );
        let traffic = spec.traffic();
        ServeRun {
            backend,
            schedules: generate_schedules(&traffic, seed, 0..threads)
                .into_iter()
                .map(Arc::new)
                .collect(),
            logs: (0..threads).map(|_| Arc::new(ThreadLog::default())).collect(),
            spec,
        }
    }

    /// Merged sojourn histogram across threads.
    pub(crate) fn sojourn_snapshot(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for log in &self.logs {
            merged.merge(&log.sojourn.snapshot());
        }
        merged
    }

    /// Total requests served / shed across threads.
    pub fn totals(&self) -> (u64, u64) {
        let done = self.logs.iter().map(|l| l.done.load(Ordering::Relaxed)).sum();
        let shed = self.logs.iter().map(|l| l.shed.load(Ordering::Relaxed)).sum();
        (done, shed)
    }

    /// Total read-only requests served across threads.
    pub(crate) fn total_read_only(&self) -> u64 {
        self.logs.iter().map(|l| l.done_ro.load(Ordering::Relaxed)).sum()
    }

    fn check_conservation(&self) -> Result<(), String> {
        let got = self.backend.store().total_balance_unlogged();
        let want = self.backend.store().expected_total();
        gstm_check::check_conserved_total(got, want)
            .map_err(|v| format!("{v}: transfers lost atomicity"))
    }
}

impl WorkloadRun for ServeRun {
    fn worker(&self, env: WorkerEnv) -> Box<dyn FnOnce() + Send> {
        let t = env.thread.index();
        let backend = Arc::clone(&self.backend);
        let schedule = Arc::clone(&self.schedules[t]);
        let log = Arc::clone(&self.logs[t]);
        let spec = self.spec.clone();
        Box::new(move || {
            let clock = GateClock::new(Arc::clone(env.stm.gate()));
            serve_schedule(&env.stm, env.thread, backend.as_ref(), &schedule, &clock, &spec, &log);
        })
    }

    fn verify(&self) -> Result<(), String> {
        self.check_conservation()?;
        let (done, shed) = self.totals();
        let offered: u64 = self.schedules.iter().map(|s| s.len() as u64).sum();
        if done + shed != offered {
            return Err(format!("served {done} + shed {shed} != offered {offered}"));
        }
        Ok(())
    }

    fn stats(&self) -> Vec<(String, f64)> {
        let s = self.sojourn_snapshot();
        let (done, shed) = self.totals();
        vec![
            ("req_done".into(), done as f64),
            ("req_shed".into(), shed as f64),
            ("sojourn_p50".into(), s.p(0.50)),
            ("sojourn_p95".into(), s.p(0.95)),
            ("sojourn_p99".into(), s.p(0.99)),
        ]
    }
}

/// The serve workload, pluggable into `gstm-guide`'s harness, training
/// loop, and the experiment pipeline.
#[derive(Clone, Debug)]
pub struct ServeWorkload {
    /// The configuration every run of this workload uses.
    pub(crate) spec: ServeSpec,
}

impl ServeWorkload {
    /// Wraps a spec.
    pub fn new(spec: ServeSpec) -> Self {
        ServeWorkload { spec }
    }
}

impl Workload for ServeWorkload {
    fn name(&self) -> &'static str {
        "serve"
    }

    fn instantiate(&self, threads: usize, seed: u64) -> Box<dyn WorkloadRun> {
        Box::new(ServeRun::new(self.spec.clone(), threads, seed))
    }
}

/// The engine configuration a spec implies: the default one. Kept only
/// because the frozen `benchmark/` package calls it.
pub fn spine_config(_spec: &ServeSpec, threads: usize) -> StmConfig {
    StmConfig::new(threads)
}

/// Convenience: one simulated serve run under `opts`, via the guide
/// harness (`SimMachine` + `SimGate`), returning the standard outcome. The
/// sojourn quantiles are in `workload_stats`.
pub fn run_simulated(spec: &ServeSpec, opts: &RunOptions) -> RunOutcome {
    gstm_guide::run_workload(&ServeWorkload::new(spec.clone()), opts)
}

/// Outcome of a native (`RealGate`) serve run.
#[derive(Clone, Debug)]
pub struct NativeReport {
    /// Requests served to completion.
    pub done: u64,
    /// Read-only requests served to completion.
    pub done_ro: u64,
    /// Requests shed by backpressure.
    pub shed: u64,
    /// Merged sojourn histogram (ticks of `nanos_per_tick` each).
    pub sojourn: HistogramSnapshot,
    /// Wall time of the whole run, in clock ticks.
    pub elapsed_ticks: u64,
    /// Block-mode extras: the run's output/state digests (for the
    /// schedule-invariance oracle) and its block count. `None`
    /// under [`ServeMode::Interleaved`].
    pub block: Option<crate::block_mode::BlockModeReport>,
    /// Where the serve threads ran. `None` where they are not placed: block
    /// mode, fewer than two allowed CPUs, or a target other than
    /// Linux/x86_64.
    pub placement: Option<Placement>,
}

/// Where an interleaved native run's serve threads ran. They start pinned
/// to the CPU the caller was on, sharing its caches, and once that CPU is
/// busy the run spreads them one per allowed CPU for the rest of the run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Placement {
    /// The CPU the caller of [`run_native`] was on when the run started.
    pub home_cpu: usize,
    /// The tick at which the run spread its threads; `None` if they stayed
    /// on `home_cpu`.
    pub spread_at: Option<u64>,
    /// The share of arrivals already due when their thread reached them,
    /// over the window that spread the run, or else over the last window
    /// read; `None` if the run ended before a window filled.
    pub late_share: Option<f64>,
}

/// How often the caller of a placed run reads its threads' late counts.
/// Measured on a 2-vCPU VM with [`PLACEMENT_WINDOW`] arrivals a window, an
/// overloaded `wide` run (1.5M req/s offered) spread 1.0–1.2 ms in at
/// periods of 250, 500 and 1000 µs, the window being the bound, and 2.2 ms
/// in at 2000 µs; so the longest period that does not delay it.
const PLACEMENT_CHECK: Duration = Duration::from_millis(1);

/// Fewest arrivals a window must hold for its late share to decide. With
/// Poisson arrivals the share of arrivals that find their thread busy is
/// the utilization of the CPU they share (PASTA), but a host stall makes
/// every arrival during it late. On the same VM, at the fixed rates of the
/// hot, wide and durable shapes, windows of 256 arrivals spread 13 of 72
/// 0.1 s slices, 1024 spread 5 and 2048 spread 1, while the overloaded
/// `wide` run spread after 0.7, 1.2 and 1.8 ms.
const PLACEMENT_WINDOW: u64 = 1024;

/// What a [`Home`] makes of the arrivals since its window opened.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Window {
    /// Fewer than [`PLACEMENT_WINDOW`] arrivals: keep counting.
    Open,
    /// A full window, at most half of it late (the late share): stay home
    /// and open the next window.
    Stay(f64),
    /// A full window, more than half of it late (the late share): spread.
    Spread(f64),
}

/// The spread rule over a window of `arrivals`, `late` of them already due
/// when their thread reached them. One half because, swept over offered
/// load on the same VM, co-located threads beat free ones where the late
/// share read up to 0.42 and lost where it read 0.6 or more (wide and
/// durable shapes).
fn judge_window(arrivals: u64, late: u64) -> Window {
    if arrivals < PLACEMENT_WINDOW {
        return Window::Open;
    }
    let share = late as f64 / arrivals as f64;
    if 2 * late > arrivals {
        Window::Spread(share)
    } else {
        Window::Stay(share)
    }
}

/// A run's serve threads while they share their caller's CPU.
struct Home {
    /// The caller's allowed CPUs, ascending.
    cpus: Vec<usize>,
    /// Where the caller's CPU is in `cpus`.
    home: usize,
    /// The thread that called [`run_native`], which watches the run.
    caller: Thread,
    /// Each serve thread's kernel thread id while it serves, else 0.
    tids: Vec<AtomicI32>,
    /// Serve threads that have finished.
    left: AtomicUsize,
    /// Set once the run has spread.
    spread: AtomicBool,
}

/// Serve thread `t`'s place in a [`Home`]; dropping it, on return or
/// unwind, tells the caller the thread is done.
struct Seat<'a> {
    home: &'a Home,
    t: usize,
}

impl Drop for Seat<'_> {
    /// The thread's id may go to another thread once it exits. The count is
    /// bumped before the caller is unparked, so the caller either sees it or
    /// wakes to read it.
    fn drop(&mut self) {
        self.home.tids[self.t].store(0, Ordering::SeqCst);
        self.home.left.fetch_add(1, Ordering::SeqCst);
        self.home.caller.unpark();
    }
}

impl Home {
    /// The caller's current CPU, if it may run on at least two.
    fn of_caller(threads: usize) -> Option<Home> {
        let cpus = affinity::allowed();
        let cpu = affinity::current_cpu().filter(|_| cpus.len() > 1)?;
        let home = cpus.iter().position(|&allowed| allowed == cpu)?;
        Some(Home {
            cpus,
            home,
            caller: std::thread::current(),
            tids: (0..threads).map(|_| AtomicI32::new(0)).collect(),
            left: AtomicUsize::new(0),
            spread: AtomicBool::new(false),
        })
    }

    /// The `k`-th allowed CPU from home on, wrapping round.
    fn cpu(&self, k: usize) -> usize {
        self.cpus[(self.home + k) % self.cpus.len()]
    }

    /// Pins serve thread `t`, the calling thread, home, or to its own CPU if
    /// the run has spread. The id is published before the flag is read and
    /// [`Home::spread`] sets the flag before it reads the ids (all `SeqCst`),
    /// so whichever of the two pins comes last puts the thread where it
    /// belongs.
    fn enter(&self, t: usize) -> Seat<'_> {
        self.tids[t].store(affinity::tid(), Ordering::SeqCst);
        affinity::pin(0, self.cpu(0));
        if self.spread.load(Ordering::SeqCst) {
            affinity::pin(0, self.cpu(t));
        }
        Seat { home: self, t }
    }

    /// Pins serve thread `t` to the `t`-th CPU from home, thread 0 staying
    /// home.
    fn spread(&self) {
        self.spread.store(true, Ordering::SeqCst);
        for (t, tid) in self.tids.iter().enumerate() {
            let tid = tid.load(Ordering::SeqCst);
            if tid != 0 {
                affinity::pin(tid, self.cpu(t));
            }
        }
    }

    /// Runs on the caller's thread until every serve thread has finished:
    /// every [`PLACEMENT_CHECK`], judges the arrivals since the window began
    /// ([`judge_window`]) and spreads the run or opens the next window.
    fn watch(&self, logs: &[Arc<ThreadLog>], clock: &WallClock) -> Placement {
        // `late` is released after `done` is bumped and acquired before
        // `done` is read, so a window's late count never exceeds its arrivals.
        let counts = || {
            logs.iter().fold((0, 0), |(arrivals, late), log| {
                let shed = log.shed.load(Ordering::Relaxed);
                let served_late = log.late.load(Ordering::Acquire);
                let done = log.done.load(Ordering::Relaxed);
                (arrivals + done + shed, late + served_late + shed)
            })
        };
        let mut placement = Placement { home_cpu: self.cpu(0), spread_at: None, late_share: None };
        let mut from = (0, 0);
        while self.left.load(Ordering::SeqCst) < self.tids.len() {
            std::thread::park_timeout(PLACEMENT_CHECK);
            let now = counts();
            match judge_window(now.0 - from.0, now.1 - from.1) {
                Window::Open => {}
                Window::Stay(share) => {
                    placement.late_share = Some(share);
                    from = now;
                }
                Window::Spread(share) => {
                    placement.late_share = Some(share);
                    placement.spread_at = Some(clock.now(ThreadId::new(0)));
                    self.spread();
                    return placement;
                }
            }
        }
        placement
    }
}

/// A durable native run's WAL files: a directory unique per call, removed
/// on drop.
struct WalDir {
    dir: std::path::PathBuf,
    log: Arc<FileDevice>,
    snap: Arc<FileDevice>,
}

impl WalDir {
    /// Creates `temp_dir()/gstm-serve-wal-{pid}-{seed}-{n}`, `n` from a
    /// process-wide counter: concurrent same-seed runs in one process each
    /// get their own log files.
    fn create(seed: u64) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("gstm-serve-wal-{}-{seed}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create WAL dir");
        let log = Arc::new(FileDevice::new(dir.join("wal.log")));
        let snap = Arc::new(FileDevice::new(dir.join("wal.snap")));
        WalDir { dir, log, snap }
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        // After a run the backend outlives this guard and holds the
        // devices: without the close, the unlinked files' blocks would be
        // freed when *it* drops, outside the window that counts removal.
        self.log.close();
        self.snap.close();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Runs the service natively: OS threads, [`RealGate`], wall-clock
/// arrivals. Same store, same schedules, same loop as the simulated path —
/// only the gate and clock differ. `nanos_per_tick` maps schedule ticks to
/// wall time; `yield_every` is forwarded to [`RealGate`]. A durable spec
/// writes its WAL to real files under a per-call temp directory, removed
/// on every exit path — native runs measure overhead, they don't archive
/// logs.
///
/// # Panics
///
/// Panics if a worker thread panics, if `threads` is zero, or if the
/// post-run conservation check fails.
pub fn run_native(
    spec: &ServeSpec,
    threads: usize,
    seed: u64,
    nanos_per_tick: u64,
    yield_every: u32,
) -> NativeReport {
    assert!(threads > 0, "need at least one serve thread");
    let store = ShardedStore::new(spec.shards, spec.buckets_per_shard, spec.keys);
    // Declared before the backend so that on unwind it drops after it.
    let wal_dir = (spec.backend == BackendKind::Durable).then(|| WalDir::create(seed));
    let backend: Arc<dyn StoreBackend> = match &wal_dir {
        None => Arc::new(EphemeralBackend::new(store)),
        Some(files) => {
            let log: Arc<dyn LogDevice> = Arc::clone(&files.log) as _;
            let snap: Arc<dyn LogDevice> = Arc::clone(&files.snap) as _;
            Arc::new(DurableBackend::new(store, Wal::new(WalConfig::new(), log, snap)))
        }
    };
    if let ServeMode::Block { block_size } = spec.mode {
        // Ordered block execution replaces the per-thread worker loop
        // entirely; it shares the store, schedules, backend and clock
        // mapping, so its report is comparable cell-for-cell.
        return crate::block_mode::run_native_block(
            spec,
            block_size,
            threads,
            seed,
            nanos_per_tick,
            yield_every,
            backend,
        );
    }
    let run = ServeRun::with_backend(spec.clone(), backend, threads, seed);
    let stm = Arc::new(Stm::new_on(StmConfig::new(threads), Arc::new(RealGate::new(yield_every))));
    let home = Home::of_caller(threads);
    let clock = WallClock::new(nanos_per_tick);
    let placement = std::thread::scope(|scope| {
        let (home, clock) = (home.as_ref(), &clock);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let stm = Arc::clone(&stm);
                let thread = ThreadId::new(t as u16);
                let backend = Arc::clone(&run.backend);
                let schedule = Arc::clone(&run.schedules[t]);
                let log = Arc::clone(&run.logs[t]);
                scope.spawn(move || {
                    let _seat = home.map(|home| home.enter(t));
                    serve_schedule(&stm, thread, backend.as_ref(), &schedule, clock, spec, &log);
                })
            })
            .collect();
        let placement = home.map(|home| home.watch(&run.logs, clock));
        for h in handles {
            h.join().expect("serve worker panicked");
        }
        placement
    });
    // The workers are done with the log: remove it now, before
    // `elapsed_ticks` is read, where the removal has always been counted.
    // The guard itself is for the exits that never get here.
    drop(wal_dir);
    if let Err(msg) = run.verify() {
        panic!("native serve run failed verification: {msg}");
    }
    let (done, shed) = run.totals();
    NativeReport {
        done,
        done_ro: run.total_read_only(),
        shed,
        sojourn: run.sojourn_snapshot(),
        elapsed_ticks: clock.now(ThreadId::new(0)),
        block: None,
        placement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_guide::PolicyChoice;

    fn tiny_spec() -> ServeSpec {
        let mut spec = ServeSpec::hot(120);
        spec.arrival = Arrival::Poisson { mean_gap: 120.0 };
        spec
    }

    #[test]
    fn simulated_run_serves_and_conserves() {
        let out = run_simulated(&tiny_spec(), &RunOptions::new(3, 5));
        let stats: std::collections::HashMap<_, _> = out.workload_stats.iter().cloned().collect();
        let done = stats["req_done"];
        let shed = stats["req_shed"];
        assert_eq!(done + shed, 3.0 * 120.0, "every request served or shed");
        assert!(done > 0.0);
        assert!(stats["sojourn_p99"] >= stats["sojourn_p50"]);
        assert!(out.total_commits() >= done as u64, "each served request commits once");
    }

    #[test]
    fn simulated_runs_are_deterministic_per_seed() {
        let spec = tiny_spec();
        let a = run_simulated(&spec, &RunOptions::new(2, 9));
        let b = run_simulated(&spec, &RunOptions::new(2, 9));
        assert_eq!(a.workload_stats, b.workload_stats);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.commits, b.commits);
        let c = run_simulated(&spec, &RunOptions::new(2, 10));
        assert_ne!(
            (a.makespan, a.workload_stats.clone()),
            (c.makespan, c.workload_stats.clone()),
            "different seed should perturb the run"
        );
    }

    #[test]
    fn durable_backend_serves_identical_traffic() {
        let spec = tiny_spec();
        let a = run_simulated(&spec, &RunOptions::new(2, 9));
        let b = run_simulated(
            &spec.clone().with_backend(crate::backend::BackendKind::Durable),
            &RunOptions::new(2, 9),
        );
        // Logging is off the gate path: the durable run serves the same
        // schedule with the same virtual-time outcome.
        assert_eq!(a.workload_stats, b.workload_stats);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn guided_policy_runs_the_service() {
        let spec = tiny_spec();
        let workload = ServeWorkload::new(spec.clone());
        let trained = gstm_guide::train(&workload, &RunOptions::new(2, 0), &[21, 22], 1.0);
        let out = run_simulated(
            &spec,
            &RunOptions::new(2, 5).with_policy(PolicyChoice::guided(trained.model)),
        );
        let stats: std::collections::HashMap<_, _> = out.workload_stats.iter().cloned().collect();
        assert!(stats["req_done"] > 0.0, "guided service still serves requests");
    }

    #[test]
    fn overload_sheds_but_never_loses_requests() {
        let mut spec = tiny_spec();
        // Offered load far beyond service rate: gaps ~0 force a backlog.
        spec.arrival = Arrival::Poisson { mean_gap: 1.0 };
        spec.max_queue_depth = 4;
        let out = run_simulated(&spec, &RunOptions::new(2, 3));
        let stats: std::collections::HashMap<_, _> = out.workload_stats.iter().cloned().collect();
        assert!(stats["req_shed"] > 0.0, "overload must shed");
        assert_eq!(stats["req_done"] + stats["req_shed"], 2.0 * 120.0);
    }

    /// The O(1) backlog test sheds exactly the requests the partition-point
    /// count it replaced shed, at every cursor of an overloaded schedule.
    #[test]
    fn backlog_test_matches_the_partition_point_count() {
        let mut spec = tiny_spec();
        spec.requests_per_thread = 400;
        spec.arrival = Arrival::Bursty { mean_gap: 3.0, burst: 8 };
        let schedule = crate::traffic::generate_schedule(&spec.traffic(), 11, 0);
        let last = schedule.last().expect("nonempty").at;
        let mut agreed_to_shed = 0;
        for depth in [0, 1, 4, 64, 399, 400, usize::MAX] {
            for i in 0..schedule.len() {
                for now in [schedule[i].at, schedule[i].at + 9, schedule[i].at + 200, last] {
                    let due = schedule[i..].partition_point(|s| s.at <= now);
                    let shed = backlog_exceeds(&schedule, i, now, depth);
                    assert_eq!(shed, due > depth, "cursor {i}, now {now}, depth {depth}");
                    agreed_to_shed += usize::from(shed);
                }
            }
        }
        assert!(agreed_to_shed > 1000, "the schedule must actually be overloaded");
    }

    #[test]
    fn cache_key_tracks_spec_changes() {
        let a = ServeSpec::hot(100);
        assert_eq!(a.cache_key(), ServeSpec::hot(100).cache_key());
        assert_ne!(a.cache_key(), ServeSpec::hot(101).cache_key());
        assert_ne!(a.cache_key(), ServeSpec::wide(100).cache_key());
        assert_ne!(
            a.cache_key(),
            ServeSpec::hot(100)
                .with_arrival(Arrival::Bursty { mean_gap: 220.0, burst: 8 })
                .cache_key()
        );
    }

    /// The run cache is content-addressed by these strings: the three
    /// presets' keys must stay byte-equal to what cached artifacts hold.
    #[test]
    fn preset_cache_keys_are_pinned() {
        assert_eq!(
            ServeSpec::hot(100).cache_key(),
            "sh=2;bk=2;keys=32;th=0.99;arr=poisson(g=220);rq=100;qd=24;wk=40;sc=8;\
             mix=[20, 10, 10, 55, 5];be=ephemeral;apply=bucket-once"
        );
        assert_eq!(
            ServeSpec::wide(100).cache_key(),
            "sh=8;bk=32;keys=4096;th=0.6;arr=poisson(g=220);rq=100;qd=24;wk=40;sc=8;\
             mix=[55, 20, 10, 10, 5];be=ephemeral;apply=bucket-once"
        );
        assert_eq!(
            ServeSpec::ledger(100).cache_key(),
            "sh=4;bk=8;keys=256;th=0.9;arr=poisson(g=180);rq=100;qd=24;wk=40;sc=8;\
             mix=[12, 0, 0, 80, 8];be=ephemeral;apply=bucket-once"
        );
    }

    #[test]
    fn default_spec_cache_key_has_no_drift_suffix() {
        // Stationary cached artifacts stay addressable: only a drifting
        // spec extends the key.
        let key = ServeSpec::hot(100).cache_key();
        assert!(!key.contains("drift"), "default key must be unchanged: {key}");
        let drifting_key = |phases| {
            let mut spec = ServeSpec::hot(100);
            spec.drift = Some(Drift { theta_end: 0.2, phases, hotspot_step: 8 });
            spec.cache_key()
        };
        let drifting = drifting_key(4);
        assert!(drifting.ends_with(";drift=(te=0.2,ph=4,hs=8)"), "unexpected key: {drifting}");
        assert_ne!(key, drifting);
        assert_ne!(drifting, drifting_key(8), "every drift knob must feed the key");
    }

    #[test]
    fn drifting_sim_runs_serve_conserve_and_stay_deterministic() {
        let mut spec = tiny_spec();
        spec.drift = Some(Drift { theta_end: 0.3, phases: 4, hotspot_step: 8 });
        let a = run_simulated(&spec, &RunOptions::new(3, 5));
        let stats: std::collections::HashMap<_, _> = a.workload_stats.iter().cloned().collect();
        assert_eq!(stats["req_done"] + stats["req_shed"], 3.0 * 120.0);
        assert!(stats["req_done"] > 0.0);
        let b = run_simulated(&spec, &RunOptions::new(3, 5));
        assert_eq!(a.workload_stats, b.workload_stats, "drift is deterministic per seed");
        assert_eq!(a.makespan, b.makespan);
        let stationary = run_simulated(&tiny_spec(), &RunOptions::new(3, 5));
        assert_ne!(
            a.workload_stats, stationary.workload_stats,
            "drift must actually change the served traffic"
        );
    }

    #[test]
    fn durable_read_only_commits_keep_the_wal_contiguous_and_recoverable() {
        // Read-only transactions still claim commit sequence numbers; the
        // serve loop must log them through `on_commit` or the recoverable
        // prefix truncates at the first read's seq.
        let mut spec = tiny_spec();
        spec.backend = crate::backend::BackendKind::Durable;
        spec.max_queue_depth = 100_000;
        let (backend, log_dev, snap_dev) = crate::backend::DurableBackend::in_memory(
            ShardedStore::new(spec.shards, spec.buckets_per_shard, spec.keys),
            gstm_wal::WalConfig::new(),
        );
        let backend = Arc::new(backend);
        let run = ServeRun::with_backend(
            spec.clone(),
            Arc::clone(&backend) as Arc<dyn StoreBackend>,
            2,
            21,
        );
        let stm = Stm::new_on(StmConfig::new(2), Arc::new(RealGate::new(64)));
        let clock = WallClock::new(1);
        for t in 0..2usize {
            serve_schedule(
                &stm,
                ThreadId::new(t as u16),
                backend.as_ref(),
                &run.schedules[t],
                &clock,
                &spec,
                &run.logs[t],
            );
        }
        run.verify().expect("durable run conserves");
        assert!(run.total_read_only() > 0, "the mix served read-only requests");
        let last_seq = backend.ledger().last().expect("ledger is non-empty").0;
        let rec = crate::backend::recover_store(
            spec.shards,
            spec.buckets_per_shard,
            spec.keys,
            &log_dev.contents(),
            &snap_dev.contents(),
        )
        .expect("disk image recovers");
        assert_eq!(rec.recovered_seq, last_seq, "no gap truncated the recoverable prefix");
        assert_eq!(
            crate::backend::store_digest(&rec.store),
            crate::backend::store_digest(backend.store()),
            "recovered state matches the live store"
        );
    }

    #[test]
    fn wall_clock_advances_and_waits() {
        let clock = WallClock::new(1_000);
        let t0 = ThreadId::new(0);
        let start = clock.now(t0);
        clock.wait_until(t0, start + 50);
        assert!(clock.now(t0) >= start + 50);
    }

    /// The wait contract, across the yielding and the spinning part: never
    /// back before `at` (targets from inside the 2 µs window to 30 µs off,
    /// at tick sizes where the window is many ticks and where it is none),
    /// and back at once for an `at` that has passed.
    #[test]
    fn wait_until_never_returns_early_and_returns_at_once_for_the_past() {
        let t0 = ThreadId::new(0);
        for nanos_per_tick in [1, 10, 1_000, 7_000] {
            let clock = WallClock::new(nanos_per_tick);
            for ahead_nanos in [0, 300, 1_900, 2_100, 30_000] {
                let at = clock.now(t0) + ahead_nanos / nanos_per_tick + 1;
                clock.wait_until(t0, at);
                let woke = clock.now(t0);
                assert!(woke >= at, "woke at tick {woke}, before {at} ({nanos_per_tick} ns/tick)");
            }
            let now = clock.now(t0);
            for past in [0, now / 2, now] {
                // Nothing to observe but that these come back.
                clock.wait_until(t0, past);
                assert!(clock.wait_if_near(t0, past));
            }
        }
    }

    #[test]
    fn remaining_time_saturates_for_ticks_beyond_the_nanosecond_range() {
        for nanos_per_tick in [1, 10, 1_000] {
            let clock = WallClock::new(nanos_per_tick);
            let edge = u64::MAX / nanos_per_tick;
            for at in [edge - 1, edge, edge.saturating_add(1), u64::MAX] {
                assert!(clock.nanos_until(at) > u64::MAX / 2, "tick {at} is centuries away");
                assert!(!clock.wait_if_near(ThreadId::new(0), at), "and must not be waited for");
            }
            assert_eq!(clock.nanos_until(0), 0);
        }
    }

    #[test]
    fn wait_if_near_waits_inside_the_window_and_declines_outside_it() {
        let clock = WallClock::new(100);
        let t0 = ThreadId::new(0);
        let far = clock.now(t0) + 1_000_000; // 100 ms
        assert!(!clock.wait_if_near(t0, far));
        assert!(clock.now(t0) < far, "declining must not wait");
        // 1 µs off: inside the window now, and overdue if we are preempted
        // before asking — `true` either way, and never before the tick.
        let near = clock.now(t0) + 10;
        assert!(clock.wait_if_near(t0, near));
        assert!(clock.now(t0) >= near, "answered true before the tick was due");
    }

    /// A native run of the wide shape on two threads, `requests` each, one
    /// per `mean_gap` ticks of `nanos_per_tick` on average. Nothing is shed,
    /// so every late arrival is a served one.
    fn placed_run(requests: usize, mean_gap: f64, nanos_per_tick: u64) -> NativeReport {
        let mut spec = ServeSpec::wide(requests).with_arrival(Arrival::Poisson { mean_gap });
        spec.max_queue_depth = usize::MAX;
        run_native(&spec, 2, 5, nanos_per_tick, 0)
    }

    /// Whether this host lets a run place its threads; where it does not,
    /// checks that the report says so.
    fn placed(report: &NativeReport) -> bool {
        let placed = affinity::allowed().len() > 1;
        assert_eq!(report.placement.is_some(), placed, "{:?}", report.placement);
        placed
    }

    /// The spread rule at its edges: a window needs 1,024 arrivals, and one
    /// late arrival past exactly half spreads the run.
    #[test]
    fn a_window_spreads_only_when_full_and_more_than_half_late() {
        assert_eq!(judge_window(1023, 1023), Window::Open);
        assert_eq!(judge_window(1024, 512), Window::Stay(0.5));
        assert_eq!(judge_window(1024, 513), Window::Spread(513.0 / 1024.0));
        assert_eq!(judge_window(1024, 0), Window::Stay(0.0));
    }

    /// 100k req/s for 30 ms, a few per cent of what one CPU serves: the late
    /// share stays far below one half, so the threads stay home. Other tests
    /// running beside this one can keep the home CPU busy and spread a run,
    /// as they should, so one run in ten staying home is the pass mark.
    #[test]
    fn placement_keeps_a_lightly_loaded_run_on_the_callers_cpu() {
        let mut seen = Vec::new();
        for _ in 0..10 {
            let report = placed_run(1_500, 2_000.0, 10);
            if !placed(&report) {
                return;
            }
            let placement = report.placement.expect("placed");
            assert!(placement.late_share.is_some(), "3000 arrivals fill a window");
            if placement.spread_at.is_none() {
                assert!(placement.late_share < Some(0.5), "{placement:?}");
                return;
            }
            seen.push(placement);
        }
        panic!("a lightly loaded run spread every time: {seen:?}");
    }

    /// Arrivals every 0.4 µs per thread, where one request takes longer than
    /// that to serve: more than half of them are late, and the run spreads.
    #[test]
    fn placement_spreads_an_overloaded_run() {
        let report = placed_run(50_000, 4.0, 100);
        if !placed(&report) {
            return;
        }
        let placement = report.placement.expect("placed");
        let spread_at = placement.spread_at.expect("an overloaded run spreads");
        assert!(spread_at <= report.elapsed_ticks);
        assert!(placement.late_share > Some(0.5), "{placement:?}");
    }

    /// Placement moves the serve threads only: the thread that called
    /// `run_native` may run where it could before, whether the run stayed
    /// home or spread.
    #[test]
    fn placement_leaves_the_callers_own_affinity_as_it_found_it() {
        let before = affinity::allowed();
        for (requests, mean_gap, nanos_per_tick) in [(300, 2_000.0, 10), (20_000, 4.0, 100)] {
            placed_run(requests, mean_gap, nanos_per_tick);
            assert_eq!(affinity::allowed(), before);
        }
    }

    /// The last serve thread to finish wakes the watching caller, so a run
    /// ends when its work does and not at the caller's next check: twenty
    /// requests a microsecond apart on the 32-key hot store, whose run-end
    /// check is short even unoptimized, take far less than a check period.
    /// Scheduling noise can stretch one run, so one in five is the pass mark.
    #[test]
    fn placement_ends_the_run_when_its_threads_finish() {
        let spec = ServeSpec::hot(10).with_arrival(Arrival::Poisson { mean_gap: 100.0 });
        let mut elapsed = Vec::new();
        for _ in 0..5 {
            let report = run_native(&spec, 2, 5, 10, 0);
            let ticks = report.elapsed_ticks;
            if !placed(&report) || ticks * 10 < PLACEMENT_CHECK.as_nanos() as u64 / 2 {
                return;
            }
            elapsed.push(ticks);
        }
        panic!("every run outlasted half a check period: {elapsed:?} ticks of 10 ns");
    }
}
