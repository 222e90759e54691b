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

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gstm_core::{
    Gate, MvccStats, Participant, ReadMode, RealGate, SiteStats, Stm, StmConfig, ThreadId, TxId,
    TxnKind,
};
use gstm_guide::{RunOptions, RunOutcome, WorkerEnv, Workload, WorkloadRun};
use gstm_telemetry::histogram::{HistogramSnapshot, LogHistogram};

use crate::backend::{BackendKind, DurableBackend, EphemeralBackend, StoreBackend};
use crate::store::{Request, ShardedStore};
use crate::traffic::{generate_schedule, Arrival, Drift, Mix, ScheduledRequest, TrafficSpec};
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

impl ServeMode {
    /// Short tag used in cache keys and result tables.
    pub fn label(&self) -> &'static str {
        match self {
            ServeMode::Interleaved => "interleaved",
            ServeMode::Block { .. } => "block",
        }
    }
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
    /// Read path for read-only requests: `Latest` is the legacy validated
    /// path (the default — cached results and goldens unchanged);
    /// `Snapshot` serves `Get`/`Scan`/`GetMany` from the MVCC version
    /// rings with zero validation and zero aborts (DESIGN.md §3.1d).
    pub read_mode: ReadMode,
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
            read_mode: ReadMode::Latest,
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
            read_mode: ReadMode::Latest,
            drift: None,
            mode: ServeMode::Interleaved,
        }
    }

    /// The ledger shape: a mid-sized account space with strong Zipf skew
    /// and the [`Mix::ledger`] transfer graph — 80% of traffic atomically
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
            read_mode: ReadMode::Latest,
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

    /// Replaces the read path for read-only requests.
    pub fn with_read_mode(mut self, read_mode: ReadMode) -> Self {
        self.read_mode = read_mode;
        self
    }

    /// Replaces the request-kind mix.
    pub fn with_mix(mut self, mix: Mix) -> Self {
        self.mix = mix;
        self
    }

    /// Installs a non-stationary traffic schedule.
    pub fn with_drift(mut self, drift: Drift) -> Self {
        self.drift = Some(drift);
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
    /// any spec change must change this string.
    pub fn cache_key(&self) -> String {
        let arrival = match self.arrival {
            Arrival::Poisson { mean_gap } => format!("poisson(g={mean_gap})"),
            Arrival::Bursty { mean_gap, burst } => format!("bursty(g={mean_gap},b={burst})"),
        };
        // Trailing zero weights are dropped before rendering: presets that
        // predate `GetMany` carry a sixth weight of 0 (a pure placeholder
        // that draws nothing), and their keys must stay byte-identical to
        // the five-element strings the pipeline cache already holds.
        let mut mix: &[u32] = &self.mix.0;
        while let [rest @ .., 0] = mix {
            mix = rest;
        }
        let mut key = format!(
            "sh={};bk={};keys={};th={};arr={};rq={};qd={};wk={};sc={};mix={:?};be={}",
            self.shards,
            self.buckets_per_shard,
            self.keys,
            self.zipf_theta,
            arrival,
            self.requests_per_thread,
            self.max_queue_depth,
            self.work,
            self.scan_len,
            mix,
            self.backend.label(),
        );
        // Appended (rather than inlined) and only when non-default, so the
        // key of every spec that predates the read-mode knob is
        // byte-identical to what the pipeline cache already holds.
        if self.read_mode != ReadMode::Latest {
            key.push_str(";rm=snapshot");
        }
        // And for drift: stationary specs keep their pre-drift keys.
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
pub struct GateClock {
    gate: Arc<dyn Gate>,
}

impl GateClock {
    /// Wraps a gate (usually `stm.gate()`).
    pub fn new(gate: Arc<dyn Gate>) -> Self {
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

/// Per-thread request accounting: the sojourn histogram, completion and shed
/// counters, and per-site commit / abort tallies. Lock-free so `stats()` can
/// read while (in principle) workers still hold clones.
#[derive(Debug, Default)]
pub struct ThreadLog {
    /// Sojourn-latency histogram (ticks), all served requests.
    pub sojourn: LogHistogram,
    /// Sojourn-latency histogram (ticks) for read-only requests alone
    /// (`Get`/`Scan`/`GetMany`), so the MVCC study can report the read
    /// path's tail separately from the update path's.
    pub sojourn_ro: LogHistogram,
    /// Requests served to completion.
    pub done: AtomicU64,
    /// Read-only requests served to completion.
    pub done_ro: AtomicU64,
    /// Requests shed by backpressure.
    pub shed: AtomicU64,
    /// What each request kind's transaction site cost, indexed by
    /// [`Request::site`]. Taken here, after the request's reply is stamped,
    /// and not by an event sink inside `Stm::run`, where the tally would be
    /// part of every sojourn it helps to explain.
    sites: [SiteTally; Request::KINDS],
}

/// One site's tallies on one thread: the fields of a [`SiteStats`] that a
/// run admitting every transaction can move.
#[derive(Debug, Default)]
struct SiteTally {
    commits: AtomicU64,
    aborts: AtomicU64,
    worst_retry: AtomicU32,
}

impl ThreadLog {
    /// Accounts for one served request: its sojourn, and at its site one
    /// commit that took `aborts` aborted attempts to reach.
    pub(crate) fn served(&self, req: &Request, sojourn: u64, aborts: u32) {
        self.sojourn.record(sojourn);
        self.done.fetch_add(1, Ordering::Relaxed);
        if req.txn_kind() == TxnKind::ReadOnly {
            self.sojourn_ro.record(sojourn);
            self.done_ro.fetch_add(1, Ordering::Relaxed);
        }
        let site = &self.sites[req.site().index()];
        site.commits.fetch_add(1, Ordering::Relaxed);
        if aborts > 0 {
            site.aborts.fetch_add(u64::from(aborts), Ordering::Relaxed);
            site.worst_retry.fetch_max(aborts, Ordering::Relaxed);
        }
    }

    /// The tallies as `thread`'s rows of a per-participant table — the rows
    /// a [`gstm_core::SiteStatsSink`] on the same engine would hold: one per
    /// site that served a request, `holds` zero (nothing is held under
    /// `AdmitAll`).
    pub(crate) fn site_rows(
        &self,
        thread: ThreadId,
    ) -> impl Iterator<Item = (Participant, SiteStats)> + '_ {
        self.sites.iter().enumerate().filter_map(move |(site, tally)| {
            let commits = tally.commits.load(Ordering::Relaxed);
            (commits > 0).then(|| {
                let stats = SiteStats {
                    commits,
                    aborts: tally.aborts.load(Ordering::Relaxed),
                    holds: 0,
                    worst_retry: tally.worst_retry.load(Ordering::Relaxed),
                };
                (Participant::new(thread, TxId::new(site as u16)), stats)
            })
        })
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
        if sr.at > now {
            clock.wait_until(thread, sr.at);
        } else {
            if backlog_exceeds(schedule, i, now, max_queue_depth) {
                log.shed.fetch_add(1, Ordering::Relaxed);
                i += 1;
                continue;
            }
        }
        let req = sr.req;
        // Zero-based number of the attempt that commits = aborts before it.
        let mut aborts = 0;
        if req.txn_kind() == TxnKind::ReadOnly {
            // Read-only intent is declared up front: under `ReadMode::Latest`
            // this is the legacy validated read path with the write
            // capability removed (same gate crossings, same outcome — the
            // Latest goldens hold); under `ReadMode::Snapshot` the engine
            // serves the request from the version rings at a frozen
            // timestamp, with zero validation and zero aborts.
            stm.run_read_only(thread, req.site(), |tx| {
                aborts = tx.attempt();
                tx.work(work);
                store.apply(tx, &req)
            });
        } else {
            stm.run(thread, req.site(), |tx| {
                aborts = tx.attempt();
                tx.work(work);
                store.apply(tx, &req)
            });
        }
        // Snapshot read-only transactions still claim a commit sequence
        // number, so durable backends log them too — skipping them would
        // leave gaps that truncate the recoverable prefix.
        backend.on_commit(stm.last_commit_seq(thread), &req);
        let sojourn = clock.now(thread).saturating_sub(sr.at);
        log.served(&req, sojourn, aborts);
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
    pub fn new(spec: ServeSpec, threads: usize, seed: u64) -> Self {
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
            schedules: (0..threads)
                .map(|t| Arc::new(generate_schedule(&traffic, seed, t)))
                .collect(),
            logs: (0..threads).map(|_| Arc::new(ThreadLog::default())).collect(),
            spec,
        }
    }

    /// The backend this run serves from.
    pub fn backend(&self) -> &Arc<dyn StoreBackend> {
        &self.backend
    }

    /// Merged sojourn histogram across threads.
    pub fn sojourn_snapshot(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for log in &self.logs {
            merged.merge(&log.sojourn.snapshot());
        }
        merged
    }

    /// Merged read-only sojourn histogram across threads.
    pub fn sojourn_ro_snapshot(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for log in &self.logs {
            merged.merge(&log.sojourn_ro.snapshot());
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
    pub fn total_read_only(&self) -> u64 {
        self.logs.iter().map(|l| l.done_ro.load(Ordering::Relaxed)).sum()
    }

    /// Per-site commit / abort tallies of every thread, keyed by
    /// participant.
    fn sites(&self) -> BTreeMap<Participant, SiteStats> {
        self.logs
            .iter()
            .enumerate()
            .flat_map(|(t, log)| log.site_rows(ThreadId::new(t as u16)))
            .collect()
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
        let ro = self.sojourn_ro_snapshot();
        let (done, shed) = self.totals();
        // Kind-split keys are appended after the legacy block so renderers
        // and tests that address stats by name see an unchanged prefix.
        vec![
            ("req_done".into(), done as f64),
            ("req_shed".into(), shed as f64),
            ("sojourn_mean".into(), s.mean()),
            ("sojourn_p50".into(), s.p(0.50)),
            ("sojourn_p95".into(), s.p(0.95)),
            ("sojourn_p99".into(), s.p(0.99)),
            ("req_done_ro".into(), self.total_read_only() as f64),
            ("sojourn_ro_mean".into(), ro.mean()),
            ("sojourn_ro_p50".into(), ro.p(0.50)),
            ("sojourn_ro_p95".into(), ro.p(0.95)),
            ("sojourn_ro_p99".into(), ro.p(0.99)),
        ]
    }
}

/// The serve workload, pluggable into `gstm-guide`'s harness, training
/// loop, and the experiment pipeline.
#[derive(Clone, Debug)]
pub struct ServeWorkload {
    /// The configuration every run of this workload uses.
    pub spec: ServeSpec,
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

    fn stm_config(&self, threads: usize) -> StmConfig {
        spine_config(&self.spec, threads)
    }
}

/// The engine configuration a spec implies (today: its read mode). The
/// name is kept only because the frozen `benchmark/` package calls it.
pub fn spine_config(spec: &ServeSpec, threads: usize) -> StmConfig {
    let mut cfg = StmConfig::new(threads);
    cfg.read_mode = spec.read_mode;
    cfg
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
    /// Merged sojourn histogram for read-only requests alone.
    pub sojourn_ro: HistogramSnapshot,
    /// Wall time of the whole run, in clock ticks.
    pub elapsed_ticks: u64,
    /// The engine's multi-version read-path counters (all zero under
    /// [`ReadMode::Latest`]).
    pub mvcc: MvccStats,
    /// Per-site commit/abort tallies, keyed by participant. The read-only
    /// sites' abort counts are what proves the snapshot path's zero-abort
    /// claim.
    pub sites: BTreeMap<Participant, SiteStats>,
    /// Block-mode extras: the run's output/state digests (for the
    /// schedule-invariance oracle) and the executor's counters. `None`
    /// under [`ServeMode::Interleaved`].
    pub block: Option<crate::block_mode::BlockModeReport>,
}

impl NativeReport {
    /// Total aborts across the sites of the request kinds that declare
    /// [`TxnKind::ReadOnly`] (`Get`, `Scan`, `GetMany`). Zero under
    /// `ReadMode::Snapshot` by construction; nonzero under contention on the
    /// validated path.
    pub fn read_only_aborts(&self) -> u64 {
        let kinds = Request::one_of_each_kind();
        let read_only =
            |site| kinds.iter().any(|r| r.site() == site && r.txn_kind() == TxnKind::ReadOnly);
        self.sites.iter().filter(|(who, _)| read_only(who.tx)).map(|(_, s)| s.aborts).sum()
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
    let stm =
        Arc::new(Stm::new_on(spine_config(spec, threads), Arc::new(RealGate::new(yield_every))));
    let clock = WallClock::new(nanos_per_tick);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let stm = Arc::clone(&stm);
                let thread = ThreadId::new(t as u16);
                let backend = Arc::clone(&run.backend);
                let schedule = Arc::clone(&run.schedules[t]);
                let log = Arc::clone(&run.logs[t]);
                let clock = &clock;
                scope.spawn(move || {
                    serve_schedule(&stm, thread, backend.as_ref(), &schedule, clock, spec, &log);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("serve worker panicked");
        }
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
        sojourn_ro: run.sojourn_ro_snapshot(),
        elapsed_ticks: clock.now(ThreadId::new(0)),
        mvcc: stm.mvcc_stats(),
        sites: run.sites(),
        block: None,
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
        let schedule = generate_schedule(&spec.traffic(), 11, 0);
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

    #[test]
    fn default_spec_cache_key_is_unchanged_by_mix_widening_and_read_mode() {
        // Pre-GetMany cached artifacts stay addressable: the sixth (zero)
        // mix weight is trimmed out of the rendered key, and only a
        // non-default read mode extends it.
        let key = ServeSpec::hot(100).cache_key();
        assert!(key.contains("mix=[20, 10, 10, 55, 5];"), "unexpected key: {key}");
        assert!(!key.contains("rm="), "default key must be unchanged: {key}");
        let snap = ServeSpec::hot(100).with_read_mode(ReadMode::Snapshot).cache_key();
        assert!(snap.ends_with(";rm=snapshot"), "unexpected key: {snap}");
        assert_ne!(key, snap);
        let mvcc = ServeSpec::wide(100).with_mix(Mix::mvcc_read()).cache_key();
        assert!(mvcc.contains("mix=[50, 10, 5, 5, 15, 15];"), "unexpected key: {mvcc}");
    }

    /// The run cache is content-addressed by these strings: the three
    /// presets' keys must stay byte-equal to what cached artifacts hold.
    #[test]
    fn preset_cache_keys_are_pinned() {
        assert_eq!(
            ServeSpec::hot(100).cache_key(),
            "sh=2;bk=2;keys=32;th=0.99;arr=poisson(g=220);rq=100;qd=24;wk=40;sc=8;\
             mix=[20, 10, 10, 55, 5];be=ephemeral"
        );
        assert_eq!(
            ServeSpec::wide(100).cache_key(),
            "sh=8;bk=32;keys=4096;th=0.6;arr=poisson(g=220);rq=100;qd=24;wk=40;sc=8;\
             mix=[55, 20, 10, 10, 5];be=ephemeral"
        );
        assert_eq!(
            ServeSpec::ledger(100).cache_key(),
            "sh=4;bk=8;keys=256;th=0.9;arr=poisson(g=180);rq=100;qd=24;wk=40;sc=8;\
             mix=[12, 0, 0, 80, 8];be=ephemeral"
        );
    }

    #[test]
    fn default_spec_cache_key_has_no_drift_suffix() {
        // Stationary cached artifacts stay addressable: only a drifting
        // spec extends the key, with the same append-only discipline as
        // the read-mode knob.
        let key = ServeSpec::hot(100).cache_key();
        assert!(!key.contains("drift"), "default key must be unchanged: {key}");
        let drifting = ServeSpec::hot(100)
            .with_drift(Drift { theta_end: 0.2, phases: 4, hotspot_step: 8 })
            .cache_key();
        assert!(drifting.ends_with(";drift=(te=0.2,ph=4,hs=8)"), "unexpected key: {drifting}");
        assert_ne!(key, drifting);
        assert_ne!(
            drifting,
            ServeSpec::hot(100)
                .with_drift(Drift { theta_end: 0.2, phases: 8, hotspot_step: 8 })
                .cache_key(),
            "every drift knob must feed the key"
        );
    }

    #[test]
    fn drifting_sim_runs_serve_conserve_and_stay_deterministic() {
        let spec = tiny_spec().with_drift(Drift { theta_end: 0.3, phases: 4, hotspot_step: 8 });
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
    fn snapshot_mode_serves_conserves_and_is_deterministic() {
        let spec = tiny_spec().with_read_mode(ReadMode::Snapshot);
        let a = run_simulated(&spec, &RunOptions::new(3, 5));
        let stats: std::collections::HashMap<_, _> = a.workload_stats.iter().cloned().collect();
        assert_eq!(stats["req_done"] + stats["req_shed"], 3.0 * 120.0);
        assert!(stats["req_done_ro"] > 0.0, "hot mix still has gets and scans");
        assert!(stats["sojourn_ro_p99"] <= stats["sojourn_p99"] * 10.0, "ro tail is sane");
        let b = run_simulated(&spec, &RunOptions::new(3, 5));
        assert_eq!(a.workload_stats, b.workload_stats);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn native_snapshot_run_has_zero_read_only_aborts() {
        let mut spec =
            ServeSpec::hot(150).with_read_mode(ReadMode::Snapshot).with_mix(Mix::mvcc_read());
        spec.arrival = Arrival::Poisson { mean_gap: 60.0 };
        let report = run_native(&spec, 3, 11, 50, 64);
        assert!(report.done_ro > 0);
        assert_eq!(report.read_only_aborts(), 0, "snapshot reads never abort");
        assert_eq!(report.mvcc.snapshot_txns, report.done_ro);
        assert!(report.mvcc.snapshot_reads >= report.mvcc.snapshot_txns);
        assert_eq!(report.sojourn_ro.count(), report.done_ro);
        // Latest mode on the same spec keeps the MVCC machinery dormant.
        let latest = run_native(&spec.clone().with_read_mode(ReadMode::Latest), 3, 11, 50, 64);
        assert_eq!(latest.mvcc, MvccStats::default());
        assert!(latest.done_ro > 0);
    }

    #[test]
    fn durable_snapshot_mode_keeps_the_wal_contiguous_and_recoverable() {
        // Snapshot read-only transactions still claim commit sequence
        // numbers; the serve loop must log them through `on_commit` or the
        // recoverable prefix truncates at the first read's seq.
        let mut spec = tiny_spec().with_read_mode(ReadMode::Snapshot);
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
        let stm = Stm::new_on(spine_config(&spec, 2), Arc::new(RealGate::new(64)));
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
        run.verify().expect("durable snapshot run conserves");
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

    /// A native report's per-site table comes from the thread logs; a
    /// `SiteStatsSink` listening to the same engine must arrive at the same
    /// table, row for row — so everything derived from it
    /// (`read_only_aborts`, abort ratios) reads the same too. Two threads on
    /// the hot shape with a yield every few gate passes, so that attempts
    /// overlap and abort on any host.
    #[test]
    fn sites_from_the_logs_are_the_rows_a_sink_on_the_same_engine_tallies() {
        use gstm_core::{cm::Aggressive, AdmitAll, SiteStatsSink};
        let mut spec = ServeSpec::hot(3_000);
        spec.arrival = Arrival::Poisson { mean_gap: 2.0 };
        spec.max_queue_depth = usize::MAX;
        let store = ShardedStore::new(spec.shards, spec.buckets_per_shard, spec.keys);
        let run =
            ServeRun::with_backend(spec.clone(), Arc::new(EphemeralBackend::new(store)), 2, 17);
        let sink = Arc::new(SiteStatsSink::new());
        let stm = Stm::with_parts(
            spine_config(&spec, 2),
            Arc::new(RealGate::new(3)),
            Arc::clone(&sink) as Arc<dyn gstm_core::EventSink>,
            Arc::new(AdmitAll),
            Arc::new(Aggressive),
        );
        let clock = WallClock::new(1);
        std::thread::scope(|scope| {
            for t in 0..2usize {
                let (run, stm, clock, spec) = (&run, &stm, &clock, &spec);
                scope.spawn(move || {
                    let thread = ThreadId::new(t as u16);
                    let (schedule, log) = (&run.schedules[t], &run.logs[t]);
                    serve_schedule(stm, thread, run.backend.as_ref(), schedule, clock, spec, log);
                });
            }
        });
        run.verify().expect("the run conserves and accounts for every request");
        let sites = run.sites();
        assert_eq!(sites, sink.snapshot());
        // Commits per site are the requests of that kind the thread served.
        for (t, schedule) in run.schedules.iter().enumerate() {
            for kind in Request::one_of_each_kind() {
                let served = schedule.iter().filter(|sr| sr.req.site() == kind.site()).count();
                let who = Participant::new(ThreadId::new(t as u16), kind.site());
                let commits = sites.get(&who).map_or(0, |s| s.commits);
                assert_eq!(commits, served as u64, "{} on thread {t}", kind.kind());
            }
        }
        let aborts: u64 = sites.values().map(|s| s.aborts).sum();
        let worst = sites.values().map(|s| s.worst_retry).max();
        assert!(aborts > 0 && worst > Some(0), "nothing aborted: the comparison was vacuous");
        assert!(sites.values().all(|s| s.holds == 0));
    }

    /// `read_only_aborts` counts exactly the sites whose kind declares
    /// `TxnKind::ReadOnly`: each of the six kinds gets its own power of two.
    #[test]
    fn read_only_aborts_agrees_with_txn_kind_for_every_request_kind() {
        let kinds = Request::one_of_each_kind();
        let sites: Vec<u16> = kinds.iter().map(|r| r.site().raw()).collect();
        assert_eq!(sites, [0, 1, 2, 3, 4, 5], "one of each, in site order");
        let mut labels: Vec<_> = kinds.iter().map(Request::kind).collect();
        labels.dedup();
        assert_eq!(labels.len(), 6, "six different kinds");
        let mut report = run_native(&ServeSpec::hot(1), 1, 1, 1, 0);
        report.sites.clear();
        let mut want = 0;
        for (i, req) in kinds.iter().enumerate() {
            for thread in 0..2 {
                let who = Participant::new(ThreadId::new(thread), req.site());
                let aborts = 1 << (2 * i + usize::from(thread));
                report.sites.insert(who, SiteStats { aborts, ..SiteStats::default() });
                if req.txn_kind() == TxnKind::ReadOnly {
                    want += aborts;
                }
            }
        }
        assert_eq!(report.read_only_aborts(), want);
        assert_ne!(want, 0);
    }
}
