//! The `experiments recover` subcommand: a kill-and-recover matrix over
//! the WAL's structural crash points, the serve storage backends, and the
//! contention managers.
//!
//! Each cell runs the open-loop store service on the deterministic
//! simulator with a [`ChaosGate`] injecting delays, forced aborts and —
//! for the crash cells — a seeded kill request at one structural
//! [`KillPoint`] (mid-batch, mid-snapshot, post-truncate). After the run
//! drains, the cell reads the surviving disk image, rebuilds a store with
//! [`gstm_serve::recover_store`], and checks:
//!
//! * **state** — the recovered store's digest equals a serial replay of
//!   the run's ground-truth commit ledger up to the recovered watermark,
//!   and transfers still conserve the balance total;
//! * **history** — [`gstm_check::check_recovery`] certifies the event
//!   history (opacity, dense commit seqs, watermark within the run);
//! * **injection** — crash cells saw exactly one accepted kill request,
//!   the WAL actually died at its point, and the crash lost commits (the
//!   matrix as a whole must lose commits somewhere, or the kill schedule
//!   was vacuous).
//!
//! Ephemeral cells are the contrast rows: a crash loses the whole store,
//! so their "recovery" restarts from the initial state and every served
//! request counts as lost. A final negative row flips one byte inside a
//! flushed frame and requires recovery to reject the log by checksum.
//!
//! Cells are rendered to deterministic text and cached through the
//! pipeline's content-addressed text cache, so warm reruns are
//! byte-identical and count as run-cache hits.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use gstm_check::check_recovery;
use gstm_core::cm::{Aggressive, ContentionManager, Greedy, Karma, Polite};
use gstm_core::{
    AdmitAll, Gate, KillPoint, KillSwitch, MemorySink, Stm, StmConfig, ThreadId, VarIdDomain,
};
use gstm_serve::{
    generate_schedule, recover_store, serve_schedule, store_digest, Arrival, BackendKind,
    DurableBackend, EphemeralBackend, GateClock, Materializer, Request, ServeSpec, ShardedStore,
    StoreBackend, ThreadLog,
};
use gstm_sim::{ChaosConfig, ChaosGate, SimConfig, SimMachine};
use gstm_wal::{LogDevice, MemDevice, Wal, WalConfig, WalError};

use crate::pipeline::Pipeline;
use crate::progress::Progress;

/// Group-commit batch size used by every durable cell — small enough that
/// a mid-batch tear is reachable within a tiny run.
const WAL_BATCH: usize = 4;
/// Snapshot advice interval for every durable cell — small enough that
/// snapshot-phase crash points are crossed several times per run.
const WAL_SNAPSHOT_EVERY: u64 = 24;
/// Per-mille chance that a gate crossing requests the cell's crash. Low
/// enough that the kill lands well into the run (after snapshots have
/// installed), high enough that every cell still crashes.
const KILL_PERMILLE: u32 = 2;

/// Knobs of one recovery-matrix invocation.
#[derive(Clone, Copy, Debug)]
pub struct RecoverOptions {
    /// Simulated worker threads per run.
    pub threads: usize,
    /// Requests each worker's schedule offers.
    pub requests_per_thread: usize,
    /// Seeds per cell (each seed is one full crash-and-recover run).
    pub seeds_per_cell: usize,
    /// Base seed; cell runs use `seed..seed + seeds_per_cell`.
    pub seed: u64,
    /// Restrict the contention-manager axis to two entries (CI smoke).
    pub tiny: bool,
}

impl RecoverOptions {
    /// Defaults: 3 threads, 120 requests each, 3 seeds per cell.
    pub fn new(seed: u64) -> Self {
        RecoverOptions {
            threads: 3,
            requests_per_thread: 120,
            seeds_per_cell: 3,
            seed,
            tiny: false,
        }
    }

    /// The CI smoke preset: 2 threads, 80 requests, two contention
    /// managers — still covering every crash point on both backends.
    pub fn tiny(seed: u64) -> Self {
        RecoverOptions { threads: 2, requests_per_thread: 80, seeds_per_cell: 3, seed, tiny: true }
    }

    /// The serve spec every cell runs: the contended "hot" shape, loaded
    /// enough that a crash interrupts live traffic.
    fn spec(&self, backend: BackendKind) -> ServeSpec {
        ServeSpec::hot(self.requests_per_thread)
            .with_arrival(Arrival::Poisson { mean_gap: 120.0 })
            .with_backend(backend)
    }
}

/// One cell of the matrix.
#[derive(Clone, Copy, Debug)]
struct CellSpec {
    /// Structural crash point, or `None` for a crash-free control run.
    point: Option<KillPoint>,
    backend: BackendKind,
    cm: &'static str,
}

impl CellSpec {
    fn label(&self) -> String {
        let p = self.point.map_or("none", |point| point.label());
        format!("{p}/{}/{}", self.backend.label(), self.cm)
    }

    fn build_cm(&self, threads: usize) -> Arc<dyn ContentionManager> {
        match self.cm {
            "polite" => Arc::new(Polite::default()),
            "karma" => Arc::new(Karma::new(threads, 8)),
            "greedy" => Arc::new(Greedy::new(threads, 8)),
            _ => Arc::new(Aggressive),
        }
    }
}

fn matrix(tiny: bool) -> Vec<CellSpec> {
    let cms: &[&'static str] =
        if tiny { &["aggressive", "karma"] } else { &["aggressive", "polite", "karma", "greedy"] };
    let points = [
        None,
        Some(KillPoint::MidBatch),
        Some(KillPoint::MidSnapshot),
        Some(KillPoint::PostTruncate),
    ];
    let mut cells = Vec::new();
    for point in points {
        for backend in [BackendKind::Durable, BackendKind::Ephemeral] {
            for &cm in cms {
                cells.push(CellSpec { point, backend, cm });
            }
        }
    }
    cells
}

/// Extracts a `key=value` token from a report line.
fn token(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace().find_map(|w| w.strip_prefix(key).and_then(|v| v.parse().ok()))
}

/// One crash-and-recover run: serve under chaos, read the surviving disk,
/// recover, and judge. Returns the `seed N: ...` report line (multi-line
/// when problems were found; any problem renders as `FAIL`).
fn run_seed(cell: CellSpec, opts: &RecoverOptions, run_seed: u64) -> String {
    let threads = opts.threads;
    let spec = opts.spec(cell.backend);

    // Fresh id domain per run: reproducible stripes whatever ran before.
    let domain = VarIdDomain::new();
    let guard = domain.install();
    let kill = Arc::new(KillSwitch::new());
    let log_dev = Arc::new(MemDevice::new());
    let snap_dev = Arc::new(MemDevice::new());
    let (backend, durable): (Arc<dyn StoreBackend>, Option<Arc<DurableBackend>>) =
        match cell.backend {
            BackendKind::Durable => {
                let store = ShardedStore::new(spec.shards, spec.buckets_per_shard, spec.keys);
                let cfg = WalConfig::new()
                    .with_batch_records(WAL_BATCH)
                    .with_snapshot_every(WAL_SNAPSHOT_EVERY);
                let wal = Wal::new(
                    cfg,
                    Arc::clone(&log_dev) as Arc<dyn LogDevice>,
                    Arc::clone(&snap_dev) as Arc<dyn LogDevice>,
                )
                .with_kill(Arc::clone(&kill));
                let d = Arc::new(DurableBackend::new(store, wal));
                (Arc::clone(&d) as Arc<dyn StoreBackend>, Some(d))
            }
            BackendKind::Ephemeral => {
                let store = ShardedStore::new(spec.shards, spec.buckets_per_shard, spec.keys);
                (Arc::new(EphemeralBackend::new(store)), None)
            }
        };
    drop(guard);

    // The chaos stream derives from the run seed and the cell's label, so
    // every cell perturbs (and crashes) differently under one base seed.
    let cell_seed = run_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(cell.label().bytes().map(u64::from).sum::<u64>());
    let machine = SimMachine::new(SimConfig::new(threads, run_seed));
    let mut chaos_cfg = ChaosConfig::new(cell_seed);
    if let Some(point) = cell.point {
        chaos_cfg = chaos_cfg.with_kill(point, KILL_PERMILLE);
    }
    let chaos = Arc::new(ChaosGate::new(chaos_cfg, machine.gate(), threads));
    let sink = Arc::new(MemorySink::new());
    let stm = Arc::new(Stm::with_parts(
        StmConfig::builder(threads).check_events(true).build(),
        Arc::clone(&chaos) as Arc<dyn Gate>,
        Arc::clone(&sink) as Arc<dyn gstm_core::EventSink>,
        Arc::new(AdmitAll),
        cell.build_cm(threads),
    ));
    chaos.arm(stm.doom_handle());
    chaos.arm_kill(Arc::clone(&kill));

    let traffic = spec.traffic();
    let schedules: Vec<_> =
        (0..threads).map(|t| generate_schedule(&traffic, run_seed, t)).collect();
    let logs: Vec<ThreadLog> = (0..threads).map(|_| ThreadLog::default()).collect();
    let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..threads)
        .map(|t| {
            let stm = Arc::clone(&stm);
            let backend = Arc::clone(&backend);
            let schedule = &schedules[t];
            let log = &logs[t];
            let spec = &spec;
            Box::new(move || {
                let clock = GateClock::new(Arc::clone(stm.gate()));
                serve_schedule(
                    &stm,
                    ThreadId::new(t as u16),
                    backend.as_ref(),
                    schedule,
                    &clock,
                    spec,
                    log,
                );
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    machine.run(workers);

    let events = sink.take();
    let stats = chaos.stats();
    let done: u64 = logs.iter().map(|l| l.done.load(Ordering::Relaxed)).sum();
    let shed: u64 = logs.iter().map(|l| l.shed.load(Ordering::Relaxed)).sum();

    let mut problems: Vec<String> = Vec::new();
    if done == 0 {
        problems.push("no requests served: the cell is vacuous".to_string());
    }
    if let Some(point) = cell.point {
        if stats.kills != 1 {
            problems.push(format!(
                "expected exactly one accepted kill request at {}, saw {}",
                point.label(),
                stats.kills
            ));
        }
    }

    let detail = match &durable {
        Some(d) => {
            let ledger = d.ledger();
            match recover_store(
                spec.shards,
                spec.buckets_per_shard,
                spec.keys,
                &log_dev.contents(),
                &snap_dev.contents(),
            ) {
                Ok(rec) => {
                    // Expected state: the ground-truth ledger replayed
                    // serially up to the recovered watermark.
                    let mut expected = Materializer::initial(spec.keys);
                    let mut lost = 0u64;
                    for (seq, req) in &ledger {
                        if *seq <= rec.recovered_seq {
                            expected.apply(req);
                        } else {
                            lost += 1;
                        }
                    }
                    if store_digest(&rec.store) != expected.digest() {
                        problems.push("recovered store digest != serial-replay digest".to_string());
                    }
                    let total = rec.store.total_balance_unlogged();
                    if total != rec.store.expected_total() {
                        problems.push(format!(
                            "recovered balance total {total} != {}: atomicity broken",
                            rec.store.expected_total()
                        ));
                    }
                    let report = check_recovery(&events, rec.recovered_seq);
                    if !report.ok() {
                        problems.push(format!("oracle: {}", report.summary()));
                        for v in report.violations.iter().take(5) {
                            problems.push(format!("  {v}"));
                        }
                    }
                    if report.is_vacuous() {
                        problems.push("vacuous recovery history".to_string());
                    }
                    match cell.point {
                        None => {
                            if lost != 0 {
                                problems.push(format!("{lost} commits lost without a crash"));
                            }
                        }
                        Some(point) => {
                            if !d.wal().is_dead() {
                                problems.push(format!(
                                    "the {} crash was requested but the WAL never died",
                                    point.label()
                                ));
                            }
                            if lost == 0 {
                                problems.push(
                                    "crash lost no commits: the kill was vacuous".to_string(),
                                );
                            }
                        }
                    }
                    format!(
                        "recovered_seq={} base={} torn={} lost={lost} kills={} dooms={} \
                         served={done} shed={shed} snapshots={}",
                        rec.recovered_seq,
                        rec.info.base_seq,
                        u8::from(rec.info.torn),
                        stats.kills,
                        stats.dooms,
                        d.wal().stats().snapshots,
                    )
                }
                Err(e) => {
                    problems.push(format!("recovery failed: {e}"));
                    format!("lost={done} kills={} served={done} shed={shed}", stats.kills)
                }
            }
        }
        None => {
            // Ephemeral contrast row: a crash loses the in-memory store
            // outright, so recovery restarts from the initial state and
            // everything served is lost. Without a crash nothing is lost.
            let lost = if cell.point.is_some() { done } else { 0 };
            let report = check_recovery(&events, 0);
            if !report.ok() {
                problems.push(format!("oracle: {}", report.summary()));
            }
            if report.is_vacuous() {
                problems.push("vacuous recovery history".to_string());
            }
            format!(
                "recovered_seq=0 base=0 torn=0 lost={lost} kills={} dooms={} \
                 served={done} shed={shed} snapshots=0",
                stats.kills, stats.dooms,
            )
        }
    };

    let verdict = if problems.is_empty() { "ok" } else { "FAIL" };
    let mut line = format!("seed {run_seed}: {verdict} {detail}");
    for p in problems {
        line.push_str("\n    ");
        line.push_str(&p);
    }
    line
}

/// Runs (or loads from the text cache) one cell: its header plus one
/// report line per seed.
fn run_cell(cell: CellSpec, opts: &RecoverOptions, pipe: &Pipeline<'_>) -> String {
    let key = format!(
        "recover-v1;{};{};threads={};seeds={}+{};wal=b{WAL_BATCH}s{WAL_SNAPSHOT_EVERY}k{KILL_PERMILLE}",
        cell.label(),
        opts.spec(cell.backend).cache_key(),
        opts.threads,
        opts.seed,
        opts.seeds_per_cell,
    );
    pipe.cached_text(&key, || {
        let mut body = format!("-- {} --\n", cell.label());
        for i in 0..opts.seeds_per_cell {
            body.push_str(&run_seed(cell, opts, opts.seed + i as u64));
            body.push('\n');
        }
        body
    })
}

/// The negative control: flip one byte inside a flushed frame and require
/// recovery to reject the log with a checksum error rather than replay it.
fn corrupt_tail_is_rejected() -> bool {
    let domain = VarIdDomain::new();
    let guard = domain.install();
    let store = ShardedStore::new(2, 2, 8);
    drop(guard);
    let (backend, log, snap) =
        DurableBackend::in_memory(store, WalConfig::new().with_batch_records(2));
    for seq in 1..=6u64 {
        backend.on_commit(seq, &Request::Transfer { from: seq % 8, to: (seq + 1) % 8, amount: 5 });
    }
    backend.flush();
    let mut bytes = log.contents();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40; // inside the final flushed frame's checksum
    matches!(recover_store(2, 2, 8, &bytes, &snap.contents()), Err(WalError::CorruptFrame { .. }))
}

/// Runs the whole kill-and-recover matrix, fanning cells out over the
/// pipeline's worker pool (and through its text cache). Returns the
/// rendered report and whether every cell — plus the corrupt-tail negative
/// row and the matrix-level loss guard — passed.
pub fn run_matrix(
    opts: &RecoverOptions,
    pipe: &Pipeline<'_>,
    progress: &dyn Progress,
) -> (String, bool) {
    let cells = matrix(opts.tiny);
    progress.report(&format!(
        "recovery matrix: {} cells x {} seeds, {} threads x {} requests, seed {}",
        cells.len(),
        opts.seeds_per_cell,
        opts.threads,
        opts.requests_per_thread,
        opts.seed
    ));
    let bodies = pipe.run_indexed(cells.len(), |i| run_cell(cells[i], opts, pipe));
    let mut out = format!(
        "== Kill-and-recover matrix: crash point x backend x CM (seed {}, {} threads, \
         {} requests/thread, {} seeds/cell) ==\n",
        opts.seed, opts.threads, opts.requests_per_thread, opts.seeds_per_cell
    );
    let mut failed = 0usize;
    let mut lost_total = 0u64;
    let mut kills_total = 0u64;
    for body in &bodies {
        out.push_str(body);
        if body.contains("FAIL") {
            failed += 1;
        }
        for line in body.lines() {
            lost_total += token(line, "lost=").unwrap_or(0);
            kills_total += token(line, "kills=").unwrap_or(0);
        }
    }
    let corrupt_ok = corrupt_tail_is_rejected();
    out.push_str("-- corrupt-tail --\n");
    out.push_str(if corrupt_ok {
        "ok: flipped byte inside a flushed frame rejected by checksum\n"
    } else {
        "FAIL: corrupted log tail was replayed without a checksum error\n"
    });
    // The matrix must actually lose commits somewhere, or kill injection
    // never bit and the recovery claims were tested against nothing.
    let losses_ok = lost_total > 0;
    if !losses_ok {
        out.push_str("FAIL: no cell lost any commits — the kill schedule was vacuous\n");
    }
    let ok = failed == 0 && corrupt_ok && losses_ok;
    out.push_str(&format!(
        "{} cells, {} failed, {} commits lost to crashes, {} kill requests: {}\n",
        cells.len(),
        failed,
        lost_total,
        kills_total,
        if ok { "every recovery matched the serial history" } else { "VIOLATIONS FOUND" }
    ));
    (out, ok)
}
