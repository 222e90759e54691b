//! Golden-digest determinism regression test.
//!
//! The TL2 hot-path work (scratch buffers, flat read sets, Gate batching)
//! is only admissible if it provably does not move scheduling: identical
//! seeds must produce identical Tseqs, per-thread virtual times and
//! telemetry. This test pins that property to committed FNV-1a digests
//! captured on the pre-optimization engine — any engine change that
//! perturbs a schedule, a Tseq or a snapshot shows up as a digest
//! mismatch, not as a silent variance shift.
//!
//! Since the experiment-pipeline work, every `run_workload` allocates its
//! `TVar`s inside a fresh per-run `VarIdDomain`, so each digest is a pure
//! function of (workload, threads, seed) — independent of instantiation
//! order, process history, and concurrent runs. The single-`#[test]`
//! structure is kept only so the digests print as one ordered block.

use std::sync::Arc;

use gstm::core::sync::Mutex;
use gstm::core::StmConfig;
use gstm::guide::{
    run_workload, train, PolicyChoice, RunOptions, WorkerEnv, Workload, WorkloadRun,
};
use gstm::model::parse_states;
use gstm::serve::{DurableBackend, ServeRun, ServeSpec, ShardedStore};
use gstm::stamp::{benchmark, InputSize};
use gstm::synquake::{Quest, SynQuake};
use gstm::wal::{LogDevice, MemDevice, Wal, WalConfig};

/// FNV-1a 64-bit over the rendered run record (stable, dependency-free).
fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs `inner` with each worker noting its thread's virtual clock as it
/// returns: the wall-clock-like finish time, barrier waits included, that
/// `RunOutcome` does not carry beside the active time.
struct WallClocked<'a> {
    inner: &'a dyn Workload,
    wall: Arc<Mutex<Vec<u64>>>,
}

struct WallClockedRun {
    inner: Box<dyn WorkloadRun>,
    wall: Arc<Mutex<Vec<u64>>>,
}

impl Workload for WallClocked<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn instantiate(&self, threads: usize, seed: u64) -> Box<dyn WorkloadRun> {
        *self.wall.lock() = vec![0; threads];
        let inner = self.inner.instantiate(threads, seed);
        Box::new(WallClockedRun { inner, wall: Arc::clone(&self.wall) })
    }

    fn stm_config(&self, threads: usize) -> StmConfig {
        self.inner.stm_config(threads)
    }
}

impl WorkloadRun for WallClockedRun {
    fn worker(&self, env: WorkerEnv) -> Box<dyn FnOnce() + Send> {
        let (gate, thread) = (Arc::clone(env.stm.gate()), env.thread);
        let inner = self.inner.worker(env);
        let wall = Arc::clone(&self.wall);
        Box::new(move || {
            inner();
            wall.lock()[thread.index()] = gate.thread_time(thread);
        })
    }

    fn verify(&self) -> Result<(), String> {
        self.inner.verify()
    }

    fn stats(&self) -> Vec<(String, f64)> {
        self.inner.stats()
    }
}

/// Runs `workload` and renders everything schedule-visible about the run:
/// the full Tseq, the per-thread virtual finish times (active and wall),
/// makespan, and the commit/abort tallies plus the telemetry snapshot
/// text. Returns the text's digest.
fn digest_run(label: &str, workload: &dyn Workload, opts: &RunOptions) -> u64 {
    let clocked = WallClocked { inner: workload, wall: Arc::default() };
    let out = run_workload(&clocked, opts);
    let wall = clocked.wall.lock().clone();
    let mut text = format!("== {label} ==\n");
    let events = out.events.as_ref().expect("capture_events was set");
    for (i, tts) in parse_states(events).iter().enumerate() {
        text.push_str(&format!("tseq[{i}] {tts}\n"));
    }
    text.push_str(&format!(
        "ticks {:?}\nwall {:?}\nmakespan {}\ncommits {:?}\naborts {:?}\n",
        out.thread_ticks, wall, out.makespan, out.commits, out.aborts,
    ));
    let snapshot = out.telemetry.as_ref().expect("telemetry was set");
    text.push_str(&snapshot.to_text());
    fnv1a(&text)
}

fn measured(threads: usize, seed: u64) -> RunOptions {
    RunOptions::new(threads, seed).capturing().with_telemetry()
}

/// Golden digests captured on the pre-optimization engine (seed 7,
/// 4 threads). If an engine change moves any of these, it changed a
/// schedule, a Tseq or a telemetry snapshot — exactly what the hot-path
/// work must never do.
const GOLDEN: [(&str, u64); 4] = [
    ("kmeans/default", 0xc420_75b6_490b_74c8),
    ("kmeans/guided", 0xf750_7110_4459_dfd9),
    // The synquake digests moved (once) when per-run `VarIdDomain`s
    // landed: ids previously continued from the kmeans runs above, now
    // every run starts at id 1. The kmeans digests — first workload in
    // the process either way — prove the engine itself did not move.
    ("synquake/default", 0x877b_ea19_fe45_b9c5),
    ("synquake/guided", 0x84bf_c748_9a48_98e9),
];

#[test]
fn golden_digests_are_stable() {
    let threads = 4;
    let mut digests: Vec<(&str, u64)> = Vec::new();

    // One STAMP benchmark: kmeans, small input, default then guided.
    let kmeans = benchmark("kmeans", InputSize::Small).expect("kmeans is known");
    let trained = train(kmeans.as_ref(), &RunOptions::new(threads, 0), &[1, 2, 3], 4.0);
    let default = measured(threads, 7);
    digests.push(("kmeans/default", digest_run("kmeans/default", kmeans.as_ref(), &default)));
    let guided = measured(threads, 7).with_policy(PolicyChoice::guided(Arc::clone(&trained.model)));
    digests.push(("kmeans/guided", digest_run("kmeans/guided", kmeans.as_ref(), &guided)));

    // One SynQuake quest: first testing quest, tiny config, default then
    // guided (trained on the first training quest at the same size).
    let quake = SynQuake::tiny(Quest::testing()[0]);
    let trainer = SynQuake::tiny(Quest::training()[0]);
    let trained = train(&trainer, &RunOptions::new(threads, 0), &[1, 2, 3], 4.0);
    digests.push(("synquake/default", digest_run("synquake/default", &quake, &default)));
    let guided = measured(threads, 7).with_policy(PolicyChoice::guided(Arc::clone(&trained.model)));
    digests.push(("synquake/guided", digest_run("synquake/guided", &quake, &guided)));

    for (label, digest) in &digests {
        eprintln!("digest {label} {digest:#018x}");
    }
    for ((label, digest), (golden_label, golden)) in digests.iter().zip(GOLDEN.iter()) {
        assert_eq!(label, golden_label);
        assert_eq!(
            *digest, *golden,
            "{label}: digest {digest:#018x} != golden {golden:#018x} — \
             the engine's schedule, Tseq or telemetry changed"
        );
    }
}

/// The durable serve workload, keeping hold of the devices its last run
/// wrote to.
struct DurableServe {
    spec: ServeSpec,
    devices: Mutex<Option<(Arc<MemDevice>, Arc<MemDevice>)>>,
}

impl Workload for DurableServe {
    fn name(&self) -> &'static str {
        "serve"
    }

    fn instantiate(&self, threads: usize, seed: u64) -> Box<dyn WorkloadRun> {
        let spec = &self.spec;
        let store = ShardedStore::new(spec.shards, spec.buckets_per_shard, spec.keys);
        // Small batches and intervals: many partial batches are drained in
        // slot order, by installs and by the workers' final flushes.
        let cfg = WalConfig::new().with_batch_records(4).with_snapshot_every(24);
        let (backend, log, snap) = DurableBackend::in_memory(store, cfg);
        *self.devices.lock() = Some((log, snap));
        Box::new(ServeRun::with_backend(spec.clone(), Arc::new(backend), threads, seed))
    }
}

/// A simulated durable run's device bytes are a function of (seed,
/// workload), not of what the process did before: the WAL's staging slots
/// are numbered per `Wal` in first-append order. Process-wide numbering
/// would hand the second run's workers slots 63 and 0 — two leases by the
/// first run, 125 by the threads below — and every drain would write their
/// batches the other way round.
#[test]
fn durable_device_bytes_do_not_depend_on_process_history() {
    let workload = DurableServe { spec: ServeSpec::hot(120), devices: Mutex::new(None) };
    let device_bytes = || {
        run_workload(&workload, &RunOptions::new(2, 7));
        let (log, snap) = workload.devices.lock().take().expect("the run instantiated");
        (log.contents(), snap.contents())
    };
    let first = device_bytes();
    let unrelated =
        Wal::new(WalConfig::new(), Arc::new(MemDevice::new()), Arc::new(MemDevice::new()));
    for seq in 1..=125u64 {
        std::thread::scope(|scope| {
            scope.spawn(|| unrelated.append(seq, b"elsewhere"));
        });
    }
    assert_eq!(unrelated.stats().appended, 125);
    let second = device_bytes();
    assert!(first.0.len() > 100 && first.1.len() > 100, "the run logged and snapshotted");
    assert_eq!(first, second);
}
