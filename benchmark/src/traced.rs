//! The traced run: the benchmark's own replay of the serve loops with a
//! span around every call into a layer's public function.
//!
//! `replay_interleaved` mirrors `gstm_serve::serve_schedule` and
//! `replay_block` mirrors the native block loop behind `run_native`; the
//! unit tests at the bottom hold both to the product's outcome. The replay
//! builds the same store, engine, backend and schedules `run_native` builds,
//! from the same public constructors.
//!
//! A request's spans nest as `sojourn ⊃ {queue_wait, txn ⊃ body,
//! on_commit}` and tile it: `sojourn = queue_wait + txn + on_commit` by
//! construction, so the per-layer means account for the traced mean sojourn.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use gstm_block::{execute_block_on, BlockConfig, BlockPool, BlockStats};
use gstm_core::cm::Aggressive;
use gstm_core::{AdmitAll, EventSink, RealGate, SiteStatsSink, Stm, ThreadId, TxnKind};
use gstm_serve::{
    apply_with, block_parts, encode_state, generate_schedule, merge_block_order, response_digest,
    spine_config, store_digest, BackendKind, DurableBackend, Entry, EphemeralBackend,
    ScheduledRequest, ServeClock, ServeMode, ServeSpec, ShardedStore, StoreBackend, TrafficSpec,
    WallClock, INITIAL_BALANCE,
};
use gstm_wal::{fnv1a64, FileDevice, LogDevice, Wal, WalConfig, WalStats};

use crate::workloads::NANOS_PER_TICK;

/// A request that starts service later than this after it was due counts
/// as late (`serve.service.late_share`); it is also how late the open-loop
/// generator ran.
pub const LATE_NS: u64 = 100_000;

/// Span totals and per-request samples of one replay. Times in
/// nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub done: u64,
    pub done_ro: u64,
    pub shed: u64,
    /// Body invocations (one per attempt), all requests / read-only ones.
    pub attempts: u64,
    pub attempts_ro: u64,
    /// Inside `Stm::run` / `run_read_only`.
    pub txn_ns: u64,
    /// Inside the transaction body, all attempts: `ShardedStore::apply`
    /// (`apply_writes` in block mode) plus the `tx.work` gate charge, one
    /// relaxed add natively.
    pub body_ns: u64,
    /// Body time of attempts that did not commit.
    pub wasted_ns: u64,
    /// Inside `StoreBackend::on_commit`.
    pub on_commit_ns: u64,
    /// Inside `StoreBackend::flush`, and the calls made (one per worker
    /// at drain).
    pub flush_ns: u64,
    pub flushes: u64,
    /// Per request: service start − scheduled arrival.
    pub queue_wait_ns: Vec<u64>,
    /// Per request: completion − scheduled arrival.
    pub sojourn_ns: Vec<u64>,
    /// Wall time from the clock's epoch to the last worker's exit.
    pub elapsed_ns: u64,
    /// Block mode only.
    pub block: Option<BlockTrace>,
    /// Durable backend only.
    pub wal: Option<WalTrace>,
    /// Content digest of the store after the replay.
    pub store_digest: u64,
}

/// Block-mode spans.
#[derive(Clone, Debug, Default)]
pub struct BlockTrace {
    /// Inside `merge_block_order`.
    pub merge_ns: u64,
    pub blocks: u64,
    /// Inside `execute_block_on`.
    pub execute_ns: u64,
    pub stats: BlockStats,
    /// Per transaction: engine transaction + `on_commit` + shadow update.
    pub commit_ns: u64,
    /// Updating the speculative base state after each commit.
    pub shadow_ns: u64,
    /// Per request: block execution start − scheduled arrival.
    pub formation_wait_ns: Vec<u64>,
    /// Per-transaction output digests, in block order.
    pub outputs: Vec<u64>,
}

/// What the WAL and its devices did.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalTrace {
    pub stats: WalStats,
    /// Bytes handed to the log and snapshot devices (appends and resets).
    pub device_bytes: u64,
}

impl Trace {
    fn merge_worker(&mut self, w: Trace) {
        self.done += w.done;
        self.done_ro += w.done_ro;
        self.shed += w.shed;
        self.attempts += w.attempts;
        self.attempts_ro += w.attempts_ro;
        self.txn_ns += w.txn_ns;
        self.body_ns += w.body_ns;
        self.wasted_ns += w.wasted_ns;
        self.on_commit_ns += w.on_commit_ns;
        self.flush_ns += w.flush_ns;
        self.flushes += w.flushes;
        self.queue_wait_ns.extend(w.queue_wait_ns);
        self.sojourn_ns.extend(w.sojourn_ns);
    }

    /// Folds another replay (another slice) into this one.
    pub fn absorb(&mut self, mut other: Trace) {
        self.elapsed_ns += other.elapsed_ns;
        self.store_digest = other.store_digest;
        match (&mut self.block, other.block.take()) {
            (Some(a), Some(b)) => {
                a.merge_ns += b.merge_ns;
                a.blocks += b.blocks;
                a.execute_ns += b.execute_ns;
                a.stats.merge(&b.stats);
                a.commit_ns += b.commit_ns;
                a.shadow_ns += b.shadow_ns;
                a.formation_wait_ns.extend(b.formation_wait_ns);
                a.outputs = b.outputs;
            }
            (slot @ None, b) => *slot = b,
            _ => {}
        }
        match (&mut self.wal, other.wal) {
            (Some(a), Some(b)) => {
                a.stats.appended += b.stats.appended;
                a.stats.flushes += b.stats.flushes;
                a.stats.flushed_records += b.stats.flushed_records;
                a.stats.snapshots += b.stats.snapshots;
                a.stats.truncated_records += b.stats.truncated_records;
                a.device_bytes += b.device_bytes;
            }
            (slot @ None, b) => *slot = b,
            _ => {}
        }
        self.merge_worker(other);
    }
}

/// A [`LogDevice`] that counts the bytes written through it.
struct CountingDevice<D> {
    inner: D,
    bytes: std::sync::atomic::AtomicU64,
}

impl<D: LogDevice> CountingDevice<D> {
    fn new(inner: D) -> Self {
        CountingDevice { inner, bytes: std::sync::atomic::AtomicU64::new(0) }
    }

    fn bytes(&self) -> u64 {
        self.bytes.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl<D: LogDevice> LogDevice for CountingDevice<D> {
    fn append(&self, bytes: &[u8]) {
        self.bytes.fetch_add(bytes.len() as u64, std::sync::atomic::Ordering::Relaxed);
        self.inner.append(bytes);
    }

    fn contents(&self) -> Vec<u8> {
        self.inner.contents()
    }

    fn reset(&self, bytes: &[u8]) {
        self.bytes.fetch_add(bytes.len() as u64, std::sync::atomic::Ordering::Relaxed);
        self.inner.reset(bytes);
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

/// The backend `run_native` would build for `spec`, with counting devices
/// under a durable one. The WAL files live in `dir`.
struct ReplayBackend {
    backend: Arc<dyn StoreBackend>,
    durable: Option<Arc<DurableBackend>>,
    /// The durable backend's log and snapshot devices.
    devices: Vec<Arc<CountingDevice<FileDevice>>>,
}

impl ReplayBackend {
    fn new(spec: &ServeSpec, dir: &Path) -> Self {
        let store = ShardedStore::new(spec.shards, spec.buckets_per_shard, spec.keys);
        match spec.backend {
            BackendKind::Ephemeral => {
                let backend = Arc::new(EphemeralBackend::new(store));
                ReplayBackend { backend, durable: None, devices: Vec::new() }
            }
            BackendKind::Durable => {
                let _ = std::fs::remove_dir_all(dir);
                std::fs::create_dir_all(dir).expect("create the WAL directory");
                let log = Arc::new(CountingDevice::new(FileDevice::new(dir.join("wal.log"))));
                let snap = Arc::new(CountingDevice::new(FileDevice::new(dir.join("wal.snap"))));
                let wal = Wal::new(
                    WalConfig::new(),
                    Arc::clone(&log) as Arc<dyn LogDevice>,
                    Arc::clone(&snap) as Arc<dyn LogDevice>,
                );
                let durable = Arc::new(DurableBackend::new(store, wal));
                ReplayBackend {
                    backend: Arc::clone(&durable) as Arc<dyn StoreBackend>,
                    durable: Some(durable),
                    devices: vec![log, snap],
                }
            }
        }
    }

    fn wal_trace(&self) -> Option<WalTrace> {
        self.durable.as_ref().map(|backend| WalTrace {
            stats: backend.wal().stats(),
            device_bytes: self.devices.iter().map(|d| d.bytes()).sum(),
        })
    }
}

pub(crate) fn traffic(spec: &ServeSpec) -> TrafficSpec {
    TrafficSpec {
        keys: spec.keys,
        zipf_theta: spec.zipf_theta,
        arrival: spec.arrival,
        requests_per_thread: spec.requests_per_thread,
        mix: spec.mix,
        scan_len: spec.scan_len,
        drift: spec.drift,
    }
}

/// The engine `run_native` builds: default policy and contention manager,
/// real gate without yield injection, per-site stats sink.
pub(crate) fn engine(spec: &ServeSpec, threads: usize) -> Stm {
    Stm::with_parts(
        spine_config(spec, threads),
        Arc::new(RealGate::new(0)),
        Arc::new(SiteStatsSink::new()) as Arc<dyn EventSink>,
        Arc::new(AdmitAll),
        Arc::new(Aggressive),
    )
}

/// Nanoseconds since `epoch`.
#[inline]
fn ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Replays `spec` for `seed` with spans, in the mode the spec names.
///
/// # Panics
///
/// Panics if the replay fails the checks `run_native` makes: conserved
/// totals, every request served or shed, and (block mode) the speculative
/// state equal to the committed store.
pub fn replay(spec: &ServeSpec, threads: usize, seed: u64, wal_dir: &Path) -> Trace {
    assert_eq!(spec.spine, gstm_serve::SpineMode::Global, "the replay mirrors the global spine");
    let backend = ReplayBackend::new(spec, wal_dir);
    let mut trace = match spec.mode {
        ServeMode::Interleaved => replay_interleaved(spec, threads, seed, &backend.backend),
        ServeMode::Block { block_size } => {
            replay_block(spec, block_size, threads, seed, &backend.backend)
        }
    };
    let store = backend.backend.store();
    gstm_check::check_conserved_total(store.total_balance_unlogged(), store.expected_total())
        .unwrap_or_else(|v| panic!("traced replay failed verification: {v}"));
    let offered = (spec.requests_per_thread * threads) as u64;
    assert_eq!(trace.done + trace.shed, offered, "every request is served or shed");
    trace.store_digest = store_digest(store);
    trace.wal = backend.wal_trace();
    if backend.durable.is_some() {
        let _ = std::fs::remove_dir_all(wal_dir);
    }
    trace
}

/// One worker of the interleaved loop: `serve_schedule` with spans.
fn traced_serve_schedule(
    stm: &Stm,
    thread: ThreadId,
    backend: &dyn StoreBackend,
    schedule: &[ScheduledRequest],
    clock: &WallClock,
    epoch: Instant,
    spec: &ServeSpec,
) -> Trace {
    let (work, max_queue_depth) = (spec.work, spec.max_queue_depth);
    let store = backend.store();
    let mut t = Trace::default();
    t.queue_wait_ns.reserve(schedule.len());
    t.sojourn_ns.reserve(schedule.len());
    let mut i = 0;
    while i < schedule.len() {
        let sr = &schedule[i];
        let now = clock.now(thread);
        if sr.at > now {
            clock.wait_until(thread, sr.at);
        } else {
            let due = schedule[i..].partition_point(|s| s.at <= now);
            if due > max_queue_depth {
                t.shed += 1;
                i += 1;
                continue;
            }
        }
        let req = sr.req;
        let due_ns = sr.at * NANOS_PER_TICK;
        let read_only = req.txn_kind() == TxnKind::ReadOnly;
        let (mut attempts, mut body_ns, mut last_body_ns) = (0u64, 0u64, 0u64);
        let begin = ns(epoch);
        let mut body = |tx: &mut gstm_core::Txn<'_>| {
            let entered = ns(epoch);
            tx.work(work);
            let result = store.apply(tx, &req);
            attempts += 1;
            last_body_ns = ns(epoch) - entered;
            body_ns += last_body_ns;
            result
        };
        if read_only {
            stm.run_read_only(thread, req.site(), &mut body);
        } else {
            stm.run(thread, req.site(), &mut body);
        }
        let committed = ns(epoch);
        backend.on_commit(stm.last_commit_seq(thread), &req);
        let logged = ns(epoch);

        t.done += 1;
        t.attempts += attempts;
        if read_only {
            t.done_ro += 1;
            t.attempts_ro += attempts;
        }
        t.txn_ns += committed - begin;
        t.body_ns += body_ns;
        t.wasted_ns += body_ns - last_body_ns;
        t.on_commit_ns += logged - committed;
        t.queue_wait_ns.push(begin.saturating_sub(due_ns));
        t.sojourn_ns.push(logged.saturating_sub(due_ns));
        i += 1;
    }
    let draining = ns(epoch);
    backend.flush();
    t.flush_ns = ns(epoch) - draining;
    t.flushes = 1;
    t
}

fn replay_interleaved(
    spec: &ServeSpec,
    threads: usize,
    seed: u64,
    backend: &Arc<dyn StoreBackend>,
) -> Trace {
    let traffic = traffic(spec);
    let schedules: Vec<Vec<ScheduledRequest>> =
        (0..threads).map(|t| generate_schedule(&traffic, seed, t)).collect();
    let stm = engine(spec, threads);
    // The span epoch precedes the clock's, so a request the clock calls
    // due is never early on the span timeline.
    let epoch = Instant::now();
    let clock = WallClock::new(NANOS_PER_TICK);
    let workers: Vec<Trace> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(t, schedule)| {
                let (stm, clock) = (&stm, &clock);
                let thread = ThreadId::new(t as u16);
                scope.spawn(move || {
                    traced_serve_schedule(
                        stm,
                        thread,
                        backend.as_ref(),
                        schedule,
                        clock,
                        epoch,
                        spec,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("traced serve worker panicked")).collect()
    });
    let mut trace = Trace { elapsed_ns: ns(epoch), ..Trace::default() };
    for w in workers {
        trace.merge_worker(w);
    }
    trace
}

fn initial_state(keys: u64) -> BTreeMap<u64, Entry> {
    (0..keys).map(|k| (k, Entry { balance: INITIAL_BALANCE, blob: 0 })).collect()
}

/// The native block loop with spans: merged order, a block executes once
/// its last request has arrived, then its write sets commit serially
/// through the engine.
fn replay_block(
    spec: &ServeSpec,
    block_size: usize,
    threads: usize,
    seed: u64,
    backend: &Arc<dyn StoreBackend>,
) -> Trace {
    let cfg = BlockConfig::new(block_size, block_parts(spec))
        .unwrap_or_else(|e| panic!("invalid block config: {e}"));
    let merging = Instant::now();
    let order = merge_block_order(spec, threads, seed);
    let mut b = BlockTrace { merge_ns: ns(merging), ..BlockTrace::default() };
    let stm = engine(spec, threads);
    let epoch = Instant::now();
    let clock = WallClock::new(NANOS_PER_TICK);
    let store = backend.store();
    let t0 = ThreadId::new(0);
    let shadow: Arc<RwLock<BTreeMap<u64, Entry>>> = Arc::new(RwLock::new(initial_state(spec.keys)));
    let pool = BlockPool::new(threads);
    let mut t = Trace::default();
    let chunks: Vec<Arc<[ScheduledRequest]>> =
        order.chunks(block_size).map(|c| Arc::from(c.to_vec())).collect();
    for chunk in &chunks {
        clock.wait_until(t0, chunk.last().expect("chunks are non-empty").at);
        let keys = spec.keys;
        let block_shadow = Arc::clone(&shadow);
        let block_chunk = Arc::clone(chunk);
        let executing = ns(epoch);
        let outcome = execute_block_on(
            &pool,
            &cfg,
            chunk.len(),
            move |k: &u64| block_shadow.read().expect("shadow poisoned").get(k).copied(),
            move |i, ctx| apply_with(&block_chunk[i].req, keys, &mut |k| ctx.read(&k)),
        );
        let mut mark = ns(epoch);
        b.execute_ns += mark - executing;
        b.blocks += 1;
        b.stats.merge(&outcome.stats);
        for (i, sr) in chunk.iter().enumerate() {
            let writes = &outcome.txn_writes[i];
            let due_ns = sr.at * NANOS_PER_TICK;
            let begin = mark;
            let (mut attempts, mut body_ns, mut last_body_ns) = (0u64, 0u64, 0u64);
            stm.run(t0, sr.req.site(), |tx| {
                let entered = ns(epoch);
                tx.work(spec.work);
                let result = store.apply_writes(tx, writes);
                attempts += 1;
                last_body_ns = ns(epoch) - entered;
                body_ns += last_body_ns;
                result
            });
            let committed = ns(epoch);
            backend.on_commit(stm.last_commit_seq(t0), &sr.req);
            let logged = ns(epoch);
            if !writes.is_empty() {
                let mut s = shadow.write().expect("shadow poisoned");
                for &(k, e) in writes {
                    s.insert(k, e);
                }
            }
            mark = ns(epoch);

            t.done += 1;
            t.attempts += attempts;
            if sr.req.txn_kind() == TxnKind::ReadOnly {
                t.done_ro += 1;
                t.attempts_ro += attempts;
            }
            t.txn_ns += committed - begin;
            t.body_ns += body_ns;
            t.wasted_ns += body_ns - last_body_ns;
            t.on_commit_ns += logged - committed;
            t.queue_wait_ns.push(begin.saturating_sub(due_ns));
            t.sojourn_ns.push(logged.saturating_sub(due_ns));
            b.commit_ns += mark - begin;
            b.shadow_ns += mark - logged;
            b.formation_wait_ns.push(executing.saturating_sub(due_ns));
        }
        b.outputs.extend(outcome.outputs.iter().map(response_digest));
    }
    let draining = ns(epoch);
    backend.flush();
    t.flush_ns = ns(epoch) - draining;
    t.flushes = 1;
    t.elapsed_ns = ns(epoch);
    let entries: Vec<(u64, Entry)> =
        shadow.read().expect("shadow poisoned").iter().map(|(&k, &e)| (k, e)).collect();
    assert_eq!(
        fnv1a64(&encode_state(&entries)),
        store_digest(store),
        "speculative shadow state diverged from the committed store"
    );
    t.block = Some(b);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{native, Phase};
    use gstm_serve::{run_block_reference, run_native};

    /// A one-thread slice slow enough that nothing is ever shed, so the
    /// committed state is the serial replay of the schedule.
    fn slow_slice(name: &str) -> ServeSpec {
        let w = native(name).unwrap();
        let phase = Phase { rate: 20e3, max_queue_depth: 1 << 20, slice_seconds: 0.05 };
        let mut spec = w.slice_spec(&phase);
        spec.requests_per_thread = 600;
        spec
    }

    fn test_dir(tag: &str) -> std::path::PathBuf {
        crate::host::work_dir().join(format!("traced-test-{tag}"))
    }

    /// The mirrored loops are only worth their spans while they do what
    /// the product's loops do: same completions, same final state.
    #[test]
    fn replay_matches_run_native_on_one_thread() {
        for name in ["serve_hot", "serve_durable", "serve_block"] {
            let spec = slow_slice(name);
            let product = run_native(&spec, 1, 7, NANOS_PER_TICK, 0);
            let trace = replay(&spec, 1, 7, &test_dir(name));
            let reference = run_block_reference(&spec, 1, 7);
            assert_eq!(product.done, 600, "{name}: run_native serves everything");
            assert_eq!((trace.done, trace.shed), (product.done, product.shed), "{name}: done");
            assert_eq!(trace.done_ro, product.done_ro, "{name}: read-only split");
            assert_eq!(trace.store_digest, reference.final_digest, "{name}: final state");
            assert_eq!(trace.sojourn_ns.len(), 600);
            if let Some(block) = &product.block {
                let mine = trace.block.as_ref().expect("block replay carries block spans");
                assert_eq!(block.record.final_digest, trace.store_digest, "{name}: block state");
                assert_eq!(block.record.outputs, mine.outputs, "{name}: block outputs");
                assert_eq!(block.blocks, mine.blocks);
            }
        }
    }

    #[test]
    fn spans_tile_the_sojourn() {
        let spec = slow_slice("serve_durable");
        let t = replay(&spec, 2, 3, &test_dir("tile"));
        let sojourn: u64 = t.sojourn_ns.iter().sum();
        let parts = t.queue_wait_ns.iter().sum::<u64>() + t.txn_ns + t.on_commit_ns;
        assert_eq!(sojourn, parts, "queue wait + txn + on_commit is the sojourn");
        assert!(t.body_ns <= t.txn_ns && t.wasted_ns <= t.body_ns);
        assert!(t.attempts >= t.done);
        let wal = t.wal.expect("durable replay carries WAL counters");
        assert_eq!(wal.stats.appended, t.done, "one record per commit");
        assert!(wal.device_bytes >= 45 * t.done, "25-byte payload + 20-byte frame per record");
    }
}
