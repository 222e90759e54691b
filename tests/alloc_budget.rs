//! Heap allocations per served request, counted on the serving thread.
//!
//! The engine the native service builds (`Stm::new_on` a `RealGate`: no
//! event sink, every transaction admitted, `Aggressive`) replays a schedule
//! of one request kind through `serve_schedule` on an ephemeral store. Once
//! the thread's transaction buffers exist, a read costs no allocation at
//! all — the per-site tallies live in the `ThreadLog`'s fixed array — and an
//! update costs two per written key: the new bucket and the `Arc` the redo
//! log holds it in. The durable backend's commit hook adds none of its own
//! between group commits.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use gstm::core::{RealGate, Stm, StmConfig, ThreadId};
use gstm::serve::{
    serve_schedule, DurableBackend, EphemeralBackend, Request, ScheduledRequest, ServeSpec,
    ShardedStore, StoreBackend, ThreadLog, WallClock,
};
use gstm::wal::WalConfig;

thread_local! {
    /// Allocations made by this thread (reallocations included).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls per thread.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a `const`-initialised thread-local
// `Cell<u64>` with no destructor, so touching it neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const REQUESTS: u64 = 200;

/// Allocations per request of `REQUESTS` requests, each built by `request`
/// from two distinct existing keys, after a warm-up pass over the same
/// schedule.
fn allocations_per_request(request: impl Fn(u64, u64) -> Request) -> f64 {
    let spec = ServeSpec::wide(REQUESTS as usize);
    let backend =
        EphemeralBackend::new(ShardedStore::new(spec.shards, spec.buckets_per_shard, spec.keys));
    let stm = Stm::new_on(StmConfig::new(1), Arc::new(RealGate::new(0)));
    // Everything is due at once and nothing is shed.
    let schedule: Vec<ScheduledRequest> = (0..REQUESTS)
        .map(|i| i * 37 % spec.keys)
        .map(|key| ScheduledRequest { at: 0, req: request(key, (key + 1) % spec.keys) })
        .collect();
    let spec = ServeSpec { max_queue_depth: schedule.len(), ..spec };
    let (clock, log) = (WallClock::new(10), ThreadLog::default());
    let serve = || {
        let before = ALLOCATIONS.with(Cell::get);
        serve_schedule(&stm, ThreadId::new(0), &backend, &schedule, &clock, &spec, &log);
        ALLOCATIONS.with(Cell::get) - before
    };
    serve();
    let counted = serve();
    assert_eq!(stm.commit_count(), 2 * REQUESTS, "every request of both passes committed");
    counted as f64 / REQUESTS as f64
}

#[test]
fn get_allocates_nothing() {
    assert_eq!(allocations_per_request(|key, _| Request::get(key)), 0.0);
}

#[test]
fn scan_of_eight_keys_allocates_nothing() {
    assert_eq!(allocations_per_request(|key, _| Request::scan(key, 8)), 0.0);
}

#[test]
fn put_allocates_the_new_bucket_and_its_arc() {
    let per_request = allocations_per_request(Request::put);
    assert!(per_request <= 2.0, "{per_request} allocations per Put");
}

#[test]
fn transfer_allocates_two_buckets_and_their_arcs() {
    let per_request = allocations_per_request(|from, to| Request::transfer(from, to, 1));
    assert!(per_request <= 4.0, "{per_request} allocations per Transfer");
}

/// A durable `on_commit` stages its record in the thread's WAL slot and
/// pushes it on the thread's ledger shard, in buffers that already exist.
/// It allocates only when it writes a group-commit batch (every
/// `batch_records`-th commit: the device grows, and every
/// `snapshot_every`-th builds a snapshot) or when the ledger shard doubles.
#[test]
fn durable_commit_allocates_only_at_group_commits_and_ledger_growth() {
    let cfg = WalConfig::new();
    let backend = DurableBackend::in_memory(ShardedStore::new(2, 4, 64), cfg).0;
    let commit = |seq: u64| {
        let before = ALLOCATIONS.with(Cell::get);
        backend.on_commit(seq, &Request::transfer(seq % 64, (seq + 1) % 64, 1));
        ALLOCATIONS.with(Cell::get) - before
    };
    // Warm-up: two snapshot intervals, so both of the slot's buffers, the
    // installer's scratch and the device mirrors have their capacity.
    let warm = 2 * cfg.snapshot_every;
    (1..=warm).map(commit).for_each(drop);
    let between_batches: Vec<u64> = (warm + 1..=4 * warm)
        .map(|seq| (seq, commit(seq)))
        .filter(|&(seq, allocations)| seq % cfg.batch_records as u64 != 0 && allocations > 0)
        .map(|(_, allocations)| allocations)
        .collect();
    // Entries 513..=2048 cross two doublings of the ledger shard (513, 1025).
    assert!(between_batches.len() <= 2, "commits that allocated: {between_batches:?}");
    assert!(between_batches.iter().all(|&n| n == 1), "more than a ledger reallocation");
}
