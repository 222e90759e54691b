//! Ordered block execution over the store ([`ServeMode::Block`],
//! DESIGN.md §6h).
//!
//! The per-thread open-loop schedules are merged into one **global
//! arrival order** (a pure function of `(spec, streams, seed)`), chopped
//! into blocks of `block_size`, and each block runs through the `gstm-block`
//! executor as a stream: a transaction executes — speculatively, in
//! parallel, with an outcome byte-identical to sequential execution of the
//! block order at any worker-thread count — once its request is due, and
//! commits once the prefix of its block has settled: the lane that settles
//! it publishes its final write set through one engine transaction. One
//! commit sequence number per transaction, in block order, read-only
//! requests included, so a durable backend's WAL stays exactly as gap-free
//! as under the interleaved loop.
//!
//! Every lane here runs the store's one interpreter
//! ([`crate::store::interpret`]) over a different substrate:
//!
//! * the **speculative** body ([`apply_with`]: reads through the block's
//!   multi-version map and may suspend on an estimate; writes are
//!   collected into the transaction's write set),
//! * the **sequential reference** ([`run_block_reference`] — a
//!   [`Materializer`], no STM, no scheduler: the oracle's ground truth),
//! * the **pure parallel runner** ([`execute_block_order`] — executor
//!   without the engine, used by the determinism smoke to compare thread
//!   counts cheaply).
//!
//! The state between blocks (the speculative base) is a [`Materializer`]
//! too, so the reference and the parallel lanes digest the same type.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use gstm_block::{execute_block, stream_block_on, BlockConfig, BlockHooks, BlockPool, BlockStats};
use gstm_check::BlockRecord;
use gstm_core::{RealGate, Stm, ThreadId};
use gstm_wal::fnv1a64;

use crate::backend::{store_digest, Materializer, StoreBackend};
use crate::service::{
    spine_config, NativeReport, ServeClock, ServeMode, ServeSpec, ThreadLog, WallClock,
};
use crate::store::{interpret, Entry, EntryAccess, Request, Response};
use crate::traffic::{generate_schedule, ScheduledRequest};

/// Block-mode extras carried in a [`NativeReport`]: the run's digests
/// (comparable against [`run_block_reference`] by the schedule-invariance
/// oracle) plus the executor's counters.
#[derive(Clone, Debug)]
pub struct BlockModeReport {
    /// Per-transaction output digests and the final state digest.
    pub record: BlockRecord,
    /// Merged executor counters across all blocks.
    pub stats: BlockStats,
    /// Blocks executed.
    pub blocks: u64,
}

/// Executes one request against an abstract read, returning the write set
/// (final entries, in the order the interpreter issued them) and the
/// response: [`interpret`] over a substrate that reads through `read` and
/// collects writes instead of applying them. Collected writes are not
/// visible to later reads — sound because no request kind reads a key it
/// has already written.
///
/// # Errors
///
/// Propagates the read's error (the speculative body's `Blocked`).
pub fn apply_with<E>(
    req: &Request,
    keys: u64,
    read: &mut dyn FnMut(u64) -> Result<Option<Entry>, E>,
) -> Result<(Vec<(u64, Entry)>, Response), E> {
    struct Collect<'r, E> {
        read: &'r mut dyn FnMut(u64) -> Result<Option<Entry>, E>,
        writes: Vec<(u64, Entry)>,
    }
    impl<E> EntryAccess for Collect<'_, E> {
        type Err = E;
        fn read(&mut self, key: u64) -> Result<Option<Entry>, E> {
            (self.read)(key)
        }
        fn write(&mut self, key: u64, entry: Entry) -> Result<(), E> {
            self.writes.push((key, entry));
            Ok(())
        }
    }
    let mut access = Collect { read, writes: Vec::new() };
    let resp = interpret(req, keys, &mut access)?;
    Ok((access.writes, resp))
}

/// Canonical response encoding for digesting: kind byte, a flag byte, two
/// 8-byte words. Distinct responses encode distinctly.
fn encode_response(resp: &Response) -> [u8; 18] {
    let (kind, flag, a, b) = match *resp {
        Response::Value(None) => (0u8, 0u8, 0u64, 0u64),
        Response::Value(Some(e)) => (0, 1, e.balance as u64, e.blob),
        Response::Ok => (1, 0, 0, 0),
        Response::Swapped(s) => (2, s as u8, 0, 0),
        Response::Transferred(t) => (3, t as u8, 0, 0),
        Response::ScanSum { count, sum } => (4, 0, count, sum as u64),
        Response::Many { found, sum } => (5, 0, u64::from(found), sum as u64),
    };
    let mut out = [0u8; 18];
    out[0] = kind;
    out[1] = flag;
    out[2..10].copy_from_slice(&a.to_le_bytes());
    out[10..18].copy_from_slice(&b.to_le_bytes());
    out
}

/// FNV digest of a response's canonical encoding — the unit the block
/// oracle compares.
pub fn response_digest(resp: &Response) -> u64 {
    fnv1a64(&encode_response(resp))
}

/// Merges `streams` per-thread schedules into the global block order:
/// by `(arrival tick, stream, position)`. A pure function of
/// `(spec, streams, seed)` — the fixed serial order every execution of
/// this traffic must reproduce. Each schedule is sorted by arrival, so the
/// next request is the lowest head (`min_by_key` keeps the lowest stream's).
pub fn merge_block_order(spec: &ServeSpec, streams: usize, seed: u64) -> Vec<ScheduledRequest> {
    let traffic = spec.traffic();
    let mut heads: Vec<_> =
        (0..streams).map(|t| generate_schedule(&traffic, seed, t).into_iter().peekable()).collect();
    let mut order = Vec::with_capacity(heads.iter().map(ExactSizeIterator::len).sum());
    while let Some((_, head)) =
        heads.iter_mut().filter_map(|h| Some((h.peek()?.at, h))).min_by_key(|&(at, _)| at)
    {
        order.extend(head.next());
    }
    order
}

/// The multi-version map stripe count a spec implies: one stripe per
/// store bucket (the spec's conflict granularity), clamped to the
/// executor's cap.
pub fn block_parts(spec: &ServeSpec) -> usize {
    (spec.shards * spec.buckets_per_shard).clamp(1, BlockConfig::MAX_PARTS)
}

/// The sequential reference: executes the merged order one transaction at
/// a time against a [`Materializer`] — no STM, no scheduler, no
/// speculation. This is the oracle's ground truth for schedule invariance.
pub fn run_block_reference(spec: &ServeSpec, streams: usize, seed: u64) -> BlockRecord {
    let mut state = Materializer::initial(spec.keys);
    let outputs = merge_block_order(spec, streams, seed)
        .iter()
        .map(|sr| {
            let Ok(resp) = interpret(&sr.req, spec.keys, &mut state);
            response_digest(&resp)
        })
        .collect();
    BlockRecord { outputs, final_digest: state.digest() }
}

/// The pure parallel runner: the block executor over the merged order,
/// with no engine underneath — block by block, `exec_threads` workers.
/// Used by the oracle test and the CI determinism smoke to compare thread
/// counts without paying for STM commits.
///
/// # Panics
///
/// Panics if the spec's mode is not [`ServeMode::Block`].
pub fn execute_block_order(
    spec: &ServeSpec,
    streams: usize,
    seed: u64,
    exec_threads: usize,
) -> (BlockRecord, BlockStats) {
    let ServeMode::Block { block_size } = spec.mode else {
        panic!("execute_block_order needs a ServeMode::Block spec")
    };
    let cfg = BlockConfig::new(block_size, block_parts(spec))
        .unwrap_or_else(|e| panic!("invalid block config: {e}"));
    let order = merge_block_order(spec, streams, seed);
    let mut state = Materializer::initial(spec.keys);
    let mut outputs = Vec::with_capacity(order.len());
    let mut stats = BlockStats::default();
    for chunk in order.chunks(block_size) {
        let outcome = execute_block(
            &cfg,
            chunk.len(),
            exec_threads,
            |k: &u64| state.get(*k),
            |i, ctx| apply_with(&chunk[i].req, spec.keys, &mut |k| ctx.read(&k)),
        );
        stats.merge(&outcome.stats);
        for (k, e) in outcome.final_writes {
            state.set(k, e);
        }
        outputs.extend(outcome.outputs.iter().map(response_digest));
    }
    (BlockRecord { outputs, final_digest: state.digest() }, stats)
}

/// What every block of a native run shares with the lanes that execute
/// it. `seen` is the clock reading of the latest commit: under backlog it
/// already says the next request is due, without another reading.
struct Run {
    stm: Stm,
    backend: Arc<dyn StoreBackend>,
    clock: WallClock,
    seen: AtomicU64,
    log: ThreadLog,
    order: Vec<ScheduledRequest>,
    spec: ServeSpec,
}

/// The one engine thread id every commit of a run uses. The commits come
/// from whichever lane holds the executor's validation cursor, so the id
/// is handed from lane to lane; that is sound because the `validating`
/// flag (SeqCst) orders the calls — one lane's commit happens before the
/// next lane's, so the words the engine and the gate keep per thread id
/// still have one writer at a time — and the rest of what is kept per id
/// is an atomic or behind a lock.
fn t0() -> ThreadId {
    ThreadId::new(0)
}

/// One block of a [`Run`]: the requests from `order[start]` on.
struct Streamed {
    run: Arc<Run>,
    start: usize,
}

impl BlockHooks<u64, Entry, Response> for Streamed {
    /// Transaction `i` may run once request `i` is due. A request about to
    /// be due is waited for here: the lane has already claimed it, and
    /// answering `false` would cost it a yield the arrival falls into.
    fn admit(&self, i: usize) -> bool {
        let Run { clock, seen, order, .. } = &*self.run;
        let at = order[self.start + i].at;
        at <= seen.load(Ordering::Relaxed) || clock.wait_if_near(t0(), at)
    }

    /// Commits transaction `i` through the engine and replies.
    fn settle(&self, i: usize, writes: &[(u64, Entry)], _: &Response) {
        let Run { stm, backend, clock, seen, log, order, spec } = &*self.run;
        let sr = &order[self.start + i];
        // Empty write sets (read-only requests) ride the engine's read-only
        // commit fast path — which still claims a commit sequence number,
        // keeping the WAL prefix dense.
        let mut aborts = 0;
        stm.run(t0(), sr.req.site(), |tx| {
            aborts = tx.attempt();
            tx.work(spec.work);
            backend.store().apply_writes(tx, writes)
        });
        backend.on_commit(stm.last_commit_seq(t0()), &sr.req);
        let now = clock.now(t0());
        seen.store(now, Ordering::Relaxed);
        log.served(&sr.req, now.saturating_sub(sr.at), aborts);
    }
}

/// The native block-mode run behind [`crate::run_native`]: merged global
/// order in fixed chunks of `block_size`, each chunk a **stream** — a
/// transaction executes (speculatively, in parallel) once its request is
/// due and commits through the engine once the block's prefix up to it has
/// settled, in block order: one commit sequence number per transaction, so
/// a durable backend logs exactly what the interleaved loop would. Nothing
/// waits for a block to fill; the boundary only says which requests share
/// one multi-version map.
///
/// Backpressure shedding does not apply: every request has its guaranteed
/// slot in the serial order (`shed` is always 0).
///
/// # Panics
///
/// Panics if verification fails: conserved totals, and the speculative
/// shadow state diverging from the committed store.
pub(crate) fn run_native_block(
    spec: &ServeSpec,
    block_size: usize,
    threads: usize,
    seed: u64,
    nanos_per_tick: u64,
    yield_every: u32,
    backend: Arc<dyn StoreBackend>,
) -> NativeReport {
    let cfg = BlockConfig::new(block_size, block_parts(spec))
        .unwrap_or_else(|e| panic!("invalid block config: {e}"));
    let order = merge_block_order(spec, threads, seed);
    let run = Arc::new(Run {
        stm: Stm::new_on(spine_config(spec, threads), Arc::new(RealGate::new(yield_every))),
        backend,
        clock: WallClock::new(nanos_per_tick),
        seen: AtomicU64::new(0),
        log: ThreadLog::default(),
        order,
        spec: spec.clone(),
    });
    // The shadow is the speculative base state: block N+1 reads block N's
    // settled writes from here while the engine holds the same values
    // transactionally. The two are compared at the end. It lives behind a
    // lock because the pool's workers (which outlive any one block) read
    // it while executing; this loop holds the only write access and only
    // touches it between blocks.
    let shadow = Arc::new(RwLock::new(Materializer::initial(spec.keys)));
    // One persistent worker pool for the whole run: spawning threads per
    // block would cost more than executing a small block does.
    let pool = BlockPool::new(threads);
    let mut outputs = Vec::with_capacity(run.order.len());
    let mut stats = BlockStats::default();
    let mut blocks = 0u64;
    for start in (0..run.order.len()).step_by(block_size) {
        let block_shadow = Arc::clone(&shadow);
        let body = Arc::clone(&run);
        let outcome = stream_block_on(
            &pool,
            &cfg,
            block_size.min(run.order.len() - start),
            move |k: &u64| block_shadow.read().expect("shadow poisoned").get(*k),
            move |i, ctx| {
                apply_with(&body.order[start + i].req, body.spec.keys, &mut |k| ctx.read(&k))
            },
            Streamed { run: Arc::clone(&run), start },
        );
        blocks += 1;
        stats.merge(&outcome.stats);
        // The block's net effect in one go: nothing reads the shadow
        // between blocks, so per-transaction order does not matter here.
        outputs.extend(outcome.outputs.iter().map(response_digest));
        let mut settled = shadow.write().expect("shadow poisoned");
        for (k, e) in outcome.final_writes {
            settled.set(k, e);
        }
    }
    let Run { stm, backend, clock, log, .. } = &*run;
    let store = backend.store();
    backend.flush();
    let final_digest = shadow.read().expect("shadow poisoned").digest();
    if let Err(v) =
        gstm_check::check_conserved_total(store.total_balance_unlogged(), store.expected_total())
    {
        panic!("native block run failed verification: {v}");
    }
    assert_eq!(
        final_digest,
        store_digest(store),
        "speculative shadow state diverged from the committed store"
    );
    NativeReport {
        done: log.done.load(Ordering::Relaxed),
        done_ro: log.done_ro.load(Ordering::Relaxed),
        shed: 0,
        sojourn: log.sojourn.snapshot(),
        sojourn_ro: log.sojourn_ro.snapshot(),
        elapsed_ticks: clock.now(t0()),
        mvcc: stm.mvcc_stats(),
        sites: log.site_rows(t0()).collect(),
        block: Some(BlockModeReport {
            record: BlockRecord { outputs, final_digest },
            stats,
            blocks,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DurableBackend;
    use crate::service::run_native;
    use crate::store::ShardedStore;
    use crate::traffic::{Arrival, Mix};
    use gstm_check::check_block_equivalence;
    use gstm_wal::WalConfig;

    fn block_spec(requests: usize, block_size: usize) -> ServeSpec {
        ServeSpec::ledger(requests)
            .with_arrival(Arrival::Poisson { mean_gap: 20.0 })
            .with_block_mode(block_size)
    }

    #[test]
    fn response_digests_distinguish_kinds_and_payloads() {
        let responses = [
            Response::Value(None),
            Response::Value(Some(Entry { balance: 0, blob: 0 })),
            Response::Ok,
            Response::Swapped(false),
            Response::Swapped(true),
            Response::Transferred(false),
            Response::Transferred(true),
            Response::ScanSum { count: 0, sum: 0 },
            Response::Many { found: 0, sum: 0 },
        ];
        let mut digests: Vec<u64> = responses.iter().map(response_digest).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), responses.len(), "all distinct responses digest distinctly");
    }

    #[test]
    fn merged_order_is_sorted_deterministic_and_complete() {
        let spec = block_spec(60, 16);
        let a = merge_block_order(&spec, 3, 7);
        assert_eq!(a, merge_block_order(&spec, 3, 7), "pure function of (spec, streams, seed)");
        assert_eq!(a.len(), 3 * 60, "every stream's request is in the order");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "global order is by arrival");
        assert_ne!(a, merge_block_order(&spec, 3, 8), "seed changes the order");
    }

    /// The merge gives exactly the order of sorting the union of the
    /// per-stream schedules by `(arrival tick, stream, position)`.
    #[test]
    fn merged_order_is_the_sort_of_the_tagged_union() {
        use crate::traffic::Drift;
        // A mean gap under one tick makes arrival ties common.
        let drifting = Drift { theta_end: 0.2, phases: 4, hotspot_step: 16 };
        let arrivals = [
            (Arrival::Poisson { mean_gap: 3.0 }, None),
            (Arrival::Bursty { mean_gap: 3.0, burst: 8 }, None),
            (Arrival::Poisson { mean_gap: 0.4 }, Some(drifting)),
        ];
        for base in [ServeSpec::hot(40), ServeSpec::wide(40), ServeSpec::ledger(40)] {
            for streams in [1, 2, 3, 8] {
                for (arrival, drift) in arrivals {
                    for seed in 0..20 {
                        let mut spec = base.clone().with_arrival(arrival);
                        if let Some(drift) = drift {
                            spec = spec.with_drift(drift);
                        }
                        let mut tagged: Vec<(u64, usize, usize, Request)> = (0..streams)
                            .flat_map(|t| {
                                generate_schedule(&spec.traffic(), seed, t)
                                    .into_iter()
                                    .enumerate()
                                    .map(move |(i, sr)| (sr.at, t, i, sr.req))
                            })
                            .collect();
                        tagged.sort_by_key(|&(at, t, i, _)| (at, t, i));
                        let sorted: Vec<ScheduledRequest> = tagged
                            .into_iter()
                            .map(|(at, _, _, req)| ScheduledRequest { at, req })
                            .collect();
                        assert_eq!(
                            merge_block_order(&spec, streams, seed),
                            sorted,
                            "{} x{streams} {arrival:?} seed {seed}",
                            spec.cache_key()
                        );
                    }
                }
            }
        }
    }

    /// The block order and what the reference computes over it, pinned:
    /// `experiments block-smoke` compares two lanes that share one order,
    /// so a changed order would pass it.
    #[test]
    fn block_reference_at_seed_11_is_pinned() {
        let record = run_block_reference(&ServeSpec::ledger(200).with_block_mode(32), 2, 11);
        let bytes: Vec<u8> = record.outputs.iter().flat_map(|d| d.to_le_bytes()).collect();
        assert_eq!(record.outputs.len(), 400);
        assert_eq!(record.final_digest, 0x081e_6a01_cb7b_a14b);
        assert_eq!(fnv1a64(&bytes), 0x759a_af2c_6583_2d9f);
    }

    /// The tentpole oracle: parallel block output is byte-identical to
    /// sequential same-order execution at every thread count.
    #[test]
    fn block_execution_is_schedule_invariant_across_thread_counts() {
        // The ledger shape maximizes write-write dependency chains; a
        // tight mean gap packs conflicting transfers into every block.
        let mut spec = block_spec(80, 32);
        spec.keys = 16; // few accounts → dense conflicts
        let reference = run_block_reference(&spec, 2, 11);
        assert!(!reference.outputs.is_empty());
        let parallel: Vec<(usize, BlockRecord)> = [1, 2, 4, 8]
            .into_iter()
            .map(|threads| (threads, execute_block_order(&spec, 2, 11, threads).0))
            .collect();
        let report = check_block_equivalence(&reference, &parallel);
        assert!(report.ok(), "schedule invariance violated: {}", report.summary());
        assert!(!report.is_vacuous());
        // Whether re-executions actually fire here is timing-dependent
        // (a block this small is usually over before a helper arrives);
        // the conflict paths themselves are driven hard by the gstm-block
        // unit tests.
    }

    #[test]
    fn native_block_run_matches_the_sequential_reference() {
        let spec = block_spec(50, 16);
        for threads in [1, 2, 4] {
            let report = run_native(&spec, threads, 9, 50, 64);
            assert_eq!(report.done, threads as u64 * 50);
            assert_eq!(report.shed, 0, "block mode never sheds");
            assert!(report.done_ro > 0, "the ledger mix has balance checks");
            let block = report.block.expect("block-mode report carries the record");
            assert_eq!(block.blocks, (threads as u64 * 50).div_ceil(16), "fixed chunks");
            assert_eq!(block.stats.executions, threads as u64 * 50 + block.stats.re_executions);
            let reference = run_block_reference(&spec, threads, 9);
            assert_eq!(block.record, reference, "native run diverged at {threads} threads");
        }
    }

    /// The property the stream buys: a request is served when it arrives,
    /// not when the 64th request of its block has. Two streams at one
    /// request per 200 µs each fill a block in 6.4 ms; waiting for that
    /// put the median sojourn at half of it.
    #[test]
    fn a_request_does_not_wait_for_its_block_to_fill() {
        let spec = ServeSpec::ledger(160)
            .with_arrival(Arrival::Poisson { mean_gap: 200.0 })
            .with_block_mode(64);
        let report = run_native(&spec, 2, 9, 1_000, 0);
        assert_eq!(report.done, 2 * 160);
        let formation_ticks = 64.0 * 200.0 / 2.0;
        let p50 = report.sojourn.p(0.5);
        assert!(
            p50 < formation_ticks / 4.0,
            "median sojourn {p50} µs against {formation_ticks} µs to fill a block"
        );
        let block = report.block.expect("block-mode report carries the record");
        assert_eq!(block.blocks, 5);
        assert_eq!(block.record, run_block_reference(&spec, 2, 9));
    }

    /// Hooks that hand everything on to a [`Streamed`] and blow up on an
    /// admission granted before its request was due.
    struct DueProbe {
        inner: Streamed,
        admitted: Arc<AtomicU64>,
    }

    impl BlockHooks<u64, Entry, Response> for DueProbe {
        fn admit(&self, i: usize) -> bool {
            let admitted = self.inner.admit(i);
            if admitted {
                let Run { clock, order, .. } = &*self.inner.run;
                let (now, at) = (clock.now(t0()), order[self.inner.start + i].at);
                assert!(now >= at, "request {i}, due at tick {at}, was admitted at tick {now}");
                self.admitted.fetch_add(1, Ordering::Relaxed);
            }
            admitted
        }

        fn settle(&self, i: usize, writes: &[(u64, Entry)], output: &Response) {
            self.inner.settle(i, writes, output);
        }
    }

    /// Waiting in `admit` for a request that is nearly due must not turn
    /// into admitting it early: 200 requests ≈ 10 µs apart, so the lane
    /// meets arrivals that are far off, inside the spin window and overdue.
    #[test]
    fn a_request_is_never_admitted_before_it_is_due() {
        let spec = block_spec(100, 256);
        let run = Arc::new(Run {
            stm: Stm::new_on(spine_config(&spec, 2), Arc::new(RealGate::new(0))),
            backend: Arc::new(crate::backend::EphemeralBackend::new(ShardedStore::new(
                spec.shards,
                spec.buckets_per_shard,
                spec.keys,
            ))),
            clock: WallClock::new(1_000),
            seen: AtomicU64::new(0),
            log: ThreadLog::default(),
            order: merge_block_order(&spec, 2, 9),
            spec: spec.clone(),
        });
        let admitted = Arc::new(AtomicU64::new(0));
        let (base, body) = (Materializer::initial(spec.keys), Arc::clone(&run));
        let outcome = stream_block_on(
            &BlockPool::new(2),
            &BlockConfig::new(256, block_parts(&spec)).expect("valid config"),
            200,
            move |k: &u64| base.get(*k),
            move |i, ctx| apply_with(&body.order[i].req, body.spec.keys, &mut |k| ctx.read(&k)),
            DueProbe {
                inner: Streamed { run: Arc::clone(&run), start: 0 },
                admitted: admitted.clone(),
            },
        );
        assert_eq!(admitted.load(Ordering::Relaxed), 200, "each request admitted exactly once");
        assert_eq!(run.log.done.load(Ordering::Relaxed), 200);
        let outputs: Vec<u64> = outcome.outputs.iter().map(response_digest).collect();
        assert_eq!(outputs, run_block_reference(&spec, 2, 9).outputs);
    }

    /// Block mode's per-site table comes from the run's one log; a
    /// `SiteStatsSink` listening to the same engine tallies the same rows:
    /// one commit per request at its kind's site, all under the one engine
    /// thread id the lanes hand round.
    #[test]
    fn sites_from_the_log_are_the_rows_a_sink_on_the_same_engine_tallies() {
        use gstm_core::{cm::Aggressive, AdmitAll, SiteStatsSink};
        let spec = block_spec(100, 256);
        let sink = Arc::new(SiteStatsSink::new());
        let run = Arc::new(Run {
            stm: Stm::with_parts(
                spine_config(&spec, 2),
                Arc::new(RealGate::new(0)),
                Arc::clone(&sink) as Arc<dyn gstm_core::EventSink>,
                Arc::new(AdmitAll),
                Arc::new(Aggressive),
            ),
            backend: Arc::new(crate::backend::EphemeralBackend::new(ShardedStore::new(
                spec.shards,
                spec.buckets_per_shard,
                spec.keys,
            ))),
            clock: WallClock::new(1),
            seen: AtomicU64::new(0),
            log: ThreadLog::default(),
            order: merge_block_order(&spec, 2, 9),
            spec: spec.clone(),
        });
        let (base, body) = (Materializer::initial(spec.keys), Arc::clone(&run));
        stream_block_on(
            &BlockPool::new(2),
            &BlockConfig::new(256, block_parts(&spec)).expect("valid config"),
            200,
            move |k: &u64| base.get(*k),
            move |i, ctx| apply_with(&body.order[i].req, body.spec.keys, &mut |k| ctx.read(&k)),
            Streamed { run: Arc::clone(&run), start: 0 },
        );
        let sites: std::collections::BTreeMap<_, _> = run.log.site_rows(t0()).collect();
        assert_eq!(sites, sink.snapshot());
        for kind in Request::one_of_each_kind() {
            let served = run.order.iter().filter(|sr| sr.req.site() == kind.site()).count();
            let who = gstm_core::Participant::new(t0(), kind.site());
            let commits = sites.get(&who).map_or(0, |s| s.commits);
            assert_eq!(commits, served as u64, "{}", kind.kind());
        }
        assert_eq!(sites.values().map(|s| s.commits).sum::<u64>(), 200);
    }

    /// A durable backend that also notes which OS threads committed.
    struct LaneProbe {
        inner: DurableBackend,
        committers: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    }

    impl StoreBackend for LaneProbe {
        fn store(&self) -> &ShardedStore {
            self.inner.store()
        }
        fn label(&self) -> &'static str {
            self.inner.label()
        }
        fn on_commit(&self, seq: u64, req: &Request) {
            self.committers.lock().unwrap().insert(std::thread::current().id());
            self.inner.on_commit(seq, req);
        }
        fn flush(&self) {
            self.inner.flush();
        }
    }

    /// One engine thread id, handed from lane to lane under the executor's
    /// validation flag: blocks long enough (and all due at once) that the
    /// helper is asked in, so both lanes commit — and the log still reads
    /// as one serial committer's.
    #[test]
    fn durable_block_run_keeps_the_wal_prefix_dense() {
        let spec = block_spec(2048, 256);
        let (inner, _log_dev, _snap_dev) = DurableBackend::in_memory(
            ShardedStore::new(spec.shards, spec.buckets_per_shard, spec.keys),
            WalConfig::new(),
        );
        let backend = Arc::new(LaneProbe { inner, committers: Default::default() });
        let report = run_native_block(
            &spec,
            256,
            2,
            5,
            1,
            64,
            Arc::clone(&backend) as Arc<dyn StoreBackend>,
        );
        assert_eq!(report.done, 2 * 2048);
        assert_eq!(backend.committers.lock().unwrap().len(), 2, "both lanes held the cursor");
        let ledger = backend.inner.ledger();
        assert_eq!(ledger.len(), 2 * 2048, "every commit (read-only included) was logged");
        for (i, (seq, _)) in ledger.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1, "commit sequence numbers are dense from 1");
        }
        // The logged order is the block order: replaying the ledger
        // serially reproduces the committed store.
        let mut m = Materializer::initial(spec.keys);
        for (_, req) in ledger {
            m.apply(&req);
        }
        assert_eq!(m.digest(), store_digest(backend.store()));
    }

    #[test]
    fn read_mostly_block_runs_settle_in_one_wave_mostly() {
        // A wide read-mostly shape: block execution should see almost no
        // conflicts — waves stay near one per block.
        let mut spec = ServeSpec::wide(40)
            .with_mix(Mix::mvcc_read())
            .with_arrival(Arrival::Poisson { mean_gap: 20.0 })
            .with_block_mode(32);
        spec.keys = 512;
        let (record, stats) = execute_block_order(&spec, 2, 3, 4);
        assert_eq!(record.outputs.len(), 2 * 40);
        let blocks = (2 * 40usize).div_ceil(32) as u64;
        assert!(stats.waves <= blocks * 3, "read-mostly traffic should cascade rarely: {stats:?}");
    }

    #[test]
    #[should_panic(expected = "native-only")]
    fn simulated_block_mode_is_rejected_loudly() {
        let spec = block_spec(10, 4);
        let _ = crate::service::ServeRun::new(spec, 2, 1);
    }

    #[test]
    fn cache_key_gets_an_append_only_mode_suffix() {
        let key = ServeSpec::ledger(100).cache_key();
        assert!(!key.contains("mode="), "default key must be unchanged: {key}");
        let block = ServeSpec::ledger(100).with_block_mode(64).cache_key();
        assert!(block.ends_with(";mode=block(bs=64)"), "unexpected key: {block}");
        assert_ne!(key, block);
        assert_ne!(
            block,
            ServeSpec::ledger(100).with_block_mode(128).cache_key(),
            "block size feeds the key"
        );
    }
}
