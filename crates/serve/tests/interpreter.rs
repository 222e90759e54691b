//! One interpreter, three substrates: the same requests must get the same
//! responses and leave the same state whether they run through
//! `ShardedStore::apply` (STM maps), a `Materializer` (plain map, WAL
//! replay) or `apply_with` inside the block executor (multi-version reads,
//! collected write sets).

use gstm_block::{execute_block, BlockConfig};
use gstm_collections::THashMap;
use gstm_core::rng::SmallRng;
use gstm_core::{Stm, StmConfig, ThreadId};
use gstm_serve::{
    apply_with, generate_schedule, interpret, recover_store, store_digest, DurableBackend, Entry,
    Materializer, Request, Response, ServeSpec, ShardedStore, StoreBackend, INITIAL_BALANCE,
    MAX_SCAN_LEN,
};
use gstm_wal::{LogDevice, WalConfig};

const KEYS: u64 = 8;

/// The table's pre-state: a fresh keyspace with key 3's blob set to 7.
fn pre_state() -> Entries {
    let mut m = Materializer::initial(KEYS);
    m.set(3, Entry { balance: INITIAL_BALANCE, blob: 7 });
    m.entries()
}

/// `(key, entry)` pairs in key order.
type Entries = Vec<(u64, Entry)>;

/// The entries a substrate wrote: what differs from the pre-state.
fn written(before: &[(u64, Entry)], after: &[(u64, Entry)]) -> Entries {
    assert_eq!(before.len(), after.len(), "no substrate creates or deletes keys");
    before.iter().zip(after).filter(|(b, a)| b != a).map(|(_, &a)| a).collect()
}

/// Runs `req` against the pre-state on each substrate; returns
/// `(substrate, response, entries written in key order)` triples.
fn on_every_substrate(req: &Request) -> [(&'static str, Response, Entries); 3] {
    let before = pre_state();

    let store = ShardedStore::from_entries(2, 4, KEYS, &before);
    let stm = Stm::new(StmConfig::new(1));
    let via_store = stm.run(ThreadId::new(0), req.site(), |tx| store.apply(tx, req));

    let mut m = Materializer::from_entries(KEYS, &before);
    let Ok(via_map) = interpret(req, KEYS, &mut m);

    let base = Materializer::from_entries(KEYS, &before);
    let Ok::<_, std::convert::Infallible>((mut writes, via_block)) =
        apply_with(req, KEYS, &mut |k| Ok(base.get(k)));
    writes.sort_by_key(|&(k, _)| k);

    [
        ("store", via_store, written(&before, &store.entries_unlogged())),
        ("materializer", via_map, written(&before, &m.entries())),
        ("apply_with", via_block, writes),
    ]
}

#[test]
fn literal_cases_hold_on_every_substrate() {
    let e = |balance, blob| Entry { balance, blob };
    let cases: Vec<(Request, Response, Entries)> = vec![
        (Request::get(3), Response::Value(Some(e(100, 7))), vec![]),
        (Request::get(99), Response::Value(None), vec![]),
        (Request::put(2, 5), Response::Ok, vec![(2, e(100, 5))]),
        (Request::put(99, 5), Response::Ok, vec![]),
        (Request::cas(3, 7, 9), Response::Swapped(true), vec![(3, e(100, 9))]),
        (Request::cas(3, 8, 9), Response::Swapped(false), vec![]),
        (Request::cas(99, 0, 9), Response::Swapped(false), vec![]),
        (
            Request::transfer(0, 1, 30),
            Response::Transferred(true),
            vec![(0, e(70, 0)), (1, e(130, 0))],
        ),
        (
            Request::transfer(3, 0, -30),
            Response::Transferred(true),
            vec![(0, e(70, 0)), (3, e(130, 7))],
        ),
        (Request::transfer(4, 4, 30), Response::Transferred(false), vec![]),
        (Request::transfer(0, 99, 30), Response::Transferred(false), vec![]),
        (Request::transfer(99, 0, 30), Response::Transferred(false), vec![]),
        // Regression: `balance -= amount` used to panic in debug builds and
        // wrap in release; an overflowing transfer is refused instead.
        (Request::transfer(0, 1, i64::MIN), Response::Transferred(false), vec![]),
        (Request::transfer(0, 1, i64::MAX), Response::Transferred(false), vec![]),
        (Request::scan(6, 4), Response::ScanSum { count: 4, sum: 400 }, vec![]),
        (Request::scan(0, 10_000), Response::ScanSum { count: 8, sum: 800 }, vec![]),
        (Request::scan(u64::MAX, 3), Response::ScanSum { count: 3, sum: 300 }, vec![]),
    ];
    for (req, want_resp, want_writes) in cases {
        for (substrate, resp, writes) in on_every_substrate(&req) {
            assert_eq!(resp, want_resp, "{substrate}: response for {req:?}");
            assert_eq!(writes, want_writes, "{substrate}: entries written by {req:?}");
        }
    }
}

/// A request drawn to hit the edges: keys past the keyspace (by a little and
/// by a lot), self-transfers, amounts at both `i64` limits, scan starts and
/// lengths at the `u64` limit.
fn random_request(rng: &mut SmallRng) -> Request {
    fn pick<T: Copy>(rng: &mut SmallRng, edges: &[T], common: T) -> T {
        if rng.gen_bool(0.15) {
            edges[rng.gen_range(0..edges.len())]
        } else {
            common
        }
    }
    // A few keys past the end, so some reads miss; and now and then one far
    // outside the keyspace, where the store has no table entry to go by and
    // must still find the bucket the key would live in.
    let key = |rng: &mut SmallRng| {
        if rng.gen_bool(0.05) {
            [u64::MAX, u64::MAX - 1, 1 << 32, KEYS + 1_000][rng.gen_range(0..4usize)]
        } else {
            rng.gen_range(0..KEYS + 3)
        }
    };
    let word = |rng: &mut SmallRng| {
        let common = rng.gen_range(0..40u64);
        pick(rng, &[u64::MAX, u64::MAX - 3, 1 << 63, 0], common)
    };
    match rng.gen_range(0..5u32) {
        0 => Request::get(key(rng)),
        1 => Request::put(key(rng), rng.gen_range(0..4u64)),
        2 => Request::cas(key(rng), rng.gen_range(0..4u64), rng.gen_range(0..4u64)),
        3 => {
            let from = key(rng);
            let to = if rng.gen_bool(0.1) { from } else { key(rng) };
            let common = rng.gen_range(-150..150i64);
            let edges = [i64::MIN, i64::MAX, i64::MIN + 7, i64::MAX - 200, -(i64::MAX - 200)];
            Request::transfer(from, to, pick(rng, &edges, common))
        }
        _ => Request::scan(word(rng), word(rng)),
    }
}

#[test]
fn random_requests_agree_step_by_step_on_every_substrate() {
    const REQUESTS: usize = 2_400;
    const BLOCK: usize = 48;
    let mut rng = SmallRng::seed_from_u64(0x1d1f);
    let reqs: Vec<Request> = (0..REQUESTS).map(|_| random_request(&mut rng)).collect();

    let store = ShardedStore::new(3, 4, KEYS);
    let stm = Stm::new(StmConfig::new(1));
    let via_store: Vec<Response> = reqs
        .iter()
        .map(|req| stm.run(ThreadId::new(0), req.site(), |tx| store.apply(tx, req)))
        .collect();

    // The plain map twice: interpreted for its responses, and replayed
    // through `Materializer::apply` (which skips read-only kinds).
    let mut m = Materializer::initial(KEYS);
    let mut replayed = Materializer::initial(KEYS);
    let via_map: Vec<Response> = reqs
        .iter()
        .map(|req| {
            replayed.apply(req);
            let Ok(resp) = interpret(req, KEYS, &mut m);
            resp
        })
        .collect();

    // One executor lane: every block settles in order against `base`.
    let cfg = BlockConfig::new(BLOCK, 4).expect("valid block config");
    let mut base = Materializer::initial(KEYS);
    let mut via_block: Vec<Response> = Vec::with_capacity(REQUESTS);
    for chunk in reqs.chunks(BLOCK) {
        let outcome = execute_block(
            &cfg,
            chunk.len(),
            1,
            |k: &u64| base.get(*k),
            |i, ctx| apply_with(&chunk[i], KEYS, &mut |k| ctx.read(&k)),
        );
        via_block.extend(outcome.outputs);
        for (k, e) in outcome.final_writes {
            base.set(k, e);
        }
    }

    for (i, req) in reqs.iter().enumerate() {
        assert_eq!(via_map[i], via_store[i], "step {i}: materializer vs store on {req:?}");
        assert_eq!(via_block[i], via_store[i], "step {i}: block lane vs store on {req:?}");
    }
    let want = store_digest(&store);
    assert_eq!(m.digest(), want, "interpreted materializer state");
    assert_eq!(replayed.digest(), want, "replayed materializer state");
    assert_eq!(base.digest(), want, "block lane state");

    // The sequence must actually reach the edges it was drawn for.
    let count = |r: Response| via_store.iter().filter(|&&got| got == r).count();
    assert!(count(Response::Transferred(true)) > 100, "transfers that move balance");
    assert!(count(Response::Transferred(false)) > 100, "refused transfers");
    assert!(count(Response::Value(None)) > 20, "reads of missing keys");
    assert!(count(Response::Swapped(true)) > 20, "swaps that hit");
}

/// The store's request-scoped bucket buffer means what the plain map WAL
/// replay uses means: on each preset shape, one thread's generated
/// schedule, then transfers inside one bucket and across two, requests for
/// keys past the keyspace and scans over more buckets than the buffer
/// holds, applied serially through `ShardedStore::apply` in STM
/// transactions and through `interpret` over a `Materializer`, answer the
/// same request by request and leave the same entries.
#[test]
fn generated_schedules_agree_with_the_plain_map_on_every_preset() {
    for spec in [ServeSpec::hot(400), ServeSpec::wide(400), ServeSpec::ledger(400)] {
        let keys = spec.keys;
        let bucket = |key: u64| {
            let shard = key % spec.shards as u64;
            (shard, THashMap::<u64, Entry>::new(spec.buckets_per_shard).bucket_index(&key))
        };
        let mut reqs: Vec<Request> =
            generate_schedule(&spec.traffic(), 11, 0).into_iter().map(|s| s.req).collect();
        // The first key sharing key 0's bucket and the first in another.
        let same = (1..keys).find(|&k| bucket(k) == bucket(0)).expect("a bucket holds two keys");
        let other = (1..keys).find(|&k| bucket(k) != bucket(0)).expect("two buckets");
        reqs.extend([
            Request::transfer(0, same, 7),
            Request::transfer(same, 0, 3),
            Request::transfer(0, other, 5),
            Request::put(same, 4),
            Request::cas(same, 4, 6),
            Request::transfer(keys + 5, 0, 1),
            Request::transfer(0, keys + 5, 1),
            Request::put(keys + 5, 1),
            Request::cas(keys, 0, 1),
            Request::get(keys + 5),
            Request::scan(keys - 3, MAX_SCAN_LEN),
            Request::scan(0, keys),
        ]);
        let buckets_scanned: std::collections::BTreeSet<_> =
            (0..MAX_SCAN_LEN.min(keys)).map(|i| bucket((keys - 3 + i) % keys)).collect();
        assert!(buckets_scanned.len() > 2, "{spec:?}: a scan meets more than two buckets");

        let store = ShardedStore::new(spec.shards, spec.buckets_per_shard, keys);
        let stm = Stm::new(StmConfig::new(1));
        let mut m = Materializer::initial(keys);
        for (i, req) in reqs.iter().enumerate() {
            let via_store = stm.run(ThreadId::new(0), req.site(), |tx| store.apply(tx, req));
            let Ok(via_map) = interpret(req, keys, &mut m);
            assert_eq!(via_store, via_map, "{spec:?} step {i}: {req:?}");
        }
        assert_eq!(store.entries_unlogged(), m.entries(), "{spec:?}: final entries");
        assert_eq!(store.total_balance_unlogged(), store.expected_total());
    }
}

/// An overflowing transfer decoded from the WAL must replay as the same
/// refusal the live store answered — not panic recovery, not wrap balances.
#[test]
fn overflowing_transfer_survives_a_wal_round_trip() {
    let (backend, log, snap) =
        DurableBackend::in_memory(ShardedStore::new(2, 4, KEYS), WalConfig::new());
    let reqs = [Request::transfer(0, 1, 25), Request::transfer(0, 1, i64::MIN), Request::put(2, 9)];
    let stm = Stm::new(StmConfig::new(1));
    let t0 = ThreadId::new(0);
    for req in &reqs {
        stm.run(t0, req.site(), |tx| backend.store().apply(tx, req));
        backend.on_commit(stm.last_commit_seq(t0), req);
    }
    backend.flush();
    let rec = recover_store(2, 4, KEYS, &log.contents(), &snap.contents())
        .expect("the disk image recovers");
    assert_eq!(rec.recovered_seq, reqs.len() as u64);
    assert_eq!(store_digest(&rec.store), store_digest(backend.store()));
    assert_eq!(rec.store.total_balance_unlogged(), rec.store.expected_total());
}
