//! Concurrent stress tests of the transactional containers on the
//! deterministic machine: linearizable effects under real contention.

use std::sync::Arc;

use gstm_collections::{THashMap, TQueue, TSet, TWorklist};
use gstm_core::{Stm, StmConfig, TVar, ThreadId, TxId};
use gstm_sim::{SimConfig, SimMachine};

fn with_machine(
    threads: usize,
    seed: u64,
    f: impl Fn(Arc<Stm>, usize) -> Box<dyn FnOnce() + Send>,
) {
    let machine = SimMachine::new(SimConfig::new(threads, seed));
    let stm = Arc::new(Stm::new_on(StmConfig::new(threads), machine.gate()));
    let workers: Vec<Box<dyn FnOnce() + Send + '_>> =
        (0..threads).map(|i| f(Arc::clone(&stm), i)).collect();
    machine.run(workers);
}

#[test]
fn queue_delivers_every_item_exactly_once() {
    let n = 120;
    let q = TQueue::seeded((0..n).collect::<Vec<i32>>());
    let seen = Arc::new(gstm_core::sync::Mutex::new(Vec::new()));
    with_machine(4, 3, |stm, i| {
        let q = q.clone();
        let seen = Arc::clone(&seen);
        Box::new(move || loop {
            let item = stm.run(ThreadId::new(i as u16), TxId::new(0), |tx| q.dequeue(tx));
            match item {
                Some(v) => seen.lock().push(v),
                None => break,
            }
        })
    });
    let mut got = Arc::try_unwrap(seen).unwrap().into_inner();
    got.sort_unstable();
    assert_eq!(got, (0..n).collect::<Vec<i32>>());
}

#[test]
fn map_inserts_from_all_threads_are_all_present() {
    let map: THashMap<u32, u32> = THashMap::new(8);
    let threads = 4;
    let per = 50u32;
    with_machine(threads, 7, |stm, i| {
        let map = map.clone();
        Box::new(move || {
            for k in 0..per {
                let key = i as u32 * per + k;
                stm.run(ThreadId::new(i as u16), TxId::new(0), |tx| {
                    map.insert(tx, key, key * 2).map(|_| ())
                });
            }
        })
    });
    assert_eq!(map.len_unlogged(), threads * per as usize);
    for (k, v) in map.snapshot_unlogged() {
        assert_eq!(v, k * 2);
    }
}

#[test]
fn set_dedups_racing_inserts() {
    // All threads insert the same key range: exactly one "new" per key.
    let set: TSet<u32> = TSet::new(4);
    let news = Arc::new(std::sync::atomic::AtomicU64::new(0));
    with_machine(4, 11, |stm, i| {
        let set = set.clone();
        let news = Arc::clone(&news);
        Box::new(move || {
            for k in 0..40u32 {
                let fresh = stm.run(ThreadId::new(i as u16), TxId::new(0), |tx| set.insert(tx, k));
                if fresh {
                    news.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        })
    });
    assert_eq!(news.load(std::sync::atomic::Ordering::Relaxed), 40);
    assert_eq!(set.len_unlogged(), 40);
}

#[test]
fn counter_sums_under_contention() {
    let c = TVar::new(0i64);
    with_machine(6, 1, |stm, i| {
        let c = c.clone();
        Box::new(move || {
            for _ in 0..30 {
                stm.run(ThreadId::new(i as u16), TxId::new(0), |tx| tx.modify(&c, |v| v + 2));
            }
        })
    });
    assert_eq!(*c.load_unlogged(), 6 * 30 * 2);
}

#[test]
fn worklist_drains_completely_with_stealing() {
    let wl = TWorklist::seeded(4, (0..100u32).collect());
    let popped = Arc::new(std::sync::atomic::AtomicU64::new(0));
    with_machine(4, 9, |stm, i| {
        let wl = wl.clone();
        let popped = Arc::clone(&popped);
        Box::new(move || loop {
            let got = stm.run(ThreadId::new(i as u16), TxId::new(0), |tx| wl.pop(tx, i));
            if got.is_none() {
                break;
            }
            popped.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        })
    });
    assert_eq!(popped.load(std::sync::atomic::Ordering::Relaxed), 100);
    assert_eq!(wl.len_unlogged(), 0);
}

#[test]
fn mixed_map_ops_keep_entry_integrity() {
    // Threads upsert counters per key; the final value per key must equal
    // the number of upserts that targeted it.
    let map: THashMap<u32, u64> = THashMap::new(4);
    let keys = 6u32;
    let per = 25;
    with_machine(3, 5, |stm, i| {
        let map = map.clone();
        Box::new(move || {
            for k in 0..per {
                let key = (i as u32 + k) % keys;
                stm.run(ThreadId::new(i as u16), TxId::new(0), |tx| {
                    map.upsert(tx, key, || 0, |v| *v += 1)
                });
            }
        })
    });
    let total: u64 = map.snapshot_unlogged().iter().map(|(_, v)| v).sum();
    assert_eq!(total, 3 * per as u64);
}
