//! Integration: the TL2 engine running on the simulated machine must show
//! the phenomena the paper studies — conflicts/aborts under contention,
//! deterministic replay per seed, and execution-time variance across seeds.

use std::sync::Arc;

use gstm_core::cm::Aggressive;
use gstm_core::{AdmitAll, MemorySink, Stm, StmConfig, TVar, ThreadId, TxEvent, TxId};
use gstm_sim::{SimConfig, SimMachine};

fn contended_run(
    seed: u64,
    threads: usize,
    txs_per_thread: usize,
    hot: &[TVar<i64>],
) -> (Vec<u64>, u64, Vec<String>) {
    // Reset shared state so repeated runs over the same variables start
    // identically (variable identity — and hence stripe mapping — must be
    // shared for replay to be byte-identical).
    for v in hot {
        v.store_unlogged(0);
    }
    let machine = SimMachine::new(SimConfig::new(threads, seed));
    let memory = Arc::new(MemorySink::new());
    let stm = Arc::new(Stm::with_parts(
        StmConfig::new(threads),
        machine.gate(),
        memory.clone(),
        Arc::new(AdmitAll),
        Arc::new(Aggressive),
    ));
    let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..threads)
        .map(|i| {
            let stm = Arc::clone(&stm);
            let hot = hot.to_vec();
            Box::new(move || {
                let t = ThreadId::new(i as u16);
                for k in 0..txs_per_thread {
                    let a = &hot[k % hot.len()];
                    let b = &hot[(k + 1) % hot.len()];
                    stm.run(t, TxId::new(0), |tx| {
                        let x = tx.read(a)?;
                        let y = tx.read(b)?;
                        tx.work(20);
                        tx.write(a, x.wrapping_add(y).wrapping_add(1))
                    });
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    let report = machine.run(workers);
    let events = memory.take();
    let aborts = events.iter().filter(|e| matches!(e, TxEvent::Abort { .. })).count() as u64;
    let log: Vec<String> = events.iter().map(|e| e.to_string()).collect();
    (report.thread_ticks, aborts, log)
}

fn hot_vars() -> Vec<TVar<i64>> {
    // A handful of hot variables: every transaction reads two and writes one.
    (0..4).map(|_| TVar::new(0)).collect()
}

#[test]
fn contention_produces_aborts() {
    let (_, aborts, _) = contended_run(1, 4, 50, &hot_vars());
    assert!(aborts > 0, "4 threads on 4 hot vars must conflict");
}

#[test]
fn same_seed_replays_identically() {
    let hot = hot_vars();
    let (t1, a1, l1) = contended_run(7, 4, 30, &hot);
    let (t2, a2, l2) = contended_run(7, 4, 30, &hot);
    assert_eq!(t1, t2);
    assert_eq!(a1, a2);
    assert_eq!(l1, l2, "event sequences must replay byte-identically");
}

#[test]
fn different_seeds_vary_execution_time() {
    let hot = hot_vars();
    let times: Vec<Vec<u64>> = (0..6).map(|s| contended_run(s, 4, 30, &hot).0).collect();
    let distinct: std::collections::HashSet<&Vec<u64>> = times.iter().collect();
    assert!(distinct.len() > 1, "seeds must produce differing thread times: {times:?}");
}

#[test]
fn all_commits_applied_exactly_once() {
    // The sum of per-step increments must survive contention: every commit's
    // write-back is applied exactly once and no lost updates occur — at one
    // fixed shape and at eight seeded random (machine seed, threads,
    // increments per thread) shapes.
    let mut rng = gstm_core::rng::SmallRng::seed_from_u64(0);
    let random = (0..8)
        .map(|_| (rng.gen_range(0u64..1000), rng.gen_range(2usize..5), rng.gen_range(5usize..30)));
    for (seed, threads, per) in std::iter::once((3, 4, 25)).chain(random) {
        let machine = SimMachine::new(SimConfig::new(threads, seed));
        let stm = Arc::new(Stm::with_parts(
            StmConfig::new(threads),
            machine.gate(),
            Arc::new(gstm_core::NullSink),
            Arc::new(AdmitAll),
            Arc::new(Aggressive),
        ));
        let v = TVar::new(0i64);
        let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..threads)
            .map(|i| {
                let stm = Arc::clone(&stm);
                let v = v.clone();
                Box::new(move || {
                    let t = ThreadId::new(i as u16);
                    for _ in 0..per {
                        stm.run(t, TxId::new(0), |tx| {
                            let x = tx.read(&v)?;
                            tx.write(&v, x + 1)
                        });
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        machine.run(workers);
        assert_eq!(
            *v.load_unlogged(),
            (threads * per) as i64,
            "lost update at seed {seed}, {threads} threads x {per}"
        );
    }
}
