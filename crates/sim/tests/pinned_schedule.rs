//! One pinned schedule for the paths no determinism golden reaches:
//! oversubscription (`scale` > 1, and changing as workers finish), jitter,
//! `pass` mixed with `pass_batch`, a barrier reused over several rounds and
//! a worker that finishes while the others are mid-run. The constants were
//! recorded from the per-step scheduler-thread machine; any scheduler must
//! reproduce them bit for bit.

use std::sync::{Arc, Mutex};

use gstm_core::{Gate, ThreadId};
use gstm_sim::{SimConfig, SimMachine, WaitBarrier};
use gstm_telemetry::MetricsRegistry;

const WORKERS: usize = 8;
const CORES: usize = 3;
const ROUNDS: u64 = 3;

/// FNV-1a over the `(thread, step)` pairs in the order they were observed.
fn digest(order: &[(u8, u32)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u8| h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    for &(thread, step) in order {
        eat(thread);
        step.to_le_bytes().into_iter().for_each(&mut eat);
    }
    h
}

#[test]
fn oversubscribed_mixed_schedule_is_pinned() {
    let reg = Arc::new(MetricsRegistry::new(WORKERS));
    let m = SimMachine::new(SimConfig::new(CORES, 29)).with_metrics(Arc::clone(&reg));
    let gate = m.gate();
    // Worker 7 never joins the barrier: it finishes early.
    let barrier = m.barrier(WORKERS - 1);
    let barrier = &barrier;
    let order = Mutex::new(Vec::new());
    let order = &order;
    let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..WORKERS)
        .map(|i| {
            let gate = Arc::clone(&gate);
            Box::new(move || {
                let t = ThreadId::new(i as u16);
                let mut step = 0u32;
                // Only the granted worker runs between two gate calls, so
                // the push order is the grant order.
                let mut seen = || {
                    order.lock().unwrap().push((i as u8, step));
                    step += 1;
                };
                if i == WORKERS - 1 {
                    gate.pass(t, 4);
                    seen();
                    gate.pass_batch(t, 1, 3);
                    seen();
                    return;
                }
                let i = i as u64;
                for round in 0..ROUNDS {
                    gate.pass(t, 1 + (i + round) % 3);
                    seen();
                    gate.pass_batch(t, 2, 2 + i % 3);
                    seen();
                    barrier.wait(t);
                    seen();
                }
                // Staggered tails: the oversubscription scale steps down
                // 3 -> 2 -> 1 as workers finish one after another.
                for _ in 0..i {
                    gate.pass(t, 3);
                    seen();
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    let report = m.run(workers);
    let order = order.lock().unwrap();

    assert_eq!(order.len(), 86);
    assert_eq!(digest(&order), 0xb33d_8e52_3990_0938, "observed (thread, step) order moved");
    assert_eq!(report.thread_ticks, vec![102, 110, 120, 122, 123, 127, 132, 24]);
    assert_eq!(report.active_ticks, vec![61, 86, 118, 79, 102, 126, 92, 24]);
    assert_eq!(report.makespan, 132);
    assert_eq!(reg.gauge("gstm_sim_sched_grants_total"), Some(135));
    assert_eq!(reg.gauge("gstm_sim_barrier_releases_total"), Some(ROUNDS));
}
