//! Simulator robustness: deadlock detection and misuse reporting.

use std::sync::Arc;

use gstm_core::{Gate, ThreadId};
use gstm_sim::{SimConfig, SimMachine};

#[test]
#[should_panic(expected = "deadlock")]
fn underfilled_barrier_is_detected() {
    // Two workers wait on a 3-party barrier: the scheduler must detect the
    // stuck state instead of hanging.
    let m = SimMachine::new(SimConfig::new(2, 1));
    let barrier = m.barrier(3);
    let barrier = &barrier;
    let gate = m.gate();
    let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..2usize)
        .map(|i| {
            let gate = Arc::clone(&gate);
            Box::new(move || {
                gate.pass(ThreadId::new(i as u16), 1);
                barrier.wait(ThreadId::new(i as u16));
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    m.run(workers);
}

#[test]
#[should_panic(expected = "sim worker 0 panicked: boom")]
fn worker_panic_with_others_parked_in_a_barrier_is_reported_as_that_panic() {
    // The barrier can no longer fill once worker 0 is gone; the run must
    // end with the cause (the panic), not the consequence (the deadlock),
    // and must not hang on the two parked workers.
    let m = SimMachine::new(SimConfig::new(3, 1));
    let barrier = m.barrier(3);
    let barrier = &barrier;
    let gate = m.gate();
    let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..3usize)
        .map(|i| {
            let gate = Arc::clone(&gate);
            Box::new(move || {
                gate.pass(ThreadId::new(i as u16), 1 + i as u64);
                if i == 0 {
                    panic!("boom");
                }
                barrier.wait(ThreadId::new(i as u16));
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    m.run(workers);
}

#[test]
fn worker_finishing_without_any_pass_is_fine() {
    let m = SimMachine::new(SimConfig::new(2, 1));
    let gate = m.gate();
    let report = m.run(vec![
        Box::new(|| {}),
        Box::new({
            let gate = Arc::clone(&gate);
            move || gate.pass(ThreadId::new(1), 3)
        }),
    ]);
    assert_eq!(report.active_ticks[0], 0);
    assert!(report.active_ticks[1] >= 3);
}

#[test]
fn active_ticks_exclude_barrier_wait() {
    let m = SimMachine::new(SimConfig::new(2, 2).with_jitter(0));
    let gate = m.gate();
    let barrier = m.barrier(2);
    let barrier = &barrier;
    let report = {
        let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..2usize)
            .map(|i| {
                let gate = Arc::clone(&gate);
                Box::new(move || {
                    let t = ThreadId::new(i as u16);
                    // Thread 0 does 5 ticks of work, thread 1 does 50.
                    gate.pass(t, if i == 0 { 5 } else { 50 });
                    barrier.wait(t);
                    gate.pass(t, 1);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        m.run(workers)
    };
    // Wall clocks align at the barrier (both ≈ 51); active time does not.
    assert_eq!(report.thread_ticks[0], report.thread_ticks[1]);
    assert_eq!(report.active_ticks[0], 6);
    assert_eq!(report.active_ticks[1], 51);
}

#[test]
fn hundreds_of_workers_complete() {
    let n = 64;
    let m = SimMachine::new(SimConfig::new(n, 5));
    let gate = m.gate();
    let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..n)
        .map(|i| {
            let gate = Arc::clone(&gate);
            Box::new(move || {
                for _ in 0..10 {
                    gate.pass(ThreadId::new(i as u16), 1);
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    let report = m.run(workers);
    assert_eq!(report.thread_ticks.len(), n);
    assert!(report.thread_ticks.iter().all(|&t| t >= 10));
}
