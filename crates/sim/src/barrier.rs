//! Machine-aware barriers.
//!
//! SynQuake's server loop processes each frame "within barriers" (§VIII).
//! A plain [`std::sync::Barrier`] would block workers *outside* the gate and
//! hang the simulated scheduler, so workloads synchronize through
//! [`WaitBarrier`], implemented by [`SimBarrier`] (simulation) and
//! [`NativeBarrier`] (real threads).

use std::sync::Arc;

use gstm_core::ThreadId;

use crate::machine::Shared;

/// A barrier usable from gated worker closures on either machine.
pub trait WaitBarrier: Send + Sync {
    /// Blocks `thread` until all parties arrive.
    fn wait(&self, thread: ThreadId);
}

/// Barrier on the simulated machine: arrival parks the worker; release
/// aligns all members' virtual clocks to the slowest member, exactly like a
/// real barrier aligns wall-clock time.
#[derive(Debug)]
pub struct SimBarrier {
    id: u32,
    parties: usize,
    shared: Arc<Shared>,
}

impl SimBarrier {
    pub(crate) fn new(id: u32, parties: usize, shared: Arc<Shared>) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        SimBarrier { id, parties, shared }
    }

    /// Number of parties this barrier waits for.
    pub fn parties(&self) -> usize {
        self.parties
    }
}

impl WaitBarrier for SimBarrier {
    fn wait(&self, thread: ThreadId) {
        self.shared.barrier(thread.index(), self.id, self.parties);
    }
}

/// Barrier for native-thread runs; wraps [`std::sync::Barrier`].
#[derive(Debug)]
pub struct NativeBarrier {
    inner: std::sync::Barrier,
}

impl NativeBarrier {
    /// Creates a native barrier for `parties` threads.
    pub fn new(parties: usize) -> Self {
        NativeBarrier { inner: std::sync::Barrier::new(parties) }
    }
}

impl WaitBarrier for NativeBarrier {
    fn wait(&self, _thread: ThreadId) {
        self.inner.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, SimMachine};
    use gstm_core::sync::Mutex;
    use gstm_core::Gate;

    #[test]
    fn sim_barrier_aligns_clocks() {
        let m = SimMachine::new(SimConfig::new(2, 9).with_jitter(0));
        let gate = m.gate();
        let barrier = m.barrier(2);
        let barrier = &barrier;
        let after = Mutex::new(Vec::new());
        let after_ref = &after;
        let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..2usize)
            .map(|i| {
                let gate = Arc::clone(&gate);
                Box::new(move || {
                    let t = ThreadId::new(i as u16);
                    // Unequal pre-barrier work.
                    gate.pass(t, if i == 0 { 5 } else { 50 });
                    barrier.wait(t);
                    after_ref.lock().push((i, gate.thread_time(t)));
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        m.run(workers);
        let after = after.into_inner();
        assert_eq!(after.len(), 2);
        assert_eq!(after[0].1, after[1].1, "clocks align at barrier release: {after:?}");
        assert_eq!(after[0].1, 50);
    }

    #[test]
    fn sim_barrier_reusable_across_rounds() {
        let m = SimMachine::new(SimConfig::new(3, 5));
        let gate = m.gate();
        let barrier = m.barrier(3);
        let barrier = &barrier;
        let rounds = 4;
        let counter = Mutex::new(0u32);
        let counter_ref = &counter;
        let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..3usize)
            .map(|i| {
                let gate = Arc::clone(&gate);
                Box::new(move || {
                    let t = ThreadId::new(i as u16);
                    for _ in 0..rounds {
                        gate.pass(t, 1 + i as u64);
                        barrier.wait(t);
                        *counter_ref.lock() += 1;
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        m.run(workers);
        assert_eq!(counter.into_inner(), 3 * rounds);
    }

    #[test]
    fn native_barrier_round_trip() {
        let b = Arc::new(NativeBarrier::new(2));
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || b2.wait(ThreadId::new(1)));
        b.wait(ThreadId::new(0));
        h.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn zero_party_barrier_rejected() {
        let m = SimMachine::new(SimConfig::new(1, 1));
        let _ = m.barrier(0);
    }
}
