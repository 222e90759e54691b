//! The simulated machine's [`Gate`] implementation.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use gstm_core::{Gate, ThreadId, Ticks};

use crate::machine::Shared;

/// Virtual clocks are kept in *centiticks* so that sub-tick jitter exists
/// even for unit-cost operations.
pub(crate) const CENTI: u64 = 100;

/// Deterministic gate handed to the STM engine and to workloads.
///
/// Every [`Gate::pass`] is a scheduling point: the calling worker blocks
/// until the machine decides it is this thread's turn — a decision the
/// last worker to arrive makes itself, so a worker that is still the
/// minimum-clock thread returns without any hand-off.
/// Obtain one from [`crate::SimMachine::gate`].
#[derive(Debug, Clone)]
pub struct SimGate {
    pub(crate) shared: Arc<Shared>,
}

impl Gate for SimGate {
    fn pass(&self, thread: ThreadId, cost: Ticks) {
        self.shared.pass(thread.index(), cost, 1);
    }

    /// `count` consecutive steps as one crossing: the machine makes the same
    /// per-sub-step decisions (same RNG draws, clock/active/now updates and
    /// grant counts) it would for `count` individual passes, but the worker
    /// wakes only after the last one.
    fn pass_batch(&self, thread: ThreadId, cost: Ticks, count: u64) {
        if count > 0 {
            self.shared.pass(thread.index(), cost, count);
        }
    }

    fn now(&self) -> u64 {
        self.shared.now.load(Ordering::SeqCst) / CENTI
    }

    fn thread_time(&self, thread: ThreadId) -> u64 {
        self.shared.clocks[thread.index()].load(Ordering::SeqCst) / CENTI
    }
}
