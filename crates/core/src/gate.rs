//! The [`Gate`] abstraction: where the STM meets the machine.
//!
//! Every externally observable step a transactional thread takes — beginning
//! a transaction, each shared read or write, commit-time locking, abort
//! penalties, guidance hold-polls, and application compute declared via
//! [`crate::Txn::work`] — passes through a [`Gate`] with a cost in abstract
//! *ticks*.
//!
//! This is the seam that lets the **same TL2 engine** run in two worlds:
//!
//! * [`RealGate`] — native threads and wall-clock time, used for regular
//!   library usage, examples and stress tests;
//! * `SimGate` (in the `gstm-sim` crate) — a deterministic discrete-event
//!   scheduler modelling the paper's 8- and 16-core machines, where `pass`
//!   blocks the OS thread until the virtual-time scheduler grants the step.
//!
//! The paper ran on real 8/16-core x86 boxes; our build host has a single
//! core, so the simulator substitutes for the hardware (see DESIGN.md §2).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::ids::ThreadId;
use crate::pad::CachePadded;

/// Abstract cost unit charged through a [`Gate`].
pub type Ticks = u64;

/// Cost model for STM-internal steps, in [`Ticks`].
///
/// Costs only matter in simulation (they advance virtual thread clocks and
/// therefore determine overlap, conflicts and measured execution time); the
/// [`RealGate`] ignores them. Defaults are loosely calibrated to TL2's
/// relative overheads: reads/writes are cheap, per-entry commit work and the
/// abort penalty (log unwinding) dominate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Starting a transaction (reading the global version clock).
    pub begin: Ticks,
    /// One transactional read (lock-word sample + value copy + re-sample).
    pub read: Ticks,
    /// One transactional write (redo-log append).
    pub write: Ticks,
    /// Per write-set entry work at commit (lock acquire + write-back).
    pub commit_entry: Ticks,
    /// Per read-set entry validation work at commit.
    pub validate_entry: Ticks,
    /// Fixed cost of an abort (log teardown).
    pub abort: Ticks,
    /// One admission-policy hold poll (guided execution's retry spin — a
    /// hash-map lookup in §VI's implementation, so it is cheap).
    pub poll: Ticks,
    /// Publishing one written value into its cell's version ring at commit
    /// (MVCC snapshot mode only; charged per write-set entry in addition to
    /// `commit_entry`). Never charged under `ReadMode::Latest`, so the
    /// legacy schedules — and the determinism goldens — are untouched.
    pub version_publish: Ticks,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            begin: 2,
            read: 1,
            write: 1,
            commit_entry: 3,
            validate_entry: 1,
            abort: 10,
            poll: 1,
            version_publish: 1,
        }
    }
}

/// The machine boundary crossed by every transactional step.
///
/// Implementations must be cheap and reentrant: the engine calls
/// [`Gate::pass`] extremely frequently. `pass` may block (the simulator's
/// does); it must eventually return.
pub trait Gate: Send + Sync {
    /// Charges `cost` ticks to `thread` and (in simulation) waits for the
    /// scheduler to grant the step.
    fn pass(&self, thread: ThreadId, cost: Ticks);

    /// Charges `cost` ticks `count` times as one batched crossing.
    ///
    /// Semantically identical to calling [`Gate::pass`] `count` times —
    /// the total charged time, and in simulation the exact per-sub-step
    /// scheduling decisions, must not differ ("batching may never change
    /// the virtual-time total charged between two schedule-visible
    /// events"). Implementations may override it to cross the machine
    /// boundary once instead of `count` times; the engine uses it only
    /// for operation groups with no externally observable effects between
    /// sub-steps (e.g. the commit write-back loop, which runs entirely
    /// under the write-set locks).
    fn pass_batch(&self, thread: ThreadId, cost: Ticks, count: u64) {
        for _ in 0..count {
            self.pass(thread, cost);
        }
    }

    /// Current time: virtual ticks in simulation, monotonic nanoseconds in
    /// real mode.
    fn now(&self) -> u64;

    /// Total time charged to `thread` so far: virtual ticks in simulation,
    /// or an implementation-defined approximation in real mode.
    fn thread_time(&self, thread: ThreadId) -> u64;
}

/// Native-execution gate: wall-clock time, optional yield injection.
///
/// On machines with fewer cores than worker threads (like this repo's CI
/// host) transactions rarely overlap, so conflicts become rare. Setting
/// `yield_every` to a small `n` makes the gate call
/// [`std::thread::yield_now`] every `n` passes, forcing interleaving and
/// restoring contention — useful for tests that need aborts to happen on any
/// machine.
///
/// ```
/// use gstm_core::{RealGate, Gate, ThreadId};
/// let gate = RealGate::new(0);
/// gate.pass(ThreadId::new(0), 5);
/// assert!(gate.thread_time(ThreadId::new(0)) >= 5);
/// ```
#[derive(Debug)]
pub struct RealGate {
    epoch: Instant,
    yield_every: u32,
    /// One line per thread: every pass adds to its thread's slot, so slots
    /// sharing a line would bounce it between cores on every step.
    slots: Vec<CachePadded<GateSlot>>,
}

/// What a [`RealGate`] tracks per thread. Each word has one writer — the
/// thread the slot belongs to — so a pass is a plain load and store, not a
/// locked read-modify-write; they are atomics only so that any thread may
/// read them. Thread ids that fold onto one slot
/// ([`MAX_TRACKED_THREADS`]) share its ticks, and passing from two of them at
/// once may lose some: the totals are an approximation there, as
/// [`Gate::thread_time`] says.
#[derive(Debug, Default)]
struct GateSlot {
    /// Ticks charged so far.
    charged: AtomicU64,
    /// Passes so far (the yield cadence; counted only when yielding).
    passes: AtomicU64,
}

/// `word += by`, for a word only the calling thread writes. Returns the
/// value before, like `fetch_add`.
#[inline]
fn bump(word: &AtomicU64, by: u64) -> u64 {
    let before = word.load(Ordering::Relaxed);
    word.store(before.wrapping_add(by), Ordering::Relaxed);
    before
}

/// Maximum thread count a [`RealGate`] tracks per-thread state for.
const MAX_TRACKED_THREADS: usize = 256;

impl RealGate {
    /// Creates a real gate. `yield_every == 0` disables yield injection.
    pub fn new(yield_every: u32) -> Self {
        RealGate {
            epoch: Instant::now(),
            yield_every,
            slots: (0..MAX_TRACKED_THREADS).map(|_| CachePadded::default()).collect(),
        }
    }

    fn slot(&self, thread: ThreadId) -> &GateSlot {
        &self.slots[thread.index() % MAX_TRACKED_THREADS]
    }
}

impl Default for RealGate {
    fn default() -> Self {
        RealGate::new(0)
    }
}

impl Gate for RealGate {
    fn pass(&self, thread: ThreadId, cost: Ticks) {
        let slot = self.slot(thread);
        bump(&slot.charged, cost);
        if self.yield_every > 0 {
            let n = bump(&slot.passes, 1);
            if n.is_multiple_of(self.yield_every as u64) {
                std::thread::yield_now();
            }
        }
    }

    fn pass_batch(&self, thread: ThreadId, cost: Ticks, count: u64) {
        if self.yield_every > 0 {
            // Yield cadence counts individual passes; keep it exact.
            for _ in 0..count {
                self.pass(thread, cost);
            }
        } else {
            bump(&self.slot(thread).charged, cost * count);
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn thread_time(&self, thread: ThreadId) -> u64 {
        self.slot(thread).charged.load(Ordering::Relaxed)
    }
}

/// Gate that does nothing and reports zero time; for unit tests of engine
/// logic where timing is irrelevant.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullGate;

impl Gate for NullGate {
    fn pass(&self, _thread: ThreadId, _cost: Ticks) {}

    fn pass_batch(&self, _thread: ThreadId, _cost: Ticks, _count: u64) {}

    fn now(&self) -> u64 {
        0
    }

    fn thread_time(&self, _thread: ThreadId) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_gate_accumulates_charges() {
        let g = RealGate::new(0);
        let t = ThreadId::new(1);
        g.pass(t, 3);
        g.pass(t, 4);
        assert_eq!(g.thread_time(t), 7);
        assert_eq!(g.thread_time(ThreadId::new(2)), 0);
    }

    #[test]
    fn layout_threads_charge_to_separate_lines() {
        let g = RealGate::new(0);
        let (a, b) = (g.slot(ThreadId::new(0)), g.slot(ThreadId::new(1)));
        assert!(crate::pad::bytes_apart(&a.charged, &b.charged) >= 64);
        assert!(crate::pad::bytes_apart(&a.passes, &b.passes) >= 64);
    }

    /// A slot has one writer, so plain load-and-store loses no tick however
    /// the four threads interleave — on either path through `pass`, and
    /// through `pass_batch`.
    #[test]
    fn four_threads_passing_on_their_own_slots_lose_no_tick() {
        const PASSES: u64 = 100_000;
        for yield_every in [0, 1_000] {
            let g = RealGate::new(yield_every);
            std::thread::scope(|scope| {
                for i in 0..4u16 {
                    let g = &g;
                    scope.spawn(move || {
                        let t = ThreadId::new(i);
                        for _ in 0..PASSES {
                            g.pass(t, u64::from(i) + 1);
                        }
                        g.pass_batch(t, 3, 5);
                    });
                }
            });
            for i in 0..4u16 {
                let slot = g.slot(ThreadId::new(i));
                let want = PASSES * (u64::from(i) + 1) + 15;
                assert_eq!(g.thread_time(ThreadId::new(i)), want, "yield_every {yield_every}");
                let counted = if yield_every > 0 { PASSES + 5 } else { 0 };
                assert_eq!(slot.passes.load(Ordering::Relaxed), counted);
            }
        }
    }

    #[test]
    fn real_gate_now_is_monotone() {
        let g = RealGate::default();
        let a = g.now();
        let b = g.now();
        assert!(b >= a);
    }

    #[test]
    fn null_gate_is_inert() {
        let g = NullGate;
        g.pass(ThreadId::new(0), 100);
        assert_eq!(g.now(), 0);
        assert_eq!(g.thread_time(ThreadId::new(0)), 0);
    }

    #[test]
    fn yield_injection_does_not_panic() {
        let g = RealGate::new(1);
        for _ in 0..10 {
            g.pass(ThreadId::new(0), 1);
        }
    }

    #[test]
    fn pass_batch_charges_like_repeated_pass() {
        let g = RealGate::new(0);
        let t = ThreadId::new(0);
        g.pass_batch(t, 3, 5);
        assert_eq!(g.thread_time(t), 15);
        let g = RealGate::new(2);
        g.pass_batch(t, 3, 5);
        assert_eq!(g.thread_time(t), 15, "yield path charges identically");
        NullGate.pass_batch(t, 3, 5);
        assert_eq!(NullGate.thread_time(t), 0);
    }

    #[test]
    fn default_cost_model_is_nonzero() {
        let c = CostModel::default();
        assert!(c.begin > 0 && c.read > 0 && c.write > 0);
        assert!(c.abort > c.read, "aborts should dominate single reads");
    }
}
