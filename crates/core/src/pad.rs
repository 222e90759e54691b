//! Cache-line padding for contended atomics.
//!
//! The commit spine's shared words — the global version clock and the
//! commit-sequence counter — are written by every committer. When two such
//! words share a 64-byte cache line, every write by one thread invalidates
//! the line in every other core's cache even though the *other* word was
//! untouched (false sharing). [`CachePadded`] aligns its contents to a
//! 64-byte boundary so each padded value owns its line outright. The
//! lock-table stripes are not padded: each is written only by the commits
//! that hash to it, and a table of 2^14 of them is built by every engine,
//! so four share a line (`lock_table.rs`).
//!
//! 64 bytes is the L1 line size on every x86-64 and most AArch64 parts;
//! over-aligning on machines with smaller lines costs only a little memory,
//! never correctness.
//!
//! [`PerThread`] is the one place per-thread state is laid out: a slot per
//! thread, each a [`CachePadded`] value, found by thread id or leased to an
//! OS thread on its first touch.

use std::cell::Cell;
use std::ops::{Deref, DerefMut, Index};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::ids::ThreadId;

/// Aligns `T` to a 64-byte cache line so neighbouring values in a struct
/// or `Vec` never share a line with it.
///
/// Behaves like a transparent wrapper: `Deref`/`DerefMut` expose the inner
/// value, so `CachePadded<AtomicU64>` is used exactly like an `AtomicU64`.
///
/// The wrapper is private to the crate; every [`PerThread`] slot is one,
/// so adjacent slots show its layout from outside.
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use gstm_core::PerThread;
///
/// let words = PerThread::new(2, AtomicU64::default);
/// words[0].store(7, Ordering::Relaxed);
/// assert_eq!(words[0].load(Ordering::Relaxed), 7);
/// let (a, b) = (&words[0] as *const AtomicU64 as usize, &words[1] as *const AtomicU64 as usize);
/// assert_eq!(a % 64, 0);
/// assert_eq!(b - a, 64);
/// ```
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` on its own cache line.
    pub(crate) const fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// One `T` per thread, each on a cache line of its own.
///
/// A caller with a dense [`ThreadId`] indexes its slot (`slots[thread]`).
/// A caller that knows only the OS thread asks for [`PerThread::mine`]:
/// the first call from a thread leases it the next slot of *this
/// instance*, in first-touch order, and later calls return the same slot.
/// Threads beyond the slot count fold onto slots already leased, so the
/// state of a leased slot must tolerate more than one writer.
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use gstm_core::{PerThread, ThreadId};
///
/// let hits = PerThread::new(4, AtomicU64::default);
/// hits[ThreadId::new(2)].fetch_add(1, Ordering::Relaxed);
/// hits.mine().fetch_add(1, Ordering::Relaxed); // this thread's first touch: slot 0
/// let counts: Vec<u64> = hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
/// assert_eq!(counts, [1, 0, 1, 0]);
/// assert_eq!(hits.leased().count(), 1);
/// ```
#[derive(Debug)]
pub struct PerThread<T> {
    slots: Box<[CachePadded<T>]>,
    /// Names this instance in the threads' [`HELD`] leases.
    id: u64,
    /// Leases handed out so far (it may pass the slot count).
    leased: AtomicUsize,
}

/// Names [`PerThread`] instances. Slot numbers are per instance: the slot a
/// thread leases must not depend on what else the process ran (the WAL's
/// device bytes depend on it).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Leases a thread remembers. A durable commit touches two leased
/// instances (its WAL's staging slots and its backend's ledger shards); a
/// thread that cycles through more than this leases again on each return,
/// which stays correct and merely shares slots.
const HELD_LEASES: usize = 4;

thread_local! {
    /// `(instance id, slot)` of this thread's latest leases, newest first.
    static HELD: [Cell<(u64, usize)>; HELD_LEASES] =
        const { [const { Cell::new((0, 0)) }; HELD_LEASES] };
}

impl<T> PerThread<T> {
    /// `n` slots, each holding `init()`.
    pub fn new(n: usize, mut init: impl FnMut() -> T) -> Self {
        PerThread {
            slots: (0..n).map(|_| CachePadded::new(init())).collect(),
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            leased: AtomicUsize::new(0),
        }
    }

    /// Slot `i`, if in range.
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.slots.get(i).map(|slot| &**slot)
    }

    /// Every slot, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().map(|slot| &**slot)
    }

    /// The calling thread's slot, leased on its first call here.
    pub fn mine(&self) -> &T {
        let at = HELD.with(|held| {
            if let Some(lease) = held.iter().find(|lease| lease.get().0 == self.id) {
                return lease.get().1;
            }
            let at = self.leased.fetch_add(1, Ordering::Relaxed) % self.slots.len();
            for i in (1..HELD_LEASES).rev() {
                held[i].set(held[i - 1].get());
            }
            held[0].set((self.id, at));
            at
        });
        &self.slots[at]
    }

    /// The slots [`PerThread::mine`] has handed out so far, in lease order.
    /// A slot leased after this call returns is not among them.
    pub fn leased(&self) -> impl Iterator<Item = &T> {
        let n = self.leased.load(Ordering::Relaxed).min(self.slots.len());
        self.slots[..n].iter().map(|slot| &**slot)
    }
}

impl<T> Index<usize> for PerThread<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.slots[i]
    }
}

impl<T> Index<ThreadId> for PerThread<T> {
    type Output = T;

    fn index(&self, thread: ThreadId) -> &T {
        &self.slots[thread.index()]
    }
}

/// Bytes between two values' addresses — what the layout tests of the
/// per-thread slots (engine, gate, sink) and of the lock-table stripes
/// compare against the line size.
#[cfg(test)]
pub(crate) fn bytes_apart<T>(a: &T, b: &T) -> usize {
    (a as *const T as usize).abs_diff(b as *const T as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn padded_values_never_share_a_line() {
        let pair = [CachePadded::new(AtomicU64::new(1)), CachePadded::new(AtomicU64::new(2))];
        let a = &pair[0] as *const _ as usize;
        let b = &pair[1] as *const _ as usize;
        assert_eq!(a % 64, 0, "first word is not line-aligned");
        assert_eq!(b % 64, 0, "second word is not line-aligned");
        assert!(
            bytes_apart(&pair[0], &pair[1]) >= 64,
            "words {a:#x} and {b:#x} share a cache line"
        );
    }

    #[test]
    fn deref_is_transparent() {
        let word = CachePadded::new(AtomicU64::new(0));
        word.fetch_add(5, Ordering::Relaxed);
        assert_eq!(word.load(Ordering::Relaxed), 5);
        assert_eq!(*CachePadded::new(9u64), 9);
    }

    #[test]
    fn layout_adjacent_per_thread_slots_sit_a_line_apart() {
        let slots = PerThread::new(3, AtomicU64::default);
        for i in 0..2 {
            assert!(bytes_apart(&slots[i], &slots[i + 1]) >= 64, "slots {i} and {}", i + 1);
        }
        assert_eq!(bytes_apart(&slots[ThreadId::new(2)], &slots[2]), 0);
    }

    /// Address of the slot `slots.mine()` gives a fresh OS thread.
    fn lease_from_new_thread<T: Sync>(slots: &PerThread<T>) -> usize {
        std::thread::scope(|s| s.spawn(|| slots.mine() as *const T as usize).join().unwrap())
    }

    fn addr<T>(slot: &T) -> usize {
        slot as *const T as usize
    }

    #[test]
    fn threads_lease_distinct_slots_in_first_touch_order_and_keep_them() {
        let slots = PerThread::new(3, AtomicU64::default);
        assert_eq!(slots.leased().count(), 0);
        assert_eq!(lease_from_new_thread(&slots), addr(&slots[0]));
        assert_eq!(lease_from_new_thread(&slots), addr(&slots[1]));
        let mine = addr(slots.mine());
        assert_eq!(mine, addr(&slots[2]), "the third thread to ask");
        assert_eq!(addr(slots.mine()), mine, "a thread keeps its lease");
        assert_eq!(slots.leased().count(), 3);
        // A fourth thread folds onto the first slot; none is leased twice.
        assert_eq!(lease_from_new_thread(&slots), addr(&slots[0]));
        assert_eq!(slots.leased().count(), 3);
    }

    /// Leases are per instance, and a thread holding more of them than it
    /// remembers leases again: a fresh slot, never another instance's.
    #[test]
    fn each_instance_leases_from_its_own_slots() {
        let many: Vec<PerThread<AtomicU64>> =
            (0..HELD_LEASES + 2).map(|_| PerThread::new(2, AtomicU64::default)).collect();
        for slots in &many {
            assert_eq!(addr(slots.mine()), addr(&slots[0]), "first lease of each instance");
        }
        assert_eq!(addr(many[0].mine()), addr(&many[0][1]), "forgotten, so leased again");
        assert_eq!(addr(many[0].mine()), addr(&many[0][1]), "and remembered from then on");
        let last = many.last().unwrap();
        assert_eq!(addr(last.mine()), addr(&last[0]), "a recent lease is kept");
    }
}
