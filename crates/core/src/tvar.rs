//! Transactional variables.

use crate::sync::Mutex;
use std::any::Any;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::ids::VarId;

/// Erased payload stored in a [`VarCell`]: an immutable snapshot.
pub(crate) type ErasedValue = Arc<dyn Any + Send + Sync>;

static NEXT_VAR_ID: AtomicU64 = AtomicU64::new(1);

/// Process-global counter handing out write stamps for the opacity oracle.
/// Stamp 0 is reserved for initial/unlogged values, so the counter starts
/// at 1. Stamps only need to be unique, not dense or ordered, so a plain
/// relaxed fetch-add suffices.
static NEXT_WRITE_STAMP: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The allocation domain installed on this thread, if any.
    static INSTALLED_DOMAIN: std::cell::RefCell<Option<Arc<AtomicU64>>> =
        const { std::cell::RefCell::new(None) };
}

/// A scoped [`VarId`] allocation namespace.
///
/// By default every [`TVar::new`] draws its id from one process-wide
/// counter, so the ids a run sees depend on everything allocated before it
/// — harmless for correctness (ids only need to be unique within the
/// variables that can meet inside one [`crate::Stm`]), but fatal for
/// reproducibility: the id is hashed into the striped lock table, so two
/// executions of the *same* workload/seed collide on different stripes if
/// their allocation history differs.
///
/// Installing a fresh domain on every thread that allocates for one run
/// makes that run's ids a pure function of the run itself (`1..=N` in
/// allocation order), independent of process history and of other runs
/// executing concurrently. The experiment pipeline relies on this to cache
/// run outcomes and to fan runs out across OS threads without perturbing
/// schedules.
///
/// ```
/// use gstm_core::{TVar, VarIdDomain};
/// let ids = || {
///     let domain = VarIdDomain::new();
///     let _guard = domain.install();
///     (TVar::new(0u8).id().raw(), TVar::new(0u8).id().raw())
/// };
/// assert_eq!(ids(), (1, 2));
/// assert_eq!(ids(), (1, 2)); // a fresh domain replays the same sequence
/// ```
#[derive(Clone, Debug, Default)]
pub struct VarIdDomain {
    counter: Arc<AtomicU64>,
}

impl VarIdDomain {
    /// Creates a domain whose ids start at 1.
    pub fn new() -> Self {
        VarIdDomain { counter: Arc::new(AtomicU64::new(1)) }
    }

    /// Installs this domain on the current thread until the returned guard
    /// drops; [`TVar::new`] on this thread then allocates from the domain.
    /// Nested installs stack (the previous domain is restored on drop).
    #[must_use]
    pub fn install(&self) -> VarIdDomainGuard {
        let previous = INSTALLED_DOMAIN.with(|d| d.borrow_mut().replace(Arc::clone(&self.counter)));
        VarIdDomainGuard { previous }
    }
}

/// Restores the previously installed domain (or none) on drop.
#[derive(Debug)]
pub struct VarIdDomainGuard {
    previous: Option<Arc<AtomicU64>>,
}

impl Drop for VarIdDomainGuard {
    fn drop(&mut self) {
        INSTALLED_DOMAIN.with(|d| *d.borrow_mut() = self.previous.take());
    }
}

/// Allocates the next id from the installed domain, falling back to the
/// process-wide counter.
fn next_var_id() -> VarId {
    let raw =
        INSTALLED_DOMAIN.with(|d| d.borrow().as_ref().map(|c| c.fetch_add(1, Ordering::Relaxed)));
    VarId::from_raw(raw.unwrap_or_else(|| NEXT_VAR_ID.fetch_add(1, Ordering::Relaxed)))
}

/// Outcome of one [`VarCell::push_version`] publication, reported back to
/// the engine's MVCC stat counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct PushOutcome {
    /// Versions the watermark GC evicted during this publication.
    pub evicted: u32,
    /// Ring length after publication and GC.
    pub len: u32,
    /// Whether the ring exceeds its soft capacity (watermark lag: a
    /// registered reader still needs the older versions).
    pub over_capacity: bool,
}

/// Type-erased storage cell shared by all clones of a [`TVar`].
///
/// The cell holds the current value as an `Arc` snapshot behind a very short
/// mutex. Readers clone the `Arc` (cheap) and validate against the stripe
/// version afterwards, so a racing commit can never produce a torn value —
/// at worst a consistent-but-stale snapshot that TL2 validation then rejects.
///
/// Under `ReadMode::Snapshot` the cell additionally keeps a bounded
/// **version ring**: the trailing `(wv, value)` history of committed writes,
/// ordered by write version, GC'd against the engine's min-active-reader
/// watermark (DESIGN.md §3.1d). Snapshot readers consult only the ring,
/// never `data`, so the legacy read path and the ring never contend on one
/// lock. The ring is seeded with `(0, initial value)` at creation, so a
/// reader at any timestamp always resolves *some* version — without the
/// seed, a reader beginning before a cell's first-ever committed write
/// would find an empty ring and have nowhere to get the at-snapshot value
/// once `data` is overwritten.
pub(crate) struct VarCell {
    id: VarId,
    data: Mutex<ErasedValue>,
    /// Committed `(wv, value)` history, ascending by `wv`, newest last.
    /// Seeded with `(0, initial value)`; real commits push at `wv >= 1`.
    /// Writers to one cell serialize on its stripe lock and claim strictly
    /// increasing `wv`s, so pushes arrive in order.
    history: Mutex<Vec<(u64, ErasedValue)>>,
    /// Write stamp of the value currently in `data`: a globally unique id
    /// assigned per transactional write-back, or 0 for initial/unlogged
    /// values. The oracle uses stamps to identify *which* committed write a
    /// read observed without comparing erased payloads. Read and written
    /// only under the `data` mutex so (value, stamp) pairs are consistent.
    stamp: AtomicU64,
}

impl VarCell {
    pub(crate) fn new(id: VarId, value: ErasedValue) -> Self {
        VarCell {
            id,
            history: Mutex::new(vec![(0, Arc::clone(&value))]),
            data: Mutex::new(value),
            stamp: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn id(&self) -> VarId {
        self.id
    }

    #[inline]
    pub(crate) fn load(&self) -> ErasedValue {
        Arc::clone(&self.data.lock())
    }

    /// Installs `value` as the current data snapshot. Transactional
    /// write-back only: in snapshot mode the caller has already pushed the
    /// version into the ring, so the ring is left untouched here.
    ///
    /// The replaced snapshot is dropped after the lock is released: when
    /// this was its last reference the drop frees the old payload (a whole
    /// bucket `Vec`, for a map), and every reader of the cell takes this lock.
    #[inline]
    pub(crate) fn store(&self, value: ErasedValue) {
        let replaced = {
            let mut data = self.data.lock();
            self.stamp.store(0, Ordering::Relaxed);
            std::mem::replace(&mut *data, value)
        };
        drop(replaced);
    }

    /// Non-transactional overwrite (setup/recovery, no transactions in
    /// flight): installs `value` and **re-seeds** the version ring to the
    /// single entry `(0, value)`, discarding stale history — so snapshot
    /// readers starting after setup resolve the value actually installed,
    /// not the construction-time initial.
    pub(crate) fn store_unlogged(&self, value: ErasedValue) {
        let mut data = self.data.lock();
        self.stamp.store(0, Ordering::Relaxed);
        let mut h = self.history.lock();
        h.clear();
        h.push((0, Arc::clone(&value)));
        *data = value;
    }

    /// Loads the current (value, write stamp) pair consistently.
    #[inline]
    pub(crate) fn load_stamped(&self) -> (ErasedValue, u64) {
        let data = self.data.lock();
        (Arc::clone(&data), self.stamp.load(Ordering::Relaxed))
    }

    /// Installs `value` with a fresh globally unique write stamp; returns
    /// the stamp. Used by transactional write-back under `check_events`.
    #[inline]
    pub(crate) fn store_stamped(&self, value: ErasedValue) -> u64 {
        let mut data = self.data.lock();
        let stamp = NEXT_WRITE_STAMP.fetch_add(1, Ordering::Relaxed);
        self.stamp.store(stamp, Ordering::Relaxed);
        *data = value;
        stamp
    }

    /// Publishes a committed version into the ring and GCs versions no
    /// active snapshot reader can need.
    ///
    /// The eviction rule is the zero-abort invariant's load-bearing half: a
    /// version `v` may be dropped only if a *newer retained* version `v'`
    /// has `wv' <= watermark` — then every reader (all of whom hold
    /// `ts >= watermark`, guaranteed by the registry protocol) resolves to
    /// `v'` or newer, never to `v`. `capacity` is a **soft** bound: when a
    /// lagging reader pins more than `capacity` versions the ring grows
    /// past it and the caller counts a gc-lag event instead of evicting.
    ///
    /// Called only by committers holding this cell's stripe lock, so the
    /// ring mutex is uncontended on the write side.
    pub(crate) fn push_version(
        &self,
        wv: u64,
        value: ErasedValue,
        watermark: u64,
        capacity: u32,
    ) -> PushOutcome {
        let mut h = self.history.lock();
        debug_assert!(
            h.last().is_none_or(|&(last, _)| last < wv),
            "version ring requires strictly increasing wvs"
        );
        h.push((wv, value));
        let keep_from = h.partition_point(|&(w, _)| w <= watermark).saturating_sub(1);
        let evicted = keep_from as u32;
        if keep_from > 0 {
            h.drain(..keep_from);
        }
        let len = h.len() as u32;
        PushOutcome { evicted, len, over_capacity: len > capacity }
    }

    /// Snapshot read: the newest committed version with `wv <= ts`.
    ///
    /// Because the ring is seeded with `(0, initial value)` and GC never
    /// evicts the newest version `<= watermark`, this is `Some` for every
    /// `ts >= watermark` — which the registry protocol guarantees for all
    /// active readers. `None` only for timestamps below the watermark,
    /// which no well-formed reader can hold (the engine treats it as an
    /// invariant violation).
    pub(crate) fn read_at(&self, ts: u64) -> Option<(u64, ErasedValue)> {
        let h = self.history.lock();
        let cut = h.partition_point(|&(w, _)| w <= ts);
        if cut == 0 {
            None
        } else {
            let (wv, ref value) = h[cut - 1];
            Some((wv, Arc::clone(value)))
        }
    }
}

impl fmt::Debug for VarCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VarCell").field("id", &self.id).finish_non_exhaustive()
    }
}

/// A shared variable accessible only through transactions.
///
/// `TVar<T>` is the unit of conflict detection: its [`VarId`] hashes into the
/// striped lock table, just as TL2 hashes a memory word's address. Values are
/// stored as immutable `Arc<T>` snapshots; a transactional write installs a
/// new snapshot at commit (write-back).
///
/// Clones of a `TVar` alias the same underlying cell:
///
/// ```
/// use gstm_core::TVar;
/// let a = TVar::new(1i64);
/// let b = a.clone();
/// assert_eq!(a.id(), b.id());
/// ```
///
/// Use [`crate::Txn::read`] / [`crate::Txn::write`] inside a transaction;
/// [`TVar::load_unlogged`] reads outside any transaction (e.g. for final
/// result extraction after worker threads join).
pub struct TVar<T> {
    cell: Arc<VarCell>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Send + Sync + 'static> TVar<T> {
    /// Creates a new transactional variable holding `value`.
    pub fn new(value: T) -> Self {
        let id = next_var_id();
        TVar { cell: Arc::new(VarCell::new(id, Arc::new(value))), _marker: PhantomData }
    }

    /// This variable's globally unique id.
    #[inline]
    pub fn id(&self) -> VarId {
        self.cell.id
    }

    /// Reads the current snapshot **outside** of any transaction.
    ///
    /// No consistency with other variables is guaranteed; use this only when
    /// no transactions are in flight (setup/teardown) or when a single
    /// isolated value is acceptable.
    pub fn load_unlogged(&self) -> Arc<T> {
        downcast(self.cell.load())
    }

    /// Overwrites the value **outside** of any transaction, without bumping
    /// the stripe version. Only safe while no transactions run (setup).
    pub fn store_unlogged(&self, value: T) {
        self.cell.store_unlogged(Arc::new(value));
    }

    #[inline]
    pub(crate) fn cell(&self) -> &Arc<VarCell> {
        &self.cell
    }
}

/// Downcasts an erased snapshot to its concrete type.
///
/// # Panics
///
/// Panics if the cell holds a different type, which is impossible through the
/// public API (a `TVar<T>` only ever stores `T`).
#[inline]
pub(crate) fn downcast<T: Send + Sync + 'static>(v: ErasedValue) -> Arc<T> {
    match v.downcast::<T>() {
        Ok(t) => t,
        Err(_) => unreachable!("TVar type confusion: cell held an unexpected type"),
    }
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar { cell: Arc::clone(&self.cell), _marker: PhantomData }
    }
}

impl<T: Send + Sync + 'static> Default for TVar<T>
where
    T: Default,
{
    fn default() -> Self {
        TVar::new(T::default())
    }
}

impl<T: fmt::Debug + Send + Sync + 'static> fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TVar")
            .field("id", &self.id())
            .field("value", &*self.load_unlogged())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let a = TVar::new(0u32);
        let b = TVar::new(0u32);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn clone_aliases_cell() {
        let a = TVar::new(5i32);
        let b = a.clone();
        a.store_unlogged(9);
        assert_eq!(*b.load_unlogged(), 9);
    }

    #[test]
    fn load_store_unlogged() {
        let v = TVar::new(String::from("x"));
        assert_eq!(v.load_unlogged().as_str(), "x");
        v.store_unlogged(String::from("y"));
        assert_eq!(v.load_unlogged().as_str(), "y");
    }

    #[test]
    fn default_requires_default_inner() {
        let v: TVar<Vec<u8>> = TVar::default();
        assert!(v.load_unlogged().is_empty());
    }

    #[test]
    fn debug_shows_value() {
        let v = TVar::new(42u8);
        let s = format!("{v:?}");
        assert!(s.contains("42"), "{s}");
    }

    #[test]
    fn domain_ids_are_deterministic_and_scoped() {
        let ids = || {
            let domain = VarIdDomain::new();
            let _guard = domain.install();
            [TVar::new(0u8).id(), TVar::new(0u8).id(), TVar::new(0u8).id()]
        };
        assert_eq!(ids(), ids(), "fresh domains must replay the same id sequence");
        // The guard dropped: allocation returns to the global counter.
        let a = TVar::new(0u8).id();
        let b = TVar::new(0u8).id();
        assert_eq!(b.raw(), a.raw() + 1);
        assert!(a.raw() > 3, "global counter must not be the domain counter");
    }

    #[test]
    fn domain_installs_nest() {
        let outer = VarIdDomain::new();
        let _o = outer.install();
        let first = TVar::new(0u8).id();
        {
            let inner = VarIdDomain::new();
            let _i = inner.install();
            assert_eq!(TVar::new(0u8).id().raw(), 1, "inner domain starts fresh");
        }
        assert_eq!(TVar::new(0u8).id().raw(), first.raw() + 1, "outer domain restored");
    }

    #[test]
    fn tvar_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TVar<u64>>();
        assert_send_sync::<TVar<Vec<String>>>();
    }

    fn val(n: i64) -> ErasedValue {
        Arc::new(n)
    }

    fn read_i64(cell: &VarCell, ts: u64) -> Option<(u64, i64)> {
        cell.read_at(ts).map(|(wv, v)| (wv, *downcast::<i64>(v)))
    }

    #[test]
    fn ring_read_at_picks_newest_at_or_below_ts() {
        let cell = VarCell::new(VarId::from_raw(1), val(0));
        for wv in [2u64, 5, 9] {
            cell.push_version(wv, val(wv as i64 * 10), 0, 8);
        }
        assert_eq!(read_i64(&cell, 1), Some((0, 0)), "nothing committed at ts=1: seeded initial");
        assert_eq!(read_i64(&cell, 2), Some((2, 20)));
        assert_eq!(read_i64(&cell, 4), Some((2, 20)));
        assert_eq!(read_i64(&cell, 5), Some((5, 50)));
        assert_eq!(read_i64(&cell, 100), Some((9, 90)));
    }

    #[test]
    fn ring_gc_keeps_newest_version_at_or_below_watermark() {
        let cell = VarCell::new(VarId::from_raw(1), val(0));
        cell.push_version(2, val(20), 0, 8);
        cell.push_version(5, val(50), 0, 8);
        // Watermark 6: version 5 covers every reader with ts >= 6, so the
        // seed and version 2 are evictable; 5 itself must survive.
        let out = cell.push_version(9, val(90), 6, 8);
        assert_eq!(out, PushOutcome { evicted: 2, len: 2, over_capacity: false });
        assert_eq!(read_i64(&cell, 6), Some((5, 50)), "watermark-pinned version retained");
        assert_eq!(read_i64(&cell, 9), Some((9, 90)));
    }

    #[test]
    fn ring_gc_with_lagging_watermark_evicts_nothing() {
        let cell = VarCell::new(VarId::from_raw(1), val(0));
        let cap = 2u32;
        let mut out = PushOutcome::default();
        for wv in 1..=5u64 {
            out = cell.push_version(wv, val(wv as i64), 0, cap);
        }
        // Watermark 0 (a reader from before any commit is still active):
        // every version — the seed included — is pinned, the soft capacity
        // is exceeded.
        assert_eq!(out, PushOutcome { evicted: 0, len: 6, over_capacity: true });
        assert_eq!(read_i64(&cell, 0), Some((0, 0)), "pinned seed still served");
        for wv in 1..=5u64 {
            assert_eq!(read_i64(&cell, wv), Some((wv, wv as i64)), "lagging reader still served");
        }
    }

    #[test]
    fn ring_gc_at_current_watermark_retains_single_version() {
        let cell = VarCell::new(VarId::from_raw(1), val(0));
        for wv in 1..=10u64 {
            // Watermark trails by one commit: the previous version (the
            // seed, for wv=1) stays pinned — a reader at ts == watermark
            // needs it — so the steady state is exactly two entries.
            let out = cell.push_version(wv, val(wv as i64), wv.saturating_sub(1), 4);
            assert_eq!(out.len, 2, "wv={wv}");
            assert!(!out.over_capacity);
        }
        // Watermark caught up to the newest commit: history collapses to
        // the single newest version — the legacy latest-value shape.
        let out = cell.push_version(11, val(11), 11, 4);
        assert_eq!(out.len, 1);
        assert_eq!(read_i64(&cell, 11), Some((11, 11)));
        assert_eq!(read_i64(&cell, 10), None, "older versions GC'd once unreachable");
    }

    /// The block executor's hazard case: a lagging re-execution holds a
    /// snapshot timestamp from before the watermark advanced. Reads at or
    /// above the watermark must resolve the pinned version; reads strictly
    /// below the oldest retained version must come back `None` — a loud
    /// registry-protocol violation, never a silently wrong newer value.
    #[test]
    fn lagging_reader_behind_the_watermark_is_refused_not_lied_to() {
        let cell = VarCell::new(VarId::from_raw(1), val(0));
        cell.push_version(3, val(30), 0, 8);
        cell.push_version(7, val(70), 0, 8);
        // Watermark jumps to 9: versions 0 and 3 are evictable (7 covers
        // every legitimate reader), and the ring now starts at wv=7.
        let out = cell.push_version(12, val(120), 9, 8);
        assert_eq!(out.evicted, 2);
        // At/above the watermark: the pinned version answers.
        assert_eq!(read_i64(&cell, 9), Some((7, 70)));
        assert_eq!(read_i64(&cell, 11), Some((7, 70)));
        assert_eq!(read_i64(&cell, 12), Some((12, 120)));
        // Behind the watermark — below the oldest retained wv: refused.
        // A reader that somehow held ts=6 would otherwise observe wv=3's
        // value, which GC just dropped; `None` turns the protocol bug
        // into an immediate failure instead of a wrong answer.
        assert_eq!(read_i64(&cell, 6), None);
        assert_eq!(read_i64(&cell, 0), None);
    }

    /// GC is monotone under a ratcheting watermark: each advance evicts
    /// exactly the versions strictly older than the newest one at or
    /// below it, and eviction counts across pushes account for every
    /// version that ever entered the ring.
    #[test]
    fn ring_gc_eviction_counts_account_for_all_versions() {
        let cell = VarCell::new(VarId::from_raw(1), val(0));
        let mut entered = 1u32; // the seed
        let mut evicted = 0u32;
        let mut last = PushOutcome::default();
        for (wv, watermark) in [(2u64, 0u64), (4, 0), (6, 3), (8, 6), (10, 10)] {
            last = cell.push_version(wv, val(wv as i64), watermark, 8);
            entered += 1;
            evicted += last.evicted;
        }
        assert_eq!(entered - evicted, last.len, "no version lost or double-counted");
        assert_eq!(last.len, 1, "watermark caught up: only the newest survives");
        assert_eq!(read_i64(&cell, 10), Some((10, 10)));
    }

    #[test]
    fn ring_seeded_with_initial_value() {
        let cell = VarCell::new(VarId::from_raw(1), val(7));
        // A never-written cell resolves its initial value at every
        // timestamp — there is no unseeded state a reader could fall
        // through to the (possibly newer) data slot from.
        assert_eq!(read_i64(&cell, 0), Some((0, 7)));
        assert_eq!(read_i64(&cell, u64::MAX), Some((0, 7)));
    }

    #[test]
    fn store_unlogged_reseeds_the_ring() {
        let cell = VarCell::new(VarId::from_raw(1), val(1));
        cell.push_version(3, val(30), 0, 8);
        // Setup-time overwrite: history restarts at the new value, so a
        // snapshot reader cannot resolve pre-setup versions.
        cell.store_unlogged(val(50));
        assert_eq!(read_i64(&cell, u64::MAX), Some((0, 50)));
        assert_eq!(read_i64(&cell, 0), Some((0, 50)));
        assert_eq!(*downcast::<i64>(cell.load()), 50);
    }
}
