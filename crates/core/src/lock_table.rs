//! Striped versioned write-locks — TL2's `lock table` — plus the two
//! extensions this reproduction needs:
//!
//! * a **last-writer stamp** per stripe, recording which `(thread, tx)`
//!   commit last bumped the stripe's version. This is what lets an aborting
//!   reader *attribute* its conflict to a specific commit, which in turn
//!   feeds the thread-transactional-state tuples of the paper's model;
//! * optional **visible reader registries** per stripe, used by the
//!   LibTM-style `AbortReaders` / `WaitForReaders` conflict resolutions that
//!   SynQuake runs with (paper §VIII).
//!
//! [`VarId`]s hash into stripes exactly like TL2 hashes memory addresses into
//! its versioned-lock array; distinct variables may share a stripe, giving
//! the same (rare) false conflicts a word-based STM has.
//!
//! The table is the commit spine's second shared-write hot spot (DESIGN.md
//! §3.1c):
//!
//! * each stripe's lock word and stamp live together in one 16-byte,
//!   16-aligned `Stripe`, so four stripes tile a 64-byte line and none
//!   straddles two. The table is a flat array like TL2's versioned-lock
//!   array. Every engine builds its 2^14 stripes and a serve run touches a
//!   few dozen of them, so the build's stores are the cost that matters:
//!   256 KiB here, 1 MiB with a line per stripe. Neighbouring stripes can
//!   false-share; with the serve threads on two CPUs that cost no measured
//!   capacity (DESIGN.md §3.1c);
//! * the visible-reader registries are **lazily allocated** per stripe —
//!   a table serving `AbortReaders`/`WaitForReaders` traffic only pays for
//!   the registries of stripes that actually see visible readers.

use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::ids::{CommitSeq, Participant, ThreadId, TxId, VarId};

/// Number of low bits used for the owner + lock flag in a lock word.
const VERSION_SHIFT: u32 = 17;
const LOCKED_BIT: u64 = 1;
const OWNER_SHIFT: u32 = 1;
const OWNER_MASK: u64 = 0xFFFF << OWNER_SHIFT;

/// Largest version a lock word can carry: the high `64 - VERSION_SHIFT`
/// (47) bits. Versions come from the global clock, so at one commit per
/// nanosecond the space lasts ~52 months; the encode paths assert rather
/// than silently wrap (a wrapped version would *unlock* a stripe into the
/// past and corrupt every future validation).
pub const MAX_VERSION: u64 = u64::MAX >> VERSION_SHIFT;

/// Decoded snapshot of one stripe's lock word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockWord {
    /// Stripe version (monotone, set from committers' `wv`).
    pub version: u64,
    /// Whether the stripe is currently write-locked.
    pub locked: bool,
    /// Owner thread if locked.
    pub owner: Option<ThreadId>,
}

impl LockWord {
    #[inline]
    fn decode(raw: u64) -> Self {
        let locked = raw & LOCKED_BIT != 0;
        LockWord {
            version: raw >> VERSION_SHIFT,
            locked,
            owner: locked.then(|| ThreadId::new(((raw & OWNER_MASK) >> OWNER_SHIFT) as u16)),
        }
    }

    fn encode_unlocked(version: u64) -> u64 {
        // A version past 2^47 would shift its high bits away and publish a
        // *smaller* version — silent wraparound that corrupts validation.
        // Fail loudly instead, in release builds too: a long-running serve
        // process must crash, not serve stale reads.
        assert!(version <= MAX_VERSION, "lock-word version overflow: {version} > {MAX_VERSION}");
        version << VERSION_SHIFT
    }

    fn encode_locked(version: u64, owner: ThreadId) -> u64 {
        assert!(version <= MAX_VERSION, "lock-word version overflow: {version} > {MAX_VERSION}");
        (version << VERSION_SHIFT) | ((owner.raw() as u64) << OWNER_SHIFT) | LOCKED_BIT
    }
}

/// One stripe's visible-reader registry: `(thread raw id, nesting count)`
/// entries behind a short lock.
type ReaderRegistry = Mutex<Vec<(u16, u32)>>;

/// One stripe's contended state — lock word and last-writer stamp. Aligned
/// to its 16-byte size, so four stripes fill a cache line and none
/// straddles two.
#[derive(Debug, Default)]
#[repr(align(16))]
struct Stripe {
    word: AtomicU64,
    stamp: AtomicU64,
}

/// Index of a stripe within the table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StripeIndex(pub u32);

/// The striped lock table.
#[derive(Debug)]
pub struct LockTable {
    stripes: Vec<Stripe>,
    /// Visible-reader registries; entries are `(thread raw id, nesting
    /// count)`. One `OnceLock<Box<…>>` slot per stripe (16 bytes) instead of
    /// an eager `Mutex<Vec<…>>` (40 bytes, plus its eventual heap): a
    /// registry is only boxed the first time a reader registers on that
    /// stripe, which for Zipf-skewed workloads is a small fraction of the
    /// table.
    readers: Option<Vec<OnceLock<Box<ReaderRegistry>>>>,
    /// Stripe mask (`(1 << log2_stripes) - 1`).
    mask: u64,
    /// Unlock attempts rejected because the caller did not own the stripe.
    /// Always zero in a correct engine; the opacity oracle and the chaos
    /// harness assert on it.
    violations: AtomicU64,
}

impl LockTable {
    /// Creates a table with `1 << log2_stripes` stripes. `visible_readers`
    /// enables the per-stripe reader registries (needed only for the LibTM
    /// resolutions).
    ///
    /// # Panics
    ///
    /// Panics if `log2_stripes` is 0 or greater than 24.
    pub fn new(log2_stripes: u32, visible_readers: bool) -> Self {
        assert!((1..=24).contains(&log2_stripes), "log2_stripes must be in 1..=24");
        let n = 1usize << log2_stripes;
        LockTable {
            stripes: (0..n).map(|_| Stripe::default()).collect(),
            readers: visible_readers.then(|| (0..n).map(|_| OnceLock::new()).collect()),
            mask: (n - 1) as u64,
            violations: AtomicU64::new(0),
        }
    }

    /// Number of stripes.
    pub fn len(&self) -> usize {
        self.stripes.len()
    }

    /// A lock table is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Maps a variable to its stripe (Fibonacci hashing of the id).
    #[inline]
    pub fn stripe_of(&self, var: VarId) -> StripeIndex {
        let h = var.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        StripeIndex(((h >> 24) & self.mask) as u32)
    }

    /// Loads and decodes a stripe's lock word.
    #[inline]
    pub fn load(&self, s: StripeIndex) -> LockWord {
        // Acquire: pairs with the Release stores in `unlock_*` so a reader
        // that observes version `wv` also sees the data written under it.
        LockWord::decode(self.stripes[s.0 as usize].word.load(Ordering::Acquire))
    }

    /// Loads a stripe's raw lock word without decoding — the uncontended
    /// read fast path. Two equal raw words are the same `LockWord`, so the
    /// TL2 pre/post read sandwich can compare raws and decode only when
    /// they differ (or the stripe is locked). Same Acquire ordering as
    /// [`LockTable::load`].
    #[inline]
    pub fn load_raw(&self, s: StripeIndex) -> u64 {
        self.stripes[s.0 as usize].word.load(Ordering::Acquire)
    }

    /// Decodes a raw word obtained from [`LockTable::load_raw`].
    #[inline]
    pub fn decode_raw(raw: u64) -> LockWord {
        LockWord::decode(raw)
    }

    /// Whether a raw word is locked (no decode).
    #[inline]
    pub fn raw_locked(raw: u64) -> bool {
        raw & LOCKED_BIT != 0
    }

    /// Version field of a raw word (no decode).
    #[inline]
    pub fn raw_version(raw: u64) -> u64 {
        raw >> VERSION_SHIFT
    }

    /// Attempts to write-lock a stripe for `owner`. Returns the pre-lock
    /// version on success; `Err(observed)` if the stripe was already locked
    /// (by anyone, including `owner` — callers dedup stripes first).
    pub fn try_lock(&self, s: StripeIndex, owner: ThreadId) -> Result<u64, LockWord> {
        let w = &self.stripes[s.0 as usize].word;
        // Acquire on both the probe and the CAS: acquiring the lock is a
        // lock-acquire in the classical sense — everything the previous
        // unlocker released must be visible before we write under the lock.
        // Nothing is published by locking itself, so Release is not needed
        // on success.
        let cur = w.load(Ordering::Acquire);
        if cur & LOCKED_BIT != 0 {
            return Err(LockWord::decode(cur));
        }
        let version = cur >> VERSION_SHIFT;
        match w.compare_exchange(
            cur,
            LockWord::encode_locked(version, owner),
            Ordering::Acquire,
            Ordering::Acquire,
        ) {
            Ok(_) => Ok(version),
            Err(observed) => Err(LockWord::decode(observed)),
        }
    }

    /// Checks the owner before an unlock, leaving the word untouched (and
    /// counting a discipline violation) on mismatch. Release builds used to
    /// skip this check entirely and silently clobber lock words held by
    /// other threads; a refused unlock is recoverable, a corrupted lock
    /// word is not.
    #[inline]
    fn owner_check(&self, s: StripeIndex, owner: ThreadId) -> bool {
        let ok = self.load(s).owner == Some(owner);
        if !ok {
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Releases a stripe, publishing `new_version` (a committer's `wv`).
    ///
    /// Returns `false` — refusing the unlock and leaving the lock word
    /// untouched — if the stripe was not locked by `owner`; the incident is
    /// counted in [`LockTable::discipline_violations`]. Debug builds also
    /// assert.
    #[must_use = "a refused unlock means the lock word was not released"]
    pub fn unlock_publish(&self, s: StripeIndex, owner: ThreadId, new_version: u64) -> bool {
        if !self.owner_check(s, owner) {
            return false;
        }
        // Release: publishes the redo-log writes performed under the lock —
        // any Acquire load that sees `new_version` sees those writes too.
        self.stripes[s.0 as usize]
            .word
            .store(LockWord::encode_unlocked(new_version), Ordering::Release);
        true
    }

    /// Releases a stripe restoring its pre-lock version (abort path).
    ///
    /// Returns `false` — refusing the unlock and leaving the lock word
    /// untouched — if the stripe was not locked by `owner`; the incident is
    /// counted in [`LockTable::discipline_violations`]. Debug builds also
    /// assert.
    #[must_use = "a refused unlock means the lock word was not released"]
    pub fn unlock_restore(&self, s: StripeIndex, owner: ThreadId, old_version: u64) -> bool {
        if !self.owner_check(s, owner) {
            return false;
        }
        // Release: no data was published (abort restores the old version),
        // but the unlock must still order after any tentative stores so the
        // next locker never observes them.
        self.stripes[s.0 as usize]
            .word
            .store(LockWord::encode_unlocked(old_version), Ordering::Release);
        true
    }

    /// Number of unlock attempts refused because the caller was not the
    /// stripe's owner. Always zero in a correct engine.
    pub fn discipline_violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// Records that `who`'s commit `seq` last wrote this stripe.
    pub fn stamp(&self, s: StripeIndex, who: Participant, seq: CommitSeq) {
        let enc = (seq.raw() << 32) | ((who.thread.raw() as u64) << 16) | who.tx.raw() as u64;
        // Release: a stamp written before `unlock_publish` must be visible
        // to any aborting reader that attributes its conflict to `seq`.
        self.stripes[s.0 as usize].stamp.store(enc, Ordering::Release);
    }

    /// Last committer of this stripe, if any commit has written it.
    ///
    /// The sequence component is truncated to 32 bits; `None` is returned
    /// before the first commit.
    pub fn last_writer(&self, s: StripeIndex) -> Option<(Participant, CommitSeq)> {
        // Acquire: pairs with the Release in `stamp` — attribution is
        // best-effort (a racing commit may overwrite), but never torn.
        let raw = self.stripes[s.0 as usize].stamp.load(Ordering::Acquire);
        if raw == 0 {
            return None;
        }
        let seq = CommitSeq::new(raw >> 32);
        let thread = ThreadId::new(((raw >> 16) & 0xFFFF) as u16);
        let tx = TxId::new((raw & 0xFFFF) as u16);
        Some((Participant::new(thread, tx), seq))
    }

    /// Registers `thread` as a visible reader of the stripe (no-op when the
    /// table was built without reader registries). Reentrant: nested reads
    /// bump a per-thread count. Allocates the stripe's registry on first
    /// use.
    pub fn register_reader(&self, s: StripeIndex, thread: ThreadId) {
        if let Some(slots) = &self.readers {
            let reg = slots[s.0 as usize].get_or_init(|| Box::new(Mutex::new(Vec::new())));
            let mut list = reg.lock();
            if let Some(entry) = list.iter_mut().find(|(t, _)| *t == thread.raw()) {
                entry.1 += 1;
            } else {
                list.push((thread.raw(), 1));
            }
        }
    }

    /// Removes one registration of `thread` from the stripe.
    pub fn unregister_reader(&self, s: StripeIndex, thread: ThreadId) {
        if let Some(slots) = &self.readers {
            // A stripe nobody ever registered on has no registry to clean.
            let Some(reg) = slots[s.0 as usize].get() else { return };
            let mut list = reg.lock();
            if let Some(pos) = list.iter().position(|(t, _)| *t == thread.raw()) {
                list[pos].1 -= 1;
                if list[pos].1 == 0 {
                    list.swap_remove(pos);
                }
            }
        }
    }

    /// Visible readers of a stripe, excluding `me`. Empty when registries are
    /// disabled.
    pub fn readers_excluding(&self, s: StripeIndex, me: ThreadId) -> Vec<ThreadId> {
        match &self.readers {
            Some(slots) => match slots[s.0 as usize].get() {
                Some(reg) => reg
                    .lock()
                    .iter()
                    .filter(|(t, _)| *t != me.raw())
                    .map(|(t, _)| ThreadId::new(*t))
                    .collect(),
                None => Vec::new(),
            },
            None => Vec::new(),
        }
    }

    /// Whether reader registries are enabled.
    pub fn tracks_readers(&self) -> bool {
        self.readers.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pad::bytes_apart;
    use crate::rng::SmallRng;

    fn p(t: u16, x: u16) -> Participant {
        Participant::new(ThreadId::new(t), TxId::new(x))
    }

    #[test]
    fn fresh_stripes_are_unlocked_version_zero() {
        let lt = LockTable::new(4, false);
        let w = lt.load(StripeIndex(3));
        assert_eq!(w, LockWord { version: 0, locked: false, owner: None });
    }

    #[test]
    fn lock_publish_cycle() {
        let lt = LockTable::new(4, false);
        let s = StripeIndex(1);
        let owner = ThreadId::new(5);
        let old = lt.try_lock(s, owner).expect("lock");
        assert_eq!(old, 0);
        let w = lt.load(s);
        assert!(w.locked);
        assert_eq!(w.owner, Some(owner));
        assert_eq!(w.version, 0, "version visible while locked");
        assert!(lt.unlock_publish(s, owner, 42));
        let w = lt.load(s);
        assert!(!w.locked);
        assert_eq!(w.version, 42);
    }

    #[test]
    fn lock_restore_keeps_version() {
        let lt = LockTable::new(4, false);
        let s = StripeIndex(0);
        let owner = ThreadId::new(1);
        lt.try_lock(s, owner).unwrap();
        assert!(lt.unlock_publish(s, owner, 7));
        let old = lt.try_lock(s, owner).unwrap();
        assert_eq!(old, 7);
        assert!(lt.unlock_restore(s, owner, old));
        assert_eq!(lt.load(s).version, 7);
    }

    #[test]
    fn unlock_by_non_owner_is_refused_and_counted() {
        let lt = LockTable::new(4, false);
        let s = StripeIndex(1);
        let owner = ThreadId::new(1);
        lt.try_lock(s, owner).unwrap();
        assert_eq!(lt.discipline_violations(), 0);

        // Another thread trying to publish must be refused with the word
        // untouched — the stripe stays locked by the real owner.
        assert!(!lt.unlock_publish(s, ThreadId::new(2), 99));
        assert_eq!(lt.discipline_violations(), 1);
        let w = lt.load(s);
        assert!(w.locked);
        assert_eq!(w.owner, Some(owner));
        assert_eq!(w.version, 0);

        // Same for the restore path.
        assert!(!lt.unlock_restore(s, ThreadId::new(3), 0));
        assert_eq!(lt.discipline_violations(), 2);
        assert_eq!(lt.load(s).owner, Some(owner));

        // The owner's unlock still succeeds afterwards.
        assert!(lt.unlock_publish(s, owner, 5));
        assert_eq!(lt.load(s), LockWord { version: 5, locked: false, owner: None });
        assert_eq!(lt.discipline_violations(), 2, "legitimate unlock adds no violation");
    }

    #[test]
    fn unlock_of_unlocked_stripe_is_refused() {
        let lt = LockTable::new(4, false);
        let s = StripeIndex(2);
        assert!(!lt.unlock_restore(s, ThreadId::new(0), 0), "stripe was never locked");
        assert_eq!(lt.discipline_violations(), 1);
        assert_eq!(lt.load(s).version, 0);
    }

    #[test]
    fn double_lock_fails_and_reports_owner() {
        let lt = LockTable::new(4, false);
        let s = StripeIndex(2);
        lt.try_lock(s, ThreadId::new(1)).unwrap();
        let err = lt.try_lock(s, ThreadId::new(2)).unwrap_err();
        assert!(err.locked);
        assert_eq!(err.owner, Some(ThreadId::new(1)));
    }

    #[test]
    fn stamps_round_trip() {
        let lt = LockTable::new(4, false);
        let s = StripeIndex(3);
        assert_eq!(lt.last_writer(s), None);
        lt.stamp(s, p(6, 0), CommitSeq::new(99));
        let (who, seq) = lt.last_writer(s).unwrap();
        assert_eq!(who, p(6, 0));
        assert_eq!(seq, CommitSeq::new(99));
    }

    #[test]
    fn stripe_mapping_is_stable_and_in_range() {
        let lt = LockTable::new(6, false);
        for i in 0..1000u64 {
            let v = VarId::from_raw(i);
            let s1 = lt.stripe_of(v);
            let s2 = lt.stripe_of(v);
            assert_eq!(s1, s2);
            assert!((s1.0 as usize) < lt.len());
        }
    }

    /// The stripe mapping is the determinism contract: it must stay
    /// bit-identical to the classic table's Fibonacci hash, or every
    /// sim-mode golden digest moves.
    #[test]
    fn stripe_mapping_matches_legacy_hash() {
        let lt = LockTable::new(6, false);
        for i in 0..1000u64 {
            let v = VarId::from_raw(i * 2_654_435_761 + 1);
            let legacy = ((v.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24) & 63) as u32;
            assert_eq!(lt.stripe_of(v), StripeIndex(legacy));
        }
        // The engine's own size, with indices read off the table before its
        // stripes were packed: a layout change must move none of them.
        let lt = LockTable::new(crate::stm::LOG2_STRIPES, false);
        assert_eq!(lt.len(), 1 << 14);
        let pinned = [
            (0u64, 0u32),
            (1, 14_719),
            (2, 13_054),
            (3, 11_389),
            (7, 4_731),
            (64, 8_146),
            (1_000, 6_458),
            (4_096, 13_479),
            (123_456_789, 1_220),
            (0xDEAD_BEEF, 5_934),
            (u64::MAX, 1_664),
        ];
        for (raw, stripe) in pinned {
            assert_eq!(lt.stripe_of(VarId::from_raw(raw)), StripeIndex(stripe), "var {raw}");
        }
    }

    #[test]
    fn layout_stripes_tile_cache_lines() {
        assert_eq!(std::mem::size_of::<Stripe>(), 16);
        assert_eq!(std::mem::align_of::<Stripe>(), 16);
        let lt = LockTable::new(14, false);
        assert_eq!(bytes_apart(&lt.stripes[0], &lt.stripes[4]), 64, "four stripes a line");
        assert_eq!(std::mem::size_of_val(lt.stripes.as_slice()), 256 << 10);
    }

    #[test]
    fn reader_registry_counts_nesting() {
        let lt = LockTable::new(4, true);
        let s = StripeIndex(1);
        let t = ThreadId::new(3);
        lt.register_reader(s, t);
        lt.register_reader(s, t);
        lt.unregister_reader(s, t);
        assert_eq!(lt.readers_excluding(s, ThreadId::new(0)), vec![t]);
        lt.unregister_reader(s, t);
        assert!(lt.readers_excluding(s, ThreadId::new(0)).is_empty());
    }

    #[test]
    fn readers_excluding_filters_self() {
        let lt = LockTable::new(4, true);
        let s = StripeIndex(0);
        lt.register_reader(s, ThreadId::new(1));
        lt.register_reader(s, ThreadId::new(2));
        let rs = lt.readers_excluding(s, ThreadId::new(1));
        assert_eq!(rs, vec![ThreadId::new(2)]);
    }

    #[test]
    fn registry_disabled_is_noop() {
        let lt = LockTable::new(4, false);
        assert!(!lt.tracks_readers());
        lt.register_reader(StripeIndex(0), ThreadId::new(1));
        assert!(lt.readers_excluding(StripeIndex(0), ThreadId::new(9)).is_empty());
    }

    #[test]
    fn reader_registries_allocate_lazily() {
        let lt = LockTable::new(8, true);
        let allocated = |lt: &LockTable| {
            lt.readers.as_ref().unwrap().iter().filter(|s| s.get().is_some()).count()
        };
        assert_eq!(allocated(&lt), 0, "nothing allocated up front");
        // Probing an untouched stripe must not allocate its registry.
        assert!(lt.readers_excluding(StripeIndex(5), ThreadId::new(0)).is_empty());
        lt.unregister_reader(StripeIndex(5), ThreadId::new(0));
        assert_eq!(allocated(&lt), 0);

        lt.register_reader(StripeIndex(5), ThreadId::new(0));
        lt.register_reader(StripeIndex(5), ThreadId::new(1));
        lt.register_reader(StripeIndex(9), ThreadId::new(0));
        assert_eq!(allocated(&lt), 2, "one registry per touched stripe");
    }

    #[test]
    #[should_panic(expected = "log2_stripes must be in 1..=24")]
    fn zero_stripes_rejected() {
        let _ = LockTable::new(0, false);
    }

    #[test]
    #[should_panic(expected = "log2_stripes must be in 1..=24")]
    fn too_many_stripes_rejected() {
        let _ = LockTable::new(25, false);
    }

    #[test]
    fn raw_fast_path_matches_decoded_load() {
        let lt = LockTable::new(4, false);
        let s = StripeIndex(2);
        let raw = lt.load_raw(s);
        assert!(!LockTable::raw_locked(raw));
        assert_eq!(LockTable::raw_version(raw), 0);
        assert_eq!(LockTable::decode_raw(raw), lt.load(s));

        let owner = ThreadId::new(3);
        lt.try_lock(s, owner).unwrap();
        let raw = lt.load_raw(s);
        assert!(LockTable::raw_locked(raw));
        assert_eq!(LockTable::decode_raw(raw), lt.load(s));
        assert!(lt.unlock_publish(s, owner, 55));
        let raw = lt.load_raw(s);
        assert!(!LockTable::raw_locked(raw));
        assert_eq!(LockTable::raw_version(raw), 55);
        assert_eq!(LockTable::decode_raw(raw), lt.load(s));
    }

    #[test]
    fn version_survives_lock_round_trip_at_large_values() {
        let lt = LockTable::new(2, false);
        let s = StripeIndex(0);
        let owner = ThreadId::new(0xFFFF);
        lt.try_lock(s, owner).unwrap();
        assert!(lt.unlock_publish(s, owner, (1 << 46) + 12345));
        let w = lt.load(s);
        assert_eq!(w.version, (1 << 46) + 12345);
        assert!(!w.locked);
    }

    #[test]
    fn version_at_exactly_max_is_accepted() {
        let lt = LockTable::new(2, false);
        let s = StripeIndex(1);
        let owner = ThreadId::new(7);
        lt.try_lock(s, owner).unwrap();
        assert!(lt.unlock_publish(s, owner, MAX_VERSION));
        assert_eq!(lt.load(s).version, MAX_VERSION);
    }

    /// A version past 2^47 used to wrap silently into the owner/lock bits;
    /// now the encode path aborts loudly (in release builds too) instead of
    /// letting a long-running serve process corrupt its lock words.
    #[test]
    #[should_panic(expected = "lock-word version overflow")]
    fn version_overflow_fails_loudly() {
        let lt = LockTable::new(2, false);
        let s = StripeIndex(0);
        let owner = ThreadId::new(0);
        lt.try_lock(s, owner).unwrap();
        let _ = lt.unlock_publish(s, owner, MAX_VERSION + 1);
    }

    // Seeded property loops (the case counts the proptest suites used);
    // every assert names the failing seed.

    /// Lock words survive arbitrary lock/publish cycles: the version always
    /// reads back exactly, the lock bit and owner are faithful.
    #[test]
    fn prop_lock_word_round_trips() {
        for seed in 0..128 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let lt = LockTable::new(4, false);
            let s = StripeIndex(3);
            let owner = ThreadId::new(rng.gen_range(0u16..512));
            for _ in 0..rng.gen_range(1..20) {
                let v = rng.gen_range(0u64..(1 << 40));
                let pre = lt.try_lock(s, owner).expect("unlocked");
                let locked = LockWord { version: pre, locked: true, owner: Some(owner) };
                assert_eq!(lt.load(s), locked, "seed {seed}");
                assert!(lt.unlock_publish(s, owner, v), "seed {seed}");
                let unlocked = LockWord { version: v, locked: false, owner: None };
                assert_eq!(lt.load(s), unlocked, "seed {seed}");
            }
        }
    }

    /// Stamps round-trip any (thread, tx, seq-low-32) combination.
    #[test]
    fn prop_stamp_round_trips() {
        for seed in 0..128 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let lt = LockTable::new(2, false);
            let s = StripeIndex(1);
            let who = p(rng.gen_range(0..u16::MAX), rng.gen_range(0..u16::MAX));
            let seq = rng.gen_range(1u64..(1 << 32));
            lt.stamp(s, who, CommitSeq::new(seq));
            assert_eq!(lt.last_writer(s), Some((who, CommitSeq::new(seq))), "seed {seed}");
        }
    }

    /// Stripe mapping is total and stable for arbitrary ids.
    #[test]
    fn prop_stripe_mapping_is_total() {
        for seed in 0..128 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let lt = LockTable::new(rng.gen_range(1u32..12), false);
            for _ in 0..rng.gen_range(1..50) {
                let v = VarId::from_raw(rng.gen_range(0..u64::MAX));
                let s = lt.stripe_of(v);
                assert_eq!(s, lt.stripe_of(v), "seed {seed}");
                assert!((s.0 as usize) < lt.len(), "seed {seed}: {v} -> {s:?}");
            }
        }
    }
}
