//! The write-ahead log proper: group-commit batching, snapshot install
//! with log truncation, and crash recovery.
//!
//! ## Write path
//!
//! [`Wal::append`] is called *after* a transaction committed (the caller
//! tags the record with the engine's global commit sequence number), so
//! logging is entirely off the lock-hold path. Each committing OS thread
//! leases a *staging slot* on its first append and encodes the record
//! straight into that slot's batch: one short critical section on a lock
//! and a cache line no other committer touches, no allocation, no I/O. The
//! appender that brings its batch to [`WalConfig::batch_records`] swaps the
//! buffer out and writes it to the log device in one call — group commit —
//! under the shared *device* lock, where the shared accounting moves too:
//! once per batch. Nothing holds a slot and the device lock at once, so
//! batches reach the device in any order; [`recover`] sorts the frames and
//! cuts at the first gap. A crash loses one batch per committing thread at
//! most (under assembly, or swapped out and unwritten) and the one a drain
//! holds in flight, never a committed-and-flushed record.
//!
//! ## Snapshot / truncate
//!
//! [`Wal::install_snapshot`] persists an opaque state blob covering
//! commits `1..=upto_seq`, then rewrites the log device keeping only the
//! flushed frames beyond `upto_seq`. Recovery work is therefore bounded by
//! the snapshot interval (O(delta), not O(history)). It drains every slot,
//! then runs under the device lock only: appends continue beside it.
//!
//! ## Crash model
//!
//! An armed [`KillSwitch`] freezes the disk at a structural crash point:
//! mid-batch (a torn frame is left behind), mid-snapshot (the old snapshot
//! and full log survive; the new snapshot never installs), or
//! post-truncate (the freshly truncated state survives). After the switch
//! trips, every device mutation silently stops — exactly the bytes a real
//! crash would leave are what [`recover`] later reads. Kill points are
//! observed, and device calls made, under the device lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gstm_core::sync::Mutex;
use gstm_core::{KillPoint, KillSwitch, PerThread};

use crate::device::LogDevice;
use crate::frame::{decode_log, decode_snapshot, encode_frame, encode_snapshot, WalError};

/// Sizing knobs of a [`Wal`].
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Group-commit batch size: the in-flight buffer flushes when this many
    /// records accumulate.
    pub batch_records: usize,
    /// Callers are advised (by [`Wal::append`]'s return value) to snapshot
    /// once this many records were appended since the last truncation.
    pub snapshot_every: u64,
}

impl WalConfig {
    /// Defaults: batches of 32 records, snapshot advice every 256.
    pub fn new() -> Self {
        WalConfig { batch_records: 32, snapshot_every: 256 }
    }

    /// Sets the group-commit batch size (min 1).
    pub fn with_batch_records(mut self, n: usize) -> Self {
        self.batch_records = n.max(1);
        self
    }

    /// Sets the snapshot advice interval (min 1).
    pub fn with_snapshot_every(mut self, n: u64) -> Self {
        self.snapshot_every = n.max(1);
        self
    }
}

impl Default for WalConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Counters reported by [`Wal::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records accepted into the in-flight buffer.
    pub appended: u64,
    /// Group-commit flushes that reached the device.
    pub flushes: u64,
    /// Records those flushes persisted.
    pub flushed_records: u64,
    /// Snapshots installed.
    pub snapshots: u64,
    /// Frames dropped from the log by snapshot truncation.
    pub truncated_records: u64,
    /// Records discarded because the disk was already dead (crashed).
    pub lost_dead: u64,
}

/// Encoded frames back to back, with `(seq, offset)` of each in order.
#[derive(Default)]
struct Frames {
    bytes: Vec<u8>,
    index: Vec<(u64, usize)>,
}

impl Frames {
    fn push(&mut self, seq: u64, payload: &[u8]) {
        self.index.push((seq, self.bytes.len()));
        encode_frame(seq, payload, &mut self.bytes);
    }

    fn extend(&mut self, other: &Frames) {
        let base = self.bytes.len();
        self.index.extend(other.index.iter().map(|&(seq, at)| (seq, base + at)));
        self.bytes.extend_from_slice(&other.bytes);
    }

    /// Drops every frame with `seq <= upto`, closing the gaps in place and
    /// keeping the order of the rest. Returns how many frames went.
    fn drop_through(&mut self, upto: u64) -> usize {
        let before = self.index.len();
        let (mut kept, mut end) = (0, 0);
        for i in 0..before {
            let (seq, at) = self.index[i];
            let next = self.index.get(i + 1).map_or(self.bytes.len(), |&(_, at)| at);
            if seq > upto {
                self.bytes.copy_within(at..next, end);
                self.index[kept] = (seq, end);
                kept += 1;
                end += next - at;
            }
        }
        self.index.truncate(kept);
        self.bytes.truncate(end);
        before - kept
    }
}

/// One committing thread's side: held by it for one frame encode and by a
/// drain for one swap, never across I/O.
#[derive(Default)]
struct Slot {
    /// The group-commit batch under assembly.
    batch: Frames,
    /// The last written batch's cleared buffer: swapping allocates nothing.
    spare: Frames,
    appended: u64,
}

impl Slot {
    fn swap_out(&mut self) -> Frames {
        std::mem::replace(&mut self.batch, std::mem::take(&mut self.spare))
    }
}

/// Staging slots per [`Wal`]. Committers beyond this fold onto shared
/// slots, which stays correct (a slot is a mutex) and merely shares again.
const SLOTS: usize = 64;

/// The device side: held across the devices' I/O by the one thread that
/// writes a batch or installs a snapshot.
#[derive(Default)]
struct DeviceSide {
    /// Mirror of the log device: the flushed frames in device order,
    /// needed to rewrite the device at truncation.
    in_log: Frames,
    /// The four counters device calls move (the other two stay 0 here).
    stats: WalStats,
}

/// A write-ahead log over two [`LogDevice`]s (log + snapshot).
pub struct Wal {
    cfg: WalConfig,
    log: Arc<dyn LogDevice>,
    snap: Arc<dyn LogDevice>,
    kill: Option<Arc<KillSwitch>>,
    /// Leased to committing threads in first-append order.
    slots: PerThread<Mutex<Slot>>,
    dev: Mutex<DeviceSide>,
    /// `dev`'s `in_log` length, moved under `dev`, for the advice to read
    /// without it. Like `lost_dead`, ordered against nothing: `Relaxed`.
    in_log: AtomicU64,
    lost_dead: AtomicU64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats())
            .field("dead", &self.is_dead())
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// A log writing through `log` and `snap`, with no crash injection.
    pub fn new(cfg: WalConfig, log: Arc<dyn LogDevice>, snap: Arc<dyn LogDevice>) -> Self {
        Wal {
            cfg,
            log,
            snap,
            kill: None,
            slots: PerThread::new(SLOTS, Mutex::default),
            dev: Mutex::default(),
            in_log: AtomicU64::new(0),
            lost_dead: AtomicU64::new(0),
        }
    }

    /// Arms crash injection: the switch's requested [`KillPoint`] trips as
    /// the log passes it.
    pub fn with_kill(mut self, kill: Arc<KillSwitch>) -> Self {
        self.kill = Some(kill);
        self
    }

    /// Whether the simulated disk has crashed.
    pub fn is_dead(&self) -> bool {
        self.kill.as_ref().is_some_and(|k| k.is_dead())
    }

    fn observe(&self, point: KillPoint) -> bool {
        self.kill.as_ref().is_some_and(|k| k.observe(point))
    }

    /// Counter snapshot (one cut per lock, not across them).
    pub fn stats(&self) -> WalStats {
        let appended = self.slots.iter().map(|slot| slot.lock().appended).sum();
        let lost_dead = self.lost_dead.load(Ordering::Relaxed);
        WalStats { appended, lost_dead, ..self.dev.lock().stats }
    }

    /// Buffers one committed record. `seq` is the engine's global commit
    /// sequence number; replay applies records in `seq` order. The append
    /// that fills its thread's batch writes it out (one group commit).
    ///
    /// Returns the snapshot advice: the log plus this thread's batch hold
    /// [`WalConfig::snapshot_every`] records, so the caller should build a
    /// snapshot and [install](Wal::install_snapshot) it.
    pub fn append(&self, seq: u64, payload: &[u8]) -> bool {
        if self.is_dead() {
            self.lost_dead.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mine = self.slots.mine();
        let mut slot = mine.lock();
        slot.batch.push(seq, payload);
        slot.appended += 1;
        let mut staged = slot.batch.index.len();
        if staged >= self.cfg.batch_records {
            let batch = slot.swap_out();
            drop(slot);
            self.write_batch(mine, batch);
            staged = 0;
        }
        self.in_log.load(Ordering::Relaxed) + staged as u64 >= self.cfg.snapshot_every
    }

    /// Flushes every slot's batch under assembly (one group commit each).
    pub fn flush(&self) {
        // A slot leased after this point is its owner's to flush.
        for owner in self.slots.leased() {
            let batch = {
                let mut slot = owner.lock();
                if slot.batch.index.is_empty() || self.is_dead() {
                    continue;
                }
                slot.swap_out()
            };
            self.write_batch(owner, batch);
        }
    }

    /// Writes `owner`'s swapped-out batch to the device, recycles its buffer.
    fn write_batch(&self, owner: &Mutex<Slot>, mut batch: Frames) {
        {
            let mut dev = self.dev.lock();
            let records = batch.index.len() as u64;
            if self.is_dead() {
                // The disk froze while the batch was in flight.
                self.lost_dead.fetch_add(records, Ordering::Relaxed);
            } else if self.observe(KillPoint::MidBatch) {
                // The crash lands partway through the device write: a torn
                // prefix, cut inside the final frame's checksum so the tear
                // is structural, is all that reaches the disk.
                let cut = batch.bytes.len() - crate::frame::FRAME_OVERHEAD / 2;
                self.log.append(&batch.bytes[..cut]);
                self.lost_dead.fetch_add(records, Ordering::Relaxed);
            } else {
                self.log.append(&batch.bytes);
                dev.stats.flushes += 1;
                dev.stats.flushed_records += records;
                dev.in_log.extend(&batch);
                self.in_log.fetch_add(records, Ordering::Relaxed);
            }
        }
        batch.bytes.clear();
        batch.index.clear();
        owner.lock().spare = batch;
    }

    /// Installs a snapshot covering commits `1..=upto_seq` and truncates
    /// the log to the flushed frames beyond `upto_seq`. The caller
    /// guarantees `state` is the materialized effect of exactly those
    /// commits, and that `upto_seq` never goes back. Returns whether the
    /// install completed (a crash at a snapshot kill point aborts it).
    pub fn install_snapshot(&self, upto_seq: u64, state: &[u8]) -> bool {
        // Everything the snapshot covers must be durable one way or the
        // other; flushing first keeps the log a superset until the
        // snapshot is in place.
        self.flush();
        let envelope = encode_snapshot(upto_seq, state);
        let mut dev = self.dev.lock();
        if self.is_dead() || self.observe(KillPoint::MidSnapshot) {
            // Crashed before the atomic install: old snapshot + full
            // log survive untouched.
            return false;
        }
        self.snap.reset(&envelope);
        let dropped = dev.in_log.drop_through(upto_seq) as u64;
        self.log.reset(&dev.in_log.bytes);
        self.in_log.fetch_sub(dropped, Ordering::Relaxed);
        dev.stats.snapshots += 1;
        dev.stats.truncated_records += dropped;
        // The crash lands after a fully consistent snapshot+truncate;
        // the disk merely stops accepting new writes.
        self.observe(KillPoint::PostTruncate);
        true
    }

    /// The current device contents, as recovery would read them after a
    /// crash at this instant: `(log_bytes, snapshot_bytes)`.
    pub fn disk_image(&self) -> (Vec<u8>, Vec<u8>) {
        (self.log.contents(), self.snap.contents())
    }
}

/// What [`recover`] reconstructed from a disk image.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovered {
    /// The snapshot's opaque state payload, if one was installed.
    pub snapshot: Option<Vec<u8>>,
    /// Sequence number the snapshot covers (0 = none).
    pub base_seq: u64,
    /// Log records to replay on top, sorted by sequence number, gap-free
    /// from `base_seq + 1`.
    pub tail: Vec<(u64, Vec<u8>)>,
    /// Whether the log ended in a torn frame (normal after a crash).
    pub torn: bool,
    /// Flushed records discarded because an earlier sequence number was
    /// missing — they are beyond the recoverable prefix.
    pub dropped_after_gap: u64,
}

impl Recovered {
    /// The last sequence number recovery restores.
    pub fn recovered_seq(&self) -> u64 {
        self.tail.last().map_or(self.base_seq, |(seq, _)| *seq)
    }
}

/// Rebuilds the recoverable prefix from a disk image.
///
/// The snapshot envelope is verified, the log frames are checksummed
/// (a torn tail is tolerated; corruption is not), and the surviving
/// records are sorted by sequence number and cut at the first gap after
/// the snapshot — group commit flushes whole batches, so the recovered
/// set is always a consistent prefix of the commit order.
///
/// # Errors
///
/// Returns [`WalError`] if the snapshot or any complete log frame fails
/// its checksum.
pub fn recover(log_bytes: &[u8], snap_bytes: &[u8]) -> Result<Recovered, WalError> {
    let (base_seq, snapshot) = match decode_snapshot(snap_bytes)? {
        Some((seq, state)) => (seq, Some(state)),
        None => (0, None),
    };
    let decoded = decode_log(log_bytes)?;
    let mut frames: Vec<(u64, Vec<u8>)> =
        decoded.frames.into_iter().filter(|(seq, _)| *seq > base_seq).collect();
    frames.sort_by_key(|(seq, _)| *seq);
    let mut tail = Vec::with_capacity(frames.len());
    let mut next = base_seq + 1;
    let mut dropped = 0u64;
    for (seq, payload) in frames {
        if seq == next {
            tail.push((seq, payload));
            next += 1;
        } else {
            dropped += 1;
        }
    }
    Ok(Recovered { snapshot, base_seq, tail, torn: decoded.torn, dropped_after_gap: dropped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    fn wal(batch: usize, snap_every: u64) -> Wal {
        Wal::new(
            WalConfig::new().with_batch_records(batch).with_snapshot_every(snap_every),
            Arc::new(MemDevice::new()),
            Arc::new(MemDevice::new()),
        )
    }

    #[test]
    fn group_commit_batches_appends() {
        let w = wal(4, 1000);
        for seq in 1..=10u64 {
            w.append(seq, &[seq as u8]);
        }
        let s = w.stats();
        assert_eq!(s.appended, 10);
        assert_eq!(s.flushes, 2, "two full batches of 4");
        assert_eq!(s.flushed_records, 8, "two records still buffered");
        w.flush();
        assert_eq!(w.stats().flushes, 3);
        assert_eq!(w.stats().flushed_records, 10);
        let (log, snap) = w.disk_image();
        let r = recover(&log, &snap).unwrap();
        assert_eq!(r.recovered_seq(), 10);
        assert!(!r.torn);
    }

    #[test]
    fn crash_loses_only_the_unflushed_buffer() {
        let w = wal(4, 1000);
        for seq in 1..=6u64 {
            w.append(seq, b"x");
        }
        // No flush: records 5..6 sit in the buffer; the disk image holds
        // exactly the first batch.
        let (log, snap) = w.disk_image();
        let r = recover(&log, &snap).unwrap();
        assert_eq!(r.recovered_seq(), 4);
        assert_eq!(r.tail.len(), 4);
    }

    #[test]
    fn snapshot_truncates_and_recovery_uses_both() {
        let w = wal(2, 1000);
        for seq in 1..=7u64 {
            w.append(seq, &seq.to_le_bytes());
        }
        w.flush();
        assert!(w.install_snapshot(5, b"state-at-5"));
        let s = w.stats();
        assert_eq!(s.snapshots, 1);
        assert_eq!(s.truncated_records, 5);
        for seq in 8..=9u64 {
            w.append(seq, &seq.to_le_bytes());
        }
        w.flush();
        let (log, snap) = w.disk_image();
        let r = recover(&log, &snap).unwrap();
        assert_eq!(r.base_seq, 5);
        assert_eq!(r.snapshot.as_deref(), Some(&b"state-at-5"[..]));
        assert_eq!(r.tail.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(r.recovered_seq(), 9);
    }

    #[test]
    fn out_of_order_appends_recover_in_seq_order_and_gaps_cut() {
        let w = wal(100, 1000);
        for seq in [2u64, 1, 3, 5, 7, 6] {
            w.append(seq, &[seq as u8]);
        }
        w.flush();
        let (log, snap) = w.disk_image();
        let r = recover(&log, &snap).unwrap();
        assert_eq!(r.tail.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(r.dropped_after_gap, 3, "5, 6, 7 are beyond the missing 4");
    }

    #[test]
    fn mid_batch_kill_leaves_a_recoverable_torn_log() {
        let kill = Arc::new(KillSwitch::new());
        kill.request(KillPoint::MidBatch);
        let w = wal(4, 1000).with_kill(Arc::clone(&kill));
        for seq in 1..=8u64 {
            w.append(seq, b"payload");
        }
        assert!(kill.is_dead(), "first batch flush tripped the switch");
        assert!(w.stats().lost_dead >= 4, "the torn batch and later appends are lost");
        let (log, snap) = w.disk_image();
        let r = recover(&log, &snap).unwrap();
        assert!(r.torn, "half a batch is a torn tail");
        assert!(r.recovered_seq() < 4, "the torn batch cannot fully survive");
    }

    #[test]
    fn mid_snapshot_kill_preserves_old_snapshot_and_log() {
        let kill = Arc::new(KillSwitch::new());
        let w = wal(2, 1000).with_kill(Arc::clone(&kill));
        for seq in 1..=4u64 {
            w.append(seq, &[seq as u8]);
        }
        assert!(w.install_snapshot(4, b"first"), "no crash requested yet");
        for seq in 5..=6u64 {
            w.append(seq, &[seq as u8]);
        }
        kill.request(KillPoint::MidSnapshot);
        assert!(!w.install_snapshot(6, b"second"), "crashed before install");
        let (log, snap) = w.disk_image();
        let r = recover(&log, &snap).unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(&b"first"[..]), "old snapshot survives");
        assert_eq!(r.recovered_seq(), 6, "full log still replays on top");
    }

    #[test]
    fn post_truncate_kill_recovers_from_fresh_snapshot() {
        let kill = Arc::new(KillSwitch::new());
        kill.request(KillPoint::PostTruncate);
        let w = wal(2, 1000).with_kill(Arc::clone(&kill));
        for seq in 1..=4u64 {
            w.append(seq, &[seq as u8]);
        }
        assert!(w.install_snapshot(4, b"state"), "install completes, then the disk dies");
        assert!(kill.is_dead());
        w.append(5, b"lost");
        w.flush();
        let (log, snap) = w.disk_image();
        let r = recover(&log, &snap).unwrap();
        assert_eq!(r.base_seq, 4);
        assert!(r.tail.is_empty(), "post-truncate image is snapshot-only");
    }

    #[test]
    fn corrupted_tail_is_detected_not_replayed() {
        let w = wal(2, 1000);
        for seq in 1..=4u64 {
            w.append(seq, b"payload");
        }
        w.flush();
        let (mut log, snap) = w.disk_image();
        let off = log.len() - 12; // inside the last complete frame's payload
        log[off] ^= 0x01;
        assert!(matches!(recover(&log, &snap), Err(WalError::CorruptFrame { .. })));
    }

    /// FNV digests of the `(log, snapshot)` images plus the counters.
    fn image(w: &Wal) -> (u64, u64, WalStats) {
        let (log, snap) = w.disk_image();
        (crate::frame::fnv1a64(&log), crate::frame::fnv1a64(&snap), w.stats())
    }

    fn stats(c: [u64; 6]) -> WalStats {
        WalStats {
            appended: c[0],
            flushes: c[1],
            flushed_records: c[2],
            snapshots: c[3],
            truncated_records: c[4],
            lost_dead: c[5],
        }
    }

    /// The device bytes are a function of the sequential call sequence.
    /// These digests were recorded on the pre-PR-16 `Wal` (records kept as
    /// `Vec<(u64, Vec<u8>)>`, everything under one lock); any rewrite of
    /// the write path must reproduce them bit for bit.
    #[test]
    fn sequential_images_are_pinned() {
        // Out-of-order appends, a partial flush, an install that flushes
        // two buffered records and keeps four frames, then more appends.
        let w = wal(4, 1000);
        for seq in [2u64, 1, 3, 5, 4, 6] {
            w.append(seq, &seq.to_le_bytes());
        }
        w.flush();
        w.append(8, b"eight");
        w.append(7, b"");
        assert_eq!(image(&w), (PIN[0].0, PIN[0].1, stats([8, 2, 6, 0, 0, 0])));
        assert!(w.install_snapshot(4, b"state-at-4"));
        assert_eq!(image(&w), (PIN[1].0, PIN[1].1, stats([8, 3, 8, 1, 4, 0])));
        w.append(9, b"nine");
        w.flush();
        assert_eq!(image(&w), (PIN[2].0, PIN[2].1, stats([9, 4, 9, 1, 4, 0])));

        // Mid-batch: the first full batch tears; later appends are lost.
        let kill = Arc::new(KillSwitch::new());
        kill.request(KillPoint::MidBatch);
        let w = wal(4, 1000).with_kill(Arc::clone(&kill));
        for seq in 1..=6u64 {
            w.append(seq, b"payload");
        }
        w.flush();
        assert_eq!(image(&w), (PIN[3].0, PIN[3].1, stats([4, 0, 0, 0, 0, 6])));

        // Mid-snapshot: the second install never lands, the log is whole.
        let kill = Arc::new(KillSwitch::new());
        let w = wal(4, 1000).with_kill(Arc::clone(&kill));
        for seq in 1..=4u64 {
            w.append(seq, &[seq as u8]);
        }
        assert!(w.install_snapshot(4, b"first"));
        w.append(5, b"five");
        w.append(6, b"six");
        kill.request(KillPoint::MidSnapshot);
        assert!(!w.install_snapshot(6, b"second"));
        w.append(7, b"lost");
        assert_eq!(image(&w), (PIN[4].0, PIN[4].1, stats([6, 2, 6, 1, 4, 1])));

        // Post-truncate: the install completes, then the disk is frozen.
        let kill = Arc::new(KillSwitch::new());
        kill.request(KillPoint::PostTruncate);
        let w = wal(4, 1000).with_kill(Arc::clone(&kill));
        for seq in 1..=5u64 {
            w.append(seq, &[seq as u8]);
        }
        assert!(w.install_snapshot(3, b"state"));
        w.append(6, b"lost");
        w.flush();
        assert_eq!(image(&w), (PIN[5].0, PIN[5].1, stats([5, 2, 5, 1, 3, 1])));
    }

    /// `(log digest, snapshot digest)` after each step of
    /// [`sequential_images_are_pinned`].
    const PIN: [(u64, u64); 6] = [
        (0xa036_a7ca_e46c_f712, 0xcbf2_9ce4_8422_2325),
        (0xbc35_4104_48ae_8bbe, 0xea2c_36b7_97e4_f989),
        (0x9345_5ba0_401d_459b, 0xea2c_36b7_97e4_f989),
        (0x022a_a594_4d83_53de, 0xcbf2_9ce4_8422_2325),
        (0x7735_bca0_9447_da5e, 0xd46a_a045_a0e3_c715),
        (0x32d9_d256_f539_e6d4, 0x78a0_8e16_4cbf_02cc),
    ];

    /// Appends one record from a fresh OS thread and says which slot that
    /// thread leased.
    fn append_from_new_thread(w: &Wal, seq: u64) -> usize {
        std::thread::scope(|scope| {
            let committer = scope.spawn(|| {
                w.append(seq, b"x");
                my_slot(w)
            });
            committer.join().expect("the committer appends")
        })
    }

    /// Which of `w`'s slots the calling thread stages in.
    fn my_slot(w: &Wal) -> usize {
        let mine = w.slots.mine();
        (0..SLOTS).position(|at| std::ptr::eq(&w.slots[at], mine)).expect("one of the slots")
    }

    #[test]
    fn one_thread_stages_in_slot_0_of_each_log() {
        let (a, b) = (wal(4, 1000), wal(4, 1000));
        assert!(!a.append(1, b"x") && !b.append(1, b"x"));
        assert_eq!((my_slot(&a), my_slot(&b)), (0, 0));
    }

    #[test]
    fn layout_two_committers_stage_a_line_apart() {
        let w = wal(4, 1000);
        let (a, b) = (append_from_new_thread(&w, 1), append_from_new_thread(&w, 2));
        assert_ne!(a, b, "each committing thread leases a slot of its own");
        let at = |slot: usize| &*w.slots[slot].lock() as *const Slot as usize;
        assert!(at(a).abs_diff(at(b)) >= 64, "slots {a} and {b} share a cache line");
        assert_eq!(at(a) % 64, at(b) % 64, "padding is per slot, not per array");
    }

    /// Slot numbers come from the instance: however many threads the
    /// process ran before, a log's first committers get slots 0, 1, … and
    /// a flush drains them in that order.
    #[test]
    fn slots_are_leased_per_log_in_first_append_order() {
        let busy = wal(4, 1000);
        for seq in 1..=(SLOTS as u64 + 5) {
            append_from_new_thread(&busy, seq);
        }
        let w = wal(4, 1000);
        assert_eq!((append_from_new_thread(&w, 2), append_from_new_thread(&w, 1)), (0, 1));
        assert_eq!(my_slot(&w), 2, "the third thread to ask, whatever `busy` handed out");
        w.flush();
        let order: Vec<u64> = w.dev.lock().in_log.index.iter().map(|&(seq, _)| seq).collect();
        assert_eq!(order, vec![2, 1]);
        // More committers than slots fold onto shared slots and lose nothing.
        busy.flush();
        let (log, snap) = busy.disk_image();
        assert_eq!(recover(&log, &snap).unwrap().recovered_seq(), SLOTS as u64 + 5);
        assert_eq!(busy.stats().appended, SLOTS as u64 + 5);
    }

    /// The advice counts the log plus the caller's own batch: another
    /// thread's staged records join at that thread's batch boundary.
    #[test]
    fn advice_counts_the_log_and_the_callers_batch() {
        let w = wal(4, 6);
        assert!(!w.append(1, b"x") && !w.append(2, b"x"));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                (3..=6u64).for_each(|seq| assert!(!w.append(seq, b"x"), "seq {seq}"));
                assert!(!w.append(8, b"x"), "4 in the log + 1 here; the other 2 are not seen");
            });
        });
        assert!(w.append(7, b"x"), "4 in the log + 3 staged by this thread");
    }

    #[test]
    fn append_advises_a_snapshot_by_volume() {
        let w = wal(2, 5);
        for seq in 1..=4u64 {
            assert!(!w.append(seq, b"x"));
        }
        assert!(w.append(5, b"x"), "five records since the last truncation");
        assert!(w.install_snapshot(5, b"s"));
        assert!(!w.append(6, b"x"), "truncation resets the count");
    }
}
