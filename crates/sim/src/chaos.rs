//! Fault-injection schedules: [`ChaosGate`] wraps any inner [`Gate`] and
//! perturbs the execution it mediates under a seeded RNG.
//!
//! Three perturbations, each at a configurable per-mille rate:
//!
//! * **arrival-order delays** — a gate crossing occasionally charges extra
//!   ticks, shuffling which thread the discrete-event scheduler grants next
//!   (the virtual-time analogue of a cache miss or an unlucky preemption);
//! * **delayed commits** — the same, but targeted at the batched commit
//!   write-back crossing, stretching the window in which a committer holds
//!   its write-set locks;
//! * **forced aborts** — the crossing thread's in-flight transaction is
//!   doomed through a [`DoomHandle`], exactly as a racing committer under
//!   `AbortReaders` would doom it.
//!
//! A fourth, **kill-and-recover** perturbation targets durability rather
//! than scheduling: at a given crossing of thread 0 (counted in that
//! thread's program order) the gate *requests* a crash at a structural
//! [`KillPoint`] through an armed [`KillSwitch`]. The
//! write-ahead log observes the point as it passes it (mid-batch,
//! mid-snapshot, post-truncate) and freezes its disk there — the caller
//! decides *when* (typically from its seed), the log decides *where*
//! structurally, and recovery experiments replay the surviving bytes.
//! Because the request is placed by a crossing index rather than drawn
//! per crossing, a run that reaches that crossing crashes by construction.
//!
//! Determinism: each thread draws from its own seeded RNG in its own
//! program order, so a given `(seed, workload)` pair injects the identical
//! fault schedule regardless of how OS threads interleave — chaos runs are
//! as replayable as clean ones. The injected ticks pass through the inner
//! gate, so virtual-time accounting stays exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use gstm_core::rng::SmallRng;
use gstm_core::sync::Mutex;
use gstm_core::{DoomHandle, Gate, KillPoint, KillSwitch, ThreadId, Ticks};

/// Per-mille rates and magnitudes for a [`ChaosGate`].
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// RNG seed; per-thread streams are derived from it.
    pub seed: u64,
    /// Chance (‰) that an ordinary crossing charges extra ticks.
    pub delay_permille: u32,
    /// Injected stalls draw uniformly from `1..=max_delay` ticks.
    pub max_delay: Ticks,
    /// Chance (‰) that a crossing dooms the crossing thread's transaction.
    pub doom_permille: u32,
    /// Chance (‰) that a batched (commit write-back) crossing is stalled.
    pub commit_delay_permille: u32,
    /// Thread 0's crossing (0-based, in its program order) that requests a
    /// crash at `kill_point`.
    pub kill_at: u64,
    /// The structural crash point a kill request names; `None` requests
    /// no crash.
    pub kill_point: Option<KillPoint>,
}

impl ChaosConfig {
    /// A moderate default schedule: 5% delayed crossings of up to 40 ticks,
    /// 1% forced aborts, 20% delayed commits.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            delay_permille: 50,
            max_delay: 40,
            doom_permille: 10,
            commit_delay_permille: 200,
            kill_at: 0,
            kill_point: None,
        }
    }

    /// Enables kill-and-recover injection: thread 0's crossing number
    /// `at` (0-based) requests a crash at `point`.
    pub fn with_kill(mut self, point: KillPoint, at: u64) -> Self {
        self.kill_point = Some(point);
        self.kill_at = at;
        self
    }
}

/// Injection counters reported by [`ChaosGate::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Crossings that were stalled (ordinary and commit-batch combined).
    pub delays: u64,
    /// Total extra ticks injected by those stalls.
    pub delay_ticks: u64,
    /// Forced aborts delivered through the doom handle.
    pub dooms: u64,
    /// Crash requests accepted by the kill switch (0 or 1 per run).
    pub kills: u64,
}

/// A [`Gate`] decorator injecting seeded faults (see the module docs).
///
/// Construct it over the machine's gate, build the [`gstm_core::Stm`] on
/// it, then [`arm`](ChaosGate::arm) it with the STM's [`DoomHandle`] —
/// the handle only exists once the STM does. An unarmed gate still injects
/// delays; dooms are silently skipped.
pub struct ChaosGate {
    inner: Arc<dyn Gate>,
    cfg: ChaosConfig,
    /// Per-thread RNG stream and crossings so far.
    rngs: Vec<Mutex<(SmallRng, u64)>>,
    doom: OnceLock<DoomHandle>,
    kill: OnceLock<Arc<KillSwitch>>,
    delays: AtomicU64,
    delay_ticks: AtomicU64,
    dooms: AtomicU64,
    kills: AtomicU64,
}

impl ChaosGate {
    /// Wraps `inner`, deriving one RNG stream per thread below `threads`.
    /// Crossings from threads at or above `threads` pass through unchanged.
    pub fn new(cfg: ChaosConfig, inner: Arc<dyn Gate>, threads: usize) -> Self {
        let rngs = (0..threads)
            .map(|i| {
                let stream =
                    cfg.seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                Mutex::new((SmallRng::seed_from_u64(stream), 0))
            })
            .collect();
        ChaosGate {
            inner,
            cfg,
            rngs,
            doom: OnceLock::new(),
            kill: OnceLock::new(),
            delays: AtomicU64::new(0),
            delay_ticks: AtomicU64::new(0),
            dooms: AtomicU64::new(0),
            kills: AtomicU64::new(0),
        }
    }

    /// Arms forced aborts with the STM's doom handle. Later calls are
    /// ignored (the first handle wins).
    pub fn arm(&self, handle: DoomHandle) {
        let _ = self.doom.set(handle);
    }

    /// Arms kill-and-recover with the WAL's kill switch. Later calls are
    /// ignored (the first switch wins). An unarmed gate skips kill draws.
    pub fn arm_kill(&self, switch: Arc<KillSwitch>) {
        let _ = self.kill.set(switch);
    }

    /// Injection counters so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            delays: self.delays.load(Ordering::SeqCst),
            delay_ticks: self.delay_ticks.load(Ordering::SeqCst),
            dooms: self.dooms.load(Ordering::SeqCst),
            kills: self.kills.load(Ordering::SeqCst),
        }
    }

    /// Draws this crossing's perturbation: extra ticks to stall (0 = none),
    /// plus a possible doom delivered as a side effect.
    fn perturb(&self, thread: ThreadId, commit_batch: bool) -> Ticks {
        let Some(rng) = self.rngs.get(thread.index()) else {
            return 0;
        };
        let (rng, crossings) = &mut *rng.lock();
        let crossing = *crossings;
        *crossings += 1;
        let delay_chance =
            if commit_batch { self.cfg.commit_delay_permille } else { self.cfg.delay_permille };
        let mut extra = 0;
        if delay_chance > 0 && rng.gen_range(0..1000u32) < delay_chance {
            extra = rng.gen_range(1..=self.cfg.max_delay.max(1));
            self.delays.fetch_add(1, Ordering::SeqCst);
            self.delay_ticks.fetch_add(extra, Ordering::SeqCst);
        }
        if self.cfg.doom_permille > 0 && rng.gen_range(0..1000u32) < self.cfg.doom_permille {
            if let Some(handle) = self.doom.get() {
                handle.doom(thread);
                self.dooms.fetch_add(1, Ordering::SeqCst);
            }
        }
        if thread.index() == 0 && crossing == self.cfg.kill_at {
            if let (Some(point), Some(switch)) = (self.cfg.kill_point, self.kill.get()) {
                if switch.request(point) {
                    self.kills.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        extra
    }
}

impl Gate for ChaosGate {
    fn pass(&self, thread: ThreadId, cost: Ticks) {
        let extra = self.perturb(thread, false);
        self.inner.pass(thread, cost + extra);
    }

    fn pass_batch(&self, thread: ThreadId, cost: Ticks, count: u64) {
        // A delayed commit: stall before the write-back batch, then forward
        // the batch itself untouched so its charge total stays exact.
        let extra = self.perturb(thread, true);
        if extra > 0 {
            self.inner.pass(thread, extra);
        }
        self.inner.pass_batch(thread, cost, count);
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn thread_time(&self, thread: ThreadId) -> u64 {
        self.inner.thread_time(thread)
    }
}

impl std::fmt::Debug for ChaosGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosGate")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats())
            .field("armed", &self.doom.get().is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{NullGate, RealGate};

    fn t(i: u16) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn charges_at_least_the_base_cost() {
        let inner = Arc::new(RealGate::new(0));
        let gate = ChaosGate::new(ChaosConfig::new(1), inner.clone(), 2);
        for _ in 0..100 {
            gate.pass(t(0), 3);
        }
        assert!(inner.thread_time(t(0)) >= 300);
        let s = gate.stats();
        assert_eq!(inner.thread_time(t(0)), 300 + s.delay_ticks);
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let run = |seed| {
            let gate = ChaosGate::new(ChaosConfig::new(seed), Arc::new(NullGate), 2);
            for i in 0..500u64 {
                gate.pass(t((i % 2) as u16), 1);
                gate.pass_batch(t((i % 2) as u16), 2, 3);
            }
            gate.stats()
        };
        assert_eq!(run(7), run(7), "same seed, same injections");
        assert_ne!(run(7), run(8), "different seed, different injections");
    }

    #[test]
    fn unarmed_gate_skips_dooms_and_out_of_range_threads_pass_through() {
        let cfg = ChaosConfig { doom_permille: 1000, ..ChaosConfig::new(3) };
        let gate = ChaosGate::new(cfg, Arc::new(NullGate), 1);
        gate.pass(t(0), 1);
        assert_eq!(gate.stats().dooms, 0, "no handle, no dooms");
        gate.pass(t(9), 1); // no RNG stream: untouched crossing
        assert_eq!(gate.stats().delays, gate.stats().delays);
    }

    #[test]
    fn armed_kill_requests_exactly_one_crash() {
        let cfg = ChaosConfig { delay_permille: 0, doom_permille: 0, ..ChaosConfig::new(11) }
            .with_kill(KillPoint::MidBatch, 2);
        let gate = ChaosGate::new(cfg, Arc::new(NullGate), 2);
        gate.pass(t(0), 1);
        assert_eq!(gate.stats().kills, 0, "unarmed gate skips kill requests");
        let switch = Arc::new(KillSwitch::new());
        gate.arm_kill(Arc::clone(&switch));
        for _ in 0..5 {
            gate.pass(t(1), 1);
        }
        assert_eq!(gate.stats().kills, 0, "only thread 0's crossings count");
        gate.pass(t(0), 1);
        assert_eq!(gate.stats().kills, 0, "crossing 1 is before the requested one");
        gate.pass_batch(t(0), 1, 2);
        assert_eq!(gate.stats().kills, 1, "crossing 2 requests the crash");
        assert_eq!(switch.requested(), Some(KillPoint::MidBatch));
        for _ in 0..10 {
            gate.pass(t(0), 1);
        }
        assert_eq!(gate.stats().kills, 1, "exactly one request");
        assert_eq!(switch.requested(), Some(KillPoint::MidBatch));
        assert!(!switch.is_dead(), "the WAL, not the gate, trips the switch");
    }

    #[test]
    fn armed_gate_delivers_dooms() {
        use gstm_core::{Stm, StmConfig};
        let stm = Stm::new(StmConfig::new(1));
        let cfg = ChaosConfig { doom_permille: 1000, delay_permille: 0, ..ChaosConfig::new(3) };
        let gate = ChaosGate::new(cfg, Arc::new(NullGate), 1);
        gate.arm(stm.doom_handle());
        gate.arm(stm.doom_handle()); // second arm is a no-op
        gate.pass(t(0), 1);
        assert_eq!(gate.stats().dooms, 1);
    }
}
