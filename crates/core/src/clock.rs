//! TL2's global version clock.
//!
//! The clock is the first of the commit spine's two shared-write hot spots
//! (the other is the [lock table](crate::lock_table)): classic TL2 GV1,
//! every writer `fetch_add(1)`s the word, which the sim-mode determinism
//! goldens pin. Read-only transactions never touch it.
//!
//! The word itself is [`CachePadded`] so the clock never false-shares a
//! line with the commit-sequence counter or anything else in
//! [`crate::Stm`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::pad::CachePadded;

/// The global version clock at the heart of TL2.
///
/// Every transaction samples the clock at begin (`rv`, the *read version*);
/// every writing transaction advances it at commit to obtain its *write
/// version* `wv`. A location whose version exceeds `rv` was modified after
/// this transaction began and must not be read.
///
/// The clock is private to the engine; the oracle's `CommitCheck` event
/// shows both samples from outside: a writer's `wv` exceeds its `rv`.
///
/// ```
/// use std::sync::Arc;
/// use gstm_core::cm::Aggressive;
/// use gstm_core::{AdmitAll, EventSink, MemorySink, NullGate, Stm, StmConfig};
/// use gstm_core::{TVar, ThreadId, TxEvent, TxId};
///
/// let sink = Arc::new(MemorySink::new());
/// let stm = Stm::with_parts(
///     StmConfig::builder(1).check_events(true).build(),
///     Arc::new(NullGate),
///     Arc::clone(&sink) as Arc<dyn EventSink>,
///     Arc::new(AdmitAll),
///     Arc::new(Aggressive),
/// );
/// let a = TVar::new(0i64);
/// stm.run(ThreadId::new(0), TxId::new(0), |tx| tx.write(&a, 1));
/// let (rv, wv) = sink
///     .take()
///     .into_iter()
///     .find_map(|e| match e {
///         TxEvent::CommitCheck { rv, wv, .. } => Some((rv, wv)),
///         _ => None,
///     })
///     .unwrap();
/// assert!(wv > rv);
/// ```
#[derive(Debug, Default)]
pub(crate) struct VersionClock {
    value: CachePadded<AtomicU64>,
}

impl VersionClock {
    /// Creates a clock at version 0.
    pub(crate) fn new() -> Self {
        VersionClock { value: CachePadded::new(AtomicU64::new(0)) }
    }

    /// Samples the current version (a transaction's `rv`).
    pub(crate) fn sample(&self) -> u64 {
        // Acquire: a sampled `rv` must see all writes published (Release, in
        // `unlock_publish`) by any commit whose `wv <= rv`; no store follows
        // that would need SeqCst's total order.
        self.value.load(Ordering::Acquire)
    }

    /// Atomically increments the clock and returns the new value (a
    /// committer's `wv`).
    pub(crate) fn tick(&self) -> u64 {
        // AcqRel: the RMW must order after this committer's write-set locks
        // (Acquire side) and publish a unique `wv` to later samplers
        // (Release side); uniqueness itself comes from RMW atomicity, which
        // holds at any ordering.
        self.value.fetch_add(1, Ordering::AcqRel) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_at_zero() {
        assert_eq!(VersionClock::new().sample(), 0);
    }

    #[test]
    fn tick_returns_new_value() {
        let c = VersionClock::new();
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
        assert_eq!(c.sample(), 2);
    }

    #[test]
    fn concurrent_ticks_are_unique() {
        let c = Arc::new(VersionClock::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles
                .push(std::thread::spawn(move || (0..1000).map(|_| c.tick()).collect::<Vec<_>>()));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "every tick must be unique");
    }
}
