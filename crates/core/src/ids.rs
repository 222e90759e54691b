//! Small identifier newtypes shared across the GSTM stack.
//!
//! The paper's instrumentation identifies every transactional event by a
//! *(thread, transaction)* pair: threads are the worker threads pinned to
//! cores, and transaction ids are **statically numbered atomic blocks**
//! (`TM_BEGIN(ID)` in the modified STAMP sources). We mirror both with
//! dedicated newtypes so they can never be confused with loop counters or
//! array indices.

use std::fmt;

/// Identifier of a registered STM thread.
///
/// Thread ids are dense: an [`crate::Stm`] is created for a fixed
/// `max_threads` and every id must be `< max_threads`. The experiments follow
/// the paper and pin one worker per (virtual) core, so thread ids double as
/// core ids.
///
/// ```
/// use gstm_core::ThreadId;
/// let t = ThreadId::new(3);
/// assert_eq!(t.index(), 3);
/// assert_eq!(t.to_string(), "T3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ThreadId(u16);

impl ThreadId {
    /// Creates a thread id from a dense index.
    pub fn new(index: u16) -> Self {
        ThreadId(index)
    }

    /// Dense index of this thread, usable for array indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw 16-bit representation.
    pub fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl From<u16> for ThreadId {
    fn from(v: u16) -> Self {
        ThreadId(v)
    }
}

/// Identifier of a *static* atomic block (a transaction site).
///
/// Matches the paper's source-level numbering of `TM_BEGIN(ID)`: every
/// lexical transaction in a workload gets a distinct id, and the same id is
/// reported every time that block runs. The [`fmt::Display`] impl prints ids
/// as letters (`a`, `b`, …, then `tx26`, `tx27`, …) to match the paper's
/// notation for states such as `{<a6>, <b7>}`.
///
/// ```
/// use gstm_core::TxId;
/// assert_eq!(TxId::new(0).to_string(), "a");
/// assert_eq!(TxId::new(2).to_string(), "c");
/// assert_eq!(TxId::new(30).to_string(), "tx30");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TxId(u16);

impl TxId {
    /// Creates a transaction-site id.
    pub fn new(id: u16) -> Self {
        TxId(id)
    }

    /// Dense index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw 16-bit representation.
    pub fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 26 {
            write!(f, "{}", (b'a' + self.0 as u8) as char)
        } else {
            write!(f, "tx{}", self.0)
        }
    }
}

impl From<u16> for TxId {
    fn from(v: u16) -> Self {
        TxId(v)
    }
}

/// Globally unique identifier of a [`crate::TVar`].
///
/// Assigned from a process-wide counter at variable creation. The id — not
/// the address of the value — is hashed into the striped
/// lock table, exactly like TL2 hashes shared
/// memory addresses into its versioned-lock array.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(u64);

impl VarId {
    /// Creates a variable id from its raw value (for tests and decoding of
    /// persisted event logs; normal ids come from [`crate::TVar::new`]).
    pub fn from_raw(raw: u64) -> Self {
        VarId(raw)
    }

    /// Raw 64-bit representation.
    pub(crate) fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Monotone sequence number assigned to every successful commit.
///
/// The global commit order — the paper's "commit order" whose permutations
/// bound non-determinism in lock-based code — is the sequence of these
/// values.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct CommitSeq(u64);

impl CommitSeq {
    /// Creates a commit sequence number from its raw value.
    pub fn new(v: u64) -> Self {
        CommitSeq(v)
    }

    /// Raw 64-bit value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for CommitSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A `(thread, transaction-site)` pair — one *participant* in a
/// thread-transactional-state tuple.
///
/// The paper writes this concatenated, e.g. `a6` for "transaction `a`
/// executed by thread 6"; [`fmt::Display`] follows that convention.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Participant {
    /// The executing thread.
    pub thread: ThreadId,
    /// The static transaction site being executed.
    pub tx: TxId,
}

impl Participant {
    /// Creates a participant pair.
    pub fn new(thread: ThreadId, tx: TxId) -> Self {
        Participant { thread, tx }
    }
}

impl fmt::Display for Participant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.tx, self.thread.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_roundtrip() {
        let t = ThreadId::new(7);
        assert_eq!(t.index(), 7);
        assert_eq!(t.raw(), 7);
        assert_eq!(ThreadId::from(7u16), t);
    }

    #[test]
    fn tx_id_letters_match_paper_notation() {
        assert_eq!(TxId::new(0).to_string(), "a");
        assert_eq!(TxId::new(1).to_string(), "b");
        assert_eq!(TxId::new(25).to_string(), "z");
        assert_eq!(TxId::new(26).to_string(), "tx26");
    }

    #[test]
    fn participant_display_matches_paper() {
        let p = Participant::new(ThreadId::new(6), TxId::new(0));
        assert_eq!(p.to_string(), "a6");
    }

    #[test]
    fn commit_seq_orders() {
        assert!(CommitSeq::new(1) < CommitSeq::new(2));
        assert_eq!(CommitSeq::new(5).to_string(), "#5");
    }

    #[test]
    fn ids_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ThreadId>();
        assert_send_sync::<TxId>();
        assert_send_sync::<VarId>();
        assert_send_sync::<Participant>();
    }
}
