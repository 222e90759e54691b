//! Abort reasons and user-facing control flow for transactions.

use std::error::Error;
use std::fmt;

use crate::ids::{CommitSeq, Participant, VarId};

/// Why a transaction attempt aborted.
///
/// TL2 aborts are *self-aborts*: a transaction discovers at read time or at
/// commit-time validation that the world moved underneath it. The LibTM-style
/// `AbortReaders` resolution additionally dooms readers from the committing
/// side. Each variant records enough context for the conflict-attribution
/// machinery (`culprit`, when known, is the commit that invalidated us).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// A read observed a stripe whose version exceeds the transaction's read
    /// version `rv`, or whose version changed between the pre- and post-read
    /// of the lock word.
    ReadVersion {
        /// Variable whose stripe failed validation.
        var: VarId,
    },
    /// A read or a commit-time validation found the stripe write-locked by
    /// another thread.
    Locked {
        /// Variable whose stripe was locked.
        var: VarId,
    },
    /// Commit-time acquisition of the write set failed because a stripe was
    /// already locked.
    WriteLockBusy {
        /// Variable whose stripe could not be acquired.
        var: VarId,
    },
    /// Commit-time validation of the read set failed (stripe version moved
    /// past `rv` after the read).
    ValidateFailed {
        /// Variable whose stripe failed validation.
        var: VarId,
    },
    /// This thread was doomed by a committer running the LibTM-style
    /// `AbortReaders` conflict resolution.
    DoomedByCommitter {
        /// The committing participant that doomed us, if recorded.
        by: Option<Participant>,
    },
    /// A `WaitForReaders` committer exhausted its patience and aborted
    /// itself to avoid a reader/committer deadlock.
    ReaderWaitTimeout,
    /// The user's transaction body requested an explicit retry.
    UserRetry,
}

impl AbortReason {
    /// Short machine-friendly label used in event dumps.
    pub fn label(&self) -> &'static str {
        match self {
            AbortReason::ReadVersion { .. } => "read-version",
            AbortReason::Locked { .. } => "locked",
            AbortReason::WriteLockBusy { .. } => "write-lock-busy",
            AbortReason::ValidateFailed { .. } => "validate-failed",
            AbortReason::DoomedByCommitter { .. } => "doomed",
            AbortReason::ReaderWaitTimeout => "reader-wait-timeout",
            AbortReason::UserRetry => "user-retry",
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::ReadVersion { var } => write!(f, "stale read of {var}"),
            AbortReason::Locked { var } => write!(f, "{var} locked during read"),
            AbortReason::WriteLockBusy { var } => write!(f, "{var} busy at commit lock"),
            AbortReason::ValidateFailed { var } => write!(f, "{var} failed commit validation"),
            AbortReason::DoomedByCommitter { by: Some(p) } => write!(f, "doomed by {p}"),
            AbortReason::DoomedByCommitter { by: None } => write!(f, "doomed by a committer"),
            AbortReason::ReaderWaitTimeout => write!(f, "gave up waiting for readers"),
            AbortReason::UserRetry => write!(f, "user retry"),
        }
    }
}

/// Internal signal that unwinds a transaction body back to the retry loop.
///
/// Returned (inside `Err`) by [`crate::Txn::read`] / [`crate::Txn::write`]
/// and friends; the `?` operator propagates it out of the transaction
/// closure, after which [`crate::Stm::run`] rolls back and retries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Abort {
    /// Why the attempt must be abandoned.
    pub reason: AbortReason,
    /// Commit that invalidated us, when attributable (from the stripe's
    /// last-writer stamp).
    pub culprit: Option<(Participant, CommitSeq)>,
}

impl Abort {
    /// Creates an abort with no attributed culprit.
    pub fn new(reason: AbortReason) -> Self {
        Abort { reason, culprit: None }
    }

    /// Creates an abort attributed to a specific commit.
    pub fn caused_by(reason: AbortReason, culprit: Participant, seq: CommitSeq) -> Self {
        Abort { reason, culprit: Some((culprit, seq)) }
    }
}

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.culprit {
            Some((p, seq)) => write!(f, "abort: {} (culprit {p} at {seq})", self.reason),
            None => write!(f, "abort: {}", self.reason),
        }
    }
}

impl Error for Abort {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ThreadId, TxId};

    #[test]
    fn abort_display_includes_culprit() {
        let p = Participant::new(ThreadId::new(7), TxId::new(1));
        let a = Abort::caused_by(
            AbortReason::ReadVersion { var: VarId::from_raw(3) },
            p,
            CommitSeq::new(12),
        );
        let s = a.to_string();
        assert!(s.contains("b7"), "{s}");
        assert!(s.contains("#12"), "{s}");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AbortReason::UserRetry.label(), "user-retry");
        assert_eq!(
            AbortReason::WriteLockBusy { var: VarId::from_raw(0) }.label(),
            "write-lock-busy"
        );
    }
}
