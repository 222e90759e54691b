//! Block oracle: certifies that a parallel ordered-block execution is
//! byte-identical to sequential execution of the same block order.
//!
//! The block executor's whole contract is *schedule invariance*: for a
//! fixed block order, the per-transaction outputs and the post-block
//! state must not depend on how many worker threads ran it or how the
//! scheduler interleaved them. The oracle consumes one **reference**
//! record — produced by a plain sequential interpreter that shares no
//! code with the executor's scheduling — and any number of parallel
//! records tagged with their thread count, and reports the first point
//! of divergence per run.
//!
//! A second, independent invariant rides along for ledger-style
//! workloads: [`check_conserved_total`] asserts that a block of
//! transfers moved money around without creating or destroying any —
//! the canonical whole-state corruption detector for the ledger preset.

use std::fmt;

/// The digest-level result of executing one block: per-transaction
/// output digests (in block order) plus a digest of the post-block
/// store state. Producing the digests is the caller's job (serve
/// encodes each `Response` and FNV-hashes it) so the oracle stays
/// decoupled from the store's types.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockRecord {
    /// One digest per transaction, in block order.
    pub outputs: Vec<u64>,
    /// Digest of the store state after the block fully applied.
    pub final_digest: u64,
}

/// One way a parallel block run diverged from the sequential reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockViolation {
    /// The runs do not even agree on how many transactions the block held.
    LengthMismatch {
        /// Worker threads of the offending parallel run.
        threads: usize,
        /// Its transaction count.
        got: usize,
        /// The reference transaction count.
        want: usize,
    },
    /// A transaction's output digest differs from the reference.
    OutputDivergence {
        /// Worker threads of the offending parallel run.
        threads: usize,
        /// Block index of the first diverging transaction.
        txn: usize,
        /// The parallel run's output digest.
        got: u64,
        /// The reference output digest.
        want: u64,
    },
    /// The post-block state digest differs from the reference.
    StateDivergence {
        /// Worker threads of the offending parallel run.
        threads: usize,
        /// The parallel run's state digest.
        got: u64,
        /// The reference state digest.
        want: u64,
    },
    /// A conserved quantity (the ledger's total balance) changed.
    TotalNotConserved {
        /// Total after the run.
        got: i64,
        /// Total the initial state prescribed.
        want: i64,
    },
}

impl fmt::Display for BlockViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockViolation::LengthMismatch { threads, got, want } => write!(
                f,
                "block at {threads} threads settled {got} transactions, reference has {want}"
            ),
            BlockViolation::OutputDivergence { threads, txn, got, want } => write!(
                f,
                "txn {txn} output diverged at {threads} threads: {got:#018x} != {want:#018x}"
            ),
            BlockViolation::StateDivergence { threads, got, want } => write!(
                f,
                "post-block state diverged at {threads} threads: {got:#018x} != {want:#018x}"
            ),
            BlockViolation::TotalNotConserved { got, want } => {
                write!(f, "conserved total violated: {got} != {want}")
            }
        }
    }
}

/// What [`check_block_equivalence`] found.
#[derive(Clone, Debug, Default)]
pub struct BlockReport {
    /// Violations, in discovery order (first divergence per parallel run).
    pub violations: Vec<BlockViolation>,
    /// Parallel runs compared against the reference.
    pub(crate) runs_compared: usize,
    /// Transactions in the reference block.
    pub(crate) txns_compared: usize,
}

impl BlockReport {
    /// True when every parallel run matched the reference byte-for-byte.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// True when there was nothing to certify (no runs, or an empty
    /// block) — callers must reject `ok() && is_vacuous()`.
    pub fn is_vacuous(&self) -> bool {
        self.runs_compared == 0 || self.txns_compared == 0
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} block violations over {} parallel runs x {} txns",
            self.violations.len(),
            self.runs_compared,
            self.txns_compared,
        )
    }
}

/// Certifies schedule invariance: every parallel record (tagged with its
/// worker-thread count) must agree with the sequential `reference` on
/// every transaction output and on the final state digest. Reports the
/// first diverging transaction per run, not all of them — the first is
/// where the scheduler bug lives; the rest are usually fallout.
pub fn check_block_equivalence(
    reference: &BlockRecord,
    parallel: &[(usize, BlockRecord)],
) -> BlockReport {
    let mut report = BlockReport {
        violations: Vec::new(),
        runs_compared: parallel.len(),
        txns_compared: reference.outputs.len(),
    };
    for (threads, record) in parallel {
        if record.outputs.len() != reference.outputs.len() {
            report.violations.push(BlockViolation::LengthMismatch {
                threads: *threads,
                got: record.outputs.len(),
                want: reference.outputs.len(),
            });
            continue;
        }
        let diverged =
            record.outputs.iter().zip(&reference.outputs).position(|(got, want)| got != want);
        if let Some(txn) = diverged {
            report.violations.push(BlockViolation::OutputDivergence {
                threads: *threads,
                txn,
                got: record.outputs[txn],
                want: reference.outputs[txn],
            });
            continue;
        }
        if record.final_digest != reference.final_digest {
            report.violations.push(BlockViolation::StateDivergence {
                threads: *threads,
                got: record.final_digest,
                want: reference.final_digest,
            });
        }
    }
    report
}

/// Asserts a conserved quantity survived a run — the ledger preset's
/// total balance must equal what the initial state prescribed.
///
/// # Errors
///
/// Returns `BlockViolation::TotalNotConserved` when it did not.
pub fn check_conserved_total(got: i64, want: i64) -> Result<(), BlockViolation> {
    if got == want {
        Ok(())
    } else {
        Err(BlockViolation::TotalNotConserved { got, want })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> BlockRecord {
        BlockRecord { outputs: vec![11, 22, 33], final_digest: 0xfeed }
    }

    #[test]
    fn identical_runs_pass_and_are_not_vacuous() {
        let report = check_block_equivalence(
            &reference(),
            &[(1, reference()), (2, reference()), (8, reference())],
        );
        assert!(report.ok(), "{}", report.summary());
        assert!(!report.is_vacuous());
        assert_eq!(report.runs_compared, 3);
        assert_eq!(report.txns_compared, 3);
    }

    #[test]
    fn first_output_divergence_is_pinpointed() {
        let bad = BlockRecord { outputs: vec![11, 99, 44], final_digest: 0xfeed };
        let report = check_block_equivalence(&reference(), &[(4, bad)]);
        assert_eq!(
            report.violations,
            vec![BlockViolation::OutputDivergence { threads: 4, txn: 1, got: 99, want: 22 }],
            "only the first divergence is reported"
        );
        assert!(!report.ok());
    }

    #[test]
    fn state_divergence_and_length_mismatch_are_caught() {
        let short = BlockRecord { outputs: vec![11], final_digest: 0xfeed };
        let skewed = BlockRecord { outputs: vec![11, 22, 33], final_digest: 0xdead };
        let report = check_block_equivalence(&reference(), &[(2, short), (4, skewed)]);
        assert_eq!(report.violations.len(), 2);
        assert!(matches!(
            report.violations[0],
            BlockViolation::LengthMismatch { threads: 2, got: 1, want: 3 }
        ));
        assert!(matches!(
            report.violations[1],
            BlockViolation::StateDivergence { threads: 4, got: 0xdead, want: 0xfeed }
        ));
    }

    #[test]
    fn empty_comparisons_are_vacuous() {
        let report = check_block_equivalence(&reference(), &[]);
        assert!(report.ok() && report.is_vacuous(), "no runs proves nothing");
        let empty = BlockRecord { outputs: vec![], final_digest: 0 };
        let report = check_block_equivalence(&empty, &[(2, empty.clone())]);
        assert!(report.ok() && report.is_vacuous(), "empty block proves nothing");
    }

    #[test]
    fn conserved_total_is_exact() {
        assert!(check_conserved_total(500, 500).is_ok());
        let err = check_conserved_total(499, 500).unwrap_err();
        assert_eq!(err, BlockViolation::TotalNotConserved { got: 499, want: 500 });
        assert!(err.to_string().contains("conserved total"), "{err}");
    }
}
