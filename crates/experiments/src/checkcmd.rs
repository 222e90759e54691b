//! The `experiments check` subcommand: a fault-injected chaos matrix fed
//! through the offline opacity oracle.
//!
//! Each cell of the (detection × resolution × contention-manager) matrix
//! runs a bank-transfer workload on the deterministic simulator with a
//! [`ChaosGate`] injecting seeded delays, delayed commits and forced
//! aborts. The recorded event history is then judged by
//! [`gstm_check::check_history`], and the run-level invariants (conserved
//! account total, consistent audits, zero lock-discipline refusals) are
//! checked on top. Any violation anywhere fails the whole matrix — chaos
//! may abort transactions, but it must never break opacity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gstm_check::check_history;
use gstm_core::rng::SmallRng;
use gstm_core::{
    AdmitAll, Detection, MemorySink, Resolution, Stm, StmConfig, TVar, ThreadId, TxId, VarIdDomain,
};
use gstm_guide::CmChoice;
use gstm_sim::{ChaosConfig, ChaosGate, SimConfig, SimMachine};

use crate::pipeline::Pipeline;

/// Knobs of one chaos-matrix invocation.
#[derive(Clone, Copy, Debug)]
pub struct CheckOptions {
    /// Simulated worker threads per cell.
    pub threads: usize,
    /// Transactions each worker runs.
    pub ops_per_thread: u32,
    /// Bank accounts (transactional variables) in the workload.
    pub accounts: usize,
    /// Base seed; each cell derives its own chaos stream from it.
    pub seed: u64,
    /// Restrict the contention-manager axis to two entries (CI smoke).
    pub tiny: bool,
}

impl CheckOptions {
    /// Defaults: 4 threads, 96 ops each, 8 accounts.
    pub fn new(seed: u64) -> Self {
        CheckOptions { threads: 4, ops_per_thread: 96, accounts: 8, seed, tiny: false }
    }

    /// The CI smoke preset: fewer threads/ops and two contention managers,
    /// still covering every detection × resolution combination.
    pub fn tiny(seed: u64) -> Self {
        CheckOptions { threads: 3, ops_per_thread: 48, accounts: 6, seed, tiny: true }
    }
}

/// One cell of the matrix.
#[derive(Clone, Copy, Debug)]
struct CellSpec {
    detection: Detection,
    resolution: Resolution,
    cm: CmChoice,
}

impl CellSpec {
    fn label(&self) -> String {
        let d = match self.detection {
            Detection::CommitTime => "commit",
            Detection::EncounterTime => "encounter",
        };
        let r = match self.resolution {
            Resolution::SelfAbort => "self-abort",
            Resolution::AbortReaders => "abort-readers",
            Resolution::WaitForReaders => "wait-for-readers",
        };
        format!("{d}/{r}/{}", cm_label(self.cm))
    }
}

/// The contention-manager axis of the check and recover matrices: two
/// managers for the CI smoke, all four otherwise.
pub(crate) fn cm_axis(tiny: bool) -> &'static [CmChoice] {
    use CmChoice::{Aggressive, Greedy, Karma, Polite};
    if tiny {
        &[Aggressive, Karma]
    } else {
        &[Aggressive, Polite, Karma, Greedy]
    }
}

/// A contention manager as a matrix label spells it: lowercase.
pub(crate) fn cm_label(cm: CmChoice) -> String {
    format!("{cm:?}").to_lowercase()
}

/// The chaos seed of the cell labelled `label` under `seed`, so every cell
/// perturbs differently under one base seed.
pub(crate) fn cell_seed(seed: u64, label: &str) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(label.bytes().map(u64::from).sum::<u64>())
}

fn matrix(tiny: bool) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for detection in [Detection::CommitTime, Detection::EncounterTime] {
        for resolution in
            [Resolution::SelfAbort, Resolution::AbortReaders, Resolution::WaitForReaders]
        {
            for &cm in cm_axis(tiny) {
                cells.push(CellSpec { detection, resolution, cm });
            }
        }
    }
    cells
}

/// What one cell reported.
struct CellOutcome {
    label: String,
    line: String,
    ok: bool,
    dooms: u64,
}

/// Runs one cell: simulator + chaos gate + bank-transfer workers, then the
/// oracle over the recorded history.
fn run_cell(spec: CellSpec, opts: &CheckOptions) -> CellOutcome {
    let threads = opts.threads;
    // Every cell gets its own id domain (reproducible stripes) and its own
    // chaos stream (derived from the base seed and the cell's position).
    let domain = VarIdDomain::new();
    let guard = domain.install();
    let accounts: Vec<TVar<i64>> = (0..opts.accounts).map(|_| TVar::new(100)).collect();
    drop(guard);
    let total: i64 = 100 * opts.accounts as i64;

    let cell_seed = cell_seed(opts.seed, &spec.label());
    let machine = SimMachine::new(SimConfig::new(threads, opts.seed));
    let chaos = Arc::new(ChaosGate::new(ChaosConfig::new(cell_seed), machine.gate(), threads));
    let sink = Arc::new(MemorySink::new());
    let config = StmConfig::builder(threads)
        .detection(spec.detection)
        .resolution(spec.resolution)
        .check_events(true)
        .build();
    let stm = Arc::new(Stm::with_parts(
        config,
        chaos.clone() as Arc<dyn gstm_core::Gate>,
        sink.clone(),
        Arc::new(AdmitAll),
        spec.cm.build(threads),
    ));
    chaos.arm(stm.doom_handle());

    let audit_failures = AtomicU64::new(0);
    let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..threads as u16)
        .map(|i| {
            let stm = Arc::clone(&stm);
            let accounts = &accounts;
            let audit_failures = &audit_failures;
            Box::new(move || {
                let mut rng = SmallRng::seed_from_u64(cell_seed ^ (0xA5A5 + u64::from(i)));
                let me = ThreadId::new(i);
                for op in 0..opts.ops_per_thread {
                    if op % 8 == 7 {
                        // Audit: a read-only sweep must always see a
                        // conserved total — the semantic face of opacity.
                        let sum = stm.run(me, TxId::new(1), |tx| {
                            let mut sum = 0i64;
                            for a in accounts {
                                sum += tx.read(a)?;
                            }
                            Ok(sum)
                        });
                        if sum != total {
                            audit_failures.fetch_add(1, Ordering::SeqCst);
                        }
                    } else {
                        let from = rng.gen_range(0..accounts.len());
                        let mut to = rng.gen_range(0..accounts.len() - 1);
                        if to >= from {
                            to += 1;
                        }
                        let amount = rng.gen_range(1..=10i64);
                        stm.run(me, TxId::new(0), |tx| {
                            let f = tx.read(&accounts[from])?;
                            let t = tx.read(&accounts[to])?;
                            tx.write(&accounts[from], f - amount)?;
                            tx.write(&accounts[to], t + amount)
                        });
                    }
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    machine.run(workers);

    let events = sink.take();
    let report = check_history(&events);
    let stats = chaos.stats();
    let final_total: i64 = accounts.iter().map(|a| *a.load_unlogged()).sum();
    let lock_violations = stm.lock_discipline_violations();
    let audits_bad = audit_failures.load(Ordering::SeqCst);

    let mut problems: Vec<String> = Vec::new();
    if !report.ok() {
        problems.push(format!("oracle: {}", report.summary()));
        for v in report.violations.iter().take(5) {
            problems.push(format!("  {v}"));
        }
    }
    if report.is_vacuous() {
        problems.push("vacuous history: no check events recorded".to_string());
    }
    if lock_violations != 0 {
        problems.push(format!("{lock_violations} lock-discipline refusals"));
    }
    if audits_bad != 0 {
        problems.push(format!("{audits_bad} inconsistent audit sums"));
    }
    if final_total != total {
        problems.push(format!("final total {final_total} != {total}"));
    }
    let ok = problems.is_empty();
    let verdict = if ok { "ok" } else { "FAIL" };
    let mut line = format!(
        "{:<34} {verdict:<4} {} ({} dooms, {} delays injected)",
        spec.label(),
        report.summary(),
        stats.dooms,
        stats.delays,
    );
    for p in problems {
        line.push_str("\n    ");
        line.push_str(&p);
    }
    CellOutcome { label: spec.label(), line, ok, dooms: stats.dooms }
}

/// Runs the whole matrix, fanning cells out over the pipeline's worker
/// pool. Returns the rendered report and whether every cell passed.
pub fn run_matrix(opts: &CheckOptions, pipe: &Pipeline<'_>) -> (String, bool) {
    let cells = matrix(opts.tiny);
    pipe.progress().report(&format!(
        "chaos matrix: {} cells, {} threads x {} ops, seed {}",
        cells.len(),
        opts.threads,
        opts.ops_per_thread,
        opts.seed
    ));
    let outcomes = pipe.run_indexed(cells.len(), |i| run_cell(cells[i], opts));
    let mut body = format!(
        "== Chaos matrix under the opacity oracle (seed {}, {} threads, {} ops/thread) ==\n",
        opts.seed, opts.threads, opts.ops_per_thread
    );
    let mut failed: Vec<String> = Vec::new();
    let mut total_dooms = 0u64;
    for o in &outcomes {
        body.push_str(&o.line);
        body.push('\n');
        if !o.ok {
            failed.push(o.label.clone());
        }
        total_dooms += o.dooms;
    }
    // The matrix must not be vacuous chaos-wise either: with the default
    // rates at least one cell must have seen a forced abort.
    let chaos_ok = total_dooms > 0;
    if !chaos_ok {
        body.push_str("FAIL: no forced aborts were injected anywhere — chaos was vacuous\n");
    }
    let ok = failed.is_empty() && chaos_ok;
    body.push_str(&format!(
        "{} cells, {} failed, {} forced aborts injected: {}\n",
        outcomes.len(),
        failed.len(),
        total_dooms,
        if ok { "zero violations" } else { "VIOLATIONS FOUND" }
    ));
    (body, ok)
}
