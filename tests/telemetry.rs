//! Cross-crate telemetry integration: the registry observes exactly what
//! the engine does, snapshots are consistent with the run outcome and with
//! the captured transaction sequence, asking for the snapshot changes
//! nothing else, and identical-seed runs export byte-identical snapshots.

use std::sync::Arc;

use gstm::core::{TVar, TxEvent, TxId, Txn};
use gstm::guide::{
    run_workload, train, PolicyChoice, RunOptions, RunOutcome, WorkerEnv, Workload, WorkloadRun,
};
use gstm::telemetry::Snapshot;

/// A maximally contended workload: every thread increments one shared
/// counter. A single `TVar` keeps behaviour independent of the global
/// variable-id counter, so repeat runs inside one process stay identical.
///
/// The last thread is *rare*: it increments only a handful of times with
/// long compute gaps. The trained automaton therefore sees it in few
/// dominant destination states, which is exactly what makes the guided
/// policy hold it back.
struct Contended {
    per_thread: usize,
    rare_per_thread: usize,
}

struct ContendedRun {
    var: TVar<i64>,
    per_thread: usize,
    rare_per_thread: usize,
    expected: i64,
}

impl Workload for Contended {
    fn name(&self) -> &'static str {
        "contended-counter"
    }

    fn instantiate(&self, threads: usize, _seed: u64) -> Box<dyn WorkloadRun> {
        Box::new(ContendedRun {
            var: TVar::new(0),
            per_thread: self.per_thread,
            rare_per_thread: self.rare_per_thread,
            expected: ((threads - 1) * self.per_thread + self.rare_per_thread) as i64,
        })
    }
}

impl WorkloadRun for ContendedRun {
    fn worker(&self, env: WorkerEnv) -> Box<dyn FnOnce() + Send> {
        let var = self.var.clone();
        let rare = env.thread.index() == env.threads - 1;
        let per = if rare { self.rare_per_thread } else { self.per_thread };
        Box::new(move || {
            for _ in 0..per {
                env.stm.run(env.thread, TxId::new(0), |tx: &mut Txn<'_>| {
                    let v = tx.read(&var)?;
                    tx.work(if rare { 40 } else { 4 });
                    tx.write(&var, v + 1)
                });
            }
        })
    }

    fn verify(&self) -> Result<(), String> {
        let got = *self.var.load_unlogged();
        if got == self.expected {
            Ok(())
        } else {
            Err(format!("expected {}, got {got}", self.expected))
        }
    }
}

fn guided_opts(threads: usize, seed: u64) -> RunOptions {
    let w = Contended { per_thread: 40, rare_per_thread: 5 };
    let trained = train(&w, &RunOptions::new(threads, 0), &[1, 2, 3], 4.0);
    RunOptions::new(threads, seed)
        .with_policy(PolicyChoice::Guided { model: Arc::clone(&trained.model), k: 16 })
        .with_telemetry()
        .capturing()
}

fn counted(events: &[TxEvent]) -> (u64, u64, u64) {
    let mut begins = 0;
    let mut aborts = 0;
    let mut commits = 0;
    for e in events {
        match e {
            TxEvent::Begin { .. } => begins += 1,
            TxEvent::Abort { .. } => aborts += 1,
            TxEvent::Commit { .. } => commits += 1,
            // Held and the oracle's check events don't enter the tallies.
            _ => {}
        }
    }
    (begins, aborts, commits)
}

#[test]
fn guided_run_telemetry_is_consistent_with_tseq() {
    let w = Contended { per_thread: 40, rare_per_thread: 5 };
    let out: RunOutcome = run_workload(&w, &guided_opts(4, 7));
    let snap = out.telemetry.as_ref().expect("telemetry requested");

    // Guidance actually held someone on a fully contended counter.
    assert!(snap.total("gstm_tx_holds_total") > 0, "guided run should hold");
    assert_eq!(snap.total("gstm_tx_holds_total"), out.holds.iter().sum::<u64>());

    // The sink and the captured Tseq are two views of the same stream.
    let (begins, aborts, commits) = counted(out.events.as_ref().expect("capture requested"));
    assert_eq!(snap.total("gstm_tx_begins_total"), begins);
    assert_eq!(snap.total("gstm_tx_aborts_total"), aborts);
    assert_eq!(snap.total("gstm_tx_commits_total"), commits);
    assert_eq!(snap.total("gstm_tx_aborts_total"), out.total_aborts());
    assert_eq!(snap.total("gstm_tx_commits_total"), out.total_commits());
    // Every begin either commits or aborts.
    assert_eq!(begins, commits + aborts);
    // Per-reason aborts partition the abort total.
    assert_eq!(snap.total("gstm_tx_aborts_by_reason_total"), aborts);

    // Policy and model gauges were folded in.
    assert!(snap.gauge_value("gstm_guide_holds_immediate_total").is_some());
    assert!(snap.gauge_value("gstm_model_nondeterminism_states").unwrap_or(0) > 0);
    assert_eq!(snap.gauge_value("gstm_sim_makespan_ticks"), Some(out.makespan));
}

#[test]
fn identical_seed_runs_export_byte_identical_snapshots() {
    let w = Contended { per_thread: 25, rare_per_thread: 5 };
    let opts = RunOptions::new(3, 11).with_telemetry();
    let a = run_workload(&w, &opts).telemetry.expect("telemetry");
    let b = run_workload(&w, &opts).telemetry.expect("telemetry");

    assert_eq!(a.to_text(), b.to_text(), "same seed, same exposition bytes");
    assert_eq!(a.to_machine(), b.to_machine(), "same seed, same machine dump");

    // And the same totals, series by series.
    for name in [
        "gstm_tx_begins_total",
        "gstm_tx_commits_total",
        "gstm_tx_aborts_total",
        "gstm_tx_holds_total",
    ] {
        assert_eq!(a.total(name), b.total(name), "{name} must match");
    }
}

#[test]
fn machine_dump_round_trips_through_from_machine() {
    let w = Contended { per_thread: 20, rare_per_thread: 4 };
    let out = run_workload(&w, &RunOptions::new(2, 5).with_telemetry());
    let snap = out.telemetry.expect("telemetry");
    // Counters, a gauge and histograms all make the trip.
    assert!(snap.total("gstm_tx_commits_total") > 0);
    assert!(snap.gauge_value("gstm_sim_makespan_ticks").is_some());
    assert!(snap.histogram("gstm_tx_retries", 0).is_some_and(|h| h.count() > 0));

    let parsed = Snapshot::from_machine(&snap.to_machine()).expect("well-formed dump");
    assert_eq!(parsed, snap);
}

#[test]
fn telemetry_changes_nothing_but_the_snapshot() {
    let w = Contended { per_thread: 20, rare_per_thread: 4 };
    let opts = guided_opts(3, 9);
    let plain = run_workload(&w, &RunOptions { telemetry: false, ..opts.clone() });
    let mut measured = run_workload(&w, &opts);
    assert!(plain.telemetry.is_none());
    assert!(measured.telemetry.take().is_some());
    assert_eq!(format!("{plain:?}"), format!("{measured:?}"));
}
