//! RealGate stress tests: the engine and the serve service on native OS
//! threads with real contention, not the deterministic simulator.
//!
//! The simulator validates *logic* under a controlled schedule; these tests
//! validate that nothing in the TL2 hot path or the serve loop secretly
//! depends on the simulator's cooperative stepping. Every test is bounded
//! (fixed iteration counts, no retry-forever loops outside `Stm::run`'s own
//! internal retry) and asserts a conserved quantity that any lost or
//! duplicated commit would break.

use std::sync::Arc;

use gstm::core::{RealGate, Stm, StmConfig, TVar, ThreadId, TxId};
use gstm::serve::{run_native, Arrival, BackendKind, ServeSpec};

/// Raw engine stress: N threads shuffle balance between A accounts through
/// real concurrent transactions; the total must be conserved exactly.
#[test]
fn concurrent_bank_transfers_conserve_total() {
    const THREADS: usize = 4;
    const ACCOUNTS: usize = 16;
    const TRANSFERS_PER_THREAD: usize = 2_000;
    const INITIAL: i64 = 1_000;

    // yield_every=3 injects scheduler noise on the hot path, making real
    // interleavings (and hence real conflicts) far more likely.
    let stm = Arc::new(Stm::new_on(StmConfig::new(THREADS), Arc::new(RealGate::new(3))));
    let accounts: Arc<Vec<TVar<i64>>> =
        Arc::new((0..ACCOUNTS).map(|_| TVar::new(INITIAL)).collect());

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let stm = Arc::clone(&stm);
            let accounts = Arc::clone(&accounts);
            scope.spawn(move || {
                let me = ThreadId::new(t as u16);
                // Deterministic per-thread walk over account pairs; every
                // pair conflicts with other threads' pairs regularly.
                for i in 0..TRANSFERS_PER_THREAD {
                    let from = (i * 7 + t * 3) % ACCOUNTS;
                    let to = (from + 1 + i % (ACCOUNTS - 1)) % ACCOUNTS;
                    let amount = (i % 9 + 1) as i64;
                    stm.run(me, TxId::new(0), |tx| {
                        let f = tx.read(&accounts[from])?;
                        let g = tx.read(&accounts[to])?;
                        tx.write(&accounts[from], f - amount)?;
                        tx.write(&accounts[to], g + amount)
                    });
                }
            });
        }
    });

    let total: i64 = accounts.iter().map(|a| *a.load_unlogged()).sum();
    assert_eq!(total, ACCOUNTS as i64 * INITIAL, "concurrent transfers lost money");
}

/// The serve subsystem end-to-end on RealGate: native threads, wall-clock
/// arrivals, contended hot store. `run_native` panics internally if the
/// balance-conservation or request-accounting invariants break.
#[test]
fn native_serve_run_conserves_and_accounts() {
    let mut spec = ServeSpec::hot(300);
    // Tight arrivals (1 tick = 1µs below) keep the test short while still
    // forcing queueing: 300 requests ≈ tens of milliseconds of traffic.
    spec.arrival = Arrival::Poisson { mean_gap: 80.0 };
    let report = run_native(&spec, 4, 42, 1_000, 2);
    assert_eq!(report.done + report.shed, 4 * 300, "every request served or shed");
    assert!(report.done > 0, "the service made progress");
    assert_eq!(report.sojourn.count(), report.done, "one sojourn sample per served request");
    assert!(report.elapsed_ticks > 0);
}

/// Bursty native traffic with a shallow queue bound must shed rather than
/// stall, and still conserve balances.
#[test]
fn native_overload_sheds_gracefully() {
    let mut spec = ServeSpec::hot(400);
    spec.arrival = Arrival::Bursty { mean_gap: 2.0, burst: 16 };
    spec.max_queue_depth = 8;
    let report = run_native(&spec, 3, 7, 250, 0);
    assert_eq!(report.done + report.shed, 3 * 400);
    assert!(report.shed > 0, "overload with a shallow queue must shed");
}

/// Two durable native runs with the same seed, at once, in one process:
/// each must log to its own WAL directory (they used to share one, and the
/// first to finish deleted the other's live log) and remove it on exit.
#[test]
fn concurrent_same_seed_durable_runs_keep_their_wals_apart() {
    // A seed no other test in this binary uses, so the leftover check
    // below sees only this test's directories.
    const SEED: u64 = 0x5EED_D00D;
    let mut spec = ServeSpec::ledger(200).with_backend(BackendKind::Durable);
    spec.arrival = Arrival::Poisson { mean_gap: 80.0 };
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    run_native(&spec, 2, SEED, 1_000, 2)
                })
            })
            .collect();
        for run in runs {
            let report = run.join().expect("durable run panicked");
            assert_eq!(report.done + report.shed, 2 * 200, "every request served or shed");
        }
    });
    assert_eq!(wal_leftovers(SEED), Vec::<String>::new(), "WAL files left behind");
}

/// The WAL directories this process's durable runs with `seed` left in
/// `temp_dir()`. Every log, snapshot, generation and temp file is created
/// inside one, so none left means no file left.
fn wal_leftovers(seed: u64) -> Vec<String> {
    let prefix = format!("gstm-serve-wal-{}-{seed}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("list the temp directory")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

/// The durable path under real contention — four threads offered more than
/// they can serve, so batches and snapshot installs of different threads
/// overlap (`scripts/ci.sh` runs this one optimized as well). `run_native`
/// itself checks conservation and accounting; nothing may outlive it on
/// disk.
#[test]
fn durable_native_smoke_leaves_nothing_behind() {
    const SEED: u64 = 0xD15C_F11E;
    let spec = ServeSpec::ledger(20_000).with_backend(BackendKind::Durable);
    let report = run_native(&spec, 4, SEED, 10, 0);
    assert_eq!(report.done + report.shed, 4 * 20_000, "every request served or shed");
    assert!(report.done > 0, "the service made progress");
    assert_eq!(wal_leftovers(SEED), Vec::<String>::new(), "WAL files left behind");
}
