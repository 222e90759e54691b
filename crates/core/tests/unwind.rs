//! A transaction that panics gives back everything its attempt held:
//! stripe locks, visible-reader registrations and the snapshot commit
//! bound. Each probe after the panic makes one attempt (`try_run_once`),
//! so a leak fails the test instead of spinning forever.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gstm_core::{
    Detection, Gate, ReadMode, Resolution, Stm, StmConfig, TVar, ThreadId, Ticks, TxId,
};

fn t(i: u16) -> ThreadId {
    ThreadId::new(i)
}

fn x(i: u16) -> TxId {
    TxId::new(i)
}

#[test]
fn a_panicking_body_releases_its_locks_and_reader_registrations_in_every_mode() {
    let mut leaked = Vec::new();
    for detection in [Detection::CommitTime, Detection::EncounterTime] {
        for resolution in
            [Resolution::SelfAbort, Resolution::AbortReaders, Resolution::WaitForReaders]
        {
            let cell = format!("{detection:?} x {resolution:?}");
            let stm =
                Stm::new(StmConfig::builder(2).detection(detection).resolution(resolution).build());
            let v = TVar::new(0i64);
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                stm.run(t(0), x(0), |tx| {
                    let n = tx.read(&v)?;
                    tx.write(&v, n + 1)?;
                    panic!("body failed");
                    #[allow(unreachable_code)]
                    Ok(())
                });
            }));
            assert!(panicked.is_err(), "{cell}");
            // A leaked lock or registration makes this single attempt abort
            // (lock busy, reader-wait timeout), and the retrying run below
            // would spin forever: record the cell and move on.
            if let Err(abort) = stm.try_run_once(t(1), x(1), |tx| tx.write(&v, 7)) {
                leaked.push(format!("{cell}: {abort:?}"));
                continue;
            }
            stm.run(t(0), x(0), |tx| tx.modify(&v, |n| n + 1));
            assert_eq!(*v.load_unlogged(), 8, "{cell}");
            assert_eq!(stm.lock_discipline_violations(), 0, "{cell}");
        }
    }
    assert!(leaked.is_empty(), "the other thread's write aborted in {leaked:#?}");
}

/// Panics in `pass_batch` once armed. The first batched charge of a commit
/// is write-back's: the write-set locks and the commit lower bound are
/// taken by then, and nothing is stored yet.
#[derive(Debug, Default)]
struct PanicAtWriteBack {
    armed: AtomicBool,
}

impl Gate for PanicAtWriteBack {
    fn pass(&self, _thread: ThreadId, _cost: Ticks) {}

    fn pass_batch(&self, _thread: ThreadId, _cost: Ticks, _count: u64) {
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("gate failed during write-back");
        }
    }

    fn now(&self) -> u64 {
        0
    }

    fn thread_time(&self, _thread: ThreadId) -> u64 {
        0
    }
}

#[test]
fn a_commit_unwinding_before_write_back_releases_its_locks_and_commit_bound() {
    let gate = Arc::new(PanicAtWriteBack::default());
    let stm =
        Stm::new_on(StmConfig::builder(3).read_mode(ReadMode::Snapshot).build(), gate.clone());
    let v = TVar::new(0i64);
    stm.run(t(0), x(0), |tx| tx.write(&v, 1));
    gate.armed.store(true, Ordering::SeqCst);
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        stm.run(t(0), x(0), |tx| tx.write(&v, 2));
    }));
    assert!(panicked.is_err());
    assert_eq!(*v.load_unlogged(), 1, "nothing was written back");
    let other = stm.try_run_once(t(1), x(1), |tx| tx.write(&v, 3));
    assert!(other.is_ok(), "the other thread's write aborted: {other:?}");
    // A bound left behind would clamp this reader's timestamp below the
    // commit that just landed, and it would read 1.
    assert_eq!(stm.run_read_only(t(2), x(2), |tx| tx.read(&v)), 3);
    stm.run(t(0), x(0), |tx| tx.write(&v, 4));
    assert_eq!(stm.run_read_only(t(2), x(2), |tx| tx.read(&v)), 4);
    assert_eq!(stm.lock_discipline_violations(), 0);
}
