//! Integration tests of the LibTM-style resolutions (§VIII): visible
//! readers, committer-side dooming, and wait-for-readers.

use std::sync::Arc;

use gstm_core::cm::Aggressive;
use gstm_core::{
    AbortReason, AdmitAll, MemorySink, NullGate, Resolution, Stm, StmConfig, TVar, ThreadId,
    TxEvent, TxId,
};

fn abort_readers_stm(sink: Arc<MemorySink>) -> Stm {
    Stm::with_parts(
        StmConfig::builder(4).resolution(Resolution::AbortReaders).build(),
        Arc::new(NullGate),
        sink,
        Arc::new(AdmitAll),
        Arc::new(Aggressive),
    )
}

#[test]
fn committer_dooms_active_reader() {
    let sink = Arc::new(MemorySink::new());
    let stm = abort_readers_stm(Arc::clone(&sink));
    let shared = TVar::new(0i64);

    // Thread 0 reads `shared` (registering as a visible reader), then,
    // mid-transaction, thread 1 commits a write to it: thread 0 must be
    // doomed and retried.
    let mut interfered = false;
    stm.run(ThreadId::new(0), TxId::new(0), |tx| {
        let v = tx.read(&shared)?;
        if !interfered {
            interfered = true;
            stm.run(ThreadId::new(1), TxId::new(1), |tx2| {
                let w = tx2.read(&shared)?;
                tx2.write(&shared, w + 5)
            });
        }
        // Next op observes the doom flag.
        tx.write(&shared, v + 1)
    });
    assert_eq!(*shared.load_unlogged(), 6, "retry must see the committed 5");
    let events = sink.take();
    let doomed = events.iter().any(|e| {
        matches!(
            e,
            TxEvent::Abort { abort, .. }
                if matches!(abort.reason, AbortReason::DoomedByCommitter { .. })
        )
    });
    assert!(doomed, "an explicit doomed-by-committer abort must be recorded: {events:?}");
}

#[test]
fn doom_names_the_committer() {
    let sink = Arc::new(MemorySink::new());
    let stm = abort_readers_stm(Arc::clone(&sink));
    let shared = TVar::new(0i64);
    let mut interfered = false;
    stm.run(ThreadId::new(2), TxId::new(0), |tx| {
        let v = tx.read(&shared)?;
        if !interfered {
            interfered = true;
            stm.run(ThreadId::new(3), TxId::new(7), |tx2| tx2.write(&shared, 1));
        }
        tx.write(&shared, v + 1)
    });
    let events = sink.take();
    let by = events.iter().find_map(|e| match e {
        TxEvent::Abort { abort, .. } => match abort.reason {
            AbortReason::DoomedByCommitter { by } => by,
            _ => None,
        },
        _ => None,
    });
    let by = by.expect("doom with attribution");
    assert_eq!(by.thread, ThreadId::new(3));
    assert_eq!(by.tx, TxId::new(7));
}

#[test]
fn wait_for_readers_times_out_rather_than_deadlocks() {
    let stm = Stm::with_parts(
        StmConfig::builder(2).resolution(Resolution::WaitForReaders).build(),
        Arc::new(NullGate),
        Arc::new(gstm_core::NullSink),
        Arc::new(AdmitAll),
        Arc::new(Aggressive),
    );
    let shared = TVar::new(0i64);
    // Thread 0 holds a read registration open while thread 1 tries to
    // commit a write to the same stripe: the committer must give up with
    // ReaderWaitTimeout instead of hanging.
    let r = stm.try_run_once(ThreadId::new(0), TxId::new(0), |tx| {
        let _ = tx.read(&shared)?;
        let inner = stm.try_run_once(ThreadId::new(1), TxId::new(1), |tx2| tx2.write(&shared, 9));
        match inner {
            Err(a) => {
                assert_eq!(a.reason, AbortReason::ReaderWaitTimeout, "{a:?}");
            }
            other => panic!("expected reader-wait timeout, got {other:?}"),
        }
        Ok(())
    });
    assert!(r.is_ok());
    assert_eq!(*shared.load_unlogged(), 0);
}

#[test]
fn wait_for_readers_proceeds_once_reader_finishes() {
    let stm = Stm::with_parts(
        StmConfig::builder(2).resolution(Resolution::WaitForReaders).build(),
        Arc::new(NullGate),
        Arc::new(gstm_core::NullSink),
        Arc::new(AdmitAll),
        Arc::new(Aggressive),
    );
    let shared = TVar::new(0i64);
    // Reader completes first; then the writer commits cleanly.
    stm.run(ThreadId::new(0), TxId::new(0), |tx| tx.read(&shared).map(|_| ()));
    stm.run(ThreadId::new(1), TxId::new(1), |tx| tx.write(&shared, 3));
    assert_eq!(*shared.load_unlogged(), 3);
}

#[test]
fn self_abort_mode_has_no_visible_reader_cost() {
    // Sanity: the default mode should not register readers at all — the
    // event stream should show zero doomed aborts under heavy read traffic.
    let sink = Arc::new(MemorySink::new());
    let stm = Stm::with_parts(
        StmConfig::new(2),
        Arc::new(NullGate),
        sink.clone(),
        Arc::new(AdmitAll),
        Arc::new(Aggressive),
    );
    let v = TVar::new(1i64);
    for _ in 0..50 {
        stm.run(ThreadId::new(0), TxId::new(0), |tx| tx.read(&v).map(|_| ()));
    }
    let events = sink.take();
    assert_eq!(events.iter().filter(|e| matches!(e, TxEvent::Commit { .. })).count(), 50);
    assert!(!events.iter().any(|e| matches!(e, TxEvent::Abort { .. })));
}
