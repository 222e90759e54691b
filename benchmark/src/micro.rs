//! Single-thread microloops over each layer's public API: time busy per
//! operation, with nothing else running. Each is the median of several
//! short repetitions.

use std::sync::Arc;
use std::time::Instant;

use gstm_block::mvmap::MvMap;
use gstm_collections::THashMap;
use gstm_core::{
    AdmissionPolicy, CommitSeq, EventSink, Participant, ReadMode, Stm, StmConfig, TVar, ThreadId,
    TxEvent, TxId,
};
use gstm_guide::{GuidedPolicy, DEFAULT_K};
use gstm_model::{GuidedModel, StateTracker, TsaBuilder, Tts};
use gstm_telemetry::LogHistogram;
use gstm_wal::{recover, FileDevice, LogDevice, MemDevice, Wal, WalConfig};

use crate::stats::median;

/// Repetitions per microloop.
const REPS: usize = 7;

/// Entries per bucket of the map loops — the bucket size of `serve_wide`
/// (4096 keys over 256 buckets).
const BUCKET_ENTRIES: u64 = 16;

/// Median over [`REPS`] repetitions of `nanoseconds of one call to rep /
/// ops`, where `rep` performs `ops` operations.
fn ns_per_op(ops: u64, mut rep: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            rep();
            started.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// `(metric, value)` pairs; units are in the names.
pub fn run(wal_dir: &std::path::Path, scale: f64) -> Vec<(&'static str, f64)> {
    let n = |base: u64| ((base as f64 * scale) as u64).max(64);
    let (t0, site) = (ThreadId::new(0), TxId::new(0));
    let mut out = Vec::new();

    // core: an 8-read read-only transaction, per read.
    let stm = Stm::new(StmConfig::new(1));
    let vars: Vec<TVar<u64>> = (0..8).map(TVar::new).collect();
    let txns = n(40_000);
    out.push((
        "core.stm.read_ns",
        ns_per_op(txns * 8, || {
            for _ in 0..txns {
                std::hint::black_box(stm.run_read_only(t0, site, |tx| {
                    let mut sum = 0;
                    for v in &vars {
                        sum += tx.read(v)?;
                    }
                    Ok(sum)
                }));
            }
        }),
    ));

    // core: read-modify-write of one variable, per committed transaction.
    out.push((
        "core.stm.write_commit_ns",
        ns_per_op(txns, || {
            for _ in 0..txns {
                stm.run(t0, site, |tx| {
                    let x = tx.read(&vars[0])?;
                    tx.write(&vars[0], x + 1)
                });
            }
        }),
    ));

    // core: one read, then a requested abort, per aborted attempt.
    out.push((
        "core.stm.abort_ns",
        ns_per_op(txns, || {
            for _ in 0..txns {
                let aborted = stm.try_run_once(t0, site, |tx| {
                    tx.read(&vars[0])?;
                    Err::<(), _>(gstm_core::retry())
                });
                std::hint::black_box(aborted.is_err());
            }
        }),
    ));

    // core: the same 8-read transaction on the multi-version read path.
    let snap = Stm::new(StmConfig::builder(1).read_mode(ReadMode::Snapshot).build());
    let snap_vars: Vec<TVar<u64>> = (0..8).map(TVar::new).collect();
    for v in &snap_vars {
        snap.run(t0, site, |tx| tx.write(v, 1));
    }
    out.push((
        "core.mvcc.snapshot_read_ns",
        ns_per_op(txns * 8, || {
            for _ in 0..txns {
                std::hint::black_box(snap.run_read_only(t0, site, |tx| {
                    let mut sum = 0;
                    for v in &snap_vars {
                        sum += tx.read(v)?;
                    }
                    Ok(sum)
                }));
            }
        }),
    ));

    // collections: get / overwriting insert on 16-entry buckets, one
    // operation per transaction.
    let buckets = 64u64;
    let map: THashMap<u64, u64> = THashMap::new(buckets as usize);
    let keys = buckets * BUCKET_ENTRIES;
    for k in 0..keys {
        map.insert_unlogged(k, k);
    }
    let ops = n(40_000);
    out.push((
        "collections.map.get_ns",
        ns_per_op(ops, || {
            for i in 0..ops {
                let k = i.wrapping_mul(0x9E37_79B9) % keys;
                std::hint::black_box(stm.run_read_only(t0, site, |tx| map.get(tx, &k)));
            }
        }),
    ));
    out.push((
        "collections.map.insert_ns",
        ns_per_op(ops, || {
            for i in 0..ops {
                let k = i.wrapping_mul(0x9E37_79B9) % keys;
                stm.run(t0, site, |tx| map.insert(tx, k, i));
            }
        }),
    ));

    // wal: appends of a request-sized record into the default group
    // commit (every 32nd append flushes to a memory device).
    let payload = [7u8; 25];
    let appends = n(20_000);
    out.push((
        "wal.log.append_ns",
        ns_per_op(appends, || {
            let wal =
                Wal::new(WalConfig::new(), Arc::new(MemDevice::new()), Arc::new(MemDevice::new()));
            for seq in 1..=appends {
                wal.append(seq, &payload);
            }
        }),
    ));

    // wal: one explicit flush of a 32-record batch to a real file (no
    // fsync — `FileDevice` never syncs), per batch.
    let _ = std::fs::remove_dir_all(wal_dir);
    std::fs::create_dir_all(wal_dir).expect("create the WAL directory");
    let batches = n(300);
    let file_wal = Wal::new(
        WalConfig::new().with_batch_records(usize::MAX),
        Arc::new(FileDevice::new(wal_dir.join("micro.log"))),
        Arc::new(FileDevice::new(wal_dir.join("micro.snap"))),
    );
    let mut seq = 0u64;
    let flush_samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut spent = std::time::Duration::ZERO;
            for _ in 0..batches {
                for _ in 0..32 {
                    seq += 1;
                    file_wal.append(seq, &payload);
                }
                let started = Instant::now();
                file_wal.flush();
                spent += started.elapsed();
            }
            spent.as_nanos() as f64 / 1e3 / batches as f64
        })
        .collect();
    out.push(("wal.log.flush_us_per_batch", median(&flush_samples)));
    drop(file_wal);
    let _ = std::fs::remove_dir_all(wal_dir);

    // wal: verify + decode a log image, per thousand records.
    let records = n(10_000);
    let (log_dev, snap_dev) = (Arc::new(MemDevice::new()), Arc::new(MemDevice::new()));
    let wal = Wal::new(
        WalConfig::new(),
        Arc::clone(&log_dev) as Arc<dyn LogDevice>,
        Arc::clone(&snap_dev) as Arc<dyn LogDevice>,
    );
    for seq in 1..=records {
        wal.append(seq, &payload);
    }
    wal.flush();
    let (log_bytes, snap_bytes) = wal.disk_image();
    // Nanoseconds per record are microseconds per thousand records.
    out.push((
        "wal.log.recover_us_per_krec",
        ns_per_op(records, || {
            let r = recover(&log_bytes, &snap_bytes).expect("a clean log recovers");
            assert_eq!(r.recovered_seq(), records);
        }),
    ));

    // block: resolve / publish on a multi-version map holding one block's
    // worth of writers per key.
    let mv: MvMap<u64, u64> = MvMap::new(32);
    for writer in 0..64usize {
        mv.publish(writer, 0, &[(writer as u64 % 16, writer as u64)], &[]);
    }
    let ops = n(200_000);
    out.push((
        "block.mvmap.resolve_ns",
        ns_per_op(ops, || {
            for i in 0..ops {
                std::hint::black_box(mv.resolve(&(i % 16), (i % 64) as usize));
            }
        }),
    ));
    out.push((
        "block.mvmap.publish_ns",
        ns_per_op(ops, || {
            for i in 0..ops {
                let key = i % 16;
                std::hint::black_box(mv.publish((i % 64) as usize, 1, &[(key, i)], &[key]));
            }
        }),
    ));

    // guide / model: a 64-state ring; every step moves to the next state
    // and every admission is of the next state's committer (admitted at
    // once — the common case under a fit model).
    let who =
        |i: u64| Participant::new(ThreadId::new((i % 8) as u16), TxId::new((i / 8 % 8) as u16));
    let ring: Vec<Tts> = (0..64).chain(0..64).chain(0..1).map(|i| Tts::solo(who(i))).collect();
    let mut builder = TsaBuilder::new();
    builder.add_run(&ring);
    let model = Arc::new(GuidedModel::compile(builder.build(), 4.0));
    let tracker = Arc::new(StateTracker::with_model(model));
    let policy = GuidedPolicy::new(Arc::clone(&tracker), DEFAULT_K);
    let commit = |i: u64| TxEvent::Commit {
        who: who(i % 64),
        seq: CommitSeq::new(i + 1),
        aborts: 0,
        reads: 0,
        writes: 0,
        at: 0,
    };
    tracker.record(&commit(0));
    let ops = n(200_000);
    out.push((
        "guide.policy.admit_ns",
        ns_per_op(ops, || {
            for _ in 0..ops {
                std::hint::black_box(policy.admit(who(1), &mut || {}));
            }
        }),
    ));
    // The tracker interns every observed tuple, so its cost is steady
    // once the 64 states are known.
    let steps = n(100_000);
    out.push((
        "model.tracker.step_ns",
        ns_per_op(steps, || {
            for i in 0..steps {
                tracker.record(&commit(i));
            }
        }),
    ));

    // telemetry: one histogram record.
    let histogram = LogHistogram::new();
    let ops = n(1_000_000);
    out.push((
        "telemetry.histogram.record_ns",
        ns_per_op(ops, || {
            for i in 0..ops {
                histogram.record(std::hint::black_box(i & 0xFFFF));
            }
        }),
    ));

    out
}
