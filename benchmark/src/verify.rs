//! Output checks beyond the ones `run_native` makes on every slice
//! (conserved totals, served + shed = offered, block shadow = store).

use gstm_check::check_block_equivalence;
use gstm_core::ThreadId;
use gstm_serve::{
    generate_schedule, recover_store, run_block_reference, serve_schedule, store_digest,
    DurableBackend, NativeReport, ServeSpec, ShardedStore, StoreBackend, ThreadLog, WallClock,
};
use gstm_wal::{LogDevice, WalConfig};

use crate::traced::{engine, traffic};
use crate::workloads::{NANOS_PER_TICK, THREADS};

/// A block-mode slice's per-transaction outputs and final state must equal
/// the sequential reference's.
pub fn block_matches_reference(
    spec: &ServeSpec,
    seed: u64,
    report: &NativeReport,
) -> Result<(), String> {
    let block = report.block.as_ref().ok_or("a block-mode run carries no block record")?;
    let reference = run_block_reference(spec, THREADS, seed);
    let oracle = check_block_equivalence(&reference, &[(THREADS, block.record.clone())]);
    if oracle.ok() && !oracle.is_vacuous() {
        Ok(())
    } else {
        Err(format!("block run diverged from the sequential reference: {}", oracle.summary()))
    }
}

/// Every acknowledged write must be readable after a restart: serves a
/// short slice of `spec` on a durable backend over memory devices through
/// the product's own loop, then recovers a store from the disk image and
/// compares it with the live one.
pub fn recovery_matches_live_store(spec: &ServeSpec, seed: u64) -> Result<(), String> {
    let mut spec = spec.clone();
    spec.requests_per_thread = spec.requests_per_thread.min(2_000);
    let store = ShardedStore::new(spec.shards, spec.buckets_per_shard, spec.keys);
    let (backend, log_dev, snap_dev) = DurableBackend::in_memory(store, WalConfig::new());
    let traffic = traffic(&spec);
    let stm = engine(&spec, THREADS);
    let clock = WallClock::new(NANOS_PER_TICK);
    let logs: Vec<ThreadLog> = (0..THREADS).map(|_| ThreadLog::default()).collect();
    std::thread::scope(|scope| {
        for (t, log) in logs.iter().enumerate() {
            let (stm, clock, backend, spec, traffic) = (&stm, &clock, &backend, &spec, &traffic);
            scope.spawn(move || {
                let schedule = generate_schedule(traffic, seed, t);
                serve_schedule(stm, ThreadId::new(t as u16), backend, &schedule, clock, spec, log);
            });
        }
    });
    let (log_bytes, snap_bytes) = (log_dev.contents(), snap_dev.contents());
    let recovered =
        recover_store(spec.shards, spec.buckets_per_shard, spec.keys, &log_bytes, &snap_bytes)
            .map_err(|e| format!("disk image does not recover: {e}"))?;
    let acknowledged = backend.ledger().last().map(|(seq, _)| *seq).unwrap_or(0);
    if recovered.recovered_seq != acknowledged {
        return Err(format!(
            "recovered up to commit {} of {acknowledged} acknowledged",
            recovered.recovered_seq
        ));
    }
    if store_digest(&recovered.store) != store_digest(backend.store()) {
        return Err("recovered store differs from the live store".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::native;

    #[test]
    fn recovery_check_passes_on_the_durable_workload() {
        let w = native("serve_durable").unwrap();
        recovery_matches_live_store(&w.slice_spec(&w.fixed), 5).expect("recovers");
    }

    #[test]
    fn block_check_rejects_a_tampered_record() {
        let w = native("serve_block").unwrap();
        let mut spec = w.slice_spec(&w.fixed);
        spec.requests_per_thread = 300;
        let mut report = gstm_serve::run_native(&spec, THREADS, 9, NANOS_PER_TICK, 0);
        block_matches_reference(&spec, 9, &report).expect("an honest run matches");
        report.block.as_mut().unwrap().record.final_digest ^= 1;
        assert!(block_matches_reference(&spec, 9, &report).is_err());
    }
}
