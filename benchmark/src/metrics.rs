//! The metric catalogue: every name the benchmark prints, with its unit,
//! in report order. `BENCHMARK.json` lists the same names (a test holds the
//! two together) and adds direction and regression bound.

/// End-to-end metrics: what a user of the system would see. Reported by
/// every workload's untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sat_req_per_s", "1/s"),
    ("p50_us", "us"),
    ("ok_share_pct", "pct"),
    ("guided_stddev_pct", "pct"),
    ("guided_nondet_pct", "pct"),
    ("guided_makespan_pct", "pct"),
    ("guided_p99_pct", "pct"),
];

/// Per-layer metrics, `layer.module.metric`. Reported by every workload's
/// traced run; a layer that does no work on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("serve.service.queue_wait_us_p50", "us"),
    ("serve.service.queue_wait_us_p99", "us"),
    ("serve.service.late_share", "share"),
    ("core.stm.txn_us_per_req", "us"),
    ("core.stm.self_us_per_req", "us"),
    ("core.stm.attempts_per_commit", "count"),
    ("core.stm.wasted_us_per_req", "us"),
    ("core.stm.aborts_per_commit", "count"),
    ("core.stm.ro_aborts_per_ro_commit", "count"),
    ("core.stm.aborts_per_commit_sat", "count"),
    ("core.stm.txn_us_per_req_sat", "us"),
    ("serve.store.apply_us_per_attempt", "us"),
    ("serve.backend.on_commit_us_per_req", "us"),
    ("serve.backend.flush_us", "us"),
    ("wal.log.records_per_flush", "count"),
    ("wal.log.bytes_per_req", "bytes"),
    ("wal.log.snapshots_per_kreq", "count"),
    ("serve.block_mode.merge_us_per_kreq", "us"),
    ("serve.block_mode.formation_wait_us_p50", "us"),
    ("block.executor.execute_us_per_block", "us"),
    ("block.executor.re_executions_per_txn", "count"),
    ("block.executor.validation_fails_per_txn", "count"),
    ("block.executor.dependency_stalls_per_txn", "count"),
    ("serve.block_mode.commit_us_per_txn", "us"),
    ("serve.block_mode.shadow_update_us_per_block", "us"),
    ("core.stm.read_ns", "ns"),
    ("core.stm.write_commit_ns", "ns"),
    ("core.stm.abort_ns", "ns"),
    ("core.mvcc.snapshot_read_ns", "ns"),
    ("collections.map.get_ns", "ns"),
    ("collections.map.insert_ns", "ns"),
    ("wal.log.append_ns", "ns"),
    ("wal.log.flush_us_per_batch", "us"),
    ("wal.log.recover_us_per_krec", "us"),
    ("block.mvmap.resolve_ns", "ns"),
    ("block.mvmap.publish_ns", "ns"),
    ("guide.policy.admit_ns", "ns"),
    ("model.tracker.step_ns", "ns"),
    ("telemetry.histogram.record_ns", "ns"),
    ("model.tsa.states", "count"),
    ("model.tsa.train_wall_s", "s"),
    ("guide.policy.holds_per_commit", "count"),
    ("guide.policy.k_bailouts", "count"),
    ("guide.policy.serve_p99_cov_pct", "pct"),
    ("sim.machine.wall_us_per_step", "us"),
    ("trace.p50_us", "us"),
    ("trace.p99_us", "us"),
    ("trace.overhead_pct", "pct"),
    ("host.spin_ns_per_iter", "ns"),
    ("host.stalled_slice_share", "share"),
];

/// The unit of a catalogued metric.
///
/// # Panics
///
/// Panics on a name that is in neither catalogue: a typo in this program.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
        .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_telemetry::JsonValue;

    /// `BENCHMARK.json` is what the driver reads; this program prints
    /// what the catalogue says. They must name the same metrics with the
    /// same units, and the workloads the program knows.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let JsonValue::Arr(items) = doc.get(key).expect("key present") else {
                panic!("{key} is a list")
            };
            items
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let known: Vec<String> =
            crate::workloads::WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(workloads, known);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n).collect();
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
