//! The machine dump, written by [`Snapshot::to_machine`] and read back by
//! [`Snapshot::from_machine`], its only parser: a `gstm-telemetry 1` header,
//! then `c <series> <value>` and `h <series> <sum> <bucket>:<count> ...`
//! lines, a histogram listing only its non-empty log2 buckets.

use std::fmt::Write as _;

use crate::histogram::{HistogramSnapshot, BUCKETS};
use crate::snapshot::Snapshot;

/// Version tag of the machine-readable dump format.
const MACHINE_FORMAT_VERSION: u32 = 1;

impl Snapshot {
    /// Compact machine-readable dump (line-oriented, versioned), the input
    /// format of [`Snapshot::from_machine`].
    pub fn to_machine(&self) -> String {
        let mut out = format!("gstm-telemetry {MACHINE_FORMAT_VERSION}\n");
        for (k, v) in &self.counters {
            let _ = writeln!(out, "c {k} {v}");
        }
        for (k, h) in &self.histograms {
            let _ = write!(out, "h {k} {}", h.sum);
            for (i, &c) in h.buckets.iter().enumerate() {
                if c > 0 {
                    let _ = write!(out, " {i}:{c}");
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parses a dump produced by [`Snapshot::to_machine`].
    pub fn from_machine(text: &str) -> Result<Snapshot, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty dump")?;
        let version = header
            .strip_prefix("gstm-telemetry ")
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| format!("bad header: {header}"))?;
        if version != MACHINE_FORMAT_VERSION {
            return Err(format!("unsupported dump version {version}"));
        }
        let mut snap = Snapshot::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split(' ');
            let tag = parts.next().unwrap_or("");
            let key = parts.next().ok_or_else(|| format!("truncated line: {line}"))?;
            match tag {
                "c" => {
                    let v = parts
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| format!("bad counter line: {line}"))?;
                    snap.counters.insert(key.to_string(), v);
                }
                "h" => {
                    let sum = parts
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| format!("bad histogram line: {line}"))?;
                    let mut h = HistogramSnapshot::empty();
                    h.sum = sum;
                    for pair in parts {
                        let (i, c) =
                            pair.split_once(':').ok_or_else(|| format!("bad bucket {pair}"))?;
                        let i: usize = i.parse().map_err(|_| format!("bad bucket index {pair}"))?;
                        if i >= BUCKETS {
                            return Err(format!("bucket index out of range: {pair}"));
                        }
                        h.buckets[i] = c.parse().map_err(|_| format!("bad bucket count {pair}"))?;
                    }
                    snap.histograms.insert(key.to_string(), h);
                }
                other => return Err(format!("unknown record tag {other:?}")),
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dump as a reader meets it: written out by hand, not by
    /// [`Snapshot::to_machine`].
    const DUMP: &str = "gstm-telemetry 1\n\
        c gstm_sim_makespan_ticks 400\n\
        c gstm_tx_commits_total{thread=\"0\"} 10\n\
        c gstm_tx_commits_total{thread=\"1\"} 7\n\
        h gstm_tx_retries{thread=\"0\"} 12 0:3 2:2\n";

    #[test]
    fn parses_counters_and_histograms() {
        let d = Snapshot::from_machine(DUMP).unwrap();
        assert_eq!(d.gauge_value("gstm_sim_makespan_ticks"), Some(400));
        assert_eq!(d.counter("gstm_tx_commits_total", 1), 7);
        assert_eq!(d.total("gstm_tx_commits_total"), 17);
        let h = d.histogram("gstm_tx_retries", 0).unwrap();
        assert_eq!((h.count(), h.sum), (5, 12));
        assert_eq!((h.buckets[0], h.buckets[1], h.buckets[2]), (3, 0, 2));
        assert_eq!(d.to_machine(), DUMP, "the writer emits the same bytes");
    }

    /// Each malformed dump is refused with an error that names what is
    /// wrong with it.
    #[test]
    fn rejects_malformed_input() {
        for (text, error) in [
            ("", "empty dump"),
            ("gstm-telemetry 2\n", "unsupported dump version 2"),
            ("not-a-dump\n", "bad header: not-a-dump"),
            ("gstm-telemetry 1\nz k 1\n", "unknown record tag \"z\""),
            ("gstm-telemetry 1\nc\n", "truncated line: c"),
            ("gstm-telemetry 1\nh k notanum\n", "bad histogram line: h k notanum"),
            ("gstm-telemetry 1\nh k 3 7\n", "bad bucket 7"),
            ("gstm-telemetry 1\nh k 3 0:x\n", "bad bucket count 0:x"),
        ] {
            assert_eq!(Snapshot::from_machine(text), Err(error.to_string()), "{text:?}");
        }
    }

    #[test]
    fn total_does_not_match_name_prefixes() {
        let d = Snapshot::from_machine(
            "gstm-telemetry 1\nc gstm_tx_holds_total{thread=\"0\"} 5\nc gstm_tx_holds_total_other 9\n",
        )
        .unwrap();
        assert_eq!(d.total("gstm_tx_holds_total"), 5);
        assert_eq!(d.total("gstm_tx_holds_total_other"), 9);
    }
}
