//! Plain-data snapshots and their text exposition.
//!
//! A [`Snapshot`] is an immutable merge of every shard's counters at one
//! point in time, keyed by fully-rendered series names such as
//! `gstm_tx_commits_total{thread="3"}`. `BTreeMap` keys give every export a
//! single canonical ordering, so two runs with identical metric values
//! produce **byte-identical** text — the property the determinism tests and
//! the paper's variance methodology rely on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::histogram::{bucket_upper_bound, HistogramSnapshot};

/// A merged, plain-data view of the registry at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter and gauge series, keyed by rendered series name.
    pub(crate) counters: BTreeMap<String, u64>,
    /// Histogram series, keyed by rendered series name.
    pub(crate) histograms: BTreeMap<String, HistogramSnapshot>,
}

fn thread_key(name: &str, thread: usize) -> String {
    format!("{name}{{thread=\"{thread}\"}}")
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a per-thread counter series.
    pub fn set_counter(&mut self, name: &str, thread: usize, value: u64) {
        self.counters.insert(thread_key(name, thread), value);
    }

    /// Sets a per-thread, per-abort-reason counter series.
    pub fn set_reason_counter(&mut self, name: &str, thread: usize, reason: &str, value: u64) {
        self.counters.insert(format!("{name}{{thread=\"{thread}\",reason=\"{reason}\"}}"), value);
    }

    /// Sets an unlabelled gauge series.
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Sets a per-thread histogram series.
    pub fn set_histogram(&mut self, name: &str, thread: usize, h: HistogramSnapshot) {
        self.histograms.insert(thread_key(name, thread), h);
    }

    /// Reads a per-thread counter (0 when absent).
    pub fn counter(&self, name: &str, thread: usize) -> u64 {
        self.counters.get(&thread_key(name, thread)).copied().unwrap_or(0)
    }

    /// Reads an unlabelled gauge.
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Sums a counter series over all threads (label-prefix match).
    pub fn total(&self, name: &str) -> u64 {
        let prefix = format!("{name}{{");
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix) || k.as_str() == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Reads a per-thread histogram.
    pub fn histogram(&self, name: &str, thread: usize) -> Option<&HistogramSnapshot> {
        self.histograms.get(&thread_key(name, thread))
    }

    /// Accumulates `other` into `self` (for aggregating repeated runs).
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_insert_with(HistogramSnapshot::empty).merge(h);
        }
    }

    /// Stable Prometheus-style text exposition.
    ///
    /// Counters render as `name{thread="3"} value`; histograms render as
    /// cumulative `_bucket{...,le="bound"}` lines (up to the highest
    /// non-empty bucket, then `le="+Inf"`) plus `_sum` and `_count`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k} {v}");
        }
        for (k, h) in &self.histograms {
            let (name, labels) = split_series(k);
            let top = h.buckets.iter().rposition(|&c| c > 0);
            let mut cum = 0u64;
            if let Some(top) = top {
                for (i, &c) in h.buckets.iter().enumerate().take(top + 1) {
                    cum += c;
                    let _ = writeln!(
                        out,
                        "{name}_bucket{{{labels},le=\"{}\"}} {cum}",
                        bucket_upper_bound(i)
                    );
                }
            }
            let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {cum}");
            let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum);
            let _ = writeln!(out, "{name}_count{{{labels}}} {cum}");
        }
        out
    }
}

/// Splits `name{labels}` into `(name, labels)`; labels empty when absent.
fn split_series(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(i) => (&key[..i], key[i + 1..].trim_end_matches('}')),
        None => (key, ""),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::BUCKETS;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        s.set_counter("gstm_tx_commits_total", 0, 10);
        s.set_counter("gstm_tx_commits_total", 1, 7);
        s.set_gauge("gstm_sim_ticks", 999);
        let mut h = HistogramSnapshot::empty();
        h.buckets[1] = 4;
        h.buckets[3] = 1;
        h.sum = 10;
        s.set_histogram("gstm_tx_retries", 0, h);
        s
    }

    #[test]
    fn text_is_sorted_and_labelled() {
        let text = sample().to_text();
        assert!(text.contains("gstm_tx_commits_total{thread=\"0\"} 10\n"));
        assert!(text.contains("gstm_tx_commits_total{thread=\"1\"} 7\n"));
        assert!(text.contains("gstm_sim_ticks 999\n"));
        assert!(text.contains("gstm_tx_retries_bucket{thread=\"0\",le=\"1\"} 4\n"));
        assert!(text.contains("gstm_tx_retries_bucket{thread=\"0\",le=\"+Inf\"} 5\n"));
        assert!(text.contains("gstm_tx_retries_count{thread=\"0\"} 5\n"));
        // Deterministic: same snapshot, same bytes.
        assert_eq!(text, sample().to_text());
    }

    #[test]
    fn machine_round_trips() {
        let s = sample();
        let parsed = Snapshot::from_machine(&s.to_machine()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn from_machine_rejects_garbage() {
        for garbage in [
            "",
            "not-a-dump\n",
            "gstm-telemetry 99\n",
            "gstm-telemetry 1\nx y z\n",
            "gstm-telemetry 1\nz k 1\n",
            "gstm-telemetry 1\nc k notanumber\n",
            "gstm-telemetry 1\nh k notanum\n",
            "gstm-telemetry 1\nh k 3 0:x\n",
            &format!("gstm-telemetry 1\nh k 3 {BUCKETS}:1\n"),
        ] {
            assert!(Snapshot::from_machine(garbage).is_err(), "accepted {garbage:?}");
        }
    }

    #[test]
    fn total_sums_every_thread() {
        let mut s = sample();
        s.set_counter("gstm_tx_commits_total", 0, 25);
        assert_eq!(s.total("gstm_tx_commits_total"), 32);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.counter("gstm_tx_commits_total", 0), 20);
        assert_eq!(a.histogram("gstm_tx_retries", 0).unwrap().count(), 10);
    }
}
