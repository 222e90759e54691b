//! Plain-data snapshots and their export formats.
//!
//! A [`Snapshot`] is an immutable merge of every shard's counters at one
//! point in time, keyed by fully-rendered series names such as
//! `gstm_tx_commits_total{thread="3"}`. `BTreeMap` keys give every export a
//! single canonical ordering, so two runs with identical metric values
//! produce **byte-identical** text — the property the determinism tests and
//! the paper's variance methodology rely on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::histogram::{bucket_upper_bound, HistogramSnapshot, BUCKETS};

/// Version tag of the machine-readable dump format.
pub const MACHINE_FORMAT_VERSION: u32 = 1;

/// A merged, plain-data view of the registry at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter and gauge series, keyed by rendered series name.
    counters: BTreeMap<String, u64>,
    /// Histogram series, keyed by rendered series name.
    histograms: BTreeMap<String, HistogramSnapshot>,
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

    /// `self - earlier`, series-wise saturating. Series absent from
    /// `earlier` pass through unchanged.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                (k.clone(), v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| match earlier.histograms.get(k) {
                Some(e) => (k.clone(), h.diff(e)),
                None => (k.clone(), h.clone()),
            })
            .collect();
        Snapshot { counters, histograms }
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

    /// Compact machine-readable dump (line-oriented, versioned), the input
    /// format of `gstm-stats`' telemetry parser and of [`Snapshot::from_machine`].
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

    /// JSON view of the snapshot, built on the in-tree [`crate::json`]
    /// writer (the same one the `benchmark/` package writes its results with).
    ///
    /// Counters become an object of `series name -> value`; histograms an
    /// object of `series name -> {"sum": .., "buckets": {"i": count, ..}}`.
    /// `BTreeMap` iteration keeps the field order — and therefore the
    /// rendered bytes — identical across identical runs.
    pub fn to_json(&self) -> crate::json::JsonValue {
        use crate::json::JsonValue as J;
        let counters = self.counters.iter().map(|(k, v)| (k.clone(), J::Num(*v as f64))).collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| (i.to_string(), J::Num(c as f64)))
                    .collect();
                let fields = vec![
                    ("sum".to_string(), J::Num(h.sum as f64)),
                    ("buckets".to_string(), J::Obj(buckets)),
                ];
                (k.clone(), J::Obj(fields))
            })
            .collect();
        J::Obj(vec![
            ("schema".to_string(), J::Str("gstm-telemetry".to_string())),
            ("version".to_string(), J::Num(f64::from(MACHINE_FORMAT_VERSION))),
            ("counters".to_string(), J::Obj(counters)),
            ("histograms".to_string(), J::Obj(histograms)),
        ])
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
        assert!(Snapshot::from_machine("").is_err());
        assert!(Snapshot::from_machine("gstm-telemetry 99\n").is_err());
        assert!(Snapshot::from_machine("gstm-telemetry 1\nx y z\n").is_err());
        assert!(Snapshot::from_machine("gstm-telemetry 1\nc k notanumber\n").is_err());
    }

    #[test]
    fn diff_and_total() {
        let earlier = sample();
        let mut later = sample();
        later.set_counter("gstm_tx_commits_total", 0, 25);
        let d = later.diff(&earlier);
        assert_eq!(d.counter("gstm_tx_commits_total", 0), 15);
        assert_eq!(d.counter("gstm_tx_commits_total", 1), 0);
        assert_eq!(later.total("gstm_tx_commits_total"), 32);
    }

    #[test]
    fn json_export_is_deterministic_and_parseable() {
        let s = sample();
        let rendered = s.to_json().render_pretty(2);
        assert_eq!(rendered, sample().to_json().render_pretty(2));
        let v = crate::json::JsonValue::parse(&rendered).unwrap();
        assert_eq!(v.get("schema").and_then(|x| x.as_str()), Some("gstm-telemetry"));
        let counters = v.get("counters").unwrap();
        assert_eq!(
            counters.get("gstm_tx_commits_total{thread=\"0\"}").and_then(|x| x.as_f64()),
            Some(10.0)
        );
        let h = v.get("histograms").unwrap().get("gstm_tx_retries{thread=\"0\"}").unwrap();
        assert_eq!(h.get("sum").and_then(|x| x.as_f64()), Some(10.0));
        assert_eq!(h.get("buckets").unwrap().get("1").and_then(|x| x.as_f64()), Some(4.0));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.counter("gstm_tx_commits_total", 0), 20);
        assert_eq!(a.histogram("gstm_tx_retries", 0).unwrap().count(), 10);
    }
}
