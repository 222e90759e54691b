//! Fixed log2-bucket histograms.
//!
//! The hot path must never allocate or lock, so the histogram is a fixed
//! array of 64 `AtomicU64` buckets updated with `Relaxed` stores: bucket
//! `i` counts observed values whose bit length is `i` (i.e. values in
//! `[2^(i-1), 2^i)`, with bucket 0 reserved for the value 0). That gives a
//! ~2x relative-error view over the full `u64` range — plenty for abort
//! retries, hold polls and read/write-set sizes, whose *shape* (tail mass)
//! is what the paper's figures care about.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per possible bit length of a `u64`, plus zero.
pub const BUCKETS: usize = 65;

/// A lock-free log2-bucket histogram.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    /// Running sum of observed values, for mean reconstruction.
    sum: AtomicU64,
}

/// Bucket index of a value: 0 for 0, else its bit length.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Inclusive lower bound of bucket `i` (0 for the zero bucket).
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }

    /// Records one observation. Lock-free; safe from any thread.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A plain-data copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Plain-data histogram state, detached from the atomics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts.
    pub buckets: [u64; BUCKETS],
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An all-zero snapshot.
    pub fn empty() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS], sum: 0 }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound of the bucket containing quantile `q` (0 when empty).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }

    /// Point estimate of quantile `q` with linear interpolation inside the
    /// containing log2 bucket.
    ///
    /// The bucket boundaries are powers of two, so the estimate's relative
    /// error is bounded by the bucket width: **at most ~2×** (and far less
    /// in practice, since the interpolation assumes mass is spread evenly
    /// across the bucket instead of pinning everything to its upper edge
    /// the way [`HistogramSnapshot::quantile_bound`] does). Use this for
    /// p50/p95/p99 reporting; use `quantile_bound` when a conservative
    /// upper bound is needed. Returns 0.0 when the histogram is empty —
    /// use [`HistogramSnapshot::try_p`] to distinguish "no data" from a
    /// genuinely zero quantile.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn p(&self, q: f64) -> f64 {
        self.try_p(q).unwrap_or(0.0)
    }

    /// Like [`HistogramSnapshot::p`], but `None` when the histogram is
    /// empty. The extremes are anchored rather than interpolated: `q = 0`
    /// returns the lower edge of the first nonempty bucket (the smallest
    /// value the histogram can still resolve) and `q = 1` the upper edge
    /// of the last nonempty bucket (its largest), so `try_p(0) <= try_p(q)
    /// <= try_p(1)` for every recorded distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn try_p(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let n = self.count();
        if n == 0 {
            return None;
        }
        if q <= 0.0 {
            let first = self.buckets.iter().position(|&c| c > 0).expect("count > 0");
            return Some(bucket_lower_bound(first) as f64);
        }
        if q >= 1.0 {
            let last = self.buckets.iter().rposition(|&c| c > 0).expect("count > 0");
            return Some(bucket_upper_bound(last) as f64);
        }
        let rank = (q * n as f64).max(1.0).min(n as f64);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = seen as f64;
            seen += c;
            if (seen as f64) >= rank {
                // Bucket i spans [lo, hi]; spread its count uniformly and
                // take the within-bucket offset of the requested rank.
                let lo = bucket_lower_bound(i) as f64;
                let hi = bucket_upper_bound(i) as f64;
                let frac = (rank - before) / c as f64;
                return Some(lo + frac * (hi - lo));
            }
        }
        Some(bucket_upper_bound(BUCKETS - 1) as f64)
    }

    /// Element-wise accumulation (for merging per-thread histograms).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(255), 8);
        assert_eq!(bucket_of(256), 9);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn upper_bounds_cover_buckets() {
        for v in [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX / 2, u64::MAX] {
            let b = bucket_of(v);
            assert!(v <= bucket_upper_bound(b), "{v} vs bucket {b}");
            if b > 0 {
                assert!(v > bucket_upper_bound(b - 1));
            }
        }
    }

    #[test]
    fn record_and_stats() {
        let h = LogHistogram::new();
        for v in [0u64, 1, 1, 2, 8] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum, 12);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 2);
    }

    #[test]
    fn quantiles_walk_the_cdf() {
        let h = LogHistogram::new();
        for _ in 0..99 {
            h.record(1);
        }
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.quantile_bound(0.5), 1);
        assert_eq!(s.quantile_bound(1.0), 1023, "1000 falls in [512, 1023]");
        assert_eq!(HistogramSnapshot::empty().quantile_bound(0.9), 0);
    }

    #[test]
    fn interpolated_quantiles_track_true_values_within_2x() {
        let h = LogHistogram::new();
        // 1000 observations uniform over [1, 1000].
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for (q, truth) in [(0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let est = s.p(q);
            assert!(est >= truth / 2.0 && est <= truth * 2.0, "p({q}) = {est}, true {truth}");
            // The interpolated estimate must never exceed the conservative
            // bucket upper bound.
            assert!(est <= s.quantile_bound(q) as f64);
        }
    }

    #[test]
    fn interpolated_quantile_edge_cases() {
        assert_eq!(HistogramSnapshot::empty().p(0.99), 0.0);
        let h = LogHistogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.snapshot().p(0.5), 0.0, "all-zero sample has zero quantiles");
        let h = LogHistogram::new();
        for _ in 0..99 {
            h.record(1);
        }
        h.record(600);
        let s = h.snapshot();
        assert_eq!(s.p(0.5), 1.0, "median sits in the singleton bucket [1,1]");
        let p999 = s.p(0.999);
        assert!((512.0..=1023.0).contains(&p999), "tail lands in 600's bucket, got {p999}");
    }

    #[test]
    fn quantile_extremes_anchor_at_min_and_max_edges() {
        assert_eq!(HistogramSnapshot::empty().try_p(0.5), None, "empty is no data, not zero");
        assert_eq!(HistogramSnapshot::empty().p(0.5), 0.0, "p() keeps the 0.0 convention");
        let h = LogHistogram::new();
        h.record(4);
        let s = h.snapshot();
        // A single observation of 4 lives in bucket [4, 7]: q=0 anchors at
        // the lower edge, q=1 at the upper, instead of interpolating.
        assert_eq!(s.try_p(0.0), Some(4.0));
        assert_eq!(s.try_p(1.0), Some(7.0));
        let h = LogHistogram::new();
        for v in [1u64, 60, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.p(0.0), 1.0, "min edge of the first nonempty bucket");
        assert_eq!(s.p(1.0), 1023.0, "max edge of the last nonempty bucket");
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = s.p(q);
            assert!(s.p(0.0) <= v && v <= s.p(1.0), "p({q}) = {v} outside [min, max]");
        }
        let zeros = LogHistogram::new();
        zeros.record(0);
        assert_eq!(zeros.snapshot().try_p(0.0), Some(0.0));
        assert_eq!(zeros.snapshot().try_p(1.0), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn interpolated_quantile_rejects_bad_q() {
        let _ = HistogramSnapshot::empty().p(1.5);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn try_p_rejects_bad_q() {
        let _ = HistogramSnapshot::empty().try_p(-0.1);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn quantile_bound_rejects_bad_q() {
        let _ = HistogramSnapshot::empty().quantile_bound(1.5);
    }

    #[test]
    fn merge_adds_counts_sums_and_buckets() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        a.record(3);
        b.record(3);
        b.record(100);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum, 106);
        assert_eq!(merged.buckets[bucket_of(3)], 2);
        assert_eq!(merged.buckets[bucket_of(100)], 1);
    }
}
