//! Order statistics over slices: every timing the benchmark reports is a
//! quartile across slices, because on a shared host a single slice can
//! contain a scheduler stall that a pooled percentile would inherit.

use gstm_telemetry::JsonValue;

/// Median and quartiles of a sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `xs` (all zero when empty). Same method as Python's
    /// `statistics.quantiles(xs, n=4)` ("exclusive"), so a reader can check
    /// the numbers with the tool the acceptance rule is written in.
    pub fn of(xs: &[f64]) -> Self {
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        Quartiles {
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
            n: v.len(),
        }
    }

    pub fn to_json(self) -> JsonValue {
        JsonValue::obj(vec![
            ("median".into(), JsonValue::Num(self.median)),
            ("q1".into(), JsonValue::Num(self.q1)),
            ("q3".into(), JsonValue::Num(self.q3)),
            ("n".into(), JsonValue::Num(self.n as f64)),
        ])
    }
}

/// Exclusive-method quantile of a sorted sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        1 => sorted[0],
        _ => {
            let pos = (q * (n as f64 + 1.0) - 1.0).clamp(0.0, (n - 1) as f64);
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
        }
    }
}

pub fn median(xs: &[f64]) -> f64 {
    Quartiles::of(xs).median
}

/// Share of slices whose p99 exceeds four times the median slice p99: the
/// host-noise canary (a stalled slice is a descheduled thread, not a slow
/// program).
pub fn stalled_share(slice_p99s: &[f64]) -> f64 {
    let limit = 4.0 * median(slice_p99s);
    ratio(slice_p99s.iter().filter(|&&p| p > limit).count() as f64, slice_p99s.len() as f64)
}

/// Exact quantile of an unsorted sample (nearest rank), for the traced
/// run's per-request vectors.
pub fn exact_quantile(xs: &mut [u64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1] as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&xs);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn exact_quantile_is_nearest_rank() {
        let mut xs: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(exact_quantile(&mut xs, 0.5), 50.0);
        assert_eq!(exact_quantile(&mut xs, 0.99), 99.0);
        assert_eq!(exact_quantile(&mut [], 0.5), 0.0);
    }
}
