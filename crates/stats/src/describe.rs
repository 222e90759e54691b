//! Summary statistics: mean, sample variance/stddev, streaming Welford.

/// Arithmetic mean. Returns 0 for an empty slice.
///
/// ```
/// assert_eq!(gstm_stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample variance with the `N − 1` (Bessel) denominator the paper uses.
/// Returns 0 for fewer than two samples.
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation (§II-B's `s`). Returns 0 for fewer than two
/// samples.
///
/// ```
/// let s = gstm_stats::sample_stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
/// assert!((s - 2.138089935).abs() < 1e-6);
/// ```
pub fn sample_stddev(xs: &[f64]) -> f64 {
    sample_variance(xs).sqrt()
}

/// One-pass (Welford) accumulator for mean and sample variance; numerically
/// stable for long streams of timing samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of samples so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Current sample variance (0 below two samples).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Current sample standard deviation.
    pub fn sample_stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }
}

impl Extend<f64> for Welford {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut w = Welford::new();
        w.extend(iter);
        w
    }
}

/// Five-number-ish summary of a sample set, convenient for reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (N−1).
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a slice (all zeros when empty).
    pub fn of(xs: &[f64]) -> Self {
        Summary {
            n: xs.len(),
            mean: mean(xs),
            stddev: sample_stddev(xs),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={:.2} max={:.2}",
            self.n, self.mean, self.stddev, self.min, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn variance_bessel_corrected() {
        // Var of {1,2,3,4} with N-1: mean 2.5, SS = 5, / 3.
        let v = sample_variance(&[1.0, 2.0, 3.0, 4.0]);
        assert!((v - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        assert_eq!(sample_stddev(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        assert_eq!(sample_variance(&[42.0]), 0.0);
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let w: Welford = xs.iter().copied().collect();
        assert!((w.mean() - mean(&xs)).abs() < 1e-12);
        assert!((w.sample_variance() - sample_variance(&xs)).abs() < 1e-9);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn summary_fields() {
        let s = Summary::of(&[1.0, 5.0, 3.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert!(s.to_string().contains("n=3"));
    }

    /// Property (64 seeded cases): sample stddev is translation-invariant
    /// and non-negative.
    #[test]
    fn prop_stddev_is_translation_invariant() {
        for seed in 0..64 {
            let mut rng = gstm_core::rng::SmallRng::seed_from_u64(seed);
            let xs: Vec<f64> =
                (0..rng.gen_range(2..30)).map(|_| rng.gen_range(-1e6..1e6)).collect();
            let shift = rng.gen_range(-1e6..1e6);
            let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
            let (s1, s2) = (sample_stddev(&xs), sample_stddev(&shifted));
            assert!(s1 >= 0.0, "seed {seed}: {s1}");
            assert!((s1 - s2).abs() < 1e-6 * s1.max(1.0), "seed {seed}: {s1} vs {s2}");
        }
    }
}
