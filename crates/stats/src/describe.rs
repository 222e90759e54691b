//! Summary statistics: mean and sample variance/stddev.

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
pub(crate) fn sample_variance(xs: &[f64]) -> f64 {
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
