//! In-tree seeded pseudo-random number generation.
//!
//! The reproduction must build and run without network access to a crate
//! registry, so everything that previously pulled in the `rand` crate now
//! uses this module instead: a [`SplitMix64`] seeder feeding a
//! xoshiro256++ generator ([`SmallRng`]), with the small slice of the
//! `rand` API surface the workloads and the simulator actually use
//! (`gen_range`, `gen`, `shuffle`).
//!
//! Determinism is the whole point: a seed *is* the identity of a run
//! (`gstm-sim` averages over seeds the way the paper averages over
//! repeated timing runs), so the generator must produce the same stream on
//! every platform. Both algorithms here are fixed published constants with
//! no platform-dependent state.
//!
//! ```
//! use gstm_core::rng::SmallRng;
//! let mut rng = SmallRng::seed_from_u64(42);
//! let d = rng.gen_range(0..6u32);
//! assert!(d < 6);
//! let mut cards = [1, 2, 3, 4];
//! rng.shuffle(&mut cards);
//! assert_eq!(SmallRng::seed_from_u64(7).next_u64(), SmallRng::seed_from_u64(7).next_u64());
//! ```

use std::ops::{Range, RangeInclusive};

/// Sebastiano Vigna's SplitMix64: the recommended seeder for xoshiro
/// state (and a fine standalone generator for non-overlapping streams).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A small, fast, seedable generator: xoshiro256++ (Blackman & Vigna).
///
/// Drop-in for the subset of `rand::rngs::SmallRng` this workspace used:
/// [`SmallRng::seed_from_u64`], [`SmallRng::gen_range`], [`SmallRng::gen`],
/// [`SmallRng::gen_bool`] and [`SmallRng::shuffle`].
#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Seeds the full 256-bit state from a 64-bit seed through SplitMix64,
    /// as the xoshiro authors prescribe.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        SmallRng { s }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value from `range` (half-open or inclusive integer ranges,
    /// half-open float ranges).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// A uniform value of `T` over its full domain.
    pub fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.gen::<f64>() < p
    }

    /// Fisher–Yates shuffle of `items` in place, from the last position
    /// down, as `rand`'s slice shuffle draws.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Uniform `u64` below `bound` via Lemire's widening-multiply method
    /// with rejection (unbiased; *Fast Random Integer Generation in an
    /// Interval*, ACM TOMACS 2019).
    ///
    /// A draw is rejected when the low word of the product falls below
    /// `2^64 mod bound`, which is itself below `bound`: a low word at or
    /// above `bound` is accepted without computing the threshold, so most
    /// draws never divide. The accept/reject decisions, and so the values
    /// and the number of draws, are those of computing the threshold first.
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let mut wide = u128::from(self.next_u64()) * u128::from(bound);
        if (wide as u64) < bound {
            // Reject the low fringe so every residue class is equally likely.
            let threshold = bound.wrapping_neg() % bound;
            while (wide as u64) < threshold {
                wide = u128::from(self.next_u64()) * u128::from(bound);
            }
        }
        (wide >> 64) as u64
    }
}

/// Types that can be drawn uniformly over their whole domain.
pub trait FromRng {
    /// Draws one value.
    fn from_rng(rng: &mut SmallRng) -> Self;
}

macro_rules! impl_from_rng_int {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            fn from_rng(rng: &mut SmallRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_from_rng_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl FromRng for bool {
    fn from_rng(rng: &mut SmallRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl FromRng for f64 {
    fn from_rng(rng: &mut SmallRng) -> Self {
        unit(rng.next_u64() >> 11)
    }
}

/// 53 random bits as a uniform `f64` in `[0, 1)`: exact (every 53-bit
/// integer is an `f64`, and the scale is a power of two), so it never
/// decreases as the bits grow.
#[inline]
fn unit(bits: u64) -> f64 {
    bits as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FromRng for f32 {
    fn from_rng(rng: &mut SmallRng) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges a [`SmallRng`] can sample uniformly.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample(self, rng: &mut SmallRng) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut SmallRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Full u64/i64 domain: every 64-bit pattern is valid.
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span as u64) as i128) as $t
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut SmallRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * rng.gen::<f64>()
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample(self, rng: &mut SmallRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        lo + (hi - lo) * rng.gen::<f64>()
    }
}

/// Exponential distribution with a given mean — the inter-arrival sampler
/// of a Poisson process (`gstm-serve`'s open-loop traffic generator draws
/// request gaps from this).
///
/// ```
/// use gstm_core::rng::{Exp, SmallRng};
/// let mut rng = SmallRng::seed_from_u64(1);
/// let gap = Exp::new(50.0).sample(&mut rng);
/// assert!(gap >= 0.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Exp {
    mean: f64,
}

impl Exp {
    /// An exponential distribution with the given mean (`1/λ`).
    ///
    /// # Panics
    ///
    /// Panics unless `mean` is finite and positive.
    pub fn new(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be finite and positive");
        Exp { mean }
    }

    /// The distribution's mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws one value by inversion: `-mean · ln(1 − u)`, `u ∈ [0, 1)`.
    /// Always finite and non-negative (`1 − u` never reaches 0).
    pub fn sample(&self, rng: &mut SmallRng) -> f64 {
        let u: f64 = rng.gen();
        -self.mean * (1.0 - u).ln()
    }
}

/// Zipf distribution over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `(k + 1)^−θ`. `θ = 0` is uniform; `θ ≈ 1` is the classic
/// web-object popularity curve (a few very hot keys, a long cold tail).
///
/// Sampling inverts the cumulative weight table exactly: a draw takes the
/// 53 bits `r` that [`SmallRng::gen`] turns into an `f64`, forms the same
/// point `u = r · 2⁻⁵³ · total`, and returns the first rank whose
/// cumulative weight exceeds `u`. The top bits of `r` pick one of at least
/// `2n` equal buckets (at most 2¹⁶), and a table built with the
/// distribution holds, per bucket, the rank its smallest `r` draws. `u`
/// never decreases as `r` grows, so every `r` of a bucket draws a rank
/// between its bucket's entry and the next bucket's, and the draw searches
/// only those: below the cap, a rank or two on average. That is `O(1)` per
/// draw on average after an `O(n)` setup, and there is no rejection loop,
/// so the number of RNG draws per sample is always one, keeping seeded
/// streams easy to reason about.
///
/// ```
/// use gstm_core::rng::{SmallRng, Zipf};
/// let mut rng = SmallRng::seed_from_u64(2);
/// let zipf = Zipf::new(100, 0.9);
/// assert!(zipf.sample(&mut rng) < 100);
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    /// Cumulative (unnormalized) weights; `cdf[k]` = Σ_{i≤k} (i+1)^−θ.
    cdf: Vec<f64>,
    /// `cdf[n − 1]`.
    total: f64,
    /// `lo[j]`: the rank drawn by the smallest `r` of bucket `j`
    /// (`r >> shift == j`); the last entry is `n − 1`.
    lo: Vec<u32>,
    /// `53 − log2(bucket count)`.
    shift: u32,
}

/// Bucket count cap of [`Zipf`]'s inversion table (as a power of two).
const ZIPF_MAX_BUCKET_BITS: u32 = 16;

impl Zipf {
    /// A Zipf distribution over `0..n` with skew `θ`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or exceeds `u32::MAX`, or if `θ` is negative or
    /// non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty rank space");
        assert!(u32::try_from(n).is_ok(), "Zipf rank space exceeds u32::MAX");
        assert!(theta.is_finite() && theta >= 0.0, "theta must be finite and non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += ((k + 1) as f64).powf(-theta);
            cdf.push(acc);
        }
        let total = acc;
        let bits = (2 * n).next_power_of_two().trailing_zeros().min(ZIPF_MAX_BUCKET_BITS);
        let shift = 53 - bits;
        // One sweep over buckets and ranks together: bucket j's smallest
        // point is that of r = j << shift, and the rank only moves forward.
        let mut k = 0;
        let lo = (0..=1u64 << bits)
            .map(|j| {
                let u = unit(j << shift) * total;
                while k < n && cdf[k] <= u {
                    k += 1;
                }
                k.min(n - 1) as u32
            })
            .collect();
        Zipf { cdf, total, lo, shift }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draws one rank in `0..n`.
    #[inline]
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let r = rng.next_u64() >> 11;
        let u = unit(r) * self.total;
        let j = (r >> self.shift) as usize;
        // The first rank whose cumulative weight exceeds u lies in
        // lo[j]..=lo[j + 1] (clamped to the last rank, as lo is).
        let (first, last) = (self.lo[j] as usize, self.lo[j + 1] as usize);
        first + self.cdf[first..last].partition_point(|&c| c <= u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference values for seed 1234567 from the published algorithm.
        let mut sm = SplitMix64::new(0);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Seed 0 first output of SplitMix64 is a fixed published constant.
        assert_eq!(a, 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(99);
        let mut b = SmallRng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..1000 {
            let v = rng.gen_range(3..17u32);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-5..=5i64);
            assert!((-5..=5).contains(&w));
            let f = rng.gen_range(-0.5..0.5f64);
            assert!((-0.5..0.5).contains(&f));
            let b = rng.gen_range(b'a'..=b'z');
            assert!(b.is_ascii_lowercase());
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[rng.gen_range(0..6usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = rng.gen_range(5..5u32);
    }

    #[test]
    fn unit_interval_floats() {
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    /// The stream `genome` and `intruder` build their inputs from: a change
    /// to the draw order moves this permutation and the state after it.
    #[test]
    fn shuffle_draws_a_pinned_permutation() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..10).collect();
        rng.shuffle(&mut v);
        assert_eq!(v, [2, 5, 6, 0, 3, 1, 4, 9, 7, 8]);
        assert_eq!(rng.next_u64(), 0x64cb_5787_54ee_04a8);
    }

    #[test]
    fn exp_sample_mean_and_support() {
        let mut rng = SmallRng::seed_from_u64(21);
        let exp = Exp::new(40.0);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = exp.sample(&mut rng);
            assert!(v.is_finite() && v >= 0.0);
            sum += v;
        }
        let mean = sum / n as f64;
        // Sample mean of 20k exponentials: well within 5% of the true mean.
        assert!((mean - 40.0).abs() < 2.0, "sample mean {mean}");
        assert_eq!(Exp::new(7.5).mean(), 7.5);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn exp_rejects_bad_mean() {
        let _ = Exp::new(0.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn exp_rejects_nan_mean() {
        let _ = Exp::new(f64::NAN);
    }

    /// Draws per shape of the exactness properties: 10⁶ under the optimized
    /// profile (CI runs these there), a tenth of that in debug builds.
    const EXACT_DRAWS: usize = if cfg!(debug_assertions) { 100_000 } else { 1_000_000 };

    /// The bucketed inversion draws what searching the whole cumulative
    /// table for `gen::<f64>() * total` draws, from the same single RNG
    /// draw, for every shape: tiny, power-of-two and odd rank spaces,
    /// uniform to steep skews, and one past the bucket cap.
    #[test]
    fn zipf_sample_is_the_partition_point_inversion() {
        let capped = (1 << ZIPF_MAX_BUCKET_BITS) + 3_000;
        let shapes = [1, 2, 3, 32, 256, 4096, 5000, capped]
            .into_iter()
            .flat_map(|n| [0.0, 0.6, 0.99, 2.0].map(|theta| (n, theta)));
        for (n, theta) in shapes {
            let zipf = Zipf::new(n, theta);
            let buckets = zipf.lo.len() - 1;
            assert_eq!(buckets < 2 * n, n == capped, "n {n}: {buckets} buckets");
            let cdf: Vec<f64> = (0..n)
                .scan(0.0f64, |acc, k| {
                    *acc += ((k + 1) as f64).powf(-theta);
                    Some(*acc)
                })
                .collect();
            let total = cdf[n - 1];
            let (mut fast, mut reference) =
                (SmallRng::seed_from_u64(n as u64), SmallRng::seed_from_u64(n as u64));
            for draw in 0..EXACT_DRAWS {
                let u = reference.gen::<f64>() * total;
                let want = cdf.partition_point(|&c| c <= u).min(n - 1);
                assert_eq!(zipf.sample(&mut fast), want, "n {n} theta {theta} draw {draw}");
            }
            assert_eq!(fast.s, reference.s, "n {n} theta {theta}: one RNG draw per sample");
        }
    }

    /// The early accept changes no bounded draw: values, and the RNG state
    /// after them, equal those of computing the rejection threshold first.
    #[test]
    fn below_matches_the_threshold_loop() {
        let threshold_loop = |rng: &mut SmallRng, bound: u64| {
            let threshold = bound.wrapping_neg() % bound;
            loop {
                let wide = u128::from(rng.next_u64()) * u128::from(bound);
                if wide as u64 >= threshold {
                    return (wide >> 64) as u64;
                }
            }
        };
        for bound in [1, 2, 3, 100, 1 << 32, (1 << 63) + 1, u64::MAX] {
            let (mut fast, mut reference) =
                (SmallRng::seed_from_u64(bound), SmallRng::seed_from_u64(bound));
            for draw in 0..EXACT_DRAWS {
                assert_eq!(
                    fast.below(bound),
                    threshold_loop(&mut reference, bound),
                    "bound {bound} draw {draw}"
                );
            }
            assert_eq!(fast.s, reference.s, "bound {bound}: the same number of draws");
        }
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let mut rng = SmallRng::seed_from_u64(22);
        let zipf = Zipf::new(8, 0.0);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let mut rng = SmallRng::seed_from_u64(23);
        let zipf = Zipf::new(1000, 1.0);
        let mut counts = vec![0u32; 1000];
        for _ in 0..30_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Rank 0 must dominate rank 9 and dwarf the deep tail; under θ=1
        // the expected ratio of rank 0 to rank 9 is 10.
        assert!(counts[0] > 2 * counts[9], "{} vs {}", counts[0], counts[9]);
        let head: u32 = counts[..10].iter().sum();
        let tail: u32 = counts[500..].iter().sum();
        assert!(head > tail, "head {head} vs tail {tail}");
    }

    #[test]
    fn zipf_covers_full_range_and_is_deterministic() {
        let zipf = Zipf::new(5, 0.5);
        assert_eq!(zipf.n(), 5);
        let draw = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..64).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3), "same seed, same stream");
        for rank in 0..5 {
            assert!(a.contains(&rank), "rank {rank} never drawn: {a:?}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty rank space")]
    fn zipf_rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "Zipf rank space exceeds u32::MAX")]
    fn zipf_rejects_a_rank_space_past_u32() {
        let _ = Zipf::new(u32::MAX as usize + 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "theta must be finite and non-negative")]
    fn zipf_rejects_negative_theta() {
        let _ = Zipf::new(5, -1.0);
    }

    #[test]
    #[should_panic(expected = "theta must be finite and non-negative")]
    fn zipf_rejects_infinite_theta() {
        let _ = Zipf::new(5, f64::INFINITY);
    }

    #[test]
    fn gen_bool_is_fair() {
        let mut rng = SmallRng::seed_from_u64(13);
        let heads = (0..2000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((800..1200).contains(&heads), "{heads}");
    }
}
