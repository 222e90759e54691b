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
    #[should_panic(expected = "empty range")]
    fn empty_inclusive_range_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        let (lo, hi) = (5u32, 4);
        let _ = rng.gen_range(lo..=hi);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_float_range_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = rng.gen_range(1.0..1.0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn reversed_inclusive_float_range_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = rng.gen_range(2.0..=1.0);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn probability_above_one_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = rng.gen_bool(1.5);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn nan_probability_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = rng.gen_bool(f64::NAN);
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

    /// Draws per bound of the exactness property: 10⁶ under the optimized
    /// profile (CI runs it there), a tenth of that in debug builds.
    const EXACT_DRAWS: usize = if cfg!(debug_assertions) { 100_000 } else { 1_000_000 };

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
    fn gen_bool_is_fair() {
        let mut rng = SmallRng::seed_from_u64(13);
        let heads = (0..2000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((800..1200).contains(&heads), "{heads}");
    }
}
