//! Seeded open-loop traffic generation.
//!
//! The generator is **open-loop**: every request has a scheduled arrival
//! tick drawn from an arrival process *before* the run starts, and arrivals
//! do not slow down when the service falls behind — exactly the regime
//! where queueing delay amplifies commit-latency variance into tail
//! latency. (A closed-loop driver, where each thread issues its next
//! request only after the previous one completes, self-clocks and hides
//! the very tails we want to measure.)
//!
//! Schedules are materialized up front as per-thread sorted vectors of
//! [`ScheduledRequest`]s, keyed only on `(seed, thread)` — so a schedule is
//! a pure function of the spec and seed, identical across SimGate and
//! RealGate runs and across policies. The worker loop then replays the
//! schedule against the clock; determinism of the *schedule* is what lets
//! `default` vs `guided` admission see byte-identical offered load.

use std::ops::Range;

use gstm_core::rng::{SmallRng, SplitMix64};

use crate::store::Request;

/// Within a burst, gaps shrink by this factor (the burst's "compression");
/// the between-burst gap is stretched so the long-run mean rate matches the
/// Poisson process with the same `mean_gap`.
const BURST_COMPRESSION: f64 = 8.0;

/// An open-loop arrival process. Gaps are in ticks; both variants have the
/// same long-run mean rate `1 / mean_gap`, so they isolate the effect of
/// burstiness at fixed offered load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// Memoryless arrivals: i.i.d. exponential gaps with the given mean.
    Poisson {
        /// Mean inter-arrival gap in ticks.
        mean_gap: f64,
    },
    /// Clustered arrivals: bursts of `burst` requests with compressed
    /// in-burst gaps (`mean_gap / 8`), separated by stretched idle gaps
    /// sized so the overall mean gap is still `mean_gap`.
    Bursty {
        /// Long-run mean inter-arrival gap in ticks.
        mean_gap: f64,
        /// Requests per burst (≥ 2).
        burst: u32,
    },
}

impl Arrival {
    /// Long-run mean inter-arrival gap in ticks.
    pub fn mean_gap(&self) -> f64 {
        match *self {
            Arrival::Poisson { mean_gap } | Arrival::Bursty { mean_gap, .. } => mean_gap,
        }
    }
}

/// Relative frequencies of the five request kinds, in the order
/// `[get, put, cas, transfer, scan]`. The kind-selection loop never draws
/// a zero-weight kind and consumes no extra randomness for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix(pub [u32; 5]);

impl Mix {
    /// A read-mostly service mix: 55% get, 20% put, 10% cas, 10% transfer,
    /// 5% scan.
    pub fn read_mostly() -> Self {
        Mix([55, 20, 10, 10, 5])
    }

    /// A transfer-heavy mix that maximizes write-write conflicts: 20% get,
    /// 10% put, 10% cas, 55% transfer, 5% scan.
    pub fn transfer_heavy() -> Self {
        Mix([20, 10, 10, 55, 5])
    }

    /// The ledger mix: 80% transfers over a Zipf-skewed account graph,
    /// 12% balance checks (`Get`) and 8% statement scans — every write
    /// moves balance between two accounts, so the conserved-total oracle
    /// covers essentially the whole write traffic. This is the canonical
    /// block-executor workload: dense write-write conflicts on the hot
    /// accounts, which ordered re-execution resolves without livelock.
    pub fn ledger() -> Self {
        Mix([12, 0, 0, 80, 8])
    }

    fn total(&self) -> u32 {
        self.0.iter().sum()
    }
}

/// A non-stationary traffic schedule: the generator divides each thread's
/// request stream into `phases` equal spans; phase `p` draws keys from a
/// Zipf whose exponent is linearly interpolated from the spec's
/// `zipf_theta` (phase 0) to `theta_end` (last phase), and the entire key
/// distribution is rotated by `p * hotspot_step` — the hot key set
/// *migrates* across the keyspace as the run progresses. This is the drift
/// a statically trained model cannot follow.
///
/// Drift is still a pure function of `(spec, seed, thread)`: schedules
/// remain deterministic and identical across policies — only stationarity
/// is lost, not reproducibility. `drift: None` leaves the generator's
/// sampling stream byte-identical to the stationary era (the determinism
/// goldens depend on this).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Drift {
    /// Zipf exponent at the final phase (start is the spec's `zipf_theta`).
    pub theta_end: f64,
    /// Number of equal-length phases (≥ 2).
    pub phases: u32,
    /// Keyspace rotation per phase: the hotspot migrates this many keys
    /// between consecutive phases.
    pub hotspot_step: u64,
}

/// One request with its scheduled arrival tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledRequest {
    /// Virtual arrival tick (monotone within a thread's schedule).
    pub at: u64,
    /// The request to execute.
    pub req: Request,
}

/// Parameters the generator needs, decoupled from the service spec.
#[derive(Clone, Copy, Debug)]
pub struct TrafficSpec {
    /// Keyspace size (Zipf rank space).
    pub keys: u64,
    /// Zipf skew θ (0 = uniform; ~0.99 = classic YCSB hot-key skew).
    pub zipf_theta: f64,
    /// Arrival process.
    pub arrival: Arrival,
    /// Requests per thread.
    pub requests_per_thread: usize,
    /// Request-kind mix.
    pub mix: Mix,
    /// `Scan` range length.
    pub scan_len: u64,
    /// Optional non-stationary schedule (time-varying Zipf exponent and
    /// migrating hotspot). `None` = stationary, bit-identical to the
    /// pre-drift generator.
    pub drift: Option<Drift>,
}

/// Generates the schedules of `threads`, in order: each a sorted, seeded,
/// pure function of `(spec, seed, thread)`. The samplers are built once
/// and shared by every thread's draw.
///
/// # Panics
///
/// Panics if the mix has zero total weight, a burst has fewer than two
/// requests, or a drift fewer than two phases.
pub fn generate_schedules(
    spec: &TrafficSpec,
    seed: u64,
    threads: Range<usize>,
) -> Vec<Vec<ScheduledRequest>> {
    let samplers = Samplers::new(spec);
    threads.map(|thread| samplers.draw(seed, thread)).collect()
}

/// One thread's schedule: [`generate_schedules`] of that thread alone.
///
/// # Panics
///
/// Panics as [`generate_schedules`] does.
pub fn generate_schedule(spec: &TrafficSpec, seed: u64, thread: usize) -> Vec<ScheduledRequest> {
    generate_schedules(spec, seed, thread..thread + 1).pop().expect("one thread, one schedule")
}

/// What every thread's draw of one spec shares.
struct Samplers<'a> {
    spec: &'a TrafficSpec,
    /// Key sampler and hotspot rotation of each drift phase; one phase,
    /// unrotated, without drift (the draws of an identity drift).
    phases: Vec<(Zipf, u64)>,
    /// In-burst gap.
    within: Exp,
    /// Gap before each burst's first request.
    between: Exp,
    /// Requests per burst. Poisson arrivals are bursts of one whose gap is
    /// the mean gap, so every gap is drawn from `between`.
    burst: u32,
}

impl<'a> Samplers<'a> {
    fn new(spec: &'a TrafficSpec) -> Self {
        assert!(spec.mix.total() > 0, "request mix needs at least one nonzero weight");
        let (within, between, burst) = match spec.arrival {
            Arrival::Poisson { mean_gap } => (Exp::new(mean_gap), Exp::new(mean_gap), 1),
            Arrival::Bursty { mean_gap, burst } => {
                assert!(burst >= 2, "a burst needs at least two requests");
                let within = mean_gap / BURST_COMPRESSION;
                // burst requests take 1 big gap + (burst-1) small gaps; solve the
                // big gap's mean so the average over the burst is mean_gap.
                let between = f64::from(burst) * mean_gap - (f64::from(burst) - 1.0) * within;
                (Exp::new(within), Exp::new(between), burst)
            }
        };
        let keys = spec.keys as usize;
        let phases = match spec.drift {
            Some(d) => {
                assert!(d.phases >= 2, "drift needs at least two phases");
                (0..d.phases)
                    .map(|p| {
                        let frac = f64::from(p) / f64::from(d.phases - 1);
                        let theta = spec.zipf_theta + (d.theta_end - spec.zipf_theta) * frac;
                        let rotate = u64::from(p).wrapping_mul(d.hotspot_step) % spec.keys;
                        (Zipf::new(keys, theta), rotate)
                    })
                    .collect()
            }
            None => vec![(Zipf::new(keys, spec.zipf_theta), 0)],
        };
        Samplers { spec, phases, within, between, burst }
    }

    /// One thread's schedule.
    fn draw(&self, seed: u64, thread: usize) -> Vec<ScheduledRequest> {
        // Decorrelate the per-thread streams: hash (seed, thread) through
        // SplitMix64 so thread 0 of seed 1 shares nothing with thread 1.
        let mut mixer = SplitMix64::new(seed ^ (thread as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = SmallRng::seed_from_u64(mixer.next_u64());
        let n = self.spec.requests_per_thread;
        let mut schedule = Vec::with_capacity(n);
        let mut clock = 0.0f64;
        // Requests left in the current burst.
        let mut left = 0;
        for (p, (zipf, rotate)) in self.phases.iter().enumerate() {
            // Request i belongs to phase ⌊i · phases / n⌋, so phase p ends
            // where the next starts, at ⌈(p + 1) · n / phases⌉.
            let end = ((p + 1) * n).div_ceil(self.phases.len());
            for _ in schedule.len()..end {
                let gap = if left == 0 {
                    left = self.burst;
                    &self.between
                } else {
                    &self.within
                };
                left -= 1;
                clock += gap.sample(&mut rng);
                schedule.push(ScheduledRequest {
                    at: clock as u64,
                    req: draw_request(self.spec, zipf, *rotate, &mut rng),
                });
            }
        }
        schedule
    }
}

/// Draws one request. `rotate` shifts every sampled key rank by a fixed
/// offset (mod the keyspace) — the drift hotspot migration; the stationary
/// path passes 0, which is the identity on in-range ranks.
fn draw_request(spec: &TrafficSpec, zipf: &Zipf, rotate: u64, rng: &mut SmallRng) -> Request {
    // A rank and a rotation are both below the keyspace size, so their sum
    // wraps with one subtraction.
    let rotated = |rank: usize| {
        let key = rank as u64 + rotate;
        if key >= spec.keys {
            key - spec.keys
        } else {
            key
        }
    };
    let key = rotated(zipf.sample(rng));
    let mut pick = rng.gen_range(0..spec.mix.total());
    for (kind, &w) in spec.mix.0.iter().enumerate() {
        if pick < w {
            return match kind {
                0 => Request::get(key),
                1 => Request::put(key, rng.gen_range(0..1u64 << 16)),
                2 => {
                    // Expect the initial blob: succeeds until someone wins
                    // the race, then degrades to a read-only check — both
                    // paths are realistic CAS traffic.
                    Request::cas(key, 0, rng.gen_range(1..1u64 << 16))
                }
                3 => {
                    let mut to = rotated(zipf.sample(rng));
                    if to == key {
                        to = (to + 1) % spec.keys;
                    }
                    Request::transfer(key, to, rng.gen_range(1..10i64))
                }
                _ => Request::scan(key, spec.scan_len),
            };
        }
        pick -= w;
    }
    unreachable!("pick < total by construction")
}

/// Exponential distribution with a given mean — the inter-arrival sampler
/// of a Poisson process: every request gap is drawn from one.
#[derive(Clone, Copy, Debug)]
struct Exp {
    mean: f64,
}

impl Exp {
    /// An exponential distribution with the given mean (`1/λ`).
    ///
    /// # Panics
    ///
    /// Panics unless `mean` is finite and positive.
    fn new(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be finite and positive");
        Exp { mean }
    }

    /// Draws one value by inversion: `-mean · ln(1 − u)`, `u ∈ [0, 1)`.
    /// Always finite and non-negative (`1 − u` never reaches 0).
    fn sample(&self, rng: &mut SmallRng) -> f64 {
        let u: f64 = rng.gen();
        -self.mean * (1.0 - u).ln()
    }
}

/// Zipf distribution over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `(k + 1)^−θ`. `θ = 0` is uniform; `θ ≈ 1` is the classic
/// web-object popularity curve (a few very hot keys, a long cold tail).
///
/// Sampling inverts the cumulative weight table exactly: a draw takes the
/// 53 bits `r` that `SmallRng::gen` turns into an `f64`, forms the same
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
#[derive(Clone, Debug)]
struct Zipf {
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
    fn new(n: usize, theta: f64) -> Self {
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

    /// Draws one rank in `0..n`.
    #[inline]
    fn sample(&self, rng: &mut SmallRng) -> usize {
        let r = rng.next_u64() >> 11;
        let u = unit(r) * self.total;
        let j = (r >> self.shift) as usize;
        // The first rank whose cumulative weight exceeds u lies in
        // lo[j]..=lo[j + 1] (clamped to the last rank, as lo is).
        let (first, last) = (self.lo[j] as usize, self.lo[j + 1] as usize);
        first + self.cdf[first..last].partition_point(|&c| c <= u)
    }
}

/// 53 random bits as a uniform `f64` in `[0, 1)`, as `SmallRng::gen`
/// makes them.
fn unit(bits: u64) -> f64 {
    bits as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(arrival: Arrival) -> TrafficSpec {
        TrafficSpec {
            keys: 64,
            zipf_theta: 0.9,
            arrival,
            requests_per_thread: 400,
            mix: Mix::read_mostly(),
            scan_len: 8,
            drift: None,
        }
    }

    #[test]
    fn schedules_are_sorted_and_deterministic() {
        let s = spec(Arrival::Poisson { mean_gap: 50.0 });
        let a = generate_schedule(&s, 7, 0);
        let b = generate_schedule(&s, 7, 0);
        assert_eq!(a, b, "same (seed, thread) ⇒ same schedule");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "arrivals are monotone");
        assert_ne!(a, generate_schedule(&s, 7, 1), "threads get distinct streams");
        assert_ne!(a, generate_schedule(&s, 8, 0), "seeds get distinct streams");
    }

    #[test]
    fn poisson_mean_gap_is_close() {
        let s = spec(Arrival::Poisson { mean_gap: 50.0 });
        let sched = generate_schedule(&s, 3, 0);
        let span = sched.last().unwrap().at as f64;
        let mean = span / sched.len() as f64;
        assert!((35.0..=65.0).contains(&mean), "mean gap {mean} far from 50");
    }

    #[test]
    fn bursty_matches_poisson_rate_but_clusters() {
        let mean_gap = 50.0;
        let s = spec(Arrival::Bursty { mean_gap, burst: 8 });
        let sched = generate_schedule(&s, 3, 0);
        let span = sched.last().unwrap().at as f64;
        let mean = span / sched.len() as f64;
        assert!((30.0..=70.0).contains(&mean), "long-run mean gap {mean} far from 50");
        // Clustering: the median gap is far below the mean gap.
        let mut gaps: Vec<u64> = sched.windows(2).map(|w| w[1].at - w[0].at).collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2] as f64;
        assert!(median < mean_gap / 2.0, "median gap {median} not compressed");
    }

    #[test]
    fn samplers_are_deterministic_across_reseeds() {
        // The samplers themselves (not just the schedule) must be pure
        // functions of the seed: re-seeding replays the exact stream, and a
        // different seed diverges. This is what makes a cached study cell
        // safe to replay on a different host.
        let zipf = Zipf::new(64, 0.9);
        let exp = Exp::new(50.0);
        let draw = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let ranks: Vec<usize> = (0..256).map(|_| zipf.sample(&mut rng)).collect();
            let gaps: Vec<u64> = (0..256).map(|_| exp.sample(&mut rng).to_bits()).collect();
            (ranks, gaps)
        };
        assert_eq!(draw(42), draw(42), "same seed ⇒ bit-identical sample stream");
        let (ranks_a, gaps_a) = draw(42);
        let (ranks_b, gaps_b) = draw(43);
        assert_ne!(ranks_a, ranks_b, "different seed ⇒ different zipf stream");
        assert_ne!(gaps_a, gaps_b, "different seed ⇒ different exp stream");
    }

    #[test]
    fn zipf_skew_concentrates_mass_on_hot_ranks() {
        let n = 64;
        let freq = |theta: f64, seed: u64| {
            let zipf = Zipf::new(n, theta);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut counts = vec![0usize; n];
            for _ in 0..20_000 {
                counts[zipf.sample(&mut rng)] += 1;
            }
            counts
        };
        // Skewed: rank 0 is the hottest key by a wide margin, and hotter
        // than the coldest rank. With θ=0.99 over 64 keys, rank 0 carries
        // ~21% of the mass vs ~0.35% for rank 63.
        let skewed = freq(0.99, 5);
        assert!(
            skewed[0] > 10 * skewed[n - 1],
            "rank 0 ({}) not ≫ rank {} ({})",
            skewed[0],
            n - 1,
            skewed[n - 1]
        );
        assert_eq!(skewed.iter().enumerate().max_by_key(|&(_, &c)| c).unwrap().0, 0);
        // θ=0 degenerates to uniform: no key is more than ~2× any other.
        let flat = freq(0.0, 5);
        let (min, max) = (flat.iter().min().unwrap(), flat.iter().max().unwrap());
        assert!(*max < 2 * *min, "uniform draw spread too wide: {min}..{max}");
    }

    #[test]
    fn exp_sampler_tracks_its_mean() {
        let exp = Exp::new(50.0);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut sum = 0.0;
        for _ in 0..20_000 {
            let x = exp.sample(&mut rng);
            assert!(x >= 0.0, "exponential gaps are non-negative, got {x}");
            sum += x;
        }
        let mean = sum / 20_000.0;
        assert!((47.0..=53.0).contains(&mean), "sample mean {mean} far from 50");
    }

    #[test]
    fn ledger_mix_is_transfer_dominated_and_golden_safe() {
        let mix = Mix::ledger();
        assert_eq!(mix.total(), 100);
        let s = TrafficSpec { mix, ..spec(Arrival::Poisson { mean_gap: 10.0 }) };
        let sched = generate_schedule(&s, 13, 0);
        let transfers = sched.iter().filter(|r| matches!(r.req, Request::Transfer { .. })).count();
        let frac = transfers as f64 / sched.len() as f64;
        assert!((0.7..=0.9).contains(&frac), "transfer fraction {frac} far from 0.80");
        for r in &sched {
            if let Request::Transfer { from, to, .. } = r.req {
                assert_ne!(from, to, "ledger transfers never self-loop");
            }
            assert!(!matches!(r.req, Request::Put { .. } | Request::Cas { .. }));
        }
    }

    fn primary_key(req: &Request) -> u64 {
        match *req {
            Request::Get { key }
            | Request::Put { key, .. }
            | Request::Cas { key, .. }
            | Request::Transfer { from: key, .. } => key,
            Request::Scan { start, .. } => start,
        }
    }

    #[test]
    fn identity_drift_is_byte_identical_to_stationary() {
        // A drift whose phases all share the base exponent and whose
        // hotspot never moves must reproduce the stationary stream exactly:
        // the Some-path consumes the same draws as the None-path. This is
        // the property that keeps `drift: None` golden-safe.
        let base = spec(Arrival::Poisson { mean_gap: 20.0 });
        let identity = TrafficSpec {
            drift: Some(Drift { theta_end: base.zipf_theta, phases: 4, hotspot_step: 0 }),
            ..base
        };
        for thread in 0..3 {
            assert_eq!(
                generate_schedule(&base, 21, thread),
                generate_schedule(&identity, 21, thread),
                "identity drift must not perturb the stream"
            );
        }
    }

    #[test]
    fn drift_schedules_are_deterministic_but_distinct_from_stationary() {
        let base = spec(Arrival::Poisson { mean_gap: 20.0 });
        let drifting = TrafficSpec {
            drift: Some(Drift { theta_end: 0.2, phases: 4, hotspot_step: 16 }),
            ..base
        };
        let a = generate_schedule(&drifting, 9, 0);
        assert_eq!(a, generate_schedule(&drifting, 9, 0), "drift stays a pure function of seed");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "arrivals stay monotone");
        assert_ne!(a, generate_schedule(&base, 9, 0), "real drift changes the stream");
        for r in &a {
            if let Request::Transfer { from, to, .. } = r.req {
                assert_ne!(from, to);
            }
            assert!(primary_key(&r.req) < drifting.keys, "rotation keeps keys in range");
        }
    }

    #[test]
    fn hotspot_migrates_across_phases() {
        // Pure-get traffic at heavy skew: the hottest key of each quarter
        // should track the per-phase rotation 0 → 16 → 32 → 48.
        let s = TrafficSpec {
            zipf_theta: 0.99,
            requests_per_thread: 8_000,
            mix: Mix([1, 0, 0, 0, 0]),
            drift: Some(Drift { theta_end: 0.99, phases: 4, hotspot_step: 16 }),
            ..spec(Arrival::Poisson { mean_gap: 5.0 })
        };
        let sched = generate_schedule(&s, 17, 0);
        let quarter = sched.len() / 4;
        for phase in 0..4usize {
            let mut counts = vec![0usize; s.keys as usize];
            for r in &sched[phase * quarter..(phase + 1) * quarter] {
                counts[primary_key(&r.req) as usize] += 1;
            }
            let hottest = counts.iter().enumerate().max_by_key(|&(_, &c)| c).unwrap().0;
            assert_eq!(hottest as u64, phase as u64 * 16, "phase {phase} hotspot misplaced");
        }
    }

    #[test]
    fn drift_interpolates_the_zipf_exponent() {
        // θ ramps 0.99 → 0.0: the first quarter is sharply concentrated on
        // its hottest key, the last quarter near-uniform.
        let s = TrafficSpec {
            zipf_theta: 0.99,
            requests_per_thread: 8_000,
            mix: Mix([1, 0, 0, 0, 0]),
            drift: Some(Drift { theta_end: 0.0, phases: 4, hotspot_step: 0 }),
            ..spec(Arrival::Poisson { mean_gap: 5.0 })
        };
        let sched = generate_schedule(&s, 23, 0);
        let quarter = sched.len() / 4;
        let top_share = |slice: &[ScheduledRequest]| {
            let mut counts = vec![0usize; s.keys as usize];
            for r in slice {
                counts[primary_key(&r.req) as usize] += 1;
            }
            *counts.iter().max().unwrap() as f64 / slice.len() as f64
        };
        let early = top_share(&sched[..quarter]);
        let late = top_share(&sched[3 * quarter..]);
        assert!(early > 0.15, "early skew too weak: top share {early}");
        assert!(late < 0.06, "late phase should be near-uniform: top share {late}");
        assert!(early > 3.0 * late, "skew must decay across phases ({early} vs {late})");
    }

    #[test]
    #[should_panic(expected = "request mix needs at least one nonzero weight")]
    fn a_zero_weight_mix_panics() {
        let s = TrafficSpec { mix: Mix([0; 5]), ..spec(Arrival::Poisson { mean_gap: 10.0 }) };
        generate_schedule(&s, 1, 0);
    }

    #[test]
    #[should_panic(expected = "a burst needs at least two requests")]
    fn a_one_request_burst_panics() {
        generate_schedule(&spec(Arrival::Bursty { mean_gap: 10.0, burst: 1 }), 1, 0);
    }

    #[test]
    #[should_panic(expected = "drift needs at least two phases")]
    fn a_one_phase_drift_panics() {
        let s = TrafficSpec {
            drift: Some(Drift { theta_end: 0.2, phases: 1, hotspot_step: 16 }),
            ..spec(Arrival::Poisson { mean_gap: 10.0 })
        };
        generate_schedule(&s, 1, 0);
    }

    #[test]
    fn mix_weights_shape_the_request_stream() {
        let s =
            TrafficSpec { mix: Mix::transfer_heavy(), ..spec(Arrival::Poisson { mean_gap: 10.0 }) };
        let sched = generate_schedule(&s, 11, 0);
        let transfers = sched.iter().filter(|r| matches!(r.req, Request::Transfer { .. })).count();
        let frac = transfers as f64 / sched.len() as f64;
        assert!((0.45..=0.65).contains(&frac), "transfer fraction {frac} far from 0.55");
        // Transfers never target themselves; all keys stay in range.
        for r in &sched {
            if let Request::Transfer { from, to, .. } = r.req {
                assert_ne!(from, to);
                assert!(from < s.keys && to < s.keys);
            }
        }
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
        assert_eq!(Exp::new(7.5).mean, 7.5);
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

    /// Draws per shape of the exactness property: 10⁶ under the optimized
    /// profile (CI runs it there), a tenth of that in debug builds.
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
            assert_eq!(
                fast.next_u64(),
                reference.next_u64(),
                "n {n} theta {theta}: one RNG draw per sample"
            );
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
        assert_eq!(zipf.cdf.len(), 5);
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
}
