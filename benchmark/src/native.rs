//! The untraced run of a native workload: every end-to-end number comes
//! from here, through the product's own entry point (`run_native`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gstm_serve::{run_native, NativeReport, ServeSpec};
use gstm_telemetry::JsonValue;

use crate::stats::{ratio, stalled_share, Quartiles};
use crate::workloads::{NativeWorkload, NANOS_PER_TICK, THREADS, US_PER_TICK};

/// What one slice (one `run_native` call) measured.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub p50_us: f64,
    pub p99_us: f64,
    /// Completions per second of serving time.
    pub req_per_s: f64,
    /// Wall time of the call outside the serving window: store build,
    /// schedule generation, thread spawn, and tear-down.
    pub setup_s: f64,
    pub offered: u64,
    pub done: u64,
    pub shed: u64,
}

/// Runs one slice. `Err` carries the panic message of a run whose own
/// verification (conservation, accounting, shadow-vs-store digest) failed.
pub fn run_slice(spec: &ServeSpec, seed: u64) -> Result<(Slice, NativeReport), String> {
    let started = Instant::now();
    let report =
        catch_unwind(AssertUnwindSafe(|| run_native(spec, THREADS, seed, NANOS_PER_TICK, 0)))
            .map_err(|panic| {
                panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "run_native panicked".into())
            })?;
    let wall_s = started.elapsed().as_secs_f64();
    let serving_s = (report.elapsed_ticks * NANOS_PER_TICK) as f64 / 1e9;
    let slice = Slice {
        p50_us: report.sojourn.p(0.50) * US_PER_TICK,
        p99_us: report.sojourn.p(0.99) * US_PER_TICK,
        req_per_s: ratio(report.done as f64, serving_s),
        setup_s: (wall_s - serving_s).max(0.0),
        offered: (spec.requests_per_thread * THREADS) as u64,
        done: report.done,
        shed: report.shed,
    };
    Ok((slice, report))
}

/// All slices of one phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseRun {
    pub slices: Vec<Slice>,
    /// Requests of slices whose run failed its own verification.
    pub unverified: u64,
    pub errors: Vec<String>,
}

impl PhaseRun {
    pub fn offered(&self) -> u64 {
        self.slices.iter().map(|s| s.offered).sum::<u64>() + self.unverified
    }

    pub fn done(&self) -> u64 {
        self.slices.iter().map(|s| s.done).sum()
    }

    pub fn shed(&self) -> u64 {
        self.slices.iter().map(|s| s.shed).sum()
    }

    pub fn quartiles(&self, f: impl Fn(&Slice) -> f64) -> Quartiles {
        Quartiles::of(&self.slices.iter().map(f).collect::<Vec<_>>())
    }

    /// The host-noise canary over this phase's slices.
    pub fn stalled_slice_share(&self) -> f64 {
        stalled_share(&self.slices.iter().map(|s| s.p99_us).collect::<Vec<_>>())
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("slices".into(), JsonValue::Num(self.slices.len() as f64)),
            ("offered".into(), JsonValue::Num(self.offered() as f64)),
            ("done".into(), JsonValue::Num(self.done() as f64)),
            ("shed".into(), JsonValue::Num(self.shed() as f64)),
            ("unverified".into(), JsonValue::Num(self.unverified as f64)),
            ("p50_us".into(), self.quartiles(|s| s.p50_us).to_json()),
            ("p99_us".into(), self.quartiles(|s| s.p99_us).to_json()),
            ("req_per_s".into(), self.quartiles(|s| s.req_per_s).to_json()),
            ("setup_s".into(), self.quartiles(|s| s.setup_s).to_json()),
        ])
    }
}

/// Seed offset that keeps the saturating slices' schedules apart from the
/// fixed-rate ones.
pub const SAT_SEEDS: u64 = 500;

/// Fixed-rate slices per round; each round ends with one saturating slice.
const FIXED_PER_ROUND: u64 = 4;

/// The two phases of an untraced run, with the first fixed-rate slice's
/// seed and full report for the output checks that need one.
pub struct Rounds {
    pub fixed: PhaseRun,
    pub sat: PhaseRun,
    pub first_fixed: Option<(u64, NativeReport)>,
}

/// Runs rounds of four fixed-rate slices and one saturating slice until
/// `seconds` have passed (at least one round). Interleaving the phases
/// lets both see the whole run: a slow spell of the host that lasts a few
/// seconds then touches a minority of each phase's slices instead of most
/// of one phase's. Slice `i` of a phase is seeded `seed * 1000 + i`
/// (`+ SAT_SEEDS` for the saturating phase).
pub fn run_rounds(workload: &NativeWorkload, seconds: f64, seed: u64) -> Rounds {
    let specs = [workload.slice_spec(&workload.fixed), workload.slice_spec(&workload.sat)];
    let mut out =
        Rounds { fixed: PhaseRun::default(), sat: PhaseRun::default(), first_fixed: None };
    let mut slice = |saturating: bool, i: u64| {
        let spec = &specs[saturating as usize];
        let slice_seed =
            seed.wrapping_mul(1000).wrapping_add(if saturating { SAT_SEEDS } else { 0 } + i);
        let run = if saturating { &mut out.sat } else { &mut out.fixed };
        match run_slice(spec, slice_seed) {
            Ok((slice, report)) => {
                run.slices.push(slice);
                if !saturating && i == 0 {
                    out.first_fixed = Some((slice_seed, report));
                }
            }
            Err(msg) => {
                run.unverified += (spec.requests_per_thread * THREADS) as u64;
                run.errors.push(format!("{} slice seed {slice_seed}: {msg}", workload.name));
            }
        }
    };
    let started = Instant::now();
    let mut round = 0u64;
    while round == 0 || started.elapsed().as_secs_f64() < seconds {
        for k in 0..FIXED_PER_ROUND {
            slice(false, round * FIXED_PER_ROUND + k);
        }
        slice(true, round);
        round += 1;
    }
    out
}
