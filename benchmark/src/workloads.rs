//! The five workloads. Names are stable: later issues cite them.
//!
//! Load shape of every native workload: one process, [`THREADS`] serve
//! threads, `yield_every = 0`, [`NANOS_PER_TICK`] ns per schedule tick,
//! open loop (each thread replays a pre-materialised Poisson schedule and a
//! request's sojourn is timed from its scheduled arrival). Each phase is cut
//! into short slices, one `run_native` call each.

use gstm_serve::{Arrival, BackendKind, ServeSpec};

/// Serve threads of every native workload (= the cores of the host the
/// rates below were chosen on).
pub const THREADS: usize = 2;

/// Wall nanoseconds per schedule tick.
pub const NANOS_PER_TICK: u64 = 10;

/// Microseconds per schedule tick. The simulated workload uses the same
/// mapping to express virtual time in the native workloads' units.
pub const US_PER_TICK: f64 = NANOS_PER_TICK as f64 / 1000.0;

/// One phase of a native workload: an offered rate held for a number of
/// slices.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Offered requests per second, all threads together.
    pub rate: f64,
    /// Backlog above which a thread sheds its oldest due request.
    pub max_queue_depth: usize,
    /// Length of one slice in seconds of schedule time.
    pub slice_seconds: f64,
}

/// A native serve workload: a store/traffic shape and its two phases.
#[derive(Clone, Debug)]
pub struct NativeWorkload {
    pub name: &'static str,
    /// The spec with `requests_per_thread`, arrival and queue depth still to
    /// be set per phase.
    pub shape: ServeSpec,
    /// The fixed rate (30–45 % of capacity when the rates were chosen):
    /// `p50_us`, `p99_us` and `ok_share_pct` are measured here.
    pub fixed: Phase,
    /// Offered 1.6–2× capacity: `sat_req_per_s` is measured here.
    pub sat: Phase,
}

impl NativeWorkload {
    /// The spec of one slice of `phase`.
    pub fn slice_spec(&self, phase: &Phase) -> ServeSpec {
        let per_thread = phase.rate / THREADS as f64;
        let mut spec = self.shape.clone();
        spec.requests_per_thread = (per_thread * phase.slice_seconds).round() as usize;
        spec.arrival = Arrival::Poisson { mean_gap: 1e9 / (per_thread * NANOS_PER_TICK as f64) };
        spec.max_queue_depth = phase.max_queue_depth;
        spec
    }
}

fn phases(fixed_rate: f64, sat_rate: f64) -> (Phase, Phase) {
    (
        // Deeper than a slice is long: the fixed rate never sheds, so a host
        // stall is charged to the sojourn of the requests queued behind it
        // instead of being counted as the program failing them.
        Phase { rate: fixed_rate, max_queue_depth: 1 << 20, slice_seconds: 0.1 },
        Phase { rate: sat_rate, max_queue_depth: 1024, slice_seconds: 0.25 },
    )
}

/// Name and one-line reason of every workload, in report order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "serve_hot",
        "32 keys in 4 buckets, theta 0.99, transfer-heavy: conflict-dominated, so core's abort/retry, lock and contention-manager paths do the work",
    ),
    (
        "serve_wide",
        "4096 keys in 256 buckets, theta 0.6, read-mostly with scans: almost no aborts, so core's read/validate fast path and collections' bucket clones do the work",
    ),
    (
        "serve_durable",
        "ledger transfers on the file-WAL backend (group commit, no fsync): serve::backend and wal do the work",
    ),
    (
        "serve_block",
        "the same ledger traffic and rates as serve_durable, ephemeral, ordered blocks of 64: block and serve::block_mode do the work, the interleaved loop none",
    ),
    (
        "sim_guided",
        "virtual time on 8 simulated cores: the paper's train/analyze/guide pipeline on kmeans and on hot serve traffic; the only workload where sim, model, guide and stamp do the work",
    ),
];

/// The native workload called `name`, if it is one.
pub fn native(name: &str) -> Option<NativeWorkload> {
    let (shape, (fixed, sat)) = match name {
        "serve_hot" => (ServeSpec::hot(0), phases(200e3, 1.0e6)),
        "serve_wide" => (ServeSpec::wide(0), phases(300e3, 1.5e6)),
        "serve_durable" => {
            (ServeSpec::ledger(0).with_backend(BackendKind::Durable), phases(100e3, 400e3))
        }
        "serve_block" => (ServeSpec::ledger(0).with_block_mode(64), phases(100e3, 400e3)),
        _ => return None,
    };
    let name = WORKLOADS.iter().find(|(n, _)| *n == name).expect("listed above").0;
    Some(NativeWorkload { name, shape, fixed, sat })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_specs_offer_the_stated_rate() {
        let w = native("serve_hot").unwrap();
        let spec = w.slice_spec(&w.fixed);
        // 200k req/s over 2 threads for 0.1 s, one request per 10 µs = 1000 ticks.
        assert_eq!(spec.requests_per_thread, 10_000);
        assert_eq!(spec.arrival.mean_gap(), 1000.0);
        assert!(spec.max_queue_depth > spec.requests_per_thread, "the fixed rate never sheds");
        let sat = w.slice_spec(&w.sat);
        assert_eq!(sat.requests_per_thread, 125_000);
        assert_eq!(sat.arrival.mean_gap(), 200.0);
    }

    #[test]
    fn durable_and_block_share_traffic() {
        let d = native("serve_durable").unwrap();
        let b = native("serve_block").unwrap();
        assert_eq!((d.fixed.rate, d.sat.rate), (b.fixed.rate, b.sat.rate));
        assert_eq!((d.shape.keys, d.shape.mix), (b.shape.keys, b.shape.mix));
        assert!(native("sim_guided").is_none());
    }
}
