//! kmeans — iterative K-means clustering (STAMP's highest-variance app:
//! the paper's intro cites an 8-second execution-time swing).
//!
//! Points are generated from seeded Gaussian-ish clusters. Each iteration,
//! every thread assigns its partition of points to the nearest centroid and
//! transactionally folds the point into that cluster's accumulator — the
//! accumulators are the contended state, exactly like STAMP's
//! `TMUpdateCluster`. Thread 0 recomputes centroids between iterations
//! inside a barrier pair.
//!
//! Transaction sites: `a` = accumulator update, `b` = centroid recompute.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gstm_core::rng::SmallRng;

use gstm_collections::TArray;
use gstm_core::TxId;
use gstm_guide::{WorkerEnv, Workload, WorkloadRun};

use crate::size::InputSize;

/// Dimensionality of the synthetic points.
const DIMS: usize = 4;

/// Per-cluster accumulator: running sum and count of assigned points.
#[derive(Clone, Debug, Default, PartialEq)]
struct ClusterAcc {
    count: u64,
    sum: [f64; DIMS],
}

/// The kmeans benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Kmeans {
    /// Number of points.
    pub(crate) points: usize,
    /// Number of clusters (= contended accumulator cells).
    pub(crate) clusters: usize,
    /// Fixed iteration count.
    pub(crate) iterations: usize,
}

impl Kmeans {
    /// Size presets: STAMP's kmeans is high-contention with few clusters.
    pub fn with_size(size: InputSize) -> Self {
        Kmeans {
            points: size.pick(256, 1024),
            clusters: size.pick(6, 8),
            iterations: size.pick(3, 4),
        }
    }
}

struct KmeansRun {
    params: Kmeans,
    data: Vec<[f64; DIMS]>,
    centers: TArray<[f64; DIMS]>,
    acc: TArray<ClusterAcc>,
    assigned: Arc<Vec<AtomicU64>>,
}

fn generate_points(n: usize, clusters: usize, seed: u64) -> Vec<[f64; DIMS]> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6b6d_6561_6e73);
    (0..n)
        .map(|i| {
            let c = i % clusters;
            let mut p = [0.0; DIMS];
            for (d, slot) in p.iter_mut().enumerate() {
                let center = (c * (d + 3)) as f64;
                // Sum of uniforms ≈ Gaussian noise around the cluster center.
                let noise: f64 = (0..4).map(|_| rng.gen_range(-0.5..0.5)).sum();
                *slot = center + noise;
            }
            p
        })
        .collect()
}

impl Workload for Kmeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn instantiate(&self, threads: usize, seed: u64) -> Box<dyn WorkloadRun> {
        let data = generate_points(self.points, self.clusters, seed);
        let centers = TArray::new(self.clusters, |c| data[c % data.len()]);
        let acc = TArray::new(self.clusters, |_| ClusterAcc::default());
        Box::new(KmeansRun {
            params: *self,
            data,
            centers,
            acc,
            assigned: Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect()),
        })
    }
}

fn nearest(point: &[f64; DIMS], centers: &[[f64; DIMS]]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, center) in centers.iter().enumerate() {
        let d: f64 = point.iter().zip(center).map(|(a, b)| (a - b) * (a - b)).sum();
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

impl WorkloadRun for KmeansRun {
    fn worker(&self, env: WorkerEnv) -> Box<dyn FnOnce() + Send> {
        let params = self.params;
        let centers = self.centers.clone();
        let acc = self.acc.clone();
        let me = env.thread.index();
        let chunk = self.data.len().div_ceil(env.threads);
        let mine: Vec<[f64; DIMS]> =
            self.data.iter().skip(me * chunk).take(chunk).copied().collect();
        let assigned = Arc::clone(&self.assigned);
        Box::new(move || {
            for _iter in 0..params.iterations {
                // Phase 1: assign points; centroids are stable within the
                // phase (barrier-separated), so snapshot them unlogged like
                // STAMP reads the center array outside transactions.
                let snapshot = centers.snapshot_unlogged();
                for p in &mine {
                    let c = nearest(p, &snapshot);
                    env.stm.run(env.thread, TxId::new(0), |tx| {
                        tx.work(DIMS as u64 * 2); // distance arithmetic
                        acc.update(tx, c, |mut a| {
                            a.count += 1;
                            for (s, x) in a.sum.iter_mut().zip(p) {
                                *s += x;
                            }
                            a
                        })
                    });
                    assigned[me].fetch_add(1, Ordering::Relaxed);
                }
                env.barrier.wait(env.thread);
                // Phase 2: thread 0 folds accumulators into new centroids.
                if me == 0 {
                    env.stm.run(env.thread, TxId::new(1), |tx| {
                        for c in 0..params.clusters {
                            let a = acc.read(tx, c)?;
                            if a.count > 0 {
                                let mut center = [0.0; DIMS];
                                for (slot, s) in center.iter_mut().zip(&a.sum) {
                                    *slot = s / a.count as f64;
                                }
                                centers.write(tx, c, center)?;
                            }
                            acc.write(tx, c, ClusterAcc::default())?;
                        }
                        Ok(())
                    });
                }
                env.barrier.wait(env.thread);
            }
        })
    }

    fn verify(&self) -> Result<(), String> {
        let total: u64 = self.assigned.iter().map(|a| a.load(Ordering::Relaxed)).sum();
        let expected = (self.data.len() * self.params.iterations) as u64;
        if total != expected {
            return Err(format!("assigned {total} points, expected {expected}"));
        }
        for (i, c) in self.centers.snapshot_unlogged().into_iter().enumerate() {
            if c.iter().any(|x| !x.is_finite()) {
                return Err(format!("centroid {i} is not finite: {c:?}"));
            }
        }
        // All accumulators must have been reset by the final recompute.
        if self.acc.snapshot_unlogged().iter().any(|a| a.count != 0) {
            return Err("accumulators not reset after final iteration".into());
        }
        Ok(())
    }

    fn stats(&self) -> Vec<(String, f64)> {
        vec![("clusters".into(), self.params.clusters as f64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_guide::{run_workload, RunOptions};

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(generate_points(16, 4, 7), generate_points(16, 4, 7));
        assert_ne!(generate_points(16, 4, 7), generate_points(16, 4, 8));
    }

    #[test]
    fn nearest_picks_closest() {
        let centers = [[0.0; DIMS], [10.0; DIMS]];
        assert_eq!(nearest(&[1.0; DIMS], &centers), 0);
        assert_eq!(nearest(&[9.0; DIMS], &centers), 1);
    }

    #[test]
    fn small_run_verifies() {
        let k = Kmeans { points: 64, clusters: 4, iterations: 2 };
        let out = run_workload(&k, &RunOptions::new(4, 3));
        assert_eq!(out.total_commits() as usize, 64 * 2 + 2, "point txs + recompute txs");
    }

    #[test]
    fn contention_shows_up() {
        let k = Kmeans::with_size(InputSize::Small);
        let out = run_workload(&k, &RunOptions::new(4, 1));
        assert!(out.total_aborts() > 0, "kmeans accumulators must be contended");
    }

    #[test]
    fn presets_grow() {
        let s = Kmeans::with_size(InputSize::Small);
        let m = Kmeans::with_size(InputSize::Medium);
        assert!(m.points > s.points);
    }
}
