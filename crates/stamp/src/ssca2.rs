//! ssca2 — scalable synthetic compact applications, kernel 1 (graph
//! construction).
//!
//! Threads partition a seeded edge list and insert edges into a shared
//! adjacency structure, one tiny transaction per edge. Writes scatter over
//! thousands of node cells, so conflicts are nearly nonexistent — this is
//! the benchmark whose model the paper's analyzer *rejects* (guidance
//! metric 72%/57%, "innately nearly zero aborts", Figure 8), and guiding it
//! anyway only adds overhead.
//!
//! Transaction site: `a` = edge insert.

use gstm_core::rng::SmallRng;

use gstm_collections::TArray;
use gstm_core::TxId;
use gstm_guide::{WorkerEnv, Workload, WorkloadRun};

use crate::size::InputSize;

/// The ssca2 benchmark.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ssca2 {
    /// Node count.
    pub(crate) nodes: usize,
    /// Edge count.
    pub(crate) edges: usize,
}

impl Ssca2 {
    /// Size presets.
    pub(crate) fn with_size(size: InputSize) -> Self {
        Ssca2 { nodes: size.pick(256, 1024), edges: size.pick(512, 2048) }
    }
}

struct Ssca2Run {
    params: Ssca2,
    edge_list: Vec<(u32, u32)>,
    adjacency: TArray<Vec<u32>>,
}

impl Workload for Ssca2 {
    fn name(&self) -> &'static str {
        "ssca2"
    }

    fn instantiate(&self, _threads: usize, seed: u64) -> Box<dyn WorkloadRun> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7373_6361);
        let edge_list: Vec<(u32, u32)> = (0..self.edges)
            .map(|_| (rng.gen_range(0..self.nodes as u32), rng.gen_range(0..self.nodes as u32)))
            .collect();
        Box::new(Ssca2Run {
            params: *self,
            edge_list,
            adjacency: TArray::new(self.nodes, |_| Vec::new()),
        })
    }
}

impl WorkloadRun for Ssca2Run {
    fn worker(&self, env: WorkerEnv) -> Box<dyn FnOnce() + Send> {
        let me = env.thread.index();
        let chunk = self.edge_list.len().div_ceil(env.threads);
        let mine: Vec<(u32, u32)> =
            self.edge_list.iter().skip(me * chunk).take(chunk).copied().collect();
        let adjacency = self.adjacency.clone();
        Box::new(move || {
            for (u, v) in mine {
                env.stm.run(env.thread, TxId::new(0), |tx| {
                    tx.work(1);
                    adjacency.update(tx, u as usize, |mut list| {
                        list.push(v);
                        list
                    })
                });
            }
        })
    }

    fn verify(&self) -> Result<(), String> {
        let total: usize = self.adjacency.snapshot_unlogged().iter().map(Vec::len).sum();
        if total != self.params.edges {
            return Err(format!("adjacency holds {total} edges, expected {}", self.params.edges));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_guide::{run_workload, RunOptions};

    #[test]
    fn all_edges_inserted() {
        let w = Ssca2 { nodes: 64, edges: 128 };
        let out = run_workload(&w, &RunOptions::new(4, 2));
        assert_eq!(out.total_commits(), 128);
    }

    #[test]
    fn abort_rate_is_tiny() {
        let w = Ssca2::with_size(InputSize::Small);
        let out = run_workload(&w, &RunOptions::new(8, 7));
        assert!(
            out.abort_ratio() < 0.05,
            "ssca2 must be nearly conflict-free, got ratio {}",
            out.abort_ratio()
        );
    }
}
