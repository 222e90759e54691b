//! labyrinth — parallel maze routing with Lee's algorithm.
//!
//! Threads pull `(src, dst)` route requests off a shared worklist, compute
//! a shortest path over a **non-transactional snapshot** of the grid
//! (STAMP's labyrinth does the same: the expansion phase copies the grid
//! privately), then transactionally claim every cell of the path. If any
//! cell was taken in the meantime the claim aborts via user-retry and the
//! route is recomputed on a fresh snapshot — labyrinth's long transactions
//! with large write sets are what make it interesting for the paper.
//!
//! Transaction sites: `a` = pop request, `b` = claim path.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gstm_core::rng::SmallRng;

use gstm_collections::{TArray, TWorklist};
use gstm_core::{retry, TxId};
use gstm_guide::{WorkerEnv, Workload, WorkloadRun};

use crate::size::InputSize;

/// A cell holds 0 (free) or the id of the route occupying it.
type Cell = u32;

/// The labyrinth benchmark.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Labyrinth {
    /// Grid width.
    pub(crate) width: usize,
    /// Grid height.
    pub(crate) height: usize,
    /// Number of route requests.
    pub(crate) routes: usize,
}

impl Labyrinth {
    /// Size presets.
    pub(crate) fn with_size(size: InputSize) -> Self {
        Labyrinth { width: size.pick(24, 32), height: size.pick(24, 32), routes: size.pick(24, 48) }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Request {
    id: u32,
    src: (usize, usize),
    dst: (usize, usize),
}

struct LabyrinthRun {
    params: Labyrinth,
    grid: TArray<Cell>,
    work: TWorklist<Request>,
    routed: Arc<Vec<AtomicU64>>, // [routed count, failed count] per thread
    path_cells: Arc<AtomicU64>,
}

impl Workload for Labyrinth {
    fn name(&self) -> &'static str {
        "labyrinth"
    }

    fn instantiate(&self, threads: usize, seed: u64) -> Box<dyn WorkloadRun> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6c61_6279);
        let requests: Vec<Request> = (0..self.routes as u32)
            .map(|id| Request {
                id: id + 1,
                src: (rng.gen_range(0..self.width), rng.gen_range(0..self.height)),
                dst: (rng.gen_range(0..self.width), rng.gen_range(0..self.height)),
            })
            .collect();
        Box::new(LabyrinthRun {
            params: *self,
            grid: TArray::new(self.width * self.height, |_| 0),
            work: TWorklist::seeded(threads.max(1), requests),
            routed: Arc::new((0..threads * 2).map(|_| AtomicU64::new(0)).collect()),
            path_cells: Arc::new(AtomicU64::new(0)),
        })
    }
}

/// Breadth-first shortest path over a grid snapshot; cells occupied by other
/// routes are obstacles. Returns the path (src..=dst) if one exists.
fn bfs_path(
    snapshot: &[Cell],
    width: usize,
    height: usize,
    src: (usize, usize),
    dst: (usize, usize),
) -> Option<Vec<usize>> {
    let idx = |x: usize, y: usize| y * width + x;
    if snapshot[idx(src.0, src.1)] != 0 || snapshot[idx(dst.0, dst.1)] != 0 {
        return None;
    }
    let mut prev: Vec<i32> = vec![-2; snapshot.len()];
    let mut q = VecDeque::new();
    prev[idx(src.0, src.1)] = -1;
    q.push_back(src);
    while let Some((x, y)) = q.pop_front() {
        if (x, y) == dst {
            let mut path = vec![idx(x, y)];
            let mut cur = idx(x, y);
            while prev[cur] >= 0 {
                cur = prev[cur] as usize;
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        let neighbors = [(x.wrapping_sub(1), y), (x + 1, y), (x, y.wrapping_sub(1)), (x, y + 1)];
        for (nx, ny) in neighbors {
            if nx < width && ny < height {
                let i = idx(nx, ny);
                if prev[i] == -2 && snapshot[i] == 0 {
                    prev[i] = idx(x, y) as i32;
                    q.push_back((nx, ny));
                }
            }
        }
    }
    None
}

impl WorkloadRun for LabyrinthRun {
    fn worker(&self, env: WorkerEnv) -> Box<dyn FnOnce() + Send> {
        let params = self.params;
        let grid = self.grid.clone();
        let work = self.work.clone();
        let routed = Arc::clone(&self.routed);
        let path_cells = Arc::clone(&self.path_cells);
        let me = env.thread.index();
        Box::new(move || loop {
            // Site a: pull the next request (stealing when our shard dries).
            let req = env.stm.run(env.thread, TxId::new(0), |tx| {
                tx.work(1);
                work.pop(tx, me)
            });
            let Some(req) = req else { break };

            // Route with recompute-on-conflict, bounded to keep pathological
            // seeds from spinning forever.
            let mut attempts = 0;
            let claimed = loop {
                attempts += 1;
                if attempts > 16 {
                    break false;
                }
                let snapshot = grid.snapshot_unlogged();
                let Some(path) = bfs_path(&snapshot, params.width, params.height, req.src, req.dst)
                else {
                    break false;
                };
                // Site b: claim every cell of the computed path in a single
                // attempt. A stale cell aborts with a user-retry (matching
                // STAMP, where the stale read fails validation), and the
                // route is recomputed over a fresh snapshot.
                let ok = env.stm.try_run_once(env.thread, TxId::new(1), |tx| {
                    tx.work(path.len() as u64); // expansion cost proxy
                    for &cell in &path {
                        let cur = grid.read(tx, cell)?;
                        if cur != 0 && cur != req.id {
                            return Err(retry());
                        }
                    }
                    for &cell in &path {
                        grid.write(tx, cell, req.id)?;
                    }
                    Ok(())
                });
                if ok.is_ok() {
                    path_cells.fetch_add(path.len() as u64, Ordering::Relaxed);
                    break true;
                }
            };
            let slot = if claimed { me * 2 } else { me * 2 + 1 };
            routed[slot].fetch_add(1, Ordering::Relaxed);
        })
    }

    fn verify(&self) -> Result<(), String> {
        if self.work.len_unlogged() != 0 {
            return Err("request worklist not drained".into());
        }
        let snapshot = self.grid.snapshot_unlogged();
        let occupied = snapshot.iter().filter(|&&c| c != 0).count() as u64;
        let claimed = self.path_cells.load(Ordering::Relaxed);
        if occupied != claimed {
            return Err(format!(
                "grid has {occupied} occupied cells but routes claimed {claimed} \
                 (overlapping paths?)"
            ));
        }
        let done: u64 = self.routed.iter().map(|a| a.load(Ordering::Relaxed)).sum();
        if done != self.params.routes as u64 {
            return Err(format!("{done} requests resolved, expected {}", self.params.routes));
        }
        Ok(())
    }

    fn stats(&self) -> Vec<(String, f64)> {
        let routed: u64 =
            (0..self.routed.len() / 2).map(|i| self.routed[i * 2].load(Ordering::Relaxed)).sum();
        vec![("routed".into(), routed as f64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_guide::{run_workload, RunOptions};

    #[test]
    fn bfs_finds_straight_line() {
        let snap = vec![0u32; 16];
        let path = bfs_path(&snap, 4, 4, (0, 0), (3, 0)).unwrap();
        assert_eq!(path.len(), 4);
        assert_eq!(path[0], 0);
        assert_eq!(path[3], 3);
    }

    #[test]
    fn bfs_routes_around_obstacles() {
        // A vertical wall with a gap at the bottom.
        let mut snap = vec![0u32; 16];
        snap[1] = 9; // (1,0)
        snap[5] = 9; // (1,1)
        snap[9] = 9; // (1,2)
        let path = bfs_path(&snap, 4, 4, (0, 0), (2, 0)).unwrap();
        assert!(path.len() > 3, "must detour: {path:?}");
        assert!(!path.contains(&1));
    }

    #[test]
    fn bfs_none_when_walled_off() {
        let mut snap = vec![0u32; 16];
        for y in 0..4 {
            snap[y * 4 + 1] = 9;
        }
        assert_eq!(bfs_path(&snap, 4, 4, (0, 0), (3, 3)), None);
    }

    #[test]
    fn small_run_verifies_disjoint_paths() {
        let w = Labyrinth { width: 12, height: 12, routes: 10 };
        let out = run_workload(&w, &RunOptions::new(4, 6));
        assert!(out.total_commits() > 0);
    }
}
