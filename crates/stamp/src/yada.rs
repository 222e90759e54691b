//! yada — Delaunay mesh refinement (Ruppert's algorithm), simplified.
//!
//! The transactional shape of STAMP's yada is what matters for the paper:
//! a work-list of *bad* elements; each refinement transaction pops an
//! element, reads its cavity (the element plus its neighbors), retires the
//! cavity, inserts freshly numbered replacement elements, and pushes any
//! new bad elements back on the list. Read/write sets are large and
//! variable, and the models grow huge (Table III: 27 120 states at 8
//! threads — second only to intruder).
//!
//! Our mesh is synthetic: elements carry a quality score and a neighbor
//! list; refinement replaces a bad element and its worst neighbor with
//! fresh elements whose quality improves by a seeded hash, guaranteeing
//! termination.
//!
//! Transaction sites: `a` = pop work, `b` = refine cavity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gstm_core::rng::SmallRng;

use gstm_collections::{THashMap, TWorklist};
use gstm_core::TxId;
use gstm_guide::{WorkerEnv, Workload, WorkloadRun};

use crate::size::InputSize;

/// Quality threshold: elements below this are *bad* and need refinement.
const GOOD: u32 = 60;

/// One mesh element.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Element {
    quality: u32,
    neighbors: Vec<u32>,
}

/// The yada benchmark.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Yada {
    /// Initial mesh size (elements).
    pub(crate) elements: usize,
    /// Fraction of initially bad elements, percent.
    pub(crate) bad_pct: u32,
}

impl Yada {
    /// Size presets.
    pub(crate) fn with_size(size: InputSize) -> Self {
        Yada { elements: size.pick(96, 256), bad_pct: 40 }
    }
}

struct YadaRun {
    mesh: THashMap<u32, Element>,
    work: TWorklist<u32>,
    /// Per-thread id allocator bases (no shared counter: STAMP also avoids
    /// a hot allocation point).
    next_id: Arc<Vec<AtomicU64>>,
    refined: Arc<AtomicU64>,
    initial_bad: usize,
}

/// Deterministic quality for a fresh element derived from its id: strictly
/// better than the threshold most of the time, so refinement converges.
fn fresh_quality(id: u32, round: u32) -> u32 {
    let h = (id as u64).wrapping_mul(0x9E37_79B9).wrapping_add(round as u64 * 31);
    // Mostly good; occasionally spawns further work (the cascade that makes
    // yada's transaction stream long-tailed).
    if h % 10 < 2 && round < 3 {
        GOOD - 1 - (h % 17) as u32
    } else {
        GOOD + (h % 40) as u32
    }
}

impl Workload for Yada {
    fn name(&self) -> &'static str {
        "yada"
    }

    fn instantiate(&self, threads: usize, seed: u64) -> Box<dyn WorkloadRun> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7961_6461);
        let n = self.elements as u32;
        let mesh = THashMap::new(128);
        let mut bad = Vec::new();
        // Build the initial mesh non-transactionally via a throwaway STM.
        let stm = gstm_core::Stm::new(gstm_core::StmConfig::new(1));
        for id in 0..n {
            let is_bad = rng.gen_range(0u32..100) < self.bad_pct;
            let quality = if is_bad { rng.gen_range(10..GOOD) } else { rng.gen_range(GOOD..140) };
            let neighbors = (0..3).map(|_| rng.gen_range(0..n)).filter(|&m| m != id).collect();
            let el = Element { quality, neighbors };
            if is_bad {
                bad.push(id);
            }
            let mesh_ref = &mesh;
            stm.run(gstm_core::ThreadId::new(0), TxId::new(9), move |tx| {
                mesh_ref.insert(tx, id, el.clone()).map(|_| ())
            });
        }
        let initial_bad = bad.len();
        Box::new(YadaRun {
            mesh,
            work: TWorklist::seeded(threads.max(1), bad),
            next_id: Arc::new(
                (0..threads).map(|t| AtomicU64::new(n as u64 + t as u64 * 1_000_000)).collect(),
            ),
            refined: Arc::new(AtomicU64::new(0)),
            initial_bad,
        })
    }
}

impl WorkloadRun for YadaRun {
    fn worker(&self, env: WorkerEnv) -> Box<dyn FnOnce() + Send> {
        let mesh = self.mesh.clone();
        let work = self.work.clone();
        let next_id = Arc::clone(&self.next_id);
        let refined = Arc::clone(&self.refined);
        let me = env.thread.index();
        Box::new(move || {
            let mut round = 0u32;
            loop {
                // Site a: take a bad element.
                let id = env.stm.run(env.thread, TxId::new(0), |tx| {
                    tx.work(1);
                    work.pop(tx, me)
                });
                let Some(id) = id else { break };
                round += 1;

                // Site b: refine the cavity around `id`.
                let spawned = env.stm.run(env.thread, TxId::new(1), |tx| {
                    let Some(el) = mesh.get(tx, &id)? else {
                        // Already retired by a neighboring refinement.
                        return Ok(Vec::new());
                    };
                    if el.quality >= GOOD {
                        return Ok(Vec::new());
                    }
                    // Read the cavity: the element and its live neighbors.
                    let mut cavity = vec![(id, el.clone())];
                    for &nb in &el.neighbors {
                        if let Some(nel) = mesh.get(tx, &nb)? {
                            cavity.push((nb, nel));
                        }
                    }
                    tx.work(cavity.len() as u64 * 4);
                    // Retire the worst neighbor along with the bad element.
                    cavity.sort_by_key(|(_, e)| e.quality);
                    let retire: Vec<u32> = cavity.iter().take(2).map(|(i, _)| *i).collect();
                    let survivors: Vec<u32> = cavity.iter().skip(2).map(|(i, _)| *i).collect();
                    for rid in &retire {
                        mesh.remove(tx, rid)?;
                    }
                    // Insert replacements wired to the survivors.
                    let mut new_bad = Vec::new();
                    let base = next_id[me].fetch_add(retire.len() as u64 + 1, Ordering::Relaxed);
                    for k in 0..=retire.len() {
                        let nid = (base + k as u64) as u32;
                        let q = fresh_quality(nid, round % 4);
                        mesh.insert(tx, nid, Element { quality: q, neighbors: survivors.clone() })?;
                        if q < GOOD {
                            new_bad.push(nid);
                        }
                    }
                    Ok(new_bad)
                });
                refined.fetch_add(1, Ordering::Relaxed);
                for nid in spawned {
                    env.stm.run(env.thread, TxId::new(2), |tx| work.push(tx, me, nid));
                }
            }
        })
    }

    fn verify(&self) -> Result<(), String> {
        if self.work.len_unlogged() != 0 {
            return Err("work list not drained".into());
        }
        if self.refined.load(Ordering::Relaxed) < self.initial_bad as u64 / 2 {
            return Err(format!(
                "only {} refinements for {} initial bad elements",
                self.refined.load(Ordering::Relaxed),
                self.initial_bad
            ));
        }
        // No duplicated ids: the map's internal invariant plus disjoint
        // per-thread id ranges guarantee it; spot-check the snapshot.
        let snap = self.mesh.snapshot_unlogged();
        let mut ids: Vec<u32> = snap.iter().map(|(k, _)| *k).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        if ids.len() != before {
            return Err("duplicate element ids in mesh".into());
        }
        Ok(())
    }

    fn stats(&self) -> Vec<(String, f64)> {
        vec![
            ("refined".into(), self.refined.load(Ordering::Relaxed) as f64),
            ("mesh_size".into(), self.mesh.len_unlogged() as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_guide::{run_workload, RunOptions};

    #[test]
    fn fresh_quality_mostly_good() {
        let good = (0..1000).filter(|&i| fresh_quality(i, 3) >= GOOD).count();
        assert!(good > 900, "round ≥ 3 must always produce good elements: {good}");
    }

    #[test]
    fn refinement_terminates_and_cleans_mesh() {
        let w = Yada { elements: 64, bad_pct: 50 };
        let out = run_workload(&w, &RunOptions::new(4, 8));
        assert!(out.total_commits() > 0);
        let refined =
            out.workload_stats.iter().find(|(k, _)| k == "refined").map(|(_, v)| *v).unwrap();
        assert!(refined >= 16.0);
    }

    #[test]
    fn cavity_conflicts_happen() {
        let w = Yada::with_size(InputSize::Small);
        let out = run_workload(&w, &RunOptions::new(8, 2));
        assert!(out.total_aborts() > 0, "overlapping cavities must conflict");
    }
}
