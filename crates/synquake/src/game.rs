//! The SynQuake server loop as a [`Workload`].
//!
//! Each frame, every worker thread processes its share of the 1000 players
//! — a movement transaction toward the player's quest hotspot, and on
//! alternating frames an attack transaction against a cohabitant of its
//! grid cell — then meets the others at the frame barrier ("multiple client
//! frames are handled by threads and executed within barriers", §VIII).
//! The recorded per-frame processing times are the series whose variance
//! Figures 11–12 report.
//!
//! Transaction sites: `a` = move, `b` = attack, `c` = item pickup.

use std::sync::Arc;

use gstm_core::rng::SmallRng;
use gstm_core::sync::Mutex;

use gstm_core::{StmConfig, TxId};
use gstm_guide::{WorkerEnv, Workload, WorkloadRun};
use gstm_stats::{mean, sample_stddev};

use crate::quest::{Quest, MAP_SIZE};
use crate::world::World;

/// Movement speed in map units per frame.
const SPEED: i32 = 24;

/// Damage per successful attack.
const DAMAGE: i32 = 34;

/// Health packs stocked per grid cell at match start.
const ITEMS_PER_CELL: u32 = 4;

/// The SynQuake benchmark.
#[derive(Clone, Copy, Debug)]
pub struct SynQuake {
    /// Player count (the paper runs 1000).
    pub players: usize,
    /// Frames to simulate (the paper trains on 1000 and tests on 10000;
    /// we scale down ~100× — see DESIGN.md §2).
    pub frames: u64,
    /// The active quest.
    pub quest: Quest,
}

impl SynQuake {
    /// A reduced configuration for unit tests.
    pub fn tiny(quest: Quest) -> Self {
        SynQuake { players: 64, frames: 6, quest }
    }
}

struct SynQuakeRun {
    params: SynQuake,
    world: World,
    frame_times: Arc<Mutex<Vec<u64>>>,
}

/// Deterministic per-(player, frame) jitter in `-8..=8`.
fn jitter(id: u16, frame: u64, axis: u64) -> i32 {
    let h = (id as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(frame.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(axis * 0x2545_F491_4F6C_DD1D);
    ((h >> 32) % 17) as i32 - 8
}

impl Workload for SynQuake {
    fn name(&self) -> &'static str {
        "synquake"
    }

    fn stm_config(&self, threads: usize) -> StmConfig {
        // LibTM in the paper's configuration: fully-optimistic detection
        // with abort-readers resolution.
        StmConfig::libtm(threads)
    }

    fn instantiate(&self, _threads: usize, seed: u64) -> Box<dyn WorkloadRun> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7379_6e71);
        // Players spawn scattered around their quest's hotspot, so the
        // frame-time series is quasi-stationary from the first frame — the
        // paper's 10000-frame runs measure steady-state gameplay, not the
        // initial convergence transient our shorter runs would otherwise be
        // dominated by.
        let spread = 160i32;
        let spawns: Vec<(i32, i32)> = (0..self.players)
            .map(|id| {
                let (hx, hy) = self.quest.hotspot(id % 4, 0);
                (
                    (hx + rng.gen_range(-spread..=spread)).clamp(0, MAP_SIZE - 1),
                    (hy + rng.gen_range(-spread..=spread)).clamp(0, MAP_SIZE - 1),
                )
            })
            .collect();
        Box::new(SynQuakeRun {
            params: *self,
            world: World::with_items(&spawns, ITEMS_PER_CELL),
            frame_times: Arc::new(Mutex::new(Vec::with_capacity(self.frames as usize))),
        })
    }
}

impl WorkloadRun for SynQuakeRun {
    fn worker(&self, env: WorkerEnv) -> Box<dyn FnOnce() + Send> {
        let params = self.params;
        let world = self.world.clone();
        let frame_times = Arc::clone(&self.frame_times);
        let me = env.thread.index();
        let per = params.players.div_ceil(env.threads);
        let my_players: Vec<u16> = (0..params.players as u16).skip(me * per).take(per).collect();
        Box::new(move || {
            let gate = Arc::clone(env.stm.gate());
            let mut frame_start = gate.thread_time(env.thread);
            for frame in 0..params.frames {
                for &id in &my_players {
                    // Site a: movement toward the quest hotspot.
                    let (tx_target_x, tx_target_y) = params.quest.hotspot(id as usize % 4, frame);
                    env.stm.run(env.thread, TxId::new(0), |tx| {
                        let p = world.read_player(tx, id)?;
                        let step = |from: i32, to: i32| from + (to - from).clamp(-SPEED, SPEED);
                        let nx = step(p.x, tx_target_x) + jitter(id, frame, 0);
                        let ny = step(p.y, tx_target_y) + jitter(id, frame, 1);
                        tx.work(3); // interest-area computation
                        world.move_player(tx, id, nx, ny)
                    });
                    // Site c: wounded players grab a health pack.
                    if frame % 3 == 2 {
                        env.stm.run(env.thread, TxId::new(2), |tx| {
                            let p = world.read_player(tx, id)?;
                            if p.health < 60 {
                                world.try_pickup(tx, id)?;
                            }
                            Ok(())
                        });
                    }
                    // Site b: attack a cohabitant on alternating frames.
                    if (frame + id as u64).is_multiple_of(2) {
                        env.stm.run(env.thread, TxId::new(1), |tx| {
                            let others = world.cohabitants(tx, id)?;
                            if let Some(&victim) =
                                others.get((id as usize + frame as usize) % others.len().max(1))
                            {
                                tx.work(4); // line-of-sight check
                                if world.damage(tx, victim, DAMAGE)? {
                                    world.credit(tx, id)?;
                                }
                            }
                            Ok(())
                        });
                    }
                }
                env.barrier.wait(env.thread);
                // Clocks are aligned at barrier release, so any thread sees
                // the frame's global processing time; thread 0 records it.
                if me == 0 {
                    let now = gate.thread_time(env.thread);
                    frame_times.lock().push(now - frame_start);
                    frame_start = now;
                } else {
                    frame_start = gate.thread_time(env.thread);
                }
            }
        })
    }

    fn verify(&self) -> Result<(), String> {
        self.world.check_consistency()?;
        let recorded = self.frame_times.lock().len() as u64;
        if recorded != self.params.frames {
            return Err(format!("recorded {recorded} frames, expected {}", self.params.frames));
        }
        Ok(())
    }

    fn stats(&self) -> Vec<(String, f64)> {
        let times: Vec<f64> = self.frame_times.lock().iter().map(|&t| t as f64).collect();
        vec![
            ("frame_mean".into(), mean(&times)),
            ("frame_stddev".into(), sample_stddev(&times)),
            ("frame_max".into(), times.iter().copied().fold(0.0, f64::max)),
            ("frags".into(), self.world.total_score_unlogged() as f64),
            ("items_left".into(), self.world.items_remaining_unlogged() as f64),
        ]
    }
}

/// Extracts a named stat from a harness outcome.
pub fn stat(outcome: &gstm_guide::RunOutcome, key: &str) -> Option<f64> {
    outcome.workload_stats.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_guide::{run_workload, RunOptions};

    #[test]
    fn tiny_match_runs_and_stays_consistent() {
        let w = SynQuake::tiny(Quest::WorstCase4);
        let out = run_workload(&w, &RunOptions::new(4, 3));
        assert!(out.total_commits() > 0);
        assert!(stat(&out, "frame_mean").is_some());
    }

    #[test]
    fn frame_times_are_recorded_per_frame() {
        let w = SynQuake { players: 32, frames: 5, quest: Quest::Quadrants4 };
        let out = run_workload(&w, &RunOptions::new(2, 1));
        let mean = stat(&out, "frame_mean").unwrap();
        assert!(mean > 0.0);
    }

    #[test]
    fn hotspot_quests_generate_real_contention() {
        // Every quest concentrates players enough that object-granularity
        // transactions conflict at a measurable rate (the property the
        // paper's LibTM evaluation depends on). The exact ordering between
        // quests is scale-sensitive, so we assert the floor, not a ranking.
        for quest in [Quest::WorstCase4, Quest::CenterSpread6] {
            let w = SynQuake { players: 160, frames: 10, quest };
            let ratio = run_workload(&w, &RunOptions::new(4, 5)).abort_ratio();
            assert!(ratio > 0.01, "{quest}: abort ratio {ratio} too low");
        }
    }

    #[test]
    fn jitter_is_bounded_and_varies() {
        let vals: Vec<i32> = (0..100).map(|f| jitter(3, f, 0)).collect();
        assert!(vals.iter().all(|v| (-8..=8).contains(v)));
        assert!(vals.iter().collect::<std::collections::HashSet<_>>().len() > 3);
    }
}
