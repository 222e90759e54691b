//! intruder — network intrusion detection: fragment capture, flow
//! reassembly, and signature matching.
//!
//! Follows STAMP's pipeline: threads repeatedly (1) dequeue a packet
//! fragment from the shared capture queue, (2) insert it into the shared
//! reassembly map, extracting the flow when its last fragment lands, and
//! (3) scan completed flows locally, recording attack flows in a shared
//! set. The capture queue is the hot spot, as in the original.
//!
//! Transaction sites: `a` = dequeue, `b` = reassemble, `c` = record attack.

use gstm_core::rng::SmallRng;

use gstm_collections::{THashMap, TQueue, TSet};
use gstm_core::TxId;
use gstm_guide::{WorkerEnv, Workload, WorkloadRun};

use crate::size::InputSize;

/// One packet fragment.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Fragment {
    flow: u32,
    index: u8,
    total: u8,
    payload: Vec<u8>,
}

/// The attack byte pattern the detector scans for.
const SIGNATURE: &[u8] = b"ATTACK";

/// The intruder benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Intruder {
    /// Number of flows.
    pub flows: usize,
    /// Maximum fragments per flow (each flow draws 1..=max, so flow sizes —
    /// and hence per-thread work — vary, as in real traffic).
    pub frags_per_flow: usize,
    /// Fraction of flows carrying the attack signature, in percent.
    pub attack_pct: u32,
}

impl Intruder {
    /// Size presets.
    pub fn with_size(size: InputSize) -> Self {
        Intruder {
            flows: size.pick(48, 288, 768),
            frags_per_flow: size.pick(3, 4, 6),
            attack_pct: 10,
        }
    }
}

struct IntruderRun {
    params: Intruder,
    queue: TQueue<Fragment>,
    assembly: THashMap<u32, Vec<Option<Vec<u8>>>>,
    attacks: TSet<u32>,
    planted: Vec<u32>,
}

impl Workload for Intruder {
    fn name(&self) -> &'static str {
        "intruder"
    }

    fn instantiate(&self, _threads: usize, seed: u64) -> Box<dyn WorkloadRun> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x696e_7472);
        let mut fragments = Vec::new();
        let mut planted = Vec::new();
        for flow in 0..self.flows as u32 {
            let attack = rng.gen_range(0u32..100) < self.attack_pct;
            if attack {
                planted.push(flow);
            }
            // Variable-length flows: real traffic mixes short and long
            // connections, so reassembly and decode work differ per flow.
            let n_frags = rng.gen_range(1..=self.frags_per_flow.max(1));
            let mut payload: Vec<u8> =
                (0..n_frags * 8).map(|_| rng.gen_range(b'a'..=b'z')).collect();
            if attack && payload.len() > SIGNATURE.len() {
                let at = rng.gen_range(0..payload.len() - SIGNATURE.len());
                payload[at..at + SIGNATURE.len()].copy_from_slice(SIGNATURE);
            } else if attack {
                payload = SIGNATURE.to_vec();
            }
            for (i, chunk) in payload.chunks(8).enumerate() {
                fragments.push(Fragment {
                    flow,
                    index: i as u8,
                    total: payload.len().div_ceil(8) as u8,
                    payload: chunk.to_vec(),
                });
            }
        }
        rng.shuffle(&mut fragments);
        Box::new(IntruderRun {
            params: *self,
            queue: TQueue::seeded(fragments),
            assembly: THashMap::new(64),
            attacks: TSet::new(16),
            planted,
        })
    }
}

impl WorkloadRun for IntruderRun {
    fn worker(&self, env: WorkerEnv) -> Box<dyn FnOnce() + Send> {
        let queue = self.queue.clone();
        let assembly = self.assembly.clone();
        let attacks = self.attacks.clone();
        Box::new(move || loop {
            // Site a: capture.
            let frag = env.stm.run(env.thread, TxId::new(0), |tx| {
                tx.work(2);
                queue.dequeue(tx)
            });
            let Some(frag) = frag else { break };

            // Site b: reassembly; returns the full payload when complete.
            let total = frag.total as usize;
            let complete = env.stm.run(env.thread, TxId::new(1), |tx| {
                tx.work(3);
                let mut slots = assembly.get(tx, &frag.flow)?.unwrap_or_else(|| vec![None; total]);
                slots[frag.index as usize] = Some(frag.payload.clone());
                if slots.iter().all(Option::is_some) {
                    assembly.remove(tx, &frag.flow)?;
                    let payload: Vec<u8> =
                        slots.into_iter().flat_map(|s| s.expect("all present")).collect();
                    Ok(Some(payload))
                } else {
                    assembly.insert(tx, frag.flow, slots)?;
                    Ok(None)
                }
            });

            // Detector runs outside any transaction, but its (variable)
            // decode cost still occupies the thread: charge it through a
            // compute-only transactionless work step.
            if let Some(payload) = complete {
                env.stm.gate().pass(env.thread, payload.len() as u64);
                let is_attack = payload.windows(SIGNATURE.len()).any(|w| w == SIGNATURE);
                if is_attack {
                    // Site c: record the detection.
                    env.stm.run(env.thread, TxId::new(2), |tx| {
                        tx.work(1);
                        attacks.insert(tx, frag.flow)
                    });
                }
            }
        })
    }

    fn verify(&self) -> Result<(), String> {
        if self.queue.len_unlogged() != 0 {
            return Err("capture queue not drained".into());
        }
        if self.assembly.len_unlogged() != 0 {
            return Err("incomplete flows left in the reassembly map".into());
        }
        let mut detected = self.attacks.snapshot_unlogged();
        detected.sort_unstable();
        let mut expected = self.planted.clone();
        expected.sort_unstable();
        if detected != expected {
            return Err(format!("detected {} attacks, planted {}", detected.len(), expected.len()));
        }
        let _ = self.params;
        Ok(())
    }

    fn stats(&self) -> Vec<(String, f64)> {
        vec![("attacks".into(), self.planted.len() as f64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_guide::{run_workload, RunOptions};

    #[test]
    fn all_flows_reassemble_and_attacks_detected() {
        let w = Intruder { flows: 24, frags_per_flow: 3, attack_pct: 25 };
        let out = run_workload(&w, &RunOptions::new(4, 9));
        // At least one dequeue per fragment (flows are 1..=3 fragments).
        assert!(out.total_commits() as usize >= 24);
    }

    #[test]
    fn queue_contention_generates_aborts() {
        let w = Intruder::with_size(InputSize::Small);
        let out = run_workload(&w, &RunOptions::new(8, 4));
        assert!(out.total_aborts() > 0, "shared capture queue must be contended");
    }

    #[test]
    fn zero_attack_runs_clean() {
        let w = Intruder { flows: 10, frags_per_flow: 2, attack_pct: 0 };
        run_workload(&w, &RunOptions::new(2, 3));
    }
}
