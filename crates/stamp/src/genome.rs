//! genome — gene sequencing by segment deduplication and overlap linking.
//!
//! Follows STAMP's three phases: (1) insert the shuffled segment pool into a
//! transactional set to deduplicate; (2) publish each unique segment under
//! its (S−1)-base prefix in a transactional map; (3) link each segment to
//! the successor whose prefix equals this segment's suffix, rebuilding the
//! genome chain. Phases are barrier-separated like the original.
//!
//! Transaction sites: `a` = dedup insert, `b` = prefix publish, `c` = link.

use std::sync::Arc;

use gstm_core::rng::SmallRng;
use gstm_core::sync::Mutex;

use gstm_collections::{THashMap, TSet};
use gstm_core::TxId;
use gstm_guide::{WorkerEnv, Workload, WorkloadRun};

use crate::size::InputSize;

/// A segment is a window of the genome packed 2 bits per base into a u64
/// (so segment length is capped at 32 bases; we use 12).
type Segment = u64;

const SEG_LEN: usize = 12;
const BASE_BITS: u32 = 2;

/// The genome benchmark.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Genome {
    /// Genome length in bases.
    pub(crate) genome_len: usize,
    /// How many copies of each segment the sequencer receives (duplication
    /// factor of the segment pool).
    pub(crate) copies: usize,
}

impl Genome {
    /// Size presets.
    pub(crate) fn with_size(size: InputSize) -> Self {
        Genome { genome_len: size.pick(192, 512), copies: size.pick(3, 4) }
    }
}

fn pack_window(bases: &[u8]) -> Segment {
    bases.iter().fold(0u64, |acc, &b| (acc << BASE_BITS) | b as u64)
}

fn prefix_of(seg: Segment) -> u64 {
    seg >> BASE_BITS
}

fn suffix_of(seg: Segment) -> u64 {
    seg & ((1u64 << ((SEG_LEN - 1) as u32 * BASE_BITS)) - 1)
}

struct GenomeRun {
    pool: Vec<Segment>,
    uniques: usize,
    first: Segment,
    dedup: TSet<Segment>,
    by_prefix: THashMap<u64, Segment>,
    links: THashMap<Segment, Segment>,
    chain_len: Arc<Mutex<usize>>,
}

impl Workload for Genome {
    fn name(&self) -> &'static str {
        "genome"
    }

    fn instantiate(&self, _threads: usize, seed: u64) -> Box<dyn WorkloadRun> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x67656e6f);
        let bases: Vec<u8> = (0..self.genome_len).map(|_| rng.gen_range(0..4u8)).collect();
        // All sliding windows: consecutive windows overlap by SEG_LEN − 1
        // bases, which is exactly the suffix/prefix relation phase 3 links.
        let mut segments: Vec<Segment> = bases.windows(SEG_LEN).map(pack_window).collect();
        segments.dedup();
        let first = segments[0];
        let uniques: std::collections::HashSet<Segment> = segments.iter().copied().collect();
        let mut pool: Vec<Segment> = Vec::with_capacity(segments.len() * self.copies);
        for _ in 0..self.copies {
            pool.extend(&segments);
        }
        rng.shuffle(&mut pool);
        Box::new(GenomeRun {
            pool,
            uniques: uniques.len(),
            first,
            // Dense tables: STAMP's genome hashes segments into tightly
            // packed tables, so concurrent inserts collide regularly.
            dedup: TSet::new(16),
            by_prefix: THashMap::new(16),
            links: THashMap::new(64),
            chain_len: Arc::new(Mutex::new(0)),
        })
    }
}

impl WorkloadRun for GenomeRun {
    fn worker(&self, env: WorkerEnv) -> Box<dyn FnOnce() + Send> {
        let me = env.thread.index();
        let chunk = self.pool.len().div_ceil(env.threads);
        let mine: Vec<Segment> = self.pool.iter().skip(me * chunk).take(chunk).copied().collect();
        let dedup = self.dedup.clone();
        let by_prefix = self.by_prefix.clone();
        let links = self.links.clone();
        let first = self.first;
        let chain_len = Arc::clone(&self.chain_len);
        Box::new(move || {
            // Phase 1: deduplicate the segment pool.
            let mut fresh: Vec<Segment> = Vec::new();
            for seg in &mine {
                let new = env.stm.run(env.thread, TxId::new(0), |tx| {
                    tx.work(SEG_LEN as u64 / 2);
                    dedup.insert(tx, *seg)
                });
                if new {
                    fresh.push(*seg);
                }
            }
            env.barrier.wait(env.thread);
            // Phase 2: publish unique segments under their prefix.
            for seg in &fresh {
                env.stm.run(env.thread, TxId::new(1), |tx| {
                    tx.work(2);
                    by_prefix.insert(tx, prefix_of(*seg), *seg).map(|_| ())
                });
            }
            env.barrier.wait(env.thread);
            // Phase 3: link each of *my* unique segments to its successor
            // (the segment whose prefix equals my suffix).
            for seg in &fresh {
                env.stm.run(env.thread, TxId::new(2), |tx| {
                    tx.work(2);
                    if let Some(next) = by_prefix.get(tx, &suffix_of(*seg))? {
                        if next != *seg {
                            links.insert(tx, *seg, next)?;
                        }
                    }
                    Ok(())
                });
            }
            env.barrier.wait(env.thread);
            // Thread 0 walks the chain to rebuild the genome.
            if me == 0 {
                let link_map: std::collections::HashMap<Segment, Segment> =
                    links.snapshot_unlogged().into_iter().collect();
                let mut seen = std::collections::HashSet::new();
                let mut cur = first;
                let mut len = 1;
                seen.insert(cur);
                while let Some(&next) = link_map.get(&cur) {
                    if !seen.insert(next) {
                        break;
                    }
                    cur = next;
                    len += 1;
                }
                *chain_len.lock() = len;
            }
        })
    }

    fn verify(&self) -> Result<(), String> {
        let dedup_count = self.dedup.len_unlogged();
        if dedup_count != self.uniques {
            return Err(format!("dedup kept {dedup_count} segments, expected {}", self.uniques));
        }
        let chain = *self.chain_len.lock();
        // Every unique segment except possibly tail repeats must be reached.
        if chain * 2 < self.uniques {
            return Err(format!("reconstructed chain too short: {chain} of {}", self.uniques));
        }
        Ok(())
    }

    fn stats(&self) -> Vec<(String, f64)> {
        vec![
            ("uniques".into(), self.uniques as f64),
            ("chain".into(), *self.chain_len.lock() as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_guide::{run_workload, RunOptions};

    #[test]
    fn packing_is_injective_for_windows() {
        let a = pack_window(&[0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
        let b = pack_window(&[0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 0]);
        assert_ne!(a, b);
    }

    #[test]
    fn prefix_suffix_overlap_rule() {
        // suffix(x) == prefix(y) iff y continues x by one base.
        let x = pack_window(&[1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0]);
        let y = (suffix_of(x) << BASE_BITS) | 3;
        assert_eq!(prefix_of(y), suffix_of(x));
    }

    #[test]
    fn small_run_verifies() {
        let g = Genome { genome_len: 128, copies: 2 };
        let out = run_workload(&g, &RunOptions::new(4, 5));
        assert!(out.total_commits() > 0);
    }

    #[test]
    fn dedup_sees_contention() {
        let g = Genome::with_size(InputSize::Small);
        let out = run_workload(&g, &RunOptions::new(8, 2));
        assert!(out.total_aborts() > 0, "shared set inserts must conflict sometimes");
    }
}
