//! The Thread State Automaton (TSA) — Algorithm 1 of the paper.

use std::collections::HashMap;

use gstm_core::Participant;

use crate::tts::{StateId, StateSpace, Tts};

/// Default value of the paper's `Tfactor` knob (§VI: "a Tfactor value of 4
/// strikes a balance"; the artifact notes some machines need 6).
pub const DEFAULT_TFACTOR: f64 = 4.0;

/// A probabilistic finite-state automaton over thread transactional states.
///
/// Nodes are interned [`Tts`] tuples; an edge `s → d` with frequency `f`
/// records that the profiled execution moved from state `s` to state `d`
/// `f` times. Edge probabilities are frequencies normalized per source
/// state (§II-B, "Transition Probability").
///
/// Build one with [`TsaBuilder`], typically from several profiling runs
/// (the paper trains on 20 runs of the medium input).
#[derive(Clone, Debug, Default)]
pub struct Tsa {
    space: StateSpace,
    /// Outbound adjacency: `from → (to → count)`, flattened sorted by `to`
    /// for determinism.
    edges: HashMap<u32, Vec<(StateId, u64)>>,
}

impl Tsa {
    /// The interned state space.
    pub fn space(&self) -> &StateSpace {
        &self.space
    }

    /// Number of states in the model (the paper's Table III).
    pub fn state_count(&self) -> usize {
        self.space.len()
    }

    /// Total number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(Vec::len).sum()
    }

    /// Outbound edges of `from` as `(destination, frequency)` pairs, sorted
    /// by destination id. Empty if the state has no recorded successors.
    pub fn out_edges(&self, from: StateId) -> &[(StateId, u64)] {
        self.edges.get(&from.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Probability of the transition `from → to` (0 if absent).
    pub fn probability(&self, from: StateId, to: StateId) -> f64 {
        let es = self.out_edges(from);
        let total: u64 = es.iter().map(|(_, c)| c).sum();
        if total == 0 {
            return 0.0;
        }
        es.iter().find(|(d, _)| *d == to).map(|(_, c)| *c as f64 / total as f64).unwrap_or(0.0)
    }

    /// The **destination set** `D` of a state (§V/§VI): all successors whose
    /// transition probability is at least `P_max / tfactor`, where `P_max`
    /// is the state's highest outbound probability.
    ///
    /// # Panics
    ///
    /// Panics if `tfactor < 1.0` (that would make the threshold exceed the
    /// maximum, holding everything back).
    pub fn destinations(&self, from: StateId, tfactor: f64) -> Vec<StateId> {
        assert!(tfactor >= 1.0, "tfactor must be >= 1");
        let es = self.out_edges(from);
        let max = es.iter().map(|(_, c)| *c).max().unwrap_or(0);
        if max == 0 {
            return Vec::new();
        }
        // count >= max/tfactor  ⇔  probability >= P_max/tfactor (the
        // normalizing total cancels).
        let threshold = max as f64 / tfactor;
        es.iter().filter(|(_, c)| *c as f64 >= threshold).map(|(d, _)| *d).collect()
    }

    /// Looks up a runtime-observed tuple in the model.
    pub fn lookup(&self, tts: &Tts) -> Option<StateId> {
        self.space.lookup(tts)
    }
}

/// Incremental builder: feed it one or more profiled state sequences
/// (Algorithm 1's `Tseq` parse), then [`TsaBuilder::build`].
#[derive(Clone, Debug, Default)]
pub struct TsaBuilder {
    space: StateSpace,
    counts: HashMap<(u32, u32), u64>,
}

impl TsaBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one profiling run's state sequence; consecutive states form
    /// transition edges. Runs are independent: no edge is created between
    /// the last state of one run and the first of the next.
    pub fn add_run(&mut self, states: &[Tts]) -> &mut Self {
        let ids: Vec<StateId> = states.iter().map(|s| self.space.intern(s)).collect();
        for w in ids.windows(2) {
            *self.counts.entry((w[0].0, w[1].0)).or_insert(0) += 1;
        }
        self
    }

    /// Records the transition `from → to` with an explicit frequency, as
    /// if `count` two-state runs had been added. Both states are interned
    /// even when `count` is zero (a zero-count call declares the states
    /// without creating an edge); counts saturate instead of wrapping, so
    /// hostile persisted counts cannot overflow.
    ///
    /// This is model decode's bulk path ([`crate::serialize`]): restoring
    /// an edge of frequency `f` costs O(1), not O(f).
    pub fn add_transition(&mut self, from: &Tts, to: &Tts, count: u64) -> &mut Self {
        let f = self.space.intern(from);
        let t = self.space.intern(to);
        if count > 0 {
            let slot = self.counts.entry((f.0, t.0)).or_insert(0);
            *slot = slot.saturating_add(count);
        }
        self
    }

    /// Number of states interned so far.
    pub fn state_count(&self) -> usize {
        self.space.len()
    }

    /// Finalizes the automaton.
    pub fn build(self) -> Tsa {
        let mut edges: HashMap<u32, Vec<(StateId, u64)>> = HashMap::new();
        for ((from, to), count) in self.counts {
            edges.entry(from).or_default().push((StateId(to), count));
        }
        for list in edges.values_mut() {
            list.sort_unstable_by_key(|(d, _)| *d);
        }
        Tsa { space: self.space, edges }
    }
}

/// The runtime-ready model of §VI: for every state, the **set of
/// participants allowed to begin** — the union of all tuples of all
/// high-probability destination states. "The model is further cut down to
/// exclude low-probability states and stored in an efficient bitwise
/// structure with a hash map ... to look up the destination states."
///
/// Participants are packed as `thread << 16 | tx` into sorted vectors
/// (binary-searched), so an admission check is one hash lookup plus one
/// binary search.
///
/// States observed fewer than [`DEFAULT_MIN_SUPPORT`] times during training
/// are **pruned**: their transition statistics are noise, and restricting
/// admission on noise serializes the whole system (we measured intruder
/// slowing down 2.2× before pruning). A pruned state admits everyone.
#[derive(Clone, Debug)]
pub struct GuidedModel {
    tsa: Tsa,
    /// state id → sorted packed participants allowed from that state.
    /// Low-support states are absent (pruned → admit all).
    allowed: HashMap<u32, Vec<u32>>,
    tfactor: f64,
}

/// Minimum outbound observations for a state to constrain admission
/// (see [`GuidedModel::compile`]).
pub const DEFAULT_MIN_SUPPORT: u64 = 8;

fn pack(p: Participant) -> u32 {
    ((p.thread.raw() as u32) << 16) | p.tx.raw() as u32
}

impl GuidedModel {
    /// Compiles a TSA into its runtime form with the given `Tfactor`:
    /// states with fewer than [`DEFAULT_MIN_SUPPORT`] total outbound
    /// observations are cut from the runtime model (§VI) and admit every
    /// participant.
    pub fn compile(tsa: Tsa, tfactor: f64) -> Self {
        let mut allowed: HashMap<u32, Vec<u32>> = HashMap::new();
        for (id, _) in tsa.space.iter() {
            let total: u64 = tsa.out_edges(id).iter().map(|(_, c)| c).sum();
            if total < DEFAULT_MIN_SUPPORT {
                continue;
            }
            let mut set: Vec<u32> = tsa
                .destinations(id, tfactor)
                .into_iter()
                .flat_map(|d| tsa.space.state(d).participants().map(pack).collect::<Vec<_>>())
                .collect();
            set.sort_unstable();
            set.dedup();
            allowed.insert(id.0, set);
        }
        GuidedModel { tsa, allowed, tfactor }
    }

    /// The `Tfactor` this model was compiled with.
    pub fn tfactor(&self) -> f64 {
        self.tfactor
    }

    /// Whether `who` may begin a transaction from `current` (§V): true iff
    /// `who` is part of any tuple of any high-probability destination of
    /// `current`. States with no recorded successors allow everyone
    /// (no bias exists to apply).
    pub fn admits(&self, current: StateId, who: Participant) -> bool {
        match self.allowed.get(&current.0) {
            Some(set) if !set.is_empty() => set.binary_search(&pack(who)).is_ok(),
            _ => true,
        }
    }

    /// Looks up a runtime tuple in the model's state space.
    pub fn lookup(&self, tts: &Tts) -> Option<StateId> {
        self.tsa.lookup(tts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{ThreadId, TxId};

    fn p(t: u16, x: u16) -> Participant {
        Participant::new(ThreadId::new(t), TxId::new(x))
    }

    fn solo(t: u16) -> Tts {
        Tts::solo(p(t, 0))
    }

    #[test]
    fn builder_counts_transitions() {
        let mut b = TsaBuilder::new();
        b.add_run(&[solo(0), solo(1), solo(0), solo(1)]);
        let tsa = b.build();
        assert_eq!(tsa.state_count(), 2);
        let s0 = tsa.lookup(&solo(0)).unwrap();
        let s1 = tsa.lookup(&solo(1)).unwrap();
        assert_eq!(tsa.out_edges(s0), &[(s1, 2)]);
        assert_eq!(tsa.out_edges(s1), &[(s0, 1)]);
    }

    #[test]
    fn add_transition_matches_replayed_runs() {
        let mut by_runs = TsaBuilder::new();
        for _ in 0..7 {
            by_runs.add_run(&[solo(0), solo(1)]);
        }
        by_runs.add_run(&[solo(2)]);
        let mut by_counts = TsaBuilder::new();
        by_counts.add_transition(&solo(0), &solo(1), 7);
        by_counts.add_transition(&solo(2), &solo(2), 0); // states only
        let (a, b) = (by_runs.build(), by_counts.build());
        assert_eq!(a.state_count(), b.state_count());
        assert_eq!(a.edge_count(), b.edge_count());
        let s0 = b.lookup(&solo(0)).unwrap();
        let s1 = b.lookup(&solo(1)).unwrap();
        assert_eq!(b.out_edges(s0), &[(s1, 7)]);
        assert!(b.lookup(&solo(2)).is_some(), "zero-count call still interns");
    }

    #[test]
    fn add_transition_saturates_instead_of_wrapping() {
        let mut b = TsaBuilder::new();
        b.add_transition(&solo(0), &solo(1), u64::MAX);
        b.add_transition(&solo(0), &solo(1), u64::MAX);
        let tsa = b.build();
        let s0 = tsa.lookup(&solo(0)).unwrap();
        assert_eq!(tsa.out_edges(s0)[0].1, u64::MAX);
    }

    #[test]
    fn runs_do_not_bridge() {
        let mut b = TsaBuilder::new();
        b.add_run(&[solo(0)]);
        b.add_run(&[solo(1)]);
        let tsa = b.build();
        assert_eq!(tsa.edge_count(), 0);
    }

    #[test]
    fn probabilities_normalize() {
        let mut b = TsaBuilder::new();
        b.add_run(&[solo(0), solo(1), solo(0), solo(2), solo(0), solo(1)]);
        let tsa = b.build();
        let s0 = tsa.lookup(&solo(0)).unwrap();
        let s1 = tsa.lookup(&solo(1)).unwrap();
        let s2 = tsa.lookup(&solo(2)).unwrap();
        assert!((tsa.probability(s0, s1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((tsa.probability(s0, s2) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(tsa.probability(s2, s2), 0.0);
    }

    #[test]
    fn destinations_respect_tfactor() {
        let mut b = TsaBuilder::new();
        // From s0: 8× to s1, 2× to s2, 1× to s3.
        let mut run = Vec::new();
        for _ in 0..8 {
            run.extend([solo(0), solo(1)]);
        }
        for _ in 0..2 {
            run.extend([solo(0), solo(2)]);
        }
        run.extend([solo(0), solo(3)]);
        b.add_run(&run);
        let tsa = b.build();
        let s0 = tsa.lookup(&solo(0)).unwrap();
        let s1 = tsa.lookup(&solo(1)).unwrap();
        let s2 = tsa.lookup(&solo(2)).unwrap();
        let s3 = tsa.lookup(&solo(3)).unwrap();

        // tfactor 1: only the max edge survives.
        assert_eq!(tsa.destinations(s0, 1.0), vec![s1]);
        // tfactor 4: counts >= 8/4 = 2 → s1 and s2.
        let d4 = tsa.destinations(s0, 4.0);
        assert!(d4.contains(&s1) && d4.contains(&s2) && !d4.contains(&s3));
        // tfactor 10: everything survives.
        assert_eq!(tsa.destinations(s0, 10.0).len(), 3);
    }

    #[test]
    #[should_panic(expected = "tfactor")]
    fn tfactor_below_one_rejected() {
        let tsa = TsaBuilder::new().build();
        let _ = tsa.destinations(StateId(0), 0.5);
    }

    #[test]
    fn guided_model_admits_destination_participants_only() {
        let mut b = TsaBuilder::new();
        // s0 → {<a1>,<b2>} dominates; s0 → {<c3>} is rare.
        let hot = Tts::new(vec![p(1, 0)], p(2, 1));
        let rare = Tts::solo(p(3, 2));
        let mut run = Vec::new();
        for _ in 0..9 {
            run.extend([solo(0), hot.clone()]);
        }
        run.extend([solo(0), rare.clone()]);
        b.add_run(&run);
        let tsa = b.build();
        let s0 = tsa.lookup(&solo(0)).unwrap();
        let model = GuidedModel::compile(tsa, 4.0);

        assert!(model.admits(s0, p(1, 0)), "abortee of hot destination admitted");
        assert!(model.admits(s0, p(2, 1)), "committer of hot destination admitted");
        assert!(!model.admits(s0, p(3, 2)), "participant only in rare destination held");
        assert!(!model.admits(s0, p(9, 9)), "unknown participant held");
    }

    #[test]
    fn guided_model_admits_everyone_from_sink_states() {
        let mut b = TsaBuilder::new();
        b.add_run(&[solo(0), solo(1)]); // s1 has no successors
        let tsa = b.build();
        let s1 = tsa.lookup(&solo(1)).unwrap();
        let model = GuidedModel::compile(tsa, 4.0);
        assert!(model.admits(s1, p(42, 3)));
    }

    #[test]
    fn model_size_is_reported() {
        let mut b = TsaBuilder::new();
        // s0 → s1 observed DEFAULT_MIN_SUPPORT times: s0 is not pruned.
        b.add_transition(&solo(0), &solo(1), DEFAULT_MIN_SUPPORT);
        let model = GuidedModel::compile(b.build(), 4.0);
        assert!((model.tfactor() - 4.0).abs() < f64::EPSILON);
    }
}
