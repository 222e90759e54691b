//! Seeded property loops over the model's data structures: TTS canonical
//! form, state interning, TSA serialization, destination sets and compiled
//! admission. 64 cases each; every assert names the failing seed.

use std::collections::HashSet;

use gstm_core::rng::SmallRng;
use gstm_core::{Participant, ThreadId, TxId};
use gstm_model::{serialize, GuidedModel, StateSpace, Tsa, TsaBuilder, Tts};

const CASES: u64 = 64;

fn participant(rng: &mut SmallRng) -> Participant {
    Participant::new(ThreadId::new(rng.gen_range(0u16..16)), TxId::new(rng.gen_range(0u16..8)))
}

fn participants(rng: &mut SmallRng, max: usize) -> Vec<Participant> {
    (0..rng.gen_range(0..max)).map(|_| participant(rng)).collect()
}

fn tts(rng: &mut SmallRng) -> Tts {
    Tts::new(participants(rng, 5), participant(rng))
}

/// An automaton built from 1–4 runs of 1–19 random states each.
fn tsa(rng: &mut SmallRng) -> Tsa {
    let mut b = TsaBuilder::new();
    for _ in 0..rng.gen_range(1..5) {
        let run: Vec<Tts> = (0..rng.gen_range(1..20)).map(|_| tts(rng)).collect();
        b.add_run(&run);
    }
    b.build()
}

/// TTS equality is order-insensitive in the aborted list, and `contains`
/// agrees with `participants`.
#[test]
fn tts_canonical_under_permutation() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut aborted = participants(&mut rng, 6);
        let committer = participant(&mut rng);
        let a = Tts::new(aborted.clone(), committer);
        aborted.reverse();
        assert_eq!(a, Tts::new(aborted, committer), "seed {seed}");
        for p in a.participants() {
            assert!(a.contains(p), "seed {seed}: {p}");
        }
    }
}

/// Interning is a bijection: same id ⇔ same state.
#[test]
fn interning_is_bijective() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let states: Vec<Tts> = (0..rng.gen_range(1..40)).map(|_| tts(&mut rng)).collect();
        let mut space = StateSpace::new();
        let ids: Vec<_> = states.iter().map(|s| space.intern(s.clone())).collect();
        for (s, id) in states.iter().zip(&ids) {
            assert_eq!(space.lookup(s), Some(*id), "seed {seed}");
            assert_eq!(space.state(*id), s, "seed {seed}");
        }
        let distinct: HashSet<_> = states.iter().collect();
        assert_eq!(space.len(), distinct.len(), "seed {seed}");
    }
}

/// Serialization round-trips arbitrary automatons, both formats.
#[test]
fn tsa_serialization_round_trips() {
    let edges = |t: &Tsa, id| {
        let mut out: Vec<(String, u64)> =
            t.out_edges(id).iter().map(|&(d, c)| (t.space().state(d).to_string(), c)).collect();
        out.sort();
        out
    };
    for seed in 0..CASES {
        let tsa = tsa(&mut SmallRng::seed_from_u64(seed));
        let b = serialize::from_bytes(&serialize::to_bytes(&tsa)).unwrap();
        assert_eq!(b.state_count(), tsa.state_count(), "seed {seed}");
        assert_eq!(b.edge_count(), tsa.edge_count(), "seed {seed}");
        let t = serialize::from_text(&serialize::to_text(&tsa)).unwrap();
        assert_eq!(t.state_count(), tsa.state_count(), "seed {seed}");
        for (id, s) in tsa.space().iter() {
            let tid = t.lookup(s).unwrap_or_else(|| panic!("seed {seed}: state {s} lost"));
            assert_eq!(edges(&tsa, id), edges(&t, tid), "seed {seed}: edges of {s}");
        }
    }
}

/// Destination sets are monotone in Tfactor and subsets of successors.
#[test]
fn destinations_are_monotone_in_tfactor() {
    for seed in 0..CASES {
        let tsa = tsa(&mut SmallRng::seed_from_u64(seed));
        for (id, _) in tsa.space().iter() {
            let succ: HashSet<_> = tsa.out_edges(id).iter().map(|(d, _)| *d).collect();
            let [d1, d4, d10] = [1.0, 4.0, 10.0]
                .map(|f| tsa.destinations(id, f).into_iter().collect::<HashSet<_>>());
            assert!(d1.is_subset(&d4) && d4.is_subset(&d10) && d10.is_subset(&succ), "seed {seed}");
            assert!(succ.is_empty() || !d1.is_empty(), "seed {seed}: the max edge always survives");
        }
    }
}

/// The compiled model admits exactly the participants of high-support
/// states' destination tuples.
#[test]
fn guided_model_admission_is_consistent() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tsa = tsa(&mut rng);
        let p = participant(&mut rng);
        let model = GuidedModel::compile_with(tsa.clone(), 4.0, 1);
        for (id, _) in tsa.space().iter() {
            let expected =
                tsa.destinations(id, 4.0).iter().any(|d| tsa.space().state(*d).contains(p));
            let no_out = tsa.out_edges(id).is_empty();
            assert_eq!(model.admits(id, p), expected || no_out, "seed {seed}: {p} at {id:?}");
        }
    }
}
