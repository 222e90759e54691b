//! Deeper tests of transaction-sequence grouping and model construction on
//! realistic event streams (generated by the actual engine on the sim).

use std::sync::Arc;

use gstm_core::cm::Aggressive;
use gstm_core::{AdmitAll, MemorySink, Stm, StmConfig, TVar, ThreadId, TxEvent, TxId};
use gstm_model::{analyze, parse_states, StateTracker, TsaBuilder, Tts};
use gstm_sim::{SimConfig, SimMachine};

/// Runs a contended workload and returns its event log.
fn contended_events(seed: u64, threads: usize) -> Vec<TxEvent> {
    let machine = SimMachine::new(SimConfig::new(threads, seed));
    let sink = Arc::new(MemorySink::new());
    let stm = Arc::new(Stm::with_parts(
        StmConfig::new(threads),
        machine.gate(),
        Arc::clone(&sink) as Arc<dyn gstm_core::EventSink>,
        Arc::new(AdmitAll),
        Arc::new(Aggressive),
    ));
    let hot: Vec<TVar<i64>> = (0..3).map(|_| TVar::new(0)).collect();
    let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..threads)
        .map(|i| {
            let stm = Arc::clone(&stm);
            let hot = hot.clone();
            Box::new(move || {
                for k in 0..40usize {
                    let v = &hot[k % hot.len()];
                    stm.run(ThreadId::new(i as u16), TxId::new((k % 2) as u16), |tx| {
                        let x = tx.read(v)?;
                        tx.work(12);
                        tx.write(v, x + 1)
                    });
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    machine.run(workers);
    sink.take()
}

#[test]
fn one_state_per_commit() {
    let events = contended_events(3, 4);
    let commits = events.iter().filter(|e| matches!(e, TxEvent::Commit { .. })).count();
    let states = parse_states(&events);
    assert_eq!(states.len(), commits);
    assert!(states.iter().any(|s| !s.aborted().is_empty()), "contended run must have abortees");
}

#[test]
fn online_tracker_matches_offline_arrival_states() {
    let events = contended_events(7, 4);
    let tracker = StateTracker::new();
    let online: Vec<Tts> = events.iter().filter_map(|e| tracker.close(e)).collect();
    let offline = parse_states(&events);
    assert!(offline.iter().any(|s| !s.aborted().is_empty()), "contended run must have abortees");
    assert_eq!(online.len(), offline.len());
    for (i, (on, off)) in online.iter().zip(&offline).enumerate() {
        assert_eq!(on, off, "tuple {i}: the tracker closed {on}, the parser built {off}");
    }
    let distinct: std::collections::HashSet<_> = offline.iter().collect();
    assert_eq!(tracker.nondeterminism(), distinct.len());
    assert_eq!(tracker.transition_count() as usize, offline.len());
}

#[test]
fn engine_produced_models_have_sane_structure() {
    let mut b = TsaBuilder::new();
    for seed in 1..=6 {
        b.add_run(&parse_states(&contended_events(seed, 4)));
    }
    let tsa = b.build();
    assert!(tsa.state_count() > 3);
    assert!(tsa.edge_count() >= tsa.state_count() - 6);
    // Every destination set is nonempty for states with successors.
    for (id, _) in tsa.space().iter() {
        if !tsa.out_edges(id).is_empty() {
            assert!(!tsa.destinations(id, 4.0).is_empty());
            // Probabilities sum to 1 over successors.
            let sum: f64 = tsa.out_edges(id).iter().map(|&(d, _)| tsa.probability(id, d)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "probabilities of {id} sum to {sum}");
        }
    }
    let analysis = analyze(&tsa, 4.0);
    assert!(analysis.abort_share > 0.0, "{analysis}");
}
