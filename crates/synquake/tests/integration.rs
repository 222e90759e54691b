//! SynQuake integration: training-to-testing transfer and mode checks.

use std::sync::Arc;

use gstm_guide::{run_workload, PolicyChoice, RunOptions};
use gstm_model::{parse_states, GuidedModel, TsaBuilder};
use gstm_synquake::{stat, Quest, SynQuake};

#[test]
fn model_trained_on_training_quests_guides_test_quests() {
    let threads = 4;
    let mut builder = TsaBuilder::new();
    for quest in Quest::training() {
        let w = SynQuake { players: 80, frames: 5, quest };
        for seed in 1..=3 {
            let out = run_workload(&w, &RunOptions::new(threads, seed).capturing());
            builder.add_run(&parse_states(&out.events.expect("captured")));
        }
    }
    let model = Arc::new(GuidedModel::compile(builder.build(), 4.0));

    for quest in Quest::testing() {
        let w = SynQuake { players: 80, frames: 5, quest };
        let out = run_workload(
            &w,
            &RunOptions::new(threads, 77)
                .with_policy(PolicyChoice::Guided { model: Arc::clone(&model), k: 16 }),
        );
        assert!(out.total_commits() > 0, "{quest}: guided run must make progress");
        assert!(stat(&out, "frame_mean").unwrap() > 0.0);
    }
}

#[test]
fn abort_readers_mode_is_actually_used() {
    // SynQuake requests the LibTM configuration; doomed-by-committer aborts
    // only exist with visible readers, so seeing them proves the mode is
    // wired through the harness.
    let w = SynQuake { players: 200, frames: 12, quest: Quest::WorstCase4 };
    let doomed = (1..=5).any(|seed| {
        let out = run_workload(&w, &RunOptions::new(8, seed).capturing());
        let events = out.events.expect("captured");
        events.iter().any(|e| match e {
            gstm_core::TxEvent::Abort { abort, .. } => {
                matches!(abort.reason, gstm_core::AbortReason::DoomedByCommitter { .. })
            }
            _ => false,
        })
    });
    assert!(doomed, "abort-readers resolution must doom at least one reader");
}

#[test]
fn frame_count_scales_run_length() {
    let short = SynQuake { players: 40, frames: 3, quest: Quest::Quadrants4 };
    let long = SynQuake { players: 40, frames: 9, quest: Quest::Quadrants4 };
    let a = run_workload(&short, &RunOptions::new(2, 1)).makespan;
    let b = run_workload(&long, &RunOptions::new(2, 1)).makespan;
    assert!(b > a * 2, "3x frames must be at least 2x longer: {a} vs {b}");
}

#[test]
fn scores_only_move_via_frags() {
    let w = SynQuake { players: 60, frames: 6, quest: Quest::WorstCase4 };
    let out = run_workload(&w, &RunOptions::new(4, 2));
    let frags = stat(&out, "frags").unwrap();
    assert!(frags >= 0.0);
}
