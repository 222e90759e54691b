//! SynQuake demo: a guided game server.
//!
//! Run with: `cargo run --release --example synquake_demo`
//!
//! Trains a model on the paper's two training quests, then serves the
//! `4quadrants` test quest with and without guidance, printing the frame-
//! time series statistics the paper's Figures 11–12 are built from.

use std::sync::Arc;

use gstm::prelude::*;
use gstm::synquake::stat;

fn main() {
    let threads = 8;
    let players = 300;
    let train_frames = 8;
    let test_frames = 20;
    let train_seeds: Vec<u64> = (1..=6).collect();
    let test_seeds: Vec<u64> = (50..=57).collect();

    println!("== training on {} and {} ==", Quest::training()[0], Quest::training()[1]);
    let mut builder = TsaBuilder::new();
    for quest in Quest::training() {
        let workload = SynQuake { players, frames: train_frames, quest };
        for &seed in &train_seeds {
            let out = run_workload(&workload, &RunOptions::new(threads, seed).capturing());
            builder.add_run(&parse_states(&out.events.expect("captured")));
        }
    }
    let tsa = builder.build();
    let analysis = analyze(&tsa, 4.0);
    println!("model: {analysis}");
    let model = Arc::new(GuidedModel::compile(tsa, 4.0));

    println!("\n== serving {} ==", Quest::Quadrants4);
    let workload = SynQuake { players, frames: test_frames, quest: Quest::Quadrants4 };
    let mut frame_sd = (Vec::new(), Vec::new());
    let mut abort_ratio = (Vec::new(), Vec::new());
    for &seed in &test_seeds {
        let d = run_workload(&workload, &RunOptions::new(threads, seed));
        let g = run_workload(
            &workload,
            &RunOptions::new(threads, seed).with_policy(PolicyChoice::guided(Arc::clone(&model))),
        );
        frame_sd.0.push(stat(&d, "frame_stddev").expect("stat"));
        frame_sd.1.push(stat(&g, "frame_stddev").expect("stat"));
        abort_ratio.0.push(d.abort_ratio());
        abort_ratio.1.push(g.abort_ratio());
    }
    let (fd, fg) = (mean(&frame_sd.0), mean(&frame_sd.1));
    let (ad, ag) = (mean(&abort_ratio.0), mean(&abort_ratio.1));
    println!("frame-time stddev: {fd:.1} -> {fg:.1} ticks ({:+.1}%)", percent_reduction(fd, fg));
    println!("abort ratio:       {ad:.3} -> {ag:.3} ({:+.1}%)", percent_reduction(ad, ag));
}
