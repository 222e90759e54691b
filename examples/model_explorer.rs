//! Model explorer: profile a benchmark, inspect and persist its automaton.
//!
//! Run with: `cargo run --release --example model_explorer [benchmark]`
//!
//! Shows the offline half of the framework in isolation: the transaction
//! sequence, the thread-transactional-state tuples, the automaton's hottest
//! states, the analyzer verdict, and the serialized model round-tripping
//! through the compact binary format.

use gstm::model::serialize;
use gstm::prelude::*;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "vacation".to_string());
    let workload = benchmark(&name, InputSize::Small).unwrap_or_else(|| {
        eprintln!("unknown benchmark {name:?}; known: {:?}", gstm::stamp::BENCHMARK_NAMES);
        std::process::exit(2);
    });
    let threads = 4;

    println!("== profiling {name} (threads={threads}) ==");
    let out = run_workload(workload.as_ref(), &RunOptions::new(threads, 7).capturing());
    let events = out.events.expect("captured");
    println!("captured {} events; first ten:", events.len());
    for e in events.iter().take(10) {
        println!("  {e}");
    }

    let states = parse_states(&events);
    println!("\n== thread transactional states (first ten of {}) ==", states.len());
    for s in states.iter().take(10) {
        println!("  {s}");
    }

    let mut builder = TsaBuilder::new();
    builder.add_run(&states);
    let tsa = builder.build();
    println!("\n== automaton: {} states, {} edges ==", tsa.state_count(), tsa.edge_count());
    let mut by_heat: Vec<_> = tsa
        .space()
        .iter()
        .map(|(id, s)| (tsa.out_edges(id).iter().map(|(_, c)| *c).sum::<u64>(), id, s))
        .collect();
    by_heat.sort_by_key(|e| std::cmp::Reverse(e.0));
    for (heat, id, s) in by_heat.iter().take(5) {
        println!("  {id} {s} ({heat} outbound observations)");
        for d in tsa.destinations(*id, 4.0) {
            println!("    -> {} p={:.3}", tsa.space().state(d), tsa.probability(*id, d));
        }
    }

    println!("\n== analyzer ==");
    println!("{}", analyze(&tsa, 4.0));

    let bytes = serialize::to_bytes(&tsa);
    let back = serialize::from_bytes(&bytes).expect("round trip");
    println!(
        "\nserialized {} bytes; round-trip states={} edges={}",
        bytes.len(),
        back.state_count(),
        back.edge_count()
    );
}
