//! The paper's appendix, end to end: two handshake queues in series
//! implement a larger queue — as complete systems (Section A.4) and as
//! open systems via the Composition Theorem (Section A.5 / Figure 9).
//!
//! Run with `cargo run -p opentla-examples --bin queue_composition`.

use opentla::CompositionOptions;
use opentla_check::ExploreOptions;
use opentla_queue::{handshake_trace, DoubleQueue, FairnessStyle, QueueChain};

fn main() {
    // The refinement/composition engines below run under
    // `Budget::default()`, which routes through the process-wide
    // recorder: with OPENTLA_OBS set, the whole proof streams phase
    // timings, obligation checks, and run reports to that JSONL file.
    if let Ok(path) = std::env::var(opentla_check::obs::OBS_ENV) {
        println!("observability: streaming run events to {path}\n");
    }

    println!("=== Figure 2: the two-phase handshake protocol ===\n");
    println!("  step           ack sig val");
    for row in handshake_trace(&[37, 4, 19]) {
        println!(
            "  {:<14} {:>3} {:>3} {:>3}",
            row.label,
            row.ack,
            row.sig,
            row.val.map_or("–".to_string(), |v| v.to_string()),
        );
    }

    let n = 1;
    let values = 2;
    let w = DoubleQueue::new(n, values, FairnessStyle::Joint);

    println!("\n=== Section A.4: CDQ ⇒ CQ[dbl] (complete systems) ===\n");
    let report = w
        .prove_refinement(&ExploreOptions::default())
        .expect("checkable");
    println!(
        "safety simulation over {} states / {} transitions: {}",
        report.simulation.states,
        report.simulation.edges,
        if report.simulation.holds() {
            "PROVED"
        } else {
            "FAILED"
        }
    );
    for (label, verdict) in &report.liveness {
        println!(
            "liveness ({label}): {}",
            if verdict.holds() { "PROVED" } else { "FAILED" }
        );
    }

    println!("\n=== Section A.5 / Figure 9: the open-system composition ===\n");
    let cert = w
        .prove_composition(&CompositionOptions::default())
        .expect("well-posed");
    println!("{}", cert.display(w.vars()));
    assert!(cert.holds());

    println!("=== Extension: a chain of three open queues ===\n");
    let chain = QueueChain::new(3, 1, 2, FairnessStyle::Joint);
    let cert = chain
        .prove_composition(&CompositionOptions::default())
        .expect("well-posed");
    println!(
        "3 × (N=1) queues implement one {}-element queue: {}",
        chain.big_capacity(),
        if cert.holds() { "PROVED" } else { "FAILED" }
    );
    println!(
        "complete system: {} states, {} transitions, {} obligations",
        cert.product_states,
        cert.product_edges,
        cert.obligations.len()
    );
}
