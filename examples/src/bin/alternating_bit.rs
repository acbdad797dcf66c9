//! The alternating-bit protocol composed from four open components.
//!
//! Run with `cargo run -p opentla-examples --bin alternating_bit`.

use opentla::CompositionOptions;
use opentla_check::{check_invariant, check_liveness, explore, ExploreOptions, LiveTarget};
use opentla_kernel::Expr;
use opentla_scenarios::AlternatingBit;

fn main() {
    let k = 3;
    let w = AlternatingBit::new(k);

    // Every engine below runs under `Budget::default()`, which routes
    // through the process-wide recorder: with OPENTLA_OBS set, the
    // whole demo streams run reports to that JSONL file.
    if let Ok(path) = std::env::var(opentla_check::obs::OBS_ENV) {
        println!("observability: streaming run events to {path}\n");
    }

    println!("=== Alternating-bit protocol, {k} messages ===\n");
    let cert = w.prove(&CompositionOptions::default()).expect("well-posed");
    println!("{}", cert.display(w.vars()));

    let sys = w.complete_system().expect("closed");
    let graph = explore(&sys, &ExploreOptions::default()).expect("explored");
    println!("complete system: {}", graph.stats());
    let in_order = check_invariant(&sys, &graph, &w.in_order_invariant())
        .expect("checkable")
        .holds();
    println!("in-order content invariant: {}", verdict(in_order));
    let done = Expr::var(w.recv()).eq(Expr::int(k));
    let delivered = check_liveness(&sys, &graph, &LiveTarget::Eventually(done))
        .expect("checkable")
        .holds();
    println!(
        "all {k} messages eventually delivered: {}",
        verdict(delivered)
    );
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "HOLDS"
    } else {
        "VIOLATED"
    }
}
