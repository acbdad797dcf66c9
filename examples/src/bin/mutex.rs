//! A mutual-exclusion arbiter specified assumption/guarantee style:
//! the WF-vs-SF distinction, machine-checked.
//!
//! Two clients and an arbiter are specified as open components; the
//! Composition Theorem assembles the closed-system guarantee. With a
//! weakly fair arbiter the service hypothesis fails — the checker
//! prints the starvation lasso — while a strongly fair arbiter
//! composes cleanly.
//!
//! Run with `cargo run -p opentla-examples --bin mutex`.

use opentla::CompositionOptions;
use opentla_check::{check_invariant, check_liveness, explore, ExploreOptions, LiveTarget};
use opentla_scenarios::{ArbiterFairness, Mutex};

fn main() {
    for fairness in [ArbiterFairness::Weak, ArbiterFairness::Strong] {
        println!("=== Arbiter with {:?} grant fairness ===\n", fairness);
        let w = Mutex::new(fairness);

        // The open-system composition.
        let cert = w.prove(&CompositionOptions::default()).expect("well-posed");
        println!("{}", cert.display(w.vars()));

        // Derived complete-system consequences.
        let sys = w.product().expect("closed");
        let graph = explore(&sys, &ExploreOptions::default()).expect("explored");
        let mutex_ok = check_invariant(&sys, &graph, &w.mutual_exclusion())
            .expect("checkable")
            .holds();
        println!("mutual exclusion invariant: {}", verdict(mutex_ok));
        let (p, q) = w.request_served(1);
        let served = check_liveness(&sys, &graph, &LiveTarget::LeadsTo(p, q)).expect("checkable");
        println!("service (r1 = 1 ↝ g1 = 1): {}", verdict(served.holds()));
        if let Some(cx) = served.counterexample() {
            println!("starvation witness:\n{}", cx.display(w.vars()));
        }
        println!();
    }
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "HOLDS"
    } else {
        "VIOLATED"
    }
}
