//! A token ring of handshake channels: circular assumption/guarantee
//! reasoning at length `k`.
//!
//! Figure 1 of the paper shows a two-component circular dependency;
//! a ring makes the cycle as long as you like. Each node assumes its
//! predecessor drives the incoming channel correctly and guarantees
//! the same discipline downstream — the Composition Theorem discharges
//! the whole cycle at once.
//!
//! Run with `cargo run -p opentla-examples --bin token_ring`.

use opentla::CompositionOptions;
use opentla_check::{check_invariant, check_liveness, explore, ExploreOptions, LiveTarget};
use opentla_kernel::Expr;
use opentla_scenarios::TokenRing;

fn main() {
    for k in [2usize, 3, 4] {
        let w = TokenRing::new(k);
        println!("=== {k}-node ring ===");
        let cert = w
            .prove_mutex(&CompositionOptions::default())
            .expect("well-posed");
        println!(
            "mutual exclusion composed from {} circular assumptions: {}",
            k,
            if cert.holds() { "PROVED" } else { "FAILED" }
        );
        let sys = w.complete_system().expect("closed");
        let graph = explore(&sys, &ExploreOptions::default()).expect("explored");
        let conserved = check_invariant(&sys, &graph, &w.token_conservation())
            .expect("checkable")
            .holds();
        println!(
            "token conservation: {}",
            if conserved { "HOLDS" } else { "VIOLATED" }
        );
        for i in 0..k {
            let verdict = check_liveness(
                &sys,
                &graph,
                &LiveTarget::AlwaysEventually(Expr::var(w.crit(i)).eq(Expr::int(1))),
            )
            .expect("checkable");
            println!(
                "  node {i} critical infinitely often: {}",
                if verdict.holds() { "HOLDS" } else { "VIOLATED" }
            );
        }
        println!();
    }
}
