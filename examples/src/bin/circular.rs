//! The full Figure 1 story: circular assumption/guarantee reasoning
//! works for safety and rightly fails for liveness.
//!
//! Run with `cargo run -p opentla-examples --bin circular`.

use opentla::{
    chaos_environment, check_ag_safety, closed_product, compose, CompositionOptions,
    CompositionProblem,
};
use opentla_check::{check_liveness, explore, ExploreOptions, LiveTarget};
use opentla_kernel::{Expr, Substitution};
use opentla_scenarios::Fig1;

fn main() {
    let w = Fig1::new();

    println!("=== Figure 1, safety instance (M⁰: \"output stays 0\") ===\n");

    // The processes realize their assumption/guarantee specifications:
    // Π_c guarantees M⁰_c at least one step longer than its (chaotic!)
    // environment respects M⁰_d.
    let chaos_d = chaos_environment("chaos_d", w.vars(), &[w.d()]);
    let sys = closed_product(w.vars(), &[&w.pi_c(), &chaos_d]).expect("closed");
    let graph = explore(&sys, &ExploreOptions::default()).expect("explored");
    let verdict = check_ag_safety(
        &sys,
        &graph,
        &w.m0_d().safety_formula(),
        &w.m0_c().safety_formula(),
    )
    .expect("checkable");
    println!(
        "Π_c ⊨ (M⁰_d ⊳ M⁰_c) against a hostile environment: {}",
        if verdict.holds() {
            "REALIZED"
        } else {
            "FAILED"
        }
    );

    // The Composition Theorem closes the circle.
    let ag_c = w.ag_c().expect("valid");
    let ag_d = w.ag_d().expect("valid");
    let target = w.safety_target().expect("valid");
    let problem = CompositionProblem {
        vars: w.vars(),
        components: vec![&ag_c, &ag_d],
        target: &target,
        mapping: Substitution::default(),
    };
    let cert = compose(&problem, &CompositionOptions::default()).expect("well-posed");
    println!("\n{}", cert.display(w.vars()));

    println!("=== Figure 1, liveness instance (M¹: \"output eventually 1\") ===\n");

    // The composition of Π_c and Π_d does NOT satisfy ◇(c = 1): the
    // checker exhibits the behavior where both processes copy zeros
    // forever.
    let sys = closed_product(w.vars(), &[&w.pi_c(), &w.pi_d()]).expect("closed");
    let graph = explore(&sys, &ExploreOptions::default()).expect("explored");
    let verdict = check_liveness(
        &sys,
        &graph,
        &LiveTarget::Eventually(Expr::var(w.c()).eq(Expr::int(1))),
    )
    .expect("checkable");
    match verdict.counterexample() {
        Some(cx) => {
            println!("◇(c = 1) fails for Π_c ∥ Π_d, as the paper predicts:");
            println!("{}", cx.display(w.vars()));
        }
        None => unreachable!("the paper's counterexample must be found"),
    }

    // And the calculus refuses the circular *liveness* argument at the
    // door: an assumption with a fairness condition is not a safety
    // property.
    println!(
        "Packaging M¹_d as an assumption is rejected: {}",
        opentla::AgSpec::new(
            {
                use opentla_check::{GuardedAction, Init};
                use opentla_kernel::Value;
                opentla::ComponentSpec::builder("M1_d")
                    .outputs([w.d()])
                    .init(Init::new([(w.d(), Value::Int(0))]))
                    .action(GuardedAction::new(
                        "raise",
                        Expr::var(w.d()).eq(Expr::int(0)),
                        vec![(w.d(), Expr::int(1))],
                    ))
                    .weak_fairness([0])
                    .build()
                    .expect("well-formed")
            },
            w.m0_c(),
        )
        .expect_err("must be rejected")
    );
}
