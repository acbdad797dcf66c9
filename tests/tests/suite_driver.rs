//! Drives a full [`opentla::Suite`] over the paper's queue world —
//! the batch-verification workflow a downstream adopter would use.

use opentla::{CompositionOptions, Suite};
use opentla_check::{explore, ExploreOptions, LiveTarget};
use opentla_kernel::Expr;
use opentla_queue::{DoubleQueue, FairnessStyle, SingleQueue};

#[test]
fn queue_world_suite() {
    let mut suite = Suite::new("queue-world");

    // Single queue: invariants and liveness.
    let world = SingleQueue::new(2, 2, FairnessStyle::Joint);
    let sys = world.complete_system().unwrap();
    let graph = explore(&sys, &ExploreOptions::default()).unwrap();
    suite
        .invariant("capacity", &sys, &graph, &world.capacity_invariant())
        .unwrap();
    suite
        .invariant("discipline", &sys, &graph, &world.output_discipline())
        .unwrap();
    let (p, q) = world.input_served();
    suite
        .liveness("input served", &sys, &graph, &LiveTarget::LeadsTo(p, q))
        .unwrap();
    let o = world.output();
    suite
        .step_invariant(
            "deq emits head",
            &sys,
            &graph,
            &Expr::prime(o.sig)
                .ne(Expr::var(o.sig))
                .implies(Expr::prime(o.val).eq(Expr::var(world.q()).head())),
            &world.vars().iter().collect::<Vec<_>>(),
        )
        .unwrap();

    // Double queue: both headline theorems as certificates.
    let dbl = DoubleQueue::new(1, 2, FairnessStyle::Joint);
    let cert = dbl
        .prove_composition(&CompositionOptions::default())
        .unwrap();
    suite.certificate("figure 9 composition", &cert);
    let report = dbl.prove_refinement(&ExploreOptions::default()).unwrap();
    suite.record(
        "CDQ ⇒ CQ[dbl]",
        report.holds(),
        format!(
            "simulation over {} states, {} liveness obligations",
            report.simulation.states,
            report.liveness.len()
        ),
    );

    assert!(suite.holds(), "{suite}");
    assert_eq!(suite.entries().len(), 6);
    let text = suite.to_string();
    assert!(text.contains("6/6 passed"), "{text}");
    assert!(text.contains("figure 9"), "{text}");
}

#[test]
fn suite_surfaces_failures_with_reasons() {
    let mut suite = Suite::new("negative");
    let world = SingleQueue::new(1, 2, FairnessStyle::None);
    let sys = world.complete_system().unwrap();
    let graph = explore(&sys, &ExploreOptions::default()).unwrap();
    let (p, q) = world.input_served();
    let held = suite
        .liveness(
            "served without fairness",
            &sys,
            &graph,
            &LiveTarget::LeadsTo(p, q),
        )
        .unwrap();
    assert!(!held);
    assert!(!suite.holds());
    let failure = suite.failures().next().unwrap();
    assert!(failure.detail.contains("violated"), "{}", failure.detail);
}
