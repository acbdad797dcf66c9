//! Edge cases and error paths of the public API, end to end.

use opentla::{compose, AgSpec, ComponentSpec, CompositionOptions, CompositionProblem, SpecError};
use opentla_check::{Budget, CheckError, ExploreOptions, GuardedAction, Init};
use opentla_kernel::{Domain, Expr, Substitution, Value, Vars};
use opentla_scenarios::Fig1;

#[test]
fn state_limit_surfaces_through_compose() {
    // A starved exploration no longer aborts `compose` with an error:
    // it degrades to an honest UNDECIDED certificate recording the
    // exhaustion, from which `escalate` can recover. The budget starves
    // it: `explore.max_states` does not narrow a certificate's.
    let w = Fig1::new();
    let ag_c = w.ag_c().unwrap();
    let ag_d = w.ag_d().unwrap();
    let target = w.safety_target().unwrap();
    let problem = CompositionProblem {
        vars: w.vars(),
        components: vec![&ag_c, &ag_d],
        target: &target,
        mapping: Substitution::default(),
    };
    let options = CompositionOptions {
        budget: Budget::default().states(0),
        ..CompositionOptions::default()
    };
    let cert = compose(&problem, &options).expect("exhaustion is not an error");
    assert!(!cert.holds());
    assert!(!cert.decided(), "the conclusion must be open, not refuted");
    assert!(cert.first_failure().is_none());
    assert_eq!(cert.first_undecided().unwrap().id, "exploration");
    let text = cert.display(w.vars()).to_string();
    assert!(text.contains("UNDECIDED"), "{text}");
    assert!(text.contains("state limit of 0"), "{text}");
}

#[test]
fn non_closed_composition_is_rejected() {
    // A component reading a wire nobody drives.
    let mut vars = Vars::new();
    let c = vars.declare("c", Domain::bits());
    let ghost = vars.declare("ghost", Domain::bits());
    let reader = ComponentSpec::builder("reader")
        .outputs([c])
        .inputs([ghost])
        .init(Init::new([(c, Value::Int(0))]))
        .build()
        .unwrap();
    let env = ComponentSpec::builder("E").inputs([c]).build().unwrap();
    let ag = AgSpec::new(env, reader).unwrap();
    let true_env = ComponentSpec::builder("TRUE").build().unwrap();
    let target_sys = ComponentSpec::builder("T")
        .outputs([c])
        .init(Init::new([(c, Value::Int(0))]))
        .build()
        .unwrap();
    let target = AgSpec::new(true_env, target_sys).unwrap();
    let problem = CompositionProblem {
        vars: &vars,
        components: vec![&ag],
        target: &target,
        mapping: Substitution::default(),
    };
    let err =
        compose(&problem, &CompositionOptions::default()).expect_err("ghost input is unproduced");
    assert!(matches!(err, SpecError::NotClosed { .. }), "{err}");
}

#[test]
fn assumption_with_internals_needs_witness() {
    let mut vars = Vars::new();
    let c = vars.declare("c", Domain::bits());
    let d = vars.declare("d", Domain::bits());
    let hidden = vars.declare("hidden", Domain::bits());
    let env_with_state = ComponentSpec::builder("E")
        .outputs([d])
        .internals([hidden])
        .inputs([c])
        .init(Init::new([(d, Value::Int(0)), (hidden, Value::Int(0))]))
        .build()
        .unwrap();
    let sys = ComponentSpec::builder("M")
        .outputs([c])
        .inputs([d])
        .init(Init::new([(c, Value::Int(0))]))
        .build()
        .unwrap();
    let ag = AgSpec::new(env_with_state, sys).unwrap();
    let true_env = ComponentSpec::builder("TRUE").build().unwrap();
    let target_sys = ComponentSpec::builder("T")
        .outputs([c, d])
        .init(Init::new([(c, Value::Int(0)), (d, Value::Int(0))]))
        .build()
        .unwrap();
    let target = AgSpec::new(true_env, target_sys).unwrap();
    // The product is not even buildable here (E's guarantee-side would
    // need to own d), but the witness validation fires first.
    let problem = CompositionProblem {
        vars: &vars,
        components: vec![&ag],
        target: &target,
        mapping: Substitution::default(),
    };
    let err = compose(&problem, &CompositionOptions::default()).expect_err("no witness");
    assert!(
        matches!(err, SpecError::AssumptionNeedsWitness { .. }),
        "{err}"
    );
}

#[test]
fn type_errors_surface_as_check_errors() {
    // A guard comparing an integer to a sequence is a specification
    // type error; the engine reports it rather than panicking.
    let mut vars = Vars::new();
    let x = vars.declare("x", Domain::bits());
    let bad = GuardedAction::new(
        "bad",
        Expr::var(x).add(Expr::int(1)), // non-boolean guard
        vec![],
    );
    let sys = opentla_check::System::new(vars, Init::new([(x, Value::Int(0))]), vec![bad]);
    let err =
        opentla_check::explore(&sys, &ExploreOptions::default()).expect_err("non-boolean guard");
    assert!(matches!(err, CheckError::Eval(_)), "{err}");
}

#[test]
fn verdicts_expose_counterexamples_ergonomically() {
    let w = Fig1::new();
    let sys = opentla::closed_product(w.vars(), &[&w.pi_c(), &w.pi_d()]).unwrap();
    let graph = opentla_check::explore(&sys, &ExploreOptions::default()).unwrap();
    let verdict = opentla_check::check_liveness(
        &sys,
        &graph,
        &opentla_check::LiveTarget::Eventually(Expr::var(w.c()).eq(Expr::int(1))),
    )
    .unwrap();
    assert!(!verdict.holds());
    let cx = verdict.counterexample().unwrap();
    let text = cx.display(w.vars()).to_string();
    assert!(text.contains("◇"), "{text}");
    assert!(text.contains("loop"), "{text}");
}

#[test]
#[ignore = "stress: larger parameters, run with --ignored"]
fn stress_double_queue_n2_v3_composition() {
    use opentla_queue::{DoubleQueue, FairnessStyle};
    let w = DoubleQueue::new(2, 3, FairnessStyle::Joint);
    let cert = w.prove_composition(&CompositionOptions::default()).unwrap();
    assert!(cert.holds());
    assert!(cert.product_states > 10_000);
}

#[test]
#[ignore = "stress: larger parameters, run with --ignored"]
fn stress_chain_of_four() {
    use opentla_queue::{FairnessStyle, QueueChain};
    let chain = QueueChain::new(4, 1, 2, FairnessStyle::Joint);
    assert_eq!(chain.big_capacity(), 7);
    let cert = chain
        .prove_composition(&CompositionOptions::default())
        .unwrap();
    assert!(cert.holds());
}
