//! End-to-end soundness: when the `compose` engine certifies a
//! conclusion, the conclusion *formula* — `G ∧ ∧(E_j ⊳ M_j) ⇒ (E ⊳ M)`,
//! with `⊳`, hiding, and all — is valid over every lasso behavior of
//! the universe, as judged by the independent trace semantics.
//!
//! This is the strongest cross-check in the repository: the syntactic
//! rule pipeline (Propositions 1–4 + model checking) against the
//! semantic definition of the Composition Theorem's statement.

use opentla::{compose, disjoint, CompositionOptions, CompositionProblem};
use opentla_kernel::{Formula, Substitution};
use opentla_scenarios::Fig1;
use opentla_semantics::{all_lassos, eval, EvalCtx, Universe};

#[test]
fn fig1_conclusion_is_semantically_valid() {
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
    let cert = compose(&problem, &CompositionOptions::default()).unwrap();
    assert!(cert.holds());

    // Reconstruct the certified conclusion as a formula:
    //   G ∧ (E_c ⊳ M_c) ∧ (E_d ⊳ M_d) ⇒ (TRUE ⊳ M_both)
    let g = disjoint(&[vec![w.c()], vec![w.d()]]);
    let conclusion = Formula::all([g, ag_c.formula(), ag_d.formula()]).implies(target.formula());

    // Exhaustively check it over all lassos (≤ 4 stored states) of the
    // two-bit universe.
    let universe = Universe::new(w.vars().clone());
    let ctx = EvalCtx::with_universe(universe.clone());
    let lassos = all_lassos(&universe, 4);
    assert!(lassos.len() > 1000, "exhaustive set should be substantial");
    for sigma in &lassos {
        assert!(
            eval(&conclusion, sigma, &ctx).unwrap(),
            "certified conclusion fails semantically on {sigma:?}"
        );
    }
}

#[test]
fn refuted_conclusion_really_fails_semantically() {
    // Flip the target to something false ("c stays 1") and confirm the
    // failed certificate corresponds to semantic invalidity: some lasso
    // satisfies the antecedent but not the conclusion.
    use opentla::{AgSpec, ComponentSpec};
    use opentla_check::Init;
    use opentla_kernel::{Expr, Value};

    let w = Fig1::new();
    let ag_c = w.ag_c().unwrap();
    let ag_d = w.ag_d().unwrap();
    let wrong = ComponentSpec::builder("wrong")
        .outputs([w.c(), w.d()])
        .init(Init::new([(w.c(), Value::Int(1)), (w.d(), Value::Int(0))]))
        .build()
        .unwrap();
    let true_env = ComponentSpec::builder("TRUE").build().unwrap();
    let target = AgSpec::new(true_env, wrong).unwrap();
    let problem = CompositionProblem {
        vars: w.vars(),
        components: vec![&ag_c, &ag_d],
        target: &target,
        mapping: Substitution::default(),
    };
    let cert = compose(&problem, &CompositionOptions::default()).unwrap();
    assert!(!cert.holds());

    let g = disjoint(&[vec![w.c()], vec![w.d()]]);
    let conclusion = Formula::all([g, ag_c.formula(), ag_d.formula()]).implies(target.formula());
    let universe = Universe::new(w.vars().clone());
    let ctx = EvalCtx::with_universe(universe.clone());
    // The all-zero stutter satisfies the antecedent but violates the
    // wrong target (whose initial condition demands c = 1).
    let zero = opentla_kernel::State::new(vec![Value::Int(0), Value::Int(0)]);
    let sigma = opentla_semantics::Lasso::stutter(zero);
    assert!(
        !eval(&conclusion, &sigma, &ctx).unwrap(),
        "the refuted conclusion must fail semantically"
    );
    let _ = Expr::int(0);
}

#[test]
fn corollary_conclusion_is_semantically_valid() {
    // The refinement Corollary on a small instance, validated
    // semantically: (E ⊳ M') ⇒ (E ⊳ M) over all lassos.
    use opentla::{refine, ComponentSpec};
    use opentla_check::{GuardedAction, Init};
    use opentla_kernel::{Domain, Expr, Value, Vars};

    let mut vars = Vars::new();
    let m = vars.declare("m", Domain::bits());
    let e = vars.declare("e", Domain::bits());
    let env = opentla::chaos_environment("env", &vars, &[e]);
    // Lower: m latches e (tightly constrained).
    let lower = ComponentSpec::builder("latch")
        .outputs([m])
        .inputs([e])
        .init(Init::new([(m, Value::Int(0))]))
        .action(GuardedAction::new(
            "latch",
            Expr::bool(true),
            vec![(m, Expr::var(e))],
        ))
        .build()
        .unwrap();
    // Upper: m starts 0 and may change freely.
    let upper = ComponentSpec::builder("free")
        .outputs([m])
        .inputs([e])
        .init(Init::new([(m, Value::Int(0))]))
        .action(GuardedAction::new(
            "any0",
            Expr::bool(true),
            vec![(m, Expr::int(0))],
        ))
        .action(GuardedAction::new(
            "any1",
            Expr::bool(true),
            vec![(m, Expr::int(1))],
        ))
        .build()
        .unwrap();
    let cert = refine(
        &vars,
        &env,
        &lower,
        &upper,
        Substitution::default(),
        &CompositionOptions::default(),
    )
    .unwrap();
    assert!(cert.holds());

    let env_f = env.hidden_formula();
    let conclusion = env_f
        .clone()
        .while_plus(lower.hidden_formula())
        .implies(env_f.while_plus(upper.hidden_formula()));
    let universe = Universe::new(vars);
    let ctx = EvalCtx::with_universe(universe.clone());
    for sigma in all_lassos(&universe, 4) {
        assert!(
            eval(&conclusion, &sigma, &ctx).unwrap(),
            "corollary conclusion fails on {sigma:?}"
        );
    }
}
