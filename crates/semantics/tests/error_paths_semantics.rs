//! Error paths of the semantics engine: universe requirements and
//! search budgets surface as typed errors, never panics.

use opentla_kernel::{Domain, Expr, Formula, State, Value, Vars};
use opentla_semantics::{eval, EvalCtx, Lasso, SemanticsError, Universe};

fn bit_world() -> (Vars, opentla_kernel::VarId) {
    let mut vars = Vars::new();
    let x = vars.declare("x", Domain::bits());
    (vars, x)
}

fn stutter0() -> Lasso {
    Lasso::stutter(State::new(vec![Value::Int(0)]))
}

#[test]
fn fairness_needs_a_universe() {
    let (_, x) = bit_world();
    let wf = Formula::wf(Expr::prime(x).ne(Expr::var(x)), vec![x]);
    let err = eval(&wf, &stutter0(), &EvalCtx::default()).unwrap_err();
    assert!(matches!(
        err,
        SemanticsError::NeedsUniverse { construct: "WF" }
    ));
    let sf = Formula::sf(Expr::prime(x).ne(Expr::var(x)), vec![x]);
    let err = eval(&sf, &stutter0(), &EvalCtx::default()).unwrap_err();
    assert!(matches!(
        err,
        SemanticsError::NeedsUniverse { construct: "SF" }
    ));
}

#[test]
fn exists_needs_a_universe() {
    let (_, x) = bit_world();
    let f = Formula::exists(vec![x], Formula::pred(Expr::var(x).eq(Expr::int(1))));
    let err = eval(&f, &stutter0(), &EvalCtx::default()).unwrap_err();
    assert!(matches!(
        err,
        SemanticsError::NeedsUniverse { construct: "∃" }
    ));
}

#[test]
fn exists_budget_is_typed() {
    let (vars, x) = bit_world();
    let mut ctx = EvalCtx::with_universe(Universe::new(vars));
    ctx.search_budget = 0;
    let f = Formula::exists(vec![x], Formula::pred(Expr::var(x).eq(Expr::int(1))));
    let err = eval(&f, &stutter0(), &ctx).unwrap_err();
    assert!(matches!(
        err,
        SemanticsError::SearchBudgetExceeded {
            construct: "∃", ..
        }
    ));
}

#[test]
fn closure_of_liveness_needs_universe() {
    let (_, x) = bit_world();
    // C(◇(x = 1)) requires extension search.
    let f = Formula::pred(Expr::var(x).eq(Expr::int(1)))
        .eventually()
        .closure();
    let err = eval(&f, &stutter0(), &EvalCtx::default()).unwrap_err();
    assert!(matches!(err, SemanticsError::NeedsUniverse { .. }));
}

#[test]
fn type_errors_propagate_through_temporal_operators() {
    let (_, x) = bit_world();
    // Head of an integer is a type error, buried under □◇.
    let bad = Formula::pred(Expr::var(x).head().eq(Expr::int(0)))
        .eventually()
        .always();
    let err = eval(&bad, &stutter0(), &EvalCtx::default()).unwrap_err();
    assert!(matches!(err, SemanticsError::Eval(_)));
    // And the error's Display names the operator.
    assert!(err.to_string().contains("Head"), "{err}");
}

#[test]
fn out_of_domain_states_still_evaluate() {
    // The evaluator itself is domain-agnostic (domains matter for
    // enabledness and enumeration): a state outside the declared
    // domain evaluates fine.
    let (_, x) = bit_world();
    let sigma = Lasso::stutter(State::new(vec![Value::Int(7)]));
    let f = Formula::pred(Expr::var(x).eq(Expr::int(7)));
    assert!(eval(&f, &sigma, &EvalCtx::default()).unwrap());
}

#[test]
fn while_plus_with_unsupported_env_is_typed() {
    let (_, x) = bit_world();
    // ⊳ with a non-canonical assumption and no universe: the prefix
    // machinery reports the missing universe rather than guessing.
    let env = Formula::pred(Expr::var(x).eq(Expr::int(1))).eventually();
    let sys = Formula::pred(Expr::var(x).eq(Expr::int(0)));
    let f = env.while_plus(sys);
    let err = eval(&f, &stutter0(), &EvalCtx::default()).unwrap_err();
    assert!(matches!(err, SemanticsError::NeedsUniverse { .. }));
}
