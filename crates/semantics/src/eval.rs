//! Exact evaluation of formulas on lasso behaviors.

use crate::prefix::first_failing_prefix;
use crate::{Lasso, SemanticsError, Universe};
use opentla_kernel::{box_action, Fairness, FairnessKind, Formula, State, StatePair, VarId};

/// The context for evaluating formulas over behaviors.
///
/// A context without a universe evaluates the universe-free fragment
/// (no `WF`/`SF`, no `∃`, prefix operators only on safety-canonical
/// arguments); [`EvalCtx::with_universe`] unlocks the rest.
#[derive(Clone, Debug)]
pub struct EvalCtx {
    /// The finite universe used to decide `Enabled`, search `∃`
    /// witnesses, and search prefix extensions. `None` restricts the
    /// evaluable fragment.
    pub universe: Option<Universe>,
    /// How many states a prefix-extension search may append (see
    /// [`crate::prefix_sat`]). Default 2.
    pub extension_budget: usize,
    /// Upper bound on candidate behaviors examined by any single
    /// bounded search. Default 200 000.
    pub search_budget: usize,
    /// How many times the cycle may be unrolled when searching for `∃`
    /// witnesses. Default 2.
    pub exists_unroll: usize,
}

impl Default for EvalCtx {
    fn default() -> Self {
        EvalCtx {
            universe: None,
            extension_budget: 2,
            search_budget: 200_000,
            exists_unroll: 2,
        }
    }
}

impl EvalCtx {
    /// A context over the given finite universe.
    pub fn with_universe(universe: Universe) -> Self {
        EvalCtx {
            universe: Some(universe),
            ..EvalCtx::default()
        }
    }

    fn universe(&self, construct: &'static str) -> Result<&Universe, SemanticsError> {
        self.universe
            .as_ref()
            .ok_or(SemanticsError::NeedsUniverse { construct })
    }
}

/// Evaluates a formula on a lasso behavior.
///
/// Every operator of the mechanized fragment is supported; the paper's
/// prefix-quantifying operators (`⊳`, `+v`, `⊥`, `C`) are computed from
/// the *first failing prefix* of their arguments, which is exact for
/// safety-canonical arguments and uses the documented bounded search
/// otherwise.
///
/// # Errors
///
/// * Expression evaluation errors;
/// * [`SemanticsError::NeedsUniverse`] for `WF`/`SF`/`∃`/non-canonical
///   prefix operators without a universe;
/// * [`SemanticsError::SearchBudgetExceeded`] when a bounded search
///   cannot answer within its budget.
pub fn eval(f: &Formula, sigma: &Lasso, ctx: &EvalCtx) -> Result<bool, SemanticsError> {
    match f {
        Formula::Pred(e) => Ok(e.holds_state(sigma.state(0))?),
        Formula::ActBox { action, sub } => {
            let boxed = box_action(action.clone(), sub);
            for (i, j) in sigma.steps() {
                if !boxed.holds_action(StatePair::new(sigma.state(i), sigma.state(j)))? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Not(g) => Ok(!eval(g, sigma, ctx)?),
        Formula::And(fs) => {
            for g in fs {
                if !eval(g, sigma, ctx)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(fs) => {
            for g in fs {
                if eval(g, sigma, ctx)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Implies(a, b) => Ok(!eval(a, sigma, ctx)? || eval(b, sigma, ctx)?),
        Formula::Equiv(a, b) => Ok(eval(a, sigma, ctx)? == eval(b, sigma, ctx)?),
        Formula::Always(g) => {
            // Suffixes at positions ≥ k repeat suffixes in l..k.
            for i in 0..sigma.len() {
                if !eval(g, &sigma.suffix(i), ctx)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Eventually(g) => {
            for i in 0..sigma.len() {
                if eval(g, &sigma.suffix(i), ctx)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Fair(fair) => fairness_holds(fair, sigma, ctx),
        Formula::Exists { vars, body } => exists_witness(vars, body, sigma, ctx),
        Formula::WhilePlus { env, sys } => {
            let n0 = first_failing_prefix(env, sigma, ctx)?;
            let m0 = first_failing_prefix(sys, sigma, ctx)?;
            // ∀ n ≥ 0: (ρ_n ⊨ E) ⇒ (ρ_{n+1} ⊨ M), i.e. m0 > n0 with
            // None meaning ∞.
            let stepwise = match (n0, m0) {
                (_, None) => true,
                (None, Some(_)) => false,
                (Some(n0), Some(m0)) => m0 > n0,
            };
            Ok(stepwise && (!eval(env, sigma, ctx)? || eval(sys, sigma, ctx)?))
        }
        Formula::While { env, sys } => {
            let n0 = first_failing_prefix(env, sigma, ctx)?;
            let m0 = first_failing_prefix(sys, sigma, ctx)?;
            // ∀ n: (ρ_n ⊨ E) ⇒ (ρ_n ⊨ M): m0 ≥ n0 with None = ∞.
            let stepwise = match (n0, m0) {
                (_, None) => true,
                (None, Some(_)) => false,
                (Some(n0), Some(m0)) => m0 >= n0,
            };
            Ok(stepwise && (!eval(env, sigma, ctx)? || eval(sys, sigma, ctx)?))
        }
        Formula::Plus { body, sub } => {
            if eval(body, sigma, ctx)? {
                return Ok(true);
            }
            let Some(p) = stabilization_point(sigma, sub)? else {
                return Ok(false);
            };
            // Need some n ≥ p whose prefix satisfies the body.
            Ok(match first_failing_prefix(body, sigma, ctx)? {
                None => true,
                Some(n0) => p < n0,
            })
        }
        Formula::Ortho(a, b) => {
            let n0 = first_failing_prefix(a, sigma, ctx)?;
            let m0 = first_failing_prefix(b, sigma, ctx)?;
            // A violation is an n where both hold for the first n
            // states and both fail for the first n+1 — possible iff the
            // two first-failure points coincide (and are finite).
            Ok(!(n0.is_some() && n0 == m0))
        }
        Formula::Closure(g) => Ok(first_failing_prefix(g, sigma, ctx)?.is_none()),
    }
}

/// The first position from which the tuple `sub` never changes again,
/// or `None` if it changes infinitely often (i.e. within the cycle).
fn stabilization_point(sigma: &Lasso, sub: &[VarId]) -> Result<Option<usize>, SemanticsError> {
    let mut last_change: Option<usize> = None;
    for (i, j) in sigma.steps() {
        if !sigma.state(i).agrees_with(sigma.state(j), sub) {
            if i >= sigma.loop_start() {
                return Ok(None); // Changes recur forever.
            }
            last_change = Some(last_change.map_or(i, |m: usize| m.max(i)));
        }
    }
    Ok(Some(last_change.map_or(0, |i| i + 1)))
}

fn fairness_holds(fair: &Fairness, sigma: &Lasso, ctx: &EvalCtx) -> Result<bool, SemanticsError> {
    let universe = ctx.universe(match fair.kind {
        FairnessKind::Weak => "WF",
        FairnessKind::Strong => "SF",
    })?;
    let angle = fair.angle_action();
    // Steps and states within the cycle occur infinitely often; nothing
    // else does.
    let mut has_angle_step = false;
    for (i, j) in sigma.steps() {
        if i >= sigma.loop_start()
            && angle.holds_action(StatePair::new(sigma.state(i), sigma.state(j)))?
        {
            has_angle_step = true;
            break;
        }
    }
    if has_angle_step {
        return Ok(true);
    }
    let mut any_disabled = false;
    let mut any_enabled = false;
    for i in sigma.loop_start()..sigma.len() {
        if universe.enabled(&angle, sigma.state(i))? {
            any_enabled = true;
        } else {
            any_disabled = true;
        }
    }
    Ok(match fair.kind {
        // Infinitely many states with ⟨A⟩_v not enabled.
        FairnessKind::Weak => any_disabled,
        // Only finitely many states with ⟨A⟩_v enabled.
        FairnessKind::Strong => !any_enabled,
    })
}

/// Bounded witness search for `∃ vars : body`.
///
/// Searches assignment sequences for the hidden variables over lassos
/// whose visible projection is `sigma`, unrolling the cycle up to
/// `ctx.exists_unroll` times. Sound when a witness is found; a `false`
/// answer is bounded-complete (no witness of the searched shape).
fn exists_witness(
    hidden: &[VarId],
    body: &Formula,
    sigma: &Lasso,
    ctx: &EvalCtx,
) -> Result<bool, SemanticsError> {
    let universe = ctx.universe("∃")?;
    let mut budget = ctx.search_budget;
    for unroll in 1..=ctx.exists_unroll.max(1) {
        let l = sigma.loop_start();
        let positions = l + sigma.period() * unroll;
        // Base states: the visible projection, unrolled.
        let base: Vec<State> = (0..positions).map(|i| sigma.state(i).clone()).collect();
        if search_hidden(
            universe,
            hidden,
            body,
            &base,
            l,
            0,
            &mut Vec::new(),
            ctx,
            &mut budget,
        )? {
            return Ok(true);
        }
    }
    Ok(false)
}

#[allow(clippy::too_many_arguments)]
fn search_hidden(
    universe: &Universe,
    hidden: &[VarId],
    body: &Formula,
    base: &[State],
    loop_start: usize,
    pos: usize,
    acc: &mut Vec<State>,
    ctx: &EvalCtx,
    budget: &mut usize,
) -> Result<bool, SemanticsError> {
    if pos == base.len() {
        if *budget == 0 {
            return Err(SemanticsError::SearchBudgetExceeded {
                construct: "∃",
                budget: ctx.search_budget,
            });
        }
        *budget -= 1;
        let sigma = Lasso::new(acc.clone(), loop_start).expect("nonempty");
        return eval(body, &sigma, ctx);
    }
    // Enumerate hidden-variable values for this position.
    let mut stack: Vec<Vec<(VarId, opentla_kernel::Value)>> = vec![vec![]];
    for h in hidden {
        let mut next = Vec::new();
        for partial in &stack {
            for v in universe.vars().domain(*h).iter() {
                let mut p = partial.clone();
                p.push((*h, v.clone()));
                next.push(p);
            }
        }
        stack = next;
    }
    for assignment in &stack {
        acc.push(base[pos].with(assignment));
        let found = search_hidden(
            universe,
            hidden,
            body,
            base,
            loop_start,
            pos + 1,
            acc,
            ctx,
            budget,
        )?;
        acc.pop();
        if found {
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_kernel::{Domain, Expr, Value, Vars};

    fn setup() -> (Vars, VarId, VarId) {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        let y = vars.declare("y", Domain::bits());
        (vars, x, y)
    }

    fn st(x: i64, y: i64) -> State {
        State::new(vec![Value::Int(x), Value::Int(y)])
    }

    #[test]
    fn temporal_basics() {
        let (_, x, _) = setup();
        let ctx = EvalCtx::default();
        // 00 10 (11)^ω
        let sigma = Lasso::new(vec![st(0, 0), st(1, 0), st(1, 1)], 2).unwrap();
        let x1 = Formula::pred(Expr::var(x).eq(Expr::int(1)));
        assert!(!eval(&x1, &sigma, &ctx).unwrap());
        assert!(eval(&x1.clone().eventually(), &sigma, &ctx).unwrap());
        assert!(!eval(&x1.clone().always(), &sigma, &ctx).unwrap());
        // ◇□(x = 1) holds; □◇(x = 0) fails.
        assert!(eval(&x1.clone().always().eventually(), &sigma, &ctx).unwrap());
        let x0 = Formula::pred(Expr::var(x).eq(Expr::int(0)));
        assert!(!eval(&x0.clone().eventually().always(), &sigma, &ctx).unwrap());
        // Boolean structure.
        assert!(eval(&x0.clone().or(x1.clone()), &sigma, &ctx).unwrap());
        assert!(!eval(&x0.clone().and(x1.clone()), &sigma, &ctx).unwrap());
        assert!(eval(&x1.clone().implies(x0.clone()), &sigma, &ctx).unwrap());
        assert!(!eval(&x0.clone().not(), &sigma, &ctx).unwrap());
        assert!(eval(&x0.equiv(x1.not()), &sigma, &ctx).unwrap());
    }

    #[test]
    fn act_box_checks_wrap() {
        let (_, x, _) = setup();
        let ctx = EvalCtx::default();
        // □[x' = 1 - x]_x on 00 (10 00)^ω: steps toggle x — fine.
        let toggle = Expr::prime(x).eq(Expr::int(1).sub(Expr::var(x)));
        let f = Formula::act_box(toggle, vec![x]);
        let good = Lasso::new(vec![st(0, 0), st(1, 0)], 0).unwrap();
        assert!(eval(&f, &good, &ctx).unwrap());
        // 00 (10)^ω: wrap step 10 → 10 stutters x — allowed by [·]_x.
        let stutter = Lasso::new(vec![st(0, 0), st(1, 0)], 1).unwrap();
        assert!(eval(&f, &stutter, &ctx).unwrap());
    }

    #[test]
    fn weak_fairness_on_lassos() {
        let (vars, x, _) = setup();
        let ctx = EvalCtx::with_universe(Universe::new(vars));
        // Action: set x to 1 (enabled whenever x = 0 — and also changes
        // nothing when x = 1, so ⟨A⟩_x is disabled there).
        let a = Expr::prime(x).eq(Expr::int(1));
        let wf = Formula::wf(a, vec![x]);
        // (00)^ω: ⟨A⟩_x stays enabled forever but never taken: WF fails.
        let idle = Lasso::stutter(st(0, 0));
        assert!(!eval(&wf, &idle, &ctx).unwrap());
        // 00 (11)^ω: after taking the step, ⟨A⟩_x is disabled: WF holds.
        let taken = Lasso::new(vec![st(0, 0), st(1, 1)], 1).unwrap();
        assert!(eval(&wf, &taken, &ctx).unwrap());
    }

    #[test]
    fn strong_vs_weak_fairness() {
        let (vars, x, y) = setup();
        let ctx = EvalCtx::with_universe(Universe::new(vars));
        // Action A: when y = 0, set x to 1.
        let a = Expr::all([
            Expr::var(y).eq(Expr::int(0)),
            Expr::prime(x).eq(Expr::int(1)),
            Expr::prime(y).eq(Expr::var(y)),
        ]);
        // Behavior alternating y: 00 (01 00)^ω with x stuck at 0:
        // ⟨A⟩_x is enabled at infinitely many states (y=0) and disabled
        // at infinitely many (y=1); never taken.
        let sigma = Lasso::new(vec![st(0, 0), st(0, 1)], 0).unwrap();
        let wf = Formula::wf(a.clone(), vec![x]);
        let sf = Formula::sf(a, vec![x]);
        assert!(
            eval(&wf, &sigma, &ctx).unwrap(),
            "WF satisfied by recurring disabledness"
        );
        assert!(
            !eval(&sf, &sigma, &ctx).unwrap(),
            "SF violated: enabled infinitely often, never taken"
        );
    }

    #[test]
    fn closure_semantics() {
        let (_, x, _) = setup();
        let ctx = EvalCtx::default();
        // F = (x = 0) ∧ □[FALSE]_x ("x stays 0").
        let f = Formula::pred(Expr::var(x).eq(Expr::int(0)))
            .and(Formula::act_box(Expr::bool(false), vec![x]));
        // A behavior where x stays 0 satisfies C(F).
        let zeros = Lasso::stutter(st(0, 0));
        assert!(eval(&f.clone().closure(), &zeros, &ctx).unwrap());
        // 00 (10)^ω violates F at prefix length 2, hence violates C(F).
        let bad = Lasso::new(vec![st(0, 0), st(1, 0)], 1).unwrap();
        assert!(!eval(&f.clone().closure(), &bad, &ctx).unwrap());
    }

    #[test]
    fn while_plus_matches_paper_reading() {
        let (_, x, y) = setup();
        let ctx = EvalCtx::default();
        // E: y stays 0 (canonical); M: x stays 0 (canonical).
        let e = Formula::pred(Expr::var(y).eq(Expr::int(0)))
            .and(Formula::act_box(Expr::bool(false), vec![y]));
        let m = Formula::pred(Expr::var(x).eq(Expr::int(0)))
            .and(Formula::act_box(Expr::bool(false), vec![x]));
        let ag = e.clone().while_plus(m.clone());

        // Both hold forever: E ⊳ M holds.
        assert!(eval(&ag, &Lasso::stutter(st(0, 0)), &ctx).unwrap());
        // Env breaks first (y changes at step 0), system follows suit:
        // allowed.
        let env_first = Lasso::new(vec![st(0, 0), st(0, 1), st(1, 1)], 2).unwrap();
        assert!(eval(&ag, &env_first, &ctx).unwrap());
        // System breaks while env is still fine: violation.
        let sys_first = Lasso::new(vec![st(0, 0), st(1, 0)], 1).unwrap();
        assert!(!eval(&ag, &sys_first, &ctx).unwrap());
        // Both break on the same step: ⊳ forbids it (unlike -▷).
        let same_step = Lasso::new(vec![st(0, 0), st(1, 1)], 1).unwrap();
        assert!(!eval(&ag, &same_step, &ctx).unwrap());
        // System must satisfy its initial condition unconditionally.
        let bad_init = Lasso::stutter(st(1, 1));
        assert!(!eval(&ag, &bad_init, &ctx).unwrap());
    }

    #[test]
    fn while_vs_while_plus() {
        let (_, x, y) = setup();
        let ctx = EvalCtx::default();
        let e = Formula::pred(Expr::var(y).eq(Expr::int(0)))
            .and(Formula::act_box(Expr::bool(false), vec![y]));
        let m = Formula::pred(Expr::var(x).eq(Expr::int(0)))
            .and(Formula::act_box(Expr::bool(false), vec![x]));
        // Simultaneous violation: allowed by -▷, forbidden by ⊳.
        let same_step = Lasso::new(vec![st(0, 0), st(1, 1)], 1).unwrap();
        assert!(eval(&e.clone().while_op(m.clone()), &same_step, &ctx).unwrap());
        assert!(!eval(&e.clone().while_plus(m.clone()), &same_step, &ctx).unwrap());
        // System breaking strictly first: forbidden by both.
        let sys_first = Lasso::new(vec![st(0, 0), st(1, 0)], 1).unwrap();
        assert!(!eval(&e.clone().while_op(m.clone()), &sys_first, &ctx).unwrap());
        // Environment breaking strictly first: allowed by both.
        let env_first = Lasso::new(vec![st(0, 0), st(0, 1), st(1, 1)], 2).unwrap();
        assert!(eval(&e.clone().while_op(m.clone()), &env_first, &ctx).unwrap());
        assert!(eval(&e.clone().while_plus(m.clone()), &env_first, &ctx).unwrap());
    }

    #[test]
    fn plus_operator() {
        let (_, x, y) = setup();
        let ctx = EvalCtx::default();
        // F: y stays 0.
        let f = Formula::pred(Expr::var(y).eq(Expr::int(0)))
            .and(Formula::act_box(Expr::bool(false), vec![y]));
        let plus = f.clone().plus(vec![x]);
        // F holds outright.
        assert!(eval(&plus, &Lasso::stutter(st(0, 0)), &ctx).unwrap());
        // F fails at step 0 (y flips) and x never changes after: +
        // holds.
        let env_breaks_x_frozen = Lasso::new(vec![st(0, 0), st(0, 1)], 1).unwrap();
        assert!(eval(&plus, &env_breaks_x_frozen, &ctx).unwrap());
        // F fails at step 0 and x changes afterwards: + fails.
        let x_moves_after = Lasso::new(vec![st(0, 0), st(0, 1), st(1, 1)], 2).unwrap();
        assert!(!eval(&plus, &x_moves_after, &ctx).unwrap());
        // x changes exactly while F still holds, then freezes: fine.
        let x_moves_before = Lasso::new(vec![st(0, 0), st(1, 0), st(1, 1)], 2).unwrap();
        assert!(eval(&plus, &x_moves_before, &ctx).unwrap());
    }

    #[test]
    fn ortho_operator() {
        let (_, x, y) = setup();
        let ctx = EvalCtx::default();
        let e = Formula::pred(Expr::var(y).eq(Expr::int(0)))
            .and(Formula::act_box(Expr::bool(false), vec![y]));
        let m = Formula::pred(Expr::var(x).eq(Expr::int(0)))
            .and(Formula::act_box(Expr::bool(false), vec![x]));
        // Simultaneous violation: x and y flip on the same step.
        let same = Lasso::new(vec![st(0, 0), st(1, 1)], 1).unwrap();
        assert!(!eval(&e.clone().ortho(m.clone()), &same, &ctx).unwrap());
        // Separate violations: orthogonal.
        let separate = Lasso::new(vec![st(0, 0), st(0, 1), st(1, 1)], 2).unwrap();
        assert!(eval(&e.clone().ortho(m.clone()), &separate, &ctx).unwrap());
        // No violations at all: orthogonal.
        assert!(eval(&e.ortho(m), &Lasso::stutter(st(0, 0)), &ctx).unwrap());
    }

    #[test]
    fn ortho_relates_while_plus_and_while() {
        // Validity noted in Section 4.2:
        // (E ⊳ M) = (E -▷ M) ∧ (E ⊥ M); we check the ⇒ direction on a
        // few behaviors: whenever E ⊳ M holds, E ⊥ M holds.
        let (_, x, y) = setup();
        let ctx = EvalCtx::default();
        let e = Formula::pred(Expr::var(y).eq(Expr::int(0)))
            .and(Formula::act_box(Expr::bool(false), vec![y]));
        let m = Formula::pred(Expr::var(x).eq(Expr::int(0)))
            .and(Formula::act_box(Expr::bool(false), vec![x]));
        let behaviors = [
            Lasso::stutter(st(0, 0)),
            Lasso::new(vec![st(0, 0), st(1, 1)], 1).unwrap(),
            Lasso::new(vec![st(0, 0), st(0, 1), st(1, 1)], 2).unwrap(),
            Lasso::new(vec![st(0, 0), st(1, 0)], 1).unwrap(),
        ];
        for sigma in &behaviors {
            let wp = eval(&e.clone().while_plus(m.clone()), sigma, &ctx).unwrap();
            let orth = eval(&e.clone().ortho(m.clone()), sigma, &ctx).unwrap();
            assert!(!wp || orth, "E ⊳ M must imply E ⊥ M on {sigma:?}");
        }
    }

    #[test]
    fn exists_witness_search() {
        let (vars, x, y) = setup();
        let ctx = EvalCtx::with_universe(Universe::new(vars));
        // Hide y. Claim: ∃ y : □(y = x). The witness simply copies x.
        let body = Formula::pred(Expr::var(y).eq(Expr::var(x))).always();
        let f = Formula::exists(vec![y], body);
        let sigma = Lasso::new(vec![st(0, 1), st(1, 0)], 0).unwrap();
        assert!(eval(&f, &sigma, &ctx).unwrap());
        // ∃ y : □(y = 0 ∧ y = 1) is unsatisfiable.
        let contradiction = Formula::pred(Expr::all([
            Expr::var(y).eq(Expr::int(0)),
            Expr::var(y).eq(Expr::int(1)),
        ]))
        .always();
        let g = Formula::exists(vec![y], contradiction);
        assert!(!eval(&g, &sigma, &ctx).unwrap());
    }

    #[test]
    fn exists_requiring_unroll() {
        // A witness that needs a longer period than the visible lasso:
        // hide y and require y to toggle while x stutters: (x=0)^ω with
        // body □[y' = 1 - y ∧ x' = x]_⟨x,y⟩ ∧ ◇(y=1) ∧ ◇(y=0).
        let (vars, _x, y) = setup();
        let ctx = EvalCtx::with_universe(Universe::new(vars));
        let body = Formula::all([
            Formula::pred(
                Expr::var(y)
                    .eq(Expr::int(0))
                    .or(Expr::var(y).eq(Expr::int(1))),
            ),
            Formula::pred(Expr::var(y).eq(Expr::int(1))).eventually(),
            Formula::pred(Expr::var(y).eq(Expr::int(0))).eventually(),
        ]);
        let f = Formula::exists(vec![y], body);
        let sigma = Lasso::stutter(st(0, 0));
        // Needs the cycle unrolled twice: y alternates 0 1 within it.
        assert!(eval(&f, &sigma, &ctx).unwrap());
    }

    #[test]
    fn stabilization_point_logic() {
        let (_, x, _) = setup();
        // 00 10 (11)^ω: x changes at step 0 only → stabilizes at 1.
        let sigma = Lasso::new(vec![st(0, 0), st(1, 0), st(1, 1)], 2).unwrap();
        assert_eq!(stabilization_point(&sigma, &[x]).unwrap(), Some(1));
        // x constant throughout → 0.
        let flat = Lasso::stutter(st(0, 0));
        assert_eq!(stabilization_point(&flat, &[x]).unwrap(), Some(0));
        // x toggles in the cycle → None.
        let toggling = Lasso::new(vec![st(0, 0), st(1, 0)], 0).unwrap();
        assert_eq!(stabilization_point(&toggling, &[x]).unwrap(), None);
    }
}
