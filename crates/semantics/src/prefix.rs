//! Prefix satisfaction.
//!
//! For a formula `F` and a finite behavior `ρ`, the paper defines
//! (Section 2.4): *`ρ` satisfies `F` iff `ρ` can be extended to an
//! infinite behavior that satisfies `F`*. The operators `C`, `⊳`, `+v`,
//! and `⊥` all quantify over prefix satisfaction, so making it
//! executable makes them executable.
//!
//! Two procedures are provided:
//!
//! * For **safety-canonical** formulas (`Init ∧ □P ∧ □[A]_v`
//!   conjunctions), prefix satisfaction is decided *exactly* by direct
//!   inspection: stuttering forever on the last state is a satisfying
//!   extension iff the prefix itself violates nothing.
//! * For arbitrary formulas, a **bounded extension search** over a
//!   finite [`Universe`](crate::Universe) enumerates lasso extensions
//!   of the prefix (up to a configurable number of appended states) and
//!   evaluates the formula on each. This is sound when it finds a
//!   witness and *bounded-complete* otherwise: a `false` answer means
//!   no lasso extension within the budget satisfies the formula. The
//!   production proof rules in the `opentla` crate never rely on the
//!   bounded path — the paper's Propositions 1–4 exist precisely to
//!   confine reasoning to the canonical case — but the property-based
//!   test suites use it as an oracle on small universes.
//!
//! **Convention.** The empty prefix satisfies every formula. The
//! paper's quantification "for every `n`, if `E` holds for the first
//! `n` states…" then starts meaningfully at `n = 0` with a trivially
//! true antecedent, which forces `M` to hold for the first state — the
//! system must establish its initial condition unconditionally.

use crate::eval::{eval, EvalCtx};
use crate::{safety_canonical, Lasso, SemanticsError};
use opentla_kernel::{Formula, State};

/// Decides whether the finite behavior `prefix` satisfies `f` (can be
/// extended to an infinite behavior satisfying `f`).
///
/// # Errors
///
/// * Expression evaluation errors;
/// * [`SemanticsError::NeedsUniverse`] if `f` is not safety-canonical
///   and the context has no universe;
/// * [`SemanticsError::SearchBudgetExceeded`] if the bounded search
///   would have to give an untrustworthy answer.
pub fn prefix_sat(f: &Formula, prefix: &[State], ctx: &EvalCtx) -> Result<bool, SemanticsError> {
    if prefix.is_empty() {
        return Ok(true);
    }
    if let Some(sc) = safety_canonical(f) {
        return sc.check_prefix(prefix);
    }
    search_extension(f, prefix, ctx)
}

/// Bounded lasso-extension search for non-canonical formulas.
fn search_extension(f: &Formula, prefix: &[State], ctx: &EvalCtx) -> Result<bool, SemanticsError> {
    let universe = ctx.universe.as_ref().ok_or(SemanticsError::NeedsUniverse {
        construct: "prefix satisfaction",
    })?;
    let all_states: Vec<State> = universe.states().collect();
    let mut budget = ctx.search_budget;

    // Appended suffixes of length 0..=extension_budget, in length
    // order; for each, try every loop start.
    let mut suffixes: Vec<Vec<State>> = vec![vec![]];
    for _ in 0..=ctx.extension_budget {
        let mut next = Vec::new();
        for suffix in &suffixes {
            let mut states: Vec<State> = prefix.to_vec();
            states.extend(suffix.iter().cloned());
            for loop_start in 0..states.len() {
                if budget == 0 {
                    return Err(SemanticsError::SearchBudgetExceeded {
                        construct: "prefix satisfaction",
                        budget: ctx.search_budget,
                    });
                }
                budget -= 1;
                let sigma =
                    Lasso::new(states.clone(), loop_start).expect("nonempty by construction");
                if eval(f, &sigma, ctx)? {
                    return Ok(true);
                }
            }
            for s in &all_states {
                let mut longer = suffix.clone();
                longer.push(s.clone());
                next.push(longer);
            }
        }
        suffixes = next;
    }
    Ok(false)
}

/// The smallest `n ≥ 1` such that the first `n` states of `sigma` do
/// **not** satisfy `f`, or `None` if every prefix satisfies `f`
/// (equivalently, `sigma ⊨ C(f)`).
///
/// Prefix satisfaction is antitone in `n` (an extension of a longer
/// prefix also extends the shorter one), so the scan stops at the first
/// failure. For safety-canonical formulas the answer is exact and the
/// scan is over the lasso's distinct steps only. For other formulas the
/// scan covers prefix lengths `1..=k+1` where `k` is the number of
/// stored states — beyond that every step of the behavior repeats an
/// already-checked one, which makes the bound exact for
/// structure-insensitive formulas and a documented heuristic otherwise.
///
/// # Errors
///
/// Same conditions as [`prefix_sat`].
pub fn first_failing_prefix(
    f: &Formula,
    sigma: &Lasso,
    ctx: &EvalCtx,
) -> Result<Option<usize>, SemanticsError> {
    if let Some(sc) = safety_canonical(f) {
        return sc.first_failing_prefix(sigma);
    }
    for n in 1..=sigma.len() + 1 {
        if !prefix_sat(f, &sigma.prefix(n), ctx)? {
            return Ok(Some(n));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;
    use opentla_kernel::{Domain, Expr, Value, VarId, Vars};

    fn setup() -> (Vars, VarId) {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        (vars, x)
    }

    fn st(i: i64) -> State {
        State::new(vec![Value::Int(i)])
    }

    #[test]
    fn canonical_fast_path() {
        let (_, x) = setup();
        let f = Formula::pred(Expr::var(x).eq(Expr::int(0)))
            .and(Formula::act_box(Expr::bool(false), vec![x]));
        let ctx = EvalCtx::default();
        assert!(prefix_sat(&f, &[st(0), st(0)], &ctx).unwrap());
        assert!(!prefix_sat(&f, &[st(0), st(1)], &ctx).unwrap());
        assert!(prefix_sat(&f, &[], &ctx).unwrap());
    }

    #[test]
    fn non_canonical_needs_universe() {
        let (_, x) = setup();
        let f = Formula::pred(Expr::var(x).eq(Expr::int(1))).eventually();
        let ctx = EvalCtx::default();
        assert!(matches!(
            prefix_sat(&f, &[st(0)], &ctx),
            Err(SemanticsError::NeedsUniverse { .. })
        ));
    }

    #[test]
    fn bounded_search_finds_liveness_witness() {
        let (vars, x) = setup();
        let ctx = EvalCtx::with_universe(Universe::new(vars));
        // ◇(x = 1): any prefix can be extended to reach 1.
        let f = Formula::pred(Expr::var(x).eq(Expr::int(1))).eventually();
        assert!(prefix_sat(&f, &[st(0), st(0)], &ctx).unwrap());
        // □(x = 0): the prefix 0,1 already violates it.
        let g = Formula::pred(Expr::var(x).eq(Expr::int(0))).always();
        assert!(!prefix_sat(&g, &[st(0), st(1)], &ctx).unwrap());
        assert!(prefix_sat(&g, &[st(0), st(0)], &ctx).unwrap());
    }

    #[test]
    fn first_failing_prefix_general() {
        let (vars, x) = setup();
        let ctx = EvalCtx::with_universe(Universe::new(vars));
        let g = Formula::pred(Expr::var(x).eq(Expr::int(0))).always();
        // 0 0 (1)^ω: □(x=0) first fails at prefix length 3.
        let sigma = Lasso::new(vec![st(0), st(0), st(1)], 2).unwrap();
        assert_eq!(first_failing_prefix(&g, &sigma, &ctx).unwrap(), Some(3));
        // (0)^ω: never fails.
        let zeros = Lasso::stutter(st(0));
        assert_eq!(first_failing_prefix(&g, &zeros, &ctx).unwrap(), None);
        // ◇(x=1) is never prefix-refuted: every prefix extends.
        let f = Formula::pred(Expr::var(x).eq(Expr::int(1))).eventually();
        assert_eq!(first_failing_prefix(&f, &zeros, &ctx).unwrap(), None);
    }

    #[test]
    fn budget_is_enforced() {
        let (vars, x) = setup();
        let mut ctx = EvalCtx::with_universe(Universe::new(vars));
        ctx.search_budget = 1;
        let f = Formula::pred(Expr::var(x).eq(Expr::int(1))).eventually();
        // The single-candidate budget cannot cover the search space.
        let r = prefix_sat(&f, &[st(0), st(0)], &ctx);
        assert!(
            matches!(
                r,
                Ok(true) | Err(SemanticsError::SearchBudgetExceeded { .. })
            ),
            "{r:?}"
        );
    }
}
