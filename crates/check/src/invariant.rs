//! State and step invariants.

use crate::reduction::concretize_trace;
use crate::{CheckError, Counterexample, StateGraph, System, Verdict};
use opentla_kernel::{box_action, Expr, StatePair, VarId};

/// Builds the counterexample trace leading to `id`.
///
/// On a symmetry-reduced graph the BFS tree runs through *canonical*
/// representatives, whose steps need not be genuine transitions of the
/// system; the trace is re-concretized by walking real successors whose
/// canonical forms match, so the returned counterexample replays under
/// the trace semantics. (If concretization fails — which only happens
/// for a canonicalizer that is not automorphism-induced — the canonical
/// trace is returned as-is, clearly better than nothing.)
pub(crate) fn trace_counterexample(
    system: &System,
    graph: &StateGraph,
    id: usize,
    reason: String,
) -> Counterexample {
    let trace = graph.trace_to(id);
    let states: Vec<_> = trace
        .iter()
        .map(|(_, s)| graph.state(*s).clone())
        .collect();
    if let Some(canon) = graph.canonicalizer() {
        if let Some((concrete, actions)) = concretize_trace(system, canon, &states) {
            return Counterexample::new(reason, concrete, actions, None);
        }
    }
    let actions = trace
        .iter()
        .map(|(a, _)| a.map(|i| system.actions()[i].name().to_string()))
        .collect();
    Counterexample::new(reason, states, actions, None)
}

/// Checks that `pred` holds in every reachable state.
///
/// # Errors
///
/// Propagates evaluation errors (e.g. type errors in `pred`).
///
/// # Example
///
/// ```
/// use opentla_check::{check_invariant, explore, ExploreOptions, GuardedAction, Init, System};
/// use opentla_kernel::{Domain, Expr, Value, Vars};
///
/// # fn main() -> Result<(), opentla_check::CheckError> {
/// let mut vars = Vars::new();
/// let x = vars.declare("x", Domain::int_range(0, 3));
/// let incr = GuardedAction::new(
///     "incr",
///     Expr::var(x).lt(Expr::int(3)),
///     vec![(x, Expr::var(x).add(Expr::int(1)))],
/// );
/// let sys = System::new(vars, Init::new([(x, Value::Int(0))]), vec![incr]);
/// let graph = explore(&sys, &ExploreOptions::default())?;
/// assert!(check_invariant(&sys, &graph, &Expr::var(x).le(Expr::int(3)))?.holds());
/// let verdict = check_invariant(&sys, &graph, &Expr::var(x).lt(Expr::int(3)))?;
/// assert_eq!(verdict.counterexample().unwrap().states().len(), 4);
/// # Ok(())
/// # }
/// ```
pub fn check_invariant(
    system: &System,
    graph: &StateGraph,
    pred: &Expr,
) -> Result<Verdict, CheckError> {
    for (id, s) in graph.states().iter().enumerate() {
        if !pred.holds_state(s)? {
            return Ok(Verdict::Violated(trace_counterexample(
                system,
                graph,
                id,
                format!("state invariant violated: {}", pred.display(system.vars())),
            )));
        }
    }
    Ok(Verdict::Holds)
}

/// Checks that every reachable transition satisfies `[action]_sub`
/// (i.e. is an `action` step or leaves `sub` unchanged). Stuttering
/// steps satisfy `[A]_v` trivially, so only graph edges are examined.
///
/// # Errors
///
/// Propagates evaluation errors. Rejects reduced graphs with
/// [`CheckError::Precondition`]: a reduced graph's edges are not the
/// system's transition relation (symmetry edges connect canonical
/// representatives rather than genuine step endpoints), so a per-edge
/// property cannot be
/// decided on one — re-explore with [`Reduction::none`](crate::Reduction::none).
pub fn check_step_invariant(
    system: &System,
    graph: &StateGraph,
    action: &Expr,
    sub: &[VarId],
) -> Result<Verdict, CheckError> {
    if graph.is_reduced() {
        return Err(CheckError::Precondition {
            message: "step invariants need the full transition relation; \
                      this graph was explored under a Reduction (re-explore \
                      with Reduction::none())"
                .to_string(),
        });
    }
    let boxed = box_action(action.clone(), sub);
    for (id, s) in graph.states().iter().enumerate() {
        for e in graph.edges(id) {
            let t = graph.state(e.target);
            if !boxed.holds_action(StatePair::new(s, t))? {
                let mut cx = trace_counterexample(
                    system,
                    graph,
                    id,
                    format!(
                        "step invariant violated by action {}: not a [{}]_v step",
                        system.actions()[e.action].name(),
                        action.display(system.vars()),
                    ),
                );
                // Append the offending step.
                let mut states = cx.states().to_vec();
                let mut actions = cx.actions().to_vec();
                states.push(t.clone());
                actions.push(Some(system.actions()[e.action].name().to_string()));
                cx = Counterexample::new(cx.reason().to_string(), states, actions, None);
                return Ok(Verdict::Violated(cx));
            }
        }
    }
    Ok(Verdict::Holds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, ExploreOptions, GuardedAction, Init};
    use opentla_kernel::{Domain, Value, Vars};

    fn counter(max: i64) -> System {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, max));
        let incr = GuardedAction::new(
            "incr",
            Expr::var(x).lt(Expr::int(max)),
            vec![(x, Expr::var(x).add(Expr::int(1)))],
        );
        System::new(vars, Init::new([(x, Value::Int(0))]), vec![incr])
    }

    #[test]
    fn invariant_holds() {
        let sys = counter(3);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let x = sys.vars().find("x").unwrap();
        let v = check_invariant(&sys, &graph, &Expr::var(x).le(Expr::int(3))).unwrap();
        assert!(v.holds());
        assert!(v.counterexample().is_none());
    }

    #[test]
    fn invariant_violation_has_shortest_trace() {
        let sys = counter(5);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let x = sys.vars().find("x").unwrap();
        let v = check_invariant(&sys, &graph, &Expr::var(x).lt(Expr::int(3))).unwrap();
        let cx = v.counterexample().expect("violated");
        // Shortest trace to x = 3 has 4 states: 0 1 2 3.
        assert_eq!(cx.states().len(), 4);
        assert_eq!(cx.states().last().unwrap().get(x), &Value::Int(3));
        assert!(cx.reason().contains("invariant"));
    }

    #[test]
    fn step_invariant() {
        let sys = counter(3);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let x = sys.vars().find("x").unwrap();
        // Every step increments: x' = x + 1 (or stutters).
        let incr = Expr::prime(x).eq(Expr::var(x).add(Expr::int(1)));
        assert!(check_step_invariant(&sys, &graph, &incr, &[x])
            .unwrap()
            .holds());
        // Every step decrements: violated immediately.
        let decr = Expr::prime(x).eq(Expr::var(x).sub(Expr::int(1)));
        let v = check_step_invariant(&sys, &graph, &decr, &[x]).unwrap();
        let cx = v.counterexample().expect("violated");
        assert_eq!(cx.states().len(), 2);
        assert!(cx.reason().contains("incr"));
    }

    #[test]
    fn counterexamples_are_semantically_valid() {
        // The violating trace, stutter-extended, must fail the formula
        // □(x < 3) under the trace semantics.
        let sys = counter(5);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let x = sys.vars().find("x").unwrap();
        let v = check_invariant(&sys, &graph, &Expr::var(x).lt(Expr::int(3))).unwrap();
        let lasso = v.counterexample().unwrap().to_lasso();
        let f = opentla_kernel::Formula::pred(Expr::var(x).lt(Expr::int(3))).always();
        let ctx = opentla_semantics::EvalCtx::default();
        assert!(!opentla_semantics::eval(&f, &lasso, &ctx).unwrap());
        // And it must be a real behavior of the system: satisfy the
        // system's safety formula.
        let spec = opentla_kernel::Formula::pred(sys.init().as_pred()).and(
            opentla_kernel::Formula::act_box(sys.next_expr(), sys.frame()),
        );
        assert!(opentla_semantics::eval(&spec, &lasso, &ctx).unwrap());
    }
}
