//! State and step invariants.

use crate::compiled::{CompiledExpr, EvalScratch};
use crate::{CheckError, Counterexample, StateGraph, System, Verdict};
use opentla_kernel::{box_action, Expr, VarId};

/// Builds the counterexample trace leading to `id`.
pub(crate) fn trace_counterexample(
    system: &System,
    graph: &StateGraph,
    id: usize,
    reason: String,
) -> Counterexample {
    let trace = graph.trace_to(id);
    let states: Vec<_> = trace.iter().map(|(_, s)| graph.materialize(*s)).collect();
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
    let (program, scratch) = (CompiledExpr::compile(pred), &mut EvalScratch::new());
    for id in 0..graph.len() {
        if !program.holds(&graph.view(id), scratch)? {
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
/// Propagates evaluation errors.
pub fn check_step_invariant(
    system: &System,
    graph: &StateGraph,
    action: &Expr,
    sub: &[VarId],
) -> Result<Verdict, CheckError> {
    let boxed = CompiledExpr::compile(&box_action(action.clone(), sub));
    let scratch = &mut EvalScratch::new();
    for id in 0..graph.len() {
        for e in graph.edges(id) {
            let target = e.target as usize;
            if !boxed.holds_step(&graph.view(id), &graph.view(target), scratch)? {
                let mut cx = trace_counterexample(
                    system,
                    graph,
                    id,
                    format!(
                        "step invariant violated by action {}: not a [{}]_v step",
                        system.actions()[e.action as usize].name(),
                        action.display(system.vars()),
                    ),
                );
                // Append the offending step.
                let mut states = cx.states().to_vec();
                let mut actions = cx.actions().to_vec();
                states.push(graph.materialize(target));
                actions.push(Some(system.actions()[e.action as usize].name().to_string()));
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
