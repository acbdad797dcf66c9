//! Sampling real behaviors of a system.
//!
//! Property-based tests want behaviors that the system can actually
//! take (arbitrary random lassos mostly violate any interesting spec).
//! [`sample_behavior`] random-walks the reachability graph and closes
//! the walk into a lasso — on a revisited state when possible, by
//! stuttering otherwise — so the result *always* satisfies the
//! system's safety part (though not necessarily its fairness).

use crate::StateGraph;
use opentla_semantics::Lasso;
use rand::Rng;

/// Random-walks `graph` from a random initial state for at most
/// `max_steps` transitions and closes the walk into a lasso.
///
/// The returned behavior satisfies `Init ∧ □[N]_v` by construction;
/// fairness is *not* guaranteed (a walk may stop while actions remain
/// enabled).
///
/// # Panics
///
/// Panics if the graph has no initial states (exploration would have
/// failed earlier).
pub fn sample_behavior<R: Rng + ?Sized>(
    graph: &StateGraph,
    max_steps: usize,
    rng: &mut R,
) -> Lasso {
    assert!(!graph.init().is_empty(), "graph must have initial states");
    let start = graph.init()[rng.gen_range(0..graph.init().len())];
    let mut ids = vec![start];
    for _ in 0..max_steps {
        let cur = *ids.last().expect("nonempty");
        let edges = graph.edges(cur);
        if edges.is_empty() {
            break;
        }
        // Occasionally stutter in place to exercise stuttering steps.
        if rng.gen_ratio(1, 8) {
            ids.push(cur);
            continue;
        }
        ids.push(edges[rng.gen_range(0..edges.len())].target as usize);
    }
    // Close the lasso: loop back to the first earlier occurrence of
    // the final state if there is one, otherwise stutter on it.
    let last = *ids.last().expect("nonempty");
    let first_occurrence = ids
        .iter()
        .position(|s| *s == last)
        .expect("the last element is present");
    if first_occurrence == ids.len() - 1 {
        // The final state is new: stutter on it forever.
        let states = ids.iter().map(|i| graph.materialize(*i)).collect();
        Lasso::new(states, ids.len() - 1).expect("walk is nonempty")
    } else {
        // Drop the duplicated final state; the wrap step re-enters at
        // its first occurrence, so every step of the lasso (including
        // the wrap) is a real step of the walk.
        let states = ids[..ids.len() - 1]
            .iter()
            .map(|i| graph.materialize(*i))
            .collect();
        Lasso::new(states, first_occurrence).expect("walk is nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, ExploreOptions, GuardedAction, Init, System};
    use opentla_kernel::{Domain, Expr, Formula, Value, Vars};
    use opentla_semantics::{eval, EvalCtx};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toggle_system() -> System {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        let y = vars.declare("y", Domain::int_range(0, 2));
        let toggle = GuardedAction::new(
            "toggle",
            Expr::bool(true),
            vec![(x, Expr::int(1).sub(Expr::var(x)))],
        );
        let spin = GuardedAction::new(
            "spin",
            Expr::bool(true),
            vec![(
                y,
                Expr::var(y)
                    .eq(Expr::int(2))
                    .ite(Expr::int(0), Expr::var(y).add(Expr::int(1))),
            )],
        );
        System::new(
            vars,
            Init::new([(x, Value::Int(0)), (y, Value::Int(0))]),
            vec![toggle, spin],
        )
    }

    #[test]
    fn samples_satisfy_the_safety_part() {
        let sys = toggle_system();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let safety =
            Formula::pred(sys.init().as_pred()).and(Formula::act_box(sys.next_expr(), sys.frame()));
        let ctx = EvalCtx::default();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..200 {
            let sigma = sample_behavior(&graph, 12, &mut rng);
            assert!(
                eval(&safety, &sigma, &ctx).unwrap(),
                "sampled behavior must satisfy Init ∧ □[N]_v: {sigma:?}"
            );
        }
    }

    #[test]
    fn samples_vary() {
        let sys = toggle_system();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let distinct: std::collections::HashSet<String> = (0..50)
            .map(|_| format!("{:?}", sample_behavior(&graph, 10, &mut rng)))
            .collect();
        assert!(distinct.len() > 10, "got {} distinct walks", distinct.len());
    }
}
