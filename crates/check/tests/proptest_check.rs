//! Property-based tests for the model checker over randomly generated
//! guarded-command systems: graph/semantics agreement, invariant
//! verdicts vs brute force, and counterexample replay.

mod support {
    pub mod random_system;
}

use opentla_check::{check_invariant, explore, sample_behavior, ExploreOptions};
use opentla_kernel::{Expr, Formula, StatePair, VarId, Vars};
use opentla_semantics::{eval, EvalCtx};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::random_system::{arb_action_spec, build_system, Family};

const BITS: Family = Family { vars: 2, top: 1 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every edge of the explored graph satisfies the system's
    /// next-state expression, and every pair of distinct reachable
    /// states *not* connected by an edge fails it (graph = relation).
    #[test]
    fn graph_matches_next_expr(specs in proptest::collection::vec(arb_action_spec(BITS), 1..4)) {
        let sys = build_system(BITS, &specs);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let next = sys.next_expr();
        for (id, s) in graph.states().iter().enumerate() {
            let successors: Vec<usize> =
                graph.edges(id).iter().map(|e| e.target).collect();
            for (tid, t) in graph.states().iter().enumerate() {
                let is_edge = successors.contains(&tid);
                let satisfies = next.holds_action(StatePair::new(s, t)).unwrap();
                if is_edge {
                    prop_assert!(satisfies, "edge {id}→{tid} must satisfy N");
                } else if satisfies && s != t {
                    // The relation may also hold for state pairs whose
                    // target equals the source on every updated
                    // variable of some action — those *are* edges
                    // unless the successor is identical. A non-edge
                    // satisfying N with t ≠ s means exploration missed
                    // a successor.
                    prop_assert!(
                        false,
                        "missing edge {id}→{tid}: N holds but not explored"
                    );
                }
            }
        }
    }

    /// Invariant verdicts agree with a brute-force scan of the
    /// reachable states; violated invariants come with a trace that
    /// replays semantically.
    #[test]
    fn invariant_agrees_with_bruteforce(
        specs in proptest::collection::vec(arb_action_spec(BITS), 1..4),
        pv in 0..2i64,
    ) {
        let sys = build_system(BITS, &specs);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let a = sys.vars().find("a").unwrap();
        let inv = Expr::var(a).eq(Expr::int(pv));
        let verdict = check_invariant(&sys, &graph, &inv).unwrap();
        let brute = graph
            .states()
            .iter()
            .all(|s| inv.holds_state(s).unwrap());
        prop_assert_eq!(verdict.holds(), brute);
        if let Some(cx) = verdict.counterexample() {
            // The trace is a behavior of the system violating □inv.
            let lasso = cx.to_lasso();
            let ctx = EvalCtx::default();
            let spec = Formula::pred(sys.init().as_pred())
                .and(Formula::act_box(sys.next_expr(), sys.frame()));
            prop_assert!(eval(&spec, &lasso, &ctx).unwrap());
            prop_assert!(
                !eval(&Formula::pred(inv.clone()).always(), &lasso, &ctx).unwrap()
            );
        }
    }

    /// Sampled behaviors of random systems satisfy the system's safety
    /// formula.
    #[test]
    fn sampled_behaviors_are_behaviors(
        specs in proptest::collection::vec(arb_action_spec(BITS), 1..4),
        seed in any::<u64>(),
    ) {
        let sys = build_system(BITS, &specs);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let spec = Formula::pred(sys.init().as_pred())
            .and(Formula::act_box(sys.next_expr(), sys.frame()));
        let ctx = EvalCtx::default();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let sigma = sample_behavior(&graph, 10, &mut rng);
            prop_assert!(eval(&spec, &sigma, &ctx).unwrap());
        }
    }

    /// Exploration is deterministic: two runs produce identical graphs.
    #[test]
    fn exploration_deterministic(specs in proptest::collection::vec(arb_action_spec(BITS), 1..4)) {
        let sys = build_system(BITS, &specs);
        let g1 = explore(&sys, &ExploreOptions::default()).unwrap();
        let g2 = explore(&sys, &ExploreOptions::default()).unwrap();
        prop_assert_eq!(g1.first_difference(&g2), None);
    }
}

/// Helper: the `VarId` of a name, for readability above.
#[allow(dead_code)]
fn var(vars: &Vars, name: &str) -> VarId {
    vars.find(name).expect("declared")
}
