//! Property-based tests for the liveness check over randomly
//! generated flip-systems carrying randomly sampled fairness sets:
//!
//! * every `Violated` lasso is a fair behaviour of the system that
//!   falsifies the target, judged by `opentla-semantics` — for every
//!   sampled system × fairness set × target;
//! * the strong-fairness removal recursion (the Streett decomposition)
//!   terminates on arbitrary SF sets — the checks return, they don't
//!   spin or overflow;
//! * `LivenessRun.frontier_size` under exhaustion is exact pending
//!   work: deterministic across identical runs, bounded by the graph,
//!   and the run completes monotonically once the budget clears the
//!   true total — no `pending: 0` placeholders masquerading as
//!   progress.

mod support {
    pub mod random_system;
}

use opentla_check::{
    check_liveness, check_liveness_governed, explore, Budget, ExhaustReason, ExploreOptions,
    LiveTarget, Outcome, System, SystemFairness, Verdict,
};
use opentla_kernel::{Expr, Fairness, Formula, VarId};
use opentla_semantics::{eval, EvalCtx};
use proptest::prelude::*;
use support::random_system::{self, arb_action_spec, ActionSpec, Family};

const BITS: Family = Family { vars: 2, top: 1 };

/// Which actions get a fairness requirement, and of which kind.
#[derive(Clone, Debug)]
struct FairSpec {
    action: usize,
    strong: bool,
}

#[derive(Clone, Debug)]
enum TargetSpec {
    Eventually(i64),
    AlwaysEventually(i64),
    LeadsTo(i64, i64),
    FairFirst { strong: bool },
}

fn arb_fair_spec(actions: usize) -> impl Strategy<Value = FairSpec> {
    (0..actions, any::<bool>()).prop_map(|(action, strong)| FairSpec { action, strong })
}

fn arb_target() -> impl Strategy<Value = TargetSpec> {
    prop_oneof![
        (0..2i64).prop_map(TargetSpec::Eventually),
        (0..2i64).prop_map(TargetSpec::AlwaysEventually),
        (0..2i64, 0..2i64).prop_map(|(p, q)| TargetSpec::LeadsTo(p, q)),
        any::<bool>().prop_map(|strong| TargetSpec::FairFirst { strong }),
    ]
}

/// A two-bit flip-system from the sampled action specs, with the
/// sampled fairness requirements attached (subscript = the variables
/// the action writes).
fn build_system(specs: &[ActionSpec], fair: &[FairSpec]) -> System {
    let mut sys = random_system::build_system(BITS, specs);
    for f in fair {
        let i = f.action % specs.len();
        let subscript: Vec<VarId> = sys.actions()[i].touched().collect();
        let req = if f.strong {
            SystemFairness::strong(vec![i], subscript)
        } else {
            SystemFairness::weak(vec![i], subscript)
        };
        sys = sys.with_fairness(req);
    }
    sys
}

/// The sampled target and the temporal formula it checks.
fn build_target(sys: &System, spec: &TargetSpec) -> (LiveTarget, Formula) {
    let a = sys.vars().find("a").unwrap();
    let a_is = |v: i64| Expr::var(a).eq(Expr::int(v));
    match spec {
        TargetSpec::Eventually(v) => (
            LiveTarget::Eventually(a_is(*v)),
            Formula::pred(a_is(*v)).eventually(),
        ),
        TargetSpec::AlwaysEventually(v) => (
            LiveTarget::AlwaysEventually(a_is(*v)),
            Formula::pred(a_is(*v)).eventually().always(),
        ),
        TargetSpec::LeadsTo(p, q) => (
            LiveTarget::LeadsTo(a_is(*p), a_is(*q)),
            Formula::pred(a_is(*p)).leads_to(Formula::pred(a_is(*q))),
        ),
        TargetSpec::FairFirst { strong } => {
            let frame = sys.frame();
            let ga = &sys.actions()[0];
            let expr = ga.action_expr(&frame);
            let sub: Vec<VarId> = ga.touched().collect();
            let fair = if *strong {
                Fairness::strong(expr, sub)
            } else {
                Fairness::weak(expr, sub)
            };
            (LiveTarget::fair(fair.clone()), Formula::Fair(fair))
        }
    }
}

/// A `Violated` verdict's lasso must satisfy the system's formula,
/// fairness included, and falsify the target.
fn assert_real_violation(
    sys: &System,
    verdict: &Verdict,
    target: &Formula,
) -> Result<(), TestCaseError> {
    let Some(cx) = verdict.counterexample() else {
        return Ok(());
    };
    let lasso = cx.to_lasso();
    let ctx = EvalCtx::with_universe(sys.universe().clone());
    prop_assert!(eval(&sys.formula(), &lasso, &ctx).unwrap(), "not a fair behaviour");
    prop_assert!(!eval(target, &lasso, &ctx).unwrap(), "the target holds on the lasso");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On random systems with random fairness sets, for every target
    /// shape, a violation is one by the trace semantics.
    #[test]
    fn violated_lassos_are_fair_behaviours_that_falsify_the_target(
        specs in proptest::collection::vec(arb_action_spec(BITS), 1..4),
        fair in proptest::collection::vec(arb_fair_spec(3), 0..3),
        tspec in arb_target(),
    ) {
        let sys = build_system(&specs, &fair);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let (target, formula) = build_target(&sys, &tspec);
        let verdict = check_liveness(&sys, &graph, &target).unwrap();
        assert_real_violation(&sys, &verdict, &formula)?;
    }

    /// The SF-removal recursion terminates on arbitrary strong-fairness
    /// sets: stacking SF requirements on every action still returns a
    /// verdict (and a violation is a real one).
    #[test]
    fn sf_recursion_terminates(
        specs in proptest::collection::vec(arb_action_spec(BITS), 1..4),
        extra_weak in any::<bool>(),
    ) {
        // All-SF fairness maximizes the Streett decomposition depth.
        let all_sf: Vec<FairSpec> = (0..specs.len())
            .map(|action| FairSpec { action, strong: true })
            .collect();
        let mut sys = build_system(&specs, &all_sf);
        if extra_weak {
            let sub: Vec<VarId> = sys.actions()[0].touched().collect();
            sys = sys.with_fairness(SystemFairness::weak(vec![0], sub));
        }
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let frame = sys.frame();
        let ga = &sys.actions()[specs.len() - 1];
        let fair = Fairness::strong(ga.action_expr(&frame), ga.touched().collect());
        let verdict = check_liveness(&sys, &graph, &LiveTarget::fair(fair.clone())).unwrap();
        assert_real_violation(&sys, &verdict, &Formula::Fair(fair))?;
    }

    /// `frontier_size` under exhaustion is exact pending work:
    /// deterministic across identical runs, bounded by the graph's
    /// state count, and gone the moment the budget clears the true
    /// charge total (completion is monotone in the budget).
    #[test]
    fn exhaustion_frontier_is_exact_and_monotone(
        specs in proptest::collection::vec(arb_action_spec(BITS), 1..4),
        fair in proptest::collection::vec(arb_fair_spec(3), 0..2),
        tspec in arb_target(),
    ) {
        let sys = build_system(&specs, &fair);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let (target, _) = build_target(&sys, &tspec);
        let mut completed = false;
        for t in 1..512usize {
            let run_at = |t: usize| {
                check_liveness_governed(&sys, &graph, &target, &Budget::default().transitions(t))
                    .unwrap()
            };
            let run = run_at(t);
            if run.outcome.is_complete() {
                completed = true;
                prop_assert!(run.verdict.is_some());
                break;
            }
            // Once a budget suffices, every larger budget must too.
            prop_assert!(!completed, "completion must be monotone in the budget");
            let frontier = match &run.outcome {
                Outcome::Exhausted {
                    reason: ExhaustReason::TransitionLimit { .. },
                    frontier_size,
                    ..
                } => *frontier_size,
                other => panic!("unexpected outcome: {other:?}"),
            };
            prop_assert!(
                frontier <= graph.len(),
                "pending work cannot exceed the phase's item count"
            );
            // Exactness ⇒ determinism: the same budget reports the
            // same pending count.
            let again = match &run_at(t).outcome {
                Outcome::Exhausted { frontier_size, .. } => *frontier_size,
                other => panic!("unexpected outcome: {other:?}"),
            };
            prop_assert_eq!(again, frontier);
        }
        prop_assert!(completed, "512 transitions must complete a 4-state check");
    }
}
