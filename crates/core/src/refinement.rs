//! Complete-system refinement under a refinement mapping.
//!
//! Section A.4 of the paper proves `CDQ ⇒ CQ[dbl]` "by standard TLA
//! reasoning using a simple refinement mapping". This module packages
//! that standard reasoning: a concrete [`System`] implements the
//! conjunction of abstract [`ComponentSpec`]s when
//!
//! 1. (safety) every reachable state/transition satisfies the mapped
//!    initial conditions and step boxes — step simulation; and
//! 2. (liveness) every fair behavior satisfies each abstract fairness
//!    condition, checked with the *abstract* enabledness mapped through
//!    the refinement (`Enabled` does not commute with substitution).

use crate::{ComponentSpec, SpecError};
use opentla_check::{
    check_liveness, check_simulation, LiveTarget, SimulationReport, StateGraph, System, Verdict,
};
use opentla_kernel::{Formula, Substitution};

/// The result of a complete-system refinement check.
#[derive(Clone, Debug)]
pub struct RefinementReport {
    /// The safety (step-simulation) half.
    pub simulation: SimulationReport,
    /// One verdict per abstract fairness condition, labeled
    /// `"component/fairness[k]"`.
    pub liveness: Vec<(String, Verdict)>,
}

impl RefinementReport {
    /// Whether both halves hold.
    pub fn holds(&self) -> bool {
        self.simulation.holds() && self.liveness.iter().all(|(_, v)| v.holds())
    }
}

/// Checks that every behavior of `system` implements the conjunction
/// of the `abstracts` component specifications, with the target
/// components' internal variables eliminated by `mapping`.
///
/// This is the paper's complete-system refinement (its step 3 /
/// Section A.4), exposed as a standalone rule; `opentla-queue`'s
/// `DoubleQueue::prove_refinement` is an instance.
///
/// # Errors
///
/// Engine errors only ([`SpecError`]); refuted refinements are reported
/// in the [`RefinementReport`].
pub fn check_component_refinement(
    system: &System,
    graph: &StateGraph,
    abstracts: &[&ComponentSpec],
    mapping: &Substitution,
) -> Result<RefinementReport, SpecError> {
    // Safety: the conjunction of the abstract safety formulas, mapped.
    let target = Formula::all(abstracts.iter().map(|c| c.safety_formula()));
    let simulation = check_simulation(system, graph, &target, mapping)?;

    // Liveness: each abstract fairness condition under the mapping,
    // with abstract enabledness.
    let mut liveness = Vec::new();
    for c in abstracts {
        for k in 0..c.fairness().len() {
            let verdict = check_liveness(
                system,
                graph,
                &LiveTarget::fair_mapped(
                    c.fairness_condition(k),
                    c.fairness_enabled_expr(k),
                    mapping.clone(),
                ),
            )?;
            liveness.push((format!("{}/fairness[{k}]", c.name()), verdict));
        }
    }
    Ok(RefinementReport {
        simulation,
        liveness,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_product;
    use opentla_check::{explore, ExploreOptions, GuardedAction, Init};
    use opentla_kernel::{Domain, Expr, Value, VarId, Vars};

    /// A two-phase counter (lo/hi bits) refining an abstract mod-4
    /// counter with fairness.
    fn setup() -> (Vars, ComponentSpec, ComponentSpec, VarId) {
        let mut vars = Vars::new();
        let lo = vars.declare("lo", Domain::bits());
        let hi = vars.declare("hi", Domain::bits());
        let n = vars.declare("n", Domain::int_range(0, 3));
        let concrete = ComponentSpec::builder("bits")
            .outputs([lo, hi])
            .init(Init::new([(lo, Value::Int(0)), (hi, Value::Int(0))]))
            .action(GuardedAction::new(
                "tick",
                Expr::bool(true),
                vec![
                    (lo, Expr::int(1).sub(Expr::var(lo))),
                    (
                        hi,
                        Expr::var(lo)
                            .eq(Expr::int(1))
                            .ite(Expr::int(1).sub(Expr::var(hi)), Expr::var(hi)),
                    ),
                ],
            ))
            .weak_fairness([0])
            .build()
            .unwrap();
        let abstract_counter = ComponentSpec::builder("counter")
            .outputs([n])
            .init(Init::new([(n, Value::Int(0))]))
            .action(GuardedAction::new(
                "incr",
                Expr::bool(true),
                vec![(
                    n,
                    Expr::var(n)
                        .eq(Expr::int(3))
                        .ite(Expr::int(0), Expr::var(n).add(Expr::int(1))),
                )],
            ))
            .weak_fairness([0])
            .build()
            .unwrap();
        (vars, concrete, abstract_counter, n)
    }

    #[test]
    fn counter_refinement_holds() {
        let (vars, concrete, abstract_counter, n) = setup();
        let sys = closed_product(&vars, &[&concrete]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let lo = vars.find("lo").unwrap();
        let hi = vars.find("hi").unwrap();
        let mapping = Substitution::new([(n, Expr::int(2).mul(Expr::var(hi)).add(Expr::var(lo)))]);
        let report =
            check_component_refinement(&sys, &graph, &[&abstract_counter], &mapping).unwrap();
        assert!(report.holds(), "{:?}", report);
        assert_eq!(report.liveness.len(), 1);
        assert!(report.liveness[0].0.contains("counter"));
    }

    #[test]
    fn liveness_refinement_fails_without_concrete_fairness() {
        // Same refinement but the concrete system drops its WF: the
        // abstract counter's fairness cannot be discharged (the system
        // may stutter forever while the abstract incr stays enabled).
        let (vars, concrete, abstract_counter, n) = setup();
        let unfair = ComponentSpec::builder("bits-unfair")
            .outputs(concrete.outputs().to_vec())
            .init(concrete.init().clone())
            .actions(concrete.actions().to_vec())
            .build()
            .unwrap();
        let sys = closed_product(&vars, &[&unfair]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let lo = vars.find("lo").unwrap();
        let hi = vars.find("hi").unwrap();
        let mapping = Substitution::new([(n, Expr::int(2).mul(Expr::var(hi)).add(Expr::var(lo)))]);
        let report =
            check_component_refinement(&sys, &graph, &[&abstract_counter], &mapping).unwrap();
        assert!(report.simulation.holds(), "safety half is unaffected");
        assert!(!report.holds(), "liveness half must fail");
        let (_, verdict) = &report.liveness[0];
        assert!(verdict.counterexample().is_some());
    }
}
