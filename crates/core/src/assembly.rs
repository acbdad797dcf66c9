//! Closed products: assembling a complete system from components.
//!
//! Section 5 of the paper observes that each hypothesis of the
//! Composition Theorem has the form `P ∧ ∧ Q_j ⇒ R` where
//! `P ∧ ∧ Q_j` "is equivalent to a canonical-form specification of a
//! complete system". [`closed_product`] builds that complete system as
//! a [`System`] the model checker can run:
//!
//! * the actions are the union of the components' actions — each step
//!   is a step of exactly one component, which *structurally enforces*
//!   the disjointness guarantee `G = Disjoint(⟨outputs⟩, …)` that
//!   interleaving composition needs (Section 2.3, formula (4) of the
//!   appendix);
//! * the initial condition is the conjunction of the components';
//! * the fairness conditions are the union of the components'.
//!
//! Variables in the registry owned by no component (e.g. the *target*
//! specification's internal variables, which a refinement mapping
//! eliminates) are pinned to a fixed value so they do not inflate the
//! state space.

use crate::{ComponentSpec, SpecError};
use opentla_check::{Init, System, SystemFairness};
use opentla_kernel::{VarId, Vars};
use std::collections::HashMap;

/// Builds the complete system `P ∧ ∧ Q_j` from components.
///
/// Every variable of `vars` must be owned (output or internal) by at
/// most one component; unowned variables are pinned to the first value
/// of their domain. Every input of every component must be produced
/// (as an output) by some other component — otherwise the system is
/// not closed.
///
/// # Errors
///
/// * [`SpecError::DuplicateOwnership`] if two components own a
///   variable;
/// * [`SpecError::NotClosed`] if an input is produced by no component.
///
/// # Example
///
/// ```
/// use opentla::{closed_product, ComponentSpec};
/// use opentla_check::{explore, ExploreOptions, GuardedAction, Init};
/// use opentla_kernel::{Domain, Expr, Value, Vars};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut vars = Vars::new();
/// let ping = vars.declare("ping", Domain::bits());
/// let pong = vars.declare("pong", Domain::bits());
/// let player = |name: &str, mine, theirs| {
///     ComponentSpec::builder(name)
///         .outputs([mine]).inputs([theirs])
///         .init(Init::new([(mine, Value::Int(0))]))
///         .action(GuardedAction::new(
///             "echo",
///             Expr::bool(true),
///             vec![(mine, Expr::var(theirs))],
///         ))
///         .build()
/// };
/// let sys = closed_product(&vars, &[&player("a", ping, pong)?, &player("b", pong, ping)?])?;
/// let graph = explore(&sys, &ExploreOptions::default())?;
/// assert_eq!(graph.len(), 1); // both echo zeros forever
/// # Ok(())
/// # }
/// ```
pub fn closed_product(vars: &Vars, components: &[&ComponentSpec]) -> Result<System, SpecError> {
    // Ownership check.
    let mut owner: HashMap<VarId, &str> = HashMap::new();
    for c in components {
        for v in c.owned() {
            if let Some(prev) = owner.insert(v, c.name()) {
                return Err(SpecError::DuplicateOwnership {
                    var: v,
                    owners: (prev.to_string(), c.name().to_string()),
                });
            }
        }
    }
    // Closedness: inputs must be someone's output.
    for c in components {
        for v in c.inputs() {
            if !owner.contains_key(v) {
                return Err(SpecError::NotClosed {
                    component: c.name().to_string(),
                    var: *v,
                });
            }
        }
    }
    // Initial condition: merge, pinning unowned variables.
    let mut init = Init::new([]);
    for c in components {
        init = init.merge(c.init());
    }
    let pinned: Vec<(VarId, opentla_kernel::Value)> = vars
        .iter()
        .filter(|v| !owner.contains_key(v))
        .map(|v| (v, vars.domain(v).values()[0].clone()))
        .collect();
    init = init.merge(&Init::new(pinned));

    // Actions and fairness, with index offsets.
    let mut actions = Vec::new();
    let mut fairness: Vec<SystemFairness> = Vec::new();
    for c in components {
        let offset = actions.len();
        actions.extend(c.actions().iter().cloned());
        for (kind, ids) in c.fairness() {
            let shifted: Vec<usize> = ids.iter().map(|i| i + offset).collect();
            fairness.push(SystemFairness {
                kind: *kind,
                action_ids: shifted,
                sub: c.owned(),
            });
        }
    }
    let mut system = System::new(vars.clone(), init, actions);
    for f in fairness {
        system = system.with_fairness(f);
    }
    Ok(system)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_check::{explore, ExploreOptions, GuardedAction};
    use opentla_kernel::{Domain, Expr, Value};

    /// Π_c and Π_d from the paper's introduction: each repeatedly
    /// copies the other's output.
    fn fig1_processes() -> (Vars, ComponentSpec, ComponentSpec) {
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        let pc = ComponentSpec::builder("Pi_c")
            .outputs([c])
            .inputs([d])
            .init(Init::new([(c, Value::Int(0))]))
            .action(GuardedAction::new(
                "copy_d",
                Expr::bool(true),
                vec![(c, Expr::var(d))],
            ))
            .build()
            .unwrap();
        let pd = ComponentSpec::builder("Pi_d")
            .outputs([d])
            .inputs([c])
            .init(Init::new([(d, Value::Int(0))]))
            .action(GuardedAction::new(
                "copy_c",
                Expr::bool(true),
                vec![(d, Expr::var(c))],
            ))
            .build()
            .unwrap();
        (vars, pc, pd)
    }

    #[test]
    fn product_of_fig1_processes() {
        let (vars, pc, pd) = fig1_processes();
        let sys = closed_product(&vars, &[&pc, &pd]).unwrap();
        assert_eq!(sys.actions().len(), 2);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        // Both start at 0 and only ever copy each other: single state.
        assert_eq!(graph.len(), 1);
    }

    #[test]
    fn duplicate_ownership_rejected() {
        let (vars, pc, _) = fig1_processes();
        let err = closed_product(&vars, &[&pc, &pc]);
        assert!(matches!(err, Err(SpecError::DuplicateOwnership { .. })));
    }

    #[test]
    fn open_input_rejected() {
        let (vars, pc, _) = fig1_processes();
        // Π_c alone reads d, which nobody produces.
        let err = closed_product(&vars, &[&pc]);
        assert!(matches!(err, Err(SpecError::NotClosed { .. })));
    }

    #[test]
    fn unowned_vars_are_pinned() {
        let (mut vars, pc, pd) = fig1_processes();
        // An abstract variable used only by a target spec.
        let ghost = vars.declare("ghost", Domain::int_range(0, 9));
        let sys = closed_product(&vars, &[&pc, &pd]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        // Still a single state: ghost pinned to 0, not enumerated.
        assert_eq!(graph.len(), 1);
        assert_eq!(graph.state(0).get(ghost), &Value::Int(0));
    }

    #[test]
    fn fairness_offsets() {
        let mut vars = Vars::new();
        let a = vars.declare("a", Domain::bits());
        let b = vars.declare("b", Domain::bits());
        let one = ComponentSpec::builder("one")
            .outputs([a])
            .init(Init::new([(a, Value::Int(0))]))
            .action(GuardedAction::new(
                "seta",
                Expr::var(a).eq(Expr::int(0)),
                vec![(a, Expr::int(1))],
            ))
            .weak_fairness([0])
            .build()
            .unwrap();
        let two = ComponentSpec::builder("two")
            .outputs([b])
            .init(Init::new([(b, Value::Int(0))]))
            .action(GuardedAction::new(
                "setb",
                Expr::var(b).eq(Expr::int(0)),
                vec![(b, Expr::int(1))],
            ))
            .weak_fairness([0])
            .build()
            .unwrap();
        let sys = closed_product(&vars, &[&one, &two]).unwrap();
        assert_eq!(sys.fairness().len(), 2);
        // Second component's fairness refers to the offset action.
        assert_eq!(sys.fairness()[1].action_ids, vec![1]);
        assert_eq!(sys.fairness()[1].sub, vec![b]);
    }
}
