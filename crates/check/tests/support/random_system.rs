//! Random guarded-command systems for the property tests: a few
//! integer variables, all initially 0, driven by sampled actions of the
//! shape `x = c → y' = e`. One generator for both families the suites
//! use, so every binary that imports it uses all of it.

use opentla_check::{GuardedAction, Init, System};
use opentla_kernel::{Domain, Expr, Value, VarId, Vars};
use proptest::prelude::*;

/// `vars` variables (`a`, `b`, …, at most three) over `0..=top`. The
/// suites use two: bits (`vars: 2, top: 1`), where a `Step` toggles
/// its target, and small integers (`vars: 3, top: 3`), where a `Step`
/// increments its target and is guarded so that the successor stays in
/// the domain.
#[derive(Clone, Copy, Debug)]
pub struct Family {
    pub vars: usize,
    pub top: i64,
}

/// One sampled action: `guard_var = guard_val → target_var' = update`.
#[derive(Clone, Debug)]
pub struct ActionSpec {
    guard_var: usize,
    guard_val: i64,
    target_var: usize,
    update: UpdateKind,
}

#[derive(Clone, Debug)]
enum UpdateKind {
    Constant(i64),
    /// The value of the next variable, cyclically.
    CopyOther,
    Step,
}

/// Guard values and constants are drawn from `0..vars`, which lies
/// inside the domain of both families.
pub fn arb_action_spec(family: Family) -> impl Strategy<Value = ActionSpec> {
    let (n, values) = (family.vars, family.vars as i64);
    (
        0..n,
        0..values,
        0..n,
        prop_oneof![
            (0..values).prop_map(UpdateKind::Constant),
            Just(UpdateKind::CopyOther),
            Just(UpdateKind::Step),
        ],
    )
        .prop_map(|(guard_var, guard_val, target_var, update)| ActionSpec {
            guard_var,
            guard_val,
            target_var,
            update,
        })
}

/// The system of `family` whose actions are `act0`, `act1`, … as
/// sampled.
pub fn build_system(family: Family, specs: &[ActionSpec]) -> System {
    let mut vars = Vars::new();
    let ids: Vec<VarId> = ["a", "b", "c"][..family.vars]
        .iter()
        .map(|name| vars.declare(*name, Domain::int_range(0, family.top)))
        .collect();
    let actions: Vec<GuardedAction> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let target = ids[spec.target_var];
            let mut guard = Expr::var(ids[spec.guard_var]).eq(Expr::int(spec.guard_val));
            let update = match spec.update {
                UpdateKind::Constant(v) => Expr::int(v),
                UpdateKind::CopyOther => Expr::var(ids[(spec.target_var + 1) % ids.len()]),
                UpdateKind::Step if family.top == 1 => Expr::int(1).sub(Expr::var(target)),
                UpdateKind::Step => {
                    guard = guard.and(Expr::var(target).lt(Expr::int(family.top)));
                    Expr::var(target).add(Expr::int(1))
                }
            };
            GuardedAction::new(format!("act{i}"), guard, vec![(target, update)])
        })
        .collect();
    let init = Init::new(ids.iter().map(|v| (*v, Value::Int(0))));
    System::new(vars, init, actions)
}
