//! Packed stepping against its oracle, the interpreter: at every
//! reachable state of random guarded-command systems, the successors
//! `CompiledSystem::for_each_packed_successor` hands out — each a packed
//! row with its effects written in, unpacked — are `System::successors`,
//! in action order, and where the interpreter fails, packed stepping
//! fails with the same error (kind, action, variable, value).
//!
//! The systems are the check crate's random ones (`support/
//! random_system.rs`, both families) with a few sampled faulty actions
//! beside them: an update that leaves its domain, updates and guards
//! that divide by a variable or take the head of an integer, a swap (two
//! effects), an action with no update, and one whose guard reads a
//! variable no state has (no table: every lookup evaluates). Each state
//! is stepped on a *cold* table (a fresh memo) and on a *warm* one (one
//! memo over every state, twice), so a wrong entry is read back and an
//! error cached where it should have been evaluated again shows up as a
//! different answer. The test counts what it met, so a generator that
//! stopped reaching an outcome fails too.

mod support {
    pub mod random_system;
}

use opentla_check::{CheckError, CompiledSystem, GuardedAction, StepMemo, System};
use opentla_kernel::{Domain, EvalError, Expr, PackedLayout, State, VarId};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::ops::ControlFlow;
use std::sync::Mutex;
use support::random_system::{arb_action_spec, build_system, ActionSpec, Family};

const BITS: Family = Family { vars: 2, top: 1 };
const SMALL_INTS: Family = Family { vars: 3, top: 3 };

/// A sampled faulty action: `guard_var = guard_val → …` of one kind.
#[derive(Clone, Debug)]
struct Fault {
    kind: usize,
    guard_var: usize,
    guard_val: i64,
    target: usize,
    other: usize,
}

const FAULT_KINDS: usize = 7;

fn arb_fault(family: Family) -> impl Strategy<Value = Fault> {
    let n = family.vars;
    (0..FAULT_KINDS, 0..n, 0..family.top + 1, 0..n, 0..n).prop_map(
        |(kind, guard_var, guard_val, target, other)| Fault {
            kind,
            guard_var,
            guard_val,
            target,
            other,
        },
    )
}

/// The sampled system of `family` with the faults' actions after its
/// own.
fn faulty_system(family: Family, specs: &[ActionSpec], faults: &[Fault]) -> System {
    let base = build_system(family, specs);
    let ids: Vec<VarId> = base.vars().iter().collect();
    // Declared one past the system's variables: no state has its slot.
    let ghost = base.vars().clone().declare("ghost", Domain::bits());
    let mut actions = base.actions().to_vec();
    for (i, f) in faults.iter().enumerate() {
        let (t, u) = (ids[f.target], ids[f.other]);
        let guard = Expr::var(ids[f.guard_var]).eq(Expr::int(f.guard_val));
        let (guard, updates) = match f.kind {
            // Steps past the top of its domain.
            0 => (guard, vec![(t, Expr::var(t).add(Expr::int(1)))]),
            // Divides by zero where `u` is 0; in the domain elsewhere.
            1 => (guard, vec![(t, Expr::int(1).div(Expr::var(u)))]),
            // The guard divides by zero where `u` is 0.
            2 => (
                guard.and(Expr::int(1).div(Expr::var(u)).eq(Expr::int(1))),
                vec![(t, Expr::int(0))],
            ),
            // The head of an integer: a type error wherever it fires.
            3 => (guard, vec![(t, Expr::var(t).head())]),
            // Two effects, in update order.
            4 if t != u => (guard, vec![(t, Expr::var(u)), (u, Expr::var(t))]),
            // No update: the successor is the state itself.
            4 | 5 => (guard, vec![]),
            // Reads a variable no state has, after a conjunct that
            // short-circuits it away where the guard variable differs.
            _ => (
                guard.and(Expr::var(ghost).eq(Expr::int(0))),
                vec![(t, Expr::int(0))],
            ),
        };
        actions.push(GuardedAction::new(format!("fault{i}"), guard, updates));
    }
    System::new(base.vars().clone(), base.init().clone(), actions)
}

/// A stepper's answer at one state: the successors in action order, or
/// the error rendered with every field.
type Answer = Result<Vec<(usize, State)>, String>;

/// What packed stepping says at `s`, on `memo`: each child is the row
/// with its effects written in, unpacked.
fn packed(
    compiled: &CompiledSystem<'_>,
    layout: &PackedLayout,
    s: &State,
    memo: &mut StepMemo,
) -> Answer {
    let row = layout
        .pack(s)
        .expect("reachable states are in their domains");
    let mut out = Vec::new();
    let stepped = compiled.for_each_packed_successor(layout, &row, memo, |action, effects| {
        let mut child = row.clone();
        for e in effects {
            layout.write_code(&mut child, e.slot as usize, e.code);
        }
        out.push((action, layout.unpack(&child)));
        ControlFlow::<()>::Continue(())
    });
    stepped.map(|_| out).map_err(|e| format!("{e:?}"))
}

/// The states reachable under the interpreter, breadth-first; a state
/// where it fails is listed and not expanded.
fn reachable(system: &System) -> Vec<State> {
    let init = system.init().states(system.universe()).unwrap();
    let mut seen: HashSet<State> = HashSet::new();
    let mut queue: VecDeque<State> = init.into_iter().collect();
    let mut order = Vec::new();
    while let Some(s) = queue.pop_front() {
        if !seen.insert(s.clone()) {
            continue;
        }
        if let Ok(successors) = system.successors(&s) {
            queue.extend(successors.into_iter().map(|(_, t)| t));
        }
        order.push(s);
    }
    order
}

/// Outcomes met across all cases, by name.
static SEEN: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

fn note(outcome: impl Into<String>) {
    SEEN.lock().unwrap().insert(outcome.into());
}

/// The names of the interpreter's outcome at a state: its error's, or
/// each successor's number of effects.
fn outcomes(
    answer: &Result<Vec<(usize, State)>, CheckError>,
    system: &System,
) -> Vec<&'static str> {
    match answer {
        Err(CheckError::OutOfDomain { .. }) => vec!["OutOfDomain"],
        Err(CheckError::Eval(EvalError::DivisionByZero)) => vec!["DivisionByZero"],
        Err(CheckError::Eval(EvalError::TypeMismatch { .. })) => vec!["TypeMismatch"],
        Err(CheckError::Eval(EvalError::UnboundVar { .. })) => vec!["UnboundVar"],
        Err(_) => vec!["another error"],
        Ok(successors) => successors
            .iter()
            .map(
                |(action, _)| match system.actions()[*action].updates().len() {
                    0 => "no effect",
                    1 => "one effect",
                    _ => "two effects",
                },
            )
            .collect(),
    }
}

/// Steps every reachable state of `system` cold and warm, against the
/// interpreter.
fn check(system: &System) -> Result<(), TestCaseError> {
    let layout = PackedLayout::compile(system.vars()).expect("small domains pack");
    let compiled = CompiledSystem::compile(system);
    let states = reachable(system);
    let mut warm = StepMemo::new();
    for pass in ["warm, first pass", "warm, second pass"] {
        let before = warm.stats();
        for s in &states {
            let expected = system.successors(s);
            for name in outcomes(&expected, system) {
                note(name);
            }
            let expected = expected.map_err(|e| format!("{e:?}"));
            let cold = packed(&compiled, &layout, s, &mut StepMemo::new());
            prop_assert_eq!(&cold, &expected, "cold at {:?}", s);
            let warmed = packed(&compiled, &layout, s, &mut warm);
            prop_assert_eq!(&warmed, &expected, "{} at {:?}", pass, s);
        }
        let after = warm.stats();
        let (lookups, misses) = (after.lookups - before.lookups, after.misses - before.misses);
        prop_assert!(misses <= lookups);
        if pass == "warm, second pass" && lookups > misses {
            note("warm hit");
        }
    }
    let untabled = system.actions().iter().any(|a| {
        a.guard()
            .unprimed_vars()
            .iter()
            .any(|v| v.index() >= system.vars().len())
    });
    if untabled {
        note("untabled");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One case: a system of either family, its faults, every state.
    fn packed_stepping_case(
        bits in any::<bool>(),
        bit_specs in proptest::collection::vec(arb_action_spec(BITS), 1..5),
        int_specs in proptest::collection::vec(arb_action_spec(SMALL_INTS), 1..5),
        bit_faults in proptest::collection::vec(arb_fault(BITS), 0..4),
        int_faults in proptest::collection::vec(arb_fault(SMALL_INTS), 0..4),
    ) {
        let system = if bits {
            faulty_system(BITS, &bit_specs, &bit_faults)
        } else {
            faulty_system(SMALL_INTS, &int_specs, &int_faults)
        };
        check(&system)?;
    }
}

#[test]
fn packed_stepping_agrees_with_the_interpreter_at_every_reachable_state() {
    packed_stepping_case();
    let seen = SEEN.lock().unwrap();
    let missing: Vec<&str> = [
        "OutOfDomain",
        "DivisionByZero",
        "TypeMismatch",
        "UnboundVar",
        "no effect",
        "one effect",
        "two effects",
        "warm hit",
        "untabled",
    ]
    .into_iter()
    .filter(|o| !seen.contains(*o))
    .collect();
    assert!(missing.is_empty(), "never met {missing:?} (met {seen:?})");
}
