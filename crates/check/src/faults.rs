//! Fault-injection combinators: `System` → `System` transformers that
//! add adversarial behavior.
//!
//! In *Open Systems in TLA* the environment is an adversary: `E ⊳ M`
//! obliges the guarantee `M` to hold strictly longer than the
//! assumption `E`, so the interesting behaviors are exactly the ones
//! where the environment misbehaves. These combinators manufacture
//! such behaviors mechanically:
//!
//! * [`lossy`] — a faulty variant of an action completes its
//!   handshake but *drops* designated payload variables;
//! * [`duplicate`] — a faulty variant fires an action twice in one
//!   step (sequential self-composition), duplicating its effect;
//! * [`crash_restart`] — a component's state spontaneously reverts to
//!   an initial assignment;
//! * [`hostile_env`] — a saboteur falsifies a given assumption
//!   predicate at a controllable step, driven by a fresh step clock.
//!
//! Every combinator only **adds** actions (and, for [`hostile_env`], a
//! fresh clock variable), never removes or strengthens existing ones —
//! so the faulted system's state space is a superset of the original's
//! and every original behavior survives fault injection. Fault actions
//! are appended after the original action list, which keeps BFS
//! exploration deterministic and keeps original action indices (and
//! thus fairness constraints) valid.

use crate::{CheckError, GuardedAction, Init, System};
use opentla_kernel::{Domain, Expr, State, Substitution, Value, VarId};

/// Prefix given to every injected fault action, so diagnostics can
/// tell faults from protocol steps (`faults::is_fault_action`).
pub const FAULT_PREFIX: &str = "fault:";

/// Whether an action name denotes an injected fault.
pub fn is_fault_action(name: &str) -> bool {
    name.starts_with(FAULT_PREFIX)
}

fn bad_id(action_id: usize, system: &System) -> CheckError {
    CheckError::Precondition {
        message: format!(
            "fault injection refers to action #{action_id}, but the system has only {} actions",
            system.actions().len()
        ),
    }
}

/// Reports each injected fault action as *armed* to the process-wide
/// recorder (`OPENTLA_OBS`), so a run report shows which adversarial
/// behaviors were in play even before any of them fires on a trace.
fn note_armed(extra: &[GuardedAction]) {
    let rec = crate::obs::global();
    if !rec.enabled() {
        return;
    }
    for a in extra {
        rec.record(&crate::obs::Event::FaultActivation {
            action: a.name(),
            step: 0,
            kind: "armed",
        });
    }
}

/// Rebuilds `system` with `extra` actions appended (fairness
/// constraints carry over: they refer to original action indices,
/// which appending preserves).
fn with_extra_actions(system: &System, extra: Vec<GuardedAction>) -> System {
    note_armed(&extra);
    let mut actions = system.actions().to_vec();
    actions.extend(extra);
    let mut faulted = System::new(system.vars().clone(), system.init().clone(), actions);
    for f in system.fairness() {
        faulted = faulted.with_fairness(f.clone());
    }
    faulted
}

/// Adds a *lossy* variant of each targeted action: the variant has the
/// same guard but omits the updates of every variable in `dropped` —
/// the handshake completes while the payload is lost in transit.
///
/// Variables in `dropped` that a targeted action never updates are
/// ignored for that action. An action whose every update is dropped
/// becomes a pure handshake (the guard fires, nothing changes).
///
/// # Errors
///
/// [`CheckError::Precondition`] if an action id is out of range.
pub fn lossy(
    system: &System,
    action_ids: &[usize],
    dropped: &[VarId],
) -> Result<System, CheckError> {
    let mut extra = Vec::new();
    for &id in action_ids {
        let action = system.actions().get(id).ok_or_else(|| bad_id(id, system))?;
        let kept: Vec<(VarId, Expr)> = action
            .updates()
            .iter()
            .filter(|(v, _)| !dropped.contains(v))
            .cloned()
            .collect();
        extra.push(GuardedAction::new(
            format!("{FAULT_PREFIX}lossy[{}]", action.name()),
            action.guard().clone(),
            kept,
        ));
    }
    Ok(with_extra_actions(system, extra))
}

/// Adds a *duplicating* variant of each targeted action: the variant
/// performs the action **twice in one step** (sequential
/// self-composition), modeling e.g. a channel that delivers a message
/// two times. The variant's guard requires both firings to be enabled
/// (the second under the first's updates), so an action that disables
/// itself — a bit-flip handshake, say — simply has an unsatisfiable
/// duplicate, which is itself a meaningful robustness finding.
///
/// # Errors
///
/// [`CheckError::Precondition`] if an action id is out of range;
/// kernel errors if the substitution fails.
pub fn duplicate(system: &System, action_ids: &[usize]) -> Result<System, CheckError> {
    let mut extra = Vec::new();
    for &id in action_ids {
        let action = system.actions().get(id).ok_or_else(|| bad_id(id, system))?;
        // σ maps each updated variable to its first-firing value, so
        // σ(e) evaluates e in the intermediate state.
        let sigma = Substitution::new(action.updates().iter().cloned());
        let second_guard = sigma.expr(action.guard())?;
        let updates: Vec<(VarId, Expr)> = action
            .updates()
            .iter()
            .map(|(v, e)| Ok((*v, sigma.expr(e)?)))
            .collect::<Result<_, CheckError>>()?;
        extra.push(GuardedAction::new(
            format!("{FAULT_PREFIX}dup[{}]", action.name()),
            action.guard().clone().and(second_guard),
            updates,
        ));
    }
    Ok(with_extra_actions(system, extra))
}

/// Adds a *crash-restart* fault: at any moment, the component owning
/// `component_vars` may lose its state and revert to the assignment
/// `reset_init` (typically the component's initial assignment). The
/// fault is guarded on the component actually being away from its
/// reset state, so it never introduces pure self-loops.
///
/// # Errors
///
/// [`CheckError::Precondition`] if `reset_init` does not cover exactly
/// `component_vars`, or assigns a value outside a variable's domain.
pub fn crash_restart(
    system: &System,
    component_vars: &[VarId],
    reset_init: &[(VarId, Value)],
) -> Result<System, CheckError> {
    for &v in component_vars {
        if !reset_init.iter().any(|(rv, _)| *rv == v) {
            return Err(CheckError::Precondition {
                message: format!(
                    "crash_restart: component variable {} has no reset value",
                    system.vars().name(v)
                ),
            });
        }
    }
    for (v, value) in reset_init {
        if !component_vars.contains(v) {
            return Err(CheckError::Precondition {
                message: format!(
                    "crash_restart: reset assigns {} which is not a component variable",
                    system.vars().name(*v)
                ),
            });
        }
        if !system.vars().domain(*v).contains(value) {
            return Err(CheckError::Precondition {
                message: format!(
                    "crash_restart: reset value {value} is outside the domain of {}",
                    system.vars().name(*v)
                ),
            });
        }
    }
    let at_reset = Expr::all(
        reset_init
            .iter()
            .map(|(v, value)| Expr::var(*v).eq(Expr::con(value.clone()))),
    );
    let updates: Vec<(VarId, Expr)> = reset_init
        .iter()
        .map(|(v, value)| (*v, Expr::con(value.clone())))
        .collect();
    let crash = GuardedAction::new(
        format!("{FAULT_PREFIX}crash_restart"),
        at_reset.not(),
        updates,
    );
    Ok(with_extra_actions(system, vec![crash]))
}

/// The name of the step clock [`hostile_env`] declares.
pub const HOSTILE_CLOCK: &str = "hostile_clock";

/// Manufactures a hostile environment inside `system`: declares a
/// fresh step clock (every action now also advances the clock,
/// saturating at `break_at`) and adds saboteur actions that are
/// enabled exactly when the clock has reached `break_at` and the
/// `assumption` predicate still holds — each saboteur overwrites the
/// assumption's variables with an assignment that **falsifies** it.
///
/// The returned system therefore contains, alongside every original
/// behavior, behaviors in which the assumption `E` is broken at step
/// `break_at` (or any later step, if the saboteur defers) — precisely
/// the adversarial runs against which `E ⊳ M` demands that the
/// guarantee hold one step longer. Once broken, the assumption stays
/// broken for the saboteur's purposes (its guard requires `E` to
/// hold), but normal actions continue, letting checkers observe how
/// long `M` outlives `E`.
///
/// Falsifying assignments are found by brute-force search over the
/// product of the assumption's variables' domains (exponential in the
/// number of distinct variables in `assumption` — keep assumptions
/// local, as the paper's per-component assumptions are).
///
/// # Errors
///
/// [`CheckError::Precondition`] if `assumption` mentions primed
/// variables, is unfalsifiable over its variables' domains, or
/// `break_at` is negative; evaluation errors if `assumption` is not
/// boolean.
pub fn hostile_env(
    system: &System,
    assumption: &Expr,
    break_at: i64,
) -> Result<System, CheckError> {
    if break_at < 0 {
        return Err(CheckError::Precondition {
            message: format!("hostile_env: break_at must be non-negative, got {break_at}"),
        });
    }
    if !assumption.is_state_fn() {
        return Err(CheckError::Precondition {
            message: "hostile_env: the assumption must be a state predicate (no primes)"
                .to_string(),
        });
    }
    let support: Vec<VarId> = {
        let mut vs: Vec<VarId> = assumption.unprimed_vars().iter().collect();
        vs.sort();
        vs
    };
    if support.is_empty() {
        return Err(CheckError::Precondition {
            message: "hostile_env: the assumption mentions no variables, so no \
                      assignment can falsify it"
                .to_string(),
        });
    }

    // Fresh clock variable counting steps (saturating at break_at).
    let mut vars = system.vars().clone();
    let clock = vars.declare(HOSTILE_CLOCK, Domain::int_range(0, break_at));
    let tick = Expr::var(clock)
        .lt(Expr::int(break_at))
        .ite(Expr::var(clock).add(Expr::int(1)), Expr::var(clock));

    // Every original action also advances the clock.
    let mut actions: Vec<GuardedAction> = system
        .actions()
        .iter()
        .map(|a| {
            let mut updates = a.updates().to_vec();
            updates.push((clock, tick.clone()));
            GuardedAction::new(a.name(), a.guard().clone(), updates)
        })
        .collect();

    // Brute-force the falsifying assignments of the assumption over
    // its support's domains, evaluated on a scratch state (the
    // predicate's value depends only on the support).
    let mut scratch: Vec<Value> = system
        .vars()
        .iter()
        .map(|v| system.vars().domain(v).values()[0].clone())
        .collect();
    scratch.push(Value::Int(0)); // the clock
    let mut falsifying: Vec<Vec<Value>> = Vec::new();
    let mut combo = vec![0usize; support.len()];
    loop {
        for (slot, &v) in combo.iter().zip(&support) {
            scratch[v.index()] = vars.domain(v).values()[*slot].clone();
        }
        let state = State::new(scratch.clone());
        if !assumption.holds_state(&state)? {
            falsifying.push(support.iter().map(|v| scratch[v.index()].clone()).collect());
        }
        // Advance the mixed-radix counter over the support domains.
        let mut i = 0;
        loop {
            if i == combo.len() {
                break;
            }
            combo[i] += 1;
            if combo[i] < vars.domain(support[i]).len() {
                break;
            }
            combo[i] = 0;
            i += 1;
        }
        if i == combo.len() {
            break;
        }
    }
    if falsifying.is_empty() {
        return Err(CheckError::Precondition {
            message: "hostile_env: the assumption is valid over its variables' domains; \
                      nothing to falsify"
                .to_string(),
        });
    }

    let armed = Expr::var(clock).eq(Expr::int(break_at));
    let saboteurs_from = actions.len();
    for (i, assignment) in falsifying.iter().enumerate() {
        let updates: Vec<(VarId, Expr)> = support
            .iter()
            .zip(assignment)
            .map(|(v, value)| (*v, Expr::con(value.clone())))
            .collect();
        actions.push(GuardedAction::new(
            format!("{FAULT_PREFIX}hostile_env[{i}]"),
            armed.clone().and(assumption.clone()),
            updates,
        ));
    }
    note_armed(&actions[saboteurs_from..]);

    let init = system
        .init()
        .clone()
        .merge(&Init::new([(clock, Value::Int(0))]));
    let mut faulted = System::new(vars, init, actions);
    for f in system.fairness() {
        faulted = faulted.with_fairness(f.clone());
    }
    Ok(faulted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, explore_governed, Budget, ExploreOptions};
    use opentla_kernel::Vars;

    /// A two-variable handshake: `send` raises a flag and writes a
    /// payload; `ack` lowers the flag.
    fn handshake() -> (System, VarId, VarId) {
        let mut vars = Vars::new();
        let flag = vars.declare("flag", Domain::bits());
        let data = vars.declare("data", Domain::int_range(0, 2));
        let send = GuardedAction::new(
            "send",
            Expr::var(flag).eq(Expr::int(0)),
            vec![(flag, Expr::int(1)), (data, Expr::int(2))],
        );
        let ack = GuardedAction::new(
            "ack",
            Expr::var(flag).eq(Expr::int(1)),
            vec![(flag, Expr::int(0)), (data, Expr::int(0))],
        );
        let sys = System::new(
            vars,
            Init::new([(flag, Value::Int(0)), (data, Value::Int(0))]),
            vec![send, ack],
        );
        (sys, flag, data)
    }

    #[test]
    fn lossy_adds_payload_dropping_variant() {
        let (sys, _, data) = handshake();
        let faulted = lossy(&sys, &[0], &[data]).unwrap();
        assert_eq!(faulted.actions().len(), 3);
        let fault = &faulted.actions()[2];
        assert!(is_fault_action(fault.name()));
        assert_eq!(fault.updates().len(), 1); // data dropped, flag kept
                                              // The faulted system reaches a state the original cannot:
                                              // flag = 1 with data still 0.
        let base = explore(&sys, &ExploreOptions::default()).unwrap();
        let bad = explore(&faulted, &ExploreOptions::default()).unwrap();
        assert!(bad.len() > base.len());
    }

    #[test]
    fn duplicate_composes_action_with_itself() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, 8));
        let bump = GuardedAction::new(
            "bump",
            Expr::var(x).lt(Expr::int(7)),
            vec![(x, Expr::var(x).add(Expr::int(1)))],
        );
        let sys = System::new(vars, Init::new([(x, Value::Int(0))]), vec![bump]);
        let faulted = duplicate(&sys, &[0]).unwrap();
        let graph = explore(&faulted, &ExploreOptions::default()).unwrap();
        // From x the duplicate reaches x+2 in one step.
        let s0 = graph.init()[0];
        let targets: Vec<i64> = graph
            .edges(s0)
            .iter()
            .map(|e| match graph.state(e.target as usize).get(x) {
                Value::Int(i) => *i,
                other => panic!("unexpected value {other}"),
            })
            .collect();
        assert!(targets.contains(&1) && targets.contains(&2));
    }

    #[test]
    fn duplicate_of_self_disabling_action_is_unsatisfiable() {
        let (sys, _, _) = handshake();
        // `send` flips flag 0→1 and is guarded on flag = 0: firing it
        // twice in a row is impossible, so the duplicate never fires.
        let faulted = duplicate(&sys, &[0]).unwrap();
        let base = explore(&sys, &ExploreOptions::default()).unwrap();
        let dup = explore(&faulted, &ExploreOptions::default()).unwrap();
        assert_eq!(base.len(), dup.len());
        assert_eq!(base.edge_count(), dup.edge_count());
    }

    #[test]
    fn crash_restart_reverts_to_reset_assignment() {
        let (sys, flag, data) = handshake();
        let reset = [(flag, Value::Int(0)), (data, Value::Int(0))];
        let faulted = crash_restart(&sys, &[flag, data], &reset).unwrap();
        let graph = explore(&faulted, &ExploreOptions::default()).unwrap();
        // Some non-initial state has a crash edge straight back to
        // the reset assignment.
        let crash_id = faulted.actions().len() - 1;
        let mut saw_crash = false;
        for id in 0..graph.len() {
            for e in graph.edges(id) {
                if e.action as usize == crash_id {
                    saw_crash = true;
                    let t = graph.state(e.target as usize);
                    assert_eq!(t.get(flag), &Value::Int(0));
                    assert_eq!(t.get(data), &Value::Int(0));
                    assert_ne!(e.target as usize, id, "crash must not be a self-loop");
                }
            }
        }
        assert!(saw_crash, "crash_restart edge never fired");
    }

    #[test]
    fn crash_restart_validates_reset_assignment() {
        let (sys, flag, data) = handshake();
        assert!(matches!(
            crash_restart(&sys, &[flag, data], &[(flag, Value::Int(0))]),
            Err(CheckError::Precondition { .. })
        ));
        assert!(matches!(
            crash_restart(&sys, &[flag], &[(flag, Value::Int(7))]),
            Err(CheckError::Precondition { .. })
        ));
    }

    #[test]
    fn hostile_env_breaks_assumption_at_chosen_step() {
        let (sys, flag, _) = handshake();
        // Assumption: the flag is never raised... falsified by flag=1.
        let assumption = Expr::var(flag).eq(Expr::int(0));
        let faulted = hostile_env(&sys, &assumption, 2).unwrap();
        let clock = faulted.vars().find(HOSTILE_CLOCK).unwrap();
        let graph = explore(&faulted, &ExploreOptions::default()).unwrap();
        // Saboteur edges exist, and only out of states with clock = 2.
        let mut saw_sabotage = false;
        for id in 0..graph.len() {
            for e in graph.edges(id) {
                if is_fault_action(faulted.actions()[e.action as usize].name()) {
                    saw_sabotage = true;
                    assert_eq!(graph.state(id).get(clock), &Value::Int(2));
                    assert!(!assumption
                        .holds_state(graph.state(e.target as usize))
                        .unwrap());
                }
            }
        }
        assert!(saw_sabotage, "hostile_env never fired");
    }

    #[test]
    fn hostile_env_rejects_unfalsifiable_assumptions() {
        let (sys, flag, _) = handshake();
        let valid = Expr::var(flag).ge(Expr::int(0));
        assert!(matches!(
            hostile_env(&sys, &valid, 1),
            Err(CheckError::Precondition { .. })
        ));
        let closed = Expr::bool(true);
        assert!(matches!(
            hostile_env(&sys, &closed, 1),
            Err(CheckError::Precondition { .. })
        ));
    }

    #[test]
    fn faulted_systems_respect_budgets_too() {
        let (sys, flag, data) = handshake();
        let faulted = lossy(&sys, &[0, 1], &[data]).unwrap();
        let faulted = crash_restart(
            &faulted,
            &[flag, data],
            &[(flag, Value::Int(0)), (data, Value::Int(0))],
        )
        .unwrap();
        let run = explore_governed(&faulted, &Budget::default().states(2)).unwrap();
        assert_eq!(run.graph.len(), 2);
        assert!(run.outcome.exhaustion().is_some());
    }
}
