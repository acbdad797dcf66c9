//! Step simulation against safety-canonical specifications under
//! refinement mappings.
//!
//! To prove `System ⊨ Target` for a safety-canonical `Target` whose
//! internal variables are eliminated by a refinement mapping (a
//! [`Substitution`]), it suffices that:
//!
//! 1. every initial state satisfies the (mapped) initial predicates;
//! 2. every reachable state satisfies the (mapped) invariants;
//! 3. every reachable transition satisfies every (mapped) step box
//!    `[A]_v` — stuttering steps satisfy them trivially.
//!
//! This is the standard refinement-mapping argument of TLA [10 in the
//! paper], and it is how the safety hypotheses (1 and 2(a), after
//! Propositions 1–4 strip `C` and `+v`) of the Composition Theorem are
//! discharged.

use crate::budget::{Budget, Governed, Meter, Outcome};
use crate::compiled::{CompiledExpr, EvalScratch};
use crate::image::{Classes, Memo};
use crate::invariant::trace_counterexample;
use crate::{CheckError, Counterexample, ExhaustReason, Session, StateGraph, System, Verdict};
use opentla_kernel::{EvalError, Expr, Formula, StatePair, Substitution};
use opentla_semantics::{safety_canonical, SafetyCanonical};

/// The result of a simulation check, with workload statistics.
#[derive(Clone, Debug)]
pub struct SimulationReport {
    /// Whether the simulation holds, or a counterexample.
    pub verdict: Verdict,
    /// Reachable states examined.
    pub states: usize,
    /// Transitions examined.
    pub edges: usize,
}

impl SimulationReport {
    /// Whether the simulation holds.
    pub fn holds(&self) -> bool {
        self.verdict.holds()
    }
}

/// The result of a governed simulation check: a report when the run
/// reached a decision before the budget ran out, and the resource
/// [`Outcome`] either way.
#[derive(Clone, Debug)]
pub struct SimulationRun {
    /// The simulation report, or `None` if the budget ran out before
    /// every state and edge was checked. A `Some` violation is always
    /// authoritative, even under an exhausted budget.
    pub report: Option<SimulationReport>,
    /// Whether the run covered every proof obligation.
    pub outcome: Outcome,
}

impl Governed for SimulationRun {
    fn exhaustion(&self) -> Option<&ExhaustReason> {
        self.outcome.exhaustion()
    }
}

/// Checks that every behavior of `system` satisfies the
/// safety-canonical formula `target` under the refinement `mapping`
/// (mapping the target's internal variables to state functions of the
/// system's variables; pass an empty substitution when there are
/// none).
///
/// # Errors
///
/// * [`CheckError::NotCanonical`] if `target` is not safety-canonical
///   after applying the mapping;
/// * substitution capture errors;
/// * evaluation errors.
pub fn check_simulation(
    system: &System,
    graph: &StateGraph,
    target: &Formula,
    mapping: &Substitution,
) -> Result<SimulationReport, CheckError> {
    let run = check_simulation_governed(system, graph, target, mapping, &Budget::unlimited())?;
    Ok(run
        .report
        .expect("unlimited budget always reaches a report"))
}

/// [`check_simulation`] under a resource [`Budget`].
///
/// Each state examined for the target's invariants charges the state
/// budget and each edge examined for the target's step boxes charges
/// the transition budget; the deadline and the cancellation flag are
/// polled at every state. When the budget runs out the run returns
/// `report: None` tagged [`Outcome::Exhausted`] — every obligation
/// checked up to that point held, but the verdict is undecided.
///
/// # Errors
///
/// Same as [`check_simulation`].
pub fn check_simulation_governed(
    system: &System,
    graph: &StateGraph,
    target: &Formula,
    mapping: &Substitution,
    budget: &Budget,
) -> Result<SimulationRun, CheckError> {
    Session::new(system, graph, mapping, budget).simulation(target)
}

/// The one simulation check, [`Session::simulation`]: under the
/// session's mapping, its values read from the session's images.
pub(crate) fn simulate(
    session: &Session<'_>,
    target: &Formula,
) -> Result<SimulationRun, CheckError> {
    let (system, graph, budget) = (session.system(), session.graph(), session.budget());
    let mapping = session.mapping();
    let _phase = crate::obs::PhaseGuard::enter(&budget.recorder, crate::obs::Phase::Simulation);
    let mapped = mapping.formula(target)?;
    // Substitution keeps a formula's shape, so the two sets of parts
    // line up: `sc` is over the system's variables, `abs` the same
    // predicates and boxes over the target's own.
    let (Some(sc), Some(abs)) = (safety_canonical(&mapped), safety_canonical(target)) else {
        return Err(CheckError::NotCanonical {
            context: "check_simulation",
        });
    };
    let vars = system.vars();
    let meter = &mut Meter::start(budget);
    let exhausted = |reason: ExhaustReason, pending: usize| SimulationRun {
        report: None,
        outcome: Outcome::Exhausted {
            reason,
            frontier_size: pending,
            stats: graph.stats(),
            resume: None,
        },
    };
    let violated = |cx: Counterexample, edges: usize| {
        crate::obs::emit_counterexample(&budget.recorder, "simulation", &cx);
        SimulationRun {
            report: Some(SimulationReport {
                verdict: Verdict::Violated(cx),
                states: graph.len(),
                edges,
            }),
            outcome: Outcome::Complete,
        }
    };

    // 1. Initial predicates.
    let init: Vec<_> = sc.init.iter().map(CompiledExpr::compile).collect();
    let scratch = &mut EvalScratch::new();
    for id in graph.init() {
        if let Some(reason) = meter.checkpoint() {
            return Ok(exhausted(reason, graph.len()));
        }
        for (p, program) in sc.init.iter().zip(&init) {
            if !program.holds(&graph.view(*id), scratch)? {
                let cx = trace_counterexample(
                    system,
                    graph,
                    *id,
                    format!("initial condition of the target fails: {}", p.display(vars)),
                );
                return Ok(violated(cx, meter.transitions_used()));
            }
        }
    }
    // 2–3. Invariants on every state and step boxes on every edge, each
    // decided once per image class (pair) of the *un*substituted target.
    let classes = Classes::of_graph(graph, &target.free_vars(), session.images());
    let run = check_states_and_edges(
        system, graph, &sc, &abs, &classes, meter, &exhausted, &violated,
    );
    classes.report(&budget.recorder, "simulation");
    run
}

/// Index of the first of `preds` that `holds` refutes.
fn first_refuted<P>(
    preds: &[P],
    mut holds: impl FnMut(&P) -> Result<bool, EvalError>,
) -> Result<Option<usize>, EvalError> {
    for (i, p) in preds.iter().enumerate() {
        if !holds(p)? {
            return Ok(Some(i));
        }
    }
    Ok(None)
}

/// Steps 2 and 3 of [`check_simulation_governed`]. Charges, polls and
/// scan order are per concrete state and edge; only the evaluation of
/// the mapped predicates goes through the class memos, which decide a
/// class by `abs` on ids or, failing that, compiled on the views of its
/// abstract states, and everything else by `sc` interpreted, on the
/// concrete ones.
#[allow(clippy::too_many_arguments)]
fn check_states_and_edges(
    system: &System,
    graph: &StateGraph,
    sc: &SafetyCanonical,
    abs: &SafetyCanonical,
    classes: &Classes<'_>,
    meter: &mut Meter,
    exhausted: &dyn Fn(ExhaustReason, usize) -> SimulationRun,
    violated: &dyn Fn(Counterexample, usize) -> SimulationRun,
) -> Result<SimulationRun, CheckError> {
    let vars = system.vars();
    let compile = |es: &[Expr]| es.iter().map(CompiledExpr::compile).collect::<Vec<_>>();
    let scratch = &mut EvalScratch::new();
    // 2. Invariants.
    let abs_invariants = compile(&abs.invariants);
    let mut invariants_hold = Memo::with_ids(classes, &abs.invariants);
    for id in 0..graph.len() {
        if let Some(reason) = meter.checkpoint().or_else(|| meter.charge_state_mut()) {
            return Ok(exhausted(reason, graph.len() - id));
        }
        let refuted = || {
            let s = graph.materialize(id);
            first_refuted(&sc.invariants, |p| p.holds_state(&s))
        };
        if !sc.invariants.is_empty()
            && !invariants_hold.state(
                id,
                |s_bar| {
                    first_refuted(&abs_invariants, |p| p.holds(&s_bar, scratch))
                        .map(|r| r.is_none())
                },
                || refuted().map(|r| r.is_none()),
            )?
        {
            let p = &sc.invariants[refuted()?.expect("just refuted at this state")];
            let cx = trace_counterexample(
                system,
                graph,
                id,
                format!("target invariant fails: {}", p.display(vars)),
            );
            return Ok(violated(cx, meter.transitions_used()));
        }
    }
    drop(invariants_hold);
    // 3. Step boxes on every edge.
    let (boxes, abs_boxes) = (sc.step_boxes(), abs.step_boxes());
    let mut boxes_hold = Memo::with_ids(classes, &abs_boxes);
    let abs_boxes = compile(&abs_boxes);
    let refuted = |s: usize, t: usize| {
        let (s, t) = (graph.materialize(s), graph.materialize(t));
        first_refuted(&boxes, |b| b.holds_action(StatePair::new(&s, &t)))
    };
    for id in 0..graph.len() {
        if let Some(reason) = meter.checkpoint() {
            return Ok(exhausted(reason, graph.len() - id));
        }
        for e in graph.edges(id) {
            if let Some(reason) = meter.charge_transition_mut() {
                return Ok(exhausted(reason, graph.len() - id));
            }
            let (action, target) = (e.action as usize, e.target as usize);
            if !boxes_hold.step(
                id,
                target,
                |s_bar, t_bar| {
                    first_refuted(&abs_boxes, |b| b.holds_step(&s_bar, &t_bar, scratch))
                        .map(|r| r.is_none())
                },
                || refuted(id, target).map(|r| r.is_none()),
            )? {
                let bi = refuted(id, target)?.expect("just refuted on this step");
                let base = trace_counterexample(
                    system,
                    graph,
                    id,
                    format!(
                        "step of action {} violates target box #{bi}: {}",
                        system.actions()[action].name(),
                        sc.boxes[bi].0.display(vars),
                    ),
                );
                let mut states = base.states().to_vec();
                let mut actions = base.actions().to_vec();
                states.push(graph.materialize(target));
                actions.push(Some(system.actions()[action].name().to_string()));
                let cx = Counterexample::new(base.reason().to_string(), states, actions, None);
                return Ok(violated(cx, meter.transitions_used()));
            }
        }
    }
    Ok(SimulationRun {
        report: Some(SimulationReport {
            verdict: Verdict::Holds,
            states: graph.len(),
            edges: meter.transitions_used(),
        }),
        outcome: Outcome::Complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, ExploreOptions, GuardedAction, Init};
    use opentla_kernel::{Domain, Expr, Value, VarId, Vars};

    /// Two-bit counter that increments modulo 4 via low/high bits; the
    /// abstract view is a mod-4 counter variable.
    fn setup() -> (System, VarId, VarId, VarId) {
        let mut vars = Vars::new();
        let lo = vars.declare("lo", Domain::bits());
        let hi = vars.declare("hi", Domain::bits());
        // Abstract counter (internal to the target spec).
        let n = vars.declare("n", Domain::int_range(0, 3));
        let tick = GuardedAction::new(
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
        );
        let sys = System::new(
            vars,
            Init::new([
                (lo, Value::Int(0)),
                (hi, Value::Int(0)),
                (n, Value::Int(0)), // n is not used by the system; pin it.
            ]),
            vec![tick],
        );
        (sys, lo, hi, n)
    }

    fn abstract_spec(n: VarId) -> Formula {
        // n = 0 ∧ □[n' = (n + 1) mod 4]_n, with mod expressed by Ite.
        let next = Expr::var(n)
            .eq(Expr::int(3))
            .ite(Expr::int(0), Expr::var(n).add(Expr::int(1)));
        Formula::pred(Expr::var(n).eq(Expr::int(0)))
            .and(Formula::act_box(Expr::prime(n).eq(next), vec![n]))
    }

    #[test]
    fn simulation_with_mapping_holds() {
        let (sys, lo, hi, n) = setup();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        // Mapping: n ↦ 2*hi + lo.
        let mapping = Substitution::new([(n, Expr::int(2).mul(Expr::var(hi)).add(Expr::var(lo)))]);
        let report = check_simulation(&sys, &graph, &abstract_spec(n), &mapping).unwrap();
        assert!(report.holds(), "{:?}", report.verdict);
        assert!(report.edges > 0);
    }

    #[test]
    fn wrong_mapping_fails_with_trace() {
        let (sys, lo, _, n) = setup();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        // Bogus mapping: n ↦ lo. The step from lo=1 wraps to 0, which
        // the abstract spec only allows from n = 3.
        let mapping = Substitution::new([(n, Expr::var(lo))]);
        let report = check_simulation(&sys, &graph, &abstract_spec(n), &mapping).unwrap();
        let cx = report.verdict.counterexample().expect("must fail");
        assert!(cx.reason().contains("box"));
        assert!(cx.states().len() >= 2);
    }

    #[test]
    fn wrong_init_detected() {
        let (sys, _, _, n) = setup();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let target = Formula::pred(Expr::var(n).eq(Expr::int(1)));
        let mapping = Substitution::new([(n, Expr::int(0))]);
        let report = check_simulation(&sys, &graph, &target, &mapping).unwrap();
        let cx = report.verdict.counterexample().expect("must fail");
        assert!(cx.reason().contains("initial"));
    }

    #[test]
    fn invariant_part_checked() {
        let (sys, lo, hi, n) = setup();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let mapping = Substitution::new([(n, Expr::int(2).mul(Expr::var(hi)).add(Expr::var(lo)))]);
        // Target: □(n ≤ 3) — holds.
        let ok = Formula::pred(Expr::var(n).le(Expr::int(3))).always();
        assert!(check_simulation(&sys, &graph, &ok, &mapping)
            .unwrap()
            .holds());
        // Target: □(n ≤ 2) — fails at n = 3.
        let bad = Formula::pred(Expr::var(n).le(Expr::int(2))).always();
        let report = check_simulation(&sys, &graph, &bad, &mapping).unwrap();
        assert!(!report.holds());
    }

    #[test]
    fn governed_simulation_reports_exhaustion_not_error() {
        use crate::{escalate, Budget, ExhaustReason};
        let (sys, lo, hi, n) = setup();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let mapping = Substitution::new([(n, Expr::int(2).mul(Expr::var(hi)).add(Expr::var(lo)))]);
        let spec = abstract_spec(n);
        // One transition is not enough for the 4 edges of the graph.
        let budget = Budget::default().transitions(1);
        let run = check_simulation_governed(&sys, &graph, &spec, &mapping, &budget).unwrap();
        assert!(run.report.is_none());
        assert_eq!(
            run.outcome.exhaustion(),
            Some(&ExhaustReason::TransitionLimit { limit: 1 })
        );
        // Escalating the budget reaches a decision.
        let run = escalate(&budget, 8, 3, |b| {
            check_simulation_governed(&sys, &graph, &spec, &mapping, b)
        })
        .unwrap();
        assert!(run.outcome.is_complete());
        assert!(run.report.unwrap().holds());
    }

    #[test]
    fn governed_simulation_honors_cancellation() {
        use crate::Budget;
        let (sys, lo, hi, n) = setup();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let mapping = Substitution::new([(n, Expr::int(2).mul(Expr::var(hi)).add(Expr::var(lo)))]);
        let budget = Budget::default();
        budget.request_cancel();
        let run =
            check_simulation_governed(&sys, &graph, &abstract_spec(n), &mapping, &budget).unwrap();
        assert!(run.report.is_none());
        assert!(!run.outcome.is_complete());
    }

    #[test]
    fn handed_images_replace_the_evaluation_of_the_mapping() {
        use crate::{explore_governed, Budget, CountingRecorder, RecorderHandle, Session};
        use std::sync::Arc;
        let (sys, lo, hi, n) = setup();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let mapping = Substitution::new([(n, Expr::int(2).mul(Expr::var(hi)).add(Expr::var(lo)))]);
        let counting = Arc::new(CountingRecorder::new());
        let budget = Budget::default().with_recorder(RecorderHandle::new(counting.clone()));
        let session = Session::new(&sys, &graph, &mapping, &budget);
        assert_eq!(session.images().distinct_values(), 4);
        // Two checks, one evaluation of the mapping — and a third pass
        // only when a check is left to evaluate it itself.
        let spec = abstract_spec(n);
        for _ in 0..2 {
            let run = session.simulation(&spec).unwrap();
            assert!(run.report.unwrap().holds());
        }
        assert_eq!(counting.count("image_pass"), 1);
        let run = check_simulation_governed(&sys, &graph, &spec, &mapping, &budget).unwrap();
        assert!(run.report.unwrap().holds());
        assert_eq!(counting.count("image_pass"), 2);
        // A session over another graph (the first two states of this
        // one) evaluates the mapping on that graph.
        let partial = explore_governed(&sys, &Budget::default().states(2))
            .unwrap()
            .graph;
        assert_eq!(partial.len(), 2);
        let session = Session::new(&sys, &partial, &mapping, &budget);
        session.simulation(&spec).unwrap();
        assert_eq!(session.images().distinct_values(), 2);
        assert_eq!(counting.count("image_pass"), 3);
    }

    #[test]
    fn non_canonical_rejected() {
        let (sys, _, _, n) = setup();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let live = Formula::pred(Expr::var(n).eq(Expr::int(3))).eventually();
        let mapping = Substitution::new([(n, Expr::int(0))]);
        assert!(matches!(
            check_simulation(&sys, &graph, &live, &mapping),
            Err(CheckError::NotCanonical { .. })
        ));
    }
}
