//! Test support for `image_memo_equivalence`: reference checks that
//! evaluate the substituted obligation on every concrete state and
//! edge, for the memoized checks to be compared against.
//!
//! * [`direct_simulation`] is the per-edge simulation loop, written
//!   out against the public API only.
//! * [`direct_fair_target`] / [`direct_pred`] turn a liveness target
//!   into one the checker itself must evaluate per edge: the mapping is
//!   applied here, and a conjunct that is true everywhere but mentions
//!   every variable widens the footprint until no two states share an
//!   image class. [`Passes`] records the checker's `image_memo` events,
//!   so a test can assert that the reference really ran unmemoized, and
//!   tallies every event in a `CountingRecorder`.
//! * [`lemma_on_every_step`] / [`lemma_on_every_state`] are the
//!   substitution lemma read the other way, across the two evaluators:
//!   the unsubstituted expression, compiled, on the views of the
//!   abstract state(s) a miss is decided on, equals the substituted one,
//!   interpreted, on the concrete state(s), as results.

use opentla_check::image::{Classes, Memo};
use opentla_check::{
    Budget, CheckError, CompiledExpr, Counterexample, CountingRecorder, EvalScratch, Event,
    ExhaustReason, LiveTarget, Meter, Outcome, Recorder, SimulationReport, SimulationRun,
    StateGraph, System, Verdict,
};
use opentla_kernel::{box_action, EvalError, Expr, Fairness, Formula, StatePair, Substitution};
use opentla_semantics::safety_canonical;
use std::sync::Mutex;

/// The shortest trace to `id` as a counterexample.
fn trace(system: &System, graph: &StateGraph, id: usize, reason: String) -> Counterexample {
    let hops = graph.trace_to(id);
    let states = hops.iter().map(|(_, s)| graph.state(*s).clone()).collect();
    let actions = hops
        .iter()
        .map(|(a, _)| a.map(|i| system.actions()[i].name().to_string()))
        .collect();
    Counterexample::new(reason, states, actions, None)
}

/// `check_simulation_governed` without image classes: the substituted
/// target evaluated on every initial state, every state and every
/// edge, in graph order, with the same charges and polls.
pub fn direct_simulation(
    system: &System,
    graph: &StateGraph,
    target: &Formula,
    mapping: &Substitution,
    budget: &Budget,
) -> Result<SimulationRun, CheckError> {
    let mapped = mapping.formula(target)?;
    let Some(sc) = safety_canonical(&mapped) else {
        return Err(CheckError::NotCanonical {
            context: "check_simulation",
        });
    };
    let vars = system.vars();
    let mut meter = Meter::start(budget);
    let exhausted = |reason: ExhaustReason, pending: usize| SimulationRun {
        report: None,
        outcome: Outcome::Exhausted {
            reason,
            frontier_size: pending,
            stats: graph.stats(),
            resume: None,
        },
    };
    let violated = |cx: Counterexample, meter: &Meter| SimulationRun {
        report: Some(SimulationReport {
            verdict: Verdict::Violated(cx),
            states: graph.len(),
            edges: meter.transitions_used(),
        }),
        outcome: Outcome::Complete,
    };
    for id in graph.init() {
        if let Some(reason) = meter.checkpoint() {
            return Ok(exhausted(reason, graph.len()));
        }
        for p in &sc.init {
            if !p.holds_state(graph.state(*id))? {
                let reason = format!("initial condition of the target fails: {}", p.display(vars));
                return Ok(violated(trace(system, graph, *id, reason), &meter));
            }
        }
    }
    for (id, s) in graph.states().iter().enumerate() {
        if let Some(reason) = meter.checkpoint().or_else(|| meter.charge_state_mut()) {
            return Ok(exhausted(reason, graph.len() - id));
        }
        for p in &sc.invariants {
            if !p.holds_state(s)? {
                let reason = format!("target invariant fails: {}", p.display(vars));
                return Ok(violated(trace(system, graph, id, reason), &meter));
            }
        }
    }
    let boxes: Vec<Expr> = sc
        .boxes
        .iter()
        .map(|(a, sub)| box_action(a.clone(), sub))
        .collect();
    for (id, s) in graph.states().iter().enumerate() {
        if let Some(reason) = meter.checkpoint() {
            return Ok(exhausted(reason, graph.len() - id));
        }
        for e in graph.edges(id) {
            if let Some(reason) = meter.charge_transition_mut() {
                return Ok(exhausted(reason, graph.len() - id));
            }
            let t = graph.state(e.target as usize);
            for (bi, b) in boxes.iter().enumerate() {
                if b.holds_action(StatePair::new(s, t))? {
                    continue;
                }
                let action = system.actions()[e.action as usize].name();
                let reason = format!(
                    "step of action {action} violates target box #{bi}: {}",
                    sc.boxes[bi].0.display(vars),
                );
                let base = trace(system, graph, id, reason);
                let mut states = base.states().to_vec();
                let mut actions = base.actions().to_vec();
                states.push(t.clone());
                actions.push(Some(action.to_string()));
                return Ok(violated(
                    Counterexample::new(base.reason().to_string(), states, actions, None),
                    &meter,
                ));
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

/// `⟨v₁, …, vₙ⟩ = ⟨v₁, …, vₙ⟩` over every variable the graph's states
/// hold: true at every state, and distinct states differ on it.
fn mentions_every_variable(system: &System, graph: &StateGraph) -> Expr {
    let slots = graph.state(0).len();
    let all = Expr::Tuple(
        system
            .frame()
            .into_iter()
            .filter(|v| v.index() < slots)
            .map(Expr::var)
            .collect(),
    );
    all.clone().eq(all)
}

/// `fair` under `mapping`, as the checker substitutes it.
pub fn mapped_fairness(fair: &Fairness, mapping: &Substitution) -> Fairness {
    let mapped = mapping
        .formula(&Formula::Fair(fair.clone()))
        .expect("the mapping applies to the fairness condition");
    let Formula::Fair(mapped) = mapped else {
        unreachable!("substitution preserves the Fair constructor");
    };
    mapped
}

/// The fairness target `fair` / `enabled` under `mapping`, substituted
/// here and widened so that the checker evaluates it per edge.
pub fn direct_fair_target(
    system: &System,
    graph: &StateGraph,
    fair: &Fairness,
    enabled: Option<&Expr>,
    mapping: &Substitution,
) -> LiveTarget {
    let mapped = mapped_fairness(fair, mapping);
    let wide = Fairness {
        action: Expr::all([mapped.action, mentions_every_variable(system, graph)]),
        ..mapped
    };
    match enabled {
        Some(e) => LiveTarget::fair_with_enabled(
            wide,
            mapping.expr(e).expect("the mapping applies to Enabled"),
        ),
        None => LiveTarget::fair(wide),
    }
}

/// A state predicate widened the same way (it renders differently, so
/// the reason line of a `◇P`-style verdict is not comparable).
pub fn direct_pred(system: &System, graph: &StateGraph, p: &Expr) -> Expr {
    Expr::all([p.clone(), mentions_every_variable(system, graph)])
}

/// One `image_memo` event.
#[derive(Clone, Debug)]
pub struct Pass {
    pub classes: u64,
    pub distinct_pairs: u64,
    pub edges: u64,
    pub skipped: bool,
}

/// Collects the `image_memo` events of the checks run under it, and
/// counts every event.
#[derive(Default)]
pub struct Passes(Mutex<Vec<Pass>>, CountingRecorder);

impl Passes {
    /// The events since the last call.
    pub fn take(&self) -> Vec<Pass> {
        std::mem::take(&mut *self.0.lock().unwrap())
    }

    /// The tallies of every event recorded.
    pub fn counting(&self) -> &CountingRecorder {
        &self.1
    }
}

impl Recorder for Passes {
    fn record(&self, event: &Event<'_>) {
        self.1.record(event);
        if let Event::ImageMemo {
            classes,
            distinct_pairs,
            edges,
            skipped,
            ..
        } = event
        {
            self.0.lock().unwrap().push(Pass {
                classes: *classes,
                distinct_pairs: *distinct_pairs,
                edges: *edges,
                skipped: *skipped,
            });
        }
    }
}

/// Steps of `graph` to run a lemma on: every edge and every stuttering
/// step of every `stride`-th state.
fn steps(graph: &StateGraph, stride: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    (0..graph.len()).step_by(stride).flat_map(move |s| {
        graph
            .edges(s)
            .iter()
            .map(|e| e.target as usize)
            .chain([s])
            .map(move |t| (s, t))
    })
}

/// What one lookup must satisfy: the memo's `answer` is the `direct`
/// result, and so is the result `on_images`, if the abstract evaluation
/// ran. Returns whether it ran.
fn agree(
    ctx: &str,
    at: &str,
    answer: Result<bool, EvalError>,
    on_images: Option<Result<bool, EvalError>>,
    direct: Result<bool, EvalError>,
) -> usize {
    assert_eq!(answer, direct, "{ctx}: {at}: the memo's answer");
    if let Some(on_images) = &on_images {
        assert_eq!(*on_images, direct, "{ctx}: {at}: on the abstract state(s)");
    }
    usize::from(on_images.is_some())
}

/// On each of those steps whose endpoints both have a class:
/// `abstractly`, compiled, on the views a miss is decided on equals
/// `substituted`, interpreted, on the concrete pair — as results, so an
/// error of the one is the same error of the other. Returns the steps
/// compared.
pub fn lemma_on_every_step(
    ctx: &str,
    graph: &StateGraph,
    classes: &Classes<'_>,
    stride: usize,
    abstractly: &Expr,
    substituted: &Expr,
) -> usize {
    let (program, mut scratch) = (CompiledExpr::compile(abstractly), EvalScratch::new());
    let mut compared = 0;
    for (s, t) in steps(graph, stride) {
        let direct = substituted.holds_action(StatePair::new(graph.state(s), graph.state(t)));
        let mut on_images = None;
        // A memo of its own: every step is a miss.
        let answer = Memo::new(classes).step(
            s,
            t,
            |s_bar, t_bar| {
                let result = program.holds_step(&s_bar, &t_bar, &mut scratch);
                on_images = Some(result.clone());
                result
            },
            || direct.clone(),
        );
        compared += agree(ctx, &format!("step {s} -> {t}"), answer, on_images, direct);
    }
    compared
}

/// [`lemma_on_every_step`] for a state predicate, on every `stride`-th
/// state.
pub fn lemma_on_every_state(
    ctx: &str,
    graph: &StateGraph,
    classes: &Classes<'_>,
    stride: usize,
    abstractly: &Expr,
    substituted: &Expr,
) -> usize {
    let (program, mut scratch) = (CompiledExpr::compile(abstractly), EvalScratch::new());
    let mut compared = 0;
    for s in (0..graph.len()).step_by(stride) {
        let direct = substituted.holds_state(graph.state(s));
        let mut on_image = None;
        let answer = Memo::new(classes).state(
            s,
            |s_bar| {
                let result = program.holds(&s_bar, &mut scratch);
                on_image = Some(result.clone());
                result
            },
            || direct.clone(),
        );
        compared += agree(ctx, &format!("state {s}"), answer, on_image, direct);
    }
    compared
}
