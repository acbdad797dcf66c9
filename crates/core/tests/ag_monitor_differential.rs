//! The `⊳` monitor against a per-edge reference.
//!
//! The monitor decides each side's conjuncts once per pair of classes
//! once it has crossed a few hundred edges, reads shared state
//! functions from per-state columns, and evaluates a mapped box without
//! its redundant `UNCHANGED` disjunct. The reference below does none of
//! that: it runs the same breadth-first search over
//! `graph × {E intact, E broken}`, evaluating every conjunct of `E` and
//! `M` — the boxes as `safety_canonical` writes them — on every edge,
//! by the interpreter. Verdict, reason, trace, `env_break` and errors
//! must be the same text.
//!
//! The systems are random two-stage buffers `q1 → q2` fed from a wire
//! `d`, which an environment toggles and may break; each waits for a
//! clock, so the monitor crosses several hundred edges before the
//! buffers move — past the point where its memos start — on most
//! draws. The guarantee is written over one abstract sequence and
//! mapped onto `q2 ∘ q1` by `Substitution::formula`, so `q̄`, and
//! `Tail(q̄)` when it is read twice, are shared partial functions; some
//! draws add an invariant that errs (`Head` of a one-element sequence)
//! where its shared reads are defined.

use opentla::{check_ag_safety_diagnosed, closed_product, AgReport, AssumptionBreak};
use opentla::{ComponentSpec, SpecError};
use opentla_check::{explore, CheckError, Counterexample, ExploreOptions, GuardedAction, Init};
use opentla_check::{StateGraph, System, Verdict};
use opentla_kernel::Vars;
use opentla_kernel::{Domain, EvalError, Expr, Formula, StatePair, Substitution, Value};
use opentla_semantics::{safety_canonical, SafetyCanonical};
use proptest::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// One draw.
#[derive(Clone, Copy, Debug)]
struct Draw {
    /// Ticks before the buffers run.
    warmup: i64,
    /// Each stage's capacity.
    cap: usize,
    /// Whether the environment may set `d` to 2.
    breaks: bool,
    /// Whether a full `q2` may put a 2 at its head on its own.
    spoil: bool,
    /// Whether `q1` may lose its head.
    lossy: bool,
    /// Which extra invariant the guarantee has (0: none).
    invariant: u8,
    /// Whether the assumption constrains `d`'s steps too.
    env_box: bool,
}

/// The system, `E`, and the mapped `M`.
fn build(draw: Draw) -> Result<(System, Formula, Formula), SpecError> {
    let mut vars = Vars::new();
    let values = Domain::int_range(0, 2);
    let c = vars.declare("c", Domain::int_range(0, draw.warmup));
    let q1 = vars.declare("q1", Domain::seqs_up_to(&values, draw.cap));
    let q2 = vars.declare("q2", Domain::seqs_up_to(&values, draw.cap));
    let d = vars.declare("d", values.clone());
    let big = vars.declare("big", Domain::seqs_up_to(&values, 2 * draw.cap));
    let (cv, q1v, q2v, dv) = (Expr::var(c), Expr::var(q1), Expr::var(q2), Expr::var(d));
    let cap = Expr::int(draw.cap as i64);
    let running = |guard: Expr| cv.clone().eq(Expr::int(draw.warmup)).and(guard);
    let nonempty = |q: &Expr| q.clone().len().gt(Expr::int(0));
    let clock = ComponentSpec::builder("clock")
        .outputs([c])
        .init(Init::new([(c, Value::Int(0))]))
        .action(GuardedAction::new(
            "tick",
            cv.clone().lt(Expr::int(draw.warmup)),
            vec![(c, cv.clone().add(Expr::int(1)))],
        ))
        .build()?;
    let mut buf = ComponentSpec::builder("buf")
        .outputs([q1, q2])
        .inputs([c, d])
        .init(Init::new([
            (q1, Value::empty_seq()),
            (q2, Value::empty_seq()),
        ]))
        .action(GuardedAction::new(
            "push",
            running(q1v.clone().len().lt(cap.clone())),
            vec![(q1, q1v.clone().concat(Expr::MkSeq(vec![dv.clone()])))],
        ))
        .action(GuardedAction::new(
            "move",
            running(nonempty(&q1v).and(q2v.clone().len().lt(cap.clone()))),
            vec![
                (q1, q1v.clone().tail()),
                (
                    q2,
                    q2v.clone().concat(Expr::MkSeq(vec![q1v.clone().head()])),
                ),
            ],
        ))
        .action(GuardedAction::new(
            "pop",
            running(nonempty(&q2v)),
            vec![(q2, q2v.clone().tail())],
        ));
    if draw.spoil {
        buf = buf.action(GuardedAction::new(
            "spoil",
            running(q2v.clone().len().eq(cap.clone())),
            vec![(
                q2,
                Expr::MkSeq(vec![Expr::int(2)]).concat(q2v.clone().tail()),
            )],
        ));
    }
    if draw.lossy {
        buf = buf.action(GuardedAction::new(
            "lose",
            running(nonempty(&q1v)),
            vec![(q1, q1v.clone().tail())],
        ));
    }
    let mut env = ComponentSpec::builder("env")
        .outputs([d])
        .inputs([q1])
        .init(Init::new([(d, Value::Int(0))]))
        .action(GuardedAction::new(
            "toggle",
            dv.clone().lt(Expr::int(2)),
            vec![(d, Expr::int(1).sub(dv.clone()))],
        ));
    if draw.breaks {
        env = env.action(GuardedAction::new(
            "break_d",
            dv.clone().lt(Expr::int(2)),
            vec![(d, Expr::int(2))],
        ));
    }
    let system = closed_product(&vars, &[&clock, &buf.build()?, &env.build()?])?;

    let mut assumption = Formula::pred(dv.clone().ne(Expr::int(2))).always();
    if draw.env_box {
        let toggles = Expr::prime(d).eq(Expr::int(1).sub(dv.clone()));
        assumption = assumption.and(Formula::act_box(toggles, vec![d]));
    }

    let b = Expr::var(big);
    let push = (Expr::prime(big).eq(b.clone().concat(Expr::MkSeq(vec![dv.clone()]))))
        .and(b.clone().len().lt(Expr::int(2 * draw.cap as i64)));
    let pop = nonempty(&b).and(Expr::prime(big).eq(b.clone().tail()));
    let mut guarantee = Formula::pred(b.clone().len().eq(Expr::int(0)))
        .and(Formula::act_box(Expr::any([push, pop]), vec![big]));
    let extra = match draw.invariant {
        // Guarded: never errs.
        1 => Some(nonempty(&b).implies(b.clone().head().ne(Expr::int(2)))),
        // `Tail(q̄)` read twice (shared, undefined at an empty buffer)
        // and `Head` of it erring at a one-element buffer once `d` is 1.
        2 => Some(
            (nonempty(&b).and(dv.clone().eq(Expr::int(1))))
                .implies(b.clone().tail().head().ne(Expr::int(2))),
        ),
        // `Head(q̄)` read once, erring at an empty buffer once the
        // clock is done and `d` is 1.
        3 => Some(Expr::Ite(
            Box::new(
                cv.clone()
                    .eq(Expr::int(draw.warmup))
                    .and(dv.eq(Expr::int(1))),
            ),
            Box::new(b.clone().head().ne(Expr::int(2))),
            Box::new(Expr::bool(true)),
        )),
        _ => None,
    };
    if let Some(extra) = extra {
        guarantee = guarantee.and(Formula::pred(extra).always());
    }
    let mapping = Substitution::new([(big, q2v.concat(q1v))]);
    let guarantee = mapping.formula(&guarantee).expect("the mapping applies");
    Ok((system, assumption, guarantee))
}

/// The report as text, as `ag_monitor_pinned` writes it; an error as
/// its message.
fn answer(vars: &Vars, report: Result<AgReport, SpecError>) -> String {
    let report = match report {
        Ok(report) => report,
        Err(e) => return format!("error: {e}\n"),
    };
    let mut text = match &report.verdict {
        Verdict::Holds => "holds\n".to_string(),
        Verdict::Violated(cx) => format!("violated\n{}", cx.display(vars)),
    };
    if let Some(brk) = &report.env_break {
        text += &format!(
            "break at step {} by {:?}\nconjunct: {}\n{}",
            brk.step,
            brk.action,
            brk.conjunct,
            brk.trace.display(vars)
        );
    }
    text
}

/// One side for the reference: its conjuncts, and its boxes as actions
/// exactly as `safety_canonical` writes them.
struct RefSide {
    sc: SafetyCanonical,
    boxes: Vec<Expr>,
}

impl RefSide {
    fn new(f: &Formula) -> RefSide {
        let sc = safety_canonical(f).expect("safety-canonical");
        let boxes = sc.step_boxes();
        RefSide { sc, boxes }
    }

    /// The first initial predicate or invariant failing at `s`, as text.
    fn failing_state(
        &self,
        graph: &StateGraph,
        s: usize,
        vars: &Vars,
    ) -> Result<Option<String>, EvalError> {
        let s = graph.materialize(s);
        for p in self.sc.init.iter().chain(&self.sc.invariants) {
            if !p.holds_state(&s)? {
                return Ok(Some(p.display(vars).to_string()));
            }
        }
        Ok(None)
    }

    /// The first box, then invariant at `t`, failing on `⟨s, t⟩`.
    fn failing_step(
        &self,
        graph: &StateGraph,
        s: usize,
        t: usize,
        vars: &Vars,
    ) -> Result<Option<String>, EvalError> {
        let (s, t) = (graph.materialize(s), graph.materialize(t));
        for (i, step_box) in self.boxes.iter().enumerate() {
            if !step_box.holds_action(StatePair::new(&s, &t))? {
                let (a, sub) = &self.sc.boxes[i];
                let subscript: Vec<&str> = sub.iter().map(|v| vars.name(*v)).collect();
                return Ok(Some(format!(
                    "□[{}]_⟨{}⟩",
                    a.display(vars),
                    subscript.join(", ")
                )));
            }
        }
        for p in &self.sc.invariants {
            if !p.holds_state(&t)? {
                return Ok(Some(p.display(vars).to_string()));
            }
        }
        Ok(None)
    }
}

/// The per-edge reference monitor.
fn reference(
    system: &System,
    graph: &StateGraph,
    env: &Formula,
    sys: &Formula,
) -> Result<AgReport, SpecError> {
    let err = |e: EvalError| SpecError::from(CheckError::from(e));
    let vars = system.vars();
    let (env, sys) = (RefSide::new(env), RefSide::new(sys));
    let mut parent: HashMap<(usize, bool), Option<(usize, usize)>> = HashMap::new();
    let mut queue = VecDeque::new();
    let mut env_break: Option<(usize, Option<usize>, String)> = None;
    let trace = |parent: &HashMap<(usize, bool), Option<(usize, usize)>>, last: (usize, bool)| {
        let mut rev = Vec::new();
        let mut at = last;
        loop {
            match parent[&at] {
                Some((p, action)) => {
                    rev.push((Some(action), at.0));
                    at = (p, false);
                }
                None => {
                    rev.push((None, at.0));
                    break;
                }
            }
        }
        rev.reverse();
        let states: Vec<_> = rev.iter().map(|(_, id)| graph.materialize(*id)).collect();
        let actions: Vec<_> = (rev.iter())
            .map(|(a, _)| a.map(|i| system.actions()[i].name().to_string()))
            .collect();
        (states, actions)
    };
    for &id in graph.init() {
        if let Some(conjunct) = sys.failing_state(graph, id, vars).map_err(err)? {
            return Ok(AgReport {
                verdict: Verdict::Violated(Counterexample::new(
                    format!(
                        "guarantee's initial condition fails at step 0 \
                         (violated conjunct: {conjunct}): E ⊳ M requires M \
                         to hold initially, unconditionally"
                    ),
                    vec![graph.materialize(id)],
                    vec![None],
                    None,
                )),
                env_break: None,
            });
        }
        let broken = env.failing_state(graph, id, vars).map_err(err)?;
        let key = (id, broken.is_some());
        if let Entry::Vacant(slot) = parent.entry(key) {
            slot.insert(None);
            queue.push_back(key);
            if let (None, Some(conjunct)) = (&env_break, broken) {
                env_break = Some((id, None, conjunct));
            }
        }
    }
    while let Some((id, env_broken)) = queue.pop_front() {
        if env_broken {
            continue;
        }
        for e in graph.edges(id) {
            if let Some(conjunct) = sys
                .failing_step(graph, id, e.target as usize, vars)
                .map_err(err)?
            {
                let action = system.actions()[e.action as usize].name().to_string();
                let (mut states, mut actions) = trace(&parent, (id, false));
                let step = states.len();
                states.push(graph.materialize(e.target as usize));
                actions.push(Some(action.clone()));
                return Ok(AgReport {
                    verdict: Verdict::Violated(Counterexample::new(
                        format!(
                            "guarantee violated at step {step} by action \
                             {action} while the assumption still held, or on \
                             the same step (violated conjunct: {conjunct}): \
                             E ⊳ M fails"
                        ),
                        states,
                        actions,
                        None,
                    )),
                    env_break: None,
                });
            }
            let broken = env
                .failing_step(graph, id, e.target as usize, vars)
                .map_err(err)?;
            let key = (e.target as usize, broken.is_some());
            if let Entry::Vacant(slot) = parent.entry(key) {
                slot.insert(Some((id, e.action as usize)));
                queue.push_back(key);
                if let (None, Some(conjunct)) = (&env_break, broken) {
                    env_break = Some((e.target as usize, Some(e.action as usize), conjunct));
                }
            }
        }
    }
    let env_break = env_break.map(|(id, action, conjunct)| {
        let (states, actions) = trace(&parent, (id, true));
        let mut brk = AssumptionBreak {
            step: states.len() - 1,
            action: action.map(|i| system.actions()[i].name().to_string()),
            conjunct,
            trace: Counterexample::new(String::new(), states.clone(), actions.clone(), None),
        };
        brk.trace = Counterexample::new(brk.to_string(), states, actions, None);
        brk
    });
    Ok(AgReport {
        verdict: Verdict::Holds,
        env_break,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The monitor answers as the per-edge reference does, text for
    /// text, errors included.
    #[test]
    fn the_memoized_monitor_answers_as_every_edge_evaluated(
        warmup in 0..=110i64,
        cap in 1..=2usize,
        flags in 0..32u8,
        invariant in 0..4u8,
    ) {
        let draw = Draw {
            warmup,
            cap,
            breaks: flags & 1 != 0,
            spoil: flags & 2 != 0,
            lossy: flags & 4 != 0,
            env_box: flags & 8 != 0,
            invariant,
        };
        let (system, env, sys) = build(draw).expect("well-formed");
        let graph = explore(&system, &ExploreOptions::default()).expect("explores");
        let vars = system.vars();
        let got = answer(vars, check_ag_safety_diagnosed(&system, &graph, &env, &sys));
        let want = answer(vars, reference(&system, &graph, &env, &sys));
        prop_assert_eq!(got, want, "{:?}", draw);
    }
}

/// The draws above reach what they are meant to: some answers come
/// after the memos start, and every kind of answer occurs.
#[test]
fn the_draws_cover_every_kind_of_answer() {
    let mut seen = [false; 4];
    for (warmup, flags, invariant) in [
        (100, 0, 0),
        (100, 2, 1),
        (100, 1, 0),
        (100, 0, 2),
        (100, 0, 3),
    ] {
        let draw = Draw {
            warmup,
            cap: 2,
            breaks: flags & 1 != 0,
            spoil: flags & 2 != 0,
            lossy: false,
            env_box: false,
            invariant,
        };
        let (system, env, sys) = build(draw).expect("well-formed");
        let graph = explore(&system, &ExploreOptions::default()).expect("explores");
        assert!(
            graph.edge_count() > 600,
            "{draw:?} crosses past the memos' start"
        );
        match check_ag_safety_diagnosed(&system, &graph, &env, &sys) {
            Ok(report) if report.env_break.is_some() => seen[0] = true,
            Ok(report) if report.holds() => seen[1] = true,
            Ok(_) => seen[2] = true,
            Err(_) => seen[3] = true,
        }
    }
    assert_eq!(seen, [true; 4], "break, holds, violated, error");
}
