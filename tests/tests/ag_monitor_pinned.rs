//! The `⊳` monitor's answers, pinned: for every case below, the
//! verdict, the reason text and trace of a violation, and the step,
//! action, conjunct and trace of the earliest assumption break are
//! compared, as text, with what the monitor answered before its
//! conjuncts read shared state functions from per-state columns.
//!
//! The cases are the queue chains' crash faults (`QueueChain(2,1,2)`
//! and `(3,1,2)`: the crashing environment and every crashing queue),
//! the lossy alternating-bit protocol, `hostile_env`'s saboteur, a
//! single queue against a chaos environment, and three guarantees over
//! a buffer that repeat a partial function (`Head(q)`, `Tail(q)`), so
//! that the monitor decides some steps on the plain program: where a
//! shared function is undefined, and where the hoisted program errs.
//! Each buffer waits for a clock, so the monitor crosses several
//! hundred edges first, past the point where it starts reading shared
//! functions from columns.
//!
//! On a mismatch the test prints every case that differs, as it reads
//! now, in the form of `PINNED`.

use opentla::{chaos_environment, check_ag_safety_diagnosed, closed_product, faults};
use opentla::{ComponentSpec, SpecError};
use opentla_check::{explore, ExploreOptions, GuardedAction, Init, System, Verdict};
use opentla_kernel::{Domain, Expr, Formula, Value, VarId, Vars};
use opentla_queue::{FairnessStyle, QueueChain, SingleQueue};
use opentla_scenarios::AlternatingBit;

/// One monitored system: the system, `E` and `M`.
struct Case {
    name: String,
    system: System,
    env: Formula,
    sys: Formula,
}

fn case(name: impl Into<String>, system: System, env: Formula, sys: Formula) -> Case {
    Case {
        name: name.into(),
        system,
        env,
        sys,
    }
}

fn chain_cases(k: usize) -> Vec<Case> {
    let chain = QueueChain::new(k, 1, 2, FairnessStyle::None);
    let env = chain.outer_assumption();
    let sys = chain.big_queue_guarantee().unwrap();
    let mut cases = vec![case(
        format!("chain({k},1,2) crashy env"),
        chain.crashy_env_system().unwrap(),
        env.clone(),
        sys.clone(),
    )];
    for j in 1..=k {
        cases.push(case(
            format!("chain({k},1,2) crashy queue {j}"),
            chain.crashy_queue_system(j).unwrap(),
            env.clone(),
            sys.clone(),
        ));
    }
    cases
}

/// The buffers' capacity.
const CAP: i64 = 2;
/// Ticks of a clock before a buffer starts: the monitor crosses several
/// hundred edges first, past the point where it starts reading shared
/// functions from columns, and meets every buffer state after it.
const WARMUP: i64 = 100;

/// A buffer `q` of up to [`CAP`] values in `0..=2`, fed from `d`, which
/// an environment toggles between 0 and 1 and may set to 2, breaking
/// the assumption `□(d ≠ 2)`; the buffer runs once a clock `c` has
/// ticked [`WARMUP`] times, and `spoil` lets a full buffer put a 2 at
/// its head on its own.
fn buffer(spoil: bool) -> Result<(System, Formula, VarId), SpecError> {
    let mut vars = Vars::new();
    let values = Domain::int_range(0, 2);
    let c = vars.declare("c", Domain::int_range(0, WARMUP));
    let q = vars.declare("q", Domain::seqs_up_to(&values, CAP as usize));
    let d = vars.declare("d", values);
    let (cv, qv, dv) = (Expr::var(c), Expr::var(q), Expr::var(d));
    let len = || qv.clone().len();
    let running = |guard: Expr| cv.clone().eq(Expr::int(WARMUP)).and(guard);
    let clock = ComponentSpec::builder("clock")
        .outputs([c])
        .init(Init::new([(c, Value::Int(0))]))
        .action(GuardedAction::new(
            "tick",
            cv.clone().lt(Expr::int(WARMUP)),
            vec![(c, cv.clone().add(Expr::int(1)))],
        ))
        .build()?;
    let mut buf = ComponentSpec::builder("buf")
        .outputs([q])
        .inputs([c, d])
        .init(Init::new([(q, Value::empty_seq())]))
        .action(GuardedAction::new(
            "push",
            running(len().lt(Expr::int(CAP))),
            vec![(q, qv.clone().concat(Expr::MkSeq(vec![dv.clone()])))],
        ))
        .action(GuardedAction::new(
            "pop",
            running(len().gt(Expr::int(0))),
            vec![(q, qv.clone().tail())],
        ));
    if spoil {
        buf = buf.action(GuardedAction::new(
            "spoil",
            running(len().eq(Expr::int(CAP))),
            vec![(q, Expr::MkSeq(vec![Expr::int(2)]).concat(qv.clone().tail()))],
        ));
    }
    let env = ComponentSpec::builder("env")
        .outputs([d])
        .inputs([q])
        .init(Init::new([(d, Value::Int(0))]))
        .action(GuardedAction::new(
            "toggle",
            dv.clone().lt(Expr::int(2)),
            vec![(d, Expr::int(1).sub(dv.clone()))],
        ))
        .action(GuardedAction::new(
            "break_d",
            dv.clone().lt(Expr::int(2)),
            vec![(d, Expr::int(2))],
        ))
        .build()?;
    let system = closed_product(&vars, &[&clock, &buf.build()?, &env])?;
    Ok((system, Formula::pred(dv.ne(Expr::int(2))).always(), q))
}

fn buffer_cases() -> Vec<Case> {
    let nonempty = |q: &Expr| q.clone().len().gt(Expr::int(0));
    let mut cases = Vec::new();
    // `Head(q)` twice and `Head(q′)` twice, undefined wherever q is
    // empty.
    for spoil in [false, true] {
        let (system, env, q) = buffer(spoil).unwrap();
        let (q0, q1) = (Expr::var(q), Expr::prime(q));
        let head_ok = nonempty(&q0).implies(q0.clone().head().ne(Expr::int(2)));
        let step = Expr::all([nonempty(&q0), nonempty(&q1)]).implies(
            (q1.clone().head().eq(q0.clone().head())).or(q1.clone().head().ne(Expr::int(2))),
        );
        let sys = Formula::pred(q0.len().eq(Expr::int(0)))
            .and(Formula::pred(head_ok).always())
            .and(Formula::act_box(step, vec![q]));
        let name = if spoil {
            "buffer Head(q) spoiled"
        } else {
            "buffer Head(q)"
        };
        cases.push(case(name, system, env, sys));
    }
    // `Tail(q)` twice, defined at a one-element buffer where
    // `Head(Tail(q))` errs: the hoisted program errs there and the
    // plain one answers.
    let (system, env, q) = buffer(false).unwrap();
    let q0 = Expr::var(q);
    let tail = q0.clone().tail();
    let sys = Formula::pred(nonempty(&q0).implies(tail.clone().len().lt(Expr::int(CAP))))
        .always()
        .and(Formula::pred(nonempty(&q0).implies(tail.head().eq(Expr::int(0)))).always());
    cases.push(case("buffer Head(Tail(q))", system, env, sys));
    cases
}

fn cases() -> Vec<Case> {
    let mut cases = chain_cases(2);
    cases.extend(chain_cases(3));
    let abp = AlternatingBit::new(2);
    cases.push(case(
        "lossy ABP",
        abp.lossy_system().unwrap(),
        abp.receiver_assumption(),
        abp.receiver_guarantee(),
    ));
    let saboteur = faults::hostile_env(
        &abp.complete_system().unwrap(),
        &abp.in_order_invariant(),
        2,
    );
    cases.push(case(
        "ABP hostile_env saboteur",
        saboteur.unwrap(),
        Formula::pred(abp.in_order_invariant()).always(),
        abp.sender_guarantee(),
    ));
    let single = SingleQueue::new(2, 2, FairnessStyle::None);
    let ag = single.ag_spec().unwrap();
    cases.push(case(
        "single queue against chaos",
        single.chaos_system().unwrap(),
        ag.env().safety_formula(),
        ag.sys().safety_formula(),
    ));
    let mut vars = Vars::new();
    let c = vars.declare("c", Domain::bits());
    let d = vars.declare("d", Domain::bits());
    let copier = ComponentSpec::builder("Pi_c")
        .outputs([c])
        .inputs([d])
        .init(Init::new([(c, Value::Int(0))]))
        .action(GuardedAction::new(
            "copy",
            Expr::bool(true),
            vec![(c, Expr::var(d))],
        ))
        .build()
        .unwrap();
    let chaos = chaos_environment("chaos_d", &vars, &[d]);
    let stays_zero = |v| {
        Formula::pred(Expr::var(v).eq(Expr::int(0)))
            .and(Formula::act_box(Expr::bool(false), vec![v]))
    };
    cases.push(case(
        "copier against chaos",
        closed_product(&vars, &[&copier, &chaos]).unwrap(),
        stays_zero(d),
        stays_zero(c),
    ));
    cases.extend(buffer_cases());
    cases
}

/// What the monitor answered on `case`, as text.
fn answer(case: &Case) -> String {
    let graph = explore(&case.system, &ExploreOptions::default()).unwrap();
    let vars = case.system.vars();
    let report = match check_ag_safety_diagnosed(&case.system, &graph, &case.env, &case.sys) {
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

#[test]
fn monitor_answers_are_pinned() {
    let mut differ = Vec::new();
    let cases = cases();
    for case in &cases {
        let got = answer(case);
        let pinned = PINNED.iter().find(|(name, _)| *name == case.name);
        if pinned.map(|(_, text)| *text) != Some(got.as_str()) {
            differ.push(format!("    ({:?}, {:?}),", case.name, got));
        }
    }
    assert!(
        differ.is_empty(),
        "{} of {} answers differ; as they read now:\n{}",
        differ.len(),
        cases.len(),
        differ.join("\n")
    );
    assert_eq!(PINNED.len(), cases.len(), "one pinned answer per case");
}

/// Each case's answer at the commit before the hoisted monitor.
const PINNED: &[(&str, &str)] = &[
    ("chain(2,1,2) crashy env", "holds\nbreak at step 1 by Some(\"fault:crash_restart\")\nconjunct: □[(((i.sig = i.ack) ∧ (i.val' = 0) ∧ (i.sig' = (1 - i.sig)) ∧ (o.ack' = o.ack) ∧ (i.ack' = i.ack) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val)) ∨ ((i.sig = i.ack) ∧ (i.val' = 1) ∧ (i.sig' = (1 - i.sig)) ∧ (o.ack' = o.ack) ∧ (i.ack' = i.ack) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val)) ∨ ((o.sig ≠ o.ack) ∧ (o.ack' = (1 - o.ack)) ∧ (i.sig' = i.sig) ∧ (i.val' = i.val) ∧ (i.ack' = i.ack) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val)))]_⟨i.sig, i.val, o.ack⟩\ncounterexample: assumption violated by environment at step 1: action fault:crash_restart broke conjunct □[(((i.sig = i.ack) ∧ (i.val' = 0) ∧ (i.sig' = (1 - i.sig)) ∧ (o.ack' = o.ack) ∧ (i.ack' = i.ack) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val)) ∨ ((i.sig = i.ack) ∧ (i.val' = 1) ∧ (i.sig' = (1 - i.sig)) ∧ (o.ack' = o.ack) ∧ (i.ack' = i.ack) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val)) ∨ ((o.sig ≠ o.ack) ∧ (o.ack' = (1 - o.ack)) ∧ (i.sig' = i.sig) ∧ (i.val' = i.val) ∧ (i.ack' = i.ack) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val)))]_⟨i.sig, i.val, o.ack⟩; E broken at step 1, M held 2 steps — the one-step-longer margin E ⊳ M requires\n    0 [(init)] i.sig=0 i.ack=0 i.val=1 z1.sig=0 z1.ack=0 z1.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q_big=«»\n    1 [fault:crash_restart] i.sig=0 i.ack=0 i.val=0 z1.sig=0 z1.ack=0 z1.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q_big=«»\n"),
    ("chain(2,1,2) crashy queue 1", "violated\ncounterexample: guarantee violated at step 3 by action fault:crash_restart while the assumption still held, or on the same step (violated conjunct: □[(((i.sig ≠ i.ack) ∧ (Len(((q2 ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1)) < 3) ∧ (((q2' ∘ (IF (z1.sig' ≠ z1.ack') THEN «z1.val'» ELSE «»)) ∘ q1') = (((q2 ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1) ∘ «i.val»)) ∧ (i.ack' = (1 - i.ack)) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val) ∧ (i.sig' = i.sig) ∧ (i.val' = i.val) ∧ (o.ack' = o.ack)) ∨ ((o.sig = o.ack) ∧ (Len(((q2 ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1)) > 0) ∧ (o.val' = Head(((q2 ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1))) ∧ (o.sig' = (1 - o.sig)) ∧ (((q2' ∘ (IF (z1.sig' ≠ z1.ack') THEN «z1.val'» ELSE «»)) ∘ q1') = Tail(((q2 ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1))) ∧ (i.ack' = i.ack) ∧ (i.sig' = i.sig) ∧ (i.val' = i.val) ∧ (o.ack' = o.ack)) ∨ ((i.ack' = i.ack) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val) ∧ (((q2' ∘ (IF (z1.sig' ≠ z1.ack') THEN «z1.val'» ELSE «»)) ∘ q1') = ((q2 ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1))))]_⟨i.ack, z1.sig, z1.ack, z1.val, o.sig, o.val, q1, q2⟩): E ⊳ M fails\n    0 [(init)] i.sig=0 i.ack=0 i.val=0 z1.sig=0 z1.ack=0 z1.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q_big=«»\n    1 [Put(0)] i.sig=1 i.ack=0 i.val=0 z1.sig=0 z1.ack=0 z1.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q_big=«»\n    2 [Enq] i.sig=1 i.ack=1 i.val=0 z1.sig=0 z1.ack=0 z1.val=0 o.sig=0 o.ack=0 o.val=0 q1=«0» q2=«» q_big=«»\n    3 [fault:crash_restart] i.sig=1 i.ack=0 i.val=0 z1.sig=0 z1.ack=0 z1.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q_big=«»\n"),
    ("chain(2,1,2) crashy queue 2", "violated\ncounterexample: guarantee violated at step 1 by action fault:crash_restart while the assumption still held, or on the same step (violated conjunct: □[(((i.sig ≠ i.ack) ∧ (Len(((q2 ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1)) < 3) ∧ (((q2' ∘ (IF (z1.sig' ≠ z1.ack') THEN «z1.val'» ELSE «»)) ∘ q1') = (((q2 ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1) ∘ «i.val»)) ∧ (i.ack' = (1 - i.ack)) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val) ∧ (i.sig' = i.sig) ∧ (i.val' = i.val) ∧ (o.ack' = o.ack)) ∨ ((o.sig = o.ack) ∧ (Len(((q2 ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1)) > 0) ∧ (o.val' = Head(((q2 ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1))) ∧ (o.sig' = (1 - o.sig)) ∧ (((q2' ∘ (IF (z1.sig' ≠ z1.ack') THEN «z1.val'» ELSE «»)) ∘ q1') = Tail(((q2 ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1))) ∧ (i.ack' = i.ack) ∧ (i.sig' = i.sig) ∧ (i.val' = i.val) ∧ (o.ack' = o.ack)) ∨ ((i.ack' = i.ack) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val) ∧ (((q2' ∘ (IF (z1.sig' ≠ z1.ack') THEN «z1.val'» ELSE «»)) ∘ q1') = ((q2 ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1))))]_⟨i.ack, z1.sig, z1.ack, z1.val, o.sig, o.val, q1, q2⟩): E ⊳ M fails\n    0 [(init)] i.sig=0 i.ack=0 i.val=0 z1.sig=0 z1.ack=0 z1.val=0 o.sig=0 o.ack=0 o.val=1 q1=«» q2=«» q_big=«»\n    1 [fault:crash_restart] i.sig=0 i.ack=0 i.val=0 z1.sig=0 z1.ack=0 z1.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q_big=«»\n"),
    ("chain(3,1,2) crashy env", "holds\nbreak at step 1 by Some(\"fault:crash_restart\")\nconjunct: □[(((i.sig = i.ack) ∧ (i.val' = 0) ∧ (i.sig' = (1 - i.sig)) ∧ (o.ack' = o.ack) ∧ (i.ack' = i.ack) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val)) ∨ ((i.sig = i.ack) ∧ (i.val' = 1) ∧ (i.sig' = (1 - i.sig)) ∧ (o.ack' = o.ack) ∧ (i.ack' = i.ack) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val)) ∨ ((o.sig ≠ o.ack) ∧ (o.ack' = (1 - o.ack)) ∧ (i.sig' = i.sig) ∧ (i.val' = i.val) ∧ (i.ack' = i.ack) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val)))]_⟨i.sig, i.val, o.ack⟩\ncounterexample: assumption violated by environment at step 1: action fault:crash_restart broke conjunct □[(((i.sig = i.ack) ∧ (i.val' = 0) ∧ (i.sig' = (1 - i.sig)) ∧ (o.ack' = o.ack) ∧ (i.ack' = i.ack) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val)) ∨ ((i.sig = i.ack) ∧ (i.val' = 1) ∧ (i.sig' = (1 - i.sig)) ∧ (o.ack' = o.ack) ∧ (i.ack' = i.ack) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val)) ∨ ((o.sig ≠ o.ack) ∧ (o.ack' = (1 - o.ack)) ∧ (i.sig' = i.sig) ∧ (i.val' = i.val) ∧ (i.ack' = i.ack) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val)))]_⟨i.sig, i.val, o.ack⟩; E broken at step 1, M held 2 steps — the one-step-longer margin E ⊳ M requires\n    0 [(init)] i.sig=0 i.ack=0 i.val=1 z1.sig=0 z1.ack=0 z1.val=0 z2.sig=0 z2.ack=0 z2.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q3=«» q_big=«»\n    1 [fault:crash_restart] i.sig=0 i.ack=0 i.val=0 z1.sig=0 z1.ack=0 z1.val=0 z2.sig=0 z2.ack=0 z2.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q3=«» q_big=«»\n"),
    ("chain(3,1,2) crashy queue 1", "violated\ncounterexample: guarantee violated at step 3 by action fault:crash_restart while the assumption still held, or on the same step (violated conjunct: □[(((i.sig ≠ i.ack) ∧ (Len(((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1)) < 5) ∧ (((((q3' ∘ (IF (z2.sig' ≠ z2.ack') THEN «z2.val'» ELSE «»)) ∘ q2') ∘ (IF (z1.sig' ≠ z1.ack') THEN «z1.val'» ELSE «»)) ∘ q1') = (((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1) ∘ «i.val»)) ∧ (i.ack' = (1 - i.ack)) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val) ∧ (i.sig' = i.sig) ∧ (i.val' = i.val) ∧ (o.ack' = o.ack)) ∨ ((o.sig = o.ack) ∧ (Len(((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1)) > 0) ∧ (o.val' = Head(((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1))) ∧ (o.sig' = (1 - o.sig)) ∧ (((((q3' ∘ (IF (z2.sig' ≠ z2.ack') THEN «z2.val'» ELSE «»)) ∘ q2') ∘ (IF (z1.sig' ≠ z1.ack') THEN «z1.val'» ELSE «»)) ∘ q1') = Tail(((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1))) ∧ (i.ack' = i.ack) ∧ (i.sig' = i.sig) ∧ (i.val' = i.val) ∧ (o.ack' = o.ack)) ∨ ((i.ack' = i.ack) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val) ∧ (((((q3' ∘ (IF (z2.sig' ≠ z2.ack') THEN «z2.val'» ELSE «»)) ∘ q2') ∘ (IF (z1.sig' ≠ z1.ack') THEN «z1.val'» ELSE «»)) ∘ q1') = ((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1))))]_⟨i.ack, z1.sig, z1.ack, z1.val, z2.sig, z2.ack, z2.val, o.sig, o.val, q1, q2, q3⟩): E ⊳ M fails\n    0 [(init)] i.sig=0 i.ack=0 i.val=0 z1.sig=0 z1.ack=0 z1.val=0 z2.sig=0 z2.ack=0 z2.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q3=«» q_big=«»\n    1 [Put(0)] i.sig=1 i.ack=0 i.val=0 z1.sig=0 z1.ack=0 z1.val=0 z2.sig=0 z2.ack=0 z2.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q3=«» q_big=«»\n    2 [Enq] i.sig=1 i.ack=1 i.val=0 z1.sig=0 z1.ack=0 z1.val=0 z2.sig=0 z2.ack=0 z2.val=0 o.sig=0 o.ack=0 o.val=0 q1=«0» q2=«» q3=«» q_big=«»\n    3 [fault:crash_restart] i.sig=1 i.ack=0 i.val=0 z1.sig=0 z1.ack=0 z1.val=0 z2.sig=0 z2.ack=0 z2.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q3=«» q_big=«»\n"),
    ("chain(3,1,2) crashy queue 2", "violated\ncounterexample: guarantee violated at step 7 by action fault:crash_restart while the assumption still held, or on the same step (violated conjunct: □[(((i.sig ≠ i.ack) ∧ (Len(((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1)) < 5) ∧ (((((q3' ∘ (IF (z2.sig' ≠ z2.ack') THEN «z2.val'» ELSE «»)) ∘ q2') ∘ (IF (z1.sig' ≠ z1.ack') THEN «z1.val'» ELSE «»)) ∘ q1') = (((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1) ∘ «i.val»)) ∧ (i.ack' = (1 - i.ack)) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val) ∧ (i.sig' = i.sig) ∧ (i.val' = i.val) ∧ (o.ack' = o.ack)) ∨ ((o.sig = o.ack) ∧ (Len(((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1)) > 0) ∧ (o.val' = Head(((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1))) ∧ (o.sig' = (1 - o.sig)) ∧ (((((q3' ∘ (IF (z2.sig' ≠ z2.ack') THEN «z2.val'» ELSE «»)) ∘ q2') ∘ (IF (z1.sig' ≠ z1.ack') THEN «z1.val'» ELSE «»)) ∘ q1') = Tail(((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1))) ∧ (i.ack' = i.ack) ∧ (i.sig' = i.sig) ∧ (i.val' = i.val) ∧ (o.ack' = o.ack)) ∨ ((i.ack' = i.ack) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val) ∧ (((((q3' ∘ (IF (z2.sig' ≠ z2.ack') THEN «z2.val'» ELSE «»)) ∘ q2') ∘ (IF (z1.sig' ≠ z1.ack') THEN «z1.val'» ELSE «»)) ∘ q1') = ((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1))))]_⟨i.ack, z1.sig, z1.ack, z1.val, z2.sig, z2.ack, z2.val, o.sig, o.val, q1, q2, q3⟩): E ⊳ M fails\n    0 [(init)] i.sig=0 i.ack=0 i.val=0 z1.sig=0 z1.ack=0 z1.val=0 z2.sig=0 z2.ack=0 z2.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q3=«» q_big=«»\n    1 [Put(0)] i.sig=1 i.ack=0 i.val=0 z1.sig=0 z1.ack=0 z1.val=0 z2.sig=0 z2.ack=0 z2.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q3=«» q_big=«»\n    2 [Enq] i.sig=1 i.ack=1 i.val=0 z1.sig=0 z1.ack=0 z1.val=0 z2.sig=0 z2.ack=0 z2.val=0 o.sig=0 o.ack=0 o.val=0 q1=«0» q2=«» q3=«» q_big=«»\n    3 [Deq] i.sig=1 i.ack=1 i.val=0 z1.sig=1 z1.ack=0 z1.val=0 z2.sig=0 z2.ack=0 z2.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q3=«» q_big=«»\n    4 [Enq] i.sig=1 i.ack=1 i.val=0 z1.sig=1 z1.ack=1 z1.val=0 z2.sig=0 z2.ack=0 z2.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«0» q3=«» q_big=«»\n    5 [Deq] i.sig=1 i.ack=1 i.val=0 z1.sig=1 z1.ack=1 z1.val=0 z2.sig=1 z2.ack=0 z2.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q3=«» q_big=«»\n    6 [Enq] i.sig=1 i.ack=1 i.val=0 z1.sig=1 z1.ack=1 z1.val=0 z2.sig=1 z2.ack=1 z2.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q3=«0» q_big=«»\n    7 [fault:crash_restart] i.sig=1 i.ack=1 i.val=0 z1.sig=1 z1.ack=0 z1.val=0 z2.sig=0 z2.ack=1 z2.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q3=«0» q_big=«»\n"),
    ("chain(3,1,2) crashy queue 3", "violated\ncounterexample: guarantee violated at step 1 by action fault:crash_restart while the assumption still held, or on the same step (violated conjunct: □[(((i.sig ≠ i.ack) ∧ (Len(((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1)) < 5) ∧ (((((q3' ∘ (IF (z2.sig' ≠ z2.ack') THEN «z2.val'» ELSE «»)) ∘ q2') ∘ (IF (z1.sig' ≠ z1.ack') THEN «z1.val'» ELSE «»)) ∘ q1') = (((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1) ∘ «i.val»)) ∧ (i.ack' = (1 - i.ack)) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val) ∧ (i.sig' = i.sig) ∧ (i.val' = i.val) ∧ (o.ack' = o.ack)) ∨ ((o.sig = o.ack) ∧ (Len(((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1)) > 0) ∧ (o.val' = Head(((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1))) ∧ (o.sig' = (1 - o.sig)) ∧ (((((q3' ∘ (IF (z2.sig' ≠ z2.ack') THEN «z2.val'» ELSE «»)) ∘ q2') ∘ (IF (z1.sig' ≠ z1.ack') THEN «z1.val'» ELSE «»)) ∘ q1') = Tail(((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1))) ∧ (i.ack' = i.ack) ∧ (i.sig' = i.sig) ∧ (i.val' = i.val) ∧ (o.ack' = o.ack)) ∨ ((i.ack' = i.ack) ∧ (o.sig' = o.sig) ∧ (o.val' = o.val) ∧ (((((q3' ∘ (IF (z2.sig' ≠ z2.ack') THEN «z2.val'» ELSE «»)) ∘ q2') ∘ (IF (z1.sig' ≠ z1.ack') THEN «z1.val'» ELSE «»)) ∘ q1') = ((((q3 ∘ (IF (z2.sig ≠ z2.ack) THEN «z2.val» ELSE «»)) ∘ q2) ∘ (IF (z1.sig ≠ z1.ack) THEN «z1.val» ELSE «»)) ∘ q1))))]_⟨i.ack, z1.sig, z1.ack, z1.val, z2.sig, z2.ack, z2.val, o.sig, o.val, q1, q2, q3⟩): E ⊳ M fails\n    0 [(init)] i.sig=0 i.ack=0 i.val=0 z1.sig=0 z1.ack=0 z1.val=0 z2.sig=0 z2.ack=0 z2.val=0 o.sig=0 o.ack=0 o.val=1 q1=«» q2=«» q3=«» q_big=«»\n    1 [fault:crash_restart] i.sig=0 i.ack=0 i.val=0 z1.sig=0 z1.ack=0 z1.val=0 z2.sig=0 z2.ack=0 z2.val=0 o.sig=0 o.ack=0 o.val=0 q1=«» q2=«» q3=«» q_big=«»\n"),
    ("lossy ABP", "holds\nbreak at step 6 by Some(\"fault:lossy[sync_f]\")\nconjunct: □[((f.bit = r.bit) ∧ (recv < 2) ∧ (f.val' = recv) ∧ (f.bit' = (1 - f.bit)) ∧ (r.bit' = r.bit) ∧ (recv' = recv))]_⟨f.bit, f.val⟩\ncounterexample: assumption violated by environment at step 6: action fault:lossy[sync_f] broke conjunct □[((f.bit = r.bit) ∧ (recv < 2) ∧ (f.val' = recv) ∧ (f.bit' = (1 - f.bit)) ∧ (r.bit' = r.bit) ∧ (recv' = recv))]_⟨f.bit, f.val⟩; E broken at step 6, M held 7 steps — the one-step-longer margin E ⊳ M requires\n    0 [(init)] s.bit=0 s.val=0 sent=0 f.bit=0 f.val=0 r.bit=0 recv=0 a.bit=0\n    1 [advance] s.bit=1 s.val=0 sent=1 f.bit=0 f.val=0 r.bit=0 recv=0 a.bit=0\n    2 [sync_f] s.bit=1 s.val=0 sent=1 f.bit=1 f.val=0 r.bit=0 recv=0 a.bit=0\n    3 [receive] s.bit=1 s.val=0 sent=1 f.bit=1 f.val=0 r.bit=1 recv=1 a.bit=0\n    4 [sync_a] s.bit=1 s.val=0 sent=1 f.bit=1 f.val=0 r.bit=1 recv=1 a.bit=1\n    5 [advance] s.bit=0 s.val=1 sent=2 f.bit=1 f.val=0 r.bit=1 recv=1 a.bit=1\n    6 [fault:lossy[sync_f]] s.bit=0 s.val=1 sent=2 f.bit=0 f.val=0 r.bit=1 recv=1 a.bit=1\n"),
    ("ABP hostile_env saboteur", "holds\nbreak at step 3 by Some(\"fault:hostile_env[0]\")\nconjunct: ((f.bit ≠ r.bit) ⇒ (f.val = recv))\ncounterexample: assumption violated by environment at step 3: action fault:hostile_env[0] broke conjunct ((f.bit ≠ r.bit) ⇒ (f.val = recv)); E broken at step 3, M held 4 steps — the one-step-longer margin E ⊳ M requires\n    0 [(init)] s.bit=0 s.val=0 sent=0 f.bit=0 f.val=0 r.bit=0 recv=0 a.bit=0 hostile_clock=0\n    1 [advance] s.bit=1 s.val=0 sent=1 f.bit=0 f.val=0 r.bit=0 recv=0 a.bit=0 hostile_clock=1\n    2 [sync_f] s.bit=1 s.val=0 sent=1 f.bit=1 f.val=0 r.bit=0 recv=0 a.bit=0 hostile_clock=2\n    3 [fault:hostile_env[0]] s.bit=1 s.val=0 sent=1 f.bit=1 f.val=1 r.bit=0 recv=0 a.bit=0 hostile_clock=2\n"),
    ("single queue against chaos", "holds\nbreak at step 0 by None\nconjunct: ((i.sig = 0) ∧ (o.ack = 0))\ncounterexample: assumption violated by environment at step 0: the initial state breaks conjunct ((i.sig = 0) ∧ (o.ack = 0)); E broken at step 0, M held 1 step — the one-step-longer margin E ⊳ M requires\n    0 [(init)] i.sig=1 i.ack=0 i.val=0 o.sig=0 o.ack=0 o.val=0 q=«»\n"),
    ("copier against chaos", "holds\nbreak at step 0 by None\nconjunct: (d = 0)\ncounterexample: assumption violated by environment at step 0: the initial state breaks conjunct (d = 0); E broken at step 0, M held 1 step — the one-step-longer margin E ⊳ M requires\n    0 [(init)] c=0 d=1\n"),
    ("buffer Head(q)", "holds\nbreak at step 1 by Some(\"break_d\")\nconjunct: (d ≠ 2)\ncounterexample: assumption violated by environment at step 1: action break_d broke conjunct (d ≠ 2); E broken at step 1, M held 2 steps — the one-step-longer margin E ⊳ M requires\n    0 [(init)] c=0 q=«» d=0\n    1 [break_d] c=0 q=«» d=2\n"),
    ("buffer Head(q) spoiled", "violated\ncounterexample: guarantee violated at step 103 by action spoil while the assumption still held, or on the same step (violated conjunct: □[(((Len(q) > 0) ∧ (Len(q') > 0)) ⇒ ((Head(q') = Head(q)) ∨ (Head(q') ≠ 2)))]_⟨q⟩): E ⊳ M fails\n    0 [(init)] c=0 q=«» d=0\n    1 [tick] c=1 q=«» d=0\n    2 [tick] c=2 q=«» d=0\n    3 [tick] c=3 q=«» d=0\n    4 [tick] c=4 q=«» d=0\n    5 [tick] c=5 q=«» d=0\n    6 [tick] c=6 q=«» d=0\n    7 [tick] c=7 q=«» d=0\n    8 [tick] c=8 q=«» d=0\n    9 [tick] c=9 q=«» d=0\n   10 [tick] c=10 q=«» d=0\n   11 [tick] c=11 q=«» d=0\n   12 [tick] c=12 q=«» d=0\n   13 [tick] c=13 q=«» d=0\n   14 [tick] c=14 q=«» d=0\n   15 [tick] c=15 q=«» d=0\n   16 [tick] c=16 q=«» d=0\n   17 [tick] c=17 q=«» d=0\n   18 [tick] c=18 q=«» d=0\n   19 [tick] c=19 q=«» d=0\n   20 [tick] c=20 q=«» d=0\n   21 [tick] c=21 q=«» d=0\n   22 [tick] c=22 q=«» d=0\n   23 [tick] c=23 q=«» d=0\n   24 [tick] c=24 q=«» d=0\n   25 [tick] c=25 q=«» d=0\n   26 [tick] c=26 q=«» d=0\n   27 [tick] c=27 q=«» d=0\n   28 [tick] c=28 q=«» d=0\n   29 [tick] c=29 q=«» d=0\n   30 [tick] c=30 q=«» d=0\n   31 [tick] c=31 q=«» d=0\n   32 [tick] c=32 q=«» d=0\n   33 [tick] c=33 q=«» d=0\n   34 [tick] c=34 q=«» d=0\n   35 [tick] c=35 q=«» d=0\n   36 [tick] c=36 q=«» d=0\n   37 [tick] c=37 q=«» d=0\n   38 [tick] c=38 q=«» d=0\n   39 [tick] c=39 q=«» d=0\n   40 [tick] c=40 q=«» d=0\n   41 [tick] c=41 q=«» d=0\n   42 [tick] c=42 q=«» d=0\n   43 [tick] c=43 q=«» d=0\n   44 [tick] c=44 q=«» d=0\n   45 [tick] c=45 q=«» d=0\n   46 [tick] c=46 q=«» d=0\n   47 [tick] c=47 q=«» d=0\n   48 [tick] c=48 q=«» d=0\n   49 [tick] c=49 q=«» d=0\n   50 [tick] c=50 q=«» d=0\n   51 [tick] c=51 q=«» d=0\n   52 [tick] c=52 q=«» d=0\n   53 [tick] c=53 q=«» d=0\n   54 [tick] c=54 q=«» d=0\n   55 [tick] c=55 q=«» d=0\n   56 [tick] c=56 q=«» d=0\n   57 [tick] c=57 q=«» d=0\n   58 [tick] c=58 q=«» d=0\n   59 [tick] c=59 q=«» d=0\n   60 [tick] c=60 q=«» d=0\n   61 [tick] c=61 q=«» d=0\n   62 [tick] c=62 q=«» d=0\n   63 [tick] c=63 q=«» d=0\n   64 [tick] c=64 q=«» d=0\n   65 [tick] c=65 q=«» d=0\n   66 [tick] c=66 q=«» d=0\n   67 [tick] c=67 q=«» d=0\n   68 [tick] c=68 q=«» d=0\n   69 [tick] c=69 q=«» d=0\n   70 [tick] c=70 q=«» d=0\n   71 [tick] c=71 q=«» d=0\n   72 [tick] c=72 q=«» d=0\n   73 [tick] c=73 q=«» d=0\n   74 [tick] c=74 q=«» d=0\n   75 [tick] c=75 q=«» d=0\n   76 [tick] c=76 q=«» d=0\n   77 [tick] c=77 q=«» d=0\n   78 [tick] c=78 q=«» d=0\n   79 [tick] c=79 q=«» d=0\n   80 [tick] c=80 q=«» d=0\n   81 [tick] c=81 q=«» d=0\n   82 [tick] c=82 q=«» d=0\n   83 [tick] c=83 q=«» d=0\n   84 [tick] c=84 q=«» d=0\n   85 [tick] c=85 q=«» d=0\n   86 [tick] c=86 q=«» d=0\n   87 [tick] c=87 q=«» d=0\n   88 [tick] c=88 q=«» d=0\n   89 [tick] c=89 q=«» d=0\n   90 [tick] c=90 q=«» d=0\n   91 [tick] c=91 q=«» d=0\n   92 [tick] c=92 q=«» d=0\n   93 [tick] c=93 q=«» d=0\n   94 [tick] c=94 q=«» d=0\n   95 [tick] c=95 q=«» d=0\n   96 [tick] c=96 q=«» d=0\n   97 [tick] c=97 q=«» d=0\n   98 [tick] c=98 q=«» d=0\n   99 [tick] c=99 q=«» d=0\n  100 [tick] c=100 q=«» d=0\n  101 [push] c=100 q=«0» d=0\n  102 [push] c=100 q=«0, 0» d=0\n  103 [spoil] c=100 q=«2, 0» d=0\n"),
    ("buffer Head(Tail(q))", "error: evaluation error: Head applied to an empty sequence\n"),
];
