//! Liveness harness with an oracle that shares no code with the
//! checker: across real scenarios, fairness shapes and both
//! visited-set modes, every violated target's counterexample is
//! replayed through `opentla-semantics`. The lasso must be a fair
//! behavior of the system (so the check found a *real* run) that
//! falsifies the target (so it is a *real* violation), and every
//! action label on it must name an action that takes that very step in
//! the graph.

use opentla_check::{
    check_liveness, explore, Counterexample, ExploreOptions, GuardedAction, Init, LiveTarget,
    StateGraph, System, SystemFairness, VisitedMode,
};
use opentla_kernel::{Domain, Expr, Fairness, Formula, Value, Vars};
use opentla_queue::{FairnessStyle, QueueChain};
use opentla_scenarios::{AlternatingBit, ArbiterFairness, ClockWorld, Fig1, Mutex, TokenRing};
use opentla_semantics::{eval, EvalCtx};

/// `x` steps `0 → 1 → 2 → 3 → 1 → …`, one action per step under one
/// joint `WF`: every action but `a` fires from a state where the
/// actions before it are disabled, so its edge index there (0) is not
/// its action id.
fn four_action_ring() -> System {
    let mut vars = Vars::new();
    let x = vars.declare("x", Domain::int_range(0, 3));
    let step = |name: &str, from: i64, to: i64| {
        GuardedAction::new(
            name,
            Expr::var(x).eq(Expr::int(from)),
            vec![(x, Expr::int(to))],
        )
    };
    System::new(
        vars,
        Init::new([(x, Value::Int(0))]),
        vec![
            step("a", 0, 1),
            step("b", 1, 2),
            step("c", 2, 3),
            step("d", 3, 1),
        ],
    )
    .with_fairness(SystemFairness::weak(vec![0, 1, 2, 3], vec![x]))
}

/// The scenario matrix: protocol, arbiter, ring, law-of-nature clock,
/// the paper's Figure 1 circular pair, queue chains from dozen-state
/// to tens-of-thousands-of-states scale, and the four-action ring.
fn systems() -> Vec<(&'static str, System)> {
    let fig1 = Fig1::new();
    vec![
        ("ring4", four_action_ring()),
        (
            "abp",
            AlternatingBit::new(2)
                .complete_system()
                .expect("abp builds"),
        ),
        (
            "mutex",
            Mutex::with_clients(2, ArbiterFairness::Weak)
                .product()
                .expect("mutex builds"),
        ),
        (
            "ring",
            TokenRing::new(3).complete_system().expect("ring builds"),
        ),
        (
            "clock",
            ClockWorld::new(2, 3).product().expect("clock builds"),
        ),
        (
            "fig1",
            opentla::closed_product(fig1.vars(), &[&fig1.pi_c(), &fig1.pi_d()])
                .expect("fig1 closes"),
        ),
        (
            "chain2",
            QueueChain::new(2, 1, 2, FairnessStyle::Joint)
                .complete_system()
                .expect("chain2 builds"),
        ),
        (
            "chain3",
            QueueChain::new(3, 1, 2, FairnessStyle::Joint)
                .complete_system()
                .expect("chain3 builds"),
        ),
        (
            "chain4",
            QueueChain::new(4, 1, 2, FairnessStyle::Joint)
                .complete_system()
                .expect("chain4 builds"),
        ),
    ]
}

/// Generic targets derived from the system's own action structure, so
/// every scenario is exercised under a WF obligation, an SF obligation,
/// a plain `◇P` and a `□◇P` — each paired with the temporal formula
/// used for the semantic replay.
fn targets(sys: &System) -> Vec<(String, LiveTarget, Formula)> {
    let frame = sys.frame();
    let first = &sys.actions()[0];
    let last = sys.actions().last().expect("systems have actions");
    let wf = Fairness::weak(first.action_expr(&frame), first.touched().collect());
    let sf = Fairness::strong(last.action_expr(&frame), last.touched().collect());
    let g = first.guard().clone();
    let p = g.clone().not();
    vec![
        (
            format!("WF({})", first.name()),
            LiveTarget::fair(wf.clone()),
            Formula::Fair(wf),
        ),
        (
            format!("SF({})", last.name()),
            LiveTarget::fair(sf.clone()),
            Formula::Fair(sf),
        ),
        (
            format!("eventually not-{}-enabled", first.name()),
            LiveTarget::Eventually(p.clone()),
            Formula::pred(p).eventually(),
        ),
        (
            format!("infinitely often {}-enabled", first.name()),
            LiveTarget::AlwaysEventually(g.clone()),
            Formula::pred(g).eventually().always(),
        ),
    ]
}

/// The counterexample must be a real fair behavior of the system that
/// violates the target, each labelled hop a step of the action it names.
fn confirm_semantically(sys: &System, graph: &StateGraph, cx: &Counterexample, target: &Formula) {
    let lasso = cx.to_lasso();
    let ctx = EvalCtx::with_universe(sys.universe().clone());
    assert!(
        eval(&sys.formula(), &lasso, &ctx).unwrap(),
        "counterexample must satisfy the system spec (incl. fairness)"
    );
    assert!(
        !eval(target, &lasso, &ctx).unwrap(),
        "counterexample must violate the target"
    );
    let id = |k: usize| {
        let at = graph.states().iter().position(|s| s == &cx.states()[k]);
        at.expect("a lasso state is a graph state")
    };
    for (k, label) in cx.actions().iter().enumerate().skip(1) {
        let Some(label) = label else { continue };
        let (from, to) = (id(k - 1), id(k));
        assert!(
            graph.edges(from).iter().any(
                |e| e.target as usize == to && sys.actions()[e.action as usize].name() == label
            ),
            "hop {k} is labelled {label:?}, which has no edge {from} → {to}"
        );
    }
}

/// The full matrix: every system under every target, over the graph of
/// either visited-set mode.
#[test]
fn every_lasso_across_the_matrix_replays_semantically() {
    for (name, sys) in systems() {
        for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
            let graph = explore(
                &sys,
                &ExploreOptions {
                    mode,
                    ..ExploreOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("{name}: explore fails: {e}"));
            for (tname, target, formula) in targets(&sys) {
                let verdict = check_liveness(&sys, &graph, &target)
                    .unwrap_or_else(|e| panic!("{name}/{tname}/{mode:?}: check fails: {e}"));
                if let Some(cx) = verdict.counterexample() {
                    confirm_semantically(&sys, &graph, cx, &formula);
                }
            }
        }
    }
}
