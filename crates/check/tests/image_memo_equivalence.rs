//! Differential harness for the image-class memo: a simulation or a
//! fairness-target check that decides each obligation once per class
//! (pair) must be indistinguishable from one that evaluates the
//! substituted obligation on every concrete state and edge — verdict,
//! counterexample, workload statistics, and where a tight budget
//! stops it. The references live in `support`; `Classes` / `Memo` are
//! also exercised edge by edge, on the corpus and on random systems,
//! which is the substitution lemma made executable in both directions:
//! a class pair's remembered answer is the substituted expression's on
//! every concrete step of the pair, and the unsubstituted expression
//! compiled, on the views of the abstract pair (what decides a miss),
//! has the substituted expression's interpreted result, errors
//! included.

mod support {
    pub mod direct;
}

use opentla::{closed_product, ComponentSpec, CompositionOptions};
use opentla_check::image::{Classes, ImageView, Images, Memo};
use opentla_check::{
    check_liveness_governed, check_simulation_governed, explore, Budget, CheckError, CompiledExpr,
    EvalScratch, ExploreOptions, GuardedAction, Init, LiveTarget, LivenessRun, Outcome,
    RecorderHandle, SimulationRun, StateGraph, System, Verdict,
};
use opentla_kernel::{
    box_action, Domain, Expr, Fairness, Formula, StatePair, Substitution, Value, VarId, Vars,
};
use opentla_queue::{queue_component, DoubleQueue, FairnessStyle, QueueChain};
use opentla_scenarios::{AlternatingBit, ArbiterFairness, ClockWorld, Fig1, Mutex, TokenRing};
use opentla_semantics::safety_canonical;
use proptest::prelude::*;
use std::sync::Arc;
use support::direct::{
    direct_fair_target, direct_pred, direct_simulation, lemma_on_every_state, lemma_on_every_step,
    mapped_fairness, Passes,
};

// ---------------------------------------------------------------------
// The corpus
// ---------------------------------------------------------------------

/// A system with the obligations to check on it.
struct Case {
    name: String,
    system: System,
    /// `(label, target, mapping)`: safety-canonical targets.
    safety: Vec<(String, Formula, Substitution)>,
    /// `(label, condition, Enabled predicate, mapping)`.
    fair: Vec<(String, Fairness, Option<Expr>, Substitution)>,
    /// State predicates for the `◇P`-style targets.
    preds: Vec<Expr>,
    /// The largest rungs run each check once, unbudgeted.
    large: bool,
}

/// Obligations read off a system's own action structure: a step box
/// over the variables its first action writes that holds (every
/// action writing them is allowed), two that lie (only the first
/// action is; the first action's guard is invariant), and WF/SF on its
/// first and last action, each mentioning only the variables the
/// action reads and writes.
fn structural_case(name: &str, system: System) -> Case {
    let first = system.actions()[0].clone();
    let last = system
        .actions()
        .last()
        .expect("systems have actions")
        .clone();
    let w: Vec<VarId> = first.touched().collect();
    let movers = system
        .actions()
        .iter()
        .filter(|a| a.touched().any(|v| w.contains(&v)))
        .map(|a| a.action_expr(&w));
    let init_on_w = system
        .init()
        .fixed()
        .iter()
        .filter(|(v, _)| w.contains(v))
        .map(|(v, c)| Expr::var(*v).eq(Expr::con(c.clone())));
    let init = Formula::pred(Expr::all(init_on_w));
    let id = Substitution::default;
    let safety = vec![
        (
            "writers".to_string(),
            init.clone()
                .and(Formula::act_box(Expr::any(movers), w.clone())),
            id(),
        ),
        (
            "first-only".to_string(),
            init.and(Formula::act_box(first.action_expr(&w), w.clone())),
            id(),
        ),
        (
            "guard-invariant".to_string(),
            Formula::pred(first.guard().clone()).always(),
            id(),
        ),
    ];
    let lw: Vec<VarId> = last.touched().collect();
    let fair = vec![
        (
            format!("WF({})", first.name()),
            Fairness::weak(first.action_expr(&w), w.clone()),
            Some(first.guard().clone()),
            id(),
        ),
        (
            format!("SF({})", last.name()),
            Fairness::strong(last.action_expr(&lw), lw.clone()),
            Some(last.guard().clone()),
            id(),
        ),
        (
            format!("WF({}) by search", first.name()),
            Fairness::weak(first.action_expr(&w), w),
            None,
            id(),
        ),
    ];
    Case {
        name: name.to_string(),
        preds: vec![first.guard().clone().not(), last.guard().clone()],
        system,
        safety,
        fair,
        large: false,
    }
}

/// `target`'s safety part and fairness conditions under `mapping`.
fn mapped_obligations(case: &mut Case, target: &ComponentSpec, mapping: &Substitution) {
    let label = target.name().to_string();
    case.safety
        .push((label.clone(), target.safety_formula(), mapping.clone()));
    for i in 0..target.fairness().len() {
        case.fair.push((
            format!("{label}/fairness[{i}]"),
            target.fairness_condition(i),
            Some(target.fairness_enabled_expr(i)),
            mapping.clone(),
        ));
    }
}

/// `QueueChain(k,1,2)` against its big queue under the chain mapping.
fn chain_case(k: usize) -> Case {
    let chain = QueueChain::new(k, 1, 2, FairnessStyle::Joint);
    let ch = chain.channels();
    let big = queue_component(
        "QM[big]",
        &ch[0],
        &ch[k],
        chain.q_big(),
        chain.big_capacity(),
        FairnessStyle::Joint,
    )
    .expect("well-formed");
    let mut case = structural_case(
        &format!("chain{k}"),
        chain.complete_system().expect("the chain closes"),
    );
    mapped_obligations(&mut case, &big, &chain.refinement_mapping());
    case.large = k >= 4;
    case
}

/// Figure 9 at `(n, 2)` against the true double queue and against the
/// lying targets `QM[2N]` (overflows: H2a fails) and `QM[2N+2]` (never
/// full when the implementation is: H2b fails).
fn fig9_case(n: usize) -> Case {
    let dq = DoubleQueue::new(n, 2, FairnessStyle::Joint);
    let mut vars = dq.vars().clone();
    let q_bar = dq
        .refinement_mapping()
        .get(dq.q_dbl())
        .expect("the mapping defines q̄")
        .clone();
    let liars: Vec<(ComponentSpec, Substitution)> = [2 * n, 2 * n + 2]
        .into_iter()
        .map(|capacity| {
            let q = vars.declare(
                format!("q_lie{capacity}"),
                Domain::seqs_up_to(dq.values(), capacity),
            );
            let target = queue_component(
                format!("QM[{capacity}]"),
                dq.i(),
                dq.o(),
                q,
                capacity,
                FairnessStyle::Joint,
            )
            .expect("the lying queue is well-formed");
            (target, Substitution::new([(q, q_bar.clone())]))
        })
        .collect();
    let system =
        closed_product(&vars, &[dq.env(), dq.queue1(), dq.queue2()]).expect("the product closes");
    let mut case = structural_case(&format!("fig9({n},2)"), system);
    mapped_obligations(&mut case, dq.big_queue(), &dq.refinement_mapping());
    for (target, mapping) in &liars {
        mapped_obligations(&mut case, target, mapping);
    }
    case
}

fn corpus() -> Vec<Case> {
    let fig1 = Fig1::new();
    let mut cases = vec![
        structural_case(
            "abp",
            AlternatingBit::new(2)
                .complete_system()
                .expect("abp builds"),
        ),
        structural_case(
            "mutex",
            Mutex::with_clients(2, ArbiterFairness::Weak)
                .product()
                .expect("mutex builds"),
        ),
        structural_case(
            "ring",
            TokenRing::new(3).complete_system().expect("ring builds"),
        ),
        structural_case(
            "clock",
            ClockWorld::new(2, 3).product().expect("clock builds"),
        ),
        structural_case(
            "fig1",
            closed_product(fig1.vars(), &[&fig1.pi_c(), &fig1.pi_d()]).expect("fig1 closes"),
        ),
    ];
    cases.extend([2, 3, 4].map(chain_case));
    cases.extend([1, 2].map(fig9_case));
    cases
}

// ---------------------------------------------------------------------
// Comparisons
// ---------------------------------------------------------------------

fn assert_same_verdict(ctx: &str, a: &Verdict, b: &Verdict, with_reason: bool) {
    match (a, b) {
        (Verdict::Holds, Verdict::Holds) => {}
        (Verdict::Violated(a), Verdict::Violated(b)) => {
            if with_reason {
                assert_eq!(a.reason(), b.reason(), "{ctx}: reason diverges");
            }
            assert_eq!(a.states(), b.states(), "{ctx}: states diverge");
            assert_eq!(a.actions(), b.actions(), "{ctx}: actions diverge");
            assert_eq!(a.loop_start(), b.loop_start(), "{ctx}: loop start diverges");
        }
        (a, b) => panic!(
            "{ctx}: verdicts diverge (memo holds={}, direct holds={})",
            a.holds(),
            b.holds()
        ),
    }
}

/// Exhaustion reason and frontier (or completion) must agree.
fn assert_same_outcome(ctx: &str, a: &Outcome, b: &Outcome) {
    match (a, b) {
        (Outcome::Complete, Outcome::Complete) => {}
        (
            Outcome::Exhausted {
                reason: ra,
                frontier_size: fa,
                ..
            },
            Outcome::Exhausted {
                reason: rb,
                frontier_size: fb,
                ..
            },
        ) => {
            assert_eq!(ra, rb, "{ctx}: exhaustion reason diverges");
            assert_eq!(fa, fb, "{ctx}: exhaustion frontier diverges");
        }
        (a, b) => panic!("{ctx}: outcomes diverge: memo {a:?}, direct {b:?}"),
    }
}

fn assert_same_simulation(
    ctx: &str,
    memo: &Result<SimulationRun, CheckError>,
    direct: &Result<SimulationRun, CheckError>,
) {
    let (memo, direct) = match (memo, direct) {
        (Ok(m), Ok(d)) => (m, d),
        (Err(m), Err(d)) => {
            assert_eq!(m.to_string(), d.to_string(), "{ctx}: errors diverge");
            return;
        }
        (m, d) => panic!("{ctx}: memo {m:?} but direct {d:?}"),
    };
    assert_same_outcome(ctx, &memo.outcome, &direct.outcome);
    match (&memo.report, &direct.report) {
        (None, None) => {}
        (Some(m), Some(d)) => {
            assert_same_verdict(ctx, &m.verdict, &d.verdict, true);
            assert_eq!(m.states, d.states, "{ctx}: report.states diverges");
            assert_eq!(m.edges, d.edges, "{ctx}: report.edges diverges");
        }
        (m, d) => panic!("{ctx}: memo report {m:?} but direct {d:?}"),
    }
}

fn assert_same_liveness(
    ctx: &str,
    memo: &LivenessRun,
    direct: &LivenessRun,
    with_reason: bool,
) {
    assert_same_outcome(ctx, &memo.outcome, &direct.outcome);
    match (&memo.verdict, &direct.verdict) {
        (None, None) => {}
        (Some(m), Some(d)) => assert_same_verdict(ctx, m, d, with_reason),
        (m, d) => panic!("{ctx}: memo verdict {m:?} but direct {d:?}"),
    }
}

/// Budgets that stop a check over `edges` edges in each of its phases,
/// then never.
fn budgets(case: &Case, graph: &StateGraph) -> Vec<Budget> {
    if case.large {
        return vec![Budget::default()];
    }
    let edges = graph.edge_count();
    vec![
        Budget::default().transitions(1),
        Budget::default().transitions(edges / 2),
        Budget::default().transitions(edges + edges / 2),
        Budget::default().states(graph.len() / 2),
        Budget::default(),
    ]
}

// ---------------------------------------------------------------------
// The differential matrix
// ---------------------------------------------------------------------

#[test]
fn memoized_simulation_matches_direct_evaluation() {
    let passes = Arc::new(Passes::default());
    let mut shared = 0usize;
    for case in corpus() {
        let graph = explore(&case.system, &ExploreOptions::default())
            .unwrap_or_else(|e| panic!("{}: explore fails: {e}", case.name));
        for (label, target, mapping) in &case.safety {
            for budget in budgets(&case, &graph) {
                let ctx = format!(
                    "{}/{label}/t{}s{}",
                    case.name, budget.max_transitions, budget.max_states
                );
                let memo = check_simulation_governed(
                    &case.system,
                    &graph,
                    target,
                    mapping,
                    &budget
                        .clone()
                        .with_recorder(RecorderHandle::new(passes.clone())),
                );
                let direct = direct_simulation(&case.system, &graph, target, mapping, &budget);
                assert_same_simulation(&ctx, &memo, &direct);
                for pass in passes.take() {
                    assert!(pass.distinct_pairs <= pass.edges, "{ctx}: {pass:?}");
                    assert!(pass.classes <= graph.len() as u64, "{ctx}: {pass:?}");
                    shared += usize::from(!pass.skipped);
                }
            }
        }
    }
    assert!(
        shared >= 40,
        "the corpus must exercise the memo ({shared} passes did)"
    );
}

#[test]
fn memoized_fairness_targets_match_direct_evaluation() {
    let passes = Arc::new(Passes::default());
    let mut shared = 0usize;
    for case in corpus() {
        let graph = explore(&case.system, &ExploreOptions::default())
            .unwrap_or_else(|e| panic!("{}: explore fails: {e}", case.name));
        for (label, fair, enabled, mapping) in &case.fair {
            // The universe search is the slow path; the small rungs
            // cover it.
            if enabled.is_none() && graph.len() > 5_000 {
                continue;
            }
            let memo_target = LiveTarget::Fair {
                fair: fair.clone(),
                enabled_with: enabled.clone(),
                mapping: mapping.clone(),
            };
            let direct_target =
                direct_fair_target(&case.system, &graph, fair, enabled.as_ref(), mapping);
            // A liveness check charges transitions only.
            let by_transitions = budgets(&case, &graph)
                .into_iter()
                .filter(|b| b.max_states == usize::MAX);
            for budget in by_transitions {
                let ctx = format!("{}/{label}/t{}", case.name, budget.max_transitions);
                let observed = budget
                    .clone()
                    .with_recorder(RecorderHandle::new(passes.clone()));
                let memo = check_liveness_governed(&case.system, &graph, &memo_target, &observed)
                    .unwrap_or_else(|e| panic!("{ctx}: memo fails: {e}"));
                shared += passes.take().iter().filter(|p| !p.skipped).count();
                let direct =
                    check_liveness_governed(&case.system, &graph, &direct_target, &observed)
                        .unwrap_or_else(|e| panic!("{ctx}: direct fails: {e}"));
                for pass in passes.take() {
                    assert!(
                        pass.skipped && pass.distinct_pairs == pass.edges,
                        "{ctx}: the reference must evaluate per edge: {pass:?}"
                    );
                }
                assert_same_liveness(&ctx, &memo, &direct, true);
            }
        }
    }
    assert!(
        shared >= 40,
        "the corpus must exercise the memo ({shared} passes did)"
    );
}

#[test]
fn memoized_state_predicates_match_direct_evaluation() {
    for case in corpus().into_iter().filter(|c| !c.large) {
        let graph = explore(&case.system, &ExploreOptions::default()).unwrap();
        for p in &case.preds {
            let wide = direct_pred(&case.system, &graph, p);
            let pairs = [
                (
                    LiveTarget::Eventually(p.clone()),
                    LiveTarget::Eventually(wide.clone()),
                ),
                (
                    LiveTarget::AlwaysEventually(p.clone()),
                    LiveTarget::AlwaysEventually(wide.clone()),
                ),
                (
                    LiveTarget::EventuallyAlways(p.clone()),
                    LiveTarget::EventuallyAlways(wide.clone()),
                ),
                (
                    LiveTarget::LeadsTo(p.clone().not(), p.clone()),
                    LiveTarget::LeadsTo(wide.clone().not(), wide.clone()),
                ),
            ];
            for (memo_target, direct_target) in pairs {
                let ctx = format!("{}/{memo_target:?}", case.name);
                let run = |target: &LiveTarget| {
                    check_liveness_governed(&case.system, &graph, target, &Budget::default())
                        .unwrap_or_else(|e| panic!("{ctx}: fails: {e}"))
                };
                assert_same_liveness(&ctx, &run(&memo_target), &run(&direct_target), false);
            }
        }
    }
}

/// A mapped fairness target without its abstract `Enabled` predicate
/// would push `Enabled` through the substitution: refused, typed.
#[test]
fn mapped_target_without_enabled_predicate_is_refused() {
    let case = chain_case(2);
    let graph = explore(&case.system, &ExploreOptions::default()).unwrap();
    let (_, fair, _, mapping) = case.fair.last().expect("the mapped condition");
    assert!(!mapping.is_empty());
    let err = check_liveness_governed(
        &case.system,
        &graph,
        &LiveTarget::Fair {
            fair: fair.clone(),
            enabled_with: None,
            mapping: mapping.clone(),
        },
        &Budget::default(),
    )
    .unwrap_err();
    assert!(matches!(err, CheckError::Precondition { .. }), "{err}");
}

// ---------------------------------------------------------------------
// The lemma in the other direction: a miss is decided on the abstract pair
// ---------------------------------------------------------------------

fn quiet_images(graph: &StateGraph, mapping: &Substitution) -> Images {
    Images::of_graph(graph, mapping, &RecorderHandle::default())
}

/// Every obligation of the corpus, part by part: the unsubstituted
/// init predicate, invariant, step box, angle action or `Enabled`
/// predicate on the abstract state(s) has the result of the substituted
/// one on the concrete state(s), on every edge and every stuttering
/// step (of every 16th state on the large rungs).
#[test]
fn abstract_evaluation_matches_substituted_evaluation_on_every_step() {
    let mut mapped_steps = 0usize;
    for case in corpus() {
        let graph = explore(&case.system, &ExploreOptions::default())
            .unwrap_or_else(|e| panic!("{}: explore fails: {e}", case.name));
        let stride = if case.large { 16 } else { 1 };
        for (label, target, mapping) in &case.safety {
            let ctx = format!("{}/{label}", case.name);
            let images = quiet_images(&graph, mapping);
            let classes = Classes::of_graph(&graph, &target.free_vars(), &images);
            let abstractly = safety_canonical(target).expect("the corpus is safety-canonical");
            let substituted = safety_canonical(&mapping.formula(target).expect("it applies"))
                .expect("substitution keeps the shape");
            let mut compared = 0;
            for (a, b) in abstractly
                .step_boxes()
                .iter()
                .zip(&substituted.step_boxes())
            {
                compared += lemma_on_every_step(&ctx, &graph, &classes, stride, a, b);
            }
            let preds = |sc: &opentla_semantics::SafetyCanonical| {
                sc.init
                    .iter()
                    .chain(&sc.invariants)
                    .cloned()
                    .collect::<Vec<Expr>>()
            };
            for (a, b) in preds(&abstractly).iter().zip(&preds(&substituted)) {
                compared += lemma_on_every_state(&ctx, &graph, &classes, stride, a, b);
            }
            if !mapping.is_empty() {
                assert!(compared > 0, "{ctx}: a mapped target must share classes");
                mapped_steps += compared;
            }
        }
        for (label, fair, enabled, mapping) in &case.fair {
            let ctx = format!("{}/{label}", case.name);
            let images = quiet_images(&graph, mapping);
            let mut footprint = fair.angle_action().all_vars();
            if let Some(pred) = enabled {
                footprint.union_with(&pred.all_vars());
            }
            let classes = Classes::of_graph(&graph, &footprint, &images);
            let mut compared = lemma_on_every_step(
                &ctx,
                &graph,
                &classes,
                stride,
                &fair.angle_action(),
                &mapped_fairness(fair, mapping).angle_action(),
            );
            if let Some(pred) = enabled {
                let substituted = mapping.expr(pred).expect("the mapping applies to Enabled");
                compared +=
                    lemma_on_every_state(&ctx, &graph, &classes, stride, pred, &substituted);
            }
            if !mapping.is_empty() {
                assert!(compared > 0, "{ctx}: a mapped target must share classes");
                mapped_steps += compared;
            }
        }
    }
    assert!(
        mapped_steps >= 100_000,
        "the corpus must exercise mapped obligations ({mapped_steps} steps did)"
    );
}

/// A total mapping whose *abstract* expression errs: `q̄ ↦ q`, and a
/// box reading `Head(q̄)`, undefined on an empty image. The abstract
/// evaluation errs exactly where the substituted one does, with the
/// same error, and the check returns the substituted one's.
#[test]
fn an_abstract_error_is_the_substituted_expressions_error() {
    let (system, q, h, _) = head_of_queue();
    let graph = explore(&system, &ExploreOptions::default()).unwrap();
    let mapping = Substitution::new([(h, Expr::var(q))]);
    let same_head = Expr::prime(h).head().eq(Expr::var(h).head());
    let targets = [
        ("unguarded", same_head.clone(), true),
        (
            "guarded",
            Expr::any([
                Expr::var(h).len().eq(Expr::int(0)),
                Expr::prime(h).len().eq(Expr::int(0)),
                same_head,
            ]),
            false,
        ),
    ];
    for (label, action, errs) in targets {
        let target = Formula::act_box(action.clone(), vec![h]);
        let images = quiet_images(&graph, &mapping);
        let classes = Classes::of_graph(&graph, &target.free_vars(), &images);
        let mapped = mapping.formula(&target).unwrap();
        let substituted = safety_canonical(&mapped).unwrap().step_boxes().remove(0);
        let compared = lemma_on_every_step(
            label,
            &graph,
            &classes,
            1,
            &box_action(action, &[h]),
            &substituted,
        );
        assert_eq!(
            compared,
            graph.edge_count() + graph.len(),
            "{label}: the mapping is total"
        );
        let erring = (0..graph.len())
            .flat_map(|s| graph.edges(s).iter().map(move |e| (s, e.target)))
            .filter(|(s, t)| {
                substituted
                    .holds_action(StatePair::new(graph.state(*s), graph.state(*t)))
                    .is_err()
            })
            .count();
        assert_eq!(erring > 0, errs, "{label}: {erring} edges err");
        let memo =
            check_simulation_governed(&system, &graph, &target, &mapping, &Budget::default());
        let direct = direct_simulation(&system, &graph, &target, &mapping, &Budget::default());
        assert_same_simulation(label, &memo, &direct);
        assert_eq!(
            matches!(memo, Err(CheckError::Eval(_))),
            errs,
            "{label}: {memo:?}"
        );
    }
}

// ---------------------------------------------------------------------
// One evaluation of the mapping per certificate
// ---------------------------------------------------------------------

/// The `image_pass` and `image_memo` events of a certificate that
/// `prove` builds under the given options, which must hold.
fn certified(prove: impl FnOnce(&CompositionOptions) -> bool) -> Arc<Passes> {
    let passes = Arc::new(Passes::default());
    let options = CompositionOptions {
        budget: Budget::unlimited().with_recorder(RecorderHandle::new(passes.clone())),
        ..CompositionOptions::default()
    };
    assert!(prove(&options), "the certificate holds");
    passes
}

/// One evaluation of the mapping, and `(classes, distinct_pairs,
/// edges)` per obligation as `expected`, H2b last.
fn assert_one_image_pass(name: &str, passes: &Passes, expected: &[(u64, u64, u64)]) {
    assert_eq!(
        passes.counting().count("image_pass"),
        1,
        "{name}: one evaluation of the mapping"
    );
    let memos = passes.take();
    assert_eq!(memos.len(), expected.len(), "{name}: {memos:?}");
    let (h2b, simulations) = memos.split_last().expect("H2b comes last");
    let (h2b_expected, simulations_expected) = expected.split_last().expect("nonempty");
    for (memo, expected) in simulations.iter().zip(simulations_expected) {
        assert_eq!(
            (memo.classes, memo.distinct_pairs, memo.edges),
            *expected,
            "{name}: {memo:?}"
        );
    }
    assert_eq!(
        (h2b.classes, h2b.edges),
        (h2b_expected.0, h2b_expected.2),
        "{name}: {h2b:?}"
    );
    assert_eq!(h2b.distinct_pairs, h2b_expected.1, "{name}: {h2b:?}");
}

/// A certificate evaluates its refinement mapping in exactly one pass,
/// which hypotheses 2(a) and 2(b) share, and decides what it decided
/// before: the `image_memo` counts per obligation are those of the
/// commit that evaluated the mapping once per obligation.
#[test]
fn a_certificate_evaluates_its_mapping_in_one_pass() {
    let chain3 = QueueChain::new(3, 1, 2, FairnessStyle::Joint);
    let passes = certified(|options| {
        let certificate = chain3.prove_composition(options);
        certificate.expect("chain3 is well-formed").holds()
    });
    assert_one_image_pass(
        "chain3",
        &passes,
        &[
            (58, 176, 15_624),
            (58, 178, 15_624),
            (58, 178, 15_624),
            (1_514, 3_728, 15_624),
            (1_514, 3_728, 15_624),
        ],
    );
    let fig9 = DoubleQueue::new(2, 2, FairnessStyle::Joint);
    let passes = certified(|options| {
        let certificate = fig9.prove_composition(options);
        certificate.expect("fig9 is well-formed").holds()
    });
    assert_one_image_pass(
        "fig9(2,2)",
        &passes,
        &[
            (64, 248, 8_736),
            (64, 248, 8_736),
            (1_514, 3_728, 8_736),
            (1_514, 3_728, 8_736),
        ],
    );
}

// ---------------------------------------------------------------------
// A partial mapping
// ---------------------------------------------------------------------

/// A bit queue of capacity 2 with `push0`, `push1` and `pop` beside an
/// unrelated toggling bit, and an abstract variable `h ↦ Head(q)`:
/// undefined where `q` is empty, so those states have no image class
/// (the toggle makes the others share theirs).
fn head_of_queue() -> (System, VarId, VarId, Substitution) {
    let mut vars = Vars::new();
    let q = vars.declare("q", Domain::seqs_up_to(&Domain::bits(), 2));
    let h = vars.declare("h", Domain::bits());
    let y = vars.declare("y", Domain::bits());
    let toggle = GuardedAction::new(
        "toggle",
        Expr::bool(true),
        vec![(y, Expr::int(1).sub(Expr::var(y)))],
    );
    let room = Expr::var(q).len().lt(Expr::int(2));
    let push = |bit: i64| {
        GuardedAction::new(
            format!("push{bit}"),
            room.clone(),
            vec![(q, Expr::var(q).concat(Expr::MkSeq(vec![Expr::int(bit)])))],
        )
    };
    let pop = GuardedAction::new(
        "pop",
        Expr::var(q).len().gt(Expr::int(0)),
        vec![(q, Expr::var(q).tail())],
    );
    let system = System::new(
        vars,
        Init::new([
            (q, Value::empty_seq()),
            (h, Value::Int(0)),
            (y, Value::Int(0)),
        ]),
        vec![push(0), push(1), pop, toggle],
    );
    let mapping = Substitution::new([(h, Expr::var(q).head())]);
    (system, q, h, mapping)
}

#[test]
fn partial_mapping_gives_the_same_error_or_verdict_as_direct_evaluation() {
    let (system, q, h, mapping) = head_of_queue();
    let graph = explore(&system, &ExploreOptions::default()).unwrap();
    let nonempty = |e: Expr| e.len().gt(Expr::int(0));
    let growing = Expr::prime(q).len().gt(Expr::var(q).len());
    let targets = [
        // Unguarded: the substituted box evaluates Head(⟨⟩) on the
        // first edge — the same typed error either way.
        (
            "unguarded",
            Formula::act_box(Expr::prime(h).eq(Expr::var(h)), vec![h]),
        ),
        // Guarded so that ∨ short-circuits before any Head(⟨⟩): pushes
        // onto a nonempty queue keep the head — holds, although the
        // states with an empty queue bypass the memo.
        (
            "guarded-true",
            Formula::act_box(
                Expr::any([
                    Expr::var(q).len().eq(Expr::int(0)),
                    Expr::prime(q).len().eq(Expr::int(0)),
                    growing.clone().implies(Expr::prime(h).eq(Expr::var(h))),
                ]),
                vec![q],
            ),
        ),
        // The same with pops: a pop may change the head — violated, at
        // the same edge.
        (
            "guarded-lying",
            Formula::act_box(
                Expr::any([
                    Expr::var(q).len().eq(Expr::int(0)),
                    Expr::prime(q).len().eq(Expr::int(0)),
                    Expr::prime(h).eq(Expr::var(h)),
                ]),
                vec![q],
            ),
        ),
        // An invariant over the partial image.
        (
            "invariant",
            Formula::pred(nonempty(Expr::var(q)).implies(Expr::var(h).le(Expr::int(1)))).always(),
        ),
    ];
    for (label, target) in targets {
        let memo =
            check_simulation_governed(&system, &graph, &target, &mapping, &Budget::default());
        let direct = direct_simulation(&system, &graph, &target, &mapping, &Budget::default());
        assert_same_simulation(label, &memo, &direct);
        match label {
            "unguarded" => assert!(
                matches!(memo, Err(CheckError::Eval(_))),
                "{label}: {memo:?}"
            ),
            "guarded-lying" => assert!(!memo.unwrap().report.unwrap().holds(), "{label}"),
            _ => assert!(memo.unwrap().report.unwrap().holds(), "{label}"),
        }
    }
    let images = Images::of_graph(&graph, &mapping, &RecorderHandle::default());
    let classes = Classes::of_graph(&graph, &[h].into_iter().collect(), &images);
    assert_eq!(classes.count(), 2, "heads 0 and 1");
    assert_eq!(
        (0..graph.len())
            .filter(|id| classes.get(*id).is_none())
            .count(),
        2,
        "the empty queue (under either toggle) has no image"
    );
}

// ---------------------------------------------------------------------
// The substitution lemma on random systems
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct ActionSpec {
    guard_var: usize,
    guard_val: i64,
    target_var: usize,
    update: u8,
}

fn arb_action() -> impl Strategy<Value = ActionSpec> {
    (0..3usize, 0..3i64, 0..3usize, 0..4u8).prop_map(
        |(guard_var, guard_val, target_var, update)| ActionSpec {
            guard_var,
            guard_val,
            target_var,
            update,
        },
    )
}

/// Three variables over 0..=2 and the abstract `n` (pinned: no action
/// writes it, the mapping defines it).
fn random_system(specs: &[ActionSpec]) -> (System, [VarId; 3], VarId) {
    let mut vars = Vars::new();
    let ids = [
        vars.declare("a", Domain::int_range(0, 2)),
        vars.declare("b", Domain::int_range(0, 2)),
        vars.declare("c", Domain::int_range(0, 2)),
    ];
    let n = vars.declare("n", Domain::int_range(0, 8));
    let actions = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let target = ids[spec.target_var];
            let other = ids[(spec.target_var + 1) % 3];
            let update = match spec.update {
                0 => Expr::int(0),
                1 => Expr::var(other),
                2 => Expr::int(2).sub(Expr::var(target)),
                _ => Expr::var(target).add(Expr::int(1)).rem(Expr::int(3)),
            };
            GuardedAction::new(
                format!("act{i}"),
                Expr::var(ids[spec.guard_var]).eq(Expr::int(spec.guard_val)),
                vec![(target, update)],
            )
        })
        .collect();
    let mut init: Vec<(VarId, Value)> = ids.iter().map(|v| (*v, Value::Int(0))).collect();
    init.push((n, Value::Int(0)));
    (System::new(vars, Init::new(init), actions), ids, n)
}

/// A total state function of the concrete variables.
fn image(kind: u8, ids: &[VarId; 3]) -> Expr {
    let [a, b, c] = ids.map(Expr::var);
    match kind {
        0 => a.add(b),
        1 => a.clone().eq(Expr::int(0)).ite(b, c),
        2 => a.mul(Expr::int(3)).add(b),
        3 => a.add(b).add(c).rem(Expr::int(2)),
        _ => Expr::int(1),
    }
}

/// An action over the abstract `n` (and, for some, a concrete
/// variable the mapping leaves alone).
fn abstract_action(kind: u8, n: VarId, ids: &[VarId; 3]) -> Expr {
    let (n0, n1) = (Expr::var(n), Expr::prime(n));
    match kind {
        0 => n1.eq(n0.add(Expr::int(1))),
        1 => n1.ge(n0),
        2 => n1.clone().eq(n0).or(n1.eq(Expr::int(0))),
        3 => n1
            .le(n0.add(Expr::int(1)))
            .and(Expr::prime(ids[2]).eq(Expr::var(ids[2]))),
        _ => n1.add(n0).rem(Expr::int(2)).eq(Expr::int(0)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On every edge (and every stuttering step) of a random system,
    /// the answer remembered for the step's class pair equals the
    /// substituted box evaluated on that very step; and the simulation
    /// built on the memo equals the per-edge one.
    #[test]
    fn memo_equals_direct_on_every_edge(
        specs in proptest::collection::vec(arb_action(), 1..5),
        image_kind in 0..5u8,
        action_kind in 0..5u8,
        also_c in 0..2u8,
    ) {
        let (system, ids, n) = random_system(&specs);
        let graph = explore(&system, &ExploreOptions::default()).unwrap();
        let mapping = Substitution::new([(n, image(image_kind, &ids))]);
        let mut sub = vec![n];
        if also_c == 1 {
            sub.push(ids[2]);
        }
        let target = Formula::act_box(abstract_action(action_kind, n, &ids), sub);
        let mapped = mapping.formula(&target).unwrap();
        let sc = safety_canonical(&mapped).expect("a box is safety-canonical");
        let (action, sub) = &sc.boxes[0];
        let direct_box = box_action(action.clone(), sub);
        let direct = |s: usize, t: usize| {
            direct_box.holds_action(StatePair::new(graph.state(s), graph.state(t)))
        };

        let abstract_sc = safety_canonical(&target).expect("a box is safety-canonical");
        let (action, sub) = &abstract_sc.boxes[0];
        let abstract_box = box_action(action.clone(), sub);
        let images = Images::of_graph(&graph, &mapping, &RecorderHandle::default());
        let classes = Classes::of_graph(&graph, &target.free_vars(), &images);
        let (compiled_box, mut scratch) = (CompiledExpr::compile(&abstract_box), EvalScratch::new());
        let mut memo = Memo::new(&classes);
        for s in 0..graph.len() {
            let steps = graph.edges(s).iter().map(|e| e.target).chain([s]);
            for t in steps {
                let on_views = |s_bar: ImageView<'_>, t_bar: ImageView<'_>| {
                    compiled_box.holds_step(&s_bar, &t_bar, &mut scratch)
                };
                let remembered = memo.step(s, t, on_views, || direct(s, t)).unwrap();
                prop_assert_eq!(remembered, direct(s, t).unwrap(), "step {} -> {}", s, t);
            }
        }

        // The other direction, for the box, the angle action of the
        // same action and a predicate over the image: what a miss
        // evaluates on the abstract pair is the substituted result.
        let steps = graph.edge_count() + graph.len();
        let fair = Fairness::weak(action.clone(), sub.clone());
        let stepwise = [
            (abstract_box.clone(), direct_box.clone()),
            (fair.angle_action(), mapped_fairness(&fair, &mapping).angle_action()),
        ];
        for (abstractly, substituted) in &stepwise {
            let compared =
                lemma_on_every_step("random", &graph, &classes, 1, abstractly, substituted);
            prop_assert!(classes.skipped() || compared == steps);
        }
        let small = Expr::var(n).le(Expr::int(i64::from(action_kind)));
        let compared = lemma_on_every_state(
            "random", &graph, &classes, 1, &small, &mapping.expr(&small).unwrap(),
        );
        prop_assert!(classes.skipped() || compared == graph.len());

        let memoized = check_simulation_governed(
            &system, &graph, &target, &mapping, &Budget::default(),
        );
        let reference = direct_simulation(
            &system, &graph, &target, &mapping, &Budget::default(),
        );
        assert_same_simulation("random", &memoized, &reference);
    }
}
