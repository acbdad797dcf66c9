//! Differential engine-equivalence for the Reduction subsystem:
//! exploring under ample-set partial-order reduction and/or symmetry
//! canonicalization must return *the same invariant verdicts* as full
//! exploration — with semantically replayable counterexamples — on
//! every scenario in the repository, in both visited-set modes. A
//! reduced run is sequential at any requested thread count, so the
//! reduced graph at 4 threads must be byte-identical to the 1-thread
//! one.
//!
//! Also here: the golden regression pinning `Reduction::none()` to the
//! exact pre-reduction chain4 numbers, and property-based checks that
//! POR never flips a verdict on random small systems and that
//! symmetry-reduced counterexamples replay under the trace semantics.

use std::sync::Arc;

use opentla_check::{
    check_invariant, explore_governed_with, Budget, Counterexample, CountingRecorder,
    Exploration, ExploreOptions, Outcome, RecorderHandle, Reduction, SlotPermutations,
    StateGraph, System, VisitedMode,
};
use opentla_check::{GuardedAction, Init};
use opentla_kernel::{Domain, Expr, Formula, Value, VarId, VarSet, Vars};
use opentla_queue::{FairnessStyle, QueueChain};
use opentla_scenarios::{
    AlternatingBit, ArbiterFairness, ClockWorld, Fig1, Mutex, TokenRing,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scenario under test: the system, the invariants whose verdicts
/// must survive reduction, and the reductions to drive it through.
struct Case {
    name: &'static str,
    system: System,
    /// `(label, predicate)` — a mix of holding and violated
    /// invariants; the differential harness never assumes which is
    /// which, it only demands the reduced verdict equals the full one.
    invariants: Vec<(&'static str, Expr)>,
    reductions: Vec<(&'static str, Reduction)>,
}

/// The POR configuration for a case: observable = every variable any
/// of its invariants mentions (ample actions must not write these).
fn por_for(invariants: &[(&'static str, Expr)]) -> Reduction {
    let mut observable = VarSet::new();
    for (_, inv) in invariants {
        observable.union_with(&inv.unprimed_vars());
    }
    Reduction::none().with_por(observable)
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();

    let abp = AlternatingBit::new(2);
    let invariants = vec![
        ("in_order", abp.in_order_invariant()),
        ("counting", abp.counting_invariant()),
    ];
    out.push(Case {
        name: "abp",
        system: abp.complete_system().expect("abp builds"),
        reductions: vec![("por", por_for(&invariants))],
        invariants,
    });

    let mutex = Mutex::with_clients(3, ArbiterFairness::Weak);
    let no_grants = Expr::all(
        (1..=3).map(|i| Expr::var(mutex.g(i)).eq(Expr::int(0))),
    );
    let invariants = vec![
        ("mutual_exclusion", mutex.mutual_exclusion()),
        // Violated, and symmetric under client permutation.
        ("no_grants_ever", no_grants),
    ];
    let symmetry: Arc<SlotPermutations> = Arc::new(mutex.client_symmetry());
    out.push(Case {
        name: "mutex",
        reductions: vec![
            ("por", por_for(&invariants)),
            ("symmetry", Reduction::none().with_symmetry(symmetry.clone())),
            ("por+symmetry", por_for(&invariants).with_symmetry(symmetry)),
        ],
        system: mutex.product().expect("mutex builds"),
        invariants,
    });

    let ring = TokenRing::new(3);
    let nobody_critical = Expr::all(
        (0..3).map(|i| Expr::var(ring.crit(i)).eq(Expr::int(0))),
    );
    let invariants = vec![
        ("mutual_exclusion", ring.mutual_exclusion()),
        ("token_conservation", ring.token_conservation()),
        // Violated, and invariant under rotation.
        ("nobody_critical", nobody_critical),
    ];
    let symmetry: Arc<SlotPermutations> = Arc::new(ring.rotation_symmetry());
    out.push(Case {
        name: "ring",
        reductions: vec![
            ("por", por_for(&invariants)),
            ("symmetry", Reduction::none().with_symmetry(symmetry.clone())),
            ("por+symmetry", por_for(&invariants).with_symmetry(symmetry)),
        ],
        system: ring.complete_system().expect("ring builds"),
        invariants,
    });

    let clock = ClockWorld::new(2, 3);
    let invariants = vec![
        ("bounded_by_now", clock.bounded_by_now()),
        // Violated: time advances.
        ("time_stands_still", Expr::var(clock.now()).eq(Expr::int(0))),
    ];
    out.push(Case {
        name: "clock",
        system: clock.product().expect("clock builds"),
        reductions: vec![("por", por_for(&invariants))],
        invariants,
    });

    let fig1 = Fig1::new();
    let invariants = vec![(
        "both_zero",
        Expr::all([
            Expr::var(fig1.c()).eq(Expr::int(0)),
            Expr::var(fig1.d()).eq(Expr::int(0)),
        ]),
    )];
    out.push(Case {
        name: "fig1",
        system: opentla::closed_product(fig1.vars(), &[&fig1.pi_c(), &fig1.pi_d()])
            .expect("fig1 builds"),
        reductions: vec![("por", por_for(&invariants))],
        invariants,
    });

    for k in [2usize, 3, 4] {
        let chain = QueueChain::new(k, 1, 2, FairnessStyle::Joint);
        let sys = chain.complete_system().expect("chain builds");
        // The differential harness does not care whether an invariant
        // holds, so "the first wire never moves" (violated) plus a
        // domain tautology (holds) exercise both verdicts.
        let v0 = sys.vars().iter().next().expect("chain has variables");
        let invariants = vec![
            ("first_wire_frozen", Expr::var(v0).eq(Expr::int(0))),
            ("wire_in_domain", Expr::var(v0).le(Expr::int(1))),
        ];
        let name: &'static str = match k {
            2 => "chain2",
            3 => "chain3",
            _ => "chain4",
        };
        out.push(Case {
            name,
            system: sys,
            reductions: vec![("por", por_for(&invariants))],
            invariants,
        });
    }
    out
}

fn run(system: &System, reduction: Reduction, threads: usize, mode: VisitedMode) -> Exploration {
    let run = explore_governed_with(
        system,
        &Budget::unlimited(),
        &ExploreOptions {
            threads: Some(threads),
            mode,
            reduction,
            ..ExploreOptions::default()
        },
    )
    .expect("exploration succeeds");
    assert!(
        matches!(run.outcome, Outcome::Complete),
        "unlimited budget must complete"
    );
    run
}

/// Byte-for-byte graph equality (as in the PR 2 suite): statistics,
/// state arena order, initial states, edges, and the BFS tree.
fn assert_identical(label: &str, a: &StateGraph, b: &StateGraph) {
    assert_eq!(a.stats(), b.stats(), "{label}: stats differ");
    assert_eq!(a.states(), b.states(), "{label}: state order differs");
    assert_eq!(a.init(), b.init(), "{label}: initial states differ");
    for id in 0..a.len() {
        assert_eq!(a.edges(id), b.edges(id), "{label}: edges of {id} differ");
        assert_eq!(
            a.trace_to(id),
            b.trace_to(id),
            "{label}: shortest trace to {id} differs"
        );
    }
}

/// A counterexample must be *semantically* real: its lasso violates
/// `□inv` and satisfies the system's safety formula `Init ∧ □[N]_v`
/// under the trace semantics — even when it came from a reduced graph
/// (symmetry-canonical traces are re-concretized before reporting).
fn assert_replayable(label: &str, system: &System, inv: &Expr, cx: &Counterexample) {
    let lasso = cx.to_lasso();
    let ctx = opentla_semantics::EvalCtx::default();
    let always = Formula::pred(inv.clone()).always();
    assert!(
        !opentla_semantics::eval(&always, &lasso, &ctx).unwrap(),
        "{label}: counterexample does not violate the invariant"
    );
    let spec = Formula::pred(system.init().as_pred())
        .and(Formula::act_box(system.next_expr(), system.frame()));
    assert!(
        opentla_semantics::eval(&spec, &lasso, &ctx).unwrap(),
        "{label}: counterexample is not a real behavior of the system"
    );
}

/// The differential core: for one case, explore fully once, then
/// explore under each reduction at 1 and 4 requested threads (both
/// resolve to the sequential plan) in both visited modes, and demand
/// (a) the reduced graph is the same in every configuration,
/// (b) it is never larger than the full graph, (c) every invariant
/// verdict matches the full graph's, and (d) violated verdicts come
/// with replayable counterexamples.
fn differential(case: &Case) {
    let full = run(&case.system, Reduction::none(), 1, VisitedMode::Fingerprint);
    assert!(full.reduction.is_none(), "{}: stats without reduction", case.name);
    assert!(!full.graph.is_reduced());
    let full_verdicts: Vec<bool> = case
        .invariants
        .iter()
        .map(|(_, inv)| {
            check_invariant(&case.system, &full.graph, inv)
                .unwrap()
                .holds()
        })
        .collect();

    for (red_label, reduction) in &case.reductions {
        let mut reference: Option<Exploration> = None;
        for threads in [1usize, 4] {
            for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
                let label = format!("{}/{red_label}/threads={threads}/{mode:?}", case.name);
                let red = run(&case.system, reduction.clone(), threads, mode);
                let stats = red.reduction.expect("reduced run reports stats");
                assert!(red.graph.is_reduced(), "{label}: graph must be tagged");
                assert!(
                    red.graph.len() <= full.graph.len(),
                    "{label}: reduction grew the graph"
                );
                match &reference {
                    None => reference = Some(red),
                    Some(first) => {
                        assert_identical(&label, &first.graph, &red.graph);
                        assert_eq!(
                            first.reduction.as_ref().unwrap(),
                            &stats,
                            "{label}: reduction stats differ between configurations"
                        );
                    }
                }
            }
        }
        let red = reference.expect("at least one engine configuration ran");
        for ((inv_label, inv), full_holds) in case.invariants.iter().zip(&full_verdicts) {
            let label = format!("{}/{red_label}/{inv_label}", case.name);
            let verdict = check_invariant(&case.system, &red.graph, inv).unwrap();
            assert_eq!(
                verdict.holds(),
                *full_holds,
                "{label}: reduction flipped the verdict"
            );
            if let Some(cx) = verdict.counterexample() {
                assert_replayable(&label, &case.system, inv, cx);
            }
        }
    }
}

#[test]
fn differential_abp() {
    differential(&cases().remove(0));
}

#[test]
fn differential_mutex() {
    differential(&cases().remove(1));
}

#[test]
fn differential_ring() {
    differential(&cases().remove(2));
}

#[test]
fn differential_clock() {
    differential(&cases().remove(3));
}

#[test]
fn differential_fig1() {
    differential(&cases().remove(4));
}

#[test]
fn differential_chain2() {
    differential(&cases().remove(5));
}

#[test]
fn differential_chain3() {
    differential(&cases().remove(6));
}

#[test]
fn differential_chain4() {
    differential(&cases().remove(7));
}

/// Symmetry must actually shrink a symmetric scenario — this is the
/// acceptance gate's ≥ 2× reduction, checked at test sizes. Mutex
/// carries the gate: its `k` clients are fully interchangeable, so
/// the `k!` permutation group collapses the space by more than 2×.
///
/// The token ring is the instructive counterpoint: rotation *is* an
/// automorphism of its transition relation (the differential tests
/// above prove reduction under it is sound), but its sig/ack toggle
/// bits carry absolute round history, so rotating a reachable state
/// yields an unreachable one — every rotation orbit meets the
/// reachable set exactly once and canonicalization collapses nothing.
/// We pin that fact so a future model change that restores the
/// collapse (or breaks soundness) is noticed.
#[test]
fn symmetry_reduces_mutex_by_2x_but_not_this_ring() {
    let ring = TokenRing::new(3);
    let sys = ring.complete_system().unwrap();
    let full = run(&sys, Reduction::none(), 1, VisitedMode::Fingerprint);
    let red = run(
        &sys,
        Reduction::none().with_symmetry(Arc::new(ring.rotation_symmetry())),
        1,
        VisitedMode::Fingerprint,
    );
    let stats = red.reduction.expect("reduced run reports stats");
    assert!(
        stats.canon_hits > 0,
        "rotation must at least be canonicalizing (it is an automorphism)"
    );
    assert_eq!(
        red.graph.len(),
        full.graph.len(),
        "ring orbits each meet the reachable set once; a change here \
         means the ring model's symmetry structure shifted"
    );

    let mutex = Mutex::with_clients(3, ArbiterFairness::Weak);
    let sys = mutex.product().unwrap();
    let full = run(&sys, Reduction::none(), 1, VisitedMode::Fingerprint);
    let red = run(
        &sys,
        Reduction::none().with_symmetry(Arc::new(mutex.client_symmetry())),
        1,
        VisitedMode::Fingerprint,
    );
    assert!(
        red.graph.len() * 2 <= full.graph.len(),
        "mutex client permutations must at least halve the space ({} vs {})",
        red.graph.len(),
        full.graph.len()
    );
    let stats = red.reduction.unwrap();
    assert!(stats.canon_hits > 0, "canonicalization must actually fire");
}

/// Golden regression: with `Reduction::none()` the explorer reproduces
/// the exact pre-reduction chain4 numbers — graph statistics and the
/// `RunReport` totals the observability layer saw in PR 3.
#[test]
fn golden_chain4_unreduced_stats_and_report() {
    let sys = QueueChain::new(4, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain4 builds");
    let recorder = Arc::new(CountingRecorder::new());
    let budget =
        Budget::unlimited().with_recorder(RecorderHandle::new(recorder.clone()));
    let run = explore_governed_with(
        &sys,
        &budget,
        &ExploreOptions {
            reduction: Reduction::none(),
            threads: Some(1),
            ..ExploreOptions::default()
        },
    )
    .unwrap();
    assert!(matches!(run.outcome, Outcome::Complete));
    assert!(run.reduction.is_none());
    let stats = run.graph.stats();
    assert_eq!(stats.states, 54358, "chain4 state count regressed");
    assert_eq!(stats.transitions, 164736, "chain4 transition count regressed");
    assert_eq!(stats.depth, 55, "chain4 BFS depth regressed");
    // The RunReport totals routed through the recorder agree exactly.
    assert_eq!(recorder.run_ends(), 1);
    assert_eq!(recorder.states(), 54358);
    assert_eq!(recorder.transitions(), 164736);
    assert_eq!(recorder.depth(), 55);
    // No reduction event is emitted when reduction is off.
    assert_eq!(recorder.reductions(), 0);
}

/// With a reduction active, the stats flow through the observability
/// layer as a `reduction` event.
#[test]
fn reduction_event_reaches_the_recorder() {
    let mutex = Mutex::with_clients(3, ArbiterFairness::Weak);
    let sys = mutex.product().unwrap();
    let recorder = Arc::new(CountingRecorder::new());
    let budget =
        Budget::unlimited().with_recorder(RecorderHandle::new(recorder.clone()));
    let run = explore_governed_with(
        &sys,
        &budget,
        &ExploreOptions {
            reduction: Reduction::none().with_symmetry(Arc::new(mutex.client_symmetry())),
            threads: Some(2),
            ..ExploreOptions::default()
        },
    )
    .unwrap();
    let stats = run.reduction.expect("reduced run reports stats");
    assert_eq!(recorder.reductions(), 1);
    let (ample, full, skipped, canon) = recorder.reduction_totals();
    assert_eq!(ample, stats.ample_states as u64);
    assert_eq!(full, stats.full_states as u64);
    assert_eq!(skipped, stats.skipped_transitions as u64);
    assert_eq!(canon, stats.canon_hits as u64);
}

/// Reduced graphs answer state-invariant queries only: the per-edge
/// and liveness engines refuse them with a precondition error instead
/// of silently computing on a pruned relation.
#[test]
fn reduced_graphs_are_rejected_by_edge_sensitive_checks() {
    let ring = TokenRing::new(3);
    let sys = ring.complete_system().unwrap();
    let red = run(
        &sys,
        Reduction::none().with_symmetry(Arc::new(ring.rotation_symmetry())),
        1,
        VisitedMode::Fingerprint,
    );
    let all_vars: Vec<VarId> = sys.vars().iter().collect();
    let err = opentla_check::check_step_invariant(
        &sys,
        &red.graph,
        &Expr::bool(true),
        &all_vars,
    )
    .unwrap_err();
    assert!(matches!(err, opentla_check::CheckError::Precondition { .. }));
    let err = opentla_check::check_liveness(
        &sys,
        &red.graph,
        &opentla_check::LiveTarget::AlwaysEventually(
            Expr::var(ring.crit(0)).eq(Expr::int(1)),
        ),
    )
    .unwrap_err();
    assert!(matches!(err, opentla_check::CheckError::Precondition { .. }));
}

// ---------------------------------------------------------------------
// Property-based checks over random small systems
// ---------------------------------------------------------------------

/// A random small boolean system, deterministic in `seed`: `n` bit
/// variables, flip-style actions with random read/write footprints
/// (so the conflict-graph clustering varies per seed), and a random
/// initial state drawn through `opentla_semantics::random_state`.
fn random_system(seed: u64) -> (System, Expr) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_vars = rng.gen_range(2..=4usize);
    let build_vars = || {
        let mut vars = Vars::new();
        let vs: Vec<VarId> = (0..n_vars)
            .map(|i| vars.declare(format!("v{i}"), Domain::bits()))
            .collect();
        (vars, vs)
    };
    let (vars, vs) = build_vars();
    let n_actions = rng.gen_range(2..=5usize);
    let actions: Vec<GuardedAction> = (0..n_actions)
        .map(|a| {
            let read = vs[rng.gen_range(0..n_vars)];
            let write = vs[rng.gen_range(0..n_vars)];
            let want = rng.gen_range(0..=1i64);
            GuardedAction::new(
                format!("a{a}"),
                Expr::var(read).eq(Expr::int(want)),
                vec![(write, Expr::int(1).sub(Expr::var(write)))],
            )
        })
        .collect();
    // A throwaway closed system over the same registry yields the
    // universe that `random_state` draws the initial state from.
    let probe = System::new(
        build_vars().0,
        Init::new(vs.iter().map(|v| (*v, Value::Int(0)))),
        actions.clone(),
    );
    let init_state = opentla_semantics::random_state(probe.universe(), &mut rng);
    let init = Init::new(vs.iter().map(|v| (*v, init_state.get(*v).clone())));
    let system = System::new(vars, init, actions);
    let invariant = Expr::var(vs[rng.gen_range(0..n_vars)]).eq(Expr::int(rng.gen_range(0..=1i64)));
    (system, invariant)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// POR never flips an invariant verdict: on random systems whose
    /// footprints produce genuinely varied cluster structure, the
    /// reduced graph agrees with the full graph on whether the
    /// invariant holds, and violated verdicts replay semantically.
    #[test]
    fn por_never_flips_a_verdict(seed in any::<u64>()) {
        let (sys, inv) = random_system(seed);
        let por = Reduction::none().with_por(inv.unprimed_vars());
        let full = run(&sys, Reduction::none(), 1, VisitedMode::Fingerprint);
        let full_holds = check_invariant(&sys, &full.graph, &inv).unwrap().holds();
        let red = run(&sys, por, 1, VisitedMode::Fingerprint);
        prop_assert!(red.graph.len() <= full.graph.len());
        let verdict = check_invariant(&sys, &red.graph, &inv).unwrap();
        prop_assert_eq!(
            verdict.holds(),
            full_holds,
            "seed {}: POR flipped the verdict",
            seed
        );
        if let Some(cx) = verdict.counterexample() {
            assert_replayable(&format!("random/{seed}"), &sys, &inv, cx);
        }
    }

    /// Symmetry-canonicalized counterexamples replay under the trace
    /// semantics: a ring of `k` identical togglers, reduced by the
    /// full permutation group, still yields counterexamples that are
    /// real behaviors (concretized from canonical representatives).
    #[test]
    fn symmetry_counterexamples_replay(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = rng.gen_range(2..=3usize);
        let mut vars = Vars::new();
        let xs: Vec<VarId> = (0..k)
            .map(|i| vars.declare(format!("x{i}"), Domain::bits()))
            .collect();
        let ys: Vec<VarId> = (0..k)
            .map(|i| vars.declare(format!("y{i}"), Domain::bits()))
            .collect();
        let mut actions = Vec::new();
        for i in 0..k {
            actions.push(GuardedAction::new(
                format!("set{i}"),
                Expr::var(xs[i]).eq(Expr::int(0)),
                vec![(xs[i], Expr::int(1))],
            ));
            actions.push(GuardedAction::new(
                format!("mark{i}"),
                Expr::all([
                    Expr::var(xs[i]).eq(Expr::int(1)),
                    Expr::var(ys[i]).eq(Expr::int(0)),
                ]),
                vec![(ys[i], Expr::int(1))],
            ));
        }
        let init = Init::new(
            xs.iter().chain(ys.iter()).map(|v| (*v, Value::Int(0))),
        );
        let n_slots = vars.len();
        let sys = System::new(vars, init, actions);
        let canon = SlotPermutations::processes(
            "togglers",
            n_slots,
            &[&xs, &ys],
            &SlotPermutations::all_index_permutations(k),
        );
        let red = run(
            &sys,
            Reduction::none().with_symmetry(Arc::new(canon)),
            1,
            VisitedMode::Fingerprint,
        );
        let full = run(&sys, Reduction::none(), 1, VisitedMode::Fingerprint);
        prop_assert!(red.graph.len() < full.graph.len(), "k! symmetry must prune");
        // Symmetric, violated two steps in: "no process ever marks".
        let inv = Expr::all(ys.iter().map(|y| Expr::var(*y).eq(Expr::int(0))));
        let verdict = check_invariant(&sys, &red.graph, &inv).unwrap();
        let cx = verdict.counterexample().expect("marking is reachable");
        assert_replayable(&format!("togglers/{seed}"), &sys, &inv, cx);
    }
}
