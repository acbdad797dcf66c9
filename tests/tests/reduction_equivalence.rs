//! Differential engine-equivalence for the Reduction subsystem:
//! exploring under symmetry canonicalization must return *the same
//! invariant verdicts* as full exploration — with semantically
//! replayable counterexamples — on every scenario in the repository, in
//! both visited-set modes. A reduced run is sequential at any requested
//! thread count, so the reduced graph at 4 threads must be
//! byte-identical to the 1-thread one. Every scenario also runs under
//! the *trivial* group, which drives the canonicalizing store over the
//! whole state space and must rebuild the full graph exactly. Under a
//! memory budget a reduced run is the same loop over the same store
//! once it has left RAM: the symmetric scenarios rebuild their reduced
//! graph under 8 KiB and 1 MiB, and across an interruption.
//!
//! Also here: the symmetric graphs pinned to the digests the dedicated
//! reduced loop built before symmetry moved onto the shared sequential
//! loop, the golden regression pinning `Reduction::none()` to the exact
//! pre-reduction chain4 numbers, and a property-based check that
//! symmetry-reduced counterexamples replay under the trace semantics.

use std::sync::Arc;

use opentla_check::{
    check_invariant, explore_governed_with, explore_resumable, Budget, Counterexample,
    CountingRecorder, Exploration, ExploreOptions, Outcome, RecorderHandle, Reduction,
    SlotPermutations, StateGraph, System, VisitedMode,
};
use opentla_check::{GuardedAction, Init};
use opentla_kernel::{codec, Domain, Expr, Formula, Value, VarId, Vars};
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

/// The label of the trivial-group leg every case gets.
const IDENTITY: &str = "identity";

/// Symmetry under the trivial group: canonicalization runs on every
/// successor and changes none.
fn identity_symmetry(system: &System) -> Reduction {
    Reduction::none().with_symmetry(Arc::new(SlotPermutations::new(
        IDENTITY,
        system.vars().len(),
        Vec::new(),
    )))
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
        reductions: Vec::new(),
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
        reductions: vec![("symmetry", Reduction::none().with_symmetry(symmetry))],
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
        reductions: vec![("symmetry", Reduction::none().with_symmetry(symmetry))],
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
        reductions: Vec::new(),
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
        reductions: Vec::new(),
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
            reductions: Vec::new(),
            invariants,
        });
    }
    for case in &mut out {
        case.reductions.push((IDENTITY, identity_symmetry(&case.system)));
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
/// (b) it is never larger than the full graph — and *is* the full
/// graph under the trivial group — (c) every invariant verdict matches
/// the full graph's, and (d) violated verdicts come with replayable
/// counterexamples.
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
                        assert_eq!(first.graph.first_difference(&red.graph), None, "{label}");
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
        if *red_label == IDENTITY {
            let label = format!("{}/{red_label}", case.name);
            // The unreduced graph in all but the tag, which is compared last.
            assert_eq!(
                full.graph.first_difference(&red.graph).as_deref(),
                Some(r#"reduced under None vs Some("identity")"#),
                "{label}"
            );
            assert_eq!(red.reduction.unwrap().canon_hits, 0, "{label}");
        }
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

/// `k` identical counters to `top`, stepped independently, under all
/// `k!` permutations of them: the reduced states are the sorted tuples.
/// `counters(3, 9)` keeps 220 of 1 000 states — the one symmetric
/// scenario here whose reduced arena outgrows a 1 KiB segment.
fn counters(k: usize, top: i64) -> (System, Reduction) {
    let mut vars = Vars::new();
    let xs: Vec<VarId> = (0..k)
        .map(|i| vars.declare(format!("c{i}"), Domain::int_range(0, top)))
        .collect();
    let step = |i: usize| {
        let x = Expr::var(xs[i]);
        GuardedAction::new(format!("inc{i}"), x.clone().lt(Expr::int(top)), vec![(xs[i], x.add(Expr::int(1)))])
    };
    let actions = (0..k).map(step).collect();
    let init = Init::new(xs.iter().map(|v| (*v, Value::Int(0))));
    let canon = SlotPermutations::processes(
        "counters",
        vars.len(),
        &[&xs],
        &SlotPermutations::all_index_permutations(k),
    );
    (System::new(vars, init, actions), Reduction::none().with_symmetry(Arc::new(canon)))
}

/// The scenarios with a symmetry group of their own, under it.
fn symmetric_scenarios() -> Vec<(&'static str, System, Reduction)> {
    let mut out: Vec<_> = cases()
        .into_iter()
        .filter(|case| case.reductions.len() > 1)
        .map(|mut case| (case.name, case.system, case.reductions.remove(0).1))
        .collect();
    let (system, reduction) = counters(3, 9);
    out.push(("counters", system, reduction));
    assert_eq!(out.iter().map(|c| c.0).collect::<Vec<_>>(), ["mutex", "ring", "counters"]);
    out
}

/// A memory budget changes where a reduced run keeps its states, not
/// what it builds: under 8 KiB and 1 MiB, in both visited modes, on
/// `explore_spill`, the graph and the banked `canon_hits` are the
/// unbudgeted reduced run's — and 8 KiB really leaves RAM where there
/// are states enough to fill a segment.
#[test]
fn budgeted_reduced_runs_build_the_unbudgeted_reduced_graph() {
    let mut spilled = Vec::new();
    for (name, system, reduction) in symmetric_scenarios() {
        for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
            let unbudgeted = run(&system, reduction.clone(), 4, mode);
            for mem_budget in [8usize << 10, 1 << 20] {
                let label = format!("{name}/{mode:?}/{mem_budget}");
                let recorder = Arc::new(CountingRecorder::new());
                let budgeted = explore_governed_with(
                    &system,
                    &Budget::unlimited().with_recorder(RecorderHandle::new(recorder.clone())),
                    &ExploreOptions {
                        threads: Some(4),
                        mode,
                        reduction: reduction.clone(),
                        mem_budget_bytes: Some(mem_budget),
                        ..ExploreOptions::default()
                    },
                )
                .expect(&label);
                assert!(matches!(budgeted.outcome, Outcome::Complete), "{label}");
                assert_eq!(budgeted.graph.first_difference(&unbudgeted.graph), None, "{label}");
                assert_eq!(budgeted.reduction, unbudgeted.reduction, "{label}");
                if mem_budget == 8 << 10 && unbudgeted.graph.len() >= 100 {
                    assert!(recorder.count("spill") >= 1, "{label}: 8 KiB must spill");
                    spilled.push(name);
                }
            }
        }
    }
    assert_eq!(spilled, ["counters", "counters"], "one scenario is large enough to spill");
}

/// A budgeted reduced run cut half-way leaves a manifest over its own
/// sealed segments; resuming it — canonical arena read back, hits
/// banked — ends in the graph of the uninterrupted run.
#[test]
fn budgeted_reduced_run_resumes_from_its_manifest() {
    let (system, reduction) = counters(3, 9);
    let unbudgeted = run(&system, reduction.clone(), 1, VisitedMode::Fingerprint);
    assert!(unbudgeted.reduction.unwrap().canon_hits > 0);
    let path = std::env::temp_dir()
        .join(format!("opentla_reduction_{}_manifest.snap", std::process::id()));
    let segs = std::path::PathBuf::from(format!("{}.segs", path.display()));
    let _ = std::fs::remove_file(&path);
    let options = ExploreOptions {
        threads: Some(1),
        reduction,
        mem_budget_bytes: Some(8 << 10),
        ..ExploreOptions::default()
    };
    let cut = Budget::default()
        .states(unbudgeted.graph.len() * 3 / 4)
        .with_checkpoint(&path, 16);
    let interrupted = explore_resumable(&system, &cut, &options).expect("the cut run succeeds");
    assert!(interrupted.outcome.resume_token().is_some());
    let sealed = |dir: &std::path::Path| {
        let names = std::fs::read_dir(dir).expect("the store's directory is pinned");
        names.filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".seg")).count()
    };
    assert!(sealed(&segs) >= 1, "the manifest references sealed segments");
    let resumed = explore_resumable(
        &system,
        &Budget::unlimited().with_checkpoint(&path, 1 << 20),
        &options,
    )
    .expect("the resumed run succeeds");
    assert!(matches!(resumed.outcome, Outcome::Complete));
    assert_eq!(resumed.graph.first_difference(&unbudgeted.graph), None);
    assert_eq!(resumed.reduction, unbudgeted.reduction);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&segs);
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
    assert_eq!(recorder.count("run_end"), 1);
    assert_eq!(recorder.states(), 54358);
    assert_eq!(recorder.transitions(), 164736);
    assert_eq!(recorder.depth(), 55);
    // No reduction event is emitted when reduction is off.
    assert_eq!(recorder.count("reduction"), 0);
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
    assert_eq!(recorder.count("reduction"), 1);
    let canon = recorder.reduction_totals();
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
// Togglers: `k` identical processes under the full permutation group
// ---------------------------------------------------------------------

/// `k` identical two-step processes (`set` then `mark`), with the `y`
/// variables the "nobody marks" invariant reads and the canonicalizer
/// of all `k!` process permutations.
fn togglers(k: usize) -> (System, Vec<VarId>, SlotPermutations) {
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
    let init = Init::new(xs.iter().chain(ys.iter()).map(|v| (*v, Value::Int(0))));
    let n_slots = vars.len();
    let sys = System::new(vars, init, actions);
    let canon = SlotPermutations::processes(
        "togglers",
        n_slots,
        &[&xs, &ys],
        &SlotPermutations::all_index_permutations(k),
    );
    (sys, ys, canon)
}

/// FNV-1a over everything `assert_identical` compares: every state (in
/// the snapshot codec's encoding), the initial ids, every edge list and
/// every BFS-tree trace, in id order.
fn graph_digest(g: &StateGraph) -> u64 {
    let mut bytes = Vec::new();
    for s in g.states() {
        codec::encode_state(s, &mut bytes);
    }
    let mut word = |n: usize| bytes.extend_from_slice(&(n as u64).to_le_bytes());
    for &i in g.init() {
        word(i);
    }
    for id in 0..g.len() {
        for e in g.edges(id) {
            word(e.action);
            word(e.target);
        }
        for (action, state) in g.trace_to(id) {
            word(action.unwrap_or(usize::MAX));
            word(state);
        }
    }
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Symmetry on the shared sequential loop builds, byte for byte, the
/// graphs the dedicated reduced loop built: sizes, `canon_hits` and
/// digests recorded at the last commit that had that loop (7d54295),
/// in both visited modes.
#[test]
fn symmetric_graphs_match_the_digests_of_the_dedicated_loop() {
    let pinned = |name, system: &System, canon: SlotPermutations, shape: [usize; 3], digest: u64| {
        let canon = Arc::new(canon);
        for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
            let label = format!("{name}/{mode:?}");
            let red = run(system, Reduction::none().with_symmetry(canon.clone()), 1, mode);
            let hits = red.reduction.unwrap().canon_hits;
            assert_eq!([red.graph.len(), red.graph.edge_count(), hits], shape, "{label}");
            assert_eq!(graph_digest(&red.graph), digest, "{label}: graph changed");
        }
    };
    // [states, transitions, canon_hits], digest
    let mutex = Mutex::with_clients(3, ArbiterFairness::Weak);
    let (system, canon) = (mutex.product().unwrap(), mutex.client_symmetry());
    pinned("mutex(3)", &system, canon, [10, 24, 12], 0xdc09_3268_c942_3665);
    let ring = TokenRing::new(3);
    let (system, canon) = (ring.complete_system().unwrap(), ring.rotation_symmetry());
    pinned("ring(3)", &system, canon, [12, 12, 3], 0x0e44_3f7e_1c87_126f);
    let (system, _, canon) = togglers(2);
    pinned("togglers(2)", &system, canon, [6, 8, 2], 0x62a1_4909_ef0e_6160);
    let (system, _, canon) = togglers(3);
    pinned("togglers(3)", &system, canon, [10, 20, 8], 0xc6c9_bd41_a973_6ddd);
}

// ---------------------------------------------------------------------
// Property-based checks
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Symmetry-canonicalized counterexamples replay under the trace
    /// semantics: a ring of `k` identical togglers, reduced by the
    /// full permutation group, still yields counterexamples that are
    /// real behaviors (concretized from canonical representatives).
    #[test]
    fn symmetry_counterexamples_replay(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (sys, ys, canon) = togglers(rng.gen_range(2..=3usize));
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
