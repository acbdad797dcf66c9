//! Plan-equivalence guarantees of exploration: the fingerprinted and
//! exact visited sets, in RAM and under a memory budget, must produce
//! *the same graph* — identical statistics, identical state indexing,
//! identical edges, identical counterexample traces — on every
//! scenario in the repository, so that switching plans can never
//! change a checking verdict.
//!
//! The two stages of the loop — a stepper thread beside the interner —
//! must build what one stage builds: the same complete graphs, the
//! same cuts, snapshots and `step_memo` counts, the same errors.
//!
//! Also covered: the deliberate-collision knob (`fp_bits`) showing
//! that fingerprint collisions only ever *under*-approximate and that
//! exact mode recovers the full space, and a property-based check that
//! the compiled successor stepper agrees with the interpretive one on
//! every reachable state.

use opentla_check::{
    check_invariant, explore, explore_governed_with, resume_exploration, Budget, CheckError,
    CompiledSystem, CountingRecorder, Engine, EvalScratch, Event, ExhaustReason, Exploration,
    ExploreOptions, GuardedAction, Init, Outcome, Recorder, RecorderHandle, Snapshot, StepMemo,
    System, VisitedMode,
};
use opentla_kernel::{Domain, Expr, PackedLayout, State, Value, Vars};
use opentla_queue::{FairnessStyle, QueueChain};
use opentla_scenarios::{AlternatingBit, ArbiterFairness, Mutex, TokenRing};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Duration;

/// Every scenario family in the repo, at sizes that keep the whole
/// file fast while still overflowing a small memory budget.
fn scenarios() -> Vec<(&'static str, System)> {
    vec![
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
    ]
}

/// The seed explorer: a BFS over the interpretive
/// [`System::successors`] with an exact `HashMap<State, usize>` visited
/// set. It shares no stepper, fingerprint or index with the plans, so
/// agreeing with it is not agreeing with themselves. Returns the states in discovery order and each state's
/// `(action, target)` list.
fn explore_seed(system: &System) -> (Vec<State>, Vec<Vec<(usize, usize)>>) {
    let mut index: HashMap<State, usize> = HashMap::new();
    // Discovery order is queue order: `states[expanded..]` is the queue.
    let mut states: Vec<State> = Vec::new();
    for s in system
        .init()
        .states(system.universe())
        .expect("initial states enumerate")
    {
        if !index.contains_key(&s) {
            index.insert(s.clone(), states.len());
            states.push(s);
        }
    }
    let mut edges = Vec::new();
    while edges.len() < states.len() {
        let successors = system
            .successors(&states[edges.len()])
            .expect("successors evaluate");
        let out = successors
            .into_iter()
            .map(|(action, t)| {
                let fresh = states.len();
                let target = *index.entry(t.clone()).or_insert(fresh);
                if target == fresh {
                    states.push(t);
                }
                (action, target)
            })
            .collect();
        edges.push(out);
    }
    (states, edges)
}

/// Each of the two plans — pinned by engine, the disk-backed one under
/// a 32 KiB budget, which the chains overflow — builds the seed
/// explorer's graph: the same states in the same order, the same edge
/// lists.
#[test]
fn every_plan_builds_the_seed_explorers_graph() {
    let plans = [
        ("sequential", Engine::Auto, 1, None),
        ("spill", Engine::SpillBfs, 1, Some(32 << 10)),
    ];
    for (name, sys) in scenarios() {
        let (states, edges) = explore_seed(&sys);
        for (plan, engine, threads, mem_budget_bytes) in plans {
            let options = ExploreOptions {
                engine,
                threads: Some(threads),
                mem_budget_bytes,
                ..ExploreOptions::default()
            };
            let graph = explore(&sys, &options).unwrap();
            assert_eq!(graph.len(), states.len(), "{name}/{plan}: state count");
            for (id, state) in states.iter().enumerate() {
                assert_eq!(graph.state(id), state, "{name}/{plan}: state {id}");
                let out: Vec<_> = graph
                    .edges(id)
                    .iter()
                    .map(|e| (e.action, e.target))
                    .collect();
                assert_eq!(out, edges[id], "{name}/{plan}: edges of state {id}");
            }
        }
    }
}

#[test]
fn exact_mode_is_identical_to_fingerprint_mode_everywhere() {
    for (name, sys) in scenarios() {
        let fp = explore(&sys, &ExploreOptions::default()).unwrap();
        let exact = explore(
            &sys,
            &ExploreOptions {
                mode: VisitedMode::Exact,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(fp.first_difference(&exact), None, "{name}");
    }
}

/// Counterexamples — the user-visible artifact of a check — must not
/// depend on the plan. "Every variable stays at its initial value"
/// fails at the first transition of every scenario, so it yields a
/// short counterexample everywhere.
#[test]
fn counterexample_traces_do_not_depend_on_the_engine() {
    for (name, sys) in scenarios() {
        let seq = explore(&sys, &ExploreOptions::default()).unwrap();
        let spill = explore(
            &sys,
            &ExploreOptions {
                engine: Engine::SpillBfs,
                mem_budget_bytes: Some(32 << 10),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let frozen = sys
            .vars()
            .iter()
            .map(|v| Expr::var(v).eq(Expr::con(seq.state(seq.init()[0]).get(v).clone())))
            .reduce(|a, b| a.and(b))
            .expect("at least one variable");
        let cx_seq = check_invariant(&sys, &seq, &frozen).unwrap();
        let cx_spill = check_invariant(&sys, &spill, &frozen).unwrap();
        match (cx_seq.counterexample(), cx_spill.counterexample()) {
            (Some(a), Some(b)) => {
                assert_eq!(a.states(), b.states(), "{name}: trace states differ");
                assert_eq!(a.actions(), b.actions(), "{name}: trace actions differ");
                assert_eq!(a.reason(), b.reason(), "{name}: reasons differ");
            }
            (a, b) => panic!(
                "{name}: plans disagree on the verdict (seq: {:?}, spill: {:?})",
                a.is_some(),
                b.is_some()
            ),
        }
    }
}

/// Forcing fingerprint collisions (`fp_bits` far below 64) can only
/// shrink the explored space — never invent states — and every state
/// the collided run does report is genuinely reachable. Exact mode is
/// immune to the knob: it recovers the full space at any width.
#[test]
fn forced_collisions_underapproximate_and_exact_mode_recovers() {
    let sys = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain builds");
    let full = explore(&sys, &ExploreOptions::default()).unwrap();
    let collided = explore(
        &sys,
        &ExploreOptions {
            fp_bits: 8,
            ..ExploreOptions::default()
        },
    )
    .unwrap();
    assert!(
        collided.len() < full.len(),
        "8-bit fingerprints over {} states must collide",
        full.len()
    );
    let reachable: HashSet<&State> = full.states().iter().collect();
    for s in collided.states() {
        assert!(
            reachable.contains(s),
            "collided run reported an unreachable state"
        );
    }
    let exact = explore(
        &sys,
        &ExploreOptions {
            fp_bits: 8,
            mode: VisitedMode::Exact,
            ..ExploreOptions::default()
        },
    )
    .unwrap();
    assert_eq!(full.first_difference(&exact), None, "exact recovery");
}

/// Golden regression: the explorer reproduces the exact chain4
/// numbers — graph statistics and the `RunReport` totals the
/// observability layer has seen since it was added.
#[test]
fn golden_chain4_unreduced_stats_and_report() {
    let sys = QueueChain::new(4, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain4 builds");
    let recorder = Arc::new(CountingRecorder::new());
    let budget = Budget::unlimited().with_recorder(RecorderHandle::new(recorder.clone()));
    let run = explore_governed_with(
        &sys,
        &budget,
        &ExploreOptions {
            threads: Some(1),
            ..ExploreOptions::default()
        },
    )
    .unwrap();
    assert!(matches!(run.outcome, Outcome::Complete));
    let stats = run.graph.stats();
    assert_eq!(stats.states, 54358, "chain4 state count regressed");
    assert_eq!(
        stats.transitions, 164736,
        "chain4 transition count regressed"
    );
    assert_eq!(stats.depth, 55, "chain4 BFS depth regressed");
    // The RunReport totals routed through the recorder agree exactly.
    assert_eq!(recorder.count("run_end"), 1);
    assert_eq!(recorder.states(), 54358);
    assert_eq!(recorder.transitions(), 164736);
    assert_eq!(recorder.depth(), 55);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The compiled successor stepper agrees with the interpretive
    /// `System::successors` on arbitrary reachable states.
    #[test]
    fn compiled_successors_match_interpretive(pick in any::<u64>()) {
        let sys = Mutex::with_clients(2, ArbiterFairness::Weak)
            .product()
            .expect("mutex builds");
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let s = graph.state(pick as usize % graph.len());
        let interpreted = sys.successors(s).unwrap();
        let compiled = CompiledSystem::compile(&sys);
        let mut out = Vec::new();
        let mut scratch = EvalScratch::new();
        compiled.successors_into(s, &mut out, &mut scratch).unwrap();
        prop_assert_eq!(interpreted, out);
    }
}

/// What one run of a two-stage comparison yields: its result, with
/// what `step_memo` reported (actions, tabled actions, entries,
/// lookups, misses).
type StagedRun = (Result<Exploration, CheckError>, Option<[u64; 5]>);

/// Reads a run's `step_memo` event, and cancels its budget at the loop
/// head after its `cancel_after`-th progress event — where the loop
/// also reads the deadline, so a cancel lands where a deadline would,
/// deterministically.
struct StageProbe {
    memo: StdMutex<Option<[u64; 5]>>,
    progress: AtomicU64,
    cancel_after: Option<(u64, Arc<AtomicBool>)>,
}

impl Recorder for StageProbe {
    fn record(&self, event: &Event<'_>) {
        match *event {
            Event::StepMemo {
                actions,
                tabled_actions,
                table_entries,
                lookups,
                misses,
            } => {
                let counts = [actions, tabled_actions, table_entries, lookups, misses];
                *self.memo.lock().unwrap() = Some(counts);
            }
            Event::Progress { .. } => {
                let seen = self.progress.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some((k, cancel)) = &self.cancel_after {
                    if seen == *k {
                        cancel.store(true, Ordering::Relaxed);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Explores `sys` under `budget` (a fresh copy: its cancel flag is its
/// own) at `threads` workers, or resumes `resume`.
fn staged_run(
    sys: &System,
    options: &ExploreOptions,
    threads: usize,
    budget: &Budget,
    cancel_after: Option<u64>,
    resume: Option<&Snapshot>,
) -> StagedRun {
    let mut budget = budget.clone();
    budget.cancel = Arc::new(AtomicBool::new(false));
    let probe = Arc::new(StageProbe {
        memo: StdMutex::new(None),
        progress: AtomicU64::new(0),
        cancel_after: cancel_after.map(|k| (k, budget.cancel.clone())),
    });
    let budget = budget.with_recorder(RecorderHandle::new(probe.clone()));
    let options = ExploreOptions {
        threads: Some(threads),
        ..options.clone()
    };
    let run = match resume {
        Some(snap) => resume_exploration(sys, &budget, &options, snap),
        None => explore_governed_with(sys, &budget, &options),
    };
    let memo = *probe.memo.lock().unwrap();
    (run, memo)
}

/// One stage and two agree: on an error, the same error; else the same
/// graph (`first_difference`), outcome, frontier, `step_memo` counts
/// and — unless a budgeted store's segment directory names it —
/// snapshot, and the two-stage run ran on two workers.
fn assert_stages_agree(what: &str, one: &StagedRun, two: &StagedRun) {
    match (&one.0, &two.0) {
        (Ok(a), Ok(b)) => {
            assert_eq!((a.workers(), b.workers()), (1, 2), "{what}: workers");
            assert_eq!(a.graph.first_difference(&b.graph), None, "{what}: graph");
            assert_eq!(
                format!("{:?}", a.outcome),
                format!("{:?}", b.outcome),
                "{what}: outcome"
            );
            assert_eq!(a.frontier, b.frontier, "{what}: frontier");
            assert_eq!(one.1, two.1, "{what}: step_memo counts");
            assert!(one.1.is_some(), "{what}: a step_memo event");
            let snapshot = |run: &Exploration| run.snapshot.as_ref().map(|s| format!("{s:?}"));
            if !snapshot(a).is_some_and(|s| s.contains("Manifest")) {
                assert_eq!(snapshot(a), snapshot(b), "{what}: snapshot");
            }
        }
        (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: error"),
        (a, b) => panic!(
            "{what}: one stage {:?}, two stages {:?}",
            a.as_ref().map(|r| r.graph.len()),
            b.as_ref().map(|r| r.graph.len())
        ),
    }
}

/// What one plain loop's effect tables count when it stops where
/// `cut` — a fresh run, cut by `reason` — did: every parent before the
/// cut parent stepped, then, when a successor was being interned, the
/// cut parent's actions through that successor's. Entries, lookups and
/// misses, from a fresh [`StepMemo`] stepping the graph's states in id
/// order, with no batch in sight.
fn memo_counts_of_one_loop(sys: &System, cut: &Exploration) -> [u64; 3] {
    let layout = PackedLayout::compile(sys.vars()).expect("the system packs");
    let compiled = CompiledSystem::compile(sys);
    let mut memo = StepMemo::new();
    let row = |id: usize| {
        layout
            .pack(&cut.graph.materialize(id))
            .expect("in its domains")
    };
    let parent = cut.frontier[0];
    for id in 0..parent {
        let all = compiled.for_each_packed_successor(&layout, &row(id), &mut memo, |_, _| {
            ControlFlow::<()>::Continue(())
        });
        assert_eq!(all.unwrap(), None);
    }
    // A cut by states or transitions lands while a successor of the
    // cut parent is interned: the one after its recorded edges.
    let mid_parent = matches!(
        cut.outcome.exhaustion(),
        Some(ExhaustReason::StateLimit { .. } | ExhaustReason::TransitionLimit { .. })
    );
    if mid_parent {
        let mut left = cut.graph.edges(parent).len();
        let stepped = compiled.for_each_packed_successor(
            &layout,
            &row(parent),
            &mut memo,
            |_, _| match left {
                0 => ControlFlow::Break(()),
                _ => {
                    left -= 1;
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(stepped.unwrap(), Some(()), "the cut successor exists");
    }
    let stats = memo.stats();
    [stats.entries, stats.lookups, stats.misses]
}

fn chain3() -> System {
    QueueChain::new(3, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain3 builds")
}

/// Two stages — a stepper thread beside the interner — build one
/// stage's complete graph on every scenario and on QueueChain(3,1,2),
/// fingerprinted and exact over 4-bit keys (collisions everywhere),
/// in RAM and under a 1 MiB and a 64 KiB budget (the store leaves RAM
/// and its index drains to disk).
#[test]
fn two_stages_build_one_stages_complete_graph() {
    let mut systems = scenarios();
    systems.push(("chain3/1,2", chain3()));
    let exact = ExploreOptions {
        mode: VisitedMode::Exact,
        fp_bits: 4,
        ..ExploreOptions::default()
    };
    let budgeted = |bytes: usize| ExploreOptions {
        mem_budget_bytes: Some(bytes),
        ..ExploreOptions::default()
    };
    let configs = [
        ("fingerprint", ExploreOptions::default()),
        ("exact/4 bits", exact),
        ("1 MiB", budgeted(1 << 20)),
        ("64 KiB", budgeted(64 << 10)),
    ];
    let budget = Budget::unlimited();
    for (name, sys) in &systems {
        for (config, options) in &configs {
            let what = format!("{name}/{config}");
            let one = staged_run(sys, options, 1, &budget, None, None);
            let two = staged_run(sys, options, 2, &budget, None, None);
            assert!(one.0.as_ref().unwrap().outcome.is_complete(), "{what}");
            assert_stages_agree(&what, &one, &two);
        }
    }
}

/// Cuts land on the same parent at one and two stages, wherever they
/// fall: by states and by transitions at batch boundaries and inside
/// batches (the stepper is ahead of the cut there), by a deadline at
/// the first parent, and by a cancel at the loop head deep into the
/// run. Same frontier, snapshot and `step_memo` counts — the counts of
/// a plain loop stopped at the same point; and the snapshot resumes,
/// at two stages, to the complete graph.
#[test]
fn two_stages_cut_where_one_does_and_resume_across() {
    let sys = chain3();
    let full = explore(&sys, &ExploreOptions::default()).unwrap();
    let (states, transitions) = (full.len(), full.edge_count());
    let mut budgets: Vec<(String, Budget, Option<u64>)> = Vec::new();
    let mut state_cuts = vec![1, 3, 1023, 1024, 1025, 2048];
    state_cuts.extend([states / 3, states / 2, states - 1]);
    for n in state_cuts {
        budgets.push((format!("states({n})"), Budget::default().states(n), None));
    }
    let mut transition_cuts = vec![1, 1024, 4096];
    transition_cuts.extend([transitions / 3, transitions / 2, transitions - 1]);
    for n in transition_cuts {
        let budget = Budget::default().transitions(n);
        budgets.push((format!("transitions({n})"), budget, None));
    }
    let deadline = Budget::default().with_deadline(Duration::ZERO);
    budgets.push(("deadline(0)".into(), deadline, None));
    for k in [1, 2, 4] {
        budgets.push((format!("cancel@{k}"), Budget::default(), Some(k)));
    }
    let exact = ExploreOptions {
        mode: VisitedMode::Exact,
        fp_bits: 4,
        ..ExploreOptions::default()
    };
    for (config, options) in [("fingerprint", ExploreOptions::default()), ("exact", exact)] {
        let reference = explore(&sys, &options).unwrap();
        for (name, budget, cancel_after) in &budgets {
            let what = format!("{config}/{name}");
            let one = staged_run(&sys, &options, 1, budget, *cancel_after, None);
            let two = staged_run(&sys, &options, 2, budget, *cancel_after, None);
            let cut = one.0.as_ref().unwrap();
            assert!(!cut.outcome.is_complete(), "{what}: the budget cuts");
            assert_stages_agree(&what, &one, &two);
            if !cut.frontier.is_empty() && cut.snapshot.is_some() {
                let memo = one.1.expect("a step_memo event");
                let oracle = memo_counts_of_one_loop(&sys, cut);
                assert_eq!(memo[2..], oracle, "{what}: step_memo against one loop");
            }
            // A cut among the initial states (chain3 has several) is
            // not resumable.
            let Some(snap) = cut.snapshot.as_deref() else {
                continue;
            };
            let unlimited = Budget::unlimited();
            let resumed = staged_run(&sys, &options, 2, &unlimited, None, Some(snap));
            let resumed = resumed.0.unwrap();
            assert!(resumed.outcome.is_complete(), "{what}: resumed");
            let diff = resumed.graph.first_difference(&reference);
            assert_eq!(diff, None, "{what}: resumed");
        }
    }
}

/// A run under a 1 MiB budget cut by states: the disk-backed store
/// cuts on the same parent at one and two stages, and the snapshot of
/// either resumes to the complete graph.
#[test]
fn two_stages_cut_under_a_budget_where_one_does() {
    let sys = chain3();
    let options = ExploreOptions {
        mem_budget_bytes: Some(1 << 20),
        ..ExploreOptions::default()
    };
    let reference = explore(&sys, &ExploreOptions::default()).unwrap();
    for n in [1500, 4000] {
        let what = format!("1 MiB/states({n})");
        let budget = Budget::default().states(n);
        let one = staged_run(&sys, &options, 1, &budget, None, None);
        let two = staged_run(&sys, &options, 2, &budget, None, None);
        assert_stages_agree(&what, &one, &two);
        for (threads, run) in [(2, &one), (1, &two)] {
            let snap = run
                .0
                .as_ref()
                .unwrap()
                .snapshot
                .as_deref()
                .expect("resumable");
            let unlimited = Budget::unlimited();
            let resumed = staged_run(&sys, &options, threads, &unlimited, None, Some(snap));
            let diff = resumed.0.unwrap().graph.first_difference(&reference);
            assert_eq!(diff, None, "{what}: resumed@{threads}");
        }
    }
}

/// An action that fails to evaluate — here a division by zero when `y`
/// reaches 23, deep into a run whose frontier spans several batches —
/// ends both runs with the same error, after the same successors; a
/// cut before the failure wins at both, and the same cut.
#[test]
fn two_stages_fail_where_one_does() {
    let mut vars = Vars::new();
    let x = vars.declare("x", Domain::int_range(0, 60));
    let y = vars.declare("y", Domain::int_range(0, 60));
    let step_x = GuardedAction::new(
        "step_x",
        Expr::var(x).lt(Expr::int(60)),
        vec![(x, Expr::var(x).add(Expr::int(1)))],
    );
    let step_y = GuardedAction::new(
        "step_y",
        Expr::var(y).lt(Expr::int(60)),
        vec![(
            y,
            Expr::var(y)
                .add(Expr::int(1))
                .add(Expr::int(0).div(Expr::int(23).sub(Expr::var(y)))),
        )],
    );
    let init = Init::new([(x, Value::Int(0)), (y, Value::Int(0))]);
    let sys = System::new(vars, init, vec![step_x, step_y]);
    let budget = Budget::unlimited();
    let options = ExploreOptions::default();
    let one = staged_run(&sys, &options, 1, &budget, None, None);
    let two = staged_run(&sys, &options, 2, &budget, None, None);
    match &one.0 {
        Err(CheckError::Eval(_)) => {}
        other => panic!("a division by zero: {:?}", other.as_ref().map(|r| r.len())),
    }
    assert_stages_agree("failing action", &one, &two);
    let cut = Budget::default().states(200);
    let one = staged_run(&sys, &options, 1, &cut, None, None);
    let two = staged_run(&sys, &options, 2, &cut, None, None);
    assert!(one.0.is_ok(), "the cut comes first");
    assert_stages_agree("failing action/states(200)", &one, &two);
}
