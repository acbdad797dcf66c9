//! Plan-equivalence guarantees of exploration: the fingerprinted and
//! exact visited sets, in RAM and under a memory budget, must produce
//! *the same graph* — identical statistics, identical state indexing,
//! identical edges, identical counterexample traces — on every
//! scenario in the repository, so that switching plans can never
//! change a checking verdict.
//!
//! Also covered: the deliberate-collision knob (`fp_bits`) showing
//! that fingerprint collisions only ever *under*-approximate and that
//! exact mode recovers the full space, and a property-based check that
//! the compiled successor stepper agrees with the interpretive one on
//! every reachable state.

use opentla_check::{
    check_invariant, explore, explore_governed_with, Budget, CompiledSystem, CountingRecorder,
    Engine, EvalScratch, ExploreOptions, Outcome, RecorderHandle, System, VisitedMode,
};
use opentla_kernel::{Expr, State};
use opentla_queue::{FairnessStyle, QueueChain};
use opentla_scenarios::{AlternatingBit, ArbiterFairness, Mutex, TokenRing};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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
