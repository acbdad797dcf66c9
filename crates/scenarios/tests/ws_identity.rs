//! The work-stealing packed engine must be observationally
//! indistinguishable from the sequential engine on every benchmark
//! scenario: same statistics, same canonical state numbering, same
//! initial ids, same edge lists — at every worker count and in both
//! visited-set modes.
//!
//! Identity is asserted on `stats()`/`states()`/`init()`/`edges(id)`,
//! not on whole-struct equality: the parallel engines rebuild the
//! `visited` lookup map in shard order, which legitimately differs in
//! iteration order while holding identical contents.

use opentla_check::System;
use opentla_check::{
    explore_governed_with, Budget, Engine, ExploreOptions, StateGraph, VisitedMode,
};
use opentla_queue::{FairnessStyle, QueueChain};
use opentla_scenarios::{AlternatingBit, ArbiterFairness, Mutex, TokenRing};

fn seq_graph(system: &System) -> StateGraph {
    explore_governed_with(
        system,
        &Budget::unlimited(),
        &ExploreOptions {
            threads: Some(1),
            ..ExploreOptions::default()
        },
    )
    .expect("sequential exploration succeeds")
    .graph
}

/// Runs the full worker-count × visited-mode matrix against a
/// sequential baseline.
fn assert_ws_matrix(system: &System, name: &str) {
    let seq = seq_graph(system);
    for workers in [1usize, 2, 4] {
        for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
            let run = explore_governed_with(
                system,
                &Budget::unlimited(),
                &ExploreOptions {
                    threads: Some(workers),
                    engine: Engine::WorkStealing,
                    mode,
                    ..ExploreOptions::default()
                },
            )
            .expect("work-stealing exploration succeeds");
            assert!(run.outcome.is_complete(), "{name}: ws run must complete");
            assert_eq!(
                seq.first_difference(&run.graph),
                None,
                "{name} ws({workers}, {mode:?})"
            );
        }
    }
}

#[test]
fn ws_matches_sequential_abp() {
    let system = AlternatingBit::new(2)
        .complete_system()
        .expect("abp builds");
    assert_ws_matrix(&system, "abp");
}

#[test]
fn ws_matches_sequential_mutex() {
    let system = Mutex::with_clients(2, ArbiterFairness::Weak)
        .product()
        .expect("mutex builds");
    assert_ws_matrix(&system, "mutex");
}

#[test]
fn ws_matches_sequential_ring() {
    let system = TokenRing::new(3).complete_system().expect("ring builds");
    assert_ws_matrix(&system, "ring");
}

#[test]
fn ws_matches_sequential_chain2() {
    let system = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain2 builds");
    assert_ws_matrix(&system, "chain2");
}

#[test]
fn ws_matches_sequential_chain3() {
    let system = QueueChain::new(3, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain3 builds");
    assert_ws_matrix(&system, "chain3");
}

/// The large chain4 benchmark (54 358 states), at the acceptance
/// configuration's worker count only — the full matrix runs on the
/// smaller scenarios above, and the release-mode bench gate re-checks
/// chain4 identity on every bench run.
#[test]
fn ws_matches_sequential_chain4() {
    let system = QueueChain::new(4, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain4 builds");
    let seq = seq_graph(&system);
    let run = explore_governed_with(
        &system,
        &Budget::unlimited(),
        &ExploreOptions {
            threads: Some(4),
            engine: Engine::WorkStealing,
            ..ExploreOptions::default()
        },
    )
    .expect("work-stealing exploration succeeds");
    assert!(run.outcome.is_complete());
    assert_eq!(
        seq.first_difference(&run.graph),
        None,
        "chain4 ws(4, Fingerprint)"
    );
}

/// Narrow fingerprints deliberately force collisions; `Exact` mode
/// must keep the packed engine sound (bytes are the key) and the
/// graph identical to the sequential engine under the same width.
#[test]
fn ws_exact_mode_survives_forced_collisions() {
    let system = TokenRing::new(3).complete_system().expect("ring builds");
    let options = ExploreOptions {
        threads: Some(1),
        mode: VisitedMode::Exact,
        fp_bits: 12,
        ..ExploreOptions::default()
    };
    let seq = explore_governed_with(&system, &Budget::unlimited(), &options)
        .expect("sequential exploration succeeds")
        .graph;
    for workers in [1usize, 4] {
        let run = explore_governed_with(
            &system,
            &Budget::unlimited(),
            &ExploreOptions {
                threads: Some(workers),
                engine: Engine::WorkStealing,
                ..options.clone()
            },
        )
        .expect("work-stealing exploration succeeds");
        assert!(run.outcome.is_complete());
        assert_eq!(
            seq.first_difference(&run.graph),
            None,
            "ring exact fp12 ws({workers})"
        );
    }
}
