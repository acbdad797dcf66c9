//! The environment overrides, end to end: a variable that is *set*
//! must hold a positive integer — anything else is a typed
//! `Precondition` naming the variable and its value, never an
//! exploration that silently proceeds without the budget (or the
//! workers) the user asked for. Liveness over a built graph reads
//! neither variable.
//!
//! This file holds exactly one test: it mutates the process
//! environment, which is only sound while no other test of the same
//! binary is running.

use opentla_check::{
    check_liveness, explore, explore_governed, Budget, CheckError, ExploreOptions, LiveTarget,
};
use opentla_kernel::Expr;
use opentla_scenarios::TokenRing;

fn assert_names(err: CheckError, var: &str, raw: &str) {
    match err {
        CheckError::Precondition { message } => {
            assert!(message.contains(var), "{message}");
            assert!(message.contains(&format!("{raw:?}")), "{message}");
        }
        other => panic!("{var}={raw:?}: expected Precondition, got {other:?}"),
    }
}

#[test]
fn malformed_overrides_are_refused_not_dropped() {
    const BUDGET: &str = "OPENTLA_MEM_BUDGET";
    const THREADS: &str = "OPENTLA_EXPLORE_THREADS";
    let system = TokenRing::new(3).complete_system().expect("ring builds");
    std::env::remove_var(BUDGET);
    std::env::remove_var(THREADS);
    let graph = explore(&system, &ExploreOptions::default()).expect("no override: explores");
    let target = LiveTarget::Eventually(Expr::bool(false));

    for raw in ["64M", "0", ""] {
        std::env::set_var(BUDGET, raw);
        let err = explore_governed(&system, &Budget::unlimited()).unwrap_err();
        assert_names(err, BUDGET, raw);
        // An explicit budget does not paper over a broken environment.
        let explicit = ExploreOptions {
            mem_budget_bytes: Some(1 << 20),
            ..ExploreOptions::default()
        };
        assert_names(explore(&system, &explicit).unwrap_err(), BUDGET, raw);
    }
    std::env::set_var(BUDGET, "1048576");
    let spilled = explore(&system, &ExploreOptions::default()).expect("1 MiB: explores");
    assert_eq!(spilled.first_difference(&graph), None);
    std::env::remove_var(BUDGET);

    for raw in ["four", "0"] {
        std::env::set_var(THREADS, raw);
        let err = explore_governed(&system, &Budget::unlimited()).unwrap_err();
        assert_names(err, THREADS, raw);
        check_liveness(&system, &graph, &target).expect("liveness does not read the variable");
    }
    std::env::set_var(THREADS, "2");
    let threaded = explore(&system, &ExploreOptions::default()).expect("2 workers: explores");
    assert_eq!(threaded.first_difference(&graph), None);
    std::env::remove_var(THREADS);
}
