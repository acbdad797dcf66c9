//! Property-based tests for the fault-injection combinators: fault
//! transformation must only *add* behaviors (state-space superset),
//! keep exploration deterministic, and produce systems whose
//! next-state expression stays well-typed over every reachable state
//! pair.

mod support {
    pub mod random_system;
}

use opentla_check::{explore, faults, ExploreOptions, System};
use opentla_kernel::{Expr, StatePair, Value, VarId, Vars};
use proptest::prelude::*;
use support::random_system::{arb_action_spec, build_system, Family};

const BITS: Family = Family { vars: 2, top: 1 };

/// Which combinator a test case applies.
#[derive(Clone, Debug)]
enum FaultKind {
    Lossy { drop_b: bool },
    Duplicate,
    CrashRestart,
}

fn arb_fault() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        any::<bool>().prop_map(|drop_b| FaultKind::Lossy { drop_b }),
        Just(FaultKind::Duplicate),
        Just(FaultKind::CrashRestart),
    ]
}

fn apply_fault(sys: &System, kind: &FaultKind) -> System {
    let all: Vec<usize> = (0..sys.actions().len()).collect();
    let (a, b) = (var(sys.vars(), "a"), var(sys.vars(), "b"));
    match kind {
        FaultKind::Lossy { drop_b } => {
            let dropped = if *drop_b { b } else { a };
            faults::lossy(sys, &all, &[dropped]).unwrap()
        }
        FaultKind::Duplicate => faults::duplicate(sys, &all).unwrap(),
        FaultKind::CrashRestart => faults::crash_restart(
            sys,
            &[a, b],
            &[(a, Value::Int(0)), (b, Value::Int(0))],
        )
        .unwrap(),
    }
}

fn var(vars: &Vars, name: &str) -> VarId {
    vars.find(name).expect("declared")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fault injection only adds behaviors: every reachable state and
    /// every edge of the original system survives into the faulted
    /// one, and the appended fault actions leave the original action
    /// indices (hence BFS tie-breaking) intact.
    #[test]
    fn fault_injection_yields_state_space_superset(
        specs in proptest::collection::vec(arb_action_spec(BITS), 1..4),
        kind in arb_fault(),
    ) {
        let sys = build_system(BITS, &specs);
        let faulted = apply_fault(&sys, &kind);
        // Original actions survive, in order, under their own names.
        prop_assert!(faulted.actions().len() >= sys.actions().len());
        for (orig, kept) in sys.actions().iter().zip(faulted.actions()) {
            prop_assert_eq!(orig.name(), kept.name());
        }
        for extra in &faulted.actions()[sys.actions().len()..] {
            prop_assert!(faults::is_fault_action(extra.name()));
        }
        let base = explore(&sys, &ExploreOptions::default()).unwrap();
        let bad = explore(&faulted, &ExploreOptions::default()).unwrap();
        prop_assert!(bad.len() >= base.len());
        prop_assert!(bad.edge_count() >= base.edge_count());
        // Every original state is still reachable.
        for s in base.states() {
            prop_assert!(
                bad.states().contains(s),
                "state {s:?} lost by fault injection"
            );
        }
    }

    /// Exploring a faulted system is as deterministic as exploring the
    /// original: identical graphs on repeated runs.
    #[test]
    fn faulted_exploration_deterministic(
        specs in proptest::collection::vec(arb_action_spec(BITS), 1..4),
        kind in arb_fault(),
    ) {
        let faulted = apply_fault(&build_system(BITS, &specs), &kind);
        let g1 = explore(&faulted, &ExploreOptions::default()).unwrap();
        let g2 = explore(&faulted, &ExploreOptions::default()).unwrap();
        prop_assert_eq!(g1.first_difference(&g2), None);
    }

    /// The faulted system's next-state expression stays well-typed:
    /// it evaluates without error on every reachable state pair, holds
    /// on every explored edge, and the injected actions respect the
    /// variables' domains.
    #[test]
    fn faulted_next_expr_is_well_typed(
        specs in proptest::collection::vec(arb_action_spec(BITS), 1..4),
        kind in arb_fault(),
    ) {
        let faulted = apply_fault(&build_system(BITS, &specs), &kind);
        let graph = explore(&faulted, &ExploreOptions::default()).unwrap();
        let next = faulted.next_expr();
        for (id, s) in graph.states().iter().enumerate() {
            for v in faulted.vars().iter() {
                prop_assert!(
                    faulted.vars().domain(v).contains(s.get(v)),
                    "reachable state leaves the domain of {}",
                    faulted.vars().name(v)
                );
            }
            for t in graph.states() {
                // No type errors anywhere on the reachable square.
                prop_assert!(next.holds_action(StatePair::new(s, t)).is_ok());
            }
            for e in graph.edges(id) {
                let pair = StatePair::new(s, graph.state(e.target));
                prop_assert!(next.holds_action(pair).unwrap());
            }
        }
    }

    /// `hostile_env` declares its clock, arms the saboteur only at the
    /// chosen step, and keeps everything deterministic.
    #[test]
    fn hostile_env_clock_is_monotone_and_bounded(
        specs in proptest::collection::vec(arb_action_spec(BITS), 1..4),
        break_at in 0..3i64,
    ) {
        let sys = build_system(BITS, &specs);
        let a = var(sys.vars(), "a");
        // `a = 0` is always falsifiable over bits.
        let assumption = Expr::var(a).eq(Expr::int(0));
        let hostile = faults::hostile_env(&sys, &assumption, break_at).unwrap();
        let clock = var(hostile.vars(), faults::HOSTILE_CLOCK);
        let graph = explore(&hostile, &ExploreOptions::default()).unwrap();
        for (id, s) in graph.states().iter().enumerate() {
            let now = match s.get(clock) {
                Value::Int(i) => *i,
                other => panic!("clock is not an int: {other}"),
            };
            prop_assert!((0..=break_at).contains(&now));
            for e in graph.edges(id) {
                let next = match graph.state(e.target).get(clock) {
                    Value::Int(i) => *i,
                    other => panic!("clock is not an int: {other}"),
                };
                let name = hostile.actions()[e.action].name();
                if faults::is_fault_action(name) {
                    // Saboteur: armed only at the break step, and it
                    // falsifies the assumption.
                    prop_assert_eq!(now, break_at);
                    prop_assert!(
                        !assumption.holds_state(graph.state(e.target)).unwrap()
                    );
                } else {
                    // Ordinary actions tick the (saturating) clock.
                    prop_assert_eq!(next, (now + 1).min(break_at));
                }
            }
        }
    }
}
