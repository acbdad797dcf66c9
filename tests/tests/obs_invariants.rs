//! Observability-layer invariants, property-based: the counters a
//! [`CountingRecorder`] accumulates are not a *second* notion of run
//! statistics — for any randomly generated guarded-command system, the
//! run-report totals must exactly equal the explored graph's
//! [`GraphStats`], and must be identical whatever thread count the
//! run was asked for.

use opentla_check::{
    check_simulation_governed, explore_governed_with, Budget, CountingRecorder, Event,
    ExploreOptions, GraphStats, GuardedAction, Init, Phase, Recorder, RecorderHandle, System,
};
use opentla_kernel::{Domain, Expr, Formula, Substitution, Value, Vars};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Clone, Debug)]
struct ActionSpec {
    guard_var: usize,
    guard_val: i64,
    target_var: usize,
    update: UpdateKind,
}

#[derive(Clone, Debug)]
enum UpdateKind {
    Constant(i64),
    CopyOther,
    Toggle,
}

fn arb_action_spec() -> impl Strategy<Value = ActionSpec> {
    (
        0..2usize,
        0..2i64,
        0..2usize,
        prop_oneof![
            (0..2i64).prop_map(UpdateKind::Constant),
            Just(UpdateKind::CopyOther),
            Just(UpdateKind::Toggle),
        ],
    )
        .prop_map(|(guard_var, guard_val, target_var, update)| ActionSpec {
            guard_var,
            guard_val,
            target_var,
            update,
        })
}

fn build_system(specs: &[ActionSpec]) -> System {
    let mut vars = Vars::new();
    let a = vars.declare("a", Domain::bits());
    let b = vars.declare("b", Domain::bits());
    let ids = [a, b];
    let actions: Vec<GuardedAction> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let target = ids[spec.target_var];
            let other = ids[1 - spec.target_var];
            let update = match spec.update {
                UpdateKind::Constant(v) => Expr::int(v),
                UpdateKind::CopyOther => Expr::var(other),
                UpdateKind::Toggle => Expr::int(1).sub(Expr::var(target)),
            };
            GuardedAction::new(
                format!("act{i}"),
                Expr::var(ids[spec.guard_var]).eq(Expr::int(spec.guard_val)),
                vec![(target, update)],
            )
        })
        .collect();
    System::new(
        vars,
        Init::new([(a, Value::Int(0)), (b, Value::Int(0))]),
        actions,
    )
}

/// Explores `sys`, asking for `threads` workers, under a fresh
/// [`CountingRecorder`], returning the graph's statistics and the
/// recorder's run-report totals.
fn counted_run(sys: &System, threads: usize) -> (GraphStats, (u64, u64, u64)) {
    let counter = Arc::new(CountingRecorder::new());
    let budget = Budget::default().with_recorder(RecorderHandle::new(counter.clone()));
    let opts = ExploreOptions {
        threads: Some(threads),
        ..ExploreOptions::default()
    };
    let run = explore_governed_with(sys, &budget, &opts).expect("explores");
    assert!(run.outcome.is_complete(), "tiny systems never exhaust");
    assert_eq!(counter.count("run_start"), 1);
    assert_eq!(counter.count("run_end"), 1);
    (
        run.graph.stats(),
        (counter.states(), counter.transitions(), counter.depth()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Recorder totals == sequential `GraphStats`, exactly.
    #[test]
    fn counting_recorder_totals_equal_sequential_stats(
        specs in proptest::collection::vec(arb_action_spec(), 1..4),
    ) {
        let sys = build_system(&specs);
        let (stats, totals) = counted_run(&sys, 1);
        prop_assert_eq!(
            totals,
            (
                stats.states as u64,
                stats.transitions as u64,
                stats.depth as u64
            )
        );
    }

    /// Recorder totals do not depend on the request: 1, 2, and 4
    /// requested workers report the same states, transitions, and
    /// depth.
    #[test]
    fn counting_recorder_totals_identical_across_thread_counts(
        specs in proptest::collection::vec(arb_action_spec(), 1..4),
    ) {
        let sys = build_system(&specs);
        let (stats1, totals1) = counted_run(&sys, 1);
        for threads in [2usize, 4] {
            let (stats_n, totals_n) = counted_run(&sys, threads);
            prop_assert_eq!(stats_n, stats1, "stats differ at {} threads", threads);
            prop_assert_eq!(totals_n, totals1, "totals differ at {} threads", threads);
        }
    }
}

/// Keeps the one `image_memo` event of a simulation, and its one
/// `image_pass` event `(states, mapped_vars, distinct_values,
/// undefined)` if it evaluated a mapping.
#[derive(Default)]
struct LastPass(
    std::sync::Mutex<Option<(u64, u64, u64, bool)>>,
    std::sync::Mutex<Option<(u64, u64, u64, u64)>>,
);

impl Recorder for LastPass {
    fn record(&self, event: &Event<'_>) {
        match event {
            Event::ImageMemo {
                classes,
                distinct_pairs,
                edges,
                skipped,
                ..
            } => {
                let previous =
                    self.0
                        .lock()
                        .unwrap()
                        .replace((*classes, *distinct_pairs, *edges, *skipped));
                assert!(previous.is_none(), "one pass per simulation");
            }
            Event::ImagePass {
                states,
                mapped_vars,
                distinct_values,
                undefined,
                ..
            } => {
                assert!(
                    self.0.lock().unwrap().is_none(),
                    "the mapping is evaluated before the classes are keyed"
                );
                let previous = self.1.lock().unwrap().replace((
                    *states,
                    *mapped_vars,
                    *distinct_values,
                    *undefined,
                ));
                assert!(
                    previous.is_none(),
                    "one evaluation of the mapping per simulation"
                );
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The `image_memo` counts are the check's own: a simulation that
    /// holds looked up every edge once, evaluated no more steps than
    /// it looked up, found no more classes than the footprint has
    /// values — and skipped the memo exactly when the footprint
    /// separates every state. Under a mapping it evaluated the mapping
    /// in one pass over the graph's states, and under none in none.
    #[test]
    fn image_memo_counts_match_the_check(
        specs in proptest::collection::vec(arb_action_spec(), 1..4),
        footprint_is_everything in 0..2u8,
        mapped in 0..2u8,
    ) {
        let sys = build_system(&specs);
        let (a, b) = (sys.vars().find("a").unwrap(), sys.vars().find("b").unwrap());
        let graph = explore_governed_with(&sys, &Budget::default(), &ExploreOptions::default())
            .expect("explores")
            .graph;
        // □[TRUE]_a looks at `a` only; □[TRUE]_⟨a,b⟩ at the whole state.
        let sub = if footprint_is_everything == 1 { vec![a, b] } else { vec![a] };
        let target = Formula::act_box(Expr::bool(true), sub.clone());
        // b ↦ 1 − a: a total state function with at most two values.
        let mapping = if mapped == 1 {
            Substitution::new([(b, Expr::int(1).sub(Expr::var(a)))])
        } else {
            Substitution::default()
        };
        let pass = Arc::new(LastPass::default());
        let run = check_simulation_governed(
            &sys,
            &graph,
            &target,
            &mapping,
            &Budget::default().with_recorder(RecorderHandle::new(pass.clone())),
        )
        .expect("simulates");
        prop_assert!(run.report.expect("unbudgeted").holds());
        let (classes, pairs, edges, skipped) =
            pass.0.lock().unwrap().expect("a simulation emits its pass");
        prop_assert_eq!(edges, graph.edge_count() as u64);
        prop_assert!(pairs <= edges);
        prop_assert!(classes <= 2u64.pow(sub.len() as u32));
        prop_assert_eq!(skipped, classes == graph.len() as u64);
        if skipped {
            prop_assert_eq!(pairs, edges);
        } else {
            prop_assert!(pairs <= classes * classes);
        }
        let image_pass = *pass.1.lock().unwrap();
        if mapped == 1 {
            let (states, mapped_vars, distinct, undefined) =
                image_pass.expect("a mapped simulation evaluates its mapping");
            prop_assert_eq!((states, mapped_vars, undefined), (graph.len() as u64, 1, 0));
            prop_assert!((1..=2).contains(&distinct));
        } else {
            prop_assert_eq!(image_pass, None);
        }
    }
}

/// The phase timers bracket correctly on a real (non-random) scenario:
/// an exploration spends time in init and expansion, none in engines
/// it never ran.
#[test]
fn phase_timers_cover_exploration_only() {
    let sys = build_system(&[ActionSpec {
        guard_var: 0,
        guard_val: 0,
        target_var: 1,
        update: UpdateKind::Toggle,
    }]);
    let counter = Arc::new(CountingRecorder::new());
    let budget = Budget::default().with_recorder(RecorderHandle::new(counter.clone()));
    let run = explore_governed_with(&sys, &budget, &ExploreOptions::default()).expect("explores");
    assert!(run.outcome.is_complete());
    assert!(counter.phase_nanos(Phase::ExploreExpand) > 0);
    assert_eq!(counter.phase_nanos(Phase::Liveness), 0);
    assert_eq!(counter.phase_nanos(Phase::Simulation), 0);
    assert_eq!(counter.phase_nanos(Phase::Compose), 0);
}

/// The `⊳` monitor's cases for its `image_memo` counts: a queue chain
/// whose environment keeps the assumption (every edge crossed), one
/// whose environment crashes (the assumption broken, the guarantee
/// kept), and one whose queue crashes within a few steps (refuted
/// before the memos start).
fn monitored() -> Vec<(opentla_check::System, Formula, Formula)> {
    use opentla_queue::{FairnessStyle, QueueChain};
    let (two, three) = (
        QueueChain::new(2, 1, 2, FairnessStyle::None),
        QueueChain::new(3, 1, 2, FairnessStyle::None),
    );
    let sides = |chain: &QueueChain| {
        (
            chain.outer_assumption(),
            chain.big_queue_guarantee().expect("a guarantee"),
        )
    };
    let ((e2, m2), (e3, m3)) = (sides(&two), sides(&three));
    vec![
        (
            two.complete_system().expect("closed"),
            e2.clone(),
            m2.clone(),
        ),
        (two.crashy_env_system().expect("closed"), e2, m2),
        (three.crashy_queue_system(1).expect("closed"), e3, m3),
    ]
}

/// Runs the monitor on every [`monitored`] case, in order. Run by
/// [`ag_monitor_memo_counts_match_the_run`] in a process of its own
/// whose process-wide recorder writes to a file; on its own, it only
/// checks the verdicts.
#[test]
fn ag_monitor_runs_its_cases_under_the_process_recorder() {
    let holds: Vec<bool> = (monitored().iter())
        .map(|(system, env, sys)| {
            let graph =
                opentla_check::explore(system, &ExploreOptions::default()).expect("explores");
            (opentla::check_ag_safety_diagnosed(system, &graph, env, sys))
                .expect("monitors")
                .holds()
        })
        .collect();
    assert_eq!(holds, [true, true, false]);
}

/// The `⊳` monitor reports one `image_memo` per side, `E` then `M`,
/// and its counts are the run's: `edges` is every edge the monitor
/// crossed (the whole graph when the assumption always holds; one more
/// for `M` than for `E` when `M` fails on an edge), `distinct_pairs`
/// the evaluations — all of them when it stopped before its memos
/// started (`skipped`), else fewer than the edges and at most the 255
/// edges before the memos plus one per pair of classes.
#[test]
fn ag_monitor_memo_counts_match_the_run() {
    use opentla_check::obs::Json;
    let path = std::env::temp_dir().join(format!("opentla-ag-memo-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let status = std::process::Command::new(std::env::current_exe().expect("the test binary"))
        .args([
            "ag_monitor_runs_its_cases_under_the_process_recorder",
            "--exact",
            "--test-threads=1",
            "-q",
        ])
        .env(opentla_check::obs::OBS_ENV, &path)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("the child runs");
    assert!(status.success(), "the child test passes");
    let stream = std::fs::read_to_string(&path).expect("the child wrote a stream");
    let _ = std::fs::remove_file(&path);
    let memos: Vec<Json> = (stream.lines())
        .map(|line| Json::parse(line).expect("a JSON line"))
        .filter(|event| event.get("ev").and_then(Json::as_str) == Some("image_memo"))
        .collect();
    let cases = monitored();
    assert_eq!(memos.len(), 2 * cases.len(), "one event per side and run");
    for ((system, _, _), sides) in cases.iter().zip(memos.chunks(2)) {
        let graph = opentla_check::explore(system, &ExploreOptions::default()).expect("explores");
        let field = |side: &Json, key: &str| side.get(key).and_then(Json::as_u64).expect(key);
        let (e, m) = (&sides[0], &sides[1]);
        assert_eq!(e.get("check").and_then(Json::as_str), Some("ag_monitor/E"));
        assert_eq!(m.get("check").and_then(Json::as_str), Some("ag_monitor/M"));
        let (e_edges, m_edges) = (field(e, "edges"), field(m, "edges"));
        assert!(
            m_edges == e_edges || m_edges == e_edges + 1,
            "{e_edges} {m_edges}"
        );
        assert!(m_edges <= graph.edge_count() as u64);
        for side in sides {
            let (classes, pairs, edges) = (
                field(side, "classes"),
                field(side, "distinct_pairs"),
                field(side, "edges"),
            );
            assert_eq!((field(side, "on_ids"), field(side, "nanos")), (0, 0));
            let skipped = side
                .get("skipped")
                .and_then(Json::as_bool)
                .expect("skipped");
            assert_eq!(skipped, m_edges < 256, "the memos start at the 256th edge");
            if skipped {
                assert_eq!((classes, pairs), (0, edges));
            } else {
                assert!((1..=graph.len() as u64).contains(&classes));
                assert!(pairs < edges && pairs <= 255 + classes * classes);
            }
        }
    }
    // The chain whose environment keeps the assumption crosses every
    // edge, for both sides; the crashing queue refutes within a few.
    let first = opentla_check::explore(&cases[0].0, &ExploreOptions::default()).expect("explores");
    let edges = |i: usize| memos[i].get("edges").and_then(Json::as_u64);
    assert_eq!(edges(0), Some(first.edge_count() as u64));
    assert_eq!(edges(1), Some(first.edge_count() as u64));
    assert!(edges(5) < Some(256));
}
