//! Property-based tests for the packed state layout: pack/unpack
//! round-trips, packed-vs-tree fingerprint agreement, and
//! work-stealing/sequential graph identity over randomly generated
//! bounded systems — and the one fixture whose states do *not* pack,
//! which a threaded plan must run on the sequential loop and say so.

mod support {
    pub mod random_system;
}

use opentla_check::{
    explore_governed_with, resume_exploration, Budget, Engine, Event, ExploreOptions,
    GuardedAction, Init, Recorder, RecorderHandle, System, VisitedMode,
};
use opentla_kernel::{Domain, Expr, PackedLayout, State, Value, Vars};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use support::random_system::{arb_action_spec, build_system, Family};

const SMALL_INTS: Family = Family { vars: 3, top: 3 };

// ---------------------------------------------------------------------
// Random domains and states (no exploration): the layout must encode
// any well-domained value vector, through both the integer-range and
// the table codec.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum DomainSpec {
    /// `lo..=lo+width` — exercises the `IntRange` codec (and, at
    /// width 0, the zero-bit singleton slot).
    IntRange { lo: i64, width: i64 },
    /// `{FALSE, TRUE}` — a table codec over non-integer values.
    Booleans,
    /// Bounded sequences over `{0, 1}` — a table codec over structured
    /// values with a non-power-of-two cardinality.
    Seqs { max_len: usize },
}

impl DomainSpec {
    fn domain(&self) -> Domain {
        match *self {
            DomainSpec::IntRange { lo, width } => Domain::int_range(lo, lo + width),
            DomainSpec::Booleans => Domain::booleans(),
            DomainSpec::Seqs { max_len } => {
                Domain::seqs_up_to(&Domain::bits(), max_len)
            }
        }
    }
}

fn arb_domain_spec() -> impl Strategy<Value = DomainSpec> {
    prop_oneof![
        (-4..4i64, 0..9i64)
            .prop_map(|(lo, width)| DomainSpec::IntRange { lo, width }),
        Just(DomainSpec::Booleans),
        (1..3usize).prop_map(|max_len| DomainSpec::Seqs { max_len }),
    ]
}

/// A random vector of domains plus, for each, a picker in `0..1000`
/// reduced mod the domain size to select a value.
fn arb_state_shape() -> impl Strategy<Value = (Vec<DomainSpec>, Vec<usize>)> {
    proptest::collection::vec((arb_domain_spec(), 0..1000usize), 1..5)
        .prop_map(|pairs| pairs.into_iter().unzip())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packing any in-domain value vector and unpacking it restores
    /// the vector exactly, and the fingerprint computed over the
    /// packed bytes equals the tree state's fingerprint bit for bit.
    #[test]
    fn pack_unpack_roundtrip((specs, picks) in arb_state_shape()) {
        let mut vars = Vars::new();
        for (i, spec) in specs.iter().enumerate() {
            vars.declare(format!("v{i}"), spec.domain());
        }
        let layout = PackedLayout::compile(&vars).expect("small domains pack");
        let values: Vec<Value> = specs
            .iter()
            .zip(&picks)
            .map(|(spec, pick)| {
                let d = spec.domain();
                d.values()[pick % d.values().len()].clone()
            })
            .collect();
        let state = State::new(values.clone());

        let mut buf = Vec::new();
        prop_assert!(layout.pack_into(&values, &mut buf));
        prop_assert_eq!(buf.len(), layout.stride());
        prop_assert_eq!(layout.unpack(&buf), state.clone());
        prop_assert_eq!(layout.fingerprint(&buf), state.fingerprint());

        // Slot-level codec agreement: each stored code decodes to the
        // packed value.
        for (slot, value) in values.iter().enumerate() {
            let code = layout.read_code(&buf, slot);
            prop_assert_eq!(layout.value_of(slot, code), value);
            prop_assert_eq!(layout.code_of(slot, value), Some(code));
        }
    }
}

// ---------------------------------------------------------------------
// Random guarded-command systems: every reachable state of the
// explored graph must round-trip through the layout, and the
// work-stealing engine must reproduce the sequential graph exactly.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every reachable state of a random bounded system packs,
    /// round-trips, and fingerprints identically to the tree path.
    #[test]
    fn reachable_states_roundtrip(
        specs in proptest::collection::vec(arb_action_spec(SMALL_INTS), 1..5),
    ) {
        let sys = build_system(SMALL_INTS, &specs);
        let graph = opentla_check::explore(&sys, &ExploreOptions::default()).unwrap();
        let layout = PackedLayout::compile(sys.vars()).expect("bounded ints pack");
        let mut buf = Vec::new();
        for state in graph.states() {
            buf.clear();
            prop_assert!(layout.pack_into(state.values(), &mut buf));
            prop_assert_eq!(&layout.unpack(&buf), state);
            prop_assert_eq!(layout.fingerprint(&buf), state.fingerprint());
        }
    }

    /// The work-stealing engine produces byte-identical graphs to the
    /// sequential engine on random systems, at every worker count and
    /// in both visited-set modes.
    #[test]
    fn ws_matches_sequential_random(
        specs in proptest::collection::vec(arb_action_spec(SMALL_INTS), 1..5),
    ) {
        let sys = build_system(SMALL_INTS, &specs);
        let budget = Budget::unlimited();
        let seq = explore_governed_with(
            &sys,
            &budget,
            &ExploreOptions { threads: Some(1), ..ExploreOptions::default() },
        )
        .unwrap();
        for workers in [1usize, 2, 4] {
            for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
                let ws = explore_governed_with(
                    &sys,
                    &budget,
                    &ExploreOptions {
                        threads: Some(workers),
                        engine: Engine::WorkStealing,
                        mode,
                        ..ExploreOptions::default()
                    },
                )
                .unwrap();
                prop_assert!(ws.outcome.is_complete());
                prop_assert_eq!(seq.graph.first_difference(&ws.graph), None);
            }
        }
    }
}

// ---------------------------------------------------------------------
// States that do not pack
// ---------------------------------------------------------------------

/// Two bit variables, `x` toggling — and `y` pinned by `Init::new` to
/// 7, outside its declared domain. The layout compiles; the one seed
/// state does not pack.
fn system_with_an_out_of_domain_seed() -> System {
    let mut vars = Vars::new();
    let x = vars.declare("x", Domain::bits());
    let y = vars.declare("y", Domain::bits());
    let toggle = GuardedAction::new(
        "toggle",
        Expr::bool(true),
        vec![(x, Expr::int(1).sub(Expr::var(x)))],
    );
    System::new(
        vars,
        Init::new([(x, Value::Int(0)), (y, Value::Int(7))]),
        vec![toggle],
    )
}

/// `(engine, threads)` of every `run_start` and of every `run_end`
/// report.
#[derive(Default)]
struct Runs {
    started: Mutex<Vec<(String, usize)>>,
    reported: Mutex<Vec<(String, usize)>>,
}

impl Recorder for Runs {
    fn record(&self, event: &Event<'_>) {
        match event {
            Event::RunStart {
                engine, threads, ..
            } => self.started.lock().unwrap().push((engine.to_string(), *threads)),
            Event::RunEnd { report } => self
                .reported
                .lock()
                .unwrap()
                .push((report.engine.clone(), report.threads)),
            _ => {}
        }
    }
}

/// The work-stealing loops run over packed states only. A system that
/// starts from a state its layout cannot pack runs the sequential loop
/// of the same store family at any requested thread count — in RAM, or
/// over the spill store under a memory budget — builds the graph one
/// thread builds, and its `run_start` and report name that loop and
/// its one worker, not the plan that was asked for.
#[test]
fn unpackable_states_run_the_sequential_loop_and_say_so() {
    let sys = system_with_an_out_of_domain_seed();
    let layout = PackedLayout::compile(sys.vars()).expect("two bit slots compile");
    let seed = sys.init().states(sys.universe()).unwrap();
    assert_eq!(seed.len(), 1);
    assert!(layout.pack(&seed[0]).is_none(), "y = 7 is outside 0..=1");

    for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
        let reference = explore_governed_with(
            &sys,
            &Budget::unlimited(),
            &ExploreOptions {
                threads: Some(1),
                mode,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(reference.graph.len(), 2);
        for threads in [2usize, 4] {
            for (mem_budget_bytes, loop_name) in [
                (None, "explore_sequential"),
                (Some(1usize << 20), "explore_spill"),
            ] {
                for engine in [Engine::Auto, Engine::WorkStealing] {
                    let label = format!("{mode:?}/threads={threads}/{mem_budget_bytes:?}/{engine:?}");
                    let runs = Arc::new(Runs::default());
                    let run = explore_governed_with(
                        &sys,
                        &Budget::unlimited().with_recorder(RecorderHandle::new(runs.clone())),
                        &ExploreOptions {
                            threads: Some(threads),
                            mode,
                            engine,
                            mem_budget_bytes,
                            ..ExploreOptions::default()
                        },
                    )
                    .unwrap();
                    assert!(run.outcome.is_complete(), "{label}");
                    assert_eq!(reference.graph.first_difference(&run.graph), None, "{label}");
                    let ran = [(loop_name.to_string(), 1)];
                    assert_eq!(*runs.started.lock().unwrap(), ran, "{label}: run_start");
                    assert_eq!(*runs.reported.lock().unwrap(), ran, "{label}: report");
                }
            }
        }
        // A resumed run starts from its snapshot's arena, which holds
        // the same unpackable state.
        let options = ExploreOptions {
            threads: Some(2),
            mode,
            ..ExploreOptions::default()
        };
        let cut = explore_governed_with(&sys, &Budget::default().states(1), &options).unwrap();
        let snapshot = cut.snapshot.as_deref().expect("a resumable cut");
        let runs = Arc::new(Runs::default());
        let resumed = resume_exploration(
            &sys,
            &Budget::unlimited().with_recorder(RecorderHandle::new(runs.clone())),
            &options,
            snapshot,
        )
        .unwrap();
        assert_eq!(
            reference.graph.first_difference(&resumed.graph),
            None,
            "{mode:?}/resumed"
        );
        assert_eq!(
            *runs.started.lock().unwrap(),
            [("explore_sequential".to_string(), 1)],
            "{mode:?}/resumed"
        );
    }
}
