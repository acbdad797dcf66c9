//! Property-based tests for the packed state layout: pack/unpack
//! round-trips and packed-vs-tree fingerprint agreement over randomly
//! generated bounded systems — and the one way a run could meet a
//! state that does not pack, an initial state pinned outside its
//! domain, which is a typed error on every plan.

mod support {
    pub mod random_system;
}

use opentla_check::{
    explore_governed_with, Budget, CheckError, ExploreOptions, GuardedAction, Init, System,
    VisitedMode,
};
use opentla_kernel::{Domain, Expr, PackedLayout, State, Value, Vars};
use proptest::prelude::*;
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
            DomainSpec::Seqs { max_len } => Domain::seqs_up_to(&Domain::bits(), max_len),
        }
    }
}

fn arb_domain_spec() -> impl Strategy<Value = DomainSpec> {
    prop_oneof![
        (-4..4i64, 0..9i64).prop_map(|(lo, width)| DomainSpec::IntRange { lo, width }),
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
// explored graph must round-trip through the layout.
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
}

// ---------------------------------------------------------------------
// An initial state outside its domain
// ---------------------------------------------------------------------

/// Two bit variables, `x` toggling — and `y` pinned by `Init::new` to
/// 7, outside its declared domain.
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

/// An initial state pinned outside its domain is reported as a
/// successor leaving its domain is — `OutOfDomain`, naming `Init` —
/// by the enumeration itself and by every plan, with and without a
/// memory budget, in both visited modes.
#[test]
fn an_initial_state_outside_its_domain_is_a_typed_error() {
    let sys = system_with_an_out_of_domain_seed();
    let y = sys.vars().find("y").unwrap();
    let out_of_domain = |result: Result<_, CheckError>, label: &str| match result {
        Err(CheckError::OutOfDomain { action, var, value }) => {
            assert_eq!(
                (action.as_str(), var, value),
                ("Init", y, Value::Int(7)),
                "{label}"
            );
        }
        Err(other) => panic!("{label}: expected OutOfDomain, got {other}"),
        Ok(_) => panic!("{label}: explored from a state outside its domain"),
    };
    out_of_domain(sys.init().states(sys.universe()).map(drop), "enumeration");
    for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
        for mem_budget_bytes in [None, Some(1usize << 20)] {
            let label = format!("{mode:?}/{mem_budget_bytes:?}");
            let run = explore_governed_with(
                &sys,
                &Budget::unlimited(),
                &ExploreOptions {
                    mode,
                    mem_budget_bytes,
                    ..ExploreOptions::default()
                },
            );
            out_of_domain(run.map(drop), &label);
        }
    }
}
