//! The image and class passes, keyed on slot codes, against the passes
//! over `Value` trees they replaced (`support/value_passes.rs`): on
//! random guarded-command systems (`support/random_system.rs`, both
//! families) under random refinement mappings, `Images::of_graph` gives
//! every state the image ids, distinct-value count and undefined count
//! the value pass gives, and `Classes::of_graph` the class ids, class
//! count and skip decision, over random footprints.
//!
//! A mapping sends some of the system's variables, and one variable no
//! state has (an abstract one), to expressions over the system's
//! variables and that one: sums, tuples, sequences, conditionals,
//! constants (no read slot at all), and partial ones — a division by a
//! variable that may be 0, the head of a sequence that may be empty,
//! and any read of the variable no state has. A footprint is a random
//! set of the same variables, so an unmapped one that no state has
//! leaves every state without a class. The test counts what it met, so
//! a generator that stopped reaching an outcome fails too.
//!
//! The same images and classes filled on demand (`Images::on_demand`,
//! `LazyClasses`), state by state in a random order, are those of the
//! passes: the same value and the same undefined states under every
//! mapped variable, and the same class partition and class count over
//! every footprint — also on a system whose image and class keys are
//! wider than a word, under a mapping undefined at most states.

mod support {
    pub mod random_system;
    pub mod value_passes;
}

use opentla_check::image::{Classes, Images, LazyClasses};
use opentla_check::{
    explore, ExploreOptions, GuardedAction, Init, RecorderHandle, StateGraph, System,
};
use opentla_kernel::{Domain, Expr, Substitution, Value, VarId, VarSet, Vars};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Mutex;
use support::random_system::{arb_action_spec, build_system, Family};
use support::value_passes::{value_classes, value_images, ValueImages};

const BITS: Family = Family { vars: 2, top: 1 };
const SMALL_INTS: Family = Family { vars: 3, top: 3 };

/// Shapes of a mapped variable's image.
const SHAPES: usize = 10;

/// One mapped variable: `target ↦` the expression of `shape` over the
/// variables `x` and `y` and the constant `k`. A variable index equal
/// to the system's variable count is the variable no state has.
#[derive(Clone, Debug)]
struct MapSpec {
    target: usize,
    shape: usize,
    x: usize,
    y: usize,
    k: i64,
}

fn arb_map_spec(family: Family) -> impl Strategy<Value = MapSpec> {
    let n = family.vars + 1;
    (0..n, 0..SHAPES, 0..n, 0..n, 0..family.top + 1).prop_map(|(target, shape, x, y, k)| MapSpec {
        target,
        shape,
        x,
        y,
        k,
    })
}

/// The image expression of `spec` over `ids` (the system's variables,
/// then the one no state has).
fn image(spec: &MapSpec, ids: &[VarId]) -> Expr {
    let (x, y, k) = (Expr::var(ids[spec.x]), Expr::var(ids[spec.y]), spec.k);
    match spec.shape {
        0 => x,
        1 => x.add(y),
        // Undefined where y = 0.
        2 => x.div(y),
        // Undefined where x = 0.
        3 => Expr::int(k + 1).div(x),
        // The head of a sequence that is empty where x = k.
        4 => x
            .eq(Expr::int(k))
            .ite(Expr::empty_seq(), Expr::MkSeq(vec![y]))
            .head(),
        5 => Expr::Tuple(vec![x, y]),
        6 => x.clone().lt(y.clone()).ite(x.mul(Expr::int(k)), y),
        // Reads no slot: one key.
        7 => Expr::int(k),
        // Many states to one value.
        8 => x.div(Expr::int(2)),
        // A queue-like concatenation.
        _ => Expr::MkSeq(vec![x]).concat(
            y.clone()
                .eq(Expr::int(0))
                .ite(Expr::empty_seq(), Expr::MkSeq(vec![y, Expr::int(k)])),
        ),
    }
}

/// Outcomes met across all cases, by name.
static SEEN: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

fn note(outcome: &'static str) {
    SEEN.lock().unwrap().insert(outcome);
}

/// `images` as the reference has them: every column, `None` for an
/// undefined image, and the two counts.
fn as_reference(images: &Images, mapping: &Substitution) -> ValueImages {
    let columns = mapping
        .domain()
        .map(|v| {
            let column = images.column(v).expect("a mapped variable has a column");
            (
                v,
                column
                    .iter()
                    .map(|&id| (id != u32::MAX).then_some(id))
                    .collect(),
            )
        })
        .collect();
    ValueImages {
        columns,
        distinct_values: images.distinct_values(),
        undefined: images.undefined(),
    }
}

/// Images of `graph` under `mapping`, and classes over each footprint,
/// against the value passes.
fn check(
    graph: &StateGraph,
    mapping: &Substitution,
    footprints: &[VarSet],
) -> Result<(), TestCaseError> {
    let images = Images::of_graph(graph, mapping, &RecorderHandle::default());
    let reference = value_images(graph.states(), mapping);
    prop_assert_eq!(&as_reference(&images, mapping), &reference);
    if reference.undefined > 0 {
        note("undefined image");
    }
    if reference.distinct_values > 2 {
        note("three or more images");
    }
    for footprint in footprints {
        let classes = Classes::of_graph(graph, footprint, &images);
        let expected = value_classes(graph.states(), footprint, &reference);
        let of: Vec<Option<u32>> = (0..graph.len()).map(|id| classes.get(id)).collect();
        prop_assert_eq!(&of, &expected.of, "classes over {:?}", footprint);
        prop_assert_eq!(classes.count(), expected.count);
        prop_assert_eq!(classes.skipped(), expected.skipped);
        let mapped = footprint.iter().any(|v| images.column(v).is_some());
        note(match (expected.skipped, expected.count) {
            (true, 0) => "no class anywhere",
            (true, _) => "skipped",
            (false, _) if mapped => "shared class over an image",
            (false, _) => "shared class over codes",
        });
        if !expected.skipped && expected.of.contains(&None) {
            note("a state without a class");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One case: a system of either family, a mapping, three footprints.
    fn image_codes_case(
        bits in any::<bool>(),
        bit_specs in proptest::collection::vec(arb_action_spec(BITS), 1..5),
        int_specs in proptest::collection::vec(arb_action_spec(SMALL_INTS), 1..5),
        bit_map in proptest::collection::vec(arb_map_spec(BITS), 0..4),
        int_map in proptest::collection::vec(arb_map_spec(SMALL_INTS), 0..4),
        masks in proptest::collection::vec(0u32..16, 3..4),
    ) {
        let (family, specs, map) = if bits {
            (BITS, &bit_specs, &bit_map)
        } else {
            (SMALL_INTS, &int_specs, &int_map)
        };
        let system: System = build_system(family, specs);
        let mut ids: Vec<VarId> = system.vars().iter().collect();
        ids.push(system.vars().clone().declare("abstract", Domain::bits()));
        let mapping = Substitution::new(map.iter().map(|spec| (ids[spec.target], image(spec, &ids))));
        let footprints: Vec<VarSet> = masks
            .iter()
            .map(|mask| {
                (0..ids.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| ids[i])
                    .collect()
            })
            .collect();
        let graph = explore(&system, &ExploreOptions::default()).expect("the systems explore");
        check(&graph, &mapping, &footprints)?;
    }
}

#[test]
fn code_keyed_passes_number_as_the_value_passes_do() {
    image_codes_case();
    let seen = SEEN.lock().unwrap();
    let missing: Vec<&str> = [
        "undefined image",
        "three or more images",
        "no class anywhere",
        "skipped",
        "shared class over an image",
        "shared class over codes",
        "a state without a class",
    ]
    .into_iter()
    .filter(|o| !seen.contains(*o))
    .collect();
    assert!(missing.is_empty(), "never met {missing:?} (met {seen:?})");
}

/// The states of `graph` in an order drawn from `seed`.
fn shuffled(graph: &StateGraph, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..graph.len()).collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        order.swap(i, (z % (i as u64 + 1)) as usize);
    }
    order
}

/// `v`'s value under `images` at every state of `graph`, `None` where
/// it is undefined; and whether some entry is neither.
fn values_of(images: &Images, v: VarId, graph: &StateGraph) -> (Vec<Option<Value>>, bool) {
    let column = images.column(v).expect("a mapped variable has a column");
    let values = (0..graph.len())
        .map(|id| images.value(column[id]).cloned())
        .collect();
    let unfilled = (column.len() != graph.len()) || column.contains(&(u32::MAX - 1));
    (values, unfilled)
}

/// `of` renumbered in state order: two numberings of one partition
/// agree after it.
fn in_state_order(of: &[Option<u32>]) -> Vec<Option<u32>> {
    let mut first = std::collections::HashMap::new();
    (of.iter())
        .map(|class| {
            class.map(|c| {
                let next = first.len() as u32;
                *first.entry(c).or_insert(next)
            })
        })
        .collect()
}

/// Images of `graph` under `mapping` and classes over each footprint,
/// filled on demand in the order `seed` draws, against the passes.
fn check_on_demand(
    graph: &StateGraph,
    mapping: &Substitution,
    footprints: &[VarSet],
    seed: u64,
) -> Result<(), TestCaseError> {
    let eager = Images::of_graph(graph, mapping, &RecorderHandle::default());
    let mut lazy = Images::on_demand(graph, mapping);
    let mut classes: Vec<LazyClasses> = (footprints.iter())
        .map(|footprint| LazyClasses::new(graph, footprint, &lazy))
        .collect();
    let mut of = vec![vec![None; graph.len()]; footprints.len()];
    for id in shuffled(graph, seed) {
        lazy.fill(graph, id);
        for (classes, of) in classes.iter_mut().zip(&mut of) {
            of[id] = classes.get(graph, &lazy, id);
        }
    }
    for v in mapping.domain() {
        let (values, unfilled) = values_of(&lazy, v, graph);
        prop_assert!(!unfilled, "every state filled under {:?}", v);
        prop_assert_eq!(&values, &values_of(&eager, v, graph).0, "values of {:?}", v);
    }
    prop_assert_eq!(lazy.undefined(), eager.undefined());
    prop_assert_eq!(lazy.distinct_values(), eager.distinct_values());
    for ((footprint, classes), of) in footprints.iter().zip(&classes).zip(&of) {
        let passed = Classes::of_graph(graph, footprint, &eager);
        prop_assert_eq!(classes.count(), passed.count(), "over {:?}", footprint);
        let renumbered = in_state_order(of);
        if passed.skipped() {
            let classed = of.iter().flatten().count();
            prop_assert_eq!(classed, passed.count(), "over {:?}", footprint);
        } else {
            let expected: Vec<Option<u32>> = (0..graph.len()).map(|id| passed.get(id)).collect();
            prop_assert_eq!(&renumbered, &expected, "over {:?}", footprint);
            note("a shared class filled on demand");
        }
    }
    Ok(())
}

/// A system whose keys are wider than a word: 66 bit variables filled
/// one after the other beside a free toggle `t`, 134 states; `m ↦ Σ bᵢ`
/// has a 66-bit image key and `t ↦ 1 ÷ b65` is undefined below the last
/// level. Its footprints give class keys of 66 codes, of 66 codes and
/// an image id, and of image ids alone.
fn wide() -> (StateGraph, Substitution, Vec<VarSet>) {
    let mut vars = Vars::new();
    let bits: Vec<VarId> = (0..66)
        .map(|i| vars.declare(format!("b{i}"), Domain::bits()))
        .collect();
    let t = vars.declare("t", Domain::bits());
    let m = vars.declare("m", Domain::new(vec![Value::Int(0)]));
    let mut actions: Vec<GuardedAction> = (0..bits.len())
        .map(|i| {
            let mut guard = Expr::var(bits[i]).eq(Expr::int(0));
            if i > 0 {
                guard = guard.and(Expr::var(bits[i - 1]).eq(Expr::int(1)));
            }
            GuardedAction::new(format!("fill{i}"), guard, vec![(bits[i], Expr::int(1))])
        })
        .collect();
    actions.push(GuardedAction::new(
        "toggle",
        Expr::bool(true),
        vec![(t, Expr::int(1).sub(Expr::var(t)))],
    ));
    let init = (bits.iter().chain([&t, &m])).map(|&v| (v, Value::Int(0)));
    let system = System::new(vars, Init::new(init), actions);
    let graph = explore(&system, &ExploreOptions::default()).expect("the system explores");
    let sum = bits.iter().fold(Expr::int(0), |e, &b| e.add(Expr::var(b)));
    let last = *bits.last().expect("66 bits");
    let mapping = Substitution::new([(m, sum), (t, Expr::int(1).div(Expr::var(last)))]);
    let footprints = [
        bits.clone(),
        bits.iter().copied().chain([m]).collect(),
        bits.iter().copied().chain([t]).collect(),
        vec![m, t],
    ];
    let footprints = footprints
        .into_iter()
        .map(|f| f.into_iter().collect())
        .collect();
    (graph, mapping, footprints)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One case: the wide system, or a system of either family with a
    /// mapping and three footprints; then an order to fill them in.
    fn on_demand_case(
        family in 0u32..3,
        bit_specs in proptest::collection::vec(arb_action_spec(BITS), 1..5),
        int_specs in proptest::collection::vec(arb_action_spec(SMALL_INTS), 1..5),
        bit_map in proptest::collection::vec(arb_map_spec(BITS), 0..4),
        int_map in proptest::collection::vec(arb_map_spec(SMALL_INTS), 0..4),
        masks in proptest::collection::vec(0u32..16, 3..4),
        seed in any::<u64>(),
    ) {
        if family == 0 {
            let (graph, mapping, footprints) = wide();
            note("keys wider than a word");
            check_on_demand(&graph, &mapping, &footprints, seed)?;
        } else {
            let (family, specs, map) = if family == 1 {
                (BITS, &bit_specs, &bit_map)
            } else {
                (SMALL_INTS, &int_specs, &int_map)
            };
            let system: System = build_system(family, specs);
            let mut ids: Vec<VarId> = system.vars().iter().collect();
            ids.push(system.vars().clone().declare("abstract", Domain::bits()));
            let mapping = Substitution::new(map.iter().map(|spec| (ids[spec.target], image(spec, &ids))));
            let footprints: Vec<VarSet> = masks
                .iter()
                .map(|mask| {
                    (0..ids.len())
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| ids[i])
                        .collect()
                })
                .collect();
            let graph = explore(&system, &ExploreOptions::default()).expect("the systems explore");
            check_on_demand(&graph, &mapping, &footprints, seed)?;
        }
    }
}

#[test]
fn on_demand_passes_number_as_the_eager_passes_do() {
    on_demand_case();
    let seen = SEEN.lock().unwrap();
    let missing: Vec<&str> = ["keys wider than a word", "a shared class filled on demand"]
        .into_iter()
        .filter(|o| !seen.contains(*o))
        .collect();
    assert!(missing.is_empty(), "never met {missing:?} (met {seen:?})");
}
