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

mod support {
    pub mod random_system;
    pub mod value_passes;
}

use opentla_check::image::{Classes, Images};
use opentla_check::{explore, ExploreOptions, RecorderHandle, StateGraph, System};
use opentla_kernel::{Domain, Expr, Substitution, VarId, VarSet};
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
