//! Certificates under transition limits, pinned: the full text of
//! `Certificate::display` for two composition problems under limits
//! that cut their liveness obligations (hypothesis 2(b)) in each of the
//! check's phases, compared with what the checker printed when every
//! 2(b) condition built and charged the product's fairness tables
//! itself, requirement by requirement. Each problem runs at one
//! obligation lane and at two.
//!
//! A certificate builds the fairness tables once and shares them among
//! its 2(b) conditions, on whichever lane gets there first; each
//! condition is still charged for them, in bulk, after its target's
//! table. So a limit must cut the same conditions at the same place —
//! the same undecided obligations with the same frontier — at either
//! lane count and as when each condition built its own tables.
//!
//! The problems are `DoubleQueue(2,3)` under `Split` fairness (two 2(b)
//! conditions, four fairness requirements of the product, 78 648 edges)
//! and `QueueChain(3,1,2)` under `Joint` (one condition, three
//! requirements, 15 624 edges). Each limit covers the exploration and
//! the safety obligations, so only 2(b) is cut. The limits fall:
//!
//! - inside the tables' charge, between a condition's target table
//!   (one transition per edge) and the end of the tables (one more per
//!   requirement and edge);
//! - inside the SCC pass;
//! - inside the component search (and, for `Split`, one condition in
//!   the SCC pass and the other in the search, or one decided);
//! - nowhere: unlimited.
//!
//! The texts live in `tests/tests/pinned/`, one file per problem. On a
//! mismatch the test prints every problem that differs, as it reads
//! now.

use opentla::{Certificate, CompositionOptions};
use opentla_check::{Budget, ExploreOptions};
use opentla_queue::{DoubleQueue, FairnessStyle, QueueChain};

/// `DoubleQueue(2,3,Split)`: tables end at 393 240 charges in both
/// conditions, the SCC pass at 426 900 and 432 138, the search at
/// 483 564 and 535 098.
const SPLIT_LIMITS: &[usize] = &[
    78_648 + 1,
    250_001,
    410_000,
    430_000,
    450_000,
    500_000,
    usize::MAX,
];

/// `QueueChain(3,1,2,Joint)`: tables end at 62 496 charges, the SCC
/// pass at 74 048, the search at 92 600.
const CHAIN_LIMITS: &[usize] = &[15_624 + 1, 40_001, 62_495, 70_000, 85_000, usize::MAX];

fn options(lanes: usize, limit: usize) -> CompositionOptions {
    CompositionOptions {
        explore: ExploreOptions {
            threads: Some(lanes),
            ..ExploreOptions::default()
        },
        budget: Budget::default().transitions(limit),
    }
}

/// Each limit's certificate text at `lanes` lanes, one after the
/// other.
fn texts(
    limits: &[usize],
    lanes: usize,
    certify: impl Fn(&CompositionOptions) -> String,
) -> String {
    let mut out = String::new();
    for &limit in limits {
        let cert = certify(&options(lanes, limit));
        out.push_str(&format!("== transition limit {limit}\n{cert}\n"));
    }
    out
}

fn split(options: &CompositionOptions) -> String {
    let dq = DoubleQueue::new(2, 3, FairnessStyle::Split);
    let cert: Certificate = dq.prove_composition(options).unwrap();
    cert.display(dq.vars()).to_string()
}

fn chain(options: &CompositionOptions) -> String {
    let chain = QueueChain::new(3, 1, 2, FairnessStyle::Joint);
    let cert = chain.prove_composition(options).unwrap();
    cert.display(chain.vars()).to_string()
}

/// The pinned text of each problem.
const PINNED: &[(&str, &str)] = &[
    (
        "budgets_double_queue_2_3_split",
        include_str!("pinned/budgets_double_queue_2_3_split.txt"),
    ),
    (
        "budgets_queue_chain_3_1_2_joint",
        include_str!("pinned/budgets_queue_chain_3_1_2_joint.txt"),
    ),
];

fn assert_pinned(lanes: usize) {
    let got = [
        texts(SPLIT_LIMITS, lanes, split),
        texts(CHAIN_LIMITS, lanes, chain),
    ];
    let differ: Vec<String> = (got.iter().zip(PINNED))
        .filter(|(text, (_, pinned))| text != pinned)
        .map(|(text, (name, _))| format!("--- {name} at {lanes} lane(s) reads now:\n{text}"))
        .collect();
    assert!(
        differ.is_empty(),
        "{} of {} problems differ\n{}",
        differ.len(),
        got.len(),
        differ.join("\n")
    );
}

#[test]
fn budgeted_certificates_at_one_lane_are_pinned() {
    assert_pinned(1);
}

#[test]
fn budgeted_certificates_at_two_lanes_are_pinned() {
    assert_pinned(2);
}
