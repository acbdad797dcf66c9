//! Certificates, pinned: the full text of `Certificate::display` for
//! five composition problems, compared with what the checker printed
//! before obligation checks decided their memo misses on ids. Each
//! problem is proved at one obligation lane and at two.
//!
//! The problems are Figure 9's `DoubleQueue(2,3)` under `Joint` and
//! `Split` fairness, `QueueChain(3,1,2,Joint)`, and `DoubleQueue(2,3)`
//! against two targets of the wrong capacity: `QM[2N]`, which the pair
//! overflows (H2a fails with a trace), and `QM[2N+2]`, which is never
//! full when the pair is (H2b fails with a lasso).
//!
//! The texts live in `tests/tests/pinned/`, one file per problem. On a
//! mismatch the test prints every problem that differs, as it reads
//! now.

use opentla::{
    compose, AgSpec, Certificate, ComponentSpec, CompositionOptions, CompositionProblem,
};
use opentla_check::ExploreOptions;
use opentla_kernel::{Domain, Substitution, Vars};
use opentla_queue::{queue_component, DoubleQueue, FairnessStyle, QueueChain};

fn ag(env: &ComponentSpec, sys: &ComponentSpec) -> AgSpec {
    AgSpec::new(env.clone(), sys.clone()).expect("assumption and guarantee fit together")
}

fn options(lanes: usize) -> CompositionOptions {
    CompositionOptions {
        explore: ExploreOptions {
            threads: Some(lanes),
            ..ExploreOptions::default()
        },
        ..CompositionOptions::default()
    }
}

/// `DoubleQueue(2,3)` against a target queue of `capacity` elements,
/// built as the benchmark's lying targets are.
fn lying(capacity: usize, lanes: usize) -> String {
    let dq = DoubleQueue::new(2, 3, FairnessStyle::Joint);
    let mut vars: Vars = dq.vars().clone();
    let q = vars.declare("q_lie", Domain::seqs_up_to(dq.values(), capacity));
    let lie = queue_component(
        format!("QM[{capacity}]"),
        dq.i(),
        dq.o(),
        q,
        capacity,
        FairnessStyle::Joint,
    )
    .expect("the lying queue is well-formed");
    let q_bar = (dq.refinement_mapping().get(dq.q_dbl()))
        .expect("the mapping defines q̄")
        .clone();
    let (ag1, ag2, target) = (
        ag(dq.env1(), dq.queue1()),
        ag(dq.env2(), dq.queue2()),
        ag(dq.env(), &lie),
    );
    let problem = CompositionProblem {
        vars: &vars,
        components: vec![&ag1, &ag2],
        target: &target,
        mapping: Substitution::new([(q, q_bar)]),
    };
    let cert = compose(&problem, &options(lanes)).expect("the problem is well-formed");
    cert.display(&vars).to_string()
}

fn double(style: FairnessStyle, lanes: usize) -> String {
    let dq = DoubleQueue::new(2, 3, style);
    let cert: Certificate = dq.prove_composition(&options(lanes)).unwrap();
    cert.display(dq.vars()).to_string()
}

fn chain(lanes: usize) -> String {
    let chain = QueueChain::new(3, 1, 2, FairnessStyle::Joint);
    let cert = chain.prove_composition(&options(lanes)).unwrap();
    cert.display(chain.vars()).to_string()
}

/// Each problem's certificate text at `lanes` obligation lanes.
fn certificates(lanes: usize) -> Vec<(&'static str, String)> {
    vec![
        (
            "double_queue_2_3_joint",
            double(FairnessStyle::Joint, lanes),
        ),
        (
            "double_queue_2_3_split",
            double(FairnessStyle::Split, lanes),
        ),
        ("queue_chain_3_1_2_joint", chain(lanes)),
        ("double_queue_2_3_qm_2n", lying(4, lanes)),
        ("double_queue_2_3_qm_2n_plus_2", lying(6, lanes)),
    ]
}

/// The pinned text of each problem.
const PINNED: &[(&str, &str)] = &[
    (
        "double_queue_2_3_joint",
        include_str!("pinned/double_queue_2_3_joint.txt"),
    ),
    (
        "double_queue_2_3_split",
        include_str!("pinned/double_queue_2_3_split.txt"),
    ),
    (
        "queue_chain_3_1_2_joint",
        include_str!("pinned/queue_chain_3_1_2_joint.txt"),
    ),
    (
        "double_queue_2_3_qm_2n",
        include_str!("pinned/double_queue_2_3_qm_2n.txt"),
    ),
    (
        "double_queue_2_3_qm_2n_plus_2",
        include_str!("pinned/double_queue_2_3_qm_2n_plus_2.txt"),
    ),
];

fn assert_pinned(lanes: usize) {
    let got = certificates(lanes);
    assert_eq!(got.len(), PINNED.len(), "one pinned text per problem");
    let differ: Vec<String> = (got.iter().zip(PINNED))
        .filter(|((_, text), (_, pinned))| text != pinned)
        .map(|((name, text), _)| format!("--- {name} at {lanes} lane(s) reads now:\n{text}"))
        .collect();
    assert!(
        differ.is_empty(),
        "{} of {} certificates differ\n{}",
        differ.len(),
        got.len(),
        differ.join("\n")
    );
}

#[test]
fn certificates_at_one_lane_are_pinned() {
    assert_pinned(1);
}

#[test]
fn certificates_at_two_lanes_are_pinned() {
    assert_pinned(2);
}
