//! Wall time of `Phase::Liveness` inside one full certificate — the
//! measurement behind README "Liveness at scale". Exploration is
//! pinned to one thread, so at a commit whose liveness check reads
//! `OPENTLA_EXPLORE_THREADS` (02d6925 and before) the variable selects
//! the liveness workers and nothing else; here it selects nothing.
//!
//! Run with `cargo run --release -p opentla-bench --example
//! liveness_phase -- chain5` (or `fig9`), one process per sample.

use opentla::CompositionOptions;
use opentla_check::obs::{CountingRecorder, Phase};
use opentla_check::{Budget, ExploreOptions, RecorderHandle};
use opentla_queue::{DoubleQueue, FairnessStyle, QueueChain};
use std::sync::Arc;

fn main() {
    let instance = std::env::args().nth(1).unwrap_or_else(|| "chain5".into());
    let counting = Arc::new(CountingRecorder::new());
    let options = CompositionOptions {
        explore: ExploreOptions {
            threads: Some(1),
            ..ExploreOptions::default()
        },
        budget: Budget::unlimited().with_recorder(RecorderHandle::new(counting.clone())),
        ..CompositionOptions::default()
    };
    let certificate = match instance.as_str() {
        "chain5" => QueueChain::new(5, 1, 2, FairnessStyle::Joint).prove_composition(&options),
        "fig9" => DoubleQueue::new(3, 3, FairnessStyle::Joint).prove_composition(&options),
        other => panic!("unknown instance {other:?}: chain5 or fig9"),
    }
    .expect("the instance is structurally valid");
    assert!(certificate.holds(), "{instance}: the certificate must hold");
    println!(
        "{instance} liveness_s {:.3}",
        counting.phase_nanos(Phase::Liveness) as f64 / 1e9
    );
}
