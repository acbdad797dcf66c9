//! Writes the chain4 observability run report — `OBS_chain4.jsonl`
//! at the repository root — by exploring the 4-queue chain under a
//! [`JsonlRecorder`] with three engines: sequential fingerprinted,
//! sequential exact, and 4-worker work-stealing. The stream is validated
//! against the schema and the three run reports must carry identical
//! state/transition totals (the PR 3 acceptance criterion); CI uploads
//! the file as a workflow artifact.
//!
//! Run with `cargo run --release -p opentla-bench --bin obs_chain_report`.

use opentla_check::{
    explore_governed_with, obs, Budget, ExploreOptions, JsonlRecorder, RecorderHandle,
    VisitedMode,
};
use opentla_queue::{FairnessStyle, QueueChain};
use std::sync::Arc;

fn main() {
    let system = QueueChain::new(4, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain4 builds");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../OBS_chain4.jsonl");
    let recorder = Arc::new(JsonlRecorder::create(path).expect("create OBS_chain4.jsonl"));
    let handle = RecorderHandle::new(recorder.clone());
    for (mode, threads) in [
        (VisitedMode::Fingerprint, 1),
        (VisitedMode::Exact, 1),
        (VisitedMode::Fingerprint, 4),
    ] {
        let budget = Budget::default().with_recorder(handle.clone());
        let opts = ExploreOptions {
            mode,
            threads: Some(threads),
            ..ExploreOptions::default()
        };
        let run = explore_governed_with(&system, &budget, &opts).expect("chain4 explores");
        assert!(run.outcome.is_complete());
    }
    recorder.flush();

    let text = std::fs::read_to_string(path).expect("read back OBS_chain4.jsonl");
    let summary = obs::validate_stream(&text)
        .unwrap_or_else(|e| panic!("OBS_chain4.jsonl fails schema validation: {e}"));
    assert_eq!(summary.runs.len(), 3, "one run report per engine");
    let totals: Vec<String> = summary
        .runs
        .iter()
        .map(|r| format!("{}/{}/{}", r.states, r.transitions, r.depth))
        .collect();
    assert!(
        totals.iter().all(|t| t == &totals[0]),
        "engines disagree on chain4: {totals:?}"
    );
    println!(
        "wrote {path}: {} events, {} runs, chain4 = {} states / {} transitions / depth {}",
        summary.events,
        summary.runs.len(),
        summary.runs[0].states,
        summary.runs[0].transitions,
        summary.runs[0].depth,
    );
    for run in &summary.runs {
        println!(
            "  {} ({} thread(s), {} mode): complete={}",
            run.engine, run.threads, run.mode, run.complete
        );
    }
}
