//! Kill-and-resume smoke check — the CI step proving crash tolerance
//! end to end on the acceptance scenario:
//!
//! 1. explore chain4 under a tight state budget with checkpointing on
//!    → the run must exhaust, leaving a resume token and a snapshot
//!    file (`CKPT_chain4.snap` at the repository root);
//! 2. resume from that snapshot with the budget lifted → the run must
//!    complete and land exactly on the golden pre-reduction totals
//!    (54 358 states / 164 736 transitions / depth 55);
//! 3. the resumed graph must be byte-identical to an uninterrupted
//!    run's — states, initial states, edges, everything;
//! 4. the same round trip at 4 threads (default options: the
//!    work-stealing scheduler, whose periodic mid-run snapshots the
//!    8 192-claim cadence exercises), with the bounded-memory spill
//!    engine under a 256 KiB budget, and with the *parallel*
//!    bounded-memory engine (4 work-stealing workers over the spill
//!    tiers, resumed at 2 workers) — each spill kill lands after at
//!    least one sealed arena segment, so its resume genuinely
//!    re-reads segment files (the snapshot pins neither the thread
//!    count nor the engine — any engine can resume any engine's
//!    snapshot, at any worker count);
//! 5. the same kill-and-resume on a *liveness lasso run*: a fair-cycle
//!    check of `◇FALSE` on the chain4 graph is interrupted by a
//!    transition budget (leaving `CKPT_chain4_live.snap`), resumed,
//!    and must reproduce the uninterrupted verdict and lasso
//!    byte-for-byte;
//! 6. all eight exploration runs plus the liveness events stream into
//!    `OBS_resume.jsonl` through a [`JsonlRecorder`], and the stream
//!    must validate against the observability schema.
//!
//! The snapshot files and the JSONL stream are left on disk for CI to
//! upload as artifacts.

use opentla_check::{
    check_liveness, check_liveness_resumable, explore_governed_with, explore_resumable,
    obs, Budget, Engine, ExploreOptions, JsonlRecorder, LiveTarget, RecorderHandle, StateGraph,
    Verdict,
};
use opentla_kernel::Expr;
use opentla_queue::{FairnessStyle, QueueChain};
use std::sync::Arc;

const GOLDEN: (usize, usize, usize) = (54_358, 164_736, 55);

/// Byte-for-byte graph equality: statistics, state arena order,
/// initial states, and edges.
fn assert_identical(label: &str, a: &StateGraph, b: &StateGraph) {
    assert_eq!(a.stats(), b.stats(), "{label}: stats differ");
    assert_eq!(a.states(), b.states(), "{label}: state order differs");
    assert_eq!(a.init(), b.init(), "{label}: initial states differ");
    for id in 0..a.len() {
        assert_eq!(a.edges(id), b.edges(id), "{label}: edges of {id} differ");
    }
}

fn main() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let obs_path = format!("{root}/OBS_resume.jsonl");
    let recorder =
        Arc::new(JsonlRecorder::create(&obs_path).expect("create OBS_resume.jsonl"));
    let handle = RecorderHandle::new(recorder.clone());

    let system = QueueChain::new(4, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain4 builds");
    let reference = {
        let run = explore_governed_with(
            &system,
            &Budget::unlimited(),
            &ExploreOptions::default(),
        )
        .expect("reference run explores");
        assert!(run.outcome.is_complete());
        run.graph
    };

    for (label, threads, resume_threads, engine, mem, snap_name) in [
        ("sequential", 1usize, 1usize, Engine::Auto, None, "CKPT_chain4.snap"),
        ("work-stealing(4)", 4, 4, Engine::Auto, None, "CKPT_chain4_ws.snap"),
        (
            "spill(256KiB)",
            1,
            1,
            Engine::SpillBfs,
            Some(256usize << 10),
            "CKPT_chain4_spill.snap",
        ),
        // The parallel bounded-memory engine is killed at 4 workers
        // and resumed at 2 — the snapshot's canonical graph encodes
        // no worker count, so the resume must land on the same golden
        // totals regardless.
        (
            "par-spill(4→2, 256KiB)",
            4,
            2,
            Engine::SpillWs,
            Some(256usize << 10),
            "CKPT_chain4_parspill.snap",
        ),
    ] {
        let snap_path = format!("{root}/{snap_name}");
        let _ = std::fs::remove_file(&snap_path);
        let _ = std::fs::remove_dir_all(format!("{snap_path}.segs"));
        let opts = ExploreOptions {
            threads: Some(threads),
            engine,
            mem_budget_bytes: mem,
            ..ExploreOptions::default()
        };

        // The "kill": a budget far below the state space, with
        // periodic checkpointing tight enough to fire mid-run.
        let tight = Budget::default()
            .states(20_000)
            .with_checkpoint(&snap_path, 8_192)
            .with_recorder(handle.clone());
        let interrupted =
            explore_resumable(&system, &tight, &opts).expect("tight run explores");
        let token = interrupted
            .outcome
            .resume_token()
            .expect("tight budget must exhaust with a resume token")
            .clone();
        assert!(
            std::path::Path::new(&snap_path).exists(),
            "{label}: snapshot file must be written"
        );
        println!(
            "{label}: exhausted at {} states — snapshot {snap_name} (seq {})",
            interrupted.graph.len(),
            token.seq
        );
        if mem.is_some() {
            // The spill "kill" must land after the first sealed
            // segment, so the resume genuinely reads segment files.
            let sealed = std::fs::read_dir(format!("{snap_path}.segs"))
                .expect("spill leg leaves a segment dir next to its snapshot")
                .filter_map(|e| e.ok())
                .filter(|e| {
                    let n = e.file_name();
                    let n = n.to_string_lossy().into_owned();
                    n.starts_with("arena-") && n.ends_with(".seg")
                })
                .count();
            assert!(
                sealed >= 1,
                "{label}: interrupt must land after the first sealed segment"
            );
            println!("{label}: {sealed} sealed arena segment(s) at the kill point");
        }

        // The recovery: same call, budget lifted — and, on the
        // par-spill leg, a different worker count than the kill ran.
        let resume_opts = ExploreOptions {
            threads: Some(resume_threads),
            ..opts.clone()
        };
        let resumed = explore_resumable(
            &system,
            &Budget::unlimited()
                .with_checkpoint(&snap_path, 8_192)
                .with_recorder(handle.clone()),
            &resume_opts,
        )
        .expect("resumed run explores");
        assert!(resumed.outcome.is_complete(), "{label}: resumed run must complete");
        let stats = resumed.graph.stats();
        assert_eq!(
            (stats.states, stats.transitions, stats.depth),
            GOLDEN,
            "{label}: golden chain4 totals regressed across the resume"
        );
        assert_identical(label, &reference, &resumed.graph);
        println!(
            "{label}: resumed to completion — {} states / {} transitions / depth {}",
            stats.states, stats.transitions, stats.depth
        );
    }

    // The liveness leg: interrupt a fair-cycle lasso search mid-check,
    // resume it, and pin the verdict to the uninterrupted one. `◇FALSE`
    // is violated by any fair behavior, so the check must produce a
    // lasso — golden shape: a Violated verdict with a loop.
    {
        let target = LiveTarget::Eventually(Expr::bool(false));
        let seq = check_liveness(&system, &reference, &target)
            .expect("uninterrupted liveness check succeeds");
        let seq_cx = seq
            .counterexample()
            .expect("chain4 must yield a fair lasso violating ◇FALSE");
        let live_snap = format!("{root}/CKPT_chain4_live.snap");
        let _ = std::fs::remove_file(&live_snap);

        let interrupted = check_liveness_resumable(
            &system,
            &reference,
            &target,
            &Budget::default()
                .transitions(60_000)
                .with_checkpoint(&live_snap, 8_192)
                .with_recorder(handle.clone()),
        )
        .expect("interrupted liveness run succeeds");
        let token = interrupted
            .outcome
            .resume_token()
            .expect("tight liveness budget must exhaust with a resume token");
        assert!(
            std::path::Path::new(&live_snap).exists(),
            "liveness snapshot file must be written"
        );
        println!(
            "liveness: exhausted with {} pending item(s) — snapshot CKPT_chain4_live.snap (seq {})",
            match &interrupted.outcome {
                opentla_check::Outcome::Exhausted { frontier_size, .. } => *frontier_size,
                _ => unreachable!(),
            },
            token.seq
        );

        let resumed = check_liveness_resumable(
            &system,
            &reference,
            &target,
            &Budget::unlimited()
                .with_checkpoint(&live_snap, 8_192)
                .with_recorder(handle.clone()),
        )
        .expect("resumed liveness run succeeds");
        assert!(resumed.outcome.is_complete(), "resumed liveness run must complete");
        match &resumed.verdict.expect("complete runs carry a verdict") {
            Verdict::Violated(cx) => {
                assert_eq!(cx.reason(), seq_cx.reason(), "liveness: reason diverges");
                assert_eq!(cx.states(), seq_cx.states(), "liveness: lasso states diverge");
                assert_eq!(cx.actions(), seq_cx.actions(), "liveness: lasso actions diverge");
                assert_eq!(
                    cx.loop_start(),
                    seq_cx.loop_start(),
                    "liveness: loop start diverges"
                );
                println!(
                    "liveness: resumed to the identical lasso — {} state(s), loop at {}",
                    cx.states().len(),
                    cx.loop_start().expect("lassos have loops")
                );
            }
            Verdict::Holds => panic!("liveness: resumed verdict lost the violation"),
        }
    }

    recorder.flush();
    let text = std::fs::read_to_string(&obs_path).expect("read back OBS_resume.jsonl");
    let summary = obs::validate_stream(&text).unwrap_or_else(|e| {
        panic!("OBS_resume.jsonl fails schema validation: {e}");
    });
    assert_eq!(
        summary.runs.len(),
        8,
        "four interrupted + four resumed runs must be reported"
    );
    let complete: Vec<_> = summary.runs.iter().filter(|r| r.complete).collect();
    assert_eq!(complete.len(), 4, "exactly the four resumed runs complete");
    assert!(
        complete
            .iter()
            .all(|r| r.states == GOLDEN.0 as u64 && r.transitions == GOLDEN.1 as u64),
        "resumed run reports must carry the golden totals"
    );
    let spills = summary.kinds.get("spill").copied().unwrap_or(0);
    assert!(
        spills >= 1,
        "the bounded-memory legs must report at least one spill event"
    );
    let cache_stats = summary.kinds.get("cache_stats").copied().unwrap_or(0);
    assert_eq!(
        cache_stats, 4,
        "each spill-engine run (interrupted + resumed, sequential and parallel) \
         reports its cache statistics once"
    );
    println!("wrote {obs_path} (schema-valid, {} runs)", summary.runs.len());
}
