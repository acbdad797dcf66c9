//! Golden-report test for the observability layer: real scenarios
//! (the alternating-bit protocol and a two-queue chain) explored under
//! a [`JsonlRecorder`], with every emitted line parsed and validated
//! against the schema — phase nesting well-formed, timestamps
//! monotonic, final progress snapshot equal to the run report — and
//! the stream's *shape* (event kinds, field sets, run ordering)
//! snapshotted — and one stream spanning an interrupted and a resumed
//! run of each of the two plans. Timings are never asserted, so the
//! test is deterministic.

use opentla_check::{
    explore_governed_with, explore_resumable, obs::validate_stream, obs::StreamSummary, Budget,
    Engine, ExploreOptions, JsonlRecorder, RecorderHandle, System, VisitedMode,
};
use opentla_queue::{FairnessStyle, QueueChain};
use opentla_scenarios::AlternatingBit;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A `Write` sink shared with the test, so the recorder's output can
/// be read back without touching the filesystem.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The matrix every scenario is recorded under: fingerprinted at one
/// requested worker, exact at four (a request the loop runs at two:
/// a stepper thread beside the interner).
const CONFIGS: [(VisitedMode, usize); 2] = [(VisitedMode::Fingerprint, 1), (VisitedMode::Exact, 4)];

/// Runs `record` under a [`JsonlRecorder`] and returns the stream it
/// wrote plus its validated summary.
fn stream_of(record: impl FnOnce(RecorderHandle)) -> (String, StreamSummary) {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::new(JsonlRecorder::from_writer(SharedBuf(buf.clone())));
    record(RecorderHandle::new(recorder.clone()));
    recorder.flush();
    let text = String::from_utf8(buf.lock().unwrap().clone()).expect("utf-8 stream");
    let summary = validate_stream(&text)
        .unwrap_or_else(|e| panic!("stream fails schema validation: {e}\n{text}"));
    (text, summary)
}

/// Explores `sys` under all of [`CONFIGS`] into one JSONL stream.
fn recorded_stream(sys: &System) -> (String, StreamSummary) {
    stream_of(|handle| {
        for (mode, threads) in CONFIGS {
            let budget = Budget::default().with_recorder(handle.clone());
            let opts = ExploreOptions {
                mode,
                threads: Some(threads),
                ..ExploreOptions::default()
            };
            let run = explore_governed_with(sys, &budget, &opts).expect("explores");
            assert!(run.outcome.is_complete());
        }
    })
}

fn scenarios() -> Vec<(&'static str, System)> {
    vec![
        (
            "abp",
            AlternatingBit::new(2)
                .complete_system()
                .expect("abp builds"),
        ),
        (
            "chain2",
            QueueChain::new(2, 1, 2, FairnessStyle::Joint)
                .complete_system()
                .expect("chain2 builds"),
        ),
    ]
}

/// Schema validity plus cross-engine agreement: one run report per
/// engine config, all complete, all with identical state/transition/
/// depth totals (the acceptance criterion's byte-identical totals).
#[test]
fn golden_streams_validate_and_engines_agree() {
    for (name, sys) in scenarios() {
        let (_text, summary) = recorded_stream(&sys);
        assert_eq!(
            summary.runs.len(),
            CONFIGS.len(),
            "{name}: one report per engine"
        );
        let first = &summary.runs[0];
        assert!(
            first.states > 0 && first.transitions > 0,
            "{name}: empty run"
        );
        for run in &summary.runs {
            assert!(run.complete, "{name}: {} did not complete", run.engine);
            let (a, b) = (
                format!("{}/{}/{}", run.states, run.transitions, run.depth),
                format!("{}/{}/{}", first.states, first.transitions, first.depth),
            );
            assert_eq!(a, b, "{name}: {} totals diverge", run.engine);
        }
        // The engine labels and modes record what actually ran.
        assert_eq!(summary.runs[0].engine, "explore_sequential");
        assert_eq!(summary.runs[0].mode, "fingerprint");
        assert_eq!(summary.runs[1].engine, "explore_sequential");
        assert_eq!(summary.runs[1].mode, "exact");
        assert_eq!(summary.runs[0].threads, 1, "{name}");
        assert_eq!(summary.runs[1].threads, 2, "{name}");
    }
}

/// One stream narrates a kill and a recovery on each of the two plans:
/// chain2 cut at two fifths of its states with checkpointing on, then
/// the same call with the budget lifted. Four run reports, of which
/// exactly the resumed ones are complete and carry the uninterrupted
/// totals; one `resume` per recovery; the disk-backed plan, under an
/// 8 KiB budget, spills and reports its cache once per run.
#[test]
fn golden_stream_spans_interrupted_and_resumed_runs_of_every_plan() {
    let sys = scenarios().remove(1).1;
    let whole = explore_governed_with(&sys, &Budget::unlimited(), &ExploreOptions::default())
        .expect("explores")
        .graph;
    let plans = [
        (Engine::Auto, 1, None),
        (Engine::SpillBfs, 1, Some(8 << 10)),
    ];
    let dir = std::env::temp_dir().join(format!("opentla_obs_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    let (_text, summary) = stream_of(|handle| {
        for (i, (engine, threads, mem_budget_bytes)) in plans.into_iter().enumerate() {
            let path = dir.join(format!("plan{i}.snap"));
            let opts = ExploreOptions {
                engine,
                threads: Some(threads),
                mem_budget_bytes,
                ..ExploreOptions::default()
            };
            let cut = Budget::default().states(whole.len() * 2 / 5);
            for budget in [cut, Budget::unlimited()] {
                let budget = budget
                    .with_checkpoint(&path, 64)
                    .with_recorder(handle.clone());
                explore_resumable(&sys, &budget, &opts).expect("explores");
            }
        }
    });
    std::fs::remove_dir_all(&dir).expect("scratch dir removes");

    assert_eq!(summary.runs.len(), 2 * plans.len());
    for (i, run) in summary.runs.iter().enumerate() {
        let resumed = i % 2 == 1;
        assert_eq!(run.complete, resumed, "run {i} ({})", run.engine);
        if resumed {
            assert_eq!(
                (run.states, run.transitions),
                (whole.len() as u64, whole.edge_count() as u64),
                "run {i} ({})",
                run.engine
            );
        }
    }
    let engines: Vec<&str> = summary
        .runs
        .iter()
        .step_by(2)
        .map(|r| r.engine.as_str())
        .collect();
    assert_eq!(engines, ["explore_sequential", "explore_spill"]);
    assert_eq!(summary.kinds["resume"], plans.len(), "one per plan");
    assert!(summary.kinds["spill"] >= 1);
    assert_eq!(
        summary.kinds["cache_stats"], 2,
        "one disk-backed plan, two runs"
    );
}

/// The stream's shape — which event kinds appear and which fields each
/// kind carries — is golden. Timings, counts-of-progress-events, and
/// other run-to-run variation are deliberately not asserted.
#[test]
fn golden_stream_shape() {
    let (_text, summary) = recorded_stream(&scenarios().remove(0).1);

    let kinds: Vec<&str> = summary.kinds.keys().map(String::as_str).collect();
    assert_eq!(
        kinds,
        [
            "phase_enter",
            "phase_exit",
            "progress",
            "run_end",
            "run_start",
            "step_memo"
        ],
        "event-kind set changed — update the golden shape deliberately"
    );

    let fields =
        |kind: &str| -> Vec<&str> { summary.fields[kind].iter().map(String::as_str).collect() };
    assert_eq!(
        fields("run_start"),
        ["v", "t", "ev", "engine", "threads", "mode"]
    );
    assert_eq!(fields("run_end"), ["v", "t", "ev", "report"]);
    assert_eq!(fields("phase_enter"), ["v", "t", "ev", "phase"]);
    assert_eq!(fields("phase_exit"), ["v", "t", "ev", "phase"]);
    assert_eq!(
        fields("step_memo"),
        [
            "v",
            "t",
            "ev",
            "actions",
            "tabled_actions",
            "table_entries",
            "lookups",
            "misses"
        ]
    );
    // One per exploration, one exploration per configuration.
    assert_eq!(summary.kinds["step_memo"], CONFIGS.len());
    // Progress fields: the core four always, the optional
    // frontier/level context on the per-level snapshots.
    let progress = fields("progress");
    for required in [
        "v",
        "t",
        "ev",
        "states",
        "transitions",
        "elapsed_nanos",
        "states_per_sec",
    ] {
        assert!(
            progress.contains(&required),
            "progress missing {required}: {progress:?}"
        );
    }

    // Phase nesting: exploration phases never nest inside each other.
    assert_eq!(summary.max_phase_depth, 1);
}

/// A certificate narrates its obligation checks: one `image_memo` per
/// simulation (two H1s, H2a) and one per target fairness table (H2b),
/// each with the golden field set, inside the phase of its check, every
/// miss decided on ids; and
/// one `image_pass`, the evaluation of the refinement mapping that H2a
/// and H2b share, between the H1s and H2a and inside neither check.
/// The counts are the chain's own and do not depend on timing.
#[test]
fn golden_image_memo_events_of_a_certificate() {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::new(JsonlRecorder::from_writer(SharedBuf(buf.clone())));
    let chain = QueueChain::new(2, 1, 2, FairnessStyle::Joint);
    let options = opentla::CompositionOptions {
        budget: Budget::default().with_recorder(RecorderHandle::new(recorder.clone())),
        ..Default::default()
    };
    let cert = chain
        .prove_composition(&options)
        .expect("chain2 is well-formed");
    assert!(cert.holds());
    recorder.flush();
    let text = String::from_utf8(buf.lock().unwrap().clone()).expect("utf-8 stream");
    let summary = validate_stream(&text)
        .unwrap_or_else(|e| panic!("stream fails schema validation: {e}\n{text}"));
    assert_eq!(summary.kinds["image_memo"], 4);
    let fields: Vec<&str> = summary.fields["image_memo"]
        .iter()
        .map(String::as_str)
        .collect();
    assert_eq!(
        fields,
        [
            "v",
            "t",
            "ev",
            "check",
            "classes",
            "distinct_pairs",
            "on_ids",
            "edges",
            "skipped",
            "nanos"
        ]
    );
    assert_eq!(summary.kinds["image_pass"], 1);
    let fields: Vec<&str> = summary.fields["image_pass"]
        .iter()
        .map(String::as_str)
        .collect();
    assert_eq!(
        fields,
        [
            "v",
            "t",
            "ev",
            "states",
            "mapped_vars",
            "distinct_values",
            "undefined",
            "evaluated",
            "key_bits",
            "nanos"
        ]
    );

    let mut phase = Vec::new();
    let mut passes = Vec::new();
    for line in text.lines() {
        let obj = opentla_check::obs::Json::parse(line).expect("valid line");
        let str_of = |k: &str| obj.get(k).and_then(|j| j.as_str()).map(str::to_string);
        let num = |k: &str| obj.get(k).and_then(|j| j.as_u64()).expect("a count");
        match str_of("ev").as_deref() {
            Some("phase_enter") => phase.push(str_of("phase").unwrap()),
            Some("phase_exit") => {
                phase.pop();
            }
            Some("image_pass") => {
                assert_eq!(phase.last().map(String::as_str), Some("compose"));
                assert_eq!(passes.len(), 2, "after the H1s, before H2a: {passes:?}");
                assert_eq!(num("states"), cert.product_states as u64);
                assert_eq!((num("mapped_vars"), num("undefined")), (1, 0));
                // q̄ is a sequence over two values, and two one-place
                // queues with the channel between them hold up to three.
                assert!(num("distinct_values") <= 1 + 2 + 4 + 8);
                // q̄ is evaluated once per key of the slots it reads:
                // at least once per value, fewer times than there are
                // states (the product's other slots vary too).
                let evaluated = num("evaluated");
                assert!(evaluated >= num("distinct_values"), "{line}");
                assert!(evaluated < num("states"), "{line}");
                assert!(num("key_bits") > 0, "{line}");
            }
            Some("image_memo") => {
                let check = str_of("check").unwrap();
                assert_eq!(
                    phase.last(),
                    Some(&check),
                    "emitted inside its check's phase"
                );
                assert_eq!(obj.get("skipped").and_then(|j| j.as_bool()), Some(false));
                assert_eq!(num("edges"), cert.product_edges as u64);
                // Every target predicate of the chain is read on ids:
                // every miss is decided there.
                assert_eq!(num("on_ids"), num("distinct_pairs"), "{line}");
                passes.push((check, num("classes"), num("distinct_pairs")));
            }
            _ => {}
        }
    }
    let checks: Vec<&str> = passes.iter().map(|(c, ..)| c.as_str()).collect();
    assert_eq!(
        checks,
        ["simulation", "simulation", "simulation", "liveness"]
    );
    // H2a and H2b look at the same abstract variables through the same
    // mapping: same classes, and the same abstract steps — fewer of
    // either than the product has states and edges.
    assert_eq!(passes[2].1, passes[3].1);
    assert_eq!(passes[2].2, passes[3].2, "{passes:?}");
    for (check, classes, pairs) in &passes {
        assert!(*classes < cert.product_states as u64, "{passes:?}");
        assert!(*pairs <= cert.product_edges as u64, "{passes:?}");
        if check == "simulation" {
            assert!(*pairs < cert.product_edges as u64, "{passes:?}");
        }
    }
}

/// Event ordering within each run is golden: run_start first, then the
/// exploration phases in engine order, a final exact progress
/// snapshot, and run_end last.
#[test]
fn golden_event_ordering() {
    let (text, _summary) = recorded_stream(&scenarios().remove(1).1);
    let kinds_in_order: Vec<String> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let obj = opentla_check::obs::Json::parse(l).expect("valid line");
            obj.get("ev")
                .and_then(|j| j.as_str())
                .expect("ev field")
                .to_string()
        })
        .collect();
    assert_eq!(
        kinds_in_order.first().map(String::as_str),
        Some("run_start")
    );
    assert_eq!(kinds_in_order.last().map(String::as_str), Some("run_end"));
    // Each run_end is immediately preceded by the final exact progress
    // snapshot explore emits from the finished graph's statistics.
    for (i, kind) in kinds_in_order.iter().enumerate() {
        if kind == "run_end" {
            assert_eq!(
                kinds_in_order[i - 1],
                "progress",
                "run_end at event {i} not preceded by the final snapshot"
            );
        }
    }
    // Runs are sequential: a run_start only ever follows a run_end (or
    // opens the stream).
    for (i, kind) in kinds_in_order.iter().enumerate() {
        if kind == "run_start" && i > 0 {
            assert_eq!(
                kinds_in_order[i - 1],
                "run_end",
                "run_start at event {i} nested"
            );
        }
    }
}
