//! Crash-tolerance end-to-end: interrupt/resume byte-identity across
//! every plan, snapshot save→load round trips, typed errors for
//! corrupted or mismatched snapshots, periodic mid-run checkpoints,
//! and frontier-preserving escalation whose total work is O(final
//! state space).

use std::path::PathBuf;
use std::sync::Arc;

use opentla_check::{
    explore_escalating, explore_governed_with, explore_resumable, resume_exploration, Budget,
    CheckError, CheckpointError, CountingRecorder, Engine, Exploration, ExploreOptions,
    GuardedAction, Init, Outcome, RecorderHandle, Snapshot, System, VisitedMode,
    DEFAULT_CHECKPOINT_CADENCE,
};
use opentla_kernel::store::fnv1a;
use opentla_kernel::{Domain, Expr, Value, VarId, Vars};
use opentla_queue::{FairnessStyle, QueueChain};
use opentla_scenarios::{AlternatingBit, ArbiterFairness, Mutex, TokenRing};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A unique throwaway snapshot path (tests run in parallel; the
/// process id plus a counter keeps them from clobbering each other).
fn snap_path(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "opentla_crash_resume_{}_{tag}_{n}.snap",
        std::process::id()
    ))
}

fn options(threads: usize, mode: VisitedMode, fp_bits: u32) -> ExploreOptions {
    ExploreOptions {
        threads: Some(threads),
        mode,
        fp_bits,
        ..ExploreOptions::default()
    }
}

fn run_unlimited(system: &System, opts: &ExploreOptions) -> Exploration {
    let run =
        explore_governed_with(system, &Budget::unlimited(), opts).expect("exploration succeeds");
    assert!(matches!(run.outcome, Outcome::Complete));
    run
}

fn scenarios() -> Vec<(&'static str, System)> {
    vec![
        ("abp", AlternatingBit::new(2).complete_system().unwrap()),
        ("ring", TokenRing::new(3).complete_system().unwrap()),
        (
            "mutex",
            Mutex::with_clients(3, ArbiterFairness::Weak)
                .product()
                .unwrap(),
        ),
        (
            "chain2",
            QueueChain::new(2, 1, 2, FairnessStyle::Joint)
                .complete_system()
                .unwrap(),
        ),
    ]
}

/// The core round trip, one configuration: explore uninterrupted as
/// the reference; explore again under a budget that exhausts mid-run
/// with checkpointing on; then resume from the on-disk snapshot with
/// the budget lifted. The resumed graph must be byte-identical to the
/// uninterrupted one — states, edges, traces, everything.
fn interrupt_and_resume(label: &str, system: &System, opts: &ExploreOptions) {
    let reference = run_unlimited(system, opts);
    let total = reference.graph.len();
    let path = snap_path("matrix");

    let cut = (total * 2 / 5).max(2);
    let interrupted = explore_resumable(
        system,
        &Budget::default().states(cut).with_checkpoint(&path, 16),
        opts,
    )
    .expect("interrupted run still succeeds");
    let token = interrupted
        .outcome
        .resume_token()
        .unwrap_or_else(|| panic!("{label}: exhausted run must leave a resume token"))
        .clone();
    assert_eq!(token.path, path, "{label}: token points at the spec path");
    assert!(path.exists(), "{label}: snapshot file must exist");

    // Resume from disk: the same call, bigger budget.
    let recorder = Arc::new(CountingRecorder::new());
    let resumed = explore_resumable(
        system,
        &Budget::unlimited()
            .with_checkpoint(&path, 1 << 20)
            .with_recorder(RecorderHandle::new(recorder.clone())),
        opts,
    )
    .expect("resumed run succeeds");
    assert!(
        matches!(resumed.outcome, Outcome::Complete),
        "{label}: resumed run must complete"
    );
    assert_eq!(
        recorder.count("resume"),
        1,
        "{label}: resume event must be emitted"
    );
    assert_eq!(
        reference.graph.first_difference(&resumed.graph),
        None,
        "{label}"
    );
    // The resumed run's report carries the whole graph's totals, not
    // just what it explored after the cut.
    assert_eq!(recorder.states(), reference.graph.len() as u64, "{label}");
    assert_eq!(
        recorder.transitions(),
        reference.graph.edge_count() as u64,
        "{label}"
    );

    // Resume from the in-memory snapshot too — same result.
    let snap = interrupted.snapshot.as_deref().expect("in-memory snapshot");
    let resumed_mem = resume_exploration(system, &Budget::unlimited(), opts, snap)
        .expect("in-memory resume succeeds");
    assert_eq!(
        reference.graph.first_difference(&resumed_mem.graph),
        None,
        "{label}/mem"
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn interrupt_resume_identity_unreduced() {
    for (name, system) in &scenarios() {
        for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
            let label = format!("{name}/none/{mode:?}");
            interrupt_and_resume(&label, system, &options(1, mode, 64));
        }
    }
}

/// A checkpoint-armed sequential run that ends inside its first
/// cadence interval is the unarmed run: the same graph, no snapshot
/// file, no resume token.
#[test]
fn armed_run_shorter_than_the_cadence_writes_no_snapshot() {
    for (name, system) in &scenarios() {
        let opts = options(1, VisitedMode::Fingerprint, 64);
        let reference = run_unlimited(system, &opts);
        assert!(
            (reference.graph.len() as u64) < DEFAULT_CHECKPOINT_CADENCE,
            "{name}"
        );
        let path = snap_path("armed-short");
        let armed = explore_resumable(
            system,
            &Budget::unlimited().with_checkpoint(&path, DEFAULT_CHECKPOINT_CADENCE),
            &opts,
        )
        .unwrap();
        assert!(matches!(armed.outcome, Outcome::Complete), "{name}");
        assert!(armed.outcome.resume_token().is_none(), "{name}");
        assert_eq!(
            reference.graph.first_difference(&armed.graph),
            None,
            "{name}"
        );
        assert!(
            !path.exists(),
            "{name}: no cadence elapsed, so nothing is written"
        );
    }
}

/// The collision knob is pinned in the snapshot header: a resumed
/// collision-forcing run reproduces the uninterrupted collision-forcing
/// run exactly (first-id-wins conflation and all), in both visited
/// modes.
#[test]
fn interrupt_resume_identity_with_forced_collisions() {
    let system = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
        let label = format!("chain2/fp12/{mode:?}");
        interrupt_and_resume(&label, &system, &options(1, mode, 12));
    }
}

/// Golden chain4 through an interrupt and a thread change: exhaust a
/// run that asked for 2 threads at 20 000 states, resume asking for 4,
/// and land exactly on the golden numbers.
#[test]
fn golden_chain4_survives_parallel_interrupt_and_thread_change() {
    let system = QueueChain::new(4, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    let path = snap_path("chain4");
    let opts2 = options(2, VisitedMode::Fingerprint, 64);
    let interrupted = explore_resumable(
        &system,
        &Budget::default()
            .states(20_000)
            .with_checkpoint(&path, 4096),
        &opts2,
    )
    .unwrap();
    assert!(interrupted.outcome.resume_token().is_some());

    // Thread count is not pinned: resume the 2-thread snapshot with 4.
    let opts4 = options(4, VisitedMode::Fingerprint, 64);
    let resumed = explore_resumable(
        &system,
        &Budget::unlimited().with_checkpoint(&path, 1 << 20),
        &opts4,
    )
    .unwrap();
    assert!(matches!(resumed.outcome, Outcome::Complete));
    let stats = resumed.graph.stats();
    assert_eq!(stats.states, 54358, "chain4 state count regressed");
    assert_eq!(
        stats.transitions, 164736,
        "chain4 transition count regressed"
    );
    assert_eq!(stats.depth, 55, "chain4 BFS depth regressed");
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Corruption and mismatch: typed errors, never panics or wrong graphs
// ---------------------------------------------------------------------

/// Produces a real snapshot file to corrupt.
fn write_sample_snapshot(tag: &str) -> (System, PathBuf) {
    let system = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    let path = snap_path(tag);
    let run = explore_resumable(
        &system,
        &Budget::default().states(50).with_checkpoint(&path, 8),
        &ExploreOptions::default(),
    )
    .unwrap();
    assert!(run.outcome.resume_token().is_some());
    assert!(path.exists());
    (system, path)
}

#[test]
fn corrupted_snapshot_is_a_typed_error_not_a_panic() {
    let (system, path) = write_sample_snapshot("corrupt");
    let original = std::fs::read(&path).unwrap();

    // Flip a byte in the middle of the body.
    let mut flipped = original.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xff;
    std::fs::write(&path, &flipped).unwrap();
    assert!(matches!(
        Snapshot::load(&path),
        Err(CheckpointError::ChecksumMismatch)
    ));
    // ...and the typed error surfaces through the resume API.
    let err = explore_resumable(
        &system,
        &Budget::unlimited().with_checkpoint(&path, 8),
        &ExploreOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        CheckError::Checkpoint(CheckpointError::ChecksumMismatch)
    ));

    // Truncate to half: checksum (or structure) cannot survive.
    std::fs::write(&path, &original[..original.len() / 2]).unwrap();
    match Snapshot::load(&path) {
        Err(
            CheckpointError::ChecksumMismatch
            | CheckpointError::Corrupt { .. }
            | CheckpointError::Io { .. },
        ) => {}
        other => panic!("truncated snapshot must fail typed, got {other:?}"),
    }

    // Not a snapshot at all.
    std::fs::write(&path, b"definitely not a snapshot").unwrap();
    assert!(matches!(
        Snapshot::load(&path),
        Err(CheckpointError::BadMagic)
    ));
    let _ = std::fs::remove_file(&path);

    // An inline record holding a value outside the resuming system's
    // domain: a snapshot of `x ∈ 0..=3` resumed under a system with the
    // same variable and action names — all a snapshot pins — but
    // `x ∈ 0..=1`. Refused as it is read, never stepped — and the same
    // snapshot held in RAM is refused too, on every plan.
    let over = |top: i64| {
        let mut vars = Vars::new();
        vars.declare("x", Domain::int_range(0, top));
        let y = vars.declare("y", Domain::bits());
        let toggle = GuardedAction::new(
            "toggle",
            Expr::bool(true),
            vec![(y, Expr::int(1).sub(Expr::var(y)))],
        );
        System::new(vars, Init::new([(y, Value::Int(0))]), vec![toggle])
    };
    let path = snap_path("domain");
    let cut = explore_resumable(
        &over(3),
        &Budget::default().states(5).with_checkpoint(&path, 1),
        &ExploreOptions::default(),
    )
    .unwrap();
    assert!(cut.outcome.resume_token().is_some());
    let refused = |run: Result<Exploration, CheckError>, label: &str| match run {
        Err(CheckError::Checkpoint(CheckpointError::Corrupt { detail })) => assert!(
            detail.contains("state 2 holds 2 for x, outside its domain"),
            "{label}: {detail}"
        ),
        other => panic!("{label}: a state outside its domain must be Corrupt, got {other:?}"),
    };
    refused(
        explore_resumable(
            &over(1),
            &Budget::unlimited().with_checkpoint(&path, 8),
            &ExploreOptions::default(),
        ),
        "file",
    );
    let snap = cut.snapshot.as_deref().expect("in-memory snapshot");
    for (threads, mem_budget_bytes) in [(1, None), (2, Some(1 << 20))] {
        let opts = ExploreOptions {
            mem_budget_bytes,
            ..options(threads, VisitedMode::Fingerprint, 64)
        };
        refused(
            resume_exploration(&over(1), &Budget::unlimited(), &opts, snap),
            &format!("mem/threads={threads}/budget={mem_budget_bytes:?}"),
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mismatched_snapshot_is_refused() {
    let (system, path) = write_sample_snapshot("mismatch");
    let snap = Snapshot::load(&path).unwrap();

    // Different system.
    let other = TokenRing::new(3).complete_system().unwrap();
    let err = resume_exploration(
        &other,
        &Budget::unlimited(),
        &ExploreOptions::default(),
        &snap,
    )
    .unwrap_err();
    assert!(matches!(
        err,
        CheckError::Checkpoint(CheckpointError::Mismatch { .. })
    ));

    // Different fingerprint width or visited mode.
    for opts in [
        options(1, VisitedMode::Fingerprint, 32),
        options(1, VisitedMode::Exact, 64),
    ] {
        let err = resume_exploration(&system, &Budget::unlimited(), &opts, &snap).unwrap_err();
        assert!(
            matches!(
                err,
                CheckError::Checkpoint(CheckpointError::Mismatch { .. })
            ),
            "resume under different configuration must be refused"
        );
    }

    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Periodic checkpoints
// ---------------------------------------------------------------------

/// Copies the snapshot file aside when the `copy_at`-th (0-based)
/// `checkpoint` event arrives — i.e. a *periodic* snapshot, taken while
/// the run is still going — and counts the checkpoints seen before
/// `run_end`.
struct MidRunCopy {
    from: PathBuf,
    to: PathBuf,
    copy_at: u64,
    before_run_end: std::sync::atomic::AtomicU64,
    ended: std::sync::atomic::AtomicBool,
}

impl opentla_check::Recorder for MidRunCopy {
    fn record(&self, event: &opentla_check::Event<'_>) {
        use opentla_check::Event;
        use std::sync::atomic::Ordering::Relaxed;
        if matches!(event, Event::RunEnd { .. }) {
            self.ended.store(true, Relaxed);
        } else if matches!(event, Event::Checkpoint { .. })
            && !self.ended.load(Relaxed)
            && self.before_run_end.fetch_add(1, Relaxed) == self.copy_at
        {
            std::fs::copy(&self.from, &self.to).expect("copy the mid-run snapshot");
        }
    }
}

/// A checkpoint-armed run that asked for 4 workers, with a cadence far
/// below the graph size, writes snapshots *while it runs* (what a
/// `kill -9` would leave behind), and such a mid-run snapshot resumes,
/// at another requested worker count, to the byte-identical graph.
#[test]
fn threaded_run_checkpoints_mid_run_and_resumes_at_another_worker_count() {
    let system = QueueChain::new(3, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
        let reference = run_unlimited(&system, &options(1, mode, 64));
        let path = snap_path("midrun");
        let copy = snap_path("midrun-copy");
        let recorder = Arc::new(MidRunCopy {
            from: path.clone(),
            to: copy.clone(),
            copy_at: 0,
            before_run_end: Default::default(),
            ended: Default::default(),
        });
        let armed = explore_resumable(
            &system,
            &Budget::unlimited()
                .with_checkpoint(&path, 256)
                .with_recorder(RecorderHandle::new(recorder.clone())),
            &options(4, mode, 64),
        )
        .unwrap();
        assert!(matches!(armed.outcome, Outcome::Complete));
        assert_eq!(
            reference.graph.first_difference(&armed.graph),
            None,
            "midrun/armed"
        );
        let periodic = recorder
            .before_run_end
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(
            periodic >= 1,
            "{mode:?}: a {}-state run at cadence 256 must checkpoint before run_end",
            reference.graph.len()
        );

        // The copy is what a kill right after that checkpoint leaves.
        let snap = Snapshot::load(&copy).expect("mid-run snapshot loads");
        assert!(
            snap.frontier_len() > 0,
            "{mode:?}: a mid-run snapshot has a frontier"
        );
        assert!(snap.states_used() < reference.graph.len());
        for threads in [1usize, 2] {
            let resumed = resume_exploration(
                &system,
                &Budget::unlimited(),
                &options(threads, mode, 64),
                &snap,
            )
            .unwrap();
            assert!(matches!(resumed.outcome, Outcome::Complete));
            assert_eq!(
                reference.graph.first_difference(&resumed.graph),
                None,
                "midrun/{mode:?}/resumed@{threads}"
            );
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&copy);
    }
}

// ---------------------------------------------------------------------
// Frontier-preserving escalation
// ---------------------------------------------------------------------

/// Escalation resumes instead of restarting: the run completes, the
/// graph is byte-identical to a direct run, every attempt banked the
/// previous one's work (resume events fire), and — measured in
/// checkpoint cadence units — the total work stays O(final state
/// space) + one cadence per attempt, not O(attempts × state space).
/// On the disk-backed store too, whose in-memory hand-over under a
/// checkpoint spec is a manifest of its segment files.
#[test]
fn escalation_resumes_from_the_preserved_frontier() {
    let system = QueueChain::new(3, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    let in_ram = options(1, VisitedMode::Fingerprint, 64);
    let spilling = ExploreOptions {
        mem_budget_bytes: Some(8 << 10),
        ..in_ram.clone()
    };
    let reference = run_unlimited(&system, &in_ram);
    let total = reference.graph.len();
    for (label, opts) in [("in-ram", in_ram), ("spill", spilling)] {
        const CADENCE: u64 = 64;
        // Work meter for the uninterrupted run, in cadence units.
        let direct_path = snap_path("esc-direct");
        let direct_recorder = Arc::new(CountingRecorder::new());
        let direct = explore_resumable(
            &system,
            &Budget::unlimited()
                .with_checkpoint(&direct_path, CADENCE)
                .with_recorder(RecorderHandle::new(direct_recorder.clone())),
            &opts,
        )
        .unwrap();
        assert!(matches!(direct.outcome, Outcome::Complete));
        let direct_work = direct_recorder.count("checkpoint");
        remove_spill_artifacts(&direct_path);

        let path = snap_path("escalate");
        let recorder = Arc::new(CountingRecorder::new());
        let attempts = 12usize;
        let escalated = explore_escalating(
            &system,
            &Budget::default()
                .states((total / 10).max(2))
                .with_checkpoint(&path, CADENCE)
                .with_recorder(RecorderHandle::new(recorder.clone())),
            2,
            attempts,
            &opts,
        )
        .unwrap();
        assert!(
            matches!(escalated.outcome, Outcome::Complete),
            "{label}: 12 doublings from total/10 must complete"
        );
        assert_eq!(
            reference.graph.first_difference(&escalated.graph),
            None,
            "escalate/{label}"
        );
        assert!(
            recorder.count("resume") >= 2,
            "{label}: attempts must resume, not restart (saw {} resumes)",
            recorder.count("resume")
        );
        // The regression: escalated work ≤ uninterrupted work + one
        // cadence of slack per attempt. A restart-based escalation would
        // blow through this bound by a factor of attempts.
        assert!(
            recorder.count("checkpoint") <= direct_work + attempts as u64,
            "{label}: escalation re-did too much work: {} checkpoints vs {} direct + {} slack",
            recorder.count("checkpoint"),
            direct_work,
            attempts
        );
        remove_spill_artifacts(&path);
    }
}

// ---------------------------------------------------------------------
// Property-based round trip on random systems
// ---------------------------------------------------------------------

/// A random small boolean system, deterministic in `seed`.
fn random_system(seed: u64) -> System {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_vars = rng.gen_range(2..=4usize);
    let mut vars = Vars::new();
    let vs: Vec<VarId> = (0..n_vars)
        .map(|i| vars.declare(format!("v{i}"), Domain::bits()))
        .collect();
    let n_actions = rng.gen_range(2..=5usize);
    let actions: Vec<GuardedAction> = (0..n_actions)
        .map(|a| {
            let read = vs[rng.gen_range(0..n_vars)];
            let write = vs[rng.gen_range(0..n_vars)];
            let want = rng.gen_range(0..=1i64);
            GuardedAction::new(
                format!("a{a}"),
                Expr::var(read).eq(Expr::int(want)),
                vec![(write, Expr::int(1).sub(Expr::var(write)))],
            )
        })
        .collect();
    let init = Init::new(vs.iter().map(|v| (*v, Value::Int(0))));
    System::new(vars, init, actions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpoint → serialize → load → resume yields a byte-identical
    /// graph on random systems, in both visited modes.
    #[test]
    fn snapshot_round_trip_is_byte_identical(seed in any::<u64>()) {
        let system = random_system(seed);
        let mode = if seed & 1 == 0 { VisitedMode::Fingerprint } else { VisitedMode::Exact };
        let opts = options(1, mode, 64);
        let reference = run_unlimited(&system, &opts);
        let total = reference.graph.len();
        if total < 4 {
            return Ok(()); // nothing to interrupt
        }
        let path = snap_path("prop");
        let interrupted = explore_resumable(
            &system,
            &Budget::default().states(total / 2).with_checkpoint(&path, 4),
            &opts,
        ).unwrap();
        if interrupted.outcome.resume_token().is_some() {
            let resumed = explore_resumable(
                &system,
                &Budget::unlimited().with_checkpoint(&path, 1 << 20),
                &opts,
            ).unwrap();
            prop_assert!(matches!(resumed.outcome, Outcome::Complete));
            assert_eq!(reference.graph.first_difference(&resumed.graph), None, "prop/{seed}");
        }
        let _ = std::fs::remove_file(&path);
    }
}

// ---------------------------------------------------------------------
// Kill-mid-spill: the bounded-memory engine
// ---------------------------------------------------------------------

/// Count of sealed arena segment files in the directory the spill
/// engine pins next to a checkpoint path.
fn sealed_arena_segments(snap_path: &std::path::Path) -> usize {
    let dir = PathBuf::from(format!("{}.segs", snap_path.display()));
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter(|e| {
                    let n = e.file_name();
                    let n = n.to_string_lossy().into_owned();
                    n.starts_with("arena-") && n.ends_with(".seg")
                })
                .count()
        })
        .unwrap_or(0)
}

fn remove_spill_artifacts(snap_path: &std::path::Path) {
    let _ = std::fs::remove_file(snap_path);
    let _ = std::fs::remove_dir_all(format!("{}.segs", snap_path.display()));
}

/// Kill-mid-spill: a bounded-memory run interrupted after its first
/// sealed segment leaves a snapshot on disk that *references* the
/// sealed files instead of copying them, and resuming from it — with
/// the spill engine or, once materialized, with the plain in-RAM
/// engine — completes to a graph byte-identical to the unbounded
/// run's.
#[test]
fn spill_interrupt_resume_identity() {
    let system = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
        let label = format!("spill/{mode:?}");
        let base = options(1, mode, 64);
        let reference = run_unlimited(&system, &base);
        let total = reference.graph.len();
        let spill_opts = ExploreOptions {
            mem_budget_bytes: Some(8 << 10),
            ..base.clone()
        };
        let path = snap_path("spill");
        remove_spill_artifacts(&path);

        let interrupted = explore_resumable(
            &system,
            &Budget::default()
                .states(total / 2)
                .with_checkpoint(&path, 64),
            &spill_opts,
        )
        .expect("interrupted spill run succeeds");
        assert!(
            interrupted.outcome.resume_token().is_some(),
            "{label}: tight budget must exhaust with a resume token"
        );
        assert!(
            sealed_arena_segments(&path) >= 1,
            "{label}: the kill must land after the first sealed segment"
        );
        // The on-disk snapshot is O(hot tier): it names the sealed
        // arena segment rather than holding its records, so it is
        // smaller than the records it describes.
        let file = std::fs::read(&path).expect("snapshot readable");
        assert_eq!(&file[..8], b"OTLASNAP", "{label}: snapshot magic");
        let names = |needle: &[u8]| file.windows(needle.len()).any(|w| w == needle);
        assert!(
            names(b"arena-00000.seg"),
            "{label}: the sealed segment goes in by reference"
        );
        let segs = PathBuf::from(format!("{}.segs", path.display()));
        let sealed_bytes: u64 = std::fs::read_dir(segs)
            .expect("segment dir exists")
            .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
            .sum();
        assert!(
            (file.len() as u64) < sealed_bytes,
            "{label}: a {}-byte snapshot over {sealed_bytes} sealed bytes",
            file.len()
        );

        // Resume from disk with the spill engine.
        let resumed = explore_resumable(
            &system,
            &Budget::unlimited().with_checkpoint(&path, 1 << 20),
            &spill_opts,
        )
        .expect("resumed spill run succeeds");
        assert!(
            matches!(resumed.outcome, Outcome::Complete),
            "{label}: resumed run must complete"
        );
        assert_eq!(
            reference.graph.first_difference(&resumed.graph),
            None,
            "{label}"
        );

        // Cross-engine: the in-memory snapshot, a manifest over the
        // same segment files, materializes and resumes on the plain
        // in-RAM engine too.
        let snap = interrupted.snapshot.as_deref().expect("in-memory snapshot");
        let cross = resume_exploration(&system, &Budget::unlimited(), &base, snap)
            .expect("cross-engine resume succeeds");
        assert_eq!(
            reference.graph.first_difference(&cross.graph),
            None,
            "{label}/cross"
        );

        remove_spill_artifacts(&path);
    }
}

/// A corrupted or truncated sealed segment referenced by a spill
/// snapshot refuses to resume with a typed checkpoint error — never a
/// panic, never a silently wrong graph.
#[test]
fn corrupted_spill_segment_is_typed_error() {
    let system = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    let opts = ExploreOptions {
        mem_budget_bytes: Some(8 << 10),
        ..options(1, VisitedMode::Fingerprint, 64)
    };
    let total = run_unlimited(&system, &options(1, VisitedMode::Fingerprint, 64))
        .graph
        .len();
    let path = snap_path("spill_corrupt");
    remove_spill_artifacts(&path);
    let interrupted = explore_resumable(
        &system,
        &Budget::default()
            .states(total / 2)
            .with_checkpoint(&path, 64),
        &opts,
    )
    .expect("interrupted spill run succeeds");
    assert!(interrupted.outcome.resume_token().is_some());
    let segs_dir = PathBuf::from(format!("{}.segs", path.display()));
    let seg = std::fs::read_dir(&segs_dir)
        .expect("segment dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            let n = p
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            n.starts_with("arena-") && n.ends_with(".seg")
        })
        .expect("at least one sealed arena segment");
    let pristine = std::fs::read(&seg).expect("segment readable");

    // Flip one payload byte: checksum verification trips.
    let mut bytes = pristine.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&seg, &bytes).unwrap();
    let err = explore_resumable(
        &system,
        &Budget::unlimited().with_checkpoint(&path, 1 << 20),
        &opts,
    )
    .expect_err("corrupted segment must refuse to resume");
    assert!(
        matches!(err, CheckError::Checkpoint(_)),
        "corruption surfaces as a typed checkpoint error, got {err}"
    );

    // Truncate the file: also a typed error.
    std::fs::write(&seg, &pristine[..pristine.len() / 2]).unwrap();
    let err = explore_resumable(
        &system,
        &Budget::unlimited().with_checkpoint(&path, 1 << 20),
        &opts,
    )
    .expect_err("truncated segment must refuse to resume");
    assert!(matches!(err, CheckError::Checkpoint(_)));

    remove_spill_artifacts(&path);
}

// ---------------------------------------------------------------------
// Every plan's snapshot under every plan, and mutated snapshots
// ---------------------------------------------------------------------

/// The two plans, as `(name, engine, workers, memory budget)`: the
/// loop's store in RAM and under an 8 KiB budget.
type PlanSpec = (&'static str, Engine, usize, Option<usize>);

const PLANS: [PlanSpec; 2] = [
    ("sequential", Engine::Auto, 1, None),
    ("spill", Engine::SpillBfs, 1, Some(8 << 10)),
];

fn plan_options(
    (_, engine, workers, mem_budget_bytes): PlanSpec,
    mode: VisitedMode,
) -> ExploreOptions {
    ExploreOptions {
        mode,
        engine,
        threads: Some(workers),
        mem_budget_bytes,
        ..ExploreOptions::default()
    }
}

/// Any plan resumes any plan's snapshot: chain3, cut at 2/5 of its
/// states under a checkpoint spec by each plan in both visited modes,
/// and each file resumed under each plan, completes to the
/// uninterrupted graph and reports the uninterrupted run's totals.
#[test]
fn every_plan_resumes_every_plans_snapshot() {
    let system = QueueChain::new(3, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
        let reference = run_unlimited(&system, &options(1, mode, 64)).graph;
        let cut = Budget::default().states(reference.len() * 2 / 5);
        for writer in PLANS {
            let path = snap_path("every_plan");
            remove_spill_artifacts(&path);
            let interrupted = explore_resumable(
                &system,
                &cut.clone().with_checkpoint(&path, 64),
                &plan_options(writer, mode),
            )
            .expect("the interrupted run succeeds");
            assert!(interrupted.outcome.resume_token().is_some(), "{}", writer.0);
            let snap = Snapshot::load(&path).expect("the written snapshot loads");
            for reader in PLANS {
                let label = format!("{mode:?}: {} -> {}", writer.0, reader.0);
                let recorder = Arc::new(CountingRecorder::new());
                let budget =
                    Budget::unlimited().with_recorder(RecorderHandle::new(recorder.clone()));
                let resumed =
                    resume_exploration(&system, &budget, &plan_options(reader, mode), &snap)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert!(resumed.outcome.is_complete(), "{label}");
                assert_eq!(reference.first_difference(&resumed.graph), None, "{label}");
                assert_eq!(
                    (recorder.states(), recorder.transitions()),
                    (reference.len() as u64, reference.edge_count() as u64),
                    "{label}"
                );
            }
            remove_spill_artifacts(&path);
        }
    }
}

/// Mutation fuzz over real snapshots of chain2, written by the in-RAM
/// store and the disk-backed one (8 KiB: sealed segments go in by
/// reference). Each case
/// applies seeded byte flips, overwrites, inserts and deletes to the
/// body, re-stamps the FNV-1a trailer so the checksum passes, and
/// resumes the file (`explore_resumable` loads it) under a deadline on
/// one of the two plans, in a thread of its own. It must end in a
/// typed error or a finished run: a panic fails the test with its
/// seed, and so does a case still running after the grace period.
#[test]
fn mutated_snapshots_end_in_a_typed_error_or_a_finished_run() {
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;
    const CASES: u64 = 300;
    let system = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    let total = run_unlimited(&system, &options(1, VisitedMode::Fingerprint, 64))
        .graph
        .len();
    for (source, writer) in PLANS.into_iter().enumerate() {
        let written = snap_path("fuzz_source");
        remove_spill_artifacts(&written);
        explore_resumable(
            &system,
            &Budget::default()
                .states(total / 2)
                .with_checkpoint(&written, 64),
            &plan_options(writer, VisitedMode::Fingerprint),
        )
        .expect("the source run succeeds");
        let file = std::fs::read(&written).expect("the source snapshot");
        let (magic, body) = (&file[..8], &file[8..file.len() - 8]);
        for case in 0..CASES {
            let seed = (source as u64) << 32 | case;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mutated = body.to_vec();
            for _ in 0..rng.gen_range(1..=4usize) {
                let at = rng.gen_range(0..mutated.len());
                // In place three times in four: an insert or a delete
                // shifts every length prefix after it, so most such
                // files stop at the first one.
                match rng.gen_range(0..8u8) {
                    0..=2 => mutated[at] ^= 1 << rng.gen_range(0..8u32),
                    3..=5 => mutated[at] = rng.gen_range(0..=255u8),
                    6 => mutated.insert(at, rng.gen_range(0..=255u8)),
                    _ => drop(mutated.remove(at)),
                }
            }
            let path = snap_path("fuzz_case");
            let checksum = fnv1a(&mutated).to_le_bytes();
            std::fs::write(&path, [magic, &mutated, &checksum].concat()).unwrap();
            let reader = PLANS[case as usize % PLANS.len()];
            let (system, opts, at) = (
                system.clone(),
                plan_options(reader, VisitedMode::Fingerprint),
                path.clone(),
            );
            // The case's thread says when it ends; a panic drops the
            // sender unsent. Only a hung case is left unjoined.
            let (done, ended) = std::sync::mpsc::channel();
            let case = std::thread::spawn(move || {
                let budget = Budget::unlimited()
                    .with_deadline(Duration::from_secs(2))
                    .with_checkpoint(&at, u64::MAX);
                let typed_error_or_run = explore_resumable(&system, &budget, &opts).map(drop);
                let _ = done.send(());
                typed_error_or_run
            });
            let what = format!(
                "seed {seed:#x}: a {} snapshot resumed on {}",
                writer.0, reader.0
            );
            match ended.recv_timeout(Duration::from_secs(30)) {
                Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                    assert!(case.join().is_ok(), "{what} panicked")
                }
                Err(RecvTimeoutError::Timeout) => panic!("{what} did not finish"),
            }
            remove_spill_artifacts(&path);
        }
        remove_spill_artifacts(&written);
    }
}
