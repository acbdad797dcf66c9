//! Differential tests for the parallel bounded-memory engine
//! ([`Engine::SpillWs`]): across scenarios × byte budgets × worker
//! counts × visited-set modes, its completed graphs — statistics,
//! canonical state order, initial ids, per-state edge lists, and
//! counterexample traces — must be byte-identical to both the
//! sequential spill engine's and the in-RAM sequential engine's.
//! Plus forced fingerprint collisions, interrupt/resume identity
//! (including resuming at a different worker count and on different
//! engines), and the never-silently-ignore-a-budget diagnostic.

mod support {
    pub mod spill_log;
}

use opentla_check::{
    check_invariant, explore_governed_with, explore_resumable, resume_exploration, Budget,
    CountingRecorder, Engine, ExploreOptions, Outcome, RecorderHandle, Reduction,
    StateGraph, System, Verdict, VisitedMode,
};
use opentla_kernel::Expr;
use opentla_queue::{FairnessStyle, QueueChain};
use opentla_scenarios::{AlternatingBit, ArbiterFairness, Mutex, TokenRing};
use std::path::PathBuf;
use std::sync::Arc;
use support::spill_log::SpillLog;

/// The small-scenario matrix: every budget × worker × mode combination
/// runs on these; the 54 358-state chain4 gets the acceptance
/// configurations only (the precedent the work-stealing identity suite
/// set).
fn systems() -> Vec<(&'static str, System)> {
    vec![
        (
            "abp",
            AlternatingBit::new(2).complete_system().expect("abp builds"),
        ),
        (
            "mutex",
            Mutex::with_clients(2, ArbiterFairness::Weak)
                .product()
                .expect("mutex builds"),
        ),
        (
            "ring",
            TokenRing::new(3).complete_system().expect("ring builds"),
        ),
        (
            "chain2",
            QueueChain::new(2, 1, 2, FairnessStyle::Joint)
                .complete_system()
                .expect("chain2 builds"),
        ),
        (
            "chain3",
            QueueChain::new(3, 1, 2, FairnessStyle::Joint)
                .complete_system()
                .expect("chain3 builds"),
        ),
    ]
}

fn chain4() -> System {
    QueueChain::new(4, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain4 builds")
}

fn explore_seq(sys: &System, mode: VisitedMode, fp_bits: u32) -> StateGraph {
    let run = explore_governed_with(
        sys,
        &Budget::unlimited(),
        &ExploreOptions {
            mode,
            threads: Some(1),
            fp_bits,
            ..ExploreOptions::default()
        },
    )
    .expect("sequential run succeeds");
    assert!(matches!(run.outcome, Outcome::Complete));
    run.graph
}

fn spill_ws_opts(mode: VisitedMode, workers: usize, mem: Option<usize>) -> ExploreOptions {
    ExploreOptions {
        mode,
        threads: Some(workers),
        engine: Engine::SpillWs,
        mem_budget_bytes: mem,
        ..ExploreOptions::default()
    }
}

fn explore_spill_ws(sys: &System, opts: &ExploreOptions) -> StateGraph {
    let run = explore_governed_with(sys, &Budget::unlimited(), opts)
        .expect("parallel spill run succeeds");
    assert!(
        matches!(run.outcome, Outcome::Complete),
        "unbudgeted parallel spill run must complete"
    );
    run.graph
}

/// A unique throwaway snapshot path (tests run in parallel).
fn snap_path(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "opentla_spill_ws_{}_{tag}_{n}.snap",
        std::process::id()
    ))
}

fn remove_spill_artifacts(snap_path: &std::path::Path) {
    let _ = std::fs::remove_file(snap_path);
    let _ = std::fs::remove_dir_all(format!("{}.segs", snap_path.display()));
}

/// The acceptance matrix on the small scenarios: byte budgets tight
/// (256 KiB), loose (4 MiB), and the engine default, at 1/2/4 workers
/// in both visited modes, against the in-RAM sequential baseline —
/// and, where a budget is in force, against the sequential spill
/// engine too (which must itself match the baseline, closing the
/// three-way identity).
#[test]
fn spill_ws_matches_spill_and_sequential_across_matrix() {
    for (name, sys) in systems() {
        for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
            let seq = explore_seq(&sys, mode, 64);
            for mem in [Some(256 << 10), Some(4 << 20), None] {
                if let Some(bytes) = mem {
                    let spill = explore_governed_with(
                        &sys,
                        &Budget::unlimited(),
                        &ExploreOptions {
                            mode,
                            threads: Some(1),
                            engine: Engine::SpillBfs,
                            mem_budget_bytes: Some(bytes),
                            ..ExploreOptions::default()
                        },
                    )
                    .expect("sequential spill run succeeds");
                    assert!(matches!(spill.outcome, Outcome::Complete));
                    assert_eq!(
                        seq.first_difference(&spill.graph),
                        None,
                        "{name}/{mode:?}/seq-spill@{bytes}"
                    );
                }
                for workers in [1usize, 2, 4] {
                    let label = format!("{name}/{mode:?}/mem={mem:?}/workers={workers}");
                    let par = explore_spill_ws(&sys, &spill_ws_opts(mode, workers, mem));
                    assert_eq!(seq.first_difference(&par), None, "{label}");
                }
            }
        }
    }
}

/// An invariant violated exactly at the graph's last (deepest) state,
/// so the counterexample trace walks the parent chain end to end.
fn last_state_invariant(sys: &System, graph: &StateGraph) -> Expr {
    let target = graph.states().last().expect("graphs are non-empty");
    let mut here = Expr::bool(true);
    for (slot, v) in sys.vars().iter().enumerate() {
        here = here.and(Expr::var(v).eq(Expr::con(target.values()[slot].clone())));
    }
    here.not()
}

/// Verdict identity through the parent chains the parallel engine
/// reassembled from shared arena records: the same invariant violates
/// in both graphs with the same trace.
#[test]
fn spill_ws_counterexample_traces_match() {
    for sys in [
        TokenRing::new(3).complete_system().expect("ring builds"),
        QueueChain::new(2, 1, 2, FairnessStyle::Joint)
            .complete_system()
            .expect("chain2 builds"),
    ] {
        for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
            let label = format!("{mode:?}");
            let seq = explore_seq(&sys, mode, 64);
            let par = explore_spill_ws(&sys, &spill_ws_opts(mode, 4, Some(256 << 10)));
            let pred = last_state_invariant(&sys, &seq);
            let a = check_invariant(&sys, &seq, &pred).expect("seq invariant runs");
            let b = check_invariant(&sys, &par, &pred).expect("par invariant runs");
            match (&a, &b) {
                (Verdict::Violated(ca), Verdict::Violated(cb)) => {
                    assert_eq!(ca.reason(), cb.reason(), "{label}: reason diverges");
                    assert_eq!(ca.states(), cb.states(), "{label}: trace diverges");
                    assert_eq!(ca.actions(), cb.actions(), "{label}: actions diverge");
                }
                _ => panic!("{label}: last-state invariant must be violated in both"),
            }
        }
    }
}

/// The acceptance golden on the big benchmark: chain4 under a 256 KiB
/// budget at 4 workers reproduces 54358 / 164736 / 55 byte-identically
/// while the live run seals multiple shared arena segments (counted
/// from its `spill` events: the engine's segment directory is gone
/// when the run returns).
#[test]
fn spill_ws_golden_chain4() {
    let sys = chain4();
    let seq = explore_seq(&sys, VisitedMode::Fingerprint, 64);
    let path = snap_path("golden");
    remove_spill_artifacts(&path);
    let log = Arc::new(SpillLog::default());
    let run = explore_governed_with(
        &sys,
        &Budget::unlimited()
            .with_checkpoint(&path, 1 << 30)
            .with_recorder(RecorderHandle::new(log.clone())),
        &spill_ws_opts(VisitedMode::Fingerprint, 4, Some(256 << 10)),
    )
    .expect("parallel spill run succeeds");
    assert!(matches!(run.outcome, Outcome::Complete));
    let stats = run.graph.stats();
    assert_eq!(stats.states, 54358, "golden chain4 state count");
    assert_eq!(stats.transitions, 164736, "golden chain4 transition count");
    assert_eq!(stats.depth, 55, "golden chain4 depth");
    assert!(
        log.sealed("arena") >= 2,
        "the budget must force >= 2 sealed shared arena segments"
    );
    assert_eq!(seq.first_difference(&run.graph), None, "chain4/golden");

    // The loose-budget, 2-worker point of the acceptance sweep.
    let par2 = explore_spill_ws(&sys, &spill_ws_opts(VisitedMode::Fingerprint, 2, Some(4 << 20)));
    assert_eq!(seq.first_difference(&par2), None, "chain4/4MiB/2");
    remove_spill_artifacts(&path);
}

/// Narrow fingerprints (12 bits) force real collisions, in both modes:
/// the index is keyed by the masked fingerprint. Exact mode must
/// verify a hit against its arena record, chain the state that differs
/// under the same key, and keep the graph identical to the uncollided
/// full-width one at *every* worker count (the matrix test below does
/// the same for every store, and at 1 bit, where nearly every intern
/// walks a chain). Fingerprint mode under forced collisions is only
/// deterministic single-worker: first-insert-wins picks the class
/// representative, and with concurrent workers the winner — and
/// therefore the abstract graph itself — depends on arrival order (the
/// same caveat the in-RAM work-stealing engine carries, which is why
/// collision-sensitive runs use `Exact`).
#[test]
fn spill_ws_survives_forced_collisions() {
    for sys in [
        TokenRing::new(3).complete_system().expect("ring builds"),
        QueueChain::new(2, 1, 2, FairnessStyle::Joint)
            .complete_system()
            .expect("chain2 builds"),
    ] {
        // Exact mode: fp12 answers must equal full-width answers.
        let full = explore_seq(&sys, VisitedMode::Exact, 64);
        for workers in [1usize, 4] {
            let par = explore_spill_ws(
                &sys,
                &ExploreOptions {
                    fp_bits: 12,
                    ..spill_ws_opts(VisitedMode::Exact, workers, Some(32 << 10))
                },
            );
            assert_eq!(full.first_difference(&par), None, "exact-fp12/workers={workers}");
        }
        // Fingerprint mode, single worker (BFS claim order): the same
        // deterministic conflation as the sequential engine's.
        let seq12 = explore_seq(&sys, VisitedMode::Fingerprint, 12);
        let par12 = explore_spill_ws(
            &sys,
            &ExploreOptions {
                fp_bits: 12,
                ..spill_ws_opts(VisitedMode::Fingerprint, 1, Some(32 << 10))
            },
        );
        assert_eq!(seq12.first_difference(&par12), None, "fp12/workers=1");
    }
}

/// The one dedup index design, under all four stores: in
/// [`VisitedMode::Exact`] a store looks a state up by its *masked*
/// fingerprint, verifies the hit against its arena, and chains a state
/// that differs from every id under the key. At 12 bits a few interns
/// take the verify-and-reject path; at 1 bit nearly all of them do,
/// walking chains as long as half the graph — and in the two
/// disk-backed stores, whose 32 KiB hot tiers drain, finding their
/// candidates in the spilled runs. Whatever the width, no two states
/// may be conflated: every graph must be byte-identical to the
/// full-width sequential exact one.
#[test]
fn exact_mode_verifies_and_chains_in_every_store() {
    let systems = [
        ("ring3", TokenRing::new(3).complete_system().expect("ring builds")),
        (
            "chain2",
            QueueChain::new(2, 1, 2, FairnessStyle::Joint)
                .complete_system()
                .expect("chain2 builds"),
        ),
        (
            "mutex3",
            Mutex::with_clients(3, ArbiterFairness::Weak)
                .product()
                .expect("mutex builds"),
        ),
    ];
    let stores = [
        ("sequential", Engine::Auto, 1, None),
        ("spill", Engine::SpillBfs, 1, Some(32 << 10)),
        ("ws@1", Engine::WorkStealing, 1, None),
        ("ws@4", Engine::WorkStealing, 4, None),
        ("spill-ws@1", Engine::SpillWs, 1, Some(32 << 10)),
        ("spill-ws@4", Engine::SpillWs, 4, Some(32 << 10)),
    ];
    for (name, sys) in &systems {
        let full = explore_seq(sys, VisitedMode::Exact, 64);
        for fp_bits in [1, 12] {
            for (store, engine, workers, mem_budget_bytes) in stores {
                let options = ExploreOptions {
                    mode: VisitedMode::Exact,
                    fp_bits,
                    engine,
                    threads: Some(workers),
                    mem_budget_bytes,
                    ..ExploreOptions::default()
                };
                // Bounded, so a store that fails to recognise a state
                // it holds exhausts instead of re-expanding it forever.
                let budget = Budget::default().states(full.len());
                let run = explore_governed_with(sys, &budget, &options).expect("exact run succeeds");
                let label = format!("{name}/{store}/fp{fp_bits}");
                assert!(matches!(run.outcome, Outcome::Complete), "{label}: {}", run.outcome);
                assert_eq!(full.first_difference(&run.graph), None, "{label}");
            }
        }
    }
}

/// Interrupt/resume identity: a 4-worker bounded run killed mid-spill
/// leaves a snapshot of its canonical graph — self-contained, since its
/// own segments are in arrival order — that resumes byte-identically:
/// at a *different* worker count on the same engine, on the sequential
/// spill engine, and on the plain in-RAM engine.
#[test]
fn spill_ws_interrupt_resume_identity() {
    let sys = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain2 builds");
    for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
        let label = format!("resume/{mode:?}");
        let reference = explore_seq(&sys, mode, 64);
        let total = reference.len();
        let opts4 = spill_ws_opts(mode, 4, Some(8 << 10));
        let path = snap_path("resume");
        remove_spill_artifacts(&path);

        let log = Arc::new(SpillLog::default());
        let interrupted = explore_resumable(
            &sys,
            &Budget::default()
                .states((total * 2 / 5).max(2))
                .with_checkpoint(&path, 64)
                .with_recorder(RecorderHandle::new(log.clone())),
            &opts4,
        )
        .expect("interrupted run still succeeds");
        assert!(
            interrupted.outcome.resume_token().is_some(),
            "{label}: exhausted run must leave a resume token"
        );
        assert!(
            log.sealed("arena") >= 1,
            "{label}: the kill must land after the first sealed live segment"
        );
        // The live segments hold arrival ids, which mean nothing to
        // another run: the snapshot references no segment file.
        let file = std::fs::read(&path).expect("snapshot readable");
        assert_eq!(&file[..8], b"OTLASNAP", "{label}: snapshot magic");
        assert!(
            !file.windows(4).any(|w| w == b".seg"),
            "{label}: the exhaustion snapshot must be self-contained"
        );

        // Resume with 2 workers: the worker count is not pinned.
        let recorder = Arc::new(CountingRecorder::new());
        let resumed = explore_resumable(
            &sys,
            &Budget::unlimited()
                .with_checkpoint(&path, 1 << 20)
                .with_recorder(RecorderHandle::new(recorder.clone())),
            &spill_ws_opts(mode, 2, Some(8 << 10)),
        )
        .expect("resumed run succeeds");
        assert!(matches!(resumed.outcome, Outcome::Complete));
        assert_eq!(recorder.count("resume"), 1, "{label}: resume event must fire");
        assert_eq!(reference.first_difference(&resumed.graph), None, "{label}");

        // Cross-engine, from the in-memory snapshot: the sequential
        // spill engine and the plain in-RAM engine both pick it up.
        let snap = interrupted.snapshot.as_deref().expect("in-memory snapshot");
        let seq_spill = resume_exploration(
            &sys,
            &Budget::unlimited(),
            &ExploreOptions {
                mode,
                threads: Some(1),
                engine: Engine::SpillBfs,
                mem_budget_bytes: Some(8 << 10),
                ..ExploreOptions::default()
            },
            snap,
        )
        .expect("sequential spill resume succeeds");
        assert_eq!(reference.first_difference(&seq_spill.graph), None, "{label}/seq-spill");
        let in_ram = resume_exploration(
            &sys,
            &Budget::unlimited(),
            &ExploreOptions {
                mode,
                threads: Some(1),
                ..ExploreOptions::default()
            },
            snap,
        )
        .expect("in-RAM resume succeeds");
        assert_eq!(reference.first_difference(&in_ram.graph), None, "{label}/in-ram");

        remove_spill_artifacts(&path);
    }
}

/// This engine's snapshots are self-contained, so nothing would ever
/// read its segment directory again: it is ephemeral even under a
/// checkpoint spec — which pins the *sequential* disk-backed store's
/// directory, whose manifests do reference sealed segments. Neither a
/// completed nor an exhausted run leaves a `<path>.segs` behind, and
/// only the exhausted one leaves a snapshot.
#[test]
fn a_checkpointing_parallel_spill_run_leaves_no_segment_directory() {
    let sys = QueueChain::new(3, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain3 builds");
    let total = explore_seq(&sys, VisitedMode::Fingerprint, 64).len();
    for (leg, budget) in [
        ("complete", Budget::unlimited()),
        ("exhausted", Budget::default().states(total / 2)),
    ] {
        let path = snap_path("leak");
        remove_spill_artifacts(&path);
        let log = Arc::new(SpillLog::default());
        let run = explore_governed_with(
            &sys,
            &budget
                .with_checkpoint(&path, 500)
                .with_recorder(RecorderHandle::new(log.clone())),
            &spill_ws_opts(VisitedMode::Fingerprint, 2, Some(64 << 10)),
        )
        .expect("parallel spill run succeeds");
        assert!(log.sealed("arena") >= 1, "{leg}: the run must have sealed segments somewhere");
        assert_eq!(run.outcome.is_complete(), leg == "complete", "{leg}");
        assert_eq!(path.exists(), leg == "exhausted", "{leg}: snapshot file");
        let segs = PathBuf::from(format!("{}.segs", path.display()));
        assert!(!segs.exists(), "{leg}: {} was left behind", segs.display());
        remove_spill_artifacts(&path);
    }
}

/// And the reverse hand-off: a snapshot the *sequential* spill engine
/// wrote resumes on the parallel engine at 4 workers, byte-identically.
#[test]
fn spill_ws_resumes_a_sequential_spill_snapshot() {
    let sys = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain2 builds");
    let reference = explore_seq(&sys, VisitedMode::Fingerprint, 64);
    let total = reference.len();
    let path = snap_path("handoff");
    remove_spill_artifacts(&path);
    let seq_opts = ExploreOptions {
        threads: Some(1),
        mem_budget_bytes: Some(8 << 10),
        ..ExploreOptions::default()
    };
    let interrupted = explore_resumable(
        &sys,
        &Budget::default()
            .states((total / 2).max(2))
            .with_checkpoint(&path, 64),
        &seq_opts,
    )
    .expect("interrupted sequential spill run succeeds");
    assert!(interrupted.outcome.resume_token().is_some());
    let resumed = explore_resumable(
        &sys,
        &Budget::unlimited().with_checkpoint(&path, 1 << 20),
        &spill_ws_opts(VisitedMode::Fingerprint, 4, Some(8 << 10)),
    )
    .expect("parallel resume succeeds");
    assert!(matches!(resumed.outcome, Outcome::Complete));
    assert_eq!(reference.first_difference(&resumed.graph), None, "handoff");
    remove_spill_artifacts(&path);
}

/// No configuration refuses a memory budget: a reduction-active run —
/// sequential at any requested thread count — explores under an
/// explicit `mem_budget_bytes` and returns the reduced graph of the
/// unbudgeted run, with nothing reported as ignored on the way
/// (`reduction_equivalence` drives larger ones through real spills).
#[test]
fn a_reduced_run_explores_under_an_explicit_budget() {
    let ring = TokenRing::new(3);
    let sys = ring.complete_system().expect("ring builds");
    let reduced = |mem_budget_bytes| ExploreOptions {
        threads: Some(2),
        reduction: Reduction::none().with_symmetry(Arc::new(ring.rotation_symmetry())),
        mem_budget_bytes,
        ..ExploreOptions::default()
    };
    let unbudgeted = explore_governed_with(&sys, &Budget::unlimited(), &reduced(None))
        .expect("the unbudgeted reduced run succeeds");
    let recorder = Arc::new(CountingRecorder::new());
    let budgeted = explore_governed_with(
        &sys,
        &Budget::unlimited().with_recorder(RecorderHandle::new(recorder.clone())),
        &reduced(Some(8 << 10)),
    )
    .expect("a reduced run honors an explicit budget");
    assert!(matches!(budgeted.outcome, Outcome::Complete));
    assert_eq!(budgeted.graph.first_difference(&unbudgeted.graph), None);
    assert_eq!(budgeted.reduction, unbudgeted.reduction);
    assert!(budgeted.graph.is_reduced());
    assert_eq!((recorder.count("run_start"), recorder.count("run_end")), (1, 1));
}
