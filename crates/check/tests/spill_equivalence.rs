//! Differential tests for the bounded-memory spill engine: under a
//! memory budget tight enough to force real on-disk segments, the
//! completed graph — statistics, canonical state order, initial ids,
//! per-state edge lists, and counterexample traces — must be
//! byte-identical to the in-RAM sequential engine's, in both
//! visited-set modes. Plus property tests over random systems at
//! randomized budgets and over the segment/run file formats
//! themselves (round-trip, truncation, corruption).

mod support {
    pub mod random_system;
    pub mod segments;
    pub mod spill_log;
}

use opentla_check::{
    check_invariant, explore_governed_with, Budget, Engine, ExploreOptions, Outcome,
    RecorderHandle, StateGraph, System, Verdict, VisitedMode,
};
use opentla_kernel::store::{read_segment, FingerprintRun, SegmentStore, StoreError};
use opentla_kernel::Expr;
use opentla_queue::{FairnessStyle, QueueChain};
use opentla_scenarios::{AlternatingBit, ArbiterFairness, ClockWorld, Fig1, Mutex, TokenRing};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use support::random_system::{arb_action_spec, build_system, Family};
use support::segments::sealed_segments;
use support::spill_log::SpillLog;

const SMALL_INTS: Family = Family { vars: 3, top: 3 };

/// The scenario matrix, mirroring the liveness differential harness:
/// protocol, arbiter, ring, law-of-nature clock, the paper's Figure 1
/// circular pair, and queue chains up to tens of thousands of states.
fn systems() -> Vec<(&'static str, System)> {
    let fig1 = Fig1::new();
    vec![
        (
            "abp",
            AlternatingBit::new(2)
                .complete_system()
                .expect("abp builds"),
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
            "clock",
            ClockWorld::new(2, 3).product().expect("clock builds"),
        ),
        (
            "fig1",
            opentla::closed_product(fig1.vars(), &[&fig1.pi_c(), &fig1.pi_d()])
                .expect("fig1 closes"),
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
        (
            "chain4",
            QueueChain::new(4, 1, 2, FairnessStyle::Joint)
                .complete_system()
                .expect("chain4 builds"),
        ),
    ]
}

fn explore_spill(sys: &System, mode: VisitedMode, budget_bytes: usize) -> StateGraph {
    explore_spill_logged(sys, mode, budget_bytes).0
}

/// [`explore_spill`], and what the run spilled.
fn explore_spill_logged(
    sys: &System,
    mode: VisitedMode,
    budget_bytes: usize,
) -> (StateGraph, Arc<SpillLog>) {
    let log = Arc::new(SpillLog::default());
    let run = explore_governed_with(
        sys,
        &Budget::unlimited().with_recorder(RecorderHandle::new(log.clone())),
        &ExploreOptions {
            mode,
            threads: Some(1),
            mem_budget_bytes: Some(budget_bytes),
            ..ExploreOptions::default()
        },
    )
    .expect("spill run succeeds");
    assert!(
        matches!(run.outcome, Outcome::Complete),
        "unbudgeted spill run must complete"
    );
    (run.graph, log)
}

fn explore_seq(sys: &System, mode: VisitedMode) -> StateGraph {
    let run = explore_governed_with(
        sys,
        &Budget::unlimited(),
        &ExploreOptions {
            mode,
            threads: Some(1),
            ..ExploreOptions::default()
        },
    )
    .expect("sequential run succeeds");
    assert!(matches!(run.outcome, Outcome::Complete));
    run.graph
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

/// Full matrix under a 1 MiB budget — small enough that the larger
/// chains spill multiple arena segments and visited runs, large
/// enough to keep the suite quick — and again under 8 KiB, where the
/// smallest chain does too. Graphs and counterexample traces must
/// match the in-RAM engine field for field.
///
/// The store starts in RAM and moves to disk once, when its arena or
/// edge records fill a segment, so a run that sealed an arena segment
/// interned states in RAM first and read them back from disk records
/// afterwards — in `Exact` mode, candidates verified where they live
/// by then. Every scenario that can fill the smallest segment there is
/// (1 KiB; the others are a few dozen states) must have done so under
/// one of the budgets, in both modes.
#[test]
fn spill_matches_sequential_across_matrix() {
    for (name, sys) in systems() {
        for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
            let seq = explore_seq(&sys, mode);
            let mut sealed_an_arena_segment = false;
            for budget in [1 << 20, 8 << 10] {
                // 8 KiB puts chain4 in 7 000 one-kilobyte files.
                if budget < 1 << 20 && seq.len() > 10_000 {
                    continue;
                }
                let label = format!("{name}/{mode:?}@{budget}");
                let (spill, spilled) = explore_spill_logged(&sys, mode, budget);
                assert_eq!(seq.first_difference(&spill), None, "{label}");
                sealed_an_arena_segment |= spilled.sealed("arena") >= 1;

                // Counterexample identity: same violated invariant, same
                // trace through both graphs (exercises the parent chains
                // the spill engine reassembled from arena records).
                let pred = last_state_invariant(&sys, &seq);
                let a = check_invariant(&sys, &seq, &pred).expect("seq invariant runs");
                let b = check_invariant(&sys, &spill, &pred).expect("spill invariant runs");
                match (&a, &b) {
                    (Verdict::Violated(ca), Verdict::Violated(cb)) => {
                        assert_eq!(ca.reason(), cb.reason(), "{label}: reason diverges");
                        assert_eq!(ca.states(), cb.states(), "{label}: trace diverges");
                        assert_eq!(ca.actions(), cb.actions(), "{label}: actions diverge");
                    }
                    _ => panic!("{label}: last-state invariant must be violated in both"),
                }
            }
            assert_eq!(
                sealed_an_arena_segment,
                seq.len() >= 100,
                "{name}/{mode:?}: {} states",
                seq.len()
            );
        }
    }
}

/// Explicit [`Engine::SpillBfs`] selection forces the spill machinery
/// even without a budget (running at the generous default) — same
/// graphs.
#[test]
fn explicit_spill_engine_matches_sequential() {
    let sys = TokenRing::new(3).complete_system().expect("ring builds");
    for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
        let seq = explore_seq(&sys, mode);
        let run = explore_governed_with(
            &sys,
            &Budget::unlimited(),
            &ExploreOptions {
                mode,
                threads: Some(1),
                engine: Engine::SpillBfs,
                ..ExploreOptions::default()
            },
        )
        .expect("spill run succeeds");
        assert!(matches!(run.outcome, Outcome::Complete));
        assert_eq!(
            seq.first_difference(&run.graph),
            None,
            "ring/{mode:?}/explicit"
        );
    }
}

/// The acceptance golden: chain4 under a budget forcing at least two
/// sealed arena segments reproduces 54358 states / 164736 transitions
/// / depth 55 byte-identically. A checkpoint spec pins the segment
/// directory so the test can count the sealed files it forced.
#[test]
fn golden_chain4_under_spill() {
    let sys = QueueChain::new(4, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain4 builds");
    let path = fresh_dir("golden").join("chain4.snap");
    let run = explore_governed_with(
        &sys,
        &Budget::unlimited().with_checkpoint(&path, 1 << 30),
        &ExploreOptions {
            mode: VisitedMode::Fingerprint,
            threads: Some(1),
            mem_budget_bytes: Some(256 << 10),
            ..ExploreOptions::default()
        },
    )
    .expect("spill run succeeds");
    assert!(matches!(run.outcome, Outcome::Complete));
    let stats = run.graph.stats();
    assert_eq!(stats.states, 54358, "golden chain4 state count");
    assert_eq!(stats.transitions, 164736, "golden chain4 transition count");
    assert_eq!(stats.depth, 55, "golden chain4 depth");

    let sealed_arena = sealed_segments(&path, "arena-");
    assert!(
        sealed_arena >= 2,
        "budget must force >= 2 sealed arena segments, saw {sealed_arena}"
    );

    let seq = explore_seq(&sys, VisitedMode::Fingerprint);
    assert_eq!(seq.first_difference(&run.graph), None, "chain4/golden");
    let _ = std::fs::remove_dir_all(path.parent().expect("has parent"));

    // Under 32 MiB — the benchmark's `explore-spill` warm-up rung —
    // chain4 fits one segment of each tier: the store must stay in RAM
    // from first state to last, which is what that workload's
    // `setup_s` rests on.
    let (roomy, spilled) = explore_spill_logged(&sys, VisitedMode::Fingerprint, 32 << 20);
    assert_eq!(seq.first_difference(&roomy), None, "chain4/32MiB");
    let sealed = (spilled.sealed("arena"), spilled.sealed("edges"));
    assert_eq!(sealed, (0, 0), "chain4 left RAM under 32 MiB");
}

/// The one dedup index design, under every store: in
/// [`VisitedMode::Exact`] a store looks a state up by its *masked*
/// fingerprint, verifies the hit against its arena, and chains a state
/// that differs from every id under the key. At 12 bits a few interns
/// take the verify-and-reject path; at 1 bit nearly all of them do,
/// walking chains as long as half the graph — and in the disk-backed
/// store, whose 32 KiB hot tier drains, finding their candidates in
/// the spilled runs. Whatever the width, no two states may be
/// conflated: every graph must be byte-identical to the full-width
/// sequential exact one.
#[test]
fn exact_mode_verifies_and_chains_in_every_store() {
    let systems = [
        (
            "ring3",
            TokenRing::new(3).complete_system().expect("ring builds"),
        ),
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
    ];
    for (name, sys) in &systems {
        let full = explore_seq(sys, VisitedMode::Exact);
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
                let run =
                    explore_governed_with(sys, &budget, &options).expect("exact run succeeds");
                let label = format!("{name}/{store}/fp{fp_bits}");
                assert!(
                    matches!(run.outcome, Outcome::Complete),
                    "{label}: {}",
                    run.outcome
                );
                assert_eq!(full.first_difference(&run.graph), None, "{label}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Random guarded-command systems at randomized budgets.
// ---------------------------------------------------------------------

/// A unique scratch directory per call; tests run in parallel, so the
/// name mixes the pid with a process-wide counter.
fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "opentla-spill-test-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random systems at random byte budgets (some tiny enough to
    /// spill everything, some comfortably resident): verdict and
    /// graph identity against unbounded RAM, both visited modes.
    #[test]
    fn spill_matches_sequential_random(
        specs in proptest::collection::vec(arb_action_spec(SMALL_INTS), 1..5),
        budget in 512usize..16384,
    ) {
        let sys = build_system(SMALL_INTS, &specs);
        for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
            let seq = explore_seq(&sys, mode);
            let spill = explore_spill(&sys, mode, budget);
            prop_assert_eq!(seq.first_difference(&spill), None);
        }
    }

    /// Segment files round-trip: append random records (sealing as the
    /// target dictates), then read every record back by index through
    /// the store, and every sealed file again via the standalone
    /// verified reader.
    #[test]
    fn segment_file_roundtrip(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40),
            1..120,
        ),
        target in 64usize..512,
    ) {
        let dir = fresh_dir("roundtrip");
        let mut store = SegmentStore::create(&dir, "arena", target, 1 << 16)
            .expect("store creates");
        for rec in &records {
            store.append(rec).expect("append succeeds");
        }
        let mut buf = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            store.read(i as u64, &mut buf).expect("read succeeds");
            prop_assert_eq!(&buf, rec);
        }
        // Reopen path: sealed files verify and decode standalone.
        let mut seen: Vec<Vec<u8>> = Vec::new();
        for meta in store.sealed() {
            let recs = read_segment(&store.dir().join(&meta.name), Some(meta))
                .expect("sealed segment verifies");
            prop_assert_eq!(recs.len() as u64, meta.records);
            seen.extend(recs);
        }
        seen.extend(store.hot_records().map(<[u8]>::to_vec));
        prop_assert_eq!(seen, records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating or corrupting a sealed segment yields a typed
    /// [`StoreError`], never a panic or silently wrong bytes.
    #[test]
    fn corrupt_segment_is_a_typed_error(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..24),
            4..40,
        ),
        flip_at in any::<u64>(),
        cut in 1usize..32,
    ) {
        let dir = fresh_dir("corrupt");
        let mut store = SegmentStore::create(&dir, "arena", 64, 1 << 16)
            .expect("store creates");
        for rec in &records {
            store.append(rec).expect("append succeeds");
        }
        store.seal().expect("seal succeeds");
        let meta = store.sealed().first().expect("at least one sealed").clone();
        let path = store.dir().join(&meta.name);
        let pristine = std::fs::read(&path).expect("segment readable");

        // Bit flip anywhere in the file: checksum or header check trips.
        let mut bytes = pristine.clone();
        let at = (flip_at % bytes.len() as u64) as usize;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite");
        prop_assert!(read_segment(&path, Some(&meta)).is_err());

        // Truncation: typed error too.
        let keep = pristine.len().saturating_sub(cut);
        std::fs::write(&path, &pristine[..keep]).expect("rewrite");
        let err = read_segment(&path, Some(&meta));
        prop_assert!(matches!(
            err,
            Err(StoreError::Corrupt { .. })
                | Err(StoreError::ChecksumMismatch { .. })
                | Err(StoreError::MetaMismatch { .. })
                | Err(StoreError::BadMagic { .. })
                | Err(StoreError::Io { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fingerprint run files round-trip: every written key looks up
    /// every id recorded under it, reopening from disk included.
    #[test]
    fn fingerprint_run_roundtrip(
        raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..200),
    ) {
        let mut entries = raw;
        entries.sort_unstable();
        let dir = fresh_dir("run");
        let path = dir.join("visited-00000.run");
        let mut run = FingerprintRun::write(&path, &entries).expect("run writes");
        let mut reopened = FingerprintRun::open(&path).expect("run reopens");
        let mut out = Vec::new();
        for &(fp, _) in &entries {
            let want: Vec<u64> = entries
                .iter()
                .filter(|&&(f, _)| f == fp)
                .map(|&(_, id)| id)
                .collect();
            for r in [&mut run, &mut reopened] {
                out.clear();
                r.lookup(fp, &mut out).expect("lookup succeeds");
                out.sort_unstable();
                let mut expect = want.clone();
                expect.sort_unstable();
                prop_assert_eq!(&out, &expect);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
