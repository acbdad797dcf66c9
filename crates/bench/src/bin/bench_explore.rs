//! The exploration engines' CI shape check: every plan explores the
//! same scenario set and must build the same graph.
//!
//! * `seed` — a faithful reimplementation of the pre-optimization
//!   sequential BFS: SipHash-keyed `HashMap<State, usize>` visited
//!   set, a cloned state per expansion, a fresh successor `Vec` per
//!   state, tree-walking guard/update evaluation. It shares nothing
//!   with the shipping engines but `System::successors`, so its state
//!   and transition counts are the reference every plan must hit;
//! * `seq_fp` — the sequential loop: fingerprinted visited set,
//!   compiled successor stepper, reused buffers;
//! * `par_ws` — the work-stealing plan ([`Engine::WorkStealing`]) with
//!   the machine's available workers;
//! * `seq_spill` / `par_spill` — the bounded-memory plans
//!   ([`Engine::SpillBfs`], [`Engine::SpillWs`]) at the default budget;
//! * `seq_ckpt` — `seq_fp` with checkpointing armed at
//!   [`DEFAULT_CHECKPOINT_CADENCE`].
//!
//! Asserted per scenario: `seq_fp`, `par_ws` and `seq_ckpt` agree with
//! `seed` on the counts, and the `par_ws`, `seq_spill` and `par_spill`
//! graphs are byte-identical to `seq_fp`'s. The wall times in the
//! printed table are one sample each, for orientation only — nothing
//! is gated on them and nothing is written: `benchmark/` is the
//! repository's source of numbers (see `benchmark/README.md`).
//!
//! One observability artifact rides along: `OBS_explore.jsonl` — the
//! largest chain explored under a [`JsonlRecorder`] by three engines
//! (sequential fingerprinted, sequential exact, 4-worker
//! work-stealing), schema-validated, with state/transition totals
//! asserted identical across all three.
//!
//! Usage: `bench_explore [--smoke]`. `--smoke` runs a reduced scenario
//! set — the CI configuration.

use opentla_bench::ms;
use opentla_check::{
    explore_governed_with, explore_resumable, obs, Budget, CheckError, Engine, ExploreOptions,
    JsonlRecorder, Meter, RecorderHandle, StateGraph, System, VisitedMode,
    DEFAULT_CHECKPOINT_CADENCE,
};
use opentla_kernel::State;
use opentla_queue::{FairnessStyle, QueueChain};
use opentla_scenarios::{AlternatingBit, ArbiterFairness, Mutex, TokenRing};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The seed explorer, reimplemented verbatim for an honest baseline:
/// exact SipHash visited set, per-state allocations, interpretive
/// successor evaluation. Returns the (states, transitions) counts.
fn explore_seed(system: &System, max_states: usize) -> Result<(usize, usize), CheckError> {
    let init_states = system.init().states(system.universe())?;
    if init_states.is_empty() {
        return Err(CheckError::NoInitialStates);
    }
    let meter = Meter::start(&Budget::default().states(max_states));
    let mut states: Vec<State> = Vec::new();
    let mut index: HashMap<State, usize> = HashMap::new();
    let mut edges: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for s in init_states {
        if index.contains_key(&s) {
            continue;
        }
        assert!(meter.charge_state().is_none(), "seed run exceeded {max_states} states");
        let id = states.len();
        index.insert(s.clone(), id);
        states.push(s);
        edges.push(Vec::new());
        queue.push_back(id);
    }
    while let Some(id) = queue.pop_front() {
        let succ = system.successors(&states[id].clone())?;
        for (action, t) in succ {
            let target = match index.get(&t) {
                Some(existing) => *existing,
                None => {
                    assert!(
                        meter.charge_state().is_none(),
                        "seed run exceeded {max_states} states"
                    );
                    let nid = states.len();
                    index.insert(t.clone(), nid);
                    states.push(t);
                    edges.push(Vec::new());
                    queue.push_back(nid);
                    nid
                }
            };
            edges[id].push((action, target));
        }
    }
    Ok((states.len(), edges.iter().map(Vec::len).sum()))
}

/// The shipping engine with an explicitly null recorder — immune to an
/// ambient `OPENTLA_OBS` setting, so timings never include a
/// recorder.
fn explore_null(
    system: &System,
    options: &ExploreOptions,
    threads: usize,
) -> StateGraph {
    let budget = Budget::default()
        .states(options.max_states)
        .with_recorder(RecorderHandle::null());
    let opts = ExploreOptions {
        threads: Some(threads),
        ..options.clone()
    };
    let run = explore_governed_with(system, &budget, &opts).expect("explores");
    assert!(run.outcome.is_complete(), "scenario exceeds the state budget");
    run.graph
}

/// The work-stealing engine with an explicitly null recorder.
fn explore_ws_null(system: &System, options: &ExploreOptions, threads: usize) -> StateGraph {
    let opts = ExploreOptions {
        engine: Engine::WorkStealing,
        ..options.clone()
    };
    explore_null(system, &opts, threads)
}

/// The bounded-memory spill engine with an explicitly null recorder,
/// at the generous default budget — what the disk-backed machinery
/// costs when nothing actually needs to spill.
fn explore_spill_null(system: &System, options: &ExploreOptions) -> StateGraph {
    let opts = ExploreOptions {
        engine: Engine::SpillBfs,
        ..options.clone()
    };
    explore_null(system, &opts, 1)
}

/// The parallel bounded-memory engine ([`Engine::SpillWs`]) with an
/// explicitly null recorder: work-stealing workers over the same
/// disk-backed spill tiers the sequential spill engine uses.
fn explore_par_spill_null(
    system: &System,
    options: &ExploreOptions,
    threads: usize,
) -> StateGraph {
    let opts = ExploreOptions {
        engine: Engine::SpillWs,
        ..options.clone()
    };
    explore_null(system, &opts, threads)
}

/// Asserts that two graphs are byte-identical in the established
/// sense: same states in the same canonical order, same init set, and
/// the same edge list per state.
fn assert_graphs_identical(a: &StateGraph, b: &StateGraph, what: &str) {
    assert_eq!(a.states(), b.states(), "{what}: states differ");
    assert_eq!(a.init(), b.init(), "{what}: init sets differ");
    for id in 0..a.len() {
        assert_eq!(a.edges(id), b.edges(id), "{what}: edges differ at state {id}");
    }
}

/// The shipping engine with crash tolerance armed at the default
/// checkpoint cadence. The scenarios here are all smaller than one
/// cadence interval, so no periodic snapshot is ever due.
fn explore_ckpt(
    system: &System,
    options: &ExploreOptions,
    path: &std::path::Path,
) -> StateGraph {
    let budget = Budget::default()
        .states(options.max_states)
        .with_checkpoint(path, DEFAULT_CHECKPOINT_CADENCE)
        .with_recorder(RecorderHandle::null());
    let opts = ExploreOptions {
        threads: Some(1),
        ..options.clone()
    };
    let run = explore_resumable(system, &budget, &opts).expect("checkpoint-armed explores");
    assert!(run.outcome.is_complete(), "scenario exceeds the state budget");
    run.graph
}

fn scenarios(smoke: bool) -> Vec<(&'static str, System)> {
    let mut out = vec![
        (
            "abp",
            AlternatingBit::new(if smoke { 2 } else { 4 })
                .complete_system()
                .expect("abp builds"),
        ),
        (
            "mutex",
            Mutex::with_clients(if smoke { 2 } else { 3 }, ArbiterFairness::Weak)
                .product()
                .expect("mutex builds"),
        ),
        (
            "ring",
            TokenRing::new(if smoke { 3 } else { 4 })
                .complete_system()
                .expect("ring builds"),
        ),
    ];
    for (k, name) in [(2, "chain2"), (3, "chain3"), (4, "chain4")] {
        if smoke && k == 4 {
            break;
        }
        let system = QueueChain::new(k, 1, 2, FairnessStyle::Joint)
            .complete_system()
            .expect("chain builds");
        out.push((name, system));
    }
    out
}

/// Runs `work` once, with its wall time.
fn timed<T>(work: impl FnOnce() -> T) -> (std::time::Duration, T) {
    let t = Instant::now();
    let result = work();
    (t.elapsed(), result)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let threads = std::env::var("OPENTLA_EXPLORE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        })
        .max(1);
    let options = ExploreOptions::default();

    println!(
        "# bench_explore ({} mode, {threads} thread(s))\n",
        if smoke { "smoke" } else { "full" }
    );
    println!("| scenario | states | transitions | seed | seq_fp | par_ws | seq_spill | par_spill | seq_ckpt |");
    println!("|---|---|---|---|---|---|---|---|---|");

    let all = scenarios(smoke);
    for (name, system) in &all {
        let (seed_t, (states, transitions)) =
            timed(|| explore_seed(system, options.max_states).expect("seed explores"));
        let (seq_t, seq_graph) = timed(|| explore_null(system, &options, 1));
        let (ws_t, ws_graph) = timed(|| explore_ws_null(system, &options, threads));
        let (spill_t, spill_graph) = timed(|| explore_spill_null(system, &options));
        let (pspill_t, pspill_graph) =
            timed(|| explore_par_spill_null(system, &options, threads));
        // A complete run below one cadence interval writes nothing, so
        // the snapshot file must never appear — remove any leftover so
        // a stale file cannot turn the run into a resume.
        let ck_path = std::env::temp_dir().join(format!(
            "opentla_bench_ckpt_{}_{name}.snap",
            std::process::id(),
        ));
        let _ = std::fs::remove_file(&ck_path);
        let (ck_t, ck_graph) = timed(|| explore_ckpt(system, &options, &ck_path));
        let _ = std::fs::remove_file(&ck_path);

        assert_eq!(
            (seq_graph.len(), seq_graph.edge_count()),
            (states, transitions),
            "{name}: seq_fp disagrees with seed"
        );
        assert_eq!(
            (ck_graph.len(), ck_graph.edge_count()),
            (states, transitions),
            "{name}: checkpoint-armed run disagrees with seed"
        );
        // The work-stealing plans' canonical renumbering must make them
        // indistinguishable from the sequential loop, not merely
        // count-equal; the spill store shares its discovery order by
        // construction.
        assert_graphs_identical(&seq_graph, &ws_graph, name);
        assert_graphs_identical(&seq_graph, &spill_graph, name);
        assert_graphs_identical(&seq_graph, &pspill_graph, name);
        println!(
            "| {name} | {states} | {transitions} | {} | {} | {} | {} | {} | {} |",
            ms(seed_t),
            ms(seq_t),
            ms(ws_t),
            ms(spill_t),
            ms(pspill_t),
            ms(ck_t),
        );
    }

    // --- observability run report: largest chain, three engines -------
    let (obs_name, obs_system) = all
        .iter()
        .rev()
        .find(|(name, _)| name.starts_with("chain"))
        .expect("a chain scenario is always present");
    let obs_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../OBS_explore.jsonl");
    let obs_totals = write_obs_report(obs_system, obs_path);
    println!("\nwrote {obs_path} ({obs_name}: {obs_totals})");
}

/// Explores `system` under a [`JsonlRecorder`] with three engines —
/// sequential fingerprinted, sequential exact, and 4-worker
/// work-stealing —
/// into one JSONL stream at `path`; validates the stream against the
/// schema and asserts the three run reports carry identical
/// state/transition/depth totals. Returns the shared
/// `states/transitions` rendering.
fn write_obs_report(system: &System, path: &str) -> String {
    let recorder = Arc::new(JsonlRecorder::create(path).expect("create OBS_explore.jsonl"));
    let handle = RecorderHandle::new(recorder.clone());
    let configs: [(VisitedMode, usize); 3] = [
        (VisitedMode::Fingerprint, 1),
        (VisitedMode::Exact, 1),
        (VisitedMode::Fingerprint, 4),
    ];
    for (mode, threads) in configs {
        let budget = Budget::default().with_recorder(handle.clone());
        let opts = ExploreOptions {
            mode,
            threads: Some(threads),
            ..ExploreOptions::default()
        };
        let run = explore_governed_with(system, &budget, &opts).expect("obs run explores");
        assert!(run.outcome.is_complete());
    }
    recorder.flush();
    let text = std::fs::read_to_string(path).expect("read back OBS_explore.jsonl");
    let summary = obs::validate_stream(&text).unwrap_or_else(|e| {
        panic!("OBS_explore.jsonl fails schema validation: {e}");
    });
    assert_eq!(summary.runs.len(), 3, "expected one run report per engine");
    let totals: Vec<String> = summary
        .runs
        .iter()
        .map(|r| format!("{}/{}/{}", r.states, r.transitions, r.depth))
        .collect();
    assert!(
        totals.iter().all(|t| t == &totals[0]),
        "engines disagree in the observability report: {totals:?}"
    );
    assert!(
        summary.runs.iter().all(|r| r.complete),
        "observability runs must complete"
    );
    format!("{} states / {} transitions", summary.runs[0].states, summary.runs[0].transitions)
}
