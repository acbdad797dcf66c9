//! Breadth-first state-space exploration.
//!
//! Every entry point resolves its [`ExploreOptions`] — and the
//! `OPENTLA_EXPLORE_THREADS` / `OPENTLA_MEM_BUDGET` overrides — once
//! into one of three plans (`plan.rs`): the sequential engine over its
//! store without and with a memory budget, and the work-stealing engine
//! over its store in RAM.
//!
//! | plan (`RunStart.engine`) | engine             | states, edges, dedup index                               |
//! |--------------------------|--------------------|----------------------------------------------------------|
//! | `explore_sequential`     | `seq::explore_seq` | `seq::Store`, no budget: a [`StateGraph`], one index     |
//! | `explore_spill`          | `seq::explore_seq` | `seq::Store`, budgeted: the same until its records       |
//! |                          |                    | fill a segment, then segment files, two-tier index       |
//! | `explore_parallel_ws`    | `ws::explore_ws`   | `stripes::Store`: 64 stripes, each an index and a packed |
//! |                          |                    | arena in RAM                                             |
//!
//! Every plan ends in one [`StateGraph`] (`graph.rs`, the only code
//! that knows its layout): the states' packed rows, edges and the BFS
//! tree. The dedup index (`index.rs`) is private to the store and
//! dropped with it.
//!
//! The routing rule: a memory budget picks the second row at one
//! worker, whatever thread count was asked for; without one, more than
//! one thread picks the third, and one thread the first. An explicit
//! [`Engine`] other than [`Engine::Auto`] forces its row (both spill
//! engines the second).
//!
//! Every run has one state representation, the packed row of the
//! system's [`PackedLayout`](opentla_kernel::PackedLayout): every
//! declared variable set compiles to one, and every state a run meets
//! lies in its domains — initial states are checked as they are
//! enumerated, successors as they are stepped, resumed states before
//! an engine sees the snapshot, whether read from a file or held in RAM.
//!
//! The sequential loop is the reference implementation: plain BFS over
//! the compiled successor stepper ([`crate::CompiledSystem`]), which
//! both loops run on packed rows through its effect tables. The
//! work-stealing engine — one driver, one scheduler and one packed
//! expansion over one striped store — records
//! `(parent, action, child)` edges under provisional ids and finishes
//! with a deterministic renumbering pass that replays the discovery
//! order sequentially, so on complete runs every plan's result is
//! **byte-identical**: same state indices, same edge lists, same
//! [`GraphStats`], same counterexample traces.
//!
//! Every plan deduplicates states through a [`VisitedMode`] over one
//! index design, masked fingerprint → first id: **fingerprinting**
//! (the default) trusts a hit, the **exact** fallback verifies it
//! against the arena and chains the ids of genuinely colliding states
//! under their key. See [`VisitedMode`] for the soundness trade-off.

use crate::budget::{Budget, ExhaustReason, Governed, Meter, Outcome};
use crate::checkpoint::{self, Checkpointer, ResumeToken, RunHeader, Snapshot};
use crate::compiled::CompiledSystem;
use crate::obs::{
    Event, Phase, PhaseGuard, ProgressSnapshot, RecorderHandle, RunReport, OBS_SCHEMA_VERSION,
};
use crate::{CheckError, System};
use opentla_kernel::PackedLayout;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

// Every lock in the work-stealing engine guards state that is kept
// consistent *within* each critical section (arena pushes and map
// inserts happen together), so the shared poison-recovering [`lock`]
// is safe here: a panic that poisons a lock leaves the protected data
// structurally sound — the worker's in-flight *records* are rolled
// back separately by the scheduler's panic isolation. Propagating the
// poison would instead turn one worker's bug into a whole-run abort.
use crate::sync::{lock, NUM_SHARDS};

mod graph;
mod index;
mod plan;
mod seq;
mod spill;
mod stripes;
mod ws;

pub use graph::{Edge, GraphStats, RowView, StateGraph};
use plan::{Plan, Route, Start};

/// How the explorer remembers which states it has already seen.
///
/// This is the classic TLC trade-off between speed and certainty:
///
/// * [`VisitedMode::Fingerprint`] (the default) stores only a 64-bit
///   hash of each state in the visited set. Two distinct states with
///   the same fingerprint are conflated, so a collision can only make
///   the explorer **miss** reachable states (an under-approximation) —
///   it never invents unreachable ones, so every state and trace in
///   the graph is still genuine. With `n` distinct states the
///   probability of any collision is about `n² / 2⁶⁵` (birthday
///   bound): ≈ 3 × 10⁻⁸ at a million states. This mirrors TLC, which
///   has run on this design for twenty-five years.
/// * [`VisitedMode::Exact`] uses the same fingerprint index but
///   verifies every hit against the arena — the candidate's packed
///   row, in RAM or read back from its disk record — and records a
///   state that differs from every id under its fingerprint as new: no
///   two states are ever conflated, at the cost of writing and
///   comparing each successor's row. Use it when a run must be collision-free by
///   construction (e.g. when a check's verdict feeds a proof).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VisitedMode {
    /// 64-bit fingerprints in the visited set (fast; collisions
    /// under-approximate with probability ≈ n²/2⁶⁵).
    #[default]
    Fingerprint,
    /// Fingerprint hits verified against the arena (slower; exact).
    Exact,
}

/// Options controlling exploration.
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Abort with [`CheckError::TooManyStates`] beyond this many
    /// reachable states. Default 1 000 000.
    pub max_states: usize,
    /// Visited-set representation. Default
    /// [`VisitedMode::Fingerprint`].
    pub mode: VisitedMode,
    /// Worker threads. `None` (the default) consults the
    /// `OPENTLA_EXPLORE_THREADS` environment variable, falling back to
    /// 1 (sequential). Any resolved value above 1 routes a run without
    /// a memory budget to the work-stealing scheduler; budgeted runs are
    /// sequential at any value.
    ///
    /// A certificate (`opentla::compose`) reads the same request, off
    /// [`Exploration::requested_threads`], for its obligation checks:
    /// they run on two lanes unless it is exactly 1, the machine has one
    /// hardware thread, or the budget records events — a recorded
    /// certificate keeps one lane, so its stream stays one nested
    /// sequence. The certificate is the same either way.
    pub threads: Option<usize>,
    /// Fingerprint width in bits, 1..=64 (default 64). Values below 64
    /// mask the fingerprint, deliberately *forcing* collisions — a test
    /// knob for exercising the under-approximation and the
    /// [`VisitedMode::Exact`] fallback; production runs should leave
    /// this at 64.
    pub fp_bits: u32,
    /// Fault-injection knob for the work-stealing scheduler's panic
    /// isolation: when set, exactly one worker deliberately panics
    /// mid-expansion (see [`WorkerPanic`]). The run must survive
    /// degraded — this exists so tests can prove it does. `None` (the
    /// default) injects nothing; the sequential loops (every budgeted
    /// run's among them) ignore it.
    pub worker_panic: Option<WorkerPanic>,
    /// Forces a plan. The default [`Engine::Auto`] derives it from
    /// what the run asks for — threads and memory budget (see the
    /// module docs); the other values pin a plan whatever the thread
    /// count says. A memory budget runs the disk-backed sequential plan
    /// under every value.
    pub engine: Engine,
    /// Approximate RAM ceiling, in bytes, for the exploration's state
    /// arena, edge lists, and visited set. Setting it (or exporting
    /// `OPENTLA_MEM_BUDGET`) routes the run to the bounded-memory plan,
    /// [`Engine::SpillBfs`], at one worker whatever [`Self::threads`]
    /// says: it spills sealed arena segments and sorted fingerprint
    /// runs to disk and keeps only a budget-sized working set in RAM.
    /// `None` (the default) keeps everything in RAM; an explicit spill
    /// engine with `None` uses a generous default budget.
    pub mem_budget_bytes: Option<usize>,
}

/// Forces an exploration plan; see [`ExploreOptions::engine`].
///
/// One caveat holds for the work-stealing plan: it interns
/// first-insert-wins under a stripe lock, so under *forced*
/// fingerprint collisions (a narrowed [`ExploreOptions::fp_bits`] in
/// [`VisitedMode::Fingerprint`]) which member of a collision class
/// survives depends on worker scheduling at two or more workers.
/// [`VisitedMode::Exact`] is deterministic at every worker count, and
/// so is fingerprint mode at one worker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Derive the plan from threads and memory budget.
    #[default]
    Auto,
    /// The work-stealing scheduler over packed state buffers in RAM,
    /// at any thread count: per-worker deques, quiescence-based
    /// termination, one canonical renumbering post-pass. Produces
    /// graphs byte-identical to the sequential loop. With a memory
    /// budget in force the run is [`Engine::SpillBfs`]'s.
    WorkStealing,
    /// The bounded-memory sequential plan: same BFS order and charge
    /// discipline as the in-RAM sequential loop, but the state arena
    /// and edge lists live in an append-only disk-backed segment store
    /// (read back through an LRU cache) and the visited set spills
    /// sorted fingerprint runs once its hot tier fills. Completed
    /// graphs are byte-identical to the sequential loop's in both
    /// [`VisitedMode`]s. Selecting it explicitly forces the spill path
    /// even without a [`ExploreOptions::mem_budget_bytes`] budget.
    SpillBfs,
    /// The same plan as [`Engine::SpillBfs`], at one worker whatever
    /// [`ExploreOptions::threads`] says: one disk-backed store serves
    /// every budgeted run.
    SpillWs,
}

/// Instructs one work-stealing worker to panic mid-expansion — test
/// instrumentation for the scheduler's panic isolation (see
/// [`ExploreOptions::worker_panic`]). The victim is whichever worker
/// makes the first claim past `after_claims`, counted run-wide across
/// all workers (a fire-once flag guarantees exactly one panic per
/// run). The panic fires inside the successor callback, *after* at
/// least one edge of the current parent was recorded, so it exercises
/// the scheduler's roll-back-and-requeue recovery rather than a clean
/// boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The panic arms once this many parents have been claimed
    /// run-wide (0 = panic during the first claimed parent).
    pub after_claims: u64,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_states: 1_000_000,
            mode: VisitedMode::Fingerprint,
            threads: None,
            fp_bits: 64,
            worker_panic: None,
            engine: Engine::Auto,
            mem_budget_bytes: None,
        }
    }
}

impl ExploreOptions {
    fn mask(&self) -> u64 {
        fp_mask(self.fp_bits)
    }
}

fn fp_mask(fp_bits: u32) -> u64 {
    if fp_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << fp_bits.max(1)) - 1
    }
}

/// A (possibly partial) exploration: the graph built so far, how the
/// run ended, and — when the budget ran out — the BFS frontier still
/// waiting to be expanded.
///
/// Dereferences to its [`StateGraph`], so invariant checks and trace
/// reconstruction work on partial explorations unchanged.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// The reachability graph built within budget. On a
    /// [`Outcome::Complete`] run this is the full reachable graph.
    pub graph: StateGraph,
    /// Whether the run covered the whole reachable space.
    pub outcome: Outcome,
    /// State indices discovered but not yet expanded when the run
    /// stopped (empty on complete runs). Edges out of these states are
    /// missing from `graph`. The sequential engine reports them in BFS
    /// queue order; multi-worker parallel runs in ascending index
    /// order.
    pub frontier: Vec<usize>,
    /// The run's resumable core, when it exhausted its budget at a
    /// resumable point (`None` on complete runs, and on runs cut off
    /// during initial-state enumeration — a partial init enumeration
    /// cannot be resumed soundly). This is the same snapshot an active
    /// [`Budget::with_checkpoint`] writes to disk;
    /// [`explore_escalating`] hands it straight back to the next
    /// attempt, in memory.
    pub snapshot: Option<Box<Snapshot>>,
    /// See [`Exploration::requested_threads`].
    requested_threads: Option<usize>,
}

impl Exploration {
    /// The workers this run was asked for — [`ExploreOptions::threads`],
    /// else `OPENTLA_EXPLORE_THREADS`, at least 1 — as its plan read
    /// them, whatever route it took: a budgeted run reports the request
    /// though it ran one worker. `None` when neither says. A caller
    /// that fans out work over the explored graph sizes it by this
    /// rather than reading the environment again.
    pub fn requested_threads(&self) -> Option<usize> {
        self.requested_threads
    }
}

impl std::ops::Deref for Exploration {
    type Target = StateGraph;

    fn deref(&self) -> &StateGraph {
        &self.graph
    }
}

impl Governed for Exploration {
    fn exhaustion(&self) -> Option<&ExhaustReason> {
        self.outcome.exhaustion()
    }
}

/// Explores the reachable states of a system breadth-first under a
/// resource [`Budget`].
///
/// Budget exhaustion is **not** an error: the result carries the
/// partial [`StateGraph`] (every state and edge recorded is genuinely
/// reachable), an [`Outcome::Exhausted`] tag with the reason and
/// statistics, and the unexpanded BFS frontier. Unique states are
/// counted once, at insertion — the initial-state loop and the
/// successor loop charge the same meter, so the limit trips at exactly
/// `max_states` regardless of where the frontier stood.
///
/// Uses default [`ExploreOptions`] (fingerprinted visited set;
/// `OPENTLA_EXPLORE_THREADS` consulted for the engine); see
/// [`explore_governed_with`] for full control.
///
/// # Errors
///
/// * [`CheckError::NoInitialStates`] if the initial specification is
///   empty;
/// * [`CheckError::Precondition`] if `OPENTLA_EXPLORE_THREADS` or
///   `OPENTLA_MEM_BUDGET` is set to anything but a positive integer;
/// * evaluation/domain errors from firing actions.
pub fn explore_governed(system: &System, budget: &Budget) -> Result<Exploration, CheckError> {
    explore_governed_with(system, budget, &ExploreOptions::default())
}

/// [`explore_governed`] with explicit [`ExploreOptions`] (visited-set
/// mode, thread count, fingerprint width). `options.max_states` is
/// ignored here — the budget governs.
///
/// # Errors
///
/// As [`explore_governed`].
pub fn explore_governed_with(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
) -> Result<Exploration, CheckError> {
    explore_observed(system, budget, options, &Plan::from_env(options)?, None)
}

/// Crash-tolerant exploration: continues from the snapshot at the
/// budget's [`CheckpointSpec`](crate::CheckpointSpec) path if one
/// exists, and starts a fresh (checkpointed) run otherwise — so the
/// *same call* works before and after an interruption, TLC
/// `-recover`-style.
///
/// The resumed run re-expands only the snapshot's frontier: O(new
/// work), not O(total). Its cumulative state/transition totals (the
/// meter is pre-charged with the snapshot's banked work) and — once
/// complete — its [`StateGraph`] are byte-identical to an
/// uninterrupted run's.
///
/// Nothing is cleaned up on completion: a run that *completes* leaves
/// its last periodic snapshot at the path (none if it was shorter than
/// the cadence) and, when the sequential store went to disk, its whole
/// `<path>.segs` directory. A further call with the same path resumes
/// from that snapshot and re-expands its tail to the same graph;
/// remove both to start over.
///
/// # Errors
///
/// * [`CheckError::Precondition`] if the budget has no
///   [`Budget::with_checkpoint`] spec;
/// * [`CheckError::Checkpoint`] if the snapshot file exists but is
///   corrupt, truncated, of an unsupported version, or was taken under
///   a different system or configuration;
/// * otherwise as [`explore_governed`].
pub fn explore_resumable(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
) -> Result<Exploration, CheckError> {
    let Some(spec) = &budget.checkpoint else {
        return Err(CheckError::Precondition {
            message: "explore_resumable requires a budget with a checkpoint spec \
                      (Budget::with_checkpoint)"
                .into(),
        });
    };
    if spec.path.exists() {
        let snap = Snapshot::load(&spec.path)?;
        resume_exploration(system, budget, options, &snap)
    } else {
        explore_governed_with(system, budget, options)
    }
}

/// Continues an exploration from an in-memory [`Snapshot`] (use
/// [`explore_resumable`] for the load-from-disk path).
///
/// The snapshot is validated first: resuming under a different system,
/// fingerprint width or [`VisitedMode`] is refused with a typed error
/// rather than silently producing a wrong graph, and so is a state
/// outside the system's domains. Any engine may resume any snapshot —
/// thread count is not pinned, because the parallel engine's canonical
/// renumbering makes the result independent of it.
///
/// # Errors
///
/// * [`CheckError::Checkpoint`] with
///   [`CheckpointError::Mismatch`](crate::CheckpointError::Mismatch)
///   if the snapshot does not match `system` / `options`;
/// * otherwise as [`explore_governed`].
pub fn resume_exploration(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    snapshot: &Snapshot,
) -> Result<Exploration, CheckError> {
    snapshot.validate(system, options)?;
    let plan = Plan::from_env(options)?;
    explore_observed(system, budget, options, &plan, Some(snapshot))
}

/// [`escalate`](crate::escalate) specialized to exploration, with the
/// retries *resuming* instead of restarting: each exhausted attempt
/// leaves its frontier in [`Exploration::snapshot`], and the next
/// attempt (under a `factor`-times larger budget) continues from
/// exactly there. Total work across all attempts is therefore O(final
/// state space), not O(attempts × state space) — the quadratic
/// throwaway of restart-based escalation is gone.
///
/// Returns the first complete result, or the last partial one if every
/// attempt exhausted. Attempts cut off during initial-state
/// enumeration restart (there is nothing sound to resume).
///
/// # Errors
///
/// As [`explore_governed`].
pub fn explore_escalating(
    system: &System,
    budget: &Budget,
    factor: u32,
    attempts: usize,
    options: &ExploreOptions,
) -> Result<Exploration, CheckError> {
    let plan = Plan::from_env(options)?;
    let mut current = budget.clone();
    let mut result = explore_observed(system, &current, options, &plan, None)?;
    for _ in 1..attempts.max(1) {
        if result.outcome.is_complete() {
            break;
        }
        current = current.escalated(factor);
        let snap = result.snapshot.take();
        result = explore_observed(system, &current, options, &plan, snap.as_deref())?;
    }
    Ok(result)
}

/// Runs the plan: its loop over its store.
fn explore_dispatch(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    plan: &Plan,
    launch: Result<Start<'_>, CheckError>,
) -> Result<Exploration, CheckError> {
    let Start { seed, layout } = launch?;
    let explored = if plan.route != Route::WorkStealing {
        let mem_budget = plan.route.mem_budget();
        seq::explore_seq(system, budget, options, mem_budget, seed, &layout)
    } else {
        let run = ws::Run {
            options,
            threads: plan.threads,
            layout: &layout,
            meter: seed.meter(budget),
        };
        ws::explore_ws(system, budget, &run, seed, &stripes::Store::new(&run))
    };
    explored.map(|run| Exploration {
        requested_threads: plan.requested,
        ..run
    })
}

/// Brackets an engine dispatch in [`Event::RunStart`] /
/// [`Event::RunEnd`] when the budget carries an enabled recorder,
/// emitting a final *exact* progress snapshot (from the finished
/// graph's statistics, so it agrees with the report by construction)
/// and the schema-versioned [`RunReport`]. With the default null
/// recorder this is a single branch.
fn explore_observed(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    plan: &Plan,
    resume: Option<&Snapshot>,
) -> Result<Exploration, CheckError> {
    // Engines resume from a graph in RAM. A manifest — a loaded file,
    // or the disk-backed store's hand-over to the next escalation
    // attempt — is records, some of them in segment files on disk:
    // read them back once, here.
    let resume = resume.map(|snap| snap.materialize(system)).transpose()?;
    let resume = resume.as_deref();
    // Outside the report's clock, as it is outside the meter's.
    let launch = Start::of(system, resume);
    let rec = budget.recorder.clone();
    if !rec.enabled() {
        return explore_dispatch(system, budget, options, plan, launch);
    }
    let engine = plan.label();
    let threads = plan.threads;
    let mode = match options.mode {
        VisitedMode::Fingerprint => "fingerprint",
        VisitedMode::Exact => "exact",
    };
    rec.record(&Event::RunStart {
        engine,
        threads,
        mode,
    });
    if let Some(snap) = resume {
        rec.record(&Event::Resume {
            seq: snap.seq,
            states: snap.states_used() as u64,
            transitions: snap.transitions_used() as u64,
            frontier: snap.frontier_len() as u64,
        });
    }
    let start = std::time::Instant::now();
    let result = explore_dispatch(system, budget, options, plan, launch);
    let report = match &result {
        Ok(run) => {
            let stats = run.graph.stats();
            rec.record(&Event::Progress {
                snapshot: ProgressSnapshot {
                    states: stats.states as u64,
                    transitions: stats.transitions as u64,
                    elapsed_nanos: start.elapsed().as_nanos() as u64,
                    frontier: Some(run.frontier.len() as u64),
                    ..ProgressSnapshot::default()
                },
            });
            RunReport {
                schema_version: OBS_SCHEMA_VERSION,
                engine: engine.to_string(),
                threads,
                mode: mode.to_string(),
                states: stats.states,
                transitions: stats.transitions,
                depth: stats.depth,
                deadlocks: stats.deadlocks,
                outcome: run.outcome.to_string(),
                complete: run.outcome.is_complete(),
                duration_nanos: start.elapsed().as_nanos() as u64,
            }
        }
        Err(e) => RunReport {
            schema_version: OBS_SCHEMA_VERSION,
            engine: engine.to_string(),
            threads,
            mode: mode.to_string(),
            states: 0,
            transitions: 0,
            depth: 0,
            deadlocks: 0,
            outcome: format!("error: {e}"),
            complete: false,
            duration_nanos: start.elapsed().as_nanos() as u64,
        },
    };
    rec.record(&Event::RunEnd { report: &report });
    result
}

/// Explores the reachable states of a system breadth-first.
///
/// This is the all-or-nothing interface: exceeding
/// `options.max_states` is reported as an error. Callers who want the
/// partial graph (and finer-grained limits) should use
/// [`explore_governed`].
///
/// # Errors
///
/// * [`CheckError::NoInitialStates`] if the initial specification is
///   empty;
/// * [`CheckError::TooManyStates`] beyond `options.max_states`;
/// * evaluation/domain errors from firing actions.
pub fn explore(system: &System, options: &ExploreOptions) -> Result<StateGraph, CheckError> {
    let run = explore_governed_with(
        system,
        &Budget::default().states(options.max_states),
        options,
    )?;
    match run.outcome {
        Outcome::Complete => Ok(run.graph),
        Outcome::Exhausted { .. } => Err(CheckError::TooManyStates {
            limit: options.max_states,
        }),
    }
}

/// Builds the final in-RAM snapshot of an exhausted run (shared by
/// every engine): `keep`/`frontier` follow the engine's cut
/// discipline, and the snapshot is written to disk when a checkpoint
/// spec is active.
fn seq_exhaustion_snapshot(
    ck: &mut Checkpointer,
    recorder: &RecorderHandle,
    graph: &StateGraph,
    keep: usize,
    frontier: &[usize],
    header: RunHeader,
) -> (Option<Box<Snapshot>>, Option<ResumeToken>) {
    let snap = checkpoint::capture(graph, keep, frontier, header);
    let token = if ck.active() {
        ck.write(snap.clone(), recorder)
    } else {
        None
    };
    (Some(Box::new(snap)), token)
}

// ---------------------------------------------------------------------
// The work-stealing engine's provisional ids, canonical replay and
// rollback cut
// ---------------------------------------------------------------------

/// Provisional state id used during parallel exploration:
/// `stripe << 32 | index within the stripe's arena`. Renumbering maps
/// these to canonical sequential indices afterwards.
type Pid = u64;

fn pid(shard: usize, local: usize) -> Pid {
    ((shard as u64) << 32) | local as u64
}

fn shard_of(p: Pid) -> usize {
    (p >> 32) as usize
}

fn local_of(p: Pid) -> usize {
    (p & 0xffff_ffff) as usize
}

/// The canonical replay of a parallel run's edge records, shared by
/// the final renumbering pass and mid-run checkpoint captures.
///
/// Replaying the BFS sequentially over the recorded per-parent edge
/// runs reproduces the sequential engine's discovery order exactly:
/// init enumeration order first, then children in (parent BFS order ×
/// action order) — so ids, edges, parents, and traces coincide with a
/// sequential run's. `canon[shard][local]` maps pids to canonical ids
/// (`u32::MAX` = unreachable from the records, e.g. a child whose
/// recording worker died mid-expansion and whose parent was not
/// re-expanded before the run stopped); `depth` is each state's BFS
/// level, non-decreasing in id order.
struct Replay {
    canon: Vec<Vec<u32>>,
    graph: StateGraph,
    depth: Vec<u32>,
}

impl Replay {
    /// The canonical id of `p`, if the replay reached it.
    fn id_of(&self, p: Pid) -> Option<usize> {
        let c = self.canon[shard_of(p)][local_of(p)];
        (c != u32::MAX).then_some(c as usize)
    }
}

/// Builds the [`Replay`]: the discovery order, fixed over pids alone,
/// then the graph, which takes each state's row under `layout` from
/// `row_of`, as the stripes hold it, in canonical id order.
/// Each parent's run is indexed first: `edge_index[shard][local]` is
/// `(which vector, start, length)`, `u32::MAX` marking "no edges".
/// Every interned state has a recorded incoming edge (interning and
/// edge-recording are adjacent in the worker, and a panicked worker's
/// truncated records are re-recorded when its parent is re-expanded)
/// or is initial, so the replay reaches every interned state of a
/// complete run.
fn replay_records<'r>(
    arena_lens: &[usize],
    all_edges: &[Vec<ws::EdgeRecord>],
    init_pids: &[Pid],
    layout: &Arc<PackedLayout>,
    row_of: impl Fn(Pid) -> &'r [u8],
) -> Replay {
    const NO_RUN: (u32, u32, u32) = (u32::MAX, 0, 0);
    let mut edge_index: Vec<Vec<(u32, u32, u32)>> =
        arena_lens.iter().map(|&n| vec![NO_RUN; n]).collect();
    for (vi, recs) in all_edges.iter().enumerate() {
        let mut i = 0;
        while i < recs.len() {
            let parent = recs[i].0;
            let mut j = i + 1;
            while j < recs.len() && recs[j].0 == parent {
                j += 1;
            }
            edge_index[shard_of(parent)][local_of(parent)] = (vi as u32, i as u32, (j - i) as u32);
            i = j;
        }
    }
    let run_of = |p: Pid| {
        let (vi, start, len) = edge_index[shard_of(p)][local_of(p)];
        match vi {
            u32::MAX => &[][..],
            _ => &all_edges[vi as usize][start as usize..(start + len) as usize],
        }
    };

    let mut canon: Vec<Vec<u32>> = arena_lens.iter().map(|&n| vec![u32::MAX; n]).collect();
    let mut depth: Vec<u32> = vec![0; init_pids.len()];
    // The pids in canonical id order — also the BFS queue, `next` its
    // head — and how each was discovered.
    let mut order: Vec<Pid> = init_pids.to_vec();
    let mut from: Vec<Option<(u32, u32)>> = vec![None; init_pids.len()];
    for (id, &p) in init_pids.iter().enumerate() {
        canon[shard_of(p)][local_of(p)] = id as u32;
    }
    let mut next = 0;
    while let Some(&p) = order.get(next) {
        for &(_, action, child) in run_of(p) {
            let slot = &mut canon[shard_of(child)][local_of(child)];
            if *slot == u32::MAX {
                *slot = order.len() as u32;
                order.push(child);
                from.push(Some((next as u32, action)));
                depth.push(depth[next] + 1);
            }
        }
        next += 1;
    }

    let mut graph = StateGraph::with_capacity(Arc::clone(layout), order.len());
    for (from, &p) in from.into_iter().zip(&order) {
        let parent = from.map(|(id, action)| (id as usize, action as usize));
        graph
            .push_state(row_of(p), parent)
            .expect("a replayed state is discovered from an earlier one");
    }
    let mut list: Vec<Edge> = Vec::new();
    for (id, &p) in order.iter().enumerate() {
        list.clear();
        list.extend(run_of(p).iter().map(|&(_, action, child)| Edge {
            action: action as usize,
            target: canon[shard_of(child)][local_of(child)] as usize,
        }));
        graph
            .set_edges(id, &list)
            .expect("the replay fills rows in id order");
    }
    Replay {
        canon,
        graph,
        depth,
    }
}

/// The deepest consistent level-boundary rollback of a stopped or
/// paused work-stealing run: given the canonical replay and the
/// discovered-but-unexpanded pids, returns
/// `(keep, frontier_ids)` for [`checkpoint::capture`]. The cut level L
/// is the shallowest pending state's depth — everything above L is
/// fully expanded, and the frontier is *all* of level L (replay depth
/// is non-decreasing in canonical id order, so that is an id range
/// landing on the arena's tail, exactly the cut the resume paths
/// expect). Pending pids unreachable in the replay are ignored; with
/// no reachable pending state at all, the whole graph is kept with an
/// empty frontier.
fn rollback_cut(replay: &Replay, pending: &[Pid]) -> (usize, Vec<usize>) {
    let depth = &replay.depth;
    let cut = pending.iter().filter_map(|&p| replay.id_of(p)).min();
    match cut.map(|id| depth[id]) {
        None => (replay.graph.len(), Vec::new()),
        Some(l) => {
            let keep = depth.partition_point(|&d| d <= l);
            let first = depth.partition_point(|&d| d < l);
            (keep, (first..keep).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GuardedAction, Init};
    use opentla_kernel::{Domain, Expr, Value, Vars};
    use std::sync::Arc;

    fn counter(max: i64) -> System {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, max));
        let incr = GuardedAction::new(
            "incr",
            Expr::var(x).lt(Expr::int(max)),
            vec![(x, Expr::var(x).add(Expr::int(1)))],
        );
        System::new(vars, Init::new([(x, Value::Int(0))]), vec![incr])
    }

    /// A branching system: two counters stepped independently — enough
    /// breadth for the parallel engine to actually fan out.
    fn grid(max: i64) -> System {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, max));
        let y = vars.declare("y", Domain::int_range(0, max));
        let step_x = GuardedAction::new(
            "step_x",
            Expr::var(x).lt(Expr::int(max)),
            vec![(x, Expr::var(x).add(Expr::int(1)))],
        );
        let step_y = GuardedAction::new(
            "step_y",
            Expr::var(y).lt(Expr::int(max)),
            vec![(y, Expr::var(y).add(Expr::int(1)))],
        );
        System::new(
            vars,
            Init::new([(x, Value::Int(0)), (y, Value::Int(0))]),
            vec![step_x, step_y],
        )
    }

    #[test]
    fn explores_chain() {
        let graph = explore(&counter(5), &ExploreOptions::default()).unwrap();
        assert_eq!(graph.len(), 6);
        assert_eq!(graph.edge_count(), 5);
        assert_eq!(graph.init(), &[0]);
        assert!(!graph.is_empty());
    }

    #[test]
    fn trace_reconstruction() {
        let graph = explore(&counter(5), &ExploreOptions::default()).unwrap();
        let last = graph.len() - 1;
        let trace = graph.trace_to(last);
        assert_eq!(trace.len(), 6);
        assert_eq!(trace[0].0, None);
        assert!(trace[1..].iter().all(|(a, _)| a.is_some()));
    }

    #[test]
    fn state_limit_enforced() {
        let opts = ExploreOptions {
            max_states: 3,
            ..ExploreOptions::default()
        };
        assert!(matches!(
            explore(&counter(10), &opts),
            Err(CheckError::TooManyStates { limit: 3 })
        ));
    }

    #[test]
    fn no_initial_states() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        let sys = System::new(
            vars,
            Init::new([]).with_constraint(Expr::var(x).eq(Expr::int(7))),
            vec![],
        );
        assert!(matches!(
            explore(&sys, &ExploreOptions::default()),
            Err(CheckError::NoInitialStates)
        ));
        for engine in [Engine::Auto, Engine::WorkStealing, Engine::SpillWs] {
            let parallel = ExploreOptions {
                threads: Some(2),
                engine,
                ..ExploreOptions::default()
            };
            assert!(matches!(
                explore(&sys, &parallel),
                Err(CheckError::NoInitialStates)
            ));
        }
    }

    #[test]
    fn toggle_graph_and_paths() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        let toggle = GuardedAction::new(
            "toggle",
            Expr::bool(true),
            vec![(x, Expr::int(1).sub(Expr::var(x)))],
        );
        let sys = System::new(vars, Init::new([(x, Value::Int(0))]), vec![toggle]);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert_eq!(graph.len(), 2);
        // The initial state is its own trace; state 1 is one toggle
        // away from it.
        assert_eq!(graph.trace_to(0), vec![(None, 0)]);
        assert_eq!(graph.trace_to(1), vec![(None, 0), (Some(0), 1)]);
    }

    #[test]
    fn deadlocks_and_stats() {
        let graph = explore(&counter(5), &ExploreOptions::default()).unwrap();
        // Only x = 5 is terminal.
        assert_eq!(graph.deadlocks().len(), 1);
        let stats = graph.stats();
        assert_eq!(stats.states, 6);
        assert_eq!(stats.transitions, 5);
        assert_eq!(stats.deadlocks, 1);
        assert_eq!(stats.depth, 5);
        let text = stats.to_string();
        assert!(
            text.contains("6 states") && text.contains("depth 5"),
            "{text}"
        );
    }

    #[test]
    fn governed_exploration_returns_partial_graph() {
        // Acceptance: max_states = 3 still yields a usable partial
        // graph with readable stats, instead of an all-or-nothing Err.
        let run = explore_governed(&counter(10), &Budget::default().states(3)).unwrap();
        assert_eq!(run.graph.len(), 3);
        let stats = run.stats(); // through Deref
        assert_eq!(stats.states, 3);
        assert_eq!(stats.transitions, 2);
        match &run.outcome {
            Outcome::Exhausted {
                reason,
                frontier_size,
                stats,
                ..
            } => {
                assert_eq!(*reason, ExhaustReason::StateLimit { limit: 3 });
                assert_eq!(*frontier_size, run.frontier.len());
                assert_eq!(stats.states, 3);
            }
            Outcome::Complete => panic!("3 states cannot cover counter(10)"),
        }
        // Every recorded state is genuinely reachable and traceable.
        for id in 0..run.graph.len() {
            assert!(!run.trace_to(id).is_empty());
        }
        // The half-expanded state is on the frontier, not silently lost.
        assert!(!run.frontier.is_empty());
    }

    #[test]
    fn both_charge_sites_agree_on_unique_state_counting() {
        // A system whose *initial* enumeration already exceeds the
        // limit: the init loop and the successor loop must trip at the
        // same effective limit (unique insertions, not enumerations).
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, 7));
        let sys = System::new(vars, Init::new([]), vec![]);
        let run = explore_governed(&sys, &Budget::default().states(5)).unwrap();
        assert_eq!(run.graph.len(), 5);
        assert_eq!(
            run.outcome.exhaustion(),
            Some(&ExhaustReason::StateLimit { limit: 5 })
        );
        let _ = x;

        // Exactly at the limit: complete, not exhausted.
        let run = explore_governed(&counter(4), &Budget::default().states(5)).unwrap();
        assert!(run.outcome.is_complete());
        assert_eq!(run.graph.len(), 5);
        assert!(run.frontier.is_empty());
    }

    #[test]
    fn transition_budget_requeues_interrupted_state() {
        let run = explore_governed(&counter(10), &Budget::default().transitions(2)).unwrap();
        assert_eq!(run.graph.edge_count(), 2);
        assert!(matches!(
            run.outcome.exhaustion(),
            Some(ExhaustReason::TransitionLimit { limit: 2 })
        ));
        // The state whose expansion was cut short is on the frontier.
        assert!(!run.frontier.is_empty());
    }

    #[test]
    fn cancelled_budget_stops_immediately() {
        let budget = Budget::default();
        budget.request_cancel();
        let run = explore_governed(&counter(10), &budget).unwrap();
        assert!(matches!(
            run.outcome.exhaustion(),
            Some(ExhaustReason::Cancelled)
        ));
    }

    #[test]
    fn escalate_reaches_completion() {
        let run = crate::escalate(&Budget::default().states(2), 4, 3, |b| {
            explore_governed(&counter(9), b)
        })
        .unwrap();
        assert!(run.outcome.is_complete());
        assert_eq!(run.graph.len(), 10);
    }

    #[test]
    fn duplicate_init_states_deduplicated() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        // Free variable x, no constraint: two initial states; plus a
        // second enumeration of the same pinned one must not duplicate.
        let sys = System::new(vars, Init::new([]), vec![]);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert_eq!(graph.len(), 2);
        assert_eq!(graph.init().len(), 2);
        assert_ne!(graph.state(0), graph.state(1));
        let _ = x;
    }

    #[test]
    fn exact_mode_matches_fingerprint_mode() {
        let fp = explore(&grid(4), &ExploreOptions::default()).unwrap();
        let exact = explore(
            &grid(4),
            &ExploreOptions {
                mode: VisitedMode::Exact,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(fp.first_difference(&exact), None);
    }

    #[test]
    fn parallel_matches_sequential_byte_for_byte() {
        for threads in [1, 2, 4] {
            let seq = explore(&grid(4), &ExploreOptions::default()).unwrap();
            let par = explore(
                &grid(4),
                &ExploreOptions {
                    threads: Some(threads),
                    ..ExploreOptions::default()
                },
            )
            .unwrap();
            assert_eq!(seq.first_difference(&par), None, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_governed_exhaustion_is_honest() {
        let run = explore_governed_with(
            &grid(6),
            &Budget::default().states(10),
            &ExploreOptions {
                threads: Some(3),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(run.graph.len(), 10);
        assert!(matches!(
            run.outcome.exhaustion(),
            Some(ExhaustReason::StateLimit { limit: 10 })
        ));
        // Every recorded state is reachable and traceable; the
        // frontier holds real, in-graph indices.
        for id in 0..run.graph.len() {
            assert!(!run.trace_to(id).is_empty());
        }
        for &f in &run.frontier {
            assert!(f < run.graph.len());
        }
        assert!(!run.frontier.is_empty());
    }

    #[test]
    fn forced_collisions_underapproximate_and_exact_mode_recovers() {
        // 1-bit fingerprints conflate almost everything: the explorer
        // must *under*-approximate (strictly fewer states, no invented
        // ones), and exact mode must restore the full count.
        let full = explore(&grid(4), &ExploreOptions::default()).unwrap();
        let collided = explore(
            &grid(4),
            &ExploreOptions {
                fp_bits: 1,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert!(collided.len() < full.len());
        assert!(collided.len() <= 2);
        // Every state the collided run kept is genuinely reachable.
        for s in collided.states() {
            assert!(full.states().contains(s));
        }
        let exact = explore(
            &grid(4),
            &ExploreOptions {
                fp_bits: 1,
                mode: VisitedMode::Exact,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(exact.len(), full.len());
    }

    /// Collects what the routing tests look at: the engine label and
    /// worker count of every `RunStart` and of every run report.
    #[derive(Default)]
    struct RoutingLog {
        started: Mutex<Vec<(String, usize)>>,
        reported: Mutex<Vec<(String, usize)>>,
    }

    impl crate::obs::Recorder for RoutingLog {
        fn record(&self, event: &Event<'_>) {
            match *event {
                Event::RunStart {
                    engine, threads, ..
                } => lock(&self.started).push((engine.to_string(), threads)),
                Event::RunEnd { report } => {
                    lock(&self.reported).push((report.engine.clone(), report.threads))
                }
                _ => {}
            }
        }
    }

    /// Runs `options` under the plan resolved against a *given*
    /// environment — the process environment is never consulted, so
    /// the CI legs that export the overrides see the same routing.
    fn run_planned(
        options: &ExploreOptions,
        env_budget: Option<usize>,
    ) -> (Plan, Arc<RoutingLog>, Result<Exploration, CheckError>) {
        let log = Arc::new(RoutingLog::default());
        let budget = Budget::default().with_recorder(RecorderHandle::new(log.clone()));
        let plan = Plan::resolve(options, None, env_budget);
        let run = explore_observed(&grid(3), &budget, options, &plan, None);
        (plan, log, run)
    }

    /// `RunStart` and the run report name the plan that ran and the
    /// workers it ran — not the workers that were asked for — and every
    /// plan builds the sequential graph.
    #[test]
    fn run_start_names_the_plan() {
        let with = |engine, threads| ExploreOptions {
            engine,
            threads: Some(threads),
            ..ExploreOptions::default()
        };
        let reference = explore(&grid(3), &with(Engine::Auto, 1)).unwrap();
        let check = |options: &ExploreOptions, env_budget, route, label: &str, workers| {
            let what = format!(
                "{:?} threads={:?} explicit={:?} env={env_budget:?}",
                options.engine, options.threads, options.mem_budget_bytes
            );
            let (plan, log, run) = run_planned(options, env_budget);
            assert_eq!((plan.route, plan.label()), (route, label), "{what}");
            let ran = [(label.to_string(), workers)];
            assert_eq!(*lock(&log.started), ran, "{what}: run_start");
            assert_eq!(*lock(&log.reported), ran, "{what}: run report");
            let graph = run.unwrap().graph;
            assert_eq!(graph.first_difference(&reference), None, "{what}");
        };
        let sequential = (Route::Sequential, "explore_sequential");
        let parallel = (Route::WorkStealing, "explore_parallel_ws");
        for (engine, threads, (route, label), workers) in [
            (Engine::Auto, 1, sequential, 1),
            (Engine::Auto, 2, parallel, 2),
            (Engine::WorkStealing, 1, parallel, 1),
            (Engine::WorkStealing, 4, parallel, 4),
        ] {
            check(&with(engine, threads), None, route, label, workers);
        }
        // A memory budget, from the option or the environment, runs the
        // one disk-backed store at one worker under every engine and at
        // every thread count.
        let spill = Route::SpillBfs {
            mem_budget: 1 << 20,
        };
        for engine in [
            Engine::Auto,
            Engine::WorkStealing,
            Engine::SpillBfs,
            Engine::SpillWs,
        ] {
            for threads in [1, 2, 4] {
                for (explicit, env) in [(Some(1 << 20), None), (None, Some(1 << 20))] {
                    let options = ExploreOptions {
                        mem_budget_bytes: explicit,
                        ..with(engine, threads)
                    };
                    check(&options, env, spill, "explore_spill", 1);
                }
            }
        }
    }
}
