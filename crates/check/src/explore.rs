//! Breadth-first state-space exploration.
//!
//! Every entry point resolves its [`ExploreOptions`] — and the
//! `OPENTLA_EXPLORE_THREADS` / `OPENTLA_MEM_BUDGET` overrides — once
//! into a plan (`plan.rs`): one loop, `seq::explore_seq`, over one
//! store, `seq::Store`, without or with a memory budget.
//!
//! | plan (`RunStart.engine`) | states, edges, dedup index                                      |
//! |--------------------------|-----------------------------------------------------------------|
//! | `explore_sequential`     | `seq::Store`, no budget: a [`StateGraph`], one index            |
//! | `explore_spill`          | `seq::Store`, budgeted: the same until its records fill a       |
//! |                          | segment, then segment files and a two-tier index                |
//!
//! Every run ends in one [`StateGraph`] (`graph.rs`, the only code
//! that knows its layout): the states' packed rows, edges and the BFS
//! tree. The dedup index (`index.rs`) is private to the store and
//! dropped with it.
//!
//! The routing rule: a memory budget, or an explicit spill [`Engine`]
//! under a default one, picks the second row; otherwise the first.
//!
//! The loop runs in two stages over batches of consecutive parents,
//! on either store: a **stepper** writes each parent's successors —
//! action, effects, child fingerprint — and an **interner**, which
//! owns the store, the budget's meter, the checkpointer and the
//! recorder, charges, interns and records them parent by parent in id
//! order. At two workers ([`ExploreOptions::threads`]) the stepper
//! runs on a scoped second thread, a few batches ahead, through the
//! effect tables alone, and the caller finishes each batch from the
//! first parent whose step would evaluate; at one it steps each batch
//! on the caller. The interner does the same things
//! in the same order either way, so the worker count changes no id,
//! edge, cut, snapshot or error. The request itself is kept on
//! [`Exploration::requested_threads`] for the callers that fan out
//! work over the finished graph.
//!
//! Every run has one state representation, the packed row of the
//! system's [`PackedLayout`](opentla_kernel::PackedLayout): every
//! declared variable set compiles to one, and every state a run meets
//! lies in its domains — initial states are checked as they are
//! enumerated, successors as they are stepped, resumed states before
//! the loop sees the snapshot, whether read from a file or held in RAM.
//!
//! The loop is plain BFS over the compiled successor stepper
//! ([`crate::CompiledSystem`]), run on packed rows through its effect
//! tables, so both plans build **byte-identical** complete graphs:
//! same state indices, same edge lists, same [`GraphStats`], same
//! counterexample traces.
//!
//! Every plan deduplicates states through a [`VisitedMode`] over one
//! index design, masked fingerprint → first id: **fingerprinting**
//! (the default) trusts a hit, the **exact** fallback verifies it
//! against the arena and chains the ids of genuinely colliding states
//! under their key. See [`VisitedMode`] for the soundness trade-off.

use crate::budget::{Budget, ExhaustReason, Governed, Outcome};
use crate::checkpoint::Snapshot;
use crate::obs::{Event, ProgressSnapshot, RunReport, OBS_SCHEMA_VERSION};
use crate::{CheckError, System};

mod graph;
mod index;
mod plan;
mod seq;
mod spill;

pub use graph::{Edge, GraphStats, RowView, StateGraph};
use plan::{Plan, Start};

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
    /// Worker threads asked for. `None` (the default) consults the
    /// `OPENTLA_EXPLORE_THREADS` environment variable, and when neither
    /// says, the host's hardware threads. Exploration runs on two
    /// workers — successors stepped on a second thread, interned on
    /// the caller — at a count of two or more, and on one, the caller,
    /// at 1 (or 0); a second thread that fails to spawn leaves it on
    /// one. [`Exploration::workers`] says which ran, and the graph is
    /// the same either way. The request is kept on
    /// [`Exploration::requested_threads`].
    ///
    /// A certificate (`opentla::compose`) reads it there for its
    /// obligation checks: they run on two lanes unless it is exactly 1,
    /// the machine has one hardware thread, or the budget records
    /// events — a recorded certificate keeps one lane, so its stream
    /// stays one nested sequence. The certificate is the same either
    /// way.
    pub threads: Option<usize>,
    /// Fingerprint width in bits, 1..=64 (default 64). Values below 64
    /// mask the fingerprint, deliberately *forcing* collisions — a test
    /// knob for exercising the under-approximation and the
    /// [`VisitedMode::Exact`] fallback; production runs should leave
    /// this at 64.
    pub fp_bits: u32,
    /// Forces a plan. The default [`Engine::Auto`] derives it from
    /// the memory budget (see the module docs); the spill values pin
    /// the disk-backed plan. A memory budget runs the disk-backed plan
    /// under every value.
    pub engine: Engine,
    /// Approximate RAM ceiling, in bytes, for the exploration's state
    /// arena, edge lists, and visited set. Setting it (or exporting
    /// `OPENTLA_MEM_BUDGET`) routes the run to the bounded-memory plan,
    /// [`Engine::SpillBfs`]. Its store stays in RAM — the in-RAM run,
    /// touching no file — while the graph and the visited set, counted
    /// as allocated, fit the budget. At the first state or edge list
    /// that would take them past it, the store moves to disk, a block of
    /// the graph at a time, each freed once written: that move holds
    /// about three eighths of the budget beyond it at most — two
    /// segments being filled and one fingerprint run being sorted. From
    /// then on it spills sealed arena segments and sorted fingerprint
    /// runs to disk and keeps only a budget-sized working set in RAM.
    /// `None` (the default) keeps everything in RAM; an explicit spill
    /// engine with `None` uses a generous default budget.
    pub mem_budget_bytes: Option<usize>,
}

/// Forces an exploration plan; see [`ExploreOptions::engine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Derive the plan from the memory budget.
    #[default]
    Auto,
    /// [`Engine::Auto`]'s plan. The name is kept for the benchmark,
    /// which spells it; nothing else distinguishes it.
    WorkStealing,
    /// The bounded-memory plan: same BFS order and charge discipline
    /// as the in-RAM plan, but the state arena and edge lists live in
    /// an append-only disk-backed segment store (read back through an
    /// LRU cache) and the visited set spills sorted fingerprint runs
    /// once its hot tier fills. Completed graphs are byte-identical to
    /// the in-RAM plan's in both [`VisitedMode`]s. Selecting it
    /// explicitly forces the spill path even without a
    /// [`ExploreOptions::mem_budget_bytes`] budget.
    SpillBfs,
    /// [`Engine::SpillBfs`]'s plan. The name is kept for the
    /// benchmark, which spells it; nothing else distinguishes it.
    SpillWs,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_states: 1_000_000,
            mode: VisitedMode::Fingerprint,
            threads: None,
            fp_bits: 64,
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
    /// missing from `graph`, and they are listed in BFS queue order.
    pub frontier: Vec<usize>,
    /// The run's resumable core — its sealed store's manifest, as the
    /// [`Budget::with_checkpoint`] file holds it — when it exhausted its
    /// budget at a resumable point under a spec (`None` otherwise, and
    /// on runs cut off during initial-state enumeration, which cannot be
    /// resumed soundly); [`explore_escalating`] hands it to the next
    /// attempt, in memory.
    pub snapshot: Option<Box<Snapshot>>,
    /// See [`Exploration::requested_threads`].
    requested_threads: Option<usize>,
    /// The workers the run explored on: 1 or 2.
    workers: usize,
}

impl Exploration {
    /// The workers this run was asked for — [`ExploreOptions::threads`],
    /// else `OPENTLA_EXPLORE_THREADS`, at least 1 — as its plan read
    /// them; `None` when neither says. The exploration ran on
    /// [`Exploration::workers`] of them, at most two. A caller that fans
    /// out work over the explored graph sizes it by this rather than
    /// reading the environment again.
    pub fn requested_threads(&self) -> Option<usize> {
        self.requested_threads
    }

    /// The workers the run explored on: 2 when its successors were
    /// stepped on a second thread beside the one interning them, else
    /// 1 (see [`ExploreOptions::threads`]).
    pub fn workers(&self) -> usize {
        self.workers
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
/// `OPENTLA_MEM_BUDGET` gives the run a memory budget, and
/// `OPENTLA_EXPLORE_THREADS` picks its workers); see
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
/// the cadence) and the `<path>.segs` segment directory its store
/// moved to. A further call with the same path resumes from that
/// snapshot and re-expands its tail to the same graph; remove both to
/// start over.
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
/// fingerprint width, [`VisitedMode`] or variable domains is refused
/// with a typed error rather than silently producing a wrong graph.
/// The run then re-opens the store the snapshot describes, where its
/// sealed segments lie, and seals its own after them, so the snapshot
/// resumes again later; no graph is built to resume from. Either plan
/// may resume any snapshot, whatever plan wrote it, and thread count is
/// not pinned.
///
/// # Errors
///
/// * [`CheckError::Checkpoint`] with
///   [`CheckpointError::Mismatch`](crate::CheckpointError::Mismatch)
///   if the snapshot does not match `system` / `options`, or another
///   kind if a segment it references is gone or a record does not check;
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
/// Without a [`Budget::with_checkpoint`] spec the attempts checkpoint,
/// at exhaustion only, to a temporary path removed before this returns,
/// so a partial result carries no snapshot or resume token.
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
    let temp = budget
        .checkpoint
        .is_none()
        .then(|| spill::temp_path("escalate"));
    let mut current = budget.clone();
    if let Some(path) = &temp {
        current = current.with_checkpoint(path, u64::MAX);
    }
    let mut result = explore_observed(system, &current, options, &plan, None);
    for _ in 1..attempts.max(1) {
        let run = match &mut result {
            Ok(run) if !run.outcome.is_complete() => run,
            _ => break,
        };
        current = current.escalated(factor);
        let snap = run.snapshot.take();
        result = explore_observed(system, &current, options, &plan, snap.as_deref());
    }
    if let Some(path) = temp {
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(format!("{}.segs", path.display()));
        if let Ok(run) = &mut result {
            run.snapshot = None;
            if let Outcome::Exhausted { resume, .. } = &mut run.outcome {
                *resume = None;
            }
        }
    }
    result
}

/// Runs the plan: the loop over its store. `started` is told the
/// workers the run has before it records anything — the plan's, when
/// the start itself failed.
fn explore_dispatch(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    plan: &Plan,
    launch: Result<Start<'_>, CheckError>,
    started: impl FnOnce(usize),
) -> Result<Exploration, CheckError> {
    let Start { seed, layout } = match launch {
        Ok(start) => start,
        Err(e) => {
            started(plan.workers);
            return Err(e);
        }
    };
    seq::explore_seq(system, budget, options, plan, seed, &layout, started).map(|run| Exploration {
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
    // Outside the report's clock, as it is outside the meter's.
    let launch = Start::of(system, resume);
    let rec = budget.recorder.clone();
    if !rec.enabled() {
        return explore_dispatch(system, budget, options, plan, launch, |_| {});
    }
    let engine = plan.label();
    let mode = match options.mode {
        VisitedMode::Fingerprint => "fingerprint",
        VisitedMode::Exact => "exact",
    };
    // The workers that ran, as the run says once it has them.
    let mut threads = plan.workers;
    let started = |workers| {
        threads = workers;
        rec.record(&Event::RunStart {
            engine,
            threads: workers,
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
    };
    let start = std::time::Instant::now();
    let result = explore_dispatch(system, budget, options, plan, launch, started);
    let (totals, outcome, complete) = match &result {
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
            let totals = [
                stats.states,
                stats.transitions,
                stats.depth,
                stats.deadlocks,
            ];
            (totals, run.outcome.to_string(), run.outcome.is_complete())
        }
        Err(e) => ([0; 4], format!("error: {e}"), false),
    };
    let [states, transitions, depth, deadlocks] = totals;
    let report = RunReport {
        schema_version: OBS_SCHEMA_VERSION,
        engine: engine.to_string(),
        threads,
        mode: mode.to_string(),
        states,
        transitions,
        depth,
        deadlocks,
        outcome,
        complete,
        duration_nanos: start.elapsed().as_nanos() as u64,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::RecorderHandle;
    use crate::{GuardedAction, Init};
    use opentla_kernel::{Domain, Expr, Value, Vars};
    use std::sync::{Arc, Mutex};

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

    /// A branching system: two counters stepped independently.
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
            let two = ExploreOptions {
                threads: Some(2),
                engine,
                ..ExploreOptions::default()
            };
            assert!(matches!(
                explore(&sys, &two),
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

    /// A graph keeps no parents, so every trace is derived from its
    /// edges. Each trace of a cut graph — at one worker and two, in RAM
    /// and spilled — is the complete graph's; and so is each of the graph
    /// resumed from the cut's snapshot and cut again at once, or one
    /// transition later, where the states the cut parent had discovered
    /// are reached by no edge until it is expanded again.
    #[test]
    fn cut_and_resumed_graphs_trace_as_the_complete_graph() {
        let system = grid(6);
        let full = explore(&system, &ExploreOptions::default()).unwrap();
        let traces: Vec<_> = (0..full.len()).map(|id| full.trace_to(id)).collect();
        let check = |run: &Exploration, what: &str| {
            assert!(!run.outcome.is_complete(), "{what}");
            for (id, trace) in traces.iter().enumerate().take(run.graph.len()) {
                assert_eq!(&run.trace_to(id), trace, "{what}: trace to {id}");
            }
        };
        for (threads, mem) in [(1, None), (2, None), (1, Some(1 << 10))] {
            let options = ExploreOptions {
                threads: Some(threads),
                mem_budget_bytes: mem,
                ..ExploreOptions::default()
            };
            for (limit, budget) in [
                ("9 states", Budget::default().states(9)),
                ("13 transitions", Budget::default().transitions(13)),
                ("30 states", Budget::default().states(30)),
            ] {
                let what = format!("{threads} worker(s), {mem:?} bytes, {limit}");
                let path = spill::temp_path("traces");
                let armed = budget.with_checkpoint(&path, u64::MAX);
                let run = explore_governed_with(&system, &armed, &options).unwrap();
                check(&run, &what);
                let snap = run.snapshot.as_deref().expect("an exhaustion snapshot");
                let cancelled = Budget::default();
                cancelled.request_cancel();
                let used = snap.transitions_used();
                for (again, budget) in [
                    ("cancelled", cancelled),
                    ("one transition on", Budget::default().transitions(used + 1)),
                ] {
                    let resumed = resume_exploration(&system, &budget, &options, snap).unwrap();
                    check(&resumed, &format!("{what}, resumed and {again}"));
                }
                std::fs::remove_file(&path).unwrap();
                let _ = std::fs::remove_dir_all(format!("{}.segs", path.display()));
            }
        }
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
                } => self
                    .started
                    .lock()
                    .unwrap()
                    .push((engine.to_string(), threads)),
                Event::RunEnd { report } => self
                    .reported
                    .lock()
                    .unwrap()
                    .push((report.engine.clone(), report.threads)),
                _ => {}
            }
        }
    }

    /// `RunStart` and the run report name the plan that ran and the
    /// workers it ran on — one at a request for one, two at a request
    /// for more — and every plan builds the same graph: without a
    /// budget the in-RAM store whatever engine was asked for; with one,
    /// from the option or the environment (the resolver takes it as an
    /// argument, so the CI legs that export the overrides see the same
    /// routing), the disk-backed store.
    #[test]
    fn run_start_names_the_plan() {
        let reference = explore(&grid(3), &ExploreOptions::default()).unwrap();
        let engines = [
            Engine::Auto,
            Engine::WorkStealing,
            Engine::SpillBfs,
            Engine::SpillWs,
        ];
        let budgets = [(None, None), (Some(1 << 20), None), (None, Some(1 << 20))];
        for engine in engines {
            for threads in [1, 2, 4] {
                for (explicit, env_budget) in budgets {
                    let options = ExploreOptions {
                        engine,
                        threads: Some(threads),
                        mem_budget_bytes: explicit,
                        ..ExploreOptions::default()
                    };
                    let what = format!(
                        "{engine:?} threads={threads} explicit={explicit:?} env={env_budget:?}"
                    );
                    let spill = explicit.or(env_budget).is_some()
                        || matches!(engine, Engine::SpillBfs | Engine::SpillWs);
                    let label = if spill {
                        "explore_spill"
                    } else {
                        "explore_sequential"
                    };
                    let log = Arc::new(RoutingLog::default());
                    let budget = Budget::default().with_recorder(RecorderHandle::new(log.clone()));
                    let plan = Plan::resolve(&options, None, env_budget, 1);
                    let run = explore_observed(&grid(3), &budget, &options, &plan, None).unwrap();
                    let workers = threads.min(2);
                    assert_eq!(run.workers(), workers, "{what}");
                    let ran = [(label.to_string(), workers)];
                    assert_eq!(*log.started.lock().unwrap(), ran, "{what}: run_start");
                    assert_eq!(*log.reported.lock().unwrap(), ran, "{what}: run report");
                    assert_eq!(run.requested_threads(), Some(threads), "{what}");
                    assert_eq!(run.graph.first_difference(&reference), None, "{what}");
                }
            }
        }
    }

    /// The loop's queue is the id range from the frontier's first id:
    /// a snapshot whose frontier is not the arena's tail, in ascending
    /// order, cannot say where that is, and resuming it is `Corrupt` —
    /// edited in RAM, where no file reader checked it. Unedited, it
    /// resumes to the uninterrupted graph.
    #[test]
    fn resuming_a_frontier_that_is_not_the_arenas_tail_is_corrupt() {
        let options = ExploreOptions::default();
        let path = spill::temp_path("tail-test").with_extension("snap");
        let budget = Budget::default().states(5).with_checkpoint(&path, u64::MAX);
        let run = explore_governed(&grid(3), &budget).unwrap();
        let snap = run.snapshot.expect("a state limit is resumable");
        assert_eq!(snap.frontier, [2, 3, 4], "the cut parent and the tail");
        // Reversed, with a gap, with a repeat.
        for frontier in [vec![4, 3, 2], vec![2, 3], vec![2, 3, 4, 4]] {
            let mut edited = (*snap).clone();
            edited.frontier = frontier.clone();
            match resume_exploration(&grid(3), &Budget::default(), &options, &edited) {
                Err(CheckError::Checkpoint(crate::CheckpointError::Corrupt { detail })) => {
                    assert!(
                        detail.contains("not the arena's tail"),
                        "{frontier:?}: {detail}"
                    );
                }
                other => panic!("{frontier:?}: {:?}", other.map(|run| run.frontier)),
            }
        }
        let resumed = resume_exploration(&grid(3), &Budget::default(), &options, &snap).unwrap();
        let reference = explore(&grid(3), &options).unwrap();
        assert_eq!(resumed.graph.first_difference(&reference), None);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(format!("{}.segs", path.display()));
    }

    /// A parent cut while its successors were interned keeps the ones
    /// it had in the run's graph, and none in its snapshot: the store
    /// records a state's edges only once its expansion completes, so
    /// the snapshot holds the edge records of the states before the
    /// frontier, and the cut parent, the frontier's first, re-expands
    /// on resume.
    #[test]
    fn a_cut_parents_partial_edges_stay_out_of_its_snapshot() {
        let path = spill::temp_path("cut-test").with_extension("snap");
        let mut partial = 0;
        for limit in 1..12 {
            let budget = Budget::default()
                .transitions(limit)
                .with_checkpoint(&path, u64::MAX);
            let run = explore_governed(&grid(3), &budget).unwrap();
            let snap = run
                .snapshot
                .as_deref()
                .expect("a transition limit is resumable");
            let first = snap.frontier[0];
            let m = &snap.manifest;
            assert!(m.arena_segments.is_empty() && m.edge_segments.is_empty());
            assert_eq!(m.edge_hot.iter().count(), first, "limit {limit}");
            assert_eq!(
                snap.transitions_used(),
                run.graph.edge_base(first),
                "limit {limit}"
            );
            partial += usize::from(!run.graph.edges(first).is_empty());
            let resumed = resume_exploration(
                &grid(3),
                &Budget::default(),
                &ExploreOptions::default(),
                snap,
            )
            .unwrap();
            let reference = explore(&grid(3), &ExploreOptions::default()).unwrap();
            assert_eq!(
                resumed.graph.first_difference(&reference),
                None,
                "limit {limit}"
            );
        }
        assert!(partial > 0, "some limit cuts a parent after an edge");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(format!("{}.segs", path.display()));
    }

    /// The file a build with the work-stealing engine saved when
    /// `Engine::WorkStealing` at 2 workers exhausted `states(7)` on
    /// `grid(3)` under `with_checkpoint(path, 1_000_000)`: its canonical
    /// replay rolled back to the last complete level, so it keeps 6 of
    /// the 7 states and lists level 2 as the frontier. The one loop
    /// resumes it to the uninterrupted graph.
    #[test]
    fn a_snapshot_the_work_stealing_engine_wrote_resumes() {
        let recorded: &str = "\
            4f544c41534e4150040000004000000000b53a3c9dfcdba43f01000000000000\
            0002000000040000000100000000000000000101000000000000000102000000\
            0000000001030000000000000004000000010000000000000000010100000000\
            0000000102000000000000000103000000000000000000000006000000000000\
            0006000000000000000000000000000000060000001200000001ffffffff0000\
            000035265eeb5902c3a90012000000010000000000000000402d78c2124044fa\
            0112000000010000000001000000c01cb8c2eec34c5e04120000000101000000\
            000000000f4d0255c88dcdce0212000000010100000001000000b5179eeba581\
            cb0d05120000000102000000010000006f119a19a781c90c0803000000180000\
            0000000000020000000000000001000000010000000200000018000000010000\
            0002000000000000000300000001000000040000001800000002000000020000\
            0000000000040000000100000005000000010000000000000003000000030000\
            000400000005000000749d6dc0d638e7a7";
        let bytes: Vec<u8> = (0..recorded.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&recorded[i..i + 2], 16).unwrap())
            .collect();
        let dir = std::env::temp_dir().join("opentla_parallel_written_snapshot");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ws.snap");
        std::fs::write(&path, bytes).unwrap();
        let snap = Snapshot::load(&path).unwrap();
        assert_eq!(snap.frontier, [3, 4, 5], "the rolled-back cut");
        let budget = Budget::default().with_checkpoint(&path, 1_000_000);
        let resumed = explore_resumable(&grid(3), &budget, &ExploreOptions::default()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(resumed.outcome.is_complete());
        let reference = explore(&grid(3), &ExploreOptions::default()).unwrap();
        assert_eq!(resumed.graph.first_difference(&reference), None);
    }
}
