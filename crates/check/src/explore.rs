//! Breadth-first state-space exploration.
//!
//! Every entry point resolves its [`ExploreOptions`] — and the
//! `OPENTLA_EXPLORE_THREADS` / `OPENTLA_MEM_BUDGET` overrides — once
//! into one of five plans (`plan.rs`), each a scheduler loop over a
//! store:
//!
//! | plan (`RunStart.engine`) | scheduler loop        | states, edges, visited set                        |
//! |--------------------------|-----------------------|---------------------------------------------------|
//! | `explore_sequential`     | `seq::explore_seq`    | `seq::RamStore`: `Vec` arena, hash-map visited    |
//! | `explore_spill`          | `seq::explore_seq`    | `spill::SpillStore`: segment files, two-tier set  |
//! | `explore_parallel_ws`    | `ws::run_workers`     | `ws`: striped packed (or tree) arenas in RAM      |
//! | `explore_spill_ws`       | `ws::run_workers`     | `spill_ws`: shared segment files, striped two-tier|
//! | `explore_parallel`       | level-synchronous     | striped `State` arenas in RAM                     |
//!
//! One thread without a memory budget gets the first plan; a budget
//! (or [`Engine::SpillBfs`]) the second; [`Engine::WorkStealing`] the
//! third, or with a budget (or as [`Engine::SpillWs`]) the fourth;
//! more than one thread under the default [`Engine::LevelSync`] the
//! last, or with a budget the fourth. Reduced and panic-injection runs
//! always get the first or the last.
//!
//! The sequential loop is the reference implementation: plain BFS over
//! the compiled successor stepper ([`crate::CompiledSystem`]). The
//! three parallel plans record `(parent, action, child)` edges under
//! provisional ids and finish with a deterministic renumbering pass
//! that replays the discovery order sequentially, so on complete runs
//! every plan's result is **byte-identical**: same state indices, same
//! edge lists, same [`GraphStats`], same counterexample traces.
//!
//! Reduced runs ([`Reduction`]) have loops of their own —
//! `explore_sequential_reduced` and the level-synchronous engine's
//! reduced worker — because the cycle proviso needs BFS level
//! boundaries; they are served by the first and last plan only.
//!
//! Every plan deduplicates states through a [`VisitedMode`]: either
//! **fingerprinting** (the default — 64-bit hashes in the visited set,
//! full states only in an append-only arena) or an **exact** fallback
//! that keys the visited set by the full state. See [`VisitedMode`]
//! for the soundness trade-off.

use crate::budget::{Budget, ExhaustReason, Governed, Meter, Outcome};
use crate::checkpoint::{self, Checkpointer, ResumeToken, Snapshot};
use crate::compiled::{CompiledSystem, EvalScratch};
use crate::obs::{
    Event, Phase, PhaseGuard, ProgressSnapshot, RecorderHandle, RunReport, OBS_SCHEMA_VERSION,
};
use crate::reduction::{AmpleScratch, Canonicalize, PreparedReduction, Reduction, ReductionStats};
use crate::{CheckError, System};
use fxhash::FxHashMap;
use opentla_kernel::State;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

// Every lock in the parallel engines guards state that is kept
// consistent *within* each critical section (pushes and map inserts
// happen together; see [`ParShared::intern_with`]), so the shared
// poison-recovering [`lock`] is safe here: a panic that poisons a
// lock leaves the protected data structurally sound — the worker's
// in-flight *results* are discarded separately by the panic-isolation
// path. Propagating the poison would instead turn one worker's bug
// into a whole-run abort.
use crate::sync::{lock, Striped, NUM_SHARDS};

mod plan;
mod seq;
mod spill;
mod spill_ws;
mod ws;

pub(crate) use plan::env_threads;
use plan::{Plan, Route};

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
/// * [`VisitedMode::Exact`] keys the visited set by the full state:
///   no collisions possible, at the cost of hashing and storing whole
///   states. Use it when a run must be collision-free by construction
///   (e.g. when a check's verdict feeds a proof).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VisitedMode {
    /// 64-bit fingerprints in the visited set (fast; collisions
    /// under-approximate with probability ≈ n²/2⁶⁵).
    #[default]
    Fingerprint,
    /// Full states in the visited set (slower; exact).
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
    /// 1 (sequential). Any resolved value above 1 routes [`explore`] /
    /// [`explore_governed`] through the parallel engine.
    pub threads: Option<usize>,
    /// Fingerprint width in bits, 1..=64 (default 64). Values below 64
    /// mask the fingerprint, deliberately *forcing* collisions — a test
    /// knob for exercising the under-approximation and the
    /// [`VisitedMode::Exact`] fallback; production runs should leave
    /// this at 64.
    pub fp_bits: u32,
    /// State-space reduction (ample-set partial-order and/or symmetry
    /// reduction; see [`Reduction`]). Defaults to [`Reduction::none`]:
    /// the engines then take exactly their unreduced code paths and
    /// produce bit-for-bit the same graphs as before the reduction
    /// subsystem existed. Reduced graphs answer state-invariant
    /// queries only — liveness and step-invariant checks refuse them.
    pub reduction: Reduction,
    /// Fault-injection knob for the parallel engine's panic isolation:
    /// when set, exactly one worker deliberately panics mid-expansion
    /// (see [`WorkerPanic`]). The run must survive degraded — this
    /// exists so tests can prove it does. `None` (the default) injects
    /// nothing; the sequential engines ignore it.
    pub worker_panic: Option<WorkerPanic>,
    /// Which parallel engine runs when the resolved thread count calls
    /// for one. Default [`Engine::LevelSync`] — bit-for-bit the
    /// pre-existing behavior. [`Engine::WorkStealing`] selects the
    /// barrier-free packed-state engine at any thread count; reduced
    /// runs and [`WorkerPanic`] injection always fall back to the
    /// level-synchronous path, which remains the reduced/proviso
    /// engine.
    pub engine: Engine,
    /// Graphs that stay below this many states are explored
    /// sequentially even when a parallel engine was requested: worker
    /// setup costs orders of magnitude more than the whole exploration
    /// on dozen-state graphs. The parallel engine probes sequentially
    /// up to the cutoff and only pays for workers once the graph
    /// outgrows it. `None` (the default) uses
    /// [`PAR_SMALL_GRAPH_CUTOFF`]; `Some(0)` disables the routing
    /// (tests that must exercise parallel machinery on tiny graphs
    /// do). Checkpointed, resumed, and panic-injection runs never
    /// probe — their semantics are pinned to the parallel engine.
    pub small_graph_cutoff: Option<usize>,
    /// Approximate RAM ceiling, in bytes, for the exploration's state
    /// arena, edge lists, and visited set. Setting it (or exporting
    /// `OPENTLA_MEM_BUDGET`) routes unreduced runs to a bounded-memory
    /// engine — single-threaded runs to [`Engine::SpillBfs`], parallel
    /// runs to [`Engine::SpillWs`] — which spills sealed arena
    /// segments and sorted fingerprint runs to disk and keeps only a
    /// budget-sized working set in RAM. `None` (the default) keeps
    /// everything in RAM; an explicit spill engine with `None` uses a
    /// generous default budget. Configurations that *cannot* honor a
    /// budget (reduction-active or panic-injection runs, which are
    /// pinned to the in-RAM level-synchronous engine) refuse an
    /// explicit budget with [`CheckError::Precondition`] and report an
    /// environment-derived one as ignored via
    /// [`Event::BudgetIgnored`](crate::Event) rather than silently
    /// exploring unbounded.
    pub mem_budget_bytes: Option<usize>,
}

/// Selects the parallel exploration engine; see
/// [`ExploreOptions::engine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The PR2 level-synchronous engine: BFS levels end in a barrier
    /// plus canonical renumbering. The only engine that runs reduced
    /// (ample-set / symmetry) explorations.
    #[default]
    LevelSync,
    /// The barrier-free work-stealing engine over packed state
    /// buffers: per-worker deques, quiescence-based termination, one
    /// canonical renumbering post-pass. Produces graphs byte-identical
    /// to the sequential engine. Falls back to the `Value`-tree state
    /// representation when the system's domains do not compile to a
    /// [`opentla_kernel::PackedLayout`].
    WorkStealing,
    /// The bounded-memory sequential engine: same BFS order and charge
    /// discipline as the in-RAM sequential engine, but the state arena
    /// and edge lists live in an append-only disk-backed segment store
    /// (read back through an LRU cache) and the visited set spills
    /// sorted fingerprint runs once its hot tier fills. Completed
    /// graphs are byte-identical to the sequential engine's in both
    /// [`VisitedMode`]s. Selecting it explicitly forces the spill path
    /// even without a [`ExploreOptions::mem_budget_bytes`] budget;
    /// reduced and panic-injection runs fall back to level-sync.
    SpillBfs,
    /// The parallel bounded-memory engine: the work-stealing scheduler
    /// of [`Engine::WorkStealing`] running over the disk-backed tiers
    /// of [`Engine::SpillBfs`]. The hot fingerprint tier is sharded
    /// across the same 64 lock stripes as the in-RAM parallel visited
    /// sets, each shard draining to shared sorted fingerprint runs at
    /// a deterministic byte threshold; arena and edge records funnel
    /// through shared sealed-segment writers. Completed graphs are
    /// byte-identical to [`Engine::SpillBfs`] and to the sequential
    /// engine in both [`VisitedMode`]s. Selecting it explicitly forces
    /// the parallel spill path even without a budget; reduced and
    /// panic-injection runs fall back to level-sync.
    SpillWs,
}

/// Instructs one parallel worker to panic mid-expansion — test
/// instrumentation for the engine's panic isolation (see
/// [`ExploreOptions::worker_panic`]). The victim is whichever worker
/// makes the first frontier claim past `after_claims`, counted
/// globally across all workers and levels (a fire-once flag guarantees
/// exactly one panic per run). The panic fires inside the successor
/// callback, *after* at least one edge of the current parent was
/// recorded, so it exercises the coordinator's truncate-and-requeue
/// recovery rather than a clean boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The panic arms once this many frontier entries have been
    /// claimed run-wide (0 = panic during the first claimed parent).
    pub after_claims: u64,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_states: 1_000_000,
            mode: VisitedMode::Fingerprint,
            threads: None,
            fp_bits: 64,
            reduction: Reduction::none(),
            worker_panic: None,
            engine: Engine::LevelSync,
            small_graph_cutoff: None,
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

/// Default state-count cutoff below which a requested parallel
/// exploration runs sequentially instead (see
/// [`ExploreOptions::small_graph_cutoff`]).
pub const PAR_SMALL_GRAPH_CUTOFF: usize = 256;

/// Summary statistics of a reachability graph; see
/// [`StateGraph::stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of reachable states.
    pub states: usize,
    /// Number of (non-stuttering) transitions.
    pub transitions: usize,
    /// Number of states without outgoing transitions.
    pub deadlocks: usize,
    /// Longest shortest path from an initial state (BFS depth).
    pub depth: usize,
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} states, {} transitions, depth {}, {} deadlocks",
            self.states, self.transitions, self.depth, self.deadlocks
        )
    }
}

/// An edge of the reachability graph: which action fired and where it
/// leads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Index of the action in the system's action list.
    pub action: usize,
    /// Index of the target state in the graph.
    pub target: usize,
}

/// The visited set of a [`StateGraph`], in either representation.
#[derive(Clone, Debug)]
enum Visited {
    Exact(HashMap<State, usize>),
    Fingerprint {
        map: FxHashMap<u64, usize>,
        mask: u64,
    },
}

impl Visited {
    fn new(mode: VisitedMode, mask: u64) -> Visited {
        match mode {
            VisitedMode::Exact => Visited::Exact(HashMap::new()),
            VisitedMode::Fingerprint => Visited::Fingerprint {
                map: FxHashMap::default(),
                mask,
            },
        }
    }

    /// Looks up a state, returning its id if (a state with the same
    /// key as) it was seen, plus the fingerprint key for a subsequent
    /// [`Visited::insert`] (0 in exact mode).
    fn lookup(&self, s: &State) -> (Option<usize>, u64) {
        match self {
            Visited::Exact(map) => (map.get(s).copied(), 0),
            Visited::Fingerprint { map, mask } => {
                let fp = s.fingerprint() & mask;
                (map.get(&fp).copied(), fp)
            }
        }
    }

    /// The exact-mode visited set of a finished arena, which lists
    /// every state exactly once.
    fn exact_of(states: &[State]) -> Visited {
        Visited::Exact(states.iter().cloned().zip(0..).collect())
    }

    /// Records a state under the key computed by [`Visited::lookup`].
    fn insert(&mut self, s: &State, fp: u64, id: usize) {
        match self {
            Visited::Exact(map) => {
                map.insert(s.clone(), id);
            }
            Visited::Fingerprint { map, .. } => {
                map.insert(fp, id);
            }
        }
    }

}

/// The reachable state graph of a [`System`], with a BFS tree for
/// shortest-trace reconstruction.
///
/// Exploration order is deterministic (BFS over the system's action
/// order), so state indices — and therefore counterexamples — are
/// reproducible. The parallel engine preserves this: its renumbering
/// pass restores the exact sequential ordering.
#[derive(Clone, Debug)]
pub struct StateGraph {
    states: Vec<State>,
    visited: Visited,
    init: Vec<usize>,
    edges: Vec<Vec<Edge>>,
    parents: Vec<Option<(usize, usize)>>,
    /// Whether any reduction pruned this graph (see
    /// [`StateGraph::is_reduced`]).
    reduced: bool,
    /// The symmetry canonicalizer the exploration ran under, if any —
    /// kept so lookups and counterexample concretization can map
    /// through orbits.
    canon: Option<Arc<dyn Canonicalize>>,
}

impl StateGraph {
    fn new(mode: VisitedMode, mask: u64) -> StateGraph {
        StateGraph {
            states: Vec::new(),
            visited: Visited::new(mode, mask),
            init: Vec::new(),
            edges: Vec::new(),
            parents: Vec::new(),
            reduced: false,
            canon: None,
        }
    }

    /// Number of reachable states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the graph is empty (no initial states).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Total number of (non-stuttering) transitions.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// The state with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn state(&self, id: usize) -> &State {
        &self.states[id]
    }

    /// All reachable states in discovery order.
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// The index of a state, if recorded.
    ///
    /// In fingerprint mode the candidate found by fingerprint is
    /// verified against the arena, so this never misattributes an
    /// index: a state displaced by a fingerprint collision (not
    /// recorded) answers `None`. On a symmetry-reduced graph the state
    /// is canonicalized first, so any member of a recorded orbit finds
    /// its representative.
    pub fn index_of(&self, s: &State) -> Option<usize> {
        let canonical;
        let s = match &self.canon {
            Some(c) => {
                canonical = c.canonicalize(s);
                &canonical
            }
            None => s,
        };
        let (candidate, _) = self.visited.lookup(s);
        let id = candidate?;
        match &self.visited {
            Visited::Exact(_) => Some(id),
            Visited::Fingerprint { .. } => (&self.states[id] == s).then_some(id),
        }
    }

    /// Whether this graph was built under an active [`Reduction`]. A
    /// reduced graph soundly answers *state-invariant* reachability
    /// (for properties respecting the reduction's observability and
    /// symmetry obligations), but omits interleavings — so
    /// [`crate::check_liveness`] and [`crate::check_step_invariant`]
    /// refuse it and require a full exploration instead (the ignoring
    /// problem; see [`crate::Reduction`]).
    pub fn is_reduced(&self) -> bool {
        self.reduced
    }

    /// The symmetry canonicalizer this graph was explored under.
    pub(crate) fn canonicalizer(&self) -> Option<&dyn Canonicalize> {
        self.canon.as_deref()
    }

    /// Indices of the initial states.
    pub fn init(&self) -> &[usize] {
        &self.init
    }

    /// Outgoing edges of a state.
    pub fn edges(&self, id: usize) -> &[Edge] {
        &self.edges[id]
    }

    /// States with no outgoing transition — "deadlocks" in the TLC
    /// sense. In TLA semantics these states merely stutter forever,
    /// which is often legitimate (a terminated protocol), but an
    /// unexpected deadlock usually signals an over-constrained guard.
    pub fn deadlocks(&self) -> Vec<usize> {
        (0..self.len()).filter(|i| self.edges[*i].is_empty()).collect()
    }

    /// Summary statistics of the graph: states, transitions, deadlock
    /// count, and the BFS depth (longest shortest path from an initial
    /// state).
    pub fn stats(&self) -> GraphStats {
        // BFS depth from all initial states.
        let mut depth = vec![usize::MAX; self.len()];
        let mut queue = std::collections::VecDeque::new();
        for &i in &self.init {
            depth[i] = 0;
            queue.push_back(i);
        }
        let mut max_depth = 0;
        while let Some(s) = queue.pop_front() {
            for e in &self.edges[s] {
                if depth[e.target] == usize::MAX {
                    depth[e.target] = depth[s] + 1;
                    max_depth = max_depth.max(depth[e.target]);
                    queue.push_back(e.target);
                }
            }
        }
        GraphStats {
            states: self.len(),
            transitions: self.edge_count(),
            deadlocks: self.deadlocks().len(),
            depth: max_depth,
        }
    }

    /// The shortest trace from an initial state to `id`, as
    /// `(action index leading into the state, state index)` pairs; the
    /// first entry has no action.
    pub fn trace_to(&self, id: usize) -> Vec<(Option<usize>, usize)> {
        let mut rev = Vec::new();
        let mut cur = id;
        loop {
            match self.parents[cur] {
                Some((pred, action)) => {
                    rev.push((Some(action), cur));
                    cur = pred;
                }
                None => {
                    rev.push((None, cur));
                    break;
                }
            }
        }
        rev.reverse();
        rev
    }

    /// Shortest path (sequence of `(action, state)` hops) from `from`
    /// to `to` inside the subgraph induced by `allowed` (a predicate on
    /// state indices). Returns `None` if unreachable.
    ///
    /// The path starts *after* `from`: an empty path means
    /// `from == to`.
    pub fn path_within(
        &self,
        from: usize,
        to: usize,
        mut allowed: impl FnMut(usize) -> bool,
    ) -> Option<Vec<(usize, usize)>> {
        if from == to {
            return Some(Vec::new());
        }
        let mut prev: HashMap<usize, (usize, usize)> = HashMap::new();
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(s) = queue.pop_front() {
            for e in &self.edges[s] {
                if !allowed(e.target) || prev.contains_key(&e.target) || e.target == from
                {
                    continue;
                }
                prev.insert(e.target, (s, e.action));
                if e.target == to {
                    let mut rev = Vec::new();
                    let mut cur = to;
                    while cur != from {
                        let (p, a) = prev[&cur];
                        rev.push((a, cur));
                        cur = p;
                    }
                    rev.reverse();
                    return Some(rev);
                }
                queue.push_back(e.target);
            }
        }
        None
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
    /// What the reduction pruned, when one was active (`None` on
    /// unreduced runs).
    pub reduction: Option<ReductionStats>,
    /// The run's resumable core, when it exhausted its budget at a
    /// resumable point (`None` on complete runs, and on runs cut off
    /// during initial-state enumeration — a partial init enumeration
    /// cannot be resumed soundly). This is the same snapshot an active
    /// [`Budget::with_checkpoint`] writes to disk;
    /// [`explore_escalating`] hands it straight back to the next
    /// attempt, in memory.
    pub snapshot: Option<Box<Snapshot>>,
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
    explore_observed(system, budget, options, &Plan::from_env(options), None)
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
/// fingerprint width, [`VisitedMode`], or reduction activity is
/// refused with a typed error rather than silently producing a wrong
/// graph. Any engine may resume any snapshot — thread count is not
/// pinned, because the parallel engine's canonical renumbering makes
/// the result independent of it.
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
    let plan = Plan::from_env(options);
    if snapshot.spill.is_some() {
        // A spill snapshot references on-disk segment files; expand it
        // to the in-RAM form once, here, so every engine resumes from
        // the same materialized arena.
        let materialized = snapshot.clone().materialize(system)?;
        return explore_observed(system, budget, options, &plan, Some(&materialized));
    }
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
    let plan = Plan::from_env(options);
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

/// Runs the plan's engine. The reduction tables are prepared once,
/// here (a no-op `None` when reduction is off, so the default path is
/// exactly the unreduced code).
fn explore_dispatch(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    plan: &Plan,
    resume: Option<&Snapshot>,
) -> Result<Exploration, CheckError> {
    if let Some(unhonored) = plan.unhonored {
        // Never ignore a budget silently: report it, and refuse
        // outright when the caller asked explicitly rather than via
        // the environment.
        budget.recorder.record(&Event::BudgetIgnored {
            budget_bytes: unhonored.bytes as u64,
            reason: unhonored.reason,
        });
        if let Some(refusal) = plan.refusal() {
            return Err(refusal);
        }
    }
    match plan.route {
        Route::SpillBfs { mem_budget } => {
            spill::explore_spill(system, budget, options, mem_budget, resume)
        }
        Route::SpillWs { mem_budget } => {
            spill_ws::explore_spill_ws(system, budget, options, plan.threads, mem_budget, resume)
        }
        Route::WorkStealing => ws::explore_ws(system, budget, options, plan.threads, resume),
        Route::LevelSync | Route::Sequential => {
            let prepared = options.reduction.prepare(system);
            let prepared = prepared.as_ref();
            if plan.route == Route::LevelSync {
                explore_parallel_impl(system, budget, options, plan.threads, prepared, resume)
            } else {
                explore_sequential(system, budget, options, prepared, resume)
            }
        }
    }
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
    let rec = budget.recorder.clone();
    if !rec.enabled() {
        return explore_dispatch(system, budget, options, plan, resume);
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
    let result = explore_dispatch(system, budget, options, plan, resume);
    let report = match &result {
        Ok(run) => {
            let stats = run.graph.stats();
            if let Some(red) = &run.reduction {
                rec.record(&Event::Reduction {
                    ample_states: red.ample_states as u64,
                    full_states: red.full_states as u64,
                    skipped_transitions: red.skipped_transitions as u64,
                    canon_hits: red.canon_hits as u64,
                });
            }
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

// ---------------------------------------------------------------------
// Sequential engine
// ---------------------------------------------------------------------

fn explore_sequential(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    prepared: Option<&PreparedReduction>,
    resume: Option<&Snapshot>,
) -> Result<Exploration, CheckError> {
    if let Some(red) = prepared {
        return explore_sequential_reduced(system, budget, options, red, resume);
    }
    let (meter, seed) = seq::begin(system, budget, resume)?;
    let store = seq::RamStore::new(system, options, &meter);
    seq::explore_seq(system, budget, &meter, seed, store)
}

/// Builds the final in-RAM-format snapshot of an exhausted run (shared
/// by every engine): `keep`/`frontier` follow the engine's cut
/// discipline, and the snapshot is written to disk when a checkpoint
/// spec is active.
#[allow(clippy::too_many_arguments)]
fn seq_exhaustion_snapshot(
    ck: &mut Checkpointer,
    recorder: &RecorderHandle,
    states: &[State],
    init: &[usize],
    edges: &[Vec<Edge>],
    parents: &[Option<(usize, usize)>],
    keep: usize,
    frontier: &[usize],
    options: &ExploreOptions,
    reduced: bool,
    sys_hash: u64,
    reduction: Option<ReductionStats>,
) -> (Option<Box<Snapshot>>, Option<ResumeToken>) {
    let snap = checkpoint::capture(
        states,
        init,
        edges,
        parents,
        keep,
        frontier,
        options.mode,
        reduced,
        sys_hash,
        options.fp_bits.clamp(1, 64),
        0,
        reduction,
    );
    let token = if ck.active() {
        ck.write(snap.clone(), recorder)
    } else {
        None
    };
    (Some(Box::new(snap)), token)
}

/// The reduced sequential engine: level-synchronous BFS (explicit
/// level boundaries feed the cycle proviso) over canonicalized states,
/// expanding each state through its chosen ample cluster — or fully
/// when no eligible proper cluster exists or the proviso fires.
///
/// Used for both [`VisitedMode`]s: symmetry reduction must
/// canonicalize the materialized successor anyway, so the incremental
/// fingerprint shortcut of the unreduced fast path does not apply.
/// Discovery order is plain BFS over kept actions in action order —
/// exactly the order the parallel engine's renumbering pass replays,
/// so both engines produce byte-identical reduced graphs.
fn explore_sequential_reduced(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    red: &PreparedReduction,
    resume: Option<&Snapshot>,
) -> Result<Exploration, CheckError> {
    use std::ops::ControlFlow;

    let compiled = CompiledSystem::compile(system);
    let mut scratch = EvalScratch::new();
    let sys_hash = checkpoint::system_hash(system);
    let mut ck = Checkpointer::new(budget.checkpoint.clone());
    let mut graph = StateGraph::new(options.mode, options.mask());
    graph.reduced = true;
    graph.canon = red.canon.clone();
    let mut stats = ReductionStats::default();
    let mut queue = std::collections::VecDeque::new();
    let mut exhausted: Option<ExhaustReason> = None;
    let mut exhausted_in_init = false;
    let meter;
    if let Some(snap) = resume {
        // Arena states were stored post-canonicalization, so they seed
        // the visited set directly. The snapshot's frontier is exactly
        // the last complete BFS level (reduced captures roll back to
        // the level boundary), so the proviso bookkeeping restarts
        // cleanly: the whole arena belongs to completed levels.
        graph.states = snap.states.clone();
        graph.edges = snap.edges.clone();
        graph.parents = snap.parents.clone();
        graph.init = snap.init.clone();
        for id in 0..graph.states.len() {
            let (_, fp) = graph.visited.lookup(&graph.states[id]);
            let s = graph.states[id].clone();
            graph.visited.insert(&s, fp, id);
        }
        queue.extend(snap.frontier.iter().copied());
        stats = snap.reduction.unwrap_or_default();
        meter = Meter::start_resumed(budget, snap.states_used(), snap.transitions_used());
    } else {
        let init_states = system.init().states(system.universe())?;
        if init_states.is_empty() {
            return Err(CheckError::NoInitialStates);
        }
        meter = Meter::start(budget);
        let _init_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreInit);
        for s in init_states {
            let s = red.canonical(s);
            let (seen, fp) = graph.visited.lookup(&s);
            if seen.is_some() {
                continue;
            }
            if let Some(reason) = meter.charge_state() {
                exhausted = Some(reason);
                exhausted_in_init = true;
                break;
            }
            let id = graph.states.len();
            graph.visited.insert(&s, fp, id);
            graph.states.push(s);
            graph.edges.push(Vec::new());
            graph.parents.push(None);
            graph.init.push(id);
            queue.push_back(id);
        }
    }
    // Cycle-proviso bookkeeping: states with id < `boundary` belong to
    // BFS levels completed before the current one began. Every cycle
    // of the reduced graph must contain an edge into such a level, so
    // fully expanding each state whose ample set would record one
    // guarantees no enabled action is ignored forever.
    let mut boundary = graph.states.len();
    let mut remaining = queue.len();
    // Checkpoint bookkeeping: the level being expanded consists of ids
    // [level_start, boundary); a snapshot rolls the arena back to
    // `boundary` and re-queues that whole range, so resumption always
    // restarts the level from its beginning (at most one level of work
    // is re-done). The reduction counters snapshotted at the rollover
    // match that cut.
    let mut level_start = boundary - queue.len();
    let mut stats_at_level_start = stats;
    let mut succ: Vec<(usize, State)> = Vec::new();
    let mut ample_scratch = AmpleScratch::default();
    let expand_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreExpand);
    'bfs: while exhausted.is_none() {
        if let Some(reason) = meter.checkpoint() {
            exhausted = Some(reason);
            break;
        }
        if ck.due(1) {
            let frontier: Vec<usize> = (level_start..boundary).collect();
            let snap = checkpoint::capture(
                &graph.states,
                &graph.init,
                &graph.edges,
                &graph.parents,
                boundary,
                &frontier,
                options.mode,
                true,
                sys_hash,
                options.fp_bits.clamp(1, 64),
                0,
                Some(stats_at_level_start),
            );
            ck.write(snap, &budget.recorder);
        }
        let Some(id) = queue.pop_front() else {
            break;
        };
        let parent = graph.states[id].clone();
        succ.clear();
        compiled.for_each_successor(&parent, &mut scratch, |action, assignments| {
            let child = parent.with(assignments);
            let child = match &red.canon {
                Some(c) => {
                    let canonical = c.canonicalize(&child);
                    if canonical != child {
                        stats.canon_hits += 1;
                    }
                    canonical
                }
                None => child,
            };
            succ.push((action, child));
            ControlFlow::<std::convert::Infallible>::Continue(())
        })?;
        let keep_cluster = red.por.as_ref().and_then(|por| {
            let chosen =
                por.choose_ample(succ.iter().map(|(a, _)| *a), &mut ample_scratch)?;
            // The proviso: an ample successor already in a completed
            // level closes a potential cycle — expand fully. Only
            // completed levels are consulted, so the parallel engine
            // (which sees racy partial knowledge of the *current*
            // level) decides identically.
            let closes_level = succ.iter().any(|(a, child)| {
                por.cluster_of(*a) == chosen
                    && graph
                        .visited
                        .lookup(child)
                        .0
                        .is_some_and(|t| t < boundary)
            });
            (!closes_level).then_some(chosen)
        });
        if keep_cluster.is_some() {
            stats.ample_states += 1;
        } else {
            stats.full_states += 1;
        }
        for (action, child) in succ.drain(..) {
            if let Some(c) = keep_cluster {
                if red.por.as_ref().map(|p| p.cluster_of(action)) != Some(c) {
                    stats.skipped_transitions += 1;
                    continue;
                }
            }
            if let Some(reason) = meter.charge_transition() {
                queue.push_front(id);
                exhausted = Some(reason);
                break 'bfs;
            }
            let (seen, fp) = graph.visited.lookup(&child);
            let target = match seen {
                Some(existing) => existing,
                None => {
                    if let Some(reason) = meter.charge_state() {
                        queue.push_front(id);
                        exhausted = Some(reason);
                        break 'bfs;
                    }
                    let nid = graph.states.len();
                    graph.visited.insert(&child, fp, nid);
                    graph.states.push(child);
                    graph.edges.push(Vec::new());
                    graph.parents.push(Some((id, action)));
                    queue.push_back(nid);
                    nid
                }
            };
            graph.edges[id].push(Edge { action, target });
        }
        remaining -= 1;
        if remaining == 0 {
            level_start = boundary;
            boundary = graph.states.len();
            remaining = queue.len();
            stats_at_level_start = stats;
        }
    }
    drop(expand_phase);
    let (snapshot, resume_token) = match &exhausted {
        Some(_) if !exhausted_in_init => seq_exhaustion_snapshot(
            &mut ck,
            &budget.recorder,
            &graph.states,
            &graph.init,
            &graph.edges,
            &graph.parents,
            boundary,
            &(level_start..boundary).collect::<Vec<_>>(),
            options,
            true,
            sys_hash,
            Some(stats_at_level_start),
        ),
        _ => (None, None),
    };
    let outcome = match exhausted {
        None => Outcome::Complete,
        Some(reason) => Outcome::Exhausted {
            reason,
            frontier_size: queue.len(),
            stats: graph.stats(),
            resume: resume_token,
        },
    };
    Ok(Exploration {
        frontier: queue.into_iter().collect(),
        graph,
        outcome,
        reduction: Some(stats),
        snapshot,
    })
}

// ---------------------------------------------------------------------
// Parallel engine
// ---------------------------------------------------------------------

/// Provisional state id used during parallel exploration:
/// `shard << 32 | index within the shard's arena`. Renumbering maps
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

/// One shard of the parallel visited set: a keyed dedup map, the
/// shard's slice of the state arena, and the unmasked fingerprint of
/// each arena entry (kept so workers can derive successor fingerprints
/// incrementally with [`State::fingerprint_with`]).
#[derive(Debug)]
struct Shard {
    keys: ShardKeys,
    arena: Vec<State>,
    fps: Vec<u64>,
}

#[derive(Debug)]
enum ShardKeys {
    Exact(HashMap<State, u32>),
    Fingerprint(FxHashMap<u64, u32>),
}

impl Shard {
    fn new(mode: VisitedMode) -> Shard {
        Shard {
            keys: match mode {
                VisitedMode::Exact => ShardKeys::Exact(HashMap::new()),
                VisitedMode::Fingerprint => ShardKeys::Fingerprint(FxHashMap::default()),
            },
            arena: Vec::new(),
            fps: Vec::new(),
        }
    }
}

/// What each worker accumulated during one level.
#[derive(Debug, Default)]
struct WorkerOut {
    /// `(parent, action, child)` records, contiguous and in action
    /// order per parent — each parent is expanded by exactly one
    /// worker, so these splice into per-parent edge lists losslessly.
    edges: Vec<(Pid, u32, Pid)>,
    /// States inserted by this worker: the next level's frontier.
    next: Vec<Pid>,
    /// Parents whose expansion was cut short by budget exhaustion
    /// (requeued on the reported frontier).
    interrupted: Vec<Pid>,
    /// Frontier entries this worker claimed (for per-worker
    /// throughput reporting).
    claimed: u64,
    /// Reduction counters for the parents this worker expanded
    /// (all-zero when reduction is off).
    stats: ReductionStats,
    /// The parent currently being expanded, with the `edges` length and
    /// `stats` value at the moment it was claimed. `Some` only while an
    /// expansion is in flight — so if the worker panics, the
    /// coordinator can truncate the half-recorded expansion back to
    /// this mark and re-queue the parent.
    current: Option<(Pid, usize, ReductionStats)>,
}

/// Shared coordination state of one parallel run.
struct ParShared<'a> {
    shards: Striped<Shard>,
    mask: u64,
    meter: &'a Meter,
    stop: AtomicBool,
    reason: Mutex<Option<ExhaustReason>>,
    error: Mutex<Option<CheckError>>,
    /// Fault-injection bookkeeping for [`WorkerPanic`]: frontier claims
    /// made run-wide, and whether the injected panic already fired
    /// (fire-once, whichever worker crosses the threshold first).
    fault_claims: AtomicU64,
    fault_fired: AtomicBool,
}

impl ParShared<'_> {
    /// Records the first exhaustion reason and raises the stop flag.
    fn note_exhaustion(&self, r: ExhaustReason) {
        lock(&self.reason).get_or_insert(r);
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Records the first engine error and raises the stop flag.
    fn note_error(&self, e: CheckError) {
        lock(&self.error).get_or_insert(e);
        self.stop.store(true, Ordering::Relaxed);
    }

    /// The state behind a pid, with its unmasked fingerprint.
    fn state_of(&self, p: Pid) -> (State, u64) {
        let shard = self.shards.lock_shard(shard_of(p));
        let local = local_of(p);
        (shard.arena[local].clone(), shard.fps[local])
    }

    /// Looks up / inserts a state by its (unmasked) fingerprint,
    /// charging the meter for genuinely new states. `make` materializes
    /// the state and is only called when it must be: in fingerprint
    /// mode an already-visited successor is recognized — and skipped —
    /// without ever being constructed. Returns the pid and whether it
    /// was new, or the exhaustion reason if the state limit cut the
    /// insertion off.
    fn intern_with(
        &self,
        fp: u64,
        make: impl FnOnce() -> State,
    ) -> Result<(Pid, bool), ExhaustReason> {
        let key = fp & self.mask;
        let (shard_i, mut shard) = self.shards.lock_key(key);
        let Shard { keys, arena, fps } = &mut *shard;
        match keys {
            ShardKeys::Fingerprint(map) => match map.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    Ok((pid(shard_i, *e.get() as usize), false))
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    if let Some(reason) = self.meter.charge_state() {
                        return Err(reason);
                    }
                    let local = arena.len();
                    arena.push(make());
                    fps.push(fp);
                    e.insert(local as u32);
                    Ok((pid(shard_i, local), true))
                }
            },
            ShardKeys::Exact(map) => {
                // Exact mode needs the full state as the dedup key, so
                // it is always materialized. Sharding by (masked)
                // fingerprint stays consistent — equal states have
                // equal fingerprints — and dedup stays exact even when
                // `fp_bits` forces fingerprint collisions.
                let t = make();
                if let Some(&local) = map.get(&t) {
                    return Ok((pid(shard_i, local as usize), false));
                }
                if let Some(reason) = self.meter.charge_state() {
                    return Err(reason);
                }
                let local = arena.len();
                arena.push(t.clone());
                fps.push(fp);
                map.insert(t, local as u32);
                Ok((pid(shard_i, local), true))
            }
        }
    }

    /// Inserts a snapshot state during resume seeding, *without*
    /// charging the meter — the resumed [`Meter`] was pre-charged with
    /// the snapshot's banked totals, so seeding must not count again.
    /// Returns the pid; a masked-fingerprint collision maps to the
    /// first occupant (the same first-id-wins rule the snapshot's
    /// canonical order encodes), so collision behavior survives the
    /// round trip.
    fn seed(&self, s: &State) -> Pid {
        let fp = s.fingerprint();
        let key = fp & self.mask;
        let (shard_i, mut shard) = self.shards.lock_key(key);
        let Shard { keys, arena, fps } = &mut *shard;
        match keys {
            ShardKeys::Fingerprint(map) => match map.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    pid(shard_i, *e.get() as usize)
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    let local = arena.len();
                    arena.push(s.clone());
                    fps.push(fp);
                    e.insert(local as u32);
                    pid(shard_i, local)
                }
            },
            ShardKeys::Exact(map) => {
                if let Some(&local) = map.get(s) {
                    return pid(shard_i, local as usize);
                }
                let local = arena.len();
                arena.push(s.clone());
                fps.push(fp);
                map.insert(s.clone(), local as u32);
                pid(shard_i, local)
            }
        }
    }

    /// Whether `s` was interned before the current level began — the
    /// parallel form of the sequential `id < boundary` cycle-proviso
    /// test. `bounds` holds every shard's arena length snapshotted at
    /// level start, so the answer is frozen for the whole level and
    /// independent of insertions racing within it: both engines decide
    /// the proviso on the identical set of states.
    fn in_completed_level(&self, s: &State, bounds: &[usize]) -> bool {
        let key = s.fingerprint() & self.mask;
        let (shard_i, shard) = self.shards.lock_key(key);
        let local = match &shard.keys {
            ShardKeys::Fingerprint(map) => map.get(&key).copied(),
            ShardKeys::Exact(map) => map.get(s).copied(),
        };
        local.is_some_and(|l| (l as usize) < bounds[shard_i])
    }
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
/// recording worker died mid-expansion before the make-up pass ran);
/// `depth` is each state's BFS level, non-decreasing in id order.
struct Replay {
    canon: Vec<Vec<u32>>,
    states: Vec<State>,
    edges: Vec<Vec<Edge>>,
    parents: Vec<Option<(usize, usize)>>,
    init: Vec<usize>,
    depth: Vec<u32>,
}

/// Builds the [`Replay`]. Each parent's run is indexed first:
/// `edge_index[shard][local]` is `(which vector, start, length)`,
/// `u32::MAX` marking "no edges". Every interned state has a recorded
/// incoming edge (interning and edge-recording are adjacent in the
/// worker, and a panic's truncated records are re-recorded by the
/// make-up pass) or is initial, so the replay reaches every interned
/// state of every *closed* level.
fn replay_records(
    arena_lens: &[usize],
    state_of: impl Fn(Pid) -> State,
    all_edges: &[Vec<(Pid, u32, Pid)>],
    init_pids: &[Pid],
) -> Replay {
    let (mut r, order) = replay_records_order(arena_lens, all_edges, init_pids);
    r.states = order.iter().map(|&p| state_of(p)).collect();
    r
}

/// The structural core of [`replay_records`]: everything except state
/// materialization. Returns the [`Replay`] with `states` empty plus
/// the pids in canonical id order, so callers choose how to
/// materialize — sequentially ([`replay_records`]) or fanned out
/// across workers (the work-stealing engine, where each state is an
/// independent unpack once the order is fixed).
fn replay_records_order(
    arena_lens: &[usize],
    all_edges: &[Vec<(Pid, u32, Pid)>],
    init_pids: &[Pid],
) -> (Replay, Vec<Pid>) {
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
            edge_index[shard_of(parent)][local_of(parent)] =
                (vi as u32, i as u32, (j - i) as u32);
            i = j;
        }
    }

    let mut r = Replay {
        canon: arena_lens.iter().map(|&n| vec![u32::MAX; n]).collect(),
        states: Vec::new(),
        edges: Vec::new(),
        parents: Vec::new(),
        init: Vec::new(),
        depth: Vec::new(),
    };
    let mut order: Vec<Pid> = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for &p in init_pids {
        let id = order.len();
        r.canon[shard_of(p)][local_of(p)] = id as u32;
        order.push(p);
        r.edges.push(Vec::new());
        r.parents.push(None);
        r.depth.push(0);
        r.init.push(id);
        queue.push_back(p);
    }
    while let Some(p) = queue.pop_front() {
        let id = r.canon[shard_of(p)][local_of(p)] as usize;
        let (vi, start, len) = edge_index[shard_of(p)][local_of(p)];
        if vi == u32::MAX {
            continue;
        }
        let run = &all_edges[vi as usize][start as usize..(start + len) as usize];
        for &(_, action, child) in run {
            let slot = &mut r.canon[shard_of(child)][local_of(child)];
            let target = if *slot == u32::MAX {
                let nid = order.len();
                *slot = nid as u32;
                order.push(child);
                r.edges.push(Vec::new());
                r.parents.push(Some((id, action as usize)));
                r.depth.push(r.depth[id] + 1);
                queue.push_back(child);
                nid
            } else {
                *slot as usize
            };
            r.edges[id].push(Edge {
                action: action as usize,
                target,
            });
        }
    }
    (r, order)
}

/// The deepest consistent level-boundary rollback of an exhausted
/// parallel run, shared by both parallel engines: given the canonical
/// replay's pid→id map and per-id BFS depths, plus the
/// discovered-but-unexpanded pids, returns `(keep, frontier_ids)` for
/// [`checkpoint::capture`]. The cut level L is the shallowest pending
/// state's depth — everything above L is fully expanded, and the
/// frontier is *all* of level L (replay depth is non-decreasing in
/// canonical id order, so that is an id range landing on the arena's
/// tail, exactly the cut the resume paths expect). Pending pids
/// unreachable in the replay are ignored; with no reachable pending
/// state at all, the whole graph is kept with an empty frontier.
fn rollback_cut(
    canon: &[Vec<u32>],
    depth: &[u32],
    states_len: usize,
    pending: &[Pid],
) -> (usize, Vec<usize>) {
    let cut = pending
        .iter()
        .filter_map(|&p| {
            let c = canon[shard_of(p)][local_of(p)];
            (c != u32::MAX).then(|| depth[c as usize])
        })
        .min();
    match cut {
        None => (states_len, Vec::new()),
        Some(l) => {
            let keep = depth.partition_point(|&d| d <= l);
            let first = depth.partition_point(|&d| d < l);
            (keep, (first..keep).collect())
        }
    }
}

/// Level-synchronous parallel BFS: scoped workers drain the current
/// frontier through an atomic cursor, interning successors into the
/// sharded visited set; when a level is exhausted the workers'
/// newly-inserted states become the next frontier. A final sequential
/// renumbering pass replays the BFS over the recorded per-parent edge
/// lists, producing canonical (sequential-identical) state indices.
///
/// Workers are panic-isolated: a panicking worker loses only its
/// in-flight expansion (truncated back to the claim mark and made up
/// by the coordinator before the level closes), the run degrades to
/// the surviving workers, and every shared lock is poison-tolerant —
/// the critical sections keep the shards internally consistent, so a
/// poisoned mutex carries no torn data.
fn explore_parallel_impl(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    threads: usize,
    prepared: Option<&PreparedReduction>,
    resume: Option<&Snapshot>,
) -> Result<Exploration, CheckError> {
    // Small-graph routing: probe sequentially up to the cutoff; only a
    // graph that outgrows it (sequential exhaustion exactly at the
    // probe's state cap, with headroom left in the real budget) pays
    // for worker setup. The graphs are byte-identical either way, so
    // the only observable difference is the absence of worker-level
    // events. Checkpointed, resumed, and panic-injection runs skip the
    // probe: their on-disk and fault-isolation semantics belong to the
    // parallel engine.
    let cutoff = options.small_graph_cutoff.unwrap_or(PAR_SMALL_GRAPH_CUTOFF);
    if cutoff > 0
        && resume.is_none()
        && options.worker_panic.is_none()
        && budget.checkpoint.is_none()
    {
        let cap = budget.max_states.min(cutoff);
        let probe_budget = Budget {
            max_states: cap,
            ..budget.clone()
        };
        let probed = explore_sequential(system, &probe_budget, options, prepared, None)?;
        let outgrew = cap < budget.max_states
            && matches!(
                probed.outcome.exhaustion(),
                Some(ExhaustReason::StateLimit { .. })
            );
        if !outgrew {
            return Ok(probed);
        }
    }
    let compiled = CompiledSystem::compile(system);
    let sys_hash = checkpoint::system_hash(system);
    let mut ck = Checkpointer::new(budget.checkpoint.clone());
    let meter = match resume {
        Some(snap) => Meter::start_resumed(budget, snap.states_used(), snap.transitions_used()),
        None => Meter::start(budget),
    };
    let shared = ParShared {
        shards: Striped::new(|| Shard::new(options.mode)),
        mask: options.mask(),
        meter: &meter,
        stop: AtomicBool::new(false),
        reason: Mutex::new(None),
        error: Mutex::new(None),
        fault_claims: AtomicU64::new(0),
        fault_fired: AtomicBool::new(false),
    };

    let mut init_pids: Vec<Pid> = Vec::new();
    // Every worker's edge vector, kept whole: each parent is expanded
    // by exactly one worker, so its edges form one contiguous run (in
    // action order) inside exactly one of these vectors.
    let mut all_edges: Vec<Vec<(Pid, u32, Pid)>> = Vec::new();
    let mut total_stats = ReductionStats::default();
    let mut exhausted_in_init = false;
    let frontier_seed: Vec<Pid>;
    if let Some(snap) = resume {
        // Resume: seed the shards with the snapshot arena (canonical
        // order, so fingerprint first-id-wins dedup is reproduced) and
        // turn the snapshot's edges into one pre-recorded run vector —
        // the canonical replay then cannot tell banked work from new
        // work. The meter was pre-charged above, so seeding is free.
        let pid_of: Vec<Pid> = snap.states.iter().map(|s| shared.seed(s)).collect();
        init_pids = snap.init.iter().map(|&i| pid_of[i]).collect();
        let mut records: Vec<(Pid, u32, Pid)> = Vec::new();
        for (id, run) in snap.edges.iter().enumerate() {
            for e in run {
                records.push((pid_of[id], e.action as u32, pid_of[e.target]));
            }
        }
        if !records.is_empty() {
            all_edges.push(records);
        }
        total_stats = snap.reduction.unwrap_or_default();
        frontier_seed = snap.frontier.iter().map(|&i| pid_of[i]).collect();
    } else {
        let init_states = system.init().states(system.universe())?;
        if init_states.is_empty() {
            return Err(CheckError::NoInitialStates);
        }
        // Initial states: interned sequentially so their canonical
        // order is the enumeration order, exactly as in the sequential
        // engine.
        let _init_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreInit);
        for s in init_states {
            let s = match prepared {
                Some(r) => r.canonical(s),
                None => s,
            };
            let fp = s.fingerprint();
            match shared.intern_with(fp, move || s) {
                Ok((p, true)) => init_pids.push(p),
                Ok((_, false)) => {}
                Err(reason) => {
                    shared.note_exhaustion(reason);
                    exhausted_in_init = true;
                    break;
                }
            }
        }
        frontier_seed = init_pids.clone();
    }

    let mut frontier: Vec<Pid> = frontier_seed;
    // Discovered-but-unexpanded pids once the run stops early.
    let mut pending: Vec<Pid> = Vec::new();
    let observe = meter.observed();
    let mut level: u64 = 0;
    // Live worker count: shrinks when workers die, never below one.
    let mut alive = threads;
    let mut fault = options.worker_panic;
    // For the exhaustion snapshot's reduction counters: the totals as
    // of the last level boundary, and whether the final level lost
    // work (was cut mid-level), which decides which boundary the
    // rollback lands on.
    let mut stats_before_level = total_stats;
    let mut level_lost_work = false;
    let expand_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreExpand);
    while !frontier.is_empty() && !shared.stop.load(Ordering::Relaxed) {
        let cursor = AtomicUsize::new(0);
        stats_before_level = total_stats;
        let pending_before = pending.len();
        // With POR on, snapshot each shard's arena length before the
        // level runs: the cycle proviso asks "was this successor
        // interned before the current level began?", and the snapshot
        // freezes that answer for the whole level.
        let bounds: Option<Vec<usize>> =
            prepared.filter(|r| r.por.is_some()).map(|_| {
                shared.shards.iter_locked().map(|s| s.arena.len()).collect()
            });
        // Each worker owns its output and reports whether it panicked;
        // a panic destroys neither the output accumulated so far nor
        // the run. `AssertUnwindSafe` is justified because the repair
        // below rolls the output back to the claim mark and the shard
        // critical sections never expose partial insertions.
        let outs: Vec<(WorkerOut, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..alive)
                .map(|_| {
                    let shared = &shared;
                    let compiled = &compiled;
                    let frontier = &frontier;
                    let cursor = &cursor;
                    let bounds = bounds.as_deref();
                    scope.spawn(move || {
                        let mut out = WorkerOut::default();
                        let body = std::panic::AssertUnwindSafe(|| match prepared {
                            Some(red) => run_worker_reduced(
                                shared, compiled, frontier, cursor, red, bounds,
                                &mut out, fault,
                            ),
                            None => run_worker(
                                shared, compiled, frontier, cursor, &mut out, fault,
                            ),
                        });
                        let panicked = std::panic::catch_unwind(body).is_err();
                        (out, panicked)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| (WorkerOut::default(), true)))
                .collect()
        });
        let mut next: Vec<Pid> = Vec::new();
        let mut makeup: Vec<Pid> = Vec::new();
        let mut failures = 0usize;
        for (worker, (mut out, panicked)) in outs.into_iter().enumerate() {
            if panicked {
                failures += 1;
                // Repair: the half-recorded expansion rolls back to
                // the claim mark (edges truncated, reduction counters
                // restored) and the parent is re-queued. Children it
                // already interned stay in the shards — the make-up
                // expansion re-records their edges, and `is_new` is
                // false the second time, so nothing double-counts.
                let mut requeued = 0u64;
                if let Some((parent, edges_mark, stats_mark)) = out.current.take() {
                    out.edges.truncate(edges_mark);
                    out.stats = stats_mark;
                    makeup.push(parent);
                    requeued = 1;
                }
                if observe {
                    budget.recorder.record(&Event::WorkerFailure {
                        worker,
                        level,
                        requeued,
                    });
                }
            }
            if observe {
                budget.recorder.record(&Event::WorkerLevel {
                    worker,
                    level,
                    claimed: out.claimed,
                    inserted: out.next.len() as u64,
                });
            }
            total_stats.absorb(&out.stats);
            if !out.edges.is_empty() {
                all_edges.push(out.edges);
            }
            next.extend(out.next);
            pending.extend(out.interrupted);
        }
        // Frontier entries never claimed before the level ended: on a
        // budget stop they are honestly-pending frontier, but when a
        // worker died *without* the stop flag they are work the dead
        // worker would have claimed — they must be made up now, or the
        // run would report Complete while silently dropping states.
        let claimed = cursor.load(Ordering::Relaxed).min(frontier.len());
        if shared.stop.load(Ordering::Relaxed) {
            pending.extend(&frontier[claimed..]);
            pending.append(&mut makeup);
        } else if failures > 0 {
            makeup.extend_from_slice(&frontier[claimed..]);
        }
        if !makeup.is_empty() {
            // Make-up pass: the coordinator re-expands the dead
            // workers' lost claims itself (same level, same proviso
            // bounds, no fault injection), so the level still closes
            // complete.
            let mk_cursor = AtomicUsize::new(0);
            let mut out = WorkerOut::default();
            match prepared {
                Some(red) => run_worker_reduced(
                    &shared, &compiled, &makeup, &mk_cursor, red, bounds.as_deref(),
                    &mut out, None,
                ),
                None => run_worker(&shared, &compiled, &makeup, &mk_cursor, &mut out, None),
            }
            let done = mk_cursor.load(Ordering::Relaxed).min(makeup.len());
            pending.extend(&makeup[done..]);
            total_stats.absorb(&out.stats);
            if !out.edges.is_empty() {
                all_edges.push(out.edges);
            }
            next.extend(out.next);
            pending.extend(out.interrupted);
        }
        if failures > 0 {
            alive = alive.saturating_sub(failures).max(1);
            fault = None;
        }
        level_lost_work = pending.len() > pending_before;
        frontier = next;
        if observe {
            meter.emit_progress(Some(frontier.len() as u64), Some(level), None);
        }
        level += 1;
        if ck.due(claimed as u64) && !shared.stop.load(Ordering::Relaxed) {
            // Periodic checkpoint at the level boundary: replay the
            // records into canonical form — the just-formed next
            // frontier is the canonical arena's tail there, which is
            // exactly the cut the resume paths expect.
            let arena_lens: Vec<usize> =
                shared.shards.iter_locked().map(|s| s.arena.len()).collect();
            let replay =
                replay_records(&arena_lens, |p| shared.state_of(p).0, &all_edges, &init_pids);
            let frontier_ids: Vec<usize> = frontier
                .iter()
                .filter_map(|&p| {
                    let c = replay.canon[shard_of(p)][local_of(p)];
                    (c != u32::MAX).then_some(c as usize)
                })
                .collect();
            let snap = checkpoint::capture(
                &replay.states,
                &replay.init,
                &replay.edges,
                &replay.parents,
                replay.states.len(),
                &frontier_ids,
                options.mode,
                prepared.is_some(),
                sys_hash,
                options.fp_bits.clamp(1, 64),
                0,
                prepared.map(|_| total_stats),
            );
            ck.write(snap, &budget.recorder);
        }
    }
    drop(expand_phase);
    if let Some(e) = lock(&shared.error).take() {
        return Err(e);
    }
    // A level discovered but never entered (stop rose between levels).
    pending.extend(frontier);

    // Workers are done: take the shards (and the exhaustion record)
    // out of their locks.
    let ParShared { shards, reason, .. } = shared;
    let shards: Vec<Shard> = shards.into_shards();
    let reason = reason.into_inner().unwrap_or_else(PoisonError::into_inner);

    let renumber_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreRenumber);
    let arena_lens: Vec<usize> = shards.iter().map(|sh| sh.arena.len()).collect();
    let replay = replay_records(
        &arena_lens,
        |p| shards[shard_of(p)].arena[local_of(p)].clone(),
        &all_edges,
        &init_pids,
    );
    let Replay {
        canon,
        states,
        edges,
        parents,
        init,
        depth,
    } = replay;

    // On a resumable exhaustion, roll the canonical graph back to the
    // deepest consistent level boundary and snapshot it. The cut level
    // L is the shallowest pending state's BFS depth: everything above
    // L is fully expanded, everything below L is partial work redone
    // on resume (bounded by one level), and the frontier is *all* of
    // level L — replay depth is non-decreasing in canonical id order,
    // so the frontier is an id range and lands on the arena's tail.
    let (snapshot, resume_token) = match reason {
        Some(_) if !exhausted_in_init => {
            let (keep, frontier_ids) = rollback_cut(&canon, &depth, states.len(), &pending);
            // If the final level was cut mid-way, the rollback lands
            // on the boundary *before* it — whose reduction counters
            // are the pre-level totals; otherwise the totals stand.
            let red_stats = prepared.map(|_| {
                if level_lost_work {
                    stats_before_level
                } else {
                    total_stats
                }
            });
            seq_exhaustion_snapshot(
                &mut ck,
                &budget.recorder,
                &states,
                &init,
                &edges,
                &parents,
                keep,
                &frontier_ids,
                options,
                prepared.is_some(),
                sys_hash,
                red_stats,
            )
        }
        _ => (None, None),
    };

    // The final visited set comes straight from the shard key maps,
    // remapped through `canon` — no state is rehashed.
    let visited = match options.mode {
        VisitedMode::Fingerprint => {
            let mut map: FxHashMap<u64, usize> = FxHashMap::default();
            map.reserve(states.len());
            for (si, shard) in shards.iter().enumerate() {
                if let ShardKeys::Fingerprint(m) = &shard.keys {
                    for (&fp, &local) in m {
                        let id = canon[si][local as usize];
                        if id != u32::MAX {
                            map.insert(fp, id as usize);
                        }
                    }
                }
            }
            Visited::Fingerprint {
                map,
                mask: options.mask(),
            }
        }
        VisitedMode::Exact => {
            let mut map: HashMap<State, usize> = HashMap::with_capacity(states.len());
            for (si, shard) in shards.iter().enumerate() {
                if let ShardKeys::Exact(m) = &shard.keys {
                    for (s, &local) in m {
                        let id = canon[si][local as usize];
                        if id != u32::MAX {
                            map.insert(s.clone(), id as usize);
                        }
                    }
                }
            }
            Visited::Exact(map)
        }
    };
    let graph = StateGraph {
        states,
        visited,
        init,
        edges,
        parents,
        reduced: prepared.is_some(),
        canon: prepared.and_then(|r| r.canon.clone()),
    };
    drop(renumber_phase);

    Ok(parallel_exploration(
        graph,
        reason,
        pending,
        &canon,
        prepared.map(|_| total_stats),
        snapshot,
        resume_token,
    ))
}

/// The result of a parallel run, for all three parallel engines: the
/// outcome, plus the pending pids mapped onto the canonical graph as
/// its frontier.
fn parallel_exploration(
    graph: StateGraph,
    reason: Option<ExhaustReason>,
    mut pending: Vec<Pid>,
    canon: &[Vec<u32>],
    reduction: Option<ReductionStats>,
    snapshot: Option<Box<Snapshot>>,
    resume: Option<ResumeToken>,
) -> Exploration {
    let outcome = match reason {
        None => Outcome::Complete,
        Some(reason) => Outcome::Exhausted {
            reason,
            frontier_size: {
                pending.sort_unstable();
                pending.dedup();
                pending.len()
            },
            stats: graph.stats(),
            resume,
        },
    };
    // A pending pid can be unreachable in the replay (its recording
    // worker died mid-expansion and the run then stopped before the
    // make-up re-recorded it); such orphans are simply not part of the
    // canonical graph, so they cannot be listed on its frontier.
    let mut frontier: Vec<usize> = pending
        .iter()
        .filter_map(|&p| {
            let c = canon[shard_of(p)][local_of(p)];
            (c != u32::MAX).then_some(c as usize)
        })
        .collect();
    frontier.sort_unstable();
    frontier.dedup();
    Exploration {
        graph,
        outcome,
        frontier,
        reduction,
        snapshot,
    }
}

/// One worker's share of a level: claim parents through the cursor,
/// expand them with the compiled stepper, intern the children.
///
/// Children's fingerprints are derived incrementally from the parent's
/// ([`State::fingerprint_with`]), so in fingerprint mode an
/// already-visited child is recognized without ever being constructed.
/// Interning a child and recording its edge are adjacent — nothing can
/// interrupt between them — which is what guarantees the renumbering
/// pass reaches every interned state.
///
/// Output accumulates into `out`, which the *caller* owns: if this
/// worker panics (`fault` injects one deterministically for testing),
/// the coordinator repairs `out` from its `current` claim mark instead
/// of losing the level.
fn run_worker(
    shared: &ParShared<'_>,
    compiled: &CompiledSystem<'_>,
    frontier: &[Pid],
    cursor: &AtomicUsize,
    out: &mut WorkerOut,
    fault: Option<WorkerPanic>,
) {
    use std::ops::ControlFlow;

    let mut scratch = EvalScratch::new();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        if let Some(reason) = shared.meter.checkpoint() {
            shared.note_exhaustion(reason);
            break;
        }
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&parent) = frontier.get(i) else {
            break;
        };
        out.claimed += 1;
        out.current = Some((parent, out.edges.len(), out.stats));
        let armed = fault.is_some_and(|f| {
            shared.fault_claims.fetch_add(1, Ordering::Relaxed) >= f.after_claims
        });
        let (s, s_fp) = shared.state_of(parent);
        let result = compiled.for_each_successor(&s, &mut scratch, |action, assignments| {
            if let Some(reason) = shared.meter.charge_transition() {
                shared.note_exhaustion(reason);
                out.interrupted.push(parent);
                return ControlFlow::Break(());
            }
            let child_fp = s.fingerprint_with(s_fp, assignments);
            match shared.intern_with(child_fp, || s.with(assignments)) {
                Ok((child, is_new)) => {
                    if is_new {
                        out.next.push(child);
                    }
                    out.edges.push((parent, action as u32, child));
                    if armed && !shared.fault_fired.swap(true, Ordering::Relaxed) {
                        panic!("injected worker panic");
                    }
                    ControlFlow::Continue(())
                }
                Err(reason) => {
                    shared.note_exhaustion(reason);
                    out.interrupted.push(parent);
                    ControlFlow::Break(())
                }
            }
        });
        out.current = None;
        match result {
            Ok(None) => {}
            Ok(Some(())) => break,
            Err(e) => {
                shared.note_error(e);
                break;
            }
        }
    }
}

/// The reduced worker: like [`run_worker`], but every successor is
/// materialized and canonicalized before interning (so the incremental
/// fingerprint shortcut does not apply), and — when partial-order
/// reduction is on — each parent expands only its chosen ample cluster
/// unless the cycle proviso forces full expansion. Successors are
/// buffered per parent because the ample choice needs the full enabled
/// set before any edge is committed.
#[allow(clippy::too_many_arguments)]
fn run_worker_reduced(
    shared: &ParShared<'_>,
    compiled: &CompiledSystem<'_>,
    frontier: &[Pid],
    cursor: &AtomicUsize,
    red: &PreparedReduction,
    bounds: Option<&[usize]>,
    out: &mut WorkerOut,
    fault: Option<WorkerPanic>,
) {
    use std::ops::ControlFlow;

    let mut scratch = EvalScratch::new();
    let mut succ: Vec<(usize, State)> = Vec::new();
    let mut ample_scratch = AmpleScratch::default();
    'level: loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        if let Some(reason) = shared.meter.checkpoint() {
            shared.note_exhaustion(reason);
            break;
        }
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&parent) = frontier.get(i) else {
            break;
        };
        out.claimed += 1;
        out.current = Some((parent, out.edges.len(), out.stats));
        let armed = fault.is_some_and(|f| {
            shared.fault_claims.fetch_add(1, Ordering::Relaxed) >= f.after_claims
        });
        let (s, _) = shared.state_of(parent);
        succ.clear();
        let result = compiled.for_each_successor(&s, &mut scratch, |action, assignments| {
            let child = s.with(assignments);
            let child = match &red.canon {
                Some(c) => {
                    let canonical = c.canonicalize(&child);
                    if canonical != child {
                        out.stats.canon_hits += 1;
                    }
                    canonical
                }
                None => child,
            };
            succ.push((action, child));
            ControlFlow::<std::convert::Infallible>::Continue(())
        });
        if let Err(e) = result {
            out.current = None;
            shared.note_error(e);
            break;
        }
        let keep_cluster = red.por.as_ref().and_then(|por| {
            let chosen =
                por.choose_ample(succ.iter().map(|(a, _)| *a), &mut ample_scratch)?;
            let bounds = bounds.expect("bounds snapshot exists whenever POR is on");
            let closes_level = succ.iter().any(|(a, child)| {
                por.cluster_of(*a) == chosen && shared.in_completed_level(child, bounds)
            });
            (!closes_level).then_some(chosen)
        });
        if keep_cluster.is_some() {
            out.stats.ample_states += 1;
        } else {
            out.stats.full_states += 1;
        }
        for (action, child) in succ.drain(..) {
            if let Some(c) = keep_cluster {
                if red.por.as_ref().map(|p| p.cluster_of(action)) != Some(c) {
                    out.stats.skipped_transitions += 1;
                    continue;
                }
            }
            if let Some(reason) = shared.meter.charge_transition() {
                shared.note_exhaustion(reason);
                out.interrupted.push(parent);
                out.current = None;
                break 'level;
            }
            let child_fp = child.fingerprint();
            match shared.intern_with(child_fp, move || child) {
                Ok((cp, is_new)) => {
                    if is_new {
                        out.next.push(cp);
                    }
                    out.edges.push((parent, action as u32, cp));
                    if armed && !shared.fault_fired.swap(true, Ordering::Relaxed) {
                        panic!("injected worker panic");
                    }
                }
                Err(reason) => {
                    shared.note_exhaustion(reason);
                    out.interrupted.push(parent);
                    out.current = None;
                    break 'level;
                }
            }
        }
        out.current = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GuardedAction, Init};
    use opentla_kernel::{Domain, Expr, Value, Vars};

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
        for engine in [Engine::LevelSync, Engine::WorkStealing, Engine::SpillWs] {
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
        // Path 0 → 1 within the full graph.
        let p = graph.path_within(0, 1, |_| true).unwrap();
        assert_eq!(p.len(), 1);
        // Path 0 → 0: empty.
        assert_eq!(graph.path_within(0, 0, |_| true).unwrap().len(), 0);
        // With state 1 forbidden, 0 → 1 is unreachable.
        assert!(graph.path_within(0, 1, |s| s != 1).is_none());
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
        assert!(text.contains("6 states") && text.contains("depth 5"), "{text}");
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
        let run =
            explore_governed(&counter(10), &Budget::default().transitions(2)).unwrap();
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
        assert!(graph.index_of(graph.state(0)).is_some());
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
        assert_eq!(fp.stats(), exact.stats());
        assert_eq!(fp.states(), exact.states());
        for id in 0..fp.len() {
            assert_eq!(fp.edges(id), exact.edges(id));
            assert_eq!(fp.trace_to(id), exact.trace_to(id));
        }
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
            assert_eq!(seq.stats(), par.stats(), "threads = {threads}");
            assert_eq!(seq.states(), par.states(), "threads = {threads}");
            assert_eq!(seq.init(), par.init(), "threads = {threads}");
            for id in 0..seq.len() {
                assert_eq!(seq.edges(id), par.edges(id), "threads = {threads}");
                assert_eq!(seq.trace_to(id), par.trace_to(id), "threads = {threads}");
            }
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
            assert!(full.index_of(s).is_some());
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

    #[test]
    fn index_of_verifies_under_collisions() {
        // With forced collisions, index_of must refuse to misattribute
        // a displaced state to its collision partner's index.
        let collided = explore(
            &grid(4),
            &ExploreOptions {
                fp_bits: 1,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let full = explore(&grid(4), &ExploreOptions::default()).unwrap();
        for s in full.states() {
            // A state displaced by a collision is honestly absent
            // (None); a found index must point at the exact state.
            if let Some(id) = collided.index_of(s) {
                assert_eq!(collided.state(id), s);
            }
        }
    }

    /// Small graphs requested under a parallel engine route to the
    /// sequential path (no worker events); graphs that outgrow the
    /// cutoff — or runs that opt out with `Some(0)` — still fan out.
    #[test]
    fn small_graphs_skip_worker_machinery() {
        use crate::obs::{CountingRecorder, RecorderHandle};
        use std::sync::Arc;

        let run_counting = |sys: &System, cutoff: Option<usize>| {
            let counting = Arc::new(CountingRecorder::new());
            let handle = RecorderHandle::new(counting.clone());
            let budget = Budget::default().with_recorder(handle);
            let opts = ExploreOptions {
                threads: Some(4),
                small_graph_cutoff: cutoff,
                ..ExploreOptions::default()
            };
            let run = explore_governed_with(sys, &budget, &opts).unwrap();
            assert!(run.outcome.is_complete());
            (run.graph, counting.worker_levels())
        };

        // 9 states: probe completes under the default 256 cutoff, so
        // no worker levels are ever recorded.
        let small = grid(2);
        let (routed, levels) = run_counting(&small, None);
        assert_eq!(levels, 0, "small graph should route sequentially");
        // Opting out with Some(0) restores the parallel machinery.
        let (forced, forced_levels) = run_counting(&small, Some(0));
        assert!(forced_levels > 0, "cutoff 0 must force the parallel engine");
        assert_eq!(routed.len(), forced.len());
        assert_eq!(routed.edge_count(), forced.edge_count());
        for id in 0..routed.len() {
            assert_eq!(routed.state(id), forced.state(id));
        }

        // 441 states: the probe outgrows the cutoff, the parallel
        // engine takes over, and worker levels appear.
        let (big, big_levels) = run_counting(&grid(20), None);
        assert_eq!(big.len(), 441);
        assert!(big_levels > 0, "large graph must still fan out");
    }

    /// Collects what the routing tests look at: every `RunStart`
    /// engine label and every ignored-budget report.
    #[derive(Default)]
    struct RoutingLog {
        engines: Mutex<Vec<String>>,
        ignored: Mutex<Vec<(u64, String)>>,
    }

    impl crate::obs::Recorder for RoutingLog {
        fn record(&self, event: &Event<'_>) {
            match *event {
                Event::RunStart { engine, .. } => lock(&self.engines).push(engine.to_string()),
                Event::BudgetIgnored {
                    budget_bytes,
                    reason,
                } => lock(&self.ignored).push((budget_bytes, reason.to_string())),
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

    #[test]
    fn run_start_names_the_plan() {
        let with = |engine, threads| ExploreOptions {
            engine,
            threads: Some(threads),
            small_graph_cutoff: Some(0),
            ..ExploreOptions::default()
        };
        let cases = [
            (with(Engine::LevelSync, 1), Route::Sequential, "explore_sequential"),
            (with(Engine::LevelSync, 2), Route::LevelSync, "explore_parallel"),
            (with(Engine::WorkStealing, 2), Route::WorkStealing, "explore_parallel_ws"),
            (
                ExploreOptions {
                    mem_budget_bytes: Some(1 << 20),
                    ..with(Engine::SpillBfs, 1)
                },
                Route::SpillBfs { mem_budget: 1 << 20 },
                "explore_spill",
            ),
            (
                ExploreOptions {
                    mem_budget_bytes: Some(1 << 20),
                    ..with(Engine::SpillWs, 2)
                },
                Route::SpillWs { mem_budget: 1 << 20 },
                "explore_spill_ws",
            ),
        ];
        let reference = explore(&grid(3), &with(Engine::LevelSync, 1)).unwrap();
        for (options, route, label) in cases {
            let (plan, log, run) = run_planned(&options, None);
            assert_eq!(plan.route, route);
            assert_eq!(plan.label(), label);
            assert_eq!(*lock(&log.engines), [label]);
            assert_eq!(run.unwrap().graph.states(), reference.states(), "{label}");
        }
    }

    /// An inherited budget that a pinned configuration cannot honor is
    /// reported and the run proceeds in RAM; the same budget set
    /// explicitly is refused (the table test in `plan.rs` covers the
    /// refusal itself).
    #[test]
    fn unhonorable_env_budget_is_reported_not_refused() {
        let pinned = ExploreOptions {
            threads: Some(2),
            worker_panic: Some(WorkerPanic { after_claims: 1 }),
            small_graph_cutoff: Some(0),
            ..ExploreOptions::default()
        };
        let (plan, log, run) = run_planned(&pinned, Some(1 << 20));
        assert_eq!(plan.route, Route::LevelSync);
        assert!(run.unwrap().outcome.is_complete());
        let ignored = lock(&log.ignored);
        assert_eq!(ignored.len(), 1);
        assert_eq!(ignored[0].0, 1 << 20);
        assert!(ignored[0].1.starts_with("panic-injection"), "{}", ignored[0].1);
    }
}
