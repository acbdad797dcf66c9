//! Run observability: structured events, live progress metrics, and
//! exportable run reports.
//!
//! Every checking engine in this workspace can narrate what it is doing
//! through a [`Recorder`] — a zero-dependency, lock-free-friendly sink
//! for [`Event`]s:
//!
//! * the null [`RecorderHandle`] (the default) holds no recorder;
//!   engines gate their instrumentation on [`RecorderHandle::enabled`],
//!   so the hot loops pay a single predictable branch and stay
//!   allocation-free;
//! * [`CountingRecorder`] tallies events per kind in `AtomicU64`
//!   counters ([`CountingRecorder::count`]) and accumulates monotonic
//!   per-[`Phase`] timers — cheap enough to leave on in tests, and
//!   exact: its state/transition/depth totals come from the engine's
//!   own final statistics;
//! * [`JsonlRecorder`] serializes every event as one JSON line
//!   (schema-versioned, see [`OBS_SCHEMA_VERSION`]), the same
//!   progress-statistics discipline TLC earns trust with.
//!
//! Every event kind is described once, in [`SCHEMA`]: its wire name and
//! its fields with their wire types. The JSONL writer, the stream
//! validator and the counting recorder are all driven by that table and
//! by [`Event::for_each_field`], which walks one event's fields in wire
//! order. Adding an event: the variant, and its entry in the
//! `describe_events!` list below the enum — which is at once its
//! [`SCHEMA`] row and its [`Event::for_each_field`] arm — nothing else.
//!
//! Events sample the hot path by piggybacking on the existing
//! [`Meter`](crate::Meter) checkpoint cadence: the meter emits a
//! [`Event::Progress`] snapshot every [`PROGRESS_SAMPLE`] checkpoints,
//! so instrumentation cost scales with checkpoints, not with states.
//!
//! The `OPENTLA_OBS=/path.jsonl` environment variable (mirroring
//! `OPENTLA_EXPLORE_THREADS`) routes every engine that did not receive
//! an explicit recorder to an appending [`JsonlRecorder`] at that path;
//! see [`global`].
//!
//! The module also ships its own consumer: [`validate_stream`] parses a
//! JSONL event stream back (with the built-in minimal [`Json`] parser —
//! no serde), checks it against the schema (known event kinds, every
//! member typed as its [`SCHEMA`] row says and none the row does not
//! list, monotonic timestamps, well-formed phase nesting, every run
//! closed by a report whose totals match the final snapshot), and
//! returns a [`StreamSummary`] for golden-shape tests and CI gates.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Version tag carried by every serialized event (`"v"`) and by
/// [`RunReport::schema_version`]. Bump when the event schema changes
/// shape.
pub const OBS_SCHEMA_VERSION: u64 = 7;

/// A [`Event::Progress`] snapshot is emitted every this many meter
/// checkpoints (when a recorder is enabled). Checkpoints run once per
/// state expansion, so this keeps the sampling cost at roughly one
/// event per `PROGRESS_SAMPLE` states.
pub const PROGRESS_SAMPLE: u64 = 1024;

// ---------------------------------------------------------------------
// Phases and events
// ---------------------------------------------------------------------

/// A named span of engine work. Phases nest like a stack within one
/// event stream; [`validate_stream`] enforces the discipline.
///
/// Each phase maps onto the paper's proof obligations — see
/// `docs/paper-map.md` § "Observability" for the correspondence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Enumerating and interning the initial states.
    ExploreInit,
    /// The BFS expansion loop (its periodic snapshots fall inside it).
    ExploreExpand,
    /// Turning the store into the finished
    /// [`StateGraph`](crate::StateGraph): the disk tiers' read-back,
    /// or the in-RAM store's hand-over.
    ExploreRenumber,
    /// Fairness-aware liveness analysis (SCC search).
    Liveness,
    /// Step simulation under a refinement mapping.
    Simulation,
    /// The `⊳` realization monitor (`check_ag_safety_diagnosed`).
    AgMonitor,
    /// The Composition Theorem / Corollary certificate build.
    Compose,
    /// A verification suite run.
    Suite,
}

/// Number of distinct [`Phase`]s (for fixed-size per-phase tables).
pub const PHASE_COUNT: usize = 8;

impl Phase {
    /// Dense index, `0..PHASE_COUNT`.
    pub fn index(self) -> usize {
        match self {
            Phase::ExploreInit => 0,
            Phase::ExploreExpand => 1,
            Phase::ExploreRenumber => 2,
            Phase::Liveness => 3,
            Phase::Simulation => 4,
            Phase::AgMonitor => 5,
            Phase::Compose => 6,
            Phase::Suite => 7,
        }
    }

    /// Stable wire name (the `"phase"` field of phase events).
    pub fn name(self) -> &'static str {
        match self {
            Phase::ExploreInit => "explore_init",
            Phase::ExploreExpand => "explore_expand",
            Phase::ExploreRenumber => "explore_renumber",
            Phase::Liveness => "liveness",
            Phase::Simulation => "simulation",
            Phase::AgMonitor => "ag_monitor",
            Phase::Compose => "compose",
            Phase::Suite => "suite",
        }
    }
}

/// A point-in-time progress measurement. All counts are cumulative
/// within the current run; optional fields are omitted from the wire
/// format when unknown.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProgressSnapshot {
    /// Unique states recorded so far.
    pub states: u64,
    /// Transitions processed so far.
    pub transitions: u64,
    /// Nanoseconds since the run (meter) started.
    pub elapsed_nanos: u64,
    /// Size of the pending BFS frontier, when the engine knows it.
    pub frontier: Option<u64>,
    /// Current BFS level / depth, when the engine tracks it.
    pub level: Option<u64>,
    /// Reporting worker, for per-worker snapshots.
    pub worker: Option<u64>,
    /// The finite state budget, if one is set (budget consumption =
    /// `states / budget_states`).
    pub budget_states: Option<u64>,
    /// The finite transition budget, if one is set.
    pub budget_transitions: Option<u64>,
}

impl ProgressSnapshot {
    /// Throughput implied by this snapshot (states per second).
    pub fn states_per_sec(&self) -> f64 {
        self.states as f64 / (self.elapsed_nanos as f64 / 1e9).max(1e-9)
    }
}

/// The final, exportable summary of one engine run. Serialized inside
/// the [`Event::RunEnd`] line and written standalone by the benchmark
/// and demo binaries.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Schema version ([`OBS_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Which plan ran: `"explore_sequential"` or `"explore_spill"` for
    /// an exploration; other checks name themselves likewise.
    pub engine: String,
    /// Worker threads used.
    pub threads: usize,
    /// Visited-set mode (`"fingerprint"` / `"exact"`), or another
    /// engine-specific mode tag.
    pub mode: String,
    /// Unique states recorded.
    pub states: usize,
    /// Transitions recorded.
    pub transitions: usize,
    /// BFS depth of the explored graph.
    pub depth: usize,
    /// Deadlock (terminal-state) count.
    pub deadlocks: usize,
    /// Human-readable outcome (`"complete"`, an exhaustion
    /// description, or `"error: …"`).
    pub outcome: String,
    /// Whether the run covered everything it set out to cover.
    pub complete: bool,
    /// Wall-clock duration of the run in nanoseconds.
    pub duration_nanos: u64,
}

impl RunReport {
    /// The report as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema_version\":{},\"engine\":{},\"threads\":{},\"mode\":{},\
             \"states\":{},\"transitions\":{},\"depth\":{},\"deadlocks\":{},\
             \"outcome\":{},\"complete\":{},\"duration_nanos\":{}}}",
            self.schema_version,
            json_str(&self.engine),
            self.threads,
            json_str(&self.mode),
            self.states,
            self.transitions,
            self.depth,
            self.deadlocks,
            json_str(&self.outcome),
            self.complete,
            self.duration_nanos,
        )
    }
}

/// One structured observation. Borrowed fields keep event construction
/// allocation-free on the emitting side.
#[derive(Clone, Copy, Debug)]
pub enum Event<'a> {
    /// An engine run began.
    RunStart {
        /// Engine name (matches the eventual [`RunReport::engine`]).
        engine: &'a str,
        /// Worker threads.
        threads: usize,
        /// Visited-set / engine mode tag.
        mode: &'a str,
    },
    /// A work phase was entered.
    PhaseEnter {
        /// The phase.
        phase: Phase,
    },
    /// The matching phase was left.
    PhaseExit {
        /// The phase.
        phase: Phase,
    },
    /// A sampled progress measurement.
    Progress {
        /// The measurement.
        snapshot: ProgressSnapshot,
    },
    /// A fault-injection combinator armed a fault action on a system,
    /// or a fault action was observed firing on a counterexample /
    /// assumption-break trace.
    FaultActivation {
        /// The fault action's name (`"fault:…"`).
        action: &'a str,
        /// Trace step at which it fired, or 0 when merely armed.
        step: u64,
        /// `"armed"` when the combinator built the faulty system,
        /// `"fired"` when the action appears on a trace.
        kind: &'a str,
    },
    /// A counterexample was produced, with provenance.
    Counterexample {
        /// Which check produced it (`"liveness"`, `"simulation"`,
        /// `"ag_safety"`, …).
        kind: &'a str,
        /// The counterexample's reason line.
        reason: &'a str,
        /// Trace length in states.
        length: usize,
        /// Lasso loop start, for liveness counterexamples.
        loop_start: Option<usize>,
        /// How many trace steps were fault actions.
        fault_steps: usize,
    },
    /// A named check completed (suite entries, certificate
    /// obligations).
    Check {
        /// Check category (`"invariant"`, `"obligation"`, …).
        kind: &'a str,
        /// The check's name.
        name: &'a str,
        /// Whether it passed.
        holds: bool,
    },
    /// A resumable snapshot was written (see
    /// [`Budget::with_checkpoint`](crate::Budget::with_checkpoint)).
    Checkpoint {
        /// Sequence number of the snapshot within this run.
        seq: u64,
        /// States banked in the snapshot.
        states: u64,
        /// Transitions banked in the snapshot.
        transitions: u64,
        /// Discovered-but-unexpanded states awaiting resume.
        frontier: u64,
    },
    /// An exploration resumed from an on-disk snapshot instead of
    /// restarting.
    Resume {
        /// Sequence number of the snapshot resumed from.
        seq: u64,
        /// States restored from the snapshot.
        states: u64,
        /// Transitions restored from the snapshot.
        transitions: u64,
        /// Frontier states awaiting expansion.
        frontier: u64,
    },
    /// The bounded-memory engine spilled a tier to disk (sealed an
    /// arena/edge segment or wrote a visited-set fingerprint run).
    Spill {
        /// Which tier spilled: `"arena"`, `"edges"`, or `"visited"`.
        tier: &'a str,
        /// Sequence number of the spilled artifact within its tier.
        seq: u64,
        /// Records written in this spill.
        records: u64,
        /// Bytes written in this spill.
        bytes: u64,
        /// Cumulative bytes spilled across all tiers so far.
        total_spilled_bytes: u64,
    },
    /// Segment-cache counters of a bounded-memory run (emitted once,
    /// before the run's final progress event).
    CacheStats {
        /// Reads answered by a resident segment.
        hits: u64,
        /// Reads that loaded a segment from disk.
        misses: u64,
        /// Segments evicted to respect the cache byte budget.
        evictions: u64,
        /// Bytes resident in the cache at emission time.
        resident_bytes: u64,
        /// Total bytes spilled to disk over the run.
        spilled_bytes: u64,
    },
    /// One evaluation of a refinement mapping over a graph (see
    /// [`Images`](crate::image::Images)): a certificate emits one, which
    /// its hypotheses 2(a) and 2(b) share; a stand-alone check under a
    /// non-empty mapping emits its own, inside its phase.
    ImagePass {
        /// States given their images.
        states: u64,
        /// Variables the mapping replaces.
        mapped_vars: u64,
        /// Distinct values among the `states × mapped_vars` images.
        distinct_values: u64,
        /// Images that are undefined (the evaluation erred there).
        undefined: u64,
        /// Evaluations of a mapped variable's image: one per distinct
        /// key of the codes in the slots it reads — the lookups that
        /// missed. `1 - evaluated / (states × mapped_vars)` is the hit
        /// ratio.
        evaluated: u64,
        /// The widest such key, in bits.
        key_bits: u64,
        /// What the pass took.
        nanos: u64,
    },
    /// One image-class pass of an obligation check (see
    /// [`image`](crate::image)): why the check was cheap, or was not.
    /// A simulation emits one; a liveness check one per table it
    /// builds from the target (`edges` and `distinct_pairs` are 0 for
    /// a table of a state predicate).
    ImageMemo {
        /// Which check ran the pass (`"simulation"` / `"liveness"`).
        check: &'a str,
        /// Distinct image classes among the graph's states.
        classes: u64,
        /// Step evaluations actually run: the distinct class pairs
        /// met, plus every step that bypassed the memo.
        /// `1 - distinct_pairs / edges` is the hit ratio.
        distinct_pairs: u64,
        /// Steps looked up — the edges the check examined.
        edges: u64,
        /// Whether no two states shared a class, so every lookup
        /// evaluated.
        skipped: bool,
        /// What the class pass took (the lookups are the check's); 0
        /// when the check shared the class column an earlier check of
        /// the same footprint computed over the same images.
        nanos: u64,
    },
    /// What the effect tables of packed stepping did over one
    /// exploration (see
    /// [`CompiledSystem`](crate::CompiledSystem)): emitted once, before
    /// the run's final progress event.
    StepMemo {
        /// Actions of the system.
        actions: u64,
        /// Actions with a table (the others evaluate at every lookup).
        tabled_actions: u64,
        /// Table entries filled.
        table_entries: u64,
        /// Action lookups: one per action per parent stepped.
        lookups: u64,
        /// Lookups that evaluated the action: unknown entries and
        /// untabled actions. `1 - misses / lookups` is the hit ratio.
        misses: u64,
    },
    /// The engine run ended; carries the full report.
    RunEnd {
        /// The final report.
        report: &'a RunReport,
    },
}

/// How a field's value is written on the wire — the type column of
/// [`SCHEMA`], and what [`validate_stream`] demands of a member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// A non-negative integer.
    U64,
    /// A JSON string.
    Str,
    /// `true` / `false`.
    Bool,
    /// A non-negative number written without a fraction (`{:.0}` of an
    /// `f64`, so it may exceed the `u64` range).
    Rate,
    /// A nested [`RunReport`] object.
    Report,
}

/// Whether every event of a kind carries a field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Presence {
    /// Always written.
    Required,
    /// Written only when the engine knows the value.
    Optional,
}

/// One field of one event as [`Event::for_each_field`] hands it to its
/// visitor, under the variant named like its [`Wire`] type; `Display`
/// renders the value's JSON text.
#[derive(Clone, Copy, Debug)]
pub enum Field<'a> {
    /// A [`Wire::U64`] value.
    U64(u64),
    /// A [`Wire::Str`] value, unescaped.
    Str(&'a str),
    /// A [`Wire::Bool`] value.
    Bool(bool),
    /// A [`Wire::Rate`] value.
    Rate(f64),
    /// A [`Wire::Report`] value.
    Report(&'a RunReport),
}

impl std::fmt::Display for Field<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Field::U64(n) => write!(f, "{n}"),
            Field::Str(s) => f.write_str(&json_str(s)),
            Field::Bool(b) => write!(f, "{b}"),
            Field::Rate(r) => write!(f, "{r:.0}"),
            Field::Report(report) => f.write_str(&report.to_json()),
        }
    }
}

/// Visits one field: always when `Required`; when `Optional`, only if
/// its value is known.
macro_rules! visit_field {
    ($visit:ident, Required, $name:expr, $wire:ident, $value:expr) => {
        $visit($name, Field::$wire($value))
    };
    ($visit:ident, Optional, $name:expr, $wire:ident, $value:expr) => {
        if let Some(known) = $value {
            $visit($name, Field::$wire(known))
        }
    };
}

/// Emits everything that is per event kind — the [`SCHEMA`] table,
/// [`Event::kind_index`] and [`Event::for_each_field`] — from the one
/// list below it: per kind, the [`Event`] variant with the fields it
/// binds, the wire name, and each wire field in wire order as
/// `name: Wire Presence = value`.
macro_rules! describe_events {
    ($(
        $variant:ident { $($bound:ident),* } => $kind:literal {
            $($field:ident: $wire:ident $presence:ident = $value:expr,)*
        }
    )*) => {
        /// The one description of every event kind: its wire name (the
        /// `"ev"` member) and its fields in wire order, each with its
        /// wire type and whether it is always present. Rows are in
        /// [`Event`] declaration order; a row's index is its event's
        /// [`Event::kind_index`]. [`JsonlRecorder`] writes exactly these
        /// members (through [`Event::for_each_field`]),
        /// [`validate_stream`] accepts exactly these, and
        /// [`CountingRecorder`] keeps one counter per row.
        #[allow(clippy::type_complexity)]
        pub const SCHEMA: &[(&str, &[(&str, Wire, Presence)])] = &[$(
            ($kind, &[$((stringify!($field), Wire::$wire, Presence::$presence)),*]),
        )*];

        /// [`Event`]'s variants without their fields: a variant's
        /// discriminant is its event's row in [`SCHEMA`].
        enum Row {
            $($variant),*
        }

        impl Event<'_> {
            /// Dense index, `0..SCHEMA.len()`: the event's row in
            /// [`SCHEMA`].
            pub fn kind_index(&self) -> usize {
                match self {
                    $(Event::$variant { .. } => Row::$variant as usize),*
                }
            }

            /// Calls `visit` with the name and value of each field of
            /// this event, in wire order: exactly the event's [`SCHEMA`]
            /// row, minus the optional fields that are unknown. A
            /// progress snapshot is flattened; a run report is one
            /// field.
            pub fn for_each_field(&self, mut visit: impl FnMut(&'static str, Field<'_>)) {
                match *self {$(
                    Event::$variant { $($bound),* } => {
                        $(visit_field!(visit, $presence, stringify!($field), $wire, $value);)*
                    }
                )*}
            }
        }
    };
}

describe_events! {
    RunStart { engine, threads, mode } => "run_start" {
        engine: Str Required = engine,
        threads: U64 Required = threads as u64,
        mode: Str Required = mode,
    }
    PhaseEnter { phase } => "phase_enter" {
        phase: Str Required = phase.name(),
    }
    PhaseExit { phase } => "phase_exit" {
        phase: Str Required = phase.name(),
    }
    Progress { snapshot } => "progress" {
        states: U64 Required = snapshot.states,
        transitions: U64 Required = snapshot.transitions,
        elapsed_nanos: U64 Required = snapshot.elapsed_nanos,
        states_per_sec: Rate Required = snapshot.states_per_sec(),
        frontier: U64 Optional = snapshot.frontier,
        level: U64 Optional = snapshot.level,
        worker: U64 Optional = snapshot.worker,
        budget_states: U64 Optional = snapshot.budget_states,
        budget_transitions: U64 Optional = snapshot.budget_transitions,
    }
    FaultActivation { action, step, kind } => "fault_activation" {
        action: Str Required = action,
        step: U64 Required = step,
        kind: Str Required = kind,
    }
    Counterexample { kind, reason, length, loop_start, fault_steps } => "counterexample" {
        kind: Str Required = kind,
        reason: Str Required = reason,
        length: U64 Required = length as u64,
        fault_steps: U64 Required = fault_steps as u64,
        loop_start: U64 Optional = loop_start.map(|at| at as u64),
    }
    Check { kind, name, holds } => "check" {
        kind: Str Required = kind,
        name: Str Required = name,
        holds: Bool Required = holds,
    }
    Checkpoint { seq, states, transitions, frontier } => "checkpoint" {
        seq: U64 Required = seq,
        states: U64 Required = states,
        transitions: U64 Required = transitions,
        frontier: U64 Required = frontier,
    }
    Resume { seq, states, transitions, frontier } => "resume" {
        seq: U64 Required = seq,
        states: U64 Required = states,
        transitions: U64 Required = transitions,
        frontier: U64 Required = frontier,
    }
    Spill { tier, seq, records, bytes, total_spilled_bytes } => "spill" {
        tier: Str Required = tier,
        seq: U64 Required = seq,
        records: U64 Required = records,
        bytes: U64 Required = bytes,
        total_spilled_bytes: U64 Required = total_spilled_bytes,
    }
    CacheStats { hits, misses, evictions, resident_bytes, spilled_bytes } => "cache_stats" {
        hits: U64 Required = hits,
        misses: U64 Required = misses,
        evictions: U64 Required = evictions,
        resident_bytes: U64 Required = resident_bytes,
        spilled_bytes: U64 Required = spilled_bytes,
    }
    ImagePass { states, mapped_vars, distinct_values, undefined, evaluated, key_bits, nanos } => "image_pass" {
        states: U64 Required = states,
        mapped_vars: U64 Required = mapped_vars,
        distinct_values: U64 Required = distinct_values,
        undefined: U64 Required = undefined,
        evaluated: U64 Required = evaluated,
        key_bits: U64 Required = key_bits,
        nanos: U64 Required = nanos,
    }
    ImageMemo { check, classes, distinct_pairs, edges, skipped, nanos } => "image_memo" {
        check: Str Required = check,
        classes: U64 Required = classes,
        distinct_pairs: U64 Required = distinct_pairs,
        edges: U64 Required = edges,
        skipped: Bool Required = skipped,
        nanos: U64 Required = nanos,
    }
    StepMemo { actions, tabled_actions, table_entries, lookups, misses } => "step_memo" {
        actions: U64 Required = actions,
        tabled_actions: U64 Required = tabled_actions,
        table_entries: U64 Required = table_entries,
        lookups: U64 Required = lookups,
        misses: U64 Required = misses,
    }
    RunEnd { report } => "run_end" {
        report: Report Required = report,
    }
}

impl Event<'_> {
    /// Stable wire name (the `"ev"` field).
    pub fn kind(&self) -> &'static str {
        SCHEMA[self.kind_index()].0
    }
}

// ---------------------------------------------------------------------
// Recorders
// ---------------------------------------------------------------------

/// A sink for engine [`Event`]s.
///
/// Implementations must be `Send + Sync`: one recorder rides on a
/// [`Budget`](crate::Budget), which threads share. The hot loops consult
/// [`Recorder::enabled`] once per run and skip instrumentation
/// entirely when it is `false`, so a disabled recorder costs one
/// boolean.
pub trait Recorder: Send + Sync {
    /// Whether events should be produced at all. Engines hoist this
    /// out of their hot loops.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event. Called outside the allocation-free hot
    /// path (sampled checkpoints, phase boundaries, run boundaries),
    /// so implementations may format or lock here.
    fn record(&self, event: &Event<'_>);
}

/// Lock-free tallying recorder: one `AtomicU64` event count per kind,
/// plus monotonic per-phase wall-clock accumulators and the totals of
/// the last [`RunReport`] seen.
///
/// The state/transition/depth totals come from the engine's final
/// report — the same [`GraphStats`](crate::GraphStats) the sequential
/// engine computes — so they are exact, not sampled.
#[derive(Debug)]
pub struct CountingRecorder {
    epoch: Instant,
    /// Events recorded per kind, indexed by [`Event::kind_index`].
    counts: [AtomicU64; SCHEMA.len()],
    /// Cumulative spilled bytes of the most recent spill event.
    spilled_bytes: AtomicU64,
    /// `lookups` and `misses` of the most recent step-memo event.
    step_lookups: AtomicU64,
    step_misses: AtomicU64,
    /// Totals of the most recent run report.
    states: AtomicU64,
    transitions: AtomicU64,
    depth: AtomicU64,
    /// Per-phase entry timestamp (nanos since epoch; `u64::MAX` when
    /// not inside the phase) and accumulated nanos.
    phase_entered: [AtomicU64; PHASE_COUNT],
    phase_nanos: [AtomicU64; PHASE_COUNT],
}

impl Default for CountingRecorder {
    fn default() -> Self {
        CountingRecorder::new()
    }
}

impl CountingRecorder {
    /// A fresh recorder with all counters at zero.
    pub fn new() -> Self {
        CountingRecorder {
            epoch: Instant::now(),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            spilled_bytes: AtomicU64::new(0),
            step_lookups: AtomicU64::new(0),
            step_misses: AtomicU64::new(0),
            states: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            phase_entered: std::array::from_fn(|_| AtomicU64::new(u64::MAX)),
            phase_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Total events recorded.
    pub fn events(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Events of `kind` recorded, by wire name (`"run_start"`,
    /// `"checkpoint"`, … — the names of [`SCHEMA`]).
    ///
    /// # Panics
    ///
    /// If `kind` is not an event kind: a misspelt name must not read
    /// as "none recorded".
    pub fn count(&self, kind: &str) -> u64 {
        let index = SCHEMA
            .iter()
            .position(|(name, _)| *name == kind)
            .unwrap_or_else(|| panic!("\"{kind}\" is not an event kind"));
        self.counts[index].load(Ordering::Relaxed)
    }

    /// Cumulative spilled bytes reported by the most recent spill
    /// event (zero if none was recorded).
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes.load(Ordering::Relaxed)
    }

    /// `(lookups, misses)` of the most recent step-memo event (zeros if
    /// none was recorded).
    pub fn step_memo(&self) -> (u64, u64) {
        (
            self.step_lookups.load(Ordering::Relaxed),
            self.step_misses.load(Ordering::Relaxed),
        )
    }

    /// Unique states of the last completed run.
    pub fn states(&self) -> u64 {
        self.states.load(Ordering::Relaxed)
    }

    /// Transitions of the last completed run.
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// BFS depth of the last completed run.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Accumulated wall-clock nanoseconds spent inside `phase`.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.index()].load(Ordering::Relaxed)
    }
}

impl Recorder for CountingRecorder {
    fn record(&self, event: &Event<'_>) {
        self.counts[event.kind_index()].fetch_add(1, Ordering::Relaxed);
        // The last-value cells and phase timers: what is not a count.
        match event {
            Event::RunEnd { report } => {
                self.states.store(report.states as u64, Ordering::Relaxed);
                self.transitions
                    .store(report.transitions as u64, Ordering::Relaxed);
                self.depth.store(report.depth as u64, Ordering::Relaxed);
            }
            Event::StepMemo {
                lookups, misses, ..
            } => {
                self.step_lookups.store(*lookups, Ordering::Relaxed);
                self.step_misses.store(*misses, Ordering::Relaxed);
            }
            Event::Spill {
                total_spilled_bytes,
                ..
            } => {
                self.spilled_bytes
                    .store(*total_spilled_bytes, Ordering::Relaxed);
            }
            Event::PhaseEnter { phase } => {
                self.phase_entered[phase.index()].store(self.now_nanos(), Ordering::Relaxed);
            }
            Event::PhaseExit { phase } => {
                let entered = self.phase_entered[phase.index()].swap(u64::MAX, Ordering::Relaxed);
                if entered != u64::MAX {
                    let spent = self.now_nanos().saturating_sub(entered);
                    self.phase_nanos[phase.index()].fetch_add(spent, Ordering::Relaxed);
                }
            }
            _ => {}
        }
    }
}

/// Serializes every event as one JSON line into a shared writer.
///
/// Lines are written under a mutex — events are emitted at sampled
/// cadence, never from the allocation-free hot loop, so the lock is
/// cold. Timestamps (`"t"`, nanoseconds since the recorder was
/// created) are taken *inside* the lock, which makes them monotonic in
/// file order regardless of the emitting thread.
pub struct JsonlRecorder {
    epoch: Instant,
    sink: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonlRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlRecorder").finish_non_exhaustive()
    }
}

impl JsonlRecorder {
    /// Records into an arbitrary writer (e.g. an in-memory buffer for
    /// tests).
    pub fn from_writer(writer: impl Write + Send + 'static) -> Self {
        JsonlRecorder {
            epoch: Instant::now(),
            sink: Mutex::new(Box::new(writer)),
        }
    }

    /// Creates (truncating) a JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// I/O errors from creating the file.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(JsonlRecorder::from_writer(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        )))
    }

    /// Opens `path` for appending (creating it if missing) — the mode
    /// [`global`] uses, so successive runs accumulate in one stream.
    ///
    /// # Errors
    ///
    /// I/O errors from opening the file.
    pub fn append(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(JsonlRecorder::from_writer(std::io::BufWriter::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        )))
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) {
        let _ = self.sink.lock().unwrap().flush();
    }

    // Flushing every line keeps the stream durable and live-tailable:
    // the process-wide recorder [`global`] installs lives in a
    // `OnceLock` and is never dropped, so `Drop`'s flush cannot be
    // relied on, and events are emitted at sampled cadence — never
    // from the allocation-free hot loop — so the extra write syscall
    // per event is noise.
    fn write_line(&self, body: &str) {
        let mut sink = self.sink.lock().unwrap();
        let t = self.epoch.elapsed().as_nanos() as u64;
        let _ = writeln!(sink, "{{\"v\":{OBS_SCHEMA_VERSION},\"t\":{t},{body}}}");
        let _ = sink.flush();
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        if let Ok(sink) = self.sink.get_mut() {
            let _ = sink.flush();
        }
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, event: &Event<'_>) {
        use std::fmt::Write as _;
        let mut body = format!("\"ev\":\"{}\"", event.kind());
        event.for_each_field(|name, value| {
            let _ = write!(body, ",\"{name}\":{value}");
        });
        self.write_line(&body);
    }
}

// ---------------------------------------------------------------------
// Handles, env routing, and helpers
// ---------------------------------------------------------------------

/// A cheap, cloneable, always-`Send + Sync` reference to a recorder.
///
/// `None` inside means the null recorder — the default — without an
/// allocation. This is the form engines carry (inside
/// [`Budget`](crate::Budget)) and consult on the hot path.
#[derive(Clone, Default)]
pub struct RecorderHandle {
    inner: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("RecorderHandle(null)"),
            Some(r) => write!(
                f,
                "RecorderHandle({})",
                if r.enabled() { "enabled" } else { "disabled" }
            ),
        }
    }
}

impl RecorderHandle {
    /// The null handle (no recorder, zero overhead).
    pub fn null() -> Self {
        RecorderHandle { inner: None }
    }

    /// Wraps a shared recorder.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        RecorderHandle {
            inner: Some(recorder),
        }
    }

    /// Whether events should be produced. Hoist this out of hot loops.
    pub fn enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|r| r.enabled())
    }

    /// Forwards one event (no-op when disabled).
    pub fn record(&self, event: &Event<'_>) {
        if let Some(r) = &self.inner {
            if r.enabled() {
                r.record(event);
            }
        }
    }
}

/// RAII phase bracket: emits [`Event::PhaseEnter`] on construction and
/// the matching [`Event::PhaseExit`] on drop, so early returns and `?`
/// propagation cannot leave a phase open.
pub struct PhaseGuard {
    handle: Option<(RecorderHandle, Phase)>,
}

impl PhaseGuard {
    /// Enters `phase` on `handle` (a no-op guard when the handle is
    /// disabled).
    pub fn enter(handle: &RecorderHandle, phase: Phase) -> PhaseGuard {
        if handle.enabled() {
            handle.record(&Event::PhaseEnter { phase });
            PhaseGuard {
                handle: Some((handle.clone(), phase)),
            }
        } else {
            PhaseGuard { handle: None }
        }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((handle, phase)) = self.handle.take() {
            handle.record(&Event::PhaseExit { phase });
        }
    }
}

/// The name of the routing environment variable: set
/// `OPENTLA_OBS=/path.jsonl` and every engine that did not receive an
/// explicit recorder appends its events there.
pub const OBS_ENV: &str = "OPENTLA_OBS";

/// The process-wide default recorder, initialized once from
/// [`OBS_ENV`]: an appending [`JsonlRecorder`] when the variable names
/// a writable path, the null handle otherwise. `Budget::default()`
/// starts from this handle, which is how the env routing reaches every
/// engine.
pub fn global() -> RecorderHandle {
    static GLOBAL: OnceLock<RecorderHandle> = OnceLock::new();
    GLOBAL
        .get_or_init(|| match std::env::var(OBS_ENV) {
            Ok(path) if !path.trim().is_empty() => match JsonlRecorder::append(path.trim()) {
                Ok(rec) => RecorderHandle::new(Arc::new(rec)),
                Err(e) => {
                    eprintln!("opentla: {OBS_ENV}={path}: {e}; observability disabled");
                    RecorderHandle::null()
                }
            },
            _ => RecorderHandle::null(),
        })
        .clone()
}

/// How many of a counterexample's trace steps fired a fault-injection
/// action (actions named by the `faults` combinators carry a
/// `"fault:"` prefix).
pub fn count_fault_steps(actions: &[Option<String>]) -> usize {
    actions
        .iter()
        .flatten()
        .filter(|a| a.starts_with("fault:"))
        .count()
}

/// Emits a [`Event::Counterexample`] with provenance — and one
/// [`Event::FaultActivation`] per fault-injection step on the trace —
/// for a counterexample produced by check `kind`.
pub fn emit_counterexample(handle: &RecorderHandle, kind: &str, cx: &crate::Counterexample) {
    if !handle.enabled() {
        return;
    }
    for (step, action) in cx.actions().iter().enumerate() {
        if let Some(a) = action {
            if a.starts_with("fault:") {
                handle.record(&Event::FaultActivation {
                    action: a,
                    step: step as u64,
                    kind: "fired",
                });
            }
        }
    }
    handle.record(&Event::Counterexample {
        kind,
        reason: cx.reason(),
        length: cx.states().len(),
        loop_start: cx.loop_start(),
        fault_steps: count_fault_steps(cx.actions()),
    });
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// Stream validation (the module's own consumer)
// ---------------------------------------------------------------------

/// A parsed JSON value — the minimal in-tree parser used to validate
/// event streams without external dependencies.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object's keys, in source order.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// How deep arrays and objects may nest: far above anything an event
/// carries, and shallow enough that the recursion below cannot exhaust
/// a thread's stack.
const MAX_NESTING: usize = 128;

/// Parses the value at `pos`, inside `depth` enclosing arrays and
/// objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let Some(&c) = bytes.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    if matches!(c, b'{' | b'[') && depth == MAX_NESTING {
        return Err(format!("nesting deeper than {MAX_NESTING} at byte {pos}"));
    }
    match c {
        b'{' => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let Json::Str(key) = parse_value(bytes, pos, depth + 1)? else {
                    return Err(format!("object key must be a string at byte {pos}"));
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        b'"' => {
            *pos += 1;
            let mut out = String::new();
            loop {
                let Some(&c) = bytes.get(*pos) else {
                    return Err("unterminated string".into());
                };
                *pos += 1;
                match c {
                    b'"' => return Ok(Json::Str(out)),
                    b'\\' => {
                        let Some(&esc) = bytes.get(*pos) else {
                            return Err("unterminated escape".into());
                        };
                        *pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex =
                                    bytes.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                *pos += 4;
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            other => return Err(format!("bad escape '\\{}'", other as char)),
                        }
                    }
                    c => {
                        // Re-decode multi-byte UTF-8 from the source.
                        if c < 0x80 {
                            out.push(c as char);
                        } else {
                            let start = *pos - 1;
                            let width = match c {
                                0xc0..=0xdf => 2,
                                0xe0..=0xef => 3,
                                _ => 4,
                            };
                            let slice = bytes
                                .get(start..start + width)
                                .ok_or("truncated UTF-8 sequence")?;
                            out.push_str(std::str::from_utf8(slice).map_err(|e| e.to_string())?);
                            *pos = start + width;
                        }
                    }
                }
            }
        }
        b't' if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        b'f' if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        b'n' if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        _ => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&bytes[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
    }
}

/// Totals of one completed run, extracted by [`validate_stream`] from
/// its `run_end` report.
#[derive(Clone, Debug, PartialEq)]
pub struct RunTotals {
    /// Engine name.
    pub engine: String,
    /// Worker threads.
    pub threads: u64,
    /// Visited-set mode.
    pub mode: String,
    /// Unique states.
    pub states: u64,
    /// Transitions.
    pub transitions: u64,
    /// BFS depth.
    pub depth: u64,
    /// Whether the run completed.
    pub complete: bool,
}

/// What [`validate_stream`] learned about a schema-valid stream.
#[derive(Clone, Debug, Default)]
pub struct StreamSummary {
    /// Total events.
    pub events: usize,
    /// Event count per kind.
    pub kinds: BTreeMap<String, usize>,
    /// For every event kind seen, the set of field names observed
    /// (union across events of that kind) — the stream's *shape*, for
    /// golden tests that must not depend on timings.
    pub fields: BTreeMap<String, Vec<String>>,
    /// Totals of each completed run, in stream order.
    pub runs: Vec<RunTotals>,
    /// Deepest phase nesting observed.
    pub max_phase_depth: usize,
}

fn invalid(key: &str, line: usize) -> String {
    format!("line {line}: missing/invalid \"{key}\"")
}

fn req_u64(obj: &Json, key: &str, line: usize) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| invalid(key, line))
}

fn req_str<'j>(obj: &'j Json, key: &str, line: usize) -> Result<&'j str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| invalid(key, line))
}

fn req_bool(obj: &Json, key: &str, line: usize) -> Result<bool, String> {
    obj.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| invalid(key, line))
}

/// The generic half of [`validate_stream`]: every member of the event
/// object `obj` (past the `v`/`t`/`ev` envelope) is listed in the
/// kind's [`SCHEMA`] row `fields` and typed as the row says, and every
/// required field of the row is present.
fn check_fields(
    obj: &Json,
    kind: &str,
    fields: &[(&str, Wire, Presence)],
    line: usize,
) -> Result<(), String> {
    let Json::Obj(members) = obj else {
        return Err(format!("line {line}: an event is a JSON object"));
    };
    for (key, value) in members {
        if matches!(key.as_str(), "v" | "t" | "ev") {
            continue;
        }
        let Some((_, wire, _)) = fields.iter().find(|(name, ..)| name == key) else {
            return Err(format!("line {line}: unknown member \"{key}\" on {kind}"));
        };
        let well_typed = match wire {
            Wire::U64 => value.as_u64().is_some(),
            Wire::Str => value.as_str().is_some(),
            Wire::Bool => value.as_bool().is_some(),
            Wire::Rate => matches!(value, Json::Num(n) if *n >= 0.0),
            Wire::Report => matches!(value, Json::Obj(_)),
        };
        if !well_typed {
            return Err(invalid(key, line));
        }
    }
    match fields
        .iter()
        .find(|(name, _, presence)| *presence == Presence::Required && obj.get(name).is_none())
    {
        Some((name, ..)) => Err(invalid(name, line)),
        None => Ok(()),
    }
}

/// Validates a JSONL event stream against the schema.
///
/// Checks, per line: it parses; `"v"` equals [`OBS_SCHEMA_VERSION`];
/// `"t"` is present and non-decreasing in file order (the recorder
/// timestamps under its write lock, so this holds across threads);
/// `"ev"` is a known kind whose members are exactly what its [`SCHEMA`]
/// row allows — every required field present, every present field of
/// the row's wire type, no member the row does not list. Structurally:
/// phase enter/exit events obey stack discipline, runs do not nest,
/// every `run_start` is closed by a `run_end` whose engine matches,
/// and the last `progress` snapshot inside a run agrees with the final
/// report's state/transition totals.
///
/// # Errors
///
/// The first violation, as a human-readable string prefixed with the
/// 1-based line number.
pub fn validate_stream(text: &str) -> Result<StreamSummary, String> {
    let mut summary = StreamSummary::default();
    let mut last_t: u64 = 0;
    let mut phase_stack: Vec<String> = Vec::new();
    let mut open_run: Option<String> = None;
    let mut last_progress: Option<(u64, u64)> = None;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let obj = Json::parse(raw).map_err(|e| format!("line {line}: {e}"))?;
        let v = req_u64(&obj, "v", line)?;
        if v != OBS_SCHEMA_VERSION {
            return Err(format!(
                "line {line}: schema version {v}, expected {OBS_SCHEMA_VERSION}"
            ));
        }
        let t = req_u64(&obj, "t", line)?;
        if t < last_t {
            return Err(format!(
                "line {line}: timestamp {t} went backwards (previous {last_t})"
            ));
        }
        last_t = t;
        let ev = req_str(&obj, "ev", line)?;
        let Some((_, fields)) = SCHEMA.iter().find(|(kind, _)| *kind == ev) else {
            return Err(format!("line {line}: unknown event kind \"{ev}\""));
        };
        check_fields(&obj, ev, fields, line)?;
        summary.events += 1;
        *summary.kinds.entry(ev.to_string()).or_insert(0) += 1;
        let seen = summary.fields.entry(ev.to_string()).or_default();
        for k in obj.keys() {
            if !seen.iter().any(|f| f == k) {
                seen.push(k.to_string());
            }
        }
        // Only the rules that relate one field to another, or one line
        // to another, are left to write by hand.
        match ev {
            "run_start" => {
                let engine = req_str(&obj, "engine", line)?;
                if let Some(open) = &open_run {
                    return Err(format!(
                        "line {line}: run_start({engine}) inside open run {open}"
                    ));
                }
                open_run = Some(engine.to_string());
                last_progress = None;
            }
            "run_end" => {
                let report = obj.get("report").ok_or_else(|| invalid("report", line))?;
                let engine = req_str(report, "engine", line)?;
                let sv = req_u64(report, "schema_version", line)?;
                if sv != OBS_SCHEMA_VERSION {
                    return Err(format!("line {line}: report schema version {sv}"));
                }
                match open_run.take() {
                    Some(open) if open == engine => {}
                    Some(open) => {
                        return Err(format!(
                            "line {line}: run_end({engine}) closes run_start({open})"
                        ))
                    }
                    None => return Err(format!("line {line}: run_end without run_start")),
                }
                let totals = RunTotals {
                    engine: engine.to_string(),
                    threads: req_u64(report, "threads", line)?,
                    mode: req_str(report, "mode", line)?.to_string(),
                    states: req_u64(report, "states", line)?,
                    transitions: req_u64(report, "transitions", line)?,
                    depth: req_u64(report, "depth", line)?,
                    complete: req_bool(report, "complete", line)?,
                };
                req_u64(report, "duration_nanos", line)?;
                req_str(report, "outcome", line)?;
                if let Some((ps, pt)) = last_progress {
                    if totals.complete && (ps != totals.states || pt != totals.transitions) {
                        return Err(format!(
                            "line {line}: final snapshot ({ps} states, {pt} transitions) \
                             disagrees with report ({} states, {} transitions)",
                            totals.states, totals.transitions
                        ));
                    }
                }
                summary.runs.push(totals);
            }
            "phase_enter" => {
                phase_stack.push(req_str(&obj, "phase", line)?.to_string());
                summary.max_phase_depth = summary.max_phase_depth.max(phase_stack.len());
            }
            "phase_exit" => {
                let phase = req_str(&obj, "phase", line)?;
                match phase_stack.pop() {
                    Some(top) if top == phase => {}
                    Some(top) => {
                        return Err(format!(
                            "line {line}: phase_exit({phase}) closes phase_enter({top})"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "line {line}: phase_exit({phase}) with empty phase stack"
                        ))
                    }
                }
            }
            "progress" => {
                last_progress = Some((
                    req_u64(&obj, "states", line)?,
                    req_u64(&obj, "transitions", line)?,
                ));
            }
            "spill" => {
                let tier = req_str(&obj, "tier", line)?;
                if !matches!(tier, "arena" | "edges" | "visited") {
                    return Err(format!("line {line}: unknown spill tier \"{tier}\""));
                }
            }
            "image_pass" => {
                let distinct = req_u64(&obj, "distinct_values", line)?;
                let undefined = req_u64(&obj, "undefined", line)?;
                let images = req_u64(&obj, "states", line)?.saturating_mul(req_u64(
                    &obj,
                    "mapped_vars",
                    line,
                )?);
                if distinct.saturating_add(undefined) > images {
                    return Err(format!(
                        "line {line}: {distinct} distinct values and {undefined} \
                         undefined among {images} images"
                    ));
                }
                // Every distinct value came out of an evaluation, and
                // no image was evaluated twice.
                let evaluated = req_u64(&obj, "evaluated", line)?;
                if distinct > evaluated || evaluated > images {
                    return Err(format!(
                        "line {line}: {evaluated} evaluations for {distinct} distinct \
                         values among {images} images"
                    ));
                }
            }
            "image_memo" => {
                let pairs = req_u64(&obj, "distinct_pairs", line)?;
                let edges = req_u64(&obj, "edges", line)?;
                if pairs > edges {
                    return Err(format!(
                        "line {line}: {pairs} step evaluations for {edges} edges"
                    ));
                }
                if req_bool(&obj, "skipped", line)? && pairs != edges {
                    return Err(format!(
                        "line {line}: a skipped memo evaluates every edge \
                         ({pairs} of {edges})"
                    ));
                }
            }
            "step_memo" => {
                let tabled = req_u64(&obj, "tabled_actions", line)?;
                let actions = req_u64(&obj, "actions", line)?;
                let misses = req_u64(&obj, "misses", line)?;
                let lookups = req_u64(&obj, "lookups", line)?;
                if tabled > actions || misses > lookups {
                    return Err(format!(
                        "line {line}: {tabled} tabled of {actions} actions, \
                         {misses} misses of {lookups} lookups"
                    ));
                }
            }
            _ => {}
        }
    }
    if let Some(open) = open_run {
        return Err(format!("stream ended inside open run {open}"));
    }
    if !phase_stack.is_empty() {
        return Err(format!("stream ended inside open phase(s) {phase_stack:?}"));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer the test can read back.
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sample_report() -> RunReport {
        RunReport {
            schema_version: OBS_SCHEMA_VERSION,
            engine: "explore_sequential".into(),
            threads: 1,
            mode: "fingerprint".into(),
            states: 5,
            transitions: 4,
            depth: 2,
            deadlocks: 1,
            outcome: "complete".into(),
            complete: true,
            duration_nanos: 11,
        }
    }

    /// One event of every kind, in [`SCHEMA`] order, with every
    /// optional field set — and, read top to bottom, a well-formed
    /// stream. 5 states in 2 s is 2.5 states/s, which `{:.0}` writes as
    /// `2`; the counterexample's reason needs every escape.
    fn samples(report: &RunReport) -> [Event<'_>; 15] {
        [
            Event::RunStart {
                engine: "explore_sequential",
                threads: 1,
                mode: "fingerprint",
            },
            Event::PhaseEnter {
                phase: Phase::ExploreExpand,
            },
            Event::PhaseExit {
                phase: Phase::ExploreExpand,
            },
            Event::Progress {
                snapshot: ProgressSnapshot {
                    states: 5,
                    transitions: 4,
                    elapsed_nanos: 2_000_000_000,
                    frontier: Some(1),
                    level: Some(2),
                    worker: Some(0),
                    budget_states: Some(100),
                    budget_transitions: Some(200),
                },
            },
            Event::FaultActivation {
                action: "fault:lossy[sync]",
                step: 4,
                kind: "fired",
            },
            Event::Counterexample {
                kind: "liveness",
                reason: "a \"quoted\"\\ reason\n\twith ⊳ and \u{1}",
                length: 5,
                loop_start: Some(2),
                fault_steps: 1,
            },
            Event::Check {
                kind: "obligation",
                name: "H2a/P4",
                holds: true,
            },
            Event::Checkpoint {
                seq: 1,
                states: 3,
                transitions: 2,
                frontier: 1,
            },
            Event::Resume {
                seq: 1,
                states: 3,
                transitions: 2,
                frontier: 1,
            },
            Event::Spill {
                tier: "arena",
                seq: 0,
                records: 64,
                bytes: 4096,
                total_spilled_bytes: 8192,
            },
            Event::CacheStats {
                hits: 9,
                misses: 1,
                evictions: 0,
                resident_bytes: 4096,
                spilled_bytes: 8192,
            },
            Event::ImagePass {
                states: 3,
                mapped_vars: 1,
                distinct_values: 2,
                undefined: 0,
                evaluated: 2,
                key_bits: 3,
                nanos: 650,
            },
            Event::ImageMemo {
                check: "simulation",
                classes: 2,
                distinct_pairs: 2,
                edges: 2,
                skipped: false,
                nanos: 420,
            },
            Event::StepMemo {
                actions: 13,
                tabled_actions: 12,
                table_entries: 171,
                lookups: 6_360_302,
                misses: 172,
            },
            Event::RunEnd { report },
        ]
    }

    /// The JSONL bodies (everything after `"t":…,`) of [`samples`], as
    /// the hand-written per-kind writer of commit 667e7d3 produced them.
    const PINNED_BODIES: [&str; 15] = [
        "\"ev\":\"run_start\",\"engine\":\"explore_sequential\",\"threads\":1,\"mode\":\"fingerprint\"",
        "\"ev\":\"phase_enter\",\"phase\":\"explore_expand\"",
        "\"ev\":\"phase_exit\",\"phase\":\"explore_expand\"",
        "\"ev\":\"progress\",\"states\":5,\"transitions\":4,\"elapsed_nanos\":2000000000,\"states_per_sec\":2,\"frontier\":1,\"level\":2,\"worker\":0,\"budget_states\":100,\"budget_transitions\":200",
        "\"ev\":\"fault_activation\",\"action\":\"fault:lossy[sync]\",\"step\":4,\"kind\":\"fired\"",
        "\"ev\":\"counterexample\",\"kind\":\"liveness\",\"reason\":\"a \\\"quoted\\\"\\\\ reason\\n\\twith ⊳ and \\u0001\",\"length\":5,\"fault_steps\":1,\"loop_start\":2",
        "\"ev\":\"check\",\"kind\":\"obligation\",\"name\":\"H2a/P4\",\"holds\":true",
        "\"ev\":\"checkpoint\",\"seq\":1,\"states\":3,\"transitions\":2,\"frontier\":1",
        "\"ev\":\"resume\",\"seq\":1,\"states\":3,\"transitions\":2,\"frontier\":1",
        "\"ev\":\"spill\",\"tier\":\"arena\",\"seq\":0,\"records\":64,\"bytes\":4096,\"total_spilled_bytes\":8192",
        "\"ev\":\"cache_stats\",\"hits\":9,\"misses\":1,\"evictions\":0,\"resident_bytes\":4096,\"spilled_bytes\":8192",
        "\"ev\":\"image_pass\",\"states\":3,\"mapped_vars\":1,\"distinct_values\":2,\"undefined\":0,\"evaluated\":2,\"key_bits\":3,\"nanos\":650",
        "\"ev\":\"image_memo\",\"check\":\"simulation\",\"classes\":2,\"distinct_pairs\":2,\"edges\":2,\"skipped\":false,\"nanos\":420",
        "\"ev\":\"step_memo\",\"actions\":13,\"tabled_actions\":12,\"table_entries\":171,\"lookups\":6360302,\"misses\":172",
        "\"ev\":\"run_end\",\"report\":{\"schema_version\":7,\"engine\":\"explore_sequential\",\"threads\":1,\"mode\":\"fingerprint\",\"states\":5,\"transitions\":4,\"depth\":2,\"deadlocks\":1,\"outcome\":\"complete\",\"complete\":true,\"duration_nanos\":11}",
    ];

    #[test]
    fn schema_rows_are_exactly_what_each_event_emits() {
        let report = sample_report();
        for (i, event) in samples(&report).iter().enumerate() {
            let (kind, row) = SCHEMA[i];
            assert_eq!(event.kind_index(), i, "{kind}");
            assert_eq!(event.kind(), kind);
            let mut visited = Vec::new();
            event.for_each_field(|name, value| {
                let wire = match value {
                    Field::U64(_) => Wire::U64,
                    Field::Str(_) => Wire::Str,
                    Field::Bool(_) => Wire::Bool,
                    Field::Rate(_) => Wire::Rate,
                    Field::Report(_) => Wire::Report,
                };
                visited.push((name, wire));
            });
            let listed: Vec<_> = row.iter().map(|(name, wire, _)| (*name, *wire)).collect();
            assert_eq!(visited, listed, "{kind}: emitter and SCHEMA row differ");
        }
        // An unknown optional is not visited.
        let bare = Event::Progress {
            snapshot: ProgressSnapshot::default(),
        };
        let mut visited = 0;
        bare.for_each_field(|_, _| visited += 1);
        assert_eq!(visited, 4);
    }

    #[test]
    fn wire_format_is_pinned_for_every_kind() {
        let report = sample_report();
        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        let rec = JsonlRecorder::from_writer(Shared(Arc::clone(&buf)));
        for event in samples(&report) {
            rec.record(&event);
        }
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), PINNED_BODIES.len());
        for (line, (pinned, (kind, _))) in lines.iter().zip(PINNED_BODIES.iter().zip(SCHEMA)) {
            let head = format!("{{\"v\":{OBS_SCHEMA_VERSION},\"t\":");
            assert!(line.starts_with(&head), "{kind}: {line}");
            let body = &line[line.find("\"ev\"").unwrap()..line.len() - 1];
            assert_eq!(body, *pinned, "{kind}");
        }
        let summary = validate_stream(&text).expect("the samples are a well-formed stream");
        assert!(SCHEMA.iter().all(|(kind, _)| summary.kinds[*kind] == 1));
    }

    /// One line of `event` with `field` dropped (`retyped: None`) or
    /// rewritten as `retyped`.
    fn line_with(event: &Event<'_>, field: &str, retyped: Option<&str>) -> String {
        let mut line = format!("{{\"v\":7,\"t\":1,\"ev\":\"{}\"", event.kind());
        event.for_each_field(|name, value| match retyped {
            _ if name != field => line.push_str(&format!(",\"{name}\":{value}")),
            Some(other) => line.push_str(&format!(",\"{name}\":{other}")),
            None => {}
        });
        line + "}\n"
    }

    #[test]
    fn every_required_field_must_be_present_and_well_typed() {
        let report = sample_report();
        for event in samples(&report) {
            for (field, wire, presence) in SCHEMA[event.kind_index()].1 {
                let naming_it = format!("line 1: missing/invalid \"{field}\"");
                let retyped = if *wire == Wire::Str { "7" } else { "\"x\"" };
                let err = validate_stream(&line_with(&event, field, Some(retyped))).unwrap_err();
                assert_eq!(err, naming_it, "{} retyped", event.kind());
                if *presence == Presence::Required {
                    let err = validate_stream(&line_with(&event, field, None)).unwrap_err();
                    assert_eq!(err, naming_it, "{} removed", event.kind());
                }
            }
        }
    }

    #[test]
    fn validator_rejects_mistyped_optionals_and_unlisted_members() {
        let progress = "{\"v\":7,\"t\":1,\"ev\":\"progress\",\"states\":0,\"transitions\":0,\
                        \"elapsed_nanos\":0,\"states_per_sec\":0";
        assert!(validate_stream(&format!("{progress}}}\n")).is_ok());
        let err = validate_stream(&format!("{progress},\"frontier\":\"x\"}}\n")).unwrap_err();
        assert_eq!(err, "line 1: missing/invalid \"frontier\"");
        let cx = "{\"v\":7,\"t\":1,\"ev\":\"counterexample\",\"kind\":\"liveness\",\
                  \"reason\":\"r\",\"length\":3,\"fault_steps\":0";
        assert!(validate_stream(&format!("{cx},\"loop_start\":1}}\n")).is_ok());
        let err = validate_stream(&format!("{cx},\"loop_start\":-1}}\n")).unwrap_err();
        assert_eq!(err, "line 1: missing/invalid \"loop_start\"");
        // A member the kind's row does not list, on the second line.
        let err = validate_stream(&format!(
            "{cx}}}\n{{\"v\":7,\"t\":2,\"ev\":\"resume\",\"seq\":1,\"states\":3,\
             \"transitions\":2,\"frontier\":1,\"ample_states\":0}}\n"
        ))
        .unwrap_err();
        assert_eq!(err, "line 2: unknown member \"ample_states\" on resume");
    }

    #[test]
    #[should_panic(expected = "not an event kind")]
    fn counting_an_unknown_kind_is_a_bug_not_a_zero() {
        CountingRecorder::new().count("resumes");
    }

    #[test]
    fn readme_observability_section_names_every_event_kind() {
        let readme = include_str!("../../../README.md");
        let start = readme
            .find("\n## Observability")
            .expect("README has the section");
        let section = &readme[start + 1..];
        let section = &section[..section.find("\n## ").unwrap_or(section.len())];
        for (kind, _) in SCHEMA {
            assert!(
                section.contains(&format!("`{kind}`")),
                "README \"Observability\" omits `{kind}`"
            );
        }
    }

    #[test]
    fn null_recorder_is_disabled_and_silent() {
        let handle = RecorderHandle::null();
        assert!(!handle.enabled());
        handle.record(&Event::PhaseEnter {
            phase: Phase::Suite,
        });
        assert!(!RecorderHandle::default().enabled());
    }

    #[test]
    fn counting_recorder_tallies_and_times_phases() {
        let rec = CountingRecorder::new();
        rec.record(&Event::RunStart {
            engine: "explore_sequential",
            threads: 1,
            mode: "fingerprint",
        });
        rec.record(&Event::PhaseEnter {
            phase: Phase::ExploreExpand,
        });
        std::thread::sleep(std::time::Duration::from_millis(1));
        rec.record(&Event::PhaseExit {
            phase: Phase::ExploreExpand,
        });
        let report = RunReport {
            schema_version: OBS_SCHEMA_VERSION,
            engine: "explore_sequential".into(),
            threads: 1,
            mode: "fingerprint".into(),
            states: 42,
            transitions: 99,
            depth: 7,
            deadlocks: 1,
            outcome: "complete".into(),
            complete: true,
            duration_nanos: 5,
        };
        rec.record(&Event::RunEnd { report: &report });
        assert_eq!(rec.count("run_start"), 1);
        assert_eq!(rec.count("run_end"), 1);
        assert_eq!(rec.count("progress"), 0);
        assert_eq!(rec.states(), 42);
        assert_eq!(rec.transitions(), 99);
        assert_eq!(rec.depth(), 7);
        assert!(rec.phase_nanos(Phase::ExploreExpand) > 0);
        assert_eq!(rec.phase_nanos(Phase::Liveness), 0);
        assert_eq!(rec.events(), 4);
    }

    #[test]
    fn jsonl_round_trips_through_the_validator() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        let rec = JsonlRecorder::from_writer(Shared(Arc::clone(&buf)));
        rec.record(&Event::RunStart {
            engine: "explore_sequential",
            threads: 1,
            mode: "fingerprint",
        });
        rec.record(&Event::PhaseEnter {
            phase: Phase::ExploreExpand,
        });
        rec.record(&Event::Progress {
            snapshot: ProgressSnapshot {
                states: 3,
                transitions: 2,
                elapsed_nanos: 10,
                frontier: Some(1),
                ..ProgressSnapshot::default()
            },
        });
        rec.record(&Event::PhaseExit {
            phase: Phase::ExploreExpand,
        });
        let report = RunReport {
            schema_version: OBS_SCHEMA_VERSION,
            engine: "explore_sequential".into(),
            threads: 1,
            mode: "fingerprint".into(),
            states: 3,
            transitions: 2,
            depth: 2,
            deadlocks: 1,
            outcome: "complete".into(),
            complete: true,
            duration_nanos: 11,
        };
        rec.record(&Event::RunEnd { report: &report });
        rec.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let summary = validate_stream(&text).expect("stream validates");
        assert_eq!(summary.events, 5);
        assert_eq!(summary.runs.len(), 1);
        assert_eq!(summary.runs[0].states, 3);
        assert_eq!(summary.kinds["progress"], 1);
        assert_eq!(summary.max_phase_depth, 1);
    }

    #[test]
    fn image_memo_event_counts_serializes_and_validates() {
        let event = Event::ImageMemo {
            check: "simulation",
            classes: 58,
            distinct_pairs: 178,
            edges: 1_699_992,
            skipped: false,
            nanos: 21_000_000,
        };
        let rec = CountingRecorder::new();
        rec.record(&event);
        assert_eq!(rec.count("image_memo"), 1);
        assert_eq!(rec.events(), 1);

        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        let rec = JsonlRecorder::from_writer(Shared(Arc::clone(&buf)));
        rec.record(&event);
        rec.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let summary = validate_stream(&text).expect("stream validates");
        assert_eq!(summary.kinds["image_memo"], 1);
        // More evaluations than edges, or a skipped memo that did not
        // evaluate every edge, is not a stream this crate writes.
        let head = "{\"v\":7,\"t\":1,\"ev\":\"image_memo\",\"check\":\"liveness\",\"classes\":3";
        let bad =
            format!("{head},\"distinct_pairs\":9,\"edges\":8,\"skipped\":false,\"nanos\":5}}\n");
        assert!(validate_stream(&bad).unwrap_err().contains("evaluations"));
        let bad =
            format!("{head},\"distinct_pairs\":7,\"edges\":8,\"skipped\":true,\"nanos\":5}}\n");
        assert!(validate_stream(&bad).unwrap_err().contains("skipped"));
        let bad = format!("{head},\"distinct_pairs\":7,\"edges\":8,\"nanos\":5}}\n");
        assert!(validate_stream(&bad).unwrap_err().contains("skipped"));
        let bad = format!("{head},\"distinct_pairs\":7,\"edges\":8,\"skipped\":false}}\n");
        assert!(validate_stream(&bad).unwrap_err().contains("nanos"));
    }

    #[test]
    fn step_memo_event_counts_serializes_and_validates() {
        let event = Event::StepMemo {
            actions: 8,
            tabled_actions: 8,
            table_entries: 984,
            lookups: 2_465_424,
            misses: 984,
        };
        let rec = CountingRecorder::new();
        rec.record(&event);
        assert_eq!(rec.count("step_memo"), 1);
        assert_eq!(rec.step_memo(), (2_465_424, 984));

        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        let rec = JsonlRecorder::from_writer(Shared(Arc::clone(&buf)));
        rec.record(&event);
        rec.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let summary = validate_stream(&text).expect("stream validates");
        assert_eq!(summary.kinds["step_memo"], 1);
        // More tabled actions than actions, or more misses than
        // lookups, is not a stream this crate writes.
        let head = "{\"v\":7,\"t\":1,\"ev\":\"step_memo\",\"actions\":2";
        let bad = format!(
            "{head},\"tabled_actions\":3,\"table_entries\":0,\"lookups\":0,\"misses\":0}}\n"
        );
        assert!(validate_stream(&bad).unwrap_err().contains("tabled"));
        let bad = format!(
            "{head},\"tabled_actions\":2,\"table_entries\":1,\"lookups\":4,\"misses\":5}}\n"
        );
        assert!(validate_stream(&bad).unwrap_err().contains("misses"));
    }

    #[test]
    fn image_pass_event_counts_serializes_and_validates() {
        let event = Event::ImagePass {
            states: 489_254,
            mapped_vars: 1,
            distinct_values: 1_023,
            undefined: 0,
            evaluated: 44_358,
            key_bits: 40,
            nanos: 650_000_000,
        };
        let rec = CountingRecorder::new();
        rec.record(&event);
        assert_eq!(rec.count("image_pass"), 1);
        assert_eq!(rec.events(), 1);

        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        let rec = JsonlRecorder::from_writer(Shared(Arc::clone(&buf)));
        rec.record(&event);
        rec.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let summary = validate_stream(&text).expect("stream validates");
        assert_eq!(summary.kinds["image_pass"], 1);
        // More distinct (or undefined) values than images, fewer
        // evaluations than distinct values or more than images, or a
        // missing field, is not a stream this crate writes.
        let head = "{\"v\":7,\"t\":1,\"ev\":\"image_pass\",\"states\":4,\"mapped_vars\":2";
        let line = |distinct: u64, undefined: u64, evaluated: u64| {
            format!(
                "{head},\"distinct_values\":{distinct},\"undefined\":{undefined},\
                 \"evaluated\":{evaluated},\"key_bits\":7,\"nanos\":5}}\n"
            )
        };
        validate_stream(&line(6, 2, 8)).expect("at the bounds");
        assert!(validate_stream(&line(9, 0, 8))
            .unwrap_err()
            .contains("distinct"));
        assert!(validate_stream(&line(6, 3, 8))
            .unwrap_err()
            .contains("undefined"));
        assert!(validate_stream(&line(6, 0, 5))
            .unwrap_err()
            .contains("evaluations"));
        assert!(validate_stream(&line(6, 0, 9))
            .unwrap_err()
            .contains("evaluations"));
        let bad = format!(
            "{head},\"distinct_values\":6,\"undefined\":0,\"evaluated\":6,\"key_bits\":7}}\n"
        );
        assert!(validate_stream(&bad).unwrap_err().contains("nanos"));
    }

    #[test]
    fn validator_rejects_malformed_streams() {
        // Backwards timestamp.
        let bad = "{\"v\":7,\"t\":5,\"ev\":\"phase_enter\",\"phase\":\"suite\"}\n\
                   {\"v\":7,\"t\":4,\"ev\":\"phase_exit\",\"phase\":\"suite\"}\n";
        assert!(validate_stream(bad).unwrap_err().contains("backwards"));
        // Mismatched phase nesting.
        let bad = "{\"v\":7,\"t\":1,\"ev\":\"phase_enter\",\"phase\":\"suite\"}\n\
                   {\"v\":7,\"t\":2,\"ev\":\"phase_exit\",\"phase\":\"liveness\"}\n";
        assert!(validate_stream(bad).unwrap_err().contains("closes"));
        // Unclosed run.
        let bad = "{\"v\":7,\"t\":1,\"ev\":\"run_start\",\"engine\":\"e\",\"threads\":1,\"mode\":\"m\"}\n";
        assert!(validate_stream(bad).unwrap_err().contains("open run"));
        // Wrong version.
        let bad = "{\"v\":99,\"t\":1,\"ev\":\"progress\",\"states\":0,\"transitions\":0,\"elapsed_nanos\":0}\n";
        assert!(validate_stream(bad).unwrap_err().contains("schema version"));
        // An earlier version's `reduction` event (symmetry reduction is
        // gone) is refused on its version, not half-read.
        let bad = "{\"v\":4,\"t\":1,\"ev\":\"reduction\",\"canon_hits\":4}\n";
        assert!(validate_stream(bad)
            .unwrap_err()
            .contains("schema version 4"));
        // Unknown kind.
        let bad = "{\"v\":7,\"t\":1,\"ev\":\"mystery\"}\n";
        assert!(validate_stream(bad).unwrap_err().contains("unknown event"));
    }

    #[test]
    fn json_parser_handles_escapes_and_structure() {
        let v = Json::parse(
            "{\"a\": [1, 2.5, -3], \"s\": \"x\\n\\\"y\\\" ⊳\", \"b\": true, \"n\": null}",
        )
        .unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-3.0)
            ]))
        );
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\n\"y\" ⊳"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("n"), Some(&Json::Null));
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1, 2").is_err());
    }

    /// Deep nesting is a syntax error with its byte offset, never a
    /// stack overflow: a line of a stream is untrusted input.
    #[test]
    fn json_parser_refuses_deep_nesting() {
        for (open, width) in [("[", 1), ("{\"a\":", 5)] {
            let err = Json::parse(&open.repeat(100_000)).unwrap_err();
            let at = format!("nesting deeper than 128 at byte {}", 128 * width);
            assert_eq!(err, at, "{open}");
            let line = format!("{}\n", open.repeat(100_000));
            assert!(validate_stream(&line).unwrap_err().contains(&at), "{open}");
        }
        // At the limit it still parses.
        let deep = format!("{}{}", "[".repeat(128), "]".repeat(128));
        assert!(Json::parse(&deep).is_ok());
    }

    #[test]
    fn fault_step_counting_and_emission() {
        let actions = vec![
            None,
            Some("deliver".to_string()),
            Some("fault:lossy[sync]".to_string()),
            Some("fault:crash[q]".to_string()),
        ];
        assert_eq!(count_fault_steps(&actions), 2);
        let counting = Arc::new(CountingRecorder::new());
        let handle = RecorderHandle::new(counting.clone());
        let blank = || opentla_kernel::State::new(Vec::<opentla_kernel::Value>::new());
        let cx = crate::Counterexample::new(
            "test",
            vec![blank(), blank(), blank(), blank()],
            actions,
            None,
        );
        emit_counterexample(&handle, "liveness", &cx);
        assert_eq!(counting.count("counterexample"), 1);
        assert_eq!(counting.count("fault_activation"), 2);
    }

    #[test]
    fn report_json_is_parseable() {
        let report = RunReport {
            schema_version: OBS_SCHEMA_VERSION,
            engine: "explore_spill".into(),
            threads: 1,
            mode: "exact".into(),
            states: 10,
            transitions: 20,
            depth: 5,
            deadlocks: 0,
            outcome: "exhausted (state limit of 10 reached)".into(),
            complete: false,
            duration_nanos: 1234,
        };
        let parsed = Json::parse(&report.to_json()).unwrap();
        assert_eq!(parsed.get("states").unwrap().as_u64(), Some(10));
        assert_eq!(
            parsed.get("engine").unwrap().as_str(),
            Some("explore_spill")
        );
        assert_eq!(parsed.get("complete").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn phase_guard_brackets_even_on_early_exit() {
        let counting = Arc::new(CountingRecorder::new());
        let handle = RecorderHandle::new(counting.clone());
        let attempt = || -> Result<(), ()> {
            let _g = PhaseGuard::enter(&handle, Phase::Liveness);
            Err(())
        };
        assert!(attempt().is_err());
        // Enter and exit both fired despite the early return.
        assert_eq!(counting.events(), 2);
        assert!(counting.phase_nanos(Phase::Liveness) < u64::MAX);
    }
}
