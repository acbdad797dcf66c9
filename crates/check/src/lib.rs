//! # opentla-check
//!
//! An explicit-state model checker: the "complete system" verification
//! substrate that the Composition Theorem of *Open Systems in TLA*
//! (Abadi & Lamport, PODC 1994) reduces open-system reasoning to.
//!
//! The checker works on [`System`]s — transition systems in guarded-
//! command form whose variables range over finite domains — and
//! provides:
//!
//! * [`explore`] — deterministic breadth-first reachability, producing
//!   a [`StateGraph`];
//! * [`check_invariant`] / [`check_step_invariant`] — state and action
//!   invariants with shortest counterexample traces;
//! * [`check_simulation`] — step simulation against a safety-canonical
//!   specification under a refinement mapping (the safety half of
//!   refinement and of the Composition Theorem's hypotheses);
//! * [`check_liveness`] — fairness-aware liveness checking by
//!   strongly-connected-component analysis, producing fair lasso
//!   counterexamples ([`Counterexample`] converts into a semantic
//!   [`Lasso`](opentla_semantics::Lasso) so every counterexample can be
//!   re-checked against the trace semantics);
//! * [`faults`] — adversarial fault-injection combinators
//!   ([`faults::lossy`], [`faults::duplicate`], [`faults::crash_restart`],
//!   [`faults::hostile_env`]) that transform a [`System`] into a
//!   degraded variant for robustness checking;
//! * [`Budget`] / [`Outcome`] — a resource governor: every engine has a
//!   `*_governed` variant that stops gracefully when states,
//!   transitions, wall-clock, or a cancellation flag run out, returning
//!   partial results instead of an error, with [`escalate`] for
//!   geometric-retry loops;
//! * [`Snapshot`] / [`explore_resumable`] — crash tolerance: budgeted
//!   explorations periodically checkpoint their resumable core to a
//!   versioned, checksummed on-disk snapshot
//!   ([`Budget::with_checkpoint`]; one format, whichever plan wrote
//!   it) and resume from the preserved frontier instead of restarting;
//!   an interrupted check *over* a finished graph restarts
//!   ([`escalate`]);
//! * [`image`] — image classes: simulation and fairness-target checks
//!   decide each obligation once per abstract step under the
//!   refinement mapping instead of once per concrete edge, and read
//!   the mapping from one evaluation per graph that several checks can
//!   share ([`check_simulation_with_images`],
//!   [`check_liveness_with_images`]);
//! * [`obs`] — the observability layer: structured run events, live
//!   progress metrics, and exportable schema-versioned [`RunReport`]s
//!   from every engine, routed by `OPENTLA_OBS=/path.jsonl` or an
//!   explicit [`RecorderHandle`] on the [`Budget`].
//!
//! # Example
//!
//! ```
//! use opentla_kernel::{Domain, Expr, Value, Vars};
//! use opentla_check::{GuardedAction, Init, System, explore, ExploreOptions};
//!
//! let mut vars = Vars::new();
//! let x = vars.declare("x", Domain::int_range(0, 3));
//! let incr = GuardedAction::new(
//!     "incr",
//!     Expr::var(x).lt(Expr::int(3)),
//!     vec![(x, Expr::var(x).add(Expr::int(1)))],
//! );
//! let system = System::new(vars, Init::new([(x, Value::Int(0))]), vec![incr]);
//! let graph = explore(&system, &ExploreOptions::default()).unwrap();
//! assert_eq!(graph.len(), 4); // x ∈ {0, 1, 2, 3}
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod checkpoint;
mod compiled;
mod counterexample;
mod error;
mod explore;
pub mod faults;
pub mod hoist;
pub mod image;
mod invariant;
mod liveness;
pub mod obs;
mod sample;
mod simulate;
mod system;

pub use budget::{escalate, Budget, ExhaustReason, Governed, Meter, Outcome};
pub use checkpoint::{
    CheckpointError, CheckpointSpec, ResumeToken, Snapshot, DEFAULT_CHECKPOINT_CADENCE,
    SNAPSHOT_VERSION,
};
pub use compiled::{
    CompiledExpr, CompiledSystem, Effect, EvalScratch, MemoStats, SharedFunctions, StepMemo,
};
pub use counterexample::Counterexample;
pub use error::CheckError;
pub use explore::{
    explore, explore_escalating, explore_governed, explore_governed_with, explore_resumable,
    resume_exploration, Edge, Engine, Exploration, ExploreOptions, GraphStats, RowView, StateGraph,
    VisitedMode,
};
pub use invariant::{check_invariant, check_step_invariant};
pub use liveness::{
    check_liveness, check_liveness_governed, check_liveness_governed_with,
    check_liveness_with_images, LiveTarget, LivenessOptions, LivenessRun,
};
pub use obs::{
    CountingRecorder, Event, JsonlRecorder, Phase, ProgressSnapshot, Recorder, RecorderHandle,
    RunReport,
};
pub use sample::sample_behavior;
pub use simulate::{
    check_simulation, check_simulation_governed, check_simulation_with_images, SimulationReport,
    SimulationRun,
};
pub use system::{GuardedAction, Init, System, SystemFairness};

/// The outcome of a check: either the property holds, or it is violated
/// with a counterexample.
///
/// Engine failures (type errors in the specification, exhausted limits)
/// are reported separately as [`CheckError`]s.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The property holds on every behavior of the system.
    Holds,
    /// The property is violated; the counterexample demonstrates it.
    Violated(Counterexample),
}

impl Verdict {
    /// Whether the property holds.
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds)
    }

    /// The counterexample, if the property is violated.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Verdict::Holds => None,
            Verdict::Violated(cx) => Some(cx),
        }
    }
}
