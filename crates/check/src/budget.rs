//! Resource governance for the checking engines.
//!
//! Explicit-state checking is open-ended: a mis-specified system can
//! have a state space far beyond what the caller intended to pay for.
//! Following TLC's practice of bounded, diagnostics-first checking,
//! every engine in this crate can run under a [`Budget`] — a limit on
//! states, transitions, wall-clock time, and an external cancellation
//! flag. Exhausting the budget is **not an error**: the engine stops,
//! keeps everything it learned (a partial [`StateGraph`]
//! (crate::StateGraph), an undecided verdict), and tags the result
//! with an [`Outcome::Exhausted`] carrying the reason, the frontier
//! still unexplored, and summary statistics. The [`escalate`] helper
//! turns that into a retry loop with geometrically growing budgets.

use crate::checkpoint::{CheckpointSpec, ResumeToken};
use crate::obs::{self, Event, ProgressSnapshot, RecorderHandle};
use crate::GraphStats;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A resource envelope for one checking run.
///
/// The default budget is unlimited on every axis; callers narrow the
/// axes they care about:
///
/// ```
/// use opentla_check::Budget;
/// use std::time::Duration;
///
/// let budget = Budget::default()
///     .states(10_000)
///     .transitions(100_000)
///     .with_deadline(Duration::from_secs(5));
/// assert_eq!(budget.max_states, 10_000);
/// ```
#[derive(Clone, Debug)]
pub struct Budget {
    /// Maximum number of *unique* states an engine may record.
    pub max_states: usize,
    /// Maximum number of transitions (graph edges / step checks) an
    /// engine may process.
    pub max_transitions: usize,
    /// Wall-clock allowance for the run, measured from the engine's
    /// entry point.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation: set this flag from another thread and
    /// the engine stops at its next checkpoint.
    pub cancel: Arc<AtomicBool>,
    /// Where the engines running under this budget narrate their work.
    /// Defaults to [`obs::global`] — the null recorder unless
    /// `OPENTLA_OBS=/path.jsonl` is set — so observability rides along
    /// wherever a budget already travels.
    pub recorder: RecorderHandle,
    /// Crash tolerance: when set, exploration engines periodically
    /// write a resumable snapshot of the run to
    /// [`CheckpointSpec::path`] (and a final one on exhaustion), and
    /// [`Outcome::Exhausted`] carries a [`ResumeToken`] pointing at it.
    /// `None` (the default) disables checkpointing entirely.
    pub checkpoint: Option<CheckpointSpec>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_states: usize::MAX,
            max_transitions: usize::MAX,
            deadline: None,
            cancel: Arc::new(AtomicBool::new(false)),
            recorder: obs::global(),
            checkpoint: None,
        }
    }
}

impl Budget {
    /// An unlimited budget (alias of [`Budget::default`], for call
    /// sites where the name reads better).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Replaces the unique-state limit.
    pub fn states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Replaces the transition limit.
    pub fn transitions(mut self, max_transitions: usize) -> Self {
        self.max_transitions = max_transitions;
        self
    }

    /// Replaces the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Replaces the recorder (see [`crate::obs`]). Pass
    /// [`RecorderHandle::null`] to silence a budget that would
    /// otherwise inherit the `OPENTLA_OBS` global.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// Enables periodic checkpointing: exploration engines running
    /// under this budget snapshot their resumable core to `path` every
    /// `cadence` state expansions (and once more at exhaustion), so an
    /// interrupted run can continue from where it stopped instead of
    /// restarting — TLC's `-checkpoint`/`-recover` discipline. Pass
    /// [`DEFAULT_CHECKPOINT_CADENCE`](crate::DEFAULT_CHECKPOINT_CADENCE)
    /// unless you have a reason not to;
    /// a `cadence` of 0 is treated as 1.
    ///
    /// The write is atomic (temp file + rename) and checksummed; see
    /// [`crate::Snapshot`]. Resume with [`crate::explore_resumable`].
    pub fn with_checkpoint(mut self, path: impl Into<std::path::PathBuf>, cadence: u64) -> Self {
        self.checkpoint = Some(CheckpointSpec {
            path: path.into(),
            cadence: cadence.max(1),
        });
        self
    }

    /// A handle to the cancellation flag, for handing to another
    /// thread (e.g. a ctrl-C handler).
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// Requests cooperative cancellation of every engine sharing this
    /// budget's flag.
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// The same budget with finite limits scaled by `factor`
    /// (saturating), sharing the cancellation flag. Deadlines scale
    /// too: a run that timed out deserves proportionally more time on
    /// the retry.
    pub fn escalated(&self, factor: u32) -> Budget {
        let factor = factor.max(1);
        let scale = |n: usize| {
            if n == usize::MAX {
                n
            } else {
                n.saturating_mul(factor as usize)
            }
        };
        Budget {
            max_states: scale(self.max_states),
            max_transitions: scale(self.max_transitions),
            deadline: self.deadline.map(|d| d.saturating_mul(factor)),
            cancel: Arc::clone(&self.cancel),
            recorder: self.recorder.clone(),
            // The checkpoint path is shared across escalations: each
            // retry overwrites the same snapshot, so the latest one
            // always reflects the furthest frontier reached.
            checkpoint: self.checkpoint.clone(),
        }
    }
}

/// Why a governed run stopped early.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExhaustReason {
    /// The unique-state limit was reached.
    StateLimit {
        /// The configured limit.
        limit: usize,
    },
    /// The transition limit was reached.
    TransitionLimit {
        /// The configured limit.
        limit: usize,
    },
    /// The wall-clock deadline passed.
    Deadline {
        /// The configured allowance.
        allowed: Duration,
    },
    /// The cancellation flag was raised externally.
    Cancelled,
}

impl std::fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExhaustReason::StateLimit { limit } => {
                write!(f, "state limit of {limit} reached")
            }
            ExhaustReason::TransitionLimit { limit } => {
                write!(f, "transition limit of {limit} reached")
            }
            ExhaustReason::Deadline { allowed } => {
                write!(f, "deadline of {allowed:?} expired")
            }
            ExhaustReason::Cancelled => write!(f, "cancelled by caller"),
        }
    }
}

/// How a governed run ended: either it covered everything it set out
/// to cover, or the budget ran out first.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The engine ran to completion; its answer is authoritative.
    Complete,
    /// The budget ran out. The partial results are still valid for
    /// everything that *was* covered.
    Exhausted {
        /// Which budget axis was exhausted.
        reason: ExhaustReason,
        /// Work items discovered but not yet processed (BFS frontier
        /// states, unchecked edges, …).
        frontier_size: usize,
        /// Statistics of the partial graph at the moment of
        /// exhaustion.
        stats: GraphStats,
        /// Where the run's final snapshot was written, when the budget
        /// carried a [`Budget::with_checkpoint`] spec and the engine
        /// supports resumption — hand it (or just the same budget) to
        /// [`crate::explore_resumable`] to continue from the preserved
        /// frontier instead of restarting.
        resume: Option<ResumeToken>,
    },
}

impl Outcome {
    /// Whether the run covered everything (its answer is
    /// authoritative).
    pub fn is_complete(&self) -> bool {
        matches!(self, Outcome::Complete)
    }

    /// The exhaustion reason, if the budget ran out.
    pub fn exhaustion(&self) -> Option<&ExhaustReason> {
        match self {
            Outcome::Complete => None,
            Outcome::Exhausted { reason, .. } => Some(reason),
        }
    }

    /// The resume token, if the exhausted run left a snapshot behind.
    pub fn resume_token(&self) -> Option<&ResumeToken> {
        match self {
            Outcome::Complete => None,
            Outcome::Exhausted { resume, .. } => resume.as_ref(),
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Complete => write!(f, "complete"),
            Outcome::Exhausted {
                reason,
                frontier_size,
                stats,
                resume,
            } => {
                write!(
                    f,
                    "exhausted ({reason}); partial coverage: {stats}; \
                     {frontier_size} frontier item(s) unexplored"
                )?;
                if let Some(token) = resume {
                    write!(f, "; resumable from {}", token.path.display())?;
                }
                Ok(())
            }
        }
    }
}

/// Running tally of a budget during one engine invocation.
///
/// Engines call [`Meter::charge_state`] / [`Meter::charge_transition`]
/// as they do work and [`Meter::checkpoint`] at loop heads; the first
/// call returning `Some` reason is where they stop.
///
/// Counters are atomic, so one meter can be shared by reference across
/// threads without locks on the hot loop: the charge methods take
/// `&self` and enforce the limits with a
/// compare-and-swap, so at most `max_states` state charges ever succeed
/// regardless of how many threads race (and likewise for transitions).
/// The old single-threaded call shapes (`&mut Meter`) still compile
/// unchanged — `&mut` access trivially coerces to `&`.
#[derive(Debug)]
pub struct Meter {
    budget: Budget,
    start: Instant,
    states: AtomicUsize,
    transitions: AtomicUsize,
    /// `budget.recorder.enabled()`, hoisted once at start so a null
    /// recorder costs the hot loop a single predictable branch.
    observe: bool,
    /// Checkpoint counter driving sampled progress emission.
    ticks: AtomicU64,
    /// Bytes the bounded-memory engine has spilled to disk (zero for
    /// the in-RAM engines).
    spilled: AtomicU64,
}

impl Meter {
    /// Starts metering against `budget` (the deadline clock starts
    /// now).
    pub fn start(budget: &Budget) -> Self {
        Meter {
            budget: budget.clone(),
            start: Instant::now(),
            states: AtomicUsize::new(0),
            transitions: AtomicUsize::new(0),
            observe: budget.recorder.enabled(),
            ticks: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
        }
    }

    /// Starts metering a *resumed* run: the counters are pre-charged
    /// with the work already banked in the snapshot, so a `max_states`
    /// budget still bounds the run's cumulative total across
    /// interruptions, not just the new attempt. The deadline clock —
    /// deliberately — restarts: a wall-clock allowance budgets an
    /// attempt, not the lifetime of a checkpoint file.
    pub fn start_resumed(budget: &Budget, states: usize, transitions: usize) -> Self {
        let meter = Meter::start(budget);
        meter.states.store(states, Ordering::Relaxed);
        meter.transitions.store(transitions, Ordering::Relaxed);
        meter
    }

    /// Charges `counter` by one if it is still under `limit`.
    fn charge(counter: &AtomicUsize, limit: usize) -> bool {
        counter
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < limit).then(|| n + 1)
            })
            .is_ok()
    }

    /// Records one unique state; `Some` if that state was over the
    /// limit. The caller should *not* keep the state in that case, so
    /// the recorded graph never exceeds `max_states`.
    pub fn charge_state(&self) -> Option<ExhaustReason> {
        if Meter::charge(&self.states, self.budget.max_states) {
            None
        } else {
            Some(ExhaustReason::StateLimit {
                limit: self.budget.max_states,
            })
        }
    }

    /// Records one processed transition; `Some` if over the limit.
    pub fn charge_transition(&self) -> Option<ExhaustReason> {
        if Meter::charge(&self.transitions, self.budget.max_transitions) {
            None
        } else {
            Some(ExhaustReason::TransitionLimit {
                limit: self.budget.max_transitions,
            })
        }
    }

    /// Deadline and cancellation check, for loop heads. When a
    /// recorder is enabled, also emits a sampled
    /// [`Event::Progress`] every [`obs::PROGRESS_SAMPLE`] checkpoints
    /// — the instrumentation piggybacks on the cadence the loop
    /// already pays for, keeping the hot path allocation-free.
    pub fn checkpoint(&self) -> Option<ExhaustReason> {
        if self.budget.cancel.load(Ordering::Relaxed) {
            return Some(ExhaustReason::Cancelled);
        }
        if let Some(allowed) = self.budget.deadline {
            if self.start.elapsed() > allowed {
                return Some(ExhaustReason::Deadline { allowed });
            }
        }
        if self.observe {
            let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
            if tick % obs::PROGRESS_SAMPLE == obs::PROGRESS_SAMPLE - 1 {
                self.emit_progress(None, None, None);
            }
        }
        None
    }

    /// Emits one [`Event::Progress`] snapshot with the current counts
    /// (no-op when the recorder is disabled). Engines that know their
    /// frontier size, BFS level, or worker index pass them here.
    pub fn emit_progress(&self, frontier: Option<u64>, level: Option<u64>, worker: Option<u64>) {
        if !self.observe {
            return;
        }
        let finite = |n: usize| (n != usize::MAX).then_some(n as u64);
        self.budget.recorder.record(&Event::Progress {
            snapshot: ProgressSnapshot {
                states: self.states_used() as u64,
                transitions: self.transitions_used() as u64,
                elapsed_nanos: self.start.elapsed().as_nanos() as u64,
                frontier,
                level,
                worker,
                budget_states: finite(self.budget.max_states),
                budget_transitions: finite(self.budget.max_transitions),
            },
        });
    }

    /// Whether a recorder is enabled on this meter's budget.
    pub fn observed(&self) -> bool {
        self.observe
    }

    /// The budget's recorder handle (the null handle by default).
    pub fn recorder(&self) -> &RecorderHandle {
        &self.budget.recorder
    }

    /// Nanoseconds since this meter started.
    pub fn elapsed_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// States charged so far.
    pub fn states_used(&self) -> usize {
        self.states.load(Ordering::Relaxed)
    }

    /// Transitions charged so far.
    pub fn transitions_used(&self) -> usize {
        self.transitions.load(Ordering::Relaxed)
    }

    /// Banks `bytes` written to disk by a spilling engine.
    pub fn add_spilled_bytes(&self, bytes: u64) {
        self.spilled.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Total bytes spilled to disk so far (zero for in-RAM engines).
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled.load(Ordering::Relaxed)
    }
}

/// Results that know whether their run exhausted its budget, making
/// them eligible for [`escalate`].
pub trait Governed {
    /// The exhaustion reason, or `None` if the run completed.
    fn exhaustion(&self) -> Option<&ExhaustReason>;
}

/// Runs `attempt` under `budget`, retrying with geometrically larger
/// budgets (scaled by `factor` each round, up to `attempts` rounds in
/// total) while the result reports exhaustion. Returns the first
/// complete result, or the last partial one if every round exhausted.
///
/// ```
/// use opentla_check::{escalate, explore_governed, Budget, System, Init, GuardedAction};
/// use opentla_kernel::{Domain, Expr, Value, Vars};
///
/// let mut vars = Vars::new();
/// let x = vars.declare("x", Domain::int_range(0, 9));
/// let incr = GuardedAction::new(
///     "incr",
///     Expr::var(x).lt(Expr::int(9)),
///     vec![(x, Expr::var(x).add(Expr::int(1)))],
/// );
/// let sys = System::new(vars, Init::new([(x, Value::Int(0))]), vec![incr]);
/// // 2 states is not enough; 3 rounds of 4× escalation reach 32.
/// let run = escalate(&Budget::default().states(2), 4, 3, |b| {
///     explore_governed(&sys, b)
/// })
/// .unwrap();
/// assert!(run.outcome.is_complete());
/// assert_eq!(run.graph.len(), 10);
/// ```
pub fn escalate<T: Governed, E>(
    budget: &Budget,
    factor: u32,
    attempts: usize,
    mut attempt: impl FnMut(&Budget) -> Result<T, E>,
) -> Result<T, E> {
    let mut current = budget.clone();
    let mut result = attempt(&current)?;
    for _ in 1..attempts.max(1) {
        if result.exhaustion().is_none() {
            break;
        }
        current = current.escalated(factor);
        result = attempt(&current)?;
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_narrows_axes() {
        let b = Budget::default()
            .states(5)
            .transitions(7)
            .with_deadline(Duration::from_millis(10));
        assert_eq!(b.max_states, 5);
        assert_eq!(b.max_transitions, 7);
        assert_eq!(b.deadline, Some(Duration::from_millis(10)));
    }

    #[test]
    fn escalated_scales_finite_limits_only() {
        let b = Budget::default().states(5);
        let bigger = b.escalated(4);
        assert_eq!(bigger.max_states, 20);
        assert_eq!(bigger.max_transitions, usize::MAX);
        // The cancel flag is shared across escalations.
        b.request_cancel();
        assert!(bigger.cancel.load(Ordering::Relaxed));
    }

    #[test]
    fn meter_trips_at_limits() {
        let m = Meter::start(&Budget::default().states(2).transitions(1));
        assert!(m.charge_state().is_none());
        assert!(m.charge_state().is_none());
        assert_eq!(
            m.charge_state(),
            Some(ExhaustReason::StateLimit { limit: 2 })
        );
        assert!(m.charge_transition().is_none());
        assert_eq!(
            m.charge_transition(),
            Some(ExhaustReason::TransitionLimit { limit: 1 })
        );
        assert_eq!(m.states_used(), 2);
        assert_eq!(m.transitions_used(), 1);
    }

    #[test]
    fn meter_is_shareable_and_exact_under_contention() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Budget>();
        assert_sync::<Meter>();

        let m = Meter::start(&Budget::default().states(100).transitions(100));
        let successes = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        if m.charge_state().is_none() {
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // 400 racing charges against a limit of 100: exactly 100 win.
        assert_eq!(successes.load(Ordering::Relaxed), 100);
        assert_eq!(m.states_used(), 100);
    }

    #[test]
    fn checkpoint_sees_cancellation_and_deadline() {
        let b = Budget::default();
        let m = Meter::start(&b);
        assert!(m.checkpoint().is_none());
        b.request_cancel();
        assert_eq!(m.checkpoint(), Some(ExhaustReason::Cancelled));

        let b = Budget::default().with_deadline(Duration::from_secs(0));
        let m = Meter::start(&b);
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            m.checkpoint(),
            Some(ExhaustReason::Deadline { .. })
        ));
    }

    #[test]
    fn escalate_retries_until_complete() {
        struct Fake(Option<ExhaustReason>);
        impl Governed for Fake {
            fn exhaustion(&self) -> Option<&ExhaustReason> {
                self.0.as_ref()
            }
        }
        let mut budgets_seen = Vec::new();
        let result: Result<Fake, ()> = escalate(&Budget::default().states(1), 3, 4, |b| {
            budgets_seen.push(b.max_states);
            if b.max_states >= 9 {
                Ok(Fake(None))
            } else {
                Ok(Fake(Some(ExhaustReason::StateLimit {
                    limit: b.max_states,
                })))
            }
        });
        assert!(result.unwrap().exhaustion().is_none());
        assert_eq!(budgets_seen, vec![1, 3, 9]);
    }
}
