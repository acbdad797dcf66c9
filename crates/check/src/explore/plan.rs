//! Routing, resolved once: which scheduler and stores a run uses, at
//! how many workers and under which byte budget.
//!
//! [`Plan::resolve`] is a pure function of the caller's
//! [`ExploreOptions`] and the two environment overrides, so the whole
//! routing table is unit-testable without touching the process
//! environment. Every entry point resolves one [`Plan`]: the
//! dispatcher matches on it, the `RunStart`/`RunEnd` engine label and
//! worker count are read off it, and the disk-backed store takes its
//! budget from it. [`Start::of`] hands every plan the same start: the
//! system's packed layout, whose rows every loop steps on, and the
//! seed.

use super::seq::Seed;
use super::{Engine, ExploreOptions};
use crate::checkpoint::Snapshot;
use crate::{CheckError, System};
use opentla_kernel::PackedLayout;
use std::sync::Arc;

/// Budget assumed when a spill engine is selected without an explicit
/// [`ExploreOptions::mem_budget_bytes`]: generous enough that typical
/// models never seal a segment, so the engine runs at in-RAM speed
/// while keeping the spill machinery live.
const DEFAULT_SPILL_BUDGET: usize = 256 << 20;

/// Parses the value of an override variable: a positive integer, or a
/// typed error naming the variable and what it held. A variable that
/// is set to something else must not read as "no override" — a
/// mistyped `OPENTLA_MEM_BUDGET=64M` would silently unbound the run.
fn parse_override(name: &str, raw: &str) -> Result<usize, CheckError> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(CheckError::Precondition {
            message: format!("{name} is set to {raw:?}, which is not a positive integer"),
        }),
    }
}

/// Reads an override variable: `None` when unset.
fn env_override(name: &str) -> Result<Option<usize>, CheckError> {
    match std::env::var_os(name) {
        None => Ok(None),
        Some(raw) => parse_override(name, &raw.to_string_lossy()).map(Some),
    }
}

/// Which scheduler loop runs, over which store. The spill route
/// carries the byte budget its tiers are tuned to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// The sequential loop over its store with no budget: it never
    /// leaves RAM.
    Sequential,
    /// The work-stealing loop over in-RAM striped arenas.
    WorkStealing,
    /// The sequential loop over the same store with a budget.
    SpillBfs { mem_budget: usize },
}

impl Route {
    /// The byte budget the spill route's tiers are tuned to.
    pub(crate) fn mem_budget(self) -> Option<usize> {
        match self {
            Route::Sequential | Route::WorkStealing => None,
            Route::SpillBfs { mem_budget } => Some(mem_budget),
        }
    }
}

/// One run's resolved routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Plan {
    pub(crate) route: Route,
    /// The workers the plan runs — what `RunStart` and the run report
    /// carry: the requested count (explicit option, else environment,
    /// else 1) on the work-stealing route, 1 on the sequential ones
    /// whatever was requested.
    pub(crate) threads: usize,
    /// The workers asked for — explicit option, else environment, at
    /// least 1 — whatever the route; `None` when neither says.
    pub(crate) requested: Option<usize>,
}

/// What a run starts from, on every plan; see [`Start::of`].
pub(crate) struct Start<'a> {
    pub(crate) seed: Seed<'a>,
    /// The packed layout of the system's states: every state of the
    /// run packs under it — each seed is in its domains, and each
    /// successor is domain-checked — so both loops step on its rows and
    /// the stores hold them, and so does the graph a run ends in.
    pub(crate) layout: Arc<PackedLayout>,
}

impl<'a> Start<'a> {
    /// Enumerates the seed, or adopts the materialized snapshot, and
    /// compiles the layout.
    ///
    /// # Errors
    ///
    /// What enumerating the initial states reports, and
    /// [`CheckError::Precondition`] for a domain whose codes do not fit
    /// a `u32`, the one layout [`PackedLayout::compile`] refuses.
    pub(crate) fn of(system: &System, resume: Option<&'a Snapshot>) -> Result<Self, CheckError> {
        let seed = Seed::of(system, resume)?;
        let layout =
            PackedLayout::compile(system.vars()).ok_or_else(|| CheckError::Precondition {
                message: "a variable's domain has more values than a u32 can number".into(),
            })?;
        Ok(Start {
            seed,
            layout: Arc::new(layout),
        })
    }
}

impl Plan {
    /// Resolves `options` against the process environment.
    ///
    /// # Errors
    ///
    /// [`CheckError::Precondition`] when an override variable is set
    /// but malformed — even if an explicit option would have beaten
    /// it: a misconfigured environment is reported, not worked around.
    pub(crate) fn from_env(options: &ExploreOptions) -> Result<Plan, CheckError> {
        let env_threads = env_override("OPENTLA_EXPLORE_THREADS")?;
        let env_budget = env_override("OPENTLA_MEM_BUDGET")?;
        Ok(Plan::resolve(options, env_threads, env_budget))
    }

    /// The routing table. Explicit options beat the environment.
    ///
    /// A byte budget in force — or an explicit spill [`Engine`], under
    /// a default one — runs the sequential loop over its disk-backed
    /// store at one worker, whatever thread count was asked for: one
    /// disk-backed store serves every budgeted run. Otherwise more than
    /// one requested worker, or [`Engine::WorkStealing`], picks the
    /// work-stealing loop in RAM.
    pub(crate) fn resolve(
        options: &ExploreOptions,
        env_threads: Option<usize>,
        env_budget: Option<usize>,
    ) -> Plan {
        let asked = options.threads.or(env_threads).map(|n| n.max(1));
        let requested = asked.unwrap_or(1);
        let budget = options.mem_budget_bytes.or(env_budget);
        let spill =
            budget.is_some() || matches!(options.engine, Engine::SpillBfs | Engine::SpillWs);
        let parallel = !spill
            && match options.engine {
                Engine::Auto => requested > 1,
                Engine::WorkStealing => true,
                Engine::SpillBfs | Engine::SpillWs => false,
            };
        let route = match (parallel, spill) {
            (true, _) => Route::WorkStealing,
            (false, true) => Route::SpillBfs {
                mem_budget: budget.unwrap_or(DEFAULT_SPILL_BUDGET),
            },
            (false, false) => Route::Sequential,
        };
        Plan {
            route,
            threads: if parallel { requested } else { 1 },
            requested: asked,
        }
    }

    /// The engine name `RunStart` and `RunEnd` carry.
    pub(crate) fn label(&self) -> &'static str {
        match self.route {
            Route::Sequential => "explore_sequential",
            Route::WorkStealing => "explore_parallel_ws",
            Route::SpillBfs { .. } => "explore_spill",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkerPanic;

    const EXPLICIT: usize = 1 << 20;
    const ENV: usize = 2 << 20;

    /// The whole routing table: engine × threads × budget source ×
    /// panic injection. The resolver takes the environment
    /// as arguments, so nothing here touches `std::env`. Every cell
    /// with a budget in force, from the option or the environment,
    /// runs the one disk-backed store at one worker.
    #[test]
    fn routing_table() {
        let engines = [
            Engine::Auto,
            Engine::WorkStealing,
            Engine::SpillBfs,
            Engine::SpillWs,
        ];
        // (explicit option, environment) → the budget in force.
        let budgets = [
            (None, None, None),
            (Some(EXPLICIT), None, Some(EXPLICIT)),
            (None, Some(ENV), Some(ENV)),
            // Explicit beats the environment.
            (Some(EXPLICIT), Some(ENV), Some(EXPLICIT)),
        ];
        let mut cases = 0;
        for engine in engines {
            for threads in [1usize, 2, 4] {
                for (explicit, env, in_force) in budgets {
                    for panic in [false, true] {
                        let options = ExploreOptions {
                            engine,
                            threads: Some(threads),
                            mem_budget_bytes: explicit,
                            worker_panic: panic.then_some(WorkerPanic { after_claims: 0 }),
                            ..ExploreOptions::default()
                        };
                        // The environment's thread count loses to the
                        // explicit one in every cell.
                        let plan = Plan::resolve(&options, Some(7), env);
                        let what = format!(
                            "{engine:?} threads={threads} explicit={explicit:?} \
                             env={env:?} panic={panic}"
                        );
                        // Panic injection pins nothing: the cell routes
                        // as its twin without it. A spill engine with no
                        // budget runs under the default one.
                        let mem_budget = in_force.unwrap_or(DEFAULT_SPILL_BUDGET);
                        let expected = match (engine, in_force.is_some(), threads) {
                            (_, true, _) | (Engine::SpillBfs | Engine::SpillWs, ..) => {
                                Route::SpillBfs { mem_budget }
                            }
                            (Engine::WorkStealing, false, _) => Route::WorkStealing,
                            (Engine::Auto, false, 1) => Route::Sequential,
                            (Engine::Auto, false, _) => Route::WorkStealing,
                        };
                        assert_eq!(plan.route, expected, "{what}");
                        // The plan reports the workers it runs.
                        let workers = match expected {
                            Route::Sequential | Route::SpillBfs { .. } => 1,
                            Route::WorkStealing => threads,
                        };
                        assert_eq!(plan.threads, workers, "{what}");
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 4 * 3 * 4 * 2);
    }

    #[test]
    fn environment_fills_in_unset_threads() {
        let plan = Plan::resolve(&ExploreOptions::default(), Some(4), None);
        assert_eq!((plan.route, plan.threads), (Route::WorkStealing, 4));
        assert_eq!(plan.requested, Some(4));
        let plan = Plan::resolve(&ExploreOptions::default(), None, None);
        assert_eq!((plan.route, plan.threads), (Route::Sequential, 1));
        assert_eq!(plan.requested, None, "nobody asked");
        // A zero thread count is clamped, not trusted.
        let zero = ExploreOptions {
            threads: Some(0),
            ..ExploreOptions::default()
        };
        let plan = Plan::resolve(&zero, Some(4), None);
        assert_eq!((plan.threads, plan.requested), (1, Some(1)));
        // A budget runs one worker, and still reports what was asked.
        let plan = Plan::resolve(&ExploreOptions::default(), Some(4), Some(ENV));
        assert_eq!((plan.threads, plan.requested), (1, Some(4)));
    }

    /// A variable that is set must parse: anything but a positive
    /// integer is a typed error naming the variable and its value,
    /// never "no override".
    #[test]
    fn malformed_overrides_are_typed_errors() {
        assert_eq!(
            parse_override("OPENTLA_MEM_BUDGET", " 1048576 ").unwrap(),
            1 << 20
        );
        for (name, raw) in [
            ("OPENTLA_MEM_BUDGET", "64M"),
            ("OPENTLA_MEM_BUDGET", "0"),
            ("OPENTLA_MEM_BUDGET", ""),
            ("OPENTLA_EXPLORE_THREADS", "four"),
            ("OPENTLA_EXPLORE_THREADS", "-2"),
        ] {
            match parse_override(name, raw) {
                Err(CheckError::Precondition { message }) => {
                    assert!(message.contains(name), "{message}");
                    assert!(message.contains(&format!("{raw:?}")), "{message}");
                }
                other => panic!("{name}={raw:?}: {other:?}"),
            }
        }
    }
}
