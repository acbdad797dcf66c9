//! Routing, resolved once: which scheduler and stores a run uses, at
//! how many workers and under which byte budget.
//!
//! [`Plan::resolve`] is a pure function of the caller's
//! [`ExploreOptions`] and the two environment overrides, so the whole
//! routing table is unit-testable without touching the process
//! environment. Every entry point resolves one [`Plan`];
//! [`Plan::start`] then settles it against the system — the
//! work-stealing loops run over packed states only — and hands it
//! down with what the run starts from: the dispatcher matches on it,
//! the `RunStart`/`RunEnd` engine label and worker count are read off
//! it, and the spill engines take their budget from it.

use super::seq::Seed;
use super::{Engine, ExploreOptions};
use crate::checkpoint::Snapshot;
use crate::{CheckError, System};
use opentla_kernel::PackedLayout;

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

/// Which scheduler loop runs, over which stores. Spill routes carry
/// the byte budget their tiers are tuned to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// The sequential loop over its store with no budget: it never
    /// leaves RAM.
    Sequential,
    /// The work-stealing loop over in-RAM striped arenas.
    WorkStealing,
    /// The sequential loop over the same store with a budget.
    SpillBfs { mem_budget: usize },
    /// The work-stealing loop over the shared disk-backed stores.
    SpillWs { mem_budget: usize },
}

impl Route {
    /// The byte budget a spill route's tiers are tuned to.
    pub(crate) fn mem_budget(self) -> Option<usize> {
        match self {
            Route::Sequential | Route::WorkStealing => None,
            Route::SpillBfs { mem_budget } | Route::SpillWs { mem_budget } => Some(mem_budget),
        }
    }
}

/// One run's resolved routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Plan {
    pub(crate) route: Route,
    /// The workers the plan runs — what `RunStart` and the run report
    /// carry: the requested count (explicit option, else environment,
    /// else 1) on the work-stealing routes, 1 on the sequential ones
    /// whatever was requested.
    pub(crate) threads: usize,
}

/// A settled plan and what its run starts from; see [`Plan::start`].
pub(crate) struct Start<'a> {
    pub(crate) plan: Plan,
    pub(crate) seed: Seed<'a>,
    /// The packed layout of the system's states, where it compiles.
    /// Always `Some` on the work-stealing routes, which run over it;
    /// the sequential store packs the records it can once on disk, and
    /// has no use for one without a budget (`None`).
    pub(crate) layout: Option<PackedLayout>,
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
    /// The route is a function of two facts: whether more than one
    /// worker runs, and whether a byte budget is in force — a budget
    /// is honored at *every* thread count instead of silently
    /// disabling parallelism (or being ignored). An explicit [`Engine`]
    /// pins either fact, and a reduction-active run the first: only
    /// the sequential store canonicalizes, in RAM or on disk.
    pub(crate) fn resolve(
        options: &ExploreOptions,
        env_threads: Option<usize>,
        env_budget: Option<usize>,
    ) -> Plan {
        let requested = options.threads.or(env_threads).unwrap_or(1).max(1);
        let budget = options.mem_budget_bytes.or(env_budget);
        let parallel = !options.reduction.is_active()
            && match options.engine {
                Engine::Auto => requested > 1,
                Engine::WorkStealing | Engine::SpillWs => true,
                Engine::SpillBfs => false,
            };
        let spill =
            budget.is_some() || matches!(options.engine, Engine::SpillBfs | Engine::SpillWs);
        let mem_budget = budget.unwrap_or(DEFAULT_SPILL_BUDGET);
        let route = match (parallel, spill) {
            (false, false) => Route::Sequential,
            (false, true) => Route::SpillBfs { mem_budget },
            (true, false) => Route::WorkStealing,
            (true, true) => Route::SpillWs { mem_budget },
        };
        Plan {
            route,
            threads: if parallel { requested } else { 1 },
        }
    }

    /// Settles the plan against `system` and what the run starts from,
    /// before anything is reported: the work-stealing loops run over
    /// packed states only, so when the system's domains do not compile
    /// to a [`PackedLayout`], or a seed state lies outside its declared
    /// domain ([`Init::new`](crate::Init::new) can pin one), a threaded
    /// plan falls back to the sequential loop under the same budget.
    /// The seed is enumerated and the layout compiled once, here, and
    /// handed down.
    ///
    /// # Errors
    ///
    /// What enumerating the initial states reports.
    pub(crate) fn start<'a>(
        self,
        system: &System,
        resume: Option<&'a Snapshot>,
    ) -> Result<Start<'a>, CheckError> {
        let seed = Seed::of(system, resume)?;
        let layout = match self.route {
            Route::Sequential => None,
            _ => PackedLayout::compile(system.vars()),
        };
        let mut buf = Vec::new();
        let packs = layout
            .as_ref()
            .is_some_and(|l| seed.states().iter().all(|s| l.pack_into(s.values(), &mut buf)));
        Ok(Start {
            plan: self.over_packed_states(packs),
            seed,
            layout,
        })
    }

    /// This plan if every state it starts from packs, else its
    /// sequential fallback.
    fn over_packed_states(self, packs: bool) -> Plan {
        let route = match self.route {
            Route::WorkStealing if !packs => Route::Sequential,
            Route::SpillWs { mem_budget } if !packs => Route::SpillBfs { mem_budget },
            _ => return self,
        };
        Plan { route, threads: 1 }
    }

    /// The engine name `RunStart` and `RunEnd` carry.
    pub(crate) fn label(&self) -> &'static str {
        match self.route {
            Route::Sequential => "explore_sequential",
            Route::WorkStealing => "explore_parallel_ws",
            Route::SpillBfs { .. } => "explore_spill",
            Route::SpillWs { .. } => "explore_spill_ws",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Reduction, SlotPermutations, WorkerPanic};
    use std::sync::Arc;

    const EXPLICIT: usize = 1 << 20;
    const ENV: usize = 2 << 20;

    /// The whole routing table: engine × threads × budget source ×
    /// reduction × panic injection. The resolver takes the environment
    /// as arguments, so nothing here touches `std::env`.
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
            for threads in [1usize, 2] {
                for (explicit, env, in_force) in budgets {
                    for reduced in [false, true] {
                        for panic in [false, true] {
                            let options = ExploreOptions {
                                engine,
                                threads: Some(threads),
                                mem_budget_bytes: explicit,
                                reduction: if reduced {
                                    Reduction::none().with_symmetry(Arc::new(
                                        SlotPermutations::new("identity", 0, Vec::new()),
                                    ))
                                } else {
                                    Reduction::none()
                                },
                                worker_panic: panic.then_some(WorkerPanic { after_claims: 0 }),
                                ..ExploreOptions::default()
                            };
                            // The environment's thread count loses to
                            // the explicit one in every cell.
                            let plan = Plan::resolve(&options, Some(7), env);
                            let what = format!(
                                "{engine:?} threads={threads} explicit={explicit:?} \
                                 env={env:?} reduced={reduced} panic={panic}"
                            );
                            // A reduced cell routes as its one-worker
                            // twin — sequential at any thread count
                            // and under every engine — so under the
                            // budget in force like any other: the
                            // store canonicalizes on disk too.
                            let (engine, threads) = match (reduced, engine) {
                                (false, _) => (engine, threads),
                                (true, Engine::WorkStealing) => (Engine::Auto, 1),
                                (true, Engine::SpillWs) => (Engine::SpillBfs, 1),
                                (true, _) => (engine, 1),
                            };
                            // Panic injection pins nothing: the cell
                            // routes as its twin without it.
                            let mem_budget = in_force.unwrap_or(DEFAULT_SPILL_BUDGET);
                            let expected = match (engine, in_force.is_some(), threads) {
                                (Engine::SpillBfs, _, _) => Route::SpillBfs { mem_budget },
                                (Engine::SpillWs, _, _) => Route::SpillWs { mem_budget },
                                (Engine::WorkStealing, true, _) => Route::SpillWs { mem_budget },
                                (Engine::WorkStealing, false, _) => Route::WorkStealing,
                                (Engine::Auto, true, 1) => Route::SpillBfs { mem_budget },
                                (Engine::Auto, true, _) => Route::SpillWs { mem_budget },
                                (Engine::Auto, false, 1) => Route::Sequential,
                                (Engine::Auto, false, _) => Route::WorkStealing,
                            };
                            assert_eq!(plan.route, expected, "{what}");
                            // The plan reports the workers it runs.
                            let workers = match expected {
                                Route::Sequential | Route::SpillBfs { .. } => 1,
                                Route::WorkStealing | Route::SpillWs { .. } => threads,
                            };
                            assert_eq!(plan.threads, workers, "{what}");
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 4 * 2 * 4 * 2 * 2);
    }

    /// The fact "the states do not pack" alone — a layout that does
    /// not compile, no seed state involved — settles a threaded plan on
    /// the sequential loop of the same store family with one worker,
    /// and leaves every other plan alone. (The fact is handed in: a
    /// `Vars` one slot past the packed width cap takes half a minute to
    /// build here. `packed_roundtrip.rs` reaches the same fall-back
    /// from a real system, through an out-of-domain seed.)
    #[test]
    fn states_that_do_not_pack_settle_on_the_sequential_loops() {
        let mem_budget = EXPLICIT;
        for (engine, threads, asked, settled) in [
            (Engine::Auto, 2, Route::WorkStealing, Route::Sequential),
            (Engine::WorkStealing, 1, Route::WorkStealing, Route::Sequential),
            (
                Engine::SpillWs,
                4,
                Route::SpillWs { mem_budget },
                Route::SpillBfs { mem_budget },
            ),
            (Engine::Auto, 1, Route::Sequential, Route::Sequential),
            (
                Engine::SpillBfs,
                1,
                Route::SpillBfs { mem_budget },
                Route::SpillBfs { mem_budget },
            ),
        ] {
            let spill = !matches!(asked, Route::WorkStealing | Route::Sequential);
            let options = ExploreOptions {
                engine,
                threads: Some(threads),
                mem_budget_bytes: spill.then_some(mem_budget),
                ..ExploreOptions::default()
            };
            let plan = Plan::resolve(&options, None, None);
            assert_eq!(plan.route, asked, "{engine:?}/{threads}");
            assert_eq!(plan.over_packed_states(true), plan, "{engine:?}/{threads}");
            let fallback = plan.over_packed_states(false);
            assert_eq!(fallback.route, settled, "{engine:?}/{threads}");
            assert_eq!(fallback.threads, 1, "{engine:?}/{threads}");
        }
    }

    #[test]
    fn environment_fills_in_unset_threads() {
        let plan = Plan::resolve(&ExploreOptions::default(), Some(4), None);
        assert_eq!((plan.route, plan.threads), (Route::WorkStealing, 4));
        let plan = Plan::resolve(&ExploreOptions::default(), None, None);
        assert_eq!((plan.route, plan.threads), (Route::Sequential, 1));
        // A zero thread count is clamped, not trusted.
        let zero = ExploreOptions {
            threads: Some(0),
            ..ExploreOptions::default()
        };
        assert_eq!(Plan::resolve(&zero, Some(4), None).threads, 1);
    }

    /// A variable that is set must parse: anything but a positive
    /// integer is a typed error naming the variable and its value,
    /// never "no override".
    #[test]
    fn malformed_overrides_are_typed_errors() {
        assert_eq!(parse_override("OPENTLA_MEM_BUDGET", " 1048576 ").unwrap(), 1 << 20);
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
