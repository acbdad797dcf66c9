//! Routing, resolved once: which scheduler and stores a run uses, at
//! how many workers and under which byte budget.
//!
//! [`Plan::resolve`] is a pure function of the caller's
//! [`ExploreOptions`] and the two environment overrides, so the whole
//! routing table is unit-testable without touching the process
//! environment. Every entry point resolves one [`Plan`] and hands it
//! down: the dispatcher matches on it, the `RunStart`/`RunEnd` engine
//! label is read off it, and the spill engines take their budget from
//! it.

use super::{Engine, ExploreOptions};
use crate::CheckError;

/// Budget assumed when a spill engine is selected without an explicit
/// [`ExploreOptions::mem_budget_bytes`]: generous enough that typical
/// models never seal a segment, so the engine runs at in-RAM speed
/// while keeping the spill machinery live.
const DEFAULT_SPILL_BUDGET: usize = 256 << 20;

/// The `OPENTLA_EXPLORE_THREADS` override, if set to a positive
/// integer.
pub(crate) fn env_threads() -> Option<usize> {
    std::env::var("OPENTLA_EXPLORE_THREADS")
        .ok()?
        .trim()
        .parse()
        .ok()
        .filter(|&n: &usize| n >= 1)
}

/// The `OPENTLA_MEM_BUDGET` override, if set to a positive byte
/// count. Mirrors [`env_threads`]: an explicit
/// [`ExploreOptions::mem_budget_bytes`] wins over the environment.
fn env_mem_budget() -> Option<usize> {
    std::env::var("OPENTLA_MEM_BUDGET")
        .ok()?
        .trim()
        .parse()
        .ok()
        .filter(|&n: &usize| n >= 1)
}

/// Which scheduler loop runs, over which stores. Spill routes carry
/// the byte budget their tiers are tuned to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// The sequential loop over the in-RAM store (or
    /// `explore_sequential_reduced` when a reduction is active).
    Sequential,
    /// The level-synchronous parallel engine.
    LevelSync,
    /// The work-stealing loop over in-RAM striped arenas.
    WorkStealing,
    /// The sequential loop over the disk-backed store.
    SpillBfs { mem_budget: usize },
    /// The work-stealing loop over the shared disk-backed stores.
    SpillWs { mem_budget: usize },
}

/// A memory budget that is in force but that the resolved plan cannot
/// honor, because the configuration is pinned to an in-RAM engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct UnhonoredBudget {
    pub(crate) bytes: usize,
    pub(crate) reason: &'static str,
    /// Whether the caller set it (`mem_budget_bytes`) rather than the
    /// environment: an explicit budget is refused, an inherited one is
    /// reported and ignored.
    pub(crate) explicit: bool,
}

/// One run's resolved routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Plan {
    pub(crate) route: Route,
    /// The resolved worker count (explicit option, else environment,
    /// else 1). Sequential routes run one worker whatever this says;
    /// it is still what `RunStart` reports.
    pub(crate) threads: usize,
    pub(crate) unhonored: Option<UnhonoredBudget>,
}

impl Plan {
    /// Resolves `options` against the process environment.
    pub(crate) fn from_env(options: &ExploreOptions) -> Plan {
        Plan::resolve(options, env_threads(), env_mem_budget())
    }

    /// The routing table. Explicit options beat the environment.
    ///
    /// Reduction and panic-injection runs are pinned to the in-RAM
    /// sequential/level-synchronous pair (the former by design — the
    /// cycle proviso needs level boundaries — the latter because the
    /// injection hook instruments that engine's claim counter), so no
    /// budget can be honored there. Otherwise an explicit spill engine
    /// always spills, and a budget routes every remaining
    /// configuration to the spill engine of matching parallelism — a
    /// budget is honored at *every* thread count instead of silently
    /// disabling parallelism (or being ignored).
    pub(crate) fn resolve(
        options: &ExploreOptions,
        env_threads: Option<usize>,
        env_budget: Option<usize>,
    ) -> Plan {
        let threads = options.threads.or(env_threads).unwrap_or(1).max(1);
        let budget = options.mem_budget_bytes.or(env_budget);
        let in_ram = if threads > 1 {
            Route::LevelSync
        } else {
            Route::Sequential
        };
        let pinned = if options.reduction.is_active() {
            Some("reduction-active runs are pinned to the in-RAM level-synchronous engine")
        } else if options.worker_panic.is_some() {
            Some("panic-injection runs are pinned to the in-RAM level-synchronous engine")
        } else {
            None
        };
        if let Some(reason) = pinned {
            return Plan {
                route: in_ram,
                threads,
                unhonored: budget.map(|bytes| UnhonoredBudget {
                    bytes,
                    reason,
                    explicit: options.mem_budget_bytes.is_some(),
                }),
            };
        }
        let mem_budget = budget.unwrap_or(DEFAULT_SPILL_BUDGET);
        let route = match (options.engine, budget) {
            (Engine::SpillBfs, _) => Route::SpillBfs { mem_budget },
            (Engine::SpillWs, _) | (Engine::WorkStealing, Some(_)) => Route::SpillWs { mem_budget },
            (Engine::LevelSync, Some(_)) if threads > 1 => Route::SpillWs { mem_budget },
            (Engine::LevelSync, Some(_)) => Route::SpillBfs { mem_budget },
            (Engine::WorkStealing, None) => Route::WorkStealing,
            (Engine::LevelSync, None) => in_ram,
        };
        Plan {
            route,
            threads,
            unhonored: None,
        }
    }

    /// The engine name `RunStart` and `RunEnd` carry.
    pub(crate) fn label(&self) -> &'static str {
        match self.route {
            Route::Sequential => "explore_sequential",
            Route::LevelSync => "explore_parallel",
            Route::WorkStealing => "explore_parallel_ws",
            Route::SpillBfs { .. } => "explore_spill",
            Route::SpillWs { .. } => "explore_spill_ws",
        }
    }

    /// The typed refusal of an explicit budget this plan cannot honor.
    pub(crate) fn refusal(&self) -> Option<CheckError> {
        let u = self.unhonored.filter(|u| u.explicit)?;
        Some(CheckError::Precondition {
            message: format!(
                "mem_budget_bytes = {} cannot be honored: {}; drop the budget or disable \
                 the conflicting option",
                u.bytes, u.reason
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Reduction, WorkerPanic};
    use opentla_kernel::VarSet;

    const EXPLICIT: usize = 1 << 20;
    const ENV: usize = 2 << 20;

    /// The whole routing table: engine × threads × budget source ×
    /// reduction × panic injection. The resolver takes the environment
    /// as arguments, so nothing here touches `std::env`.
    #[test]
    fn routing_table() {
        let engines = [
            Engine::LevelSync,
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
                                    Reduction::none().with_por(VarSet::new())
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
                            assert_eq!(plan.threads, threads, "{what}");
                            let in_ram = if threads > 1 {
                                Route::LevelSync
                            } else {
                                Route::Sequential
                            };
                            if reduced || panic {
                                assert_eq!(plan.route, in_ram, "{what}");
                                match in_force {
                                    None => {
                                        assert_eq!(plan.unhonored, None, "{what}");
                                        assert!(plan.refusal().is_none(), "{what}");
                                    }
                                    Some(bytes) => {
                                        let u = plan.unhonored.expect(&what);
                                        assert_eq!(u.bytes, bytes, "{what}");
                                        assert_eq!(u.explicit, explicit.is_some(), "{what}");
                                        assert_eq!(
                                            u.reason.starts_with("reduction-active"),
                                            reduced,
                                            "{what}"
                                        );
                                        match plan.refusal() {
                                            Some(CheckError::Precondition { message }) => {
                                                assert!(explicit.is_some(), "{what}");
                                                assert!(
                                                    message.contains("cannot be honored"),
                                                    "{what}: {message}"
                                                );
                                            }
                                            None => assert!(explicit.is_none(), "{what}"),
                                            Some(other) => panic!("{what}: {other:?}"),
                                        }
                                    }
                                }
                            } else {
                                assert_eq!(plan.unhonored, None, "{what}");
                                let mem_budget = in_force.unwrap_or(DEFAULT_SPILL_BUDGET);
                                let expected = match (engine, in_force.is_some(), threads) {
                                    (Engine::SpillBfs, _, _) => Route::SpillBfs { mem_budget },
                                    (Engine::SpillWs, _, _) => Route::SpillWs { mem_budget },
                                    (Engine::WorkStealing, true, _) => {
                                        Route::SpillWs { mem_budget }
                                    }
                                    (Engine::WorkStealing, false, _) => Route::WorkStealing,
                                    (Engine::LevelSync, true, 1) => Route::SpillBfs { mem_budget },
                                    (Engine::LevelSync, true, _) => Route::SpillWs { mem_budget },
                                    (Engine::LevelSync, false, _) => in_ram,
                                };
                                assert_eq!(plan.route, expected, "{what}");
                            }
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 4 * 2 * 4 * 2 * 2);
    }

    #[test]
    fn environment_fills_in_unset_threads() {
        let plan = Plan::resolve(&ExploreOptions::default(), Some(4), None);
        assert_eq!((plan.route, plan.threads), (Route::LevelSync, 4));
        let plan = Plan::resolve(&ExploreOptions::default(), None, None);
        assert_eq!((plan.route, plan.threads), (Route::Sequential, 1));
        // A zero thread count is clamped, not trusted.
        let zero = ExploreOptions {
            threads: Some(0),
            ..ExploreOptions::default()
        };
        assert_eq!(Plan::resolve(&zero, Some(4), None).threads, 1);
    }
}
