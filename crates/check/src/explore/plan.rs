//! Routing, resolved once: under which byte budget, if any, the one
//! loop's store runs, on how many workers, and how many the caller
//! asked for.
//!
//! [`Plan::resolve`] is a pure function of the caller's
//! [`ExploreOptions`], the two environment overrides and the host's
//! hardware threads, so the whole routing table is unit-testable
//! without touching the process environment. Every entry point resolves one [`Plan`]: the
//! `RunStart`/`RunEnd` engine label is read off it, and the store
//! takes its budget from it. [`Start::of`] hands every plan the same
//! start: the system's packed layout, whose rows the loop steps on,
//! and the seed — the initial states, or the snapshot whose store the
//! run re-opens.

use super::seq::Seed;
use super::{Engine, ExploreOptions};
use crate::checkpoint::Snapshot;
use crate::{CheckError, System};
use opentla_kernel::PackedLayout;
use std::sync::Arc;

/// Budget assumed by a spill engine without an explicit
/// [`ExploreOptions::mem_budget_bytes`], or a checkpointed or resumed
/// run without one: generous enough that a typical model's graph and
/// dedup index fit it, so the store never leaves RAM — it is the
/// in-RAM run — unless a checkpoint moves it (a resumed run re-opens
/// its store on disk).
pub(super) const DEFAULT_SPILL_BUDGET: usize = 256 << 20;

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

/// One run's resolved routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Plan {
    /// The byte budget the store's disk tiers are tuned to; `None`
    /// keeps the store in RAM.
    pub(crate) mem_budget: Option<usize>,
    /// The workers asked for — explicit option, else environment, at
    /// least 1; `None` when neither says.
    pub(crate) requested: Option<usize>,
    /// The workers the loop runs on: 2 — a stepper thread beside the
    /// interner — when two or more were asked for, or when nobody
    /// asked and the host has two hardware threads; else 1, both
    /// stages on the caller. A run never uses more than two.
    pub(crate) workers: usize,
}

/// What a run starts from, on every plan; see [`Start::of`].
pub(crate) struct Start<'a> {
    pub(crate) seed: Seed<'a>,
    /// The packed layout of the system's states: every state of the
    /// run packs under it — each seed is in its domains, and each
    /// successor is domain-checked — so the loop steps on its rows and
    /// the store holds them, and so does the graph a run ends in.
    pub(crate) layout: Arc<PackedLayout>,
}

impl<'a> Start<'a> {
    /// Enumerates the seed, or adopts the snapshot, and compiles the
    /// layout.
    ///
    /// # Errors
    ///
    /// What enumerating the initial states reports, and
    /// [`CheckError::Precondition`] for a domain whose codes do not fit
    /// a `u32`, the one layout [`PackedLayout::compile`] refuses.
    pub(crate) fn of(system: &System, resume: Option<&'a Snapshot>) -> Result<Self, CheckError> {
        let seed = match resume {
            Some(snap) => Seed::Resume(snap),
            None => {
                let init_states = system.init().states(system.universe())?;
                if init_states.is_empty() {
                    return Err(CheckError::NoInitialStates);
                }
                Seed::Fresh(init_states)
            }
        };
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
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        Ok(Plan::resolve(options, env_threads, env_budget, cores))
    }

    /// The routing table. Explicit options beat the environment.
    ///
    /// A byte budget in force — or an explicit spill [`Engine`], under
    /// a default one — runs the store with its disk tiers; otherwise
    /// it stays in RAM. The thread count asked for, else the host's
    /// `cores`, picks the workers, on either store.
    pub(crate) fn resolve(
        options: &ExploreOptions,
        env_threads: Option<usize>,
        env_budget: Option<usize>,
        cores: usize,
    ) -> Plan {
        let budget = options.mem_budget_bytes.or(env_budget);
        let spill = matches!(options.engine, Engine::SpillBfs | Engine::SpillWs);
        let requested = options.threads.or(env_threads).map(|n| n.max(1));
        Plan {
            mem_budget: budget.or(spill.then_some(DEFAULT_SPILL_BUDGET)),
            requested,
            workers: requested.unwrap_or(cores).clamp(1, 2),
        }
    }

    /// The engine name `RunStart` and `RunEnd` carry.
    pub(crate) fn label(&self) -> &'static str {
        match self.mem_budget {
            None => "explore_sequential",
            Some(_) => "explore_spill",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPLICIT: usize = 1 << 20;
    const ENV: usize = 2 << 20;

    /// The whole routing table: engine × budget source. The resolver
    /// takes the environment as arguments, so nothing here touches
    /// `std::env`. Every cell with a budget in force, from the option
    /// or the environment, runs the store with its disk tiers; a spill
    /// engine without one runs under the default budget.
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
            for (explicit, env, in_force) in budgets {
                let options = ExploreOptions {
                    engine,
                    mem_budget_bytes: explicit,
                    ..ExploreOptions::default()
                };
                let plan = Plan::resolve(&options, None, env, 1);
                let what = format!("{engine:?} explicit={explicit:?} env={env:?}");
                let expected = match (engine, in_force) {
                    (_, Some(budget)) => Some(budget),
                    (Engine::SpillBfs | Engine::SpillWs, None) => Some(DEFAULT_SPILL_BUDGET),
                    (Engine::Auto | Engine::WorkStealing, None) => None,
                };
                assert_eq!(plan.mem_budget, expected, "{what}");
                let label = match expected {
                    None => "explore_sequential",
                    Some(_) => "explore_spill",
                };
                assert_eq!(plan.label(), label, "{what}");
                cases += 1;
            }
        }
        assert_eq!(cases, 4 * 4);
        // More than one thread asked for, and no budget: the one loop
        // in RAM on two workers, with the request kept for the caller.
        let four = ExploreOptions {
            threads: Some(4),
            ..ExploreOptions::default()
        };
        let plan = Plan::resolve(&four, None, None, 1);
        assert_eq!(plan.label(), "explore_sequential");
        assert_eq!((plan.mem_budget, plan.requested), (None, Some(4)));
        assert_eq!(plan.workers, 2);
    }

    #[test]
    fn environment_fills_in_unset_threads() {
        let plan = Plan::resolve(&ExploreOptions::default(), Some(4), None, 1);
        assert_eq!((plan.mem_budget, plan.requested), (None, Some(4)));
        // The explicit count beats the environment's.
        let two = ExploreOptions {
            threads: Some(2),
            ..ExploreOptions::default()
        };
        assert_eq!(Plan::resolve(&two, Some(7), None, 1).requested, Some(2));
        let plan = Plan::resolve(&ExploreOptions::default(), None, None, 1);
        assert_eq!(plan.requested, None, "nobody asked");
        // A zero thread count is clamped, not trusted.
        let zero = ExploreOptions {
            threads: Some(0),
            ..ExploreOptions::default()
        };
        assert_eq!(Plan::resolve(&zero, Some(4), None, 1).requested, Some(1));
        // A budget still reports what was asked.
        let plan = Plan::resolve(&ExploreOptions::default(), Some(4), Some(ENV), 1);
        assert_eq!((plan.mem_budget, plan.requested), (Some(ENV), Some(4)));
    }

    /// Workers: what was asked for, else the host's hardware threads,
    /// held to 1..=2 — with or without a budget.
    #[test]
    fn workers_follow_the_request_else_the_host() {
        let one = ExploreOptions {
            threads: Some(1),
            ..ExploreOptions::default()
        };
        let zero = ExploreOptions {
            threads: Some(0),
            ..ExploreOptions::default()
        };
        let default = ExploreOptions::default();
        // (options, environment, budget, cores) → workers
        let cases = [
            (&default, None, None, 1, 1),
            (&default, None, None, 2, 2),
            (&default, None, Some(ENV), 8, 2),
            (&default, Some(1), None, 8, 1),
            (&default, Some(3), None, 1, 2),
            (&one, Some(4), None, 8, 1),
            (&one, None, Some(ENV), 8, 1),
            (&zero, None, None, 8, 1),
        ];
        for (options, env, budget, cores, workers) in cases {
            let plan = Plan::resolve(options, env, budget, cores);
            let what = format!("{:?} env={env:?} {budget:?} cores={cores}", options.threads);
            assert_eq!(plan.workers, workers, "{what}");
        }
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
