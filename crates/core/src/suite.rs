//! Verification suites: named batches of checks with one report.
//!
//! Reproductions and regression baselines typically run *many* checks
//! against one system — invariants, step invariants, liveness targets,
//! and composition certificates. A [`Suite`] collects them with names
//! and produces a single pass/fail report (the table of
//! `EXPERIMENTS.md`, `opentla_bench::experiments`, is a hand-rolled
//! one of these).

use crate::{Certificate, SpecError};
use opentla_check::{
    check_invariant, check_liveness, check_liveness_governed, check_step_invariant, Budget,
    LiveTarget, StateGraph, System,
};
use opentla_kernel::{Expr, VarId};
use std::fmt;

/// What kind of check a suite entry was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckKind {
    /// A state invariant.
    Invariant,
    /// A step (action) invariant.
    StepInvariant,
    /// A liveness target.
    Liveness,
    /// A composition/refinement certificate.
    Certificate,
    /// A caller-recorded fact.
    Recorded,
}

impl CheckKind {
    /// The kind's wire name in observability `check` events
    /// (snake_case, unlike [`Display`](fmt::Display)'s prose form).
    pub fn wire_name(&self) -> &'static str {
        match self {
            CheckKind::Invariant => "invariant",
            CheckKind::StepInvariant => "step_invariant",
            CheckKind::Liveness => "liveness",
            CheckKind::Certificate => "certificate",
            CheckKind::Recorded => "recorded",
        }
    }
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CheckKind::Invariant => "invariant",
            CheckKind::StepInvariant => "step invariant",
            CheckKind::Liveness => "liveness",
            CheckKind::Certificate => "certificate",
            CheckKind::Recorded => "recorded",
        };
        f.write_str(s)
    }
}

/// One named check and its outcome.
#[derive(Clone, Debug)]
pub struct SuiteEntry {
    /// The check's name.
    pub name: String,
    /// What was checked.
    pub kind: CheckKind,
    /// Whether it passed.
    pub holds: bool,
    /// A short human-readable detail (counterexample reason, conclusion,
    /// …).
    pub detail: String,
}

/// A named batch of verification checks.
///
/// # Example
///
/// ```
/// use opentla::Suite;
/// use opentla_check::{explore, ExploreOptions, GuardedAction, Init, System};
/// use opentla_kernel::{Domain, Expr, Value, Vars};
///
/// # fn main() -> Result<(), opentla::SpecError> {
/// let mut vars = Vars::new();
/// let x = vars.declare("x", Domain::int_range(0, 3));
/// let incr = GuardedAction::new(
///     "incr",
///     Expr::var(x).lt(Expr::int(3)),
///     vec![(x, Expr::var(x).add(Expr::int(1)))],
/// );
/// let sys = System::new(vars, Init::new([(x, Value::Int(0))]), vec![incr]);
/// let graph = explore(&sys, &ExploreOptions::default())?;
/// let mut suite = Suite::new("counter");
/// suite.invariant("bounded", &sys, &graph, &Expr::var(x).le(Expr::int(3)))?;
/// suite.invariant("too tight", &sys, &graph, &Expr::var(x).lt(Expr::int(3)))?;
/// assert!(!suite.holds());
/// assert_eq!(suite.entries().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Suite {
    name: String,
    entries: Vec<SuiteEntry>,
}

impl Suite {
    /// An empty suite.
    pub fn new(name: impl Into<String>) -> Suite {
        Suite {
            name: name.into(),
            entries: Vec::new(),
        }
    }

    /// The suite's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All entries, in execution order.
    pub fn entries(&self) -> &[SuiteEntry] {
        &self.entries
    }

    /// Whether every entry passed.
    pub fn holds(&self) -> bool {
        self.entries.iter().all(|e| e.holds)
    }

    /// The failing entries.
    pub fn failures(&self) -> impl Iterator<Item = &SuiteEntry> {
        self.entries.iter().filter(|e| !e.holds)
    }

    /// Records an entry, mirroring it to the process-wide observability
    /// recorder (`OPENTLA_OBS`) as a `check` event under the `suite`
    /// phase — every way of adding an entry funnels through here.
    fn push(&mut self, entry: SuiteEntry) {
        let rec = opentla_check::obs::global();
        if rec.enabled() {
            let _phase =
                opentla_check::obs::PhaseGuard::enter(&rec, opentla_check::obs::Phase::Suite);
            rec.record(&opentla_check::Event::Check {
                kind: entry.kind.wire_name(),
                name: &entry.name,
                holds: entry.holds,
            });
        }
        self.entries.push(entry);
    }

    /// Runs and records a state-invariant check; returns whether it
    /// held.
    ///
    /// # Errors
    ///
    /// Engine errors from the checker.
    pub fn invariant(
        &mut self,
        name: impl Into<String>,
        system: &System,
        graph: &StateGraph,
        pred: &Expr,
    ) -> Result<bool, SpecError> {
        let verdict = check_invariant(system, graph, pred)?;
        let holds = verdict.holds();
        self.push(SuiteEntry {
            name: name.into(),
            kind: CheckKind::Invariant,
            holds,
            detail: verdict.counterexample().map_or_else(
                || format!("{} states", graph.len()),
                |c| c.reason().to_string(),
            ),
        });
        Ok(holds)
    }

    /// Runs and records a step-invariant check.
    ///
    /// # Errors
    ///
    /// Engine errors from the checker.
    pub fn step_invariant(
        &mut self,
        name: impl Into<String>,
        system: &System,
        graph: &StateGraph,
        action: &Expr,
        sub: &[VarId],
    ) -> Result<bool, SpecError> {
        let verdict = check_step_invariant(system, graph, action, sub)?;
        let holds = verdict.holds();
        self.push(SuiteEntry {
            name: name.into(),
            kind: CheckKind::StepInvariant,
            holds,
            detail: verdict.counterexample().map_or_else(
                || format!("{} transitions", graph.edge_count()),
                |c| c.reason().to_string(),
            ),
        });
        Ok(holds)
    }

    /// Runs and records a liveness check.
    ///
    /// # Errors
    ///
    /// Engine errors from the checker.
    pub fn liveness(
        &mut self,
        name: impl Into<String>,
        system: &System,
        graph: &StateGraph,
        target: &LiveTarget,
    ) -> Result<bool, SpecError> {
        let verdict = check_liveness(system, graph, target)?;
        let holds = verdict.holds();
        self.push(SuiteEntry {
            name: name.into(),
            kind: CheckKind::Liveness,
            holds,
            detail: verdict.counterexample().map_or_else(
                || "no fair violation".to_string(),
                |c| c.reason().to_string(),
            ),
        });
        Ok(holds)
    }

    /// Runs and records a liveness check under a resource [`Budget`].
    ///
    /// Returns `Some(holds)` when the check was decided within the
    /// budget, and `None` when the budget ran out — the entry is then
    /// recorded as *not* passing (conservatively), with the exhaustion
    /// outcome in its detail, so a partial suite never reads as a
    /// clean pass.
    ///
    /// # Errors
    ///
    /// Engine errors from the checker.
    pub fn liveness_governed(
        &mut self,
        name: impl Into<String>,
        system: &System,
        graph: &StateGraph,
        target: &LiveTarget,
        budget: &Budget,
    ) -> Result<Option<bool>, SpecError> {
        let run = check_liveness_governed(system, graph, target, budget)?;
        match run.verdict {
            Some(verdict) => {
                let holds = verdict.holds();
                self.push(SuiteEntry {
                    name: name.into(),
                    kind: CheckKind::Liveness,
                    holds,
                    detail: verdict.counterexample().map_or_else(
                        || "no fair violation".to_string(),
                        |c| c.reason().to_string(),
                    ),
                });
                Ok(Some(holds))
            }
            None => {
                self.push(SuiteEntry {
                    name: name.into(),
                    kind: CheckKind::Liveness,
                    holds: false,
                    detail: format!("undecided: {}", run.outcome),
                });
                Ok(None)
            }
        }
    }

    /// Records a composition/refinement certificate.
    pub fn certificate(&mut self, name: impl Into<String>, cert: &Certificate) -> bool {
        let holds = cert.holds();
        self.push(SuiteEntry {
            name: name.into(),
            kind: CheckKind::Certificate,
            holds,
            detail: cert.conclusion.clone(),
        });
        holds
    }

    /// Records an externally computed fact.
    pub fn record(&mut self, name: impl Into<String>, holds: bool, detail: impl Into<String>) {
        self.push(SuiteEntry {
            name: name.into(),
            kind: CheckKind::Recorded,
            holds,
            detail: detail.into(),
        });
    }
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "suite {}: {} ({}/{} passed)",
            self.name,
            if self.holds() { "PASS" } else { "FAIL" },
            self.entries.iter().filter(|e| e.holds).count(),
            self.entries.len()
        )?;
        for e in &self.entries {
            writeln!(
                f,
                "  {} {} [{}]  {}",
                if e.holds { "✓" } else { "✗" },
                e.name,
                e.kind,
                e.detail
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_check::{explore, ExploreOptions, GuardedAction, Init};
    use opentla_kernel::{Domain, Value, Vars};

    fn counter() -> (System, VarId) {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, 3));
        let incr = GuardedAction::new(
            "incr",
            Expr::var(x).lt(Expr::int(3)),
            vec![(x, Expr::var(x).add(Expr::int(1)))],
        );
        (
            System::new(vars, Init::new([(x, Value::Int(0))]), vec![incr]),
            x,
        )
    }

    #[test]
    fn suite_collects_mixed_checks() {
        let (sys, x) = counter();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let mut suite = Suite::new("counter");
        assert!(suite
            .invariant("bounded", &sys, &graph, &Expr::var(x).le(Expr::int(3)))
            .unwrap());
        assert!(suite
            .step_invariant(
                "increments",
                &sys,
                &graph,
                &Expr::prime(x).eq(Expr::var(x).add(Expr::int(1))),
                &[x],
            )
            .unwrap());
        assert!(!suite
            .liveness(
                "terminates (no fairness)",
                &sys,
                &graph,
                &LiveTarget::Eventually(Expr::var(x).eq(Expr::int(3))),
            )
            .unwrap());
        suite.record("external", true, "measured elsewhere");
        assert!(!suite.holds());
        assert_eq!(suite.failures().count(), 1);
        let text = suite.to_string();
        assert!(text.contains("3/4 passed"), "{text}");
        assert!(text.contains("✗ terminates"), "{text}");
        assert!(text.contains("[liveness]"), "{text}");
    }

    #[test]
    fn governed_liveness_entry_records_exhaustion() {
        let (sys, x) = counter();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let mut suite = Suite::new("governed");
        let target = LiveTarget::Eventually(Expr::var(x).eq(Expr::int(3)));
        let decided = suite
            .liveness_governed(
                "terminates",
                &sys,
                &graph,
                &target,
                &Budget::default().transitions(0),
            )
            .unwrap();
        assert!(decided.is_none());
        assert!(!suite.holds());
        let text = suite.to_string();
        assert!(text.contains("undecided"), "{text}");
        assert!(text.contains("transition limit"), "{text}");
        // With a real budget the same check decides (and fails: no
        // fairness forces termination).
        let decided = suite
            .liveness_governed(
                "terminates (retry)",
                &sys,
                &graph,
                &target,
                &Budget::unlimited(),
            )
            .unwrap();
        assert_eq!(decided, Some(false));
    }

    #[test]
    fn empty_suite_holds() {
        let suite = Suite::new("empty");
        assert!(suite.holds());
        assert_eq!(suite.entries().len(), 0);
        assert!(suite.to_string().contains("0/0"));
    }
}
