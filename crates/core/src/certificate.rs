//! Proof certificates: the audit trail of a rule application.

use opentla_check::{Counterexample, Outcome};
use opentla_kernel::Vars;
use std::fmt;

/// How an obligation was discharged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Enforced by construction of the closed product (e.g. the
    /// disjointness guarantee `G`, or Proposition 1's side condition).
    Structural,
    /// Step simulation over the reachable states (safety).
    Simulation,
    /// A check over the initial states (Proposition 4's hypothesis).
    InitialStates,
    /// Fair-lasso search (liveness).
    Liveness,
    /// Reachability of the complete system (the substrate every other
    /// method runs on; appears only when exploration itself exhausts
    /// its budget).
    Exploration,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Method::Structural => "structural",
            Method::Simulation => "simulation",
            Method::InitialStates => "initial states",
            Method::Liveness => "liveness",
            Method::Exploration => "exploration",
        };
        f.write_str(s)
    }
}

/// The status of one proof obligation.
#[derive(Clone, Debug)]
pub enum ObligationStatus {
    /// Discharged.
    Proved {
        /// States examined (0 for structural facts).
        states: usize,
    },
    /// Refuted, with a counterexample.
    Failed(Counterexample),
    /// Neither proved nor refuted: the checking budget ran out first.
    /// The [`Outcome`] records why and how much ground was covered.
    Undecided {
        /// The (exhausted) resource outcome of the check.
        outcome: Outcome,
    },
}

impl ObligationStatus {
    /// Whether the obligation was discharged.
    pub fn proved(&self) -> bool {
        matches!(self, ObligationStatus::Proved { .. })
    }

    /// Whether the obligation was refuted (as opposed to merely
    /// undecided).
    pub fn failed(&self) -> bool {
        matches!(self, ObligationStatus::Failed(_))
    }

    /// Whether the budget ran out before the obligation was decided.
    pub fn undecided(&self) -> bool {
        matches!(self, ObligationStatus::Undecided { .. })
    }
}

/// One hypothesis of a proof rule, as checked.
#[derive(Clone, Debug)]
pub struct Obligation {
    /// Short identifier, e.g. `"H1[env-of-q1]"` or `"H2a/closure"`.
    pub id: String,
    /// What the obligation asserts, in the paper's notation.
    pub description: String,
    /// How it was discharged.
    pub method: Method,
    /// Whether it was discharged.
    pub status: ObligationStatus,
}

/// The result of applying a proof rule: the conclusion plus every
/// checked hypothesis.
///
/// A certificate with [`Certificate::holds`]` == false` is not an
/// error: it faithfully records which hypothesis failed and why.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// The rule applied, e.g. `"Composition Theorem"`.
    pub rule: String,
    /// The conclusion, in the paper's notation.
    pub conclusion: String,
    /// Every obligation checked, in order.
    pub obligations: Vec<Obligation>,
    /// Reachable states of the complete system used to discharge the
    /// hypotheses.
    pub product_states: usize,
    /// Transitions of that system.
    pub product_edges: usize,
}

impl Certificate {
    /// Whether every obligation was discharged — i.e. the conclusion
    /// is established. An undecided certificate does not hold (but see
    /// [`Certificate::decided`] to tell exhaustion from refutation).
    pub fn holds(&self) -> bool {
        self.obligations.iter().all(|o| o.status.proved())
    }

    /// Whether every obligation was decided one way or the other —
    /// `false` means some check's budget ran out and the conclusion is
    /// open, not refuted. Retry with a larger [`Budget`]
    /// (`opentla_check::Budget`), e.g. via `opentla_check::escalate`.
    ///
    /// [`Budget`]: opentla_check::Budget
    pub fn decided(&self) -> bool {
        !self.obligations.iter().any(|o| o.status.undecided())
    }

    /// The first *refuted* obligation, if any (undecided obligations
    /// are not failures; see [`Certificate::first_undecided`]).
    pub fn first_failure(&self) -> Option<&Obligation> {
        self.obligations.iter().find(|o| o.status.failed())
    }

    /// The first obligation whose check exhausted its budget, if any.
    pub fn first_undecided(&self) -> Option<&Obligation> {
        self.obligations.iter().find(|o| o.status.undecided())
    }

    /// Renders the certificate with variable names (for
    /// counterexamples).
    pub fn display<'a>(&'a self, vars: &'a Vars) -> CertificateDisplay<'a> {
        CertificateDisplay { cert: self, vars }
    }
}

impl opentla_check::Governed for Certificate {
    /// A certificate is "exhausted" when any obligation is undecided,
    /// making whole rule applications retryable with
    /// `opentla_check::escalate`.
    fn exhaustion(&self) -> Option<&opentla_check::ExhaustReason> {
        self.obligations.iter().find_map(|o| match &o.status {
            ObligationStatus::Undecided { outcome } => outcome.exhaustion(),
            _ => None,
        })
    }
}

/// Helper returned by [`Certificate::display`].
#[derive(Clone, Copy)]
pub struct CertificateDisplay<'a> {
    cert: &'a Certificate,
    vars: &'a Vars,
}

impl fmt::Display for CertificateDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.cert;
        writeln!(f, "rule: {}", c.rule)?;
        writeln!(f, "conclusion: {}", c.conclusion)?;
        writeln!(
            f,
            "complete system: {} states, {} transitions",
            c.product_states, c.product_edges
        )?;
        writeln!(
            f,
            "verdict: {}",
            if c.holds() {
                "PROVED"
            } else if c.first_failure().is_some() {
                "FAILED"
            } else {
                "UNDECIDED (budget exhausted)"
            }
        )?;
        for o in &c.obligations {
            match &o.status {
                // A structural fact examines no state: no count to show.
                ObligationStatus::Proved { .. } if o.method == Method::Structural => {
                    writeln!(f, "  ✓ {} [{}]  {}", o.id, o.method, o.description)?;
                }
                ObligationStatus::Proved { states } => {
                    writeln!(
                        f,
                        "  ✓ {} [{}; {} states]  {}",
                        o.id, o.method, states, o.description
                    )?;
                }
                ObligationStatus::Failed(cx) => {
                    writeln!(f, "  ✗ {} [{}]  {}", o.id, o.method, o.description)?;
                    write!(f, "{}", cx.display(self.vars))?;
                }
                ObligationStatus::Undecided { outcome } => {
                    writeln!(
                        f,
                        "  ? {} [{}]  {} — {}",
                        o.id, o.method, o.description, outcome
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_kernel::{Domain, State, Value};

    fn proved(id: &str) -> Obligation {
        Obligation {
            id: id.into(),
            description: "test".into(),
            method: Method::Simulation,
            status: ObligationStatus::Proved { states: 7 },
        }
    }

    #[test]
    fn holds_iff_all_proved() {
        let mut cert = Certificate {
            rule: "Composition Theorem".into(),
            conclusion: "E ⊳ M".into(),
            obligations: vec![proved("H1"), proved("H2a")],
            product_states: 10,
            product_edges: 20,
        };
        assert!(cert.holds());
        assert!(cert.first_failure().is_none());
        cert.obligations.push(Obligation {
            id: "H2b".into(),
            description: "liveness".into(),
            method: Method::Liveness,
            status: ObligationStatus::Failed(Counterexample::new(
                "starved",
                vec![State::new(vec![Value::Int(0)])],
                vec![None],
                Some(0),
            )),
        });
        assert!(!cert.holds());
        assert_eq!(cert.first_failure().unwrap().id, "H2b");
    }

    #[test]
    fn undecided_is_neither_proved_nor_failed() {
        use opentla_check::{ExhaustReason, GraphStats};
        let outcome = Outcome::Exhausted {
            reason: ExhaustReason::StateLimit { limit: 3 },
            frontier_size: 2,
            stats: GraphStats {
                states: 3,
                transitions: 1,
                deadlocks: 0,
                depth: 1,
            },
            resume: None,
        };
        let cert = Certificate {
            rule: "Composition Theorem".into(),
            conclusion: "E ⊳ M".into(),
            obligations: vec![
                proved("G"),
                Obligation {
                    id: "H2a".into(),
                    description: "simulation".into(),
                    method: Method::Simulation,
                    status: ObligationStatus::Undecided { outcome },
                },
            ],
            product_states: 3,
            product_edges: 1,
        };
        assert!(!cert.holds());
        assert!(!cert.decided());
        assert!(cert.first_failure().is_none());
        assert_eq!(cert.first_undecided().unwrap().id, "H2a");
        use opentla_check::Governed;
        assert_eq!(
            cert.exhaustion(),
            Some(&ExhaustReason::StateLimit { limit: 3 })
        );
        let mut vars = Vars::new();
        vars.declare("x", Domain::bits());
        let text = cert.display(&vars).to_string();
        assert!(text.contains("UNDECIDED"), "{text}");
        assert!(text.contains("state limit of 3"), "{text}");
        assert!(text.contains("? H2a"), "{text}");
    }

    #[test]
    fn display_includes_everything() {
        let mut vars = Vars::new();
        vars.declare("x", Domain::bits());
        let cert = Certificate {
            rule: "Corollary".into(),
            conclusion: "(E ⊳ M') ⇒ (E ⊳ M)".into(),
            obligations: vec![proved("a")],
            product_states: 3,
            product_edges: 4,
        };
        let text = cert.display(&vars).to_string();
        assert!(text.contains("Corollary"));
        assert!(text.contains("PROVED"));
        assert!(text.contains("3 states"));
        assert!(text.contains('✓'));
    }

    #[test]
    fn structural_obligations_show_no_state_count() {
        let mut vars = Vars::new();
        vars.declare("x", Domain::bits());
        let cert = Certificate {
            rule: "Composition Theorem".into(),
            conclusion: "E ⊳ M".into(),
            obligations: vec![
                Obligation {
                    id: "G".into(),
                    description: "Disjoint(x)".into(),
                    method: Method::Structural,
                    status: ObligationStatus::Proved { states: 0 },
                },
                proved("H1"),
            ],
            product_states: 3,
            product_edges: 4,
        };
        let text = cert.display(&vars).to_string();
        assert!(text.contains("  ✓ G [structural]  Disjoint(x)\n"), "{text}");
        assert!(
            text.contains("  ✓ H1 [simulation; 7 states]  test\n"),
            "{text}"
        );
    }
}
