//! Recognition of safety-canonical formulas.
//!
//! A formula is *safety-canonical* when it is a conjunction of
//! initial predicates, invariants `□P`, and step boxes `□[A]_v` — the
//! shape `Init ∧ □[N]_v` of the paper's canonical specifications with
//! the fairness conjunct removed (Section 2.2, Proposition 1).
//!
//! For such formulas, satisfaction by a *finite* behavior is decidable
//! by direct inspection: a finite behavior satisfies the formula iff
//! its first state satisfies the initial predicates, every state
//! satisfies the invariants, and every step satisfies every box —
//! because stuttering forever on the last state is then always a
//! satisfying infinite extension. This is the exact prefix semantics
//! the operators `⊳`, `+v`, `⊥`, and `C` quantify over.

use crate::{Lasso, SemanticsError};
use opentla_kernel::{box_action, Expr, Formula, State, StatePair, VarId};

/// The decomposed parts of a safety-canonical formula.
#[derive(Clone, Debug, Default)]
pub struct SafetyCanonical {
    /// Predicates that must hold in the first state.
    pub init: Vec<Expr>,
    /// Predicates that must hold in every state (`□P`).
    pub invariants: Vec<Expr>,
    /// Step boxes `□[A]_v` that every step must satisfy.
    pub boxes: Vec<(Expr, Vec<VarId>)>,
}

impl SafetyCanonical {
    /// The step boxes as actions `[A]_v ≜ A ∨ UNCHANGED v`, in
    /// [`boxes`](Self::boxes) order. Each is a deep copy of its action:
    /// a check over a graph builds them once, not once per edge.
    pub fn step_boxes(&self) -> Vec<Expr> {
        self.boxes
            .iter()
            .map(|(a, sub)| box_action(a.clone(), sub))
            .collect()
    }

    /// Whether a nonempty finite behavior satisfies the formula, i.e.
    /// can be extended to an infinite behavior satisfying it.
    ///
    /// The empty prefix satisfies everything by convention (see the
    /// crate docs of [`crate::prefix_sat`]).
    ///
    /// # Errors
    ///
    /// Propagates expression evaluation errors.
    pub fn check_prefix(&self, prefix: &[State]) -> Result<bool, SemanticsError> {
        let Some(first) = prefix.first() else {
            return Ok(true);
        };
        for p in &self.init {
            if !p.holds_state(first)? {
                return Ok(false);
            }
        }
        for s in prefix {
            for p in &self.invariants {
                if !p.holds_state(s)? {
                    return Ok(false);
                }
            }
        }
        for w in prefix.windows(2) {
            let pair = StatePair::new(&w[0], &w[1]);
            for (a, sub) in &self.boxes {
                if !box_action(a.clone(), sub).holds_action(pair)? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Whether an infinite (lasso) behavior satisfies the formula.
    ///
    /// # Errors
    ///
    /// Propagates expression evaluation errors.
    pub fn holds_lasso(&self, sigma: &Lasso) -> Result<bool, SemanticsError> {
        for p in &self.init {
            if !p.holds_state(sigma.state(0))? {
                return Ok(false);
            }
        }
        for s in sigma.states() {
            for p in &self.invariants {
                if !p.holds_state(s)? {
                    return Ok(false);
                }
            }
        }
        for (i, j) in sigma.steps() {
            let pair = StatePair::new(sigma.state(i), sigma.state(j));
            for (a, sub) in &self.boxes {
                if !box_action(a.clone(), sub).holds_action(pair)? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// The smallest prefix length at which the formula fails on
    /// `sigma`, or `None` if every prefix satisfies it (equivalently:
    /// `sigma ⊨ C(formula)`).
    ///
    /// # Errors
    ///
    /// Propagates expression evaluation errors.
    pub fn first_failing_prefix(&self, sigma: &Lasso) -> Result<Option<usize>, SemanticsError> {
        // Initial predicates and the first state's invariants fail at
        // prefix length 1.
        let first = sigma.state(0);
        for p in &self.init {
            if !p.holds_state(first)? {
                return Ok(Some(1));
            }
        }
        // Invariants: fail at the first offending position i, i.e. at
        // prefix length i + 1. Positions beyond the stored states
        // repeat earlier ones.
        let mut inv_fail: Option<usize> = None;
        'outer: for i in 0..sigma.len() {
            for p in &self.invariants {
                if !p.holds_state(sigma.state(i))? {
                    inv_fail = Some(i + 1);
                    break 'outer;
                }
            }
        }
        // Boxes: the step at position i (from σ(i) to σ(i+1)) fails at
        // prefix length i + 2. Distinct steps are at positions 0..k.
        let mut box_fail: Option<usize> = None;
        'steps: for (i, j) in sigma.steps() {
            let pair = StatePair::new(sigma.state(i), sigma.state(j));
            for (a, sub) in &self.boxes {
                if !box_action(a.clone(), sub).holds_action(pair)? {
                    box_fail = Some(i + 2);
                    break 'steps;
                }
            }
        }
        Ok(match (inv_fail, box_fail) {
            (None, None) => None,
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (Some(a), Some(b)) => Some(a.min(b)),
        })
    }
}

/// Recognizes a safety-canonical formula, returning its parts.
///
/// Returns `None` if the formula contains any construct outside the
/// conjunctive `Init ∧ □P ∧ □[A]_v` fragment.
pub fn safety_canonical(f: &Formula) -> Option<SafetyCanonical> {
    let mut out = SafetyCanonical::default();
    collect(f, &mut out).then_some(out)
}

fn collect(f: &Formula, out: &mut SafetyCanonical) -> bool {
    match f {
        Formula::Pred(e) => {
            out.init.push(e.clone());
            true
        }
        Formula::Always(inner) => match inner.as_ref() {
            Formula::Pred(e) => {
                out.invariants.push(e.clone());
                true
            }
            Formula::And(fs) if fs.iter().all(|g| matches!(g, Formula::Pred(_))) => {
                for g in fs {
                    if let Formula::Pred(e) = g {
                        out.invariants.push(e.clone());
                    }
                }
                true
            }
            _ => false,
        },
        Formula::ActBox { action, sub } => {
            out.boxes.push((action.clone(), sub.clone()));
            true
        }
        Formula::And(fs) => fs.iter().all(|g| collect(g, out)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_kernel::{Domain, Value, Vars};

    fn setup() -> (Vars, VarId) {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, 3));
        (vars, x)
    }

    fn st(i: i64) -> State {
        State::new(vec![Value::Int(i)])
    }

    fn counter_spec(x: VarId) -> Formula {
        // x = 0 ∧ □[x' = x + 1]_x
        Formula::pred(Expr::var(x).eq(Expr::int(0))).and(Formula::act_box(
            Expr::prime(x).eq(Expr::var(x).add(Expr::int(1))),
            vec![x],
        ))
    }

    #[test]
    fn recognizes_canonical_shape() {
        let (_, x) = setup();
        let f = counter_spec(x).and(Formula::pred(Expr::var(x).le(Expr::int(3))).always());
        let sc = safety_canonical(&f).expect("canonical");
        assert_eq!(sc.init.len(), 1);
        assert_eq!(sc.invariants.len(), 1);
        assert_eq!(sc.boxes.len(), 1);
    }

    #[test]
    fn rejects_liveness() {
        let (_, x) = setup();
        let f = Formula::pred(Expr::var(x).eq(Expr::int(0))).eventually();
        assert!(safety_canonical(&f).is_none());
        let f = Formula::wf(Expr::bool(true), vec![x]);
        assert!(safety_canonical(&f).is_none());
        let f = counter_spec(x).and(Formula::tt().closure());
        assert!(safety_canonical(&f).is_none());
    }

    #[test]
    fn prefix_checking() {
        let (_, x) = setup();
        let sc = safety_canonical(&counter_spec(x)).unwrap();
        assert!(sc.check_prefix(&[]).unwrap());
        assert!(sc.check_prefix(&[st(0)]).unwrap());
        assert!(sc.check_prefix(&[st(0), st(1), st(1), st(2)]).unwrap());
        // Wrong init.
        assert!(!sc.check_prefix(&[st(1)]).unwrap());
        // Bad step (decrement).
        assert!(!sc.check_prefix(&[st(0), st(1), st(0)]).unwrap());
    }

    #[test]
    fn first_failing_prefix_on_lasso() {
        let (_, x) = setup();
        let sc = safety_canonical(&counter_spec(x)).unwrap();
        // 0 1 (2)^ω — all steps legal or stuttering: never fails.
        let good = Lasso::new(vec![st(0), st(1), st(2)], 2).unwrap();
        assert_eq!(sc.first_failing_prefix(&good).unwrap(), None);
        assert!(sc.holds_lasso(&good).unwrap());
        // 0 1 (0)^ω — the step 1→0 is illegal; it is step index 1, so
        // the prefix of length 3 is the first failing one.
        let bad = Lasso::new(vec![st(0), st(1), st(0)], 2).unwrap();
        assert_eq!(sc.first_failing_prefix(&bad).unwrap(), Some(3));
        assert!(!sc.holds_lasso(&bad).unwrap());
        // Wrong init fails at prefix length 1.
        let wrong = Lasso::stutter(st(2));
        assert_eq!(sc.first_failing_prefix(&wrong).unwrap(), Some(1));
    }

    #[test]
    fn invariant_violation_position() {
        let (_, x) = setup();
        let f = Formula::pred(Expr::var(x).le(Expr::int(1))).always();
        let sc = safety_canonical(&f).unwrap();
        // 0 1 (2)^ω: invariant fails at position 2 → prefix length 3.
        let sigma = Lasso::new(vec![st(0), st(1), st(2)], 2).unwrap();
        assert_eq!(sc.first_failing_prefix(&sigma).unwrap(), Some(3));
    }

    #[test]
    fn wrap_step_is_checked() {
        let (_, x) = setup();
        // □[x' = x + 1]_x with lasso 0 (1 2)^ω: the wrap step 2→1 is
        // illegal; it is step index 2, prefix length 4.
        let f = Formula::act_box(Expr::prime(x).eq(Expr::var(x).add(Expr::int(1))), vec![x]);
        let sc = safety_canonical(&f).unwrap();
        let sigma = Lasso::new(vec![st(0), st(1), st(2)], 1).unwrap();
        assert_eq!(sc.first_failing_prefix(&sigma).unwrap(), Some(4));
        assert!(!sc.holds_lasso(&sigma).unwrap());
    }
}
