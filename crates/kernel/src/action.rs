//! Action helpers: `UNCHANGED v`, `[A]_v`, and enabledness support.

use crate::{Expr, VarId, VarSet};

/// The action `UNCHANGED ⟨v1, …, vk⟩`, i.e. `∧ vi' = vi`.
///
/// # Example
///
/// ```
/// use opentla_kernel::{Vars, Domain, State, StatePair, Value, unchanged};
/// let mut vars = Vars::new();
/// let x = vars.declare("x", Domain::bits());
/// let s = State::new(vec![Value::Int(0)]);
/// assert!(unchanged(&[x]).holds_action(StatePair::stutter(&s)).unwrap());
/// ```
pub fn unchanged(vars: &[VarId]) -> Expr {
    Expr::all(vars.iter().map(|v| Expr::prime(*v).eq(Expr::var(*v))))
}

/// The action `[A]_v ≜ A ∨ (v' = v)`: an `A` step or a step leaving the
/// tuple `v` unchanged.
pub fn box_action(action: Expr, sub: &[VarId]) -> Expr {
    Expr::any([action, unchanged(sub)])
}

/// The variables whose next-state values matter for deciding whether an
/// action is enabled: its primed variables.
///
/// `Enabled A` holds in state `s` iff some state `t` makes `⟨s,t⟩` an
/// `A` step; since `A` only constrains the primes it mentions, a
/// witness search may vary exactly these variables and copy the rest.
pub fn enabled_vars(action: &Expr) -> VarSet {
    action.primed_vars()
}

/// The primed variables pinned to their current value by a top-level
/// conjunct of the shape `v' = v` (the shape `UNCHANGED` produces).
///
/// Every `A` step `⟨s, t⟩` must satisfy such a conjunct, so `t` agrees
/// with `s` on `v`; a witness search for `Enabled A` may therefore copy
/// these variables from `s` instead of varying them — the restriction
/// loses no witnesses. Actions built with frame conditions prime every
/// declared variable, so without this the search degenerates into an
/// enumeration of (nearly) the whole universe.
pub fn determined_primes(action: &Expr) -> VarSet {
    use crate::{BinOp, Expr as E};
    let mut out = VarSet::new();
    let conjuncts: &[Expr] = match action {
        E::And(cs) => cs,
        single => std::slice::from_ref(single),
    };
    for c in conjuncts {
        if let E::Binary(BinOp::Eq, a, b) = c {
            match (&**a, &**b) {
                (E::Prime(v), E::Var(w)) | (E::Var(w), E::Prime(v)) if v == w => {
                    out.insert(*v);
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, State, StatePair, Value, Vars};

    fn setup() -> (Vars, VarId, VarId) {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        let y = vars.declare("y", Domain::bits());
        (vars, x, y)
    }

    #[test]
    fn unchanged_tuple() {
        let (_, x, y) = setup();
        let s = State::new(vec![Value::Int(0), Value::Int(0)]);
        let t = s.with(&[(y, Value::Int(1))]);
        assert!(unchanged(&[x])
            .holds_action(StatePair::new(&s, &t))
            .unwrap());
        assert!(!unchanged(&[x, y])
            .holds_action(StatePair::new(&s, &t))
            .unwrap());
        // UNCHANGED of the empty tuple is TRUE.
        assert!(unchanged(&[]).holds_action(StatePair::new(&s, &t)).unwrap());
    }

    #[test]
    fn boxed_action_allows_stutter() {
        let (_, x, y) = setup();
        let a = Expr::prime(x)
            .eq(Expr::int(1))
            .and(Expr::var(x).eq(Expr::int(0)));
        let boxed = box_action(a, &[x]);
        let s = State::new(vec![Value::Int(0), Value::Int(0)]);
        let t = s.with(&[(x, Value::Int(1))]);
        let u = s.with(&[(y, Value::Int(1))]); // x-stutter
        assert!(boxed.holds_action(StatePair::new(&s, &t)).unwrap());
        assert!(boxed.holds_action(StatePair::new(&s, &u)).unwrap());
        assert!(boxed.holds_action(StatePair::stutter(&s)).unwrap());
        // A non-A step that changes x violates [A]_x: here x goes 1 -> 0
        // but A requires x = 0 before the step... build it from t.
        let back = t.with(&[(x, Value::Int(0))]);
        assert!(!boxed.holds_action(StatePair::new(&t, &back)).unwrap());
    }

    #[test]
    fn determined_primes_finds_unchanged_conjuncts() {
        let (_, x, y) = setup();
        // x' = x ∧ y' = y + 1: x is determined, y is not.
        let a = Expr::all([
            Expr::prime(x).eq(Expr::var(x)),
            Expr::prime(y).eq(Expr::var(y).add(Expr::int(1))),
        ]);
        let d = determined_primes(&a);
        assert!(d.contains(x));
        assert!(!d.contains(y));
        // Both orientations of the equality count.
        let flipped = Expr::var(y).eq(Expr::prime(y));
        let d = determined_primes(&flipped);
        assert!(d.contains(y));
        // x' = y is a genuine constraint, not a frame condition.
        let cross = Expr::prime(x).eq(Expr::var(y));
        assert!(determined_primes(&cross).is_empty());
        // A disjunction determines nothing.
        let or = Expr::any([Expr::prime(x).eq(Expr::var(x)), Expr::bool(true)]);
        assert!(determined_primes(&or).is_empty());
    }

    #[test]
    fn enabled_vars_are_the_primes() {
        let (_, x, y) = setup();
        let a = Expr::prime(x).eq(Expr::var(y));
        let vs = enabled_vars(&a);
        assert!(vs.contains(x));
        assert!(!vs.contains(y));
    }
}
