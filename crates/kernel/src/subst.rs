//! Renaming and substitution.
//!
//! Two distinct operations from the paper are mechanized here:
//!
//! * [`Renaming`] — variable-for-variable renaming, used for the
//!   constructions `F[1] ≜ F[z/o, q1/q]` and `F[2] ≜ F[z/i, q2/q]`
//!   (Section A.4). Renaming is applied to *all* occurrences,
//!   including bound ones, which matches the paper's usage (renaming a
//!   hidden variable yields an α-equivalent formula).
//! * [`Substitution`] — replacing variables by *state functions*, used
//!   for refinement mappings (`F̄`, substituting an expression over
//!   concrete variables for a hidden abstract variable).

use crate::formula::Fairness;
use crate::{Expr, Formula, KernelError, VarId, VarSet};
use std::collections::{BTreeMap, HashMap};

/// Converts a state function into its primed form: every unprimed
/// variable becomes primed.
///
/// # Errors
///
/// Fails with [`KernelError::DoublePrime`] if the expression already
/// contains a primed variable.
pub fn prime_expr(e: &Expr) -> Result<Expr, KernelError> {
    Ok(match e {
        Expr::Const(v) => Expr::Const(v.clone()),
        Expr::Var(v) => Expr::Prime(*v),
        Expr::Prime(v) => return Err(KernelError::DoublePrime { var: *v }),
        Expr::Unary(op, x) => Expr::Unary(*op, Box::new(prime_expr(x)?)),
        Expr::Binary(op, a, b) => {
            Expr::Binary(*op, Box::new(prime_expr(a)?), Box::new(prime_expr(b)?))
        }
        Expr::And(es) => Expr::And(es.iter().map(prime_expr).collect::<Result<_, _>>()?),
        Expr::Or(es) => Expr::Or(es.iter().map(prime_expr).collect::<Result<_, _>>()?),
        Expr::Ite(c, a, b) => Expr::Ite(
            Box::new(prime_expr(c)?),
            Box::new(prime_expr(a)?),
            Box::new(prime_expr(b)?),
        ),
        Expr::Tuple(es) => Expr::Tuple(es.iter().map(prime_expr).collect::<Result<_, _>>()?),
        Expr::MkSeq(es) => Expr::MkSeq(es.iter().map(prime_expr).collect::<Result<_, _>>()?),
        Expr::InSet(x, set) => Expr::InSet(Box::new(prime_expr(x)?), set.clone()),
    })
}

/// A variable-for-variable renaming.
///
/// Unlisted variables are left alone. Renamings apply uniformly to
/// primed and unprimed occurrences, to subscripts, and to bound
/// variables.
///
/// # Example
///
/// ```
/// use opentla_kernel::{Vars, Domain, Expr, Renaming};
/// let mut vars = Vars::new();
/// let o = vars.declare("o", Domain::bits());
/// let z = vars.declare("z", Domain::bits());
/// let r = Renaming::new([(o, z)]);
/// assert_eq!(r.expr(&Expr::prime(o)), Expr::prime(z));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Renaming {
    map: HashMap<VarId, VarId>,
}

impl Renaming {
    /// Builds a renaming from `(from, to)` pairs.
    pub fn new(pairs: impl IntoIterator<Item = (VarId, VarId)>) -> Self {
        Renaming {
            map: pairs.into_iter().collect(),
        }
    }

    /// The image of one variable.
    pub fn var(&self, v: VarId) -> VarId {
        *self.map.get(&v).unwrap_or(&v)
    }

    /// Renames all variables of a subscript tuple.
    pub fn sub(&self, sub: &[VarId]) -> Vec<VarId> {
        sub.iter().map(|v| self.var(*v)).collect()
    }

    /// Applies the renaming to an expression.
    pub fn expr(&self, e: &Expr) -> Expr {
        match e {
            Expr::Const(v) => Expr::Const(v.clone()),
            Expr::Var(v) => Expr::Var(self.var(*v)),
            Expr::Prime(v) => Expr::Prime(self.var(*v)),
            Expr::Unary(op, x) => Expr::Unary(*op, Box::new(self.expr(x))),
            Expr::Binary(op, a, b) => {
                Expr::Binary(*op, Box::new(self.expr(a)), Box::new(self.expr(b)))
            }
            Expr::And(es) => Expr::And(es.iter().map(|x| self.expr(x)).collect()),
            Expr::Or(es) => Expr::Or(es.iter().map(|x| self.expr(x)).collect()),
            Expr::Ite(c, a, b) => Expr::Ite(
                Box::new(self.expr(c)),
                Box::new(self.expr(a)),
                Box::new(self.expr(b)),
            ),
            Expr::Tuple(es) => Expr::Tuple(es.iter().map(|x| self.expr(x)).collect()),
            Expr::MkSeq(es) => Expr::MkSeq(es.iter().map(|x| self.expr(x)).collect()),
            Expr::InSet(x, set) => Expr::InSet(Box::new(self.expr(x)), set.clone()),
        }
    }

    /// Applies the renaming to a formula (including bound variables).
    pub fn formula(&self, f: &Formula) -> Formula {
        match f {
            Formula::Pred(e) => Formula::Pred(self.expr(e)),
            Formula::ActBox { action, sub } => Formula::ActBox {
                action: self.expr(action),
                sub: self.sub(sub),
            },
            Formula::Not(x) => Formula::Not(Box::new(self.formula(x))),
            Formula::And(fs) => Formula::And(fs.iter().map(|x| self.formula(x)).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(|x| self.formula(x)).collect()),
            Formula::Implies(a, b) => {
                Formula::Implies(Box::new(self.formula(a)), Box::new(self.formula(b)))
            }
            Formula::Equiv(a, b) => {
                Formula::Equiv(Box::new(self.formula(a)), Box::new(self.formula(b)))
            }
            Formula::Always(x) => Formula::Always(Box::new(self.formula(x))),
            Formula::Eventually(x) => Formula::Eventually(Box::new(self.formula(x))),
            Formula::Fair(fair) => Formula::Fair(Fairness {
                kind: fair.kind,
                action: self.expr(&fair.action),
                sub: self.sub(&fair.sub),
            }),
            Formula::Exists { vars, body } => Formula::Exists {
                vars: self.sub(vars),
                body: Box::new(self.formula(body)),
            },
            Formula::WhilePlus { env, sys } => Formula::WhilePlus {
                env: Box::new(self.formula(env)),
                sys: Box::new(self.formula(sys)),
            },
            Formula::While { env, sys } => Formula::While {
                env: Box::new(self.formula(env)),
                sys: Box::new(self.formula(sys)),
            },
            Formula::Plus { body, sub } => Formula::Plus {
                body: Box::new(self.formula(body)),
                sub: self.sub(sub),
            },
            Formula::Ortho(a, b) => {
                Formula::Ortho(Box::new(self.formula(a)), Box::new(self.formula(b)))
            }
            Formula::Closure(x) => Formula::Closure(Box::new(self.formula(x))),
        }
    }
}

/// A substitution of *state functions* for variables — a refinement
/// mapping.
///
/// Substituting into a primed occurrence `x'` yields the primed form of
/// the replacement. Subscript tuples (`□[A]_v`, `WF_v`) are handled by
/// rewriting: the stutter disjunct `v' = v` is expanded so that mapped
/// subscript components become expression equalities, and the subscript
/// is widened to the free variables of the replacements (which
/// preserves the semantics of `[A]_v`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Substitution {
    /// Ordered, so that [`Substitution::domain`] and the `Debug`
    /// rendering (which liveness snapshots hash to pin their target)
    /// are the same in every process.
    map: BTreeMap<VarId, Expr>,
}

impl Substitution {
    /// Builds a substitution from `(var, state function)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a replacement expression contains a primed variable:
    /// refinement mappings are state functions by definition.
    pub fn new(pairs: impl IntoIterator<Item = (VarId, Expr)>) -> Self {
        let map: BTreeMap<VarId, Expr> = pairs.into_iter().collect();
        for (v, e) in &map {
            assert!(
                e.is_state_fn(),
                "replacement for variable #{} contains primes",
                v.index()
            );
        }
        Substitution { map }
    }

    /// The variables this substitution replaces, in ascending order.
    pub fn domain(&self) -> impl Iterator<Item = VarId> + '_ {
        self.map.keys().copied()
    }

    /// Whether this is the identity (it replaces no variable).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The replacement for `v`, if any.
    pub fn get(&self, v: VarId) -> Option<&Expr> {
        self.map.get(&v)
    }

    /// Applies the substitution to an expression.
    ///
    /// # Errors
    ///
    /// Fails with [`KernelError::DoublePrime`] if a primed occurrence is
    /// replaced by an expression that cannot be primed (impossible for
    /// substitutions built with [`Substitution::new`], which validates).
    pub fn expr(&self, e: &Expr) -> Result<Expr, KernelError> {
        Ok(match e {
            Expr::Const(v) => Expr::Const(v.clone()),
            Expr::Var(v) => match self.map.get(v) {
                Some(rep) => rep.clone(),
                None => Expr::Var(*v),
            },
            Expr::Prime(v) => match self.map.get(v) {
                Some(rep) => prime_expr(rep)?,
                None => Expr::Prime(*v),
            },
            Expr::Unary(op, x) => Expr::Unary(*op, Box::new(self.expr(x)?)),
            Expr::Binary(op, a, b) => {
                Expr::Binary(*op, Box::new(self.expr(a)?), Box::new(self.expr(b)?))
            }
            Expr::And(es) => {
                Expr::And(es.iter().map(|x| self.expr(x)).collect::<Result<_, _>>()?)
            }
            Expr::Or(es) => {
                Expr::Or(es.iter().map(|x| self.expr(x)).collect::<Result<_, _>>()?)
            }
            Expr::Ite(c, a, b) => Expr::Ite(
                Box::new(self.expr(c)?),
                Box::new(self.expr(a)?),
                Box::new(self.expr(b)?),
            ),
            Expr::Tuple(es) => {
                Expr::Tuple(es.iter().map(|x| self.expr(x)).collect::<Result<_, _>>()?)
            }
            Expr::MkSeq(es) => {
                Expr::MkSeq(es.iter().map(|x| self.expr(x)).collect::<Result<_, _>>()?)
            }
            Expr::InSet(x, set) => Expr::InSet(Box::new(self.expr(x)?), set.clone()),
        })
    }

    /// Rewrites a subscript tuple under the substitution.
    ///
    /// Returns the stutter condition (`∧` of equalities `fᵢ' = fᵢ` for
    /// the mapped components) and the widened variable tuple.
    fn rewrite_sub(&self, sub: &[VarId]) -> Result<(Expr, Vec<VarId>), KernelError> {
        let mut eqs = Vec::new();
        let mut new_vars = VarSet::new();
        for v in sub {
            match self.map.get(v) {
                None => {
                    eqs.push(Expr::prime(*v).eq(Expr::var(*v)));
                    new_vars.insert(*v);
                }
                Some(rep) => {
                    eqs.push(prime_expr(rep)?.eq(rep.clone()));
                    new_vars.union_with(&rep.unprimed_vars());
                }
            }
        }
        Ok((Expr::all(eqs), new_vars.iter().collect()))
    }

    /// Applies the substitution to a formula.
    ///
    /// # Errors
    ///
    /// * [`KernelError::Capture`] if a hidden variable of the formula is
    ///   in the substitution's domain or occurs in a replacement.
    /// * [`KernelError::Capture`] if a `+v` subscript component is
    ///   mapped (the `+` operator is eliminated via Proposition 3 before
    ///   refinement mappings are applied; see the `opentla` crate).
    pub fn formula(&self, f: &Formula) -> Result<Formula, KernelError> {
        Ok(match f {
            Formula::Pred(e) => Formula::Pred(self.expr(e)?),
            Formula::ActBox { action, sub } => {
                let (stutter, new_sub) = self.rewrite_sub(sub)?;
                Formula::ActBox {
                    action: Expr::any([self.expr(action)?, stutter]),
                    sub: new_sub,
                }
            }
            Formula::Not(x) => Formula::Not(Box::new(self.formula(x)?)),
            Formula::And(fs) => Formula::And(
                fs.iter()
                    .map(|x| self.formula(x))
                    .collect::<Result<_, _>>()?,
            ),
            Formula::Or(fs) => Formula::Or(
                fs.iter()
                    .map(|x| self.formula(x))
                    .collect::<Result<_, _>>()?,
            ),
            Formula::Implies(a, b) => {
                Formula::Implies(Box::new(self.formula(a)?), Box::new(self.formula(b)?))
            }
            Formula::Equiv(a, b) => {
                Formula::Equiv(Box::new(self.formula(a)?), Box::new(self.formula(b)?))
            }
            Formula::Always(x) => Formula::Always(Box::new(self.formula(x)?)),
            Formula::Eventually(x) => Formula::Eventually(Box::new(self.formula(x)?)),
            Formula::Fair(fair) => {
                // ⟨A⟩_f = A ∧ ¬(f' = f); fold the mapped stutter
                // condition into the action and widen the subscript.
                let (stutter, new_sub) = self.rewrite_sub(&fair.sub)?;
                Formula::Fair(Fairness {
                    kind: fair.kind,
                    action: Expr::all([self.expr(&fair.action)?, stutter.not()]),
                    sub: new_sub,
                })
            }
            Formula::Exists { vars, body } => {
                for v in vars {
                    if self.map.contains_key(v) {
                        return Err(KernelError::Capture { bound: *v });
                    }
                    for rep in self.map.values() {
                        if rep.unprimed_vars().contains(*v) {
                            return Err(KernelError::Capture { bound: *v });
                        }
                    }
                }
                Formula::Exists {
                    vars: vars.clone(),
                    body: Box::new(self.formula(body)?),
                }
            }
            Formula::WhilePlus { env, sys } => Formula::WhilePlus {
                env: Box::new(self.formula(env)?),
                sys: Box::new(self.formula(sys)?),
            },
            Formula::While { env, sys } => Formula::While {
                env: Box::new(self.formula(env)?),
                sys: Box::new(self.formula(sys)?),
            },
            Formula::Plus { body, sub } => {
                for v in sub {
                    if self.map.contains_key(v) {
                        return Err(KernelError::Capture { bound: *v });
                    }
                }
                Formula::Plus {
                    body: Box::new(self.formula(body)?),
                    sub: sub.clone(),
                }
            }
            Formula::Ortho(a, b) => {
                Formula::Ortho(Box::new(self.formula(a)?), Box::new(self.formula(b)?))
            }
            Formula::Closure(x) => Formula::Closure(Box::new(self.formula(x)?)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, State, StatePair, Value, Vars};

    fn setup() -> (Vars, VarId, VarId, VarId) {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        let y = vars.declare("y", Domain::bits());
        let z = vars.declare("z", Domain::bits());
        (vars, x, y, z)
    }

    #[test]
    fn prime_expr_primes_all_vars() {
        let (_, x, y, _) = setup();
        let e = Expr::var(x).add(Expr::var(y));
        let p = prime_expr(&e).unwrap();
        assert_eq!(p, Expr::prime(x).add(Expr::prime(y)));
        assert!(matches!(
            prime_expr(&Expr::prime(x)),
            Err(KernelError::DoublePrime { .. })
        ));
    }

    #[test]
    fn renaming_renames_everywhere() {
        let (_, x, y, z) = setup();
        let r = Renaming::new([(x, z)]);
        let f = Formula::exists(
            vec![x],
            Formula::act_box(Expr::prime(x).eq(Expr::var(y)), vec![x]),
        );
        let g = r.formula(&f);
        assert_eq!(
            g,
            Formula::exists(
                vec![z],
                Formula::act_box(Expr::prime(z).eq(Expr::var(y)), vec![z]),
            )
        );
    }

    #[test]
    fn renaming_identity_outside_domain() {
        let (_, x, y, z) = setup();
        let r = Renaming::new([(x, z)]);
        assert_eq!(r.var(y), y);
        assert_eq!(r.expr(&Expr::var(y)), Expr::var(y));
    }

    #[test]
    fn substitution_on_primes() {
        let (_, x, y, z) = setup();
        // x ↦ y + z; then x' becomes y' + z'.
        let s = Substitution::new([(x, Expr::var(y).add(Expr::var(z)))]);
        let e = s.expr(&Expr::prime(x)).unwrap();
        assert_eq!(e, Expr::prime(y).add(Expr::prime(z)));
    }

    #[test]
    fn substitution_rewrites_subscripts_semantically() {
        let (_, x, y, z) = setup();
        // □[FALSE]_⟨x⟩ says x never changes. Map x ↦ y + z: the result
        // must say y + z never changes.
        let f = Formula::act_box(Expr::bool(false), vec![x]);
        let s = Substitution::new([(x, Expr::var(y).add(Expr::var(z)))]);
        let g = s.formula(&f).unwrap();
        let Formula::ActBox { action, sub } = &g else {
            panic!("expected ActBox, got {g:?}");
        };
        // The widened subscript contains y and z.
        assert!(sub.contains(&y) && sub.contains(&z));
        // Semantics: a step swapping y and z keeps y + z constant, so
        // the rewritten action must accept it.
        let s0 = State::new(vec![Value::Int(0), Value::Int(0), Value::Int(1)]);
        let s1 = State::new(vec![Value::Int(0), Value::Int(1), Value::Int(0)]);
        assert!(action.holds_action(StatePair::new(&s0, &s1)).unwrap());
        // A step changing the sum must be rejected.
        let s2 = State::new(vec![Value::Int(0), Value::Int(1), Value::Int(1)]);
        assert!(!action.holds_action(StatePair::new(&s0, &s2)).unwrap());
    }

    #[test]
    fn substitution_detects_capture() {
        let (_, x, y, z) = setup();
        let f = Formula::exists(vec![y], Formula::pred(Expr::var(x).eq(Expr::var(y))));
        // x ↦ y captures the bound y.
        let s = Substitution::new([(x, Expr::var(y))]);
        assert!(matches!(
            s.formula(&f),
            Err(KernelError::Capture { bound }) if bound == y
        ));
        // Substituting the bound variable itself is also a capture.
        let s = Substitution::new([(y, Expr::var(z))]);
        assert!(matches!(s.formula(&f), Err(KernelError::Capture { .. })));
    }

    #[test]
    #[should_panic(expected = "primes")]
    fn substitution_rejects_primed_replacements() {
        let (_, x, y, _) = setup();
        let _ = Substitution::new([(x, Expr::prime(y))]);
    }

    #[test]
    fn substitution_on_plus_subscript_errors() {
        let (_, x, y, _) = setup();
        let f = Formula::tt().plus(vec![x]);
        let s = Substitution::new([(x, Expr::var(y))]);
        assert!(matches!(s.formula(&f), Err(KernelError::Capture { .. })));
    }

    #[test]
    fn fairness_subscript_rewrite() {
        let (_, x, y, z) = setup();
        let f = Formula::wf(Expr::prime(x).ne(Expr::var(x)), vec![x]);
        let s = Substitution::new([(x, Expr::var(y).add(Expr::var(z)))]);
        let g = s.formula(&f).unwrap();
        let Formula::Fair(fair) = &g else {
            panic!("expected Fair, got {g:?}");
        };
        assert!(fair.sub.contains(&y) && fair.sub.contains(&z));
        // Action must now require the *sum* to change.
        let s0 = State::new(vec![Value::Int(0), Value::Int(0), Value::Int(1)]);
        let s1 = State::new(vec![Value::Int(0), Value::Int(1), Value::Int(0)]);
        assert!(!fair
            .action
            .holds_action(StatePair::new(&s0, &s1))
            .unwrap());
        let s2 = State::new(vec![Value::Int(0), Value::Int(1), Value::Int(1)]);
        assert!(fair
            .action
            .holds_action(StatePair::new(&s0, &s2))
            .unwrap());
    }
}
