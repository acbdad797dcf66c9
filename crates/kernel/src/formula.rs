//! The temporal formula AST, including the paper's operators.

use crate::{Expr, VarId, VarSet, Vars};
use std::fmt;

/// Which fairness operator a [`Fairness`] condition uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FairnessKind {
    /// `WF_v(A)`: infinitely many `⟨A⟩_v` steps, or infinitely many
    /// states in which `⟨A⟩_v` is not enabled.
    Weak,
    /// `SF_v(A)`: infinitely many `⟨A⟩_v` steps, or only finitely many
    /// states in which `⟨A⟩_v` is enabled.
    Strong,
}

/// A fairness condition `WF_v(A)` or `SF_v(A)`.
#[derive(Clone, PartialEq, Debug)]
pub struct Fairness {
    /// Weak or strong fairness.
    pub kind: FairnessKind,
    /// The action `A`.
    pub action: Expr,
    /// The subscript tuple `v`; an `⟨A⟩_v` step is an `A` step that
    /// changes `v`.
    pub sub: Vec<VarId>,
}

impl Fairness {
    /// `WF_sub(action)`.
    pub fn weak(action: Expr, sub: Vec<VarId>) -> Self {
        Fairness {
            kind: FairnessKind::Weak,
            action,
            sub,
        }
    }

    /// `SF_sub(action)`.
    pub fn strong(action: Expr, sub: Vec<VarId>) -> Self {
        Fairness {
            kind: FairnessKind::Strong,
            action,
            sub,
        }
    }

    /// The angle action `⟨A⟩_v ≜ A ∧ (v' ≠ v)` as an expression.
    pub fn angle_action(&self) -> Expr {
        angle(&self.action, &self.sub)
    }
}

/// `⟨A⟩_v ≜ A ∧ ¬(v' = v)`: an `A` step that changes the tuple `v`.
pub(crate) fn angle(action: &Expr, sub: &[VarId]) -> Expr {
    Expr::all([action.clone(), crate::unchanged(sub).not()])
}

/// A TLA formula of the fragment mechanized by this workspace.
///
/// Besides the standard operators (`□`, `◇`, `WF`, `SF`, `∃`), the AST
/// carries the four operators the paper introduces or relies on:
///
/// * [`Formula::WhilePlus`] — the assumption/guarantee operator
///   `E ⊳ M` (Section 3): `M` holds at least one step longer than `E`.
/// * [`Formula::Plus`] — `F +v` (Section 4.1): if `F` ever becomes
///   false, `v` stops changing.
/// * [`Formula::Ortho`] — `E ⊥ M` (Section 4.2): no step makes both
///   `E` and `M` false.
/// * [`Formula::Closure`] — `C(F)` (Section 2.4): the strongest safety
///   property implied by `F`.
///
/// Evaluation over behaviors lives in `opentla-semantics`.
#[derive(Clone, PartialEq, Debug)]
pub enum Formula {
    /// A state predicate, evaluated at the first state of a behavior.
    Pred(Expr),
    /// `□[A]_v`: every step is an `A` step or leaves `v` unchanged.
    ActBox {
        /// The action `A`.
        action: Expr,
        /// The subscript tuple `v`.
        sub: Vec<VarId>,
    },
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction; empty means `TRUE`.
    And(Vec<Formula>),
    /// N-ary disjunction; empty means `FALSE`.
    Or(Vec<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Equivalence.
    Equiv(Box<Formula>, Box<Formula>),
    /// `□F`: `F` holds of every suffix.
    Always(Box<Formula>),
    /// `◇F`: `F` holds of some suffix.
    Eventually(Box<Formula>),
    /// A fairness condition.
    Fair(Fairness),
    /// `∃ x1, …, xk : F` — `F` with the listed variables hidden.
    Exists {
        /// The hidden (internal) variables.
        vars: Vec<VarId>,
        /// The body.
        body: Box<Formula>,
    },
    /// `E ⊳ M`: if the environment satisfies `E` through "time" `n`,
    /// the system satisfies `M` through `n + 1`; and `E ⇒ M` overall.
    WhilePlus {
        /// The environment assumption `E`.
        env: Box<Formula>,
        /// The system guarantee `M`.
        sys: Box<Formula>,
    },
    /// `E -▷ M`: `M` holds *at least as long as* `E` does (Section 3
    /// cites this form from \[5\]); weaker than `⊳` in that `M` may fail
    /// on the same step as `E`.
    While {
        /// The environment assumption `E`.
        env: Box<Formula>,
        /// The system guarantee `M`.
        sys: Box<Formula>,
    },
    /// `F +v`: either `F` holds, or `F` holds for some prefix and `v`
    /// never changes afterwards.
    Plus {
        /// The body `F`.
        body: Box<Formula>,
        /// The tuple `v` that must stop changing if `F` fails.
        sub: Vec<VarId>,
    },
    /// `E ⊥ M`: there is no `n` such that `E` and `M` both hold for the
    /// first `n` states and both fail for the first `n + 1`.
    Ortho(Box<Formula>, Box<Formula>),
    /// `C(F)`: every prefix of the behavior satisfies `F`.
    Closure(Box<Formula>),
}

impl Formula {
    // ----- constructors --------------------------------------------------

    /// The formula `TRUE`.
    pub fn tt() -> Formula {
        Formula::And(vec![])
    }

    /// The formula `FALSE`.
    pub fn ff() -> Formula {
        Formula::Or(vec![])
    }

    /// A state predicate.
    pub fn pred(e: Expr) -> Formula {
        Formula::Pred(e)
    }

    /// `□[action]_sub`.
    pub fn act_box(action: Expr, sub: Vec<VarId>) -> Formula {
        Formula::ActBox { action, sub }
    }

    /// `□self`.
    pub fn always(self) -> Formula {
        Formula::Always(Box::new(self))
    }

    /// `◇self`.
    pub fn eventually(self) -> Formula {
        Formula::Eventually(Box::new(self))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// Conjunction, flattening nested conjunctions and dropping `TRUE`.
    pub fn and(self, other: Formula) -> Formula {
        Formula::all([self, other])
    }

    /// Disjunction, flattening nested disjunctions and dropping `FALSE`.
    pub fn or(self, other: Formula) -> Formula {
        Formula::any_of([self, other])
    }

    /// N-ary conjunction.
    pub fn all(fs: impl IntoIterator<Item = Formula>) -> Formula {
        let mut out = Vec::new();
        for f in fs {
            match f {
                Formula::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        if out.len() == 1 {
            out.pop().expect("len checked")
        } else {
            Formula::And(out)
        }
    }

    /// N-ary disjunction.
    pub fn any_of(fs: impl IntoIterator<Item = Formula>) -> Formula {
        let mut out = Vec::new();
        for f in fs {
            match f {
                Formula::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        if out.len() == 1 {
            out.pop().expect("len checked")
        } else {
            Formula::Or(out)
        }
    }

    /// Implication.
    pub fn implies(self, other: Formula) -> Formula {
        Formula::Implies(Box::new(self), Box::new(other))
    }

    /// Equivalence.
    pub fn equiv(self, other: Formula) -> Formula {
        Formula::Equiv(Box::new(self), Box::new(other))
    }

    /// `WF_sub(action)`.
    pub fn wf(action: Expr, sub: Vec<VarId>) -> Formula {
        Formula::Fair(Fairness::weak(action, sub))
    }

    /// `SF_sub(action)`.
    pub fn sf(action: Expr, sub: Vec<VarId>) -> Formula {
        Formula::Fair(Fairness::strong(action, sub))
    }

    /// `∃ vars : self`.
    pub fn exists(vars: Vec<VarId>, body: Formula) -> Formula {
        if vars.is_empty() {
            body
        } else {
            Formula::Exists {
                vars,
                body: Box::new(body),
            }
        }
    }

    /// `self ⊳ sys` — the assumption/guarantee operator.
    pub fn while_plus(self, sys: Formula) -> Formula {
        Formula::WhilePlus {
            env: Box::new(self),
            sys: Box::new(sys),
        }
    }

    /// `self -▷ sys` — "`sys` holds as long as `self` does".
    pub fn while_op(self, sys: Formula) -> Formula {
        Formula::While {
            env: Box::new(self),
            sys: Box::new(sys),
        }
    }

    /// `self +sub`.
    pub fn plus(self, sub: Vec<VarId>) -> Formula {
        Formula::Plus {
            body: Box::new(self),
            sub,
        }
    }

    /// `self ⊥ other` — orthogonality.
    pub fn ortho(self, other: Formula) -> Formula {
        Formula::Ortho(Box::new(self), Box::new(other))
    }

    /// `C(self)` — the closure.
    pub fn closure(self) -> Formula {
        Formula::Closure(Box::new(self))
    }

    /// `self ↝ other ≜ □(self ⇒ ◇other)` — leads-to.
    pub fn leads_to(self, other: Formula) -> Formula {
        self.implies(other.eventually()).always()
    }

    // ----- structure -----------------------------------------------------

    /// Collects unprimed and primed variables occurring free in the
    /// formula. Hidden (existentially bound) variables are excluded.
    pub fn vars_into(&self, unprimed: &mut VarSet, primed: &mut VarSet) {
        match self {
            Formula::Pred(e) => e.vars_into(unprimed, primed),
            Formula::ActBox { action, sub } => {
                action.vars_into(unprimed, primed);
                for v in sub {
                    unprimed.insert(*v);
                    primed.insert(*v);
                }
            }
            Formula::Not(f) | Formula::Always(f) | Formula::Eventually(f) | Formula::Closure(f) => {
                f.vars_into(unprimed, primed)
            }
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.vars_into(unprimed, primed);
                }
            }
            Formula::Implies(a, b) | Formula::Equiv(a, b) | Formula::Ortho(a, b) => {
                a.vars_into(unprimed, primed);
                b.vars_into(unprimed, primed);
            }
            Formula::WhilePlus { env, sys } | Formula::While { env, sys } => {
                env.vars_into(unprimed, primed);
                sys.vars_into(unprimed, primed);
            }
            Formula::Plus { body, sub } => {
                body.vars_into(unprimed, primed);
                for v in sub {
                    unprimed.insert(*v);
                    primed.insert(*v);
                }
            }
            Formula::Fair(fair) => {
                fair.action.vars_into(unprimed, primed);
                for v in &fair.sub {
                    unprimed.insert(*v);
                    primed.insert(*v);
                }
            }
            Formula::Exists { vars, body } => {
                let mut u = VarSet::new();
                let mut p = VarSet::new();
                body.vars_into(&mut u, &mut p);
                let bound: VarSet = vars.iter().copied().collect();
                for v in u.iter() {
                    if !bound.contains(v) {
                        unprimed.insert(v);
                    }
                }
                for v in p.iter() {
                    if !bound.contains(v) {
                        primed.insert(v);
                    }
                }
            }
        }
    }

    /// All free variables (primed or unprimed) of the formula.
    pub fn free_vars(&self) -> VarSet {
        let mut u = VarSet::new();
        let mut p = VarSet::new();
        self.vars_into(&mut u, &mut p);
        u.union_with(&p);
        u
    }

    /// Renders the formula with variable names from `vars`.
    pub fn display<'a>(&'a self, vars: &'a Vars) -> FormulaDisplay<'a> {
        FormulaDisplay {
            formula: self,
            vars,
        }
    }
}

/// Helper returned by [`Formula::display`].
#[derive(Clone, Copy)]
pub struct FormulaDisplay<'a> {
    formula: &'a Formula,
    vars: &'a Vars,
}

impl fmt::Display for FormulaDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_formula(f, self.formula, self.vars)
    }
}

impl fmt::Debug for FormulaDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

fn write_sub(f: &mut fmt::Formatter<'_>, sub: &[VarId], vars: &Vars) -> fmt::Result {
    write!(f, "⟨")?;
    for (i, v) in sub.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        if v.index() < vars.len() {
            write!(f, "{}", vars.name(*v))?;
        } else {
            write!(f, "#{}", v.index())?;
        }
    }
    write!(f, "⟩")
}

fn write_formula(f: &mut fmt::Formatter<'_>, fla: &Formula, vars: &Vars) -> fmt::Result {
    match fla {
        Formula::Pred(e) => write!(f, "{}", e.display(vars)),
        Formula::ActBox { action, sub } => {
            write!(f, "□[{}]_", action.display(vars))?;
            write_sub(f, sub, vars)
        }
        Formula::Not(x) => {
            write!(f, "¬")?;
            write_formula(f, x, vars)
        }
        Formula::And(fs) => {
            if fs.is_empty() {
                return write!(f, "TRUE");
            }
            write!(f, "(")?;
            for (i, x) in fs.iter().enumerate() {
                if i > 0 {
                    write!(f, " ∧ ")?;
                }
                write_formula(f, x, vars)?;
            }
            write!(f, ")")
        }
        Formula::Or(fs) => {
            if fs.is_empty() {
                return write!(f, "FALSE");
            }
            write!(f, "(")?;
            for (i, x) in fs.iter().enumerate() {
                if i > 0 {
                    write!(f, " ∨ ")?;
                }
                write_formula(f, x, vars)?;
            }
            write!(f, ")")
        }
        Formula::Implies(a, b) => {
            write!(f, "(")?;
            write_formula(f, a, vars)?;
            write!(f, " ⇒ ")?;
            write_formula(f, b, vars)?;
            write!(f, ")")
        }
        Formula::Equiv(a, b) => {
            write!(f, "(")?;
            write_formula(f, a, vars)?;
            write!(f, " ≡ ")?;
            write_formula(f, b, vars)?;
            write!(f, ")")
        }
        Formula::Always(x) => {
            write!(f, "□")?;
            write_formula(f, x, vars)
        }
        Formula::Eventually(x) => {
            write!(f, "◇")?;
            write_formula(f, x, vars)
        }
        Formula::Fair(fair) => {
            let name = match fair.kind {
                FairnessKind::Weak => "WF",
                FairnessKind::Strong => "SF",
            };
            write!(f, "{name}_")?;
            write_sub(f, &fair.sub, vars)?;
            write!(f, "({})", fair.action.display(vars))
        }
        Formula::Exists { vars: hidden, body } => {
            write!(f, "(∃ ")?;
            for (i, v) in hidden.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                if v.index() < vars.len() {
                    write!(f, "{}", vars.name(*v))?;
                } else {
                    write!(f, "#{}", v.index())?;
                }
            }
            write!(f, " : ")?;
            write_formula(f, body, vars)?;
            write!(f, ")")
        }
        Formula::WhilePlus { env, sys } => {
            write!(f, "(")?;
            write_formula(f, env, vars)?;
            write!(f, " ⊳ ")?;
            write_formula(f, sys, vars)?;
            write!(f, ")")
        }
        Formula::While { env, sys } => {
            write!(f, "(")?;
            write_formula(f, env, vars)?;
            write!(f, " -▷ ")?;
            write_formula(f, sys, vars)?;
            write!(f, ")")
        }
        Formula::Plus { body, sub } => {
            write!(f, "(")?;
            write_formula(f, body, vars)?;
            write!(f, ")+")?;
            write_sub(f, sub, vars)
        }
        Formula::Ortho(a, b) => {
            write!(f, "(")?;
            write_formula(f, a, vars)?;
            write!(f, " ⊥ ")?;
            write_formula(f, b, vars)?;
            write!(f, ")")
        }
        Formula::Closure(x) => {
            write!(f, "C(")?;
            write_formula(f, x, vars)?;
            write!(f, ")")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;

    fn setup() -> (Vars, VarId, VarId) {
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        (vars, c, d)
    }

    #[test]
    fn builders_flatten() {
        let (_, c, _) = setup();
        let p = Formula::pred(Expr::var(c).eq(Expr::int(0)));
        let f = p.clone().and(p.clone()).and(p.clone());
        match &f {
            Formula::And(fs) => assert_eq!(fs.len(), 3),
            other => panic!("expected And, got {other:?}"),
        }
        assert_eq!(Formula::all([p.clone()]), p);
        assert_eq!(Formula::tt(), Formula::And(vec![]));
        assert_eq!(Formula::ff(), Formula::Or(vec![]));
    }

    #[test]
    fn exists_of_nothing_is_identity() {
        let (_, c, _) = setup();
        let p = Formula::pred(Expr::var(c).eq(Expr::int(0)));
        assert_eq!(Formula::exists(vec![], p.clone()), p);
    }

    #[test]
    fn free_vars_respect_hiding() {
        let (_, c, d) = setup();
        let body = Formula::pred(Expr::var(c).eq(Expr::var(d)));
        let f = Formula::exists(vec![d], body);
        let fv = f.free_vars();
        assert!(fv.contains(c));
        assert!(!fv.contains(d));
    }

    #[test]
    fn subscripts_count_as_free() {
        let (_, c, d) = setup();
        let f = Formula::act_box(Expr::prime(c).eq(Expr::var(c)), vec![d]);
        let fv = f.free_vars();
        assert!(fv.contains(c));
        assert!(fv.contains(d));
        let g = Formula::tt().plus(vec![d]);
        assert!(g.free_vars().contains(d));
    }

    #[test]
    fn display_forms() {
        let (vars, c, d) = setup();
        let init = Formula::pred(Expr::var(c).eq(Expr::int(0)));
        let spec = init.and(Formula::act_box(Expr::bool(false), vec![c]));
        assert_eq!(
            spec.display(&vars).to_string(),
            "((c = 0) ∧ □[false]_⟨c⟩)".replace("false", "FALSE")
        );
        let ag = Formula::pred(Expr::var(d).eq(Expr::int(0)))
            .while_plus(Formula::pred(Expr::var(c).eq(Expr::int(0))));
        assert_eq!(ag.display(&vars).to_string(), "((d = 0) ⊳ (c = 0))");
        let wo = Formula::pred(Expr::var(d).eq(Expr::int(0)))
            .while_op(Formula::pred(Expr::var(c).eq(Expr::int(0))));
        assert_eq!(wo.display(&vars).to_string(), "((d = 0) -▷ (c = 0))");
        let wf = Formula::wf(Expr::prime(c).ne(Expr::var(c)), vec![c]);
        assert_eq!(wf.display(&vars).to_string(), "WF_⟨c⟩((c' ≠ c))");
        let cl = Formula::tt().closure();
        assert_eq!(cl.display(&vars).to_string(), "C(TRUE)");
        let pl = Formula::tt().plus(vec![c, d]);
        assert_eq!(pl.display(&vars).to_string(), "(TRUE)+⟨c, d⟩");
        let ex = Formula::exists(vec![d], Formula::pred(Expr::var(d).eq(Expr::int(1))));
        assert_eq!(ex.display(&vars).to_string(), "(∃ d : (d = 1))");
    }

    #[test]
    fn leads_to_desugars() {
        let (_, c, d) = setup();
        let p = Formula::pred(Expr::var(c).eq(Expr::int(1)));
        let q = Formula::pred(Expr::var(d).eq(Expr::int(1)));
        let lt = p.clone().leads_to(q.clone());
        assert_eq!(lt, p.implies(q.eventually()).always());
    }

    #[test]
    fn angle_action_changes_sub() {
        let (_, c, _) = setup();
        let fair = Fairness::weak(Expr::bool(true), vec![c]);
        let angle = fair.angle_action();
        let s = crate::State::new(vec![crate::Value::Int(0), crate::Value::Int(0)]);
        let t = s.with(&[(c, crate::Value::Int(1))]);
        assert!(angle.holds_action(crate::StatePair::new(&s, &t)).unwrap());
        assert!(!angle.holds_action(crate::StatePair::stutter(&s)).unwrap());
    }
}
