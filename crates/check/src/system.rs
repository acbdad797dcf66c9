//! Transition systems in guarded-command form.

use crate::CheckError;
use opentla_kernel::{unchanged, Expr, Fairness, FairnessKind, Formula, State, Value, VarId, Vars};
use opentla_semantics::Universe;

/// One atomic action: a guard (a state predicate) plus a deterministic
/// update of a subset of the variables.
///
/// Nondeterminism is expressed by *having several actions* — a
/// parameterized action like the paper's `Put` (send an arbitrary
/// value) expands into one ground action per parameter value; see
/// [`GuardedAction::family`].
#[derive(Clone, Debug)]
pub struct GuardedAction {
    name: String,
    guard: Expr,
    updates: Vec<(VarId, Expr)>,
}

impl GuardedAction {
    /// Builds an action from its name, guard, and updates. Variables
    /// not listed in `updates` are left unchanged by the action.
    ///
    /// # Panics
    ///
    /// Panics if the guard or any update expression contains primed
    /// variables, or if a variable is updated twice — all of these are
    /// malformed specifications.
    pub fn new(name: impl Into<String>, guard: Expr, updates: Vec<(VarId, Expr)>) -> Self {
        let name = name.into();
        assert!(
            guard.is_state_fn(),
            "guard of action {name} contains primed variables"
        );
        for (i, (v, e)) in updates.iter().enumerate() {
            assert!(
                e.is_state_fn(),
                "update of action {name} contains primed variables"
            );
            assert!(
                !updates[..i].iter().any(|(w, _)| w == v),
                "action {name} updates variable #{} twice",
                v.index()
            );
        }
        GuardedAction {
            name,
            guard,
            updates,
        }
    }

    /// Expands a parameterized action into ground actions, one per
    /// value: `make(v)` receives each value of `values`.
    pub fn family(
        name: impl AsRef<str>,
        values: impl IntoIterator<Item = Value>,
        mut make: impl FnMut(&Value) -> (Expr, Vec<(VarId, Expr)>),
    ) -> Vec<GuardedAction> {
        values
            .into_iter()
            .map(|v| {
                let (guard, updates) = make(&v);
                GuardedAction::new(format!("{}({})", name.as_ref(), v), guard, updates)
            })
            .collect()
    }

    /// The action's name (diagnostics only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The guard predicate.
    pub fn guard(&self) -> &Expr {
        &self.guard
    }

    /// The updates `(variable, new-value expression)`.
    pub fn updates(&self) -> &[(VarId, Expr)] {
        &self.updates
    }

    /// The variables this action may change.
    pub fn touched(&self) -> impl Iterator<Item = VarId> + '_ {
        self.updates.iter().map(|(v, _)| *v)
    }

    /// Fires the action in state `s`, returning the successor state if
    /// the guard holds and all updates stay within their domains.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; reports
    /// [`CheckError::OutOfDomain`] if an update leaves the variable's
    /// domain.
    pub fn fire(&self, s: &State, vars: &Vars) -> Result<Option<State>, CheckError> {
        if !self.guard.holds_state(s)? {
            return Ok(None);
        }
        let mut assignments = Vec::with_capacity(self.updates.len());
        for (v, e) in &self.updates {
            let value = e.eval_state(s)?;
            if !vars.domain(*v).contains(&value) {
                return Err(CheckError::OutOfDomain {
                    action: self.name.clone(),
                    var: *v,
                    value,
                });
            }
            assignments.push((*v, value));
        }
        Ok(Some(s.with(&assignments)))
    }

    /// The action as a TLA action expression:
    /// `guard ∧ ∧(v' = e) ∧ UNCHANGED ⟨rest of frame⟩`.
    ///
    /// `frame` is the tuple of all variables owned by the enclosing
    /// system; unlisted frame variables are constrained to stutter,
    /// which matches [`GuardedAction::fire`].
    pub fn action_expr(&self, frame: &[VarId]) -> Expr {
        let mut conjuncts = vec![self.guard.clone()];
        for (v, e) in &self.updates {
            conjuncts.push(Expr::prime(*v).eq(e.clone()));
        }
        let untouched: Vec<VarId> = frame
            .iter()
            .copied()
            .filter(|v| !self.updates.iter().any(|(w, _)| w == v))
            .collect();
        conjuncts.push(unchanged(&untouched));
        Expr::all(conjuncts)
    }
}

/// A fairness requirement over a subset of a system's actions:
/// `WF_sub(A_{i1} ∨ … ∨ A_{im})` or the `SF` analogue.
#[derive(Clone, Debug)]
pub struct SystemFairness {
    /// Weak or strong.
    pub kind: FairnessKind,
    /// Indices into the system's action list.
    pub action_ids: Vec<usize>,
    /// The subscript tuple.
    pub sub: Vec<VarId>,
}

impl SystemFairness {
    /// Weak fairness of the given actions.
    pub fn weak(action_ids: Vec<usize>, sub: Vec<VarId>) -> Self {
        SystemFairness {
            kind: FairnessKind::Weak,
            action_ids,
            sub,
        }
    }

    /// Strong fairness of the given actions.
    pub fn strong(action_ids: Vec<usize>, sub: Vec<VarId>) -> Self {
        SystemFairness {
            kind: FairnessKind::Strong,
            action_ids,
            sub,
        }
    }
}

/// An initial-state specification: some variables pinned to fixed
/// values, the rest ranging over their domains, optionally filtered by
/// a constraint predicate.
///
/// This representation keeps initial-state enumeration proportional to
/// the product of the *free* variables' domains only.
#[derive(Clone, Debug, Default)]
pub struct Init {
    fixed: Vec<(VarId, Value)>,
    constraint: Option<Expr>,
}

impl Init {
    /// Pins the listed variables; all others range over their domains.
    pub fn new(fixed: impl IntoIterator<Item = (VarId, Value)>) -> Self {
        Init {
            fixed: fixed.into_iter().collect(),
            constraint: None,
        }
    }

    /// Adds a filtering predicate over the initial states.
    #[must_use]
    pub fn with_constraint(mut self, constraint: Expr) -> Self {
        self.constraint = Some(match self.constraint.take() {
            None => constraint,
            Some(c) => c.and(constraint),
        });
        self
    }

    /// Merges two initial specifications (used when composing closed
    /// systems from components).
    ///
    /// # Panics
    ///
    /// Panics if the two specifications pin the same variable to
    /// different values.
    #[must_use]
    pub fn merge(mut self, other: &Init) -> Self {
        for (v, val) in &other.fixed {
            match self.fixed.iter().find(|(w, _)| w == v) {
                Some((_, existing)) => assert_eq!(
                    existing,
                    val,
                    "conflicting initial values for variable #{}",
                    v.index()
                ),
                None => self.fixed.push((*v, val.clone())),
            }
        }
        if let Some(c) = &other.constraint {
            self = self.with_constraint(c.clone());
        }
        self
    }

    /// The pinned variables.
    pub fn fixed(&self) -> &[(VarId, Value)] {
        &self.fixed
    }

    /// The filtering constraint, if any.
    pub fn constraint(&self) -> Option<&Expr> {
        self.constraint.as_ref()
    }

    /// The initial condition as a state predicate.
    pub fn as_pred(&self) -> Expr {
        let mut conjuncts: Vec<Expr> = self
            .fixed
            .iter()
            .map(|(v, val)| Expr::var(*v).eq(Expr::con(val.clone())))
            .collect();
        if let Some(c) = &self.constraint {
            conjuncts.push(c.clone());
        }
        Expr::all(conjuncts)
    }

    /// Enumerates the initial states over a universe.
    ///
    /// # Errors
    ///
    /// [`CheckError::OutOfDomain`], naming the action `"Init"`, for a
    /// variable pinned to a value outside its domain — as a successor
    /// leaving its domain is reported; evaluation errors from the
    /// constraint.
    pub fn states(&self, universe: &Universe) -> Result<Vec<State>, CheckError> {
        let vars = universe.vars();
        let free: Vec<VarId> = vars
            .iter()
            .filter(|v| !self.fixed.iter().any(|(w, _)| w == v))
            .collect();
        // Base state: fixed values, first domain value elsewhere.
        let values = vars
            .iter()
            .map(|v| match self.fixed.iter().find(|(w, _)| *w == v) {
                None => Ok(vars.domain(v).values()[0].clone()),
                Some((_, val)) if vars.domain(v).contains(val) => Ok(val.clone()),
                Some((_, val)) => Err(CheckError::OutOfDomain {
                    action: "Init".to_string(),
                    var: v,
                    value: val.clone(),
                }),
            })
            .collect::<Result<Vec<Value>, CheckError>>()?;
        let base = State::new(values);
        let mut out = Vec::new();
        for s in universe.variants(&base, &free) {
            if match &self.constraint {
                None => true,
                Some(c) => c.holds_state(&s)?,
            } {
                out.push(s);
            }
        }
        Ok(out)
    }
}

/// A transition system: a finite universe, initial states, guarded
/// actions, and fairness requirements.
///
/// The next-state relation is the disjunction of the actions; every
/// step fires exactly one action (interleaving), and stuttering is
/// implicitly allowed, as everywhere in TLA.
#[derive(Clone, Debug)]
pub struct System {
    universe: Universe,
    init: Init,
    actions: Vec<GuardedAction>,
    fairness: Vec<SystemFairness>,
}

impl System {
    /// Builds a system over the full registry of `vars`.
    pub fn new(vars: Vars, init: Init, actions: Vec<GuardedAction>) -> Self {
        System {
            universe: Universe::new(vars),
            init,
            actions,
            fairness: Vec::new(),
        }
    }

    /// Adds a fairness requirement.
    ///
    /// # Panics
    ///
    /// Panics if an action index is out of range.
    #[must_use]
    pub fn with_fairness(mut self, fairness: SystemFairness) -> Self {
        for id in &fairness.action_ids {
            assert!(
                *id < self.actions.len(),
                "fairness refers to action index {id} out of {}",
                self.actions.len()
            );
        }
        self.fairness.push(fairness);
        self
    }

    /// The universe of states.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The variable registry.
    pub fn vars(&self) -> &Vars {
        self.universe.vars()
    }

    /// The initial-state specification.
    pub fn init(&self) -> &Init {
        &self.init
    }

    /// The actions.
    pub fn actions(&self) -> &[GuardedAction] {
        &self.actions
    }

    /// The fairness requirements.
    pub fn fairness(&self) -> &[SystemFairness] {
        &self.fairness
    }

    /// All variables, as the frame tuple for [`GuardedAction::action_expr`].
    pub fn frame(&self) -> Vec<VarId> {
        self.vars().iter().collect()
    }

    /// The next-state relation `N = A₁ ∨ … ∨ A_n` as an expression.
    pub fn next_expr(&self) -> Expr {
        let frame = self.frame();
        Expr::any(self.actions.iter().map(|a| a.action_expr(&frame)))
    }

    /// The disjunction of a subset of actions as an expression (used
    /// for fairness formulas).
    pub fn subset_expr(&self, action_ids: &[usize]) -> Expr {
        let frame = self.frame();
        Expr::any(
            action_ids
                .iter()
                .map(|i| self.actions[*i].action_expr(&frame)),
        )
    }

    /// A fairness requirement as a kernel [`Fairness`] condition.
    pub fn fairness_condition(&self, f: &SystemFairness) -> Fairness {
        Fairness {
            kind: f.kind,
            action: self.subset_expr(&f.action_ids),
            sub: f.sub.clone(),
        }
    }

    /// The system as a TLA formula
    /// `Init ∧ □[N]_{all vars} ∧ fairness` — used for semantic
    /// cross-validation of the checker itself.
    pub fn formula(&self) -> Formula {
        let mut conjuncts = vec![
            Formula::pred(self.init.as_pred()),
            Formula::act_box(self.next_expr(), self.frame()),
        ];
        for f in &self.fairness {
            conjuncts.push(Formula::Fair(self.fairness_condition(f)));
        }
        Formula::all(conjuncts)
    }

    /// All successors of a state, labeled with the action index.
    ///
    /// # Errors
    ///
    /// Propagates guard/update evaluation errors and domain violations.
    pub fn successors(&self, s: &State) -> Result<Vec<(usize, State)>, CheckError> {
        let mut out = Vec::new();
        self.successors_into(s, &mut out)?;
        Ok(out)
    }

    /// Appends all successors of a state into `out`, reusing its
    /// capacity — the allocation-free variant of [`System::successors`]
    /// for exploration hot loops. `out` is cleared first.
    ///
    /// # Errors
    ///
    /// Propagates guard/update evaluation errors and domain violations.
    pub fn successors_into(
        &self,
        s: &State,
        out: &mut Vec<(usize, State)>,
    ) -> Result<(), CheckError> {
        out.clear();
        for (i, a) in self.actions.iter().enumerate() {
            if let Some(t) = a.fire(s, self.vars())? {
                out.push((i, t));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_kernel::{Domain, StatePair};

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
    fn fire_respects_guard_and_domain() {
        let (sys, x) = counter();
        let s0 = State::new(vec![Value::Int(0)]);
        let s3 = State::new(vec![Value::Int(3)]);
        let succ = sys.successors(&s0).unwrap();
        assert_eq!(succ.len(), 1);
        assert_eq!(succ[0].1.get(x), &Value::Int(1));
        assert!(sys.successors(&s3).unwrap().is_empty());
    }

    #[test]
    fn out_of_domain_is_reported() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, 1));
        let bad = GuardedAction::new(
            "bad",
            Expr::bool(true),
            vec![(x, Expr::var(x).add(Expr::int(5)))],
        );
        let sys = System::new(vars, Init::new([(x, Value::Int(0))]), vec![bad]);
        let s = State::new(vec![Value::Int(0)]);
        assert!(matches!(
            sys.successors(&s),
            Err(CheckError::OutOfDomain { .. })
        ));
    }

    #[test]
    fn action_expr_matches_fire() {
        let (sys, _) = counter();
        let frame = sys.frame();
        let a = &sys.actions()[0];
        let e = a.action_expr(&frame);
        let s0 = State::new(vec![Value::Int(0)]);
        let s1 = State::new(vec![Value::Int(1)]);
        let s2 = State::new(vec![Value::Int(2)]);
        assert!(e.holds_action(StatePair::new(&s0, &s1)).unwrap());
        assert!(!e.holds_action(StatePair::new(&s0, &s2)).unwrap());
        assert!(!e.holds_action(StatePair::stutter(&s0)).unwrap());
    }

    #[test]
    fn init_enumeration_with_free_vars() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        let y = vars.declare("y", Domain::int_range(0, 2));
        let sys = System::new(
            vars,
            Init::new([(x, Value::Int(0))]).with_constraint(Expr::var(y).ne(Expr::int(1))),
            vec![],
        );
        let states = sys.init().states(sys.universe()).unwrap();
        // y ranges over {0, 2}.
        assert_eq!(states.len(), 2);
        for s in &states {
            assert_eq!(s.get(x), &Value::Int(0));
            assert_ne!(s.get(y), &Value::Int(1));
        }
    }

    #[test]
    fn init_merge_conflicts_panic() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        let a = Init::new([(x, Value::Int(0))]);
        let b = Init::new([(x, Value::Int(0))]);
        let merged = a.clone().merge(&b);
        assert_eq!(merged.fixed().len(), 1);
        let c = Init::new([(x, Value::Int(1))]);
        let result = std::panic::catch_unwind(|| a.merge(&c));
        assert!(result.is_err());
    }

    #[test]
    fn family_expansion() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, 2));
        let puts = GuardedAction::family("put", Domain::int_range(0, 2).values().to_vec(), |v| {
            (Expr::bool(true), vec![(x, Expr::con(v.clone()))])
        });
        assert_eq!(puts.len(), 3);
        assert_eq!(puts[1].name(), "put(1)");
        let s = State::new(vec![Value::Int(0)]);
        let mut vars2 = Vars::new();
        let _ = vars2.declare("x", Domain::int_range(0, 2));
        let t = puts[2].fire(&s, &vars2).unwrap().unwrap();
        assert_eq!(t.get(x), &Value::Int(2));
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_update_panics() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        let _ = GuardedAction::new(
            "dup",
            Expr::bool(true),
            vec![(x, Expr::int(0)), (x, Expr::int(1))],
        );
    }

    #[test]
    fn system_formula_shape() {
        let (sys, _) = counter();
        let frame = sys.frame();
        let sys = sys.with_fairness(SystemFairness::weak(vec![0], frame));
        let f = sys.formula();
        // Init ∧ □[N]_v ∧ WF — three conjuncts.
        match &f {
            Formula::And(fs) => assert_eq!(fs.len(), 3),
            other => panic!("unexpected shape {other:?}"),
        }
    }
}
