//! Canonical-form component specifications (Section 2.2 of the paper).

use crate::SpecError;
use opentla_check::{GuardedAction, Init};
use opentla_kernel::{Expr, Fairness, FairnessKind, Formula, Renaming, VarId, VarSet};

/// A component specification in the paper's canonical form
/// `∃x : Init ∧ □[N]_{⟨m,x⟩} ∧ L`:
///
/// * `m` — the [`outputs`](ComponentSpec::outputs): variables only this
///   component changes;
/// * `x` — the [`internals`](ComponentSpec::internals): hidden state;
/// * `e` — the [`inputs`](ComponentSpec::inputs): variables the
///   component reads but never changes;
/// * `Init` — the initial condition, over `m ∪ x` only;
/// * `N` — the next-state action, the disjunction of guarded commands
///   that update owned variables only (hence `N ⇒ (e' = e)`, the
///   interleaving condition);
/// * `L` — a conjunction of `WF`/`SF` conditions over sub-actions of
///   `N`, which is exactly the side condition of **Proposition 1**, so
///   [`ComponentSpec::closure`] is computed syntactically.
///
/// Build with [`ComponentSpec::builder`]; all canonical-form side
/// conditions are validated at [`ComponentBuilder::build`] time.
///
/// # Example
///
/// A one-place buffer that latches its input:
///
/// ```
/// use opentla::ComponentSpec;
/// use opentla_check::{GuardedAction, Init};
/// use opentla_kernel::{Domain, Expr, Value, Vars};
///
/// # fn main() -> Result<(), opentla::SpecError> {
/// let mut vars = Vars::new();
/// let out = vars.declare("out", Domain::bits());
/// let full = vars.declare("full", Domain::bits());
/// let inp = vars.declare("inp", Domain::bits());
/// let buffer = ComponentSpec::builder("buffer")
///     .outputs([out])
///     .internals([full])
///     .inputs([inp])
///     .init(Init::new([(out, Value::Int(0)), (full, Value::Int(0))]))
///     .action(GuardedAction::new(
///         "latch",
///         Expr::var(full).eq(Expr::int(0)),
///         vec![(out, Expr::var(inp)), (full, Expr::int(1))],
///     ))
///     .weak_fairness([0])
///     .build()?;
/// // Proposition 1, by construction: the closure is the safety part.
/// assert_eq!(buffer.closure(), buffer.safety_formula());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ComponentSpec {
    name: String,
    outputs: Vec<VarId>,
    internals: Vec<VarId>,
    inputs: Vec<VarId>,
    init: Init,
    actions: Vec<GuardedAction>,
    fairness: Vec<(FairnessKind, Vec<usize>)>,
}

impl ComponentSpec {
    /// Starts building a component.
    pub fn builder(name: impl Into<String>) -> ComponentBuilder {
        ComponentBuilder {
            name: name.into(),
            outputs: Vec::new(),
            internals: Vec::new(),
            inputs: Vec::new(),
            init: Init::default(),
            actions: Vec::new(),
            fairness: Vec::new(),
        }
    }

    /// The component's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The output variables `m`.
    pub fn outputs(&self) -> &[VarId] {
        &self.outputs
    }

    /// The internal variables `x`.
    pub fn internals(&self) -> &[VarId] {
        &self.internals
    }

    /// The input variables `e`.
    pub fn inputs(&self) -> &[VarId] {
        &self.inputs
    }

    /// The owned variables `⟨m, x⟩` — the subscript of `□[N]_v` and of
    /// the fairness conditions.
    pub fn owned(&self) -> Vec<VarId> {
        self.outputs
            .iter()
            .chain(self.internals.iter())
            .copied()
            .collect()
    }

    /// The initial condition.
    pub fn init(&self) -> &Init {
        &self.init
    }

    /// The guarded actions whose disjunction is `N`.
    pub fn actions(&self) -> &[GuardedAction] {
        &self.actions
    }

    /// The fairness conditions (kind, action indices).
    pub fn fairness(&self) -> &[(FairnessKind, Vec<usize>)] {
        &self.fairness
    }

    /// Whether the component has fairness conditions (i.e. is more than
    /// a safety property).
    pub fn has_fairness(&self) -> bool {
        !self.fairness.is_empty()
    }

    /// The frame over which an action expression is formed: owned
    /// variables plus inputs (so the action asserts `e' = e`).
    fn frame(&self) -> Vec<VarId> {
        self.owned()
            .into_iter()
            .chain(self.inputs.iter().copied())
            .collect()
    }

    /// The next-state action `N` as an expression.
    pub fn next_expr(&self) -> Expr {
        let frame = self.frame();
        Expr::any(self.actions.iter().map(|a| a.action_expr(&frame)))
    }

    /// One fairness condition as a kernel [`Fairness`].
    pub fn fairness_condition(&self, index: usize) -> Fairness {
        let (kind, ids) = &self.fairness[index];
        let frame = self.frame();
        let action = Expr::any(ids.iter().map(|i| self.actions[*i].action_expr(&frame)));
        Fairness {
            kind: *kind,
            action,
            sub: self.owned(),
        }
    }

    /// The enabledness of one fairness condition's angle action,
    /// `Enabled ⟨A_{k1} ∨ … ∨ A_{km}⟩_{⟨m,x⟩}`, as a state predicate:
    /// some listed action's guard holds and firing it would change an
    /// owned variable.
    ///
    /// For guarded commands this is *exact* over the abstract universe
    /// (updates within the guard always produce a legal state), which
    /// is what refinement-mapped fairness obligations must use —
    /// `Enabled` does not commute with substitution, so the mapped
    /// angle action's enabledness must be computed abstractly and then
    /// mapped, not re-derived from concrete successors.
    pub fn fairness_enabled_expr(&self, index: usize) -> Expr {
        let (_, ids) = &self.fairness[index];
        Expr::any(ids.iter().map(|k| {
            let action = &self.actions[*k];
            let changes = Expr::any(
                action
                    .updates()
                    .iter()
                    .map(|(v, upd)| upd.clone().ne(Expr::var(*v))),
            );
            action.guard().clone().and(changes)
        }))
    }

    /// The safety part `Init ∧ □[N]_{⟨m,x⟩}` (internals visible).
    pub fn safety_formula(&self) -> Formula {
        Formula::pred(self.init.as_pred()).and(Formula::act_box(self.next_expr(), self.owned()))
    }

    /// The full canonical formula `Init ∧ □[N]_v ∧ L` (internals
    /// visible).
    pub fn formula(&self) -> Formula {
        let mut f = self.safety_formula();
        for i in 0..self.fairness.len() {
            f = f.and(Formula::Fair(self.fairness_condition(i)));
        }
        f
    }

    /// The component's specification with internals hidden:
    /// `∃x : Init ∧ □[N]_v ∧ L`.
    pub fn hidden_formula(&self) -> Formula {
        Formula::exists(self.internals.clone(), self.formula())
    }

    /// The closure `C(spec)` — by **Proposition 1**, simply the safety
    /// part `Init ∧ □[N]_v`, because every fairness condition is over a
    /// sub-action of `N` (enforced at build time).
    pub fn closure(&self) -> Formula {
        self.safety_formula()
    }

    /// The closure with internals hidden. Sound by **Proposition 2**'s
    /// machinery (see [`crate::proposition_2_sides`]).
    pub fn hidden_closure(&self) -> Formula {
        Formula::exists(self.internals.clone(), self.closure())
    }

    /// A copy of the component under a variable renaming — the paper's
    /// `F[1] = F[z/o, q1/q]` constructions.
    pub fn rename(&self, name: impl Into<String>, renaming: &Renaming) -> ComponentSpec {
        let map = |vs: &[VarId]| vs.iter().map(|v| renaming.var(*v)).collect::<Vec<_>>();
        let init = {
            let mut init = Init::new(
                self.init
                    .fixed()
                    .iter()
                    .map(|(v, val)| (renaming.var(*v), val.clone())),
            );
            if let Some(c) = self.init.constraint() {
                init = init.with_constraint(renaming.expr(c));
            }
            init
        };
        let actions = self
            .actions
            .iter()
            .map(|a| {
                GuardedAction::new(
                    a.name().to_string(),
                    renaming.expr(a.guard()),
                    a.updates()
                        .iter()
                        .map(|(v, e)| (renaming.var(*v), renaming.expr(e)))
                        .collect(),
                )
            })
            .collect();
        ComponentSpec {
            name: name.into(),
            outputs: map(&self.outputs),
            internals: map(&self.internals),
            inputs: map(&self.inputs),
            init,
            actions,
            fairness: self.fairness.clone(),
        }
    }
}

/// Builder for [`ComponentSpec`]; see [`ComponentSpec::builder`].
#[derive(Clone, Debug)]
pub struct ComponentBuilder {
    name: String,
    outputs: Vec<VarId>,
    internals: Vec<VarId>,
    inputs: Vec<VarId>,
    init: Init,
    actions: Vec<GuardedAction>,
    fairness: Vec<(FairnessKind, Vec<usize>)>,
}

impl ComponentBuilder {
    /// Declares output variables (the tuple `m`).
    pub fn outputs(mut self, vars: impl IntoIterator<Item = VarId>) -> Self {
        self.outputs.extend(vars);
        self
    }

    /// Declares internal variables (the tuple `x`).
    pub fn internals(mut self, vars: impl IntoIterator<Item = VarId>) -> Self {
        self.internals.extend(vars);
        self
    }

    /// Declares input variables (the tuple `e`).
    pub fn inputs(mut self, vars: impl IntoIterator<Item = VarId>) -> Self {
        self.inputs.extend(vars);
        self
    }

    /// Sets the initial condition.
    pub fn init(mut self, init: Init) -> Self {
        self.init = init;
        self
    }

    /// Adds one guarded action (a disjunct of `N`), returning its
    /// index for use in fairness conditions.
    pub fn action(mut self, action: GuardedAction) -> Self {
        self.actions.push(action);
        self
    }

    /// Adds several actions.
    pub fn actions(mut self, actions: impl IntoIterator<Item = GuardedAction>) -> Self {
        self.actions.extend(actions);
        self
    }

    /// Adds `WF_{⟨m,x⟩}(∨ of the listed actions)`.
    pub fn weak_fairness(mut self, action_ids: impl IntoIterator<Item = usize>) -> Self {
        self.fairness
            .push((FairnessKind::Weak, action_ids.into_iter().collect()));
        self
    }

    /// Adds `SF_{⟨m,x⟩}(∨ of the listed actions)`.
    pub fn strong_fairness(mut self, action_ids: impl IntoIterator<Item = usize>) -> Self {
        self.fairness
            .push((FairnessKind::Strong, action_ids.into_iter().collect()));
        self
    }

    /// Validates and builds the component.
    ///
    /// # Errors
    ///
    /// * [`SpecError::OverlappingRoles`] if a variable appears in two of
    ///   the outputs/internals/inputs lists;
    /// * [`SpecError::ForeignUpdate`] if an action updates a variable
    ///   outside `m ∪ x`;
    /// * [`SpecError::ForeignInit`] if the initial condition constrains
    ///   a variable outside `m ∪ x`;
    /// * [`SpecError::FairnessOutOfRange`] for bad fairness indices.
    pub fn build(self) -> Result<ComponentSpec, SpecError> {
        let out_set: VarSet = self.outputs.iter().copied().collect();
        let int_set: VarSet = self.internals.iter().copied().collect();
        let in_set: VarSet = self.inputs.iter().copied().collect();
        for v in out_set.iter() {
            if int_set.contains(v) || in_set.contains(v) {
                return Err(SpecError::OverlappingRoles {
                    component: self.name,
                    var: v,
                });
            }
        }
        for v in int_set.iter() {
            if in_set.contains(v) {
                return Err(SpecError::OverlappingRoles {
                    component: self.name,
                    var: v,
                });
            }
        }
        let mut owned = out_set.clone();
        owned.union_with(&int_set);
        for a in &self.actions {
            for v in a.touched() {
                if !owned.contains(v) {
                    return Err(SpecError::ForeignUpdate {
                        component: self.name,
                        action: a.name().to_string(),
                        var: v,
                    });
                }
            }
        }
        for (v, _) in self.init.fixed() {
            if !owned.contains(*v) {
                return Err(SpecError::ForeignInit {
                    component: self.name,
                    var: *v,
                });
            }
        }
        if let Some(c) = self.init.constraint() {
            for v in c.unprimed_vars().iter() {
                if !owned.contains(v) {
                    return Err(SpecError::ForeignInit {
                        component: self.name,
                        var: v,
                    });
                }
            }
        }
        for (_, ids) in &self.fairness {
            for id in ids {
                if *id >= self.actions.len() {
                    return Err(SpecError::FairnessOutOfRange {
                        component: self.name,
                        index: *id,
                    });
                }
            }
        }
        Ok(ComponentSpec {
            name: self.name,
            outputs: self.outputs,
            internals: self.internals,
            inputs: self.inputs,
            init: self.init,
            actions: self.actions,
            fairness: self.fairness,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_kernel::{Domain, Value, Vars};

    fn setup() -> (Vars, VarId, VarId, VarId) {
        let mut vars = Vars::new();
        let m = vars.declare("m", Domain::bits());
        let x = vars.declare("x", Domain::bits());
        let e = vars.declare("e", Domain::bits());
        (vars, m, x, e)
    }

    fn copy_component(m: VarId, x: VarId, e: VarId) -> ComponentSpec {
        // Copies input e to output m via internal x.
        ComponentSpec::builder("copier")
            .outputs([m])
            .internals([x])
            .inputs([e])
            .init(Init::new([(m, Value::Int(0)), (x, Value::Int(0))]))
            .action(GuardedAction::new(
                "latch",
                Expr::bool(true),
                vec![(x, Expr::var(e))],
            ))
            .action(GuardedAction::new(
                "emit",
                Expr::bool(true),
                vec![(m, Expr::var(x))],
            ))
            .weak_fairness([0, 1])
            .build()
            .expect("well-formed")
    }

    #[test]
    fn builder_accepts_canonical_component() {
        let (_, m, x, e) = setup();
        let c = copy_component(m, x, e);
        assert_eq!(c.name(), "copier");
        assert_eq!(c.owned(), vec![m, x]);
        assert!(c.has_fairness());
    }

    #[test]
    fn foreign_update_rejected() {
        let (_, m, x, e) = setup();
        let r = ComponentSpec::builder("bad")
            .outputs([m])
            .internals([x])
            .inputs([e])
            .action(GuardedAction::new(
                "cheat",
                Expr::bool(true),
                vec![(e, Expr::int(1))],
            ))
            .build();
        assert!(matches!(r, Err(SpecError::ForeignUpdate { .. })));
    }

    #[test]
    fn overlapping_roles_rejected() {
        let (_, m, _, e) = setup();
        let r = ComponentSpec::builder("bad")
            .outputs([m])
            .inputs([m, e])
            .build();
        assert!(matches!(r, Err(SpecError::OverlappingRoles { .. })));
    }

    #[test]
    fn foreign_init_rejected() {
        let (_, m, _, e) = setup();
        let r = ComponentSpec::builder("bad")
            .outputs([m])
            .inputs([e])
            .init(Init::new([(e, Value::Int(0))]))
            .build();
        assert!(matches!(r, Err(SpecError::ForeignInit { .. })));
        let r = ComponentSpec::builder("bad")
            .outputs([m])
            .inputs([e])
            .init(Init::new([]).with_constraint(Expr::var(e).eq(Expr::int(0))))
            .build();
        assert!(matches!(r, Err(SpecError::ForeignInit { .. })));
    }

    #[test]
    fn fairness_bounds_checked() {
        let (_, m, _, _) = setup();
        let r = ComponentSpec::builder("bad")
            .outputs([m])
            .weak_fairness([2])
            .build();
        assert!(matches!(r, Err(SpecError::FairnessOutOfRange { .. })));
    }

    #[test]
    fn closure_is_safety_part() {
        let (_, m, x, e) = setup();
        let c = copy_component(m, x, e);
        // Proposition 1: C(Init ∧ □[N]_v ∧ WF) = Init ∧ □[N]_v.
        assert_eq!(c.closure(), c.safety_formula());
        // The full formula has the fairness conjunct.
        assert_ne!(c.formula(), c.safety_formula());
    }

    #[test]
    fn actions_assert_inputs_unchanged() {
        let (_, m, x, e) = setup();
        let c = copy_component(m, x, e);
        // The interleaving condition: N ⇒ (e' = e).
        let n = c.next_expr();
        assert!(n.primed_vars().contains(e), "frame includes the input");
        use opentla_kernel::{State, StatePair};
        let s = State::new(vec![Value::Int(0), Value::Int(0), Value::Int(1)]);
        // A step that copies e into x but also flips e: not an N step.
        let t = State::new(vec![Value::Int(0), Value::Int(1), Value::Int(0)]);
        assert!(!n.holds_action(StatePair::new(&s, &t)).unwrap());
        // Same step with e held: an N step.
        let t = State::new(vec![Value::Int(0), Value::Int(1), Value::Int(1)]);
        assert!(n.holds_action(StatePair::new(&s, &t)).unwrap());
    }

    #[test]
    fn hidden_formula_binds_internals() {
        let (_, m, x, e) = setup();
        let c = copy_component(m, x, e);
        let hidden = c.hidden_formula();
        let fv = hidden.free_vars();
        assert!(fv.contains(m));
        assert!(fv.contains(e));
        assert!(!fv.contains(x));
        let cl = c.hidden_closure();
        assert!(!cl.free_vars().contains(x));
    }

    #[test]
    fn renaming_produces_instance() {
        let (mut vars, m, x, e) = setup();
        let m2 = vars.declare("m2", Domain::bits());
        let x2 = vars.declare("x2", Domain::bits());
        let c = copy_component(m, x, e);
        let r = Renaming::new([(m, m2), (x, x2)]);
        let c2 = c.rename("copier2", &r);
        assert_eq!(c2.outputs(), &[m2]);
        assert_eq!(c2.internals(), &[x2]);
        assert_eq!(c2.inputs(), &[e]);
        assert_eq!(c2.actions().len(), 2);
        assert_eq!(c2.init().fixed().len(), 2);
        assert_eq!(c2.init().fixed()[0].0, m2);
    }

    #[test]
    fn empty_component_is_legal() {
        // The target environment of a closed system: no variables at
        // all (E = TRUE).
        let c = ComponentSpec::builder("true-env").build().expect("legal");
        assert!(c.owned().is_empty());
        assert_eq!(c.safety_formula().free_vars().len(), 0);
    }

    #[test]
    fn fairness_condition_shape() {
        let (_, m, x, e) = setup();
        let c = copy_component(m, x, e);
        let fair = c.fairness_condition(0);
        assert_eq!(fair.kind, FairnessKind::Weak);
        assert_eq!(fair.sub, vec![m, x]);
        let _ = e;
    }
}
