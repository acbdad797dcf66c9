//! The paper's Figure 1: two processes with circular
//! assumption/guarantee dependencies.
//!
//! * Safety instance: `M⁰_c` asserts `c` always equals 0, `M⁰_d` that
//!   `d` always equals 0. Process `Π_c` (repeatedly copies `d` into
//!   `c`) guarantees `M⁰_c` assuming `M⁰_d`, and symmetrically for
//!   `Π_d`. The Composition Theorem proves the circular composition
//!   implements `M⁰_c ∧ M⁰_d`.
//! * Liveness instance: `M¹_c` asserts `c` eventually equals 1. The
//!   same processes "guarantee" `M¹_c` assuming `M¹_d` and vice versa,
//!   yet their composition leaves both variables 0 forever — the
//!   canonical reason assumptions must be safety properties.

use opentla::{AgSpec, ComponentSpec};
use opentla_check::{GuardedAction, Init};
use opentla_kernel::{Domain, Expr, Formula, Value, VarId, Vars};

/// The Figure 1 world: variables, guarantees, processes, and both the
/// safety and liveness instances.
#[derive(Clone, Debug)]
pub struct Fig1 {
    vars: Vars,
    c: VarId,
    d: VarId,
}

impl Fig1 {
    /// Builds the two-wire world with `c, d ∈ {0, 1}`.
    pub fn new() -> Fig1 {
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        Fig1 { vars, c, d }
    }

    /// The registry.
    pub fn vars(&self) -> &Vars {
        &self.vars
    }

    /// The wire `c`.
    pub fn c(&self) -> VarId {
        self.c
    }

    /// The wire `d`.
    pub fn d(&self) -> VarId {
        self.d
    }

    fn stays_zero(&self, name: &str, out: VarId, inp: VarId) -> ComponentSpec {
        ComponentSpec::builder(name)
            .outputs([out])
            .inputs([inp])
            .init(Init::new([(out, Value::Int(0))]))
            .build()
            .expect("well-formed")
    }

    /// `M⁰_c`: the canonical component asserting `c` stays 0.
    pub fn m0_c(&self) -> ComponentSpec {
        self.stays_zero("M0_c", self.c, self.d)
    }

    /// `M⁰_d`: the canonical component asserting `d` stays 0.
    pub fn m0_d(&self) -> ComponentSpec {
        self.stays_zero("M0_d", self.d, self.c)
    }

    /// The process `Π_c`: starts with `c = 0` and repeatedly sets `c`
    /// to the current value of `d`.
    pub fn pi_c(&self) -> ComponentSpec {
        ComponentSpec::builder("Pi_c")
            .outputs([self.c])
            .inputs([self.d])
            .init(Init::new([(self.c, Value::Int(0))]))
            .action(GuardedAction::new(
                "copy_d",
                Expr::bool(true),
                vec![(self.c, Expr::var(self.d))],
            ))
            .build()
            .expect("well-formed")
    }

    /// The process `Π_d`: starts with `d = 0` and repeatedly sets `d`
    /// to the current value of `c`.
    pub fn pi_d(&self) -> ComponentSpec {
        ComponentSpec::builder("Pi_d")
            .outputs([self.d])
            .inputs([self.c])
            .init(Init::new([(self.d, Value::Int(0))]))
            .action(GuardedAction::new(
                "copy_c",
                Expr::bool(true),
                vec![(self.d, Expr::var(self.c))],
            ))
            .build()
            .expect("well-formed")
    }

    /// The assumption/guarantee specification `M⁰_d ⊳ M⁰_c` of the
    /// first process.
    ///
    /// # Errors
    ///
    /// Never fails for these components.
    pub fn ag_c(&self) -> Result<AgSpec, opentla::SpecError> {
        AgSpec::new(self.m0_d(), self.m0_c())
    }

    /// The assumption/guarantee specification `M⁰_c ⊳ M⁰_d` of the
    /// second process.
    ///
    /// # Errors
    ///
    /// Never fails for these components.
    pub fn ag_d(&self) -> Result<AgSpec, opentla::SpecError> {
        AgSpec::new(self.m0_c(), self.m0_d())
    }

    /// The target guarantee `M⁰_c ∧ M⁰_d` as one component owning both
    /// wires.
    pub fn target_both_zero(&self) -> ComponentSpec {
        ComponentSpec::builder("M0_c∧M0_d")
            .outputs([self.c, self.d])
            .init(Init::new([
                (self.c, Value::Int(0)),
                (self.d, Value::Int(0)),
            ]))
            .build()
            .expect("well-formed")
    }

    /// The empty (always-true) environment assumption.
    pub fn true_env(&self) -> ComponentSpec {
        ComponentSpec::builder("TRUE").build().expect("well-formed")
    }

    /// The full safety composition problem, ready for
    /// [`opentla::compose`].
    ///
    /// # Errors
    ///
    /// Never fails for these components.
    pub fn safety_target(&self) -> Result<AgSpec, opentla::SpecError> {
        AgSpec::new(self.true_env(), self.target_both_zero())
    }

    /// `M¹_c`: the *liveness* guarantee "`c` eventually equals 1", as a
    /// raw formula. It is **not** expressible as a safety-canonical
    /// component — which is the point of the second Figure 1 example.
    pub fn m1_c(&self) -> Formula {
        Formula::pred(Expr::var(self.c).eq(Expr::int(1))).eventually()
    }

    /// `M¹_d`: "`d` eventually equals 1".
    pub fn m1_d(&self) -> Formula {
        Formula::pred(Expr::var(self.d).eq(Expr::int(1))).eventually()
    }
}

impl Default for Fig1 {
    fn default() -> Self {
        Fig1::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla::{
        check_ag_safety, closed_product, compose, CompositionOptions, CompositionProblem,
    };
    use opentla_check::{check_invariant, check_liveness, explore, ExploreOptions, LiveTarget};
    use opentla_kernel::Substitution;

    #[test]
    fn safety_instance_composes() {
        let w = Fig1::new();
        let ag_c = w.ag_c().unwrap();
        let ag_d = w.ag_d().unwrap();
        let target = w.safety_target().unwrap();
        let problem = CompositionProblem {
            vars: w.vars(),
            components: vec![&ag_c, &ag_d],
            target: &target,
            mapping: Substitution::default(),
        };
        let cert = compose(&problem, &CompositionOptions::default()).unwrap();
        assert!(cert.holds(), "{}", cert.display(w.vars()));
    }

    #[test]
    fn processes_realize_their_specs() {
        let w = Fig1::new();
        // Π_c against a chaotic d.
        let chaos = opentla::chaos_environment("chaos_d", w.vars(), &[w.d()]);
        let sys = closed_product(w.vars(), &[&w.pi_c(), &chaos]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let verdict = check_ag_safety(
            &sys,
            &graph,
            &w.m0_d().safety_formula(),
            &w.m0_c().safety_formula(),
        )
        .unwrap();
        assert!(verdict.holds());
    }

    #[test]
    fn composition_of_processes_keeps_both_zero() {
        let w = Fig1::new();
        let sys = closed_product(w.vars(), &[&w.pi_c(), &w.pi_d()]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let zero = Expr::all([
            Expr::var(w.c()).eq(Expr::int(0)),
            Expr::var(w.d()).eq(Expr::int(0)),
        ]);
        assert!(check_invariant(&sys, &graph, &zero).unwrap().holds());
    }

    #[test]
    fn liveness_instance_fails() {
        // The composition of Π_c and Π_d does not achieve ◇(c = 1):
        // the model checker exhibits the stuttering behavior.
        let w = Fig1::new();
        let sys = closed_product(w.vars(), &[&w.pi_c(), &w.pi_d()]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let verdict = check_liveness(
            &sys,
            &graph,
            &LiveTarget::Eventually(Expr::var(w.c()).eq(Expr::int(1))),
        )
        .unwrap();
        let cx = verdict.counterexample().expect("must fail");
        // The counterexample is the all-zero stutter.
        assert_eq!(cx.states().len(), 1);
    }

    #[test]
    fn liveness_assumptions_are_rejected_by_the_calculus() {
        // Trying to package M¹ as an assumption: the only canonical way
        // to force ◇(d = 1) in a component is fairness, and AgSpec
        // rejects assumptions with fairness.
        let w = Fig1::new();
        let env_live = ComponentSpec::builder("M1_d")
            .outputs([w.d()])
            .init(Init::new([(w.d(), Value::Int(0))]))
            .action(GuardedAction::new(
                "raise",
                Expr::var(w.d()).eq(Expr::int(0)),
                vec![(w.d(), Expr::int(1))],
            ))
            .weak_fairness([0])
            .build()
            .unwrap();
        let sys = w.m0_c();
        assert!(matches!(
            AgSpec::new(env_live, sys),
            Err(opentla::SpecError::EnvWithFairness { .. })
        ));
    }
}
