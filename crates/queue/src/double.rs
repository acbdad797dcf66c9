//! Two queues in series (Figures 7–9 of the paper).
//!
//! The composite system `CDQ` — queue 1 from `i` to `z`, queue 2 from
//! `z` to `o`, plus the environment — implements a `(2N+1)`-element
//! queue `CQ[dbl]`. At the open-system level, the Composition Theorem
//! proves
//!
//! ```text
//! G ∧ (QE[1] ⊳ QM[1]) ∧ (QE[2] ⊳ QM[2]) ⇒ (QE[dbl] ⊳ QM[dbl])   (4)
//! ```
//!
//! where the component specifications are obtained from the base queue
//! by the substitutions `F[1] = F[z/o, q1/q]` and `F[2] = F[z/i, q2/q]`
//! and `F[dbl] = F[(2N+1)/N]` — mechanized here with
//! [`Renaming`]s and parameterization, and proved by
//! [`DoubleQueue::prove_composition`], which replays the paper's
//! Figure 9 obligation by obligation.
//!
//! The refinement mapping for the big queue's content is the standard
//! in-flight one: `q̄ = q₂ ∘ mid(z) ∘ q₁`, where `mid(z)` is the value
//! on the middle channel awaiting acknowledgment (if any). The extra
//! `+1` of capacity is exactly that in-flight slot.

use crate::{env_component, queue_component, Channel, FairnessStyle};
use opentla::{
    closed_product, compose, AgSpec, Certificate, ComponentSpec, CompositionOptions,
    CompositionProblem, RefinementReport, SpecError,
};
use opentla_check::{explore, ExploreOptions, System};
use opentla_kernel::{Domain, Expr, Renaming, Substitution, VarId, Vars};

/// The double-queue world: all channels, components, specifications,
/// and the two headline proofs.
#[derive(Clone, Debug)]
pub struct DoubleQueue {
    vars: Vars,
    i: Channel,
    z: Channel,
    o: Channel,
    q1: VarId,
    q2: VarId,
    q_dbl: VarId,
    queue1: ComponentSpec,
    queue2: ComponentSpec,
    env: ComponentSpec,
    env1: ComponentSpec,
    env2: ComponentSpec,
    big_queue: ComponentSpec,
    capacity: usize,
    values: Domain,
}

impl DoubleQueue {
    /// Builds the world for two `N = capacity` queues in series over
    /// `{0, …, num_values − 1}`.
    ///
    /// The component instances are produced from a *base* queue by the
    /// paper's substitutions: `queue1 = base[z/o, q1/q]`,
    /// `queue2 = base[z/i, q2/q]`, and the big queue is the base with
    /// `N` replaced by `2N + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `num_values` is zero.
    pub fn new(capacity: usize, num_values: i64, style: FairnessStyle) -> DoubleQueue {
        assert!(capacity > 0, "capacity must be positive");
        assert!(num_values > 0, "need at least one value");
        let mut vars = Vars::new();
        let values = Domain::int_range(0, num_values - 1);
        let i = Channel::declare(&mut vars, "i", &values);
        let o = Channel::declare(&mut vars, "o", &values);
        let z = Channel::declare(&mut vars, "z", &values);
        let q = vars.declare("q", Domain::seqs_up_to(&values, capacity));
        let q1 = vars.declare("q1", Domain::seqs_up_to(&values, capacity));
        let q2 = vars.declare("q2", Domain::seqs_up_to(&values, capacity));
        let q_dbl = vars.declare("q_dbl", Domain::seqs_up_to(&values, 2 * capacity + 1));

        // The base specifications QM and QE over (i, o, q).
        let base_queue =
            queue_component("QM", &i, &o, q, capacity, style).expect("base queue is well-formed");
        let base_env = env_component("QE", &i, &o, &values).expect("base env is well-formed");

        // F[1] = F[z/o, q1/q]; F[2] = F[z/i, q2/q].
        let to1 = Renaming::new([(o.sig, z.sig), (o.ack, z.ack), (o.val, z.val), (q, q1)]);
        let to2 = Renaming::new([(i.sig, z.sig), (i.ack, z.ack), (i.val, z.val), (q, q2)]);
        let queue1 = base_queue.rename("QM[1]", &to1);
        let queue2 = base_queue.rename("QM[2]", &to2);
        let env1 = base_env.rename("QE[1]", &to1);
        let env2 = base_env.rename("QE[2]", &to2);

        // F[dbl] = F[(2N+1)/N] with internal variable q_dbl.
        let big_queue = queue_component("QM[dbl]", &i, &o, q_dbl, 2 * capacity + 1, style)
            .expect("big queue is well-formed");
        let env = base_env; // QE[dbl] = QE (it does not mention N or q).

        DoubleQueue {
            vars,
            i,
            z,
            o,
            q1,
            q2,
            q_dbl,
            queue1,
            queue2,
            env,
            env1,
            env2,
            big_queue,
            capacity,
            values,
        }
    }

    /// The variable registry.
    pub fn vars(&self) -> &Vars {
        &self.vars
    }

    /// The input channel `i`.
    pub fn i(&self) -> &Channel {
        &self.i
    }

    /// The middle channel `z`.
    pub fn z(&self) -> &Channel {
        &self.z
    }

    /// The output channel `o`.
    pub fn o(&self) -> &Channel {
        &self.o
    }

    /// The per-queue capacity `N`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The value domain.
    pub fn values(&self) -> &Domain {
        &self.values
    }

    /// The first queue's content variable `q1`.
    pub fn q1(&self) -> VarId {
        self.q1
    }

    /// The second queue's content variable `q2`.
    pub fn q2(&self) -> VarId {
        self.q2
    }

    /// The abstract queue's content variable `q̄`.
    pub fn q_dbl(&self) -> VarId {
        self.q_dbl
    }

    /// The first queue component `QM[1]` (from `i` to `z`).
    pub fn queue1(&self) -> &ComponentSpec {
        &self.queue1
    }

    /// The second queue component `QM[2]` (from `z` to `o`).
    pub fn queue2(&self) -> &ComponentSpec {
        &self.queue2
    }

    /// The environment `QE[dbl]` of the composite system.
    pub fn env(&self) -> &ComponentSpec {
        &self.env
    }

    /// The first queue's assumption `QE[1]`.
    pub fn env1(&self) -> &ComponentSpec {
        &self.env1
    }

    /// The second queue's assumption `QE[2]`.
    pub fn env2(&self) -> &ComponentSpec {
        &self.env2
    }

    /// The abstract `(2N+1)`-element queue `QM[dbl]`.
    pub fn big_queue(&self) -> &ComponentSpec {
        &self.big_queue
    }

    /// The assumption/guarantee specification `QE[1] ⊳ QM[1]`.
    ///
    /// # Errors
    ///
    /// Never fails for the components built here.
    pub fn ag1(&self) -> Result<AgSpec, SpecError> {
        AgSpec::new(self.env1.clone(), self.queue1.clone())
    }

    /// The assumption/guarantee specification `QE[2] ⊳ QM[2]`.
    ///
    /// # Errors
    ///
    /// Never fails for the components built here.
    pub fn ag2(&self) -> Result<AgSpec, SpecError> {
        AgSpec::new(self.env2.clone(), self.queue2.clone())
    }

    /// The target specification `QE[dbl] ⊳ QM[dbl]`.
    ///
    /// # Errors
    ///
    /// Never fails for the components built here.
    pub fn ag_dbl(&self) -> Result<AgSpec, SpecError> {
        AgSpec::new(self.env.clone(), self.big_queue.clone())
    }

    /// The refinement mapping `q̄ ↦ q₂ ∘ mid(z) ∘ q₁`.
    pub fn refinement_mapping(&self) -> Substitution {
        let q_bar = Expr::var(self.q2)
            .concat(self.z.in_flight())
            .concat(Expr::var(self.q1));
        Substitution::new([(self.q_dbl, q_bar)])
    }

    /// The composite complete system `CDQ` (Figure 8): environment plus
    /// the two queues.
    ///
    /// # Errors
    ///
    /// Never fails for the components built here.
    pub fn cdq_system(&self) -> Result<System, SpecError> {
        closed_product(&self.vars, &[&self.env, &self.queue1, &self.queue2])
    }

    /// Section A.4: `CDQ ⇒ CQ[dbl]` — the composite *complete* system
    /// implements the big queue's complete system (environment plus
    /// big queue), proved by
    /// [`check_component_refinement`](opentla::check_component_refinement)
    /// with the in-flight refinement mapping.
    ///
    /// # Errors
    ///
    /// Engine errors only; a refuted refinement shows up in the
    /// returned report.
    pub fn prove_refinement(
        &self,
        options: &ExploreOptions,
    ) -> Result<RefinementReport, SpecError> {
        let cdq = self.cdq_system()?;
        let graph = explore(&cdq, options)?;
        opentla::check_component_refinement(
            &cdq,
            &graph,
            &[&self.env, &self.big_queue],
            &self.refinement_mapping(),
        )
    }

    /// Section A.5 / Figure 9: the Composition Theorem proof of
    /// formula (4),
    /// `G ∧ (QE[1] ⊳ QM[1]) ∧ (QE[2] ⊳ QM[2]) ⇒ (QE[dbl] ⊳ QM[dbl])`.
    ///
    /// The returned certificate's obligations correspond to the proof
    /// sketch: hypothesis 1 is Figure 9's step 1 (each queue's
    /// assumption discharged by the complete system); `H2a/P4` is step
    /// 2.1 (orthogonality via Propositions 3–4); `H2a` is step 2.2
    /// (the closure implication); the `H2b` obligations are the
    /// liveness half of step 3.
    ///
    /// # Errors
    ///
    /// Structural errors only; failing hypotheses are recorded in the
    /// certificate.
    pub fn prove_composition(
        &self,
        options: &CompositionOptions,
    ) -> Result<Certificate, SpecError> {
        let ag1 = self.ag1()?;
        let ag2 = self.ag2()?;
        let target = self.ag_dbl()?;
        let problem = CompositionProblem {
            vars: &self.vars,
            components: vec![&ag1, &ag2],
            target: &target,
            mapping: self.refinement_mapping(),
        };
        compose(&problem, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_check::{check_invariant, check_simulation};

    fn small() -> DoubleQueue {
        DoubleQueue::new(1, 2, FairnessStyle::Joint)
    }

    #[test]
    fn renamed_components_use_the_right_wires() {
        let w = small();
        assert_eq!(w.queue1().outputs(), &[w.i().ack, w.z().sig, w.z().val]);
        assert_eq!(w.queue1().inputs(), &[w.i().sig, w.i().val, w.z().ack]);
        assert_eq!(w.queue1().internals(), &[w.q1()]);
        assert_eq!(w.queue2().outputs(), &[w.z().ack, w.o().sig, w.o().val]);
        assert_eq!(w.queue2().inputs(), &[w.z().sig, w.z().val, w.o().ack]);
        assert_eq!(w.env1().outputs(), &[w.i().sig, w.i().val, w.z().ack]);
        assert_eq!(w.env2().outputs(), &[w.z().sig, w.z().val, w.o().ack]);
    }

    #[test]
    fn cdq_explores() {
        let w = small();
        let sys = w.cdq_system().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert!(graph.len() > 50, "got {}", graph.len());
        // The combined content never exceeds 2N + 1.
        let mapping = w.refinement_mapping();
        let q_bar = mapping.get(w.q_dbl()).unwrap().clone();
        let inv = q_bar.len().le(Expr::int(2 * w.capacity() as i64 + 1));
        assert!(check_invariant(&sys, &graph, &inv).unwrap().holds());
    }

    #[test]
    fn refinement_holds() {
        let w = small();
        let report = w.prove_refinement(&ExploreOptions::default()).unwrap();
        assert!(report.holds(), "{report:?}");
        assert_eq!(report.liveness.len(), 1);
        assert!(report.liveness[0].0.contains("QM[dbl]"));
    }

    #[test]
    fn wrong_capacity_refinement_fails() {
        // Claiming the composite implements a (2N)-queue must fail: the
        // in-flight slot overflows it.
        let w = small();
        let mut vars = w.vars().clone();
        let q_small = vars.declare("q_small", Domain::seqs_up_to(w.values(), 2 * w.capacity()));
        let wrong_big = queue_component(
            "QM[2N]",
            w.i(),
            w.o(),
            q_small,
            2 * w.capacity(),
            FairnessStyle::Joint,
        )
        .unwrap();
        let mapping = Substitution::new([(
            q_small,
            Expr::var(w.q2())
                .concat(w.z().in_flight())
                .concat(Expr::var(w.q1())),
        )]);
        let cdq = closed_product(&vars, &[w.env(), w.queue1(), w.queue2()]).unwrap();
        let graph = explore(&cdq, &ExploreOptions::default()).unwrap();
        let target = w.env().safety_formula().and(wrong_big.safety_formula());
        let report = check_simulation(&cdq, &graph, &target, &mapping).unwrap();
        assert!(
            !report.holds(),
            "a 2N-element abstract queue is too small for CDQ"
        );
    }

    #[test]
    fn figure_9_composition_proof() {
        let w = small();
        let cert = w.prove_composition(&CompositionOptions::default()).unwrap();
        assert!(cert.holds(), "{}", cert.display(w.vars()));
        // Shape of the proof: G, P1+P2, two H1s (step 1), H2a/P4
        // (step 2.1), H2a (step 2.2), one H2b fairness (step 3).
        let ids: Vec<&str> = cert.obligations.iter().map(|o| o.id.as_str()).collect();
        assert!(ids.contains(&"H1[QE[1]]"));
        assert!(ids.contains(&"H1[QE[2]]"));
        assert!(ids.contains(&"H2a/P4"));
        assert!(ids.contains(&"H2a"));
        assert!(ids.iter().any(|i| i.starts_with("H2b")));
        assert!(cert.conclusion.contains("QE ⊳ QM[dbl]"));
    }
}
