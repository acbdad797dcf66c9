//! The complete single-queue system `CQ` (Figures 3–6).

use crate::{env_component, queue_component, Channel, FairnessStyle};
use opentla::{chaos_environment, closed_product, AgSpec, ComponentSpec, SpecError};
use opentla_check::System;
use opentla_kernel::{Domain, Expr, VarId, Vars};

/// The parameterized single-queue world: an `N`-element queue with
/// input channel `i` and output channel `o` over a finite value
/// domain, its environment, the assumption/guarantee specification
/// `QE ⊳ QM`, and the complete system `CQ`.
#[derive(Clone, Debug)]
pub struct SingleQueue {
    vars: Vars,
    input: Channel,
    output: Channel,
    q: VarId,
    queue: ComponentSpec,
    env: ComponentSpec,
    values: Domain,
    capacity: usize,
}

impl SingleQueue {
    /// Builds the world for an `N = capacity` queue over
    /// `{0, …, num_values − 1}`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `num_values` is zero.
    pub fn new(capacity: usize, num_values: i64, style: FairnessStyle) -> SingleQueue {
        assert!(capacity > 0, "capacity must be positive");
        assert!(num_values > 0, "need at least one value");
        let mut vars = Vars::new();
        let values = Domain::int_range(0, num_values - 1);
        let input = Channel::declare(&mut vars, "i", &values);
        let output = Channel::declare(&mut vars, "o", &values);
        let q = vars.declare("q", Domain::seqs_up_to(&values, capacity));
        let queue = queue_component("QM", &input, &output, q, capacity, style)
            .expect("queue component is well-formed");
        let env = env_component("QE", &input, &output, &values)
            .expect("environment component is well-formed");
        SingleQueue {
            vars,
            input,
            output,
            q,
            queue,
            env,
            values,
            capacity,
        }
    }

    /// The variable registry.
    pub fn vars(&self) -> &Vars {
        &self.vars
    }

    /// The input channel `i`.
    pub fn input(&self) -> &Channel {
        &self.input
    }

    /// The output channel `o`.
    pub fn output(&self) -> &Channel {
        &self.output
    }

    /// The internal queue-content variable `q`.
    pub fn q(&self) -> VarId {
        self.q
    }

    /// The queue component `QM`.
    pub fn queue(&self) -> &ComponentSpec {
        &self.queue
    }

    /// The environment component `QE`.
    pub fn env(&self) -> &ComponentSpec {
        &self.env
    }

    /// The value domain.
    pub fn values(&self) -> &Domain {
        &self.values
    }

    /// The capacity `N`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The assumption/guarantee specification `QE ⊳ QM`.
    ///
    /// # Errors
    ///
    /// Never fails for the components built here; the `Result` is the
    /// generic [`AgSpec::new`] contract.
    pub fn ag_spec(&self) -> Result<AgSpec, SpecError> {
        AgSpec::new(self.env.clone(), self.queue.clone())
    }

    /// The complete system `CQ` — queue plus environment (Figure 5).
    ///
    /// # Errors
    ///
    /// Never fails for the components built here.
    pub fn complete_system(&self) -> Result<System, SpecError> {
        closed_product(&self.vars, &[&self.env, &self.queue])
    }

    /// The queue running against a maximally hostile environment that
    /// may set `i.sig`, `i.val`, and `o.ack` arbitrarily — the world in
    /// which *realization* of `QE ⊳ QM` is checked.
    ///
    /// # Errors
    ///
    /// Never fails for the components built here.
    pub fn chaos_system(&self) -> Result<System, SpecError> {
        let chaos = chaos_environment(
            "chaos",
            &self.vars,
            &[self.input.sig, self.input.val, self.output.ack],
        );
        closed_product(&self.vars, &[&chaos, &self.queue])
    }

    /// The capacity invariant `|q| ≤ N`.
    pub fn capacity_invariant(&self) -> Expr {
        Expr::var(self.q).len().le(Expr::int(self.capacity as i64))
    }

    /// The handshake-discipline invariant: whenever the queue has a
    /// value in flight on `o`, that value is `o.val` — trivially true
    /// here but stated as in the paper's discussion; more usefully, the
    /// queue never *sends* while the channel is pending, which shows up
    /// as: `o` pending implies the queue's `Deq` is disabled. Expressed
    /// as a state predicate over the complete system.
    pub fn output_discipline(&self) -> Expr {
        // o pending ⇒ ¬(Deq's channel guard): sig ≠ ack ⇒ ¬(sig = ack).
        self.output
            .ready_to_ack()
            .implies(self.output.ready_to_send().not())
    }

    /// The liveness property "a pending input with space in the queue
    /// is eventually acknowledged", as a `(P, Q)` leads-to pair: `P` is
    /// "`i` pending and `|q| < N`", `Q` is "`i.sig = i.ack`" (the
    /// handshake completed — only the queue's `Enq` can make that
    /// happen from `P`).
    pub fn input_served(&self) -> (Expr, Expr) {
        let pending_with_space = Expr::all([
            self.input.ready_to_ack(),
            Expr::var(self.q).len().lt(Expr::int(self.capacity as i64)),
        ]);
        (pending_with_space, self.input.ready_to_send())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_check::{check_invariant, check_liveness, explore, ExploreOptions, LiveTarget};

    #[test]
    fn cq_state_space_is_finite_and_explored() {
        let world = SingleQueue::new(2, 2, FairnessStyle::Joint);
        let sys = world.complete_system().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert!(graph.len() > 10, "got {}", graph.len());
        assert!(graph.edge_count() > graph.len());
    }

    #[test]
    fn capacity_invariant_holds() {
        let world = SingleQueue::new(2, 2, FairnessStyle::Joint);
        let sys = world.complete_system().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let verdict = check_invariant(&sys, &graph, &world.capacity_invariant()).unwrap();
        assert!(verdict.holds());
    }

    #[test]
    fn fifo_order_observed() {
        // Over the complete system: whenever Deq fires, it sends the
        // oldest enqueued value. This is built into the spec (Head), so
        // check a sharper derived invariant: o.val in flight equals
        // what Deq sent — i.e. the step invariant [Deq sends Head]. We
        // approximate by checking that q's length changes by exactly
        // one per queue action, via the invariant that |q| stays in
        // range after exploration (already done) plus spot semantics in
        // components.rs. Here: the discipline invariant.
        let world = SingleQueue::new(2, 3, FairnessStyle::Joint);
        let sys = world.complete_system().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let verdict = check_invariant(&sys, &graph, &world.output_discipline()).unwrap();
        assert!(verdict.holds());
    }

    #[test]
    fn pending_input_is_served_under_fairness() {
        let world = SingleQueue::new(1, 2, FairnessStyle::Joint);
        let sys = world.complete_system().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let p = Expr::all([
            world.input().ready_to_ack(),
            Expr::var(world.q()).len().lt(Expr::int(1)),
        ]);
        let q = world.input().ready_to_send();
        let verdict = check_liveness(&sys, &graph, &LiveTarget::LeadsTo(p, q)).unwrap();
        assert!(
            verdict.holds(),
            "{:?}",
            verdict.counterexample().map(|c| c.reason().to_string())
        );
    }

    #[test]
    fn no_service_without_fairness() {
        let world = SingleQueue::new(1, 2, FairnessStyle::None);
        let sys = world.complete_system().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let p = Expr::all([
            world.input().ready_to_ack(),
            Expr::var(world.q()).len().lt(Expr::int(1)),
        ]);
        let q = world.input().ready_to_send();
        let verdict = check_liveness(&sys, &graph, &LiveTarget::LeadsTo(p, q)).unwrap();
        assert!(!verdict.holds(), "without WF the queue may stutter forever");
    }

    #[test]
    fn joint_and_split_fairness_agree() {
        // The paper: WF(Q_M) is equivalent to WF(Enq) ∧ WF(Deq) for
        // this spec. Check that the two systems verify the same
        // leads-to property.
        for style in [FairnessStyle::Joint, FairnessStyle::Split] {
            let world = SingleQueue::new(1, 2, style);
            let sys = world.complete_system().unwrap();
            let graph = explore(&sys, &ExploreOptions::default()).unwrap();
            let p = world.input().ready_to_ack();
            let served = world.input().ready_to_send();
            let verdict = check_liveness(
                &sys,
                &graph,
                &LiveTarget::LeadsTo(
                    Expr::all([p, Expr::var(world.q()).len().lt(Expr::int(1))]),
                    served,
                ),
            )
            .unwrap();
            assert!(verdict.holds(), "style {style:?}");
        }
    }

    #[test]
    fn queue_realizes_its_ag_spec() {
        // Against a hostile environment, the queue still guarantees QM
        // at least one step longer than the environment respects QE.
        let world = SingleQueue::new(1, 2, FairnessStyle::Joint);
        let sys = world.chaos_system().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let e = world.env().safety_formula();
        let m = world.queue().safety_formula();
        let verdict = opentla::check_ag_safety(&sys, &graph, &e, &m).unwrap();
        assert!(
            verdict.holds(),
            "{:?}",
            verdict.counterexample().map(|c| c.reason().to_string())
        );
    }

    #[test]
    fn chaos_env_actually_violates_qe() {
        // Sanity: the chaos system contains QE-violating behaviors
        // (otherwise the realization check would be vacuous).
        let world = SingleQueue::new(1, 2, FairnessStyle::Joint);
        let sys = world.chaos_system().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let e = world.env().safety_formula();
        let report = opentla_check::check_simulation(
            &sys,
            &graph,
            &e,
            &opentla_kernel::Substitution::default(),
        )
        .unwrap();
        assert!(!report.holds(), "chaos must be able to break QE");
    }
}
