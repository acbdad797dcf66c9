//! `k` queues in series — the natural scale-out of the paper's
//! double-queue example.
//!
//! The appendix composes two open queues; nothing in the Composition
//! Theorem is specific to two components, so this module builds a chain
//! of `k` queues `c₀ → c₁ → … → c_k` (with `c₀ = i` and `c_k = o`) and
//! proves that it implements a single queue of capacity
//! `k·N + (k − 1)` — each middle channel contributes one in-flight
//! slot. This is the workload for the composition-scaling benchmark.

use crate::{env_component, queue_component, Channel, FairnessStyle};
use opentla::{
    closed_product, compose, faults, AgSpec, Certificate, ComponentSpec, CompositionOptions,
    CompositionProblem, SpecError,
};
use opentla_check::System;
use opentla_kernel::{Domain, Expr, Formula, Substitution, Value, VarId, Vars};

/// A chain of `k` open queues and the machinery to compose them.
#[derive(Clone, Debug)]
pub struct QueueChain {
    vars: Vars,
    channels: Vec<Channel>,
    qs: Vec<VarId>,
    q_big: VarId,
    queues: Vec<ComponentSpec>,
    envs: Vec<ComponentSpec>,
    env: ComponentSpec,
    big_queue: ComponentSpec,
    capacity: usize,
}

impl QueueChain {
    /// Builds a chain of `k` queues, each of capacity `N = capacity`,
    /// over `{0, …, num_values − 1}`.
    ///
    /// # Panics
    ///
    /// Panics if `k`, `capacity`, or `num_values` is zero.
    pub fn new(k: usize, capacity: usize, num_values: i64, style: FairnessStyle) -> QueueChain {
        assert!(k > 0, "need at least one queue");
        assert!(capacity > 0, "capacity must be positive");
        assert!(num_values > 0, "need at least one value");
        let mut vars = Vars::new();
        let values = Domain::int_range(0, num_values - 1);
        let channels: Vec<Channel> = (0..=k)
            .map(|j| {
                let name = match j {
                    0 => "i".to_string(),
                    j if j == k => "o".to_string(),
                    j => format!("z{j}"),
                };
                Channel::declare(&mut vars, name, &values)
            })
            .collect();
        let qs: Vec<VarId> = (1..=k)
            .map(|j| vars.declare(format!("q{j}"), Domain::seqs_up_to(&values, capacity)))
            .collect();
        let big_capacity = k * capacity + (k - 1);
        let q_big = vars.declare("q_big", Domain::seqs_up_to(&values, big_capacity));

        let queues: Vec<ComponentSpec> = (0..k)
            .map(|j| {
                queue_component(
                    format!("QM[{}]", j + 1),
                    &channels[j],
                    &channels[j + 1],
                    qs[j],
                    capacity,
                    style,
                )
                .expect("queue is well-formed")
            })
            .collect();
        let envs: Vec<ComponentSpec> = (0..k)
            .map(|j| {
                env_component(
                    format!("QE[{}]", j + 1),
                    &channels[j],
                    &channels[j + 1],
                    &values,
                )
                .expect("env is well-formed")
            })
            .collect();
        let env = env_component("QE", &channels[0], &channels[k], &values)
            .expect("outer env is well-formed");
        let big_queue = queue_component(
            "QM[big]",
            &channels[0],
            &channels[k],
            q_big,
            big_capacity,
            style,
        )
        .expect("big queue is well-formed");

        QueueChain {
            vars,
            channels,
            qs,
            q_big,
            queues,
            envs,
            env,
            big_queue,
            capacity,
        }
    }

    /// The variable registry.
    pub fn vars(&self) -> &Vars {
        &self.vars
    }

    /// Number of queues in the chain.
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// Always `false`: chains have at least one queue.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The channels `c₀ … c_k`.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// The capacity of the implemented single queue,
    /// `k·N + (k − 1)`.
    pub fn big_capacity(&self) -> usize {
        self.len() * self.capacity + (self.len() - 1)
    }

    /// The abstract queue's content variable.
    pub fn q_big(&self) -> VarId {
        self.q_big
    }

    /// The refinement mapping
    /// `q̄ ↦ q_k ∘ mid(c_{k-1}) ∘ … ∘ mid(c₁) ∘ q₁`.
    pub fn refinement_mapping(&self) -> Substitution {
        let k = self.len();
        let mut expr = Expr::var(self.qs[k - 1]);
        for j in (0..k - 1).rev() {
            expr = expr
                .concat(self.channels[j + 1].in_flight())
                .concat(Expr::var(self.qs[j]));
        }
        Substitution::new([(self.q_big, expr)])
    }

    /// The complete chained system (environment plus all queues).
    ///
    /// # Errors
    ///
    /// Never fails for the components built here.
    pub fn complete_system(&self) -> Result<System, SpecError> {
        let mut members: Vec<&ComponentSpec> = vec![&self.env];
        members.extend(self.queues.iter());
        closed_product(&self.vars, &members)
    }

    /// The outer environment's assumption `QE` as a safety formula —
    /// the `E` of the chain's target `QE ⊳ QM[big]`.
    pub fn outer_assumption(&self) -> Formula {
        self.env.safety_formula()
    }

    /// The abstract single queue's guarantee `QM[big]`, with its
    /// content `q̄` eliminated through the refinement mapping — the `M`
    /// of the chain's target, stated over the chain's own variables.
    ///
    /// # Errors
    ///
    /// Kernel errors from applying the mapping (none for the mapping
    /// built here).
    pub fn big_queue_guarantee(&self) -> Result<Formula, SpecError> {
        Ok(self
            .refinement_mapping()
            .formula(&self.big_queue.safety_formula())?)
    }

    /// The chained system whose *environment* may crash: at any moment
    /// the outer `QE`'s wires (`c₀.sig`, `c₀.val`, `c_k.ack`) may
    /// spontaneously revert to their initial assignment, retracting an
    /// in-flight send or acknowledgment mid-handshake.
    ///
    /// A crash that retracts a pending signal violates `QE`'s step box
    /// while stuttering every variable of (the mapped) `QM[big]` — so
    /// `QE ⊳ QM[big]` *holds* with a genuine `⊳` diagnosis: the
    /// guarantee outlives the assumption by one step.
    ///
    /// # Errors
    ///
    /// Never fails for the components built here.
    pub fn crashy_env_system(&self) -> Result<System, SpecError> {
        let sys = self.complete_system()?;
        let first = &self.channels[0];
        let last = &self.channels[self.len()];
        let component = [first.sig, first.val, last.ack];
        let reset = [
            (first.sig, Value::Int(0)),
            (first.val, Value::Int(0)),
            (last.ack, Value::Int(0)),
        ];
        Ok(faults::crash_restart(&sys, &component, &reset)?)
    }

    /// The chained system in which queue `j` (1-based) may crash: its
    /// outputs and buffer revert to their initial assignment, dropping
    /// every queued element.
    ///
    /// Dropping elements shrinks the mapped content `q̄` without a
    /// `Deq`, so (the mapped) `QM[big]` is violated while `QE` is still
    /// intact — `QE ⊳ QM[big]` *fails*, and the diagnosis names the
    /// crash action and the step it struck.
    ///
    /// # Panics
    ///
    /// Panics if `j` is 0 or exceeds the chain length.
    ///
    /// # Errors
    ///
    /// Never fails for the components built here.
    pub fn crashy_queue_system(&self, j: usize) -> Result<System, SpecError> {
        assert!(
            (1..=self.len()).contains(&j),
            "queue index {j} out of range 1..={}",
            self.len()
        );
        let sys = self.complete_system()?;
        let input = &self.channels[j - 1];
        let output = &self.channels[j];
        let q = self.qs[j - 1];
        let component = [input.ack, output.sig, output.val, q];
        let reset = [
            (input.ack, Value::Int(0)),
            (output.sig, Value::Int(0)),
            (output.val, Value::Int(0)),
            (q, Value::empty_seq()),
        ];
        Ok(faults::crash_restart(&sys, &component, &reset)?)
    }

    /// Proves, via the Composition Theorem, that the chain of open
    /// queues implements the single `k·N + (k−1)`-element open queue:
    /// `G ∧ ∧_j (QE[j] ⊳ QM[j]) ⇒ (QE ⊳ QM[big])`.
    ///
    /// # Errors
    ///
    /// Structural errors only; failing hypotheses land in the
    /// certificate.
    pub fn prove_composition(
        &self,
        options: &CompositionOptions,
    ) -> Result<Certificate, SpecError> {
        let ags: Vec<AgSpec> = self
            .queues
            .iter()
            .zip(&self.envs)
            .map(|(qm, qe)| AgSpec::new(qe.clone(), qm.clone()))
            .collect::<Result<_, _>>()?;
        let target = AgSpec::new(self.env.clone(), self.big_queue.clone())?;
        let problem = CompositionProblem {
            vars: &self.vars,
            components: ags.iter().collect(),
            target: &target,
            mapping: self.refinement_mapping(),
        };
        compose(&problem, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_check::{check_invariant, explore, ExploreOptions};

    #[test]
    fn chain_of_one_is_a_single_queue() {
        let chain = QueueChain::new(1, 1, 2, FairnessStyle::Joint);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.big_capacity(), 1);
        let cert = chain
            .prove_composition(&CompositionOptions::default())
            .unwrap();
        assert!(cert.holds(), "{}", cert.display(chain.vars()));
    }

    #[test]
    fn chain_capacity_invariant() {
        let chain = QueueChain::new(3, 1, 2, FairnessStyle::Joint);
        assert_eq!(chain.big_capacity(), 5);
        let sys = chain.complete_system().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let mapping = chain.refinement_mapping();
        let q_bar = mapping.get(chain.q_big()).unwrap().clone();
        let inv = q_bar.clone().len().le(Expr::int(5));
        assert!(check_invariant(&sys, &graph, &inv).unwrap().holds());
        // And the bound is tight: length 5 is reachable.
        let tight = q_bar.len().lt(Expr::int(5));
        assert!(!check_invariant(&sys, &graph, &tight).unwrap().holds());
    }

    #[test]
    fn crashing_environment_is_outlived_by_the_big_queue() {
        let chain = QueueChain::new(2, 1, 2, FairnessStyle::None);
        let sys = chain.crashy_env_system().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let report = opentla::check_ag_safety_diagnosed(
            &sys,
            &graph,
            &chain.outer_assumption(),
            &chain.big_queue_guarantee().unwrap(),
        )
        .unwrap();
        assert!(report.holds(), "M must outlive the crashing environment");
        let brk = report.env_break.expect("the crash must break QE");
        assert_eq!(brk.action.as_deref(), Some("fault:crash_restart"));
        let text = brk.to_string();
        assert!(
            text.contains(&format!("E broken at step {}", brk.step)),
            "{text}"
        );
        assert!(
            text.contains(&format!("M held {} steps", brk.step + 1)),
            "{text}"
        );
    }

    #[test]
    fn crashing_queue_refutes_the_big_queue_guarantee() {
        let chain = QueueChain::new(2, 1, 2, FairnessStyle::None);
        let sys = chain.crashy_queue_system(1).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let report = opentla::check_ag_safety_diagnosed(
            &sys,
            &graph,
            &chain.outer_assumption(),
            &chain.big_queue_guarantee().unwrap(),
        )
        .unwrap();
        assert!(!report.holds(), "a crashed buffer drops queued elements");
        let cx = match &report.verdict {
            opentla_check::Verdict::Violated(cx) => cx,
            other => panic!("expected a violation, got {other:?}"),
        };
        assert!(
            cx.reason().contains("fault:crash_restart"),
            "{}",
            cx.reason()
        );
        assert!(cx.reason().contains("violated conjunct"), "{}", cx.reason());
    }

    #[test]
    fn chain_of_three_composes() {
        let chain = QueueChain::new(3, 1, 2, FairnessStyle::Joint);
        let cert = chain
            .prove_composition(&CompositionOptions::default())
            .unwrap();
        assert!(cert.holds(), "{}", cert.display(chain.vars()));
        // Three H1 obligations, one per queue assumption.
        let h1s = cert
            .obligations
            .iter()
            .filter(|o| o.id.starts_with("H1"))
            .count();
        assert_eq!(h1s, 3);
    }
}
