//! A token ring over two-phase handshake channels — the fully
//! *circular* assumption structure.
//!
//! `k` nodes are connected in a ring by handshake channels
//! `c₀, …, c_{k−1}`; node `i` receives the token on `cᵢ` and forwards
//! it on `c_{(i+1) mod k}`. Taking the token enters the node's critical
//! section (`critᵢ = 1`); passing it leaves. The token starts in
//! flight on `c₀`.
//!
//! Every node's environment assumption is discharged by its *ring
//! predecessor's* guarantee — for `k` components the dependency cycle
//! has length `k`, the generalization of Figure 1's two-way circle.
//! The Composition Theorem certifies the mutual-exclusion target; the
//! circulation liveness (`□◇ critᵢ` under `WF`) is model-checked on
//! the complete system.

use opentla::{
    AgSpec, Certificate, ComponentSpec, CompositionOptions, CompositionProblem, SpecError,
};
use opentla_check::{GuardedAction, Init, System};
use opentla_kernel::{Domain, Expr, Substitution, Value, VarId, Vars};

/// One ring channel: the same wire triple as the queue example's
/// channels (`sig`, `ack`, `val` — the token carries no data, so `val`
/// ranges over `{0}`).
#[derive(Clone, Debug)]
struct RingChannel {
    sig: VarId,
    ack: VarId,
}

/// The token-ring world.
#[derive(Clone, Debug)]
pub struct TokenRing {
    vars: Vars,
    channels: Vec<RingChannel>,
    crits: Vec<VarId>,
}

impl TokenRing {
    /// Builds a ring of `k ≥ 2` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new(k: usize) -> TokenRing {
        assert!(k >= 2, "a ring needs at least two nodes");
        let mut vars = Vars::new();
        let channels = (0..k)
            .map(|i| RingChannel {
                sig: vars.declare(format!("c{i}.sig"), Domain::bits()),
                ack: vars.declare(format!("c{i}.ack"), Domain::bits()),
            })
            .collect();
        let crits = (0..k)
            .map(|i| vars.declare(format!("crit{i}"), Domain::bits()))
            .collect();
        TokenRing {
            vars,
            channels,
            crits,
        }
    }

    /// The registry.
    pub fn vars(&self) -> &Vars {
        &self.vars
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.crits.len()
    }

    /// Always `false`: rings have at least two nodes.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The critical-section flag of node `i` (0-based).
    pub fn crit(&self, i: usize) -> VarId {
        self.crits[i]
    }

    fn pending(&self, i: usize) -> Expr {
        let c = &self.channels[i];
        Expr::var(c.sig).ne(Expr::var(c.ack))
    }

    fn ready(&self, i: usize) -> Expr {
        let c = &self.channels[i];
        Expr::var(c.sig).eq(Expr::var(c.ack))
    }

    /// Node `i`: owns `critᵢ`, the ack wire of its incoming channel,
    /// and the signal wire of its outgoing channel.
    ///
    /// * `take`: incoming token pending and not critical → acknowledge
    ///   it and raise `critᵢ`;
    /// * `pass`: critical and the outgoing channel ready → send the
    ///   token onward and lower `critᵢ`.
    ///
    /// The token starts in flight on `c₀`, so node `k−1` (the sender of
    /// `c₀`) initializes `c₀.sig = 1`; every other wire starts 0.
    pub fn node(&self, i: usize) -> ComponentSpec {
        let k = self.len();
        let inc = &self.channels[i];
        let out_idx = (i + 1) % k;
        let out = &self.channels[out_idx];
        let crit = self.crits[i];
        let out_sig_init = if out_idx == 0 { 1 } else { 0 };
        ComponentSpec::builder(format!("node{i}"))
            .outputs([inc.ack, out.sig, crit])
            .inputs([inc.sig, out.ack])
            .init(Init::new([
                (inc.ack, Value::Int(0)),
                (out.sig, Value::Int(out_sig_init)),
                (crit, Value::Int(0)),
            ]))
            .action(GuardedAction::new(
                "take",
                Expr::all([self.pending(i), Expr::var(crit).eq(Expr::int(0))]),
                vec![
                    (inc.ack, Expr::int(1).sub(Expr::var(inc.ack))),
                    (crit, Expr::int(1)),
                ],
            ))
            .action(GuardedAction::new(
                "pass",
                Expr::all([Expr::var(crit).eq(Expr::int(1)), self.ready(out_idx)]),
                vec![
                    (out.sig, Expr::int(1).sub(Expr::var(out.sig))),
                    (crit, Expr::int(0)),
                ],
            ))
            .weak_fairness([0, 1])
            .build()
            .expect("ring node is well-formed")
    }

    /// Node `i`'s environment assumption: its predecessor drives the
    /// incoming signal wire only when the channel is ready, and its
    /// successor acknowledges the outgoing channel only when pending —
    /// the handshake discipline on both adjacent channels.
    pub fn node_env(&self, i: usize) -> ComponentSpec {
        let k = self.len();
        let inc = &self.channels[i];
        let out_idx = (i + 1) % k;
        let out = &self.channels[out_idx];
        let inc_sig_init = if i == 0 { 1 } else { 0 };
        ComponentSpec::builder(format!("env-of-node{i}"))
            .outputs([inc.sig, out.ack])
            .inputs([inc.ack, out.sig])
            .init(Init::new([
                (inc.sig, Value::Int(inc_sig_init)),
                (out.ack, Value::Int(0)),
            ]))
            .action(GuardedAction::new(
                "deliver",
                self.ready(i),
                vec![(inc.sig, Expr::int(1).sub(Expr::var(inc.sig)))],
            ))
            .action(GuardedAction::new(
                "consume",
                self.pending(out_idx),
                vec![(out.ack, Expr::int(1).sub(Expr::var(out.ack)))],
            ))
            .build()
            .expect("ring assumption is well-formed")
    }

    /// The target guarantee: at most one node is critical at a time,
    /// as a canonical component owning all the `crit` flags whose
    /// `enter` actions are guarded on exclusivity.
    pub fn target_guarantee(&self) -> ComponentSpec {
        let k = self.len();
        let mut builder = ComponentSpec::builder("mutual-exclusion")
            .outputs(self.crits.iter().copied())
            .init(Init::new(self.crits.iter().map(|c| (*c, Value::Int(0)))));
        for i in 0..k {
            let mut guard = vec![Expr::var(self.crits[i]).eq(Expr::int(0))];
            guard.extend(
                (0..k)
                    .filter(|j| *j != i)
                    .map(|j| Expr::var(self.crits[j]).eq(Expr::int(0))),
            );
            builder = builder
                .action(GuardedAction::new(
                    format!("enter{i}"),
                    Expr::all(guard),
                    vec![(self.crits[i], Expr::int(1))],
                ))
                .action(GuardedAction::new(
                    format!("leave{i}"),
                    Expr::var(self.crits[i]).eq(Expr::int(1)),
                    vec![(self.crits[i], Expr::int(0))],
                ));
        }
        builder.build().expect("target is well-formed")
    }

    /// Certifies mutual exclusion via the Composition Theorem over the
    /// `k`-cycle of assumptions. The target's environment owns the
    /// channel wires (it does not constrain them).
    ///
    /// # Errors
    ///
    /// Structural errors only.
    pub fn prove_mutex(&self, options: &CompositionOptions) -> Result<Certificate, SpecError> {
        let ags: Vec<AgSpec> = (0..self.len())
            .map(|i| AgSpec::new(self.node_env(i), self.node(i)))
            .collect::<Result<_, _>>()?;
        let true_env = ComponentSpec::builder("TRUE").build()?;
        let target = AgSpec::new(true_env, self.target_guarantee())?;
        let problem = CompositionProblem {
            vars: &self.vars,
            components: ags.iter().collect(),
            target: &target,
            mapping: Substitution::default(),
        };
        opentla::compose(&problem, options)
    }

    /// The complete ring system.
    ///
    /// # Errors
    ///
    /// Never fails for the components built here.
    pub fn complete_system(&self) -> Result<System, SpecError> {
        let nodes: Vec<ComponentSpec> = (0..self.len()).map(|i| self.node(i)).collect();
        let members: Vec<&ComponentSpec> = nodes.iter().collect();
        opentla::closed_product(&self.vars, &members)
    }

    /// The mutual-exclusion predicate.
    pub fn mutual_exclusion(&self) -> Expr {
        let k = self.len();
        let mut conjs = Vec::new();
        for i in 0..k {
            for j in i + 1..k {
                conjs.push(
                    Expr::all([
                        Expr::var(self.crits[i]).eq(Expr::int(1)),
                        Expr::var(self.crits[j]).eq(Expr::int(1)),
                    ])
                    .not(),
                );
            }
        }
        Expr::all(conjs)
    }

    /// Token conservation: exactly one token exists — in flight on some
    /// channel or held by some critical node.
    pub fn token_conservation(&self) -> Expr {
        let k = self.len();
        let mut tokens = Expr::int(0);
        for i in 0..k {
            tokens = tokens.add(self.pending(i).ite(Expr::int(1), Expr::int(0)));
            tokens = tokens.add(
                Expr::var(self.crits[i])
                    .eq(Expr::int(1))
                    .ite(Expr::int(1), Expr::int(0)),
            );
        }
        tokens.eq(Expr::int(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_check::{check_invariant, check_liveness, explore, ExploreOptions, LiveTarget};

    #[test]
    fn ring_composes_mutex() {
        for k in [2usize, 3] {
            let w = TokenRing::new(k);
            let cert = w.prove_mutex(&CompositionOptions::default()).unwrap();
            assert!(cert.holds(), "k = {k}: {}", cert.display(w.vars()));
            let h1s = cert
                .obligations
                .iter()
                .filter(|o| o.id.starts_with("H1"))
                .count();
            assert_eq!(h1s, k, "one circularly-discharged assumption per node");
        }
    }

    #[test]
    fn token_is_conserved() {
        let w = TokenRing::new(3);
        let sys = w.complete_system().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert!(check_invariant(&sys, &graph, &w.token_conservation())
            .unwrap()
            .holds());
        assert!(check_invariant(&sys, &graph, &w.mutual_exclusion())
            .unwrap()
            .holds());
    }

    #[test]
    fn token_circulates_under_fairness() {
        let w = TokenRing::new(3);
        let sys = w.complete_system().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        for i in 0..3 {
            let verdict = check_liveness(
                &sys,
                &graph,
                &LiveTarget::AlwaysEventually(Expr::var(w.crit(i)).eq(Expr::int(1))),
            )
            .unwrap();
            assert!(
                verdict.holds(),
                "node {i} must be critical infinitely often"
            );
        }
    }

    #[test]
    fn circulation_fails_without_fairness() {
        // Strip fairness from the nodes: the ring may stall anywhere.
        let w = TokenRing::new(2);
        let lazy: Vec<ComponentSpec> = (0..2)
            .map(|i| {
                let node = w.node(i);
                ComponentSpec::builder(format!("lazy{i}"))
                    .outputs(node.outputs().to_vec())
                    .internals(node.internals().to_vec())
                    .inputs(node.inputs().to_vec())
                    .init(node.init().clone())
                    .actions(node.actions().to_vec())
                    .build()
                    .unwrap()
            })
            .collect();
        let members: Vec<&ComponentSpec> = lazy.iter().collect();
        let sys = opentla::closed_product(w.vars(), &members).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let verdict = check_liveness(
            &sys,
            &graph,
            &LiveTarget::AlwaysEventually(Expr::var(w.crit(0)).eq(Expr::int(1))),
        )
        .unwrap();
        assert!(!verdict.holds(), "stuttering stalls the token");
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn singleton_ring_rejected() {
        let _ = TokenRing::new(1);
    }
}
