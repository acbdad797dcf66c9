//! A `k`-client mutual-exclusion arbiter, specified
//! assumption/guarantee style.
//!
//! `k + 1` open components over the wires `rᵢ` (requests, owned by the
//! clients) and `gᵢ` (grants, owned by the arbiter):
//!
//! * **Client `i`** guarantees request discipline — it raises `rᵢ` only
//!   when idle and drops it only while granted, and (fairness) it
//!   eventually releases a grant — *assuming* grant discipline on
//!   `gᵢ` (raised only while requested, lowered only after release).
//! * **The arbiter** guarantees grant discipline on every wire and
//!   mutual exclusion (never two grants), *assuming* request
//!   discipline from all clients.
//!
//! The Composition Theorem assembles these into the closed-system
//! guarantee: grants stay mutually exclusive, and — if the arbiter's
//! grant fairness is **strong** — every persistent request is served.
//! With merely **weak** grant fairness the theorem's liveness
//! hypothesis fails, and the checker exhibits the classic starvation
//! cycle: the other client's grant keeps interrupting the waiting
//! client's enabledness. This is the textbook WF-vs-SF distinction,
//! machine-checked.

use opentla::{
    AgSpec, Certificate, ComponentSpec, CompositionOptions, CompositionProblem, SpecError,
};
use opentla_check::{GuardedAction, Init, System};
use opentla_kernel::{Domain, Expr, Substitution, Value, VarId, Vars};

/// Which fairness the arbiter (and the target specification) promises
/// for granting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArbiterFairness {
    /// `WF(grantᵢ)` — admits starvation.
    Weak,
    /// `SF(grantᵢ)` — excludes starvation.
    Strong,
}

/// The mutex world: wires, components, and proofs.
#[derive(Clone, Debug)]
pub struct Mutex {
    vars: Vars,
    r: Vec<VarId>,
    g: Vec<VarId>,
    fairness: ArbiterFairness,
}

impl Mutex {
    /// Builds the two-client world with the given arbiter fairness.
    pub fn new(fairness: ArbiterFairness) -> Mutex {
        Mutex::with_clients(2, fairness)
    }

    /// Builds the world with `clients ≥ 2` clients.
    ///
    /// # Panics
    ///
    /// Panics if `clients < 2` (one client has nothing to contend
    /// with).
    pub fn with_clients(clients: usize, fairness: ArbiterFairness) -> Mutex {
        assert!(clients >= 2, "need at least two clients");
        let mut vars = Vars::new();
        let r: Vec<VarId> = (1..=clients)
            .map(|i| vars.declare(format!("r{i}"), Domain::bits()))
            .collect();
        let g: Vec<VarId> = (1..=clients)
            .map(|i| vars.declare(format!("g{i}"), Domain::bits()))
            .collect();
        Mutex {
            vars,
            r,
            g,
            fairness,
        }
    }

    /// Number of clients.
    pub fn clients(&self) -> usize {
        self.r.len()
    }

    /// The registry.
    pub fn vars(&self) -> &Vars {
        &self.vars
    }

    /// The request wire of client `i` (1-based).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ i ≤ clients`.
    pub fn r(&self, i: usize) -> VarId {
        self.r[i - 1]
    }

    /// The grant wire of client `i` (1-based).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ i ≤ clients`.
    pub fn g(&self, i: usize) -> VarId {
        self.g[i - 1]
    }

    /// Client `i`: owns `rᵢ`, reads `gᵢ`; requests when idle, releases
    /// (eventually — `WF`) when granted.
    pub fn client(&self, i: usize) -> ComponentSpec {
        let (r, g) = (self.r(i), self.g(i));
        ComponentSpec::builder(format!("client{i}"))
            .outputs([r])
            .inputs([g])
            .init(Init::new([(r, Value::Int(0))]))
            .action(GuardedAction::new(
                "request",
                Expr::all([Expr::var(r).eq(Expr::int(0)), Expr::var(g).eq(Expr::int(0))]),
                vec![(r, Expr::int(1))],
            ))
            .action(GuardedAction::new(
                "release",
                Expr::all([Expr::var(r).eq(Expr::int(1)), Expr::var(g).eq(Expr::int(1))]),
                vec![(r, Expr::int(0))],
            ))
            .weak_fairness([1])
            .build()
            .expect("client is well-formed")
    }

    /// Client `i`'s environment assumption: grant discipline on `gᵢ` —
    /// raised only while `rᵢ = 1`, lowered only after `rᵢ = 0`.
    pub fn client_env(&self, i: usize) -> ComponentSpec {
        let (r, g) = (self.r(i), self.g(i));
        ComponentSpec::builder(format!("grant-discipline{i}"))
            .outputs([g])
            .inputs([r])
            .init(Init::new([(g, Value::Int(0))]))
            .action(GuardedAction::new(
                "raise",
                Expr::all([Expr::var(r).eq(Expr::int(1)), Expr::var(g).eq(Expr::int(0))]),
                vec![(g, Expr::int(1))],
            ))
            .action(GuardedAction::new(
                "lower",
                Expr::all([Expr::var(r).eq(Expr::int(0)), Expr::var(g).eq(Expr::int(1))]),
                vec![(g, Expr::int(0))],
            ))
            .build()
            .expect("assumption is well-formed")
    }

    fn grant_actions(&self) -> Vec<GuardedAction> {
        let k = self.clients();
        let mut actions = Vec::new();
        for i in 1..=k {
            let (r, g) = (self.r(i), self.g(i));
            let mut conj = vec![Expr::var(r).eq(Expr::int(1)), Expr::var(g).eq(Expr::int(0))];
            conj.extend(
                (1..=k)
                    .filter(|j| *j != i)
                    .map(|j| Expr::var(self.g(j)).eq(Expr::int(0))),
            );
            actions.push(GuardedAction::new(
                format!("grant{i}"),
                Expr::all(conj),
                vec![(g, Expr::int(1))],
            ));
        }
        for i in 1..=k {
            let (r, g) = (self.r(i), self.g(i));
            actions.push(GuardedAction::new(
                format!("revoke{i}"),
                Expr::all([Expr::var(g).eq(Expr::int(1)), Expr::var(r).eq(Expr::int(0))]),
                vec![(g, Expr::int(0))],
            ));
        }
        actions
    }

    /// The arbiter: owns all grants; grants only a requester and only
    /// when no grant is out; revokes after release. Grant fairness per
    /// the chosen [`ArbiterFairness`]; revocation is always `WF`.
    pub fn arbiter(&self) -> ComponentSpec {
        let k = self.clients();
        let mut builder = ComponentSpec::builder("arbiter")
            .outputs(self.g.iter().copied())
            .inputs(self.r.iter().copied())
            .init(Init::new(self.g.iter().map(|g| (*g, Value::Int(0)))))
            .actions(self.grant_actions());
        for i in 0..k {
            builder = match self.fairness {
                ArbiterFairness::Weak => builder.weak_fairness([i]),
                ArbiterFairness::Strong => builder.strong_fairness([i]),
            };
        }
        for i in k..2 * k {
            builder = builder.weak_fairness([i]);
        }
        builder.build().expect("arbiter is well-formed")
    }

    /// The arbiter's assumption: request discipline on every wire.
    pub fn arbiter_env(&self) -> ComponentSpec {
        let mut builder = ComponentSpec::builder("request-discipline")
            .outputs(self.r.iter().copied())
            .inputs(self.g.iter().copied())
            .init(Init::new(self.r.iter().map(|r| (*r, Value::Int(0)))));
        for i in 1..=self.clients() {
            let (r, g) = (self.r(i), self.g(i));
            builder = builder
                .action(GuardedAction::new(
                    format!("raise{i}"),
                    Expr::all([Expr::var(r).eq(Expr::int(0)), Expr::var(g).eq(Expr::int(0))]),
                    vec![(r, Expr::int(1))],
                ))
                .action(GuardedAction::new(
                    format!("drop{i}"),
                    Expr::all([Expr::var(r).eq(Expr::int(1)), Expr::var(g).eq(Expr::int(1))]),
                    vec![(r, Expr::int(0))],
                ));
        }
        builder.build().expect("assumption is well-formed")
    }

    /// The target guarantee: grant discipline on every wire with
    /// mutual exclusion built into the guards, plus grant fairness of
    /// the chosen strength.
    pub fn target_guarantee(&self) -> ComponentSpec {
        let k = self.clients();
        let mut builder = ComponentSpec::builder("safe-grants")
            .outputs(self.g.iter().copied())
            .inputs(self.r.iter().copied())
            .init(Init::new(self.g.iter().map(|g| (*g, Value::Int(0)))))
            .actions(self.grant_actions());
        // The target always demands *strong* grant fairness — that is
        // the service guarantee being sold. Whether the hypothesis can
        // be discharged depends on the arbiter's strength.
        for i in 0..k {
            builder = builder.strong_fairness([i]);
        }
        for i in k..2 * k {
            builder = builder.weak_fairness([i]);
        }
        builder.build().expect("target is well-formed")
    }

    /// The composition certificate for
    /// `G ∧ (E₁ ⊳ client₁) ∧ (E₂ ⊳ client₂) ∧ (E_arb ⊳ arbiter) ⇒
    /// (TRUE ⊳ safe-grants)`.
    ///
    /// Holds for a [`ArbiterFairness::Strong`] arbiter; fails its `H2b`
    /// obligations for a weak one, with a starvation lasso.
    ///
    /// # Errors
    ///
    /// Structural errors only.
    pub fn prove(&self, options: &CompositionOptions) -> Result<Certificate, SpecError> {
        let mut ags: Vec<AgSpec> = (1..=self.clients())
            .map(|i| AgSpec::new(self.client_env(i), self.client(i)))
            .collect::<Result<_, _>>()?;
        ags.push(AgSpec::new(self.arbiter_env(), self.arbiter())?);
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

    /// The closed product of the three implementations.
    ///
    /// # Errors
    ///
    /// Never fails for these components.
    pub fn product(&self) -> Result<System, SpecError> {
        let clients: Vec<ComponentSpec> = (1..=self.clients()).map(|i| self.client(i)).collect();
        let arbiter = self.arbiter();
        let mut members: Vec<&ComponentSpec> = clients.iter().collect();
        members.push(&arbiter);
        opentla::closed_product(&self.vars, &members)
    }

    /// The mutual-exclusion predicate: no two grants are out at once.
    pub fn mutual_exclusion(&self) -> Expr {
        let k = self.clients();
        let mut conjs = Vec::new();
        for i in 1..=k {
            for j in i + 1..=k {
                conjs.push(
                    Expr::all([
                        Expr::var(self.g(i)).eq(Expr::int(1)),
                        Expr::var(self.g(j)).eq(Expr::int(1)),
                    ])
                    .not(),
                );
            }
        }
        Expr::all(conjs)
    }

    /// The service property for client `i` as a leads-to pair:
    /// `rᵢ = 1 ↝ gᵢ = 1`.
    pub fn request_served(&self, i: usize) -> (Expr, Expr) {
        (
            Expr::var(self.r(i)).eq(Expr::int(1)),
            Expr::var(self.g(i)).eq(Expr::int(1)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_check::{check_invariant, check_liveness, explore, ExploreOptions, LiveTarget};
    use opentla_semantics::{eval, EvalCtx};

    #[test]
    fn strong_arbiter_composes() {
        let w = Mutex::new(ArbiterFairness::Strong);
        let cert = w.prove(&CompositionOptions::default()).unwrap();
        assert!(cert.holds(), "{}", cert.display(w.vars()));
    }

    #[test]
    fn weak_arbiter_fails_liveness_with_starvation_lasso() {
        let w = Mutex::new(ArbiterFairness::Weak);
        let cert = w.prove(&CompositionOptions::default()).unwrap();
        assert!(!cert.holds());
        let failure = cert.first_failure().unwrap();
        assert!(failure.id.starts_with("H2b"), "{}", failure.id);
        // The counterexample is a genuine fair behavior of the product
        // violating SF(grant): replay it semantically.
        let opentla::ObligationStatus::Failed(cx) = &failure.status else {
            panic!("expected failure");
        };
        let lasso = cx.to_lasso();
        let product = w.product().unwrap();
        let ctx = EvalCtx::with_universe(product.universe().clone());
        assert!(
            eval(&product.formula(), &lasso, &ctx).unwrap(),
            "starvation lasso must be a fair product behavior"
        );
    }

    #[test]
    fn mutual_exclusion_invariant() {
        for fairness in [ArbiterFairness::Weak, ArbiterFairness::Strong] {
            let w = Mutex::new(fairness);
            let sys = w.product().unwrap();
            let graph = explore(&sys, &ExploreOptions::default()).unwrap();
            let verdict = check_invariant(&sys, &graph, &w.mutual_exclusion()).unwrap();
            assert!(verdict.holds(), "{fairness:?}");
        }
    }

    #[test]
    fn service_depends_on_fairness_strength() {
        // r1 ↝ g1 holds with the strong arbiter, fails with the weak.
        let strong = Mutex::new(ArbiterFairness::Strong);
        let sys = strong.product().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let (p, q) = strong.request_served(1);
        assert!(check_liveness(&sys, &graph, &LiveTarget::LeadsTo(p, q))
            .unwrap()
            .holds());

        let weak = Mutex::new(ArbiterFairness::Weak);
        let sys = weak.product().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let (p, q) = weak.request_served(1);
        let verdict = check_liveness(&sys, &graph, &LiveTarget::LeadsTo(p, q)).unwrap();
        assert!(!verdict.holds(), "weak fairness admits starvation");
    }

    #[test]
    fn three_clients_compose_with_strong_arbiter() {
        let w = Mutex::with_clients(3, ArbiterFairness::Strong);
        let cert = w.prove(&CompositionOptions::default()).unwrap();
        assert!(cert.holds(), "{}", cert.display(w.vars()));
        // One H1 per client + one for the arbiter.
        let h1s = cert
            .obligations
            .iter()
            .filter(|o| o.id.starts_with("H1"))
            .count();
        assert_eq!(h1s, 4);
        // Mutual exclusion across all pairs.
        let sys = w.product().unwrap();
        let graph =
            opentla_check::explore(&sys, &opentla_check::ExploreOptions::default()).unwrap();
        assert!(
            opentla_check::check_invariant(&sys, &graph, &w.mutual_exclusion())
                .unwrap()
                .holds()
        );
    }

    #[test]
    fn three_clients_weak_arbiter_starves() {
        let w = Mutex::with_clients(3, ArbiterFairness::Weak);
        let cert = w.prove(&CompositionOptions::default()).unwrap();
        assert!(!cert.holds());
        assert!(cert.first_failure().unwrap().id.starts_with("H2b"));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn one_client_rejected() {
        let _ = Mutex::with_clients(1, ArbiterFairness::Weak);
    }

    #[test]
    fn grants_only_to_requesters() {
        let w = Mutex::new(ArbiterFairness::Strong);
        let sys = w.product().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        // g_i = 1 ⇒ the grant was preceded by a request; as a state
        // invariant: g_i ⇒ r_i ∨ … actually r_i may have been dropped
        // only while granted, so g_i = 1 ∧ r_i = 0 is transiently legal
        // (after release, before revoke). The real invariant: a grant
        // never appears without a request having been up — check the
        // step invariant "g_i rises only when r_i = 1".
        for i in [1usize, 2] {
            let rise_only_when_requested = Expr::all([
                Expr::prime(w.g(i)).eq(Expr::int(1)),
                Expr::var(w.g(i)).eq(Expr::int(0)),
            ])
            .implies(Expr::var(w.r(i)).eq(Expr::int(1)));
            let all_vars: Vec<_> = w.vars().iter().collect();
            let verdict = opentla_check::check_step_invariant(
                &sys,
                &graph,
                &rise_only_when_requested,
                &all_vars,
            )
            .unwrap();
            // check_step_invariant checks [A]_v; we want □A — every
            // step must satisfy the implication, and stutters do
            // trivially (antecedent false). The subscript trick: with
            // v = all vars, non-stuttering steps must satisfy A.
            assert!(verdict.holds(), "client {i}");
        }
    }
}
