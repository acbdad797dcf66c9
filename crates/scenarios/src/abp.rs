//! The alternating-bit protocol, assumption/guarantee style.
//!
//! Four open components implement reliable, in-order delivery of `K`
//! messages over unreliable-looking wires:
//!
//! * the **sender** owns `s.bit`/`s.val`/`sent` and transmits message
//!   `n` (payload `n` itself) by flipping its bit — but only after the
//!   previous message's acknowledgment came back (`a.bit = s.bit`);
//! * the **forward wire** owns the receiver-side copies
//!   `f.bit`/`f.val` and lazily synchronizes them with the sender's
//!   wires (laziness models loss-with-retransmission: in an untimed
//!   model, a lossy-but-fair medium is indistinguishable from an
//!   arbitrarily slow one);
//! * the **receiver** owns `r.bit` and the delivery counter `recv`,
//!   consuming a message whenever `f.bit` differs from `r.bit`;
//! * the **ack wire** owns `a.bit` and synchronizes it with `r.bit`.
//!
//! Each component's assumption describes exactly the wire discipline
//! its neighbors guarantee — a four-cycle of assumptions, discharged by
//! the Composition Theorem. The certified target is the *reliable
//! channel* specification: `recv` counts monotonically from 0 toward
//! `K`, with `WF` forcing completion. In-order exactly-once content
//! delivery is checked as complete-system invariants.

use opentla::{
    faults, AgSpec, Certificate, ComponentSpec, CompositionOptions, CompositionProblem, SpecError,
};
use opentla_check::{GuardedAction, Init, System};
use opentla_kernel::{Domain, Expr, Formula, Substitution, Value, VarId, Vars};

/// Index of the action named `name` in `system`.
///
/// # Panics
///
/// Panics if no action has that name (the scenario builders below only
/// look up actions they themselves created).
fn action_index(system: &System, name: &str) -> usize {
    system
        .actions()
        .iter()
        .position(|a| a.name() == name)
        .unwrap_or_else(|| panic!("system has no action named {name}"))
}

/// The alternating-bit world for a stream of `K` messages.
#[derive(Clone, Debug)]
pub struct AlternatingBit {
    vars: Vars,
    s_bit: VarId,
    s_val: VarId,
    sent: VarId,
    f_bit: VarId,
    f_val: VarId,
    r_bit: VarId,
    recv: VarId,
    a_bit: VarId,
    messages: i64,
}

impl AlternatingBit {
    /// Builds the world for `messages = K ≥ 1` messages (message `n`
    /// carries payload `n`).
    ///
    /// # Panics
    ///
    /// Panics if `messages` is zero.
    pub fn new(messages: i64) -> AlternatingBit {
        assert!(messages >= 1, "need at least one message");
        let mut vars = Vars::new();
        let payload = Domain::int_range(0, messages - 1);
        let counter = Domain::int_range(0, messages);
        let s_bit = vars.declare("s.bit", Domain::bits());
        let s_val = vars.declare("s.val", payload.clone());
        let sent = vars.declare("sent", counter.clone());
        let f_bit = vars.declare("f.bit", Domain::bits());
        let f_val = vars.declare("f.val", payload);
        let r_bit = vars.declare("r.bit", Domain::bits());
        let recv = vars.declare("recv", counter);
        let a_bit = vars.declare("a.bit", Domain::bits());
        AlternatingBit {
            vars,
            s_bit,
            s_val,
            sent,
            f_bit,
            f_val,
            r_bit,
            recv,
            a_bit,
            messages,
        }
    }

    /// The registry.
    pub fn vars(&self) -> &Vars {
        &self.vars
    }

    /// The number of messages `K`.
    pub fn messages(&self) -> i64 {
        self.messages
    }

    /// The delivery counter variable `recv`.
    pub fn recv(&self) -> VarId {
        self.recv
    }

    /// The sender: transmit the next message once the previous one is
    /// acknowledged.
    pub fn sender(&self) -> ComponentSpec {
        ComponentSpec::builder("sender")
            .outputs([self.s_bit, self.s_val, self.sent])
            .inputs([self.a_bit])
            .init(Init::new([
                (self.s_bit, Value::Int(0)),
                (self.s_val, Value::Int(0)),
                (self.sent, Value::Int(0)),
            ]))
            .action(GuardedAction::new(
                "advance",
                Expr::all([
                    Expr::var(self.a_bit).eq(Expr::var(self.s_bit)),
                    Expr::var(self.sent).lt(Expr::int(self.messages)),
                ]),
                vec![
                    (self.s_val, Expr::var(self.sent)),
                    (self.s_bit, Expr::int(1).sub(Expr::var(self.s_bit))),
                    (self.sent, Expr::var(self.sent).add(Expr::int(1))),
                ],
            ))
            .weak_fairness([0])
            .build()
            .expect("sender is well-formed")
    }

    /// The sender's assumption: the acknowledgment wire only ever flips
    /// *toward* the sender's current bit (acks are never spurious).
    pub fn sender_env(&self) -> ComponentSpec {
        ComponentSpec::builder("ack-discipline")
            .outputs([self.a_bit])
            .inputs([self.s_bit])
            .init(Init::new([(self.a_bit, Value::Int(0))]))
            .action(GuardedAction::new(
                "ack",
                Expr::var(self.a_bit).ne(Expr::var(self.s_bit)),
                vec![(self.a_bit, Expr::var(self.s_bit))],
            ))
            .build()
            .expect("assumption is well-formed")
    }

    /// The forward wire: lazily copies the sender's wires.
    pub fn forward_wire(&self) -> ComponentSpec {
        ComponentSpec::builder("fwd-wire")
            .outputs([self.f_bit, self.f_val])
            .inputs([self.s_bit, self.s_val])
            .init(Init::new([
                (self.f_bit, Value::Int(0)),
                (self.f_val, Value::Int(0)),
            ]))
            .action(GuardedAction::new(
                "sync_f",
                Expr::var(self.f_bit).ne(Expr::var(self.s_bit)),
                vec![
                    (self.f_bit, Expr::var(self.s_bit)),
                    (self.f_val, Expr::var(self.s_val)),
                ],
            ))
            .weak_fairness([0])
            .build()
            .expect("wire is well-formed")
    }

    /// The forward wire's assumption: the sender changes its wires only
    /// by a proper transmission — new payload plus bit flip, and only
    /// when the handshake round-trip has completed (`a.bit = s.bit`).
    pub fn forward_env(&self) -> ComponentSpec {
        let sends = GuardedAction::family("send", (0..self.messages).map(Value::Int), |v| {
            (
                Expr::var(self.a_bit).eq(Expr::var(self.s_bit)),
                vec![
                    (self.s_val, Expr::con(v.clone())),
                    (self.s_bit, Expr::int(1).sub(Expr::var(self.s_bit))),
                ],
            )
        });
        ComponentSpec::builder("send-discipline")
            .outputs([self.s_bit, self.s_val])
            .inputs([self.a_bit])
            .init(Init::new([
                (self.s_bit, Value::Int(0)),
                (self.s_val, Value::Int(0)),
            ]))
            .actions(sends)
            .build()
            .expect("assumption is well-formed")
    }

    /// The receiver: consume a fresh message and flip the ack bit.
    pub fn receiver(&self) -> ComponentSpec {
        ComponentSpec::builder("receiver")
            .outputs([self.r_bit, self.recv])
            .inputs([self.f_bit, self.f_val])
            .init(Init::new([
                (self.r_bit, Value::Int(0)),
                (self.recv, Value::Int(0)),
            ]))
            .action(GuardedAction::new(
                "receive",
                Expr::all([
                    Expr::var(self.f_bit).ne(Expr::var(self.r_bit)),
                    Expr::var(self.recv).lt(Expr::int(self.messages)),
                ]),
                vec![
                    (self.r_bit, Expr::var(self.f_bit)),
                    (self.recv, Expr::var(self.recv).add(Expr::int(1))),
                ],
            ))
            .weak_fairness([0])
            .build()
            .expect("receiver is well-formed")
    }

    /// The receiver's assumption: the forward wire flips only when the
    /// receiver has consumed the previous message (`f.bit = r.bit`),
    /// and then delivers exactly the next in-order payload — which is
    /// the receiver's own count.
    pub fn receiver_env(&self) -> ComponentSpec {
        ComponentSpec::builder("delivery-discipline")
            .outputs([self.f_bit, self.f_val])
            .inputs([self.r_bit, self.recv])
            .init(Init::new([
                (self.f_bit, Value::Int(0)),
                (self.f_val, Value::Int(0)),
            ]))
            .action(GuardedAction::new(
                "deliver",
                Expr::all([
                    Expr::var(self.f_bit).eq(Expr::var(self.r_bit)),
                    Expr::var(self.recv).lt(Expr::int(self.messages)),
                ]),
                vec![
                    (self.f_val, Expr::var(self.recv)),
                    (self.f_bit, Expr::int(1).sub(Expr::var(self.f_bit))),
                ],
            ))
            .build()
            .expect("assumption is well-formed")
    }

    /// The ack wire: lazily copies the receiver's bit back.
    pub fn ack_wire(&self) -> ComponentSpec {
        ComponentSpec::builder("ack-wire")
            .outputs([self.a_bit])
            .inputs([self.r_bit])
            .init(Init::new([(self.a_bit, Value::Int(0))]))
            .action(GuardedAction::new(
                "sync_a",
                Expr::var(self.a_bit).ne(Expr::var(self.r_bit)),
                vec![(self.a_bit, Expr::var(self.r_bit))],
            ))
            .weak_fairness([0])
            .build()
            .expect("wire is well-formed")
    }

    /// The ack wire's assumption: the receiver's bit flips only toward
    /// the forward wire's bit.
    pub fn ack_env(&self) -> ComponentSpec {
        ComponentSpec::builder("consume-discipline")
            .outputs([self.r_bit])
            .inputs([self.f_bit])
            .init(Init::new([(self.r_bit, Value::Int(0))]))
            .action(GuardedAction::new(
                "consume",
                Expr::var(self.r_bit).ne(Expr::var(self.f_bit)),
                vec![(self.r_bit, Expr::var(self.f_bit))],
            ))
            .build()
            .expect("assumption is well-formed")
    }

    /// The certified target: the *reliable channel* — `recv` counts
    /// monotonically from 0, one step at a time, with `WF` forcing it
    /// to `K`.
    pub fn reliable_channel(&self) -> ComponentSpec {
        ComponentSpec::builder("reliable-channel")
            .outputs([self.recv])
            .init(Init::new([(self.recv, Value::Int(0))]))
            .action(GuardedAction::new(
                "deliver_next",
                Expr::var(self.recv).lt(Expr::int(self.messages)),
                vec![(self.recv, Expr::var(self.recv).add(Expr::int(1)))],
            ))
            .weak_fairness([0])
            .build()
            .expect("target is well-formed")
    }

    /// Certifies, via the Composition Theorem over the four-cycle of
    /// assumptions, that the protocol implements the reliable channel:
    /// `G ∧ (E_s ⊳ sender) ∧ (E_f ⊳ fwd) ∧ (E_r ⊳ receiver) ∧
    /// (E_a ⊳ ack) ⇒ (TRUE ⊳ reliable-channel)`.
    ///
    /// # Errors
    ///
    /// Structural errors only.
    pub fn prove(&self, options: &CompositionOptions) -> Result<Certificate, SpecError> {
        let ags = [
            AgSpec::new(self.sender_env(), self.sender())?,
            AgSpec::new(self.forward_env(), self.forward_wire())?,
            AgSpec::new(self.receiver_env(), self.receiver())?,
            AgSpec::new(self.ack_env(), self.ack_wire())?,
        ];
        let true_env = ComponentSpec::builder("TRUE").build()?;
        let target = AgSpec::new(true_env, self.reliable_channel())?;
        let problem = CompositionProblem {
            vars: &self.vars,
            components: ags.iter().collect(),
            target: &target,
            mapping: Substitution::default(),
        };
        opentla::compose(&problem, options)
    }

    /// The complete protocol system.
    ///
    /// # Errors
    ///
    /// Never fails for the components built here.
    pub fn complete_system(&self) -> Result<System, SpecError> {
        let sender = self.sender();
        let fwd = self.forward_wire();
        let recv = self.receiver();
        let ack = self.ack_wire();
        opentla::closed_product(&self.vars, &[&sender, &fwd, &recv, &ack])
    }

    /// The complete protocol over a *lossy* forward wire: alongside
    /// the faithful `sync_f`, the fault variant `fault:lossy[sync_f]`
    /// completes the bit handshake but drops the payload update, so the
    /// receiver consumes whatever stale value sits on the wire.
    ///
    /// This is the flagship adversarial environment for the receiver's
    /// `E_r ⊳ M_r`: the lossy wire eventually delivers a wrong payload,
    /// breaking [`AlternatingBit::receiver_assumption`] — while the
    /// receiver's own guarantee keeps holding, exactly the one-step-
    /// longer margin `⊳` demands (see the `adversarial_robustness`
    /// integration tests).
    ///
    /// # Errors
    ///
    /// Never fails for the components built here.
    pub fn lossy_system(&self) -> Result<System, SpecError> {
        let sys = self.complete_system()?;
        let sync_f = action_index(&sys, "sync_f");
        Ok(faults::lossy(&sys, &[sync_f], &[self.f_val])?)
    }

    /// The complete protocol over *duplicating* wires: fault variants
    /// of `sync_f` and `sync_a` that fire twice in one step.
    ///
    /// Both wires are bit-flip handshakes — firing disables the guard —
    /// so the duplicates are unsatisfiable and the faulted state space
    /// *equals* the original's: the protocol tolerates duplication by
    /// construction. (That is the classic alternating-bit insight, here
    /// surfaced mechanically by a fault combinator.)
    ///
    /// # Errors
    ///
    /// Never fails for the components built here.
    pub fn duplicating_system(&self) -> Result<System, SpecError> {
        let sys = self.complete_system()?;
        let targets = [action_index(&sys, "sync_f"), action_index(&sys, "sync_a")];
        Ok(faults::duplicate(&sys, &targets)?)
    }

    /// The receiver's assumption `E_r` (delivery discipline) as a
    /// safety formula — what the lossy wire of
    /// [`AlternatingBit::lossy_system`] breaks.
    pub fn receiver_assumption(&self) -> Formula {
        self.receiver_env().safety_formula()
    }

    /// The receiver's guarantee `M_r` as a safety formula.
    pub fn receiver_guarantee(&self) -> Formula {
        self.receiver().safety_formula()
    }

    /// The sender's guarantee `M_s` as a safety formula — a guarantee a
    /// saboteur of the wire-side invariants cannot touch (see the
    /// `adversarial_robustness` integration tests).
    pub fn sender_guarantee(&self) -> Formula {
        self.sender().safety_formula()
    }

    /// The in-order content invariant: an undelivered message on the
    /// forward wire carries exactly the next expected payload.
    pub fn in_order_invariant(&self) -> Expr {
        Expr::var(self.f_bit)
            .ne(Expr::var(self.r_bit))
            .implies(Expr::var(self.f_val).eq(Expr::var(self.recv)))
    }

    /// The counting invariant: the receiver never runs ahead of the
    /// sender, and lags by at most one message.
    pub fn counting_invariant(&self) -> Expr {
        Expr::all([
            Expr::var(self.recv).le(Expr::var(self.sent)),
            Expr::var(self.sent).le(Expr::var(self.recv).add(Expr::int(1))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_check::{check_invariant, check_liveness, explore, ExploreOptions, LiveTarget};

    #[test]
    fn composition_certifies_reliable_delivery() {
        let w = AlternatingBit::new(3);
        let cert = w.prove(&CompositionOptions::default()).unwrap();
        assert!(cert.holds(), "{}", cert.display(w.vars()));
        // Four circularly-discharged assumptions.
        let h1s = cert
            .obligations
            .iter()
            .filter(|o| o.id.starts_with("H1"))
            .count();
        assert_eq!(h1s, 4);
        // The target's WF is a genuine liveness obligation.
        assert!(cert.obligations.iter().any(|o| o.id.starts_with("H2b")));
    }

    #[test]
    fn protocol_invariants() {
        let w = AlternatingBit::new(3);
        let sys = w.complete_system().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert!(check_invariant(&sys, &graph, &w.in_order_invariant())
            .unwrap()
            .holds());
        assert!(check_invariant(&sys, &graph, &w.counting_invariant())
            .unwrap()
            .holds());
    }

    #[test]
    fn all_messages_eventually_delivered() {
        let w = AlternatingBit::new(2);
        let sys = w.complete_system().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let done = Expr::var(w.recv()).eq(Expr::int(2));
        assert!(check_liveness(&sys, &graph, &LiveTarget::Eventually(done))
            .unwrap()
            .holds());
    }

    #[test]
    fn no_delivery_if_the_forward_wire_stalls() {
        // Drop the forward wire's fairness: the protocol may stall with
        // a message forever in flight.
        let w = AlternatingBit::new(2);
        let sender = w.sender();
        let lazy_fwd = ComponentSpec::builder("lazy-fwd")
            .outputs(w.forward_wire().outputs().to_vec())
            .inputs(w.forward_wire().inputs().to_vec())
            .init(w.forward_wire().init().clone())
            .actions(w.forward_wire().actions().to_vec())
            .build()
            .unwrap();
        let recv = w.receiver();
        let ack = w.ack_wire();
        let sys = opentla::closed_product(w.vars(), &[&sender, &lazy_fwd, &recv, &ack]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let done = Expr::var(w.recv()).eq(Expr::int(2));
        let verdict = check_liveness(&sys, &graph, &LiveTarget::Eventually(done)).unwrap();
        assert!(!verdict.holds(), "an unfair wire may lose every message");
    }

    #[test]
    fn lossy_wire_breaks_delivery_but_not_the_receiver() {
        let w = AlternatingBit::new(2);
        let faithful = w.complete_system().unwrap();
        let lossy = w.lossy_system().unwrap();
        // The fault genuinely enlarges the behavior space…
        let base = explore(&faithful, &ExploreOptions::default()).unwrap();
        let bad = explore(&lossy, &ExploreOptions::default()).unwrap();
        assert!(bad.len() > base.len());
        // …and breaks in-order delivery (a stale payload is consumed),
        assert!(!check_invariant(&lossy, &bad, &w.in_order_invariant())
            .unwrap()
            .holds());
        // …yet the receiver's own E_r ⊳ M_r still holds: the diagnosis
        // pins the loss on the injected fault, one step before any
        // obligation of the receiver lapses.
        let report = opentla::check_ag_safety_diagnosed(
            &lossy,
            &bad,
            &w.receiver_assumption(),
            &w.receiver_guarantee(),
        )
        .unwrap();
        assert!(report.holds());
        let brk = report.env_break.expect("the lossy wire must break E_r");
        assert_eq!(brk.action.as_deref(), Some("fault:lossy[sync_f]"));
        let text = brk.to_string();
        assert!(
            text.contains("assumption violated by environment"),
            "{text}"
        );
        assert!(
            text.contains(&format!("M held {} steps", brk.step + 1)),
            "{text}"
        );
    }

    #[test]
    fn duplicating_wires_are_tolerated_by_construction() {
        let w = AlternatingBit::new(2);
        let faithful = w.complete_system().unwrap();
        let dup = w.duplicating_system().unwrap();
        // The handshake disables itself, so the duplicates never fire:
        // same states, same transitions, invariants intact.
        let base = explore(&faithful, &ExploreOptions::default()).unwrap();
        let faulted = explore(&dup, &ExploreOptions::default()).unwrap();
        assert_eq!(base.len(), faulted.len());
        assert_eq!(base.edge_count(), faulted.edge_count());
        assert!(check_invariant(&dup, &faulted, &w.in_order_invariant())
            .unwrap()
            .holds());
    }

    #[test]
    fn spurious_ack_breaks_the_sender_assumption() {
        // Replace the ack wire with one that flips arbitrarily: H1 for
        // the sender's assumption must fail.
        let w = AlternatingBit::new(2);
        let noisy_ack = ComponentSpec::builder("noisy-ack")
            .outputs([w.a_bit])
            .init(Init::new([(w.a_bit, Value::Int(0))]))
            .action(GuardedAction::new(
                "flip",
                Expr::bool(true),
                vec![(w.a_bit, Expr::int(1).sub(Expr::var(w.a_bit)))],
            ))
            .weak_fairness([0])
            .build()
            .unwrap();
        let ags = [
            AgSpec::new(w.sender_env(), w.sender()).unwrap(),
            AgSpec::new(w.forward_env(), w.forward_wire()).unwrap(),
            AgSpec::new(w.receiver_env(), w.receiver()).unwrap(),
            AgSpec::new(w.ack_env(), noisy_ack).unwrap(),
        ];
        let true_env = ComponentSpec::builder("TRUE").build().unwrap();
        let target = AgSpec::new(true_env, w.reliable_channel()).unwrap();
        let problem = CompositionProblem {
            vars: w.vars(),
            components: ags.iter().collect(),
            target: &target,
            mapping: Substitution::default(),
        };
        let cert = opentla::compose(&problem, &CompositionOptions::default()).unwrap();
        assert!(!cert.holds());
        let failure = cert.first_failure().unwrap();
        assert!(
            failure.id.starts_with("H1"),
            "the broken wire must be caught at hypothesis 1, got {}",
            failure.id
        );
    }
}
