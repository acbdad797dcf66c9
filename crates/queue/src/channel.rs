//! The two-phase handshake channel (Figure 2 of the paper).

use opentla_kernel::{Domain, Expr, State, Value, VarId, Vars};

/// A channel `c` of the two-phase handshake protocol: the triple
/// `⟨c.sig, c.ack, c.val⟩`.
///
/// The channel is ready for *sending* when `c.sig = c.ack`; a value `v`
/// is sent by setting `c.val := v` and complementing `c.sig`; receipt
/// is acknowledged by complementing `c.ack` (Figure 2).
#[derive(Clone, Debug)]
pub struct Channel {
    name: String,
    /// The sender's signal bit `c.sig`.
    pub sig: VarId,
    /// The receiver's acknowledge bit `c.ack`.
    pub ack: VarId,
    /// The data wire `c.val`.
    pub val: VarId,
}

impl Channel {
    /// Declares the three wires of a channel named `name`, with data
    /// values ranging over `values`.
    pub fn declare(vars: &mut Vars, name: impl Into<String>, values: &Domain) -> Channel {
        let name = name.into();
        Channel {
            sig: vars.declare(format!("{name}.sig"), Domain::bits()),
            ack: vars.declare(format!("{name}.ack"), Domain::bits()),
            val: vars.declare(format!("{name}.val"), values.clone()),
            name,
        }
    }

    /// The channel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All three wires, `⟨c.sig, c.ack, c.val⟩`.
    pub fn all_vars(&self) -> [VarId; 3] {
        [self.sig, self.ack, self.val]
    }

    /// The sender-owned pair `c.snd = ⟨c.sig, c.val⟩`.
    pub fn snd_vars(&self) -> [VarId; 2] {
        [self.sig, self.val]
    }

    /// `c.sig = c.ack`: ready for the next send.
    pub fn ready_to_send(&self) -> Expr {
        Expr::var(self.sig).eq(Expr::var(self.ack))
    }

    /// `c.sig ≠ c.ack`: a value is in flight, awaiting acknowledgment.
    pub fn ready_to_ack(&self) -> Expr {
        Expr::var(self.sig).ne(Expr::var(self.ack))
    }

    /// The updates of the `Send(v, c)` action: `c.val := v`,
    /// `c.sig := 1 − c.sig`. Guard separately with
    /// [`Channel::ready_to_send`].
    pub fn send_updates(&self, v: &Value) -> Vec<(VarId, Expr)> {
        vec![
            (self.val, Expr::con(v.clone())),
            (self.sig, Expr::int(1).sub(Expr::var(self.sig))),
        ]
    }

    /// A `Send` whose value is computed by an expression (the queue's
    /// `Send(Head(q), o)`).
    pub fn send_expr_updates(&self, v: Expr) -> Vec<(VarId, Expr)> {
        vec![
            (self.val, v),
            (self.sig, Expr::int(1).sub(Expr::var(self.sig))),
        ]
    }

    /// The updates of the `Ack(c)` action: `c.ack := 1 − c.ack`. Guard
    /// separately with [`Channel::ready_to_ack`].
    pub fn ack_updates(&self) -> Vec<(VarId, Expr)> {
        vec![(self.ack, Expr::int(1).sub(Expr::var(self.ack)))]
    }

    /// The sequence of values currently in flight on the channel:
    /// `⟨c.val⟩` if unacknowledged, `⟨⟩` otherwise. This is the middle
    /// term of the double-queue refinement mapping
    /// `q̄ = q₂ ∘ mid(z) ∘ q₁`.
    pub fn in_flight(&self) -> Expr {
        self.ready_to_ack()
            .ite(Expr::MkSeq(vec![Expr::var(self.val)]), Expr::empty_seq())
    }
}

/// One row of the paper's Figure 2 table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HandshakeStep {
    /// What happened, e.g. `"37 sent"`.
    pub label: String,
    /// `c.ack` after the step.
    pub ack: i64,
    /// `c.sig` after the step.
    pub sig: i64,
    /// `c.val` after the step (`None` before the first send).
    pub val: Option<i64>,
}

/// Replays the protocol of Figure 2 for a sequence of values, starting
/// from the initial state `c.sig = c.ack = 0`, alternating
/// send/acknowledge — regenerating the paper's table.
///
/// # Panics
///
/// Panics if the internal transition expressions fail to evaluate —
/// impossible for a well-formed channel over a domain containing the
/// sent values.
pub fn handshake_trace(values: &[i64]) -> Vec<HandshakeStep> {
    let mut vars = Vars::new();
    let domain = Domain::int_range(
        values.iter().copied().min().unwrap_or(0),
        values.iter().copied().max().unwrap_or(0),
    );
    let c = Channel::declare(&mut vars, "c", &domain);
    // State layout: [sig, ack, val].
    let mut state = State::new(vec![Value::Int(0), Value::Int(0), Value::Int(values[0])]);
    let mut out = vec![HandshakeStep {
        label: "initial state".into(),
        ack: 0,
        sig: 0,
        val: None,
    }];
    let get = |s: &State, v: VarId| s.get(v).as_int().expect("bits are ints");
    for (k, v) in values.iter().enumerate() {
        // Send.
        assert!(c.ready_to_send().holds_state(&state).unwrap());
        let updates: Vec<(VarId, Value)> = c
            .send_updates(&Value::Int(*v))
            .into_iter()
            .map(|(var, e)| (var, e.eval_state(&state).unwrap()))
            .collect();
        state = state.with(&updates);
        out.push(HandshakeStep {
            label: format!("{v} sent"),
            ack: get(&state, c.ack),
            sig: get(&state, c.sig),
            val: Some(get(&state, c.val)),
        });
        // Acknowledge — except after the last send, matching Figure 2's
        // trailing "19 sent" column.
        if k + 1 < values.len() {
            assert!(c.ready_to_ack().holds_state(&state).unwrap());
            let updates: Vec<(VarId, Value)> = c
                .ack_updates()
                .into_iter()
                .map(|(var, e)| (var, e.eval_state(&state).unwrap()))
                .collect();
            state = state.with(&updates);
            out.push(HandshakeStep {
                label: format!("{v} acked"),
                ack: get(&state, c.ack),
                sig: get(&state, c.sig),
                val: Some(get(&state, c.val)),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_kernel::StatePair;

    fn setup() -> (Vars, Channel) {
        let mut vars = Vars::new();
        let c = Channel::declare(&mut vars, "c", &Domain::int_range(0, 3));
        (vars, c)
    }

    #[test]
    fn declares_three_wires() {
        let (vars, c) = setup();
        assert_eq!(vars.name(c.sig), "c.sig");
        assert_eq!(vars.name(c.ack), "c.ack");
        assert_eq!(vars.name(c.val), "c.val");
        assert_eq!(c.name(), "c");
        assert_eq!(c.all_vars(), [c.sig, c.ack, c.val]);
        assert_eq!(c.snd_vars(), [c.sig, c.val]);
    }

    #[test]
    fn readiness_predicates() {
        let (_, c) = setup();
        let idle = State::new(vec![Value::Int(0), Value::Int(0), Value::Int(0)]);
        let pending = State::new(vec![Value::Int(1), Value::Int(0), Value::Int(2)]);
        assert!(c.ready_to_send().holds_state(&idle).unwrap());
        assert!(!c.ready_to_ack().holds_state(&idle).unwrap());
        assert!(c.ready_to_ack().holds_state(&pending).unwrap());
        assert!(!c.ready_to_send().holds_state(&pending).unwrap());
    }

    #[test]
    fn in_flight_sequence() {
        let (_, c) = setup();
        let idle = State::new(vec![Value::Int(0), Value::Int(0), Value::Int(0)]);
        let pending = State::new(vec![Value::Int(1), Value::Int(0), Value::Int(2)]);
        assert_eq!(c.in_flight().eval_state(&idle).unwrap(), Value::empty_seq());
        assert_eq!(
            c.in_flight().eval_state(&pending).unwrap(),
            Value::seq(vec![Value::Int(2)])
        );
    }

    #[test]
    fn send_then_ack_round_trip() {
        let (_, c) = setup();
        let s0 = State::new(vec![Value::Int(0), Value::Int(0), Value::Int(0)]);
        let send: Vec<(VarId, Value)> = c
            .send_updates(&Value::Int(3))
            .into_iter()
            .map(|(v, e)| (v, e.eval_state(&s0).unwrap()))
            .collect();
        let s1 = s0.with(&send);
        assert_eq!(s1.get(c.sig), &Value::Int(1));
        assert_eq!(s1.get(c.val), &Value::Int(3));
        assert!(c.ready_to_ack().holds_state(&s1).unwrap());
        let ack: Vec<(VarId, Value)> = c
            .ack_updates()
            .into_iter()
            .map(|(v, e)| (v, e.eval_state(&s1).unwrap()))
            .collect();
        let s2 = s1.with(&ack);
        assert!(c.ready_to_send().holds_state(&s2).unwrap());
        // The data wire is untouched by the ack.
        assert_eq!(s2.get(c.val), &Value::Int(3));
        let _ = StatePair::new(&s1, &s2);
    }

    #[test]
    fn figure_2_table_regenerated() {
        // The paper's table for sending 37, 4, 19:
        //   ack: 0 0 1 1 0 0
        //   sig: 0 1 1 0 0 1
        //   val: – 37 37 4 4 19
        let trace = handshake_trace(&[37, 4, 19]);
        let acks: Vec<i64> = trace.iter().map(|r| r.ack).collect();
        let sigs: Vec<i64> = trace.iter().map(|r| r.sig).collect();
        let vals: Vec<Option<i64>> = trace.iter().map(|r| r.val).collect();
        assert_eq!(acks, vec![0, 0, 1, 1, 0, 0]);
        assert_eq!(sigs, vec![0, 1, 1, 0, 0, 1]);
        assert_eq!(
            vals,
            vec![None, Some(37), Some(37), Some(4), Some(4), Some(19)]
        );
        assert_eq!(trace[1].label, "37 sent");
        assert_eq!(trace[2].label, "37 acked");
        assert_eq!(trace[5].label, "19 sent");
    }
}
