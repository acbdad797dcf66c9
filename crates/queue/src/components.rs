//! The queue process and its environment as canonical components
//! (Figures 4 and 6 of the paper).

use crate::Channel;
use opentla::{ComponentSpec, SpecError};
use opentla_check::{GuardedAction, Init};
use opentla_kernel::{Domain, Expr, Value, VarId};

/// Which fairness conjunct the queue's specification carries.
///
/// The paper notes (Section A.2) that `WF(Q_M)` and
/// `WF(Enq) ∧ WF(Deq)` yield logically equivalent specifications; both
/// styles are provided so that equivalence can be machine-checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FairnessStyle {
    /// `ICL ≜ WF_{⟨i,o,q⟩}(Q_M)` — one condition over `Enq ∨ Deq`.
    #[default]
    Joint,
    /// `WF(Enq) ∧ WF(Deq)` — one condition per action.
    Split,
    /// No fairness: the safety-only queue.
    None,
}

/// The `N`-element queue process of Figure 4 as a canonical component:
///
/// * outputs `m = ⟨input.ack, output.sig, output.val⟩`,
/// * internal `x = ⟨q⟩`,
/// * inputs `e = ⟨input.sig, input.val, output.ack⟩`,
/// * actions `Enq` (acknowledge a pending input and append it to `q`;
///   enabled only when `|q| < N`) and `Deq` (send `Head(q)` on the
///   output channel when it is ready),
/// * fairness per `style`.
///
/// `q` must be declared with domain
/// [`Domain::seqs_up_to`]`(values, capacity)`.
///
/// # Errors
///
/// Propagates [`SpecError`]s from the component builder (none for
/// well-formed inputs).
pub fn queue_component(
    name: impl Into<String>,
    input: &Channel,
    output: &Channel,
    q: VarId,
    capacity: usize,
    style: FairnessStyle,
) -> Result<ComponentSpec, SpecError> {
    let enq = GuardedAction::new(
        "Enq",
        Expr::all([
            input.ready_to_ack(),
            Expr::var(q).len().lt(Expr::int(capacity as i64)),
        ]),
        [
            vec![(
                q,
                Expr::var(q).concat(Expr::MkSeq(vec![Expr::var(input.val)])),
            )],
            input.ack_updates(),
        ]
        .concat(),
    );
    let deq = GuardedAction::new(
        "Deq",
        Expr::all([output.ready_to_send(), Expr::var(q).len().gt(Expr::int(0))]),
        [
            output.send_expr_updates(Expr::var(q).head()),
            vec![(q, Expr::var(q).tail())],
        ]
        .concat(),
    );
    let mut builder = ComponentSpec::builder(name)
        .outputs([input.ack, output.sig, output.val])
        .internals([q])
        .inputs([input.sig, input.val, output.ack])
        .init(Init::new([
            (input.ack, Value::Int(0)),
            (output.sig, Value::Int(0)),
            (q, Value::empty_seq()),
        ]))
        .action(enq)
        .action(deq);
    builder = match style {
        FairnessStyle::Joint => builder.weak_fairness([0, 1]),
        FairnessStyle::Split => builder.weak_fairness([0]).weak_fairness([1]),
        FairnessStyle::None => builder,
    };
    builder.build()
}

/// The queue's environment (Figure 6): sends arbitrary values over
/// `input` (`Put`) and acknowledges values on `output` (`Get`). A
/// safety-only component — exactly the `QE` assumption of the
/// assumption/guarantee specification `QE ⊳ QM`.
///
/// # Errors
///
/// Propagates [`SpecError`]s from the component builder.
pub fn env_component(
    name: impl Into<String>,
    input: &Channel,
    output: &Channel,
    values: &Domain,
) -> Result<ComponentSpec, SpecError> {
    let puts = GuardedAction::family("Put", values.values().to_vec(), |v| {
        (input.ready_to_send(), input.send_updates(v))
    });
    let get = GuardedAction::new("Get", output.ready_to_ack(), output.ack_updates());
    ComponentSpec::builder(name)
        .outputs([input.sig, input.val, output.ack])
        .inputs([input.ack, output.sig, output.val])
        .init(Init::new([
            (input.sig, Value::Int(0)),
            (output.ack, Value::Int(0)),
        ]))
        .actions(puts)
        .action(get)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_kernel::{State, Vars};

    fn setup(n: usize, vals: i64) -> (Vars, Channel, Channel, VarId, Domain) {
        let mut vars = Vars::new();
        let values = Domain::int_range(0, vals - 1);
        let i = Channel::declare(&mut vars, "i", &values);
        let o = Channel::declare(&mut vars, "o", &values);
        let q = vars.declare("q", Domain::seqs_up_to(&values, n));
        (vars, i, o, q, values)
    }

    #[test]
    fn queue_component_shape() {
        let (_, i, o, q, _) = setup(2, 2);
        let qm = queue_component("QM", &i, &o, q, 2, FairnessStyle::Joint).unwrap();
        assert_eq!(qm.outputs(), &[i.ack, o.sig, o.val]);
        assert_eq!(qm.internals(), &[q]);
        assert_eq!(qm.inputs(), &[i.sig, i.val, o.ack]);
        assert_eq!(qm.actions().len(), 2);
        assert_eq!(qm.fairness().len(), 1);
        let split = queue_component("QM", &i, &o, q, 2, FairnessStyle::Split).unwrap();
        assert_eq!(split.fairness().len(), 2);
        let none = queue_component("QM", &i, &o, q, 2, FairnessStyle::None).unwrap();
        assert!(!none.has_fairness());
    }

    #[test]
    fn enq_guard_respects_capacity() {
        let (vars, i, o, q, values) = setup(1, 2);
        let qm = queue_component("QM", &i, &o, q, 1, FairnessStyle::Joint).unwrap();
        let enq = &qm.actions()[0];
        // i pending (sig=1, ack=0), q full (one element, capacity 1).
        let full = State::new(vec![
            Value::Int(1),
            Value::Int(0),
            Value::Int(1), // i
            Value::Int(0),
            Value::Int(0),
            Value::Int(0), // o
            Value::seq(vec![Value::Int(0)]),
        ]);
        assert!(enq.fire(&full, &vars).unwrap().is_none(), "full queue");
        // Same but q empty: fires, appends i.val, flips i.ack.
        let ready = full.with(&[(q, Value::empty_seq())]);
        let next = enq.fire(&ready, &vars).unwrap().expect("enabled");
        assert_eq!(next.get(q), &Value::seq(vec![Value::Int(1)]));
        assert_eq!(next.get(i.ack), &Value::Int(1));
        // Inputs untouched.
        assert_eq!(next.get(i.sig), &Value::Int(1));
        let _ = values;
    }

    #[test]
    fn deq_sends_head() {
        let (vars, i, o, q, _) = setup(2, 3);
        let qm = queue_component("QM", &i, &o, q, 2, FairnessStyle::Joint).unwrap();
        let deq = &qm.actions()[1];
        // o ready (sig=ack=0), q = ⟨2, 1⟩.
        let s = State::new(vec![
            Value::Int(0),
            Value::Int(0),
            Value::Int(0), // i
            Value::Int(0),
            Value::Int(0),
            Value::Int(0), // o
            Value::seq(vec![Value::Int(2), Value::Int(1)]),
        ]);
        let next = deq.fire(&s, &vars).unwrap().expect("enabled");
        assert_eq!(next.get(o.val), &Value::Int(2), "head is sent");
        assert_eq!(next.get(o.sig), &Value::Int(1));
        assert_eq!(next.get(q), &Value::seq(vec![Value::Int(1)]));
        // Not enabled when o is pending.
        let pending = s.with(&[(o.sig, Value::Int(1))]);
        assert!(deq.fire(&pending, &vars).unwrap().is_none());
        // Not enabled when q is empty.
        let empty = s.with(&[(q, Value::empty_seq())]);
        assert!(deq.fire(&empty, &vars).unwrap().is_none());
    }

    #[test]
    fn env_component_shape() {
        let (_, i, o, _, values) = setup(2, 3);
        let qe = env_component("QE", &i, &o, &values).unwrap();
        // One Put per value + Get.
        assert_eq!(qe.actions().len(), 4);
        assert!(!qe.has_fairness());
        assert_eq!(qe.outputs(), &[i.sig, i.val, o.ack]);
    }

    #[test]
    fn env_put_and_get() {
        let (vars, i, o, _, values) = setup(2, 2);
        let qe = env_component("QE", &i, &o, &values).unwrap();
        let s = State::new(vec![
            Value::Int(0),
            Value::Int(0),
            Value::Int(0), // i ready
            Value::Int(1),
            Value::Int(0),
            Value::Int(1), // o pending
            Value::empty_seq(),
        ]);
        // Put(1).
        let put1 = &qe.actions()[1];
        let next = put1.fire(&s, &vars).unwrap().expect("i ready");
        assert_eq!(next.get(i.val), &Value::Int(1));
        assert_eq!(next.get(i.sig), &Value::Int(1));
        // Put not enabled once pending.
        assert!(put1.fire(&next, &vars).unwrap().is_none());
        // Get acks o.
        let get = &qe.actions()[2];
        let next = get.fire(&s, &vars).unwrap().expect("o pending");
        assert_eq!(next.get(o.ack), &Value::Int(1));
    }
}
