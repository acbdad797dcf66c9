//! Randomized soundness fuzzing of the Composition Theorem engine.
//!
//! Draw two components from a family of simple protocols over the
//! wires `c` and `d`, pair each with an independently drawn assumption
//! about the other wire, and a target built from another draw. Run
//! `compose`. Whenever the certificate says PROVED, the certified
//! conclusion formula `G ∧ (E₁ ⊳ M₁) ∧ (E₂ ⊳ M₂) ⇒ (TRUE ⊳ M)` must be
//! valid over every lasso of the two-bit universe — judged by the
//! independent trace semantics. Mismatched draws that make hypotheses
//! fail are fine (the theorem is sound, not complete); what must never
//! happen is a certified conclusion that a behavior refutes.

use opentla::{compose, disjoint, AgSpec, ComponentSpec, CompositionOptions, CompositionProblem};
use opentla_check::{GuardedAction, Init};
use opentla_kernel::{Domain, Expr, Formula, Substitution, Value, VarId, Vars};
use opentla_semantics::{all_lassos, eval, EvalCtx, Universe};
use proptest::prelude::*;

/// The protocol family: simple safety behaviors of one output wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Proto {
    /// Stays at 0 forever.
    Frozen,
    /// May rise from 0 to 1 (and stay).
    Riser,
    /// Copies the other wire.
    Copier,
    /// Toggles freely.
    Toggler,
}

const PROTOS: [Proto; 4] = [Proto::Frozen, Proto::Riser, Proto::Copier, Proto::Toggler];

fn component(name: &str, proto: Proto, out: VarId, inp: VarId) -> ComponentSpec {
    let mut builder = ComponentSpec::builder(name)
        .outputs([out])
        .inputs([inp])
        .init(Init::new([(out, Value::Int(0))]));
    builder = match proto {
        Proto::Frozen => builder,
        Proto::Riser => builder.action(GuardedAction::new(
            "rise",
            Expr::var(out).eq(Expr::int(0)),
            vec![(out, Expr::int(1))],
        )),
        Proto::Copier => builder.action(GuardedAction::new(
            "copy",
            Expr::bool(true),
            vec![(out, Expr::var(inp))],
        )),
        Proto::Toggler => builder.action(GuardedAction::new(
            "toggle",
            Expr::bool(true),
            vec![(out, Expr::int(1).sub(Expr::var(out)))],
        )),
    };
    builder.build().expect("family members are well-formed")
}

/// The target guarantee owning both wires: union of two protocols.
fn combined(pc: Proto, pd: Proto, c: VarId, d: VarId) -> ComponentSpec {
    let lhs = component("tc", pc, c, d);
    let rhs = component("td", pd, d, c);
    let mut builder = ComponentSpec::builder(format!("target({pc:?},{pd:?})"))
        .outputs([c, d])
        .init(Init::new([(c, Value::Int(0)), (d, Value::Int(0))]));
    for a in lhs.actions().iter().chain(rhs.actions()) {
        builder = builder.action(a.clone());
    }
    builder.build().expect("combined target is well-formed")
}

fn arb_proto() -> impl Strategy<Value = Proto> {
    (0..PROTOS.len()).prop_map(|i| PROTOS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn certified_conclusions_are_semantically_valid(
        guarantee_c in arb_proto(),
        guarantee_d in arb_proto(),
        assume_about_d in arb_proto(),
        assume_about_c in arb_proto(),
        target_c in arb_proto(),
        target_d in arb_proto(),
    ) {
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());

        let m_c = component("M_c", guarantee_c, c, d);
        let m_d = component("M_d", guarantee_d, d, c);
        let e_c = component("E_c", assume_about_d, d, c);
        let e_d = component("E_d", assume_about_c, c, d);
        let ag_c = AgSpec::new(e_c.clone(), m_c.clone()).unwrap();
        let ag_d = AgSpec::new(e_d.clone(), m_d.clone()).unwrap();
        let target_sys = combined(target_c, target_d, c, d);
        let true_env = ComponentSpec::builder("TRUE").build().unwrap();
        let target = AgSpec::new(true_env, target_sys.clone()).unwrap();

        let problem = CompositionProblem {
            vars: &vars,
            components: vec![&ag_c, &ag_d],
            target: &target,
            mapping: Substitution::default(),
        };
        let cert = compose(&problem, &CompositionOptions::default()).unwrap();
        if !cert.holds() {
            // An unprovable instance — fine; the theorem is not
            // complete, and many draws have genuinely false conclusions.
            return Ok(());
        }

        // PROVED: the conclusion must be semantically valid.
        let g = disjoint(&[vec![c], vec![d]]);
        let conclusion = Formula::all([g, ag_c.formula(), ag_d.formula()])
            .implies(target.formula());
        let universe = Universe::new(vars);
        let ctx = EvalCtx::default();
        for sigma in all_lassos(&universe, 3) {
            prop_assert!(
                eval(&conclusion, &sigma, &ctx).unwrap(),
                "certified conclusion refuted on {:?} \
                 (guarantees {:?}/{:?}, assumptions {:?}/{:?}, target {:?}/{:?})",
                sigma, guarantee_c, guarantee_d, assume_about_d, assume_about_c,
                target_c, target_d
            );
        }
    }
}

/// A fixed instance known to be provable, as a smoke check that the
/// fuzz above is not vacuous (some draws must certify).
#[test]
fn at_least_the_identity_instance_certifies() {
    let mut vars = Vars::new();
    let c = vars.declare("c", Domain::bits());
    let d = vars.declare("d", Domain::bits());
    let m_c = component("M_c", Proto::Riser, c, d);
    let m_d = component("M_d", Proto::Riser, d, c);
    let e_c = component("E_c", Proto::Riser, d, c);
    let e_d = component("E_d", Proto::Riser, c, d);
    let ag_c = AgSpec::new(e_c, m_c).unwrap();
    let ag_d = AgSpec::new(e_d, m_d).unwrap();
    let target_sys = combined(Proto::Riser, Proto::Riser, c, d);
    let true_env = ComponentSpec::builder("TRUE").build().unwrap();
    let target = AgSpec::new(true_env, target_sys).unwrap();
    let cert = compose(
        &CompositionProblem {
            vars: &vars,
            components: vec![&ag_c, &ag_d],
            target: &target,
            mapping: Substitution::default(),
        },
        &CompositionOptions::default(),
    )
    .unwrap();
    assert!(cert.holds(), "{}", cert.display(&vars));
}
