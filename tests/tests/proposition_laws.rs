//! Semantic validation of Propositions 1, 3, and 4 over randomly
//! generated canonical components and exhaustively enumerated behavior
//! sets — the syntactic proof rules checked against the trace oracle.

use opentla::{disjoint, proposition_3_reduction, ComponentSpec};
use opentla_check::{GuardedAction, Init};
use opentla_kernel::{Domain, Expr, Formula, Value, VarId, Vars};
use opentla_semantics::{all_lassos, eval, EvalCtx, Universe};
use proptest::prelude::*;

/// A random guarded action over two bit variables: `if a = ga then
/// target := tv`, where the guard variable, guard value, target, and
/// target value are drawn.
fn arb_action(vars: [VarId; 2]) -> impl Strategy<Value = GuardedAction> {
    (0..2usize, 0..2i64, 0..2usize, 0..2i64).prop_map(move |(gv, gval, tv, tval)| {
        GuardedAction::new(
            format!("a{gv}{gval}{tv}{tval}"),
            Expr::var(vars[gv]).eq(Expr::int(gval)),
            vec![(vars[tv], Expr::int(tval))],
        )
    })
}

fn two_bit_world() -> (Vars, VarId, VarId) {
    let mut vars = Vars::new();
    let a = vars.declare("a", Domain::bits());
    let b = vars.declare("b", Domain::bits());
    (vars, a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// **Proposition 1**, semantically: for a random canonical
    /// component `Init ∧ □[N]_v ∧ WF(sub-action)`, the closure computed
    /// syntactically (the safety part) agrees with the *semantic*
    /// closure (every prefix extendable) on every lasso of the
    /// two-bit universe. (Behavior length is kept small because the
    /// semantic side runs the bounded extension search per prefix.)
    #[test]
    fn proposition_1_semantic(
        act1 in two_bit_world_actions(),
        act2 in two_bit_world_actions(),
        fair_first in any::<bool>(),
    ) {
        let (vars, a, b) = two_bit_world();
        let component = ComponentSpec::builder("rand")
            .outputs([a, b])
            .init(Init::new([(a, Value::Int(0)), (b, Value::Int(0))]))
            .action(act1)
            .action(act2)
            .weak_fairness([usize::from(!fair_first)])
            .build()
            .unwrap();
        let full = component.formula();
        let syntactic_closure = component.closure(); // Proposition 1.
        let universe = Universe::new(vars);
        let ctx = EvalCtx::with_universe(universe.clone());
        for sigma in all_lassos(&universe, 2) {
            // Semantic closure of the full formula: C(full).
            let semantic = eval(&full.clone().closure(), &sigma, &ctx).unwrap();
            let syntactic = eval(&syntactic_closure, &sigma, &ctx).unwrap();
            prop_assert_eq!(
                semantic, syntactic,
                "Proposition 1 disagrees on {:?}", sigma
            );
        }
    }

    /// **Proposition 4**, semantically: for interleaving component
    /// closures `E` (owning `a`) and `M` (owning `b`), every behavior
    /// satisfying `(Init_E ∨ Init_M) ∧ Disjoint(a, b)` satisfies
    /// `C(E) ⊥ C(M)`.
    #[test]
    fn proposition_4_semantic(
        e_act in two_bit_world_actions(),
        m_act in two_bit_world_actions(),
    ) {
        let (vars, a, b) = two_bit_world();
        // Restrict each action to its owner's variable; skip draws that
        // update the other one (the strategy draws either).
        prop_assume!(e_act.touched().all(|v| v == a));
        prop_assume!(m_act.touched().all(|v| v == b));
        let e = ComponentSpec::builder("E")
            .outputs([a])
            .inputs([b])
            .init(Init::new([(a, Value::Int(0))]))
            .action(e_act)
            .build()
            .unwrap();
        let m = ComponentSpec::builder("M")
            .outputs([b])
            .inputs([a])
            .init(Init::new([(b, Value::Int(0))]))
            .action(m_act)
            .build()
            .unwrap();
        let init_disj = Formula::pred(Expr::any([
            e.init().as_pred(),
            m.init().as_pred(),
        ]));
        let g = disjoint(&[vec![a], vec![b]]);
        let hypothesis = init_disj.and(g);
        let conclusion = e.closure().ortho(m.closure());
        let universe = Universe::new(vars);
        let ctx = EvalCtx::with_universe(universe.clone());
        for sigma in all_lassos(&universe, 3) {
            let h = eval(&hypothesis, &sigma, &ctx).unwrap();
            let c = eval(&conclusion, &sigma, &ctx).unwrap();
            prop_assert!(!h || c, "Proposition 4 fails on {sigma:?}");
        }
    }
}

/// Helper strategy (proptest macros need a named function).
fn two_bit_world_actions() -> impl Strategy<Value = GuardedAction> {
    let (_, a, b) = two_bit_world();
    arb_action([a, b])
}

/// **Proposition 3**, as a validity-level statement over an enumerated
/// universe, with randomized instantiations of `E`, `M`, and `R` drawn
/// from canonical stay-at-zero / follower specs: whenever both
/// hypotheses are valid over the whole behavior set, so is the
/// conclusion.
#[test]
fn proposition_3_validity_combinations() {
    let (vars, a, b) = two_bit_world();
    let universe = Universe::new(vars);
    let ctx = EvalCtx::default();
    let stays = |v: VarId| {
        Formula::pred(Expr::var(v).eq(Expr::int(0)))
            .and(Formula::act_box(Expr::bool(false), vec![v]))
    };
    let follower = |out: VarId, inp: VarId| {
        Formula::pred(Expr::var(out).eq(Expr::int(0))).and(Formula::act_box(
            Expr::all([
                Expr::prime(out).eq(Expr::var(inp)),
                Expr::prime(inp).eq(Expr::var(inp)),
            ]),
            vec![out],
        ))
    };
    let candidates_r = [
        Formula::tt(),
        follower(a, b),
        stays(a),
        disjoint(&[vec![a], vec![b]]),
    ];
    let lassos = all_lassos(&universe, 3);
    let mut checked = 0;
    for r in &candidates_r {
        let red = proposition_3_reduction(stays(b), r.clone(), stays(a), vec![a]);
        let h1_valid = lassos
            .iter()
            .all(|s| eval(&red.implication, s, &ctx).unwrap());
        let h2_valid = lassos
            .iter()
            .all(|s| eval(&red.orthogonality, s, &ctx).unwrap());
        if h1_valid && h2_valid {
            checked += 1;
            for sigma in &lassos {
                assert!(
                    eval(&red.conclusion, sigma, &ctx).unwrap(),
                    "Proposition 3 conclusion fails on {sigma:?} with R = {r:?}"
                );
            }
        }
    }
    assert!(
        checked >= 1,
        "at least one R must make the hypotheses valid"
    );
}

/// The `Disjoint` guarantee of a closed product holds semantically on
/// every behavior the product can take (the structural claim that the
/// `compose` engine records as obligation `G`).
#[test]
fn closed_product_satisfies_disjoint_semantically() {
    use opentla_scenarios::Fig1;
    let w = Fig1::new();
    let sys = opentla::closed_product(w.vars(), &[&w.pi_c(), &w.pi_d()]).unwrap();
    let graph = opentla_check::explore(&sys, &opentla_check::ExploreOptions::default()).unwrap();
    let g = disjoint(&[vec![w.c()], vec![w.d()]]);
    let ctx = EvalCtx::default();
    // Walk a few behaviors of the product and evaluate G on them.
    for &init in graph.init() {
        let mut states = vec![graph.state(init).clone()];
        let mut cur = init;
        for _ in 0..4 {
            match graph.edges(cur).first() {
                Some(e) => {
                    cur = e.target as usize;
                    states.push(graph.state(cur).clone());
                }
                None => break,
            }
        }
        let sigma = opentla_semantics::Lasso::stutter_extend(states).unwrap();
        assert!(eval(&g, &sigma, &ctx).unwrap());
    }
}
