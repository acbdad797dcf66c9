//! Property-based tests for the kernel: evaluation determinism,
//! renaming/substitution laws, and prime semantics, over randomly
//! generated expressions.

use opentla_kernel::{
    prime_expr, Domain, Expr, Renaming, State, StatePair, Substitution, Value, VarId, Vars,
};
use proptest::prelude::*;

fn world() -> (Vars, VarId, VarId) {
    let mut vars = Vars::new();
    let a = vars.declare("a", Domain::int_range(0, 3));
    let b = vars.declare("b", Domain::int_range(0, 3));
    (vars, a, b)
}

/// Random *state functions* (no primes) over two small integers,
/// producing integer-valued expressions.
fn arb_int_expr() -> BoxedStrategy<Expr> {
    let (_, a, b) = world();
    let leaf = prop_oneof![
        (0..4i64).prop_map(Expr::int),
        Just(Expr::var(a)),
        Just(Expr::var(b)),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x.add(y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x.sub(y)),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, x, y)| c.clone().eq(c).ite(x, y)),
        ]
    })
    .boxed()
}

/// Random boolean state functions.
fn arb_bool_expr() -> BoxedStrategy<Expr> {
    let int = arb_int_expr();
    let leaf = prop_oneof![
        Just(Expr::bool(true)),
        Just(Expr::bool(false)),
        (int.clone(), int.clone()).prop_map(|(x, y)| x.eq(y)),
        (int.clone(), int.clone()).prop_map(|(x, y)| x.lt(y)),
        (int.clone(), int.clone()).prop_map(|(x, y)| x.le(y)),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Expr::not),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x.and(y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x.or(y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x.implies(y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x.equiv(y)),
        ]
    })
    .boxed()
}

fn arb_state() -> impl Strategy<Value = State> {
    (0..4i64, 0..4i64).prop_map(|(x, y)| State::new(vec![Value::Int(x), Value::Int(y)]))
}

proptest! {
    /// Evaluation is deterministic and total on in-domain states.
    #[test]
    fn eval_deterministic(e in arb_bool_expr(), s in arb_state()) {
        let v1 = e.holds_state(&s).unwrap();
        let v2 = e.holds_state(&s).unwrap();
        prop_assert_eq!(v1, v2);
    }

    /// A swap renaming is an involution.
    #[test]
    fn swap_renaming_involutive(e in arb_bool_expr()) {
        let (_, a, b) = world();
        let swap = Renaming::new([(a, b), (b, a)]);
        let twice = swap.expr(&swap.expr(&e));
        prop_assert_eq!(twice, e);
    }

    /// Renaming commutes with evaluation under the swapped state.
    #[test]
    fn renaming_respects_semantics(e in arb_bool_expr(), s in arb_state()) {
        let (_, a, b) = world();
        let swap = Renaming::new([(a, b), (b, a)]);
        let swapped_state =
            State::new(vec![s.get(b).clone(), s.get(a).clone()]);
        let direct = e.holds_state(&swapped_state).unwrap();
        let renamed = swap.expr(&e).holds_state(&s).unwrap();
        prop_assert_eq!(direct, renamed);
    }

    /// The empty substitution is the identity.
    #[test]
    fn empty_substitution_is_identity(e in arb_bool_expr()) {
        let sub = Substitution::default();
        prop_assert_eq!(sub.expr(&e).unwrap(), e);
    }

    /// Substitution respects semantics: evaluating `e[x ↦ f]` on `s`
    /// equals evaluating `e` on `s` with `x` reassigned to `f(s)`.
    #[test]
    fn substitution_respects_semantics(
        e in arb_bool_expr(),
        f in arb_int_expr(),
        s in arb_state(),
    ) {
        let (_, a, _) = world();
        let sub = Substitution::new([(a, f.clone())]);
        let mapped = sub.expr(&e).unwrap();
        let fa = f.eval_state(&s).unwrap();
        let adjusted = s.with(&[(a, fa)]);
        prop_assert_eq!(
            mapped.holds_state(&s).unwrap(),
            e.holds_state(&adjusted).unwrap()
        );
    }

    /// Priming shifts evaluation to the second state:
    /// `e'⟨s,t⟩ = e(t)`.
    #[test]
    fn prime_evaluates_on_next_state(
        e in arb_int_expr(),
        s in arb_state(),
        t in arb_state(),
    ) {
        let primed = prime_expr(&e).unwrap();
        prop_assert_eq!(
            primed.eval_action(StatePair::new(&s, &t)).unwrap(),
            e.eval_state(&t).unwrap()
        );
    }

    /// State functions evaluate identically as actions on a stutter.
    #[test]
    fn state_fn_ignores_next_state(e in arb_bool_expr(), s in arb_state(), t in arb_state()) {
        prop_assert_eq!(
            e.holds_state(&s).unwrap(),
            e.holds_action(StatePair::new(&s, &t)).unwrap()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequence laws: `Head(⟨v⟩ ∘ ρ) = v`, `Tail(⟨v⟩ ∘ ρ) = ρ`,
    /// `|ρ ∘ τ| = |ρ| + |τ|`, and concat associativity.
    #[test]
    fn sequence_laws(
        xs in proptest::collection::vec(0..5i64, 0..4),
        ys in proptest::collection::vec(0..5i64, 0..4),
        zs in proptest::collection::vec(0..5i64, 0..4),
        v in 0..5i64,
    ) {
        let seq = |items: &[i64]| Value::seq(items.iter().map(|i| Value::Int(*i)));
        let rho = seq(&xs);
        let tau = seq(&ys);
        let ups = seq(&zs);
        let single = seq(&[v]);

        let cons = single.concat(&rho).unwrap();
        prop_assert_eq!(cons.head().unwrap(), Value::Int(v));
        prop_assert_eq!(cons.tail().unwrap(), rho.clone());
        prop_assert_eq!(
            rho.concat(&tau).unwrap().len().unwrap(),
            xs.len() + ys.len()
        );
        let left = rho.concat(&tau).unwrap().concat(&ups).unwrap();
        let right = rho.concat(&tau.concat(&ups).unwrap()).unwrap();
        prop_assert_eq!(left, right);
    }
}
