//! Property-based tests for the trace semantics: suffix algebra,
//! boolean homomorphism, prefix monotonicity, and closure coherence.

use opentla_kernel::{Domain, Expr, Formula, VarId, Vars};
use opentla_semantics::{eval, first_failing_prefix, prefix_sat, random_lasso, EvalCtx, Universe};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn world() -> (Universe, VarId, VarId) {
    let mut vars = Vars::new();
    let x = vars.declare("x", Domain::bits());
    let y = vars.declare("y", Domain::int_range(0, 2));
    (Universe::new(vars), x, y)
}

fn canonical(x: VarId, y: VarId) -> Formula {
    // x starts 0 and every step copies y's parity into x (or stutters).
    Formula::pred(Expr::var(x).eq(Expr::int(0))).and(Formula::act_box(
        Expr::all([
            Expr::prime(x).eq(Expr::var(y)
                .eq(Expr::int(1))
                .ite(Expr::int(1), Expr::int(0))),
            Expr::prime(y).eq(Expr::var(y)),
        ]),
        vec![x],
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Suffix composition: `σ.suffix(i).suffix(j)` and `σ.suffix(i+j)`
    /// denote the same behavior (state-by-state).
    #[test]
    fn suffix_composition(seed in any::<u64>(), i in 0usize..6, j in 0usize..6) {
        let (universe, _, _) = world();
        let mut rng = StdRng::seed_from_u64(seed);
        let sigma = random_lasso(&universe, 5, &mut rng);
        let composed = sigma.suffix(i).suffix(j);
        let direct = sigma.suffix(i + j);
        for k in 0..sigma.len() + 4 {
            prop_assert_eq!(composed.state(k), direct.state(k), "position {}", k);
        }
    }

    /// Boolean homomorphism: evaluation commutes with ∧, ∨, ¬, ⇒, ≡.
    #[test]
    fn boolean_homomorphism(seed in any::<u64>()) {
        let (universe, x, y) = world();
        let mut rng = StdRng::seed_from_u64(seed);
        let sigma = random_lasso(&universe, 5, &mut rng);
        let ctx = EvalCtx::default();
        let p = Formula::pred(Expr::var(x).eq(Expr::int(0))).always();
        let q = Formula::pred(Expr::var(y).eq(Expr::int(1))).eventually();
        let pv = eval(&p, &sigma, &ctx).unwrap();
        let qv = eval(&q, &sigma, &ctx).unwrap();
        prop_assert_eq!(eval(&p.clone().and(q.clone()), &sigma, &ctx).unwrap(), pv && qv);
        prop_assert_eq!(eval(&p.clone().or(q.clone()), &sigma, &ctx).unwrap(), pv || qv);
        prop_assert_eq!(eval(&p.clone().not(), &sigma, &ctx).unwrap(), !pv);
        prop_assert_eq!(
            eval(&p.clone().implies(q.clone()), &sigma, &ctx).unwrap(),
            !pv || qv
        );
        prop_assert_eq!(eval(&p.equiv(q), &sigma, &ctx).unwrap(), pv == qv);
    }

    /// Prefix satisfaction is antitone: a satisfiable longer prefix
    /// means every shorter prefix is satisfiable too.
    #[test]
    fn prefix_antitone(seed in any::<u64>(), n in 1usize..8) {
        let (universe, x, y) = world();
        let f = canonical(x, y);
        let mut rng = StdRng::seed_from_u64(seed);
        let sigma = random_lasso(&universe, 6, &mut rng);
        let ctx = EvalCtx::default();
        let longer = prefix_sat(&f, &sigma.prefix(n + 1), &ctx).unwrap();
        let shorter = prefix_sat(&f, &sigma.prefix(n), &ctx).unwrap();
        prop_assert!(!longer || shorter);
    }

    /// Closure coherence: `σ ⊨ C(F)` iff the first failing prefix is
    /// `None`, iff every individual prefix up to the lasso bound
    /// satisfies `F`.
    #[test]
    fn closure_coherence(seed in any::<u64>()) {
        let (universe, x, y) = world();
        let f = canonical(x, y);
        let mut rng = StdRng::seed_from_u64(seed);
        let sigma = random_lasso(&universe, 6, &mut rng);
        let ctx = EvalCtx::default();
        let closure = eval(&f.clone().closure(), &sigma, &ctx).unwrap();
        let ffp = first_failing_prefix(&f, &sigma, &ctx).unwrap();
        prop_assert_eq!(closure, ffp.is_none());
        let manual = (1..=sigma.len() + 1)
            .all(|n| prefix_sat(&f, &sigma.prefix(n), &ctx).unwrap());
        prop_assert_eq!(closure, manual);
    }

    /// For a canonical safety formula, lasso satisfaction equals
    /// closure satisfaction (safety = its own closure), evaluated two
    /// independent ways.
    #[test]
    fn safety_lasso_vs_closure(seed in any::<u64>()) {
        let (universe, x, y) = world();
        let f = canonical(x, y);
        let mut rng = StdRng::seed_from_u64(seed);
        let sigma = random_lasso(&universe, 6, &mut rng);
        let ctx = EvalCtx::default();
        prop_assert_eq!(
            eval(&f, &sigma, &ctx).unwrap(),
            eval(&f.clone().closure(), &sigma, &ctx).unwrap()
        );
    }

    /// `□` distributes over `∧` and `◇` over `∨`.
    #[test]
    fn temporal_distribution(seed in any::<u64>()) {
        let (universe, x, y) = world();
        let mut rng = StdRng::seed_from_u64(seed);
        let sigma = random_lasso(&universe, 5, &mut rng);
        let ctx = EvalCtx::default();
        let p = Formula::pred(Expr::var(x).eq(Expr::int(0)));
        let q = Formula::pred(Expr::var(y).ne(Expr::int(2)));
        prop_assert_eq!(
            eval(&p.clone().and(q.clone()).always(), &sigma, &ctx).unwrap(),
            eval(&p.clone().always().and(q.clone().always()), &sigma, &ctx).unwrap()
        );
        prop_assert_eq!(
            eval(&p.clone().or(q.clone()).eventually(), &sigma, &ctx).unwrap(),
            eval(
                &p.clone().eventually().or(q.clone().eventually()),
                &sigma,
                &ctx
            )
            .unwrap()
        );
    }

    /// The `∃` search is sound: whenever it claims a witness for
    /// `∃y : □(y = x)`, direct substitution of the witness idea (copy
    /// x) confirms it; and the unsatisfiable `∃y : y = 0 ∧ y = 1`
    /// always fails.
    #[test]
    fn exists_soundness(seed in any::<u64>()) {
        let (universe, x, y) = world();
        let mut rng = StdRng::seed_from_u64(seed);
        let sigma = random_lasso(&universe, 4, &mut rng);
        let ctx = EvalCtx::with_universe(universe.clone());
        let copy = Formula::exists(
            vec![y],
            Formula::pred(Expr::var(y).eq(Expr::var(x))).always(),
        );
        prop_assert!(eval(&copy, &sigma, &ctx).unwrap(), "copy witness always exists");
        let absurd = Formula::exists(
            vec![y],
            Formula::pred(Expr::all([
                Expr::var(y).eq(Expr::int(0)),
                Expr::var(y).eq(Expr::int(1)),
            ])),
        );
        prop_assert!(!eval(&absurd, &sigma, &ctx).unwrap());
    }
}
