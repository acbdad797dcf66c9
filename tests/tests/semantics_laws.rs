//! Property-based validation of the semantic laws the paper states or
//! relies on, sampled over random lasso behaviors.
//!
//! These tests treat the trace evaluator of `opentla-semantics` as the
//! ground truth and check the paper's algebraic claims about `⊳`, `C`,
//! `+v`, and `⊥` (Sections 2.4, 3, 4) against it.

use opentla_kernel::{Domain, Expr, Formula, VarId, Vars};
use opentla_semantics::{eval, random_lasso, EvalCtx, Lasso, Universe};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A two-bit universe with canonical "stays at initial value" specs.
fn world() -> (Universe, VarId, VarId) {
    let mut vars = Vars::new();
    let x = vars.declare("x", Domain::bits());
    let y = vars.declare("y", Domain::bits());
    (Universe::new(vars), x, y)
}

/// `v` stays 0: the canonical safety spec used throughout.
fn stays_zero(v: VarId) -> Formula {
    Formula::pred(Expr::var(v).eq(Expr::int(0))).and(Formula::act_box(Expr::bool(false), vec![v]))
}

fn lassos(seed: u64, count: usize) -> Vec<Lasso> {
    let (universe, _, _) = world();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| random_lasso(&universe, 5, &mut rng))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `⊨ F ⇒ C(F)` — the closure is implied (Section 2.4).
    #[test]
    fn formula_implies_its_closure(seed in any::<u64>()) {
        let (_, x, _) = world();
        let f = stays_zero(x);
        let ctx = EvalCtx::default();
        for sigma in lassos(seed, 16) {
            let holds = eval(&f, &sigma, &ctx).unwrap();
            let closure = eval(&f.clone().closure(), &sigma, &ctx).unwrap();
            prop_assert!(!holds || closure, "F must imply C(F) on {sigma:?}");
        }
    }

    /// For a safety property, `C(F) ≡ F` (it is its own closure).
    #[test]
    fn safety_is_its_own_closure(seed in any::<u64>()) {
        let (_, x, _) = world();
        let f = stays_zero(x);
        let ctx = EvalCtx::default();
        for sigma in lassos(seed, 16) {
            let holds = eval(&f, &sigma, &ctx).unwrap();
            let closure = eval(&f.clone().closure(), &sigma, &ctx).unwrap();
            prop_assert_eq!(holds, closure, "safety: C(F) = F on {:?}", sigma);
        }
    }

    /// `⊨ (E ⊳ M) ⇒ (E ⇒ M)` — `⊳` is stronger than implication
    /// (Section 3: both ⇒ and -▷ are *weaker* than ⊳).
    #[test]
    fn while_plus_implies_implication(seed in any::<u64>()) {
        let (_, x, y) = world();
        let e = stays_zero(y);
        let m = stays_zero(x);
        let ctx = EvalCtx::default();
        for sigma in lassos(seed, 16) {
            let wp = eval(&e.clone().while_plus(m.clone()), &sigma, &ctx).unwrap();
            let imp = eval(&e.clone().implies(m.clone()), &sigma, &ctx).unwrap();
            prop_assert!(!wp || imp);
        }
    }

    /// `⊨ (E ⊳ M) ⇒ (E ⊥ M)` — Section 4.2's observation that the
    /// conjunction `(E -▷ M) ∧ (E ⊥ M)` equals `E ⊳ M` includes the
    /// orthogonality direction.
    #[test]
    fn while_plus_implies_orthogonality(seed in any::<u64>()) {
        let (_, x, y) = world();
        let e = stays_zero(y);
        let m = stays_zero(x);
        let ctx = EvalCtx::default();
        for sigma in lassos(seed, 16) {
            let wp = eval(&e.clone().while_plus(m.clone()), &sigma, &ctx).unwrap();
            let orth = eval(&e.clone().ortho(m.clone()), &sigma, &ctx).unwrap();
            prop_assert!(!wp || orth);
        }
    }

    /// `TRUE ⊳ G ≡ G` (Section 5 uses this to fold the conditional-
    /// implementation guarantee into the theorem).
    #[test]
    fn true_while_plus_is_identity(seed in any::<u64>()) {
        let (_, x, _) = world();
        let g = stays_zero(x);
        let ctx = EvalCtx::default();
        for sigma in lassos(seed, 16) {
            let wp = eval(&Formula::tt().while_plus(g.clone()), &sigma, &ctx).unwrap();
            let plain = eval(&g, &sigma, &ctx).unwrap();
            prop_assert_eq!(wp, plain, "TRUE ⊳ G = G on {:?}", sigma);
        }
    }

    /// `F ⇒ F +v` — the `+` operator weakens (Section 4.1).
    #[test]
    fn plus_weakens(seed in any::<u64>()) {
        let (_, x, y) = world();
        let f = stays_zero(y);
        let ctx = EvalCtx::default();
        for sigma in lassos(seed, 16) {
            let plain = eval(&f, &sigma, &ctx).unwrap();
            let plus = eval(&f.clone().plus(vec![x]), &sigma, &ctx).unwrap();
            prop_assert!(!plain || plus);
        }
    }

    /// Orthogonality is symmetric.
    #[test]
    fn ortho_symmetric(seed in any::<u64>()) {
        let (_, x, y) = world();
        let e = stays_zero(y);
        let m = stays_zero(x);
        let ctx = EvalCtx::default();
        for sigma in lassos(seed, 16) {
            let ab = eval(&e.clone().ortho(m.clone()), &sigma, &ctx).unwrap();
            let ba = eval(&m.clone().ortho(e.clone()), &sigma, &ctx).unwrap();
            prop_assert_eq!(ab, ba);
        }
    }

    /// `SF_v(A) ⇒ WF_v(A)` — strong fairness is stronger.
    #[test]
    fn sf_implies_wf(seed in any::<u64>()) {
        let (universe, x, y) = world();
        // Action: when y = 0, raise x.
        let a = Expr::all([
            Expr::var(y).eq(Expr::int(0)),
            Expr::prime(x).eq(Expr::int(1)),
            Expr::prime(y).eq(Expr::var(y)),
        ]);
        let ctx = EvalCtx::with_universe(universe);
        for sigma in lassos(seed, 16) {
            let sf = eval(&Formula::sf(a.clone(), vec![x]), &sigma, &ctx).unwrap();
            let wf = eval(&Formula::wf(a.clone(), vec![x]), &sigma, &ctx).unwrap();
            prop_assert!(!sf || wf, "SF ⇒ WF on {sigma:?}");
        }
    }

    /// `□` and `◇` are duals: `□F ≡ ¬◇¬F`.
    #[test]
    fn box_diamond_duality(seed in any::<u64>()) {
        let (_, x, _) = world();
        let p = Formula::pred(Expr::var(x).eq(Expr::int(0)));
        let ctx = EvalCtx::default();
        for sigma in lassos(seed, 16) {
            let always = eval(&p.clone().always(), &sigma, &ctx).unwrap();
            let dual = eval(&p.clone().not().eventually().not(), &sigma, &ctx).unwrap();
            prop_assert_eq!(always, dual);
        }
    }

    /// Suffix coherence: `□F` holds iff `F` holds on every suffix
    /// (cross-checking the lasso suffix normalization).
    #[test]
    fn always_matches_manual_suffixes(seed in any::<u64>()) {
        let (_, x, _) = world();
        let p = Formula::pred(Expr::var(x).eq(Expr::int(0)));
        let f = p.clone().always();
        let ctx = EvalCtx::default();
        for sigma in lassos(seed, 8) {
            let direct = eval(&f, &sigma, &ctx).unwrap();
            let manual = (0..sigma.len() + 3)
                .all(|i| eval(&p, &sigma.suffix(i), &ctx).unwrap());
            prop_assert_eq!(direct, manual, "on {:?}", sigma);
        }
    }
}

/// Deterministic spot checks for the `E -▷ M` vs `E ⊳ M` distinction:
/// a simultaneous violation satisfies neither `⊳` nor the conjunction
/// with orthogonality, but a strictly-later system violation satisfies
/// both.
#[test]
fn while_plus_equals_while_and_ortho_on_samples() {
    let (_, x, y) = world();
    let e = stays_zero(y);
    let m = stays_zero(x);
    let ctx = EvalCtx::default();
    let mut rng = StdRng::seed_from_u64(99);
    let (universe, _, _) = world();
    for _ in 0..200 {
        let sigma = random_lasso(&universe, 5, &mut rng);
        // The paper's Section 4.2 identity, now directly expressible:
        // (E ⊳ M) = (E -▷ M) ∧ (E ⊥ M).
        let wp = eval(&e.clone().while_plus(m.clone()), &sigma, &ctx).unwrap();
        let wo = eval(&e.clone().while_op(m.clone()), &sigma, &ctx).unwrap();
        let orth = eval(&e.clone().ortho(m.clone()), &sigma, &ctx).unwrap();
        assert_eq!(
            wp,
            wo && orth,
            "(E ⊳ M) = (E -▷ M) ∧ (E ⊥ M) fails on {sigma:?}"
        );
        // And cross-check -▷ against the first-failure reconstruction.
        let n0 = opentla_semantics::first_failing_prefix(&e, &sigma, &ctx).unwrap();
        let m0 = opentla_semantics::first_failing_prefix(&m, &sigma, &ctx).unwrap();
        let stepwise = match (n0, m0) {
            (_, None) => true,
            (None, Some(_)) => false,
            (Some(n), Some(mm)) => mm >= n,
        };
        let imp = eval(&e.clone().implies(m.clone()), &sigma, &ctx).unwrap();
        assert_eq!(wo, stepwise && imp, "-▷ reconstruction fails on {sigma:?}");
    }
}
