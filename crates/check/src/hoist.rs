//! Hoisted state functions: each function a set of expressions shares
//! is read as a mapped variable, so it is evaluated once per distinct
//! key of the slots it reads, not once per occurrence per step.
//!
//! A check that evaluates several expressions on every step of a graph
//! — the `⊳` monitor decides every conjunct of `E` and of `M` on every
//! edge it crosses — evaluates a state function that occurs in several
//! of them, or in one of them several times, once per occurrence per
//! step: the mapped guarantee of a queue chain reads `q̄` (a
//! concatenation of every queue of the chain) or `q̄′` nine times per
//! edge. [`SharedFunctions`] finds those
//! functions `fᵢ`. A [`Hoisting`] names each by a fresh variable `yᵢ`
//! and rewrites an expression with every occurrence of `fᵢ` as `yᵢ`
//! (and of `fᵢ′` as `yᵢ′`). That is a refinement mapping read
//! backwards: under `σ = {yᵢ ↦ fᵢ}` the rewritten expression is the
//! original one, and by the substitution lemma
//! [`image`](crate::image) rests on, evaluating it on the image views
//! of a step (`Images::on_demand`, filled state by state as the check
//! meets them) gives what the original gives on the step itself,
//! wherever it gives a value. So the values live in the one image
//! store, keyed on the codes of the slots each function reads, and a
//! class of states is the image class of the rewritten expressions'
//! footprint (`LazyClasses`).
//!
//! Where some `fᵢ` is undefined at a state, the state has no view; and
//! the rewritten program's errors are not the original's (a primed
//! occurrence in a state function names `yᵢ`). Either way the caller
//! runs the original program on the rows, and its result — value or
//! error — is the answer, the rule of [`image`](crate::image).
//! `crates/check/tests/proptest_compiled.rs` checks that against
//! [`Expr::eval_action`], on steps where a function is undefined too.
//! A mapped step box reads every variable the mapping reads in its last
//! disjunct, `UNCHANGED X`, which would make a class of every state;
//! [`drop_subsumed_unchanged`] removes it where an earlier disjunct
//! decides every step it would.

use crate::compiled::{map_operands, SharedFunctions};
use crate::StateGraph;
use opentla_kernel::{prime_expr, BinOp, Domain, Expr, Substitution, VarId, VarSet, Vars};

/// The functions a set of expressions shares, each named by a fresh
/// variable: see the [module docs](self).
#[derive(Clone, Debug)]
pub struct Hoisting {
    functions: SharedFunctions,
    /// `yᵢ`, by function number.
    fresh: Vec<VarId>,
}

impl Hoisting {
    /// The functions `exprs` share ([`SharedFunctions::of`]), each named
    /// by a variable declared on a clone of `vars`, past every variable
    /// of `vars` and of `exprs`: so no state has a slot for it and no
    /// expression reads it.
    pub fn of<'e, I>(exprs: I, vars: &Vars) -> Hoisting
    where
        I: IntoIterator<Item = &'e Expr>,
        I::IntoIter: Clone,
    {
        let exprs = exprs.into_iter();
        let past = (exprs.clone())
            .filter_map(|e| e.all_vars().iter().map(|v| v.index() + 1).max())
            .max()
            .unwrap_or(0);
        let functions = SharedFunctions::of(exprs);
        let mut names = vars.clone();
        while names.len() < past {
            names.declare("", Domain::bits());
        }
        let fresh = (0..functions.len())
            .map(|i| names.declare(format!("f{i}"), Domain::bits()))
            .collect();
        Hoisting { functions, fresh }
    }

    /// The functions.
    pub fn functions(&self) -> &SharedFunctions {
        &self.functions
    }

    /// `σ = {yᵢ ↦ fᵢ}`: what the rewritten expressions are read under.
    pub fn mapping(&self) -> Substitution {
        Substitution::new((self.fresh.iter().copied()).zip(self.functions.functions().cloned()))
    }

    /// `expr` with every occurrence of a function — the topmost ones —
    /// as its variable, primed for a primed occurrence; `None` where
    /// `expr` has none.
    pub fn rewrite(&self, expr: &Expr) -> Option<Expr> {
        let mut found = false;
        let rewritten = self.replace(expr, &mut found);
        found.then_some(rewritten)
    }

    fn replace(&self, expr: &Expr, found: &mut bool) -> Expr {
        match self.functions.occurrence(expr) {
            Some((f, primed)) => {
                *found = true;
                let y = self.fresh[f];
                if primed {
                    Expr::Prime(y)
                } else {
                    Expr::Var(y)
                }
            }
            None => map_operands(expr, |e| self.replace(e, found)),
        }
    }
}

/// `step_box` as a check over the states of `graph` evaluates it:
/// without a disjunct `UNCHANGED X` — a conjunction of `v′ = v`, every
/// `v` a slot of `graph`'s rows — that an earlier disjunct
/// subsumes: a conjunction of `f′ = f` with `vars(f) ⊆ X`. That is the
/// shape [`Substitution::formula`](opentla_kernel::Substitution::formula)
/// gives a mapped box, `A_σ ∨ (∧ f′ = f) ∨ UNCHANGED X`, `X` every
/// variable `σ` reads; the last disjunct alone would make a class of
/// every state. Dropping it is exact, errors included: the earlier
/// disjunct is evaluated first, and it is false only when some variable
/// of `X` changed, where `UNCHANGED X` is false too, without an error.
/// Rendering reads the box it was given, so text is unchanged.
pub fn drop_subsumed_unchanged(step_box: Expr, graph: &StateGraph) -> Expr {
    drop_subsumed(step_box, graph.layout().slots())
}

/// [`drop_subsumed_unchanged`] over states of `slots` slots.
fn drop_subsumed(step_box: Expr, slots: usize) -> Expr {
    let Expr::Or(disjuncts) = step_box else {
        return step_box;
    };
    let mut kept: Vec<Expr> = Vec::with_capacity(disjuncts.len());
    for disjunct in disjuncts {
        let subsumed = unchanged_vars(&disjunct).is_some_and(|x| {
            x.iter().all(|v| v.index() < slots)
                && kept.iter().any(|earlier| stutters_within(earlier, &x))
        });
        if !subsumed {
            kept.push(disjunct);
        }
    }
    Expr::Or(kept)
}

/// `e`'s conjuncts: its elements if it is a conjunction, else itself.
fn conjuncts_of(e: &Expr) -> &[Expr] {
    match e {
        Expr::And(es) => es,
        e => std::slice::from_ref(e),
    }
}

/// `X` if `e` is `UNCHANGED X`: a conjunction of `v′ = v`, or one.
fn unchanged_vars(e: &Expr) -> Option<VarSet> {
    let mut x = VarSet::new();
    for leaf in conjuncts_of(e) {
        let Expr::Binary(BinOp::Eq, primed, v) = leaf else {
            return None;
        };
        match (&**primed, &**v) {
            (Expr::Prime(p), Expr::Var(v)) if p == v => x.insert(*v),
            _ => return None,
        };
    }
    Some(x)
}

/// Whether `e` is a conjunction of `f′ = f`, or one, with every `f`
/// reading only variables of `x`.
fn stutters_within(e: &Expr, x: &VarSet) -> bool {
    conjuncts_of(e).iter().all(|leaf| match leaf {
        Expr::Binary(BinOp::Eq, primed, f) => {
            prime_expr(f).is_ok_and(|p| p == **primed) && f.unprimed_vars().is_subset(x)
        }
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_kernel::{box_action, unchanged, Domain, Formula, State, StatePair, Substitution};

    /// `q`, a sequence of up to two bits (`Head(q)` is partial), and
    /// the bits `x` and `y`, with every state over them; then `v`, an
    /// abstract variable no state has a slot for.
    fn world() -> (VarId, VarId, VarId, VarId, Vec<State>) {
        let mut vars = opentla_kernel::Vars::new();
        let q = vars.declare("q", Domain::seqs_up_to(&Domain::bits(), 2));
        let x = vars.declare("x", Domain::bits());
        let y = vars.declare("y", Domain::bits());
        let v = vars.declare("v", Domain::bits());
        let mut states = Vec::new();
        for qv in vars.domain(q).iter() {
            for xv in vars.domain(x).iter() {
                for yv in vars.domain(y).iter() {
                    states.push(State::new(vec![qv.clone(), xv.clone(), yv.clone()]));
                }
            }
        }
        (q, x, y, v, states)
    }

    /// `f′ = f`.
    fn stutter(f: Expr) -> Expr {
        prime_expr(&f).expect("unprimed").eq(f)
    }

    /// The disjuncts of a box.
    fn disjuncts(step_box: &Expr) -> &[Expr] {
        match step_box {
            Expr::Or(es) => es,
            other => panic!("not a disjunction: {other:?}"),
        }
    }

    /// Asserts that `rewritten` answers as `original` — values and
    /// errors — on every step between `states`.
    fn same_answers(original: &Expr, rewritten: &Expr, states: &[State]) {
        for s in states {
            for t in states {
                let pair = StatePair::new(s, t);
                assert_eq!(
                    original.holds_action(pair),
                    rewritten.holds_action(pair),
                    "on {s:?} → {t:?}"
                );
            }
        }
    }

    #[test]
    fn a_mapped_box_loses_its_unchanged_disjunct() {
        let (q, x, y, v, states) = world();
        // Under `v ↦ Head(q)`, the box of `[y′ = 1 − y]_⟨v, x⟩` reads
        // `A_σ ∨ (Head(q)′ = Head(q) ∧ x′ = x) ∨ UNCHANGED ⟨q, x⟩`.
        let mapping = Substitution::new([(v, Expr::var(q).head())]);
        let action = Expr::prime(y).eq(Expr::int(1).sub(Expr::var(y)));
        let Formula::ActBox { action, sub } =
            (mapping.formula(&Formula::act_box(action, vec![v, x]))).expect("substitutes")
        else {
            panic!("a box stays a box");
        };
        let original = box_action(action, &sub);
        assert_eq!(disjuncts(&original).len(), 3);
        let dropped = drop_subsumed(original.clone(), 3);
        assert_eq!(disjuncts(&dropped), &disjuncts(&original)[..2]);
        same_answers(&original, &dropped, &states);
    }

    #[test]
    fn an_unchanged_disjunct_is_dropped_only_when_subsumed() {
        let (q, x, y, _, states) = world();
        let (qv, xv, yv) = (Expr::var(q), Expr::var(x), Expr::var(y));
        let a = Expr::prime(y).eq(Expr::int(1).sub(yv.clone()));
        let head = qv.clone().head();
        let within = Expr::all([stutter(head.clone()), stutter(xv.clone())]);
        let unchanged_qx = unchanged(&[q, x]);
        let cases = [
            // Subsumed: dropped.
            (
                Expr::any([a.clone(), within.clone(), unchanged_qx.clone()]),
                true,
            ),
            // One `f′ = f` alone subsumes `UNCHANGED ⟨q⟩`.
            (
                Expr::any([stutter(qv.clone().tail()), unchanged(&[q])]),
                true,
            ),
            // `UNCHANGED X` first: kept.
            (
                Expr::any([unchanged_qx.clone(), within.clone(), a.clone()]),
                false,
            ),
            // `f` reads `y`, outside `X`: kept.
            (
                Expr::any([
                    a.clone(),
                    Expr::all([stutter(head.clone()), stutter(xv.clone().add(yv.clone()))]),
                    unchanged_qx.clone(),
                ]),
                false,
            ),
            // A conjunct not of the form `f′ = f`: kept.
            (
                Expr::any([
                    a.clone(),
                    Expr::all([stutter(head.clone()), xv.clone().eq(Expr::int(0))]),
                    unchanged_qx.clone(),
                ]),
                false,
            ),
            // `f′ = g` with `g` not `f`: kept.
            (
                Expr::any([
                    Expr::prime(x).eq(Expr::int(1).sub(xv.clone())),
                    unchanged(&[x]),
                ]),
                false,
            ),
        ];
        for (original, drops) in cases {
            let dropped = drop_subsumed(original.clone(), 3);
            let expect = if drops {
                let kept = disjuncts(&original);
                Expr::Or(kept[..kept.len() - 1].to_vec())
            } else {
                original.clone()
            };
            assert_eq!(dropped, expect, "{original:?}");
            same_answers(&original, &dropped, &states);
        }
        // A variable of `X` that is no slot of the states is unbound
        // there, so `UNCHANGED X` would err: kept.
        let wide = Expr::any([a, within, unchanged_qx]);
        assert_eq!(drop_subsumed(wide.clone(), 1), wide);
    }
}
