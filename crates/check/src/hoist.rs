//! Hoisted state functions and class memos: each function a set of
//! expressions shares is evaluated once per distinct key of the slots it
//! reads, not once per occurrence per step, and a set of expressions
//! is decided once per pair of classes, not once per step.
//!
//! A check that evaluates several expressions on every step of a graph
//! — the `⊳` monitor decides every conjunct of `E` and of `M` on every
//! edge it crosses — evaluates a state function that occurs in several
//! of them, or in one of them several times, once per occurrence per
//! step: the mapped guarantee of a queue chain reads `q̄` (a
//! concatenation of every queue of the chain) or `q̄′` nine times per
//! edge. [`SharedFunctions`](crate::SharedFunctions) finds those
//! functions; [`SharedColumns`] keeps their values, one `u32` per
//! state and function into a table of the distinct values, filled the
//! first time a check touches a state ([`SharedColumns::fill`]) — no
//! pass over the whole graph, so a check that stops after a few states
//! evaluates a few states. As
//! [`Images::of_graph`](crate::image::Images::of_graph) does, a fill
//! looks each function up by the codes of the slots it reads
//! ([`PackedLayout::gather_key`]) and evaluates it only for a key met
//! for the first time; values are interned in an ordered map, so no
//! value is hashed.
//!
//! A [`HoistedExpr`] is an expression compiled twice: plainly, and with
//! each occurrence of a shared function read from the column of the
//! current or the next state ([`SharedView`]). A step is decided on the
//! hoisted program where every shared value of both states is defined,
//! and on the plain program on [`RowView`]s everywhere else; when the
//! hoisted program errs, the plain program runs on the same pair and
//! its result — value or error — is the answer, the rule of
//! [`image`](crate::image). So results and errors are those of the
//! plain program, which are the interpreter's.
//! `crates/check/tests/proptest_compiled.rs` checks that against
//! [`Expr::eval_action`], on steps where a function is undefined too.
//!
//! **Classes.** What a hoisted program answers on a step is a function
//! of the codes of the slots it reads outside shared occurrences and of
//! the ids of the shared values it reads, at both states; the plain
//! program answers the same wherever either answers a value, and errs
//! wherever the other errs. A [`ClassMemo`] over a list of programs —
//! one side of the `⊳` monitor — gives a state the class of those codes
//! and ids, interned on demand into a dense `u32` column, and remembers
//! its caller's answer about a step once per pair of classes, one word
//! a pair ([`image`](crate::image)'s pair lists). A state where one of
//! those shared values is undefined, or that was not filled, has no
//! class and bypasses the memo; an answer that errs is never
//! remembered. So answers, errors and the order they are met in are
//! those of asking every step. A mapped step box reads every variable
//! the mapping reads in its last disjunct, `UNCHANGED X`, which would
//! make a class of every state; [`drop_subsumed_unchanged`] removes it
//! where an earlier disjunct decides every step it would.

use crate::compiled::{CompiledExpr, EvalScratch, SharedFunctions, Slots};
use crate::image::{words, KeyIds, PairLists};
use crate::{RowView, StateGraph};
use opentla_kernel::{
    expect_bool, prime_expr, BinOp, EvalError, Expr, PackedLayout, Value, VarId, VarSet,
};
use std::collections::BTreeMap;

/// An entry of a column: the state was not filled yet.
const UNSEEN: u32 = 0;
/// An entry of a column: the function errs at the state.
const UNDEFINED: u32 = u32::MAX;

/// The values of a set of shared functions at the states of one graph,
/// filled on demand: per state, one entry per function — [`UNSEEN`],
/// [`UNDEFINED`], or one plus the id of its value among the distinct
/// values. The entries grow to the largest state filled, so a check
/// that stops early keeps them small.
#[derive(Debug)]
pub struct SharedColumns<'a> {
    functions: &'a SharedFunctions,
    graph: &'a StateGraph,
    ids: Vec<u32>,
    /// Per function, its entry by the key of its reads.
    keyed: Vec<Keyed>,
    index: BTreeMap<Value, u32>,
    values: Vec<Value>,
    /// Bits enough for every value id the functions can reach.
    id_bits: u32,
}

/// One shared function's entries by key: the slots it reads that the
/// graph's rows have (a variable past them is unbound at every state
/// alike), a buffer for a key of their codes, and the entry of each key
/// met.
#[derive(Debug)]
struct Keyed {
    reads: Vec<usize>,
    key: Vec<u64>,
    entries: KeyIds,
}

impl<'a> SharedColumns<'a> {
    /// Empty columns of `functions` over the states of `graph`.
    pub fn new(functions: &'a SharedFunctions, graph: &'a StateGraph) -> SharedColumns<'a> {
        let layout = graph.layout();
        let keyed: Vec<Keyed> = (functions.functions())
            .map(|f| {
                let reads: Vec<usize> = (f.unprimed_vars().iter())
                    .map(VarId::index)
                    .filter(|&slot| slot < layout.slots())
                    .collect();
                let key = words(layout.key_bits(&reads));
                let entries = KeyIds::of_width(key.len());
                Keyed {
                    reads,
                    key,
                    entries,
                }
            })
            .collect();
        // A function takes at most one value per key of its reads.
        let values = keyed.iter().fold(0u64, |n, k| {
            let keys = 1u64.checked_shl(layout.key_bits(&k.reads) as u32);
            n.saturating_add(keys.unwrap_or(u64::MAX))
        });
        SharedColumns {
            functions,
            graph,
            ids: Vec::new(),
            keyed,
            index: BTreeMap::new(),
            values: Vec::new(),
            id_bits: (u64::BITS - values.saturating_sub(1).leading_zeros()).min(u32::BITS),
        }
    }

    /// Evaluates every function at state `id`, unless that was done:
    /// each only if the codes of the slots it reads are met for the
    /// first time, else its entry for them is copied.
    pub fn fill(&mut self, id: usize, scratch: &mut EvalScratch) {
        let width = self.keyed.len();
        if (id + 1) * width > self.ids.len() {
            let states = (id + 1).next_power_of_two().min(self.graph.len());
            self.ids.resize(states * width, UNSEEN);
        }
        let entries = &mut self.ids[id * width..(id + 1) * width];
        if entries.first().is_none_or(|&e| e != UNSEEN) {
            return;
        }
        let (graph, functions) = (self.graph, self.functions);
        let (layout, row) = (graph.layout(), graph.row(id));
        let (index, values) = (&mut self.index, &mut self.values);
        for (f, (entry, keyed)) in entries.iter_mut().zip(&mut self.keyed).enumerate() {
            layout.gather_key(row, &keyed.reads, &mut keyed.key);
            *entry = keyed.entries.intern(&keyed.key, |_| {
                match functions.program(f).eval(&graph.view(id), scratch) {
                    Ok(value) => {
                        1 + *index.entry(value).or_insert_with_key(|value| {
                            values.push(value.clone());
                            u32::try_from(values.len() - 1)
                                .ok()
                                .filter(|&id| id < UNDEFINED - 1)
                                .expect("distinct shared values fit in u32")
                        })
                    }
                    Err(_) => UNDEFINED,
                }
            });
        }
    }

    /// The view of state `id`: `None` unless it was filled and every
    /// function is defined there.
    pub fn view(&self, id: usize) -> Option<SharedView<'_>> {
        let width = self.keyed.len();
        let ids = self.ids.get(id * width..(id + 1) * width)?;
        let defined = ids.iter().all(|&e| e != UNSEEN && e != UNDEFINED);
        defined.then(|| SharedView {
            row: self.graph.view(id),
            ids,
            values: &self.values,
        })
    }
}

/// A graph state on its row, with the values of its shared functions
/// read from [`SharedColumns`]: what a hoisted program runs on. Built
/// only where every value is defined.
#[derive(Clone, Copy, Debug)]
pub struct SharedView<'a> {
    row: RowView<'a>,
    ids: &'a [u32],
    values: &'a [Value],
}

impl Slots for SharedView<'_> {
    #[inline]
    fn slot(&self, v: VarId) -> Option<&Value> {
        self.row.slot(v)
    }

    #[inline]
    fn slot_count(&self) -> usize {
        self.row.slot_count()
    }

    #[inline]
    fn shared(&self, f: u32) -> Option<&Value> {
        Some(&self.values[self.ids[f as usize] as usize - 1])
    }
}

/// An expression compiled plainly and, where it has an occurrence of a
/// shared function, hoisted; see the [module docs](self). It is run on
/// columns of the functions it was compiled over.
#[derive(Clone, Debug)]
pub struct HoistedExpr {
    plain: CompiledExpr,
    hoisted: Option<CompiledExpr>,
}

impl HoistedExpr {
    /// Compiles `expr` both ways over `functions`.
    pub fn compile(expr: &Expr, functions: &SharedFunctions) -> HoistedExpr {
        HoistedExpr {
            plain: CompiledExpr::compile(expr),
            hoisted: functions.compile(expr),
        }
    }

    /// The hoisted program, if `expr` has an occurrence of a function.
    pub fn hoisted(&self) -> Option<&CompiledExpr> {
        self.hoisted.as_ref()
    }

    /// The program whose reads a step's answer is a function of: the
    /// hoisted one if there is one, else the plain one.
    fn deciding(&self) -> &CompiledExpr {
        self.hoisted.as_ref().unwrap_or(&self.plain)
    }

    /// The expression as a state function on state `s` of the columns'
    /// graph, which must be filled there for the hoisted program to
    /// run.
    ///
    /// # Errors
    ///
    /// Those of [`CompiledExpr::eval`] on the plain program.
    pub fn eval(
        &self,
        columns: &SharedColumns<'_>,
        s: usize,
        scratch: &mut EvalScratch,
    ) -> Result<Value, EvalError> {
        if let Some(hoisted) = &self.hoisted {
            if let Some(view) = columns.view(s) {
                if let Ok(value) = hoisted.eval(&view, scratch) {
                    return Ok(value);
                }
            }
        }
        self.plain.eval(&columns.graph.view(s), scratch)
    }

    /// The expression as an action on the step from state `s` to state
    /// `t` of the columns' graph, which must be filled at both for the
    /// hoisted program to run.
    ///
    /// # Errors
    ///
    /// Those of [`CompiledExpr::eval_step`] on the plain program.
    pub fn eval_step(
        &self,
        columns: &SharedColumns<'_>,
        s: usize,
        t: usize,
        scratch: &mut EvalScratch,
    ) -> Result<Value, EvalError> {
        if let Some(hoisted) = &self.hoisted {
            if let Some((old, new)) = columns.view(s).zip(columns.view(t)) {
                if let Ok(value) = hoisted.eval_step(&old, &new, scratch) {
                    return Ok(value);
                }
            }
        }
        let graph = columns.graph;
        self.plain
            .eval_step(&graph.view(s), &graph.view(t), scratch)
    }

    /// [`HoistedExpr::eval`] in a boolean context.
    ///
    /// # Errors
    ///
    /// Those of [`CompiledExpr::holds`] on the plain program.
    pub fn holds(
        &self,
        columns: &SharedColumns<'_>,
        s: usize,
        scratch: &mut EvalScratch,
    ) -> Result<bool, EvalError> {
        expect_bool(self.eval(columns, s, scratch)?)
    }

    /// [`HoistedExpr::eval_step`] in a boolean context.
    ///
    /// # Errors
    ///
    /// Those of [`CompiledExpr::holds_step`] on the plain program.
    pub fn holds_step(
        &self,
        columns: &SharedColumns<'_>,
        s: usize,
        t: usize,
        scratch: &mut EvalScratch,
    ) -> Result<bool, EvalError> {
        expect_bool(self.eval_step(columns, s, t, scratch)?)
    }
}

/// The answers to a question about the steps of a graph, decided by a
/// list of [`HoistedExpr`]s, by pair of classes, filled on demand; see
/// the [module docs](self). An answer is a number below the count the
/// memo was built for: the `⊳` monitor asks for the first failing
/// conjunct of one side, or none.
///
/// A state's class is its key — the codes of the slots the programs
/// read outside shared occurrences, then the id of each shared value
/// they read — interned the first time the state is asked about, into
/// a column that grows to the largest state asked about. The answers
/// are a word per pair of classes met, so an early exit keeps
/// everything proportional.
#[derive(Debug)]
pub struct ClassMemo {
    /// The slots the programs read outside shared occurrences.
    codes: Vec<usize>,
    /// The shared functions they read, ascending.
    functions: Vec<usize>,
    id_bits: u32,
    key: Vec<u64>,
    keys: KeyIds,
    /// Per state: [`UNSEEN`], [`UNDEFINED`] for none, or one plus its
    /// class.
    of: Vec<u32>,
    pairs: PairLists,
}

impl ClassMemo {
    /// An empty memo of `programs` over `columns`' functions and graph,
    /// for answers below `answers`, which is positive.
    pub fn new(programs: &[HoistedExpr], columns: &SharedColumns<'_>, answers: u32) -> ClassMemo {
        let (mut reads, mut functions) = (VarSet::new(), Vec::new());
        for program in programs {
            program.deciding().for_each_read(
                |v| {
                    reads.insert(v);
                },
                |f| functions.push(f as usize),
            );
        }
        functions.sort_unstable();
        functions.dedup();
        let layout = columns.graph.layout();
        let codes: Vec<usize> = (reads.iter())
            .map(VarId::index)
            .filter(|&slot| slot < layout.slots())
            .collect();
        let id_bits = columns.id_bits;
        let key = words(layout.key_bits(&codes) + functions.len() * id_bits as usize);
        ClassMemo {
            codes,
            functions,
            id_bits,
            keys: KeyIds::of_width(key.len()),
            key,
            of: Vec::new(),
            pairs: PairLists::new(u32::BITS - answers.leading_zeros()),
        }
    }

    /// Distinct classes met so far.
    pub fn classes(&self) -> usize {
        self.keys.len()
    }

    /// The class of state `id`, interned if it is met for the first
    /// time; `None` if `columns` were not filled at `id` or a shared
    /// value the programs read is undefined there.
    fn class(&mut self, columns: &SharedColumns<'_>, id: usize) -> Option<u32> {
        let graph = columns.graph;
        if id >= self.of.len() {
            let states = (id + 1).next_power_of_two().min(graph.len());
            self.of.resize(states, UNSEEN);
        }
        match self.of[id] {
            UNSEEN => {}
            UNDEFINED => return None,
            class => return Some(class - 1),
        }
        let width = columns.keyed.len();
        let ids = columns.ids.get(id * width..(id + 1) * width)?;
        if ids.first() == Some(&UNSEEN) {
            return None;
        }
        let layout = graph.layout();
        let mut at = layout.gather_key(graph.row(id), &self.codes, &mut self.key);
        for &f in &self.functions {
            if ids[f] == UNDEFINED {
                self.of[id] = UNDEFINED;
                return None;
            }
            let value = u64::from(ids[f] - 1);
            debug_assert!(value >> self.id_bits == 0, "a value id fits its field");
            PackedLayout::put_bits(&mut self.key, at, value, self.id_bits);
            at += self.id_bits as usize;
        }
        let class = self.keys.intern(&self.key, |next| {
            u32::try_from(next)
                .ok()
                .filter(|&class| class < UNDEFINED - 1)
                .expect("classes fit in u32")
        });
        self.of[id] = class + 1;
        Some(class)
    }

    /// The answer about the step from state `s` to state `t`: the one
    /// remembered for their pair of classes, else `decide`'s,
    /// remembered if both have a class.
    ///
    /// # Errors
    ///
    /// Whatever `decide` returns; errors are not remembered.
    pub fn step<E>(
        &mut self,
        columns: &SharedColumns<'_>,
        s: usize,
        t: usize,
        decide: impl FnOnce() -> Result<u32, E>,
    ) -> Result<u32, E> {
        let (s_class, t_class) = (self.class(columns, s), self.class(columns, t));
        let Some((s_class, t_class)) = s_class.zip(t_class) else {
            return decide();
        };
        if let Some(known) = self.pairs.get(s_class, t_class) {
            return Ok(known);
        }
        let answer = decide()?;
        self.pairs.insert(0, 0, s_class, t_class, answer);
        Ok(answer)
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
