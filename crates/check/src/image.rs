//! Image classes: an obligation is checked once per *abstract* step,
//! not once per concrete edge, and the refinement mapping is evaluated
//! once per graph.
//!
//! The hypotheses of the Composition Theorem are evaluated over one
//! explored graph under one refinement mapping `σ` (`q̄ ↦ q₂ ∘ mid ∘ q₁`
//! and the like). A step box `[A]_v`, an angle action `⟨A⟩_v` or an
//! enabledness predicate of the *abstract* specification depends on a
//! concrete step `⟨s, t⟩` only through the **image** of `s` and `t`:
//! the value `σ(v)(s)` for each mapped variable `v` the obligation
//! mentions, and `s[v]` for each unmapped one. That is the substitution
//! lemma behind the refinement-mapping argument (the paper's ref.
//! \[10\]): evaluating the substituted expression on `⟨s, t⟩` equals
//! evaluating the unsubstituted one on `⟨s̄, t̄⟩`, where `s̄` is `s` with
//! every mapped variable set to its image. A product of `k` components
//! has far fewer images than states — the obligation does not look at
//! most of them. This module uses the lemma in both directions.
//!
//! **The mapping, once.** [`Images::of_graph`] evaluates each `σ(v)` at
//! every state of a graph (through [`CompiledExpr`]: it is a state
//! function) and keeps the result as one `u32` column per mapped
//! variable into a table of the distinct values. Every obligation
//! checked under that mapping reads the column; none evaluates `σ`
//! again. A certificate builds one and hands it to hypothesis 2(a) and
//! to every condition of 2(b); a stand-alone check builds its own.
//!
//! **Substituted → abstract: classes.** For an obligation with footprint
//! `F` (the variables, primed or not, of its *un*substituted
//! expressions), [`Classes::of_graph`] gives every graph state a class:
//! the interned tuple `⟨ v ∈ F : σ(v)(s) if v ∈ dom σ else s[v] ⟩`,
//! mapped slots read from the [`Images`] column. A [`Memo`] then maps
//! `(class[s], class[t])` — or `class[s]` for a state predicate — to
//! the obligation's boolean.
//!
//! **Abstract → substituted: misses.** A pair met for the first time is
//! decided on `⟨s̄, t̄⟩` itself: the caller's *un*substituted expression,
//! compiled once per check ([`CompiledExpr`]), runs on two
//! [`ImageView`]s — `s` and `t` borrowed from the graph, each mapped
//! slot read from its [`Images`] column. No abstract state is built and
//! no expression tree is walked. The substituted expression would
//! re-evaluate `σ(v)` at every occurrence of `v` and `v'`. A
//! substituted box carries a third disjunct, `UNCHANGED` of the
//! concrete variables `σ(v)` reads; it implies `σ(v)' = σ(v)`, the
//! second, so dropping it cannot change a result. When the abstract
//! evaluation errs, the caller's substituted expression is evaluated
//! by the interpreter ([`Expr::holds_action`](opentla_kernel::Expr) /
//! `holds_state`) on the concrete pair and *its* result — value or
//! typed error — is the answer, so errors are those of the per-edge
//! check. The interpreter is also the compiled programs' oracle
//! (`proptest_compiled`, and `image_memo_equivalence` compares the
//! compiled unsubstituted program on the views against the interpreted
//! substituted expression on every step of its corpus).
//!
//! Two cases evaluate the substituted expression directly, as a check
//! without this module would:
//!
//! * a state whose key cannot be computed (a partial mapping such as
//!   `Head` of a possibly-empty sequence, or an unbound variable) has
//!   no class and **bypasses** the memo — the substituted expression
//!   may still evaluate there, because `∧`/`∨`/`⇒` short-circuit;
//! * when no two states share a class (a caller that substituted the
//!   mapping itself, so `F` covers every varying variable) the memo is
//!   **skipped**: no class is kept and every lookup evaluates.
//!
//! Neither pass charges a budget or polls anything, and a lookup never
//! replaces a charge: meter accounting, scan order, and hence
//! first-violation edges, traces, lassos and exhaustion frontiers are
//! those of the per-edge evaluation.
//!
//! `Enabled` is **not** pushed through the substitution here (it does
//! not commute with it): the enabledness a mapped fairness target is
//! checked against is still the explicit abstract predicate the caller
//! supplies, which is an ordinary state function and so has images like
//! any other.

use crate::compiled::{CompiledExpr, EvalScratch, Slots};
use crate::obs::{Event, RecorderHandle};
use crate::{CheckError, StateGraph};
use fxhash::FxHashMap;
use opentla_kernel::{State, Substitution, Value, VarId, VarSet};
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// "This state has no class": its key could not be computed. Also
/// "`σ(v)` is undefined at this state" in an [`Images`] column.
const NONE: u32 = u32::MAX;

/// `σ(v)(s)` for every mapped variable `v` and every state `s` of one
/// graph, evaluated once: a `u32` per state and mapped variable into
/// the table of distinct values. The default is the images of the
/// empty mapping: none, whatever the graph.
#[derive(Debug, Default)]
pub struct Images {
    mapping: Substitution,
    /// One column per mapped variable, ascending; [`NONE`] where the
    /// image is undefined.
    columns: Vec<(VarId, Vec<u32>)>,
    /// The column of each variable, by [`VarId`] index up to the last
    /// mapped one; [`NONE`] for an unmapped variable.
    column_of: Vec<u32>,
    /// The distinct values, by id.
    values: Vec<Value>,
}

impl Images {
    /// One pass over `graph`, evaluating every `σ(v)` of `mapping` at
    /// every state and reporting itself as an [`Event::ImagePass`]. The
    /// value interner's hash map is dropped before this returns: what
    /// stays resident is four bytes per state and mapped variable, plus
    /// the distinct values. The empty mapping has no images: nothing is
    /// evaluated and nothing reported.
    pub fn of_graph(
        graph: &StateGraph,
        mapping: &Substitution,
        recorder: &RecorderHandle,
    ) -> Images {
        let started = Instant::now();
        let programs: Vec<(VarId, CompiledExpr)> = mapping
            .domain()
            .map(|v| {
                let image = mapping.get(v).expect("a variable of the domain");
                (v, CompiledExpr::compile(image))
            })
            .collect();
        let mut columns: Vec<(VarId, Vec<u32>)> = programs
            .iter()
            .map(|(v, _)| (*v, Vec::with_capacity(graph.len())))
            .collect();
        let mut ids: FxHashMap<Value, u32> = FxHashMap::default();
        let mut values = Vec::new();
        let mut scratch = EvalScratch::new();
        let mut undefined = 0u64;
        for s in graph.states() {
            for ((_, program), (_, column)) in programs.iter().zip(&mut columns) {
                column.push(match program.eval(s, &mut scratch) {
                    Ok(value) => {
                        let id = intern(&mut ids, &value);
                        if id as usize == values.len() {
                            values.push(value);
                        }
                        id
                    }
                    Err(_) => {
                        undefined += 1;
                        NONE
                    }
                });
            }
        }
        if !programs.is_empty() && recorder.enabled() {
            recorder.record(&Event::ImagePass {
                states: graph.len() as u64,
                mapped_vars: programs.len() as u64,
                distinct_values: values.len() as u64,
                undefined,
                nanos: started.elapsed().as_nanos() as u64,
            });
        }
        let mut column_of = Vec::new();
        for (c, (v, _)) in columns.iter().enumerate() {
            if column_of.len() <= v.index() {
                column_of.resize(v.index() + 1, NONE);
            }
            column_of[v.index()] = c as u32;
        }
        Images {
            mapping: mapping.clone(),
            columns,
            column_of,
            values,
        }
    }

    /// The mapping these are the images of.
    pub fn mapping(&self) -> &Substitution {
        &self.mapping
    }

    /// `given` if they are images of `graph` under `mapping`, as far as
    /// can be told (the mapping is theirs and the state counts agree);
    /// the images evaluated here, into `own`, if none are given.
    ///
    /// # Errors
    ///
    /// [`CheckError::Precondition`] for images of another graph or
    /// mapping.
    pub(crate) fn given_or_own<'a>(
        given: Option<&'a Images>,
        own: &'a mut Option<Images>,
        graph: &StateGraph,
        mapping: &Substitution,
        recorder: &RecorderHandle,
    ) -> Result<&'a Images, CheckError> {
        let Some(images) = given else {
            return Ok(own.insert(Images::of_graph(graph, mapping, recorder)));
        };
        let fit = images.mapping == *mapping
            && images.columns.iter().all(|(_, c)| c.len() == graph.len());
        if fit {
            Ok(images)
        } else {
            Err(CheckError::Precondition {
                message: "the images handed to this check are of another graph or \
                          another refinement mapping (Images::of_graph)"
                    .to_string(),
            })
        }
    }

    /// Distinct values among the images.
    pub fn distinct_values(&self) -> usize {
        self.values.len()
    }

    /// The image column of `v`; `None` for an unmapped variable.
    fn column(&self, v: VarId) -> Option<&[u32]> {
        match self.column_of.get(v.index()) {
            Some(&column) if column != NONE => Some(&self.columns[column as usize].1),
            _ => None,
        }
    }
}

/// `s̄` borrowed: state `id` of a graph, each mapped variable's slot
/// read from its [`Images`] column and every other slot from the state.
/// What a [`Memo`] miss is decided on, by a [`CompiledExpr`]; nothing
/// is copied.
#[derive(Clone, Copy, Debug)]
pub struct ImageView<'a> {
    values: &'a [Value],
    images: &'a Images,
    id: usize,
}

impl<'a> ImageView<'a> {
    /// The view of state `id` of `graph` under `images` (which must be
    /// of that graph). `None` where some image is undefined or the
    /// state has no slot for a mapped variable: that state has no
    /// abstract evaluation.
    pub fn new(images: &'a Images, graph: &'a StateGraph, id: usize) -> Option<ImageView<'a>> {
        let values = graph.state(id).values();
        let defined = images
            .columns
            .iter()
            .all(|(v, column)| column[id] != NONE && v.index() < values.len());
        defined.then_some(ImageView { values, images, id })
    }
}

impl Slots for ImageView<'_> {
    #[inline]
    fn slot(&self, v: VarId) -> Option<&Value> {
        match self.images.column(v) {
            Some(column) => Some(&self.images.values[column[self.id] as usize]),
            None => self.values.get(v.index()),
        }
    }

    #[inline]
    fn slot_count(&self) -> usize {
        self.values.len()
    }
}

/// The class of every state of a graph under one footprint and one
/// mapping, plus the tallies its [`Memo`]s leave behind for
/// [`Event::ImageMemo`].
#[derive(Debug)]
pub struct Classes<'g> {
    graph: &'g StateGraph,
    images: &'g Images,
    /// Class per state ([`NONE`] where the key is not computable);
    /// empty when the memo is skipped.
    of: Vec<u32>,
    /// Distinct classes found.
    count: usize,
    /// Step lookups and step evaluations of every memo dropped so far.
    steps: AtomicU64,
    evaluated: AtomicU64,
}

impl<'g> Classes<'g> {
    /// One pass over `graph`: interns each state's image tuple over
    /// `footprint`, a mapped slot read from `images` and an unmapped
    /// one from the state. Unmapped values are interned to `u32`s and
    /// the tuples keyed as `Box<[u32]>`; both interners are dropped
    /// before this returns, so what stays resident is four bytes per
    /// state (nothing when skipped).
    ///
    /// # Panics
    ///
    /// If `images` are of a graph with fewer states.
    pub fn of_graph(graph: &'g StateGraph, footprint: &VarSet, images: &'g Images) -> Classes<'g> {
        let slots: Vec<(VarId, Option<&[u32]>)> =
            footprint.iter().map(|v| (v, images.column(v))).collect();
        let mut values: FxHashMap<Value, u32> = FxHashMap::default();
        let mut keys: FxHashMap<Box<[u32]>, u32> = FxHashMap::default();
        let mut key = Vec::with_capacity(slots.len());
        let mut of = Vec::with_capacity(graph.len());
        let mut classed = 0usize;
        for (id, s) in graph.states().iter().enumerate() {
            if !image_key(s, id, &slots, &mut values, &mut key) {
                of.push(NONE);
                continue;
            }
            classed += 1;
            let class = match keys.get(key.as_slice()) {
                Some(class) => *class,
                None => {
                    let class = u32::try_from(keys.len()).expect("state ids fit in u32");
                    keys.insert(key.as_slice().into(), class);
                    class
                }
            };
            of.push(class);
        }
        let count = keys.len();
        if count == classed {
            // Nobody shares a class: keep none.
            of = Vec::new();
        }
        Classes {
            graph,
            images,
            of,
            count,
            steps: AtomicU64::new(0),
            evaluated: AtomicU64::new(0),
        }
    }

    /// Distinct classes found by the pass.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether no two states share a class, so lookups evaluate.
    pub fn skipped(&self) -> bool {
        self.of.is_empty()
    }

    /// The class of state `id`; `None` when its key is not computable
    /// or the memo is skipped.
    pub fn get(&self, id: usize) -> Option<u32> {
        self.of.get(id).copied().filter(|class| *class != NONE)
    }

    /// `s̄` for state `id`, see [`ImageView`].
    fn view(&self, id: usize) -> Option<ImageView<'g>> {
        ImageView::new(self.images, self.graph, id)
    }

    /// Emits the pass's [`Event::ImageMemo`] for check `check`. Call
    /// after the memos over these classes have been dropped.
    pub(crate) fn report(&self, recorder: &RecorderHandle, check: &str) {
        if recorder.enabled() {
            recorder.record(&Event::ImageMemo {
                check,
                classes: self.count as u64,
                distinct_pairs: self.evaluated.load(Ordering::Relaxed),
                edges: self.steps.load(Ordering::Relaxed),
                skipped: self.skipped(),
            });
        }
    }
}

/// Writes the image tuple of `s` (state `id`) into `key`; `false` if
/// some component has no value there.
fn image_key(
    s: &State,
    id: usize,
    slots: &[(VarId, Option<&[u32]>)],
    values: &mut FxHashMap<Value, u32>,
    key: &mut Vec<u32>,
) -> bool {
    key.clear();
    for (v, column) in slots {
        let component = match column {
            Some(column) => column[id],
            None => match s.try_get(*v) {
                Some(value) => intern(values, value),
                None => NONE,
            },
        };
        if component == NONE {
            return false;
        }
        key.push(component);
    }
    true
}

fn intern(values: &mut FxHashMap<Value, u32>, value: &Value) -> u32 {
    if let Some(id) = values.get(value) {
        return *id;
    }
    let id = u32::try_from(values.len()).expect("distinct values fit in u32");
    values.insert(value.clone(), id);
    id
}

/// One predicate's answers by class, filled on demand. A check keeps
/// one memo per predicate.
///
/// A lookup takes the predicate twice: `abstractly`, the unsubstituted
/// expression to run on the [`ImageView`]s of the abstract state(s),
/// and `directly`, the caller's evaluation of its substituted
/// expression on the concrete state or step at hand. A first meeting
/// of a class (pair) runs `abstractly` and, should that err,
/// `directly`; a state without a class, and every state of a skipped
/// memo, runs `directly` alone.
#[derive(Debug)]
pub struct Memo<'c> {
    classes: &'c Classes<'c>,
    /// `(class[s], class[t])`, or `(class[s], NONE)` for a state
    /// predicate — no class id equals [`NONE`].
    seen: FxHashMap<(u32, u32), bool>,
    steps: u64,
    evaluated: u64,
}

impl<'c> Memo<'c> {
    /// An empty memo over `classes`.
    pub fn new(classes: &'c Classes<'c>) -> Self {
        Memo {
            classes,
            seen: FxHashMap::default(),
            steps: 0,
            evaluated: 0,
        }
    }

    /// The predicate's value on the step `⟨s, t⟩`: the remembered
    /// answer of its class pair, else an evaluation, remembered if both
    /// states have a class.
    ///
    /// # Errors
    ///
    /// Whatever `directly` returns; errors are not remembered.
    pub fn step<E>(
        &mut self,
        s: usize,
        t: usize,
        abstractly: impl FnOnce(ImageView<'_>, ImageView<'_>) -> Result<bool, E>,
        directly: impl FnOnce() -> Result<bool, E>,
    ) -> Result<bool, E> {
        self.steps += 1;
        let classes = self.classes;
        let key = classes.get(s).zip(classes.get(t));
        let on_images = || abstractly(classes.view(s)?, classes.view(t)?).ok();
        let (value, ran) = self.lookup(key, on_images, directly)?;
        self.evaluated += u64::from(ran);
        Ok(value)
    }

    /// The state-predicate analogue of [`Memo::step`], keyed by the
    /// class of `s` alone.
    ///
    /// # Errors
    ///
    /// Whatever `directly` returns; errors are not remembered.
    pub fn state<E>(
        &mut self,
        s: usize,
        abstractly: impl FnOnce(ImageView<'_>) -> Result<bool, E>,
        directly: impl FnOnce() -> Result<bool, E>,
    ) -> Result<bool, E> {
        let classes = self.classes;
        let key = classes.get(s).map(|class| (class, NONE));
        let on_image = || abstractly(classes.view(s)?).ok();
        Ok(self.lookup(key, on_image, directly)?.0)
    }

    /// The answer under `key` and whether an evaluation ran for it.
    fn lookup<E>(
        &mut self,
        key: Option<(u32, u32)>,
        on_images: impl FnOnce() -> Option<bool>,
        directly: impl FnOnce() -> Result<bool, E>,
    ) -> Result<(bool, bool), E> {
        let Some(key) = key else {
            return Ok((directly()?, true));
        };
        let slot = match self.seen.entry(key) {
            Entry::Occupied(known) => return Ok((*known.get(), false)),
            Entry::Vacant(slot) => slot,
        };
        let value = match on_images() {
            Some(value) => value,
            None => directly()?,
        };
        slot.insert(value);
        Ok((value, true))
    }
}

impl Drop for Memo<'_> {
    /// Folds this memo's step tallies into its [`Classes`].
    fn drop(&mut self) {
        self.classes.steps.fetch_add(self.steps, Ordering::Relaxed);
        self.classes
            .evaluated
            .fetch_add(self.evaluated, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, ExploreOptions, GuardedAction, Init, System};
    use opentla_kernel::{Domain, Expr, Vars};
    use std::convert::Infallible;

    fn images(graph: &StateGraph, mapping: &Substitution) -> Images {
        Images::of_graph(graph, mapping, &RecorderHandle::default())
    }

    /// `x` counts 0..=3 while `y` toggles: 8 states.
    fn counter_and_toggle() -> (System, VarId, VarId) {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, 3));
        let y = vars.declare("y", Domain::bits());
        let incr = GuardedAction::new(
            "incr",
            Expr::var(x).lt(Expr::int(3)),
            vec![(x, Expr::var(x).add(Expr::int(1)))],
        );
        let toggle = GuardedAction::new(
            "toggle",
            Expr::bool(true),
            vec![(y, Expr::int(1).sub(Expr::var(y)))],
        );
        let sys = System::new(
            vars,
            Init::new([(x, Value::Int(0)), (y, Value::Int(0))]),
            vec![incr, toggle],
        );
        (sys, x, y)
    }

    #[test]
    fn classes_project_onto_the_footprint() {
        let (sys, x, y) = counter_and_toggle();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert_eq!(graph.len(), 8);
        let id = images(&graph, &Substitution::default());
        let on_x = Classes::of_graph(&graph, &[x].into_iter().collect(), &id);
        assert_eq!(on_x.count(), 4);
        assert!(!on_x.skipped());
        for a in 0..graph.len() {
            for b in 0..graph.len() {
                assert_eq!(
                    on_x.get(a) == on_x.get(b),
                    graph.state(a).get(x) == graph.state(b).get(x),
                );
            }
        }
        // A footprint covering every variable separates every state.
        let on_both = Classes::of_graph(&graph, &[x, y].into_iter().collect(), &id);
        assert_eq!(on_both.count(), 8);
        assert!(on_both.skipped());
        assert_eq!(on_both.get(0), None);
    }

    #[test]
    fn mapped_variables_are_keyed_by_their_image() {
        let (sys, x, y) = counter_and_toggle();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        // x ↦ x ÷ 2 has two images; y is not in the footprint.
        let half = Substitution::new([(x, Expr::var(x).div(Expr::int(2)))]);
        let half = images(&graph, &half);
        assert_eq!(half.distinct_values(), 2);
        let classes = Classes::of_graph(&graph, &[x].into_iter().collect(), &half);
        assert_eq!(classes.count(), 2);
        // The view reads the image in x's slot and y's from the state.
        for id in 0..graph.len() {
            let s = graph.state(id);
            let view = classes.view(id).expect("the mapping is total");
            assert_eq!(
                view.slot(x),
                Some(&Expr::var(x).div(Expr::int(2)).eval_state(s).unwrap())
            );
            assert_eq!(view.slot(y), Some(s.get(y)));
            assert_eq!(view.slot_count(), s.len());
        }
    }

    #[test]
    fn states_without_an_image_bypass_the_memo() {
        let (sys, x, _) = counter_and_toggle();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        // 6 ÷ x is undefined where x = 0 (two of the eight states).
        let partial = Substitution::new([(x, Expr::int(6).div(Expr::var(x)))]);
        let partial = images(&graph, &partial);
        let classes = Classes::of_graph(&graph, &[x].into_iter().collect(), &partial);
        assert_eq!(classes.count(), 3);
        let unclassed: Vec<usize> = (0..graph.len())
            .filter(|id| classes.get(*id).is_none())
            .collect();
        assert_eq!(unclassed.len(), 2);
        let mut memo = Memo::new(&classes);
        let mut calls = 0;
        for _ in 0..3 {
            let got = memo.state(
                unclassed[0],
                |_| unreachable!("no abstract state to evaluate on"),
                || {
                    calls += 1;
                    Ok::<_, Infallible>(true)
                },
            );
            assert_eq!(got, Ok(true));
        }
        assert_eq!(calls, 3, "no class, so every lookup evaluates");
    }

    #[test]
    fn a_class_pair_is_evaluated_once_and_tallied() {
        let (sys, x, _) = counter_and_toggle();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let id = images(&graph, &Substitution::default());
        let classes = Classes::of_graph(&graph, &[x].into_iter().collect(), &id);
        let mut edges = 0u64;
        let mut calls = 0u64;
        {
            let mut memo = Memo::new(&classes);
            for s in 0..graph.len() {
                for e in graph.edges(s) {
                    edges += 1;
                    let same = graph.state(s).get(x) == graph.state(e.target).get(x);
                    let got = memo.step(
                        s,
                        e.target,
                        |old, new| {
                            calls += 1;
                            Ok::<_, Infallible>(old.slot(x) == new.slot(x))
                        },
                        || unreachable!("the abstract evaluation succeeds"),
                    );
                    assert_eq!(got, Ok(same));
                }
            }
        }
        // Pairs over x: (n, n) for the 4 toggles and (n, n + 1) for
        // the 3 increments.
        assert_eq!(calls, 7);
        assert_eq!(classes.steps.load(Ordering::Relaxed), edges);
        assert_eq!(classes.evaluated.load(Ordering::Relaxed), calls);
        // An abstract error falls back to the direct evaluation, whose
        // error is returned and not remembered.
        let mut memo = Memo::new(&classes);
        let boom = |_: ImageView<'_>, _: ImageView<'_>| Err::<bool, _>("abstract");
        assert_eq!(memo.step(0, 0, boom, || Err("boom")), Err("boom"));
        assert_eq!(memo.step(0, 0, boom, || Ok(true)), Ok(true));
        assert_eq!(
            memo.step(0, 0, boom, || unreachable!("remembered")),
            Ok(true)
        );
    }
}
