//! Image classes: an obligation is checked once per *abstract* step,
//! not once per concrete edge.
//!
//! The hypotheses of the Composition Theorem are evaluated over one
//! explored graph under a refinement mapping `σ` (`q̄ ↦ q₂ ∘ mid ∘ q₁`
//! and the like). A step box `[A]_v`, an angle action `⟨A⟩_v` or an
//! enabledness predicate of the *abstract* specification depends on a
//! concrete step `⟨s, t⟩` only through the **image** of `s` and `t`:
//! the value `σ(v)(s)` for each mapped variable `v` the obligation
//! mentions, and `s[v]` for each unmapped one. That is the substitution
//! lemma behind the refinement-mapping argument (the paper's ref.
//! \[10\]): evaluating the substituted expression on `⟨s, t⟩` equals
//! evaluating the unsubstituted one on `⟨s̄, t̄⟩`. A product of `k`
//! components has far fewer images than states — the obligation does
//! not look at most of them.
//!
//! So, for an obligation with footprint `F` (the variables, primed or
//! not, of its *un*substituted expressions), [`Classes::of_graph`]
//! gives every graph state a class: the interned tuple
//! `⟨ v ∈ F : σ(v)(s) if v ∈ dom σ else s[v] ⟩`. A [`Memo`] then maps
//! `(class[s], class[t])` — or `class[s]` for a state predicate — to
//! the obligation's boolean, and on a miss runs the caller's own
//! evaluation of its own substituted expression on that concrete pair.
//! There is no second evaluator and no new semantics, only fewer calls.
//!
//! Two cases fall back to the evaluation the caller would have done
//! anyway:
//!
//! * a state whose key cannot be computed (a partial mapping such as
//!   `Head` of a possibly-empty sequence, or an unbound variable) has
//!   no class and **bypasses** the memo — the substituted expression
//!   may still evaluate there, because `∧`/`∨`/`⇒` short-circuit;
//! * when no two states share a class (a caller that substituted the
//!   mapping itself, so `F` covers every varying variable) the memo is
//!   **skipped**: no class is kept and every lookup evaluates.
//!
//! The class pass charges no budget and polls nothing, and a lookup
//! never replaces a charge: meter accounting, scan order, and hence
//! first-violation edges, traces, lassos and exhaustion frontiers are
//! those of the per-edge evaluation.
//!
//! `Enabled` is **not** pushed through the substitution here (it does
//! not commute with it): the enabledness a mapped fairness target is
//! checked against is still the explicit abstract predicate the caller
//! supplies, which is an ordinary state function and so has images like
//! any other.

use crate::obs::{Event, RecorderHandle};
use crate::StateGraph;
use fxhash::FxHashMap;
use opentla_kernel::{Expr, State, Substitution, Value, VarId, VarSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// "This state has no class": its key could not be computed.
const NO_CLASS: u32 = u32::MAX;

/// The class of every state of a graph under one footprint and one
/// mapping, plus the tallies its [`Memo`]s leave behind for
/// [`Event::ImageMemo`].
#[derive(Debug)]
pub struct Classes {
    /// Class per state ([`NO_CLASS`] where the key is not computable);
    /// empty when the memo is skipped.
    of: Vec<u32>,
    /// Distinct classes found.
    count: usize,
    /// Step lookups and step evaluations of every memo dropped so far.
    steps: AtomicU64,
    evaluated: AtomicU64,
}

impl Classes {
    /// One pass over `graph`: interns each state's image tuple over
    /// `footprint` under `mapping`. Values are interned to `u32`s and
    /// the tuples keyed as `Box<[u32]>`; both interners are dropped
    /// before this returns, so what stays resident is four bytes per
    /// state (nothing when skipped).
    pub fn of_graph(graph: &StateGraph, footprint: &VarSet, mapping: &Substitution) -> Classes {
        let slots: Vec<(VarId, Option<&Expr>)> =
            footprint.iter().map(|v| (v, mapping.get(v))).collect();
        let mut values: FxHashMap<Value, u32> = FxHashMap::default();
        let mut keys: FxHashMap<Box<[u32]>, u32> = FxHashMap::default();
        let mut key = Vec::with_capacity(slots.len());
        let mut of = Vec::with_capacity(graph.len());
        let mut classed = 0usize;
        for s in graph.states() {
            if !image_key(s, &slots, &mut values, &mut key) {
                of.push(NO_CLASS);
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
        self.of.get(id).copied().filter(|class| *class != NO_CLASS)
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

/// Writes the image tuple of `s` into `key`; `false` if some component
/// has no value at `s`.
fn image_key(
    s: &State,
    slots: &[(VarId, Option<&Expr>)],
    values: &mut FxHashMap<Value, u32>,
    key: &mut Vec<u32>,
) -> bool {
    key.clear();
    for (v, image) in slots {
        let id = match image {
            Some(e) => match e.eval_state(s) {
                Ok(value) => intern(values, &value),
                Err(_) => return false,
            },
            None => match s.try_get(*v) {
                Some(value) => intern(values, value),
                None => return false,
            },
        };
        key.push(id);
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
/// one memo per predicate (and per worker: memos are not shared, so
/// there is no lock).
#[derive(Debug)]
pub struct Memo<'c> {
    classes: &'c Classes,
    /// `(class[s], class[t])`, or `(class[s], NO_CLASS)` for a state
    /// predicate — no class id equals [`NO_CLASS`].
    seen: FxHashMap<(u32, u32), bool>,
    steps: u64,
    evaluated: u64,
}

impl<'c> Memo<'c> {
    /// An empty memo over `classes`.
    pub fn new(classes: &'c Classes) -> Self {
        Memo {
            classes,
            seen: FxHashMap::default(),
            steps: 0,
            evaluated: 0,
        }
    }

    /// The predicate's value on the step `⟨s, t⟩`: the remembered
    /// answer of its class pair, else `eval()` (the caller's direct
    /// evaluation on this concrete pair), remembered if both states
    /// have a class.
    ///
    /// # Errors
    ///
    /// Whatever `eval` returns; errors are not remembered.
    pub fn step<E>(
        &mut self,
        s: usize,
        t: usize,
        eval: impl FnOnce() -> Result<bool, E>,
    ) -> Result<bool, E> {
        self.steps += 1;
        let key = self.classes.get(s).zip(self.classes.get(t));
        let mut ran = false;
        let value = self.lookup(key, || {
            ran = true;
            eval()
        })?;
        self.evaluated += u64::from(ran);
        Ok(value)
    }

    /// The state-predicate analogue of [`Memo::step`], keyed by the
    /// class of `s` alone.
    ///
    /// # Errors
    ///
    /// Whatever `eval` returns; errors are not remembered.
    pub fn state<E>(
        &mut self,
        s: usize,
        eval: impl FnOnce() -> Result<bool, E>,
    ) -> Result<bool, E> {
        let key = self.classes.get(s).map(|class| (class, NO_CLASS));
        self.lookup(key, eval)
    }

    fn lookup<E>(
        &mut self,
        key: Option<(u32, u32)>,
        eval: impl FnOnce() -> Result<bool, E>,
    ) -> Result<bool, E> {
        let Some(key) = key else {
            return eval();
        };
        if let Some(value) = self.seen.get(&key) {
            return Ok(*value);
        }
        let value = eval()?;
        self.seen.insert(key, value);
        Ok(value)
    }
}

impl Drop for Memo<'_> {
    /// Folds this memo's step tallies into its [`Classes`] — on the
    /// thread that used it, so a worker's memo dies with the worker.
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
    use opentla_kernel::{Domain, Vars};
    use std::convert::Infallible;

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
        let id = Substitution::default();
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
        let classes = Classes::of_graph(&graph, &[x].into_iter().collect(), &half);
        assert_eq!(classes.count(), 2);
        let _ = y;
    }

    #[test]
    fn states_without_an_image_bypass_the_memo() {
        let (sys, x, _) = counter_and_toggle();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        // 6 ÷ x is undefined where x = 0 (two of the eight states).
        let partial = Substitution::new([(x, Expr::int(6).div(Expr::var(x)))]);
        let classes = Classes::of_graph(&graph, &[x].into_iter().collect(), &partial);
        assert_eq!(classes.count(), 3);
        let unclassed: Vec<usize> = (0..graph.len())
            .filter(|id| classes.get(*id).is_none())
            .collect();
        assert_eq!(unclassed.len(), 2);
        let mut memo = Memo::new(&classes);
        let mut calls = 0;
        for _ in 0..3 {
            let got = memo.state(unclassed[0], || {
                calls += 1;
                Ok::<_, Infallible>(true)
            });
            assert_eq!(got, Ok(true));
        }
        assert_eq!(calls, 3, "no class, so every lookup evaluates");
    }

    #[test]
    fn a_class_pair_is_evaluated_once_and_tallied() {
        let (sys, x, _) = counter_and_toggle();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let classes =
            Classes::of_graph(&graph, &[x].into_iter().collect(), &Substitution::default());
        let mut edges = 0u64;
        let mut calls = 0u64;
        {
            let mut memo = Memo::new(&classes);
            for s in 0..graph.len() {
                for e in graph.edges(s) {
                    edges += 1;
                    let same = graph.state(s).get(x) == graph.state(e.target).get(x);
                    let got = memo.step(s, e.target, || {
                        calls += 1;
                        Ok::<_, Infallible>(same)
                    });
                    assert_eq!(got, Ok(same));
                }
            }
        }
        // Pairs over x: (n, n) for the 4 toggles and (n, n + 1) for
        // the 3 increments.
        assert_eq!(calls, 7);
        assert_eq!(classes.steps.load(Ordering::Relaxed), edges);
        assert_eq!(classes.evaluated.load(Ordering::Relaxed), calls);
        // An error is returned and not remembered.
        let mut memo = Memo::new(&classes);
        assert_eq!(memo.step(0, 0, || Err::<bool, _>("boom")), Err("boom"));
        assert_eq!(memo.step(0, 0, || Ok::<_, &str>(true)), Ok(true));
    }
}
