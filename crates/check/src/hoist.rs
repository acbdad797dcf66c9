//! Hoisted state functions: each function a set of expressions shares
//! is evaluated once per state of a graph, not once per occurrence per
//! step.
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
//! evaluates a few states. Values are interned in an ordered map, as
//! [`Images::of_graph`](crate::image::Images::of_graph) does: no value
//! is hashed.
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

use crate::compiled::{CompiledExpr, EvalScratch, SharedFunctions, Slots};
use crate::{RowView, StateGraph};
use opentla_kernel::{expect_bool, EvalError, Expr, Value, VarId};
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
    index: BTreeMap<Value, u32>,
    values: Vec<Value>,
}

impl<'a> SharedColumns<'a> {
    /// Empty columns of `functions` over the states of `graph`.
    pub fn new(functions: &'a SharedFunctions, graph: &'a StateGraph) -> SharedColumns<'a> {
        SharedColumns {
            functions,
            graph,
            ids: Vec::new(),
            index: BTreeMap::new(),
            values: Vec::new(),
        }
    }

    /// Evaluates every function at state `id`, unless that was done.
    pub fn fill(&mut self, id: usize, scratch: &mut EvalScratch) {
        let width = self.functions.len();
        if (id + 1) * width > self.ids.len() {
            let states = (id + 1).next_power_of_two().min(self.graph.len());
            self.ids.resize(states * width, UNSEEN);
        }
        let entries = &mut self.ids[id * width..(id + 1) * width];
        if entries.first().is_none_or(|&e| e != UNSEEN) {
            return;
        }
        let view = self.graph.view(id);
        for (f, entry) in entries.iter_mut().enumerate() {
            *entry = match self.functions.program(f).eval(&view, scratch) {
                Ok(value) => {
                    let values = &mut self.values;
                    1 + *self.index.entry(value).or_insert_with_key(|value| {
                        values.push(value.clone());
                        u32::try_from(values.len() - 1)
                            .ok()
                            .filter(|&id| id < UNDEFINED - 1)
                            .expect("distinct shared values fit in u32")
                    })
                }
                Err(_) => UNDEFINED,
            };
        }
    }

    /// The view of state `id`: `None` unless it was filled and every
    /// function is defined there.
    pub fn view(&self, id: usize) -> Option<SharedView<'_>> {
        let width = self.functions.len();
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
