//! Compiled programs: state functions and actions flattened to
//! stack-machine programs.
//!
//! The tree-walking evaluator in `opentla-kernel` chases `Box` pointers
//! and pays a recursive call per AST node — fine for checking a single
//! invariant, dominant in an exploration hot loop that fires every
//! action in every reachable state, or in an obligation check that
//! decides a box per abstract step. [`CompiledExpr`] compiles an
//! expression **once** into a flat postfix program executed over a
//! reusable value stack ([`EvalScratch`]), eliminating per-node
//! allocation and recursion. [`CompiledSystem`] is every action's guard
//! and updates compiled that way: the successor stepper.
//!
//! **Stepping on slot codes.** Exploration keeps states as packed rows
//! ([`PackedLayout`]) and steps them with
//! [`CompiledSystem::for_each_packed_successor`], which mostly does not
//! evaluate at all. In the paper's interleaving products every action
//! is one component's step: its guard and updates read a handful of
//! slots with a few values each. So each action has a dense table, in
//! the run's one [`StepMemo`], keyed by the mixed-radix number of the
//! row's codes in the slots it reads (its *read set*, each slot's
//! domain size the radix), whose entry says "disabled" or lists the
//! `(slot, new code)` [`Effect`]s of its updates. Only a miss unpacks
//! the row and runs the programs below; errors are never tabled. An
//! action whose key space passes a fixed cap has no table and misses
//! every time. The engines derive the child's fingerprint from the
//! effects (`PackedLayout::fingerprint_delta`) and write its row; a
//! `Value` appears only on a miss, or when a new state must be handed
//! out as a [`State`]. This is LTSmin's transition-group cache over
//! short dependency vectors, the read sets being the vectors.
//! [`CompiledSystem::for_each_successor`] steps a [`State`]: the
//! stepper of everything but exploration.
//!
//! There is one evaluator loop, generic over where a program reads its
//! variables (a slot source): a bare `[Value]` slice — a miss's
//! unpacked row — a [`State`], a [`RowView`](crate::RowView) (a graph
//! state on its row), or [`ImageView`](crate::image::ImageView), a graph
//! state whose mapped slots are read from the image column (what an
//! obligation's memo miss, and the `⊳` monitor's, is decided on). The
//! loop is monomorphized per source, so the stepper's load is a slice
//! index, as it always was.
//!
//! **Shared functions.** A check that decides several expressions on
//! every step — the `⊳` monitor — may meet one state function many
//! times per step: the mapped guarantee of a queue chain reads `q̄` or
//! `q̄′` nine times in one box. [`SharedFunctions::of`] finds the state
//! functions a set of expressions shares (the maximal subexpressions
//! that read only unprimed or only primed variables and whose unprimed
//! form occurs twice or more); [`hoist`](crate::hoist) names each by a
//! fresh variable and reads it as a mapped one.
//!
//! The compiled form is semantics-preserving by construction: operator
//! application delegates to the kernel's own [`UnOp::apply`] /
//! [`BinOp::apply`], and short-circuiting (`∧`, `∨`, `⇒`, `IF`) is
//! reproduced with explicit jumps, so evaluation order, verdicts, *and
//! errors* are identical to [`Expr::eval_state`] on a state and to
//! [`Expr::eval_action`] on a step ([`CompiledExpr::eval_step`]). The
//! interpreter is the oracle: `crates/check/tests/proptest_compiled.rs`
//! compares the two, as `Result`s, on random expressions over random
//! variables, states, steps and image views, and
//! `crates/check/tests/proptest_packed_step.rs` compares packed stepping,
//! on cold and warm tables, with [`System::successors`] at every
//! reachable state of random systems.
//!
//! A primed variable compiles to a primed load: on a step it reads the
//! successor; evaluated as a state function it raises the
//! interpreter's [`EvalError::PrimeInStateContext`] — lazily, so primes
//! in short-circuited branches stay unobserved, exactly as in the tree
//! walker.

use crate::checkpoint::CheckpointError;
use crate::obs::{Event, RecorderHandle};
use crate::{CheckError, GuardedAction, System};
use opentla_kernel::{
    expect_bool, BinOp, EvalError, Expr, PackedLayout, State, UnOp, Value, VarId, VarSet, Vars,
};
use std::ops::ControlFlow;

/// Where a running program reads its variables: one slot per
/// [`VarId`]. The evaluator is monomorphized per implementation. Not
/// re-exported: the implementations are the four sources above.
pub trait Slots {
    /// The value in `v`'s slot; `None` past the last slot.
    fn slot(&self, v: VarId) -> Option<&Value>;
    /// The number of slots (an unbound variable's `state_len`).
    fn slot_count(&self) -> usize;
}

impl Slots for [Value] {
    #[inline]
    fn slot(&self, v: VarId) -> Option<&Value> {
        self.get(v.index())
    }

    #[inline]
    fn slot_count(&self) -> usize {
        self.len()
    }
}

impl Slots for State {
    #[inline]
    fn slot(&self, v: VarId) -> Option<&Value> {
        self.try_get(v)
    }

    #[inline]
    fn slot_count(&self) -> usize {
        self.len()
    }
}

/// One instruction of a compiled program.
#[derive(Clone, Debug)]
enum Op {
    /// Push a constant.
    Const(Value),
    /// Push the value of an unprimed variable.
    Load(VarId),
    /// Push the value of a primed variable: the successor's slot on a
    /// step; on a state, the interpreter's error for a primed variable
    /// in a state context (with the same laziness as the tree walker).
    LoadPrimed(VarId),
    /// Pop the operand, push `op(operand)`.
    Unary(UnOp),
    /// Pop both operands, push `op(a, b)`.
    Binary(BinOp),
    /// Conjunct boundary: pop a bool; on `false`, push `FALSE` and jump
    /// to `end` (skipping the remaining conjuncts).
    AndProbe { end: u32 },
    /// Disjunct boundary: pop a bool; on `true`, push `TRUE` and jump
    /// to `end`.
    OrProbe { end: u32 },
    /// Antecedent boundary of `⇒`: pop a bool; on `false`, push `TRUE`
    /// and jump to `end` (the consequent stays unevaluated).
    ImpliesProbe { end: u32 },
    /// Pop a bool; jump to `target` when it is false (the `IF` branch).
    JumpIfFalse { target: u32 },
    /// Unconditional jump (joins the `THEN` arm to the end).
    Jump { target: u32 },
    /// Push a boolean constant (the unit of an `∧`/`∨` chain).
    PushBool(bool),
    /// Assert the top of stack is a boolean (the `⇒` consequent's
    /// "boolean context" check), leaving it in place.
    EnsureBool,
    /// Pop `n` values, push the tuple of them (in evaluation order).
    MkTuple(u32),
    /// Pop `n` values, push the sequence of them.
    MkSeq(u32),
    /// Pop a value, push whether it belongs to the listed set.
    InSet(Vec<Value>),
}

/// An expression compiled to a flat postfix program.
///
/// Build with [`CompiledExpr::compile`]; run a state function with
/// [`CompiledExpr::eval`] and an action with [`CompiledExpr::eval_step`],
/// against a reusable [`EvalScratch`]. Either reads a bare value slice,
/// a [`State`] or an [`ImageView`](crate::image::ImageView).
#[derive(Clone, Debug)]
pub struct CompiledExpr {
    ops: Vec<Op>,
}

impl CompiledExpr {
    /// Compiles an expression. Any expression is accepted; a primed
    /// variable evaluated as a state function fails at evaluation time
    /// exactly like the interpreter does.
    pub fn compile(expr: &Expr) -> CompiledExpr {
        let mut ops = Vec::new();
        emit(expr, &mut ops);
        CompiledExpr { ops }
    }

    /// Evaluates the program as a state function on `s`.
    ///
    /// # Errors
    ///
    /// The same evaluation errors, in the same evaluation order, as
    /// [`Expr::eval_state`] on the source expression.
    pub fn eval<S: Slots + ?Sized>(
        &self,
        s: &S,
        scratch: &mut EvalScratch,
    ) -> Result<Value, EvalError> {
        self.run(s, None, scratch)
    }

    /// Evaluates the program as an action on the step `⟨old, new⟩`:
    /// unprimed variables read `old`, primed ones `new`.
    ///
    /// # Errors
    ///
    /// The same evaluation errors, in the same evaluation order, as
    /// [`Expr::eval_action`] on the source expression.
    pub fn eval_step<S: Slots + ?Sized>(
        &self,
        old: &S,
        new: &S,
        scratch: &mut EvalScratch,
    ) -> Result<Value, EvalError> {
        self.run(old, Some(new), scratch)
    }

    /// Evaluates the program as a boolean state function (a guard).
    ///
    /// # Errors
    ///
    /// As [`CompiledExpr::eval`], plus "boolean context" if the result
    /// is not a boolean — those of [`Expr::holds_state`].
    pub fn holds<S: Slots + ?Sized>(
        &self,
        s: &S,
        scratch: &mut EvalScratch,
    ) -> Result<bool, EvalError> {
        expect_bool(self.eval(s, scratch)?)
    }

    /// Evaluates the program as a boolean action on `⟨old, new⟩`.
    ///
    /// # Errors
    ///
    /// As [`CompiledExpr::eval_step`], plus "boolean context" if the
    /// result is not a boolean — those of [`Expr::holds_action`].
    pub fn holds_step<S: Slots + ?Sized>(
        &self,
        old: &S,
        new: &S,
        scratch: &mut EvalScratch,
    ) -> Result<bool, EvalError> {
        expect_bool(self.eval_step(old, new, scratch)?)
    }

    /// The one evaluator loop. `new` is the successor on a step, `None`
    /// for a state function.
    fn run<S: Slots + ?Sized>(
        &self,
        old: &S,
        new: Option<&S>,
        scratch: &mut EvalScratch,
    ) -> Result<Value, EvalError> {
        let stack = &mut scratch.stack;
        stack.clear();
        let mut pc = 0usize;
        while let Some(op) = self.ops.get(pc) {
            pc += 1;
            match op {
                Op::Const(v) => stack.push(v.clone()),
                Op::Load(v) => match old.slot(*v) {
                    Some(value) => stack.push(value.clone()),
                    None => return Err(unbound(old, *v)),
                },
                Op::LoadPrimed(v) => match new {
                    Some(new) => match new.slot(*v) {
                        Some(value) => stack.push(value.clone()),
                        None => return Err(unbound(new, *v)),
                    },
                    None => return Err(EvalError::PrimeInStateContext { var: *v }),
                },
                Op::Unary(un) => {
                    let v = pop(stack);
                    stack.push(un.apply(v)?);
                }
                Op::Binary(bin) => {
                    let b = pop(stack);
                    let a = pop(stack);
                    stack.push(bin.apply(a, b)?);
                }
                Op::AndProbe { end } => {
                    if !expect_bool(pop(stack))? {
                        stack.push(Value::Bool(false));
                        pc = *end as usize;
                    }
                }
                Op::OrProbe { end } => {
                    if expect_bool(pop(stack))? {
                        stack.push(Value::Bool(true));
                        pc = *end as usize;
                    }
                }
                Op::ImpliesProbe { end } => {
                    if !expect_bool(pop(stack))? {
                        stack.push(Value::Bool(true));
                        pc = *end as usize;
                    }
                }
                Op::JumpIfFalse { target } => {
                    if !expect_bool(pop(stack))? {
                        pc = *target as usize;
                    }
                }
                Op::Jump { target } => pc = *target as usize,
                Op::PushBool(b) => stack.push(Value::Bool(*b)),
                Op::EnsureBool => {
                    let v = pop(stack);
                    stack.push(Value::Bool(expect_bool(v)?));
                }
                Op::MkTuple(n) => {
                    let items = stack.split_off(stack.len() - *n as usize);
                    stack.push(Value::Tuple(items.into()));
                }
                Op::MkSeq(n) => {
                    let items = stack.split_off(stack.len() - *n as usize);
                    stack.push(Value::Seq(items.into()));
                }
                Op::InSet(set) => {
                    let v = pop(stack);
                    stack.push(Value::Bool(set.contains(&v)));
                }
            }
        }
        debug_assert_eq!(stack.len(), 1, "compiled program left a ragged stack");
        Ok(pop(stack))
    }
}

/// The interpreter's error for a variable `s` has no slot for.
#[cold]
fn unbound<S: Slots + ?Sized>(s: &S, var: VarId) -> EvalError {
    EvalError::UnboundVar {
        var,
        state_len: s.slot_count(),
    }
}

#[inline]
fn pop(stack: &mut Vec<Value>) -> Value {
    stack.pop().expect("compiled program underflowed its stack")
}

fn emit(expr: &Expr, ops: &mut Vec<Op>) {
    match expr {
        Expr::Const(v) => ops.push(Op::Const(v.clone())),
        Expr::Var(v) => ops.push(Op::Load(*v)),
        Expr::Prime(v) => ops.push(Op::LoadPrimed(*v)),
        Expr::Unary(op, e) => {
            emit(e, ops);
            ops.push(Op::Unary(*op));
        }
        Expr::Binary(BinOp::Implies, a, b) => {
            emit(a, ops);
            let probe = ops.len();
            ops.push(Op::ImpliesProbe { end: 0 });
            emit(b, ops);
            ops.push(Op::EnsureBool);
            let end = ops.len() as u32;
            let Op::ImpliesProbe { end: slot } = &mut ops[probe] else {
                unreachable!("probe written above")
            };
            *slot = end;
        }
        Expr::Binary(op, a, b) => {
            emit(a, ops);
            emit(b, ops);
            ops.push(Op::Binary(*op));
        }
        Expr::And(es) => emit_chain(es, ops, true),
        Expr::Or(es) => emit_chain(es, ops, false),
        Expr::Ite(c, a, b) => {
            emit(c, ops);
            let branch = ops.len();
            ops.push(Op::JumpIfFalse { target: 0 });
            emit(a, ops);
            let join = ops.len();
            ops.push(Op::Jump { target: 0 });
            let else_at = ops.len() as u32;
            emit(b, ops);
            let end = ops.len() as u32;
            let Op::JumpIfFalse { target } = &mut ops[branch] else {
                unreachable!("branch written above")
            };
            *target = else_at;
            let Op::Jump { target } = &mut ops[join] else {
                unreachable!("join written above")
            };
            *target = end;
        }
        Expr::Tuple(es) => {
            for e in es {
                emit(e, ops);
            }
            ops.push(Op::MkTuple(es.len() as u32));
        }
        Expr::MkSeq(es) => {
            for e in es {
                emit(e, ops);
            }
            ops.push(Op::MkSeq(es.len() as u32));
        }
        Expr::InSet(e, set) => {
            emit(e, ops);
            ops.push(Op::InSet(set.clone()));
        }
    }
}

/// Emits an `∧` chain (`conjunctive = true`) or `∨` chain, with each
/// element followed by a probe that short-circuits to the end.
fn emit_chain(es: &[Expr], ops: &mut Vec<Op>, conjunctive: bool) {
    let mut probes = Vec::with_capacity(es.len());
    for e in es {
        emit(e, ops);
        probes.push(ops.len());
        ops.push(if conjunctive {
            Op::AndProbe { end: 0 }
        } else {
            Op::OrProbe { end: 0 }
        });
    }
    // Every element held (resp. failed): push the chain's unit.
    ops.push(Op::PushBool(conjunctive));
    let end = ops.len() as u32;
    for p in probes {
        match &mut ops[p] {
            Op::AndProbe { end: slot } | Op::OrProbe { end: slot } => *slot = end,
            _ => unreachable!("probe written above"),
        }
    }
}

/// The state functions a set of expressions shares, to be evaluated
/// at most once per state instead of once per occurrence
/// ([`hoist`](crate::hoist) reads them as mapped variables).
///
/// A *candidate* is a subexpression other than a constant or a
/// variable that reads only unprimed variables, or only primed ones; a
/// primed-only one counts as its unprimed twin (`q̄′` as `q̄`). A
/// candidate is shared when its unprimed form occurs at least twice
/// across the expressions, and the functions are the maximal shared
/// candidates, unprimed, numbered in order of first occurrence. On the
/// `⊳` monitor of `QueueChain(4,1,2)` they are `i.sig = i.ack`,
/// `1 - i.sig`, `q̄` and `Len(q̄)`.
///
/// The analysis records one entry per node, in one vector, with the
/// node's reads and a hash of its shape (primes and constants' values
/// left out), and compares twins structurally without building them.
/// Only the chosen functions are cloned, once each.
#[derive(Clone, Debug, Default)]
pub struct SharedFunctions {
    /// Unprimed, by number.
    functions: Vec<Expr>,
}

/// One node of the analysis, in pre-order over all expressions.
struct Node<'e> {
    expr: &'e Expr,
    /// The shape hash: equal for twins.
    hash: u64,
    /// The node and its descendants.
    size: u32,
    /// [`READS_UNPRIMED`] and [`READS_PRIMED`], or'ed.
    reads: u8,
}

const READS_UNPRIMED: u8 = 1;
const READS_PRIMED: u8 = 2;
/// The class of a node that is no candidate.
const NO_CLASS: u32 = u32::MAX;

impl SharedFunctions {
    /// The functions `exprs` share, see [`SharedFunctions`].
    pub fn of<'e>(exprs: impl IntoIterator<Item = &'e Expr>) -> SharedFunctions {
        let mut nodes = Vec::new();
        for e in exprs {
            record(e, &mut nodes);
        }
        let candidate = |n: &Node<'_>| {
            !matches!(n.expr, Expr::Const(_) | Expr::Var(_) | Expr::Prime(_))
                && (n.reads == READS_UNPRIMED || n.reads == READS_PRIMED)
        };
        let mut order: Vec<u32> = (0..nodes.len() as u32)
            .filter(|&i| candidate(&nodes[i as usize]))
            .collect();
        order.sort_unstable_by_key(|&i| (nodes[i as usize].hash, i));
        // The class of a candidate is its first twin in node order; the
        // count is kept at the class's node.
        let mut class = vec![NO_CLASS; nodes.len()];
        let mut count = vec![0u32; nodes.len()];
        for run in order.chunk_by(|&a, &b| nodes[a as usize].hash == nodes[b as usize].hash) {
            for (k, &i) in run.iter().enumerate() {
                let expr = nodes[i as usize].expr;
                let first = run[..k]
                    .iter()
                    .find(|&&j| {
                        class[j as usize] == j
                            && twins(nodes[j as usize].expr, expr, &|a, b| var_of(a) == var_of(b))
                    })
                    .copied()
                    .unwrap_or(i);
                class[i as usize] = first;
                count[first as usize] += 1;
            }
        }
        // Top-down: a shared node is taken whole, its descendants not.
        let mut functions: Vec<Expr> = Vec::new();
        let mut taken = vec![false; nodes.len()];
        let mut i = 0;
        while i < nodes.len() {
            let c = class[i];
            if c == NO_CLASS || count[c as usize] < 2 {
                i += 1;
                continue;
            }
            if !std::mem::replace(&mut taken[c as usize], true) {
                functions.push(unprimed(nodes[i].expr));
            }
            i += nodes[i].size as usize;
        }
        SharedFunctions { functions }
    }

    /// The number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether nothing is shared.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// The functions, unprimed, by number.
    pub fn functions(&self) -> impl Iterator<Item = &Expr> {
        self.functions.iter()
    }

    /// The number of the function `expr` is an occurrence of, and
    /// whether it is its primed twin (`q̄′` of `q̄`); `None` for no
    /// occurrence.
    pub(crate) fn occurrence(&self, expr: &Expr) -> Option<(usize, bool)> {
        if matches!(expr, Expr::Const(_) | Expr::Var(_) | Expr::Prime(_)) {
            return None;
        }
        self.functions.iter().enumerate().find_map(|(f, function)| {
            [false, true].into_iter().find_map(|primed| {
                let var = |e: &Expr, f: &Expr| match (e, f) {
                    (Expr::Var(a), Expr::Var(b)) => !primed && a == b,
                    (Expr::Prime(a), Expr::Var(b)) => primed && a == b,
                    _ => false,
                };
                twins(expr, function, &var).then_some((f, primed))
            })
        })
    }
}

/// Records `e` and its descendants in pre-order (the order [`emit`]
/// visits them in) and returns its shape hash and reads.
fn record<'e>(e: &'e Expr, nodes: &mut Vec<Node<'e>>) -> (u64, u8) {
    let at = nodes.len();
    nodes.push(Node {
        expr: e,
        hash: 0,
        size: 1,
        reads: 0,
    });
    let (mut hash, mut reads) = match e {
        Expr::Const(_) => (0, 0),
        Expr::Var(v) => (mix(1, v.index() as u64), READS_UNPRIMED),
        Expr::Prime(v) => (mix(1, v.index() as u64), READS_PRIMED),
        Expr::Unary(op, _) => (mix(2, *op as u64), 0),
        Expr::Binary(op, ..) => (mix(3, *op as u64), 0),
        Expr::And(_) => (4, 0),
        Expr::Or(_) => (5, 0),
        Expr::Ite(..) => (6, 0),
        Expr::Tuple(_) => (7, 0),
        Expr::MkSeq(_) => (8, 0),
        Expr::InSet(..) => (9, 0),
    };
    for child in children(e) {
        let (h, r) = record(child, nodes);
        hash = mix(hash, h);
        reads |= r;
    }
    let size = (nodes.len() - at) as u32;
    let node = &mut nodes[at];
    (node.hash, node.size, node.reads) = (hash, size, reads);
    (hash, reads)
}

#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// The operands of `e`, in evaluation order.
fn children(e: &Expr) -> impl Iterator<Item = &Expr> {
    let (boxed, listed): ([Option<&Expr>; 3], &[Expr]) = match e {
        Expr::Const(_) | Expr::Var(_) | Expr::Prime(_) => ([None; 3], &[]),
        Expr::Unary(_, a) | Expr::InSet(a, _) => ([Some(a), None, None], &[]),
        Expr::Binary(_, a, b) => ([Some(a), Some(b), None], &[]),
        Expr::Ite(c, a, b) => ([Some(c), Some(a), Some(b)], &[]),
        Expr::And(es) | Expr::Or(es) | Expr::Tuple(es) | Expr::MkSeq(es) => ([None; 3], es),
    };
    boxed.into_iter().flatten().chain(listed)
}

/// Whether `a` and `b` are the same expression up to their variables,
/// which `var` compares (it sees every pair with a variable on either
/// side).
fn twins(a: &Expr, b: &Expr, var: &impl Fn(&Expr, &Expr) -> bool) -> bool {
    let all = |xs: &[Expr], ys: &[Expr]| {
        xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| twins(x, y, var))
    };
    match (a, b) {
        (Expr::Var(_) | Expr::Prime(_), _) | (_, Expr::Var(_) | Expr::Prime(_)) => var(a, b),
        (Expr::Const(x), Expr::Const(y)) => x == y,
        (Expr::Unary(o, x), Expr::Unary(p, y)) => o == p && twins(x, y, var),
        (Expr::Binary(o, x1, x2), Expr::Binary(p, y1, y2)) => {
            o == p && twins(x1, y1, var) && twins(x2, y2, var)
        }
        (Expr::And(xs), Expr::And(ys))
        | (Expr::Or(xs), Expr::Or(ys))
        | (Expr::Tuple(xs), Expr::Tuple(ys))
        | (Expr::MkSeq(xs), Expr::MkSeq(ys)) => all(xs, ys),
        (Expr::Ite(c, x1, x2), Expr::Ite(d, y1, y2)) => {
            twins(c, d, var) && twins(x1, y1, var) && twins(x2, y2, var)
        }
        (Expr::InSet(x, s), Expr::InSet(y, t)) => s == t && twins(x, y, var),
        _ => false,
    }
}

/// The variable of a `Var` or `Prime` node.
fn var_of(e: &Expr) -> Option<VarId> {
    match e {
        Expr::Var(v) | Expr::Prime(v) => Some(*v),
        _ => None,
    }
}

/// `e` with every primed variable unprimed.
fn unprimed(e: &Expr) -> Expr {
    match e {
        Expr::Prime(v) => Expr::Var(*v),
        e => map_operands(e, unprimed),
    }
}

/// `e` with each operand replaced by `f` of it, in evaluation order; a
/// constant or a variable is itself.
pub(crate) fn map_operands(e: &Expr, mut f: impl FnMut(&Expr) -> Expr) -> Expr {
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::Prime(_) => e.clone(),
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(f(a))),
        Expr::Binary(op, a, b) => Expr::Binary(*op, Box::new(f(a)), Box::new(f(b))),
        Expr::And(es) => Expr::And(es.iter().map(f).collect()),
        Expr::Or(es) => Expr::Or(es.iter().map(f).collect()),
        Expr::Ite(c, a, b) => Expr::Ite(Box::new(f(c)), Box::new(f(a)), Box::new(f(b))),
        Expr::Tuple(es) => Expr::Tuple(es.iter().map(f).collect()),
        Expr::MkSeq(es) => Expr::MkSeq(es.iter().map(f).collect()),
        Expr::InSet(a, set) => Expr::InSet(Box::new(f(a)), set.clone()),
    }
}

/// Reusable evaluation buffers for the compiled stepper: the value
/// stack and the pending-update list. One scratch per worker thread;
/// after warm-up the hot loop performs no stack/update allocations.
#[derive(Debug, Default)]
pub struct EvalScratch {
    stack: Vec<Value>,
    assignments: Vec<(VarId, Value)>,
}

impl EvalScratch {
    /// Fresh (empty) scratch buffers.
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }
}

/// Cap on the keys of one action's effect table: the product of its read
/// slots' domain sizes. An action past it has no table, and every
/// lookup of it is a miss. A table is 4 bytes a key, allocated zeroed,
/// so the pages a worker never touches cost nothing.
const MAX_TABLE_KEYS: usize = 1 << 14;

/// A table entry: not yet evaluated.
const UNKNOWN: u32 = 0;
/// A table entry: the guard is false.
const DISABLED: u32 = 1;
/// A table entry at or past this: enabled, its effects starting at
/// `entry - FIRST_RUN` in the table's runs.
const FIRST_RUN: u32 = 2;

/// One compiled guarded action: the guard program plus one update
/// program per assigned variable, and the shape of its effect table.
#[derive(Debug)]
struct CompiledAction {
    guard: CompiledExpr,
    updates: Vec<(VarId, CompiledExpr)>,
    /// The key digits: each slot the guard and updates read, with its
    /// domain size as radix, most significant first. `None` when the
    /// action has no table — its keys pass [`MAX_TABLE_KEYS`], or it
    /// reads a variable the system does not declare.
    digits: Option<Vec<(usize, u32)>>,
    /// The table's size: the product of the radices (0 without one).
    keys: usize,
}

impl CompiledAction {
    /// The key of `row` in this action's table, if it has one: the
    /// mixed-radix number of the row's codes in the read slots.
    #[inline]
    fn key(&self, layout: &PackedLayout, row: &[u8]) -> Option<usize> {
        let digits = self.digits.as_ref()?;
        Some(digits.iter().fold(0, |key, &(slot, radix)| {
            let code = layout.read_code(row, slot);
            debug_assert!(code < radix, "rows hold in-domain codes");
            key * radix as usize + code as usize
        }))
    }
}

/// The key digits of `action` over `vars` and its number of keys —
/// `(None, 0)` when it gets no table; see [`CompiledAction::digits`].
fn table_shape(action: &GuardedAction, vars: &Vars) -> (Option<Vec<(usize, u32)>>, usize) {
    let (mut reads, mut primed) = (VarSet::new(), VarSet::new());
    action.guard().vars_into(&mut reads, &mut primed);
    for (_, e) in action.updates() {
        e.vars_into(&mut reads, &mut primed);
    }
    let mut keys = 1usize;
    let digits = reads
        .iter()
        .map(|v| {
            let radix = (v.index() < vars.len()).then(|| vars.domain(v).len())?;
            keys = keys.checked_mul(radix).filter(|&k| k <= MAX_TABLE_KEYS)?;
            Some((v.index(), radix as u32))
        })
        .collect::<Option<Vec<_>>>();
    match digits {
        Some(digits) => (Some(digits), keys),
        None => (None, 0),
    }
}

/// One slot a successor rewrites: what packed stepping hands its
/// visitor, one per update of the action, in update order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Effect {
    /// The updated variable's slot.
    pub slot: u32,
    /// The code of its new value in the slot's domain.
    pub code: u32,
}

/// A stepper's effect tables for
/// [`CompiledSystem::for_each_packed_successor`] — a dense table per
/// action, filled as parents miss — with the buffers a miss evaluates
/// in and the counts of the run's `step_memo` event. A memo serves one
/// compiled system and a layout of that system's variables; it lives
/// and dies with its stepper.
#[derive(Debug, Default)]
pub struct StepMemo {
    tables: Vec<Table>,
    /// The parent of a miss, unpacked once however many actions miss.
    values: Vec<Value>,
    /// The effects of an action without a table.
    effects: Vec<Effect>,
    eval: EvalScratch,
    stats: MemoStats,
    /// Each miss since the last [`StepMemo::take_misses`], when the
    /// memo was made to log them.
    log: Option<Vec<Miss>>,
}

/// A lookup that evaluated, as a logging memo keeps it: the action,
/// and whether its entry was filled (an action without a table has
/// none to fill). What [`MemoStats`] counted for a row up to any one of
/// its actions is read off the misses logged for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Miss {
    pub(crate) action: u32,
    pub(crate) filled: bool,
}

impl StepMemo {
    /// Empty tables.
    pub fn new() -> StepMemo {
        StepMemo::default()
    }

    /// Empty tables allocated for `compiled`'s actions, with room to
    /// log a row's misses: stepping then allocates only as entries are
    /// filled.
    pub(crate) fn logging(compiled: &CompiledSystem<'_>) -> StepMemo {
        let mut memo = StepMemo {
            log: Some(Vec::with_capacity(compiled.actions.len())),
            ..StepMemo::default()
        };
        compiled.size_tables(&mut memo);
        memo
    }

    /// What the tables did so far.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Drains the misses logged since the last call, in lookup order
    /// (none unless the memo is [`StepMemo::logging`]).
    pub(crate) fn take_misses(&mut self) -> impl Iterator<Item = Miss> + '_ {
        self.log.iter_mut().flat_map(|log| log.drain(..))
    }
}

/// One action's effect table.
#[derive(Debug, Default)]
struct Table {
    /// One entry per key: [`UNKNOWN`], [`DISABLED`], or [`FIRST_RUN`]
    /// plus where the key's effects start in `runs`.
    entries: Vec<u32>,
    /// The enabled keys' effects, one run of the action's update count
    /// each.
    runs: Vec<Effect>,
}

/// What effect tables did: the counts of a `step_memo` event, for a
/// [`StepMemo`] so far or for a run up to where it stopped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Entries filled.
    pub entries: u64,
    /// Actions looked up, one per action per parent stepped.
    pub lookups: u64,
    /// Lookups that evaluated: the entry was unknown, or the action
    /// has no table.
    pub misses: u64,
}

/// A [`System`] with every action compiled for high-throughput
/// successor computation.
///
/// Borrowing — not consuming — the system keeps the compiled form a
/// pure accelerator: names, domains, and error reporting still come
/// from the source system, and both steppers are observationally
/// identical to [`System::successors`]: [`for_each_successor`] on a
/// [`State`], [`for_each_packed_successor`] on a packed row.
///
/// [`for_each_successor`]: CompiledSystem::for_each_successor
/// [`for_each_packed_successor`]: CompiledSystem::for_each_packed_successor
#[derive(Debug)]
pub struct CompiledSystem<'a> {
    system: &'a System,
    actions: Vec<CompiledAction>,
}

impl<'a> CompiledSystem<'a> {
    /// Compiles every action of the system. Cost is linear in the total
    /// expression size — negligible next to any exploration.
    pub fn compile(system: &'a System) -> CompiledSystem<'a> {
        let actions = system
            .actions()
            .iter()
            .map(|a| {
                let (digits, keys) = table_shape(a, system.vars());
                CompiledAction {
                    guard: CompiledExpr::compile(a.guard()),
                    updates: a
                        .updates()
                        .iter()
                        .map(|(v, e)| (*v, CompiledExpr::compile(e)))
                        .collect(),
                    digits,
                    keys,
                }
            })
            .collect();
        CompiledSystem { system, actions }
    }

    /// The source system.
    pub fn system(&self) -> &'a System {
        self.system
    }

    /// Visits every enabled action of `s` in action order, handing the
    /// visitor the action index and the evaluated, domain-checked
    /// update assignments — *without* materializing the successor
    /// state. The visitor builds it with `s.with(assignments)` if it
    /// needs it; fingerprinted explorers first derive the successor's
    /// fingerprint from the assignments
    /// ([`State::fingerprint_with`](opentla_kernel::State::fingerprint_with))
    /// and skip construction for already-visited successors.
    ///
    /// Returns the visitor's break value, if it broke early.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`System::successors`] reports, in the same
    /// order: guard/update evaluation errors and
    /// [`CheckError::OutOfDomain`] violations.
    pub fn for_each_successor<B>(
        &self,
        s: &State,
        scratch: &mut EvalScratch,
        mut visit: impl FnMut(usize, &[(VarId, Value)]) -> ControlFlow<B>,
    ) -> Result<Option<B>, CheckError> {
        let (vars, values) = (self.system.vars(), s.values());
        for (i, ca) in self.actions.iter().enumerate() {
            if !ca.guard.holds(values, scratch)? {
                continue;
            }
            scratch.assignments.clear();
            for (v, e) in &ca.updates {
                let value = e.eval(values, scratch)?;
                if !vars.domain(*v).contains(&value) {
                    return Err(self.out_of_domain(i, *v, value));
                }
                scratch.assignments.push((*v, value));
            }
            if let ControlFlow::Break(b) = visit(i, &scratch.assignments) {
                return Ok(Some(b));
            }
        }
        Ok(None)
    }

    /// [`for_each_successor`](Self::for_each_successor) on a packed
    /// row of `layout` (a layout of this system's variables): the
    /// visitor gets each enabled action's index and its [`Effect`]s —
    /// the successor is the row with each effect's slot rewritten.
    ///
    /// Each action is looked up in its table in `memo` under the row's
    /// codes in the slots it reads: a guard and updates that read
    /// nothing else cannot tell two rows that agree there apart. A
    /// miss unpacks the row (once per row) and runs the compiled guard
    /// and updates, as `for_each_successor` does, then fills the entry
    /// — unless the evaluation failed: errors are returned, never
    /// tabled, so a later row that misses there fails the same way.
    ///
    /// Returns the visitor's break value, if it broke early.
    ///
    /// # Errors
    ///
    /// As [`for_each_successor`](Self::for_each_successor) on the
    /// unpacked row; [`CheckError::Checkpoint`] for a row with a code
    /// outside its domain, which only bytes read from a file can hold
    /// (and the stores check those as they read them).
    pub fn for_each_packed_successor<B>(
        &self,
        layout: &PackedLayout,
        row: &[u8],
        memo: &mut StepMemo,
        visit: impl FnMut(usize, &[Effect]) -> ControlFlow<B>,
    ) -> Result<Option<B>, CheckError> {
        let stepped = self.step_packed(layout, row, memo, true, visit)?;
        Ok(stepped.expect("a step that evaluates finishes"))
    }

    /// [`for_each_packed_successor`](Self::for_each_packed_successor)
    /// through the tables alone, evaluating nothing and so allocating
    /// nothing: `None` at the first lookup that would evaluate — a
    /// miss, or an action without a table — with the memo's counts as
    /// before the call, `visit` having seen the row's successors before
    /// that action.
    pub(crate) fn for_each_tabled_successor<B>(
        &self,
        layout: &PackedLayout,
        row: &[u8],
        memo: &mut StepMemo,
        visit: impl FnMut(usize, &[Effect]) -> ControlFlow<B>,
    ) -> Option<Option<B>> {
        (self.step_packed(layout, row, memo, false, visit))
            .expect("a step that evaluates nothing fails nothing")
    }

    /// Both steppers on rows: `evaluate` says whether a miss evaluates,
    /// else ends the step with `None`.
    fn step_packed<B>(
        &self,
        layout: &PackedLayout,
        row: &[u8],
        memo: &mut StepMemo,
        evaluate: bool,
        mut visit: impl FnMut(usize, &[Effect]) -> ControlFlow<B>,
    ) -> Result<Option<Option<B>>, CheckError> {
        self.size_tables(memo);
        let StepMemo {
            tables,
            values,
            effects,
            eval,
            stats,
            log,
        } = memo;
        let mut unpacked = false;
        let lookups = stats.lookups;
        for (i, (ca, table)) in self.actions.iter().zip(tables.iter_mut()).enumerate() {
            stats.lookups += 1;
            let key = ca.key(layout, row);
            let entry = key.map_or(UNKNOWN, |k| table.entries[k]);
            let run: &[Effect] = match entry {
                DISABLED => continue,
                UNKNOWN if !evaluate => {
                    stats.lookups = lookups;
                    return Ok(None);
                }
                UNKNOWN => {
                    stats.misses += 1;
                    if !unpacked {
                        (layout.try_unpack_into(row, values)).map_err(CheckpointError::from)?;
                        unpacked = true;
                    }
                    let out = match key {
                        Some(_) => &mut table.runs,
                        None => {
                            effects.clear();
                            &mut *effects
                        }
                    };
                    let start = out.len();
                    let enabled = self.fire(i, layout, values, eval, out).inspect_err(|_| {
                        out.truncate(start);
                    })?;
                    if let Some(k) = key {
                        table.entries[k] = match enabled {
                            true => FIRST_RUN + start as u32,
                            false => DISABLED,
                        };
                        stats.entries += 1;
                    }
                    if let Some(log) = log {
                        log.push(Miss {
                            action: i as u32,
                            filled: key.is_some(),
                        });
                    }
                    if !enabled {
                        continue;
                    }
                    &out[start..]
                }
                at => {
                    let at = (at - FIRST_RUN) as usize;
                    &table.runs[at..at + ca.updates.len()]
                }
            };
            if let ControlFlow::Break(b) = visit(i, run) {
                return Ok(Some(Some(b)));
            }
        }
        Ok(Some(None))
    }

    /// Gives `memo` one empty table per action, unless it has them.
    fn size_tables(&self, memo: &mut StepMemo) {
        if memo.tables.len() != self.actions.len() {
            memo.tables = (self.actions.iter())
                .map(|ca| Table {
                    entries: vec![UNKNOWN; ca.keys],
                    runs: Vec::new(),
                })
                .collect();
        }
    }

    /// A miss: runs action `i`'s guard and updates on an unpacked row,
    /// pushing one effect per update onto `out`. Whether the guard
    /// held.
    fn fire(
        &self,
        i: usize,
        layout: &PackedLayout,
        values: &[Value],
        eval: &mut EvalScratch,
        out: &mut Vec<Effect>,
    ) -> Result<bool, CheckError> {
        let ca = &self.actions[i];
        if !ca.guard.holds(values, eval)? {
            return Ok(false);
        }
        for (v, e) in &ca.updates {
            let value = e.eval(values, eval)?;
            let Some(code) = layout.code_of(v.index(), &value) else {
                return Err(self.out_of_domain(i, *v, value));
            };
            out.push(Effect {
                slot: v.index() as u32,
                code,
            });
        }
        Ok(true)
    }

    /// The stepper's error for action `i` setting `var` to `value`,
    /// outside its domain.
    #[cold]
    fn out_of_domain(&self, i: usize, var: VarId, value: Value) -> CheckError {
        CheckError::OutOfDomain {
            action: self.system.actions()[i].name().to_string(),
            var,
            value,
        }
    }

    /// Records one exploration's `step_memo` event: what its tables
    /// had counted where the run stopped.
    pub(crate) fn record_step_memo(&self, stats: MemoStats, recorder: &RecorderHandle) {
        if !recorder.enabled() {
            return;
        }
        let tabled = self.actions.iter().filter(|a| a.digits.is_some()).count();
        recorder.record(&Event::StepMemo {
            actions: self.actions.len() as u64,
            tabled_actions: tabled as u64,
            table_entries: stats.entries,
            lookups: stats.lookups,
            misses: stats.misses,
        });
    }

    /// Appends all successors of `s` into `out` (cleared first),
    /// labeled with action indices — the compiled, allocation-lean
    /// equivalent of [`System::successors_into`].
    ///
    /// # Errors
    ///
    /// As [`CompiledSystem::for_each_successor`].
    pub fn successors_into(
        &self,
        s: &State,
        out: &mut Vec<(usize, State)>,
        scratch: &mut EvalScratch,
    ) -> Result<(), CheckError> {
        out.clear();
        self.for_each_successor(s, scratch, |i, assignments| {
            out.push((i, s.with(assignments)));
            ControlFlow::<std::convert::Infallible>::Continue(())
        })?;
        Ok(())
    }
}

/// The fingerprint of `parent`, whose fingerprint is `fp`, with
/// `effects` applied: the layout's incremental Zobrist delta per
/// rewritten slot (zero for a slot rewritten to its own code).
#[inline]
pub(crate) fn child_fingerprint(
    layout: &PackedLayout,
    parent: &[u8],
    fp: u64,
    effects: &[Effect],
) -> u64 {
    effects.iter().fold(fp, |fp, e| {
        let slot = e.slot as usize;
        fp ^ layout.fingerprint_delta(slot, layout.read_code(parent, slot), e.code)
    })
}

/// Appends `parent` with `effects` applied to `out`.
#[inline]
pub(crate) fn append_child(
    layout: &PackedLayout,
    parent: &[u8],
    effects: &[Effect],
    out: &mut Vec<u8>,
) {
    let start = out.len();
    out.extend_from_slice(parent);
    for e in effects {
        layout.write_code(&mut out[start..], e.slot as usize, e.code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hoist::Hoisting;
    use crate::{GuardedAction, Init};
    use opentla_kernel::{Domain, Vars};

    fn ev(e: &Expr, s: &State) -> (Result<Value, EvalError>, Result<Value, EvalError>) {
        let compiled = CompiledExpr::compile(e);
        let mut scratch = EvalScratch::new();
        (e.eval_state(s), compiled.eval(s, &mut scratch))
    }

    fn assert_agree(e: &Expr, s: &State) {
        let (tree, flat) = ev(e, s);
        assert_eq!(tree, flat, "for {e:?}");
    }

    fn setup() -> (Vars, VarId, VarId) {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, 7));
        let q = vars.declare("q", Domain::seqs_up_to(&Domain::bits(), 2));
        (vars, x, q)
    }

    #[test]
    fn literals_vars_and_arith() {
        let (_, x, q) = setup();
        let s = State::new(vec![Value::Int(3), Value::seq(vec![Value::Int(1)])]);
        assert_agree(&Expr::int(42), &s);
        assert_agree(&Expr::var(x).add(Expr::int(1)).mul(Expr::int(2)), &s);
        assert_agree(&Expr::var(q).len(), &s);
        assert_agree(&Expr::var(q).head(), &s);
        assert_agree(&Expr::var(q).tail(), &s);
        assert_agree(&Expr::var(q).concat(Expr::MkSeq(vec![Expr::int(0)])), &s);
        assert_agree(&Expr::Tuple(vec![Expr::var(x), Expr::int(9)]), &s);
    }

    #[test]
    fn short_circuits_match_the_interpreter() {
        let (_, x, _) = setup();
        let s = State::new(vec![Value::Int(1), Value::empty_seq()]);
        // Second conjunct is a type error — skipped by both evaluators.
        let e = Expr::bool(false).and(Expr::var(x).add(Expr::int(1)));
        assert_agree(&e, &s);
        let e = Expr::bool(true).or(Expr::var(x).add(Expr::int(1)));
        assert_agree(&e, &s);
        let e = Expr::bool(false).implies(Expr::var(x).add(Expr::int(1)));
        assert_agree(&e, &s);
        // Non-short-circuited paths must error identically.
        let e = Expr::bool(true).and(Expr::var(x).add(Expr::int(1)));
        assert_agree(&e, &s);
        let e = Expr::bool(true).implies(Expr::var(x).add(Expr::int(1)));
        assert_agree(&e, &s);
        // Empty chains.
        assert_agree(&Expr::And(vec![]), &s);
        assert_agree(&Expr::Or(vec![]), &s);
    }

    #[test]
    fn ite_in_set_and_errors() {
        let (_, x, q) = setup();
        let s = State::new(vec![Value::Int(2), Value::empty_seq()]);
        let e = Expr::var(x)
            .eq(Expr::int(2))
            .ite(Expr::var(x).add(Expr::int(1)), Expr::int(0));
        assert_agree(&e, &s);
        let e = Expr::var(x)
            .eq(Expr::int(3))
            .ite(Expr::var(x).add(Expr::int(1)), Expr::int(0));
        assert_agree(&e, &s);
        assert_agree(&Expr::var(x).in_set([Value::Int(2), Value::Int(5)]), &s);
        // Head of empty errors identically.
        assert_agree(&Expr::var(q).head(), &s);
        // Primes error identically (and lazily).
        assert_agree(&Expr::prime(x), &s);
        assert_agree(&Expr::bool(false).and(Expr::prime(x)), &s);
        // Unbound variable.
        let short = State::new(vec![Value::Int(0)]);
        assert_agree(&Expr::var(q), &short);
    }

    /// The occurrences of a variable of `fresh` in `e`, unprimed and
    /// primed.
    fn occurrences(fresh: &VarSet, e: &Expr) -> (usize, usize) {
        match e {
            Expr::Var(v) if fresh.contains(*v) => (1, 0),
            Expr::Prime(v) if fresh.contains(*v) => (0, 1),
            e => (children(e).map(|e| occurrences(fresh, e)))
                .fold((0, 0), |(a, b), (c, d)| (a + c, b + d)),
        }
    }

    #[test]
    fn twins_are_shared_and_mixed_reads_are_not() {
        let (vars, x, q) = setup();
        let sum = |x: Expr, q: Expr| x.add(q.len());
        let unprimed = sum(Expr::var(x), Expr::var(q));
        let primed = sum(Expr::prime(x), Expr::prime(q));
        let mixed = sum(Expr::var(x), Expr::prime(q));
        let step = unprimed
            .clone()
            .eq(primed)
            .and(mixed.clone().gt(Expr::int(0)));
        let hoisting = Hoisting::of([&step], &vars);
        let shared: Vec<&Expr> = hoisting.functions().functions().collect();
        // `x + Len(q)` and its primed twin; `Len(q)` occurs a third time
        // in the mixed sum, outside every chosen function.
        assert_eq!(shared, [&unprimed, &Expr::var(q).len()]);
        let fresh: VarSet = hoisting.mapping().domain().collect();
        assert!(fresh.iter().all(|y| y.index() >= vars.len()));
        let rewritten = hoisting.rewrite(&step).expect("an occurrence");
        assert_eq!(occurrences(&fresh, &rewritten), (1, 2));
        // Mapped back, the rewritten expression is the original.
        assert_eq!(hoisting.mapping().expr(&rewritten), Ok(step.clone()));
        let in_mixed = hoisting.rewrite(&mixed).expect("Len(q′)");
        assert_eq!(occurrences(&fresh, &in_mixed), (0, 1));
        assert!(hoisting.rewrite(&Expr::var(x)).is_none());
        assert!(Hoisting::of([&mixed], &vars).rewrite(&step).is_none());
    }

    #[test]
    fn the_maximal_shared_functions_are_taken() {
        let (_, x, q) = setup();
        let cat = Expr::var(q).concat(Expr::var(q));
        // `q ∘ q` occurs only inside `Len(q ∘ q)`: the length alone is
        // shared.
        let a = cat.clone().len().lt(Expr::int(2));
        let b = cat.clone().len().gt(Expr::var(x));
        let functions = SharedFunctions::of([&a, &b]);
        let shared: Vec<&Expr> = functions.functions().collect();
        assert_eq!(shared, [&cat.clone().len()]);
        // One more occurrence of `q ∘ q` outside makes it shared too.
        let c = cat.clone().eq(Expr::empty_seq());
        let functions = SharedFunctions::of([&a, &b, &c]);
        let shared: Vec<&Expr> = functions.functions().collect();
        assert_eq!(shared, [&cat.clone().len(), &cat]);
        // A whole expression met twice is one function; constants and
        // variables are never functions, however often they occur.
        let or = Expr::var(x)
            .eq(Expr::int(1))
            .or(Expr::var(x).eq(Expr::int(2)));
        let shared = SharedFunctions::of([&or, &or]);
        assert_eq!(shared.functions().collect::<Vec<_>>(), [&or]);
        let leaves = Expr::var(x).add(Expr::int(1)).mul(Expr::var(x));
        assert!(SharedFunctions::of([&leaves]).is_empty());
    }

    #[test]
    fn a_source_without_shared_values_errs() {
        let (vars, _, q) = setup();
        let f = Expr::var(q).len();
        let step = f
            .clone()
            .lt(Expr::Unary(UnOp::Len, Box::new(Expr::prime(q))));
        let hoisting = Hoisting::of([&step], &vars);
        let y = hoisting
            .mapping()
            .domain()
            .next()
            .expect("Len(q) is shared");
        let rewrite =
            |e: &Expr| CompiledExpr::compile(&hoisting.rewrite(e).expect("an occurrence"));
        // A source without the functions' values errs, on a step and on
        // a state, naming the fresh variable: there a caller runs the
        // original program.
        let s = State::new(vec![Value::Int(0), Value::empty_seq()]);
        let scratch = &mut EvalScratch::new();
        assert_eq!(
            rewrite(&step).eval_step(&s, &s, scratch),
            Err(EvalError::UnboundVar {
                var: y,
                state_len: 2
            })
        );
        let state_fn = rewrite(&f.clone().eq(Expr::int(0)));
        assert!(matches!(
            state_fn.eval(&s, scratch),
            Err(EvalError::UnboundVar { var, .. }) if var == y
        ));
    }

    #[test]
    fn compiled_successors_match_interpreted() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, 3));
        let y = vars.declare("y", Domain::bits());
        let actions = vec![
            GuardedAction::new(
                "incr",
                Expr::var(x).lt(Expr::int(3)),
                vec![(x, Expr::var(x).add(Expr::int(1)))],
            ),
            GuardedAction::new(
                "flip",
                Expr::bool(true),
                vec![(y, Expr::int(1).sub(Expr::var(y)))],
            ),
        ];
        let sys = System::new(
            vars,
            Init::new([(x, Value::Int(0)), (y, Value::Int(0))]),
            actions,
        );
        let compiled = CompiledSystem::compile(&sys);
        let mut scratch = EvalScratch::new();
        let mut out = Vec::new();
        for xv in 0..=3 {
            for yv in 0..=1 {
                let s = State::new(vec![Value::Int(xv), Value::Int(yv)]);
                compiled
                    .successors_into(&s, &mut out, &mut scratch)
                    .unwrap();
                assert_eq!(out, sys.successors(&s).unwrap(), "at x={xv} y={yv}");
            }
        }
    }

    /// Stepping through the tables alone stops at a miss, counting
    /// nothing, and once the entries are filled visits what the
    /// evaluating stepper visits.
    #[test]
    fn a_tabled_step_refuses_a_miss_and_answers_a_hit() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, 3));
        let y = vars.declare("y", Domain::bits());
        let actions = vec![
            GuardedAction::new(
                "incr",
                Expr::var(x).lt(Expr::int(3)),
                vec![(x, Expr::var(x).add(Expr::int(1)))],
            ),
            GuardedAction::new(
                "flip",
                Expr::bool(true),
                vec![(y, Expr::int(1).sub(Expr::var(y)))],
            ),
        ];
        let sys = System::new(
            vars,
            Init::new([(x, Value::Int(0)), (y, Value::Int(0))]),
            actions,
        );
        let layout = PackedLayout::compile(sys.vars()).unwrap();
        let compiled = CompiledSystem::compile(&sys);
        let mut memo = StepMemo::logging(&compiled);
        type Seen = Vec<(usize, Vec<Effect>)>;
        fn collect(
            seen: &mut Seen,
        ) -> impl FnMut(usize, &[Effect]) -> ControlFlow<std::convert::Infallible> + '_ {
            |i, run| {
                seen.push((i, run.to_vec()));
                ControlFlow::Continue(())
            }
        }
        for xv in 0..=3 {
            for yv in 0..=1 {
                let s = State::new(vec![Value::Int(xv), Value::Int(yv)]);
                let row = layout.pack(&s).unwrap();
                let before = memo.stats();
                let mut seen = Vec::new();
                let tabled = compiled.for_each_tabled_successor(
                    &layout,
                    &row,
                    &mut memo,
                    collect(&mut seen),
                );
                // The first row meets empty tables; a later one may
                // find every entry its keys name filled.
                if (xv, yv) == (0, 0) {
                    assert!(tabled.is_none(), "a miss on empty tables");
                }
                if tabled.is_none() {
                    assert_eq!(memo.stats(), before, "at x={xv} y={yv}");
                    assert_eq!(memo.take_misses().count(), 0);
                    seen.clear();
                }
                let mut evaluated = Vec::new();
                (compiled.for_each_packed_successor(
                    &layout,
                    &row,
                    &mut memo,
                    collect(&mut evaluated),
                ))
                .unwrap();
                memo.take_misses().for_each(drop);
                if tabled.is_some() {
                    assert_eq!(seen, evaluated, "at x={xv} y={yv}");
                }
                let warm = memo.stats();
                let mut hit = Vec::new();
                let tabled =
                    compiled.for_each_tabled_successor(&layout, &row, &mut memo, collect(&mut hit));
                assert_eq!(tabled, Some(None));
                assert_eq!(hit, evaluated, "at x={xv} y={yv}");
                assert_eq!(memo.stats().lookups, warm.lookups + 2);
                assert_eq!(memo.stats().misses, warm.misses);
            }
        }
    }

    #[test]
    fn compiled_domain_violation_matches() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, 1));
        let bad = GuardedAction::new(
            "bad",
            Expr::bool(true),
            vec![(x, Expr::var(x).add(Expr::int(5)))],
        );
        let sys = System::new(vars, Init::new([(x, Value::Int(0))]), vec![bad]);
        let compiled = CompiledSystem::compile(&sys);
        let s = State::new(vec![Value::Int(0)]);
        let mut out = Vec::new();
        let err = compiled
            .successors_into(&s, &mut out, &mut EvalScratch::new())
            .unwrap_err();
        assert!(
            matches!(&err, CheckError::OutOfDomain { action, .. } if action == "bad"),
            "{err:?}"
        );
    }
}
