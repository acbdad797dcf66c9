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
//! There is one evaluator loop, generic over where a program reads its
//! variables (a slot source): a bare `[Value]` slice — the stepper, which
//! unpacks packed states into a reused buffer — a [`State`], or
//! [`ImageView`](crate::image::ImageView), a graph state whose mapped
//! slots are read from the refinement mapping's image column (what an
//! obligation's memo miss is decided on). The loop is monomorphized per
//! source, so the stepper's load is a slice index, as it always was.
//!
//! The compiled form is semantics-preserving by construction: operator
//! application delegates to the kernel's own [`UnOp::apply`] /
//! [`BinOp::apply`], and short-circuiting (`∧`, `∨`, `⇒`, `IF`) is
//! reproduced with explicit jumps, so evaluation order, verdicts, *and
//! errors* are identical to [`Expr::eval_state`] on a state and to
//! [`Expr::eval_action`] on a step ([`CompiledExpr::eval_step`]). The
//! interpreter is the oracle: `crates/check/tests/proptest_compiled.rs`
//! compares the two, as `Result`s, on random expressions over random
//! variables, states, steps and image views.
//!
//! A primed variable compiles to a primed load: on a step it reads the
//! successor; evaluated as a state function it raises the
//! interpreter's [`EvalError::PrimeInStateContext`] — lazily, so primes
//! in short-circuited branches stay unobserved, exactly as in the tree
//! walker.

use crate::{CheckError, System};
use opentla_kernel::{expect_bool, BinOp, EvalError, Expr, State, UnOp, Value, VarId};

/// Where a running program reads its variables: one slot per
/// [`VarId`]. The evaluator is monomorphized per implementation. Not
/// re-exported: the implementations are the three sources above.
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

/// One compiled guarded action: the guard program plus one update
/// program per assigned variable.
#[derive(Debug)]
struct CompiledAction {
    guard: CompiledExpr,
    updates: Vec<(VarId, CompiledExpr)>,
}

/// A [`System`] with every action compiled for high-throughput
/// successor computation.
///
/// Borrowing — not consuming — the system keeps the compiled form a
/// pure accelerator: names, domains, and error reporting still come
/// from the source system, and [`CompiledSystem::successors_into`] is
/// observationally identical to [`System::successors`].
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
            .map(|a| CompiledAction {
                guard: CompiledExpr::compile(a.guard()),
                updates: a
                    .updates()
                    .iter()
                    .map(|(v, e)| (*v, CompiledExpr::compile(e)))
                    .collect(),
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
        visit: impl FnMut(usize, &[(VarId, Value)]) -> std::ops::ControlFlow<B>,
    ) -> Result<Option<B>, CheckError> {
        self.for_each_successor_values(s.values(), scratch, visit)
    }

    /// [`CompiledSystem::for_each_successor`] over a bare value slice
    /// indexed by [`VarId`] — the entry point for packed-state
    /// engines, which unpack into a reused buffer and never build a
    /// parent [`State`] at all.
    ///
    /// # Errors
    ///
    /// As [`CompiledSystem::for_each_successor`].
    pub fn for_each_successor_values<B>(
        &self,
        values: &[Value],
        scratch: &mut EvalScratch,
        mut visit: impl FnMut(usize, &[(VarId, Value)]) -> std::ops::ControlFlow<B>,
    ) -> Result<Option<B>, CheckError> {
        let vars = self.system.vars();
        for (i, ca) in self.actions.iter().enumerate() {
            if !ca.guard.holds(values, scratch)? {
                continue;
            }
            scratch.assignments.clear();
            for (v, e) in &ca.updates {
                let value = e.eval(values, scratch)?;
                if !vars.domain(*v).contains(&value) {
                    return Err(CheckError::OutOfDomain {
                        action: self.system.actions()[i].name().to_string(),
                        var: *v,
                        value,
                    });
                }
                scratch.assignments.push((*v, value));
            }
            if let std::ops::ControlFlow::Break(b) = visit(i, &scratch.assignments) {
                return Ok(Some(b));
            }
        }
        Ok(None)
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
            std::ops::ControlFlow::<std::convert::Infallible>::Continue(())
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_agree(
            &Expr::var(q).concat(Expr::MkSeq(vec![Expr::int(0)])),
            &s,
        );
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
        let sys = System::new(vars, Init::new([(x, Value::Int(0)), (y, Value::Int(0))]), actions);
        let compiled = CompiledSystem::compile(&sys);
        let mut scratch = EvalScratch::new();
        let mut out = Vec::new();
        for xv in 0..=3 {
            for yv in 0..=1 {
                let s = State::new(vec![Value::Int(xv), Value::Int(yv)]);
                compiled.successors_into(&s, &mut out, &mut scratch).unwrap();
                assert_eq!(out, sys.successors(&s).unwrap(), "at x={xv} y={yv}");
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
