//! State functions and actions: expressions over primed and unprimed
//! variables.

use crate::{EvalError, State, StatePair, Value, VarId, VarSet, Vars};
use std::fmt;

/// A unary operator.
///
/// [`UnOp::apply`] is the single source of truth for the operator's
/// value semantics, shared by the tree-walking evaluator here and by
/// compiled evaluators built on top of the kernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnOp {
    /// Boolean negation `¬`.
    Not,
    /// Integer negation.
    Neg,
    /// Sequence/tuple length `|ρ|`.
    Len,
    /// `Head(ρ)`.
    Head,
    /// `Tail(ρ)`.
    Tail,
}

/// A binary operator.
///
/// [`BinOp::apply`] is the single source of truth for the operator's
/// value semantics on already-evaluated operands. Note that `∧`/`∨`
/// are n-ary [`Expr`] nodes, not binary operators, and that
/// [`BinOp::Implies`] *as applied by the evaluator* short-circuits —
/// `apply` is only reached for implications whose antecedent held.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer (Euclidean-style truncated) division.
    Div,
    /// Integer remainder.
    Mod,
    /// Equality (on any kind of value).
    Eq,
    /// Inequality.
    Ne,
    /// Integer `<`.
    Lt,
    /// Integer `≤`.
    Le,
    /// Integer `>`.
    Gt,
    /// Integer `≥`.
    Ge,
    /// Boolean implication `⇒`.
    Implies,
    /// Boolean equivalence `≡`.
    Equiv,
    /// Sequence concatenation `ρ ∘ τ`.
    Concat,
}

/// An expression: a state function (if it contains no primes) or an
/// action (if it does).
///
/// Expressions are evaluated against a [`State`] (state functions) or a
/// [`StatePair`] (actions) — see [`Expr::eval_state`] and
/// [`Expr::eval_action`].
///
/// # Example
///
/// ```
/// use opentla_kernel::{Vars, Domain, State, Value, Expr};
/// let mut vars = Vars::new();
/// let x = vars.declare("x", Domain::int_range(0, 3));
/// // The action x' = x + 1.
/// let incr = Expr::prime(x).eq(Expr::var(x).add(Expr::int(1)));
/// let s = State::new(vec![Value::Int(1)]);
/// let t = State::new(vec![Value::Int(2)]);
/// assert!(incr.holds_action(opentla_kernel::StatePair::new(&s, &t)).unwrap());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Expr {
    /// A constant value.
    Const(Value),
    /// An unprimed variable, referring to the current state.
    Var(VarId),
    /// A primed variable, referring to the next state.
    Prime(VarId),
    /// A unary operator application.
    Unary(UnOp, Box<Expr>),
    /// A binary operator application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// N-ary conjunction; the empty conjunction is `TRUE`.
    And(Vec<Expr>),
    /// N-ary disjunction; the empty disjunction is `FALSE`.
    Or(Vec<Expr>),
    /// `IF c THEN a ELSE b`.
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Tuple construction `⟨e1, …, ek⟩`.
    Tuple(Vec<Expr>),
    /// Sequence construction.
    MkSeq(Vec<Expr>),
    /// Membership in an explicit finite set of values.
    InSet(Box<Expr>, Vec<Value>),
}

impl Expr {
    // ----- constructors -------------------------------------------------

    /// The unprimed variable `v`.
    pub fn var(v: VarId) -> Expr {
        Expr::Var(v)
    }

    /// The primed variable `v'`.
    pub fn prime(v: VarId) -> Expr {
        Expr::Prime(v)
    }

    /// An integer constant.
    pub fn int(i: i64) -> Expr {
        Expr::Const(Value::Int(i))
    }

    /// A boolean constant.
    pub fn bool(b: bool) -> Expr {
        Expr::Const(Value::Bool(b))
    }

    /// An arbitrary constant.
    pub fn con(v: Value) -> Expr {
        Expr::Const(v)
    }

    /// The constant empty sequence `⟨⟩`.
    pub fn empty_seq() -> Expr {
        Expr::Const(Value::empty_seq())
    }

    /// N-ary conjunction, flattening nested conjunctions.
    pub fn all(es: impl IntoIterator<Item = Expr>) -> Expr {
        let mut out = Vec::new();
        for e in es {
            match e {
                Expr::And(inner) => out.extend(inner),
                Expr::Const(Value::Bool(true)) => {}
                other => out.push(other),
            }
        }
        match out.len() {
            1 => out.pop().expect("len checked"),
            _ => Expr::And(out),
        }
    }

    /// N-ary disjunction, flattening nested disjunctions.
    pub fn any(es: impl IntoIterator<Item = Expr>) -> Expr {
        let mut out = Vec::new();
        for e in es {
            match e {
                Expr::Or(inner) => out.extend(inner),
                Expr::Const(Value::Bool(false)) => {}
                other => out.push(other),
            }
        }
        match out.len() {
            1 => out.pop().expect("len checked"),
            _ => Expr::Or(out),
        }
    }

    // ----- combinators ---------------------------------------------------

    /// Boolean negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Unary(UnOp::Not, Box::new(self))
    }

    /// Binary conjunction.
    pub fn and(self, other: Expr) -> Expr {
        Expr::all([self, other])
    }

    /// Binary disjunction.
    pub fn or(self, other: Expr) -> Expr {
        Expr::any([self, other])
    }

    /// Implication `self ⇒ other`.
    pub fn implies(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Implies, Box::new(self), Box::new(other))
    }

    /// Equivalence `self ≡ other`.
    pub fn equiv(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Equiv, Box::new(self), Box::new(other))
    }

    /// Equality.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Eq, Box::new(self), Box::new(other))
    }

    /// Inequality.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Ne, Box::new(self), Box::new(other))
    }

    /// Integer `<`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Lt, Box::new(self), Box::new(other))
    }

    /// Integer `≤`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Le, Box::new(self), Box::new(other))
    }

    /// Integer `>`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Gt, Box::new(self), Box::new(other))
    }

    /// Integer `≥`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Ge, Box::new(self), Box::new(other))
    }

    /// Integer addition.
    ///
    /// A builder combinator (like [`Expr::eq`]), intentionally named
    /// after the operator; `std::ops::Add` is not implemented because
    /// expression construction is infallible while evaluation is not.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Add, Box::new(self), Box::new(other))
    }

    /// Integer subtraction.
    ///
    /// A builder combinator (like [`Expr::eq`]), intentionally named
    /// after the operator; `std::ops::Sub` is not implemented because
    /// expression construction is infallible while evaluation is not.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Sub, Box::new(self), Box::new(other))
    }

    /// Integer multiplication.
    ///
    /// A builder combinator (like [`Expr::eq`]), intentionally named
    /// after the operator; `std::ops::Mul` is not implemented because
    /// expression construction is infallible while evaluation is not.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Mul, Box::new(self), Box::new(other))
    }

    /// Integer division.
    ///
    /// A builder combinator (like [`Expr::eq`]), intentionally named
    /// after the operator; `std::ops::Div` is not implemented because
    /// expression construction is infallible while evaluation is not.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Div, Box::new(self), Box::new(other))
    }

    /// Integer remainder `self % other`.
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Mod, Box::new(self), Box::new(other))
    }

    /// `IF self THEN a ELSE b`.
    pub fn ite(self, a: Expr, b: Expr) -> Expr {
        Expr::Ite(Box::new(self), Box::new(a), Box::new(b))
    }

    /// Sequence/tuple length.
    pub fn len(self) -> Expr {
        Expr::Unary(UnOp::Len, Box::new(self))
    }

    /// `Head(self)`.
    pub fn head(self) -> Expr {
        Expr::Unary(UnOp::Head, Box::new(self))
    }

    /// `Tail(self)`.
    pub fn tail(self) -> Expr {
        Expr::Unary(UnOp::Tail, Box::new(self))
    }

    /// Concatenation `self ∘ other`.
    pub fn concat(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Concat, Box::new(self), Box::new(other))
    }

    /// Membership in a finite set of values.
    pub fn in_set(self, values: impl IntoIterator<Item = Value>) -> Expr {
        Expr::InSet(Box::new(self), values.into_iter().collect())
    }

    // ----- evaluation ----------------------------------------------------

    /// Evaluates a state function on a single state.
    ///
    /// # Errors
    ///
    /// Fails with [`EvalError::PrimeInStateContext`] if the expression
    /// contains a primed variable, and with the usual type errors.
    pub fn eval_state(&self, s: &State) -> Result<Value, EvalError> {
        self.eval(s, None)
    }

    /// Evaluates an action on a pair of states.
    ///
    /// # Errors
    ///
    /// Fails on unbound variables or type mismatches.
    pub fn eval_action(&self, pair: StatePair<'_>) -> Result<Value, EvalError> {
        self.eval(pair.old, Some(pair.new))
    }

    /// Evaluates a boolean state function on a state.
    ///
    /// # Errors
    ///
    /// Fails if evaluation fails or the result is not a boolean.
    pub fn holds_state(&self, s: &State) -> Result<bool, EvalError> {
        expect_bool(self.eval_state(s)?)
    }

    /// Evaluates a boolean action on a pair of states.
    ///
    /// # Errors
    ///
    /// Fails if evaluation fails or the result is not a boolean.
    pub fn holds_action(&self, pair: StatePair<'_>) -> Result<bool, EvalError> {
        expect_bool(self.eval_action(pair)?)
    }

    fn eval(&self, old: &State, new: Option<&State>) -> Result<Value, EvalError> {
        match self {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Var(v) => old.try_get(*v).cloned().ok_or(EvalError::UnboundVar {
                var: *v,
                state_len: old.len(),
            }),
            Expr::Prime(v) => match new {
                None => Err(EvalError::PrimeInStateContext { var: *v }),
                Some(n) => n.try_get(*v).cloned().ok_or(EvalError::UnboundVar {
                    var: *v,
                    state_len: n.len(),
                }),
            },
            Expr::Unary(op, e) => eval_unary(*op, e.eval(old, new)?),
            // Implication short-circuits (like ∧/∨) so that the
            // consequent may be partial — e.g. `|q| > 0 ⇒ Head(q) = v`.
            Expr::Binary(BinOp::Implies, a, b) => {
                if expect_bool(a.eval(old, new)?)? {
                    Ok(Value::Bool(expect_bool(b.eval(old, new)?)?))
                } else {
                    Ok(Value::Bool(true))
                }
            }
            Expr::Binary(op, a, b) => eval_binary(*op, a.eval(old, new)?, b.eval(old, new)?),
            Expr::And(es) => {
                for e in es {
                    if !expect_bool(e.eval(old, new)?)? {
                        return Ok(Value::Bool(false));
                    }
                }
                Ok(Value::Bool(true))
            }
            Expr::Or(es) => {
                for e in es {
                    if expect_bool(e.eval(old, new)?)? {
                        return Ok(Value::Bool(true));
                    }
                }
                Ok(Value::Bool(false))
            }
            Expr::Ite(c, a, b) => {
                if expect_bool(c.eval(old, new)?)? {
                    a.eval(old, new)
                } else {
                    b.eval(old, new)
                }
            }
            Expr::Tuple(es) => Ok(Value::Tuple(
                es.iter()
                    .map(|e| e.eval(old, new))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::MkSeq(es) => Ok(Value::Seq(
                es.iter()
                    .map(|e| e.eval(old, new))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::InSet(e, set) => {
                let v = e.eval(old, new)?;
                Ok(Value::Bool(set.contains(&v)))
            }
        }
    }

    // ----- structure -----------------------------------------------------

    /// Collects the unprimed and primed variables occurring in the
    /// expression into the two sets.
    pub fn vars_into(&self, unprimed: &mut VarSet, primed: &mut VarSet) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => {
                unprimed.insert(*v);
            }
            Expr::Prime(v) => {
                primed.insert(*v);
            }
            Expr::Unary(_, e) => e.vars_into(unprimed, primed),
            Expr::Binary(_, a, b) => {
                a.vars_into(unprimed, primed);
                b.vars_into(unprimed, primed);
            }
            Expr::And(es) | Expr::Or(es) | Expr::Tuple(es) | Expr::MkSeq(es) => {
                for e in es {
                    e.vars_into(unprimed, primed);
                }
            }
            Expr::Ite(c, a, b) => {
                c.vars_into(unprimed, primed);
                a.vars_into(unprimed, primed);
                b.vars_into(unprimed, primed);
            }
            Expr::InSet(e, _) => e.vars_into(unprimed, primed),
        }
    }

    /// The unprimed variables of the expression.
    pub fn unprimed_vars(&self) -> VarSet {
        let mut u = VarSet::new();
        let mut p = VarSet::new();
        self.vars_into(&mut u, &mut p);
        u
    }

    /// The primed variables of the expression.
    pub fn primed_vars(&self) -> VarSet {
        let mut u = VarSet::new();
        let mut p = VarSet::new();
        self.vars_into(&mut u, &mut p);
        p
    }

    /// All variables, primed or not.
    pub fn all_vars(&self) -> VarSet {
        let mut u = VarSet::new();
        let mut p = VarSet::new();
        self.vars_into(&mut u, &mut p);
        u.union_with(&p);
        u
    }

    /// Whether the expression is a state function (contains no primes).
    pub fn is_state_fn(&self) -> bool {
        self.primed_vars().is_empty()
    }

    /// Renders the expression with variable names from `vars`.
    pub fn display<'a>(&'a self, vars: &'a Vars) -> ExprDisplay<'a> {
        ExprDisplay { expr: self, vars }
    }
}

/// Coerces a value into a boolean, with the evaluator's standard
/// "boolean context" type error. Exposed so compiled evaluators report
/// byte-identical diagnostics.
pub fn expect_bool(v: Value) -> Result<bool, EvalError> {
    v.as_bool().ok_or(EvalError::TypeMismatch {
        op: "boolean context",
        value: v,
    })
}

fn expect_int(op: &'static str, v: Value) -> Result<i64, EvalError> {
    v.as_int().ok_or(EvalError::TypeMismatch { op, value: v })
}

impl UnOp {
    /// Applies the operator to an evaluated operand.
    ///
    /// # Errors
    ///
    /// Type mismatches, overflow, and `Head`/`Tail` of empty sequences.
    pub fn apply(self, v: Value) -> Result<Value, EvalError> {
        eval_unary(self, v)
    }
}

impl BinOp {
    /// Applies the operator to evaluated operands.
    ///
    /// For [`BinOp::Implies`] this is the *non-short-circuit* reading
    /// (both operands already evaluated); evaluators that implement the
    /// short-circuit form must branch before evaluating the consequent,
    /// exactly as [`Expr::eval_state`] does.
    ///
    /// # Errors
    ///
    /// Type mismatches, overflow, and division by zero.
    pub fn apply(self, a: Value, b: Value) -> Result<Value, EvalError> {
        eval_binary(self, a, b)
    }
}

fn eval_unary(op: UnOp, v: Value) -> Result<Value, EvalError> {
    match op {
        UnOp::Not => Ok(Value::Bool(!expect_bool(v)?)),
        UnOp::Neg => Ok(Value::Int(
            expect_int("-", v)?
                .checked_neg()
                .ok_or(EvalError::Overflow { op: "-" })?,
        )),
        UnOp::Len => v
            .len()
            .map(|n| Value::Int(n as i64))
            .ok_or(EvalError::TypeMismatch {
                op: "Len",
                value: v,
            }),
        UnOp::Head => match v.as_items() {
            None => Err(EvalError::TypeMismatch {
                op: "Head",
                value: v,
            }),
            Some(_) => v.head().ok_or(EvalError::EmptySeq { op: "Head" }),
        },
        UnOp::Tail => match v.as_items() {
            None => Err(EvalError::TypeMismatch {
                op: "Tail",
                value: v,
            }),
            Some(_) => v.tail().ok_or(EvalError::EmptySeq { op: "Tail" }),
        },
    }
}

fn eval_binary(op: BinOp, a: Value, b: Value) -> Result<Value, EvalError> {
    let int2 = |op_name| -> Result<(i64, i64), EvalError> {
        Ok((
            expect_int(op_name, a.clone())?,
            expect_int(op_name, b.clone())?,
        ))
    };
    match op {
        BinOp::Add => {
            let (x, y) = int2("+")?;
            Ok(Value::Int(
                x.checked_add(y).ok_or(EvalError::Overflow { op: "+" })?,
            ))
        }
        BinOp::Sub => {
            let (x, y) = int2("-")?;
            Ok(Value::Int(
                x.checked_sub(y).ok_or(EvalError::Overflow { op: "-" })?,
            ))
        }
        BinOp::Mul => {
            let (x, y) = int2("*")?;
            Ok(Value::Int(
                x.checked_mul(y).ok_or(EvalError::Overflow { op: "*" })?,
            ))
        }
        BinOp::Div => {
            let (x, y) = int2("÷")?;
            Ok(Value::Int(
                x.checked_div(y).ok_or(EvalError::DivisionByZero)?,
            ))
        }
        BinOp::Mod => {
            let (x, y) = int2("%")?;
            Ok(Value::Int(
                x.checked_rem(y).ok_or(EvalError::DivisionByZero)?,
            ))
        }
        BinOp::Eq => Ok(Value::Bool(a == b)),
        BinOp::Ne => Ok(Value::Bool(a != b)),
        BinOp::Lt => {
            let (x, y) = int2("<")?;
            Ok(Value::Bool(x < y))
        }
        BinOp::Le => {
            let (x, y) = int2("<=")?;
            Ok(Value::Bool(x <= y))
        }
        BinOp::Gt => {
            let (x, y) = int2(">")?;
            Ok(Value::Bool(x > y))
        }
        BinOp::Ge => {
            let (x, y) = int2(">=")?;
            Ok(Value::Bool(x >= y))
        }
        BinOp::Implies => Ok(Value::Bool(!expect_bool(a)? || expect_bool(b)?)),
        BinOp::Equiv => Ok(Value::Bool(expect_bool(a)? == expect_bool(b)?)),
        BinOp::Concat => a.concat(&b).ok_or(EvalError::TypeMismatch {
            op: "∘", value: a
        }),
    }
}

/// Helper returned by [`Expr::display`].
#[derive(Clone, Copy)]
pub struct ExprDisplay<'a> {
    expr: &'a Expr,
    vars: &'a Vars,
}

impl fmt::Display for ExprDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_expr(f, self.expr, self.vars)
    }
}

impl fmt::Debug for ExprDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

fn write_expr(f: &mut fmt::Formatter<'_>, e: &Expr, vars: &Vars) -> fmt::Result {
    let name = |v: &VarId| -> String {
        if v.index() < vars.len() {
            vars.name(*v).to_string()
        } else {
            format!("#{}", v.index())
        }
    };
    let bin = |f: &mut fmt::Formatter<'_>, sym: &str, a: &Expr, b: &Expr| -> fmt::Result {
        write!(f, "(")?;
        write_expr(f, a, vars)?;
        write!(f, " {sym} ")?;
        write_expr(f, b, vars)?;
        write!(f, ")")
    };
    match e {
        Expr::Const(v) => write!(f, "{v}"),
        Expr::Var(v) => write!(f, "{}", name(v)),
        Expr::Prime(v) => write!(f, "{}'", name(v)),
        Expr::Unary(UnOp::Not, e) => {
            write!(f, "¬")?;
            write_expr(f, e, vars)
        }
        Expr::Unary(UnOp::Neg, e) => {
            write!(f, "-")?;
            write_expr(f, e, vars)
        }
        Expr::Unary(UnOp::Len, e) => {
            write!(f, "Len(")?;
            write_expr(f, e, vars)?;
            write!(f, ")")
        }
        Expr::Unary(UnOp::Head, e) => {
            write!(f, "Head(")?;
            write_expr(f, e, vars)?;
            write!(f, ")")
        }
        Expr::Unary(UnOp::Tail, e) => {
            write!(f, "Tail(")?;
            write_expr(f, e, vars)?;
            write!(f, ")")
        }
        Expr::Binary(op, a, b) => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "÷",
                BinOp::Mod => "%",
                BinOp::Eq => "=",
                BinOp::Ne => "≠",
                BinOp::Lt => "<",
                BinOp::Le => "≤",
                BinOp::Gt => ">",
                BinOp::Ge => "≥",
                BinOp::Implies => "⇒",
                BinOp::Equiv => "≡",
                BinOp::Concat => "∘",
            };
            bin(f, sym, a, b)
        }
        Expr::And(es) => write_nary(f, "∧", "TRUE", es, vars),
        Expr::Or(es) => write_nary(f, "∨", "FALSE", es, vars),
        Expr::Ite(c, a, b) => {
            write!(f, "(IF ")?;
            write_expr(f, c, vars)?;
            write!(f, " THEN ")?;
            write_expr(f, a, vars)?;
            write!(f, " ELSE ")?;
            write_expr(f, b, vars)?;
            write!(f, ")")
        }
        Expr::Tuple(es) => {
            write!(f, "⟨")?;
            for (i, e) in es.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write_expr(f, e, vars)?;
            }
            write!(f, "⟩")
        }
        Expr::MkSeq(es) => {
            write!(f, "«")?;
            for (i, e) in es.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write_expr(f, e, vars)?;
            }
            write!(f, "»")
        }
        Expr::InSet(e, set) => {
            write_expr(f, e, vars)?;
            write!(f, " ∈ {{")?;
            for (i, v) in set.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, "}}")
        }
    }
}

fn write_nary(
    f: &mut fmt::Formatter<'_>,
    sym: &str,
    empty: &str,
    es: &[Expr],
    vars: &Vars,
) -> fmt::Result {
    if es.is_empty() {
        return write!(f, "{empty}");
    }
    write!(f, "(")?;
    for (i, e) in es.iter().enumerate() {
        if i > 0 {
            write!(f, " {sym} ")?;
        }
        write_expr(f, e, vars)?;
    }
    write!(f, ")")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;

    fn setup() -> (Vars, VarId, VarId) {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, 3));
        let q = vars.declare("q", Domain::seqs_up_to(&Domain::bits(), 2));
        (vars, x, q)
    }

    fn st(x: i64, q: Value) -> State {
        State::new(vec![Value::Int(x), q])
    }

    #[test]
    fn arithmetic_and_comparison() {
        let (_, x, _) = setup();
        let s = st(2, Value::empty_seq());
        let e = Expr::var(x).add(Expr::int(1)).mul(Expr::int(3));
        assert_eq!(e.eval_state(&s).unwrap(), Value::Int(9));
        assert!(Expr::var(x).lt(Expr::int(3)).holds_state(&s).unwrap());
        assert!(Expr::var(x).ge(Expr::int(2)).holds_state(&s).unwrap());
        assert!(!Expr::var(x).gt(Expr::int(2)).holds_state(&s).unwrap());
        assert!(Expr::var(x).le(Expr::int(2)).holds_state(&s).unwrap());
        assert!(Expr::var(x).ne(Expr::int(0)).holds_state(&s).unwrap());
        let neg = Expr::Unary(UnOp::Neg, Box::new(Expr::var(x)));
        assert_eq!(neg.eval_state(&s).unwrap(), Value::Int(-2));
    }

    #[test]
    fn boolean_operators() {
        let (_, x, _) = setup();
        let s = st(1, Value::empty_seq());
        let p = Expr::var(x).eq(Expr::int(1));
        let q = Expr::var(x).eq(Expr::int(2));
        assert!(p.clone().or(q.clone()).holds_state(&s).unwrap());
        assert!(!p.clone().and(q.clone()).holds_state(&s).unwrap());
        assert!(q.clone().implies(p.clone()).holds_state(&s).unwrap());
        assert!(!p.clone().implies(q.clone()).holds_state(&s).unwrap());
        assert!(!p.clone().equiv(q.clone()).holds_state(&s).unwrap());
        assert!(p.clone().not().equiv(q).holds_state(&s).unwrap());
        // Empty conjunction/disjunction.
        assert!(Expr::And(vec![]).holds_state(&s).unwrap());
        assert!(!Expr::Or(vec![]).holds_state(&s).unwrap());
    }

    #[test]
    fn short_circuit_skips_type_errors() {
        let (_, x, _) = setup();
        let s = st(1, Value::empty_seq());
        // Second conjunct would be a type error (x + 1 is not boolean),
        // but the first conjunct is false.
        let e = Expr::bool(false).and(Expr::var(x).add(Expr::int(1)));
        assert!(!e.holds_state(&s).unwrap());
        let e = Expr::bool(true).or(Expr::var(x).add(Expr::int(1)));
        assert!(e.holds_state(&s).unwrap());
    }

    #[test]
    fn sequence_operators() {
        let (_, _, q) = setup();
        let s = st(0, Value::seq(vec![Value::Int(1), Value::Int(0)]));
        assert_eq!(Expr::var(q).len().eval_state(&s).unwrap(), Value::Int(2));
        assert_eq!(Expr::var(q).head().eval_state(&s).unwrap(), Value::Int(1));
        assert_eq!(
            Expr::var(q).tail().eval_state(&s).unwrap(),
            Value::seq(vec![Value::Int(0)])
        );
        let app = Expr::var(q).concat(Expr::MkSeq(vec![Expr::int(1)]));
        assert_eq!(
            app.eval_state(&s).unwrap(),
            Value::seq(vec![Value::Int(1), Value::Int(0), Value::Int(1)])
        );
    }

    #[test]
    fn head_of_empty_is_an_error() {
        let (_, _, q) = setup();
        let s = st(0, Value::empty_seq());
        assert_eq!(
            Expr::var(q).head().eval_state(&s),
            Err(EvalError::EmptySeq { op: "Head" })
        );
        assert_eq!(
            Expr::var(q).tail().eval_state(&s),
            Err(EvalError::EmptySeq { op: "Tail" })
        );
    }

    #[test]
    fn primes_require_a_pair() {
        let (_, x, _) = setup();
        let s = st(0, Value::empty_seq());
        let t = st(1, Value::empty_seq());
        let a = Expr::prime(x).eq(Expr::var(x).add(Expr::int(1)));
        assert!(a.holds_action(StatePair::new(&s, &t)).unwrap());
        assert!(!a.holds_action(StatePair::stutter(&s)).unwrap());
        assert!(matches!(
            a.eval_state(&s),
            Err(EvalError::PrimeInStateContext { .. })
        ));
    }

    #[test]
    fn ite_and_in_set() {
        let (_, x, _) = setup();
        let s = st(2, Value::empty_seq());
        let e = Expr::var(x)
            .eq(Expr::int(2))
            .ite(Expr::int(10), Expr::int(20));
        assert_eq!(e.eval_state(&s).unwrap(), Value::Int(10));
        assert!(Expr::var(x)
            .in_set([Value::Int(1), Value::Int(2)])
            .holds_state(&s)
            .unwrap());
        assert!(!Expr::var(x)
            .in_set([Value::Int(0)])
            .holds_state(&s)
            .unwrap());
    }

    #[test]
    fn var_sets() {
        let (_, x, q) = setup();
        let a = Expr::prime(x).eq(Expr::var(q).len());
        assert_eq!(a.unprimed_vars().iter().collect::<Vec<_>>(), vec![q]);
        assert_eq!(a.primed_vars().iter().collect::<Vec<_>>(), vec![x]);
        assert!(!a.is_state_fn());
        assert!(Expr::var(q).len().is_state_fn());
        assert_eq!(a.all_vars().len(), 2);
    }

    #[test]
    fn display_with_names() {
        let (vars, x, q) = setup();
        let e = Expr::prime(x).eq(Expr::var(q).len());
        assert_eq!(e.display(&vars).to_string(), "(x' = Len(q))");
        let e = Expr::all([
            Expr::var(x).eq(Expr::int(0)),
            Expr::var(q).eq(Expr::empty_seq()),
        ]);
        assert_eq!(e.display(&vars).to_string(), "((x = 0) ∧ (q = «»))");
    }

    #[test]
    fn flattening_builders() {
        let (_, x, _) = setup();
        let p = Expr::var(x).eq(Expr::int(0));
        let e = Expr::all([p.clone().and(p.clone()), p.clone()]);
        match &e {
            Expr::And(es) => assert_eq!(es.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
        // TRUE units are dropped.
        let e = Expr::all([Expr::bool(true), p.clone()]);
        assert_eq!(e, p);
    }

    #[test]
    fn unbound_var_reports_length() {
        let (_, _, q) = setup();
        let short = State::new(vec![Value::Int(0)]);
        assert_eq!(
            Expr::var(q).eval_state(&short),
            Err(EvalError::UnboundVar {
                var: q,
                state_len: 1
            })
        );
    }

    #[test]
    fn div_and_mod() {
        let (_, x, _) = setup();
        let s = st(3, Value::empty_seq());
        assert_eq!(
            Expr::var(x).div(Expr::int(2)).eval_state(&s).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            Expr::var(x).rem(Expr::int(2)).eval_state(&s).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            Expr::var(x).div(Expr::int(0)).eval_state(&s),
            Err(EvalError::DivisionByZero)
        );
        assert_eq!(
            Expr::var(x).rem(Expr::int(0)).eval_state(&s),
            Err(EvalError::DivisionByZero)
        );
    }

    #[test]
    fn overflow_detected() {
        let (_, x, _) = setup();
        let s = st(1, Value::empty_seq());
        let e = Expr::var(x).add(Expr::int(i64::MAX));
        assert_eq!(e.eval_state(&s), Err(EvalError::Overflow { op: "+" }));
    }
}
