//! The compiled evaluator against its oracle, the interpreter: seeded
//! random expressions over random variables, compared as
//! `Result<Value, EvalError>` — so an error of the one must be the same
//! error of the other — in four pairs:
//!
//! * a state function: `CompiledExpr::eval` against `Expr::eval_state`,
//!   on a `State`, on its bare value slice and on a state too short for
//!   some variable;
//! * an action: `CompiledExpr::eval_step` against `Expr::eval_action`;
//! * a graph's row view: the program on `graph.view(id)`, the state
//!   read off its packed row, against the interpreter on
//!   `graph.materialize(id)`, for every state and step of the graph;
//! * an image view: the program on `ImageView`s of a graph's states
//!   against the interpreter on `s̄` materialized — `s` with each mapped
//!   variable set to its image, computed here by the interpreter — and
//!   no view exactly where `s̄` cannot be built.
//!
//! * a hoisted program: expressions planted with a random state
//!   function and its primed twin, rewritten with each function they
//!   share as a fresh variable (`Hoisting`) and decided as the `⊳`
//!   monitor decides them — the rewritten program on the image views of
//!   the functions' images, filled on demand in reverse state order,
//!   else the plain program on the rows — against the interpreter on
//!   every step and state of a graph: where a shared function is
//!   undefined (no view), where the rewritten program errs (the plain
//!   program answers) and where it decides.
//!
//! Every `Expr` variant, primes, empty `∧`/`∨` chains, ill-typed
//! operands, `Head`/`Tail` of `⟨⟩`, overflow and out-of-range `VarId`s
//! are generated; each test also counts what it compared, so a
//! generator that stopped reaching an outcome fails too.

use opentla_check::hoist::Hoisting;
use opentla_check::image::{ImageView, Images};
use opentla_check::{
    explore, CompiledExpr, EvalScratch, ExploreOptions, GuardedAction, Init, RecorderHandle,
    StateGraph, System,
};
use opentla_kernel::{
    BinOp, Domain, EvalError, Expr, State, StatePair, Substitution, UnOp, Value, VarId, Vars,
};
use std::collections::BTreeSet;

/// A splitmix64 stream: a case is a function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

const UNARY: [UnOp; 5] = [UnOp::Not, UnOp::Neg, UnOp::Len, UnOp::Head, UnOp::Tail];

const BINARY: [BinOp; 14] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Implies,
    BinOp::Equiv,
    BinOp::Concat,
];

/// Random variables, one more `VarId` that no state has a slot for, and
/// the generators over them.
struct World {
    vars: Vars,
    ids: Vec<VarId>,
    /// Declared in a wider registry: out of range for every state.
    ghost: VarId,
}

impl World {
    /// One to four variables over int ranges, bits, booleans, bit
    /// sequences of length ≤ 2 and pairs.
    fn new(rng: &mut Rng) -> World {
        let mut vars = Vars::new();
        let ids = (0..1 + rng.below(4))
            .map(|i| {
                let domain = match rng.below(5) {
                    0 => {
                        let lo = rng.below(4) as i64 - 2;
                        Domain::int_range(lo, lo + rng.below(4) as i64)
                    }
                    1 => Domain::bits(),
                    2 => Domain::booleans(),
                    3 => Domain::seqs_up_to(&Domain::bits(), 2),
                    _ => Domain::new(
                        [(0, false), (1, true), (2, true)]
                            .map(|(n, b)| Value::tuple([Value::Int(n), Value::Bool(b)]))
                            .to_vec(),
                    ),
                };
                vars.declare(format!("v{i}"), domain)
            })
            .collect();
        let ghost = vars.clone().declare("ghost", Domain::bits());
        World { vars, ids, ghost }
    }

    fn var(&self, rng: &mut Rng) -> VarId {
        if rng.one_in(12) {
            self.ghost
        } else {
            self.ids[rng.below(self.ids.len())]
        }
    }

    fn state(&self, rng: &mut Rng) -> State {
        State::new(
            self.ids
                .iter()
                .map(|v| {
                    let values = self.vars.domain(*v).values();
                    values[rng.below(values.len())].clone()
                })
                .collect::<Vec<_>>(),
        )
    }

    /// A random expression of depth ≤ `depth`, with primed variables if
    /// `primes`.
    fn expr(&self, rng: &mut Rng, primes: bool, depth: usize) -> Expr {
        if depth == 0 || rng.one_in(4) {
            return match rng.below(3) {
                0 => Expr::Const(value(rng)),
                1 if primes => Expr::Prime(self.var(rng)),
                _ => Expr::Var(self.var(rng)),
            };
        }
        let d = depth - 1;
        let sub = |rng: &mut Rng| Box::new(self.expr(rng, primes, d));
        match rng.below(8) {
            0 => Expr::Unary(UNARY[rng.below(UNARY.len())], sub(rng)),
            1 => {
                let op = BINARY[rng.below(BINARY.len())];
                Expr::Binary(op, sub(rng), sub(rng))
            }
            2 => Expr::And(self.exprs(rng, primes, d)),
            3 => Expr::Or(self.exprs(rng, primes, d)),
            4 => Expr::Ite(sub(rng), sub(rng), sub(rng)),
            5 => Expr::Tuple(self.exprs(rng, primes, d)),
            6 => Expr::MkSeq(self.exprs(rng, primes, d)),
            _ => Expr::InSet(sub(rng), (0..rng.below(3)).map(|_| value(rng)).collect()),
        }
    }

    /// Zero to three expressions.
    fn exprs(&self, rng: &mut Rng, primes: bool, depth: usize) -> Vec<Expr> {
        (0..rng.below(4))
            .map(|_| self.expr(rng, primes, depth))
            .collect()
    }

    /// A state function to share: an operator over at least one
    /// variable, unprimed — often one defined everywhere, often a
    /// `Head` or `Tail`, undefined at `⟨⟩` and off sequences, or a sum
    /// that may overflow.
    fn function(&self, rng: &mut Rng) -> Expr {
        let (v, w) = (Expr::Var(self.var(rng)), Expr::Var(self.var(rng)));
        match rng.below(7) {
            0 => Expr::Tuple(vec![v, w]),
            1 => v.eq(w),
            2 => Expr::MkSeq(vec![v]).concat(Expr::MkSeq(vec![w])).len(),
            3 => v.head(),
            4 => v.tail(),
            5 => v.add(Expr::Const(value(rng))),
            _ => loop {
                let e = self.expr(rng, false, 3);
                let leaf = matches!(e, Expr::Const(_) | Expr::Var(_));
                if !leaf && !e.unprimed_vars().is_empty() {
                    break e;
                }
            },
        }
    }

    /// A random action with `f` or its primed twin `f1` planted at some
    /// of its leaves, and once beside it.
    fn planted(&self, rng: &mut Rng, f: &Expr, f1: &Expr) -> Expr {
        let pick = |rng: &mut Rng| if rng.one_in(2) { f } else { f1 }.clone();
        if rng.one_in(3) {
            // Well-typed whatever `f` is: compares `f` or `f1` to itself.
            return pick(rng).eq(pick(rng));
        }
        let e = plant(self.expr(rng, true, 4), rng, &pick);
        let beside = Box::new(pick(rng));
        match rng.below(4) {
            0 => Expr::Binary(BINARY[rng.below(BINARY.len())], Box::new(e), beside),
            1 => Expr::And(vec![e, *beside]),
            2 => Expr::Or(vec![*beside, e]),
            _ => Expr::Ite(Box::new(e), beside, Box::new(pick(rng))),
        }
    }

    /// Up to two variables mapped, and now and then the ghost; an image
    /// is another variable, a constant or a random state function (which
    /// may be undefined).
    fn mapping(&self, rng: &mut Rng) -> Substitution {
        let mut mapped: BTreeSet<VarId> = (0..rng.below(3)).map(|_| self.var(rng)).collect();
        if rng.one_in(8) {
            mapped.insert(self.ghost);
        }
        Substitution::new(mapped.into_iter().map(|v| {
            let image = match rng.below(3) {
                0 => Expr::Var(self.ids[rng.below(self.ids.len())]),
                1 => Expr::Const(value(rng)),
                _ => self.expr(rng, false, 3),
            };
            (v, image)
        }))
    }

    /// The graph of `s` and one action jumping to `t`: `[s, t]` with
    /// edges `s → t` and `t → t`, or `[s]` when they are equal.
    fn graph(&self, s: &State, t: &State) -> StateGraph {
        let assign = |state: &State| {
            self.ids
                .iter()
                .map(|v| (*v, state.get(*v).clone()))
                .collect::<Vec<_>>()
        };
        let jump = GuardedAction::new(
            "jump",
            Expr::bool(true),
            assign(t)
                .into_iter()
                .map(|(v, c)| (v, Expr::Const(c)))
                .collect(),
        );
        let system = System::new(self.vars.clone(), Init::new(assign(s)), vec![jump]);
        explore(&system, &ExploreOptions::default()).expect("a two-state system explores")
    }
}

/// `e` with a third of its leaves replaced by `pick`'s expression.
fn plant(e: Expr, rng: &mut Rng, pick: &impl Fn(&mut Rng) -> Expr) -> Expr {
    let each = |es: Vec<Expr>, rng: &mut Rng| es.into_iter().map(|e| plant(e, rng, pick)).collect();
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::Prime(_) if rng.one_in(3) => pick(rng),
        Expr::Const(_) | Expr::Var(_) | Expr::Prime(_) => e,
        Expr::Unary(op, a) => Expr::Unary(op, Box::new(plant(*a, rng, pick))),
        Expr::Binary(op, a, b) => {
            let a = plant(*a, rng, pick);
            Expr::Binary(op, Box::new(a), Box::new(plant(*b, rng, pick)))
        }
        Expr::And(es) => Expr::And(each(es, rng)),
        Expr::Or(es) => Expr::Or(each(es, rng)),
        Expr::Tuple(es) => Expr::Tuple(each(es, rng)),
        Expr::MkSeq(es) => Expr::MkSeq(each(es, rng)),
        Expr::Ite(c, a, b) => {
            let c = plant(*c, rng, pick);
            let a = plant(*a, rng, pick);
            Expr::Ite(Box::new(c), Box::new(a), Box::new(plant(*b, rng, pick)))
        }
        Expr::InSet(a, set) => Expr::InSet(Box::new(plant(*a, rng, pick)), set),
    }
}

/// `e` with every variable primed.
fn primed(e: &Expr) -> Expr {
    let each = |es: &[Expr]| es.iter().map(primed).collect();
    let boxed = |e: &Expr| Box::new(primed(e));
    match e {
        Expr::Var(v) => Expr::Prime(*v),
        Expr::Const(_) | Expr::Prime(_) => e.clone(),
        Expr::Unary(op, a) => Expr::Unary(*op, boxed(a)),
        Expr::Binary(op, a, b) => Expr::Binary(*op, boxed(a), boxed(b)),
        Expr::And(es) => Expr::And(each(es)),
        Expr::Or(es) => Expr::Or(each(es)),
        Expr::Ite(c, a, b) => Expr::Ite(boxed(c), boxed(a), boxed(b)),
        Expr::Tuple(es) => Expr::Tuple(each(es)),
        Expr::MkSeq(es) => Expr::MkSeq(each(es)),
        Expr::InSet(a, set) => Expr::InSet(boxed(a), set.clone()),
    }
}

/// A constant: small and extreme integers, booleans, short bit
/// sequences (`⟨⟩` included), pairs, and a string now and then.
fn value(rng: &mut Rng) -> Value {
    match rng.below(9) {
        0 => Value::Bool(rng.one_in(2)),
        1 => Value::seq((0..rng.below(3)).map(|_| Value::Int(rng.below(2) as i64))),
        2 => Value::tuple([Value::Int(rng.below(3) as i64), Value::Bool(rng.one_in(2))]),
        3 => [Value::Int(i64::MAX), Value::Int(i64::MIN), Value::str("s")][rng.below(3)].clone(),
        _ => Value::Int(rng.below(5) as i64 - 2),
    }
}

/// `s̄` built by the interpreter: `s` with every mapped variable set to
/// its image; `None` where an image errs or `s` has no slot for it.
fn materialize(s: &State, mapping: &Substitution) -> Option<State> {
    let mut values = s.values().to_vec();
    for v in mapping.domain() {
        let image = mapping.get(v)?.eval_state(s).ok()?;
        *values.get_mut(v.index())? = image;
    }
    Some(State::new(values))
}

/// What a test compared: the expression variants generated and the
/// outcomes met, by name.
#[derive(Default)]
struct Seen(BTreeSet<&'static str>);

impl Seen {
    fn expr(&mut self, e: &Expr) {
        self.0.insert(match e {
            Expr::Const(_) => "Const",
            Expr::Var(_) => "Var",
            Expr::Prime(_) => "Prime",
            Expr::Unary(..) => "Unary",
            Expr::Binary(..) => "Binary",
            Expr::And(es) if es.is_empty() => "empty ∧",
            Expr::Or(es) if es.is_empty() => "empty ∨",
            Expr::And(_) => "And",
            Expr::Or(_) => "Or",
            Expr::Ite(..) => "Ite",
            Expr::Tuple(_) => "Tuple",
            Expr::MkSeq(_) => "MkSeq",
            Expr::InSet(..) => "InSet",
        });
        match e {
            Expr::Unary(_, a) | Expr::InSet(a, _) => self.expr(a),
            Expr::Binary(_, a, b) => {
                self.expr(a);
                self.expr(b);
            }
            Expr::Ite(c, a, b) => {
                self.expr(c);
                self.expr(a);
                self.expr(b);
            }
            Expr::And(es) | Expr::Or(es) | Expr::Tuple(es) | Expr::MkSeq(es) => {
                es.iter().for_each(|e| self.expr(e));
            }
            Expr::Const(_) | Expr::Var(_) | Expr::Prime(_) => {}
        }
    }

    fn result(&mut self, r: &Result<Value, EvalError>) {
        self.0.insert(match r {
            Ok(Value::Bool(_)) => "Ok(bool)",
            Ok(_) => "Ok(other)",
            Err(EvalError::UnboundVar { .. }) => "UnboundVar",
            Err(EvalError::PrimeInStateContext { .. }) => "PrimeInStateContext",
            Err(EvalError::TypeMismatch { .. }) => "TypeMismatch",
            Err(EvalError::EmptySeq { .. }) => "EmptySeq",
            Err(EvalError::Overflow { .. }) => "Overflow",
            Err(EvalError::DivisionByZero) => "DivisionByZero",
        });
    }

    fn assert_covers(&self, test: &str, expected: &[&str]) {
        let missing: Vec<&&str> = expected.iter().filter(|n| !self.0.contains(**n)).collect();
        assert!(missing.is_empty(), "{test}: never generated {missing:?}");
    }
}

const VARIANTS: [&str; 13] = [
    "Const",
    "Var",
    "Prime",
    "Unary",
    "Binary",
    "And",
    "Or",
    "empty ∧",
    "empty ∨",
    "Ite",
    "Tuple",
    "MkSeq",
    "InSet",
];

const OUTCOMES: [&str; 8] = [
    "Ok(bool)",
    "Ok(other)",
    "UnboundVar",
    "PrimeInStateContext",
    "TypeMismatch",
    "EmptySeq",
    "Overflow",
    "DivisionByZero",
];

const SEEDS: u64 = 1000;

/// State functions and actions on states and steps, and on the row
/// views of an explored graph's states: the compiled program's result
/// is the interpreter's, value or error.
#[test]
fn compiled_programs_agree_with_the_interpreter_on_states_and_steps() {
    let (mut seen, mut on_rows) = (Seen::default(), Seen::default());
    let mut scratch = EvalScratch::new();
    for seed in 0..SEEDS {
        let rng = &mut Rng(seed);
        let world = World::new(rng);
        let (s, t) = (world.state(rng), world.state(rng));
        let short = State::new(s.values()[..rng.below(s.len())].to_vec());
        let graph = world.graph(&s, &t);
        let states: Vec<State> = (0..graph.len()).map(|id| graph.materialize(id)).collect();
        assert_eq!(states[0], s, "seed {seed}: the initial state");
        assert_eq!(states.last(), Some(&t), "seed {seed}: the jump's target");
        for _ in 0..16 {
            let e = world.expr(rng, true, 4);
            seen.expr(&e);
            let program = CompiledExpr::compile(&e);
            for state in [&s, &short] {
                let expected = e.eval_state(state);
                seen.result(&expected);
                let ctx = format!("seed {seed}: {e:?} on {state:?}");
                assert_eq!(program.eval(state, &mut scratch), expected, "{ctx}");
                assert_eq!(
                    program.eval(state.values(), &mut scratch),
                    expected,
                    "{ctx}"
                );
                let holds = program.holds(state, &mut scratch);
                assert_eq!(holds, e.holds_state(state), "{ctx}");
            }
            for (old, new) in [(&s, &t), (&t, &s), (&s, &s), (&s, &short), (&short, &t)] {
                let step = StatePair::new(old, new);
                let expected = e.eval_action(step);
                seen.result(&expected);
                let ctx = format!("seed {seed}: {e:?} on {old:?} -> {new:?}");
                assert_eq!(program.eval_step(old, new, &mut scratch), expected, "{ctx}");
                let holds = program.holds_step(old.values(), new.values(), &mut scratch);
                assert_eq!(holds, e.holds_action(step), "{ctx}");
            }
            for (id, state) in states.iter().enumerate() {
                let expected = e.eval_state(state);
                on_rows.result(&expected);
                let ctx = format!("seed {seed}: {e:?} on row {id}, {state:?}");
                assert_eq!(
                    program.eval(&graph.view(id), &mut scratch),
                    expected,
                    "{ctx}"
                );
                for (next, next_state) in states.iter().enumerate() {
                    let expected = e.eval_action(StatePair::new(state, next_state));
                    on_rows.result(&expected);
                    let (old, new) = (graph.view(id), graph.view(next));
                    let got = program.eval_step(&old, &new, &mut scratch);
                    assert_eq!(got, expected, "{ctx} -> row {next}");
                }
            }
        }
    }
    seen.assert_covers("states and steps", &VARIANTS);
    seen.assert_covers("states and steps", &OUTCOMES);
    on_rows.assert_covers("row views", &OUTCOMES);
}

/// The program on views of `s̄` and `t̄` is the interpreter on `s̄` and
/// `t̄` materialized, and a state has a view exactly where `s̄` exists.
#[test]
fn compiled_programs_on_image_views_agree_with_the_interpreter_on_materialized_states() {
    let mut seen = Seen::default();
    let mut scratch = EvalScratch::new();
    let (mut viewed, mut unviewable, mut overridden) = (0usize, 0usize, 0usize);
    for seed in 0..SEEDS {
        let rng = &mut Rng(seed);
        let world = World::new(rng);
        let (s, t) = (world.state(rng), world.state(rng));
        let graph = world.graph(&s, &t);
        let mapping = world.mapping(rng);
        let images = Images::of_graph(&graph, &mapping, &RecorderHandle::default());
        let mut pairs = Vec::new();
        for id in 0..graph.len() {
            let view = ImageView::new(&images, &graph, id);
            let bar = materialize(graph.state(id), &mapping);
            assert_eq!(
                view.is_some(),
                bar.is_some(),
                "seed {seed}: state {id} under {mapping:?}"
            );
            if let (Some(view), Some(bar)) = (view, bar) {
                viewed += 1;
                overridden += usize::from(&bar != graph.state(id));
                pairs.push((view, bar));
            } else {
                unviewable += 1;
            }
        }
        for _ in 0..16 {
            let e = world.expr(rng, true, 4);
            seen.expr(&e);
            let program = CompiledExpr::compile(&e);
            for (view, bar) in &pairs {
                let expected = e.eval_state(bar);
                seen.result(&expected);
                let ctx = format!("seed {seed}: {e:?} on {bar:?} under {mapping:?}");
                assert_eq!(program.eval(view, &mut scratch), expected, "{ctx}");
                for (next_view, next_bar) in &pairs {
                    let expected = e.eval_action(StatePair::new(bar, next_bar));
                    seen.result(&expected);
                    let got = program.eval_step(view, next_view, &mut scratch);
                    assert_eq!(got, expected, "{ctx} -> {next_bar:?}");
                }
            }
        }
    }
    seen.assert_covers("image views", &VARIANTS);
    seen.assert_covers("image views", &OUTCOMES);
    assert!(
        viewed > 1000 && unviewable > 300 && overridden > 400,
        "views {viewed}, none {unviewable}, overriding {overridden}"
    );
}

/// Hoisted programs, decided as the `⊳` monitor decides them, are the
/// interpreter, value or error, on every step and state of a graph: the
/// rewritten program on the on-demand image views where both exist and
/// it answers, else the plain program on the rows. Each path is
/// counted, so a generator that stopped reaching one fails.
#[test]
fn hoisted_programs_agree_with_the_interpreter_on_every_step() {
    let mut seen = Seen::default();
    let mut scratch = EvalScratch::new();
    let (mut shared, mut programs) = (0usize, 0usize);
    let (mut hoisted, mut fallbacks, mut no_view) = (0usize, 0usize, 0usize);
    for seed in 0..SEEDS {
        let rng = &mut Rng(seed);
        let world = World::new(rng);
        let (s, t) = (world.state(rng), world.state(rng));
        let graph = world.graph(&s, &t);
        let states: Vec<State> = (0..graph.len()).map(|id| graph.materialize(id)).collect();
        let f = world.function(rng);
        let f1 = primed(&f);
        let exprs: Vec<Expr> = (0..2 + rng.below(3))
            .map(|_| world.planted(rng, &f, &f1))
            .collect();
        let hoisting = Hoisting::of(&exprs, &world.vars);
        shared += hoisting.functions().len();
        let mut images = Images::on_demand(&graph, &hoisting.mapping());
        for id in (0..graph.len()).rev() {
            images.fill(&graph, id);
        }
        let views: Vec<Option<ImageView<'_>>> = (0..graph.len())
            .map(|id| ImageView::new(&images, &graph, id))
            .collect();
        for e in &exprs {
            seen.expr(e);
            let plain = CompiledExpr::compile(e);
            let rewritten = hoisting.rewrite(e).map(|r| CompiledExpr::compile(&r));
            programs += usize::from(rewritten.is_some());
            for (id, state) in states.iter().enumerate() {
                let ctx = format!("seed {seed}: {e:?} sharing {hoisting:?} at {state:?}");
                let expected = e.eval_state(state);
                seen.result(&expected);
                let row = graph.view(id);
                let got = match (&rewritten, views[id]) {
                    (Some(r), Some(view)) => {
                        (r.eval(&view, &mut scratch)).or_else(|_| plain.eval(&row, &mut scratch))
                    }
                    _ => plain.eval(&row, &mut scratch),
                };
                assert_eq!(got, expected, "{ctx}");
                for (next, next_state) in states.iter().enumerate() {
                    let step = StatePair::new(state, next_state);
                    let expected = e.eval_action(step);
                    seen.result(&expected);
                    let next_row = graph.view(next);
                    let (got, holds) = match (&rewritten, views[id].zip(views[next])) {
                        (Some(r), Some((old, new))) => {
                            let got = r.eval_step(&old, &new, &mut scratch);
                            match got {
                                Ok(_) => hoisted += 1,
                                Err(_) => fallbacks += 1,
                            }
                            let holds = r.holds_step(&old, &new, &mut scratch);
                            (
                                got.or_else(|_| plain.eval_step(&row, &next_row, &mut scratch)),
                                holds.or_else(|_| plain.holds_step(&row, &next_row, &mut scratch)),
                            )
                        }
                        (rewritten, _) => {
                            no_view += usize::from(rewritten.is_some());
                            (
                                plain.eval_step(&row, &next_row, &mut scratch),
                                plain.holds_step(&row, &next_row, &mut scratch),
                            )
                        }
                    };
                    assert_eq!(got, expected, "{ctx} -> {next_state:?}");
                    assert_eq!(holds, e.holds_action(step), "{ctx} -> {next_state:?}");
                }
            }
        }
    }
    seen.assert_covers("hoisted programs", &VARIANTS);
    seen.assert_covers("hoisted programs", &OUTCOMES);
    assert!(
        shared > 900 && programs > 2000 && hoisted > 1500 && fallbacks > 1500 && no_view > 3000,
        "functions {shared}, hoisted programs {programs}, steps decided hoisted {hoisted}, \
         by the plain program after an error {fallbacks}, without a view {no_view}"
    );
}
