//! The ids program against its oracle, the compiled program on image
//! views: seeded random guarded-command systems under random
//! refinement mappings, partial ones included, and random predicates
//! over the abstract variables — a boolean skeleton (`∧ ∨ ¬ ⇒`) over
//! unprimed leaves, `x′ = f` leaves (`f = x′`, `x′ ≠ f`, `x′ = x`) and,
//! now and then, a primed leaf of another shape or a leaf whose key is
//! too wide to index a table, either of which leaves the predicate
//! without an ids program.
//!
//! For every pair of classes and every class of a predicate's
//! footprint, an `IdsProgram` decision is compared with
//! `CompiledExpr::holds_step` (`holds`) on the two states' `ImageView`s:
//! equal where the program answers, and `None` wherever it errs. A
//! step predicate decides every pair it has an ids program for; a state
//! predicate every class, unless it has a primed leaf. Each pair is
//! asked twice, on cold and on warm tables, in two orders.
//!
//! Every case also decides four predicates that each name a way to get
//! the order or the errors wrong: an erring leaf before its guard
//! (`x′ = Head(q) ∧ Len(q) > 0`), `x′ = y` across a mapped and an
//! unmapped variable, a value outside `x`'s ids (`x′ = 5`), and a
//! negated `UNCHANGED` (`¬(x′ = x ∧ y′ = y)`).
//!
//! The last tests are on Figure 9's `DoubleQueue(2,3,Joint)`: every
//! memo miss of the certificate's simulations and of its fairness
//! table is decided on ids, and so is every class of the target's
//! enabledness predicate; a target with an unsupported primed leaf
//! decides nothing on ids and gets the same verdicts.
//!
//! The test counts what it met, so a generator that stopped reaching
//! an outcome fails too.

use opentla::CompositionOptions;
use opentla_check::image::{Classes, IdsProgram, ImageView, Images};
use opentla_check::{
    explore, Budget, CompiledExpr, EvalScratch, Event, ExploreOptions, GuardedAction, Init,
    LiveTarget, Recorder, RecorderHandle, Session, StateGraph, System,
};
use opentla_kernel::{Domain, Expr, Fairness, Formula, Substitution, Value, VarId, Vars};
use opentla_queue::{DoubleQueue, FairnessStyle};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

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

/// Outcomes met, and how often.
#[derive(Default)]
struct Seen(BTreeMap<&'static str, u64>);

impl Seen {
    fn note(&mut self, outcome: &'static str) {
        *self.0.entry(outcome).or_default() += 1;
    }
}

/// `x` and `y` over `0..=2` and `q`, a sequence of them of length at
/// most 2, stepped by random guarded commands over `x` and `y` and, in
/// most systems, a push of `x` onto `q` and a pop; and `z`, a 15-bit
/// constant, so that a leaf reading it has a key past the 14 bits up to
/// which a leaf's key indexes its table: a predicate with such a leaf
/// has no ids program.
struct World {
    system: System,
    x: VarId,
    y: VarId,
    q: VarId,
    z: VarId,
}

impl World {
    fn new(rng: &mut Rng) -> World {
        let mut vars = Vars::new();
        let values = Domain::int_range(0, 2);
        let x = vars.declare("x", values.clone());
        let y = vars.declare("y", values.clone());
        let q = vars.declare("q", Domain::seqs_up_to(&values, 2));
        let z = vars.declare("z", Domain::int_range(0, 32767));
        let ints = [x, y];
        let mut actions: Vec<GuardedAction> = (0..1 + rng.below(4))
            .map(|i| {
                let (on, to) = (ints[rng.below(2)], ints[rng.below(2)]);
                let guard = Expr::var(on).eq(Expr::int(rng.below(3) as i64));
                let update = match rng.below(3) {
                    0 => Expr::int(rng.below(3) as i64),
                    1 => Expr::var(ints[rng.below(2)]),
                    _ => Expr::var(to).add(Expr::int(1)).rem(Expr::int(3)),
                };
                GuardedAction::new(format!("act{i}"), guard, vec![(to, update)])
            })
            .collect();
        if !rng.one_in(4) {
            actions.push(GuardedAction::new(
                "push",
                Expr::var(q).len().lt(Expr::int(2)),
                vec![(q, Expr::var(q).concat(Expr::MkSeq(vec![Expr::var(x)])))],
            ));
            actions.push(GuardedAction::new(
                "pop",
                Expr::var(q).len().gt(Expr::int(0)),
                vec![(q, Expr::var(q).tail())],
            ));
        }
        let init = Init::new([
            (x, Value::Int(0)),
            (y, Value::Int(0)),
            (q, Value::empty_seq()),
            (z, Value::Int(rng.below(32768) as i64)),
        ]);
        World {
            system: System::new(vars, init, actions),
            x,
            y,
            q,
            z,
        }
    }

    fn vars(&self) -> [VarId; 3] {
        [self.x, self.y, self.q]
    }

    /// A random mapping of some of `x`, `y` and `q`, partial ones
    /// among them (`6 ÷ y`, `Head(q)`, `Tail(q)`).
    fn mapping(&self, rng: &mut Rng) -> Substitution {
        let (x, y, q) = (Expr::var(self.x), Expr::var(self.y), Expr::var(self.q));
        let mut pairs = Vec::new();
        if rng.one_in(2) {
            let image = match rng.below(5) {
                0 => y.clone(),
                1 => x.clone().add(y.clone()).rem(Expr::int(3)),
                2 => Expr::int(6).div(y.clone()),
                3 => x.clone().div(Expr::int(2)),
                _ => q.clone().len(),
            };
            pairs.push((self.x, image));
        }
        if rng.one_in(2) {
            let image = match rng.below(3) {
                0 => x.clone(),
                1 => Expr::int(2).sub(y.clone()),
                _ => q.clone().head(),
            };
            pairs.push((self.y, image));
        }
        if rng.one_in(2) {
            let image = match rng.below(4) {
                0 => (x.clone().eq(Expr::int(0))).ite(Expr::empty_seq(), Expr::MkSeq(vec![y])),
                1 => q.clone().concat(Expr::MkSeq(vec![x])),
                2 => q.clone().tail(),
                _ => Expr::MkSeq(vec![x, y]),
            };
            pairs.push((self.q, image));
        }
        Substitution::new(pairs)
    }

    fn var(&self, rng: &mut Rng) -> VarId {
        self.vars()[rng.below(3)]
    }

    /// A state function of the current state, possibly partial;
    /// `unsupported` is set if it reads `z`.
    fn function(&self, rng: &mut Rng, x: VarId, unsupported: &mut bool) -> Expr {
        let (v, q) = (Expr::var(self.var(rng)), Expr::var(self.q));
        match rng.below(11) {
            0 => Expr::var(x),
            1 => v,
            2 => v.add(Expr::int(1)).rem(Expr::int(3)),
            3 => q.head(),
            4 => Expr::int(6).div(v),
            // Outside every domain here.
            5 => Expr::int(5),
            6 => q.concat(Expr::MkSeq(vec![v])),
            7 => q.tail(),
            8 => Expr::empty_seq(),
            9 => {
                *unsupported = true;
                Expr::var(self.z).add(v).rem(Expr::int(3))
            }
            _ => Expr::MkSeq(vec![v]),
        }
    }

    /// A leaf; `unsupported` is set if the ids program does not read
    /// it: a primed leaf of another shape than `x′ = f`, or a leaf
    /// reading `z`.
    fn leaf(&self, rng: &mut Rng, primes: bool, unsupported: &mut bool) -> Expr {
        let (v, w, q) = (
            Expr::var(self.var(rng)),
            Expr::var(self.var(rng)),
            Expr::var(self.q),
        );
        let k = Expr::int(rng.below(3) as i64);
        if primes && rng.one_in(20) {
            *unsupported = true;
            return match rng.below(3) {
                0 => Expr::prime(self.q).len().eq(q.len().add(Expr::int(1))),
                1 => Expr::prime(self.x).add(Expr::int(0)).eq(w),
                _ => Expr::prime(self.x).eq(Expr::prime(self.y)),
            };
        }
        if primes && rng.one_in(2) {
            let x = self.var(rng);
            let f = self.function(rng, x, unsupported);
            let (a, b) = if rng.one_in(3) {
                (f, Expr::prime(x))
            } else {
                (Expr::prime(x), f)
            };
            return if rng.one_in(4) { a.ne(b) } else { a.eq(b) };
        }
        match rng.below(10) {
            0 => v.eq(k),
            1 => v.lt(w),
            2 => q.len().gt(Expr::int(0)),
            3 => q.head().eq(k),
            4 => Expr::int(6).div(v).eq(Expr::int(3)),
            // Not boolean: an error in a boolean context.
            5 => v,
            6 => Expr::bool(rng.one_in(2)),
            7 => q.eq(Expr::empty_seq()),
            8 => {
                *unsupported = true;
                Expr::var(self.z).add(v).rem(Expr::int(3)).eq(k)
            }
            _ => v.in_set([Value::Int(0), Value::Int(2)]),
        }
    }

    /// A random predicate of skeleton depth ≤ `depth`.
    fn predicate(&self, rng: &mut Rng, primes: bool, depth: usize, unsupported: &mut bool) -> Expr {
        if depth == 0 || rng.one_in(3) {
            return self.leaf(rng, primes, unsupported);
        }
        let d = depth - 1;
        let mut sub = |rng: &mut Rng| self.predicate(rng, primes, d, unsupported);
        match rng.below(4) {
            0 => Expr::And((0..rng.below(4)).map(|_| sub(rng)).collect()),
            1 => Expr::Or((0..rng.below(4)).map(|_| sub(rng)).collect()),
            2 => sub(rng).not(),
            _ => {
                let a = sub(rng);
                a.implies(sub(rng))
            }
        }
    }
}

/// One representative state per class with a view: the first.
fn representatives(graph: &StateGraph, classes: &Classes<'_>, images: &Images) -> Vec<usize> {
    let mut first: BTreeMap<u32, usize> = BTreeMap::new();
    for id in 0..graph.len() {
        if let Some(class) = classes.get(id) {
            if ImageView::new(images, graph, id).is_some() {
                first.entry(class).or_insert(id);
            }
        }
    }
    first.into_values().collect()
}

/// `predicate` decided on ids against the compiled program, on every
/// pair of classes (a step) and every class (a state), over `graph`
/// under `images`. `unsupported` says whether it has a leaf the ids
/// program does not read.
fn check_predicate(
    graph: &StateGraph,
    images: &Images,
    predicate: &Expr,
    unsupported: bool,
    seen: &mut Seen,
) {
    let classes = Classes::of_graph(graph, &predicate.all_vars(), images);
    let context = || format!("{predicate:?} under {:?}", images.mapping());
    let Some(mut ids) = IdsProgram::of_all(&classes, std::slice::from_ref(predicate)) else {
        assert!(unsupported, "no ids program for {}", context());
        seen.note("no ids program");
        return;
    };
    assert!(!unsupported, "an ids program for {}", context());
    let program = CompiledExpr::compile(predicate);
    let scratch = &mut EvalScratch::new();
    let view = |id| ImageView::new(images, graph, id).expect("a representative has a view");
    let reps = representatives(graph, &classes, images);
    let primed = !predicate.primed_vars().is_empty();
    for pass in 0..2 {
        for &s in &reps {
            for j in 0..reps.len() {
                // The second pass, on warm tables, runs the other way.
                let t = reps[if pass == 0 { j } else { reps.len() - 1 - j }];
                let expected = program.holds_step(&view(s), &view(t), scratch);
                let got = ids.step(s, t);
                assert_eq!(
                    got,
                    expected.as_ref().ok().copied(),
                    "step {s} → {t} of {}: {expected:?}",
                    context()
                );
                if pass == 0 {
                    seen.note(match expected {
                        Err(_) => "a pair the program errs on",
                        Ok(true) => "a pair that holds",
                        Ok(false) => "a pair that fails",
                    });
                }
            }
        }
        for &s in &reps {
            let expected = program.holds(&view(s), scratch);
            let got = ids.holds(s);
            if primed {
                assert_eq!(got, None, "state {s} of {}", context());
            } else {
                assert_eq!(
                    got,
                    expected.as_ref().ok().copied(),
                    "state {s} of {}: {expected:?}",
                    context()
                );
                if pass == 0 {
                    seen.note(match expected {
                        Err(_) => "a class the program errs on",
                        Ok(_) => "a class decided",
                    });
                }
            }
        }
    }
}

/// The four named predicates over `world`, and what each one exercises
/// under `mapping`.
fn named(world: &World, mapping: &Substitution) -> Vec<(Expr, Option<&'static str>)> {
    let (x, y, q) = (world.x, world.y, world.q);
    let mapped = |v: VarId| mapping.get(v).is_some();
    vec![
        (
            Expr::prime(x)
                .eq(Expr::var(q).head())
                .and(Expr::var(q).len().gt(Expr::int(0))),
            Some("an erring leaf before its guard"),
        ),
        (
            Expr::prime(x).eq(Expr::var(y)),
            (mapped(x) != mapped(y)).then_some("x′ = y across a mapped and an unmapped variable"),
        ),
        (
            Expr::prime(x).eq(Expr::int(5)),
            Some("a value outside x's ids"),
        ),
        (
            Expr::prime(x)
                .eq(Expr::var(x))
                .and(Expr::prime(y).eq(Expr::var(y)))
                .not(),
            Some("a negated UNCHANGED"),
        ),
    ]
}

#[test]
fn ids_decisions_are_the_compiled_programs() {
    let mut seen = Seen::default();
    for seed in 0..300u64 {
        let rng = &mut Rng(seed);
        let world = World::new(rng);
        let graph =
            explore(&world.system, &ExploreOptions::default()).expect("the systems explore");
        let mapping = world.mapping(rng);
        let images = Images::of_graph(&graph, &mapping, &RecorderHandle::default());
        if images.undefined() > 0 {
            seen.note("undefined image");
        }
        for (predicate, outcome) in named(&world, &mapping) {
            check_predicate(&graph, &images, &predicate, false, &mut seen);
            if let Some(outcome) = outcome {
                seen.note(outcome);
            }
        }
        for _ in 0..6 {
            let primes = !rng.one_in(4);
            let mut unsupported = false;
            let predicate = world.predicate(rng, primes, 3, &mut unsupported);
            check_predicate(&graph, &images, &predicate, unsupported, &mut seen);
        }
    }
    let missing: Vec<&str> = [
        "undefined image",
        "no ids program",
        "a pair the program errs on",
        "a pair that holds",
        "a pair that fails",
        "a class the program errs on",
        "a class decided",
        "an erring leaf before its guard",
        "x′ = y across a mapped and an unmapped variable",
        "a value outside x's ids",
        "a negated UNCHANGED",
    ]
    .into_iter()
    .filter(|outcome| !seen.0.contains_key(outcome))
    .collect();
    assert!(
        missing.is_empty(),
        "never met {missing:?} (met {:?})",
        seen.0
    );
    println!("met {:?}", seen.0);
}

/// Keeps every `image_memo` and `image_pass` event, in order.
#[derive(Default)]
struct Memos(Mutex<Vec<(String, u64, u64)>>);

impl Recorder for Memos {
    fn record(&self, event: &Event<'_>) {
        match *event {
            Event::ImageMemo {
                check,
                distinct_pairs,
                on_ids,
                ..
            } => (self.0.lock().unwrap()).push((check.to_string(), distinct_pairs, on_ids)),
            Event::ImagePass { .. } => (self.0.lock().unwrap()).push(("image_pass".into(), 0, 0)),
            _ => {}
        }
    }
}

/// Every memo miss of `DoubleQueue(2,3,Joint)`'s certificate (the H1
/// simulations, H2a, and H2b's fairness table) is decided on ids.
#[test]
fn figure_nine_decides_every_miss_on_ids() {
    let dq = DoubleQueue::new(2, 3, FairnessStyle::Joint);
    let memos = Arc::new(Memos::default());
    let options = CompositionOptions {
        budget: Budget::unlimited().with_recorder(RecorderHandle::new(memos.clone())),
        ..CompositionOptions::default()
    };
    let cert = dq.prove_composition(&options).unwrap();
    assert!(cert.holds());
    let events = memos.0.lock().unwrap().clone();
    println!("(check, distinct_pairs, on_ids): {events:?}");
    let checks: Vec<&str> = events.iter().map(|(check, _, _)| check.as_str()).collect();
    assert_eq!(
        checks,
        [
            "simulation",
            "simulation",
            "image_pass",
            "simulation",
            "liveness"
        ]
    );
    for (check, distinct_pairs, on_ids) in &events[3..] {
        assert!(*distinct_pairs > 0, "{check}");
        assert_eq!(on_ids, distinct_pairs, "{check}");
    }
    for (check, distinct_pairs, on_ids) in &events[..2] {
        assert_eq!(on_ids, distinct_pairs, "{check}");
    }
}

/// `DoubleQueue(2,3,Joint)`: the instance, its complete system, its
/// graph and the refinement mapping to the target queue.
fn figure_nine() -> (DoubleQueue, System, StateGraph, Substitution) {
    let dq = DoubleQueue::new(2, 3, FairnessStyle::Joint);
    let system = dq.cdq_system().unwrap();
    let graph = explore(&system, &ExploreOptions::default()).unwrap();
    let mapping = dq.refinement_mapping();
    (dq, system, graph, mapping)
}

/// Every class of the target's enabledness predicate, over the
/// footprint of H2b's fairness table, is decided on ids, as the
/// compiled program decides it.
#[test]
fn figure_nine_decides_enabledness_on_ids() {
    let (dq, system, graph, mapping) = figure_nine();
    let budget = Budget::unlimited();
    let session = Session::new(&system, &graph, &mapping, &budget);
    let images = session.images();
    let target = dq.big_queue();
    let enabled = target.fairness_enabled_expr(0);
    let mut footprint = target.fairness_condition(0).angle_action().all_vars();
    footprint.union_with(&enabled.all_vars());
    let classes = Classes::of_graph(&graph, &footprint, images);
    let mut ids = IdsProgram::of_all(&classes, std::slice::from_ref(&enabled))
        .expect("the enabledness predicate reads no primes");
    let program = CompiledExpr::compile(&enabled);
    let scratch = &mut EvalScratch::new();
    let reps = representatives(&graph, &classes, images);
    assert_eq!(reps.len(), classes.count());
    for s in reps {
        let view = ImageView::new(images, &graph, s).unwrap();
        let expected = program.holds(&view, scratch).unwrap();
        assert_eq!(ids.holds(s), Some(expected), "state {s}");
    }
}

/// Keeps the `on_ids` of every `image_memo` event.
#[derive(Default)]
struct OnIds(Mutex<Vec<u64>>);

impl Recorder for OnIds {
    fn record(&self, event: &Event<'_>) {
        if let Event::ImageMemo { on_ids, .. } = *event {
            self.0.lock().unwrap().push(on_ids);
        }
    }
}

/// A target whose next-state action carries `Len(q̄′) ≥ 0`, a primed
/// leaf of no `x′ = f` shape, decides nothing on ids and gets the
/// verdicts of the plain target, for H2a and for H2b.
#[test]
fn an_unsupported_primed_leaf_decides_on_the_compiled_program() {
    let (dq, system, graph, mapping) = figure_nine();
    let target = dq.big_queue();
    let (next, owned) = (target.next_expr(), target.owned());
    let q_bar = dq.q_dbl();
    let odd = next.clone().and(Expr::prime(q_bar).len().ge(Expr::int(0)));
    let safety = |next: &Expr| {
        Formula::pred(target.init().as_pred()).and(Formula::act_box(next.clone(), owned.clone()))
    };
    let fairness = target.fairness_condition(0);
    let live = |action: &Expr| {
        LiveTarget::fair_mapped(
            Fairness::weak(action.clone(), fairness.sub.clone()),
            target.fairness_enabled_expr(0),
            mapping.clone(),
        )
    };
    let run = |next: &Expr| {
        let on_ids = Arc::new(OnIds::default());
        let budget = Budget::unlimited().with_recorder(RecorderHandle::new(on_ids.clone()));
        let session = Session::new(&system, &graph, &mapping, &budget);
        let simulation = session.simulation(&safety(next)).unwrap();
        let liveness = session.liveness(&live(next)).unwrap();
        let on_ids = on_ids.0.lock().unwrap().clone();
        (
            format!("{:?}", simulation.report.map(|r| r.verdict)),
            format!("{:?}", liveness.verdict),
            on_ids,
        )
    };
    assert_eq!(
        fairness.action, next,
        "Joint fairness is over the whole action"
    );
    let (plain_h2a, plain_h2b, plain_ids) = run(&next);
    let (odd_h2a, odd_h2b, odd_ids) = run(&odd);
    assert_eq!(
        (plain_h2a.as_str(), plain_h2b.as_str()),
        ("Some(Holds)", "Some(Holds)")
    );
    assert_eq!((odd_h2a, odd_h2b), (plain_h2a, plain_h2b));
    assert!(plain_ids.iter().all(|&n| n > 0), "{plain_ids:?}");
    assert_eq!(odd_ids, [0, 0]);
}
