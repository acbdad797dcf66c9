//! Assumption/guarantee specifications `E ⊳ M` and realization
//! checking.

use crate::{ComponentSpec, SpecError};
use opentla_check::hoist::{drop_subsumed_unchanged, Hoisting};
use opentla_check::image::{ImageView, Images, LazyClasses, PairLists};
use opentla_check::obs::RecorderHandle;
use opentla_check::{
    CheckError, CompiledExpr, Counterexample, EvalScratch, GuardedAction, StateGraph, System,
    Verdict,
};
use opentla_kernel::{EvalError, Expr, Formula, Renaming, VarId, VarSet, Vars};
use opentla_semantics::{safety_canonical, SafetyCanonical};

/// An assumption/guarantee specification `E ⊳ M` (Section 3 of the
/// paper): the system guarantees `M` at least one step longer than the
/// environment satisfies `E`.
///
/// The assumption is a safety-only component (the paper's practice:
/// "we write the environment assumption as a safety property"); the
/// guarantee may carry fairness.
///
/// # Example
///
/// ```
/// use opentla::{AgSpec, ComponentSpec};
/// use opentla_check::Init;
/// use opentla_kernel::{Domain, Formula, Value, Vars};
///
/// # fn main() -> Result<(), opentla::SpecError> {
/// let mut vars = Vars::new();
/// let c = vars.declare("c", Domain::bits());
/// let d = vars.declare("d", Domain::bits());
/// let env = ComponentSpec::builder("E")
///     .outputs([d]).inputs([c])
///     .init(Init::new([(d, Value::Int(0))]))
///     .build()?;
/// let sys = ComponentSpec::builder("M")
///     .outputs([c]).inputs([d])
///     .init(Init::new([(c, Value::Int(0))]))
///     .build()?;
/// let ag = AgSpec::new(env, sys)?;
/// assert_eq!(ag.name(), "E ⊳ M");
/// assert!(matches!(ag.formula(), Formula::WhilePlus { .. }));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct AgSpec {
    env: ComponentSpec,
    sys: ComponentSpec,
}

impl AgSpec {
    /// Pairs an environment assumption with a system guarantee.
    ///
    /// # Errors
    ///
    /// * [`SpecError::EnvWithFairness`] if the assumption has fairness
    ///   conditions (assumptions must be safety properties for the
    ///   composition rules to apply);
    /// * [`SpecError::DuplicateOwnership`] if the two components claim
    ///   the same output.
    pub fn new(env: ComponentSpec, sys: ComponentSpec) -> Result<Self, SpecError> {
        if env.has_fairness() {
            return Err(SpecError::EnvWithFairness {
                component: env.name().to_string(),
            });
        }
        for v in env.owned() {
            if sys.owned().contains(&v) {
                return Err(SpecError::DuplicateOwnership {
                    var: v,
                    owners: (env.name().to_string(), sys.name().to_string()),
                });
            }
        }
        Ok(AgSpec { env, sys })
    }

    /// The environment assumption `E`.
    pub fn env(&self) -> &ComponentSpec {
        &self.env
    }

    /// The system guarantee `M`.
    pub fn sys(&self) -> &ComponentSpec {
        &self.sys
    }

    /// The specification's name, `env ⊳ sys`.
    pub fn name(&self) -> String {
        format!("{} ⊳ {}", self.env.name(), self.sys.name())
    }

    /// The formula `E ⊳ M` (internals hidden on both sides).
    pub fn formula(&self) -> Formula {
        self.env
            .hidden_formula()
            .while_plus(self.sys.hidden_formula())
    }

    /// Renames both sides — the paper's `QE[1] ⊳ QM[1]` instances.
    pub fn rename(
        &self,
        env_name: impl Into<String>,
        sys_name: impl Into<String>,
        renaming: &Renaming,
    ) -> AgSpec {
        AgSpec {
            env: self.env.rename(env_name, renaming),
            sys: self.sys.rename(sys_name, renaming),
        }
    }

    /// Checks (the safety half of) "`implementation` realizes this
    /// specification": the implementation is run against a maximally
    /// hostile environment owning the guarantee's inputs, and the `⊳`
    /// monitor verifies the guarantee is never violated unless the
    /// assumption was violated strictly earlier.
    ///
    /// `mapping` eliminates the guarantee's internal variables in terms
    /// of the implementation's (pass the empty
    /// [`Substitution`](opentla_kernel::Substitution) when the
    /// implementation uses the very same internals, as when a component
    /// realizes its own specification).
    ///
    /// # Errors
    ///
    /// Structural or engine errors; a genuine non-realization is a
    /// [`Verdict::Violated`] with the offending trace.
    pub fn realize_safety(
        &self,
        vars: &Vars,
        implementation: &ComponentSpec,
        mapping: &opentla_kernel::Substitution,
    ) -> Result<Verdict, SpecError> {
        let chaos = chaos_environment(
            format!("chaos-for-{}", self.sys.name()),
            vars,
            self.sys.inputs(),
        );
        let system = crate::closed_product(vars, &[implementation, &chaos])?;
        let graph = opentla_check::explore(&system, &opentla_check::ExploreOptions::default())?;
        let env_f = mapping.formula(&self.env.safety_formula())?;
        let sys_f = mapping.formula(&self.sys.safety_formula())?;
        check_ag_safety(&system, &graph, &env_f, &sys_f)
    }
}

/// A maximally hostile (but interleaving) environment: a component that
/// owns `outputs` and may set any one of them to any domain value at
/// any step.
///
/// Used for *realization* checks: an implementation satisfies `E ⊳ M`
/// iff it does so against every environment, and the chaos environment
/// exhibits them all.
pub fn chaos_environment(name: impl Into<String>, vars: &Vars, outputs: &[VarId]) -> ComponentSpec {
    let name = name.into();
    let mut builder = ComponentSpec::builder(name.clone()).outputs(outputs.iter().copied());
    for v in outputs {
        for value in vars.domain(*v).iter() {
            builder = builder.action(GuardedAction::new(
                format!("chaos[{} := {}]", vars.name(*v), value),
                Expr::var(*v).ne(Expr::con(value.clone())),
                vec![(*v, Expr::con(value.clone()))],
            ));
        }
    }
    builder.build().expect("chaos environment is well-formed")
}

/// A precise `⊳` diagnosis of how (and when) the environment first
/// broke the assumption `E` on some reachable behavior.
///
/// States of a behavior are numbered from 0; "`E` broken at step `k`"
/// means the prefix ending in state `k` is the first prefix violating
/// `E` (`k = 0` when the initial state already violates it). Because
/// the verdict holds, the guarantee `M` was still intact at state `k` —
/// `M` held `k + 1` steps, the one-step-longer margin `E ⊳ M` demands.
#[derive(Clone, Debug)]
pub struct AssumptionBreak {
    /// Index of the first state whose prefix violates the assumption.
    pub step: usize,
    /// Name of the environment action whose step broke the assumption
    /// (`None` when the initial state already violates it).
    pub action: Option<String>,
    /// The violated conjunct of the assumption (initial predicate,
    /// invariant, or step box), rendered with variable names.
    pub conjunct: String,
    /// A shortest behavior exhibiting the break; its last state is
    /// state `step`.
    pub trace: Counterexample,
}

impl std::fmt::Display for AssumptionBreak {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.action {
            Some(a) => write!(
                f,
                "assumption violated by environment at step {}: action {} \
                 broke conjunct {}; E broken at step {}, M held {} steps — \
                 the one-step-longer margin E ⊳ M requires",
                self.step,
                a,
                self.conjunct,
                self.step,
                self.step + 1
            ),
            None => write!(
                f,
                "assumption violated by environment at step 0: the initial \
                 state breaks conjunct {}; E broken at step 0, M held 1 step — \
                 the one-step-longer margin E ⊳ M requires",
                self.conjunct
            ),
        }
    }
}

/// The result of a diagnosed `⊳` safety check: the verdict, plus —
/// when the environment can break the assumption at all — the earliest
/// such break with its offending action and conjunct.
#[derive(Clone, Debug)]
pub struct AgReport {
    /// Whether `E ⊳ M` holds on every reachable behavior.
    pub verdict: Verdict,
    /// The earliest assumption break reachable while the guarantee was
    /// still intact, if any. `None` with a holding verdict means the
    /// environment never misbehaves (the cooperative case); `Some`
    /// means `⊳` was genuinely exercised.
    pub env_break: Option<AssumptionBreak>,
}

impl AgReport {
    /// Whether `E ⊳ M` holds.
    pub fn holds(&self) -> bool {
        self.verdict.holds()
    }
}

/// One side of the monitor, `E` or `M`: its safety-canonical form,
/// which names the conjuncts, its step boxes as actions, each conjunct
/// compiled once per run — plainly, then once more rewritten over the
/// monitor's shared functions when it hoists them, with a memo of the
/// side's answers by class — and the tallies of its `image_memo` event.
struct Side {
    sc: SafetyCanonical,
    boxes: Vec<Expr>,
    /// The initial predicates, the invariants, then the boxes.
    plain: Vec<CompiledExpr>,
    /// Once hoisted, each of them rewritten over the shared functions'
    /// variables ([`Hoisting::rewrite`]): `None` for one without an
    /// occurrence.
    rewritten: Vec<Option<CompiledExpr>>,
    /// Once hoisted, the side's classes, and its first failing conjunct
    /// on a step by class pair: 0 for none, else one plus its index in
    /// `plain`.
    memo: Option<(LazyClasses, PairLists)>,
    /// Steps asked about, and those of them evaluated.
    steps: u64,
    evaluated: u64,
}

/// A failing conjunct of a [`Side`]: a state predicate, numbered over
/// the initial predicates then the invariants, or a step box.
#[derive(Clone, Copy)]
enum Conjunct {
    Pred(usize),
    Box(usize),
}

impl Side {
    /// The side of `sc`, over the states of `graph`.
    fn new(sc: SafetyCanonical, graph: &StateGraph) -> Side {
        let boxes = (sc.step_boxes().into_iter())
            .map(|step_box| drop_subsumed_unchanged(step_box, graph))
            .collect();
        let mut side = Side {
            sc,
            boxes,
            plain: Vec::new(),
            rewritten: Vec::new(),
            memo: None,
            steps: 0,
            evaluated: 0,
        };
        side.plain = side.conjuncts().map(CompiledExpr::compile).collect();
        side
    }

    /// Every conjunct, in the order of `plain`.
    fn conjuncts(&self) -> impl Iterator<Item = &Expr> + Clone {
        let preds = self.sc.init.iter().chain(&self.sc.invariants);
        preds.chain(&self.boxes)
    }

    /// Rewrites every conjunct over `hoisting`'s variables, whose values
    /// `images` keeps, and starts the memo over the classes of the
    /// rewritten conjuncts' footprint. A variable that is neither mapped
    /// nor one of the `slots` of `graph`'s rows reads nothing at every
    /// state alike, so it tells no states apart and is left out.
    fn hoist(&mut self, hoisting: &Hoisting, images: &Images, graph: &StateGraph, slots: usize) {
        let mut footprint = VarSet::new();
        let mut rewritten = Vec::new();
        for e in self.conjuncts() {
            let r = hoisting.rewrite(e);
            let vars = r.as_ref().unwrap_or(e).all_vars();
            footprint
                .extend((vars.iter()).filter(|v| v.index() < slots || images.column(*v).is_some()));
            rewritten.push(r.as_ref().map(CompiledExpr::compile));
        }
        self.rewritten = rewritten;
        let answers = u32::try_from(self.plain.len() + 1).expect("conjuncts fit in u32");
        let classes = LazyClasses::new(graph, &footprint, images);
        self.memo = Some((classes, PairLists::new(u32::BITS - answers.leading_zeros())));
    }

    /// The number of state predicates.
    fn preds(&self) -> usize {
        self.sc.init.len() + self.sc.invariants.len()
    }

    /// The conjunct a memo answer names.
    fn conjunct(&self, answer: u32) -> Option<Conjunct> {
        let i = (answer as usize).checked_sub(1)?;
        Some(match i.checked_sub(self.preds()) {
            None => Conjunct::Pred(i),
            Some(b) => Conjunct::Box(b),
        })
    }

    /// Conjunct `i` at state `s`: rewritten on `view`, the image view of
    /// `s`, where there is one and that answers; else — and then its
    /// answer, value or error, is the result — plainly on the row.
    fn holds(
        &self,
        i: usize,
        graph: &StateGraph,
        view: Option<ImageView<'_>>,
        s: usize,
        scratch: &mut EvalScratch,
    ) -> Result<bool, EvalError> {
        if let (Some(Some(rewritten)), Some(view)) = (self.rewritten.get(i), view) {
            if let Ok(holds) = rewritten.holds(&view, scratch) {
                return Ok(holds);
            }
        }
        self.plain[i].holds(&graph.view(s), scratch)
    }

    /// Conjunct `i` on the step `⟨s, t⟩`, as [`Side::holds`] on the two
    /// states' image views.
    fn holds_step(
        &self,
        i: usize,
        graph: &StateGraph,
        views: Option<(ImageView<'_>, ImageView<'_>)>,
        (s, t): (usize, usize),
        scratch: &mut EvalScratch,
    ) -> Result<bool, EvalError> {
        if let (Some(Some(rewritten)), Some((old, new))) = (self.rewritten.get(i), views) {
            if let Ok(holds) = rewritten.holds_step(&old, &new, scratch) {
                return Ok(holds);
            }
        }
        self.plain[i].holds_step(&graph.view(s), &graph.view(t), scratch)
    }

    /// The first conjunct (initial predicate or invariant) failing in
    /// state `s`: asked of initial states only, before any memo starts.
    fn failing_state(
        &self,
        graph: &StateGraph,
        s: usize,
        scratch: &mut EvalScratch,
    ) -> Result<Option<Conjunct>, SpecError> {
        for i in 0..self.preds() {
            if !self
                .holds(i, graph, None, s, scratch)
                .map_err(CheckError::from)?
            {
                return Ok(Some(Conjunct::Pred(i)));
            }
        }
        Ok(None)
    }

    /// The first conjunct (step box or invariant) failing on the
    /// transition `⟨s, t⟩`: the one remembered for their class pair,
    /// else evaluated, and remembered if both states have a class.
    /// Errors are not remembered.
    fn failing_step(
        &mut self,
        graph: &StateGraph,
        images: Option<&Images>,
        s: usize,
        t: usize,
        scratch: &mut EvalScratch,
    ) -> Result<Option<Conjunct>, SpecError> {
        self.steps += 1;
        let pair = match (&mut self.memo, images) {
            (Some((classes, _)), Some(images)) => {
                let s_class = classes.get(graph, images, s);
                s_class.zip(classes.get(graph, images, t))
            }
            _ => None,
        };
        if let (Some((s_class, t_class)), Some((_, pairs))) = (pair, &self.memo) {
            if let Some(known) = pairs.get(s_class, t_class) {
                return Ok(self.conjunct(known));
            }
        }
        self.evaluated += 1;
        let answer = self.first_failing(graph, images, (s, t), scratch)?;
        if let (Some((s_class, t_class)), Some((_, pairs))) = (pair, &mut self.memo) {
            pairs.insert(0, 0, s_class, t_class, answer);
        }
        Ok(self.conjunct(answer))
    }

    /// The first conjunct failing on `⟨s, t⟩` evaluated, as a memo
    /// answer: the step boxes, then the invariants at `t`.
    fn first_failing(
        &self,
        graph: &StateGraph,
        images: Option<&Images>,
        (s, t): (usize, usize),
        scratch: &mut EvalScratch,
    ) -> Result<u32, SpecError> {
        let view = |id| images.and_then(|images| ImageView::new(images, graph, id));
        let (old, new) = (view(s), view(t));
        let (init, preds) = (self.sc.init.len(), self.preds());
        for i in preds..self.plain.len() {
            if !(self.holds_step(i, graph, old.zip(new), (s, t), scratch))
                .map_err(CheckError::from)?
            {
                return Ok(1 + i as u32);
            }
        }
        for i in init..preds {
            if !self
                .holds(i, graph, new, t, scratch)
                .map_err(CheckError::from)?
            {
                return Ok(1 + i as u32);
            }
        }
        Ok(0)
    }

    /// The side's [`Event::ImageMemo`](opentla_check::Event::ImageMemo):
    /// the classes its memo met, the steps asked about (`edges`) and
    /// those evaluated (`distinct_pairs`: every step before the memo
    /// started or bypassing it, and each class pair met); `skipped`
    /// when no memo started. There is no class pass (`nanos` 0) and no
    /// ids program (`on_ids` 0).
    fn report(&self, rec: &RecorderHandle, check: &str) {
        rec.record(&opentla_check::Event::ImageMemo {
            check,
            classes: (self.memo.as_ref()).map_or(0, |(classes, _)| classes.count() as u64),
            distinct_pairs: self.evaluated,
            on_ids: 0,
            edges: self.steps,
            skipped: self.memo.is_none(),
            nanos: 0,
        });
    }

    /// The conjunct's text, with `vars` names.
    fn render(&self, conjunct: Conjunct, vars: &Vars) -> String {
        match conjunct {
            Conjunct::Pred(i) => {
                let mut preds = self.sc.init.iter().chain(&self.sc.invariants);
                let p = preds.nth(i).expect("a conjunct of this side");
                p.display(vars).to_string()
            }
            Conjunct::Box(i) => {
                let (a, sub) = &self.sc.boxes[i];
                let subscript: Vec<&str> = sub.iter().map(|v| vars.name(*v)).collect();
                format!("□[{}]_⟨{}⟩", a.display(vars), subscript.join(", "))
            }
        }
    }
}

/// Checks the safety part of "`system` realizes `E ⊳ M`": on every
/// reachable behavior of the (closed) `system`, the guarantee must not
/// be violated unless the assumption was violated *strictly earlier*.
///
/// `env` and `sys` are safety-canonical formulas (apply any refinement
/// mapping first). The check runs a three-state monitor
/// (`both hold` / `assumption already broken`) in product with the
/// graph, which is exactly the first-failure comparison `m₀ > n₀`
/// defining `⊳` (see `opentla-semantics`).
///
/// This is the verdict-only form of [`check_ag_safety_diagnosed`].
///
/// # Errors
///
/// [`SpecError`] wrapping a [`CheckError::NotCanonical`]
/// (via [`SpecError::Check`]) if either formula is not
/// safety-canonical, or evaluation errors.
pub fn check_ag_safety(
    system: &System,
    graph: &StateGraph,
    env: &Formula,
    sys: &Formula,
) -> Result<Verdict, SpecError> {
    Ok(check_ag_safety_diagnosed(system, graph, env, sys)?.verdict)
}

/// [`check_ag_safety`] with the full `⊳` diagnosis: the returned
/// [`AgReport`] additionally pinpoints the earliest reachable
/// assumption break — which environment action broke which conjunct of
/// `E` at which step — so a holding verdict over a hostile environment
/// reads "M held k+1 steps, E broken at step k" rather than a bare
/// "holds".
///
/// Cost: one evaluation of each conjunct of `E` and `M` per edge for
/// the first 256 edges the monitor crosses. From there on, a state
/// function the conjuncts share (found across both sides: on a queue
/// chain's mapped guarantee, `q̄`, `Len(q̄)`, `i.sig = i.ack` and
/// `1 - i.sig`) is read as a mapped variable — its images kept in the
/// store the Composition Theorem's obligations use, evaluated once per
/// distinct key of the slots it reads — and each side's conjuncts are
/// decided once per pair of image classes — a class being the codes of
/// the slots the side reads outside those functions and the values of
/// the functions it reads — not once per edge. On the crashing environment of
/// `QueueChain(4,1,2)`, `E` meets 300 class pairs and `M` 19 651 over
/// 212 058 edges. No table of the whole graph is built up front, so a
/// violation found after a few states costs a few states. Verdicts,
/// diagnoses, traces and errors are those of evaluating every conjunct
/// on every edge. Under a recorder, each side reports one
/// [`Event::ImageMemo`](opentla_check::Event::ImageMemo)
/// (`"ag_monitor/E"`, `"ag_monitor/M"`).
///
/// # Errors
///
/// As for [`check_ag_safety`].
pub fn check_ag_safety_diagnosed(
    system: &System,
    graph: &StateGraph,
    env: &Formula,
    sys: &Formula,
) -> Result<AgReport, SpecError> {
    let rec = opentla_check::obs::global();
    let _phase = opentla_check::obs::PhaseGuard::enter(&rec, opentla_check::obs::Phase::AgMonitor);
    let report = ag_monitor(system, graph, env, sys, &rec)?;
    if rec.enabled() {
        rec.record(&opentla_check::Event::Check {
            kind: "ag_safety",
            name: "⊳-monitor",
            holds: report.holds(),
        });
        if let Verdict::Violated(cx) = &report.verdict {
            opentla_check::obs::emit_counterexample(&rec, "ag_safety", cx);
        }
        if let Some(brk) = &report.env_break {
            if let Some(action) = brk.action.as_deref() {
                if opentla_check::faults::is_fault_action(action) {
                    rec.record(&opentla_check::Event::FaultActivation {
                        action,
                        step: brk.step as u64,
                        kind: "fired",
                    });
                }
            }
        }
    }
    Ok(report)
}

/// Edges the monitor crosses on plain programs before it hoists the
/// shared functions and starts its memos. Finding them, rewriting and
/// compiling the conjuncts again and imaging the states met since
/// costs about what hoisting saves on the next hundred or so edges (a
/// crashing queue of `QueueChain(4,1,2)` refuted after 132 edges ran
/// slower hoisted), so a monitor that stops sooner never pays for it:
/// it builds no images and no class.
const HOIST_AFTER_EDGES: usize = 256;

/// The two sides of the monitor, then the BFS ([`monitor`]), then — on
/// every exit of the BFS, under an enabled `rec` — one
/// [`Event::ImageMemo`](opentla_check::Event::ImageMemo) per side.
fn ag_monitor(
    system: &System,
    graph: &StateGraph,
    env: &Formula,
    sys: &Formula,
    rec: &RecorderHandle,
) -> Result<AgReport, SpecError> {
    let env = safety_canonical(env).ok_or(CheckError::NotCanonical {
        context: "check_ag_safety (assumption)",
    })?;
    let sys = safety_canonical(sys).ok_or(CheckError::NotCanonical {
        context: "check_ag_safety (guarantee)",
    })?;
    let (mut env_side, mut sys_side) = (Side::new(env, graph), Side::new(sys, graph));
    let report = monitor(system, graph, &mut env_side, &mut sys_side);
    if rec.enabled() {
        env_side.report(rec, "ag_monitor/E");
        sys_side.report(rec, "ag_monitor/M");
    }
    report
}

/// The `⊳` monitor proper (the BFS over `graph × {E intact, E broken}`),
/// separated from [`check_ag_safety_diagnosed`] so observability events
/// wrap every exit path uniformly.
///
/// Its cost is one evaluation of each conjunct per edge crossed until
/// the monitor has crossed [`HOIST_AFTER_EDGES`] edges. Then the state
/// functions the conjuncts share, found across both sides, become
/// mapped variables ([`Hoisting`]: each `fᵢ` a fresh `yᵢ`, every
/// conjunct rewritten over them), whose images under `{yᵢ ↦ fᵢ}` are
/// filled on demand ([`Images::on_demand`]) — once per key of their
/// reads, the first time the BFS touches a state with a new key. A
/// rewritten conjunct runs on the two states' [`ImageView`]s; where a
/// view is missing or it errs, the plain conjunct decides on the rows.
/// Each side's first failing conjunct is remembered by class
/// ([`LazyClasses`] of its rewritten conjuncts' footprint) and by class
/// pair ([`PairLists`]): an edge whose pair of classes was met is not
/// evaluated again. The BFS tree is a parent and an action entry per
/// flag, four bytes each, per state met. Only the first assumption
/// break found is rendered.
fn monitor(
    system: &System,
    graph: &StateGraph,
    env_side: &mut Side,
    sys_side: &mut Side,
) -> Result<AgReport, SpecError> {
    // The images of the shared functions, once hoisted.
    let mut images: Option<Images> = None;
    let mut crossed = 0usize;
    let vars = system.vars();
    let scratch = &mut EvalScratch::new();

    // Monitor state: false = both intact, true = assumption broken.
    // (Guarantee breaking while the assumption is intact — or on the
    // same step — is the violation `m₀ ≤ n₀`.)
    let mut seen = Parents::new(graph.len());
    let mut queue = std::collections::VecDeque::new();
    // The earliest (BFS-first) observed assumption break: the state
    // where E first failed, plus the offending action and conjunct.
    let mut env_break: Option<(usize, Option<usize>, Conjunct)> = None;

    // Reconstructs the monitor trace ending at `last`, through `seen`.
    let rebuild = |seen: &Parents, last: (usize, bool), reason: String| {
        let mut rev = Vec::new();
        let (mut id, mut broken) = last;
        loop {
            match seen.parent(id, broken) {
                Some((pid, action)) => {
                    rev.push((Some(action), id));
                    (id, broken) = (pid, false);
                }
                None => {
                    rev.push((None, id));
                    break;
                }
            }
        }
        rev.reverse();
        let states = rev.iter().map(|(_, n)| graph.materialize(*n)).collect();
        let actions = rev
            .iter()
            .map(|(a, _)| a.map(|i| system.actions()[i].name().to_string()))
            .collect();
        Counterexample::new(reason, states, actions, None)
    };

    for &id in graph.init() {
        if let Some(conjunct) = sys_side.failing_state(graph, id, scratch)? {
            // m₀ = 1 ≤ n₀ always.
            let conjunct = sys_side.render(conjunct, vars);
            return Ok(AgReport {
                verdict: Verdict::Violated(Counterexample::new(
                    format!(
                        "guarantee's initial condition fails at step 0 \
                         (violated conjunct: {conjunct}): E ⊳ M requires M \
                         to hold initially, unconditionally"
                    ),
                    vec![graph.materialize(id)],
                    vec![None],
                    None,
                )),
                env_break: None,
            });
        }
        let broken = env_side.failing_state(graph, id, scratch)?;
        if seen.insert_root(id, broken.is_some()) {
            queue.push_back((id, broken.is_some()));
            if let (None, Some(conjunct)) = (&env_break, broken) {
                env_break = Some((id, None, conjunct));
            }
        }
    }
    while let Some((id, env_broken)) = queue.pop_front() {
        if env_broken {
            // No further obligations once the assumption has failed.
            continue;
        }
        if let Some(images) = &mut images {
            images.fill(graph, id);
        }
        for e in graph.edges(id) {
            crossed += 1;
            if crossed == HOIST_AFTER_EDGES {
                let conjuncts = env_side.conjuncts().chain(sys_side.conjuncts());
                let hoisting = Hoisting::of(conjuncts, vars);
                let mut hoisted = Images::on_demand(graph, &hoisting.mapping());
                hoisted.fill(graph, id);
                env_side.hoist(&hoisting, &hoisted, graph, vars.len());
                sys_side.hoist(&hoisting, &hoisted, graph, vars.len());
                images = Some(hoisted);
            }
            if let Some(images) = &mut images {
                images.fill(graph, e.target);
            }
            let images = images.as_ref();
            if let Some(conjunct) = sys_side.failing_step(graph, images, id, e.target, scratch)? {
                // Violation: reconstruct the trace through the monitor.
                let conjunct = sys_side.render(conjunct, vars);
                let action = system.actions()[e.action].name().to_string();
                let base = rebuild(&seen, (id, env_broken), String::new());
                let step = base.states().len();
                let mut states = base.states().to_vec();
                let mut actions = base.actions().to_vec();
                states.push(graph.materialize(e.target));
                actions.push(Some(action.clone()));
                return Ok(AgReport {
                    verdict: Verdict::Violated(Counterexample::new(
                        format!(
                            "guarantee violated at step {step} by action \
                             {action} while the assumption still held, or on \
                             the same step (violated conjunct: {conjunct}): \
                             E ⊳ M fails"
                        ),
                        states,
                        actions,
                        None,
                    )),
                    env_break: None,
                });
            }
            let broken = env_side.failing_step(graph, images, id, e.target, scratch)?;
            let next_broken = broken.is_some();
            if seen.insert(e.target, next_broken, id, e.action) {
                queue.push_back((e.target, next_broken));
                if let (None, Some(conjunct)) = (&env_break, broken) {
                    env_break = Some((e.target, Some(e.action), conjunct));
                }
            }
        }
    }
    let env_break = env_break.map(|(id, action, conjunct)| {
        let action = action.map(|i| system.actions()[i].name().to_string());
        let trace = rebuild(&seen, (id, true), String::new());
        let mut brk = AssumptionBreak {
            step: trace.states().len() - 1,
            action,
            conjunct: env_side.render(conjunct, vars),
            trace,
        };
        brk.trace = Counterexample::new(
            brk.to_string(),
            brk.trace.states().to_vec(),
            brk.trace.actions().to_vec(),
            None,
        );
        brk
    });
    Ok(AgReport {
        verdict: Verdict::Holds,
        env_break,
    })
}

/// The monitor's BFS tree over `graph × {E intact, E broken}`: per
/// state, a parent entry (0 while a monitor state is unseen, [`ROOT`]
/// for an initial one, else one plus the parent's id) and an action
/// entry for each flag. A parent always has the assumption intact: a
/// broken monitor state is never expanded. The table grows to the
/// largest id met, at most to the graph's size, so an early exit keeps
/// it small.
struct Parents {
    entries: Vec<Entry>,
    states: usize,
}

/// The [`Parents`] entries of one state, by flag.
#[derive(Clone, Copy, Default)]
struct Entry {
    parent: [u32; 2],
    action: [u32; 2],
}

/// A parent entry: an initial state.
const ROOT: u32 = u32::MAX;

impl Parents {
    /// An empty tree over a graph of `states` states.
    fn new(states: usize) -> Parents {
        Parents {
            entries: Vec::new(),
            states,
        }
    }

    /// The entries of `id`, grown to.
    fn entry(&mut self, id: usize) -> &mut Entry {
        if id >= self.entries.len() {
            assert!(id < ROOT as usize - 1, "graph ids fit in u32");
            let states = (id + 1).next_power_of_two().min(self.states);
            self.entries.resize(states, Entry::default());
        }
        &mut self.entries[id]
    }

    /// Marks `(id, broken)` as an initial monitor state, unless it was
    /// seen; whether it was new.
    fn insert_root(&mut self, id: usize, broken: bool) -> bool {
        let parent = &mut self.entry(id).parent[usize::from(broken)];
        let new = *parent == 0;
        if new {
            *parent = ROOT;
        }
        new
    }

    /// Marks `(id, broken)` as reached from `(parent, false)` by
    /// `action`, unless it was seen; whether it was new.
    fn insert(&mut self, id: usize, broken: bool, parent: usize, action: usize) -> bool {
        let (entry, flag) = (self.entry(id), usize::from(broken));
        let new = entry.parent[flag] == 0;
        if new {
            entry.parent[flag] = 1 + parent as u32;
            entry.action[flag] = u32::try_from(action).expect("action indices fit in u32");
        }
        new
    }

    /// The parent of a seen `(id, broken)` and the action from it;
    /// `None` for an initial state.
    fn parent(&self, id: usize, broken: bool) -> Option<(usize, usize)> {
        let (entry, flag) = (&self.entries[id], usize::from(broken));
        match entry.parent[flag] {
            0 => unreachable!("a seen monitor state"),
            ROOT => None,
            p => Some((p as usize - 1, entry.action[flag] as usize)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_product;
    use opentla_check::{explore, ExploreOptions, Init};
    use opentla_kernel::{Domain, Expr, Value};
    use opentla_semantics::{eval, EvalCtx};

    /// The paper's Figure 1 safety instance: output stays 0.
    fn stays_zero(name: &str, out: VarId, inp: VarId) -> ComponentSpec {
        ComponentSpec::builder(name)
            .outputs([out])
            .inputs([inp])
            .init(Init::new([(out, Value::Int(0))]))
            .build()
            .expect("well-formed")
    }

    fn copier(name: &str, out: VarId, inp: VarId) -> ComponentSpec {
        ComponentSpec::builder(name)
            .outputs([out])
            .inputs([inp])
            .init(Init::new([(out, Value::Int(0))]))
            .action(GuardedAction::new(
                "copy",
                Expr::bool(true),
                vec![(out, Expr::var(inp))],
            ))
            .build()
            .expect("well-formed")
    }

    #[test]
    fn ag_spec_formula_shape() {
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        let ag = AgSpec::new(stays_zero("M0d", d, c), stays_zero("M0c", c, d)).unwrap();
        assert_eq!(ag.name(), "M0d ⊳ M0c");
        assert!(matches!(ag.formula(), Formula::WhilePlus { .. }));
    }

    #[test]
    fn env_with_fairness_rejected() {
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        let env = ComponentSpec::builder("env")
            .outputs([d])
            .action(GuardedAction::new(
                "a",
                Expr::bool(true),
                vec![(d, Expr::int(0))],
            ))
            .weak_fairness([0])
            .build()
            .unwrap();
        let sys = stays_zero("sys", c, d);
        assert!(matches!(
            AgSpec::new(env, sys),
            Err(SpecError::EnvWithFairness { .. })
        ));
    }

    #[test]
    fn pi_c_realizes_its_ag_spec() {
        // Π_c (copies d into c) against a chaotic d: realizes
        // (d stays 0) ⊳ (c stays 0).
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        let pi_c = copier("Pi_c", c, d);
        let chaos = chaos_environment("chaos_d", &vars, &[d]);
        // Give the chaotic d an initial value so the product is finite
        // and closed; d starts anywhere.
        let sys = closed_product(&vars, &[&pi_c, &chaos]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert_eq!(graph.len(), 4);

        let e = stays_zero("E", d, c).safety_formula();
        let m = stays_zero("M", c, d).safety_formula();
        let verdict = check_ag_safety(&sys, &graph, &e, &m).unwrap();
        assert!(verdict.holds(), "{:?}", verdict.counterexample());
    }

    #[test]
    fn eager_process_fails_realization() {
        // A process that sets c to 1 unconditionally violates the
        // guarantee before the environment misbehaves.
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        let eager = ComponentSpec::builder("eager")
            .outputs([c])
            .inputs([d])
            .init(Init::new([(c, Value::Int(0))]))
            .action(GuardedAction::new(
                "spoil",
                Expr::bool(true),
                vec![(c, Expr::int(1))],
            ))
            .build()
            .unwrap();
        let chaos = chaos_environment("chaos_d", &vars, &[d]);
        let sys = closed_product(&vars, &[&eager, &chaos]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let e = stays_zero("E", d, c).safety_formula();
        let m = stays_zero("M", c, d).safety_formula();
        let verdict = check_ag_safety(&sys, &graph, &e, &m).unwrap();
        let cx = verdict.counterexample().expect("eager process must fail");
        // Confirm against the trace semantics: the stutter-extension of
        // the trace violates E ⊳ M.
        let lasso = cx.to_lasso();
        let ctx = EvalCtx::default();
        let ag = e.while_plus(m);
        assert!(!eval(&ag, &lasso, &ctx).unwrap());
    }

    #[test]
    fn a_side_without_conjuncts_is_monitored_past_the_memos_start() {
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::int_range(0, 300));
        let clock = ComponentSpec::builder("clock")
            .outputs([c])
            .init(Init::new([(c, Value::Int(0))]))
            .action(GuardedAction::new(
                "tick",
                Expr::var(c).lt(Expr::int(300)),
                vec![(c, Expr::var(c).add(Expr::int(1)))],
            ))
            .build()
            .unwrap();
        let sys = closed_product(&vars, &[&clock]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert!(graph.edge_count() > HOIST_AFTER_EDGES);
        let nothing = Formula::And(Vec::new());
        let rises = Formula::act_box(Expr::prime(c).gt(Expr::var(c)), vec![c]);
        for (e, m) in [(&nothing, &rises), (&rises, &nothing)] {
            let report = check_ag_safety_diagnosed(&sys, &graph, e, m).unwrap();
            assert!(report.holds() && report.env_break.is_none());
        }
    }

    #[test]
    fn violation_after_env_breaks_is_allowed() {
        // A process that echoes d into c: when the environment sets
        // d to 1 (breaking E), c may follow — no violation of E ⊳ M.
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        let pi_c = copier("Pi_c", c, d);
        let chaos = chaos_environment("chaos_d", &vars, &[d]);
        let sys = closed_product(&vars, &[&pi_c, &chaos]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        // The graph contains behaviors where d flips to 1 and then c
        // follows; realization must still hold.
        let e = stays_zero("E", d, c).safety_formula();
        let m = stays_zero("M", c, d).safety_formula();
        assert!(check_ag_safety(&sys, &graph, &e, &m).unwrap().holds());
    }

    #[test]
    fn simultaneous_violation_is_caught() {
        // A process whose single action breaks the guarantee in the
        // very step that also breaks the assumption... in an
        // interleaving product a single action cannot change both c and
        // d (they belong to different components), so emulate it with a
        // process that owns both.
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        let both = ComponentSpec::builder("both")
            .outputs([c, d])
            .init(Init::new([(c, Value::Int(0)), (d, Value::Int(0))]))
            .action(GuardedAction::new(
                "boom",
                Expr::bool(true),
                vec![(c, Expr::int(1)), (d, Expr::int(1))],
            ))
            .build()
            .unwrap();
        let sys = closed_product(&vars, &[&both]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let e = Formula::pred(Expr::var(d).eq(Expr::int(0)))
            .and(Formula::act_box(Expr::bool(false), vec![d]));
        let m = Formula::pred(Expr::var(c).eq(Expr::int(0)))
            .and(Formula::act_box(Expr::bool(false), vec![c]));
        // ⊳ forbids the simultaneous break.
        let verdict = check_ag_safety(&sys, &graph, &e, &m).unwrap();
        assert!(!verdict.holds(), "simultaneous violation must be caught");
    }

    #[test]
    fn bad_initial_guarantee_is_caught() {
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        let starts_one = ComponentSpec::builder("starts1")
            .outputs([c])
            .inputs([d])
            .init(Init::new([(c, Value::Int(1))]))
            .build()
            .unwrap();
        let chaos = chaos_environment("chaos_d", &vars, &[d]);
        let sys = closed_product(&vars, &[&starts_one, &chaos]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let e = stays_zero("E", d, c).safety_formula();
        let m = stays_zero("M", c, d).safety_formula();
        let verdict = check_ag_safety(&sys, &graph, &e, &m).unwrap();
        let cx = verdict.counterexample().expect("bad init");
        assert!(cx.reason().contains("initial"));
    }

    #[test]
    fn realize_safety_api() {
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        let ag = AgSpec::new(stays_zero("E", d, c), stays_zero("M", c, d)).unwrap();
        // Π_c realizes its own A/G spec...
        let verdict = ag
            .realize_safety(&vars, &copier("Pi_c", c, d), &Default::default())
            .unwrap();
        assert!(verdict.holds());
        // ...while an eager spoiler does not.
        let eager = ComponentSpec::builder("eager")
            .outputs([c])
            .inputs([d])
            .init(Init::new([(c, Value::Int(0))]))
            .action(GuardedAction::new(
                "spoil",
                Expr::bool(true),
                vec![(c, Expr::int(1))],
            ))
            .build()
            .unwrap();
        let verdict = ag
            .realize_safety(&vars, &eager, &Default::default())
            .unwrap();
        assert!(!verdict.holds());
    }

    #[test]
    fn diagnosed_break_in_initial_state() {
        // Chaos owns d with no initial constraint: some initial state
        // already violates "d stays 0", so E is broken at step 0 and M
        // held 1 step.
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        let pi_c = copier("Pi_c", c, d);
        let chaos = chaos_environment("chaos_d", &vars, &[d]);
        let sys = closed_product(&vars, &[&pi_c, &chaos]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let e = stays_zero("E", d, c).safety_formula();
        let m = stays_zero("M", c, d).safety_formula();
        let report = check_ag_safety_diagnosed(&sys, &graph, &e, &m).unwrap();
        assert!(report.holds());
        let brk = report.env_break.expect("chaos must break E");
        assert_eq!(brk.step, 0);
        assert!(brk.action.is_none());
        assert!(brk.trace.reason().contains("E broken at step 0"));
        assert!(brk.trace.reason().contains("M held 1 step"));
    }

    #[test]
    fn diagnosed_break_names_action_step_and_conjunct() {
        // The environment starts well-behaved (d = 0) and breaks E with
        // a named action one step in: the diagnosis must say which
        // action, at which step, violated which conjunct.
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        let pi_c = copier("Pi_c", c, d);
        let env = ComponentSpec::builder("env")
            .outputs([d])
            .inputs([c])
            .init(Init::new([(d, Value::Int(0))]))
            .action(GuardedAction::new(
                "sabotage_d",
                Expr::var(d).eq(Expr::int(0)),
                vec![(d, Expr::int(1))],
            ))
            .build()
            .unwrap();
        let sys = closed_product(&vars, &[&pi_c, &env]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let e = stays_zero("E", d, c).safety_formula();
        let m = stays_zero("M", c, d).safety_formula();
        let report = check_ag_safety_diagnosed(&sys, &graph, &e, &m).unwrap();
        assert!(report.holds(), "{:?}", report.verdict.counterexample());
        let brk = report.env_break.expect("the saboteur must break E");
        assert_eq!(brk.step, 1);
        assert_eq!(brk.action.as_deref(), Some("sabotage_d"));
        assert!(brk.conjunct.contains('d'), "conjunct: {}", brk.conjunct);
        let text = brk.to_string();
        assert!(text.contains("E broken at step 1"), "{text}");
        assert!(text.contains("M held 2 steps"), "{text}");
        assert!(text.contains("sabotage_d"), "{text}");
        assert_eq!(brk.trace.states().len(), 2);
    }

    #[test]
    fn cooperative_environment_reports_no_break() {
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        let sys =
            closed_product(&vars, &[&stays_zero("Mc", c, d), &stays_zero("Md", d, c)]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let e = stays_zero("E", d, c).safety_formula();
        let m = stays_zero("M", c, d).safety_formula();
        let report = check_ag_safety_diagnosed(&sys, &graph, &e, &m).unwrap();
        assert!(report.holds());
        assert!(report.env_break.is_none());
    }

    #[test]
    fn violation_diagnosis_names_action_and_step() {
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        let eager = ComponentSpec::builder("eager")
            .outputs([c])
            .inputs([d])
            .init(Init::new([(c, Value::Int(0))]))
            .action(GuardedAction::new(
                "spoil",
                Expr::bool(true),
                vec![(c, Expr::int(1))],
            ))
            .build()
            .unwrap();
        let chaos = chaos_environment("chaos_d", &vars, &[d]);
        let sys = closed_product(&vars, &[&eager, &chaos]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let e = stays_zero("E", d, c).safety_formula();
        let m = stays_zero("M", c, d).safety_formula();
        let report = check_ag_safety_diagnosed(&sys, &graph, &e, &m).unwrap();
        let cx = report.verdict.counterexample().expect("eager must fail");
        assert!(cx.reason().contains("spoil"), "{}", cx.reason());
        assert!(cx.reason().contains("step 1"), "{}", cx.reason());
        assert!(cx.reason().contains("violated conjunct"), "{}", cx.reason());
    }

    #[test]
    fn chaos_environment_reaches_everything() {
        let mut vars = Vars::new();
        let d = vars.declare("d", Domain::int_range(0, 2));
        let chaos = chaos_environment("chaos", &vars, &[d]);
        // 3 values → 3 setter actions.
        assert_eq!(chaos.actions().len(), 3);
        let sys = closed_product(&vars, &[&chaos]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert_eq!(graph.len(), 3);
    }
}
