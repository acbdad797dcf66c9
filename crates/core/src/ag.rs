//! Assumption/guarantee specifications `E ⊳ M` and realization
//! checking.

use crate::{ComponentSpec, SpecError};
use opentla_check::{
    CheckError, CompiledExpr, Counterexample, EvalScratch, GuardedAction, StateGraph, System,
    Verdict,
};
use opentla_kernel::{Expr, Formula, Renaming, State, VarId, Vars};
use opentla_semantics::{safety_canonical, SafetyCanonical};
use std::collections::HashMap;

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
    /// of the implementation's (pass the empty [`Substitution`] when
    /// the implementation uses the very same internals, as when a
    /// component realizes its own specification).
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
        let graph = opentla_check::explore(
            &system,
            &opentla_check::ExploreOptions::default(),
        )?;
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
pub fn chaos_environment(
    name: impl Into<String>,
    vars: &Vars,
    outputs: &[VarId],
) -> ComponentSpec {
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
/// which names the conjuncts, and each conjunct compiled once per run.
struct Side {
    sc: SafetyCanonical,
    init: Vec<CompiledExpr>,
    invariants: Vec<CompiledExpr>,
    boxes: Vec<CompiledExpr>,
}

impl Side {
    fn compile(sc: SafetyCanonical) -> Side {
        let compile = |es: &[Expr]| es.iter().map(CompiledExpr::compile).collect();
        Side {
            init: compile(&sc.init),
            invariants: compile(&sc.invariants),
            boxes: compile(&sc.step_boxes()),
            sc,
        }
    }

    /// The first conjunct (initial predicate or invariant) failing in
    /// state `s`, rendered with `vars` names.
    fn failing_state_conjunct(
        &self,
        s: &State,
        vars: &Vars,
        scratch: &mut EvalScratch,
    ) -> Result<Option<String>, SpecError> {
        let preds = self.sc.init.iter().chain(&self.sc.invariants);
        let programs = self.init.iter().chain(&self.invariants);
        for (p, program) in preds.zip(programs) {
            if !program.holds(s, scratch).map_err(CheckError::from)? {
                return Ok(Some(p.display(vars).to_string()));
            }
        }
        Ok(None)
    }

    /// The first conjunct (step box or invariant) failing on the
    /// transition `⟨s, t⟩`, rendered with `vars` names.
    fn failing_step_conjunct(
        &self,
        s: &State,
        t: &State,
        vars: &Vars,
        scratch: &mut EvalScratch,
    ) -> Result<Option<String>, SpecError> {
        for ((a, sub), step_box) in self.sc.boxes.iter().zip(&self.boxes) {
            if !step_box
                .holds_step(s, t, scratch)
                .map_err(CheckError::from)?
            {
                let subscript: Vec<&str> = sub.iter().map(|v| vars.name(*v)).collect();
                return Ok(Some(format!(
                    "□[{}]_⟨{}⟩",
                    a.display(vars),
                    subscript.join(", ")
                )));
            }
        }
        for (p, program) in self.sc.invariants.iter().zip(&self.invariants) {
            if !program.holds(t, scratch).map_err(CheckError::from)? {
                return Ok(Some(p.display(vars).to_string()));
            }
        }
        Ok(None)
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
    let _phase =
        opentla_check::obs::PhaseGuard::enter(&rec, opentla_check::obs::Phase::AgMonitor);
    let report = ag_monitor(system, graph, env, sys)?;
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

/// The `⊳` monitor proper (the BFS over `graph × {E intact, E broken}`),
/// separated from [`check_ag_safety_diagnosed`] so observability events
/// wrap every exit path uniformly.
fn ag_monitor(
    system: &System,
    graph: &StateGraph,
    env: &Formula,
    sys: &Formula,
) -> Result<AgReport, SpecError> {
    let env_side = Side::compile(safety_canonical(env).ok_or(CheckError::NotCanonical {
        context: "check_ag_safety (assumption)",
    })?);
    let sys_side = Side::compile(safety_canonical(sys).ok_or(CheckError::NotCanonical {
        context: "check_ag_safety (guarantee)",
    })?);
    let vars = system.vars();
    let scratch = &mut EvalScratch::new();

    // Monitor state: false = both intact, true = assumption broken.
    // (Guarantee breaking while the assumption is intact — or on the
    // same step — is the violation `m₀ ≤ n₀`.)
    // Key: (graph state, assumption-broken flag); value: BFS parent
    // (state, flag, action) or None for roots.
    type MonitorParents = HashMap<(usize, bool), Option<(usize, bool, usize)>>;
    let mut seen: MonitorParents = HashMap::new();
    let mut queue = std::collections::VecDeque::new();
    // The earliest (BFS-first) observed assumption break: the monitor
    // key where E first failed, plus the offending action and conjunct.
    let mut env_break: Option<((usize, bool), Option<usize>, String)> = None;

    // Reconstructs the monitor trace ending at `last`, through `seen`.
    let rebuild = |seen: &MonitorParents, last: (usize, bool), reason: String| {
        let mut rev = Vec::new();
        let mut cur = last;
        loop {
            match seen[&cur] {
                Some((pid, pflag, action)) => {
                    rev.push((Some(action), cur.0));
                    cur = (pid, pflag);
                }
                None => {
                    rev.push((None, cur.0));
                    break;
                }
            }
        }
        rev.reverse();
        let states = rev.iter().map(|(_, n)| graph.state(*n).clone()).collect();
        let actions = rev
            .iter()
            .map(|(a, _)| a.map(|i| system.actions()[i].name().to_string()))
            .collect();
        Counterexample::new(reason, states, actions, None)
    };

    for &id in graph.init() {
        let s = graph.state(id);
        if let Some(conjunct) = sys_side.failing_state_conjunct(s, vars, scratch)? {
            // m₀ = 1 ≤ n₀ always.
            return Ok(AgReport {
                verdict: Verdict::Violated(Counterexample::new(
                    format!(
                        "guarantee's initial condition fails at step 0 \
                         (violated conjunct: {conjunct}): E ⊳ M requires M \
                         to hold initially, unconditionally"
                    ),
                    vec![s.clone()],
                    vec![None],
                    None,
                )),
                env_break: None,
            });
        }
        let broken_conjunct = env_side.failing_state_conjunct(s, vars, scratch)?;
        let env_broken = broken_conjunct.is_some();
        if seen.insert((id, env_broken), None).is_none() {
            queue.push_back((id, env_broken));
            if env_break.is_none() {
                if let Some(conjunct) = broken_conjunct {
                    env_break = Some(((id, true), None, conjunct));
                }
            }
        }
    }
    while let Some((id, env_broken)) = queue.pop_front() {
        if env_broken {
            // No further obligations once the assumption has failed.
            continue;
        }
        let s = graph.state(id);
        for e in graph.edges(id) {
            let t = graph.state(e.target);
            if let Some(conjunct) = sys_side.failing_step_conjunct(s, t, vars, scratch)? {
                // Violation: reconstruct the trace through the monitor.
                let action = system.actions()[e.action].name().to_string();
                let base = rebuild(&seen, (id, env_broken), String::new());
                let step = base.states().len();
                let mut states = base.states().to_vec();
                let mut actions = base.actions().to_vec();
                states.push(t.clone());
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
            let broken_conjunct = env_side.failing_step_conjunct(s, t, vars, scratch)?;
            let next_broken = broken_conjunct.is_some();
            let key = (e.target, next_broken);
            if let std::collections::hash_map::Entry::Vacant(entry) = seen.entry(key) {
                entry.insert(Some((id, env_broken, e.action)));
                queue.push_back(key);
                if next_broken && env_break.is_none() {
                    if let Some(conjunct) = broken_conjunct {
                        env_break = Some((key, Some(e.action), conjunct));
                    }
                }
            }
        }
    }
    let env_break = env_break.map(|(key, action, conjunct)| {
        let action = action.map(|i| system.actions()[i].name().to_string());
        let trace = rebuild(&seen, key, String::new());
        let mut brk = AssumptionBreak {
            step: trace.states().len() - 1,
            action,
            conjunct,
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
            .action(GuardedAction::new("a", Expr::bool(true), vec![(d, Expr::int(0))]))
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
            closed_product(&vars, &[&stays_zero("Mc", c, d), &stays_zero("Md", d, c)])
                .unwrap();
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
