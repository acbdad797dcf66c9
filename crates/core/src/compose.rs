//! The Composition Theorem and its Corollary, as checked proof rules.
//!
//! A certificate explores the complete system once, then checks the
//! theorem's hypotheses over that one immutable graph: H1 per
//! component, Proposition 4's initial condition, H2a, and H2b per
//! fairness condition of the target. The exploration itself runs two
//! stages on two workers — successors stepped on a second thread,
//! interned in id order on the caller — unless it was asked for one
//! ([`ExploreOptions::threads`]) or the host has one hardware thread.
//! The hypotheses are independent reads of the graph, so they can run
//! side by side. They run on two lanes when the machine has two
//! hardware threads, the exploration was not asked for exactly one
//! worker ([`ExploreOptions::threads`], else `OPENTLA_EXPLORE_THREADS`,
//! as the exploration's plan read them) and the budget records
//! nothing; on one lane otherwise, in certificate order, as a recorded
//! run must for its stream to nest. The graph, and so the certificate,
//! is the same at any worker and lane count.
//!
//! The checks of H2a and H2b run on one check [`Session`] over the
//! graph and the refinement mapping, which owns what they share: the
//! mapping's images, and the system's fairness tables.
//!
//! The split follows what each step costs. A scoped worker takes from
//! the front of its list: the system's fairness tables (built once for
//! every H2b condition, into room the caller reserved with
//! [`Session::reserve_tables`]), every H1 (no mapping), then H2a. The
//! caller runs P4, evaluates the refinement mapping over the graph
//! ([`Session::images`]) and runs every H2b condition, then takes the
//! worker's steps it has not started yet from the back of its list.
//! H2a reads the same images, and H2b the same tables, waiting for
//! them if the other lane is still computing them; the class column
//! H2a shares with H2b (same footprint) is computed once.
//! Each check starts its own meter and keeps its scan order, and is
//! charged for the tables as if it had built them, so a budget cuts
//! the same obligations and a violated hypothesis yields the same
//! counterexample at either lane count; obligations are put together
//! in certificate order, and the first error in that order is the one
//! returned.

use crate::props::{proposition_2_sides, proposition_4_initial_condition};
use crate::{
    closed_product, AgSpec, Certificate, ComponentSpec, Method, Obligation, ObligationStatus,
    SpecError,
};
use opentla_check::{
    check_simulation_governed, explore_governed_with, Budget, Exploration, ExploreOptions,
    LiveTarget, Session, Verdict,
};
use opentla_kernel::{Substitution, Vars};
use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// Options for the composition engine.
#[derive(Clone, Debug, Default)]
pub struct CompositionOptions {
    /// How the complete system is explored: engine, thread count,
    /// visited-set mode and memory budget. Its `max_states` is ignored:
    /// [`CompositionOptions::budget`] governs the exploration too. The
    /// default explores in RAM, on two workers on a host with two
    /// hardware threads, unless the `OPENTLA_EXPLORE_THREADS` /
    /// `OPENTLA_MEM_BUDGET` overrides say otherwise.
    ///
    /// Its thread count also sets the obligation checks' lanes: one
    /// when it asks for exactly one thread, two otherwise (the default
    /// included) on a machine with two hardware threads and with no
    /// recorder on the budget. The certificate is the same on either.
    pub explore: ExploreOptions,
    /// Resource budget for every engine run (exploration and each
    /// obligation check). Exhaustion is not an error: the affected
    /// obligations are recorded as
    /// [`ObligationStatus::Undecided`](crate::ObligationStatus) and the
    /// certificate's [`Certificate::decided`](crate::Certificate) turns
    /// false. Defaults to unlimited. Each check meters the budget on its
    /// own, so its limits cut the same obligations at one lane and at
    /// two. A budget with an enabled recorder keeps the checks on one
    /// lane.
    pub budget: Budget,
}

/// A composition problem: components `E_j ⊳ M_j`, a target `E ⊳ M`,
/// and the refinement mapping eliminating the target guarantee's
/// internal variables.
#[derive(Clone, Debug)]
pub struct CompositionProblem<'a> {
    /// The shared variable registry.
    pub vars: &'a Vars,
    /// The component specifications `E_j ⊳ M_j`.
    pub components: Vec<&'a AgSpec>,
    /// The target specification `E ⊳ M`.
    pub target: &'a AgSpec,
    /// Maps each internal variable of the target guarantee to a state
    /// function of the product's variables (empty if none).
    pub mapping: Substitution,
}

/// Applies the **Composition Theorem** (Section 5):
///
/// > If, for each `i`,
/// > 1. `⊨ C(E) ∧ ∧ C(M_j) ⇒ E_i`, and
/// > 2. (a) `⊨ C(E)+v ∧ ∧ C(M_j) ⇒ C(M)` and (b) `⊨ E ∧ ∧ M_j ⇒ M`,
/// > then `⊨ ∧ (E_j ⊳ M_j) ⇒ (E ⊳ M)`.
///
/// The engine mechanizes the paper's proof recipe (illustrated by its
/// Figure 9):
///
/// * **Propositions 1–2** eliminate the closures: each `C(M_j)` is the
///   component's safety part (Prop. 1, side condition enforced by
///   construction), and hiding is handled by checking the unhidden
///   product (Prop. 2, side condition checked here);
/// * **Propositions 3–4** eliminate the `+v`: disjointness of outputs
///   is structural in the interleaving product, and the initial
///   condition `Init_E ∨ Init_M` is checked on the initial states,
///   yielding `C(E) ⊥ C(M)`, so 2(a) reduces to the `+`-free
///   simulation;
/// * each hypothesis is then a complete-system obligation over the
///   closed product `C(E) ∧ ∧ C(M_j)`, discharged by reachability
///   (safety) or fair-lasso search (liveness).
///
/// Because the product is interleaving, the established conclusion is
/// the conditional implementation
/// `⊨ G ∧ ∧ (E_j ⊳ M_j) ⇒ (E ⊳ M)` with `G` the disjointness
/// guarantee — exactly formula (4) of the paper's appendix. `G` is
/// recorded in the certificate.
///
/// # Errors
///
/// Structural errors ([`SpecError`]) — e.g. overlapping outputs, a
/// non-closed product, a bad mapping, or Proposition 2's side condition
/// failing. A hypothesis that is simply *false* is not an error: it is
/// reported as a failed obligation in the returned [`Certificate`].
///
/// # Example
///
/// The paper's introductory circular composition:
///
/// ```
/// use opentla::{compose, AgSpec, ComponentSpec, CompositionOptions, CompositionProblem};
/// use opentla_check::Init;
/// use opentla_kernel::{Domain, Substitution, Value, Vars};
///
/// # fn main() -> Result<(), opentla::SpecError> {
/// let mut vars = Vars::new();
/// let c = vars.declare("c", Domain::bits());
/// let d = vars.declare("d", Domain::bits());
/// let stays_zero = |name: &str, out, inp| {
///     ComponentSpec::builder(name)
///         .outputs([out]).inputs([inp])
///         .init(Init::new([(out, Value::Int(0))]))
///         .build()
/// };
/// let ag_c = AgSpec::new(stays_zero("M0_d", d, c)?, stays_zero("M0_c", c, d)?)?;
/// let ag_d = AgSpec::new(stays_zero("M0_c", c, d)?, stays_zero("M0_d", d, c)?)?;
/// let both = ComponentSpec::builder("both")
///     .outputs([c, d])
///     .init(Init::new([(c, Value::Int(0)), (d, Value::Int(0))]))
///     .build()?;
/// let target = AgSpec::new(ComponentSpec::builder("TRUE").build()?, both)?;
/// let cert = compose(
///     &CompositionProblem {
///         vars: &vars,
///         components: vec![&ag_c, &ag_d],
///         target: &target,
///         mapping: Substitution::default(),
///     },
///     &CompositionOptions::default(),
/// )?;
/// assert!(cert.holds());
/// # Ok(())
/// # }
/// ```
pub fn compose(
    problem: &CompositionProblem<'_>,
    options: &CompositionOptions,
) -> Result<Certificate, SpecError> {
    build_certificate(problem, options, "Composition Theorem", None)
}

/// Applies the paper's **Corollary** — refinement under a fixed
/// environment assumption:
///
/// > If `E` is a safety property, (a) `⊨ E+v ∧ C(M') ⇒ C(M)` and
/// > (b) `⊨ E ∧ M' ⇒ M`, then `⊨ (E ⊳ M') ⇒ (E ⊳ M)`.
///
/// Implemented as the one-component instance of [`compose`] (hypothesis
/// 1 is the trivial `C(E) ∧ C(M') ⇒ E`).
///
/// # Errors
///
/// As for [`compose`].
pub fn refine(
    vars: &Vars,
    env: &ComponentSpec,
    lower: &ComponentSpec,
    upper: &ComponentSpec,
    mapping: Substitution,
    options: &CompositionOptions,
) -> Result<Certificate, SpecError> {
    let component = AgSpec::new(env.clone(), lower.clone())?;
    let target = AgSpec::new(env.clone(), upper.clone())?;
    let problem = CompositionProblem {
        vars,
        components: vec![&component],
        target: &target,
        mapping,
    };
    build_certificate(
        &problem,
        options,
        "Corollary (refinement under a fixed environment)",
        Some(format!(
            "⊨ ({} ⊳ {}) ⇒ ({} ⊳ {})",
            env.name(),
            lower.name(),
            env.name(),
            upper.name()
        )),
    )
}

fn build_certificate(
    problem: &CompositionProblem<'_>,
    options: &CompositionOptions,
    rule: &str,
    conclusion_override: Option<String>,
) -> Result<Certificate, SpecError> {
    let target_env = problem.target.env();
    let target_sys = problem.target.sys();

    // --- structural validation ------------------------------------------
    if target_env.has_fairness() {
        return Err(SpecError::EnvWithFairness {
            component: target_env.name().to_string(),
        });
    }
    for ag in &problem.components {
        if !ag.env().internals().is_empty() {
            return Err(SpecError::AssumptionNeedsWitness {
                component: ag.env().name().to_string(),
            });
        }
    }
    // Mapping covers exactly the target guarantee's internals.
    for x in target_sys.internals() {
        if problem.mapping.get(*x).is_none() {
            return Err(SpecError::MappingDomain { var: *x });
        }
    }
    for v in problem.mapping.domain() {
        if !target_sys.internals().contains(&v) {
            return Err(SpecError::MappingDomain { var: v });
        }
    }

    // Proposition 2 side conditions: product internals are private.
    let guarantees: Vec<&ComponentSpec> = problem.components.iter().map(|ag| ag.sys()).collect();
    proposition_2_sides(&guarantees, target_sys)?;

    // --- the complete system  C(E) ∧ ∧ C(M_j) ----------------------------
    let mut members: Vec<&ComponentSpec> = vec![target_env];
    members.extend(guarantees.iter().copied());
    let product = closed_product(problem.vars, &members)?;
    // The budget alone governs, as in every engine run below.
    let budget = &options.budget;
    let rec = budget.recorder.clone();
    let _phase = opentla_check::obs::PhaseGuard::enter(&rec, opentla_check::obs::Phase::Compose);
    let exploration = explore_governed_with(&product, budget, &options.explore)?;
    let graph = &exploration.graph;

    let mut obligations = Vec::new();

    // G: the disjointness guarantee, structural in the product.
    let tuples: Vec<String> = members
        .iter()
        .map(|c| {
            let names: Vec<&str> = c.outputs().iter().map(|v| problem.vars.name(*v)).collect();
            format!("⟨{}⟩", names.join(", "))
        })
        .collect();
    obligations.push(Obligation {
        id: "G".into(),
        description: format!(
            "Disjoint({}) — one component steps at a time (interleaving product)",
            tuples.join(", ")
        ),
        method: Method::Structural,
        status: ObligationStatus::Proved { states: 0 },
    });
    obligations.push(Obligation {
        id: "P1+P2".into(),
        description: "closures computed by Proposition 1 (fairness over sub-actions, \
                      by construction); hiding handled by Proposition 2 (internals \
                      are private, checked)"
            .into(),
        method: Method::Structural,
        status: ObligationStatus::Proved { states: 0 },
    });

    // An exhausted exploration leaves a partial graph: every remaining
    // hypothesis would be checked over a strict subset of the reachable
    // states, so record them all as undecided rather than pretend.
    if !exploration.outcome.is_complete() {
        obligations.push(Obligation {
            id: "exploration".into(),
            description: "reachability of the complete system C(E) ∧ ∧ C(M_j) \
                          (every semantic hypothesis depends on it)"
                .into(),
            method: Method::Exploration,
            status: ObligationStatus::Undecided {
                outcome: exploration.outcome.clone(),
            },
        });
        emit_obligations(&rec, &obligations);
        return Ok(Certificate {
            rule: rule.to_string(),
            conclusion: conclusion_override.unwrap_or_else(|| default_conclusion(problem)),
            obligations,
            product_states: graph.len(),
            product_edges: graph.edge_count(),
        });
    }

    let hypotheses = Hypotheses {
        problem,
        session: Session::new(&product, graph, &problem.mapping, budget),
    };
    obligations.extend(hypotheses.check(lanes(&exploration, budget))?);

    let conclusion = conclusion_override.unwrap_or_else(|| default_conclusion(problem));
    emit_obligations(&rec, &obligations);
    Ok(Certificate {
        rule: rule.to_string(),
        conclusion,
        obligations,
        product_states: graph.len(),
        product_edges: graph.edge_count(),
    })
}

/// How many lanes the semantic hypotheses run on: two when the machine
/// has two hardware threads, the exploration was not asked for one
/// worker, and nothing is recorded; one otherwise. A recorded run keeps
/// one lane so its event stream stays one nested sequence.
fn lanes(exploration: &Exploration, budget: &Budget) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let two =
        cores >= 2 && exploration.requested_threads() != Some(1) && !budget.recorder.enabled();
    if two {
        2
    } else {
        1
    }
}

/// One step of the semantic hypotheses. The order of the variants and
/// of their indices is certificate order; `ImagePass` and
/// `SystemTables` yield no obligation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    /// Hypothesis 1 for the `i`-th component's assumption.
    H1(usize),
    /// Proposition 4's initial condition.
    P4,
    /// The refinement mapping, evaluated over the graph.
    ImagePass,
    /// The product's fairness tables, built for every condition of
    /// 2(b). One lane has no such step: its first 2(b) condition
    /// builds them.
    SystemTables,
    /// Hypothesis 2(a).
    H2a,
    /// Hypothesis 2(b) for the target's `i`-th fairness condition.
    H2b(usize),
}

/// The semantic hypotheses of one certificate, checked on one session
/// over its complete product graph and its refinement mapping.
struct Hypotheses<'a> {
    problem: &'a CompositionProblem<'a>,
    session: Session<'a>,
}

/// The result of each step run, up to and including a lane's first
/// error.
type Done = Vec<(Step, Result<Option<Obligation>, SpecError>)>;

/// Which end of the worker's list a lane takes its next step from.
#[derive(Clone, Copy)]
enum End {
    Front,
    Back,
}

impl Hypotheses<'_> {
    /// Every obligation, in certificate order, checked on `lanes` lanes.
    ///
    /// One lane runs the steps in certificate order. Two lanes split
    /// them by cost. A scoped worker takes from the front of its list —
    /// the fairness tables, every H1, then 2(a). The caller runs P4,
    /// the image pass and every condition of 2(b), then takes the
    /// worker's steps not yet started from the back of that list. A
    /// step that reads the images or the tables waits for them if the
    /// other lane is still building them. Each check starts its own
    /// meter and keeps its scan order, so the obligations — put
    /// together in certificate order — are those of one lane.
    ///
    /// # Errors
    ///
    /// The first error in certificate order, as one lane returns it:
    /// every step before it in certificate order runs, since the worker
    /// stops only at its own first error and the caller takes no step
    /// after its first. A panic of the worker is resumed here; a worker
    /// that cannot be spawned has its steps run on the caller, from the
    /// front.
    fn check(&self, lanes: usize) -> Result<Vec<Obligation>, SpecError> {
        let components = self.problem.components.len();
        let conditions = self.problem.target.sys().fairness().len();
        let h1 = (0..components).map(Step::H1);
        let h2b = (0..conditions).map(Step::H2b);
        let mut done = if lanes < 2 {
            let steps = (h1.chain([Step::P4, Step::ImagePass, Step::H2a])).chain(h2b);
            self.run(&Mutex::new(steps.collect()), End::Front)
        } else {
            let theirs = ([Step::SystemTables].into_iter().chain(h1)).chain([Step::H2a]);
            let theirs = &Mutex::new(theirs.collect());
            let mine = [Step::P4, Step::ImagePass].into_iter().chain(h2b);
            // The worker's allocator arena keeps every page it
            // touches, which the next run's exploration cannot reuse:
            // the tables it builds fill room reserved here.
            self.session.reserve_tables();
            let worker = || self.run(theirs, End::Front);
            std::thread::scope(|scope| {
                let spawned = std::thread::Builder::new()
                    .name("opentla-obligations".into())
                    .spawn_scoped(scope, worker);
                let mut done = self.run(&Mutex::new(mine.collect()), End::Front);
                let failed = done.last().is_some_and(|(_, result)| result.is_err());
                if spawned.is_ok() && !failed {
                    done.extend(self.run(theirs, End::Back));
                }
                done.extend(match spawned {
                    Ok(handle) => handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                    Err(_) => worker(),
                });
                done
            })
        };
        done.sort_by_key(|(step, _)| *step);
        done.into_iter()
            .filter_map(|(_, ob)| ob.transpose())
            .collect()
    }

    /// Runs the steps of `steps`, each taken from its `end` as the last
    /// finishes, until none is left or up to and including the first
    /// error.
    fn run(&self, steps: &Mutex<VecDeque<Step>>, end: End) -> Done {
        let mut done = Vec::new();
        loop {
            let mut list = steps.lock().unwrap_or_else(PoisonError::into_inner);
            let next = match end {
                End::Front => list.pop_front(),
                End::Back => list.pop_back(),
            };
            drop(list);
            let Some(step) = next else {
                return done;
            };
            let result = self.step(step);
            let failed = result.is_err();
            done.push((step, result));
            if failed {
                return done;
            }
        }
    }

    /// One step's obligation.
    fn step(&self, step: Step) -> Result<Option<Obligation>, SpecError> {
        let (problem, session) = (self.problem, &self.session);
        let (product, graph, budget) = (session.system(), session.graph(), session.budget());
        let target_env = problem.target.env();
        let target_sys = problem.target.sys();
        let obligation = match step {
            // --- hypothesis 1: C(E) ∧ ∧ C(M_j) ⇒ E_i --------------------
            Step::H1(i) => {
                let ag = problem.components[i];
                let empty = Substitution::default();
                let run = check_simulation_governed(
                    product,
                    graph,
                    &ag.env().safety_formula(),
                    &empty,
                    budget,
                )?;
                Obligation {
                    id: format!("H1[{}]", ag.env().name()),
                    description: format!(
                        "C(E) ∧ ∧ C(M_j) ⇒ {} (assumption of {})",
                        ag.env().name(),
                        ag.sys().name()
                    ),
                    method: Method::Simulation,
                    status: simulation_status(run),
                }
            }
            // --- hypothesis 2(a): C(E)+v ∧ ∧ C(M_j) ⇒ C(M) --------------
            // Proposition 4: orthogonality from structural disjointness
            // + the initial condition Init_E ∨ Init_M (mapped).
            Step::P4 => {
                let mapped_sys_init = problem.mapping.expr(&target_sys.init().as_pred())?;
                let init_cond =
                    proposition_4_initial_condition(target_env.init().as_pred(), mapped_sys_init);
                let mut init_status = ObligationStatus::Proved {
                    states: graph.init().len(),
                };
                let init_cond = opentla_check::CompiledExpr::compile(&init_cond);
                let scratch = &mut opentla_check::EvalScratch::new();
                for &id in graph.init() {
                    if !init_cond
                        .holds(&graph.view(id), scratch)
                        .map_err(opentla_check::CheckError::from)?
                    {
                        init_status = ObligationStatus::Failed(opentla_check::Counterexample::new(
                            "initial state satisfies neither Init_E nor Init_M \
                             (Proposition 4's hypothesis)",
                            vec![graph.materialize(id)],
                            vec![None],
                            None,
                        ));
                        break;
                    }
                }
                Obligation {
                    id: "H2a/P4".into(),
                    description: "Init_E ∨ Init_M holds initially ⟹ C(E) ⊥ C(M) \
                                  (Proposition 4; disjointness is structural)"
                        .into(),
                    method: Method::InitialStates,
                    status: init_status,
                }
            }
            // Proposition 3 then reduces 2(a) to the +‑free simulation.
            // The refinement mapping is evaluated over the graph here,
            // once: 2(a) and every condition of 2(b) read the same
            // images.
            Step::ImagePass => {
                session.images();
                return Ok(None);
            }
            // The product's fairness tables, for every condition of
            // 2(b): each condition is charged for them as if it had
            // built them itself. They fill the caller's room.
            Step::SystemTables => {
                session.build_tables();
                return Ok(None);
            }
            Step::H2a => {
                let run = session.simulation(&target_sys.safety_formula())?;
                Obligation {
                    id: "H2a".into(),
                    description: format!(
                        "C(E) ∧ ∧ C(M_j) ⇒ C({}) under the refinement mapping \
                         (Proposition 3 eliminated the +v)",
                        target_sys.name()
                    ),
                    method: Method::Simulation,
                    status: simulation_status(run),
                }
            }
            // --- hypothesis 2(b): E ∧ ∧ M_j ⇒ M (liveness half) ---------
            Step::H2b(i) => {
                // The checker gets the abstract condition and the mapping
                // apart, so it can decide each step once per image of the
                // mapping rather than once per product edge. Enabledness:
                // `Enabled` does not commute with substitution, so the
                // angle action's enabledness is the *abstract* predicate
                // (guard holds and the update would change an owned
                // variable — exact for guarded commands), mapped like any
                // state function. Using concrete-successor enabledness
                // here would be unsound: an abstract action can be
                // enabled at states the concrete implementation has
                // saturated.
                let run = session.liveness(&LiveTarget::fair_mapped(
                    target_sys.fairness_condition(i),
                    target_sys.fairness_enabled_expr(i),
                    problem.mapping.clone(),
                ))?;
                Obligation {
                    id: format!("H2b/fairness[{i}]"),
                    description: format!(
                        "E ∧ ∧ M_j ⇒ fairness condition #{i} of {} \
                         (under the refinement mapping)",
                        target_sys.name()
                    ),
                    method: Method::Liveness,
                    status: match run.verdict {
                        Some(Verdict::Holds) => ObligationStatus::Proved {
                            states: graph.len(),
                        },
                        Some(Verdict::Violated(cx)) => ObligationStatus::Failed(cx),
                        None => ObligationStatus::Undecided {
                            outcome: run.outcome,
                        },
                    },
                }
            }
        };
        Ok(Some(obligation))
    }
}

/// Reports each obligation's status as a `check` event (`holds` is true
/// only for proved obligations; failed *and* undecided read as false,
/// matching [`Certificate::holds`]).
fn emit_obligations(rec: &opentla_check::RecorderHandle, obligations: &[Obligation]) {
    if !rec.enabled() {
        return;
    }
    for ob in obligations {
        rec.record(&opentla_check::Event::Check {
            kind: "obligation",
            name: &ob.id,
            holds: matches!(ob.status, ObligationStatus::Proved { .. }),
        });
    }
}

/// The theorem's conclusion `⊨ G ∧ ∧(E_j ⊳ M_j) ⇒ (E ⊳ M)` in the
/// paper's notation.
fn default_conclusion(problem: &CompositionProblem<'_>) -> String {
    let antecedents: Vec<String> = problem
        .components
        .iter()
        .map(|ag| format!("({})", ag.name()))
        .collect();
    format!(
        "⊨ G ∧ {} ⇒ ({})",
        antecedents.join(" ∧ "),
        problem.target.name()
    )
}

/// Folds a governed simulation run into an obligation status.
fn simulation_status(run: opentla_check::SimulationRun) -> ObligationStatus {
    match run.report {
        Some(report) => match report.verdict {
            Verdict::Holds => ObligationStatus::Proved {
                states: report.states,
            },
            Verdict::Violated(cx) => ObligationStatus::Failed(cx),
        },
        None => ObligationStatus::Undecided {
            outcome: run.outcome,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_check::{GuardedAction, Init};
    use opentla_kernel::{Domain, Expr, Value};

    /// `problem` certified under `options` with one exploration thread
    /// and with two, under the null recorder: one lane and — on a
    /// machine with two hardware threads — two. The certificates agree
    /// in their text and in every obligation, counterexamples included;
    /// the two-lane one is returned.
    fn at_both_lane_counts(
        problem: &CompositionProblem<'_>,
        options: &CompositionOptions,
    ) -> Result<Certificate, SpecError> {
        assert!(
            !options.budget.recorder.enabled(),
            "a recorder pins one lane"
        );
        let at = |threads| {
            let explore = ExploreOptions {
                threads: Some(threads),
                ..options.explore.clone()
            };
            compose(
                problem,
                &CompositionOptions {
                    explore,
                    ..options.clone()
                },
            )
        };
        let (one, two) = (at(1)?, at(2)?);
        assert_eq!(
            one.display(problem.vars).to_string(),
            two.display(problem.vars).to_string()
        );
        assert_eq!(
            format!("{:?}", one.obligations),
            format!("{:?}", two.obligations)
        );
        Ok(two)
    }

    /// The paper's introductory example, mechanized end to end.
    ///
    /// `M⁰_c` = "c is always 0", `M⁰_d` = "d is always 0". Each process
    /// guarantees its own output assuming the other: the Composition
    /// Theorem proves `(M⁰_d ⊳ M⁰_c) ∧ (M⁰_c ⊳ M⁰_d) ⇒ (TRUE ⊳ M⁰_c ∧ M⁰_d)`
    /// despite the circularity.
    fn fig1_safety_setup() -> (Vars, AgSpec, AgSpec, AgSpec) {
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        let stays = |name: &str, out, inp| {
            ComponentSpec::builder(name)
                .outputs([out])
                .inputs([inp])
                .init(Init::new([(out, Value::Int(0))]))
                .build()
                .unwrap()
        };
        let ag_c = AgSpec::new(stays("M0d", d, c), stays("M0c", c, d)).unwrap();
        let ag_d = AgSpec::new(stays("M0c", c, d), stays("M0d", d, c)).unwrap();
        // Target: no environment; guarantee owns both c and d.
        let both = ComponentSpec::builder("M0c∧M0d")
            .outputs([c, d])
            .init(Init::new([(c, Value::Int(0)), (d, Value::Int(0))]))
            .build()
            .unwrap();
        let empty_env = ComponentSpec::builder("TRUE").build().unwrap();
        let target = AgSpec::new(empty_env, both).unwrap();
        (vars, ag_c, ag_d, target)
    }

    #[test]
    fn circular_safety_composition_goes_through() {
        let (vars, ag_c, ag_d, target) = fig1_safety_setup();
        let problem = CompositionProblem {
            vars: &vars,
            components: vec![&ag_c, &ag_d],
            target: &target,
            mapping: Substitution::default(),
        };
        let cert = at_both_lane_counts(&problem, &CompositionOptions::default()).unwrap();
        assert!(cert.holds(), "{}", cert.display(&vars));
        // The single reachable state: c = d = 0.
        assert_eq!(cert.product_states, 1);
        // Obligations: G, P1+P2, two H1s, H2a/P4, H2a.
        assert_eq!(cert.obligations.len(), 6);
        assert!(cert.conclusion.contains("⊳"));
    }

    #[test]
    fn composition_detects_false_guarantee() {
        // Break the target: claim the composition keeps c at 1.
        let (vars, ag_c, ag_d, _) = fig1_safety_setup();
        let c = vars.find("c").unwrap();
        let d = vars.find("d").unwrap();
        let wrong = ComponentSpec::builder("wrong")
            .outputs([c, d])
            .init(Init::new([(c, Value::Int(1)), (d, Value::Int(0))]))
            .build()
            .unwrap();
        let empty_env = ComponentSpec::builder("TRUE").build().unwrap();
        let target = AgSpec::new(empty_env, wrong).unwrap();
        let problem = CompositionProblem {
            vars: &vars,
            components: vec![&ag_c, &ag_d],
            target: &target,
            mapping: Substitution::default(),
        };
        let cert = at_both_lane_counts(&problem, &CompositionOptions::default()).unwrap();
        assert!(!cert.holds());
        let failure = cert.first_failure().unwrap();
        assert!(failure.id.starts_with("H2a"), "{}", failure.id);
    }

    #[test]
    fn composition_detects_unmet_assumption() {
        // Components whose assumptions are NOT discharged by the other
        // side: M_c assumes d stays 0, but the other component only
        // guarantees d stays ≤ 1 (i.e. nothing).
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        let stays_zero = |name: &str, out: opentla_kernel::VarId, inp| {
            ComponentSpec::builder(name)
                .outputs([out])
                .inputs([inp])
                .init(Init::new([(out, Value::Int(0))]))
                .build()
                .unwrap()
        };
        // d-component may freely toggle d.
        let toggler = ComponentSpec::builder("toggler")
            .outputs([d])
            .inputs([c])
            .init(Init::new([(d, Value::Int(0))]))
            .action(GuardedAction::new(
                "toggle",
                Expr::bool(true),
                vec![(d, Expr::int(1).sub(Expr::var(d)))],
            ))
            .build()
            .unwrap();
        let ag_c = AgSpec::new(stays_zero("E_c", d, c), stays_zero("M_c", c, d)).unwrap();
        let ag_d = AgSpec::new(stays_zero("E_d", c, d), toggler).unwrap();
        let both = ComponentSpec::builder("target")
            .outputs([c, d])
            .init(Init::new([(c, Value::Int(0)), (d, Value::Int(0))]))
            .build()
            .unwrap();
        let empty_env = ComponentSpec::builder("TRUE").build().unwrap();
        let target = AgSpec::new(empty_env, both).unwrap();
        let problem = CompositionProblem {
            vars: &vars,
            components: vec![&ag_c, &ag_d],
            target: &target,
            mapping: Substitution::default(),
        };
        let cert = at_both_lane_counts(&problem, &CompositionOptions::default()).unwrap();
        assert!(!cert.holds());
        let failure = cert.first_failure().unwrap();
        assert!(
            failure.id.starts_with("H1[E_c]"),
            "hypothesis 1 for M_c's assumption must fail, got {}",
            failure.id
        );
    }

    #[test]
    fn refinement_corollary() {
        // Environment: chaotic input e. Lower: copies e to m via an
        // internal latch. Upper: m just follows e "eventually" — here,
        // the safety-only view: □[m' = x ...]; keep it simple: upper
        // allows any m change (TRUE spec) — refinement must hold; and a
        // wrong upper (m constant) must fail.
        let mut vars = Vars::new();
        let m = vars.declare("m", Domain::bits());
        let x = vars.declare("x", Domain::bits());
        let e = vars.declare("e", Domain::bits());
        let env = crate::chaos_environment("env", &vars, &[e]);
        let lower = ComponentSpec::builder("impl")
            .outputs([m])
            .internals([x])
            .inputs([e])
            .init(Init::new([(m, Value::Int(0)), (x, Value::Int(0))]))
            .action(GuardedAction::new(
                "latch",
                Expr::bool(true),
                vec![(x, Expr::var(e))],
            ))
            .action(GuardedAction::new(
                "emit",
                Expr::bool(true),
                vec![(m, Expr::var(x))],
            ))
            .build()
            .unwrap();
        // Upper spec: m starts 0 and may change freely.
        let upper_ok = ComponentSpec::builder("loose")
            .outputs([m])
            .inputs([e])
            .init(Init::new([(m, Value::Int(0))]))
            .action(GuardedAction::new(
                "any0",
                Expr::bool(true),
                vec![(m, Expr::int(0))],
            ))
            .action(GuardedAction::new(
                "any1",
                Expr::bool(true),
                vec![(m, Expr::int(1))],
            ))
            .build()
            .unwrap();
        let cert = refine(
            &vars,
            &env,
            &lower,
            &upper_ok,
            Substitution::default(),
            &CompositionOptions::default(),
        )
        .unwrap();
        assert!(cert.holds(), "{}", cert.display(&vars));
        assert!(cert.conclusion.contains("impl"));

        // Wrong upper: m never changes.
        let upper_frozen = ComponentSpec::builder("frozen")
            .outputs([m])
            .inputs([e])
            .init(Init::new([(m, Value::Int(0))]))
            .build()
            .unwrap();
        let cert = refine(
            &vars,
            &env,
            &lower,
            &upper_frozen,
            Substitution::default(),
            &CompositionOptions::default(),
        )
        .unwrap();
        assert!(!cert.holds());
    }

    #[test]
    fn exhausted_budget_yields_undecided_certificate() {
        let (vars, ag_c, ag_d, target) = fig1_safety_setup();
        let problem = CompositionProblem {
            vars: &vars,
            components: vec![&ag_c, &ag_d],
            target: &target,
            mapping: Substitution::default(),
        };
        let options = CompositionOptions {
            budget: Budget::default().states(0),
            ..CompositionOptions::default()
        };
        let cert = at_both_lane_counts(&problem, &options).unwrap();
        // Undecided, not refuted: no failure, but no proof either.
        assert!(!cert.holds());
        assert!(!cert.decided());
        assert!(cert.first_failure().is_none());
        let und = cert.first_undecided().unwrap();
        assert_eq!(und.id, "exploration");
        let text = cert.display(&vars).to_string();
        assert!(text.contains("UNDECIDED"), "{text}");
        assert!(text.contains("state limit of 0"), "{text}");
        // Escalating the budget recovers the full proof.
        let cert = opentla_check::escalate(&options.budget.states(1), 4, 4, |b| {
            at_both_lane_counts(
                &problem,
                &CompositionOptions {
                    budget: b.clone(),
                    ..CompositionOptions::default()
                },
            )
        })
        .unwrap();
        assert!(cert.holds(), "{}", cert.display(&vars));
        assert_eq!(cert.obligations.len(), 6);
    }

    /// `explore.max_states` (default 10⁶) does not cap a certificate:
    /// a product larger than it is proved under the default, unlimited
    /// budget, which alone governs the exploration.
    #[test]
    fn explore_max_states_does_not_cap_a_certificate() {
        let (vars, ag_c, ag_d, target) = fig1_safety_setup();
        let problem = CompositionProblem {
            vars: &vars,
            components: vec![&ag_c, &ag_d],
            target: &target,
            mapping: Substitution::default(),
        };
        let options = CompositionOptions {
            explore: ExploreOptions {
                max_states: 0,
                ..ExploreOptions::default()
            },
            ..CompositionOptions::default()
        };
        let cert = compose(&problem, &options).unwrap();
        assert!(cert.decided() && cert.holds(), "{}", cert.display(&vars));
        assert!(cert.product_states > options.explore.max_states);
    }

    #[test]
    fn mapping_domain_validated() {
        let (vars, ag_c, ag_d, target) = fig1_safety_setup();
        // A mapping for a variable that is not an internal of the target.
        let c = vars.find("c").unwrap();
        let problem = CompositionProblem {
            vars: &vars,
            components: vec![&ag_c, &ag_d],
            target: &target,
            mapping: Substitution::new([(c, Expr::int(0))]),
        };
        assert!(matches!(
            compose(&problem, &CompositionOptions::default()),
            Err(SpecError::MappingDomain { .. })
        ));
    }

    #[test]
    fn liveness_obligation_failure_reported() {
        // Target guarantee demands WF on an action the components never
        // take: H2b must fail with a fair lasso.
        let mut vars = Vars::new();
        let c = vars.declare("c", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        let idle_c = ComponentSpec::builder("idle_c")
            .outputs([c])
            .inputs([d])
            .init(Init::new([(c, Value::Int(0))]))
            .build()
            .unwrap();
        let idle_d = ComponentSpec::builder("idle_d")
            .outputs([d])
            .inputs([c])
            .init(Init::new([(d, Value::Int(0))]))
            .build()
            .unwrap();
        let env_c = ComponentSpec::builder("E_c-any")
            .outputs([d])
            .inputs([c])
            .init(Init::new([(d, Value::Int(0))]))
            .build()
            .unwrap();
        let env_d = ComponentSpec::builder("E_d-any")
            .outputs([c])
            .inputs([d])
            .init(Init::new([(c, Value::Int(0))]))
            .build()
            .unwrap();
        let ag_c = AgSpec::new(env_c, idle_c).unwrap();
        let ag_d = AgSpec::new(env_d, idle_d).unwrap();
        // Target: c must eventually be set to 1, with WF on the setter.
        let eager = ComponentSpec::builder("eager")
            .outputs([c, d])
            .init(Init::new([(c, Value::Int(0)), (d, Value::Int(0))]))
            .action(GuardedAction::new(
                "set_c",
                Expr::var(c).eq(Expr::int(0)),
                vec![(c, Expr::int(1))],
            ))
            .weak_fairness([0])
            .build()
            .unwrap();
        let empty_env = ComponentSpec::builder("TRUE").build().unwrap();
        let target = AgSpec::new(empty_env, eager).unwrap();
        let problem = CompositionProblem {
            vars: &vars,
            components: vec![&ag_c, &ag_d],
            target: &target,
            mapping: Substitution::default(),
        };
        let cert = at_both_lane_counts(&problem, &CompositionOptions::default()).unwrap();
        assert!(!cert.holds());
        let failure = cert.first_failure().unwrap();
        assert!(failure.id.starts_with("H2b"), "{}", failure.id);
        assert!(matches!(failure.method, Method::Liveness));
    }
}
