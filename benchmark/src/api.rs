//! Every call into the product goes through this file, so a refactor
//! of the crates knows which names the benchmark holds on to
//! (`BENCHMARK.json` lists them). The rest of the benchmark sees the
//! product's values only as opaque handles and plain data.

use std::hint::black_box;
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use opentla::{
    check_ag_safety_diagnosed, closed_product, compose, proposition_4_initial_condition, AgSpec,
    Certificate, ComponentSpec, CompositionOptions, CompositionProblem, ObligationStatus,
};
pub use opentla_check::obs::Json;
use opentla_check::obs::Phase;
use opentla_check::{
    check_invariant, check_liveness_governed_with, check_simulation_governed,
    explore_governed_with, Budget, CompiledSystem, Counterexample, CountingRecorder, Engine,
    EvalScratch, Event, Exploration, ExploreOptions, JsonlRecorder, LiveTarget, LivenessOptions,
    Recorder, RecorderHandle, System, Verdict,
};
use opentla_kernel::store::SegmentStore;
use opentla_kernel::{
    tarjan_sccs_with, Domain, Expr, Formula, PackedLayout, SccScratch, Substitution, Value, Vars,
};
use opentla_queue::{env_component, queue_component, DoubleQueue, FairnessStyle, QueueChain};
use opentla_semantics::{eval, EvalCtx, Lasso, Universe};

/// RAM ceiling handed to the two spill plans.
pub const SPILL_BUDGET_BYTES: usize = 32 << 20;

// ---------------------------------------------------------------------
// Instances
// ---------------------------------------------------------------------

/// One rung of the parameter ladder `(k, N, |V|)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instance {
    /// The paper's Figure 9: two `n`-element queues over `v` values.
    Fig9 { n: usize, v: i64 },
    /// `k` queues of capacity `n` in series over `v` values.
    Chain { k: usize, n: usize, v: i64 },
}

impl Instance {
    pub fn label(self) -> String {
        match self {
            Instance::Fig9 { n, v } => format!("fig9(2,{n},{v})"),
            Instance::Chain { k, n, v } => format!("chain({k},{n},{v})"),
        }
    }
}

/// A constructed instance: the product's own world object.
pub enum World {
    Fig9(DoubleQueue),
    Chain(QueueChain, Instance),
}

impl World {
    pub fn build(instance: Instance, style: FairnessStyle) -> World {
        match instance {
            Instance::Fig9 { n, v } => World::Fig9(DoubleQueue::new(n, v, style)),
            Instance::Chain { k, n, v } => World::Chain(QueueChain::new(k, n, v, style), instance),
        }
    }

    /// The certificate exactly as a user asks for it: default options.
    pub fn certificate(&self) -> Cert {
        let options = CompositionOptions::default();
        let cert = match self {
            World::Fig9(dq) => dq.prove_composition(&options),
            World::Chain(chain, _) => chain.prove_composition(&options),
        };
        Cert::from(cert.expect("the shipped instances are structurally valid"))
    }

    /// The closed product `C(E) ∧ ∧ C(M_j)`.
    pub fn product(&self) -> System {
        match self {
            World::Fig9(dq) => dq.cdq_system(),
            World::Chain(chain, _) => chain.complete_system(),
        }
        .expect("the shipped instances are closed")
    }

    /// `|q̄| ≤ capacity of the implemented queue`, the invariant every
    /// complete graph of this world must satisfy.
    pub fn capacity_invariant_holds(&self, system: &System, graph: &Graph) -> bool {
        let (mapping, q_bar, capacity) = match self {
            World::Fig9(dq) => (dq.refinement_mapping(), dq.q_dbl(), 2 * dq.capacity() + 1),
            World::Chain(chain, _) => (
                chain.refinement_mapping(),
                chain.q_big(),
                chain.big_capacity(),
            ),
        };
        let q_bar = mapping.get(q_bar).expect("the mapping defines q̄").clone();
        let invariant = q_bar.len().le(Expr::int(capacity as i64));
        check_invariant(system, &graph.0.graph, &invariant)
            .expect("the invariant is well-typed")
            .holds()
    }

    /// The composition problem behind [`World::certificate`], rebuilt
    /// from public parts so its stages can be issued one by one.
    pub fn problem(&self) -> Problem {
        match self {
            World::Fig9(dq) => Problem {
                vars: dq.vars().clone(),
                components: vec![ag(dq.env1(), dq.queue1()), ag(dq.env2(), dq.queue2())],
                target: ag(dq.env(), dq.big_queue()),
                mapping: dq.refinement_mapping(),
            },
            World::Chain(chain, instance) => chain_problem(chain, *instance),
        }
    }

    /// Figure 9 against a target queue of the wrong capacity: `2N`
    /// overflows (H2a fails), `2N + 2` is never full when the
    /// implementation is (H2b fails).
    pub fn lying_problem(&self, capacity: usize) -> Problem {
        let World::Fig9(dq) = self else {
            panic!("lying targets are defined for Figure 9 only");
        };
        let mut vars = dq.vars().clone();
        let q = vars.declare("q_lie", Domain::seqs_up_to(dq.values(), capacity));
        let target = queue_component(
            format!("QM[{capacity}]"),
            dq.i(),
            dq.o(),
            q,
            capacity,
            FairnessStyle::Joint,
        )
        .expect("the lying queue is well-formed");
        let q_bar = dq
            .refinement_mapping()
            .get(dq.q_dbl())
            .expect("the mapping defines q̄")
            .clone();
        Problem {
            vars,
            components: vec![ag(dq.env1(), dq.queue1()), ag(dq.env2(), dq.queue2())],
            target: ag(dq.env(), &target),
            mapping: Substitution::new([(q, q_bar)]),
        }
    }

    /// The chain with queue `j` crashing (`⊳` refuted) or with the
    /// outer environment crashing (`⊳` holds, assumption broken).
    pub fn crashy_case(&self, crashed_queue: Option<usize>) -> AgCase {
        let World::Chain(chain, _) = self else {
            panic!("crash faults are defined for chains only");
        };
        let system = match crashed_queue {
            Some(j) => chain.crashy_queue_system(j),
            None => chain.crashy_env_system(),
        }
        .expect("the crashy chain is closed");
        AgCase {
            system,
            env: chain.outer_assumption(),
            sys: chain.big_queue_guarantee().expect("the mapping applies"),
        }
    }
}

fn ag(env: &ComponentSpec, sys: &ComponentSpec) -> AgSpec {
    AgSpec::new(env.clone(), sys.clone()).expect("assumption and guarantee fit together")
}

/// `QueueChain` keeps its components private, so they are rebuilt over
/// its own channels and variables.
fn chain_problem(chain: &QueueChain, instance: Instance) -> Problem {
    let Instance::Chain { k, n, v } = instance else {
        unreachable!("a chain world carries a chain instance");
    };
    let values = Domain::int_range(0, v - 1);
    let ch = chain.channels();
    let var = |name: String| {
        chain
            .vars()
            .find(&name)
            .expect("declared by QueueChain::new")
    };
    let components = (0..k)
        .map(|j| {
            let env = env_component(format!("QE[{}]", j + 1), &ch[j], &ch[j + 1], &values);
            let queue = queue_component(
                format!("QM[{}]", j + 1),
                &ch[j],
                &ch[j + 1],
                var(format!("q{}", j + 1)),
                n,
                FairnessStyle::Joint,
            );
            ag(&env.expect("well-formed"), &queue.expect("well-formed"))
        })
        .collect();
    let env = env_component("QE", &ch[0], &ch[k], &values).expect("well-formed");
    let big = queue_component(
        "QM[big]",
        &ch[0],
        &ch[k],
        chain.q_big(),
        chain.big_capacity(),
        FairnessStyle::Joint,
    )
    .expect("well-formed");
    Problem {
        vars: chain.vars().clone(),
        components,
        target: ag(&env, &big),
        mapping: chain.refinement_mapping(),
    }
}

// ---------------------------------------------------------------------
// Certificates and refutations
// ---------------------------------------------------------------------

/// What a certificate said, as plain data.
pub struct Cert {
    /// `(obligation id, "proved" | "failed" | "undecided")`, in order.
    pub obligations: Vec<(String, &'static str)>,
    pub states: usize,
    pub transitions: usize,
    /// The first refuted obligation, with its evidence.
    pub refutation: Option<Refutation>,
}

impl Cert {
    pub fn holds(&self) -> bool {
        self.obligations
            .iter()
            .all(|(_, status)| *status == "proved")
    }

    /// `id=status` pairs joined by spaces: one comparable string.
    pub fn obligations_line(&self) -> String {
        let pairs: Vec<String> = self
            .obligations
            .iter()
            .map(|(id, s)| format!("{id}={s}"))
            .collect();
        pairs.join(" ")
    }
}

impl Cert {
    /// The certificate `build_certificate` would assemble from stages
    /// issued by hand over `graph`.
    pub fn from_stages(stages: Vec<Stage>, graph: &Graph) -> Cert {
        let mut refutation = None;
        let obligations = stages
            .into_iter()
            .map(|stage| {
                if refutation.is_none() {
                    refutation = stage.refutation;
                }
                (stage.id, stage.status)
            })
            .collect();
        Cert {
            obligations,
            states: graph.states(),
            transitions: graph.transitions(),
            refutation,
        }
    }
}

impl From<Certificate> for Cert {
    fn from(cert: Certificate) -> Cert {
        let mut refutation = None;
        let obligations = cert
            .obligations
            .into_iter()
            .map(|o| {
                let status = match o.status {
                    ObligationStatus::Proved { .. } => "proved",
                    ObligationStatus::Failed(cx) => {
                        refutation.get_or_insert(Refutation {
                            id: o.id.clone(),
                            cx,
                        });
                        "failed"
                    }
                    ObligationStatus::Undecided { .. } => "undecided",
                };
                (o.id, status)
            })
            .collect();
        Cert {
            obligations,
            states: cert.product_states,
            transitions: cert.product_edges,
            refutation,
        }
    }
}

/// A refuted obligation and its counterexample.
pub struct Refutation {
    pub id: String,
    cx: Counterexample,
}

impl Refutation {
    pub fn reason(&self) -> &str {
        self.cx.reason()
    }

    pub fn trace_len(&self) -> usize {
        self.cx.states().len()
    }

    pub fn is_lasso(&self) -> bool {
        self.cx.loop_start().is_some()
    }
}

/// A composition problem `∧ (E_j ⊳ M_j) ⇒ (E ⊳ M)` held by value.
pub struct Problem {
    vars: Vars,
    components: Vec<AgSpec>,
    target: AgSpec,
    mapping: Substitution,
}

impl Problem {
    /// The whole theorem in one call, as `prove_composition` issues it.
    pub fn compose(&self) -> Cert {
        let problem = CompositionProblem {
            vars: &self.vars,
            components: self.components.iter().collect(),
            target: &self.target,
            mapping: self.mapping.clone(),
        };
        Cert::from(
            compose(&problem, &CompositionOptions::default())
                .expect("the problem is structurally valid"),
        )
    }

    // The stages below are `build_certificate`'s, issued by hand.

    pub fn product(&self) -> System {
        let mut members = vec![self.target.env()];
        members.extend(self.components.iter().map(AgSpec::sys));
        closed_product(&self.vars, &members).expect("the product is closed")
    }

    /// Number of H1 obligations (one per component assumption).
    pub fn h1_count(&self) -> usize {
        self.components.len()
    }

    /// H1 for component `j`: `C(E) ∧ ∧ C(M_j) ⇒ E_j`.
    pub fn h1(&self, j: usize, product: &System, graph: &Graph, budget: &Budget) -> Stage {
        let env = self.components[j].env();
        let run = check_simulation_governed(
            product,
            &graph.0.graph,
            &env.safety_formula(),
            &Substitution::default(),
            budget,
        )
        .expect("H1 is a well-formed simulation");
        Stage::new(format!("H1[{}]", env.name()), run.report.map(|r| r.verdict))
    }

    /// Proposition 4's initial condition, checked on the initial states.
    pub fn h2a_p4(&self, graph: &Graph) -> Stage {
        let mapped = self
            .mapping
            .expr(&self.target.sys().init().as_pred())
            .expect("the mapping applies to Init_M");
        let cond = proposition_4_initial_condition(self.target.env().init().as_pred(), mapped);
        let g = &graph.0.graph;
        let holds = g
            .init()
            .iter()
            .all(|&id| cond.holds_state(g.state(id)).expect("Init is well-typed"));
        Stage {
            id: "H2a/P4".into(),
            status: if holds { "proved" } else { "failed" },
            refutation: None,
        }
    }

    /// H2a: `C(E) ∧ ∧ C(M_j) ⇒ C(M)` under the refinement mapping.
    pub fn h2a(&self, product: &System, graph: &Graph, budget: &Budget) -> Stage {
        let run = check_simulation_governed(
            product,
            &graph.0.graph,
            &self.target.sys().safety_formula(),
            &self.mapping,
            budget,
        )
        .expect("H2a is a well-formed simulation");
        Stage::new("H2a".into(), run.report.map(|r| r.verdict))
    }

    /// Number of H2b obligations (one per target fairness condition).
    pub fn h2b_count(&self) -> usize {
        self.target.sys().fairness().len()
    }

    /// H2b for the target's fairness condition `i`, on `threads`
    /// liveness workers (`None`: whatever the environment says, as in
    /// `compose`).
    pub fn h2b(
        &self,
        i: usize,
        product: &System,
        graph: &Graph,
        budget: &Budget,
        threads: Option<usize>,
    ) -> Stage {
        let sys = self.target.sys();
        let mapped = self
            .mapping
            .formula(&Formula::Fair(sys.fairness_condition(i)))
            .expect("the mapping applies to the fairness condition");
        let Formula::Fair(fair) = mapped else {
            unreachable!("substitution preserves the Fair constructor");
        };
        let enabled = self
            .mapping
            .expr(&sys.fairness_enabled_expr(i))
            .expect("the mapping applies to the enabledness predicate");
        let options = LivenessOptions {
            threads,
            ..LivenessOptions::default()
        };
        let run = check_liveness_governed_with(
            product,
            &graph.0.graph,
            &LiveTarget::fair_with_enabled(fair, enabled),
            budget,
            &options,
        )
        .expect("H2b is a well-formed liveness check");
        Stage::new(format!("H2b/fairness[{i}]"), run.verdict)
    }

    /// Judges a refutation by the trace semantics alone. The abstract
    /// behaviour is the concrete one with `q̄` filled in from the
    /// refinement mapping, so no `Enabled` is pushed through a
    /// substitution. A safety refutation must be a product behaviour
    /// on which `M`'s safety part is false; a liveness refutation a
    /// fair product behaviour on which the failed fairness condition
    /// of `M` is false.
    pub fn replay(&self, refutation: &Refutation) -> bool {
        let product = self.product();
        let concrete = refutation.cx.to_lasso();
        let abstract_states = concrete.states().iter().map(|s| {
            let filled: Vec<_> = self
                .mapping
                .domain()
                .map(|x| {
                    let e = self.mapping.get(x).expect("x is in the mapping's domain");
                    (x, e.eval_state(s).expect("the mapping is well-typed"))
                })
                .collect();
            s.with(&filled)
        });
        let abstract_ = Lasso::new(abstract_states.collect(), concrete.loop_start())
            .expect("same shape as the concrete lasso");
        let ctx = EvalCtx::with_universe(Universe::new(self.vars.clone()));
        let holds = |f: &Formula, sigma: &Lasso| {
            eval(f, sigma, &ctx).expect("the formula is evaluable on a lasso")
        };
        let sys = self.target.sys();
        match refutation.id.strip_prefix("H2b/fairness[") {
            None => {
                holds(&safety_of(&product), &concrete) && !holds(&sys.safety_formula(), &abstract_)
            }
            Some(rest) => {
                let i: usize = rest.trim_end_matches(']').parse().expect("an index");
                holds(&product.formula(), &concrete)
                    && !holds(&Formula::Fair(sys.fairness_condition(i)), &abstract_)
            }
        }
    }
}

/// `Init ∧ □[N]_vars`: a stutter-extended finite trace need not be fair.
fn safety_of(system: &System) -> Formula {
    Formula::pred(system.init().as_pred()).and(Formula::act_box(system.next_expr(), system.frame()))
}

/// One hand-issued obligation.
pub struct Stage {
    pub id: String,
    pub status: &'static str,
    pub refutation: Option<Refutation>,
}

impl Stage {
    /// `G` and `P1+P2` hold by construction of the product.
    pub fn structural(id: &str) -> Stage {
        Stage {
            id: id.into(),
            status: "proved",
            refutation: None,
        }
    }

    fn new(id: String, verdict: Option<Verdict>) -> Stage {
        let (status, cx) = match verdict {
            Some(Verdict::Holds) => ("proved", None),
            Some(Verdict::Violated(cx)) => ("failed", Some(cx)),
            None => ("undecided", None),
        };
        let refutation = cx.map(|cx| Refutation { id: id.clone(), cx });
        Stage {
            id,
            status,
            refutation,
        }
    }
}

/// A closed system with an assumption/guarantee pair to monitor.
pub struct AgCase {
    pub system: System,
    env: Formula,
    sys: Formula,
}

/// What the `⊳` monitor said, as plain data plus its evidence.
pub struct AgOutcome {
    pub holds: bool,
    /// States the monitor ran over.
    pub states: usize,
    pub reason: String,
    pub trace_len: usize,
    /// `(step, action)` of the earliest assumption break, if any.
    pub env_break: Option<(usize, String)>,
    refuting: Option<Counterexample>,
    breaking: Option<Counterexample>,
}

impl AgCase {
    /// Runs the diagnosed `⊳` monitor over a complete graph.
    pub fn check(&self, graph: &Graph) -> AgOutcome {
        let report = check_ag_safety_diagnosed(&self.system, &graph.0.graph, &self.env, &self.sys)
            .expect("E and M are safety-canonical");
        let holds = report.holds();
        let refuting = match report.verdict {
            Verdict::Holds => None,
            Verdict::Violated(cx) => Some(cx),
        };
        let (env_break, breaking) = match report.env_break {
            Some(b) => (Some((b.step, b.action.unwrap_or_default())), Some(b.trace)),
            None => (None, None),
        };
        AgOutcome {
            holds,
            states: graph.states(),
            reason: refuting
                .as_ref()
                .map_or(String::new(), |cx| cx.reason().to_string()),
            trace_len: refuting.as_ref().map_or(0, |cx| cx.states().len()),
            env_break,
            refuting,
            breaking,
        }
    }

    /// Judges the monitor's evidence by `opentla-semantics`' own
    /// definition of `⊳`: a refuting trace is a system behaviour
    /// falsifying `E ⊳ M`; an assumption-break trace is a system
    /// behaviour falsifying `E` on which `E ⊳ M` still holds.
    pub fn replay(&self, outcome: &AgOutcome) -> bool {
        let ctx = EvalCtx::with_universe(self.system.universe().clone());
        let holds = |f: &Formula, cx: &Counterexample| {
            eval(f, &cx.to_lasso(), &ctx).expect("the formula is evaluable on a lasso")
        };
        let behaviour = safety_of(&self.system);
        let while_plus = self.env.clone().while_plus(self.sys.clone());
        let refuted = outcome
            .refuting
            .as_ref()
            .is_none_or(|cx| holds(&behaviour, cx) && !holds(&while_plus, cx));
        let broken = outcome.breaking.as_ref().is_none_or(|cx| {
            holds(&behaviour, cx) && !holds(&self.env, cx) && holds(&while_plus, cx)
        });
        refuted && broken
    }
}

// ---------------------------------------------------------------------
// Exploration
// ---------------------------------------------------------------------

/// An exploration plan: engine, threads and memory budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    /// `ExploreOptions::default()`: what `compose` runs, so the
    /// environment decides (sequential unless the child's
    /// configuration sets `OPENTLA_EXPLORE_THREADS`).
    Default,
    Seq,
    Ws2,
    Level2,
    Spill,
    SpillWs2,
}

impl Plan {
    fn options(self) -> ExploreOptions {
        let base = ExploreOptions::default();
        let spill = Some(SPILL_BUDGET_BYTES);
        match self {
            Plan::Default => base,
            Plan::Seq => ExploreOptions {
                threads: Some(1),
                ..base
            },
            Plan::Ws2 => ExploreOptions {
                engine: Engine::WorkStealing,
                threads: Some(2),
                ..base
            },
            Plan::Level2 => ExploreOptions {
                threads: Some(2),
                ..base
            },
            Plan::Spill => ExploreOptions {
                engine: Engine::SpillBfs,
                threads: Some(1),
                mem_budget_bytes: spill,
                ..base
            },
            Plan::SpillWs2 => ExploreOptions {
                engine: Engine::SpillWs,
                threads: Some(2),
                mem_budget_bytes: spill,
                ..base
            },
        }
    }
}

/// A reachability graph, opaque outside this file.
pub struct Graph(Exploration);

pub fn explore(system: &System, plan: Plan, budget: &Budget) -> Graph {
    Graph(
        explore_governed_with(system, budget, &plan.options())
            .expect("the shipped systems explore without evaluation errors"),
    )
}

impl Graph {
    pub fn complete(&self) -> bool {
        self.0.outcome.is_complete()
    }

    pub fn states(&self) -> usize {
        self.0.graph.len()
    }

    pub fn transitions(&self) -> usize {
        self.0.graph.edge_count()
    }

    /// FNV-1a over every state's values and every edge, in id order,
    /// with an encoding of the benchmark's own: two engines agree on
    /// the digest iff they built the same graph.
    pub fn digest(&self) -> String {
        let g = &self.0.graph;
        let mut h = Fnv::default();
        for &id in g.init() {
            h.word(id as u64);
        }
        for id in 0..g.len() {
            for value in g.state(id).values() {
                h.value(value);
            }
            for edge in g.edges(id) {
                h.word(edge.action as u64);
                h.word(edge.target as u64);
            }
        }
        format!("{:016x}", h.0)
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Bool(b) => self.word(u64::from(*b) << 8 | 1),
            Value::Int(i) => {
                self.word(2);
                self.word(*i as u64);
            }
            Value::Str(s) => {
                self.word((s.len() as u64) << 8 | 3);
                s.bytes().for_each(|b| self.word(u64::from(b)));
            }
            Value::Tuple(items) | Value::Seq(items) => {
                let tag = if matches!(v, Value::Tuple(_)) { 4 } else { 5 };
                self.word((items.len() as u64) << 8 | tag);
                items.iter().for_each(|item| self.value(item));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Budgets and recorders
// ---------------------------------------------------------------------

pub use opentla_check::Budget as RunBudget;
pub use opentla_check::System as ClosedSystem;
pub use opentla_queue::FairnessStyle as Fairness;

pub fn unlimited() -> Budget {
    Budget::unlimited()
}

/// A `CountingRecorder` that also keeps the segment-cache counters,
/// which the counting recorder only tallies as events.
#[derive(Default)]
pub struct Counting {
    counting: CountingRecorder,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl Recorder for Counting {
    fn record(&self, event: &Event<'_>) {
        if let Event::CacheStats { hits, misses, .. } = event {
            self.cache_hits.fetch_add(*hits, Ordering::Relaxed);
            self.cache_misses.fetch_add(*misses, Ordering::Relaxed);
        }
        self.counting.record(event);
    }
}

impl Counting {
    pub fn spilled_bytes(&self) -> u64 {
        self.counting.spilled_bytes()
    }

    /// Segment-cache hits over reads, 0 when nothing was read back.
    pub fn cache_hit_ratio(&self) -> f64 {
        let hits = self.cache_hits.load(Ordering::Relaxed) as f64;
        let misses = self.cache_misses.load(Ordering::Relaxed) as f64;
        crate::trace::ratio(hits, hits + misses)
    }

    /// Seconds the program's own phase timers saw: exploration,
    /// simulation, liveness.
    pub fn phase_seconds(&self) -> [f64; 3] {
        let s = |phases: &[Phase]| {
            phases
                .iter()
                .map(|p| self.counting.phase_nanos(*p))
                .sum::<u64>() as f64
                / 1e9
        };
        [
            s(&[
                Phase::ExploreInit,
                Phase::ExploreExpand,
                Phase::ExploreRenumber,
            ]),
            s(&[Phase::Simulation]),
            s(&[Phase::Liveness]),
        ]
    }
}

/// An unlimited budget narrating to `recorder`.
pub fn budget_with(recorder: Arc<Counting>) -> Budget {
    Budget::unlimited().with_recorder(RecorderHandle::new(recorder))
}

/// An unlimited budget streaming JSON lines to `path`.
pub fn budget_jsonl(path: &Path) -> Budget {
    let recorder = JsonlRecorder::create(path).expect("the trace directory is writable");
    Budget::unlimited().with_recorder(RecorderHandle::new(Arc::new(recorder)))
}

// ---------------------------------------------------------------------
// Single layers, driven over a complete graph
// ---------------------------------------------------------------------

/// Re-steps every state with the compiled stepper and no interning;
/// returns the successors produced.
pub fn restep(system: &System, graph: &Graph) -> usize {
    let compiled = CompiledSystem::compile(system);
    let mut scratch = EvalScratch::new();
    let mut successors = 0usize;
    for state in graph.0.graph.states() {
        compiled
            .for_each_successor(state, &mut scratch, |_, assignments| {
                black_box(assignments);
                successors += 1;
                ControlFlow::<()>::Continue(())
            })
            .expect("every graph state steps without error");
    }
    successors
}

pub fn fingerprint_all(graph: &Graph) -> u64 {
    graph
        .0
        .graph
        .states()
        .iter()
        .fold(0, |acc, s| acc ^ black_box(s).fingerprint())
}

/// The packed form of every state of a graph, stride bytes each.
pub struct Packed {
    layout: PackedLayout,
    flat: Vec<u8>,
}

/// `None` when the domains do not compile to a packed layout.
pub fn packed_layout(system: &System) -> Option<PackedLayout> {
    PackedLayout::compile(system.vars())
}

pub fn pack_all(layout: PackedLayout, graph: &Graph) -> Packed {
    let mut flat = Vec::with_capacity(layout.stride() * graph.states());
    let mut buf = Vec::new();
    for state in graph.0.graph.states() {
        assert!(
            layout.pack_into(state.values(), &mut buf),
            "graph states are in-domain"
        );
        flat.extend_from_slice(&buf);
    }
    Packed { layout, flat }
}

impl Packed {
    pub fn records(&self) -> impl Iterator<Item = &[u8]> {
        self.flat.chunks_exact(self.layout.stride())
    }

    pub fn unpack_all(&self) -> usize {
        let mut out = Vec::new();
        let mut values = 0usize;
        for record in self.records() {
            self.layout.unpack_into(record, &mut out);
            values += black_box(&out).len();
        }
        values
    }

    /// Whether unpacking gives back exactly the graph's states.
    pub fn round_trips(&self, graph: &Graph) -> bool {
        let states = graph.0.graph.states();
        self.records()
            .zip(states)
            .all(|(r, s)| &self.layout.unpack(r) == s)
            && self.records().count() == states.len()
    }
}

/// A segment store of packed records under the spill plans' budget.
pub struct Store(SegmentStore);

impl Store {
    pub fn create(dir: &Path) -> Store {
        // The spill engine's split of one budget: an eighth per sealed
        // segment, a quarter for the read cache.
        Store(
            SegmentStore::create(dir, "bench", SPILL_BUDGET_BYTES / 8, SPILL_BUDGET_BYTES / 4)
                .expect("the trace directory is writable"),
        )
    }

    pub fn append_all(&mut self, packed: &Packed) -> u64 {
        for record in packed.records() {
            self.0.append(record).expect("append to a writable segment");
        }
        self.0.seal().expect("seal a writable segment");
        self.0.len()
    }

    /// Reads every record back in id order; true when all match.
    pub fn read_all(&mut self, packed: &Packed) -> bool {
        let mut out = Vec::new();
        let mut same = true;
        for (id, record) in packed.records().enumerate() {
            self.0
                .read(id as u64, &mut out)
                .expect("read back an appended record");
            same &= out == record;
        }
        same
    }
}

/// Tarjan over the whole graph; returns the number of components.
pub fn scc_all(graph: &Graph) -> usize {
    let g = &graph.0.graph;
    let mut components = 0usize;
    tarjan_sccs_with::<()>(
        g.len(),
        &mut SccScratch::new(),
        &|_| true,
        &|v| g.edges(v).len(),
        &mut |v, i| Ok(Some(g.edges(v)[i].target)),
        &mut |_, _| Ok(()),
        &mut |component| components += black_box(component).len().min(1),
    )
    .expect("no stage of this decomposition aborts");
    components
}
