//! The workloads: what is built in set-up, what one timed op is, and
//! how an op's outcome is written down for checking.

use crate::api::{
    self, AgCase, AgOutcome, Cert, ClosedSystem, Fairness, Graph, Instance, Json, Plan, Problem,
    World,
};
use crate::json::{count, obj, text};
use crate::trace::Tracer;

#[derive(Clone, Copy)]
pub enum Kind {
    /// One op is one Composition Theorem certificate.
    Cert,
    /// One op is a batch of four evidence-bearing verdicts.
    Refute,
    /// One op is one exploration to a complete graph.
    Explore(Plan),
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// The measured instance.
    pub full: Instance,
    /// The rung below: warm-up in set-up, and the `--smoke` instance.
    pub warm: Instance,
    /// Ops run on `warm` during set-up.
    pub warm_ops: usize,
    /// Seconds one op takes on the reference host. `--seconds` is
    /// turned into a whole number of ops with it (enough to fill the
    /// allowance there), so that two runs of one allowance time the
    /// same amount of work however fast the host or the commit is.
    pub nominal_op_s: f64,
    /// Ops timed whatever the allowance: the disk-backed engines vary
    /// by a tenth from op to op, and a median of three follows them.
    pub min_ops: usize,
}

const FIG9: Instance = Instance::Fig9 { n: 3, v: 3 };
const FIG9_WARM: Instance = Instance::Fig9 { n: 2, v: 3 };
const CHAIN5: Instance = Instance::Chain { k: 5, n: 1, v: 2 };
const CHAIN4: Instance = Instance::Chain { k: 4, n: 1, v: 2 };
const CHAIN3: Instance = Instance::Chain { k: 3, n: 1, v: 2 };

const fn explore(name: &'static str, plan: Plan, nominal_op_s: f64, min_ops: usize) -> Workload {
    Workload {
        name,
        kind: Kind::Explore(plan),
        full: CHAIN5,
        warm: CHAIN4,
        warm_ops: 3,
        nominal_op_s,
        min_ops,
    }
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "cert-fig9",
        kind: Kind::Cert,
        full: FIG9,
        warm: FIG9_WARM,
        warm_ops: 1,
        nominal_op_s: 4.7,
        min_ops: 1,
    },
    Workload {
        name: "cert-chain5",
        kind: Kind::Cert,
        full: CHAIN5,
        warm: CHAIN3,
        warm_ops: 3,
        nominal_op_s: 26.0,
        min_ops: 1,
    },
    // `full`/`warm` are the Figure 9 rungs of r1 and r2; r3 and r4 run
    // on `refute_chain`.
    Workload {
        name: "refute",
        kind: Kind::Refute,
        full: FIG9,
        warm: FIG9_WARM,
        warm_ops: 1,
        nominal_op_s: 13.0,
        min_ops: 1,
    },
    explore("explore-seq", Plan::Seq, 1.35, 1),
    explore("explore-ws2", Plan::Ws2, 1.4, 1),
    explore("explore-spill", Plan::Spill, 2.0, 5),
    explore("explore-spill-ws2", Plan::SpillWs2, 1.85, 5),
];

impl Workload {
    /// Timed ops in a run of `seconds`.
    pub fn ops(&self, seconds: f64) -> usize {
        ((seconds / self.nominal_op_s).ceil() as usize).max(self.min_ops)
    }
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn refute_chain(fig: Instance) -> Instance {
    if fig == FIG9 {
        CHAIN4
    } else {
        CHAIN3
    }
}

/// A small deterministic generator: the seed decides order and choice,
/// never the instance.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xd1b5_4a32_d192_ed03)
    }

    pub fn below(&mut self, n: usize) -> usize {
        // xorshift64*
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What set-up leaves behind for the timed ops.
pub enum Inputs {
    Cert {
        world: World,
    },
    Refute {
        /// r1: the target `QM[2N]`; r2: the target `QM[2N+2]`.
        lies: [Problem; 2],
        /// r3: queue `crashed` crashes; r4: the environment crashes.
        cases: [AgCase; 2],
        crashed: usize,
    },
    Explore {
        world: World,
        system: ClosedSystem,
        plan: Plan,
    },
}

/// What one op produced, before anything is judged.
pub enum Output {
    Cert(Cert),
    Refute {
        /// r1 and r2.
        certs: [Cert; 2],
        /// r3 and r4.
        monitors: [AgOutcome; 2],
    },
    Explore(Graph),
}

impl Inputs {
    /// Builds the specifications for `instance`; every constructor call
    /// sits under a span.
    pub fn build(kind: Kind, instance: Instance, seed: u64, tr: &mut Tracer) -> Inputs {
        match kind {
            Kind::Cert => tr.span("queue.spec_build", || Inputs::Cert {
                world: World::build(instance, Fairness::Joint),
            }),
            Kind::Refute => tr.span("queue.spec_build", || {
                let Instance::Fig9 { n, .. } = instance else {
                    unreachable!("refute is sized by its Figure 9 rung");
                };
                let fig = World::build(instance, Fairness::Joint);
                let chain_rung = refute_chain(instance);
                let Instance::Chain { k, .. } = chain_rung else {
                    unreachable!("refute_chain returns chains");
                };
                let chain = World::build(chain_rung, Fairness::None);
                let crashed = 1 + Rng::new(seed).below(k);
                Inputs::Refute {
                    lies: [fig.lying_problem(2 * n), fig.lying_problem(2 * n + 2)],
                    cases: [chain.crashy_case(Some(crashed)), chain.crashy_case(None)],
                    crashed,
                }
            }),
            Kind::Explore(plan) => {
                let world = tr.span("queue.spec_build", || {
                    World::build(instance, Fairness::Joint)
                });
                let system = tr.span("core.assembly.product", || world.product());
                Inputs::Explore {
                    world,
                    system,
                    plan,
                }
            }
        }
    }

    /// One op, exactly as a user would issue it. Nothing is judged here.
    pub fn op(&self) -> Output {
        match self {
            Inputs::Cert { world } => Output::Cert(world.certificate()),
            Inputs::Refute { lies, cases, .. } => Output::Refute {
                certs: lies.each_ref().map(Problem::compose),
                monitors: cases.each_ref().map(|case| {
                    let graph = api::explore(&case.system, Plan::Default, &api::unlimited());
                    case.check(&graph)
                }),
            },
            Inputs::Explore { system, plan, .. } => {
                Output::Explore(api::explore(system, *plan, &api::unlimited()))
            }
        }
    }

    /// Writes an op's outcome down as one record per verdict, replaying
    /// every counterexample through the trace semantics on the way.
    pub fn judge(&self, output: &Output, tr: &mut Tracer) -> Vec<Json> {
        match (self, output) {
            (Inputs::Cert { .. }, Output::Cert(cert)) => vec![cert_record("cert", cert, None)],
            (
                Inputs::Refute {
                    lies,
                    cases,
                    crashed,
                },
                Output::Refute { certs, monitors },
            ) => {
                let mut records = Vec::new();
                for ((kind, lie), cert) in ["r1", "r2"].into_iter().zip(lies).zip(certs) {
                    let replay = cert.refutation.as_ref().is_some_and(|refutation| {
                        tr.span("semantics.replay", || lie.replay(refutation))
                    });
                    records.push(cert_record(kind, cert, Some(replay)));
                }
                let kinds = [format!("r3/j={crashed}"), "r4".to_string()];
                for ((kind, case), outcome) in kinds.into_iter().zip(cases).zip(monitors) {
                    let replay = tr.span("semantics.replay", || case.replay(outcome));
                    records.push(ag_record(kind, outcome, replay));
                }
                records
            }
            (Inputs::Explore { .. }, Output::Explore(graph)) => vec![graph_record(graph)],
            _ => unreachable!("an output is judged by the inputs that produced it"),
        }
    }

    /// Once per child, untimed: the capacity invariant on a complete
    /// graph of an exploration workload.
    pub fn invariant_record(&self, output: &Output) -> Option<Json> {
        match (self, output) {
            (Inputs::Explore { world, system, .. }, Output::Explore(graph)) => Some(obj([
                ("kind", text("invariant")),
                (
                    "holds",
                    Json::Bool(world.capacity_invariant_holds(system, graph)),
                ),
            ])),
            _ => None,
        }
    }
}

/// Evidence text can run to kilobytes; the head is what gets compared.
fn head(reason: &str) -> String {
    reason.chars().take(160).collect()
}

pub fn cert_record(kind: &str, cert: &Cert, replay: Option<bool>) -> Json {
    let mut members = vec![
        ("kind", text(kind)),
        ("holds", Json::Bool(cert.holds())),
        ("states", count(cert.states)),
        ("transitions", count(cert.transitions)),
        ("obligations", text(cert.obligations_line())),
    ];
    if let Some(refutation) = &cert.refutation {
        members.extend([
            ("failing", text(&refutation.id)),
            ("lasso", Json::Bool(refutation.is_lasso())),
            ("trace_len", count(refutation.trace_len())),
            ("reason", text(head(refutation.reason()))),
        ]);
    }
    if let Some(replay) = replay {
        members.push(("replay", Json::Bool(replay)));
    }
    obj(members)
}

fn ag_record(kind: String, outcome: &AgOutcome, replay: bool) -> Json {
    let mut members = vec![
        ("kind", text(kind)),
        ("holds", Json::Bool(outcome.holds)),
        ("reason", text(head(&outcome.reason))),
        ("trace_len", count(outcome.trace_len)),
        ("replay", Json::Bool(replay)),
    ];
    if let Some((step, action)) = &outcome.env_break {
        members.extend([
            ("env_break_step", count(*step)),
            ("env_break_action", text(action)),
        ]);
    }
    obj(members)
}

pub fn graph_record(graph: &Graph) -> Json {
    obj([
        ("kind", text("explore")),
        ("complete", Json::Bool(graph.complete())),
        ("states", count(graph.states())),
        ("transitions", count(graph.transitions())),
        ("digest", text(graph.digest())),
    ])
}
