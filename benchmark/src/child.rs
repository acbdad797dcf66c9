//! The measuring process. It receives a workload, a seed and a time
//! allowance, does the work, and prints one JSON report; the parent
//! judges it. Untraced runs produce the end-to-end samples, traced
//! runs the per-layer numbers, and neither is ever taken from the other.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::api::{
    self, Cert, ClosedSystem, Counting, Graph, Json, Plan, Problem, RunBudget, Stage,
};
use crate::json::{arr, count, num, obj, text};
use crate::trace::{ratio, Tracer};
use crate::workload::{cert_record, Inputs, Output, Workload};

/// Set-up is repeated so that its time can be reported as a median.
const SETUP_REPS: usize = 3;
/// Plain/counting/streaming exploration triples behind `check.obs.*`.
const OBS_ROUNDS: usize = 2;

pub struct ChildArgs<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Scratch space inside the checkout.
    pub scratch: &'a Path,
}

pub fn run(args: &ChildArgs<'_>, process_start: Instant) -> Json {
    let mut members = vec![
        ("workload", text(args.workload.name)),
        ("seed", num(args.seed as f64)),
        ("smoke", Json::Bool(args.smoke)),
    ];
    members.extend(if args.traced {
        traced(args)
    } else {
        untraced(args, process_start)
    });
    members.push(("vm_hwm_kb", num(vm_hwm_kb())));
    obj(members)
}

/// Peak resident set of this process, as the kernel accounts it.
pub fn vm_hwm_kb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// Spec construction plus a fixed warm-up on the rung below.
fn set_up(args: &ChildArgs<'_>, tr: &mut Tracer) -> Inputs {
    let w = args.workload;
    if args.smoke {
        return Inputs::build(w.kind, w.warm, args.seed, tr);
    }
    // The warm-up rung's spans are not the measured instance's.
    let warm = Inputs::build(w.kind, w.warm, args.seed, &mut Tracer::new());
    for _ in 0..w.warm_ops {
        warm.op();
    }
    Inputs::build(w.kind, w.full, args.seed, tr)
}

fn untraced(args: &ChildArgs<'_>, process_start: Instant) -> Vec<(&'static str, Json)> {
    let mut tr = Tracer::new();
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for rep in 0..SETUP_REPS {
        // The first repetition is charged from process start.
        let started = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        inputs = Some(set_up(args, &mut tr));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set-up ran");

    let ops = if args.smoke {
        1
    } else {
        args.workload.ops(args.seconds)
    };
    let mut op_s = Vec::new();
    let mut verdicts = Vec::new();
    for _ in 0..ops {
        let started = Instant::now();
        let output = inputs.op();
        op_s.push(started.elapsed().as_secs_f64());
        if verdicts.is_empty() {
            verdicts.extend(inputs.invariant_record(&output));
        }
        verdicts.extend(inputs.judge(&output, &mut tr));
    }
    vec![
        ("setup_s", arr(setup_s.into_iter().map(num))),
        ("op_s", arr(op_s.into_iter().map(num))),
        ("verdicts", arr(verdicts)),
    ]
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// Names of the spans that are stages of an op.
const STAGES: [&str; 6] = [
    "core.assembly.product",
    "check.explore",
    "check.simulate.h1",
    "check.simulate.h2a",
    "check.liveness.h2b",
    "core.ag.check",
];

/// `build_certificate`'s stages through public API, one span per call.
pub fn staged_certificate(problem: &Problem, tr: &mut Tracer, budget: &RunBudget) -> Cert {
    let product = tr.span("core.assembly.product", || problem.product());
    let graph = tr.time(
        "check.explore",
        || api::explore(&product, Plan::Default, budget),
        edges,
    );
    let (states, transitions) = (graph.states(), graph.transitions());
    let mut stages = vec![Stage::structural("G"), Stage::structural("P1+P2")];
    for j in 0..problem.h1_count() {
        stages.push(tr.time(
            "check.simulate.h1",
            || problem.h1(j, &product, &graph, budget),
            |_| transitions,
        ));
    }
    stages.push(problem.h2a_p4(&graph));
    stages.push(tr.time(
        "check.simulate.h2a",
        || problem.h2a(&product, &graph, budget),
        |_| transitions,
    ));
    for i in 0..problem.h2b_count() {
        stages.push(tr.time(
            "check.liveness.h2b",
            || problem.h2b(i, &product, &graph, budget, None),
            |_| states,
        ));
    }
    Cert::from_stages(stages, &graph)
}

fn edges(graph: &Graph) -> usize {
    graph.transitions()
}

/// The op again, stage by stage. In a batch, verdict `r` works under
/// op id `tr.op + 1 + r`.
fn staged_op(inputs: &Inputs, tr: &mut Tracer, budget: &RunBudget) -> Output {
    match inputs {
        Inputs::Cert { world } => Output::Cert(staged_certificate(&world.problem(), tr, budget)),
        Inputs::Refute { lies, cases, .. } => Output::Refute {
            certs: lies.each_ref().map(|lie| {
                tr.op += 1;
                staged_certificate(lie, tr, budget)
            }),
            monitors: cases.each_ref().map(|case| {
                tr.op += 1;
                let graph = tr.time(
                    "check.explore",
                    || api::explore(&case.system, Plan::Default, budget),
                    edges,
                );
                let states = graph.states();
                tr.time("core.ag.check", || case.check(&graph), |_| states)
            }),
        },
        Inputs::Explore { system, plan, .. } => Output::Explore(tr.time(
            "check.explore",
            || api::explore(system, *plan, budget),
            edges,
        )),
    }
}

fn traced(args: &ChildArgs<'_>) -> Vec<(&'static str, Json)> {
    let mut tr = Tracer::new();
    let mut verdicts = Vec::new();
    let mut layers: Vec<(&'static str, f64)> = Vec::new();

    let inputs = set_up(args, &mut tr);
    layers.push(("queue.spec_build_s", tr.total("queue.spec_build")));

    // The op with tracing off: the yardstick for what tracing costs.
    let started = Instant::now();
    let output = inputs.op();
    let untraced_s = started.elapsed().as_secs_f64();
    let op_states = states_of(&output);
    verdicts.extend(inputs.judge(&output, &mut tr));
    drop(output);

    // The op again in stages, the program's own recorder listening.
    let recorder = Arc::new(Counting::default());
    let budget = api::budget_with(recorder.clone());
    tr.op += 1;
    let staged_op_id = tr.op;
    let first_span = tr.spans.len();
    let whole = tr.enter("op.staged");
    let output = staged_op(&inputs, &mut tr, &budget);
    let staged_states = states_of(&output);
    tr.exit(whole, staged_states);
    let replayed_before = tr.total("semantics.replay");
    verdicts.extend(inputs.judge(&output, &mut tr));
    let replay_s = tr.total("semantics.replay") - replayed_before;
    let staged_s = tr.spans[whole].seconds();
    let stage_sum: f64 = tr.spans[first_span..]
        .iter()
        .filter(|s| STAGES.contains(&s.name))
        .map(|s| s.seconds())
        .sum();

    layers.extend([
        ("core.assembly.product_s", tr.total("core.assembly.product")),
        ("check.explore.plan_s", tr.total("check.explore")),
        ("check.simulate.h1_s", tr.total("check.simulate.h1")),
        (
            "check.simulate.h1_ns_per_edge",
            tr.ns_per_unit("check.simulate.h1"),
        ),
        ("check.simulate.h2a_s", tr.total("check.simulate.h2a")),
        (
            "check.simulate.h2a_ns_per_edge",
            tr.ns_per_unit("check.simulate.h2a"),
        ),
        ("check.liveness.h2b_s", tr.total("check.liveness.h2b")),
        (
            "check.liveness.h2b_ns_per_state",
            tr.ns_per_unit("check.liveness.h2b"),
        ),
        ("core.compose.self_s", untraced_s - stage_sum),
        ("verdict.states_per_s", ratio(op_states as f64, untraced_s)),
        (
            "verdict.us_per_state",
            ratio(untraced_s * 1e6, op_states as f64),
        ),
        ("trace.overhead", staged_s / untraced_s - 1.0),
    ]);

    // Staged spans against the program's own phase timers.
    let spans = [
        tr.total("check.explore"),
        tr.total("check.simulate.h1") + tr.total("check.simulate.h2a"),
        tr.total("check.liveness.h2b"),
    ];
    let gap = spans
        .iter()
        .zip(recorder.phase_seconds())
        .filter(|(span, _)| **span > 0.0)
        .map(|(span, phase)| (span - phase).abs() / span)
        .fold(0.0, f64::max);
    layers.push(("trace.obs_phase_gap", gap));

    // What only the refuting verdicts exercise; no other op has spans
    // under these op ids or evidence to measure, so it reads 0 there.
    let in_op = |name: &str, r: usize| tr.total_in(name, staged_op_id + 1 + r);
    let (evidence_len, ag_states) = match &output {
        Output::Refute { certs, monitors } => (
            certs
                .each_ref()
                .map(|c| c.refutation.as_ref().map_or(0, |x| x.trace_len())),
            monitors[1].states,
        ),
        Output::Cert(_) | Output::Explore(_) => ([0, 0], 0),
    };
    layers.extend([
        (
            "check.simulate.refute_h2a_s",
            in_op("check.simulate.h2a", 0),
        ),
        (
            "check.liveness.refute_h2b_s",
            in_op("check.liveness.h2b", 1),
        ),
        ("check.counterexample.trace_len", evidence_len[0] as f64),
        ("check.counterexample.lasso_len", evidence_len[1] as f64),
        ("core.ag.refute_s", in_op("core.ag.check", 2)),
        (
            "core.ag.monitor_ns_per_state",
            ratio(in_op("core.ag.check", 3) * 1e9, ag_states as f64),
        ),
        ("semantics.replay_s", replay_s),
    ]);
    drop(output);

    // Each layer on its own: liveness on two workers where the op
    // checks liveness, the exploration layers where the op explores.
    tr.op = staged_op_id + 5;
    match &inputs {
        Inputs::Cert { world } => par2(&world.problem(), &mut tr, &mut verdicts),
        Inputs::Refute { lies, .. } => par2(&lies[1], &mut tr, &mut verdicts),
        Inputs::Explore { .. } => {}
    }
    layers.push(("check.liveness.par2_s", tr.total("check.liveness.par2")));
    let system = match &inputs {
        Inputs::Explore { system, .. } => Some(system),
        Inputs::Cert { .. } | Inputs::Refute { .. } => None,
    };
    layers.extend(exploration_layers(args, system, &mut tr, &mut verdicts));

    vec![
        ("untraced_op_s", num(untraced_s)),
        ("verdicts", arr(verdicts)),
        ("layers", obj(layers.into_iter().map(|(k, v)| (k, num(v))))),
        ("spans", tr.to_json()),
    ]
}

/// States behind an op's verdicts.
fn states_of(output: &Output) -> usize {
    match output {
        Output::Cert(cert) => cert.states,
        Output::Explore(graph) => graph.states(),
        Output::Refute { certs, monitors } => {
            certs.iter().map(|c| c.states).sum::<usize>()
                + monitors.iter().map(|m| m.states).sum::<usize>()
        }
    }
}

/// H2b's first fairness condition again, on two liveness workers: the
/// parallel path `compose` takes under `OPENTLA_EXPLORE_THREADS=2`.
fn par2(problem: &Problem, tr: &mut Tracer, verdicts: &mut Vec<Json>) {
    let unlimited = api::unlimited();
    let product = problem.product();
    let graph = api::explore(&product, Plan::Seq, &unlimited);
    let stage = tr.time(
        "check.liveness.par2",
        || problem.h2b(0, &product, &graph, &unlimited, Some(2)),
        |_| graph.states(),
    );
    verdicts.push(cert_record(
        "par2",
        &Cert::from_stages(vec![stage], &graph),
        None,
    ));
}

/// The layers under exploration, each driven on its own over the
/// complete graph of `system`. A workload whose op is not an
/// exploration passes `None`, does none of the work, and reports 0.
fn exploration_layers(
    args: &ChildArgs<'_>,
    system: Option<&ClosedSystem>,
    tr: &mut Tracer,
    verdicts: &mut Vec<Json>,
) -> Vec<(&'static str, f64)> {
    let (mut transitions, mut spilled_mb, mut cache_hit_ratio) = (0, 0.0, 0.0);
    let (mut counting, mut streaming) = (vec![0.0], vec![0.0]);
    if let Some(system) = system {
        let unlimited = api::unlimited();

        // Exploration, plan by plan; every plan must build the same graph.
        let graph = tr.time(
            "check.explore.seq",
            || api::explore(system, Plan::Seq, &unlimited),
            edges,
        );
        let digest = graph.digest();
        let states = graph.states();
        transitions = graph.transitions();
        let mut same_graph = true;
        let recorder = Arc::new(Counting::default());
        let listening = api::budget_with(recorder.clone());
        for (name, plan, budget) in [
            ("check.explore.ws2", Plan::Ws2, &unlimited),
            ("check.explore.level2", Plan::Level2, &unlimited),
            ("check.explore.spill", Plan::Spill, &listening),
            ("check.explore.spill_ws2", Plan::SpillWs2, &unlimited),
        ] {
            let other = tr.time(name, || api::explore(system, plan, budget), edges);
            same_graph &= other.digest() == digest;
        }
        spilled_mb = recorder.spilled_bytes() as f64 / (1 << 20) as f64;
        cache_hit_ratio = recorder.cache_hit_ratio();

        // The stepper and the state representations.
        let stepped = tr.time(
            "check.compiled.step",
            || api::restep(system, &graph),
            |n| *n,
        );
        tr.time(
            "kernel.state.fingerprint",
            || api::fingerprint_all(&graph),
            |_| states,
        );
        tr.time("kernel.scc", || api::scc_all(&graph), |_| states);
        let mut round_trip = true;
        if let Some(layout) = api::packed_layout(system) {
            let packed = tr.time(
                "kernel.packed.pack",
                || api::pack_all(layout, &graph),
                |_| states,
            );
            tr.time("kernel.packed.unpack", || packed.unpack_all(), |_| states);
            round_trip &= packed.round_trips(&graph);
            let dir = args.scratch.join(format!("store-{}", std::process::id()));
            let mut store = api::Store::create(&dir);
            tr.time(
                "kernel.store.append",
                || store.append_all(&packed),
                |n| *n as usize,
            );
            round_trip &= tr.time("kernel.store.read", || store.read_all(&packed), |_| states);
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
        verdicts.push(obj([
            ("kind", text("layers")),
            ("same_graph", Json::Bool(same_graph)),
            ("restep_transitions", count(stepped)),
            ("round_trip", Json::Bool(round_trip)),
        ]));
        drop(graph);

        // What a listening recorder costs a sequential exploration:
        // interleaved so that drift hits all three alike.
        let jsonl = args
            .scratch
            .join(format!("obs-{}.jsonl", std::process::id()));
        let timed = |budget: &RunBudget| {
            let started = Instant::now();
            drop(api::explore(system, Plan::Seq, budget));
            started.elapsed().as_secs_f64()
        };
        (counting, streaming) = (Vec::new(), Vec::new());
        for _ in 0..OBS_ROUNDS {
            let plain = timed(&unlimited);
            counting.push(timed(&api::budget_with(Arc::new(Counting::default()))) / plain - 1.0);
            streaming.push(timed(&api::budget_jsonl(&jsonl)) / plain - 1.0);
        }
        let _ = std::fs::remove_file(&jsonl);
    }
    let seq_s = tr.total("check.explore.seq");
    let step_s = tr.total("check.compiled.step");
    vec![
        ("check.explore.seq_s", seq_s),
        (
            "check.explore.ns_per_transition",
            tr.ns_per_unit("check.explore.seq"),
        ),
        (
            "check.compiled.step_ns_per_transition",
            tr.ns_per_unit("check.compiled.step"),
        ),
        (
            "check.explore.intern_ns_per_transition",
            ratio((seq_s - step_s) * 1e9, transitions as f64),
        ),
        ("check.explore.ws2_s", tr.total("check.explore.ws2")),
        ("check.explore.level2_s", tr.total("check.explore.level2")),
        ("check.explore.spill_s", tr.total("check.explore.spill")),
        (
            "check.explore.spill_ws2_s",
            tr.total("check.explore.spill_ws2"),
        ),
        ("check.explore.spill_spilled_mb", spilled_mb),
        ("kernel.store.cache_hit_ratio", cache_hit_ratio),
        (
            "kernel.state.fingerprint_ns_per_state",
            tr.ns_per_unit("kernel.state.fingerprint"),
        ),
        ("kernel.scc.ns_per_node", tr.ns_per_unit("kernel.scc")),
        (
            "kernel.packed.pack_ns_per_state",
            tr.ns_per_unit("kernel.packed.pack"),
        ),
        (
            "kernel.packed.unpack_ns_per_state",
            tr.ns_per_unit("kernel.packed.unpack"),
        ),
        (
            "kernel.store.append_ns_per_record",
            tr.ns_per_unit("kernel.store.append"),
        ),
        (
            "kernel.store.read_ns_per_record",
            tr.ns_per_unit("kernel.store.read"),
        ),
        ("check.obs.counting_overhead", crate::median(&mut counting)),
        ("check.obs.jsonl_overhead", crate::median(&mut streaming)),
    ]
}
