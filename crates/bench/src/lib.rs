//! The paper's table: every Markdown table of `EXPERIMENTS.md`, and the
//! Figure 9 certificate, recomputed through the public `opentla` API.
//!
//! The cells are verdicts and counts — states, transitions,
//! obligations, diagnoses, spill events and bytes — never times, so
//! they are the same on every machine and at every thread count.
//! `tests/experiments.rs` checks each block against the document; on a
//! mismatch it prints the block to paste. Timings come from
//! `benchmark/` alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use opentla::{
    chaos_environment, check_ag_safety, check_ag_safety_diagnosed, closed_product, compose,
    escalate, Budget, ComponentSpec, CompositionOptions, CompositionProblem, SpecError,
};
use opentla_check::obs::CountingRecorder;
use opentla_check::{
    check_invariant, check_liveness, explore, explore_governed_with, ExploreOptions, GuardedAction,
    Init, LiveTarget, RecorderHandle, StateGraph, System,
};
use opentla_kernel::{Domain, Expr, Substitution, Value, Vars};
use opentla_queue::{
    handshake_trace, Channel, DoubleQueue, FairnessStyle, QueueChain, SingleQueue,
};
use opentla_scenarios::{AlternatingBit, ArbiterFairness, ClockWorld, Fig1, Mutex, TokenRing};
use std::sync::Arc;

/// A row of cells, each formatted with `Display`.
macro_rules! cells {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

/// Every block of `EXPERIMENTS.md` the machine derives, in document
/// order, each rendered as the Markdown the document holds: the tables
/// of F1–F9, X1–X6 and the bounded-memory ladder, and the fenced
/// certificate of the smallest Figure 9 instance.
///
/// # Panics
///
/// If a check returns an error instead of a verdict, or X6's lossy wire
/// never breaks the receiver's assumption.
pub fn experiments() -> Vec<String> {
    vec![
        fig1(),
        fig2_trace(),
        fig2_space(),
        fig6(),
        fig8(),
        fig9(),
        fig9_certificate(),
        chain(),
        mutex(),
        clock(),
        ring(),
        abp(),
        adversarial(),
        spill_ladder(),
    ]
}

fn fig1() -> String {
    let w = Fig1::new();
    let ag_c = w.ag_c().unwrap();
    let ag_d = w.ag_d().unwrap();
    let target = w.safety_target().unwrap();
    let problem = CompositionProblem {
        vars: w.vars(),
        components: vec![&ag_c, &ag_d],
        target: &target,
        mapping: Substitution::default(),
    };
    let cert = compose(&problem, &CompositionOptions::default()).unwrap();

    let chaos = chaos_environment("chaos_d", w.vars(), &[w.d()]);
    let realized = closed_product(w.vars(), &[&w.pi_c(), &chaos]).unwrap();
    let realized_graph = explore_all(&realized);
    let realizes = check_ag_safety(
        &realized,
        &realized_graph,
        &w.m0_d().safety_formula(),
        &w.m0_c().safety_formula(),
    )
    .unwrap();

    let copiers = closed_product(w.vars(), &[&w.pi_c(), &w.pi_d()]).unwrap();
    let copiers_graph = explore_all(&copiers);
    let eventually = LiveTarget::Eventually(Expr::var(w.c()).eq(Expr::int(1)));
    let live = check_liveness(&copiers, &copiers_graph, &eventually).unwrap();

    table(
        "check, verdict, states",
        [
            cells![
                "compose (M⁰ circular safety)",
                verdict(cert.holds()),
                cert.product_states
            ],
            cells![
                "Π_c realizes M⁰_d ⊳ M⁰_c (chaos env)",
                verdict(realizes.holds()),
                realized_graph.len()
            ],
            cells![
                "Π_c ∥ Π_d ⊨ ◇(c=1) (M¹ liveness)",
                verdict(live.holds()),
                copiers_graph.len()
            ],
        ],
    )
}

fn fig2_trace() -> String {
    let rows = handshake_trace(&[37, 4, 19]).into_iter().map(|r| {
        let val = r.val.map_or("–".to_string(), |v| v.to_string());
        cells![r.label, r.ack, r.sig, val]
    });
    table("step, ack, sig, val", rows)
}

fn fig2_space() -> String {
    let rows = [2i64, 4, 8, 16].map(|vals| {
        let graph = explore_all(&handshake_system(vals).unwrap());
        cells![vals, graph.len(), graph.edge_count()]
    });
    table("|V|, states, transitions", rows)
}

fn fig6() -> String {
    let rows = [(1usize, 2i64), (2, 2), (3, 2), (2, 3), (1, 4)].map(|(n, v)| {
        let world = SingleQueue::new(n, v, FairnessStyle::Joint);
        let sys = world.complete_system().unwrap();
        let graph = explore_all(&sys);
        let invariant = |p: &Expr| check_invariant(&sys, &graph, p).unwrap().holds();
        let (p, q) = world.input_served();
        let served = check_liveness(&sys, &graph, &LiveTarget::LeadsTo(p, q)).unwrap();
        cells![
            n,
            v,
            graph.len(),
            graph.edge_count(),
            verdict(invariant(&world.capacity_invariant())),
            verdict(invariant(&world.output_discipline())),
            verdict(served.holds())
        ]
    });
    let header = "N, |V|, states, transitions, |q|≤N, discipline, input served";
    table(header, rows)
}

fn fig8() -> String {
    let rows = [(1usize, 2i64), (1, 3), (2, 2)].map(|(n, v)| {
        let w = DoubleQueue::new(n, v, FairnessStyle::Joint);
        let report = w.prove_refinement(&ExploreOptions::default()).unwrap();
        cells![
            n,
            v,
            report.simulation.states,
            report.simulation.edges,
            verdict(report.simulation.holds()),
            verdict(report.liveness.iter().all(|(_, v)| v.holds()))
        ]
    });
    table("N, |V|, CDQ states, edges checked, safety, liveness", rows)
}

fn fig9() -> String {
    let rows = [(1usize, 2i64), (1, 3), (2, 2)].map(|(n, v)| {
        let w = DoubleQueue::new(n, v, FairnessStyle::Joint);
        let cert = w.prove_composition(&CompositionOptions::default()).unwrap();
        cells![
            n,
            v,
            cert.product_states,
            cert.obligations.len(),
            verdict(cert.holds())
        ]
    });
    table("N, |V|, product states, obligations, verdict", rows)
}

fn fig9_certificate() -> String {
    let w = DoubleQueue::new(1, 2, FairnessStyle::Joint);
    let cert = w.prove_composition(&CompositionOptions::default()).unwrap();
    format!("```\n{}```", cert.display(w.vars()))
}

fn chain() -> String {
    let rows = [1usize, 2, 3].map(|k| {
        let chain = QueueChain::new(k, 1, 2, FairnessStyle::Joint);
        let cert = chain
            .prove_composition(&CompositionOptions::default())
            .unwrap();
        cells![
            k,
            chain.big_capacity(),
            cert.product_states,
            cert.obligations.len(),
            verdict(cert.holds())
        ]
    });
    table(
        "k, big capacity, product states, obligations, verdict",
        rows,
    )
}

fn mutex() -> String {
    let rows = [
        (2, ArbiterFairness::Weak),
        (2, ArbiterFairness::Strong),
        (3, ArbiterFairness::Weak),
        (3, ArbiterFairness::Strong),
    ]
    .map(|(k, fairness)| {
        let w = Mutex::with_clients(k, fairness);
        let cert = w.prove(&CompositionOptions::default()).unwrap();
        let sys = w.product().unwrap();
        let graph = explore_all(&sys);
        let exclusion = check_invariant(&sys, &graph, &w.mutual_exclusion()).unwrap();
        let (p, q) = w.request_served(1);
        let served = check_liveness(&sys, &graph, &LiveTarget::LeadsTo(p, q)).unwrap();
        cells![
            k,
            format!("{fairness:?}"),
            verdict(cert.holds()),
            verdict(exclusion.holds()),
            verdict(served.holds())
        ]
    });
    table(
        "clients, arbiter fairness, composition, mutual exclusion, r1 ↝ g1",
        rows,
    )
}

fn clock() -> String {
    let rows = [(1usize, 3i64), (2, 3), (2, 5)].map(|(stampers, horizon)| {
        let w = ClockWorld::new(stampers, horizon);
        let cert = w.prove(&CompositionOptions::default()).unwrap();
        let sys = w.product().unwrap();
        let graph = explore_all(&sys);
        let bounded = check_invariant(&sys, &graph, &w.bounded_by_now()).unwrap();
        cells![
            stampers,
            horizon,
            verdict(cert.holds()),
            verdict(bounded.holds()),
            cert.product_states
        ]
    });
    table(
        "stampers, horizon, composition, bounded by now, product states",
        rows,
    )
}

fn ring() -> String {
    let rows = [2usize, 3, 4].map(|k| {
        let w = TokenRing::new(k);
        let cert = w.prove_mutex(&CompositionOptions::default()).unwrap();
        let sys = w.complete_system().unwrap();
        let graph = explore_all(&sys);
        let conserved = check_invariant(&sys, &graph, &w.token_conservation()).unwrap();
        let circulates = (0..k).all(|i| {
            let crit = LiveTarget::AlwaysEventually(Expr::var(w.crit(i)).eq(Expr::int(1)));
            check_liveness(&sys, &graph, &crit).unwrap().holds()
        });
        cells![
            k,
            verdict(cert.holds()),
            verdict(conserved.holds()),
            verdict(circulates),
            graph.len()
        ]
    });
    table(
        "nodes, composition (mutex), token conservation, circulation □◇crit, states",
        rows,
    )
}

fn abp() -> String {
    let rows = [1i64, 2, 4].map(|k| {
        let w = AlternatingBit::new(k);
        let cert = w.prove(&CompositionOptions::default()).unwrap();
        let sys = w.complete_system().unwrap();
        let graph = explore_all(&sys);
        let invariant = |p: &Expr| check_invariant(&sys, &graph, p).unwrap().holds();
        let done = LiveTarget::Eventually(Expr::var(w.recv()).eq(Expr::int(k)));
        let delivered = check_liveness(&sys, &graph, &done).unwrap();
        cells![
            k,
            verdict(cert.holds()),
            verdict(invariant(&w.in_order_invariant())),
            verdict(invariant(&w.counting_invariant())),
            verdict(delivered.holds()),
            graph.len()
        ]
    });
    table(
        "messages, composition (reliable channel), in-order, counting, ◇ all delivered, states",
        rows,
    )
}

fn adversarial() -> String {
    let mut rows = Vec::new();

    // Lossy ABP: in-order delivery is lost, but the receiver's E ⊳ M
    // survives with the break pinned on the injected fault.
    let w = AlternatingBit::new(2);
    let lossy = w.lossy_system().unwrap();
    let graph = explore_all(&lossy);
    let report = check_ag_safety_diagnosed(
        &lossy,
        &graph,
        &w.receiver_assumption(),
        &w.receiver_guarantee(),
    )
    .unwrap();
    let b = report.env_break.as_ref().expect("the lossy wire breaks E");
    let diagnosis = format!(
        "E broken at step {} by {}",
        b.step,
        b.action.as_deref().unwrap_or("(init)")
    );
    rows.push(cells![
        "ABP, lossy forward wire",
        verdict(report.holds()),
        diagnosis,
        graph.len()
    ]);

    // Crash–restart queue chain, from both sides of ⊳.
    let chain = QueueChain::new(2, 1, 2, FairnessStyle::None);
    for (label, sys) in [
        (
            "chain, crashing environment",
            chain.crashy_env_system().unwrap(),
        ),
        (
            "chain, crashing queue 1",
            chain.crashy_queue_system(1).unwrap(),
        ),
    ] {
        let graph = explore_all(&sys);
        let assumption = chain.outer_assumption();
        let guarantee = chain.big_queue_guarantee().unwrap();
        let report = check_ag_safety_diagnosed(&sys, &graph, &assumption, &guarantee).unwrap();
        let diagnosis = match (&report.env_break, report.verdict.counterexample()) {
            (Some(b), _) => format!("E broken at step {}, M held {} steps", b.step, b.step + 1),
            // The reason without the violated conjunct's full text.
            (None, Some(cx)) => cx.reason().split(" (").next().unwrap_or_default().into(),
            (None, None) => "cooperative".to_string(),
        };
        rows.push(cells![
            label,
            verdict(report.holds()),
            diagnosis,
            graph.len()
        ]);
    }

    // Governed exploration: a tiny budget exhausts gracefully, and
    // geometric escalation completes the run. One worker, so where the
    // budget cuts the run does not depend on scheduling.
    let one_worker = ExploreOptions {
        threads: Some(1),
        ..ExploreOptions::default()
    };
    let governed = |b: &Budget| explore_governed_with(&lossy, b, &one_worker);
    let partial = governed(&Budget::default().states(3)).unwrap().outcome;
    let full = escalate(&Budget::default().states(3), 4, 8, governed).unwrap();
    rows.push(cells![
        "governed explore (3-state budget, ×4 escalation)",
        verdict(full.outcome.is_complete()),
        partial,
        full.graph.len()
    ]);

    table("scenario, ⊳ verdict, diagnosis, states", rows)
}

/// The chain4 state space explored by the one-worker disk-backed store
/// at a budget that holds its graph and dedup index, and at budgets
/// below them. Segment boundaries are a pure function of the record
/// stream, and the move to disk of the graph and index's allocated
/// size, so the spill counts are exact.
fn spill_ladder() -> String {
    let system = QueueChain::new(4, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    let rows = [
        (4usize << 20, "4 MiB"),
        (2 << 20, "2 MiB"),
        (1 << 20, "1 MiB"),
        (256 << 10, "256 KiB"),
    ]
    .map(|(bytes, label)| {
        let counting = Arc::new(CountingRecorder::new());
        let budget = Budget::unlimited().with_recorder(RecorderHandle::new(counting.clone()));
        let options = ExploreOptions {
            threads: Some(1),
            mem_budget_bytes: Some(bytes),
            ..ExploreOptions::default()
        };
        let run = explore_governed_with(&system, &budget, &options).unwrap();
        let spilled = counting.spilled_bytes() as f64 / f64::from(1 << 20);
        cells![
            label,
            run.graph.len(),
            run.graph.edge_count(),
            counting.count("spill"),
            format!("{spilled:.1} MiB")
        ]
    });
    table(
        "budget, states, transitions, spill events, spilled to disk",
        rows,
    )
}

/// A two-party handshake world: a sender putting arbitrary values on a
/// channel and a receiver acknowledging them — the complete system
/// behind Figure 2's protocol table.
fn handshake_system(num_values: i64) -> Result<System, SpecError> {
    let mut vars = Vars::new();
    let values = Domain::int_range(0, num_values - 1);
    let c = Channel::declare(&mut vars, "c", &values);
    let sender = {
        let puts = GuardedAction::family("Send", values.values().to_vec(), |v| {
            (c.ready_to_send(), c.send_updates(v))
        });
        ComponentSpec::builder("sender")
            .outputs([c.sig, c.val])
            .inputs([c.ack])
            .init(Init::new([(c.sig, Value::Int(0))]))
            .actions(puts)
            .build()?
    };
    let receiver = ComponentSpec::builder("receiver")
        .outputs([c.ack])
        .inputs([c.sig, c.val])
        .init(Init::new([(c.ack, Value::Int(0))]))
        .action(GuardedAction::new("Ack", c.ready_to_ack(), c.ack_updates()))
        .build()?;
    closed_product(&vars, &[&sender, &receiver])
}

fn explore_all(system: &System) -> StateGraph {
    explore(system, &ExploreOptions::default()).expect("exploration succeeds")
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "PROVED"
    } else {
        "FAILS"
    }
}

/// A Markdown table: the header (column names, comma-separated), the
/// separator, then one line per row.
fn table(header: &str, rows: impl IntoIterator<Item = Vec<String>>) -> String {
    let header: Vec<String> = header.split(", ").map(String::from).collect();
    let mut lines = vec![row(&header), format!("|{}", "---|".repeat(header.len()))];
    lines.extend(rows.into_iter().map(|r| row(&r)));
    lines.join("\n")
}

/// One Markdown table line; a `|` inside a cell is escaped so that it
/// does not end the cell.
fn row(cells: &[String]) -> String {
    let cells: Vec<String> = cells.iter().map(|c| c.replace('|', "\\|")).collect();
    format!("| {} |", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_system_explores() {
        let graph = explore_all(&handshake_system(2).unwrap());
        // sig, ack ∈ {0,1}², val ∈ {0,1}: all 8 combinations reachable
        // (val is initially free).
        assert_eq!(graph.len(), 8);
    }

    #[test]
    fn row_formats() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
        assert_eq!(row(&["|q|≤N".into()]), "| \\|q\\|≤N |");
    }
}
