//! End-to-end queue experiments at larger parameters than the unit
//! tests, plus negative controls.

use opentla::{Certificate, CompositionOptions};
use opentla_check::{
    check_invariant, check_liveness, explore, Budget, Engine, Event, ExploreOptions, LiveTarget,
    Recorder, RecorderHandle,
};
use opentla_kernel::Expr;
use opentla_queue::{DoubleQueue, FairnessStyle, QueueChain, SingleQueue};
use opentla_semantics::{eval, EvalCtx};

#[test]
fn single_queue_scales_with_capacity_and_values() {
    // State-space growth sanity across the parameter grid the
    // benchmarks sweep.
    let mut last = 0;
    for n in 1..=3 {
        let world = SingleQueue::new(n, 2, FairnessStyle::Joint);
        let sys = world.complete_system().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert!(
            graph.len() > last,
            "state space must grow with N: {} vs {last}",
            graph.len()
        );
        last = graph.len();
        let verdict =
            check_invariant(&sys, &graph, &world.capacity_invariant()).unwrap();
        assert!(verdict.holds(), "capacity invariant at N = {n}");
    }
}

#[test]
fn double_queue_composition_n2() {
    let w = DoubleQueue::new(2, 2, FairnessStyle::Joint);
    let cert = w.prove_composition(&CompositionOptions::default()).unwrap();
    assert!(cert.holds(), "{}", cert.display(w.vars()));
    assert!(cert.product_states > 500, "got {}", cert.product_states);
}

/// Keeps the engine label of every `RunStart`.
#[derive(Default)]
struct EngineLog(std::sync::Mutex<Vec<String>>);

impl Recorder for EngineLog {
    fn record(&self, event: &Event<'_>) {
        if let Event::RunStart { engine, .. } = event {
            self.0.lock().unwrap().push(engine.to_string());
        }
    }
}

/// `CompositionOptions::explore` is the exploration plan of the
/// paper's pipeline, not just a state limit: an explicit engine and
/// thread count reach the product exploration (visible in `RunStart`)
/// and the certificate does not depend on them.
#[test]
fn composition_honours_the_callers_exploration_plan() {
    let w = DoubleQueue::new(2, 3, FairnessStyle::Joint);
    let prove = |explore: ExploreOptions| -> (Certificate, Vec<String>) {
        let log = std::sync::Arc::new(EngineLog::default());
        let options = CompositionOptions {
            explore,
            budget: Budget::unlimited().with_recorder(RecorderHandle::new(log.clone())),
            ..CompositionOptions::default()
        };
        let cert = w.prove_composition(&options).unwrap();
        let engines = log.0.lock().unwrap().clone();
        (cert, engines)
    };
    let (reference, _) = prove(ExploreOptions::default());
    let (cert, engines) = prove(ExploreOptions {
        engine: Engine::WorkStealing,
        threads: Some(2),
        ..ExploreOptions::default()
    });
    assert_eq!(engines, ["explore_parallel_ws"]);
    assert!(cert.holds(), "{}", cert.display(w.vars()));
    assert_eq!(
        (cert.product_states, cert.product_edges),
        (reference.product_states, reference.product_edges)
    );
    let summary = |c: &Certificate| -> Vec<String> {
        c.obligations
            .iter()
            .map(|o| format!("{} | {} | {} | {:?}", o.id, o.description, o.method, o.status))
            .collect()
    };
    assert_eq!(summary(&cert), summary(&reference));
}

#[test]
fn double_queue_refinement_n2_v3() {
    let w = DoubleQueue::new(2, 3, FairnessStyle::Joint);
    let report = w.prove_refinement(&ExploreOptions::default()).unwrap();
    assert!(report.holds());
    assert!(report.simulation.holds());
}

#[test]
fn split_fairness_composition_also_proves() {
    // The paper's equivalence note: WF(Enq) ∧ WF(Deq) in place of
    // WF(Q_M) yields the same theorem, now with two H2b obligations.
    let w = DoubleQueue::new(1, 2, FairnessStyle::Split);
    let cert = w.prove_composition(&CompositionOptions::default()).unwrap();
    assert!(cert.holds(), "{}", cert.display(w.vars()));
    let h2b = cert
        .obligations
        .iter()
        .filter(|o| o.id.starts_with("H2b"))
        .count();
    assert_eq!(h2b, 2);
}

#[test]
fn value_transmission_is_faithful() {
    // FIFO end-to-end: if 1 is the only value ever sent, only 1 can
    // come out. Run the complete system where the environment is
    // restricted by construction of the value domain... with |V| = 2 we
    // instead check a step invariant: whatever Deq emits was at the
    // head of q.
    let world = SingleQueue::new(2, 2, FairnessStyle::Joint);
    let sys = world.complete_system().unwrap();
    let graph = explore(&sys, &ExploreOptions::default()).unwrap();
    // Step invariant: when o.sig flips (a Deq), the emitted o.val'
    // equals Head(q).
    let o = world.output();
    let q = world.q();
    let deq_emits_head = Expr::all([
        Expr::prime(o.sig).ne(Expr::var(o.sig)),
    ])
    .implies(Expr::prime(o.val).eq(Expr::var(q).head()));
    let all_vars: Vec<_> = world.vars().iter().collect();
    let verdict =
        opentla_check::check_step_invariant(&sys, &graph, &deq_emits_head, &all_vars)
            .unwrap();
    assert!(verdict.holds());
}

#[test]
fn pending_output_is_drained() {
    // Liveness through the pipe: a value in flight on o is eventually
    // acknowledged (the environment's Get is not fair, so this needs...
    // no — Get is an environment action with no fairness, so a pending
    // output may in fact linger forever. The dischargeable property is
    // the converse: a nonempty queue with a ready output channel
    // eventually sends (WF(Q_M) forces Deq).
    let world = SingleQueue::new(1, 2, FairnessStyle::Joint);
    let sys = world.complete_system().unwrap();
    let graph = explore(&sys, &ExploreOptions::default()).unwrap();
    let o = world.output();
    let p = Expr::all([
        o.ready_to_send(),
        Expr::var(world.q()).len().gt(Expr::int(0)),
    ]);
    let sent = o.ready_to_ack();
    let verdict =
        check_liveness(&sys, &graph, &LiveTarget::LeadsTo(p, sent)).unwrap();
    assert!(verdict.holds());

    // And the negative control: "a pending output is eventually
    // acknowledged" fails, because the environment never promised
    // fairness for Get.
    let verdict = check_liveness(
        &sys,
        &graph,
        &LiveTarget::LeadsTo(o.ready_to_ack(), o.ready_to_send()),
    )
    .unwrap();
    assert!(
        !verdict.holds(),
        "no fairness was assumed for the environment's Get"
    );
}

#[test]
fn chain_matches_double_at_k2() {
    // QueueChain with k = 2 proves the same statement as DoubleQueue.
    let chain = QueueChain::new(2, 1, 2, FairnessStyle::Joint);
    assert_eq!(chain.big_capacity(), 3);
    let cert = chain.prove_composition(&CompositionOptions::default()).unwrap();
    assert!(cert.holds());
    let dbl = DoubleQueue::new(1, 2, FairnessStyle::Joint);
    let cert2 = dbl.prove_composition(&CompositionOptions::default()).unwrap();
    assert_eq!(cert.product_states, cert2.product_states);
}

#[test]
fn composition_counterexamples_replay_semantically() {
    // Break queue 2 (capacity lie: claim the pair implements a
    // (2N+2)-element queue) and replay the failing obligation's
    // counterexample through the trace semantics.
    use opentla::{AgSpec, CompositionProblem};
    use opentla_kernel::{Domain, Substitution, Vars};
    use opentla_queue::queue_component;

    let w = DoubleQueue::new(1, 2, FairnessStyle::Joint);
    let mut vars: Vars = w.vars().clone();
    let q_big = vars.declare("q_too_big", Domain::seqs_up_to(w.values(), 4));
    let too_big = queue_component("QM[2N+2]", w.i(), w.o(), q_big, 4, FairnessStyle::Joint)
        .unwrap();
    let target = AgSpec::new(w.env().clone(), too_big).unwrap();
    let ag1 = w.ag1().unwrap();
    let ag2 = w.ag2().unwrap();
    let mapping = Substitution::new([(
        q_big,
        Expr::var(w.q2())
            .concat(w.z().in_flight())
            .concat(Expr::var(w.q1())),
    )]);
    let problem = CompositionProblem {
        vars: &vars,
        components: vec![&ag1, &ag2],
        target: &target,
        mapping,
    };
    let cert = opentla::compose(&problem, &CompositionOptions::default()).unwrap();
    // The safety part still holds (a too-big abstract queue allows
    // everything the real one does), but H2b fails: the abstract
    // (2N+2)-queue's fairness demands an Enq when |q̄| = 2N+1 and the
    // input is pending — which the saturated concrete pair cannot do.
    assert!(!cert.holds());
    let failure = cert.first_failure().unwrap();
    assert!(failure.id.starts_with("H2b"), "{}", failure.id);
    let opentla::ObligationStatus::Failed(cx) = &failure.status else {
        panic!("failed obligation must carry a counterexample");
    };
    // Replay: the lasso is a fair behavior of the product.
    let product = opentla::closed_product(
        &vars,
        &[w.env(), w.queue1(), w.queue2()],
    )
    .unwrap();
    let lasso = cx.to_lasso();
    let ctx = EvalCtx::with_universe(product.universe().clone());
    assert!(eval(&product.formula(), &lasso, &ctx).unwrap());
}
