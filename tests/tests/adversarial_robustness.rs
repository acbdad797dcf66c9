//! Adversarial fault injection end-to-end: the flagship lossy-ABP and
//! crash–restart queue-chain demos, a saboteur driven by
//! `faults::hostile_env`, and resource-governed checking degrading to
//! partial results.
//!
//! The point of every diagnosis below is the paper's `⊳` margin: when
//! the environment first breaks its assumption `E` at step `k`, the
//! guarantee `M` is still intact at state `k` — "M held k+1 steps,
//! E broken at step k", one step longer.

use opentla::{check_ag_safety_diagnosed, escalate, faults, Budget, Outcome};
use opentla_check::{explore, explore_governed, ExploreOptions, Verdict};
use opentla_kernel::Formula;
use opentla_queue::{FairnessStyle, QueueChain};
use opentla_scenarios::AlternatingBit;

#[test]
fn lossy_abp_wire_produces_a_one_step_longer_diagnosis() {
    let w = AlternatingBit::new(2);
    let sys = w.lossy_system().unwrap();
    let graph = explore(&sys, &ExploreOptions::default()).unwrap();
    // In-order delivery is genuinely lost…
    assert!(
        !opentla_check::check_invariant(&sys, &graph, &w.in_order_invariant())
            .unwrap()
            .holds(),
        "the lossy wire must deliver a stale payload"
    );
    // …but the receiver's E_r ⊳ M_r survives, with the loss pinned on
    // the injected fault.
    let report = check_ag_safety_diagnosed(
        &sys,
        &graph,
        &w.receiver_assumption(),
        &w.receiver_guarantee(),
    )
    .unwrap();
    assert!(report.holds());
    let brk = report.env_break.expect("the fault must break E_r");
    assert_eq!(brk.action.as_deref(), Some("fault:lossy[sync_f]"));
    let text = brk.to_string();
    assert!(
        text.contains(&format!("E broken at step {}", brk.step)),
        "{text}"
    );
    assert!(
        text.contains(&format!("M held {} steps", brk.step + 1)),
        "{text}"
    );
    // The trace really ends at the breaking state.
    assert_eq!(brk.trace.states().len(), brk.step + 1);
}

#[test]
fn crash_restart_environment_is_outlived_by_the_chained_queues() {
    let chain = QueueChain::new(2, 1, 2, FairnessStyle::None);
    let sys = chain.crashy_env_system().unwrap();
    let graph = explore(&sys, &ExploreOptions::default()).unwrap();
    let report = check_ag_safety_diagnosed(
        &sys,
        &graph,
        &chain.outer_assumption(),
        &chain.big_queue_guarantee().unwrap(),
    )
    .unwrap();
    assert!(
        report.holds(),
        "retracting a pending handshake hurts only the environment"
    );
    let brk = report.env_break.expect("the crash must break QE");
    assert_eq!(brk.action.as_deref(), Some("fault:crash_restart"));
    assert!(
        brk.to_string()
            .contains(&format!("M held {} steps", brk.step + 1)),
        "{brk}"
    );
}

#[test]
fn crash_restart_queue_is_refuted_with_action_and_step() {
    let chain = QueueChain::new(2, 1, 2, FairnessStyle::None);
    let sys = chain.crashy_queue_system(1).unwrap();
    let graph = explore(&sys, &ExploreOptions::default()).unwrap();
    let report = check_ag_safety_diagnosed(
        &sys,
        &graph,
        &chain.outer_assumption(),
        &chain.big_queue_guarantee().unwrap(),
    )
    .unwrap();
    assert!(!report.holds(), "a crashed buffer drops queued elements");
    let cx = match &report.verdict {
        Verdict::Violated(cx) => cx,
        other => panic!("expected a violation, got {other:?}"),
    };
    // The improved diagnosis names the offending action, the step it
    // struck, and the violated conjunct of the guarantee.
    assert!(
        cx.reason().contains("fault:crash_restart"),
        "{}",
        cx.reason()
    );
    assert!(cx.reason().contains("step"), "{}", cx.reason());
    assert!(cx.reason().contains("violated conjunct"), "{}", cx.reason());
}

#[test]
fn hostile_env_saboteur_breaks_the_assumption_on_schedule() {
    // Arm a saboteur against the ABP's in-order invariant, used here
    // as the environment assumption of the *sender*'s view: normal
    // protocol actions maintain it, so only the saboteur can break it
    // — and only once the step clock reaches `break_at`.
    let w = AlternatingBit::new(2);
    let base = w.complete_system().unwrap();
    let break_at = 2;
    let sys = faults::hostile_env(&base, &w.in_order_invariant(), break_at).unwrap();
    let graph = explore(&sys, &ExploreOptions::default()).unwrap();
    let env = Formula::pred(w.in_order_invariant()).always();
    let report = check_ag_safety_diagnosed(&sys, &graph, &env, &w.sender_guarantee()).unwrap();
    assert!(report.holds(), "the saboteur leaves the sender untouched");
    let brk = report.env_break.expect("the saboteur must break E");
    let action = brk.action.as_deref().unwrap();
    assert!(
        action.starts_with("fault:hostile_env"),
        "expected a saboteur action, got {action}"
    );
    // The clock keeps the saboteur disarmed before `break_at`, so the
    // break can only land strictly after that many steps.
    assert!(
        brk.step > break_at as usize,
        "break at step {} despite break_at = {break_at}",
        brk.step
    );
}

#[test]
fn governed_exploration_of_a_faulted_system_degrades_gracefully() {
    let w = AlternatingBit::new(2);
    let sys = w.lossy_system().unwrap();
    // A budget of 3 states exhausts but still hands back the partial
    // graph with honest statistics and a nonempty frontier.
    let run = explore_governed(&sys, &Budget::default().states(3)).unwrap();
    assert_eq!(run.graph.len(), 3);
    match &run.outcome {
        Outcome::Exhausted {
            reason,
            frontier_size,
            stats,
            ..
        } => {
            assert_eq!(stats.states, 3);
            assert!(*frontier_size > 0, "work must remain");
            assert!(reason.to_string().contains("state limit of 3"));
        }
        other => panic!("expected exhaustion, got {other}"),
    }
    // Geometric escalation eventually completes the same exploration.
    let full = escalate(&Budget::default().states(3), 4, 6, |b| {
        explore_governed(&sys, b)
    })
    .unwrap();
    assert!(full.outcome.is_complete());
    assert_eq!(
        full.graph.len(),
        explore(&sys, &ExploreOptions::default()).unwrap().len()
    );
}
