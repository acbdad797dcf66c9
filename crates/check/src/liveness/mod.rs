//! Fairness-aware liveness checking.
//!
//! A liveness property fails on a finite-state system iff some **fair
//! lasso** violates it: a reachable cycle on which every one of the
//! system's fairness requirements can be satisfied while the property
//! is violated. The search is the classic one:
//!
//! 1. restrict the state graph to the states/edges a violating cycle
//!    may use (this encodes the *negation* of the property);
//! 2. enumerate strongly connected components of the restriction
//!    (single nodes count — TLA behaviors may stutter forever);
//! 3. check that each fairness requirement is *satisfiable* inside the
//!    component: a `WF` needs an internal step of its action or a state
//!    where it is disabled; an `SF` needs an internal step or the
//!    absence of any enabled state — when an `SF` fails only because of
//!    enabled states, those states are removed and the search recurses
//!    on the sub-components (the standard Streett-condition
//!    decomposition);
//! 4. build the counterexample: shortest prefix, then a cycle visiting
//!    a witness for every fairness requirement.
//!
//! Every returned [`Counterexample`] is a lasso that can be replayed
//! against the trace semantics of `opentla-semantics` — the test suite
//! does exactly that.
//!
//! # One engine
//!
//! The search is one sequential pass over one stored graph: flat
//! fairness tables ([`fair`]), one iterative Tarjan decomposition
//! ([`scc`]), then the components in Tarjan completion order, the first
//! fairness-satisfiable one with a reachable entry giving the lasso.
//! It reads no environment variable and has no engine selection;
//! [`LivenessOptions`] survives as an inert shape.
//!
//! # Interruption
//!
//! A budget that runs out leaves `verdict: None` and an
//! [`Outcome::Exhausted`] whose `frontier_size` counts the interrupted
//! phase's pending work exactly. Nothing is checkpointed: the tables
//! and the SCC pass, which a resume would have to re-derive, are most
//! of the phase, so an interrupted check is run again —
//! [`escalate`](crate::escalate) retries under a larger budget.

mod fair;
mod scc;

use crate::budget::{Budget, ExhaustReason, Governed, Meter, Outcome};
use crate::compiled::{CompiledExpr, EvalScratch};
use crate::image::{Classes, Images, Memo};
use crate::obs::{Phase, PhaseGuard, RecorderHandle};
use crate::{CheckError, Counterexample, StateGraph, System, Verdict};
use fair::{fair_subcomponent, EdgeTable, FairInfo, Waypoint};
use opentla_kernel::{Expr, Fairness, FairnessKind, SccScratch, Substitution};

/// Why the metered liveness core stopped: budget exhaustion (with the
/// exact count of pending work items in the interrupted phase) or a
/// hard error.
pub(crate) enum Stop {
    Exhausted { reason: ExhaustReason, pending: usize },
    Error(CheckError),
}

impl Stop {
    /// Exhaustion whose pending count the *caller* fills in via
    /// [`Stop::with_pending`] — leaf sites rarely know the phase total.
    fn exhausted(reason: ExhaustReason) -> Self {
        Stop::Exhausted { reason, pending: 0 }
    }

    /// Replaces the pending count of an exhaustion; errors pass
    /// through untouched.
    fn with_pending(self, pending: usize) -> Self {
        match self {
            Stop::Exhausted { reason, .. } => Stop::Exhausted { reason, pending },
            err => err,
        }
    }
}

impl From<CheckError> for Stop {
    fn from(e: CheckError) -> Self {
        Stop::Error(e)
    }
}

/// Charges one edge probe of the tables or a component scan.
fn charge_edge(meter: &Meter) -> Result<(), Stop> {
    meter
        .charge_transition()
        .map_or(Ok(()), |reason| Err(Stop::exhausted(reason)))
}

/// The liveness property to verify. `Expr`s are state predicates.
#[derive(Clone, Debug)]
pub enum LiveTarget {
    /// The system guarantees this fairness condition (typically an
    /// abstract `WF`/`SF` obligation under a refinement mapping).
    ///
    /// # Mapped and pre-substituted targets
    ///
    /// A target over *abstract* variables comes with the refinement
    /// `mapping` that eliminates them: `fair` and `enabled_with` are
    /// the **un**substituted abstract condition and predicate, and the
    /// check substitutes. That is what lets it decide each table entry
    /// once per [image class](crate::image) — the abstract expressions
    /// say which variables the obligation looks at, and every other
    /// variable of the product is ignored — instead of once per
    /// concrete edge. A caller may also substitute itself and pass the
    /// result with an empty mapping ([`LiveTarget::fair_with_enabled`]);
    /// the verdict and the lasso are the same, but the substituted
    /// expressions mention the mapping's concrete variables, so states
    /// rarely share a class and the check evaluates per edge.
    ///
    /// `enabled_with`, if given, is the state predicate to use as
    /// `Enabled ⟨A⟩_v` instead of the brute-force next-state search
    /// over the system's universe. This matters for refinement
    /// mappings: **`Enabled` does not commute with substitution** (the
    /// classic TLA caveat), so the enabledness of a mapped abstract
    /// action must be the *abstract* one — for guarded abstract actions
    /// that is "some guard holds and its update would change the
    /// subscript", mapped through the refinement — not what the
    /// concrete successors happen to realize. The `opentla::compose`
    /// engine supplies exactly that predicate. An over-approximation of
    /// the true enabledness keeps `Holds` verdicts sound (more
    /// violation candidates are searched); an under-approximation would
    /// not. For the same reason a non-empty `mapping` without
    /// `enabled_with` is refused ([`CheckError::Precondition`]): the
    /// universe search would push `Enabled` through the substitution.
    Fair {
        /// The fairness condition to establish.
        fair: Fairness,
        /// Optional explicit enabledness predicate for the angle
        /// action.
        enabled_with: Option<Expr>,
        /// The refinement mapping to apply to both (empty: they are
        /// already over the system's variables).
        mapping: Substitution,
    },
    /// `◇P`.
    Eventually(Expr),
    /// `□◇P`.
    AlwaysEventually(Expr),
    /// `◇□P`.
    EventuallyAlways(Expr),
    /// `P ↝ Q`.
    LeadsTo(Expr, Expr),
}

impl LiveTarget {
    /// A fairness target whose enabledness is decided by next-state
    /// search over the system's universe (right for unmapped,
    /// concrete-variable actions).
    pub fn fair(fair: Fairness) -> Self {
        LiveTarget::Fair {
            fair,
            enabled_with: None,
            mapping: Substitution::default(),
        }
    }

    /// A fairness target over the system's own variables with an
    /// explicit enabledness predicate: [`LiveTarget::fair_mapped`]
    /// under the empty mapping.
    pub fn fair_with_enabled(fair: Fairness, enabled: Expr) -> Self {
        LiveTarget::fair_mapped(fair, enabled, Substitution::default())
    }

    /// An abstract fairness target under a refinement mapping: `fair`
    /// and `enabled` are unsubstituted (see [`LiveTarget::Fair`]).
    pub fn fair_mapped(fair: Fairness, enabled: Expr, mapping: Substitution) -> Self {
        LiveTarget::Fair {
            fair,
            enabled_with: Some(enabled),
            mapping,
        }
    }
}

/// The options [`check_liveness_governed_with`] accepts. None selects
/// anything: liveness has one engine.
#[derive(Clone, Debug, Default)]
pub struct LivenessOptions {
    /// Accepted and ignored. It requested workers of a parallel engine
    /// that measured slower than this one and was deleted; the field
    /// stays until the benchmark harness that names it stops doing so.
    pub threads: Option<usize>,
}

/// Per-fairness-requirement facts about the graph live in [`fair`];
/// what the violating cycle must look like, beyond fairness:
pub(crate) struct Violation {
    /// Description for the counterexample.
    reason: String,
    /// States the cycle may visit.
    cycle_node_ok: Vec<bool>,
    /// Edges the cycle may *not* take (`None` = it may take all): the
    /// target's own angle table, not a negated copy.
    cycle_edge_banned: Option<EdgeTable>,
    /// States the (post-`starts`) path may visit (`None` = all).
    path_node_ok: Option<Vec<bool>>,
    /// Where the violating suffix may begin (each must be reachable;
    /// the prefix up to it is unrestricted).
    starts: Vec<usize>,
    /// The cycle must contain a state from this set (`None` = no
    /// requirement).
    must_contain: Option<Vec<bool>>,
}

impl Violation {
    /// Whether a violating cycle may take the `i`-th edge of `s`.
    fn edge_ok(&self, graph: &StateGraph, s: usize, i: usize) -> bool {
        self.cycle_node_ok[s]
            && self.cycle_node_ok[graph.edges(s)[i].target]
            && self
                .cycle_edge_banned
                .as_ref()
                .is_none_or(|banned| !banned.get(graph, s, i))
    }
}

/// Checks a liveness property of the system.
///
/// # Errors
///
/// Propagates evaluation errors (e.g. a type error in a predicate or in
/// the target's action).
///
/// # Example
///
/// A counter reaches its bound only under weak fairness:
///
/// ```
/// use opentla_check::{
///     check_liveness, explore, ExploreOptions, GuardedAction, Init, LiveTarget,
///     System, SystemFairness,
/// };
/// use opentla_kernel::{Domain, Expr, Value, Vars};
///
/// # fn main() -> Result<(), opentla_check::CheckError> {
/// let mut vars = Vars::new();
/// let x = vars.declare("x", Domain::int_range(0, 2));
/// let incr = GuardedAction::new(
///     "incr",
///     Expr::var(x).lt(Expr::int(2)),
///     vec![(x, Expr::var(x).add(Expr::int(1)))],
/// );
/// let goal = LiveTarget::Eventually(Expr::var(x).eq(Expr::int(2)));
///
/// // Without fairness the system may stutter forever.
/// let lazy = System::new(vars.clone(), Init::new([(x, Value::Int(0))]), vec![incr.clone()]);
/// let graph = explore(&lazy, &ExploreOptions::default())?;
/// assert!(!check_liveness(&lazy, &graph, &goal)?.holds());
///
/// // WF(incr) forces progress.
/// let eager = System::new(vars, Init::new([(x, Value::Int(0))]), vec![incr])
///     .with_fairness(SystemFairness::weak(vec![0], vec![x]));
/// let graph = explore(&eager, &ExploreOptions::default())?;
/// assert!(check_liveness(&eager, &graph, &goal)?.holds());
/// # Ok(())
/// # }
/// ```
pub fn check_liveness(
    system: &System,
    graph: &StateGraph,
    target: &LiveTarget,
) -> Result<Verdict, CheckError> {
    let run = check_liveness_governed(system, graph, target, &Budget::unlimited())?;
    Ok(run
        .verdict
        .expect("an unlimited budget cannot be exhausted"))
}

/// Result of a budget-governed liveness check: the verdict when the
/// budget sufficed to decide it, plus the run's [`Outcome`].
#[derive(Clone, Debug)]
pub struct LivenessRun {
    /// `Some` iff the check ran to a decision within budget. A
    /// decision reached before exhaustion (e.g. a violation found
    /// early) is authoritative.
    pub verdict: Option<Verdict>,
    /// How the run ended. On exhaustion, `frontier_size` counts the
    /// pending work items of the interrupted phase exactly: states
    /// whose fairness-table rows were not yet committed, subgraph
    /// nodes the SCC pass had not yet visited, or components not yet
    /// analyzed. It carries no resume token: an interrupted check is
    /// run again.
    pub outcome: Outcome,
}

impl Governed for LivenessRun {
    fn exhaustion(&self) -> Option<&ExhaustReason> {
        self.outcome.exhaustion()
    }
}

/// Checks a liveness property under a resource [`Budget`].
///
/// The budget's transition limit meters edge-level work (fairness
/// tables, component search); the deadline and cancellation flag are
/// polled at loop heads. Exhaustion yields `verdict: None` with an
/// [`Outcome::Exhausted`] tag — never a hard error — so callers can
/// [`escalate`](crate::escalate) or report partial coverage.
///
/// # Errors
///
/// Propagates evaluation errors, as [`check_liveness`] does.
pub fn check_liveness_governed(
    system: &System,
    graph: &StateGraph,
    target: &LiveTarget,
    budget: &Budget,
) -> Result<LivenessRun, CheckError> {
    liveness_driver(system, graph, target, None, budget)
}

/// [`check_liveness_governed`]; `options` are ignored (see
/// [`LivenessOptions`]).
///
/// # Errors
///
/// Propagates evaluation errors, as [`check_liveness`] does.
pub fn check_liveness_governed_with(
    system: &System,
    graph: &StateGraph,
    target: &LiveTarget,
    budget: &Budget,
    _options: &LivenessOptions,
) -> Result<LivenessRun, CheckError> {
    check_liveness_governed(system, graph, target, budget)
}

/// [`check_liveness_governed`] for a [`LiveTarget::Fair`] under a
/// refinement mapping, the mapping's values read from `images` instead
/// of evaluated: how several obligations over one graph share one
/// evaluation of their mapping (the Composition Theorem's hypotheses
/// 2(a) and 2(b) do). Verdict, lasso, charges and errors are those of
/// [`check_liveness_governed`]; other targets have no mapping and
/// ignore `images`.
///
/// # Errors
///
/// As [`check_liveness`], and [`CheckError::Precondition`] if `images`
/// are not of `graph` under the target's mapping.
pub fn check_liveness_with_images(
    system: &System,
    graph: &StateGraph,
    target: &LiveTarget,
    images: &Images,
    budget: &Budget,
) -> Result<LivenessRun, CheckError> {
    liveness_driver(system, graph, target, Some(images), budget)
}

fn liveness_driver(
    system: &System,
    graph: &StateGraph,
    target: &LiveTarget,
    images: Option<&Images>,
    budget: &Budget,
) -> Result<LivenessRun, CheckError> {
    // A reduced graph's edges connect canonical orbit representatives
    // rather than genuine step endpoints — fair-cycle detection over
    // such a graph is unsound in both directions. We refuse rather than
    // fight it: re-explore with `Reduction::none()` for liveness.
    if graph.is_reduced() {
        return Err(CheckError::Precondition {
            message: "liveness checking needs the full state graph; this graph \
                      was explored under a Reduction (re-explore with \
                      Reduction::none())"
                .to_string(),
        });
    }
    let _phase = PhaseGuard::enter(&budget.recorder, Phase::Liveness);
    let meter = Meter::start(budget);
    let decided = decide(system, graph, target, images, &meter);
    if let Ok(Verdict::Violated(cx)) = &decided {
        crate::obs::emit_counterexample(&budget.recorder, "liveness", cx);
    }
    match decided {
        Ok(verdict) => Ok(LivenessRun {
            verdict: Some(verdict),
            outcome: Outcome::Complete,
        }),
        Err(Stop::Exhausted { reason, pending }) => Ok(LivenessRun {
            verdict: None,
            outcome: Outcome::Exhausted {
                reason,
                frontier_size: pending,
                stats: graph.stats(),
                resume: None,
            },
        }),
        Err(Stop::Error(e)) => Err(e),
    }
}

fn decide(
    system: &System,
    graph: &StateGraph,
    target: &LiveTarget,
    images: Option<&Images>,
    meter: &Meter,
) -> Result<Verdict, Stop> {
    let violation = build_violation(system, graph, target, images, meter)?;
    let fair_infos = fair::system_fair_infos(system, graph, meter)?;
    match find_violation(system, graph, &fair_infos, &violation, meter)? {
        Some(cx) => Ok(Verdict::Violated(cx)),
        None => Ok(Verdict::Holds),
    }
}

/// `p` at every state, decided once per class of `p`'s variables: by
/// `p` compiled, on a miss, and by the interpreter where that errs or
/// the state has no class.
fn eval_pred(
    graph: &StateGraph,
    p: &Expr,
    recorder: &RecorderHandle,
) -> Result<Vec<bool>, CheckError> {
    let unmapped = Images::default();
    let classes = Classes::of_graph(graph, &p.all_vars(), &unmapped);
    let program = CompiledExpr::compile(p);
    let scratch = &mut EvalScratch::new();
    let mut holds = Memo::new(&classes);
    let table = graph
        .states()
        .iter()
        .enumerate()
        .map(|(id, s)| {
            holds
                .state(
                    id,
                    |s_bar| program.holds(&s_bar, scratch),
                    || p.holds_state(s),
                )
                .map_err(CheckError::from)
        })
        .collect();
    drop(holds);
    classes.report(recorder, "liveness");
    table
}

fn build_violation(
    system: &System,
    graph: &StateGraph,
    target: &LiveTarget,
    images: Option<&Images>,
    meter: &Meter,
) -> Result<Violation, Stop> {
    let all = vec![true; graph.len()];
    Ok(match target {
        LiveTarget::Fair {
            fair,
            enabled_with,
            mapping,
        } => {
            let (angle, enabled) = fair::target_fair_info(
                system,
                graph,
                fair,
                enabled_with.as_ref(),
                mapping,
                images,
                meter,
            )?;
            match fair.kind {
                FairnessKind::Weak => Violation {
                    reason: "target WF violated: its action stays enabled but is never taken"
                        .into(),
                    cycle_node_ok: enabled,
                    cycle_edge_banned: Some(angle),
                    path_node_ok: None,
                    starts: graph.init().to_vec(),
                    must_contain: None,
                },
                FairnessKind::Strong => Violation {
                    reason:
                        "target SF violated: its action is enabled infinitely often but taken only finitely often"
                            .into(),
                    cycle_node_ok: all,
                    cycle_edge_banned: Some(angle),
                    path_node_ok: None,
                    starts: graph.init().to_vec(),
                    must_contain: Some(enabled),
                },
            }
        }
        LiveTarget::Eventually(p) => {
            let pv = eval_pred(graph, p, meter.recorder())?;
            let not_p: Vec<bool> = pv.iter().map(|b| !b).collect();
            Violation {
                reason: format!("◇({}) violated", p.display(system.vars())),
                cycle_node_ok: not_p.clone(),
                cycle_edge_banned: None,
                path_node_ok: Some(not_p.clone()),
                starts: graph
                    .init()
                    .iter()
                    .copied()
                    .filter(|i| not_p[*i])
                    .collect(),
                must_contain: None,
            }
        }
        LiveTarget::AlwaysEventually(p) => {
            let pv = eval_pred(graph, p, meter.recorder())?;
            let not_p: Vec<bool> = pv.iter().map(|b| !b).collect();
            Violation {
                reason: format!("□◇({}) violated", p.display(system.vars())),
                cycle_node_ok: not_p,
                cycle_edge_banned: None,
                path_node_ok: None,
                starts: graph.init().to_vec(),
                must_contain: None,
            }
        }
        LiveTarget::EventuallyAlways(p) => {
            let pv = eval_pred(graph, p, meter.recorder())?;
            let not_p: Vec<bool> = pv.iter().map(|b| !b).collect();
            Violation {
                reason: format!("◇□({}) violated", p.display(system.vars())),
                cycle_node_ok: all,
                cycle_edge_banned: None,
                path_node_ok: None,
                starts: graph.init().to_vec(),
                must_contain: Some(not_p),
            }
        }
        LiveTarget::LeadsTo(p, q) => {
            let pv = eval_pred(graph, p, meter.recorder())?;
            let qv = eval_pred(graph, q, meter.recorder())?;
            let not_q: Vec<bool> = qv.iter().map(|b| !b).collect();
            let starts: Vec<usize> = (0..graph.len())
                .filter(|i| pv[*i] && not_q[*i])
                .collect();
            Violation {
                reason: format!(
                    "({}) ↝ ({}) violated",
                    p.display(system.vars()),
                    q.display(system.vars())
                ),
                cycle_node_ok: not_q.clone(),
                cycle_edge_banned: None,
                path_node_ok: Some(not_q),
                starts,
                must_contain: None,
            }
        }
    })
}

fn find_violation(
    system: &System,
    graph: &StateGraph,
    fair_infos: &[FairInfo],
    v: &Violation,
    meter: &Meter,
) -> Result<Option<Counterexample>, Stop> {
    if v.starts.is_empty() {
        return Ok(None);
    }
    let edge_ok = |s: usize, i: usize| v.edge_ok(graph, s, i);
    // SCCs of the restricted graph.
    let mut scratch = SccScratch::new();
    let sccs = scc::tarjan_sccs(graph, &v.cycle_node_ok, &edge_ok, meter, &mut scratch)?;
    // Which states can begin the violating suffix (path constraint).
    let path_region = reachable_from(graph, &v.starts, v.path_node_ok.as_deref());
    for (idx, scc_nodes) in sccs.iter().enumerate() {
        // Exact: this component and the ones after it.
        let pending = sccs.len() - idx;
        if let Some(reason) = meter.checkpoint() {
            return Err(Stop::Exhausted { reason, pending });
        }
        let fair = fair_subcomponent(
            graph,
            fair_infos,
            &edge_ok,
            scc_nodes,
            v.must_contain.as_deref(),
            meter,
            &mut scratch,
        )
        .map_err(|stop| stop.with_pending(pending))?;
        if let Some((nodes, waypoints)) = fair {
            // Entry: a node of the component reachable under the path
            // constraint.
            if let Some(&entry) = nodes.iter().find(|n| path_region[**n]) {
                return Ok(Some(build_counterexample(
                    system, graph, v, &nodes, &waypoints, entry, &edge_ok,
                )));
            }
        }
    }
    Ok(None)
}

/// States reachable from `starts` through states satisfying
/// `node_ok` (`None` = all). Start states must satisfy it themselves.
fn reachable_from(
    graph: &StateGraph,
    starts: &[usize],
    node_ok: Option<&[bool]>,
) -> Vec<bool> {
    let ok = |n: usize| node_ok.is_none_or(|f| f[n]);
    let mut seen = vec![false; graph.len()];
    let mut queue: std::collections::VecDeque<usize> = starts
        .iter()
        .copied()
        .filter(|n| ok(*n))
        .inspect(|n| seen[*n] = true)
        .collect();
    while let Some(s) = queue.pop_front() {
        for e in graph.edges(s) {
            if ok(e.target) && !seen[e.target] {
                seen[e.target] = true;
                queue.push_back(e.target);
            }
        }
    }
    seen
}

/// BFS path inside a filtered graph, returning `(action id, node)`
/// hops after `from`: an empty path means `from` is the goal.
fn path_filtered(
    graph: &StateGraph,
    from: usize,
    goal: &dyn Fn(usize) -> bool,
    node_ok: &dyn Fn(usize) -> bool,
    edge_ok: &dyn Fn(usize, usize) -> bool,
) -> Option<Vec<(usize, usize)>> {
    if goal(from) {
        return Some(Vec::new());
    }
    let mut prev: std::collections::HashMap<usize, (usize, usize)> =
        std::collections::HashMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(s) = queue.pop_front() {
        for (i, e) in graph.edges(s).iter().enumerate() {
            if !edge_ok(s, i) || !node_ok(e.target) {
                continue;
            }
            if e.target == from || prev.contains_key(&e.target) {
                continue;
            }
            prev.insert(e.target, (s, e.action));
            if goal(e.target) {
                let mut rev = Vec::new();
                let mut cur = e.target;
                while cur != from {
                    let (p, action) = prev[&cur];
                    rev.push((action, cur));
                    cur = p;
                }
                rev.reverse();
                return Some(rev);
            }
            queue.push_back(e.target);
        }
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn build_counterexample(
    system: &System,
    graph: &StateGraph,
    v: &Violation,
    nodes: &[usize],
    waypoints: &[Waypoint],
    entry: usize,
    edge_ok: &dyn Fn(usize, usize) -> bool,
) -> Counterexample {
    let action_name =
        |i: usize| -> Option<String> { Some(system.actions()[i].name().to_string()) };
    // Prefix: unrestricted shortest trace to the suffix start, then a
    // path (under the path constraint) from the start to the entry.
    let start = *v
        .starts
        .iter()
        .find(|s| {
            let region = reachable_from(graph, &[**s], v.path_node_ok.as_deref());
            region[entry]
        })
        .expect("entry was reachable from some start");
    let mut ids: Vec<(Option<usize>, usize)> = graph.trace_to(start);
    let path_ok = |n: usize| v.path_node_ok.as_ref().is_none_or(|f| f[n]);
    let to_entry = path_filtered(
        graph,
        start,
        &|n| n == entry,
        &path_ok,
        &|_, _| true,
    )
    .expect("reachability established");
    ids.extend(to_entry.iter().map(|(a, n)| (Some(*a), *n)));

    let loop_start = ids.len() - 1; // Index of `entry` in the trace.

    // Cycle: visit every waypoint inside the component, then return.
    // `nodes` is a Tarjan component: sorted ascending.
    let in_nodes = |n: usize| nodes.binary_search(&n).is_ok();
    let comp_edge_ok = |s: usize, i: usize| edge_ok(s, i) && in_nodes(graph.edges(s)[i].target);
    let mut cur = entry;
    let append_path_to = |goal: usize, ids: &mut Vec<(Option<usize>, usize)>, cur: &mut usize| {
        let hops = path_filtered(graph, *cur, &|n| n == goal, &in_nodes, &comp_edge_ok)
            .expect("component is strongly connected");
        ids.extend(hops.iter().map(|(a, n)| (Some(*a), *n)));
        *cur = goal;
    };
    for wp in waypoints {
        match wp {
            Waypoint::Node(n) => append_path_to(*n, &mut ids, &mut cur),
            Waypoint::Edge(s, i) => {
                append_path_to(*s, &mut ids, &mut cur);
                let e = graph.edges(*s)[*i];
                ids.push((Some(e.action), e.target));
                cur = e.target;
            }
        }
    }
    if cur != entry {
        append_path_to(entry, &mut ids, &mut cur);
        // The walk re-appended `entry`; drop it — the lasso wraps there.
        ids.pop();
    }
    let states = ids.iter().map(|(_, n)| graph.state(*n).clone()).collect();
    let actions = ids
        .iter()
        .map(|(a, _)| a.and_then(action_name))
        .collect();
    Counterexample::new(v.reason.clone(), states, actions, Some(loop_start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, ExploreOptions, GuardedAction, Init, SystemFairness};
    use opentla_kernel::{Domain, Formula, Value, VarId, Vars};
    use opentla_semantics::{eval, EvalCtx};

    /// x counts 0..=3; `incr` increments, `reset` jumps back to 0.
    fn counter(fair: bool) -> (System, VarId) {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, 3));
        let incr = GuardedAction::new(
            "incr",
            Expr::var(x).lt(Expr::int(3)),
            vec![(x, Expr::var(x).add(Expr::int(1)))],
        );
        let mut sys = System::new(vars, Init::new([(x, Value::Int(0))]), vec![incr]);
        if fair {
            let frame = sys.frame();
            sys = sys.with_fairness(SystemFairness::weak(vec![0], frame));
        }
        (sys, x)
    }

    fn confirm_semantically(
        system: &System,
        graph: &StateGraph,
        cx: &Counterexample,
        target: &Formula,
    ) {
        // The counterexample must be a real fair behavior of the system
        // that violates the target, each labelled hop a step of the
        // action it names.
        let lasso = cx.to_lasso();
        let ctx = EvalCtx::with_universe(system.universe().clone());
        let spec = system.formula();
        assert!(
            eval(&spec, &lasso, &ctx).unwrap(),
            "counterexample must satisfy the system spec (incl. fairness)"
        );
        assert!(
            !eval(target, &lasso, &ctx).unwrap(),
            "counterexample must violate the target"
        );
        let id = |k: usize| {
            let at = graph.states().iter().position(|s| s == &cx.states()[k]);
            at.expect("a graph state")
        };
        for (k, label) in cx.actions().iter().enumerate().skip(1) {
            let Some(label) = label else { continue };
            let (from, to) = (id(k - 1), id(k));
            assert!(
                graph
                    .edges(from)
                    .iter()
                    .any(|e| e.target == to && system.actions()[e.action].name() == label),
                "hop {k} is labelled {label:?}, which has no edge {from} → {to}"
            );
        }
    }

    #[test]
    fn eventually_fails_without_fairness() {
        let (sys, x) = counter(false);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let p = Expr::var(x).eq(Expr::int(3));
        let verdict =
            check_liveness(&sys, &graph, &LiveTarget::Eventually(p.clone())).unwrap();
        let cx = verdict.counterexample().expect("stuttering violates ◇");
        confirm_semantically(&sys, &graph, cx, &Formula::pred(p).eventually());
    }

    #[test]
    fn governed_liveness_reports_exhaustion_not_error() {
        use crate::Budget;
        let (sys, x) = counter(true);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let p = Expr::var(x).eq(Expr::int(3));
        let target = LiveTarget::Eventually(p);
        // A transition budget of 1 cannot even build the fairness
        // tables: the verdict is undecided, the outcome explains why.
        let run = check_liveness_governed(
            &sys,
            &graph,
            &target,
            &Budget::default().transitions(1),
        )
        .unwrap();
        assert!(run.verdict.is_none());
        assert!(matches!(
            run.outcome.exhaustion(),
            Some(crate::ExhaustReason::TransitionLimit { limit: 1 })
        ));
        // Escalating geometrically reaches a decision.
        let run = crate::escalate(&Budget::default().transitions(1), 8, 4, |b| {
            check_liveness_governed(&sys, &graph, &target, b)
        })
        .unwrap();
        assert!(run.verdict.expect("escalated budget decides").holds());
    }

    #[test]
    fn governed_liveness_honors_cancellation() {
        use crate::Budget;
        let (sys, x) = counter(false);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let budget = Budget::default();
        budget.request_cancel();
        let run = check_liveness_governed(
            &sys,
            &graph,
            &LiveTarget::Eventually(Expr::var(x).eq(Expr::int(3))),
            &budget,
        )
        .unwrap();
        assert!(run.verdict.is_none());
        assert!(matches!(
            run.outcome.exhaustion(),
            Some(crate::ExhaustReason::Cancelled)
        ));
    }

    #[test]
    fn eventually_holds_with_fairness() {
        let (sys, x) = counter(true);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let p = Expr::var(x).eq(Expr::int(3));
        assert!(check_liveness(&sys, &graph, &LiveTarget::Eventually(p))
            .unwrap()
            .holds());
    }

    #[test]
    fn leads_to() {
        let (sys, x) = counter(true);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let p = Expr::var(x).eq(Expr::int(1));
        let q = Expr::var(x).eq(Expr::int(3));
        assert!(
            check_liveness(&sys, &graph, &LiveTarget::LeadsTo(p.clone(), q.clone()))
                .unwrap()
                .holds()
        );
        // Reverse direction is violated: x = 3 is terminal (only
        // stuttering remains), so ◇(x = 1) fails from there.
        let verdict =
            check_liveness(&sys, &graph, &LiveTarget::LeadsTo(q.clone(), p.clone()))
                .unwrap();
        let cx = verdict.counterexample().expect("3 never leads to 1");
        confirm_semantically(
            &sys,
            &graph, cx,
            &Formula::pred(q).leads_to(Formula::pred(p)),
        );
    }

    #[test]
    fn eventually_always_and_always_eventually() {
        let (sys, x) = counter(true);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        // ◇□(x = 3): holds — fairness drives x to 3, which is terminal.
        let p = Expr::var(x).eq(Expr::int(3));
        assert!(
            check_liveness(&sys, &graph, &LiveTarget::EventuallyAlways(p.clone()))
                .unwrap()
                .holds()
        );
        // □◇(x = 0): fails — x never returns to 0.
        let z = Expr::var(x).eq(Expr::int(0));
        let verdict =
            check_liveness(&sys, &graph, &LiveTarget::AlwaysEventually(z.clone()))
                .unwrap();
        let cx = verdict.counterexample().expect("x leaves 0 forever");
        confirm_semantically(
            &sys,
            &graph, cx,
            &Formula::pred(z).eventually().always(),
        );
    }

    /// Toggle system with two actions; weak fairness on one of them.
    fn toggle_pair() -> (System, VarId, VarId) {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        let y = vars.declare("y", Domain::bits());
        let set_x = GuardedAction::new(
            "set_x",
            Expr::var(x).eq(Expr::int(0)),
            vec![(x, Expr::int(1))],
        );
        let toggle_y = GuardedAction::new(
            "toggle_y",
            Expr::bool(true),
            vec![(y, Expr::int(1).sub(Expr::var(y)))],
        );
        let sys = System::new(
            vars,
            Init::new([(x, Value::Int(0)), (y, Value::Int(0))]),
            vec![set_x, toggle_y],
        );
        (sys, x, y)
    }

    #[test]
    fn target_wf_obligation() {
        // Without system fairness, the target WF(set_x) is violated by
        // toggling y forever.
        let (sys, x, _) = toggle_pair();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let frame = sys.frame();
        let set_x_expr = sys.actions()[0].action_expr(&frame);
        let target = Fairness::weak(set_x_expr.clone(), vec![x]);
        let verdict =
            check_liveness(&sys, &graph, &LiveTarget::fair(target.clone())).unwrap();
        let cx = verdict.counterexample().expect("y-toggling starves set_x");
        confirm_semantically(&sys, &graph, cx, &Formula::Fair(target.clone()));

        // With WF on set_x as a system requirement, the obligation
        // holds.
        let sys = sys.with_fairness(SystemFairness::weak(vec![0], vec![x]));
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert!(check_liveness(&sys, &graph, &LiveTarget::fair(target))
            .unwrap()
            .holds());
    }

    #[test]
    fn strong_fairness_distinguished() {
        // Action `grab` is enabled only when y = 0, and y toggles
        // forever: enabled infinitely often, disabled infinitely often.
        // WF(grab) is satisfied by the toggling run; SF(grab) is not.
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        let y = vars.declare("y", Domain::bits());
        let grab = GuardedAction::new(
            "grab",
            Expr::all([Expr::var(y).eq(Expr::int(0)), Expr::var(x).eq(Expr::int(0))]),
            vec![(x, Expr::int(1))],
        );
        let toggle_y = GuardedAction::new(
            "toggle_y",
            Expr::bool(true),
            vec![(y, Expr::int(1).sub(Expr::var(y)))],
        );
        let sys = System::new(
            vars,
            Init::new([(x, Value::Int(0)), (y, Value::Int(0))]),
            vec![grab, toggle_y],
        );
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let frame = sys.frame();
        let grab_expr = sys.actions()[0].action_expr(&frame);

        let wf_target = Fairness::weak(grab_expr.clone(), vec![x]);
        let sf_target = Fairness::strong(grab_expr.clone(), vec![x]);
        // Neither obligation holds for the bare system (stuttering or
        // staying at y=0 starves grab while it is enabled).
        assert!(!check_liveness(&sys, &graph, &LiveTarget::fair(wf_target.clone()))
            .unwrap()
            .holds());
        // Under system WF(toggle_y) + WF(grab): grab can still starve?
        // No: WF(grab) forces it whenever continuously enabled; but
        // toggling makes it non-continuously enabled, so WF(grab) is
        // satisfiable without firing grab — SF target must still fail.
        let sys = sys
            .with_fairness(SystemFairness::weak(vec![1], vec![y]))
            .with_fairness(SystemFairness::weak(vec![0], vec![x]));
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let wf_verdict =
            check_liveness(&sys, &graph, &LiveTarget::fair(wf_target.clone())).unwrap();
        assert!(wf_verdict.holds(), "WF target holds under system WF");
        let sf_verdict =
            check_liveness(&sys, &graph, &LiveTarget::fair(sf_target.clone())).unwrap();
        let cx = sf_verdict
            .counterexample()
            .expect("SF target fails: toggling starves grab fairly");
        confirm_semantically(&sys, &graph, cx, &Formula::Fair(sf_target));
    }

    #[test]
    fn system_sf_makes_target_hold() {
        // Same system, but now the *system* promises SF(grab) and
        // WF(toggle_y): toggling keeps grab enabled infinitely often,
        // SF excludes starving it, so ◇(x = 1) holds. (SF(grab) alone
        // would not suffice: the system could park at y = 1, where grab
        // is disabled, satisfying SF vacuously.)
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        let y = vars.declare("y", Domain::bits());
        let grab = GuardedAction::new(
            "grab",
            Expr::all([Expr::var(y).eq(Expr::int(0)), Expr::var(x).eq(Expr::int(0))]),
            vec![(x, Expr::int(1))],
        );
        let toggle_y = GuardedAction::new(
            "toggle_y",
            Expr::bool(true),
            vec![(y, Expr::int(1).sub(Expr::var(y)))],
        );
        let sys = System::new(
            vars,
            Init::new([(x, Value::Int(0)), (y, Value::Int(0))]),
            vec![grab, toggle_y],
        )
        .with_fairness(SystemFairness::strong(vec![0], vec![x]))
        .with_fairness(SystemFairness::weak(vec![1], vec![y]));
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let p = Expr::var(x).eq(Expr::int(1));
        assert!(
            check_liveness(&sys, &graph, &LiveTarget::Eventually(p.clone()))
                .unwrap()
                .holds(),
            "SF(grab) + WF(toggle_y) force grab"
        );
        // Under only WF(grab) it fails (the Streett decomposition must
        // find the toggling sub-component where grab is disabled —
        // wait, WF: the toggling cycle satisfies WF(grab) because grab
        // is disabled at y=1 states infinitely often).
        let sys2 = {
            let mut vars = Vars::new();
            let x = vars.declare("x", Domain::bits());
            let y = vars.declare("y", Domain::bits());
            let grab = GuardedAction::new(
                "grab",
                Expr::all([
                    Expr::var(y).eq(Expr::int(0)),
                    Expr::var(x).eq(Expr::int(0)),
                ]),
                vec![(x, Expr::int(1))],
            );
            let toggle_y = GuardedAction::new(
                "toggle_y",
                Expr::bool(true),
                vec![(y, Expr::int(1).sub(Expr::var(y)))],
            );
            System::new(
                vars,
                Init::new([(x, Value::Int(0)), (y, Value::Int(0))]),
                vec![grab, toggle_y],
            )
            .with_fairness(SystemFairness::weak(vec![0], vec![x]))
            .with_fairness(SystemFairness::weak(vec![1], vec![y]))
        };
        let graph2 = explore(&sys2, &ExploreOptions::default()).unwrap();
        let verdict =
            check_liveness(&sys2, &graph2, &LiveTarget::Eventually(p)).unwrap();
        assert!(!verdict.holds(), "WF(grab) is too weak");
    }

    #[test]
    fn streett_decomposition_for_system_sf() {
        // spin cycles y through 0, 1, 2; mark is enabled only at y = 2
        // and sets x. The system promises SF(mark).
        fn make(with_spin_wf: bool) -> System {
            let mut vars = Vars::new();
            let x = vars.declare("x", Domain::bits());
            let y = vars.declare("y", Domain::int_range(0, 2));
            let spin = GuardedAction::new(
                "spin",
                Expr::bool(true),
                vec![(
                    y,
                    Expr::var(y)
                        .eq(Expr::int(2))
                        .ite(Expr::int(0), Expr::var(y).add(Expr::int(1))),
                )],
            );
            let mark = GuardedAction::new(
                "mark",
                Expr::all([
                    Expr::var(y).eq(Expr::int(2)),
                    Expr::var(x).eq(Expr::int(0)),
                ]),
                vec![(x, Expr::int(1))],
            );
            let mut sys = System::new(
                vars,
                Init::new([(x, Value::Int(0)), (y, Value::Int(0))]),
                vec![spin, mark],
            )
            .with_fairness(SystemFairness::strong(vec![1], vec![x]));
            if with_spin_wf {
                sys = sys.with_fairness(SystemFairness::weak(vec![0], vec![y]));
            }
            sys
        }
        let x_of = |sys: &System| sys.vars().find("x").unwrap();

        // With SF(mark) alone, the system may loop below y = 2 (where
        // mark stays disabled), so ◇(x = 1) fails. Finding this
        // violation requires the Streett decomposition: the candidate
        // component contains y = 2 states where mark is enabled, and
        // they must be carved out.
        let sys = make(false);
        let p = Expr::var(x_of(&sys)).eq(Expr::int(1));
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let verdict =
            check_liveness(&sys, &graph, &LiveTarget::Eventually(p.clone())).unwrap();
        let cx = verdict
            .counterexample()
            .expect("looping below y=2 keeps mark disabled");
        confirm_semantically(&sys, &graph, cx, &Formula::pred(p.clone()).eventually());

        // Adding WF(spin) forces y to keep cycling, so mark is enabled
        // infinitely often and SF(mark) forces it: ◇(x = 1) holds.
        let sys = make(true);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert!(check_liveness(&sys, &graph, &LiveTarget::Eventually(p))
            .unwrap()
            .holds());
    }

    #[test]
    fn exhaustion_reports_exact_pending_in_tables() {
        use crate::Budget;
        // The counter graph has 4 states; a transition budget of 1
        // exhausts while building the fairness-table row of state 1,
        // leaving rows 1..4 (3 states) pending. The old engine
        // hardcoded 0 here.
        let (sys, x) = counter(true);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let target = LiveTarget::Eventually(Expr::var(x).eq(Expr::int(3)));
        let run = check_liveness_governed(
            &sys,
            &graph,
            &target,
            &Budget::default().transitions(1),
        )
        .unwrap();
        assert!(run.verdict.is_none());
        match &run.outcome {
            Outcome::Exhausted { frontier_size, .. } => assert_eq!(*frontier_size, 3),
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn exhaustion_reports_exact_pending_in_scc_pass() {
        use crate::Budget;
        // Tables cost 3 transitions (one per real edge); the 4th charge
        // visits the SCC pass, which exhausts its 2nd edge probe with
        // node 2 (of the 3-node restricted subgraph) still unvisited.
        let (sys, x) = counter(true);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let target = LiveTarget::Eventually(Expr::var(x).eq(Expr::int(3)));
        let run = check_liveness_governed(
            &sys,
            &graph,
            &target,
            &Budget::default().transitions(4),
        )
        .unwrap();
        assert!(run.verdict.is_none());
        match &run.outcome {
            Outcome::Exhausted { frontier_size, .. } => assert_eq!(*frontier_size, 1),
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn exhaustion_reports_exact_pending_in_component_loop() {
        use crate::Budget;
        // Tables (3) + SCC pass (3) + the first component's fairness
        // scan (1) fit in 7 transitions; the second of three components
        // exhausts, so exactly 2 remain pending.
        let (sys, x) = counter(true);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let target = LiveTarget::Eventually(Expr::var(x).eq(Expr::int(3)));
        let run = check_liveness_governed(
            &sys,
            &graph,
            &target,
            &Budget::default().transitions(7),
        )
        .unwrap();
        assert!(run.verdict.is_none());
        assert!(matches!(
            run.outcome.exhaustion(),
            Some(crate::ExhaustReason::TransitionLimit { limit: 7 })
        ));
        match &run.outcome {
            Outcome::Exhausted { frontier_size, .. } => assert_eq!(*frontier_size, 2),
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn handed_images_must_be_of_the_targets_mapping() {
        use crate::Budget;
        // x ↦ 3 − x: WF of "x̄ decreases" holds under WF(incr).
        let (sys, x) = counter(true);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let fair = Fairness::weak(Expr::prime(x).lt(Expr::var(x)), vec![x]);
        let enabled = Expr::var(x).gt(Expr::int(0));
        let mirror = Substitution::new([(x, Expr::int(3).sub(Expr::var(x)))]);
        let target = LiveTarget::fair_mapped(fair, enabled, mirror.clone());
        let own = check_liveness(&sys, &graph, &target).unwrap();
        assert!(own.holds());
        let run = |images: &Images| {
            check_liveness_with_images(&sys, &graph, &target, images, &Budget::default())
        };
        let images = Images::of_graph(&graph, &mirror, &RecorderHandle::default());
        assert!(run(&images).unwrap().verdict.unwrap().holds());
        let other = Substitution::new([(x, Expr::var(x))]);
        let images = Images::of_graph(&graph, &other, &RecorderHandle::default());
        assert!(matches!(run(&images), Err(CheckError::Precondition { .. })));
        assert!(matches!(
            run(&Images::default()),
            Err(CheckError::Precondition { .. })
        ));
    }
}
