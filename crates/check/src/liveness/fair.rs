//! Fairness tables and per-component fairness satisfiability.
//!
//! The table builders precompute, per fairness requirement, which graph
//! edges are `⟨A⟩_v` steps and where the action is enabled, one state
//! row at a time in id order ([`table_rows`]). A per-edge table is flat:
//! one [`EdgeTable`] flag per graph edge, addressed through the graph's
//! own row index ([`StateGraph::edge_base`]), so a table costs a byte
//! per edge and one allocation — no heap row per state, no index of
//! its own.
//!
//! [`fair_subcomponent`] is the per-component satisfiability check,
//! including the Streett-style `SF` removal recursion. It is a pure
//! function of the component (plus the tables and the meter).

use super::{charge_edge, scc::tarjan_sccs, Stop};
use crate::budget::Meter;
use crate::compiled::{CompiledExpr, EvalScratch};
use crate::image::{Classes, Images, Memo};
use crate::{CheckError, StateGraph, System};
use opentla_kernel::{Expr, Fairness, FairnessKind, Formula, SccScratch, StatePair, Substitution};

/// One flag per graph edge, in graph order.
pub(super) struct EdgeTable(Vec<bool>);

impl EdgeTable {
    /// The flag of the `i`-th edge of `s` in `graph`, the graph the
    /// table was built over.
    pub(super) fn get(&self, graph: &StateGraph, s: usize, i: usize) -> bool {
        self.0[graph.edge_base(s) + i]
    }
}

/// Runs `row(id, flags)` for every state `id` of `graph`, in id order.
/// A row pushes one flag per edge of its state onto `flags` and returns
/// the state's own flag; the result is the flat per-edge table and the
/// per-state flags.
///
/// On failure the reported `pending` is exact in state units: the
/// states whose rows were not finished, `n - id` at the failing row.
fn table_rows(
    graph: &StateGraph,
    mut row: impl FnMut(usize, &mut Vec<bool>) -> Result<bool, Stop>,
) -> Result<(EdgeTable, Vec<bool>), Stop> {
    let n = graph.len();
    let mut edges = Vec::with_capacity(graph.edge_count());
    let mut states = Vec::with_capacity(n);
    for id in 0..n {
        states.push(row(id, &mut edges).map_err(|stop| stop.with_pending(n - id))?);
    }
    assert_eq!(edges.len(), graph.edge_count(), "a flag per graph edge");
    Ok((EdgeTable(edges), states))
}

/// Per-fairness-requirement facts about the graph.
pub(super) struct FairInfo {
    pub(super) kind: FairnessKind,
    /// Is the i-th edge of `s` an `⟨A⟩_v` step?
    pub(super) angle: EdgeTable,
    /// Is `⟨A⟩_v` enabled in state `s`?
    pub(super) enabled: Vec<bool>,
    /// Human-readable name for diagnostics.
    #[allow(dead_code)]
    pub(super) name: String,
}

pub(super) fn system_fair_infos(
    system: &System,
    graph: &StateGraph,
    meter: &Meter,
) -> Result<Vec<FairInfo>, Stop> {
    system
        .fairness()
        .iter()
        .map(|f| {
            let (angle, enabled) = table_rows(graph, |id, flags| {
                let s = graph.state(id);
                let mut fires = false;
                for e in graph.edges(id) {
                    charge_edge(meter)?;
                    let angle = f.action_ids.contains(&e.action)
                        && !s.agrees_with(graph.state(e.target), &f.sub);
                    flags.push(angle);
                    fires |= angle;
                }
                Ok(fires)
            })?;
            let names: Vec<&str> = f
                .action_ids
                .iter()
                .map(|i| system.actions()[*i].name())
                .collect();
            Ok(FairInfo {
                kind: f.kind,
                angle,
                enabled,
                name: format!(
                    "{}({})",
                    match f.kind {
                        FairnessKind::Weak => "WF",
                        FairnessKind::Strong => "SF",
                    },
                    names.join(" ∨ ")
                ),
            })
        })
        .collect()
}

/// Facts about the target fairness condition (semantic, since the
/// action may be an abstract action under a refinement mapping):
/// `(angle, enabled)`, shaped like the fields of [`FairInfo`].
///
/// `fair` and `enabled_with` are over the target's own variables and
/// `mapping` eliminates the abstract ones; `images`, if given, are of
/// it. Each entry is decided once per image class (pair) of the
/// unsubstituted expressions, by running those compiled on the views of
/// the abstract state or step; the substituted expression is
/// interpreted on the concrete one only where [`Memo`] says it must (no
/// class, or the abstract evaluation erred). Charges and polls stay per
/// concrete edge and row.
pub(super) fn target_fair_info(
    system: &System,
    graph: &StateGraph,
    fair: &Fairness,
    enabled_with: Option<&Expr>,
    mapping: &Substitution,
    images: Option<&Images>,
    meter: &Meter,
) -> Result<(EdgeTable, Vec<bool>), Stop> {
    let abstract_angle = fair.angle_action();
    let (angle_expr, enabled_pred) = if mapping.is_empty() {
        (abstract_angle.clone(), enabled_with.cloned())
    } else {
        let Some(enabled) = enabled_with else {
            return Err(Stop::Error(CheckError::Precondition {
                message: "a fairness target under a refinement mapping needs an \
                          explicit enabledness predicate: Enabled does not \
                          commute with substitution (LiveTarget::fair_mapped)"
                    .to_string(),
            }));
        };
        let mapped = mapping
            .formula(&Formula::Fair(fair.clone()))
            .map_err(CheckError::from)?;
        let Formula::Fair(mapped) = mapped else {
            unreachable!("substitution preserves the Fair constructor");
        };
        let enabled = mapping.expr(enabled).map_err(CheckError::from)?;
        (mapped.angle_action(), Some(enabled))
    };
    let mut footprint = abstract_angle.all_vars();
    if let Some(pred) = enabled_with {
        footprint.union_with(&pred.all_vars());
    }
    let mut own = None;
    let images = Images::given_or_own(images, &mut own, graph, mapping, meter.recorder())?;
    let classes = Classes::of_graph(graph, &footprint, images);
    let angle_program = CompiledExpr::compile(&abstract_angle);
    let enabled_program = enabled_with.map(CompiledExpr::compile);
    let scratch = &mut EvalScratch::new();
    let mut is_angle = Memo::new(&classes);
    let mut is_enabled = Memo::new(&classes);
    let table = table_rows(graph, |id, flags| {
        let s = graph.state(id);
        if let Some(reason) = meter.checkpoint() {
            return Err(Stop::exhausted(reason));
        }
        let mut fires = false;
        for e in graph.edges(id) {
            charge_edge(meter)?;
            let step = StatePair::new(s, graph.state(e.target));
            let angle = is_angle
                .step(
                    id,
                    e.target,
                    |s_bar, t_bar| angle_program.holds_step(&s_bar, &t_bar, scratch),
                    || angle_expr.holds_action(step),
                )
                .map_err(CheckError::from)?;
            flags.push(angle);
            fires |= angle;
        }
        let enabled = match (&enabled_program, &enabled_pred) {
            (Some(abstract_pred), Some(pred)) => is_enabled
                .state(
                    id,
                    |s_bar| abstract_pred.holds(&s_bar, scratch),
                    || pred.holds_state(s),
                )
                .map_err(CheckError::from)?,
            // An ⟨A⟩_v graph edge is itself an in-universe witness, so
            // the per-state `Enabled` search only runs where no edge
            // fires (e.g. an abstract action enabled toward a successor
            // no concrete step reaches). The mapping is empty here, so
            // `s̄ = s`: the search runs on the concrete state and is a
            // function of the state's class too.
            _ if fires => true,
            _ => {
                let search = || system.universe().enabled(&angle_expr, s);
                is_enabled
                    .state(id, |_| search(), search)
                    .map_err(CheckError::from)?
            }
        };
        Ok(enabled)
    });
    drop((is_angle, is_enabled));
    classes.report(meter.recorder(), "liveness");
    table
}

/// A witness that a fairness requirement is satisfied by the cycle.
#[derive(Clone, Copy, Debug)]
pub(super) enum Waypoint {
    /// Traverse this edge (source node, index into its edge list).
    Edge(usize, usize),
    /// Visit this node.
    Node(usize),
}

/// A fair node set plus one waypoint per fairness requirement that
/// needs an explicit witness.
pub(super) type FairWitness = (Vec<usize>, Vec<Waypoint>);

/// Depth-first search for a strongly connected node set (within `scc`)
/// in which every fairness requirement is satisfiable and the
/// `must_contain` requirement holds. Returns the node set plus one
/// waypoint per fairness requirement that needs an explicit witness.
pub(super) fn fair_subcomponent(
    graph: &StateGraph,
    fair_infos: &[FairInfo],
    edge_ok: &dyn Fn(usize, usize) -> bool,
    scc: &[usize],
    must_contain: Option<&[bool]>,
    meter: &Meter,
    scratch: &mut SccScratch,
) -> Result<Option<FairWitness>, Stop> {
    if let Some(reason) = meter.checkpoint() {
        return Err(Stop::exhausted(reason));
    }
    if let Some(req) = must_contain {
        if !scc.iter().any(|n| req[*n]) {
            return Ok(None);
        }
    }
    // Tarjan components are sorted ascending (also in the recursion
    // below), so membership is a binary search, not a scan.
    let in_scc = |n: usize| scc.binary_search(&n).is_ok();
    let mut waypoints = Vec::new();
    if let Some(req) = must_contain {
        let node = scc.iter().copied().find(|n| req[*n]).expect("checked");
        waypoints.push(Waypoint::Node(node));
    }
    for info in fair_infos {
        // An internal ⟨A⟩_v edge satisfies both WF and SF.
        let mut edge_witness = None;
        'search: for &s in scc {
            for (i, e) in graph.edges(s).iter().enumerate() {
                charge_edge(meter)?;
                if info.angle.get(graph, s, i) && edge_ok(s, i) && in_scc(e.target) {
                    edge_witness = Some(Waypoint::Edge(s, i));
                    break 'search;
                }
            }
        }
        if let Some(w) = edge_witness {
            waypoints.push(w);
            continue;
        }
        match info.kind {
            FairnessKind::Weak => {
                // A state where the action is disabled, visited
                // infinitely often, also satisfies WF.
                match scc.iter().copied().find(|n| !info.enabled[*n]) {
                    Some(n) => waypoints.push(Waypoint::Node(n)),
                    None => return Ok(None), // WF unsatisfiable here and in any subset.
                }
            }
            FairnessKind::Strong => {
                // SF needs *no* enabled state in the cycle. If some are
                // enabled, remove them and recurse on the
                // sub-components (Streett decomposition).
                if scc.iter().all(|n| !info.enabled[*n]) {
                    continue; // Satisfied without a waypoint.
                }
                let survivors: Vec<usize> = scc
                    .iter()
                    .copied()
                    .filter(|n| !info.enabled[*n])
                    .collect();
                if survivors.is_empty() {
                    return Ok(None);
                }
                let mut node_ok = vec![false; graph.len()];
                for &n in &survivors {
                    node_ok[n] = true;
                }
                let sub_edge_ok =
                    |s: usize, i: usize| edge_ok(s, i) && node_ok[graph.edges(s)[i].target];
                for sub in tarjan_sccs(graph, &node_ok, &sub_edge_ok, meter, scratch)? {
                    if let Some(found) = fair_subcomponent(
                        graph,
                        fair_infos,
                        edge_ok,
                        &sub,
                        must_contain,
                        meter,
                        scratch,
                    )? {
                        return Ok(Some(found));
                    }
                }
                return Ok(None);
            }
        }
    }
    Ok(Some((scc.to_vec(), waypoints)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, Budget, ExhaustReason, ExploreOptions, GuardedAction, Init};
    use crate::{SystemFairness, Verdict};
    use opentla_kernel::{Domain, Value, Vars};

    /// Counters `a` and `b` up to `top` that `halt` freezes for good:
    /// every halted state — half the graph — has no edge. `WF(inc_a)`
    /// and `SF(inc_b)` give two tables.
    fn halting_counters(top: i64) -> System {
        let mut vars = Vars::new();
        let a = vars.declare("a", Domain::int_range(0, top));
        let b = vars.declare("b", Domain::int_range(0, top));
        let h = vars.declare("h", Domain::bits());
        let running = Expr::var(h).eq(Expr::int(0));
        let inc = |name: &str, v| {
            GuardedAction::new(
                name,
                Expr::all([running.clone(), Expr::var(v).lt(Expr::int(top))]),
                vec![(v, Expr::var(v).add(Expr::int(1)))],
            )
        };
        let halt = GuardedAction::new("halt", running.clone(), vec![(h, Expr::int(1))]);
        System::new(
            vars,
            Init::new([(a, Value::Int(0)), (b, Value::Int(0)), (h, Value::Int(0))]),
            vec![inc("inc_a", a), inc("inc_b", b), halt],
        )
        .with_fairness(SystemFairness::weak(vec![0], vec![a]))
        .with_fairness(SystemFairness::strong(vec![1], vec![b]))
    }

    /// The tables as one heap row per state, built by the plain loop:
    /// per requirement `(angle rows, enabled)`, or where the budget
    /// stopped it — the reason and the states not yet done.
    type RowTables = Vec<(Vec<Vec<bool>>, Vec<bool>)>;
    fn row_tables(
        system: &System,
        graph: &StateGraph,
        budget: &Budget,
    ) -> Result<RowTables, (ExhaustReason, usize)> {
        let meter = Meter::start(budget);
        let mut tables = Vec::new();
        for f in system.fairness() {
            let mut rows = Vec::new();
            for (id, s) in graph.states().iter().enumerate() {
                let mut row = Vec::new();
                for e in graph.edges(id) {
                    if let Some(reason) = meter.charge_transition() {
                        return Err((reason, graph.len() - id));
                    }
                    row.push(
                        f.action_ids.contains(&e.action)
                            && !s.agrees_with(graph.state(e.target), &f.sub),
                    );
                }
                rows.push(row);
            }
            let enabled = rows.iter().map(|row| row.contains(&true)).collect();
            tables.push((rows, enabled));
        }
        Ok(tables)
    }

    #[test]
    fn flat_tables_are_the_row_tables() {
        for top in [9, 19] {
            let system = halting_counters(top);
            let graph = explore(&system, &ExploreOptions::default()).unwrap();
            let n = graph.len();
            assert_eq!(n as i64, 2 * (top + 1) * (top + 1));
            assert_eq!(graph.deadlocks().len(), n / 2, "the halted states");
            assert_eq!(graph.edge_base(n), graph.edge_count());
            let rows = row_tables(&system, &graph, &Budget::default()).expect("unbudgeted");
            let meter = Meter::start(&Budget::default());
            let infos = system_fair_infos(&system, &graph, &meter)
                .unwrap_or_else(|_| panic!("unbudgeted"));
            assert_eq!(meter.transitions_used(), 2 * graph.edge_count());
            for (info, (angle, enabled)) in infos.iter().zip(&rows) {
                assert_eq!(&info.enabled, enabled);
                for (s, row) in angle.iter().enumerate() {
                    for (i, flag) in row.iter().enumerate() {
                        assert_eq!(info.angle.get(&graph, s, i), *flag, "{s}/{i}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_tight_budget_stops_the_flat_tables_where_it_stopped_the_rows() {
        let system = halting_counters(9);
        let graph = explore(&system, &ExploreOptions::default()).unwrap();
        // Mid first table, on its last edge, and mid second table.
        for limit in [37, graph.edge_count() - 1, graph.edge_count() + 37] {
            let budget = Budget::default().transitions(limit);
            let (reason, pending) =
                row_tables(&system, &graph, &budget).expect_err("the budget is tight");
            assert_eq!(reason, ExhaustReason::TransitionLimit { limit });
            let meter = Meter::start(&budget);
            match system_fair_infos(&system, &graph, &meter) {
                Err(Stop::Exhausted { reason: r, pending: p }) => {
                    assert_eq!((r, p), (reason.clone(), pending));
                }
                _ => panic!("a budget of {limit} must run out"),
            }
            // And through the whole check: the frontier is the table's.
            let run = crate::check_liveness_governed(
                &system,
                &graph,
                &crate::LiveTarget::Eventually(Expr::bool(false)),
                &budget,
            )
            .unwrap();
            assert!(run.verdict.is_none());
            match run.outcome {
                crate::Outcome::Exhausted { reason: r, frontier_size, .. } => {
                    assert_eq!((r, frontier_size), (reason, pending));
                }
                other => panic!("{other:?}"),
            }
        }
        // Unbudgeted, the halted states (no edge) satisfy both
        // requirements by staying put: ◇FALSE fails there.
        let verdict = crate::check_liveness(
            &system,
            &graph,
            &crate::LiveTarget::Eventually(Expr::bool(false)),
        )
        .unwrap();
        assert!(matches!(verdict, Verdict::Violated(_)));
    }
}
