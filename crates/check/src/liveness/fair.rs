//! Fairness tables and per-component fairness satisfiability.
//!
//! The table builders precompute, per fairness requirement, which graph
//! edges are `⟨A⟩_v` steps and where the action is enabled; both engines
//! share them, and on multiple threads the per-state rows are computed
//! in parallel (the rows are independent, and for semantic targets each
//! row performs an `Enabled` next-state search over the universe — the
//! dominant cost on large graphs).
//!
//! [`fair_subcomponent`] is the per-component satisfiability check,
//! including the Streett-style `SF` removal recursion. It is a pure
//! function of the component (plus the shared tables and meter), which
//! is what lets the parallel engine hand whole components to workers
//! while keeping verdicts deterministic.

use super::{par, scc::tarjan_sccs, Charge, Stop};
use crate::budget::Meter;
use crate::image::{Classes, Memo};
use crate::{CheckError, StateGraph, System};
use opentla_kernel::{
    Expr, Fairness, FairnessKind, Formula, SccScratch, StatePair, Substitution,
};

/// Per-fairness-requirement facts about the graph.
pub(super) struct FairInfo {
    pub(super) kind: FairnessKind,
    /// `angle[s][i]`: is the i-th edge of `s` an `⟨A⟩_v` step?
    pub(super) angle: Vec<Vec<bool>>,
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
    charge: Charge,
    threads: usize,
) -> Result<Vec<FairInfo>, Stop> {
    system
        .fairness()
        .iter()
        .map(|f| {
            let angle = par::table_rows(graph.len(), threads, &|| (), &|(), id: usize| {
                let s = graph.state(id);
                graph
                    .edges(id)
                    .iter()
                    .map(|e| {
                        charge.edge(meter)?;
                        Ok(f.action_ids.contains(&e.action)
                            && !s.agrees_with(graph.state(e.target), &f.sub))
                    })
                    .collect::<Result<Vec<bool>, Stop>>()
            })?;
            let enabled = angle
                .iter()
                .map(|flags| flags.iter().any(|b| *b))
                .collect();
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
/// `mapping` eliminates the abstract ones. Each entry is decided once
/// per image class (pair) of the unsubstituted expressions; a miss
/// evaluates the substituted expression on that concrete state or
/// edge. Charges and polls stay per concrete edge and row.
#[allow(clippy::too_many_arguments)]
pub(super) fn target_fair_info(
    system: &System,
    graph: &StateGraph,
    fair: &Fairness,
    enabled_with: Option<&Expr>,
    mapping: &Substitution,
    meter: &Meter,
    charge: Charge,
    threads: usize,
) -> Result<(Vec<Vec<bool>>, Vec<bool>), Stop> {
    let (angle_expr, enabled_pred) = if mapping.is_empty() {
        (fair.angle_action(), enabled_with.cloned())
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
    let mut footprint = fair.angle_action().all_vars();
    if let Some(pred) = enabled_with {
        footprint.union_with(&pred.all_vars());
    }
    let classes = Classes::of_graph(graph, &footprint, mapping);
    let memos = || (Memo::new(&classes), Memo::new(&classes));
    let rows = par::table_rows(
        graph.len(),
        threads,
        &memos,
        &|(is_angle, is_enabled), id: usize| {
            let s = graph.state(id);
            if let Some(reason) = meter.checkpoint() {
                return Err(Stop::exhausted(reason));
            }
            let flags: Vec<bool> = graph
                .edges(id)
                .iter()
                .map(|e| {
                    charge.edge(meter)?;
                    let pair = StatePair::new(s, graph.state(e.target));
                    is_angle
                        .step(id, e.target, || angle_expr.holds_action(pair))
                        .map_err(|e| Stop::Error(e.into()))
                })
                .collect::<Result<_, Stop>>()?;
            let enabled = match &enabled_pred {
                Some(pred) => is_enabled
                    .state(id, || pred.holds_state(s))
                    .map_err(CheckError::from)?,
                // An ⟨A⟩_v graph edge is itself an in-universe witness, so
                // the per-state `Enabled` search only runs where no edge
                // fires (e.g. an abstract action enabled toward a successor
                // no concrete step reaches). The mapping is empty here, so
                // the search is a function of the state's class too.
                None if flags.iter().any(|b| *b) => true,
                None => is_enabled
                    .state(id, || system.universe().enabled(&angle_expr, s))
                    .map_err(CheckError::from)?,
            };
            Ok((flags, enabled))
        },
    );
    classes.report(meter.recorder(), "liveness");
    Ok(rows?.into_iter().unzip())
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
///
/// Always charges the meter — component analysis is new work even on a
/// resumed run (only already-*cleared* components are skipped there).
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
                if let Some(reason) = meter.charge_transition() {
                    return Err(Stop::exhausted(reason));
                }
                if info.angle[s][i] && edge_ok(s, i) && in_scc(e.target) {
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
                for sub in
                    tarjan_sccs(graph, &node_ok, &sub_edge_ok, meter, Charge::Metered, scratch)?
                {
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
