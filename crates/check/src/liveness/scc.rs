//! SCC decomposition of the property-restricted graph.
//!
//! A thin, metered adapter over the kernel's iterative Tarjan driver
//! ([`opentla_kernel::tarjan_sccs_with`]): the checker supplies the
//! node/edge restriction and its budget accounting, the kernel supplies
//! the stack-safe DFS. Components come back in Tarjan completion order
//! (each sorted ascending) — the order the component loop scans them
//! in, so the first violating component is deterministic.

use super::Stop;
use crate::budget::Meter;
use crate::StateGraph;
use opentla_kernel::{tarjan_sccs_with, SccScratch};

/// Tarjan over the restricted graph. Single nodes form components of
/// their own (TLA behaviors may stutter forever, so every node carries
/// an implicit self-loop).
///
/// Each edge slot charges one transition, and each DFS root polls the
/// deadline and the cancellation flag. On exhaustion the reported
/// `pending` is exact: the number of subgraph nodes not yet visited by
/// the DFS.
pub(super) fn tarjan_sccs(
    graph: &StateGraph,
    node_ok: &[bool],
    edge_ok: &dyn Fn(usize, usize) -> bool,
    meter: &Meter,
    scratch: &mut SccScratch,
) -> Result<Vec<Vec<usize>>, Stop> {
    let n = graph.len();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Mirror the driver's visited set so edge-level exhaustion can
    // still report an exact remaining count: the driver visits a
    // target exactly when we have not seen it yet. Shared between the
    // edge and root hooks, hence the cells.
    let seen = std::cell::RefCell::new(vec![false; n]);
    let unvisited = std::cell::Cell::new(0usize);
    tarjan_sccs_with::<Stop>(
        n,
        scratch,
        &|v| node_ok[v],
        &|v| graph.edges(v).len(),
        &mut |v, i| {
            if let Some(reason) = meter.charge_transition() {
                return Err(Stop::Exhausted {
                    reason,
                    pending: unvisited.get(),
                });
            }
            if !edge_ok(v, i) {
                return Ok(None);
            }
            let t = graph.edges(v)[i].target;
            if !node_ok[t] {
                return Ok(None);
            }
            let mut seen = seen.borrow_mut();
            if !seen[t] {
                seen[t] = true;
                unvisited.set(unvisited.get() - 1);
            }
            Ok(Some(t))
        },
        &mut |root, remaining| {
            if let Some(reason) = meter.checkpoint() {
                return Err(Stop::Exhausted {
                    reason,
                    pending: remaining,
                });
            }
            seen.borrow_mut()[root] = true;
            unvisited.set(remaining - 1);
            Ok(())
        },
        &mut |comp| sccs.push(comp),
    )?;
    Ok(sccs)
}
