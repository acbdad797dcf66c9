//! SCC decomposition of the property-restricted graph.
//!
//! A thin, metered adapter over the kernel's iterative Tarjan driver
//! ([`opentla_kernel::tarjan_components_with`]): the checker supplies
//! the node/edge restriction and its budget accounting, the kernel
//! supplies the stack-safe DFS. Components come back flat
//! ([`Components`]), in Tarjan completion order (each sorted
//! ascending) — the order the component loop scans them in, so the
//! first violating component is deterministic.

use super::Stop;
use crate::budget::Meter;
use crate::StateGraph;
use opentla_kernel::{tarjan_components_with, Nodes, SccScratch};
use std::cell::RefCell;

/// The components of one decomposition, flat: every component's nodes
/// side by side in one column, and where each ends. No heap row per
/// component.
#[derive(Debug, Default)]
pub(super) struct Components {
    nodes: Vec<u32>,
    ends: Vec<u32>,
}

impl Components {
    /// How many components there are.
    pub(super) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The components in completion order, each ascending.
    pub(super) fn iter(&self) -> impl Iterator<Item = &[u32]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        (starts.zip(&self.ends)).map(|(start, &end)| &self.nodes[start as usize..end as usize])
    }
}

/// Tarjan over the restricted graph: the nodes `node_ok` admits — or,
/// when `listed`, exactly those nodes, ascending, every one of them
/// admitted by `node_ok` — and the edges `edge_ok` admits between them.
/// Single nodes form components of their own (TLA behaviors may stutter
/// forever, so every node carries an implicit self-loop). A listed
/// decomposition costs its nodes, not the graph.
///
/// Each edge slot charges one transition, and each DFS root polls the
/// deadline and the cancellation flag. On exhaustion the reported
/// `pending` is exact: the number of subgraph nodes not yet visited by
/// the DFS.
pub(super) fn tarjan_sccs(
    graph: &StateGraph,
    node_ok: &[bool],
    listed: Option<&[u32]>,
    edge_ok: &dyn Fn(usize, usize) -> bool,
    meter: &mut Meter,
    scratch: &mut SccScratch,
) -> Result<Components, Stop> {
    let mut components = Components::default();
    // The edge probe charges and the root polls: two callbacks, one
    // meter.
    let meter = RefCell::new(meter);
    let admitted = |v: usize| node_ok[v];
    let nodes = listed.map_or(Nodes::Where(&admitted), Nodes::Listed);
    tarjan_components_with::<Stop>(
        graph.len(),
        nodes,
        scratch,
        &|v| graph.edges(v).len(),
        &mut |v, i, unvisited| {
            if let Some(reason) = meter.borrow_mut().charge_transition_mut() {
                return Err(Stop::Exhausted {
                    reason,
                    pending: unvisited,
                });
            }
            if !edge_ok(v, i) {
                return Ok(None);
            }
            let t = graph.edges(v)[i].target;
            Ok(node_ok[t as usize].then_some(t))
        },
        &mut |_, remaining| match meter.borrow_mut().checkpoint() {
            Some(reason) => Err(Stop::Exhausted {
                reason,
                pending: remaining,
            }),
            None => Ok(()),
        },
        &mut |component| {
            components.nodes.extend_from_slice(component);
            components.ends.push(components.nodes.len() as u32);
        },
    )?;
    Ok(components)
}
