//! Iterative strongly-connected-component decomposition.
//!
//! The liveness check of `opentla-check` repeatedly decomposes
//! property-restricted subgraphs into SCCs — once per target, and again
//! inside every Streett (`SF`) recursion step. This module provides the
//! shared machinery: a reusable [`SccScratch`] buffer set and a fully
//! **iterative** (non-recursive, stack-safe) Tarjan driver
//! [`tarjan_sccs_with`] that is generic over how edges are produced and
//! metered, so the checker can thread its budget accounting through
//! without this crate knowing about budgets.
//!
//! The driver's guarantees, which the checker's determinism story leans
//! on:
//!
//! * roots are scanned in ascending node order (`0..n`);
//! * components are emitted in Tarjan **completion order** (the order
//!   their roots finish), each sorted ascending internally;
//! * single nodes form components of their own — callers modeling TLA
//!   behaviors treat every node as carrying an implicit stuttering
//!   self-loop.

/// Sentinel for "node not yet visited" in [`SccScratch`].
const UNVISITED: usize = usize::MAX;

/// Reusable buffers for [`tarjan_sccs_with`].
///
/// A decomposition over `n` nodes needs five `O(n)` buffers; callers
/// that decompose many subgraphs of the same arena (the Streett
/// recursion) reuse one scratch instead of reallocating per call.
#[derive(Clone, Debug, Default)]
pub struct SccScratch {
    /// Tarjan discovery index per node (`UNVISITED` = not yet seen).
    index: Vec<usize>,
    /// Low-link value per node.
    low: Vec<usize>,
    /// Is the node currently on the component stack?
    on_stack: Vec<bool>,
    /// The component stack.
    stack: Vec<usize>,
    /// Explicit DFS stack: `(node, next edge position)`.
    dfs: Vec<(usize, usize)>,
}

impl SccScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SccScratch::default()
    }

    /// Sizes every buffer for `n` nodes and clears previous state.
    fn reset(&mut self, n: usize) {
        self.index.clear();
        self.index.resize(n, UNVISITED);
        self.low.clear();
        self.low.resize(n, 0);
        self.on_stack.clear();
        self.on_stack.resize(n, false);
        self.stack.clear();
        self.dfs.clear();
    }
}

/// Iterative Tarjan SCC decomposition over an implicit graph of `n`
/// nodes, generic over edge production and error/abort type `B`.
///
/// * `node_ok(v)` — is node `v` part of the subgraph? Excluded nodes
///   are neither roots nor targets.
/// * `out_degree(v)` — number of edge slots of `v`; slots are probed in
///   order `0..out_degree(v)`.
/// * `edge(v, i)` — resolve edge slot `i` of `v`: `Ok(Some(t))` if the
///   edge is in the subgraph and leads to (subgraph) node `t`,
///   `Ok(None)` if the slot is filtered out, `Err(b)` to abort the
///   whole decomposition (budget exhaustion, evaluation error). Called
///   exactly once per slot of every visited node, in slot order — the
///   metering hook.
/// * `on_root(root, remaining)` — called once per DFS root before it
///   is expanded, with the root's node id and the number of subgraph
///   nodes not yet visited (including the root itself); returning
///   `Err` aborts. The budget poll site.
/// * `emit(component)` — called once per finished component, in
///   completion order, with the component sorted ascending.
///
/// The DFS is driven by an explicit stack in `scratch` — no recursion,
/// so deep lassos (e.g. a million-state chain) cannot overflow the call
/// stack.
///
/// # Errors
///
/// Whatever `edge` or `on_root` return; the decomposition stops at the
/// first error with `scratch` left in an unspecified (but reusable
/// after the internal reset) state.
pub fn tarjan_sccs_with<B>(
    n: usize,
    scratch: &mut SccScratch,
    node_ok: &dyn Fn(usize) -> bool,
    out_degree: &dyn Fn(usize) -> usize,
    edge: &mut dyn FnMut(usize, usize) -> Result<Option<usize>, B>,
    on_root: &mut dyn FnMut(usize, usize) -> Result<(), B>,
    emit: &mut dyn FnMut(Vec<usize>),
) -> Result<(), B> {
    scratch.reset(n);
    let ok_total = (0..n).filter(|v| node_ok(*v)).count();
    let mut visited = 0usize;
    let mut next_index = 0usize;

    for root in 0..n {
        if !node_ok(root) || scratch.index[root] != UNVISITED {
            continue;
        }
        on_root(root, ok_total - visited)?;
        scratch.dfs.push((root, 0));
        scratch.index[root] = next_index;
        scratch.low[root] = next_index;
        next_index += 1;
        visited += 1;
        scratch.stack.push(root);
        scratch.on_stack[root] = true;
        while let Some((node, pos)) = scratch.dfs.last_mut() {
            let node = *node;
            if *pos < out_degree(node) {
                let i = *pos;
                *pos += 1;
                let Some(t) = edge(node, i)? else {
                    continue;
                };
                if scratch.index[t] == UNVISITED {
                    scratch.index[t] = next_index;
                    scratch.low[t] = next_index;
                    next_index += 1;
                    visited += 1;
                    scratch.stack.push(t);
                    scratch.on_stack[t] = true;
                    scratch.dfs.push((t, 0));
                } else if scratch.on_stack[t] {
                    scratch.low[node] = scratch.low[node].min(scratch.index[t]);
                }
            } else {
                scratch.dfs.pop();
                if let Some((parent, _)) = scratch.dfs.last() {
                    scratch.low[*parent] = scratch.low[*parent].min(scratch.low[node]);
                }
                if scratch.low[node] == scratch.index[node] {
                    let mut comp = Vec::new();
                    loop {
                        let w = scratch.stack.pop().expect("tarjan stack invariant");
                        scratch.on_stack[w] = false;
                        comp.push(w);
                        if w == node {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    emit(comp);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the driver over an adjacency list with no filtering.
    fn sccs_of(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut scratch = SccScratch::new();
        tarjan_sccs_with::<()>(
            adj.len(),
            &mut scratch,
            &|_| true,
            &|v| adj[v].len(),
            &mut |v, i| Ok(Some(adj[v][i])),
            &mut |_, _| Ok(()),
            &mut |comp| out.push(comp),
        )
        .unwrap();
        out
    }

    #[test]
    fn single_nodes_are_components() {
        // 0 -> 1 -> 2, no cycles: three singleton components, emitted
        // deepest-first (completion order).
        let sccs = sccs_of(&[vec![1], vec![2], vec![]]);
        assert_eq!(sccs, vec![vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn cycle_is_one_component_sorted() {
        // 0 -> 1 -> 2 -> 0 plus a tail 2 -> 3.
        let sccs = sccs_of(&[vec![1], vec![2], vec![0, 3], vec![]]);
        assert_eq!(sccs, vec![vec![3], vec![0, 1, 2]]);
    }

    #[test]
    fn node_filter_excludes_roots_and_targets() {
        // Same cycle, but node 1 is filtered: the cycle breaks apart.
        let adj = [vec![1], vec![2], vec![0, 3], vec![]];
        let mut out = Vec::new();
        let mut scratch = SccScratch::new();
        tarjan_sccs_with::<()>(
            adj.len(),
            &mut scratch,
            &|v| v != 1,
            &|v| adj[v].len(),
            &mut |v, i| {
                let t = adj[v][i];
                Ok((t != 1).then_some(t))
            },
            &mut |_, _| Ok(()),
            &mut |comp| out.push(comp),
        )
        .unwrap();
        // Root 0's only edge is filtered, so it finishes first; root 2
        // then reaches 3 (which completes before it).
        assert_eq!(out, vec![vec![0], vec![3], vec![2]]);
    }

    #[test]
    fn abort_from_edge_hook_propagates() {
        let adj = [vec![1], vec![0]];
        let mut scratch = SccScratch::new();
        let r = tarjan_sccs_with::<&str>(
            adj.len(),
            &mut scratch,
            &|_| true,
            &|v| adj[v].len(),
            &mut |_, _| Err("budget"),
            &mut |_, _| Ok(()),
            &mut |_| {},
        );
        assert_eq!(r.unwrap_err(), "budget");
    }

    #[test]
    fn on_root_counts_remaining_subgraph_nodes() {
        // Two disjoint singletons: the first root sees 2 remaining, the
        // second sees 1; root ids arrive in ascending order.
        let adj = [vec![], vec![]];
        let mut seen = Vec::new();
        let mut scratch = SccScratch::new();
        tarjan_sccs_with::<()>(
            adj.len(),
            &mut scratch,
            &|_| true,
            &|v| adj[v].len(),
            &mut |v, i| Ok(Some(adj[v][i])),
            &mut |root, remaining| {
                seen.push((root, remaining));
                Ok(())
            },
            &mut |_| {},
        )
        .unwrap();
        assert_eq!(seen, vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn deep_chain_is_stack_safe() {
        // A 200k-deep chain would overflow a recursive Tarjan.
        let n = 200_000;
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|v| if v + 1 < n { vec![v + 1] } else { vec![] })
            .collect();
        let sccs = sccs_of(&adj);
        assert_eq!(sccs.len(), n);
        assert_eq!(sccs[0], vec![n - 1]);
    }
}
