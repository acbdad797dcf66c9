//! Iterative strongly-connected-component decomposition.
//!
//! The liveness check of `opentla-check` repeatedly decomposes
//! property-restricted subgraphs into SCCs — once per target, and again
//! inside every Streett (`SF`) recursion step. This module provides the
//! shared machinery: a reusable [`SccScratch`] buffer set and a fully
//! **iterative** (non-recursive, stack-safe) Tarjan driver
//! [`tarjan_components_with`] that is generic over how edges are
//! produced and metered, so the checker can thread its budget
//! accounting through without this crate knowing about budgets.
//! [`tarjan_sccs_with`] is the same driver handing each component out
//! as a `Vec<usize>` of its own.
//!
//! The driver's guarantees, which the checker's determinism story leans
//! on:
//!
//! * roots are scanned in ascending node order;
//! * components are emitted in Tarjan **completion order** (the order
//!   their roots finish), each sorted ascending internally;
//! * single nodes form components of their own — callers modeling TLA
//!   behaviors treat every node as carrying an implicit stuttering
//!   self-loop.
//!
//! Its cost is that of the subgraph: a decomposition of the [`Nodes`]
//! listed by the caller touches those nodes' buffer entries only, so
//! the Streett recursion pays for each component, not for the graph.

/// "Not yet visited", in [`SccScratch::index`].
const UNVISITED: u32 = u32::MAX;

/// "Already in an emitted component", in [`SccScratch::low`]: a visited
/// node whose low-link reads anything else is on the component stack.
const DONE: u32 = u32::MAX;

/// Reusable buffers for [`tarjan_components_with`], node ids and
/// positions as `u32`.
///
/// A decomposition over `n` nodes needs two `O(n)` buffers and two
/// stacks; callers that decompose many subgraphs of the same graph
/// (the Streett recursion) reuse one scratch instead of reallocating
/// per call.
#[derive(Clone, Debug, Default)]
pub struct SccScratch {
    /// Tarjan discovery index per node (`UNVISITED` = not yet seen).
    index: Vec<u32>,
    /// Low-link value per node (`DONE` once emitted).
    low: Vec<u32>,
    /// The component stack.
    stack: Vec<u32>,
    /// Explicit DFS stack: `(node, next edge position)`.
    dfs: Vec<(u32, u32)>,
}

/// The nodes of the subgraph a decomposition runs over.
#[derive(Clone, Copy)]
pub enum Nodes<'a> {
    /// Every node of `0..n` this admits; resetting the scratch costs
    /// `O(n)`.
    Where(&'a dyn Fn(usize) -> bool),
    /// Exactly these nodes, ascending; the edge hook must produce no
    /// other target. Costs `O(len)`, whatever `n`.
    Listed(&'a [u32]),
}

impl SccScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SccScratch::default()
    }

    /// Sizes the buffers for `n` nodes and marks `nodes` unvisited.
    fn reset(&mut self, n: usize, nodes: Nodes<'_>) {
        assert!(n < UNVISITED as usize, "node ids fit in a u32");
        match nodes {
            Nodes::Where(_) => {
                self.index.clear();
                self.index.resize(n, UNVISITED);
            }
            Nodes::Listed(list) => {
                if self.index.len() < n {
                    self.index.resize(n, UNVISITED);
                }
                for &v in list {
                    self.index[v as usize] = UNVISITED;
                }
            }
        }
        if self.low.len() < n {
            self.low.resize(n, 0);
        }
        self.stack.clear();
        self.dfs.clear();
    }

    /// Visits `v`: gives it the next discovery index and pushes it on
    /// both stacks.
    fn open(&mut self, v: usize, next: &mut u32) {
        self.index[v] = *next;
        self.low[v] = *next;
        *next += 1;
        self.stack.push(v as u32);
        self.dfs.push((v as u32, 0));
    }
}

/// Iterative Tarjan SCC decomposition over an implicit graph of `n`
/// nodes, generic over edge production and error/abort type `B`.
///
/// * `nodes` — the subgraph's nodes. Excluded nodes are neither roots
///   nor targets.
/// * `out_degree(v)` — number of edge slots of `v`; slots are probed in
///   order `0..out_degree(v)`.
/// * `edge(v, i, unvisited)` — resolve edge slot `i` of `v`:
///   `Ok(Some(t))` if the edge is in the subgraph and leads to
///   (subgraph) node `t` — a `u32`, the width of the scratch's node
///   ids and of a graph's edge targets, which the hook hands on as
///   they are — `Ok(None)` if the slot is filtered out,
///   `Err(b)` to abort the whole decomposition (budget exhaustion,
///   evaluation error). `unvisited` is the number of subgraph nodes not
///   yet visited. Called exactly once per slot of every visited node,
///   in slot order — the metering hook.
/// * `on_root(root, remaining)` — called once per DFS root before it
///   is expanded, with the root's node id and the number of subgraph
///   nodes not yet visited (including the root itself); returning
///   `Err` aborts. The budget poll site.
/// * `emit(component)` — called once per finished component, in
///   completion order, with the component sorted ascending. The slice
///   is the scratch's: a caller keeps what it needs of it.
///
/// The DFS is driven by an explicit stack in `scratch` — no recursion,
/// so deep lassos (e.g. a million-state chain) cannot overflow the call
/// stack — and allocates nothing beyond the scratch's buffers.
///
/// # Errors
///
/// Whatever `edge` or `on_root` return; the decomposition stops at the
/// first error with `scratch` left in an unspecified (but reusable
/// after the internal reset) state.
///
/// # Panics
///
/// If `n` does not fit in a `u32` with a value to spare.
pub fn tarjan_components_with<B>(
    n: usize,
    nodes: Nodes<'_>,
    scratch: &mut SccScratch,
    out_degree: &dyn Fn(usize) -> usize,
    edge: &mut dyn FnMut(usize, usize, usize) -> Result<Option<u32>, B>,
    on_root: &mut dyn FnMut(usize, usize) -> Result<(), B>,
    emit: &mut dyn FnMut(&[u32]),
) -> Result<(), B> {
    scratch.reset(n, nodes);
    let (total, roots): (usize, Box<dyn Iterator<Item = usize>>) = match nodes {
        Nodes::Where(ok) => (
            (0..n).filter(|&v| ok(v)).count(),
            Box::new((0..n).filter(move |&v| ok(v))),
        ),
        Nodes::Listed(list) => (list.len(), Box::new(list.iter().map(|&v| v as usize))),
    };
    let mut visited = 0usize;
    let mut next = 0u32;
    for root in roots {
        if scratch.index[root] != UNVISITED {
            continue;
        }
        on_root(root, total - visited)?;
        scratch.open(root, &mut next);
        visited += 1;
        while let Some(top) = scratch.dfs.last_mut() {
            let (node, i) = (top.0 as usize, top.1 as usize);
            if i < out_degree(node) {
                top.1 += 1;
                let Some(t) = edge(node, i, total - visited)? else {
                    continue;
                };
                let t = t as usize;
                if scratch.index[t] == UNVISITED {
                    scratch.open(t, &mut next);
                    visited += 1;
                } else if scratch.low[t] != DONE {
                    scratch.low[node] = scratch.low[node].min(scratch.index[t]);
                }
                continue;
            }
            scratch.dfs.pop();
            let low = scratch.low[node];
            if let Some(&(parent, _)) = scratch.dfs.last() {
                let parent = &mut scratch.low[parent as usize];
                *parent = (*parent).min(low);
            }
            if low == scratch.index[node] {
                let at = (scratch.stack.iter())
                    .rposition(|&w| w as usize == node)
                    .expect("tarjan stack invariant");
                let component = &mut scratch.stack[at..];
                for &w in component.iter() {
                    scratch.low[w as usize] = DONE;
                }
                component.sort_unstable();
                emit(component);
                scratch.stack.truncate(at);
            }
        }
    }
    Ok(())
}

/// [`tarjan_components_with`] over the nodes `node_ok` admits, with
/// each component handed to `emit` as a `Vec<usize>` of its own.
///
/// * `node_ok(v)` — is node `v` part of the subgraph?
/// * `edge(v, i)` — as [`tarjan_components_with`]'s hook (a `u32`
///   target), without the count of unvisited nodes.
///
/// Every other argument, the guarantees and the errors are those of
/// [`tarjan_components_with`].
///
/// # Errors
///
/// Whatever `edge` or `on_root` return.
pub fn tarjan_sccs_with<B>(
    n: usize,
    scratch: &mut SccScratch,
    node_ok: &dyn Fn(usize) -> bool,
    out_degree: &dyn Fn(usize) -> usize,
    edge: &mut dyn FnMut(usize, usize) -> Result<Option<u32>, B>,
    on_root: &mut dyn FnMut(usize, usize) -> Result<(), B>,
    emit: &mut dyn FnMut(Vec<usize>),
) -> Result<(), B> {
    tarjan_components_with(
        n,
        Nodes::Where(node_ok),
        scratch,
        out_degree,
        &mut |v, i, _| edge(v, i),
        on_root,
        &mut |component| emit(component.iter().map(|&v| v as usize).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the driver over an adjacency list with no filtering.
    fn sccs_of(adj: &[Vec<u32>]) -> Vec<Vec<usize>> {
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
        let adj: [Vec<u32>; 4] = [vec![1], vec![2], vec![0, 3], vec![]];
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
        let adj: [Vec<u32>; 2] = [vec![1], vec![0]];
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
        let adj: [Vec<u32>; 2] = [vec![], vec![]];
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

    /// The components of `adj` restricted to `keep`, through both
    /// subgraph shapes, on one reused scratch.
    fn restricted(adj: &[Vec<u32>], keep: &[u32], scratch: &mut SccScratch) -> [Vec<Vec<u32>>; 2] {
        let member = |v: usize| keep.binary_search(&(v as u32)).is_ok();
        [Nodes::Where(&member), Nodes::Listed(keep)].map(|nodes| {
            let mut out = Vec::new();
            let mut unvisited = Vec::new();
            tarjan_components_with::<()>(
                adj.len(),
                nodes,
                scratch,
                &|v| adj[v].len(),
                &mut |v, i, left| {
                    unvisited.push(left);
                    let t = adj[v][i];
                    Ok(member(t as usize).then_some(t))
                },
                &mut |_, _| Ok(()),
                &mut |component| out.push(component.to_vec()),
            )
            .unwrap();
            assert!(unvisited.iter().all(|&left| left < keep.len()));
            out
        })
    }

    #[test]
    fn a_listed_subgraph_is_the_filtered_one() {
        // Two 3-cycles joined by 2 -> 3, plus a tail 5 -> 6.
        let adj = [
            vec![1],
            vec![2],
            vec![0, 3],
            vec![4],
            vec![5],
            vec![3, 6],
            vec![],
        ];
        let mut scratch = SccScratch::new();
        let [all, listed] = restricted(&adj, &[0, 1, 2, 3, 4, 5, 6], &mut scratch);
        assert_eq!(all, [vec![6], vec![3, 4, 5], vec![0, 1, 2]]);
        assert_eq!(listed, all);
        // The scratch is dirty from the whole graph; a listed subset
        // resets its own nodes only, and the cycle through 1 breaks.
        let [filtered, listed] = restricted(&adj, &[0, 2, 3, 4, 5], &mut scratch);
        assert_eq!(filtered, [vec![0], vec![3, 4, 5], vec![2]]);
        assert_eq!(listed, filtered);
        let [filtered, listed] = restricted(&adj, &[4, 5], &mut scratch);
        assert_eq!(filtered, [vec![5], vec![4]]);
        assert_eq!(listed, filtered);
        // And the graph-sized reset still sees everything afterwards.
        assert_eq!(sccs_of(&adj), [vec![6], vec![3, 4, 5], vec![0, 1, 2]]);
    }

    #[test]
    fn deep_chain_is_stack_safe() {
        // A 200k-deep chain would overflow a recursive Tarjan.
        let n = 200_000u32;
        let adj: Vec<Vec<u32>> = (0..n)
            .map(|v| if v + 1 < n { vec![v + 1] } else { vec![] })
            .collect();
        let sccs = sccs_of(&adj);
        assert_eq!(sccs.len(), n as usize);
        assert_eq!(sccs[0], vec![n as usize - 1]);
    }
}
