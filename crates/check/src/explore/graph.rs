//! The reachability graph, and the only code that knows how one is
//! laid out: stores, the canonical replay, snapshots and the resume
//! paths build a [`StateGraph`] through the crate-internal methods
//! below and read it through its accessors, so the representation can
//! change in this file alone.
//!
//! A graph is its states plus flat columns: every successor list back
//! to back under a row index, and the BFS tree as the two words an
//! arena record stores. Rows are filled once each in ascending id
//! order and only a tail of them is ever cleared — how every engine
//! and snapshot writer works, and all [`StateGraph::set_edges`] takes.
//! A check's per-edge table (`liveness/fair.rs`) costs a byte an edge,
//! addressed through [`StateGraph::edge_base`].

use crate::checkpoint::{corrupt, CheckpointError};
use crate::reduction::Canonicalize;
use opentla_kernel::State;
use std::sync::Arc;

/// Summary statistics of a reachability graph; see
/// [`StateGraph::stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of reachable states.
    pub states: usize,
    /// Number of (non-stuttering) transitions.
    pub transitions: usize,
    /// Number of states without outgoing transitions.
    pub deadlocks: usize,
    /// Longest shortest path from an initial state (BFS depth).
    pub depth: usize,
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} states, {} transitions, depth {}, {} deadlocks",
            self.states, self.transitions, self.depth, self.deadlocks
        )
    }
}

/// An edge of the reachability graph: which action fired and where it
/// leads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Index of the action in the system's action list.
    pub action: usize,
    /// Index of the target state in the graph.
    pub target: usize,
}

/// The reachable state graph of a [`System`](crate::System), with a
/// BFS tree for shortest-trace reconstruction.
///
/// Exploration order is deterministic (BFS over the system's action
/// order), so state indices — and therefore counterexamples — are
/// reproducible. The parallel engine preserves this: its renumbering
/// pass restores the exact sequential ordering.
#[derive(Clone, Debug)]
pub struct StateGraph {
    states: Vec<State>,
    /// The states pushed without a parent, in id order.
    init: Vec<usize>,
    /// Every filled row, back to back in id order.
    edges: Vec<Edge>,
    /// Where each filled row starts in `edges`, and where the last one
    /// ends: one entry more than there are filled rows. A state past
    /// them has no edges yet.
    row_start: Vec<usize>,
    /// The BFS tree: each state's `(parent id, action)` — always an
    /// earlier state, [`NO_PARENT`] for an initial one.
    tree: Vec<(u32, u32)>,
    /// The symmetry canonicalizer the exploration ran under, if any —
    /// kept so counterexample concretization can map through orbits.
    canon: Option<Arc<dyn Canonicalize>>,
}

/// The parent word of an initial state, as in an arena record.
const NO_PARENT: u32 = u32::MAX;

impl StateGraph {
    /// An empty graph with room for `n` states.
    pub(crate) fn with_capacity(n: usize) -> StateGraph {
        StateGraph {
            states: Vec::with_capacity(n),
            init: Vec::new(),
            edges: Vec::new(),
            row_start: vec![0],
            tree: Vec::with_capacity(n),
            canon: None,
        }
    }

    /// Appends a state reached from `parent = (id, action)`, or an
    /// initial state (`None`), and returns its id. Every engine and
    /// every decoder adds states here, so this is where the BFS tree
    /// is kept well-founded: [`trace_to`](Self::trace_to) terminates
    /// and stays in bounds because a parent is always an earlier state.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] naming the state, when `parent` is
    /// not an earlier one (or does not fit a record's words) — which
    /// only bytes read from disk can cause.
    // `#[inline]`, like `set_edges`: both sit in the sequential loop's
    // per-state path, which the stores' interns are inlined into.
    #[inline]
    pub(crate) fn push_state(
        &mut self,
        state: State,
        parent: Option<(usize, usize)>,
    ) -> Result<usize, CheckpointError> {
        let id = self.states.len();
        let words = match parent {
            None => {
                self.init.push(id);
                (NO_PARENT, 0)
            }
            Some((p, a)) => match (u32::try_from(p), u32::try_from(a)) {
                (Ok(p32), Ok(a32)) if p < id && p32 != NO_PARENT => (p32, a32),
                _ => {
                    return Err(corrupt(format!(
                        "state {id} names state {p} as its BFS parent, not an earlier state"
                    )))
                }
            },
        };
        self.states.push(state);
        self.tree.push(words);
        Ok(id)
    }

    /// Fills the next row: the successor list of `id`, complete and in
    /// action order. The rows skipped over stay empty.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when `id` is not a state past the
    /// filled rows — as edge records read from disk can say; an engine
    /// that does has a bug, and `expect`s.
    #[inline]
    pub(crate) fn set_edges(&mut self, id: usize, edges: &[Edge]) -> Result<(), CheckpointError> {
        let (rows, n) = (self.row_start.len() - 1, self.states.len());
        if id < rows || id >= n {
            return Err(corrupt(format!(
                "edges of state {id} after {rows} row(s) of {n}: rows are filled once each, in \
                 ascending id order"
            )));
        }
        self.row_start.resize(id + 1, self.edges.len());
        self.edges.extend_from_slice(edges);
        self.row_start.push(self.edges.len());
        Ok(())
    }

    /// Empties the successor lists of `ids`, the arena's tail in
    /// ascending order: the states a snapshot leaves to be expanded
    /// again.
    pub(crate) fn clear_edges(&mut self, ids: &[usize]) {
        let Some(&first) = ids.first() else {
            return;
        };
        assert!(ids.iter().copied().eq(first..self.len()), "cleared rows are the arena's tail");
        self.edges.truncate(self.edge_base(first));
        self.row_start.truncate(first + 1);
    }

    /// A copy of the first `keep` states, nothing past them cloned.
    /// Edges of kept states are copied as they are: the caller cuts
    /// where none of them leads past `keep`.
    pub(crate) fn prefix(&self, keep: usize) -> StateGraph {
        let rows = keep.min(self.row_start.len() - 1);
        StateGraph {
            states: self.states[..keep].to_vec(),
            init: self.init.iter().copied().filter(|&i| i < keep).collect(),
            edges: self.edges[..self.row_start[rows]].to_vec(),
            row_start: self.row_start[..=rows].to_vec(),
            tree: self.tree[..keep].to_vec(),
            canon: self.canon.clone(),
        }
    }

    /// Tags the graph as explored under `canon` (see
    /// [`StateGraph::is_reduced`]).
    pub(crate) fn reduced_under(&mut self, canon: Arc<dyn Canonicalize>) {
        self.canon = Some(canon);
    }

    /// The BFS-tree entry of `id`: `(parent id, action)`, or `None`
    /// for an initial state.
    pub(crate) fn parent(&self, id: usize) -> Option<(usize, usize)> {
        let (parent, action) = self.tree[id];
        (parent != NO_PARENT).then_some((parent as usize, action as usize))
    }

    /// Where the edges of `id` start among all the graph's edges in
    /// graph order — the index of its first edge in a table with one
    /// entry per edge.
    #[inline]
    pub(crate) fn edge_base(&self, id: usize) -> usize {
        self.row_start.get(id).copied().unwrap_or(self.edges.len())
    }

    /// Number of reachable states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the graph is empty (no initial states).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Total number of (non-stuttering) transitions.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The state with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn state(&self, id: usize) -> &State {
        &self.states[id]
    }

    /// All reachable states in discovery order.
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// Whether this graph was built under an active
    /// [`Reduction`](crate::Reduction). A reduced graph soundly answers
    /// *state-invariant* reachability (for properties symmetric under
    /// the reduction's group), but its edges join orbit
    /// representatives — so [`crate::check_simulation`],
    /// [`crate::check_liveness`] and [`crate::check_step_invariant`]
    /// refuse it and require a full exploration instead (see
    /// [`crate::Reduction`]).
    pub fn is_reduced(&self) -> bool {
        self.canon.is_some()
    }

    /// The symmetry canonicalizer this graph was explored under.
    pub(crate) fn canonicalizer(&self) -> Option<&dyn Canonicalize> {
        self.canon.as_deref()
    }

    /// Indices of the initial states.
    pub fn init(&self) -> &[usize] {
        &self.init
    }

    /// Outgoing edges of a state.
    #[inline]
    pub fn edges(&self, id: usize) -> &[Edge] {
        &self.edges[self.edge_base(id)..self.edge_base(id + 1)]
    }

    /// States with no outgoing transition — "deadlocks" in the TLC
    /// sense. In TLA semantics these states merely stutter forever,
    /// which is often legitimate (a terminated protocol), but an
    /// unexpected deadlock usually signals an over-constrained guard.
    pub fn deadlocks(&self) -> Vec<usize> {
        (0..self.len()).filter(|i| self.edges(*i).is_empty()).collect()
    }

    /// Summary statistics of the graph: states, transitions, deadlock
    /// count, and the BFS depth (longest shortest path from an initial
    /// state).
    pub fn stats(&self) -> GraphStats {
        // BFS depth from all initial states.
        let mut depth = vec![usize::MAX; self.len()];
        let mut queue = std::collections::VecDeque::new();
        for &i in &self.init {
            depth[i] = 0;
            queue.push_back(i);
        }
        let mut max_depth = 0;
        while let Some(s) = queue.pop_front() {
            for e in self.edges(s) {
                if depth[e.target] == usize::MAX {
                    depth[e.target] = depth[s] + 1;
                    max_depth = max_depth.max(depth[e.target]);
                    queue.push_back(e.target);
                }
            }
        }
        GraphStats {
            states: self.len(),
            transitions: self.edge_count(),
            deadlocks: self.deadlocks().len(),
            depth: max_depth,
        }
    }

    /// The shortest trace from an initial state to `id`, as
    /// `(action index leading into the state, state index)` pairs; the
    /// first entry has no action.
    pub fn trace_to(&self, id: usize) -> Vec<(Option<usize>, usize)> {
        let mut rev = Vec::new();
        let mut cur = id;
        loop {
            match self.parent(cur) {
                Some((pred, action)) => {
                    rev.push((Some(action), cur));
                    cur = pred;
                }
                None => {
                    rev.push((None, cur));
                    break;
                }
            }
        }
        rev.reverse();
        rev
    }

    /// Where `self` and `other` first differ in anything a graph
    /// stores — the states in id order, each state's edge list, the
    /// BFS tree (whose parentless states are the initial ones), and
    /// last the name of the canonicalizer it was reduced under, if
    /// any — or `None` when they are the same graph. The description
    /// names one id and one state, edge list or parent of each side,
    /// whatever the graphs' size.
    pub fn first_difference(&self, other: &StateGraph) -> Option<String> {
        if self.len() != other.len() {
            return Some(format!("{} states vs {}", self.len(), other.len()));
        }
        let per_state = (0..self.len()).find_map(|id| {
            let differ = |what: &str, a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| {
                Some(format!("{what} of state {id}: {a:?} vs {b:?}"))
            };
            if self.states[id] != other.states[id] {
                differ("value", &self.states[id], &other.states[id])
            } else if self.edges(id) != other.edges(id) {
                differ("edges", &self.edges(id), &other.edges(id))
            } else if self.parent(id) != other.parent(id) {
                differ("BFS parent", &self.parent(id), &other.parent(id))
            } else {
                None
            }
        });
        per_state.or_else(|| {
            let a = self.canonicalizer().map(Canonicalize::name);
            let b = other.canonicalizer().map(Canonicalize::name);
            (a != b).then(|| format!("reduced under {a:?} vs {b:?}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_kernel::Value;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The graph as a heap row and a tree entry per state.
    #[derive(Default)]
    struct Model {
        states: Vec<State>,
        rows: Vec<Vec<Edge>>,
        parents: Vec<Option<(usize, usize)>>,
        /// Rows before this one are filled (possibly with no edge).
        filled: usize,
    }

    impl Model {
        fn stats(&self) -> GraphStats {
            let mut depth: Vec<Option<usize>> =
                self.parents.iter().map(|p| p.is_none().then_some(0)).collect();
            let mut queue: std::collections::VecDeque<usize> =
                (0..depth.len()).filter(|&i| depth[i].is_some()).collect();
            while let Some(s) = queue.pop_front() {
                for e in &self.rows[s] {
                    if depth[e.target].is_none() {
                        depth[e.target] = depth[s].map(|d| d + 1);
                        queue.push_back(e.target);
                    }
                }
            }
            GraphStats {
                states: self.states.len(),
                transitions: self.rows.iter().map(Vec::len).sum(),
                deadlocks: self.rows.iter().filter(|row| row.is_empty()).count(),
                depth: depth.into_iter().flatten().max().unwrap_or(0),
            }
        }

        fn trace_to(&self, id: usize) -> Vec<(Option<usize>, usize)> {
            match self.parents[id] {
                None => vec![(None, id)],
                Some((p, action)) => {
                    let mut trace = self.trace_to(p);
                    trace.push((Some(action), id));
                    trace
                }
            }
        }

        /// The same graph built in one go: every state, then the rows.
        fn graph(&self) -> StateGraph {
            let mut graph = StateGraph::with_capacity(self.states.len());
            for (state, parent) in self.states.iter().zip(&self.parents) {
                graph.push_state(state.clone(), *parent).unwrap();
            }
            for id in 0..self.filled {
                graph.set_edges(id, &self.rows[id]).unwrap();
            }
            graph
        }

        fn check(&self, graph: &StateGraph, step: &str) {
            let n = self.states.len();
            assert_eq!(graph.len(), n, "{step}");
            assert_eq!(graph.states(), &self.states[..], "{step}");
            let mut base = 0;
            for id in 0..n {
                assert_eq!(graph.edges(id), &self.rows[id][..], "{step}: edges of {id}");
                assert_eq!(graph.edge_base(id), base, "{step}: base of {id}");
                assert_eq!(graph.parent(id), self.parents[id], "{step}: parent of {id}");
                assert_eq!(graph.trace_to(id), self.trace_to(id), "{step}: trace to {id}");
                base += self.rows[id].len();
            }
            assert_eq!((graph.edge_base(n), graph.edge_count()), (base, base), "{step}");
            let init: Vec<usize> = (0..n).filter(|&i| self.parents[i].is_none()).collect();
            assert_eq!(graph.init(), init, "{step}");
            let deadlocks: Vec<usize> = (0..n).filter(|&i| self.rows[i].is_empty()).collect();
            assert_eq!(graph.deadlocks(), deadlocks, "{step}");
            assert_eq!(graph.stats(), self.stats(), "{step}");
            assert_eq!(graph.first_difference(&self.graph()), None, "{step}");
        }
    }

    /// Random `push_state` / `set_edges` (the next row, or one past a
    /// gap) / `clear_edges` (a tail) / `prefix` sequences leave the flat
    /// columns reading exactly as the row-per-state model does, and the
    /// calls the layout rules out are refused with the graph untouched.
    #[test]
    fn flat_columns_read_as_the_row_per_state_model() {
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut graph, mut model) = (StateGraph::with_capacity(0), Model::default());
            for step in 0..120 {
                let n = model.states.len();
                let what = match rng.gen_range(0..10) {
                    0..=3 => {
                        let parent = (n > 0 && rng.gen_range(0..4) > 0)
                            .then(|| (rng.gen_range(0..n), rng.gen_range(0..3)));
                        let state = State::new(vec![Value::Int((seed * 1000 + step) as i64)]);
                        assert_eq!(graph.push_state(state.clone(), parent).unwrap(), n);
                        model.states.push(state);
                        model.rows.push(Vec::new());
                        model.parents.push(parent);
                        "push_state"
                    }
                    4..=6 if model.filled < n => {
                        // Mostly the next row; sometimes past a gap.
                        let id = match rng.gen_range(0..4) {
                            0 => rng.gen_range(model.filled..n),
                            _ => model.filled,
                        };
                        let row: Vec<Edge> = (0..rng.gen_range(0..4))
                            .map(|action| Edge { action, target: rng.gen_range(0..n) })
                            .collect();
                        graph.set_edges(id, &row).unwrap();
                        model.rows[id] = row;
                        model.filled = id + 1;
                        "set_edges"
                    }
                    7 => {
                        let first = rng.gen_range(0..=n);
                        graph.clear_edges(&(first..n).collect::<Vec<_>>());
                        model.rows[first..].iter_mut().for_each(Vec::clear);
                        model.filled = model.filled.min(first);
                        "clear_edges"
                    }
                    8 => {
                        // A cut no kept edge leads past, as callers choose it.
                        let closed = |keep: usize| {
                            model.rows[..keep].iter().flatten().all(|e| e.target < keep)
                        };
                        let keeps: Vec<usize> = (0..=n).filter(|&k| closed(k)).collect();
                        let keep = keeps[rng.gen_range(0..keeps.len())];
                        graph = graph.prefix(keep);
                        model.states.truncate(keep);
                        model.rows.truncate(keep);
                        model.parents.truncate(keep);
                        model.filled = model.filled.min(keep);
                        "prefix"
                    }
                    _ => {
                        // A filled row, a state that does not exist, a
                        // parent that is not earlier: refused, no trace.
                        let edge = [Edge { action: 0, target: 0 }];
                        for id in (0..model.filled).chain([n, n + 3]) {
                            let err = graph.set_edges(id, &edge).unwrap_err();
                            assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
                        }
                        let state = State::new(vec![Value::Int(-1)]);
                        for p in [n, n + 1, u32::MAX as usize] {
                            graph.push_state(state.clone(), Some((p, 0))).unwrap_err();
                        }
                        "refusals"
                    }
                };
                model.check(&graph, &format!("seed {seed}, step {step}: {what}"));
            }
        }
    }

    #[test]
    fn first_difference_names_the_column_that_differs() {
        let state = |x| State::new(vec![Value::Int(x)]);
        let build = |third: i64, action: usize, target: usize| {
            let mut graph = StateGraph::with_capacity(3);
            graph.push_state(state(0), None).unwrap();
            graph.push_state(state(1), Some((0, 0))).unwrap();
            graph.push_state(state(third), Some((0, action))).unwrap();
            graph.set_edges(0, &[Edge { action: 0, target: 1 }, Edge { action: 1, target }]).unwrap();
            graph
        };
        let graph = build(2, 1, 2);
        assert_eq!(graph.first_difference(&build(2, 1, 2)), None);
        for (other, what) in [
            (build(7, 1, 2), "value of state 2"),
            (build(2, 1, 0), "edges of state 0"),
            (build(2, 0, 2), "BFS parent of state 2"),
            (graph.prefix(2), "3 states vs 2"),
        ] {
            let found = graph.first_difference(&other).expect(what);
            assert!(found.starts_with(what), "{found}");
        }
    }
}
