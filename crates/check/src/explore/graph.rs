//! The reachability graph, and the only code that knows how one is
//! laid out: stores, the canonical replay, snapshots and the resume
//! paths build a [`StateGraph`] through the crate-internal methods
//! below and read it through its accessors, so the representation can
//! change in this file alone.

use crate::checkpoint::CheckpointError;
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
    edges: Vec<Vec<Edge>>,
    /// The sum of the `edges` lengths, kept where they change.
    edge_count: usize,
    /// `(parent id, action)` of the BFS tree; always an earlier state.
    parents: Vec<Option<(usize, usize)>>,
    /// The symmetry canonicalizer the exploration ran under, if any —
    /// kept so counterexample concretization can map through orbits.
    canon: Option<Arc<dyn Canonicalize>>,
}

#[cold]
fn bad_parent(id: usize, parent: usize) -> CheckpointError {
    CheckpointError::Corrupt {
        detail: format!("state {id} names state {parent} as its BFS parent, not an earlier state"),
    }
}

impl StateGraph {
    /// An empty graph with room for `n` states.
    pub(crate) fn with_capacity(n: usize) -> StateGraph {
        StateGraph {
            states: Vec::with_capacity(n),
            init: Vec::new(),
            edges: Vec::with_capacity(n),
            edge_count: 0,
            parents: Vec::with_capacity(n),
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
    /// not an earlier one — which only bytes read from disk can cause.
    // `#[inline]`, like `set_edges`: both sit in the sequential loop's
    // per-state path, which the stores' interns are inlined into.
    #[inline]
    pub(crate) fn push_state(
        &mut self,
        state: State,
        parent: Option<(usize, usize)>,
    ) -> Result<usize, CheckpointError> {
        let id = self.states.len();
        match parent {
            None => self.init.push(id),
            Some((p, _)) if p < id => {}
            Some((p, _)) => return Err(bad_parent(id, p)),
        }
        self.states.push(state);
        self.edges.push(Vec::new());
        self.parents.push(parent);
        Ok(id)
    }

    /// Replaces the successor list of `id` with `edges`, complete and
    /// in action order.
    #[inline]
    pub(crate) fn set_edges(&mut self, id: usize, edges: &[Edge]) {
        self.edge_count = self.edge_count - self.edges[id].len() + edges.len();
        self.edges[id] = if edges.is_empty() {
            Vec::new()
        } else {
            // Sized as `Vec::push` growth would have left it (a power
            // of two, at least 4) rather than exactly: the few uniform
            // size classes keep the allocator's free lists hot, where
            // exact-size lists measured ~7 % slower once a previous
            // graph's memory is being reused.
            let mut list = Vec::with_capacity(edges.len().next_power_of_two().max(4));
            list.extend_from_slice(edges);
            list
        };
    }

    /// Empties the successor lists of `ids`: the states a snapshot
    /// leaves to be expanded again.
    pub(crate) fn clear_edges(&mut self, ids: &[usize]) {
        for &id in ids {
            self.edge_count -= std::mem::take(&mut self.edges[id]).len();
        }
    }

    /// A copy of the first `keep` states, nothing past them cloned.
    /// Edges of kept states are copied as they are: the caller cuts
    /// where none of them leads past `keep`.
    pub(crate) fn prefix(&self, keep: usize) -> StateGraph {
        let edges = self.edges[..keep].to_vec();
        StateGraph {
            states: self.states[..keep].to_vec(),
            init: self.init.iter().copied().filter(|&i| i < keep).collect(),
            edge_count: edges.iter().map(Vec::len).sum(),
            edges,
            parents: self.parents[..keep].to_vec(),
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
        self.parents[id]
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
        self.edge_count
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
    pub fn edges(&self, id: usize) -> &[Edge] {
        &self.edges[id]
    }

    /// States with no outgoing transition — "deadlocks" in the TLC
    /// sense. In TLA semantics these states merely stutter forever,
    /// which is often legitimate (a terminated protocol), but an
    /// unexpected deadlock usually signals an over-constrained guard.
    pub fn deadlocks(&self) -> Vec<usize> {
        (0..self.len()).filter(|i| self.edges[*i].is_empty()).collect()
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
            for e in &self.edges[s] {
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
            match self.parents[cur] {
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
            } else if self.edges[id] != other.edges[id] {
                differ("edges", &self.edges[id], &other.edges[id])
            } else if self.parents[id] != other.parents[id] {
                differ("BFS parent", &self.parents[id], &other.parents[id])
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
