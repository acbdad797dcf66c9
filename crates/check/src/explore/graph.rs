//! The reachability graph, and the only code that knows how one is
//! laid out: the store, snapshots and the resume paths build a
//! [`StateGraph`] through the crate-internal methods below and read it
//! through its accessors, so the representation can change in this
//! file alone.
//!
//! A graph is its rows and flat columns. Each state is its packed row
//! under the graph's [`PackedLayout`] (`stride` bytes, in id order),
//! the row the exploration loop stepped. The checks after exploration
//! key on its slot codes (`image.rs`, `liveness/fair.rs`) and run
//! compiled programs on a [`RowView`]; a `State` is built only by
//! [`StateGraph::materialize`], to be handed out. Every successor list
//! sits back to back under a row index, 8 bytes an [`Edge`] — two `u32`
//! words, as every id is below `checkpoint::id_word`'s limit — and the
//! BFS tree is the two words an arena record stores. Edge rows are
//! filled once each in ascending id order — how every engine and
//! snapshot reader works, and all [`StateGraph::set_edges`] takes. A
//! check's per-edge table (`liveness/fair.rs`) costs a byte an edge,
//! addressed through [`StateGraph::edge_base`]. [`StateGraph::states`]
//! is a compatibility view for outside callers: its first call unpacks
//! every row, and the graph keeps the states (several hundred bytes
//! each on the certificate graphs, whose rows are five or six).

use crate::checkpoint::{corrupt, CheckpointError};
use crate::compiled::Slots;
use opentla_kernel::{PackedLayout, State, Value, VarId};
use std::sync::{Arc, OnceLock};

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
/// leads, 8 bytes. Both are `u32`, the words of an edge record: every
/// id a graph holds is below `checkpoint::id_word`'s limit, and a
/// reader that indexes with one casts it `as usize`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Index of the action in the system's action list.
    pub action: u32,
    /// Index of the target state in the graph.
    pub target: u32,
}

// The edge column is the graph's largest: keep it at two words.
const _: () = assert!(std::mem::size_of::<Edge>() == 8);

/// A state of a graph read off its packed row ([`StateGraph::view`]):
/// the value of a slot is its code's value in the slot's domain. A
/// [`CompiledExpr`](crate::CompiledExpr) runs on it as on the `State`
/// the row packs, results and errors alike; nothing is copied.
#[derive(Clone, Copy, Debug)]
pub struct RowView<'g> {
    layout: &'g PackedLayout,
    row: &'g [u8],
}

impl Slots for RowView<'_> {
    #[inline]
    fn slot(&self, v: VarId) -> Option<&Value> {
        let slot = v.index();
        (slot < self.layout.slots()).then(|| {
            self.layout
                .value_of(slot, self.layout.read_code(self.row, slot))
        })
    }

    #[inline]
    fn slot_count(&self) -> usize {
        self.layout.slots()
    }
}

/// The reachable state graph of a [`System`](crate::System), with a
/// BFS tree for shortest-trace reconstruction.
///
/// Exploration order is deterministic (BFS over the system's action
/// order), so state indices — and therefore counterexamples — are
/// reproducible.
#[derive(Clone, Debug)]
pub struct StateGraph {
    /// The layout every row is under.
    layout: Arc<PackedLayout>,
    /// Each state's packed row, `layout.stride()` bytes, in id order.
    rows: Vec<u8>,
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
    /// The compatibility view, every row unpacked: filled by the first
    /// call of [`states`](Self::states) or [`state`](Self::state).
    unpacked: OnceLock<Box<[State]>>,
}

/// The parent word of an initial state, as in an arena record.
const NO_PARENT: u32 = u32::MAX;

impl StateGraph {
    /// An empty graph of rows under `layout`, with room for `n` states.
    pub(crate) fn with_capacity(layout: Arc<PackedLayout>, n: usize) -> StateGraph {
        StateGraph {
            rows: Vec::with_capacity(n * layout.stride()),
            layout,
            init: Vec::new(),
            edges: Vec::new(),
            row_start: vec![0],
            tree: Vec::with_capacity(n),
            unpacked: OnceLock::new(),
        }
    }

    /// Makes room for `edges` more edges, and a row for every state: a
    /// graph filled from records grows its columns once.
    pub(crate) fn reserve_edges(&mut self, edges: usize) {
        self.edges.reserve_exact(edges);
        self.row_start
            .reserve_exact(self.len() + 1 - self.row_start.len());
    }

    /// Appends a state, its `row` under the graph's layout (the row the
    /// caller stepped, or read back checked), reached from
    /// `parent = (id, action)` or initial (`None`), and returns its id.
    /// Every engine and every decoder adds states here, so this is where
    /// the BFS tree is kept well-founded: [`trace_to`](Self::trace_to)
    /// terminates and stays in bounds because a parent is always an
    /// earlier state.
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
        row: &[u8],
        parent: Option<(usize, usize)>,
    ) -> Result<usize, CheckpointError> {
        debug_assert_eq!(row.len(), self.layout.stride(), "one row a state");
        let id = self.len();
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
        self.rows.extend_from_slice(row);
        self.tree.push(words);
        self.unpacked.take();
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
        let (rows, n) = (self.row_start.len() - 1, self.len());
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
        self.tree.len()
    }

    /// Whether the graph is empty (no initial states).
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Total number of (non-stuttering) transitions.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// State `id` (in range), built from its row: what a counterexample
    /// or an interpreted evaluation is handed.
    pub fn materialize(&self, id: usize) -> State {
        self.layout.unpack(self.row(id))
    }

    /// State `id` (in range) read off its row, for a compiled program
    /// to run on.
    #[inline]
    pub fn view(&self, id: usize) -> RowView<'_> {
        RowView {
            layout: &self.layout,
            row: self.row(id),
        }
    }

    /// State `id` (in range) from the compatibility view of
    /// [`states`](Self::states).
    pub fn state(&self, id: usize) -> &State {
        &self.states()[id]
    }

    /// All reachable states in discovery order: a compatibility view.
    /// The first call unpacks every row, and the graph keeps the states
    /// until it is dropped; [`view`](Self::view) and
    /// [`materialize`](Self::materialize) read one state without it.
    pub fn states(&self) -> &[State] {
        self.unpacked
            .get_or_init(|| (0..self.len()).map(|id| self.materialize(id)).collect())
    }

    /// The layout the graph's rows are under.
    pub(crate) fn layout(&self) -> &Arc<PackedLayout> {
        &self.layout
    }

    /// The packed row of state `id`: its slot codes under
    /// [`layout`](Self::layout).
    #[inline]
    pub(crate) fn row(&self, id: usize) -> &[u8] {
        let stride = self.layout.stride();
        assert!(id < self.len(), "state {id} of {}", self.len());
        &self.rows[id * stride..][..stride]
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
        (0..self.len())
            .filter(|i| self.edges(*i).is_empty())
            .collect()
    }

    /// Summary statistics of the graph: states, transitions, deadlock
    /// count, and the BFS depth (longest shortest path from an initial
    /// state).
    pub fn stats(&self) -> GraphStats {
        // BFS depth from all initial states, on ids as the edges hold
        // them.
        let mut depth = vec![u32::MAX; self.len()];
        let mut queue = std::collections::VecDeque::new();
        for &i in &self.init {
            depth[i] = 0;
            queue.push_back(i as u32);
        }
        let mut max_depth = 0;
        while let Some(s) = queue.pop_front() {
            let next = depth[s as usize] + 1;
            for e in self.edges(s as usize) {
                let d = &mut depth[e.target as usize];
                if *d == u32::MAX {
                    *d = next;
                    max_depth = max_depth.max(next);
                    queue.push_back(e.target);
                }
            }
        }
        GraphStats {
            states: self.len(),
            transitions: self.edge_count(),
            deadlocks: (0..self.len())
                .filter(|&i| self.edges(i).is_empty())
                .count(),
            depth: max_depth as usize,
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
    /// stores — the states in id order, each state's edge list and the
    /// BFS tree (whose parentless states are the initial ones) — or
    /// `None` when they are the same graph. States are compared as rows
    /// when the two layouts have the same domains, and as the states
    /// they unpack to otherwise. The description names one id and one
    /// state, edge list or parent of each side, whatever the graphs'
    /// size.
    pub fn first_difference(&self, other: &StateGraph) -> Option<String> {
        if self.len() != other.len() {
            return Some(format!("{} states vs {}", self.len(), other.len()));
        }
        let rows_compare = self.layout.domains() == other.layout.domains();
        (0..self.len()).find_map(|id| {
            let differ = |what: &str, a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| {
                Some(format!("{what} of state {id}: {a:?} vs {b:?}"))
            };
            let same = if rows_compare {
                self.row(id) == other.row(id)
            } else {
                self.materialize(id) == other.materialize(id)
            };
            if !same {
                differ("value", &self.materialize(id), &other.materialize(id))
            } else if self.edges(id) != other.edges(id) {
                differ("edges", &self.edges(id), &other.edges(id))
            } else if self.parent(id) != other.parent(id) {
                differ("BFS parent", &self.parent(id), &other.parent(id))
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_kernel::{Domain, Vars};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One integer slot, wide enough for every state below: 16 bits, so
    /// a row is two bytes. Compiled once.
    fn layout() -> Arc<PackedLayout> {
        static LAYOUT: OnceLock<Arc<PackedLayout>> = OnceLock::new();
        let layout = LAYOUT.get_or_init(|| {
            let mut vars = Vars::new();
            vars.declare("x", Domain::int_range(-1, 40_200));
            Arc::new(PackedLayout::compile(&vars).expect("one integer slot"))
        });
        Arc::clone(layout)
    }

    /// `graph.push_state` with the state's row.
    fn push(
        graph: &mut StateGraph,
        state: State,
        parent: Option<(usize, usize)>,
    ) -> Result<usize, CheckpointError> {
        let row = graph.layout().pack(&state).expect("in the slot's domain");
        graph.push_state(&row, parent)
    }

    /// The graph as a heap row and a tree entry per state.
    #[derive(Default)]
    struct Model {
        pushed: Vec<State>,
        rows: Vec<Vec<Edge>>,
        parents: Vec<Option<(usize, usize)>>,
        /// Rows before this one are filled (possibly with no edge).
        filled: usize,
    }

    impl Model {
        fn stats(&self) -> GraphStats {
            let mut depth: Vec<Option<usize>> = self
                .parents
                .iter()
                .map(|p| p.is_none().then_some(0))
                .collect();
            let mut queue: std::collections::VecDeque<usize> =
                (0..depth.len()).filter(|&i| depth[i].is_some()).collect();
            while let Some(s) = queue.pop_front() {
                for e in &self.rows[s] {
                    if depth[e.target as usize].is_none() {
                        depth[e.target as usize] = depth[s].map(|d| d + 1);
                        queue.push_back(e.target as usize);
                    }
                }
            }
            GraphStats {
                states: self.pushed.len(),
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
            let mut graph = StateGraph::with_capacity(layout(), self.pushed.len());
            for (state, parent) in self.pushed.iter().zip(&self.parents) {
                push(&mut graph, state.clone(), *parent).unwrap();
            }
            for id in 0..self.filled {
                graph.set_edges(id, &self.rows[id]).unwrap();
            }
            graph
        }

        fn check(&self, graph: &StateGraph, step: &str) {
            let n = self.pushed.len();
            assert_eq!(graph.len(), n, "{step}");
            assert_eq!(graph.states(), &self.pushed[..], "{step}");
            assert_eq!(graph.rows.len(), n * graph.layout().stride(), "{step}");
            let mut base = 0;
            for id in 0..n {
                let row = graph.layout().pack(&self.pushed[id]).unwrap();
                assert_eq!(graph.row(id), row, "{step}: row of {id}");
                assert_eq!(graph.materialize(id), self.pushed[id], "{step}: state {id}");
                assert_eq!(graph.state(id), &self.pushed[id], "{step}: view of {id}");
                assert_eq!(graph.edges(id), &self.rows[id][..], "{step}: edges of {id}");
                assert_eq!(graph.edge_base(id), base, "{step}: base of {id}");
                assert_eq!(graph.parent(id), self.parents[id], "{step}: parent of {id}");
                assert_eq!(
                    graph.trace_to(id),
                    self.trace_to(id),
                    "{step}: trace to {id}"
                );
                base += self.rows[id].len();
            }
            assert_eq!(
                (graph.edge_base(n), graph.edge_count()),
                (base, base),
                "{step}"
            );
            let init: Vec<usize> = (0..n).filter(|&i| self.parents[i].is_none()).collect();
            assert_eq!(graph.init(), init, "{step}");
            let deadlocks: Vec<usize> = (0..n).filter(|&i| self.rows[i].is_empty()).collect();
            assert_eq!(graph.deadlocks(), deadlocks, "{step}");
            assert_eq!(graph.stats(), self.stats(), "{step}");
            assert_eq!(graph.first_difference(&self.graph()), None, "{step}");
        }
    }

    /// Random `push_state` / `set_edges` (the next row, or one past a
    /// gap) sequences leave the flat columns reading exactly as the
    /// row-per-state model does, and the calls the layout rules out are
    /// refused with the graph untouched.
    #[test]
    fn flat_columns_read_as_the_row_per_state_model() {
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut graph, mut model) = (StateGraph::with_capacity(layout(), 0), Model::default());
            for step in 0..120 {
                let n = model.pushed.len();
                let what = match rng.gen_range(0..10) {
                    0..=3 => {
                        let parent = (n > 0 && rng.gen_range(0..4) > 0)
                            .then(|| (rng.gen_range(0..n), rng.gen_range(0..3)));
                        let state = State::new(vec![Value::Int((seed * 1000 + step) as i64)]);
                        assert_eq!(push(&mut graph, state.clone(), parent).unwrap(), n);
                        model.pushed.push(state);
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
                        let row: Vec<Edge> = (0..rng.gen_range(0..4usize))
                            .map(|action| Edge {
                                action: action as u32,
                                target: rng.gen_range(0..n) as u32,
                            })
                            .collect();
                        graph.set_edges(id, &row).unwrap();
                        model.rows[id] = row;
                        model.filled = id + 1;
                        "set_edges"
                    }
                    _ => {
                        // A filled row, a state that does not exist, a
                        // parent that is not earlier: refused, no trace.
                        let edge = [Edge {
                            action: 0,
                            target: 0,
                        }];
                        for id in (0..model.filled).chain([n, n + 3]) {
                            let err = graph.set_edges(id, &edge).unwrap_err();
                            assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
                        }
                        let state = State::new(vec![Value::Int(-1)]);
                        for p in [n, n + 1, u32::MAX as usize] {
                            push(&mut graph, state.clone(), Some((p, 0))).unwrap_err();
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
        let build = |third: i64, action: usize, target: u32| {
            let mut graph = StateGraph::with_capacity(layout(), 3);
            push(&mut graph, state(0), None).unwrap();
            push(&mut graph, state(1), Some((0, 0))).unwrap();
            push(&mut graph, state(third), Some((0, action))).unwrap();
            graph
                .set_edges(
                    0,
                    &[
                        Edge {
                            action: 0,
                            target: 1,
                        },
                        Edge { action: 1, target },
                    ],
                )
                .unwrap();
            graph
        };
        let graph = build(2, 1, 2);
        assert_eq!(graph.first_difference(&build(2, 1, 2)), None);
        let mut two = StateGraph::with_capacity(layout(), 2);
        push(&mut two, state(0), None).unwrap();
        push(&mut two, state(1), Some((0, 0))).unwrap();
        for (other, what) in [
            (build(7, 1, 2), "value of state 2"),
            (build(2, 1, 0), "edges of state 0"),
            (build(2, 0, 2), "BFS parent of state 2"),
            (two, "3 states vs 2"),
        ] {
            let found = graph.first_difference(&other).expect(what);
            assert!(found.starts_with(what), "{found}");
        }
    }

    /// The kernel's wide layout, 4 096 ten-bit slots: all but every
    /// fourth slot straddle a byte boundary (slot 1 is bits 10..20, in
    /// bytes 1 and 2), and the view reads each as the state holds it —
    /// nothing past the last slot.
    #[test]
    fn a_row_view_reads_slots_across_byte_boundaries() {
        let mut vars = Vars::new();
        let ids: Vec<VarId> = (0..4096)
            .map(|i| vars.declare(format!("v{i}"), Domain::int_range(0, 1000)))
            .collect();
        let ghost = vars.clone().declare("ghost", Domain::bits());
        let layout = Arc::new(PackedLayout::compile(&vars).expect("every Vars compiles"));
        let state = State::new(
            (0..4096)
                .map(|i| Value::Int((i * 7) % 1001))
                .collect::<Vec<_>>(),
        );
        let mut graph = StateGraph::with_capacity(Arc::clone(&layout), 1);
        push(&mut graph, state.clone(), None).unwrap();
        let view = graph.view(0);
        assert_eq!(view.slot_count(), 4096);
        for v in ids {
            assert_eq!(view.slot(v), Some(state.get(v)), "{v:?}");
        }
        assert_eq!(view.slot(ghost), None);
        assert_eq!(graph.materialize(0), state);
    }

    /// Rows are compared only under layouts of the same domains: over
    /// `x ∈ 0..=40201` instead of `-1..=40200`, every state's row is the
    /// row of the value one higher, so equal rows are different states.
    #[test]
    fn first_difference_compares_values_across_different_domains() {
        let mut vars = Vars::new();
        vars.declare("x", Domain::int_range(0, 40_201));
        let shifted = Arc::new(PackedLayout::compile(&vars).expect("one integer slot"));
        let build = |layout: Arc<PackedLayout>, x: i64| {
            let mut graph = StateGraph::with_capacity(layout, 1);
            push(&mut graph, State::new(vec![Value::Int(x)]), None).unwrap();
            graph
        };
        let (a, b) = (build(layout(), 0), build(Arc::clone(&shifted), 1));
        assert_eq!(a.row(0), b.row(0), "code 1 in both");
        let found = a.first_difference(&b).expect("0 is not 1");
        assert!(found.starts_with("value of state 0"), "{found}");
        assert_eq!(a.first_difference(&build(shifted, 0)), None);
    }
}
