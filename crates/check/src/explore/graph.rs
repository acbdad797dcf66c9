//! The reachability graph, and the only code that knows how one is
//! laid out: the store, snapshots and the resume paths build a
//! [`StateGraph`] through the crate-internal methods below and read it
//! through its accessors, so the representation can change in this
//! file alone.
//!
//! A graph is its rows and edges, in blocks. Each state is its packed
//! row under the graph's [`PackedLayout`] (`stride` bytes), the row the
//! exploration loop stepped. The checks after exploration key on its
//! slot codes (`image.rs`, `liveness/fair.rs`) and run compiled
//! programs on a [`RowView`]; a `State` is built only by
//! [`StateGraph::materialize`], to be handed out. A state's successor
//! list is 8 bytes an [`Edge`] — two `u32` words, as every id is below
//! `checkpoint::id_word`'s limit. Edge rows are filled once each in
//! ascending id order — how every engine and snapshot reader works,
//! and all [`StateGraph::set_edges`] takes.
//!
//! **Blocks that never move.** The states are kept in blocks of
//! `BLOCK` (4 096) consecutive ids. A block holds its states' rows
//! (`BLOCK × stride` bytes, allocated whole at its first state, or
//! fewer for the last block of a graph whose size is known), a `u32`
//! offset per filled row local to the block, and its rows' edges. While
//! its rows are being filled, a block's edges sit in one growing list
//! the graph reuses; once its last row is filled they are copied into
//! an allocation of exactly their size, which is never grown, moved or
//! copied again. So a graph costs `stride + 4` bytes a state and 8 an
//! edge, plus at most one block's spare room; no column grows by
//! copying past one block, and none leaves a freed predecessor twice
//! its size behind in the allocator. A check's per-edge table
//! (`liveness/fair.rs`) costs a byte an edge, addressed through
//! [`StateGraph::edge_base`], the dense index of a state's first edge
//! (its block's first edge's, plus the local offset).
//! [`StateGraph::states`] is a compatibility view for outside callers:
//! its first call unpacks every row, and the graph keeps the states
//! (several hundred bytes each on the certificate graphs, whose rows
//! are five or six).
//!
//! There is no BFS tree column. The explorer expands parents in id
//! order and interns each one's successors in edge order, so a state's
//! BFS parent is the first edge into it in that order, and
//! [`StateGraph::trace_to`] derives the parents it needs in one scan of
//! the edges below its target. The one exception is a resumed run cut
//! before it re-expanded its first unexpanded state as far as the run
//! it resumed had: the states that parent discovered then are reached
//! by no row, and the graph keeps their discovering edges beside the
//! rows (the *strays*).

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

/// The reachable state graph of a [`System`](crate::System), whose
/// edges in discovery order give each state's shortest trace.
///
/// Exploration order is deterministic (BFS over the system's action
/// order), so state indices — and therefore counterexamples — are
/// reproducible.
#[derive(Clone, Debug)]
pub struct StateGraph {
    /// The layout every row is under.
    layout: Arc<PackedLayout>,
    /// The states, `BLOCK` to a block, in id order.
    blocks: Vec<Block>,
    /// The states the builder said the graph holds: the block of the
    /// last of them is sized to end there.
    capacity: usize,
    /// The edges of the open block — the block of the next row to
    /// fill — back to back, until its last row is filled and they are
    /// copied into it.
    open: Vec<Edge>,
    /// What the blocks have allocated: their rows and edge offsets
    /// from their first state, their edges from their last row.
    block_bytes: usize,
    /// Rows filled: each row below it is (with no edge, if skipped
    /// over). A state past them has no edges yet.
    filled: usize,
    /// Edges in all the filled rows.
    edge_count: usize,
    /// The states pushed without a parent, in id order.
    init: Vec<usize>,
    /// Number of states: a zero-width layout's rows have no bytes to
    /// count.
    len: usize,
    /// The edges that discovered a state no row reaches, as `(parent,
    /// edge)` in id order of their targets: those of a resumed run's
    /// first unexpanded state, cut before it re-expanded as far as the
    /// run it resumed from had. Empty in every other graph.
    strays: Vec<(u32, Edge)>,
    /// The compatibility view, every row unpacked: filled by the first
    /// call of [`states`](Self::states) or [`state`](Self::state).
    unpacked: OnceLock<Box<[State]>>,
}

/// Bits of a state id below its block's index: a block holds
/// `BLOCK` consecutive states.
const BLOCK_BITS: u32 = 12;
const BLOCK: usize = 1 << BLOCK_BITS;

/// `BLOCK` consecutive states of a graph, from an id that is a multiple
/// of `BLOCK`: what its rows, edge offsets and edges take, each
/// allocated once.
#[derive(Clone, Debug)]
struct Block {
    /// Each state's packed row, `stride` bytes, in id order: room for
    /// every state of the block, allocated at its first.
    rows: Vec<u8>,
    /// Where each filled row's edges start among the block's, in id
    /// order: room for every state of the block, allocated with `rows`.
    starts: Vec<u32>,
    /// The filled rows' edges, back to back, exactly as many: empty
    /// while the block is open (its edges are the graph's `open`).
    edges: Box<[Edge]>,
    /// The dense index of the block's first edge among all the graph's
    /// edges: set when its first row is filled.
    base: usize,
}

/// The capacity a list of capacity `cap` has once it holds `need`
/// items: `cap` while they fit, else doubled — at least to `need`, and
/// to no fewer than four. The graph's open edge list and the dedup
/// index's column grow by it, so what a step adds is known before it
/// is taken.
pub(crate) fn grown(cap: usize, need: usize) -> usize {
    match need <= cap {
        true => cap,
        false => need.max(2 * cap).max(4),
    }
}

/// A block of a graph handed over by [`StateGraph::into_blocks`]: its
/// states' rows, and the edges of those of its rows that are filled.
pub(crate) struct TakenBlock {
    first: usize,
    states: usize,
    stride: usize,
    rows: Vec<u8>,
    starts: Vec<u32>,
    edges: Vec<Edge>,
}

impl TakenBlock {
    /// The ids of its states.
    pub(crate) fn ids(&self) -> std::ops::Range<usize> {
        self.first..self.first + self.states
    }

    /// The ids of its filled rows: a prefix of [`ids`](Self::ids).
    pub(crate) fn filled(&self) -> std::ops::Range<usize> {
        self.first..self.first + self.starts.len()
    }

    /// The packed row of state `id`, one of [`ids`](Self::ids).
    pub(crate) fn row(&self, id: usize) -> &[u8] {
        &self.rows[(id - self.first) * self.stride..][..self.stride]
    }

    /// The edges of state `id`, one of [`filled`](Self::filled).
    pub(crate) fn edges(&self, id: usize) -> &[Edge] {
        let local = id - self.first;
        let end = (self.starts.get(local + 1)).map_or(self.edges.len(), |&e| e as usize);
        &self.edges[self.starts[local] as usize..end]
    }
}

/// The parent words of [`Discoveries`] that name no state: an initial
/// state's, and that of a state no scanned edge reaches. No parent is
/// either: a parent is below its child, and every id is below
/// `checkpoint::id_word`'s limit, `u32::MAX`.
const INITIAL: u32 = u32::MAX;
const UNREACHED: u32 = u32::MAX - 1;

/// Each state below some end with the edge the explorer discovered it
/// by, derived from a graph's edges ([`StateGraph::discoveries`]): 8
/// bytes a state, for as long as its caller keeps it.
pub(crate) struct Discoveries {
    /// Each state's `(parent, action)`, or [`INITIAL`] or [`UNREACHED`]
    /// in the parent word.
    found: Vec<(u32, u32)>,
}

impl Discoveries {
    /// Takes `edge`, out of `parent`, as the discovering edge of its
    /// target, unless that state is initial, past the end or reached
    /// already; returns whether it did.
    #[inline]
    fn discover(&mut self, parent: u32, edge: Edge) -> bool {
        match self.found.get_mut(edge.target as usize) {
            Some(slot) if slot.0 == UNREACHED => {
                *slot = (parent, edge.action);
                true
            }
            _ => false,
        }
    }

    /// The `(parent, action)` that discovered `id`, or `None` for an
    /// initial state and one no edge reached.
    #[cfg(test)]
    pub(crate) fn parent(&self, id: usize) -> Option<(usize, usize)> {
        let (parent, action) = self.found[id];
        (parent < UNREACHED).then_some((parent as usize, action as usize))
    }
}

impl StateGraph {
    /// An empty graph of rows under `layout`, sized for `n` states: the
    /// block of the `n`th ends there, and every other block holds
    /// `BLOCK`. Nothing is allocated before the first state.
    pub(crate) fn with_capacity(layout: Arc<PackedLayout>, n: usize) -> StateGraph {
        StateGraph {
            layout,
            blocks: Vec::with_capacity(n.div_ceil(BLOCK)),
            capacity: n,
            open: Vec::new(),
            block_bytes: 0,
            filled: 0,
            edge_count: 0,
            init: Vec::new(),
            len: 0,
            strays: Vec::new(),
            unpacked: OnceLock::new(),
        }
    }

    /// Gives back the open block's spare edge room, once its builder has
    /// filled every row it will: the graph then holds exactly its
    /// states' rows and edges, but for the last block's unused rows.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.open.shrink_to_fit();
    }

    /// The bytes the graph's states and edges take, as allocated: every
    /// block's rows and edge offsets, the edges of its filled rows, and
    /// the open block's edge list at its capacity. The store weighs its
    /// RAM body with it, and with [`state_bytes`](Self::state_bytes)
    /// and [`edges_bytes`](Self::edges_bytes) what the next step adds.
    pub(crate) fn allocated_bytes(&self) -> usize {
        self.block_bytes + self.open.capacity() * size_of::<Edge>()
    }

    /// What [`push_state`](Self::push_state) adds to
    /// [`allocated_bytes`](Self::allocated_bytes): a new block's room,
    /// at its first state.
    #[inline]
    pub(crate) fn state_bytes(&self) -> usize {
        match self.len.is_multiple_of(BLOCK) {
            true => self.block_states(self.len) * (self.layout.stride() + size_of::<u32>()),
            false => 0,
        }
    }

    /// What [`set_edges`](Self::set_edges) of the next row, with `n`
    /// edges, adds to [`allocated_bytes`](Self::allocated_bytes): the
    /// open list's growth, and, when the row is its block's last, the
    /// block's edges sized exactly.
    pub(crate) fn edges_bytes(&self, n: usize) -> usize {
        let (len, cap) = (self.open.len() + n, self.open.capacity());
        let closes = self.filled % BLOCK == BLOCK - 1;
        (grown(cap, len) - cap + usize::from(closes) * len) * size_of::<Edge>()
    }

    /// The states the block from `first` on has room for: `BLOCK`, or,
    /// for the block of the last state the builder said the graph
    /// holds, up to that state.
    fn block_states(&self, first: usize) -> usize {
        match self.capacity.checked_sub(first) {
            Some(left @ 1..) => left.min(BLOCK),
            _ => BLOCK,
        }
    }

    /// Hands the graph over a block at a time, in id order: each block
    /// is freed when the caller drops it, so a caller that writes the
    /// states and edges elsewhere holds the graph and their new home
    /// together for one block only. A graph with strays is never handed
    /// over (only a decoder makes one).
    pub(crate) fn into_blocks(self) -> impl Iterator<Item = TakenBlock> {
        debug_assert!(self.strays.is_empty(), "a graph with strays is kept whole");
        let (stride, len, open_block) = (self.layout.stride(), self.len, self.filled >> BLOCK_BITS);
        let mut open = Some(self.open);
        self.blocks.into_iter().enumerate().map(move |(b, block)| {
            let first = b * BLOCK;
            let edges = match b == open_block {
                true => open.take().unwrap_or_default(),
                false => Vec::from(block.edges),
            };
            TakenBlock {
                first,
                states: (len - first).min(BLOCK),
                stride,
                rows: block.rows,
                starts: block.starts,
                edges,
            }
        })
    }

    /// Appends a state, its `row` under the graph's layout (the row the
    /// caller stepped, or read back checked), `initial` or reached by
    /// an edge, and returns its id. A reached state's BFS parent is not
    /// stored: it is the first edge into the state
    /// ([`discoveries`](Self::discoveries)), which the caller adds to
    /// its parent's row once that parent is expanded.
    // `#[inline]`, like `set_edges`: both sit in the sequential loop's
    // per-state path, which the stores' interns are inlined into.
    #[inline]
    pub(crate) fn push_state(&mut self, row: &[u8], initial: bool) -> usize {
        debug_assert_eq!(row.len(), self.layout.stride(), "one row a state");
        let id = self.len;
        if initial {
            self.init.push(id);
        }
        if id.is_multiple_of(BLOCK) {
            let states = self.block_states(id);
            self.block_bytes += states * (self.layout.stride() + size_of::<u32>());
            self.blocks.push(Block {
                rows: Vec::with_capacity(states * self.layout.stride()),
                starts: Vec::with_capacity(states),
                edges: Box::default(),
                base: 0,
            });
        }
        let block = self
            .blocks
            .last_mut()
            .expect("the block of `id` was pushed");
        block.rows.extend_from_slice(row);
        self.len += 1;
        self.unpacked.take();
        id
    }

    /// Records `edge`, out of `parent`, as the discovering edge of a
    /// state no row reaches: see `strays`. Only a decoder that has
    /// checked it against the run's records calls this.
    pub(crate) fn push_stray(&mut self, parent: usize, edge: Edge) {
        self.strays.push((parent as u32, edge));
    }

    /// Fills the next row: the successor list of `id`, complete and in
    /// action order. The rows skipped over stay empty. A block whose
    /// last row this fills gets its edges, exactly sized.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when `id` is not a state past the
    /// filled rows — as edge records read from disk can say; an engine
    /// that does has a bug, and `expect`s.
    #[inline]
    pub(crate) fn set_edges(&mut self, id: usize, edges: &[Edge]) -> Result<(), CheckpointError> {
        let (rows, n) = (self.filled, self.len());
        if id < rows || id >= n {
            return Err(corrupt(format!(
                "edges of state {id} after {rows} row(s) of {n}: rows are filled once each, in \
                 ascending id order"
            )));
        }
        for row in rows..=id {
            let block = &mut self.blocks[row >> BLOCK_BITS];
            if row.is_multiple_of(BLOCK) {
                block.base = self.edge_count;
            }
            let start = u32::try_from(self.open.len()).expect("a block's edges fit in u32");
            block.starts.push(start);
            if row == id {
                // Grown as `edges_bytes` says it grows.
                let need = self.open.len() + edges.len();
                let cap = grown(self.open.capacity(), need);
                self.open.reserve_exact(cap - self.open.len());
                self.open.extend_from_slice(edges);
                self.edge_count += edges.len();
            }
            if row % BLOCK == BLOCK - 1 {
                block.edges = Box::from(self.open.as_slice());
                self.block_bytes += block.edges.len() * size_of::<Edge>();
                self.open.clear();
            }
        }
        self.filled = id + 1;
        Ok(())
    }

    /// Each state below `end` with the edge the explorer discovered it
    /// by: the first edge into it, unless it is initial, in a scan of
    /// the rows of the states below `end` in id order and then of the
    /// strays. `until` ends the scan once that state is reached: every
    /// ancestor of a state is reached before it, by an edge of an
    /// earlier row, as a parent is always an earlier state. The scan
    /// reads each edge below `end` at most once and keeps 8 bytes a
    /// state.
    pub(crate) fn discoveries(&self, end: usize, until: Option<usize>) -> Discoveries {
        let mut found = Discoveries {
            found: vec![(UNREACHED, 0); end],
        };
        for &id in self.init.iter().take_while(|&&id| id < end) {
            found.found[id].0 = INITIAL;
        }
        let rows = (0..end.min(self.filled))
            .flat_map(|parent| self.edges(parent).iter().map(move |&e| (parent as u32, e)));
        let strays = (self.strays.iter()).filter(|&&(parent, _)| (parent as usize) < end);
        for (parent, edge) in rows.chain(strays.copied()) {
            if found.discover(parent, edge) && Some(edge.target as usize) == until {
                break;
            }
        }
        found
    }

    /// Where the edges of `id` start among all the graph's edges in
    /// graph order — the index of its first edge in a table with one
    /// entry per edge: its block's first edge's, plus its offset in the
    /// block. A state past the filled rows starts at the end.
    #[inline]
    pub(crate) fn edge_base(&self, id: usize) -> usize {
        if id >= self.filled {
            return self.edge_count;
        }
        let block = &self.blocks[id >> BLOCK_BITS];
        block.base + block.starts[id % BLOCK] as usize
    }

    /// Number of reachable states.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the graph is empty (no initial states).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of (non-stuttering) transitions.
    pub fn edge_count(&self) -> usize {
        self.edge_count
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
        &self.blocks[id >> BLOCK_BITS].rows[id % BLOCK * stride..][..stride]
    }

    /// Indices of the initial states.
    pub fn init(&self) -> &[usize] {
        &self.init
    }

    /// Outgoing edges of a state.
    #[inline]
    pub fn edges(&self, id: usize) -> &[Edge] {
        if id >= self.filled {
            return &[];
        }
        let (b, local) = (id >> BLOCK_BITS, id % BLOCK);
        let block = &self.blocks[b];
        let list = match b == self.filled >> BLOCK_BITS {
            true => &self.open[..],
            false => &block.edges[..],
        };
        let end = block
            .starts
            .get(local + 1)
            .map_or(list.len(), |&end| end as usize);
        &list[block.starts[local] as usize..end]
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
    /// first entry has no action. It costs one scan of the edges below
    /// `id`, up to the one that discovered it, and 8 bytes a state below
    /// `id` while it runs.
    pub fn trace_to(&self, id: usize) -> Vec<(Option<usize>, usize)> {
        assert!(id < self.len, "state {id} of {}", self.len);
        if self.init.binary_search(&id).is_ok() {
            return vec![(None, id)];
        }
        let found = self.discoveries(id + 1, Some(id));
        let mut rev = Vec::new();
        let mut cur = id;
        loop {
            match found.found[cur] {
                (INITIAL, _) => {
                    rev.push((None, cur));
                    break;
                }
                (UNREACHED, _) => panic!("state {cur} is neither initial nor reached by an edge"),
                (parent, action) => {
                    rev.push((Some(action as usize), cur));
                    cur = parent as usize;
                }
            }
        }
        rev.reverse();
        rev
    }

    /// Where `self` and `other` first differ in anything a graph
    /// stores — the states in id order and each state's edge list, then
    /// the initial states and the strays, which with the edges give
    /// every BFS parent — or `None` when they are the same graph. States
    /// are compared as rows when the two layouts have the same domains,
    /// and as the states they unpack to otherwise. The description names
    /// one id and one state, edge list, initial state or stray of each
    /// side, whatever the graphs' size.
    pub fn first_difference(&self, other: &StateGraph) -> Option<String> {
        if self.len() != other.len() {
            return Some(format!("{} states vs {}", self.len(), other.len()));
        }
        let differ = |what: String, a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| {
            Some(format!("{what}: {a:?} vs {b:?}"))
        };
        let rows_compare = self.layout.domains() == other.layout.domains();
        let state = (0..self.len()).find_map(|id| {
            let same = if rows_compare {
                self.row(id) == other.row(id)
            } else {
                self.materialize(id) == other.materialize(id)
            };
            if !same {
                let (a, b) = (self.materialize(id), other.materialize(id));
                differ(format!("value of state {id}"), &a, &b)
            } else if self.edges(id) != other.edges(id) {
                differ(
                    format!("edges of state {id}"),
                    &self.edges(id),
                    &other.edges(id),
                )
            } else {
                None
            }
        });
        // The first place two lists differ, each side's entry there.
        fn first<T: PartialEq + Copy>(a: &[T], b: &[T]) -> Option<(usize, Option<T>, Option<T>)> {
            (0..a.len().max(b.len()))
                .map(|i| (i, a.get(i).copied(), b.get(i).copied()))
                .find(|(_, x, y)| x != y)
        }
        state
            .or_else(|| {
                let (i, a, b) = first(&self.init, &other.init)?;
                differ(format!("initial state {i}"), &a, &b)
            })
            .or_else(|| {
                let (i, a, b) = first(&self.strays, &other.strays)?;
                differ(format!("stray {i}"), &a, &b)
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

    /// One slot of one value: rows of no bytes.
    fn flat() -> Arc<PackedLayout> {
        let mut vars = Vars::new();
        vars.declare("x", Domain::int_range(0, 0));
        let layout = PackedLayout::compile(&vars).expect("one constant slot");
        assert_eq!(layout.stride(), 0);
        Arc::new(layout)
    }

    /// `graph.push_state` with the state's row.
    fn push(graph: &mut StateGraph, state: State, initial: bool) -> usize {
        let row = graph.layout().pack(&state).expect("in the slot's domain");
        graph.push_state(&row, initial)
    }

    /// The graph as a heap row and a BFS-tree entry per state, grown as
    /// the explorer grows one.
    #[derive(Clone)]
    struct Model {
        layout: Arc<PackedLayout>,
        pushed: Vec<State>,
        rows: Vec<Vec<Edge>>,
        parents: Vec<Option<(usize, usize)>>,
        /// Rows before this one are filled (possibly with no edge).
        filled: usize,
        strays: Vec<(usize, Edge)>,
    }

    impl Model {
        /// An empty graph under `layout`: [`layout`]'s, whose state `n`
        /// is `x = n`, or [`flat`]'s, whose every state is `x = 0`.
        fn over(layout: Arc<PackedLayout>) -> Model {
            Model {
                layout,
                pushed: Vec::new(),
                rows: Vec::new(),
                parents: Vec::new(),
                filled: 0,
                strays: Vec::new(),
            }
        }

        /// Each state's BFS depth from the initial states.
        fn depths(&self) -> Vec<Option<usize>> {
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
            depth
        }

        fn stats(&self) -> GraphStats {
            GraphStats {
                states: self.pushed.len(),
                transitions: self.rows.iter().map(Vec::len).sum(),
                deadlocks: self.rows.iter().filter(|row| row.is_empty()).count(),
                depth: self.depths().into_iter().flatten().max().unwrap_or(0),
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

        /// A state of its own, initial or discovered by `parent`.
        fn push(&mut self, graph: &mut StateGraph, parent: Option<(usize, usize)>) -> usize {
            let x = match self.layout.stride() {
                0 => 0,
                _ => self.pushed.len() as i64,
            };
            let state = State::new(vec![Value::Int(x)]);
            let grown = graph.allocated_bytes() + graph.state_bytes();
            let id = push(graph, state.clone(), parent.is_none());
            assert_eq!(graph.allocated_bytes(), grown, "state {id}");
            assert_eq!(id, self.pushed.len());
            self.pushed.push(state);
            self.rows.push(Vec::new());
            self.parents.push(parent);
            id
        }

        /// Expands `id` as the explorer does: up to three successors, each
        /// a state already there or one it discovers, pushed before its
        /// parent's row is filled. With `cut`, the row keeps a prefix and
        /// the states discovered past it are strays: what a resumed run
        /// cut before it re-expanded `id` that far holds.
        /// Each successor is a new state `fresh` times in four.
        fn expand(
            &mut self,
            graph: &mut StateGraph,
            rng: &mut StdRng,
            (id, fresh): (usize, u32),
            cut: bool,
        ) {
            let mut row = Vec::new();
            for action in 0..rng.gen_range(0..4u32) {
                let target = match rng.gen_range(0..4u32) < fresh {
                    false => rng.gen_range(0..self.pushed.len()),
                    _ => self.push(graph, Some((id, action as usize))),
                };
                row.push(Edge {
                    action,
                    target: target as u32,
                });
            }
            if cut {
                let kept = rng.gen_range(0..=row.len());
                for &e in &row[kept..] {
                    if self.parents[e.target as usize].is_some_and(|(p, _)| p == id)
                        && !row[..kept].iter().any(|k| k.target == e.target)
                        && !self.strays.iter().any(|(_, s)| s.target == e.target)
                    {
                        graph.push_stray(id, e);
                        self.strays.push((id, e));
                    }
                }
                row.truncate(kept);
            }
            let grown = graph.allocated_bytes() + graph.edges_bytes(row.len());
            graph.set_edges(id, &row).unwrap();
            if id == self.filled {
                assert_eq!(graph.allocated_bytes(), grown, "edges of {id}");
            }
            self.rows[id] = row;
            self.filled = id + 1;
        }

        /// The same graph built in one go: every state, then the rows,
        /// then the strays.
        fn graph(&self) -> StateGraph {
            let mut graph = StateGraph::with_capacity(Arc::clone(&self.layout), self.pushed.len());
            for (state, parent) in self.pushed.iter().zip(&self.parents) {
                push(&mut graph, state.clone(), parent.is_none());
            }
            for id in 0..self.filled {
                graph.set_edges(id, &self.rows[id]).unwrap();
            }
            for &(parent, edge) in &self.strays {
                graph.push_stray(parent, edge);
            }
            graph
        }

        /// `graph` reads as the model does. Traces are compared for the
        /// first states, those at either end of a block and a sample of
        /// the rest: each one scans the edges below its state.
        fn check(&self, graph: &StateGraph, step: &str) {
            let n = self.pushed.len();
            assert_eq!(graph.len(), n, "{step}");
            assert_eq!(graph.states(), &self.pushed[..], "{step}");
            blocks_are_sized_once(graph, step);
            blocks_are_sized_once(&self.graph(), step);
            let found = graph.discoveries(n, None);
            let mut base = 0;
            for id in 0..n {
                let row = graph.layout().pack(&self.pushed[id]).unwrap();
                assert_eq!(graph.row(id), row, "{step}: row of {id}");
                assert_eq!(graph.materialize(id), self.pushed[id], "{step}: state {id}");
                assert_eq!(graph.state(id), &self.pushed[id], "{step}: view of {id}");
                assert_eq!(graph.edges(id), &self.rows[id][..], "{step}: edges of {id}");
                assert_eq!(graph.edge_base(id), base, "{step}: base of {id}");
                assert_eq!(found.parent(id), self.parents[id], "{step}: parent of {id}");
                if id < 300 || id % 211 == 0 || (id + 1) % BLOCK < 2 {
                    assert_eq!(
                        graph.trace_to(id),
                        self.trace_to(id),
                        "{step}: trace to {id}"
                    );
                }
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
            if self.strays.is_empty() {
                handed_over_as_held(graph, step);
            }
        }
    }

    /// `graph`, handed over a block at a time, hands over every row and
    /// every filled row's edges, in id order.
    fn handed_over_as_held(graph: &StateGraph, step: &str) {
        let mut next = 0;
        for block in graph.clone().into_blocks() {
            let (ids, filled) = (block.ids(), block.filled());
            assert_eq!(ids.start, next, "{step}");
            let rows = graph.filled.clamp(ids.start, ids.end);
            assert_eq!((filled.start, filled.end), (ids.start, rows), "{step}");
            for id in ids.clone() {
                assert_eq!(block.row(id), graph.row(id), "{step}: row of {id}");
            }
            for id in filled {
                assert_eq!(block.edges(id), graph.edges(id), "{step}: edges of {id}");
            }
            next = ids.end;
        }
        assert_eq!(next, graph.len(), "{step}");
    }

    /// Every block of `graph` but the last holds `BLOCK` states, each in
    /// the room its first state allocated, and every block before the
    /// open one holds its edges in an allocation of exactly their size.
    fn blocks_are_sized_once(graph: &StateGraph, step: &str) {
        let (n, stride) = (graph.len(), graph.layout().stride());
        let allocated: usize = (graph.blocks.iter())
            .map(|b| b.rows.capacity() + 4 * b.starts.capacity() + 8 * b.edges.len())
            .sum();
        assert_eq!(
            graph.allocated_bytes(),
            allocated + 8 * graph.open.capacity(),
            "{step}"
        );
        assert_eq!(graph.blocks.len(), n.div_ceil(BLOCK), "{step}");
        for (b, block) in graph.blocks.iter().enumerate() {
            let states = (n - b * BLOCK).min(BLOCK);
            let room = match graph.capacity >= n {
                true => states,
                false => BLOCK,
            };
            assert_eq!(block.rows.len(), states * stride, "{step}: block {b}");
            assert_eq!(block.rows.capacity(), room * stride, "{step}: block {b}");
            assert_eq!(block.starts.capacity(), room, "{step}: block {b}");
            let rows = graph.filled.saturating_sub(b * BLOCK).min(BLOCK);
            assert_eq!(block.starts.len(), rows, "{step}: block {b}");
            if b < graph.filled >> BLOCK_BITS {
                let edges = graph.edge_base((b + 1) * BLOCK) - block.base;
                assert_eq!(block.edges.len(), edges, "{step}: block {b}");
            } else {
                assert!(block.edges.is_empty(), "{step}: open block {b}");
            }
        }
    }

    /// Random explorer-like sequences — initial states pushed, the next
    /// row expanded (or one past a gap), and last, now and then, a cut
    /// that leaves strays — leave the flat columns reading exactly as
    /// the row-per-state model does, every trace derived from the edges
    /// the model's own parents, and the calls the layout rules out
    /// refused with the graph untouched.
    #[test]
    fn flat_columns_read_as_the_row_per_state_model() {
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut graph = StateGraph::with_capacity(layout(), 0);
            let mut model = Model::over(layout());
            for step in 0..120 {
                let n = model.pushed.len();
                let what = match rng.gen_range(0..20) {
                    0..=5 => {
                        model.push(&mut graph, None);
                        "initial state"
                    }
                    6..=13 if model.filled < n => {
                        // Mostly the next row; sometimes past a gap.
                        let id = match rng.gen_range(0..4) {
                            0 => rng.gen_range(model.filled..n),
                            _ => model.filled,
                        };
                        model.expand(&mut graph, &mut rng, (id, 2), false);
                        "expansion"
                    }
                    14 if model.filled < n => {
                        model.expand(&mut graph, &mut rng, (model.filled, 2), true);
                        model.check(&graph, &format!("seed {seed}, step {step}: cut"));
                        break;
                    }
                    _ => {
                        // A filled row, a state that does not exist:
                        // refused, no trace.
                        let edge = [Edge {
                            action: 0,
                            target: 0,
                        }];
                        for id in (0..model.filled).chain([n, n + 3]) {
                            let err = graph.set_edges(id, &edge).unwrap_err();
                            assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
                        }
                        "refusals"
                    }
                };
                model.check(&graph, &format!("seed {seed}, step {step}: {what}"));
            }
        }
    }

    /// The same model over more than three blocks, grown breadth-first
    /// from a few initial states, so BFS levels straddle each block
    /// boundary and edges run between blocks; now and then a run of rows
    /// is skipped. Then a run of initial states two blocks long, rows
    /// skipped over to its last (a whole block of them), and a cut that
    /// leaves strays. Under rows of two bytes and of none, every row,
    /// edge list, edge base, trace and difference reads as the model's,
    /// and each block is sized once.
    #[test]
    fn blocks_read_as_the_row_per_state_model() {
        for (seed, layout) in [(0, layout()), (1, layout()), (2, flat())] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut graph = StateGraph::with_capacity(Arc::clone(&layout), 0);
            let mut model = Model::over(layout);
            for _ in 0..3 {
                model.push(&mut graph, None);
            }
            while model.pushed.len() <= 3 * BLOCK + 100 {
                if model.filled == model.pushed.len() {
                    model.push(&mut graph, None);
                }
                let (filled, n) = (model.filled, model.pushed.len());
                let id = match rng.gen_range(0..100) {
                    0 => rng.gen_range(filled..n),
                    _ => filled,
                };
                model.expand(&mut graph, &mut rng, (id, 4), false);
                if model.pushed.len().is_multiple_of(1500) {
                    model.check(
                        &graph,
                        &format!("seed {seed}: {} states", model.pushed.len()),
                    );
                }
            }
            let depth = model.depths();
            for boundary in (1..=3).map(|b| b * BLOCK) {
                let level = depth[boundary].filter(|&d| d > 0);
                assert_eq!(
                    (depth[boundary - 1], level),
                    (level, depth[boundary]),
                    "seed {seed}"
                );
            }
            model.check(&graph, &format!("seed {seed}: grown"));
            graph.shrink_to_fit();
            assert_eq!(graph.open.capacity(), graph.open.len());
            model.check(&graph, &format!("seed {seed}: shrunk"));
            for _ in 0..2 * BLOCK {
                model.push(&mut graph, None);
            }
            let last = model.pushed.len() - 1;
            assert!(last >= (model.filled.div_ceil(BLOCK) + 1) * BLOCK);
            model.expand(&mut graph, &mut rng, (last, 3), false);
            model.check(&graph, &format!("seed {seed}: a block skipped"));
            // A difference in the third block is named there.
            let late = (2 * BLOCK..model.filled)
                .find(|&id| !model.rows[id].is_empty())
                .expect("a filled row in the third block");
            let mut other = model.clone();
            other.rows[late][0].action += 7;
            let found = graph
                .first_difference(&other.graph())
                .expect("an edge differs");
            assert!(
                found.starts_with(&format!("edges of state {late}")),
                "{found}"
            );
            while model.filled == model.pushed.len() {
                model.push(&mut graph, None);
            }
            let filled = model.filled;
            model.expand(&mut graph, &mut rng, (filled, 3), true);
            model.check(&graph, &format!("seed {seed}: cut"));
        }
    }

    #[test]
    fn first_difference_names_the_column_that_differs() {
        let state = |x| State::new(vec![Value::Int(x)]);
        let edge = |action, target| Edge { action, target };
        let build = |third: i64, initial: bool, target: u32| {
            let mut graph = StateGraph::with_capacity(layout(), 3);
            push(&mut graph, state(0), true);
            push(&mut graph, state(1), false);
            push(&mut graph, state(third), initial);
            graph.set_edges(0, &[edge(0, 1), edge(1, target)]).unwrap();
            graph
        };
        let graph = build(2, false, 2);
        assert_eq!(graph.first_difference(&build(2, false, 2)), None);
        let mut two = StateGraph::with_capacity(layout(), 2);
        push(&mut two, state(0), true);
        push(&mut two, state(1), false);
        let mut stray = build(2, false, 2);
        stray.push_stray(0, edge(2, 2));
        for (other, what) in [
            (build(7, false, 2), "value of state 2"),
            (build(2, false, 0), "edges of state 0"),
            (build(2, true, 2), "initial state 1: None vs Some(2)"),
            (stray, "stray 0: None vs Some"),
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
        push(&mut graph, state.clone(), true);
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
            push(&mut graph, State::new(vec![Value::Int(x)]), true);
            graph
        };
        let (a, b) = (build(layout(), 0), build(Arc::clone(&shifted), 1));
        assert_eq!(a.row(0), b.row(0), "code 1 in both");
        let found = a.first_difference(&b).expect("0 is not 1");
        assert!(found.starts_with("value of state 0"), "{found}");
        assert_eq!(a.first_difference(&build(shifted, 0)), None);
    }
}
