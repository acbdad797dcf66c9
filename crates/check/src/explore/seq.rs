//! The sequential scheduler: one BFS loop ([`explore_seq`]) over one
//! [`Store`].
//!
//! The loop owns queue, budget cuts, half-expanded-parent re-queue,
//! checkpoint cadence and phases; the store owns where states, edges
//! and the dedup index live. It starts in RAM — a [`StateGraph`] under
//! construction and one fingerprint index — and, under a memory
//! budget, moves once to the disk tiers of [`super::spill`] when its
//! records would fill a segment. Without a budget it never leaves RAM
//! and touches no file. There is one discovery order, this loop's, so
//! completed graphs are byte-identical across bodies and
//! [`VisitedMode`]s by construction.
//!
//! The loop steps on slot codes: a parent is its packed row — in RAM the
//! graph's own row column (stride bytes a state), on disk its arena
//! record's payload, checked as it is read — stepped through the
//! effect tables of [`CompiledSystem::for_each_packed_successor`], each
//! child fingerprinted from the parent's by its effects and its row
//! written only when it is new. No `State` is built: the graph keeps
//! rows.

use super::spill::{self, RunNames, SpillDir, SpillVisited, Tuning};
use super::{Edge, Exploration, ExploreOptions, StateGraph, VisitedMode};
use crate::budget::{Budget, ExhaustReason, Meter, Outcome};
use crate::checkpoint::{
    self, CheckpointError, Checkpointer, Manifest, ResumeToken, RunHeader, Snapshot,
};
use crate::compiled::{append_child, child_fingerprint, CompiledSystem, Effect, StepMemo};
use crate::obs::{Phase, PhaseGuard, RecorderHandle};
use crate::{CheckError, System};
use opentla_kernel::store::{SegmentStore, StoreError};
use opentla_kernel::{PackedLayout, State};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::Arc;

/// What a run starts from.
pub(super) enum Seed<'a> {
    /// The enumerated initial states of a fresh run (never empty).
    Fresh(Vec<State>),
    /// A materialized snapshot to continue from.
    Resume(&'a Snapshot),
}

impl<'a> Seed<'a> {
    /// Enumerates the initial states of a fresh run, or adopts the
    /// materialized snapshot of a resumed one.
    pub(super) fn of(
        system: &System,
        resume: Option<&'a Snapshot>,
    ) -> Result<Seed<'a>, CheckError> {
        match resume {
            Some(snap) => Ok(Seed::Resume(snap)),
            None => {
                let init_states = system.init().states(system.universe())?;
                if init_states.is_empty() {
                    return Err(CheckError::NoInitialStates);
                }
                Ok(Seed::Fresh(init_states))
            }
        }
    }

    /// Starts the run's meter. A resumed meter is pre-charged with the
    /// snapshot's banked work so cumulative budgets keep their meaning;
    /// a fresh meter's deadline clock starts here, after initial-state
    /// enumeration.
    pub(super) fn meter(&self, budget: &Budget) -> Meter {
        match self {
            Seed::Fresh(_) => Meter::start(budget),
            Seed::Resume(snap) => {
                Meter::start_resumed(budget, snap.states_used(), snap.transitions_used())
            }
        }
    }
}

/// Why a successor sweep (or a store operation inside one) stopped
/// early: a budget cut (normal) or a typed store/codec failure (a
/// store on disk only).
pub(super) enum Stop {
    Cut(ExhaustReason),
    Fail(CheckError),
}

impl From<CheckpointError> for Stop {
    fn from(e: CheckpointError) -> Stop {
        Stop::Fail(e.into())
    }
}

impl From<StoreError> for Stop {
    fn from(e: StoreError) -> Stop {
        CheckpointError::from(e).into()
    }
}

/// The BFS loop every run explores with, in RAM or under a budget.
///
/// Why resumption needs no renumbering pass: every snapshot stores its
/// arena in discovery order with the frontier as the arena's *tail* —
/// the BFS queue is always the most recently discovered suffix of the
/// arena. (The files the deleted work-stealing engine wrote hold the
/// same shape: its canonical replay rolled back to a level boundary,
/// whose frontier, the last complete level, is the tail.) Re-seeding
/// the queue with the frontier in id order therefore continues the
/// *exact* sequential discovery order, and new states extend the arena
/// precisely as an uninterrupted run would.
///
/// With no `mem_budget` the [`Store`] stays in RAM; with one it spills
/// past that many bytes, its arena records the states' rows under
/// `layout`.
///
/// The loop steps on rows ([`CompiledSystem::for_each_packed_successor`]):
/// every seed is in its domains, and every successor too — the stepper
/// checks each update — so every state of the run has a row.
pub(super) fn explore_seq(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    mem_budget: Option<usize>,
    seed: Seed<'_>,
    layout: &Arc<PackedLayout>,
) -> Result<Exploration, CheckError> {
    let meter = &seed.meter(budget);
    // This store's manifests reference its sealed segments, so under a
    // checkpoint spec the directory outlives the run.
    let disk = mem_budget.map(|m| {
        (
            SpillDir::new(budget.checkpoint.as_ref()),
            Tuning::for_budget(m),
        )
    });
    let mut store =
        Store::create(system, options, meter, layout, disk).map_err(CheckpointError::from)?;
    let compiled = CompiledSystem::compile(system);
    let mut memo = StepMemo::new();
    let mut parent_row: Vec<u8> = Vec::new();
    let mut ck = Checkpointer::new(budget.checkpoint.clone());
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut exhausted: Option<ExhaustReason> = None;
    let mut exhausted_in_init = false;
    match seed {
        Seed::Resume(snap) => {
            store.reseed(snap)?;
            queue.extend(snap.frontier.iter().copied());
        }
        Seed::Fresh(init_states) => {
            let _init_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreInit);
            for s in init_states {
                let row = layout.pack(&s).expect("a run starts from in-domain states");
                match store.intern(s.fingerprint(), None, &row, &[]) {
                    Ok((_, false)) => {}
                    Ok((id, true)) => queue.push_back(id),
                    Err(Stop::Cut(reason)) => {
                        exhausted = Some(reason);
                        exhausted_in_init = true;
                        break;
                    }
                    Err(Stop::Fail(e)) => return Err(e),
                }
            }
        }
    }
    let mut edge_buf: Vec<Edge> = Vec::new();
    let mut cut_edges: Option<(usize, Vec<Edge>)> = None;
    let expand_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreExpand);
    while exhausted.is_none() {
        if let Some(reason) = meter.checkpoint() {
            exhausted = Some(reason);
            break;
        }
        // Periodic snapshot at the loop head: the queue is a clean cut
        // (everything off-queue is fully expanded).
        if ck.due(1) {
            ck.write(store.snapshot(queue.make_contiguous()), &budget.recorder);
        }
        let Some(id) = queue.pop_front() else {
            break;
        };
        edge_buf.clear();
        // Each successor is charged, interned (built only if it is
        // new), queued if new, and its edge recorded. Its fingerprint
        // is derived from the parent's, so an already-visited successor
        // costs a few table reads and one probe.
        let fp = store.row(id, &mut parent_row)?;
        let parent = &parent_row[..];
        let stop =
            compiled.for_each_packed_successor(layout, parent, &mut memo, |action, effects| {
                if let Some(reason) = meter.charge_transition() {
                    return ControlFlow::Break(Stop::Cut(reason));
                }
                let child_fp = child_fingerprint(layout, parent, fp, effects);
                match store.intern(child_fp, Some((id, action)), parent, effects) {
                    Ok((target, is_new)) => {
                        if is_new {
                            queue.push_back(target);
                        }
                        edge_buf.push(Edge { action, target });
                        ControlFlow::Continue(())
                    }
                    Err(stop) => ControlFlow::Break(stop),
                }
            })?;
        match stop {
            None => store.push_edges(id, &edge_buf)?,
            Some(Stop::Cut(reason)) => {
                // Re-queue the half-expanded state so the frontier
                // honestly reports it as uncovered; its partial edges
                // go to the finished graph only, never the store.
                queue.push_front(id);
                cut_edges = Some((id, std::mem::take(&mut edge_buf)));
                exhausted = Some(reason);
            }
            Some(Stop::Fail(e)) => return Err(e),
        }
    }
    drop(expand_phase);
    compiled.record_step_memo(memo.stats(), &budget.recorder);
    let _finish_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreRenumber);
    // A cut during initial-state enumeration is not resumable: a
    // partial init enumeration cannot be continued soundly.
    store.finish(queue, cut_edges, exhausted, !exhausted_in_init, &mut ck)
}

/// Where a [`Store`] keeps its states, BFS tree and edge lists. Ids
/// are dense and assigned in insertion order in both.
#[allow(clippy::large_enum_variant)] // one per run, never moved
enum Body {
    /// The [`StateGraph`] under construction — a run that ends here
    /// moves it out finished, each edge list and row held once — and
    /// every state's unmasked fingerprint, for incremental derivation.
    Ram { graph: StateGraph, fps: Vec<u64> },
    /// An arena record per state and an edge record per fully expanded
    /// state in [`SegmentStore`]s: sealed segments on disk behind an
    /// LRU cache, the unsealed tails in RAM. `init` is for manifests.
    Disk {
        arena: SegmentStore,
        edges: SegmentStore,
        init: Vec<usize>,
    },
}

impl Body {
    /// The row of state `id` under `layout` and its unmasked
    /// fingerprint: the RAM body's graph's, or the arena record read
    /// into `buf` and checked — no code outside its domain reaches a
    /// table key.
    fn row<'b>(
        &'b mut self,
        id: usize,
        layout: &PackedLayout,
        buf: &'b mut Vec<u8>,
    ) -> Result<(&'b [u8], u64), CheckpointError> {
        match self {
            Body::Ram { graph, fps } => Ok((graph.row(id), fps[id])),
            Body::Disk { arena, .. } => {
                arena.read(id as u64, buf)?;
                checkpoint::arena_record(buf, layout).map(|rec| (rec.row, rec.fp))
            }
        }
    }
}

/// The sequential store: states, edges and BFS tree in a [`Body`], and
/// the dedup index over them — one [`super::index::FpIndex`] probe
/// until a budgeted run drains it to disk ([`SpillVisited`]). In
/// [`VisitedMode::Exact`] a fingerprint hit is verified against the
/// body, wherever the candidate lives by then: rows compared as bytes.
struct Store<'a> {
    body: Body,
    visited: SpillVisited,
    /// The segment directory and tier sizes a memory budget bought;
    /// `None` never leaves RAM.
    disk: Option<(SpillDir, Tuning)>,
    /// Every state's row is under it: the RAM body's graph keeps the
    /// rows, and arena records are written from them.
    layout: &'a Arc<PackedLayout>,
    /// What the `Ram` body's arena and edge records come to as segment
    /// bytes; counted under a budget only.
    arena_bytes: usize,
    edge_bytes: usize,
    /// Fully expanded states — `0..expanded`, the loop expanding in id
    /// order — and the transitions out of them (a manifest's totals).
    expanded: usize,
    transitions: u64,
    mask: u64,
    options: &'a ExploreOptions,
    sys_hash: u64,
    meter: &'a Meter,
    /// The record — or, in RAM, the row — being written.
    rec_buf: Vec<u8>,
    /// Exact mode's successor row, compared with a candidate's.
    probe: Vec<u8>,
}

impl<'a> Store<'a> {
    fn create(
        system: &'a System,
        options: &'a ExploreOptions,
        meter: &'a Meter,
        layout: &'a Arc<PackedLayout>,
        disk: Option<(SpillDir, Tuning)>,
    ) -> Result<Store<'a>, StoreError> {
        let visited = match &disk {
            Some((dir, t)) => {
                SpillVisited::new(RunNames::create(dir.path())?, t.hot_cap, t.filter_bytes)
            }
            None => SpillVisited::in_ram(),
        };
        Ok(Store {
            body: Body::Ram {
                graph: StateGraph::with_capacity(Arc::clone(layout), 0),
                fps: Vec::new(),
            },
            visited,
            disk,
            layout,
            arena_bytes: 0,
            edge_bytes: 0,
            expanded: 0,
            transitions: 0,
            mask: options.mask(),
            options,
            sys_hash: checkpoint::system_hash(system),
            meter,
            rec_buf: Vec::new(),
            probe: Vec::new(),
        })
    }

    /// Leaves RAM once its arena or edge records would fill a segment.
    fn grown(&mut self) -> Result<(), StoreError> {
        match &self.disk {
            Some((_, t)) if self.arena_bytes.max(self.edge_bytes) >= t.seg_target => self.spill(),
            _ => Ok(()),
        }
    }

    /// The store's one transition, `Ram` to `Disk`: every arena and
    /// edge record, in id order, through [`SegmentStore::append`] — an
    /// arena record written straight from the graph's row. Whenever
    /// this fires, the byte streams — and so the segment boundaries —
    /// are those of a store on disk from its first state (until here
    /// records were only counted, never encoded).
    fn spill(&mut self) -> Result<(), StoreError> {
        let (Body::Ram { graph, fps }, Some((dir, t))) = (&self.body, &self.disk) else {
            unreachable!("only the RAM body of a budgeted store spills");
        };
        let mut arena = SegmentStore::create(dir.path(), "arena", t.seg_target, t.arena_cache)?;
        let mut edges = SegmentStore::create(dir.path(), "edges", t.seg_target, t.edge_cache)?;
        for (id, &fp) in fps.iter().enumerate() {
            let row = |out: &mut Vec<u8>| out.extend_from_slice(graph.row(id));
            checkpoint::encode_packed_record(graph.parent(id), fp, row, &mut self.rec_buf);
            spill::append(self.meter, "arena", &mut arena, &self.rec_buf)?;
        }
        for id in 0..self.expanded {
            checkpoint::encode_edge_record(id, graph.edges(id), &mut self.rec_buf);
            spill::append(self.meter, "edges", &mut edges, &self.rec_buf)?;
        }
        self.body = Body::Disk {
            arena,
            edges,
            init: graph.init().to_vec(),
        };
        Ok(())
    }

    /// Records the state whose row is `row` with `effects` written in,
    /// reached from `from`, under the next id: the row is written — in
    /// RAM, for the graph to keep, or straight into its disk record.
    // On the loop's per-state path, which `intern` is inlined into.
    #[inline]
    fn push_state(
        &mut self,
        row: &[u8],
        effects: &[Effect],
        fp: u64,
        from: Option<(usize, usize)>,
    ) -> Result<(), CheckpointError> {
        let layout = self.layout;
        match &mut self.body {
            Body::Ram { graph, fps } => {
                let child = &mut self.rec_buf;
                child.clear();
                append_child(layout, row, effects, child);
                if self.disk.is_some() {
                    self.arena_bytes += checkpoint::arena_record_bytes(layout);
                }
                graph.push_state(child, from)?;
                fps.push(fp);
                self.grown()?;
            }
            Body::Disk { arena, init, .. } => {
                if from.is_none() {
                    init.push(arena.len() as usize);
                }
                let child = |out: &mut Vec<u8>| append_child(layout, row, effects, out);
                checkpoint::encode_packed_record(from, fp, child, &mut self.rec_buf);
                spill::append(self.meter, "arena", arena, &self.rec_buf)?;
            }
        }
        Ok(())
    }

    /// Re-seeds from a materialized snapshot: arena, edges and BFS
    /// tree come back verbatim — every *non-frontier* state with its
    /// edge record, frontier states re-expand — and the dedup index is
    /// rebuilt by re-fingerprinting the arena (deterministic across
    /// processes) with first-id-wins collision behavior. Meter-free —
    /// the resumed meter is already pre-charged. A crash *during* this
    /// can invalidate the segment references of the snapshot it came
    /// from (the move to disk rewrites them): a typed I/O error on the
    /// next resume, never a wrong graph.
    fn reseed(&mut self, snap: &Snapshot) -> Result<(), CheckpointError> {
        for (id, row, parent, edges) in snap.records() {
            let fp = self.layout.fingerprint(row);
            self.visited
                .seed(self.options.mode, fp & self.mask, id, self.meter)?;
            self.push_state(row, &[], fp, parent)?;
            if let Some(edges) = edges {
                self.push_edges(id, edges)?;
            }
        }
        Ok(())
    }

    /// Copies the row of state `id` into `out`; returns its unmasked
    /// fingerprint.
    fn row(&mut self, id: usize, out: &mut Vec<u8>) -> Result<u64, CheckError> {
        let (row, fp) = self.body.row(id, self.layout, &mut self.rec_buf)?;
        out.clear();
        out.extend_from_slice(row);
        Ok(fp)
    }

    /// Looks up or records the state whose unmasked fingerprint is
    /// `fp`, reached from `from = (parent id, action)` (`None` for an
    /// initial state): `row` with `effects` written in (none for a
    /// seed). Its row is written only when it must be: fingerprint
    /// dedup probes first, so an already-visited successor is never
    /// constructed. A genuinely new state is charged to the
    /// meter *before* anything is recorded: a [`Stop::Cut`] leaves the
    /// store untouched. No state is admitted past the id a record word
    /// can name ([`checkpoint::id_word`]).
    // Inlined into the loop's successor visitor: left as a call, the
    // fingerprint probe costs the sequential benchmark a few percent.
    #[inline]
    fn intern(
        &mut self,
        fp: u64,
        from: Option<(usize, usize)>,
        row: &[u8],
        effects: &[Effect],
    ) -> Result<(usize, bool), Stop> {
        let (meter, key) = (self.meter, fp & self.mask);
        let next = match &self.body {
            Body::Ram { graph, .. } => graph.len(),
            Body::Disk { arena, .. } => arena.len() as usize,
        };
        let admit = || {
            checkpoint::id_word(next).map_err(Stop::Fail)?;
            meter
                .charge_state()
                .map_or(Ok(next), |reason| Err(Stop::Cut(reason)))
        };
        let found = match self.options.mode {
            // The fingerprinted hot path: one probe, and only
            // genuinely new states are constructed and recorded.
            VisitedMode::Fingerprint => self.visited.fp_entry(key, |_| Ok(true), admit, meter)?,
            // The exact fallback: every successor's row is written, so
            // a hit can be verified against the body's, a candidate
            // interned in RAM perhaps read back from its disk record.
            // Collision-free by construction, at a throughput cost.
            VisitedMode::Exact => {
                let (body, buf, probe) = (&mut self.body, &mut self.rec_buf, &mut self.probe);
                let layout = self.layout;
                probe.clear();
                append_child(layout, row, effects, probe);
                let same = |cand| Ok(body.row(cand, layout, buf)?.0 == &probe[..]);
                self.visited.fp_entry(key, same, admit, meter)?
            }
        };
        if !found.1 {
            return Ok(found);
        }
        self.push_state(row, effects, fp, from)?;
        Ok((next, true))
    }

    /// Records the complete successor list of a fully expanded state.
    fn push_edges(&mut self, id: usize, edges: &[Edge]) -> Result<(), CheckpointError> {
        self.expanded += 1;
        self.transitions += edges.len() as u64;
        match &mut self.body {
            Body::Ram { graph, .. } => {
                graph
                    .set_edges(id, edges)
                    .expect("the loop expands in id order");
                if self.disk.is_some() {
                    self.edge_bytes += checkpoint::edge_record_bytes(edges.len());
                }
                self.grown()?;
            }
            Body::Disk { edges: store, .. } => {
                checkpoint::encode_edge_record(id, edges, &mut self.rec_buf);
                spill::append(self.meter, "edges", store, &self.rec_buf)?;
            }
        }
        Ok(())
    }

    /// What a snapshot of this store is stamped with.
    fn header(&self) -> RunHeader {
        RunHeader::of(self.options, self.sys_hash)
    }

    /// A checkpoint at a clean cut: everything off `queue` is fully
    /// expanded. In RAM the graph is captured; on disk the sealed
    /// segments go in by reference (name and checksum) and only the
    /// unsealed tails are embedded — O(hot tier), not O(state space).
    fn snapshot(&self, queue: &[usize]) -> Snapshot {
        match &self.body {
            Body::Ram { graph, .. } => checkpoint::capture(graph, queue, self.header()),
            Body::Disk { arena, edges, init } => {
                let manifest = Manifest {
                    layout: Arc::clone(self.layout),
                    dir: arena.dir().to_path_buf(),
                    states: arena.len(),
                    transitions: self.transitions,
                    init: init.clone(),
                    arena_segments: arena.sealed().to_vec(),
                    arena_hot: arena.hot_records().collect(),
                    edge_segments: edges.sealed().to_vec(),
                    edge_hot: edges.hot_records().collect(),
                };
                self.header()
                    .snapshot(checkpoint::Body::Manifest(manifest), queue.to_vec())
            }
        }
    }

    /// Turns the store, and where the loop stopped, into the run's
    /// result: the canonical [`StateGraph`] — a move in RAM, a decode of
    /// every record on disk — with the unexpanded `queue` its frontier.
    /// `cut` holds the partial successor list of a half-expanded parent
    /// (graph only, never banked); an `exhausted`, `resumable` run takes
    /// — and, under a checkpoint spec, writes — the exhaustion snapshot.
    fn finish(
        self,
        mut queue: VecDeque<usize>,
        cut: Option<(usize, Vec<Edge>)>,
        exhausted: Option<ExhaustReason>,
        resumable: bool,
        ck: &mut Checkpointer,
    ) -> Result<Exploration, CheckError> {
        let (meter, header) = (self.meter, self.header());
        let frontier = (exhausted.is_some() && resumable).then_some(&*queue.make_contiguous());
        if let Body::Disk { arena, edges, .. } = &self.body {
            spill::note_cache_stats(meter, [arena, edges]);
        }
        // On disk, under a checkpoint spec (which keeps the directory),
        // the exhaustion snapshot references the sealed segments like
        // the periodic ones. An ephemeral directory is about to go, so
        // there — as in RAM — it is captured from the graph below.
        let by_reference = match (&self.body, frontier) {
            (Body::Disk { .. }, Some(queue)) if ck.active() => {
                let snap = self.snapshot(queue);
                let token = ck.write(snap.clone(), meter.recorder());
                Some((Some(Box::new(snap)), token))
            }
            _ => None,
        };
        let mut graph = match self.body {
            Body::Ram { graph, .. } => graph,
            Body::Disk { arena, edges, .. } => {
                // The graph is about to take the budget's place: the
                // index, and each tier's cache once read, go first.
                drop(self.visited);
                let n = arena.len() as usize;
                let records = spill::records(&arena);
                let mut graph = checkpoint::graph_of_arena(records, n, self.layout)?;
                drop(arena);
                checkpoint::fill_edges(&mut graph, spill::records(&edges))?;
                graph
            }
        };
        if let Some((id, partial)) = cut {
            graph
                .set_edges(id, &partial)
                .expect("the cut parent is the next to expand");
        }
        let (snapshot, resume) = match (by_reference, frontier) {
            (Some(pair), _) => pair,
            (None, Some(queue)) => exhaustion_snapshot(ck, meter.recorder(), &graph, queue, header),
            (None, None) => (None, None),
        };
        let outcome = match exhausted {
            None => Outcome::Complete,
            Some(reason) => Outcome::Exhausted {
                reason,
                frontier_size: queue.len(),
                stats: graph.stats(),
                resume,
            },
        };
        Ok(Exploration {
            frontier: queue.into_iter().collect(),
            graph,
            outcome,
            snapshot,
            requested_threads: None,
        })
    }
}

/// Builds the final in-RAM snapshot of an exhausted run, whose
/// `frontier` states are the unexpanded ones, and writes it to disk
/// when a checkpoint spec is active.
fn exhaustion_snapshot(
    ck: &mut Checkpointer,
    recorder: &RecorderHandle,
    graph: &StateGraph,
    frontier: &[usize],
    header: RunHeader,
) -> (Option<Box<Snapshot>>, Option<ResumeToken>) {
    let snap = checkpoint::capture(graph, frontier, header);
    let token = if ck.active() {
        ck.write(snap.clone(), recorder)
    } else {
        None
    };
    (Some(Box::new(snap)), token)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Init;
    use opentla_kernel::store::SegmentMeta;
    use opentla_kernel::{Domain, Value, Vars};

    const N: i64 = 150;

    /// Breadth-first over the ring `x ∈ 0..N` from 0, each state
    /// stepping to itself and three neighbours: the frontier stays a
    /// few states wide, so the edge records (44 bytes a state) fill a
    /// segment before the packed arena records (22 bytes) do. The store
    /// is driven as the loop drives it: parents read as rows, children
    /// as a parent row and an effect.
    fn drive(store: &mut Store<'_>) {
        let state = |x: i64| State::new(vec![Value::Int(x)]);
        let seed = store.layout.pack(&state(0)).expect("in the domain");
        let Ok((root, true)) = store.intern(state(0).fingerprint(), None, &seed, &[]) else {
            panic!("the first state is new");
        };
        let mut queue = VecDeque::from([root]);
        let mut row = Vec::new();
        while let Some(id) = queue.pop_front() {
            store.row(id, &mut row).unwrap();
            let x = i64::from(store.layout.read_code(&row, 0));
            let mut edges = Vec::new();
            for (action, y) in [(x + 1) % N, (x + N - 1) % N, (x + 2) % N, x]
                .into_iter()
                .enumerate()
            {
                let effect = [Effect {
                    slot: 0,
                    code: y as u32,
                }];
                let from = Some((id, action));
                let target = match store.intern(state(y).fingerprint(), from, &row, &effect) {
                    Ok((target, is_new)) => {
                        if is_new {
                            queue.push_back(target);
                        }
                        target
                    }
                    Err(_) => panic!("an unlimited meter and a healthy disk"),
                };
                edges.push(Edge { action, target });
            }
            store.push_edges(id, &edges).unwrap();
        }
    }

    fn ring() -> System {
        let mut vars = Vars::new();
        vars.declare("x", Domain::int_range(0, N - 1));
        System::new(vars, Init::new([]), vec![])
    }

    type Stream = (Vec<SegmentMeta>, Vec<Vec<u8>>);

    /// The stream does not depend on when the store left RAM: forced
    /// out before its first state, leaving when the edge records fill a
    /// segment (this system's own course), or when the arena does (its
    /// counter charged half a segment in advance), it seals the same
    /// segments — name, records, length, checksum — and holds the same
    /// unsealed tails, in both tiers.
    #[test]
    fn the_record_streams_do_not_depend_on_when_the_store_left_ram() {
        let system = ring();
        let options = ExploreOptions::default();
        let meter = Meter::start(&Budget::unlimited());
        let seg_target = Tuning::for_budget(8 << 10).seg_target;
        let layout = Arc::new(PackedLayout::compile(system.vars()).expect("one small slot packs"));
        let mut streams: Vec<(Stream, Stream)> = Vec::new();
        for way in ["before the first state", "edge bytes", "arena bytes"] {
            let disk = Some((SpillDir::new(None), Tuning::for_budget(8 << 10)));
            let mut store = Store::create(&system, &options, &meter, &layout, disk).unwrap();
            match way {
                "before the first state" => store.spill().unwrap(),
                "arena bytes" => store.arena_bytes = seg_target / 2,
                _ => {}
            }
            drive(&mut store);
            // The counters stop where the store left RAM.
            let tripped = (
                store.arena_bytes >= seg_target,
                store.edge_bytes >= seg_target,
            );
            let expected = match way {
                "before the first state" => (false, false),
                "edge bytes" => (false, true),
                _ => (true, false),
            };
            assert_eq!(tripped, expected, "{way}");
            let Body::Disk { arena, edges, init } = &store.body else {
                panic!("{way}: {N} states outgrow a 1 KiB segment");
            };
            assert_eq!(init, &[0], "{way}");
            assert_eq!((arena.len(), edges.len()), (N as u64, N as u64), "{way}");
            assert!(
                arena.sealed().len() >= 2 && edges.sealed().len() >= 2,
                "{way}"
            );
            let stream = |s: &SegmentStore| {
                (
                    s.sealed().to_vec(),
                    s.hot_records().map(<[u8]>::to_vec).collect(),
                )
            };
            streams.push((stream(arena), stream(edges)));
        }
        for (i, stream) in streams.iter().enumerate() {
            assert_eq!(stream, &streams[0], "way {i} of 3");
        }
    }

    /// A record read back from a sealed segment whose checksums hold
    /// but whose row has a code past its slot's domain (`x`'s eight bits
    /// hold up to 255, its domain 150 values) is a typed error where the
    /// loop reads a parent — never a table index past its end.
    #[test]
    fn a_disk_row_holding_a_code_past_its_domain_is_corrupt() {
        let system = ring();
        let (options, meter) = (
            ExploreOptions::default(),
            Meter::start(&Budget::unlimited()),
        );
        let layout = Arc::new(PackedLayout::compile(system.vars()).expect("one small slot packs"));
        let disk = Some((SpillDir::new(None), Tuning::for_budget(8 << 10)));
        let mut store = Store::create(&system, &options, &meter, &layout, disk).unwrap();
        store.spill().unwrap();
        let state = State::new(vec![Value::Int(149)]);
        let seed = layout.pack(&state).expect("in the domain");
        store
            .intern(state.fingerprint(), None, &seed, &[])
            .unwrap_or_else(|_| panic!("an unlimited meter and a healthy disk"));
        let mut row = Vec::new();
        store.row(0, &mut row).unwrap();
        assert_eq!(layout.read_code(&row, 0), 149);
        layout.write_code(&mut row, 0, 200);
        let Body::Disk { arena, .. } = &mut store.body else {
            panic!("the store left RAM");
        };
        let mut record = Vec::new();
        checkpoint::encode_packed_record(None, 0, |out| out.extend_from_slice(&row), &mut record);
        arena.append(&record).unwrap();
        arena.seal().unwrap();
        assert_eq!(arena.sealed().len(), 1, "both records are on disk");
        store.row(0, &mut row).unwrap();
        match store.row(1, &mut row) {
            Err(CheckError::Checkpoint(CheckpointError::Corrupt { detail })) => {
                assert!(detail.contains("slot 0 holds code 200"), "{detail}");
            }
            other => panic!("{other:?}"),
        }
    }
}
