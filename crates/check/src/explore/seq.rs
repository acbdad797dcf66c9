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
//! [`VisitedMode`]s by construction. A symmetry-reduced run
//! ([`crate::Reduction`]) is this loop too.

use super::spill::{self, RunNames, SpillDir, SpillVisited, Tuning};
use super::{seq_exhaustion_snapshot, Edge, Exploration, ExploreOptions, StateGraph, VisitedMode};
use crate::budget::{Budget, ExhaustReason, Meter, Outcome};
use crate::checkpoint::{
    self, CheckpointError, Checkpointer, Manifest, ReducedRun, RunHeader, Snapshot,
};
use crate::compiled::{CompiledSystem, EvalScratch};
use crate::obs::{Phase, PhaseGuard};
use crate::reduction::{Canonicalize, ReductionStats};
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
    pub(super) fn of(system: &System, resume: Option<&'a Snapshot>) -> Result<Seed<'a>, CheckError> {
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

    /// Every state the run starts from.
    pub(super) fn states(&self) -> &[State] {
        match self {
            Seed::Fresh(states) => states,
            Seed::Resume(snap) => snap.graph().states(),
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

/// The sequential BFS loop, shared by every sequential configuration.
///
/// Why resumption needs no renumbering pass: every snapshot — from any
/// engine — stores its arena in canonical (sequential discovery) order
/// with the frontier as the arena's *tail*. For sequential-origin
/// snapshots the BFS queue is always the most recently discovered
/// suffix of the arena; parallel-origin snapshots are captured from
/// the canonical replay rolled back to a level boundary, whose
/// frontier (the last complete level) is likewise the tail. Re-seeding
/// the queue with the frontier in id order therefore continues the
/// *exact* sequential discovery order, and new states extend the arena
/// precisely as an uninterrupted run would.
///
/// With no `mem_budget` the [`Store`] stays in RAM; with one it spills
/// past that many bytes, packing arena records under `layout` where it
/// can (with `None`, or for a state outside its declared domain, a
/// record carries the general codec encoding).
pub(super) fn explore_seq(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    mem_budget: Option<usize>,
    seed: Seed<'_>,
    layout: Option<PackedLayout>,
) -> Result<Exploration, CheckError> {
    let meter = &seed.meter(budget);
    // This store's manifests reference its sealed segments, so under a
    // checkpoint spec the directory outlives the run.
    let disk = mem_budget.map(|m| (SpillDir::new(budget.checkpoint.as_ref()), Tuning::for_budget(m)));
    let mut store =
        Store::create(system, options, meter, layout, disk).map_err(CheckpointError::from)?;
    let compiled = CompiledSystem::compile(system);
    let mut scratch = EvalScratch::new();
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
                match store.intern(s.fingerprint(), None, move || s) {
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
        let (parent, parent_fp) = store.entry(id)?;
        edge_buf.clear();
        let stop = compiled.for_each_successor(&parent, &mut scratch, |action, assignments| {
            if let Some(reason) = meter.charge_transition() {
                return ControlFlow::Break(Stop::Cut(reason));
            }
            // Derived incrementally from the parent's, so an
            // already-visited successor costs one hash-of-deltas and
            // one probe.
            let child_fp = parent.fingerprint_with(parent_fp, assignments);
            let target =
                match store.intern(child_fp, Some((id, action)), || parent.with(assignments)) {
                    Ok((target, is_new)) => {
                        if is_new {
                            queue.push_back(target);
                        }
                        target
                    }
                    Err(stop) => return ControlFlow::Break(stop),
                };
            edge_buf.push(Edge { action, target });
            ControlFlow::Continue(())
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
    /// moves it out finished, each edge list held once — and every
    /// state's unmasked fingerprint, for incremental derivation.
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
    /// The state with this id and its unmasked fingerprint.
    fn entry(
        &mut self,
        id: usize,
        layout: Option<&PackedLayout>,
        buf: &mut Vec<u8>,
    ) -> Result<(State, u64), CheckpointError> {
        match self {
            // An Arc bump, not a copy: releases the arena borrow so
            // `intern` may push new states into it.
            Body::Ram { graph, fps } => Ok((graph.state(id).clone(), fps[id])),
            Body::Disk { arena, .. } => {
                arena.read(id as u64, buf)?;
                let rec = checkpoint::decode_arena_record(buf, layout)?;
                Ok((rec.state, rec.fp))
            }
        }
    }
}

/// The sequential store: states, edges and BFS tree in a [`Body`], and
/// the dedup index over them — one [`super::index::FpIndex`] probe
/// until a budgeted run drains it to disk ([`SpillVisited`]). In
/// [`VisitedMode::Exact`] a fingerprint hit is verified against the
/// body, wherever the candidate lives by then.
///
/// Under a symmetry reduction every state is keyed by its orbit
/// representative: the body, the index and every snapshot hold
/// canonical states only.
struct Store<'a> {
    body: Body,
    visited: SpillVisited,
    /// The segment directory and tier sizes a memory budget bought;
    /// `None` never leaves RAM.
    disk: Option<(SpillDir, Tuning)>,
    layout: Option<PackedLayout>,
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
    canon: Option<Arc<dyn Canonicalize>>,
    /// Successors of fully expanded parents that canonicalization
    /// changed.
    canon_hits: usize,
    /// The same count for the parent being expanded: banked with its
    /// edges, dropped with them when a budget cuts it half-way, so a
    /// resumed run counts that parent once.
    pending_hits: usize,
    pack_scratch: Vec<u8>,
    rec_buf: Vec<u8>,
}

impl<'a> Store<'a> {
    fn create(
        system: &System,
        options: &'a ExploreOptions,
        meter: &'a Meter,
        layout: Option<PackedLayout>,
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
                graph: StateGraph::with_capacity(0),
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
            canon: options.reduction.symmetry.clone(),
            canon_hits: 0,
            pending_hits: 0,
            pack_scratch: Vec::new(),
            rec_buf: Vec::new(),
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
    /// edge record, in id order, through [`SegmentStore::append`].
    /// Whenever this fires, the byte streams — and so the segment
    /// boundaries — are those of a store on disk from its first state
    /// (until here packed records were only counted, never encoded).
    fn spill(&mut self) -> Result<(), StoreError> {
        let (Body::Ram { graph, fps }, Some((dir, t))) = (&self.body, &self.disk) else {
            unreachable!("only the RAM body of a budgeted store spills");
        };
        let mut arena = SegmentStore::create(dir.path(), "arena", t.seg_target, t.arena_cache)?;
        let mut edges = SegmentStore::create(dir.path(), "edges", t.seg_target, t.edge_cache)?;
        for (id, &fp) in fps.iter().enumerate() {
            checkpoint::encode_arena_record(
                graph.state(id),
                fp,
                graph.parent(id),
                self.layout.as_ref(),
                &mut self.pack_scratch,
                &mut self.rec_buf,
            );
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

    /// Records `state`, reached from `from`, under the next id.
    // On the loop's per-state path, which `intern` is inlined into.
    #[inline]
    fn push_state(
        &mut self,
        state: State,
        fp: u64,
        from: Option<(usize, usize)>,
    ) -> Result<(), CheckpointError> {
        let layout = self.layout.as_ref();
        match &mut self.body {
            Body::Ram { graph, fps } => {
                if self.disk.is_some() {
                    self.arena_bytes += checkpoint::arena_record_bytes(&state, layout);
                }
                fps.push(fp);
                graph.push_state(state, from)?;
                self.grown()?;
            }
            Body::Disk { arena, init, .. } => {
                if from.is_none() {
                    init.push(arena.len() as usize);
                }
                let (scratch, rec) = (&mut self.pack_scratch, &mut self.rec_buf);
                checkpoint::encode_arena_record(&state, fp, from, layout, scratch, rec);
                spill::append(self.meter, "arena", arena, rec)?;
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
        self.canon_hits = snap.reduction.as_ref().map_or(0, |r| r.canon_hits);
        for (id, state, parent, edges) in snap.records() {
            let fp = state.fingerprint();
            self.visited.seed(self.options.mode, fp & self.mask, id, self.meter)?;
            self.push_state(state.clone(), fp, parent)?;
            if let Some(edges) = edges {
                self.push_edges(id, edges)?;
            }
        }
        Ok(())
    }

    fn entry(&mut self, id: usize) -> Result<(State, u64), CheckError> {
        Ok(self.body.entry(id, self.layout.as_ref(), &mut self.rec_buf)?)
    }

    /// Looks up or records the state whose unmasked fingerprint is
    /// `fp`, reached from `from = (parent id, action)` (`None` for an
    /// initial state). `make` materializes it and is called only when
    /// it must be: fingerprint dedup probes first, so an
    /// already-visited successor is never constructed. A genuinely new
    /// state is charged to the meter *before* anything is recorded: a
    /// [`Stop::Cut`] leaves the store untouched.
    // Inlined into the loop's successor visitor: left as a call, the
    // fingerprint probe costs the sequential benchmark a few percent.
    // The symmetric branch is loop-invariant and stays a call.
    #[inline]
    fn intern(
        &mut self,
        fp: u64,
        from: Option<(usize, usize)>,
        make: impl FnOnce() -> State,
    ) -> Result<(usize, bool), Stop> {
        if let Some(canon) = self.canon.clone() {
            return self.intern_orbit(&*canon, from, make());
        }
        self.intern_keyed(fp, from, make)
    }

    /// [`intern`](Self::intern) under the key the state is to be
    /// deduplicated by: `(id, whether it is new)`.
    #[inline]
    fn intern_keyed(
        &mut self,
        fp: u64,
        from: Option<(usize, usize)>,
        make: impl FnOnce() -> State,
    ) -> Result<(usize, bool), Stop> {
        let (meter, key) = (self.meter, fp & self.mask);
        let next = match &self.body {
            Body::Ram { graph, .. } => graph.len(),
            Body::Disk { arena, .. } => arena.len() as usize,
        };
        let admit = || meter.charge_state().map_or(Ok(next), |reason| Err(Stop::Cut(reason)));
        let state = match self.options.mode {
            // The fingerprinted hot path: one probe, and only
            // genuinely new states are constructed and recorded.
            VisitedMode::Fingerprint => {
                match self.visited.fp_entry(key, |_| Ok(true), admit)?.noted(meter) {
                    (_, true) => make(),
                    found => return Ok(found),
                }
            }
            // The exact fallback: every successor is materialized so a
            // hit can be verified against the body — a candidate
            // interned in RAM may be read back from its disk record.
            // Collision-free by construction, at a throughput cost.
            VisitedMode::Exact => {
                let state = make();
                let (body, layout, buf) = (&mut self.body, self.layout.as_ref(), &mut self.rec_buf);
                let same = |cand| Ok(body.entry(cand, layout, buf)?.0 == state);
                match self.visited.fp_entry(key, same, admit)?.noted(meter) {
                    (_, true) => state,
                    found => return Ok(found),
                }
            }
        };
        self.push_state(state, fp, from)?;
        Ok((next, true))
    }

    /// The symmetric intern: `raw` is keyed by its orbit representative,
    /// which has to be materialized to be found — the loop's incremental
    /// fingerprint of `raw` does not apply.
    fn intern_orbit(
        &mut self,
        canon: &dyn Canonicalize,
        from: Option<(usize, usize)>,
        raw: State,
    ) -> Result<(usize, bool), Stop> {
        let state = canon.canonicalize(&raw);
        if from.is_some() && state != raw {
            self.pending_hits += 1;
        }
        self.intern_keyed(state.fingerprint(), from, move || state)
    }

    /// Records the complete successor list of a fully expanded state.
    fn push_edges(&mut self, id: usize, edges: &[Edge]) -> Result<(), CheckpointError> {
        self.canon_hits += std::mem::take(&mut self.pending_hits);
        self.expanded += 1;
        self.transitions += edges.len() as u64;
        match &mut self.body {
            Body::Ram { graph, .. } => {
                graph.set_edges(id, edges).expect("the loop expands in id order");
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
        RunHeader {
            reduction: self.canon.as_ref().map(|c| ReducedRun {
                canonicalizer: c.name().to_string(),
                canon_hits: self.canon_hits,
            }),
            ..RunHeader::of(self.options, self.sys_hash)
        }
    }

    /// A checkpoint at a clean cut: everything off `queue` is fully
    /// expanded. In RAM the graph is captured; on disk the sealed
    /// segments go in by reference (name and checksum) and only the
    /// unsealed tails are embedded — O(hot tier), not O(state space).
    fn snapshot(&self, queue: &[usize]) -> Snapshot {
        match &self.body {
            Body::Ram { graph, .. } => checkpoint::capture(graph, graph.len(), queue, self.header()),
            Body::Disk { arena, edges, init } => {
                let manifest = Manifest {
                    dir: arena.dir().to_path_buf(),
                    states: arena.len(),
                    transitions: self.transitions,
                    init: init.clone(),
                    arena_segments: arena.sealed().to_vec(),
                    arena_hot: arena.hot_records().collect(),
                    edge_segments: edges.sealed().to_vec(),
                    edge_hot: edges.hot_records().collect(),
                };
                self.header().snapshot(checkpoint::Body::Manifest(manifest), queue.to_vec())
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
            spill::note_cache_stats(meter, arena, edges);
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
                let mut graph =
                    checkpoint::graph_of_arena(spill::records(&arena), n, self.layout.as_ref())?;
                drop(arena);
                checkpoint::fill_edges(&mut graph, spill::records(&edges))?;
                graph
            }
        };
        if let Some((id, partial)) = cut {
            graph.set_edges(id, &partial).expect("the cut parent is the next to expand");
        }
        let (snapshot, resume) = match (by_reference, frontier) {
            (Some(pair), _) => pair,
            (None, Some(queue)) => {
                seq_exhaustion_snapshot(ck, meter.recorder(), &graph, graph.len(), queue, header)
            }
            (None, None) => (None, None),
        };
        let reduction = self.canon.map(|canon| {
            graph.reduced_under(canon);
            ReductionStats {
                canon_hits: self.canon_hits,
            }
        });
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
            reduction,
            snapshot,
        })
    }
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
    /// segment before the packed arena records (22 bytes) do.
    fn drive(store: &mut Store<'_>) {
        let state = |x: i64| State::new(vec![Value::Int(x)]);
        let Ok((root, true)) = store.intern(state(0).fingerprint(), None, || state(0)) else {
            panic!("the first state is new");
        };
        let mut queue = VecDeque::from([root]);
        while let Some(id) = queue.pop_front() {
            let (parent, _) = store.entry(id).unwrap();
            let Value::Int(x) = parent.values()[0] else {
                panic!("an integer slot");
            };
            let mut edges = Vec::new();
            for (action, y) in [(x + 1) % N, (x + N - 1) % N, (x + 2) % N, x].into_iter().enumerate() {
                let target = match store.intern(state(y).fingerprint(), Some((id, action)), || state(y)) {
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

    type Stream = (Vec<SegmentMeta>, Vec<Vec<u8>>);

    /// The stream does not depend on when the store left RAM: forced
    /// out before its first state, leaving when the edge records fill
    /// a segment (this system's own course), or when the arena does
    /// (its counter charged half a segment in advance), it seals the
    /// same segments — name, records, length, checksum — and holds the
    /// same unsealed tails, in both tiers.
    #[test]
    fn the_record_streams_do_not_depend_on_when_the_store_left_ram() {
        let mut vars = Vars::new();
        vars.declare("x", Domain::int_range(0, N - 1));
        let system = System::new(vars, Init::new([]), vec![]);
        let options = ExploreOptions::default();
        let meter = Meter::start(&Budget::unlimited());
        let seg_target = Tuning::for_budget(8 << 10).seg_target;
        let mut streams: Vec<(Stream, Stream)> = Vec::new();
        for way in ["before the first state", "edge bytes", "arena bytes"] {
            let disk = Some((SpillDir::new(None), Tuning::for_budget(8 << 10)));
            let layout = PackedLayout::compile(system.vars());
            assert!(layout.is_some(), "one small slot packs");
            let mut store = Store::create(&system, &options, &meter, layout, disk).unwrap();
            match way {
                "before the first state" => store.spill().unwrap(),
                "arena bytes" => store.arena_bytes = seg_target / 2,
                _ => {}
            }
            drive(&mut store);
            // The counters stop where the store left RAM.
            let tripped = (store.arena_bytes >= seg_target, store.edge_bytes >= seg_target);
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
            assert!(arena.sealed().len() >= 2 && edges.sealed().len() >= 2, "{way}");
            let stream = |s: &SegmentStore| (s.sealed().to_vec(), s.hot_records().map(<[u8]>::to_vec).collect());
            streams.push((stream(arena), stream(edges)));
        }
        assert_eq!(streams[0], streams[1], "forced vs edge-triggered");
        assert_eq!(streams[0], streams[2], "forced vs arena-triggered");
    }
}
