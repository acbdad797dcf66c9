//! The sequential scheduler: one BFS loop ([`explore_seq`]) over a
//! [`SeqStore`], and the in-RAM store ([`RamStore`]). The disk-backed
//! store lives in [`super::spill`].
//!
//! The loop owns everything the stores share — queue, budget cuts,
//! half-expanded-parent re-queue, checkpoint cadence, phases — and a
//! store owns where states, edges and the dedup index live. Both
//! stores serve both [`VisitedMode`]s, so completed graphs are
//! byte-identical across the four combinations by construction: there
//! is one discovery order, this loop's. A symmetry-reduced run
//! ([`crate::Reduction`]) is this loop too: the in-RAM store keys each
//! state by its orbit representative.

use super::index::FpIndex;
use super::{seq_exhaustion_snapshot, Edge, Exploration, ExploreOptions, StateGraph, VisitedMode};
use crate::budget::{Budget, ExhaustReason, Meter, Outcome};
use crate::checkpoint::{
    self, CheckpointError, Checkpointer, ReducedRun, ResumeToken, RunHeader, Snapshot,
};
use crate::compiled::{CompiledSystem, EvalScratch};
use crate::obs::{Phase, PhaseGuard};
use crate::reduction::{Canonicalize, ReductionStats};
use crate::{CheckError, System};
use opentla_kernel::store::StoreError;
use opentla_kernel::State;
use std::collections::VecDeque;
use std::convert::Infallible;
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

/// What [`SeqStore::intern`] did with a state.
pub(super) enum Interned {
    /// Already recorded under this id.
    Found(usize),
    /// Genuinely new; charged, recorded, and given this id.
    Inserted(usize),
}

/// A finished store: the canonical graph plus, on a resumable
/// exhaustion, the snapshot taken at the cut.
pub(super) struct Finished {
    pub(super) graph: StateGraph,
    pub(super) snapshot: Option<Box<Snapshot>>,
    pub(super) resume: Option<ResumeToken>,
    /// What a symmetry reduction pruned (`None` on unreduced runs).
    pub(super) reduction: Option<ReductionStats>,
}

/// Where a sequential exploration keeps its states, edges, BFS tree
/// and dedup index. Ids are dense and assigned in insertion order.
pub(super) trait SeqStore {
    /// Re-seeds from a materialized snapshot: arena, edges and BFS
    /// tree come back verbatim, the dedup index is rebuilt by
    /// re-fingerprinting the arena (deterministic across processes)
    /// with first-id-wins collision behavior. Meter-free — the
    /// resumed meter is already pre-charged.
    fn reseed(&mut self, snap: &Snapshot) -> Result<(), CheckError>;

    /// The state with this id and its unmasked fingerprint.
    fn entry(&mut self, id: usize) -> Result<(State, u64), CheckError>;

    /// Looks up or records the state whose unmasked fingerprint is
    /// `fp`, reached from `from = (parent id, action)` (`None` for an
    /// initial state). `make` materializes it and is called only when
    /// it must be: fingerprint dedup probes first, so an
    /// already-visited successor is never constructed. A genuinely new
    /// state is charged to the meter *before* anything is recorded: a
    /// [`Stop::Cut`] leaves the store untouched.
    fn intern(
        &mut self,
        fp: u64,
        from: Option<(usize, usize)>,
        make: impl FnOnce() -> State,
    ) -> Result<Interned, Stop>;

    /// Records the complete successor list of a fully expanded state.
    fn push_edges(&mut self, id: usize, edges: &[Edge]) -> Result<(), CheckError>;

    /// A periodic checkpoint at a clean cut: everything off `queue` is
    /// fully expanded.
    fn snapshot(&mut self, queue: &[usize]) -> Result<Snapshot, CheckError>;

    /// Turns the store into the canonical [`StateGraph`]. `cut` holds
    /// the partial successor list of a half-expanded parent (graph
    /// only, never banked); `frontier` is `Some` on a resumable
    /// exhaustion, which takes — and, under a checkpoint spec, writes —
    /// the exhaustion snapshot.
    fn finish(
        self,
        cut: Option<(usize, Vec<Edge>)>,
        frontier: Option<&[usize]>,
        ck: &mut Checkpointer,
    ) -> Result<Finished, CheckError>;
}

/// Why a successor sweep (or a store operation inside one) stopped
/// early: a budget cut (normal) or a typed store/codec failure
/// (disk-backed stores only).
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
pub(super) fn explore_seq<S: SeqStore>(
    system: &System,
    budget: &Budget,
    meter: &Meter,
    seed: Seed<'_>,
    mut store: S,
) -> Result<Exploration, CheckError> {
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
                    Ok(Interned::Found(_)) => {}
                    Ok(Interned::Inserted(id)) => queue.push_back(id),
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
            let snap = store.snapshot(queue.make_contiguous())?;
            ck.write(snap, &budget.recorder);
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
                    Ok(Interned::Found(existing)) => existing,
                    Ok(Interned::Inserted(nid)) => {
                        queue.push_back(nid);
                        nid
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
                // go to the finished graph only, never a store.
                queue.push_front(id);
                cut_edges = Some((id, std::mem::take(&mut edge_buf)));
                exhausted = Some(reason);
            }
            Some(Stop::Fail(e)) => return Err(e),
        }
    }
    drop(expand_phase);
    // A cut during initial-state enumeration is not resumable: a
    // partial init enumeration cannot be continued soundly.
    let resumable = exhausted.is_some() && !exhausted_in_init;
    let finish_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreRenumber);
    let Finished {
        graph,
        snapshot,
        resume,
        reduction,
    } = store.finish(
        cut_edges,
        resumable.then_some(&*queue.make_contiguous()),
        &mut ck,
    )?;
    drop(finish_phase);
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

/// The in-RAM store: the [`StateGraph`] under construction, moved out
/// finished without a copy, and its dedup index.
///
/// Under a symmetry reduction it keys every state by its orbit
/// representative: the arena, the index and every snapshot hold
/// canonical states only.
pub(super) struct RamStore<'a> {
    graph: StateGraph,
    /// Unmasked fingerprint per state id, for incremental derivation.
    fps: Vec<u64>,
    index: FpIndex,
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
}

impl<'a> RamStore<'a> {
    pub(super) fn new(
        system: &System,
        options: &'a ExploreOptions,
        meter: &'a Meter,
    ) -> RamStore<'a> {
        RamStore {
            graph: StateGraph::with_capacity(0),
            fps: Vec::new(),
            index: FpIndex::default(),
            mask: options.mask(),
            options,
            sys_hash: checkpoint::system_hash(system),
            meter,
            canon: options.reduction.symmetry.clone(),
            canon_hits: 0,
            pending_hits: 0,
        }
    }

    /// Looks up or records a state under the key it is to be
    /// deduplicated by; see [`SeqStore::intern`].
    #[inline]
    fn intern_keyed(
        &mut self,
        fp: u64,
        from: Option<(usize, usize)>,
        make: impl FnOnce() -> State,
    ) -> Result<Interned, Stop> {
        let (graph, meter) = (&self.graph, self.meter);
        let key = fp & self.mask;
        let admit = || match meter.charge_state() {
            Some(reason) => Err(Stop::Cut(reason)),
            None => Ok(graph.len()),
        };
        let state = match self.options.mode {
            // The fingerprinted hot path: one probe, and only
            // genuinely new states are constructed and pushed into the
            // arena.
            VisitedMode::Fingerprint => {
                match self.index.intern(key, |_| Ok(true), |_| Ok(None), admit)? {
                    (existing, false) => return Ok(Interned::Found(existing)),
                    (_, true) => make(),
                }
            }
            // The exact fallback: every successor is materialized so a
            // hit can be verified against the arena. Collision-free by
            // construction, at a throughput cost.
            VisitedMode::Exact => {
                let state = make();
                let same = |id| Ok(graph.state(id) == &state);
                match self.index.intern(key, same, |_| Ok(None), admit)? {
                    (existing, false) => return Ok(Interned::Found(existing)),
                    (_, true) => state,
                }
            }
        };
        self.fps.push(fp);
        Ok(Interned::Inserted(self.graph.push_state(state, from)?))
    }

    /// The symmetric intern: `raw` is keyed by its orbit representative,
    /// which has to be materialized to be found — the loop's incremental
    /// fingerprint of `raw` does not apply.
    fn intern_orbit(
        &mut self,
        canon: &dyn Canonicalize,
        from: Option<(usize, usize)>,
        raw: State,
    ) -> Result<Interned, Stop> {
        let state = canon.canonicalize(&raw);
        if from.is_some() && state != raw {
            self.pending_hits += 1;
        }
        self.intern_keyed(state.fingerprint(), from, move || state)
    }

    /// What a snapshot of this store is stamped with, its reduction
    /// included.
    fn header(&self) -> RunHeader {
        RunHeader {
            reduction: self.canon.as_ref().map(|c| ReducedRun {
                canonicalizer: c.name().to_string(),
                canon_hits: self.canon_hits,
            }),
            ..RunHeader::of(self.options, self.sys_hash)
        }
    }
}

impl SeqStore for RamStore<'_> {
    fn reseed(&mut self, snap: &Snapshot) -> Result<(), CheckError> {
        self.graph = snap.graph().clone();
        self.canon_hits = snap.reduction.as_ref().map_or(0, |r| r.canon_hits);
        // Fingerprint mode keeps the first id under a key, exact mode
        // chains them all: a snapshot lists each state once.
        let trust = self.options.mode == VisitedMode::Fingerprint;
        for (id, s) in self.graph.states().iter().enumerate() {
            let fp = s.fingerprint();
            self.fps.push(fp);
            let trust = |_| Ok::<_, Infallible>(trust);
            let Ok(_) = self.index.intern(fp & self.mask, trust, |_| Ok(None), || Ok(id));
        }
        Ok(())
    }

    fn entry(&mut self, id: usize) -> Result<(State, u64), CheckError> {
        // An Arc bump, not a copy: releases the arena borrow so
        // `intern` may push new states into it.
        Ok((self.graph.state(id).clone(), self.fps[id]))
    }

    // Inlined into the loop's successor visitor: left as a call, the
    // fingerprint probe costs the sequential benchmark a few percent.
    // The symmetric branch is loop-invariant and stays a call.
    #[inline]
    fn intern(
        &mut self,
        fp: u64,
        from: Option<(usize, usize)>,
        make: impl FnOnce() -> State,
    ) -> Result<Interned, Stop> {
        if let Some(canon) = self.canon.clone() {
            return self.intern_orbit(&*canon, from, make());
        }
        self.intern_keyed(fp, from, make)
    }

    fn push_edges(&mut self, id: usize, edges: &[Edge]) -> Result<(), CheckError> {
        self.canon_hits += std::mem::take(&mut self.pending_hits);
        self.graph.set_edges(id, edges);
        Ok(())
    }

    fn snapshot(&mut self, queue: &[usize]) -> Result<Snapshot, CheckError> {
        Ok(checkpoint::capture(&self.graph, self.graph.len(), queue, self.header()))
    }

    fn finish(
        mut self,
        cut: Option<(usize, Vec<Edge>)>,
        frontier: Option<&[usize]>,
        ck: &mut Checkpointer,
    ) -> Result<Finished, CheckError> {
        if let Some((id, partial)) = cut {
            self.graph.set_edges(id, &partial);
        }
        let (snapshot, resume) = match frontier {
            Some(frontier) => seq_exhaustion_snapshot(
                ck,
                self.meter.recorder(),
                &self.graph,
                self.graph.len(),
                frontier,
                self.header(),
            ),
            None => (None, None),
        };
        if let Some(canon) = &self.canon {
            self.graph.reduced_under(canon.clone());
        }
        Ok(Finished {
            reduction: self.canon.as_ref().map(|_| ReductionStats {
                canon_hits: self.canon_hits,
            }),
            graph: self.graph,
            snapshot,
            resume,
        })
    }
}
