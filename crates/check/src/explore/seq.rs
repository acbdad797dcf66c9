//! The sequential scheduler: one BFS loop ([`explore_seq`]) over a
//! [`SeqStore`], and the in-RAM store ([`RamStore`]). The disk-backed
//! store lives in [`super::spill`].
//!
//! The loop owns everything the stores share — queue, budget cuts,
//! half-expanded-parent re-queue, checkpoint cadence, phases — and a
//! store owns where states, edges and the visited set live. Both
//! stores serve both [`VisitedMode`]s, so completed graphs are
//! byte-identical across the four combinations by construction: there
//! is one discovery order, this loop's. A symmetry-reduced run
//! ([`crate::Reduction`]) is this loop too: the in-RAM store keys each
//! state by its orbit representative.

use super::{seq_exhaustion_snapshot, Edge, Exploration, ExploreOptions, StateGraph, Visited};
use crate::budget::{Budget, ExhaustReason, Meter, Outcome};
use crate::checkpoint::{self, CheckpointError, Checkpointer, ReducedRun, ResumeToken, Snapshot};
use crate::compiled::{CompiledSystem, EvalScratch};
use crate::obs::{Phase, PhaseGuard};
use crate::reduction::{Canonicalize, ReductionStats};
use crate::{CheckError, System};
use opentla_kernel::store::StoreError;
use opentla_kernel::State;
use std::collections::hash_map::Entry;
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
            Seed::Resume(snap) => &snap.states,
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
/// and visited set. Ids are dense and assigned in insertion order.
pub(super) trait SeqStore {
    /// Re-seeds from a materialized snapshot: arena, edges and BFS
    /// tree come back verbatim, the visited set is rebuilt by
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
    let mut ck = Checkpointer::new(budget.checkpoint.clone(), 0);
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

/// The in-RAM store: a `Vec` arena and the graph's own [`Visited`]
/// set, moved into the finished [`StateGraph`] without a copy.
///
/// Under a symmetry reduction it keys every state by its orbit
/// representative: the arena, the visited set and every snapshot hold
/// canonical states only.
pub(super) struct RamStore<'a> {
    states: Vec<State>,
    /// Unmasked fingerprint per state id, for incremental derivation.
    fps: Vec<u64>,
    edges: Vec<Vec<Edge>>,
    parents: Vec<Option<(usize, usize)>>,
    init: Vec<usize>,
    visited: Visited,
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
            states: Vec::new(),
            fps: Vec::new(),
            edges: Vec::new(),
            parents: Vec::new(),
            init: Vec::new(),
            visited: Visited::new(options.mode, options.mask()),
            options,
            sys_hash: checkpoint::system_hash(system),
            meter,
            canon: options.reduction.symmetry.clone(),
            canon_hits: 0,
            pending_hits: 0,
        }
    }

    fn record(&mut self, state: State, fp: u64, from: Option<(usize, usize)>) -> usize {
        let id = self.states.len();
        self.states.push(state);
        self.fps.push(fp);
        self.edges.push(Vec::new());
        self.parents.push(from);
        if from.is_none() {
            self.init.push(id);
        }
        id
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
        let next = self.states.len();
        let state = match &mut self.visited {
            // The fingerprinted hot path: only genuinely new states
            // are constructed and pushed into the arena.
            Visited::Fingerprint { map, mask } => match map.entry(fp & *mask) {
                Entry::Occupied(e) => return Ok(Interned::Found(*e.get())),
                Entry::Vacant(e) => {
                    if let Some(reason) = self.meter.charge_state() {
                        return Err(Stop::Cut(reason));
                    }
                    e.insert(next);
                    make()
                }
            },
            // The exact fallback: the visited set is keyed by whole
            // states, so every successor is materialized and hashed in
            // full. Collision-free by construction, at a throughput
            // cost.
            Visited::Exact(map) => {
                let state = make();
                if let Some(&existing) = map.get(&state) {
                    return Ok(Interned::Found(existing));
                }
                if let Some(reason) = self.meter.charge_state() {
                    return Err(Stop::Cut(reason));
                }
                map.insert(state.clone(), next);
                state
            }
        };
        Ok(Interned::Inserted(self.record(state, fp, from)))
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

    /// What a snapshot of this store banks about its reduction.
    fn reduced_run(&self) -> Option<ReducedRun> {
        self.canon.as_ref().map(|c| ReducedRun {
            canonicalizer: c.name().to_string(),
            canon_hits: self.canon_hits,
        })
    }
}

impl SeqStore for RamStore<'_> {
    fn reseed(&mut self, snap: &Snapshot) -> Result<(), CheckError> {
        self.states = snap.states.clone();
        self.edges = snap.edges.clone();
        self.parents = snap.parents.clone();
        self.init = snap.init.clone();
        self.canon_hits = snap.reduction.as_ref().map_or(0, |r| r.canon_hits);
        for (id, s) in self.states.iter().enumerate() {
            let fp = s.fingerprint();
            self.fps.push(fp);
            match &mut self.visited {
                Visited::Fingerprint { map, mask } => {
                    map.entry(fp & *mask).or_insert(id);
                }
                Visited::Exact(map) => {
                    map.insert(s.clone(), id);
                }
            }
        }
        Ok(())
    }

    fn entry(&mut self, id: usize) -> Result<(State, u64), CheckError> {
        // An Arc bump, not a copy: releases the arena borrow so
        // `intern` may push new states into it.
        Ok((self.states[id].clone(), self.fps[id]))
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
        if !edges.is_empty() {
            // Sized as `Vec::push` growth would have left it (a power
            // of two, at least 4) rather than exactly: the few uniform
            // size classes keep the allocator's free lists hot, where
            // exact-size lists measured ~7 % slower once a previous
            // graph's memory is being reused.
            let mut list = Vec::with_capacity(edges.len().next_power_of_two().max(4));
            list.extend_from_slice(edges);
            self.edges[id] = list;
        }
        Ok(())
    }

    fn snapshot(&mut self, queue: &[usize]) -> Result<Snapshot, CheckError> {
        Ok(checkpoint::capture(
            &self.states,
            &self.init,
            &self.edges,
            &self.parents,
            self.states.len(),
            queue,
            self.options.mode,
            self.sys_hash,
            self.options.fp_bits.clamp(1, 64),
            0,
            self.reduced_run(),
        ))
    }

    fn finish(
        mut self,
        cut: Option<(usize, Vec<Edge>)>,
        frontier: Option<&[usize]>,
        ck: &mut Checkpointer,
    ) -> Result<Finished, CheckError> {
        if let Some((id, partial)) = cut {
            self.edges[id] = partial;
        }
        let (snapshot, resume) = match frontier {
            Some(frontier) => seq_exhaustion_snapshot(
                ck,
                self.meter.recorder(),
                &self.states,
                &self.init,
                &self.edges,
                &self.parents,
                self.states.len(),
                frontier,
                self.options,
                self.sys_hash,
                self.reduced_run(),
            ),
            None => (None, None),
        };
        Ok(Finished {
            reduction: self.canon.as_ref().map(|_| ReductionStats {
                canon_hits: self.canon_hits,
            }),
            graph: StateGraph {
                states: self.states,
                visited: self.visited,
                init: self.init,
                edges: self.edges,
                parents: self.parents,
                reduced: self.canon.is_some(),
                canon: self.canon,
            },
            snapshot,
            resume,
        })
    }
}
