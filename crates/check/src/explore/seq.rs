//! The one BFS loop ([`explore_seq`]) over one [`Store`], in two
//! stages: a stepper writes each parent's successors, an interner
//! interns them in id order.
//!
//! The interner owns queue, budget cuts, half-expanded-parent re-queue,
//! checkpoint cadence and phases; the store owns where states, edges
//! and the dedup index live. It starts in RAM — a [`StateGraph`] under
//! construction and one fingerprint index — and, under a memory
//! budget, moves once to the disk tiers of [`super::spill`] when its
//! records would fill a segment. Without a budget it never leaves RAM
//! and touches no file. There is one discovery order, this loop's, so
//! completed graphs are byte-identical across bodies, [`VisitedMode`]s
//! and worker counts by construction.
//!
//! The loop steps on slot codes: a parent is its packed row — in RAM the
//! graph's own row column (stride bytes a state), on disk its arena
//! record's payload, checked as it is read — stepped through the
//! effect tables of [`CompiledSystem::for_each_packed_successor`], each
//! child fingerprinted from the parent's by its effects and its row
//! written only when it is new. No `State` is built: the graph keeps
//! rows.

use super::plan::Plan;
use super::spill::{self, RunNames, SpillDir, SpillVisited, Tuning};
use super::{Edge, Exploration, ExploreOptions, StateGraph, VisitedMode};
use crate::budget::{Budget, ExhaustReason, Meter, Outcome};
use crate::checkpoint::{
    self, CheckpointError, Checkpointer, Manifest, ResumeToken, RunHeader, Snapshot,
};
use crate::compiled::{
    append_child, child_fingerprint, CompiledSystem, Effect, MemoStats, Miss, StepMemo,
};
use crate::obs::{Phase, PhaseGuard, RecorderHandle};
use crate::{CheckError, System};
use opentla_kernel::store::{SegmentStore, StoreError};
use opentla_kernel::{PackedLayout, State};
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::ScopedJoinHandle;

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

/// Parents a batch holds at most.
const BATCH: usize = 1024;

/// Batches in circulation, each being filled, stepped or interned: at
/// two workers the stepper has up to two queued while the interner
/// interns the third.
const IN_FLIGHT: usize = 3;

/// The BFS loop every run explores with, in RAM or under a budget, in
/// two stages over batches of consecutive parents: the **interner**
/// (this function, on the caller) owns the [`Store`], the meter, the
/// checkpointer and the recorder; the **stepper** ([`Stepper`]) owns
/// the compiled system and its effect tables. The interner reads each
/// batch's parents — rows and fingerprints, off its store — and the
/// stepper writes each parent's successors into it: action, effects
/// and child fingerprint. The interner then charges, interns and
/// records them parent by parent, in id order, exactly as one loop
/// stepping and interning each parent in turn would: every budget
/// check, cut, snapshot and store operation happens at the same point
/// of the same sequence, so ids, edges, frontiers and snapshots do not
/// depend on `plan.workers`. At two workers the stepper runs on a
/// scoped second thread, up to [`IN_FLIGHT`] batches ahead of the
/// interner, and steps every batch; at one — or when that thread fails
/// to spawn — it steps each batch on the caller as the interner sends
/// it.
///
/// The BFS queue is an id cursor: it is always the id range
/// `next..store.len()`, the most recently discovered suffix of the
/// arena — a new state takes the next id, and a cut parent goes back
/// as the one just taken.
///
/// Why resumption needs no renumbering pass: every snapshot stores its
/// arena in discovery order with the frontier as the arena's *tail*.
/// (The files the deleted work-stealing engine wrote hold the same
/// shape: its canonical replay rolled back to a level boundary, whose
/// frontier, the last complete level, is the tail.) Starting the cursor
/// at the frontier's first id therefore continues the *exact*
/// sequential discovery order, and new states extend the arena
/// precisely as an uninterrupted run would; a snapshot whose frontier
/// is not the tail is [`CheckpointError::Corrupt`].
///
/// With no `plan.mem_budget` the [`Store`] stays in RAM; with one it
/// spills past that many bytes, its arena records the states' rows
/// under `layout`.
///
/// The loop steps on rows ([`CompiledSystem::for_each_packed_successor`]):
/// every seed is in its domains, and every successor too — the stepper
/// checks each update — so every state of the run has a row.
///
/// `started` is told the workers the run has, before anything else of
/// it is recorded.
pub(super) fn explore_seq(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    plan: &Plan,
    seed: Seed<'_>,
    layout: &Arc<PackedLayout>,
    started: impl FnOnce(usize),
) -> Result<Exploration, CheckError> {
    // Everything the stepper thread writes is allocated here, before it
    // exists, at its largest: a batch never grows, and the thread steps
    // through the tables alone (see `Lane`), so it allocates nothing. A
    // large block it allocated while the caller freed others would be
    // mapped or carved from a heap as the race fell (the allocator's
    // mapping threshold rises as mapped blocks are freed), and the
    // run's peak resident memory with it.
    let compiled = CompiledSystem::compile(system);
    let stepper = Mutex::new(Stepper::new(&compiled, layout));
    let pool: Vec<Batch> = (0..IN_FLIGHT)
        .map(|_| Batch::for_system(system, layout.stride()))
        .collect();
    let handoff = Handoff::new();
    std::thread::scope(|scope| {
        let (mut lane, thread) = Lane::open(scope, &stepper, &handoff, plan.workers);
        let workers = lane.workers();
        started(workers);
        let run = intern(
            &compiled, budget, options, plan, seed, layout, &mut lane, pool,
        );
        // Closing the lane ends the stepper's loop. The scope alone
        // waits only for its closure: the thread would still be exiting,
        // its allocator arena not yet free, when the caller's next
        // thread (a certificate's obligation lane, the next run's
        // stepper) asks for one, and which arena that thread got would
        // depend on the race. Joining waits for the exit.
        drop(lane);
        if let Some(Err(panic)) = thread.map(|t| t.join()) {
            std::panic::resume_unwind(panic);
        }
        Ok(Exploration { workers, ..run? })
    })
}

/// The interner's side of [`explore_seq`]: `compiled` is the
/// stepper's, read for its shape only.
#[allow(clippy::too_many_arguments)] // explore_seq's, and what it set up
fn intern(
    compiled: &CompiledSystem<'_>,
    budget: &Budget,
    options: &ExploreOptions,
    plan: &Plan,
    seed: Seed<'_>,
    layout: &Arc<PackedLayout>,
    lane: &mut Lane<'_>,
    mut pool: Vec<Batch>,
) -> Result<Exploration, CheckError> {
    let system = compiled.system();
    let meter = &mut seed.meter(budget);
    // This store's manifests reference its sealed segments, so under a
    // checkpoint spec the directory outlives the run.
    let disk = plan.mem_budget.map(|m| {
        (
            SpillDir::new(budget.checkpoint.as_ref()),
            Tuning::for_budget(m),
        )
    });
    let mut store =
        Store::create(system, options, meter, layout, disk).map_err(CheckpointError::from)?;
    let mut ck = Checkpointer::new(budget.checkpoint.clone());
    // The next state to intern the successors of: the queue is
    // `next..store.len()`.
    let mut next = 0;
    let mut exhausted: Option<ExhaustReason> = None;
    let mut exhausted_in_init = false;
    match seed {
        Seed::Resume(snap) => {
            next = snap.frontier_start()?;
            store.reseed(snap)?;
        }
        Seed::Fresh(init_states) => {
            let _init_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreInit);
            for s in init_states {
                let row = layout.pack(&s).expect("a run starts from in-domain states");
                match store.intern(s.fingerprint(), None, &row, &[]) {
                    Ok(_) => {}
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
    let actions = system.actions().len();
    // Parents before `sent` have gone to the stepper; `unread` is why
    // the row of `sent` could not be read, which ends the sending.
    let (mut sent, mut in_flight, mut unread) = (next, 0, None);
    // The batch being interned, and the index in it of `next`.
    let (mut batch, mut at): (Option<Batch>, usize) = (None, 0);
    // What the effect tables counted over the batches interned before
    // `batch`, and at the end of the run.
    let (mut counted, mut memo) = (MemoStats::default(), MemoStats::default());
    let mut edge_buf: Vec<Edge> = Vec::new();
    let mut cut_edges: Option<(usize, Vec<Edge>)> = None;
    let expand_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreExpand);
    while exhausted.is_none() {
        if let Some(reason) = store.meter.checkpoint() {
            exhausted = Some(reason);
            break;
        }
        // Periodic snapshot at the loop head: the queue is a clean cut
        // (everything off-queue is fully expanded).
        if ck.due(1) {
            ck.write(&mut store.snapshot(next), &budget.recorder);
        }
        if next == store.len() {
            break;
        }
        if batch.as_ref().is_none_or(|b| at == b.len()) {
            // Keep the stepper supplied with the parents found so far,
            // then take the batch that holds `next`.
            if let Some(b) = batch.take() {
                counted = b.memo_stats(counted, b.len(), None, actions);
                pool.push(b);
            }
            while in_flight < IN_FLIGHT && sent < store.len() && unread.is_none() {
                let mut b = pool.pop().expect("a batch out of circulation");
                if let Err(e) = b.fill(&mut store, sent) {
                    unread = Some(e);
                }
                sent = b.first + b.len();
                if b.len() == 0 {
                    pool.push(b);
                } else {
                    lane.send(b);
                    in_flight += 1;
                }
            }
            if in_flight == 0 {
                return Err(unread.expect("a parent not sent has an unreadable row"));
            }
            batch = Some(lane.receive());
            (in_flight, at) = (in_flight - 1, 0);
        }
        let b = batch.as_mut().expect("the batch holding `next`");
        let id = next;
        next += 1;
        edge_buf.clear();
        // Each successor is charged, interned (built only if it is
        // new, which queues it), and its edge recorded. Its fingerprint
        // was derived from the parent's, so an already-visited
        // successor costs one probe.
        let parent = b.row(at, layout.stride());
        let mut stop = None;
        for (succ, effects) in b.successors(at) {
            let action = succ.action as usize;
            if let Some(reason) = store.meter.charge_transition_mut() {
                stop = Some((Stop::Cut(reason), action));
                break;
            }
            match store.intern(succ.fp, Some((id, action)), parent, effects) {
                Ok((target, _)) => edge_buf.push(Edge { action, target }),
                Err(e) => {
                    stop = Some((e, action));
                    break;
                }
            }
        }
        match stop {
            // The parent the stepper failed on: its successors before
            // the failure are interned, as the failure's order says.
            None if at == b.ends.len() => {
                return Err(b.failed.take().expect("a parent short of an end failed"));
            }
            None => {
                store.push_edges(id, &edge_buf)?;
                at += 1;
            }
            Some((Stop::Cut(reason), action)) => {
                // Re-queue the half-expanded state so the frontier
                // honestly reports it as uncovered; its partial edges
                // go to the finished graph only, never the store.
                next = id;
                cut_edges = Some((id, std::mem::take(&mut edge_buf)));
                exhausted = Some(reason);
                memo = b.memo_stats(counted, at, Some(action), actions);
            }
            Some((Stop::Fail(e), _)) => return Err(e),
        }
    }
    drop(expand_phase);
    if cut_edges.is_none() {
        if let Some(b) = &batch {
            memo = b.memo_stats(counted, at, None, actions);
        }
    }
    compiled.record_step_memo(memo, &budget.recorder);
    let _finish_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreRenumber);
    // A cut during initial-state enumeration is not resumable: a
    // partial init enumeration cannot be continued soundly.
    store.finish(next, cut_edges, exhausted, !exhausted_in_init, &mut ck)
}

/// One successor as the stepper writes it into a [`Batch`].
#[derive(Clone, Copy, Debug)]
struct Successor {
    /// Its unmasked fingerprint, derived from its parent's.
    fp: u64,
    action: u32,
    /// Where its effects end in the batch's effects; they start where
    /// the previous successor's end.
    effects_end: u32,
}

/// Consecutive parents on their way through the two stages of
/// [`explore_seq`]: the interner fills in the parents, the stepper
/// their successors, and the interner interns them. The buffers are
/// allocated before the run starts and reused by every batch.
struct Batch {
    /// The id of the first parent.
    first: usize,
    /// The parents' rows, a stride each, and unmasked fingerprints.
    rows: Vec<u8>,
    fps: Vec<u64>,
    /// Where each parent's successors end, for each parent the stepper
    /// stepped through; a parent it failed on has none.
    ends: Vec<u32>,
    successors: Vec<Successor>,
    effects: Vec<Effect>,
    /// Each table miss, by the parent's index: with what they counted
    /// before the batch, what the effect tables counted at any point of
    /// it.
    misses: Vec<(u32, Miss)>,
    /// Why stepping the parent at `ends.len()` failed, if it did.
    failed: Option<CheckError>,
}

impl Batch {
    /// An empty batch with room for [`BATCH`] parents of `system` whose
    /// rows are `stride` bytes long, and for everything the stepper
    /// can write of them: a successor, its effects and a miss per
    /// action of each. A batch never grows; the pages it does not
    /// reach are never touched.
    fn for_system(system: &System, stride: usize) -> Batch {
        let actions = system.actions();
        let updates: usize = actions.iter().map(|a| a.updates().len()).sum();
        Batch {
            first: 0,
            rows: Vec::with_capacity(BATCH * stride),
            fps: Vec::with_capacity(BATCH),
            ends: Vec::with_capacity(BATCH),
            successors: Vec::with_capacity(BATCH * actions.len()),
            effects: Vec::with_capacity(BATCH * updates),
            misses: Vec::with_capacity(BATCH * actions.len()),
            failed: None,
        }
    }

    /// Parents in the batch.
    fn len(&self) -> usize {
        self.fps.len()
    }

    /// Reads the parents from `first` — up to [`BATCH`] of them, no
    /// further than the store's last state — out of `store`, with no
    /// successors yet. A row that cannot be read ends the batch before
    /// it.
    fn fill(&mut self, store: &mut Store<'_>, first: usize) -> Result<(), CheckError> {
        self.first = first;
        self.rows.clear();
        self.fps.clear();
        self.ends.clear();
        self.successors.clear();
        self.effects.clear();
        self.misses.clear();
        self.failed = None;
        for id in first..store.len().min(first + BATCH) {
            let fp = store.row(id, &mut self.rows)?;
            self.fps.push(fp);
        }
        Ok(())
    }

    /// The row of parent `at`.
    fn row(&self, at: usize, stride: usize) -> &[u8] {
        &self.rows[at * stride..][..stride]
    }

    /// Whether every parent has its successors, or failed to step.
    fn stepped(&self) -> bool {
        self.ends.len() == self.len() || self.failed.is_some()
    }

    /// Drops what the stepper wrote of the parent after the last with
    /// all its successors.
    fn truncate(&mut self) {
        let end = self.ends.last().map_or(0, |&e| e as usize);
        self.successors.truncate(end);
        let from = end.checked_sub(1);
        let from = from.map_or(0, |p| self.successors[p].effects_end as usize);
        self.effects.truncate(from);
    }

    /// The successors of parent `at`, each with its effects.
    fn successors(&self, at: usize) -> impl Iterator<Item = (&Successor, &[Effect])> {
        let start = at.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        let end = self
            .ends
            .get(at)
            .map_or(self.successors.len(), |&e| e as usize);
        let succs = &self.successors[start..end];
        let mut from = start
            .checked_sub(1)
            .map_or(0, |p| self.successors[p].effects_end as usize);
        succs.iter().map(move |succ| {
            let effects = &self.effects[from..succ.effects_end as usize];
            from = succ.effects_end as usize;
            (succ, effects)
        })
    }

    /// What the effect tables had counted, `before` the batch, when one
    /// loop over the same parents would have stopped: at parent `at`'s
    /// first action (`through` is `None`), or right after looking up
    /// its action `through` — every action of a system with `actions`
    /// of them is looked up once per parent, and only a miss evaluates.
    fn memo_stats(
        &self,
        before: MemoStats,
        at: usize,
        through: Option<usize>,
        actions: usize,
    ) -> MemoStats {
        let mut stats = before;
        stats.lookups += (at * actions + through.map_or(0, |a| a + 1)) as u64;
        for &(p, miss) in &self.misses {
            let p = p as usize;
            if p < at || (p == at && through.is_some_and(|a| miss.action as usize <= a)) {
                stats.misses += 1;
                stats.entries += u64::from(miss.filled);
            }
        }
        stats
    }
}

/// The stepper's side of [`explore_seq`]: the compiled system and its
/// effect tables, which step a batch's parents.
struct Stepper<'a> {
    compiled: &'a CompiledSystem<'a>,
    memo: StepMemo,
    layout: &'a PackedLayout,
}

impl<'a> Stepper<'a> {
    fn new(compiled: &'a CompiledSystem<'a>, layout: &'a PackedLayout) -> Stepper<'a> {
        Stepper {
            compiled,
            memo: StepMemo::logging(compiled),
            layout,
        }
    }

    /// Writes the successors of `batch`'s parents, from the first it
    /// has none for, in id order, through the effect tables. With
    /// `evaluate` a miss evaluates, up to the first parent that fails
    /// to step, whose successors before the failure are kept; without,
    /// it stops before the first parent one of whose lookups would
    /// evaluate, and allocates nothing.
    fn step(&mut self, b: &mut Batch, evaluate: bool) {
        let Stepper {
            compiled,
            memo,
            layout,
        } = self;
        let stride = layout.stride();
        for at in b.ends.len()..b.len() {
            let (parent, fp) = (&b.rows[at * stride..][..stride], b.fps[at]);
            let (successors, effects) = (&mut b.successors, &mut b.effects);
            let visit = |action: usize, run: &[Effect]| {
                effects.extend_from_slice(run);
                successors.push(Successor {
                    fp: child_fingerprint(layout, parent, fp, run),
                    action: action as u32,
                    effects_end: effects.len() as u32,
                });
                ControlFlow::<Infallible>::Continue(())
            };
            if !evaluate {
                if compiled
                    .for_each_tabled_successor(layout, parent, memo, visit)
                    .is_none()
                {
                    b.truncate();
                    return;
                }
                b.ends.push(b.successors.len() as u32);
                continue;
            }
            let stepped = compiled.for_each_packed_successor(layout, parent, memo, visit);
            b.misses
                .extend(memo.take_misses().map(|miss| (at as u32, miss)));
            if let Err(e) = stepped {
                b.failed = Some(e);
                return;
            }
            b.ends.push(b.successors.len() as u32);
        }
    }
}

/// Where the interner's batches are stepped: at one worker on the
/// caller, as each is sent; at two on a scoped second thread, through
/// the effect tables alone, then on the caller, as each is received,
/// from the first parent whose step would evaluate. Batches come back
/// in the order they went, and are stepped in that order, so a table
/// entry is filled at the parent one loop would fill it at. Dropping
/// the lane ends the thread's loop.
///
/// The thread evaluates nothing, so it allocates nothing: every
/// allocation of the run is the caller's, in the caller's order. (Misses
/// are few: 984 of Figure 9's 2 465 424 lookups.) A thread that evaluated its misses built their values in
/// an allocator arena of its own, which a certificate's obligation
/// lane takes over next; what the race left there moved Figure 9's
/// peak resident memory between 44.1 and 46.8 MB from one run to the
/// next.
struct Lane<'a> {
    /// Locked by the side that steps: the thread while it steps a
    /// batch, the caller while it finishes one.
    stepper: &'a Mutex<Stepper<'a>>,
    /// The second thread's batches, to and from it, when it runs.
    thread: Option<&'a Handoff>,
    /// Batches stepped on the caller, not yet received.
    stepped: Vec<Batch>,
}

impl<'a> Lane<'a> {
    /// Puts a stepper thread on `scope` at two workers, its batches
    /// through `handoff`, unless it fails to spawn, and returns its
    /// handle with the lane.
    fn open<'s>(
        scope: &'s std::thread::Scope<'s, '_>,
        stepper: &'a Mutex<Stepper<'a>>,
        handoff: &'a Handoff,
        workers: usize,
    ) -> (Lane<'a>, Option<ScopedJoinHandle<'s, ()>>)
    where
        'a: 's,
    {
        let mut lane = Lane {
            stepper,
            thread: None,
            stepped: Vec::with_capacity(IN_FLIGHT),
        };
        if workers < 2 {
            return (lane, None);
        }
        let spawned = std::thread::Builder::new()
            .name("opentla-stepper".into())
            .spawn_scoped(scope, move || {
                // However the thread ends, the interner is not left
                // waiting for a batch it will never get.
                let _closed = Closed(handoff);
                while let Some(mut batch) = handoff.next() {
                    lock(stepper).step(&mut batch, false);
                    handoff.stepped(batch);
                }
            });
        let thread = spawned.ok();
        if thread.is_some() {
            lane.thread = Some(handoff);
        }
        (lane, thread)
    }

    /// The workers this lane runs the loop on.
    fn workers(&self) -> usize {
        1 + usize::from(self.thread.is_some())
    }

    /// Sends `batch` to be stepped.
    fn send(&mut self, mut batch: Batch) {
        match self.thread {
            Some(handoff) => handoff.send(batch),
            None => {
                lock(self.stepper).step(&mut batch, true);
                self.stepped.push(batch);
            }
        }
    }

    /// The first batch sent and not yet received, stepped: the thread
    /// steps through the tables alone, and the caller the parents from
    /// the first whose step would evaluate.
    fn receive(&mut self) -> Batch {
        if !self.stepped.is_empty() {
            return self.stepped.remove(0);
        }
        let mut batch = self.thread.expect("a batch was sent").receive();
        if !batch.stepped() {
            lock(self.stepper).step(&mut batch, true);
        }
        batch
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        if let Some(handoff) = self.thread {
            handoff.close();
        }
    }
}

/// The batches between the interner and a stepper thread, each way in
/// the order they were sent, under one lock and one condition
/// variable. Handing a batch over or waiting for one allocates
/// nothing: each queue has room for every batch there is, and neither
/// primitive allocates. (A channel allocates its waiter list, and a
/// blocked thread its wait context, the first time a side blocks —
/// wherever the race puts that, a block the thread keeps to its end
/// can be what stops the allocator from returning the memory above it.)
struct Handoff {
    queues: Mutex<Queues>,
    changed: Condvar,
}

struct Queues {
    /// Sent and not yet taken by the stepper.
    unstepped: Vec<Batch>,
    /// Stepped and not yet received.
    stepped: Vec<Batch>,
    /// Set when either side is gone: the lane dropped, or the thread
    /// ended.
    closed: bool,
}

impl Handoff {
    fn new() -> Handoff {
        Handoff {
            queues: Mutex::new(Queues {
                unstepped: Vec::with_capacity(IN_FLIGHT),
                stepped: Vec::with_capacity(IN_FLIGHT),
                closed: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// The queues; a side that panicked holding them left them whole.
    fn queues(&self) -> MutexGuard<'_, Queues> {
        self.queues.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits on the queues until something changes.
    fn wait<'q>(&self, queues: MutexGuard<'q, Queues>) -> MutexGuard<'q, Queues> {
        (self.changed.wait(queues)).unwrap_or_else(PoisonError::into_inner)
    }

    /// The interner's: `batch` to be stepped.
    fn send(&self, batch: Batch) {
        self.queues().unstepped.push(batch);
        self.changed.notify_all();
    }

    /// The stepper's: the next batch to step, or `None` once closed.
    fn next(&self) -> Option<Batch> {
        let mut queues = self.queues();
        loop {
            if queues.closed {
                return None;
            }
            if !queues.unstepped.is_empty() {
                return Some(queues.unstepped.remove(0));
            }
            queues = self.wait(queues);
        }
    }

    /// The stepper's: `batch`, stepped.
    fn stepped(&self, batch: Batch) {
        self.queues().stepped.push(batch);
        self.changed.notify_all();
    }

    /// The interner's: the first batch sent and not yet received,
    /// stepped.
    fn receive(&self) -> Batch {
        let mut queues = self.queues();
        loop {
            if !queues.stepped.is_empty() {
                return queues.stepped.remove(0);
            }
            assert!(!queues.closed, "the stepper steps every batch sent");
            queues = self.wait(queues);
        }
    }

    fn close(&self) {
        self.queues().closed = true;
        self.changed.notify_all();
    }
}

/// Closes a [`Handoff`] when dropped.
struct Closed<'a>(&'a Handoff);

impl Drop for Closed<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The stepper, from either side.
fn lock<'m, 'a>(stepper: &'m Mutex<Stepper<'a>>) -> MutexGuard<'m, Stepper<'a>> {
    stepper
        .lock()
        .expect("a stepper that panicked ends the run")
}

/// Where a [`Store`] keeps its states, BFS tree and edge lists. Ids
/// are dense and assigned in insertion order in both.
#[allow(clippy::large_enum_variant)] // one per run, never moved
enum Body {
    /// The [`StateGraph`] under construction — a run that ends here
    /// moves it out finished, each edge list and row held once. Every
    /// state's unmasked fingerprint, for incremental derivation, is in
    /// the dedup index's column ([`SpillVisited::fp`]).
    Ram { graph: StateGraph },
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
    /// The row of state `id` under `layout`: the RAM body's graph's, or
    /// the arena record read into `buf` and checked — no code outside
    /// its domain reaches a table key — with the unmasked fingerprint
    /// the record holds.
    fn row<'b>(
        &'b mut self,
        id: usize,
        layout: &PackedLayout,
        buf: &'b mut Vec<u8>,
    ) -> Result<(&'b [u8], Option<u64>), CheckpointError> {
        match self {
            Body::Ram { graph } => Ok((graph.row(id), None)),
            Body::Disk { arena, .. } => {
                arena.read(id as u64, buf)?;
                checkpoint::arena_record(buf, layout).map(|rec| (rec.row, Some(rec.fp)))
            }
        }
    }
}

/// What a RAM body counts on: its states' fingerprints are all in the
/// index's column, since a budgeted store leaves RAM before the index's
/// first drain (pinned for every budget by a test of this module).
const UNDRAINED: &str = "a budgeted store leaves RAM before its dedup index drains";

/// The sequential store: states, edges and BFS tree in a [`Body`], and
/// the dedup index over them — one [`super::index::FpIndex`] probe
/// sequence until a budgeted run drains it to disk ([`SpillVisited`]),
/// which it does only once the body has left RAM. In
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
    options: &'a ExploreOptions,
    sys_hash: u64,
    meter: &'a mut Meter,
    /// The record — or, in RAM, the row — being written.
    rec_buf: Vec<u8>,
    /// Exact mode's successor row, compared with a candidate's.
    probe: Vec<u8>,
}

impl<'a> Store<'a> {
    fn create(
        system: &'a System,
        options: &'a ExploreOptions,
        meter: &'a mut Meter,
        layout: &'a Arc<PackedLayout>,
        disk: Option<(SpillDir, Tuning)>,
    ) -> Result<Store<'a>, StoreError> {
        let mask = options.mask();
        let visited = match &disk {
            Some((dir, t)) => SpillVisited::new(
                mask,
                RunNames::create(dir.path())?,
                t.hot_cap,
                t.filter_bytes,
            ),
            None => SpillVisited::in_ram(mask),
        };
        Ok(Store {
            body: Body::Ram {
                graph: StateGraph::with_capacity(Arc::clone(layout), 0),
            },
            visited,
            disk,
            layout,
            arena_bytes: 0,
            edge_bytes: 0,
            expanded: 0,
            transitions: 0,
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
        let (Body::Ram { graph }, Some((dir, t))) = (&self.body, &self.disk) else {
            unreachable!("only the RAM body of a budgeted store spills");
        };
        let mut arena = SegmentStore::create(dir.path(), "arena", t.seg_target, t.arena_cache)?;
        let mut edges = SegmentStore::create(dir.path(), "edges", t.seg_target, t.edge_cache)?;
        for id in 0..graph.len() {
            let fp = self.visited.fp(id).expect(UNDRAINED);
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
    /// RAM, for the graph to keep, or straight into its disk record
    /// with `fp` (in RAM the index's column has it already).
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
            Body::Ram { graph } => {
                let child = &mut self.rec_buf;
                child.clear();
                append_child(layout, row, effects, child);
                if self.disk.is_some() {
                    self.arena_bytes += checkpoint::arena_record_bytes(layout.stride());
                }
                graph.push_state(child, from)?;
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
    /// processes) with first-id-wins collision behavior, every
    /// fingerprint in its column. Meter-free —
    /// the resumed meter is already pre-charged. A crash *during* this
    /// can invalidate the segment references of the snapshot it came
    /// from (the move to disk rewrites them): a typed I/O error on the
    /// next resume, never a wrong graph.
    fn reseed(&mut self, snap: &Snapshot) -> Result<(), CheckpointError> {
        for (id, row, parent, edges) in snap.records() {
            let fp = self.layout.fingerprint(row);
            self.visited.seed(self.options.mode, fp, id, self.meter)?;
            self.push_state(row, &[], fp, parent)?;
            if let Some(edges) = edges {
                self.push_edges(id, edges)?;
            }
        }
        Ok(())
    }

    /// Appends the row of state `id` to `out`; returns its unmasked
    /// fingerprint.
    fn row(&mut self, id: usize, out: &mut Vec<u8>) -> Result<u64, CheckError> {
        let (row, fp) = self.body.row(id, self.layout, &mut self.rec_buf)?;
        out.extend_from_slice(row);
        Ok(fp.unwrap_or_else(|| self.visited.fp(id).expect(UNDRAINED)))
    }

    /// States recorded: the next id.
    fn len(&self) -> usize {
        match &self.body {
            Body::Ram { graph } => graph.len(),
            Body::Disk { arena, .. } => arena.len() as usize,
        }
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
        let next = self.len();
        let admit = |meter: &mut Meter| {
            checkpoint::id_word(next).map_err(Stop::Fail)?;
            meter
                .charge_state_mut()
                .map_or(Ok(next), |reason| Err(Stop::Cut(reason)))
        };
        let meter = &mut *self.meter;
        let found = match self.options.mode {
            // The fingerprinted hot path: one probe, and only
            // genuinely new states are constructed and recorded.
            VisitedMode::Fingerprint => self.visited.fp_entry(fp, |_| Ok(true), admit, meter)?,
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
                self.visited.fp_entry(fp, same, admit, meter)?
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

    /// A checkpoint at a clean cut: everything before `next` is fully
    /// expanded, the frontier `next..` not at all. In RAM the graph is
    /// captured; on disk the sealed segments go in by reference (name
    /// and checksum) and only the unsealed tails are embedded —
    /// O(hot tier), not O(state space).
    fn snapshot(&self, next: usize) -> Snapshot {
        match &self.body {
            Body::Ram { graph } => checkpoint::capture(graph, next, self.header()),
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
                    .snapshot(checkpoint::Body::Manifest(manifest), next..self.len())
            }
        }
    }

    /// Turns the store, and where the loop stopped, into the run's
    /// result: the canonical [`StateGraph`] — a move in RAM, a decode of
    /// every record on disk — with the unexpanded `next..` its frontier.
    /// `cut` holds the partial successor list of a half-expanded parent
    /// (graph only, never banked); an `exhausted`, `resumable` run takes
    /// — and, under a checkpoint spec, writes — the exhaustion snapshot.
    fn finish(
        self,
        next: usize,
        cut: Option<(usize, Vec<Edge>)>,
        exhausted: Option<ExhaustReason>,
        resumable: bool,
        ck: &mut Checkpointer,
    ) -> Result<Exploration, CheckError> {
        let header = self.header();
        let meter = &*self.meter;
        let frontier = next..self.len();
        let resumable = exhausted.is_some() && resumable;
        if let Body::Disk { arena, edges, .. } = &self.body {
            spill::note_cache_stats(meter, [arena, edges]);
        }
        // On disk, under a checkpoint spec (which keeps the directory),
        // the exhaustion snapshot references the sealed segments like
        // the periodic ones. An ephemeral directory is about to go, so
        // there — as in RAM — it is captured from the graph below.
        let by_reference = match &self.body {
            Body::Disk { .. } if resumable && ck.active() => {
                let mut snap = self.snapshot(next);
                let token = ck.write(&mut snap, meter.recorder());
                Some((Some(Box::new(snap)), token))
            }
            _ => None,
        };
        let mut graph = match self.body {
            Body::Ram { graph } => graph,
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
        let (snapshot, resume) = match by_reference {
            Some(pair) => pair,
            None if resumable => exhaustion_snapshot(ck, meter.recorder(), &graph, next, header),
            None => (None, None),
        };
        let outcome = match exhausted {
            None => Outcome::Complete,
            Some(reason) => Outcome::Exhausted {
                reason,
                frontier_size: frontier.len(),
                stats: graph.stats(),
                resume,
            },
        };
        Ok(Exploration {
            frontier: frontier.collect(),
            graph,
            outcome,
            snapshot,
            requested_threads: None,
            workers: 1,
        })
    }
}

/// Builds the final in-RAM snapshot of an exhausted run, whose states
/// from `next` on are the unexpanded ones, and writes it to disk when a
/// checkpoint spec is active.
fn exhaustion_snapshot(
    ck: &mut Checkpointer,
    recorder: &RecorderHandle,
    graph: &StateGraph,
    next: usize,
    header: RunHeader,
) -> (Option<Box<Snapshot>>, Option<ResumeToken>) {
    let mut snap = checkpoint::capture(graph, next, header);
    let token = ck.write(&mut snap, recorder);
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
        assert_eq!(root, 0);
        let mut row = Vec::new();
        for id in 0.. {
            if id == store.len() {
                break;
            }
            row.clear();
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
                let Ok((target, _)) = store.intern(state(y).fingerprint(), from, &row, &effect)
                else {
                    panic!("an unlimited meter and a healthy disk");
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
        let mut meter = Meter::start(&Budget::unlimited());
        let seg_target = Tuning::for_budget(8 << 10).seg_target;
        let layout = Arc::new(PackedLayout::compile(system.vars()).expect("one small slot packs"));
        let mut streams: Vec<(Stream, Stream)> = Vec::new();
        for way in ["before the first state", "edge bytes", "arena bytes"] {
            let disk = Some((SpillDir::new(None), Tuning::for_budget(8 << 10)));
            let mut store = Store::create(&system, &options, &mut meter, &layout, disk).unwrap();
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

    /// A RAM body reads its fingerprints from the dedup index's column,
    /// which a drain empties; so, for every budget, a store of the
    /// smallest records (a row of no bytes) has left RAM before its
    /// index first drains. The drain fires while the `hot_cap`-th state
    /// is interned, before that state is recorded, and the store leaves
    /// RAM once its arena records reach `seg_target` bytes — its edge
    /// records only ever make that sooner — so `hot_cap - 1` records
    /// must reach it.
    #[test]
    fn a_budgeted_store_leaves_ram_before_its_index_drains() {
        let smallest = checkpoint::arena_record_bytes(0);
        let around_powers = (11..=40).flat_map(|p| {
            let m = 1usize << p;
            [m - 1, m, m + 1, m + m / 2]
        });
        for m in (1 << 10..=1 << 16).chain(around_powers) {
            let t = Tuning::for_budget(m);
            assert!(
                (t.hot_cap - 1) * smallest >= t.seg_target,
                "a {m}-byte budget: {} records of {smallest} bytes fill no {}-byte segment",
                t.hot_cap - 1,
                t.seg_target
            );
        }
    }

    /// A record read back from a sealed segment whose checksums hold
    /// but whose row has a code past its slot's domain (`x`'s eight bits
    /// hold up to 255, its domain 150 values) is a typed error where the
    /// loop reads a parent — never a table index past its end.
    #[test]
    fn a_disk_row_holding_a_code_past_its_domain_is_corrupt() {
        let system = ring();
        let (options, mut meter) = (
            ExploreOptions::default(),
            Meter::start(&Budget::unlimited()),
        );
        let layout = Arc::new(PackedLayout::compile(system.vars()).expect("one small slot packs"));
        let disk = Some((SpillDir::new(None), Tuning::for_budget(8 << 10)));
        let mut store = Store::create(&system, &options, &mut meter, &layout, disk).unwrap();
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
        row.clear();
        store.row(0, &mut row).unwrap();
        match store.row(1, &mut row) {
            Err(CheckError::Checkpoint(CheckpointError::Corrupt { detail })) => {
                assert!(detail.contains("slot 0 holds code 200"), "{detail}");
            }
            other => panic!("{other:?}"),
        }
    }
}
