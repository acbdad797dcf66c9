//! The one BFS loop ([`explore_seq`]) over one [`Store`], in two
//! stages: a stepper writes each parent's successors, an interner
//! interns them in id order.
//!
//! The interner owns queue, budget cuts, half-expanded-parent re-queue,
//! checkpoint cadence and phases; the store owns where states, edges
//! and the dedup index live. It starts in RAM — a [`StateGraph`] under
//! construction and one fingerprint index — and, with the disk tiers of
//! [`super::spill`], moves once to them: when its next state or edge
//! list would take the graph and the index, as allocated, past the
//! memory budget, or at its first checkpoint. A budget that holds the
//! whole graph therefore runs the in-RAM run, touching no file. A
//! resumed run re-opens a store on disk. Without tiers the store never
//! leaves RAM and touches no file.
//! There is one discovery order, this loop's, so completed graphs are
//! byte-identical across bodies, [`VisitedMode`]s and worker counts by
//! construction.
//!
//! The loop steps on slot codes: a parent is its packed row — in RAM the
//! graph's own row column (stride bytes a state), on disk its arena
//! record's payload, checked as it is read — stepped through the
//! effect tables of [`CompiledSystem::for_each_packed_successor`], each
//! child fingerprinted from the parent's by its effects and its row
//! written only when it is new. No `State` is built: the graph keeps
//! rows.

use super::plan::{Plan, DEFAULT_SPILL_BUDGET};
use super::spill::{self, SpillDir, SpillVisited, Tuning};
use super::{Edge, Exploration, ExploreOptions, StateGraph, VisitedMode};
use crate::budget::{Budget, ExhaustReason, Meter, Outcome};
use crate::checkpoint::{self, CheckpointError, Checkpointer, Manifest, ResumeToken, Snapshot};
use crate::compiled::{
    append_child, child_fingerprint, CompiledSystem, Effect, MemoStats, Miss, StepMemo,
};
use crate::obs::{Phase, PhaseGuard};
use crate::{CheckError, System};
use opentla_kernel::store::{SegmentMeta, SegmentStore, StoreError};
use opentla_kernel::{PackedLayout, State};
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::ScopedJoinHandle;

/// What a run starts from.
pub(super) enum Seed<'a> {
    /// The enumerated initial states of a fresh run (never empty).
    Fresh(Vec<State>),
    /// A snapshot whose store the run re-opens and continues.
    Resume(&'a Snapshot),
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

/// Why a store's lookup admitted no new state: a [`Stop`], or no room
/// for it in the RAM body, which must move to disk first.
enum Refused {
    Stop(Stop),
    Full,
}

impl From<StoreError> for Refused {
    fn from(e: StoreError) -> Refused {
        Refused::Stop(e.into())
    }
}

impl From<CheckpointError> for Refused {
    fn from(e: CheckpointError) -> Refused {
        Refused::Stop(e.into())
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
/// frontier, the last complete level, is the tail.) Re-opening its
/// store and starting the cursor at the frontier's first id therefore
/// continues the *exact* sequential discovery order, and new states
/// extend the arena precisely as an uninterrupted run would; a snapshot
/// whose frontier is not the tail is [`CheckpointError::Corrupt`].
///
/// The [`Store`] has disk tiers under `plan.mem_budget`, else, under a
/// checkpoint spec or resuming, under [`DEFAULT_SPILL_BUDGET`]; its
/// arena records the states' rows under `layout`.
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
    // A resumed meter is pre-charged with the snapshot's banked work, so
    // cumulative budgets keep their meaning; a fresh meter's deadline
    // clock starts here, after initial-state enumeration.
    let (resumed, mut meter) = match seed {
        Seed::Resume(snap) => {
            let meter = Meter::start_resumed(budget, snap.states_used(), snap.transitions_used());
            (Some(snap), meter)
        }
        Seed::Fresh(_) => (None, Meter::start(budget)),
    };
    let (meter, spec) = (&mut meter, budget.checkpoint.as_ref());
    // A snapshot describes a segment store: the store of a run that
    // takes one, or re-opens one, has disk tiers.
    let armed = spec.is_some() || resumed.is_some();
    let tiers = plan.mem_budget.or(armed.then_some(DEFAULT_SPILL_BUDGET));
    let disk = tiers.map(|m| (SpillDir::new(spec, resumed), Tuning::for_budget(m)));
    let mut store = Store::create(system, options, meter, layout, disk);
    let mut ck = Checkpointer::new(budget.checkpoint.clone(), resumed);
    // The next state to intern the successors of: the queue is
    // `next..store.len()`.
    let mut next = 0;
    let mut exhausted: Option<ExhaustReason> = None;
    let mut exhausted_in_init = false;
    match seed {
        Seed::Resume(snap) => next = store.reopen(snap, system.actions().len())?,
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
            store
                .checkpoint(next, &mut ck)
                .map_err(CheckpointError::from)?;
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
                Ok((target, _)) => edge_buf.push(Edge {
                    action: succ.action,
                    target: u32::try_from(target)
                        .expect("`checkpoint::id_word` bounds every id a store admits"),
                }),
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

/// Where a [`Store`] keeps its states and edge lists, and where each
/// state was reached from. Ids are dense and assigned in insertion
/// order in both.
#[allow(clippy::large_enum_variant)] // one per run, never moved
enum Body {
    /// The [`StateGraph`] under construction — a run that ends here
    /// moves it out finished, each edge list and row held once. Every
    /// state's unmasked fingerprint, for incremental derivation, is in
    /// the dedup index's column ([`SpillVisited::fp`]). A state's BFS
    /// parent is its first edge in the graph, once its parent's row is
    /// filled; until then, with disk tiers, it is in `discovering`.
    Ram {
        graph: StateGraph,
        /// With disk tiers, the `(parent, edge)` that discovered each
        /// state interned since the last row was filled: the expanding
        /// parent's new successors, which [`Store::spill`] writes into
        /// their arena records' parent words.
        discovering: Vec<(u32, Edge)>,
    },
    /// An arena record per state, which names its BFS parent, and an
    /// edge record per fully expanded state in [`SegmentStore`]s:
    /// sealed segments on disk behind an LRU cache, the unsealed tails
    /// in RAM: what a checkpoint records and a resume re-opens. `init`
    /// is for manifests.
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
            Body::Ram { graph, .. } => Ok((graph.row(id), None)),
            Body::Disk { arena, .. } => {
                arena.read(id as u64, buf)?;
                checkpoint::arena_record(buf, layout).map(|rec| (rec.row, Some(rec.fp)))
            }
        }
    }
}

/// What a RAM body counts on: its states' fingerprints are all in the
/// index's column, since the index drains only once the store has left
/// RAM ([`SpillVisited::cap`]).
const UNDRAINED: &str = "a store's dedup index drains only once the store is on disk";

/// What [`Store::spill`] counts on: the loop gives each state it
/// interns in RAM the next id, as it discovers it.
const UNDISCOVERED: &str = "the RAM body's states are discovered in id order";

/// The discovering edges [`Store::spill`] has scanned and not yet
/// written into arena records. A state's discovering edge is the first
/// edge into it, and the RAM body's states are numbered in discovery
/// order — after the initial states, each takes the next id as its
/// first edge is met — so an edge discovers its target exactly when
/// that is the next state to find.
struct Window {
    /// The next state to find.
    found: usize,
    /// The `(parent, action)` of states found, in id order, up to those
    /// below `found`: from the `taken`-th on, not yet written.
    parents: Vec<(u32, u32)>,
    taken: usize,
}

impl Window {
    /// A window with the first `initial` states found, none of them by
    /// an edge.
    fn after(initial: usize) -> Window {
        Window {
            found: initial,
            parents: Vec::new(),
            taken: 0,
        }
    }

    /// The `(parent, action)` of the first state found and not yet
    /// taken. The ones taken go once they are half the window.
    fn take(&mut self) -> Option<(u32, u32)> {
        let next = *self.parents.get(self.taken)?;
        self.taken += 1;
        if 2 * self.taken >= self.parents.len() {
            self.parents.drain(..self.taken);
            self.taken = 0;
        }
        Some(next)
    }

    /// Scans `edges`, out of `parent`, in order.
    fn scan(&mut self, parent: usize, edges: &[Edge]) {
        for e in edges {
            if e.target as usize == self.found {
                self.parents.push((parent as u32, e.action));
                self.found += 1;
            }
        }
    }
}

/// The sequential store: states, edges and BFS parents in a [`Body`], and
/// the dedup index over them — one [`super::index::FpIndex`] probe
/// sequence until a store with disk tiers drains it to disk
/// ([`SpillVisited`]), which it does only once the body has left RAM:
/// when the next state or edge list would take the RAM body past the
/// budget ([`Store::room`]), or at its first checkpoint.
/// In [`VisitedMode::Exact`] a fingerprint hit is verified against the
/// body, wherever the candidate lives by then: rows compared as bytes,
/// unless the fingerprints the index holds already differ. A
/// checkpoint seals this store, and a resume re-opens it.
struct Store<'a> {
    body: Body,
    visited: SpillVisited,
    /// The segment directory and tier sizes a memory budget, a
    /// checkpoint spec or a resume bought; `None` never leaves RAM.
    disk: Option<(SpillDir, Tuning)>,
    /// Every state's row is under it: the RAM body's graph keeps the
    /// rows, and arena records are written from them.
    layout: &'a Arc<PackedLayout>,
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
    /// Whether a new state would fit ([`Store::room`]): weighed after
    /// every step that changes the body, as every lookup reads it.
    state_room: bool,
}

impl<'a> Store<'a> {
    /// An empty store in RAM, with `disk` tiers to move to, if any;
    /// nothing touches the disk before a segment or run is written.
    fn create(
        system: &'a System,
        options: &'a ExploreOptions,
        meter: &'a mut Meter,
        layout: &'a Arc<PackedLayout>,
        disk: Option<(SpillDir, Tuning)>,
    ) -> Store<'a> {
        let mask = options.mask();
        // Uncapped until the store is on disk: in RAM every lookup is
        // the one hot-tier probe, and without tiers the store never is.
        let visited = match &disk {
            Some((dir, t)) => SpillVisited::new(mask, dir.path(), t.filter_bytes),
            None => SpillVisited::new(mask, std::path::Path::new(""), 0),
        };
        let mut store = Store {
            body: Body::Ram {
                graph: StateGraph::with_capacity(Arc::clone(layout), 0),
                discovering: Vec::new(),
            },
            visited,
            disk,
            layout,
            expanded: 0,
            transitions: 0,
            options,
            sys_hash: checkpoint::system_hash(system),
            meter,
            rec_buf: Vec::new(),
            probe: Vec::new(),
            state_room: true,
        };
        store.weigh();
        store
    }

    /// Weighs the store's room for a new state: a block's room at its
    /// first, the index's growth.
    fn weigh(&mut self) {
        self.state_room = self.room(|graph, visited| graph.state_bytes() + visited.hot_bytes().1);
    }

    /// The RAM body of a store with disk tiers, what it holds as
    /// allocated — its graph's blocks, its dedup index's slot table and
    /// column — and the budget: `None` on disk or without tiers.
    #[inline]
    fn ram(&self) -> Option<(&StateGraph, usize, usize)> {
        match (&self.body, &self.disk) {
            (Body::Ram { graph, .. }, Some((_, t))) => {
                let held = graph.allocated_bytes() + self.visited.hot_bytes().0;
                Some((graph, held, t.budget))
            }
            _ => None,
        }
    }

    /// Whether the store has room for a step that grows its RAM body by
    /// what `grows` says the graph and the index would add: always on
    /// disk or without tiers, else while the body stays within the
    /// budget itself.
    #[inline]
    fn room(&self, grows: impl FnOnce(&StateGraph, &SpillVisited) -> usize) -> bool {
        (self.ram())
            .is_none_or(|(graph, held, budget)| held + grows(graph, &self.visited) <= budget)
    }

    /// The store's one transition, `Ram` to `Disk`: every arena and
    /// edge record, in id order, through [`SegmentStore::append`], a
    /// block of the graph at a time — its states' arena records, written
    /// straight from their rows, then its filled rows' edge records —
    /// each block freed once written ([`StateGraph::into_blocks`]); then
    /// the dedup index capped at the hot tier's size, and drained into a
    /// run if it holds more ([`SpillVisited::cap`]).
    ///
    /// An arena record's parent words are its state's discovering edge:
    /// the first edge into it in a scan of the rows in id order and then
    /// of `discovering`. The loop numbers states as it discovers them,
    /// so the scan meets them in id order ([`Window`]): it runs only as
    /// far ahead of the records as their parents need, and keeps only
    /// the discoveries not yet written — a BFS frontier, not a column.
    ///
    /// Whenever this fires, the byte streams — and so the segment
    /// boundaries — are those of a store on disk from its first state
    /// (until here records were never encoded). What it holds beyond the
    /// budget is bounded: the index's slot table is freed first when the
    /// index will drain (nothing looks up before), the graph shrinks as
    /// the two tiers' unsealed tails fill (a segment each, an eighth of
    /// the budget, and 4 bytes a record), the window is a frontier, and
    /// the drain sorts a hot tier's worth of entries at a time (16 bytes
    /// an entry, another eighth of the budget) before the column goes.
    fn spill(&mut self) -> Result<(), StoreError> {
        let Some((dir, t)) = &self.disk else {
            unreachable!("only a store with disk tiers spills");
        };
        let empty = Body::Ram {
            graph: StateGraph::with_capacity(Arc::clone(self.layout), 0),
            discovering: Vec::new(),
        };
        let Body::Ram { graph, discovering } = std::mem::replace(&mut self.body, empty) else {
            unreachable!("only the RAM body spills");
        };
        self.visited.precap(t.hot_cap);
        let mut arena = SegmentStore::create(dir.path(), "arena", t.seg_target, t.arena_cache)?;
        let mut edges = SegmentStore::create(dir.path(), "edges", t.seg_target, t.edge_cache)?;
        let init = graph.init().to_vec();
        let mut window = Window::after(init.len());
        let (rows, mut scanned, mut discovering) = (self.expanded, 0, discovering.into_iter());
        for block in graph.into_blocks() {
            for id in block.ids() {
                // A parent is below its child: the row to scan next is
                // this block's, the rows of earlier blocks all scanned.
                while id >= window.found {
                    if scanned < rows {
                        window.scan(scanned, block.edges(scanned));
                        scanned += 1;
                    } else {
                        let (parent, edge) = discovering.next().expect(UNDISCOVERED);
                        window.scan(parent as usize, &[edge]);
                    }
                }
                let parent = match id < init.len() {
                    true => None,
                    false => Some(window.take().expect(UNDISCOVERED)),
                };
                let parent = parent.map(|(p, action)| (p as usize, action as usize));
                let fp = self.visited.fp(id).expect(UNDRAINED);
                let row = |out: &mut Vec<u8>| out.extend_from_slice(block.row(id));
                checkpoint::encode_packed_record(parent, fp, row, &mut self.rec_buf);
                spill::append(self.meter, "arena", &mut arena, &self.rec_buf)?;
            }
            while scanned < rows.min(block.filled().end) {
                window.scan(scanned, block.edges(scanned));
                scanned += 1;
            }
            for id in block.filled() {
                checkpoint::encode_edge_record(id, block.edges(id), &mut self.rec_buf);
                spill::append(self.meter, "edges", &mut edges, &self.rec_buf)?;
            }
        }
        self.body = Body::Disk { arena, edges, init };
        self.visited.cap(t.hot_cap, self.meter)?;
        self.weigh();
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
            Body::Ram { graph, discovering } => {
                let child = &mut self.rec_buf;
                child.clear();
                append_child(layout, row, effects, child);
                let id = graph.push_state(child, from.is_none());
                if self.disk.is_some() {
                    if let Some((parent, action)) = from {
                        let (action, target) = (action as u32, id as u32);
                        discovering.push((parent as u32, Edge { action, target }));
                    }
                    self.weigh();
                }
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

    /// Re-opens the store `snap` describes — its sealed segments where
    /// they lie, named as a store names them, its inline tails appended
    /// — once [`checkpoint::replay`] has checked every record against a
    /// system of `actions` actions and rebuilt the dedup index; returns
    /// where the frontier starts.
    /// Meter-free — the resumed meter is already pre-charged.
    fn reopen(&mut self, snap: &Snapshot, actions: usize) -> Result<usize, CheckpointError> {
        let (dir, t) = self.disk.as_ref().expect("a resumed store has disk tiers");
        let m = &snap.manifest;
        let open = |prefix, sealed: &[SegmentMeta], cache| {
            SegmentStore::open(dir.path(), prefix, sealed.to_vec(), t.seg_target, cache)
        };
        let mut arena = open("arena", &m.arena_segments, t.arena_cache)?;
        let mut edges = open("edges", &m.edge_segments, t.edge_cache)?;
        // On disk from its first state, the index drains at the hot
        // tier's size — while replay seeds it too.
        self.visited.cap(t.hot_cap, self.meter)?;
        let (mode, visited, meter) = (self.options.mode, &mut self.visited, &mut *self.meter);
        let seed = |fp, id| Ok(visited.seed(mode, fp, id, meter)?);
        let first = checkpoint::replay(snap, self.layout, actions, seed)?;
        for record in m.arena_hot.iter() {
            spill::append(self.meter, "arena", &mut arena, record)?;
        }
        for record in m.edge_hot.iter() {
            spill::append(self.meter, "edges", &mut edges, record)?;
        }
        self.transitions = m.transitions;
        self.body = Body::Disk {
            arena,
            edges,
            init: m.init.clone(),
        };
        self.weigh();
        Ok(first)
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
            Body::Ram { graph, .. } => graph.len(),
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
        let found = match self.lookup(fp, row, effects) {
            Ok(found) => found,
            Err(Refused::Stop(stop)) => return Err(stop),
            Err(Refused::Full) => self.moved_lookup(fp, row, effects)?,
        };
        if found.1 {
            self.push_state(row, effects, fp, from)?;
        }
        Ok(found)
    }

    /// [`intern`](Self::intern)'s lookup, the state recorded in the
    /// index only: `(id, whether it is new)`. A RAM body without room
    /// for one more state refuses it as [`Refused::Full`], the index
    /// and the meter untouched.
    #[inline]
    fn lookup(
        &mut self,
        fp: u64,
        row: &[u8],
        effects: &[Effect],
    ) -> Result<(usize, bool), Refused> {
        let next = self.len();
        let room = self.state_room;
        let admit = |meter: &mut Meter| {
            if !room {
                return Err(Refused::Full);
            }
            checkpoint::id_word(next).map_err(|e| Refused::Stop(Stop::Fail(e)))?;
            match meter.charge_state_mut() {
                None => Ok(next),
                Some(reason) => Err(Refused::Stop(Stop::Cut(reason))),
            }
        };
        let meter = &mut *self.meter;
        match self.options.mode {
            // The fingerprinted hot path: one probe, and only
            // genuinely new states are constructed and recorded.
            VisitedMode::Fingerprint => self.visited.fp_entry(fp, |_, _| Ok(true), admit, meter),
            // The exact fallback: every successor's row is written, so
            // a hit can be verified against the body's, a candidate
            // interned in RAM perhaps read back from its disk record —
            // unless its unmasked fingerprint, which one row has one
            // of, already tells them apart. Collision-free by
            // construction, at a throughput cost.
            VisitedMode::Exact => {
                let (body, buf, probe) = (&mut self.body, &mut self.rec_buf, &mut self.probe);
                let layout = self.layout;
                probe.clear();
                append_child(layout, row, effects, probe);
                let same = |cand, cand_fp: Option<u64>| {
                    Ok(cand_fp.is_none_or(|c| c == fp)
                        && body.row(cand, layout, buf)?.0 == &probe[..])
                };
                self.visited.fp_entry(fp, same, admit, meter)
            }
        }
    }

    /// The lookup a full RAM body refused, once the store has moved to
    /// disk, where it has room.
    #[cold]
    fn moved_lookup(
        &mut self,
        fp: u64,
        row: &[u8],
        effects: &[Effect],
    ) -> Result<(usize, bool), Stop> {
        self.spill()?;
        match self.lookup(fp, row, effects) {
            Ok(found) => Ok(found),
            Err(Refused::Stop(stop)) => Err(stop),
            Err(Refused::Full) => unreachable!("a store on disk has room"),
        }
    }

    /// Records the complete successor list of a fully expanded state.
    fn push_edges(&mut self, id: usize, edges: &[Edge]) -> Result<(), CheckpointError> {
        if self.disk.is_some() && !self.room(|graph, _| graph.edges_bytes(edges.len())) {
            self.spill()?;
        }
        self.expanded += 1;
        self.transitions += edges.len() as u64;
        match &mut self.body {
            Body::Ram { graph, discovering } => {
                graph
                    .set_edges(id, edges)
                    .expect("the loop expands in id order");
                discovering.clear();
                if self.disk.is_some() {
                    self.weigh();
                }
            }
            Body::Disk { edges: store, .. } => {
                checkpoint::encode_edge_record(id, edges, &mut self.rec_buf);
                spill::append(self.meter, "edges", store, &self.rec_buf)?;
            }
        }
        Ok(())
    }

    /// A checkpoint at a clean cut — everything before `next` fully
    /// expanded, the frontier `next..` not at all — written by `ck`,
    /// the store moved to disk first: its sealed segments referenced,
    /// only its unsealed tails inline — O(hot tier), not O(state space).
    fn checkpoint(
        &mut self,
        next: usize,
        ck: &mut Checkpointer,
    ) -> Result<(Snapshot, Option<ResumeToken>), StoreError> {
        if let Body::Ram { .. } = self.body {
            self.spill()?;
        }
        let Body::Disk { arena, edges, init } = &self.body else {
            unreachable!("the store has left RAM");
        };
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
        let frontier = next..self.len();
        let mut snap = Snapshot::of(self.options, self.sys_hash, manifest, frontier);
        let token = ck.write(&mut snap, self.meter.recorder());
        Ok((snap, token))
    }

    /// Turns the store, and where the loop stopped, into the run's
    /// result: the canonical [`StateGraph`] — a move in RAM, a decode of
    /// every record on disk, each record's parent checked against the
    /// edges ([`checkpoint::check_parents`]) — with the unexpanded
    /// `next..` its frontier.
    /// `cut` holds the partial successor list of a half-expanded parent
    /// (graph only, never banked). An `exhausted`, `resumable` run under
    /// a checkpoint spec takes — and writes — the exhaustion snapshot,
    /// the store on disk by then; a run without one takes none.
    fn finish(
        mut self,
        next: usize,
        cut: Option<(usize, Vec<Edge>)>,
        exhausted: Option<ExhaustReason>,
        resumable: bool,
        ck: &mut Checkpointer,
    ) -> Result<Exploration, CheckError> {
        let frontier = next..self.len();
        let (snapshot, resume) = match exhausted.is_some() && resumable && ck.armed() {
            true => {
                let (snap, token) = self.checkpoint(next, ck).map_err(CheckpointError::from)?;
                (Some(Box::new(snap)), token)
            }
            false => (None, None),
        };
        let meter = &*self.meter;
        if let Body::Disk { arena, edges, .. } = &self.body {
            spill::note_cache_stats(meter, [arena, edges]);
        }
        // A graph read off the disk body comes with its records' parents,
        // checked once every row, the cut parent's too, is filled.
        let (mut graph, parents) = match self.body {
            Body::Ram { graph, .. } => (graph, None),
            Body::Disk {
                mut arena,
                mut edges,
                ..
            } => {
                // The graph is about to take the budget's place: the
                // index, each tier's cache and each tier once read go
                // first, and the graph's rows are sized for its states.
                drop(self.visited);
                arena.clear_cache();
                edges.clear_cache();
                let (mut graph, parents) = checkpoint::graph_of_arena(&arena, self.layout)?;
                drop(arena);
                checkpoint::fill_edges(&mut graph, &edges)?;
                (graph, Some(parents))
            }
        };
        if let Some((id, partial)) = cut {
            graph
                .set_edges(id, &partial)
                .expect("the cut parent is the next to expand");
        }
        // Every row the run fills is: the graph keeps no spare edge room.
        graph.shrink_to_fit();
        if let Some(parents) = parents {
            checkpoint::check_parents(&mut graph, parents, next)?;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Init;
    use opentla_kernel::store::SegmentMeta;
    use opentla_kernel::{Domain, Value, Vars};

    /// A step of [`drive`]: a successor looked up (`true` when it was
    /// new), or a parent's edge list recorded.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Step {
        Intern(bool),
        Edges,
    }

    /// Breadth-first over the ring `x ∈ 0..n` from 0, each state
    /// stepping to its two successors, its predecessor and itself: the
    /// frontier stays a few states wide. The store is driven as the loop
    /// drives it — parents read as rows, children as a parent row and
    /// an effect — and `after` sees it after every step.
    fn drive(store: &mut Store<'_>, n: i64, mut after: impl FnMut(&Store<'_>, Step)) {
        let state = |x: i64| State::new(vec![Value::Int(x)]);
        let seed = store.layout.pack(&state(0)).expect("in the domain");
        let Ok((root, true)) = store.intern(state(0).fingerprint(), None, &seed, &[]) else {
            panic!("the first state is new");
        };
        assert_eq!(root, 0);
        after(store, Step::Intern(true));
        let mut row = Vec::new();
        for id in 0.. {
            if id == store.len() {
                break;
            }
            row.clear();
            store.row(id, &mut row).unwrap();
            let x = i64::from(store.layout.read_code(&row, 0));
            let mut edges = Vec::new();
            for (action, y) in [(x + 1) % n, (x + n - 1) % n, (x + 2) % n, x]
                .into_iter()
                .enumerate()
            {
                let effect = [Effect {
                    slot: 0,
                    code: y as u32,
                }];
                let from = Some((id, action));
                let Ok((target, new)) = store.intern(state(y).fingerprint(), from, &row, &effect)
                else {
                    panic!("an unlimited meter and a healthy disk");
                };
                after(store, Step::Intern(new));
                edges.push(Edge {
                    action: action as u32,
                    target: target as u32,
                });
            }
            store.push_edges(id, &edges).unwrap();
            after(store, Step::Edges);
        }
    }

    fn ring(n: i64) -> System {
        let mut vars = Vars::new();
        vars.declare("x", Domain::int_range(0, n - 1));
        System::new(vars, Init::new([]), vec![])
    }

    /// Each step of driving the ring of `n` in a store whose RAM body
    /// has no ceiling: the step, the states after it, and the bytes the
    /// RAM body holds after it.
    fn profile(n: i64) -> Vec<(Step, usize, usize)> {
        let system = ring(n);
        let (options, mut meter) = (
            ExploreOptions::default(),
            Meter::start(&Budget::unlimited()),
        );
        let layout = Arc::new(PackedLayout::compile(system.vars()).expect("one slot packs"));
        let mut tuning = Tuning::for_budget(64 << 10);
        tuning.budget = usize::MAX;
        let disk = Some((SpillDir::new(None, None), tuning));
        let mut store = Store::create(&system, &options, &mut meter, &layout, disk);
        let mut steps = Vec::new();
        drive(&mut store, n, |store, step| {
            let held = store
                .ram()
                .map(|(_, held, _)| held)
                .expect("no ceiling: in RAM throughout");
            steps.push((step, store.len(), held));
        });
        steps
    }

    /// Drives the ring of `n` through a store whose tiers are a 64 KiB
    /// budget's and whose RAM body's ceiling is `ceiling`, checking that
    /// the body holds no more than that while in RAM; returns the step
    /// after which it was first on disk, if it left RAM, and its record
    /// streams, once on disk (forced there after the last step if it
    /// never left). `early` moves it before the first state.
    fn run(n: i64, ceiling: usize, early: bool) -> (Option<usize>, Stream, Stream) {
        let system = ring(n);
        let (options, mut meter) = (
            ExploreOptions::default(),
            Meter::start(&Budget::unlimited()),
        );
        let layout = Arc::new(PackedLayout::compile(system.vars()).expect("one slot packs"));
        let mut tuning = Tuning::for_budget(64 << 10);
        tuning.budget = ceiling;
        let disk = Some((SpillDir::new(None, None), tuning));
        let mut store = Store::create(&system, &options, &mut meter, &layout, disk);
        if early {
            store.spill().unwrap();
        }
        let (mut step, mut moved) = (0, None);
        drive(&mut store, n, |store, _| {
            match store.ram().map(|(_, held, _)| held) {
                Some(held) => assert!(held <= ceiling, "step {step}: {held} > {ceiling}"),
                None if early => {}
                None => _ = moved.get_or_insert(step),
            }
            step += 1;
        });
        if let Body::Ram { .. } = store.body {
            store.spill().unwrap();
        }
        let Body::Disk { arena, edges, init } = &store.body else {
            unreachable!("the store left RAM");
        };
        assert_eq!(init, &[0]);
        assert_eq!((arena.len(), edges.len()), (n as u64, n as u64));
        let stream = |s: &SegmentStore| {
            (
                s.sealed().to_vec(),
                s.hot_records().map(<[u8]>::to_vec).collect(),
            )
        };
        (moved, stream(arena), stream(edges))
    }

    type Stream = (Vec<SegmentMeta>, Vec<Vec<u8>>);

    /// Under every ceiling the ring's RAM body meets on its way — each
    /// size it grows from — the body holds no more than the ceiling
    /// while in RAM, and moves at exactly the first step that, left in
    /// RAM, would have taken it past: a state (a new block, the index's
    /// table or column grown) or an edge list (the open block's list
    /// grown, or a block's edges sized). A ceiling past its last size
    /// never moves it.
    #[test]
    fn the_ram_body_stays_within_its_budget_and_moves_at_the_first_step_past_it() {
        let steps = profile(150);
        let mut sizes: Vec<usize> = steps.iter().map(|&(_, _, held)| held).collect();
        sizes.dedup();
        assert!(sizes.len() >= 8, "{sizes:?}");
        for &ceiling in &sizes {
            let past = steps.iter().position(|&(_, _, held)| held > ceiling);
            let (moved, _, _) = run(150, ceiling, false);
            assert_eq!(moved, past, "ceiling {ceiling}");
            if let Some(at) = past {
                assert!(matches!(steps[at].0, Step::Intern(true) | Step::Edges));
            }
        }
        let kinds = sizes.iter().filter_map(|&c| {
            let at = steps.iter().position(|&(_, _, held)| held > c)?;
            Some(steps[at].0)
        });
        let kinds: Vec<Step> = kinds.collect();
        assert!(kinds.contains(&Step::Edges) && kinds.contains(&Step::Intern(true)));
    }

    /// The streams do not depend on when the store left RAM: forced out
    /// before its first state, leaving mid-block at a state, at a block's
    /// first state (the block's room allocated), at an edge list (a
    /// block's edges sized), or after the last step, the store seals the
    /// same segments — name, records, length, checksum — and holds the
    /// same unsealed tails, in both tiers. Each move lands where the
    /// ceiling says, with the expanding parent's discoveries not yet in
    /// the graph's rows.
    #[test]
    fn the_record_streams_do_not_depend_on_when_the_store_left_ram() {
        const N: i64 = 5000;
        let steps = profile(N);
        // The step that first grows the body past what it held before,
        // among those of `kind` that leave the store `states` long.
        let growing = |kind: Step, states: std::ops::Range<usize>| {
            let at = (1..steps.len())
                .find(|&i| {
                    let (step, len, held) = steps[i];
                    step == kind && states.contains(&len) && held > steps[i - 1].2
                })
                .expect("a growing step");
            (at, steps[at - 1].2)
        };
        let ways = [
            ("mid-block", growing(Step::Intern(true), 1500..4000)),
            (
                "a block's first state",
                growing(Step::Intern(true), 4097..4098),
            ),
            (
                "a block's edges",
                growing(Step::Edges, 4000..N as usize + 1),
            ),
        ];
        let (_, arena, edges) = run(N, usize::MAX, true);
        let (never, ..) = run(N, usize::MAX, false);
        assert_eq!(never, None);
        for (way, (at, ceiling)) in ways {
            let (moved, a, e) = run(N, ceiling, false);
            assert_eq!(moved, Some(at), "{way}");
            assert!(a.0.len() >= 2 && e.0.len() >= 2, "{way}");
            assert!(a == arena && e == edges, "{way}");
        }
        let (_, a, e) = run(N, usize::MAX, false);
        assert!(a == arena && e == edges, "after the last step");
    }

    /// The dedup index of a store in RAM holds every state's fingerprint
    /// however far past its hot tier's cap it grows: it drains only once
    /// the store has left RAM, and then at once, into one run sorted a
    /// cap's worth at a time, its room released. A store that never leaves RAM writes nothing: no
    /// segment, no run, no directory.
    #[test]
    fn a_store_in_ram_never_drains_its_index() {
        const N: i64 = 5000;
        let system = ring(N);
        let (options, mut meter) = (
            ExploreOptions::default(),
            Meter::start(&Budget::unlimited()),
        );
        let layout = Arc::new(PackedLayout::compile(system.vars()).expect("one slot packs"));
        let tuning = Tuning::for_budget(512 << 10);
        assert!(2 * tuning.hot_cap > N as usize && tuning.hot_cap < N as usize);
        let disk = Some((SpillDir::new(None, None), tuning));
        let mut store = Store::create(&system, &options, &mut meter, &layout, disk);
        let dir = store.disk.as_ref().map(|(dir, _)| dir.path().to_path_buf());
        let dir = dir.expect("tiers");
        drive(&mut store, N, |_, _| {});
        assert!(
            store.ram().map(|(_, held, _)| held).is_some(),
            "the ring fits 512 KiB"
        );
        assert!((0..N as usize).all(|id| store.visited.fp(id).is_some()));
        assert!(!dir.exists(), "nothing written");
        store.spill().unwrap();
        let mut runs: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("visited-"))
            .collect();
        runs.sort();
        assert_eq!(runs, ["visited-00000.run"], "one run, its parts merged");
        assert_eq!(store.visited.fp(N as usize - 1), None, "drained");
        assert_eq!(store.visited.hot_bytes().0, 16 * 4, "a new index's room");
    }

    /// A record read back from a sealed segment whose checksums hold
    /// but whose row has a code past its slot's domain (`x`'s eight bits
    /// hold up to 255, its domain 150 values) is a typed error where the
    /// loop reads a parent — never a table index past its end.
    #[test]
    fn a_disk_row_holding_a_code_past_its_domain_is_corrupt() {
        let system = ring(150);
        let (options, mut meter) = (
            ExploreOptions::default(),
            Meter::start(&Budget::unlimited()),
        );
        let layout = Arc::new(PackedLayout::compile(system.vars()).expect("one small slot packs"));
        let disk = Some((SpillDir::new(None, None), Tuning::for_budget(8 << 10)));
        let mut store = Store::create(&system, &options, &mut meter, &layout, disk);
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
