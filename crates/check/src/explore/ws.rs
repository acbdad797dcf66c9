//! The work-stealing engine ([`Engine::WorkStealing`](super::Engine::WorkStealing)):
//! one driver ([`explore_ws`]) runs one scheduler ([`run_workers`]) over
//! one packed expansion and one store in RAM
//! ([`super::stripes::Store`]). A run under a memory budget never gets
//! here: it is the sequential loop over its disk-backed store.
//!
//! * **Per-worker deques, work stealing.** Each worker owns a deque of
//!   discovered-but-unexpanded states. It pops from the front of its
//!   own deque and pushes children to the back; when its deque runs
//!   dry it steals from the *back* of a peer's. There is no frontier
//!   cursor and no level boundary.
//! * **Quiescence termination.** A shared `in_flight` counter tracks
//!   states that are queued or mid-expansion (a parent's newborn
//!   children are added, then the parent itself released — children
//!   are counted before the parent is released, so the counter cannot
//!   transiently hit zero while work remains). Workers that find
//!   nothing to claim spin-yield until `in_flight == 0`, which proves
//!   global exhaustion.
//! * **Stepping on slot codes.** States are fixed-width packed rows
//!   ([`PackedLayout`]) in the store's arenas, and a parent is stepped as one:
//!   the expansion copies its row out and looks each action up in the
//!   worker's effect tables
//!   ([`CompiledSystem::for_each_packed_successor`]), which hand back
//!   the `(slot, new code)` effects of every enabled action. The child's
//!   fingerprint is the parent's under the layout's incremental Zobrist
//!   delta of those effects, and the store is handed the parent's row
//!   with them written in. Only a table miss unpacks the parent and
//!   evaluates; no `Value` is built otherwise.
//! * **Lock-striped store.** The store shards its index and arenas by
//!   fingerprint into [`NUM_SHARDS`] independently-locked stripes, so
//!   interning scales with workers.
//! * **Edges.** A worker pushes `(parent, action, child)` onto its own
//!   records as it interns; a parent's run stays there, partial for a
//!   parent the budget cut short.
//!
//! Determinism is recovered after the fact, not maintained during the
//! run: the canonical renumbering replay ([`replay_records`]) of every
//! run rebuilds the sequential BFS discovery order — the finished
//! graph is **byte-identical** to the sequential engine's.
//!
//! **Panic isolation.** A panic inside one parent's expansion is
//! caught there: the worker's records roll back to where they stood
//! when it claimed the parent, the children it had already interned
//! are queued like any others, the parent goes back on a deque still
//! counted in `in_flight`, one `worker_failure` event is recorded, and
//! the worker retires — the run completes, degraded, on the others.
//! Re-expanding the parent finds those children already interned, so
//! nothing is counted twice. The last worker alive cannot retire: its
//! panic propagates to the caller.
//!
//! **Checkpointing.** An exhausted run snapshots at its stopping point
//! (a quiescent point — all workers stopped), rolled back to the
//! deepest consistent level boundary by the shared [`rollback_cut`],
//! and resumable by any plan. When the budget arms periodic
//! checkpoints, the run also goes in *epochs*: every
//! `cadence` claims the workers stop at a quiescent point, the driver
//! snapshots the same way, and the run goes on from the pending states.
//! Otherwise a run is one epoch.

use super::seq::Seed;
use super::stripes::Store;
use super::*;
use crate::compiled::{append_child, child_fingerprint, MemoStats, StepMemo};
use opentla_kernel::PackedLayout;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::Arc;

// ---------------------------------------------------------------------
// The scheduler
// ---------------------------------------------------------------------

/// The [`WorkerPanic`] hook, handed to an expansion the injection has
/// armed: the first recorded edge to [`trip`] it panics, once per run.
type Tripwire<'a> = Option<&'a AtomicBool>;

/// Fires an armed [`Tripwire`]; called right after an edge is
/// recorded.
#[inline]
fn trip(wire: Tripwire<'_>) {
    if wire.is_some_and(|fired| !fired.swap(true, Ordering::Relaxed)) {
        panic!("injected worker panic");
    }
}

/// What a worker records: one `(parent, action, child)` edge. Each
/// state is expanded to completion by exactly one worker (deque pop is
/// exclusive; a panicked expansion's records are truncated), so its
/// edges form one contiguous run in action order, in exactly one
/// worker's records — which is what [`replay_records`] reads.
pub(super) type EdgeRecord = (Pid, u32, Pid);

/// Shared coordination state of one work-stealing run.
struct Sched<'a> {
    /// One deque per worker; owners pop the front, thieves the back.
    deques: Vec<Mutex<VecDeque<Pid>>>,
    /// Queued-or-expanding state count; zero proves quiescence.
    in_flight: AtomicUsize,
    meter: &'a Meter,
    stop: AtomicBool,
    reason: Mutex<Option<ExhaustReason>>,
    error: Mutex<Option<CheckError>>,
    /// Parents claimed run-wide — counted only when `pause_at` or
    /// `fault` needs the count.
    claims: AtomicU64,
    /// The claim count that ends the current epoch (`u64::MAX`: none
    /// does). Ending an epoch raises `stop` with no `reason`.
    pause_at: u64,
    epoch: u64,
    fault: Option<WorkerPanic>,
    fault_fired: AtomicBool,
    /// Workers that have not retired after a panic.
    alive: AtomicUsize,
}

impl Sched<'_> {
    fn note_exhaustion(&self, r: ExhaustReason) {
        lock(&self.reason).get_or_insert(r);
        self.stop.store(true, Ordering::Relaxed);
    }

    fn note_error(&self, e: CheckError) {
        lock(&self.error).get_or_insert(e);
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Claims the next parent: own deque front first, then a sweep
    /// stealing from the backs of the peers' (a retired worker's
    /// included).
    fn claim(&self, me: usize) -> Option<Pid> {
        if let Some(p) = lock(&self.deques[me]).pop_front() {
            return Some(p);
        }
        let n = self.deques.len();
        for k in 1..n {
            if let Some(p) = lock(&self.deques[(me + k) % n]).pop_back() {
                return Some(p);
            }
        }
        None
    }

    /// Counts a claim when something needs the count: ends the epoch
    /// at its cadence, and arms the injected panic past its threshold.
    fn count_claim(&self) -> Tripwire<'_> {
        if self.pause_at == u64::MAX && self.fault.is_none() {
            return None;
        }
        let before = self.claims.fetch_add(1, Ordering::Relaxed);
        if before + 1 >= self.pause_at {
            self.stop.store(true, Ordering::Relaxed);
        }
        let armed = self.fault.is_some_and(|f| before >= f.after_claims)
            && !self.fault_fired.load(Ordering::Relaxed);
        armed.then_some(&self.fault_fired)
    }
}

/// One worker's tally, next to its records.
struct Tally {
    records: Vec<EdgeRecord>,
    /// Parents whose expansion was cut short by budget exhaustion.
    interrupted: Vec<Pid>,
    claimed: u64,
    inserted: u64,
    memo: MemoStats,
}

/// The worker loop: claim a parent, expand it, release it.
fn work(sched: &Sched<'_>, x: &Packed<'_>, me: usize, tally: &mut Tally) {
    let mut scratch = Scratch::default();
    // Children discovered while expanding the current parent, pushed
    // to the deque in one batch (one lock per parent, not per child).
    let mut born: Vec<Pid> = Vec::new();
    loop {
        if sched.stop.load(Ordering::Relaxed) {
            break;
        }
        if let Some(reason) = sched.meter.checkpoint() {
            sched.note_exhaustion(reason);
            break;
        }
        let Some(parent) = sched.claim(me) else {
            if sched.in_flight.load(Ordering::Acquire) == 0 {
                break;
            }
            std::thread::yield_now();
            continue;
        };
        tally.claimed += 1;
        let wire = sched.count_claim();
        let mark = tally.records.len();
        // `AssertUnwindSafe`: a panic leaves `records` to the rollback
        // below and `scratch` to die with this worker, and the store's
        // critical sections never expose partial insertions.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            x.expand(parent, &mut scratch, &mut tally.records, &mut born, wire)
        }));
        // Flush on every exit path — an interned-but-unqueued child
        // would drop out of the resume frontier — and count the
        // children before releasing the parent, or quiescence could be
        // declared with work still queued.
        if !born.is_empty() {
            tally.inserted += born.len() as u64;
            sched.in_flight.fetch_add(born.len(), Ordering::AcqRel);
            lock(&sched.deques[me]).extend(born.drain(..));
        }
        let result = match result {
            Ok(result) => result,
            Err(payload) => {
                if sched.alive.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Nobody is left to take the parent over.
                    std::panic::resume_unwind(payload);
                }
                // The parent goes back unreleased — still counted in
                // `in_flight`, so no peer can declare quiescence before
                // one of them has re-expanded it — and this worker
                // retires.
                tally.records.truncate(mark);
                lock(&sched.deques[me]).push_front(parent);
                if sched.meter.recorder().enabled() {
                    sched.meter.recorder().record(&Event::WorkerFailure {
                        worker: me,
                        level: sched.epoch,
                        requeued: 1,
                    });
                }
                break;
            }
        };
        sched.in_flight.fetch_sub(1, Ordering::AcqRel);
        match result {
            Ok(None) => {}
            // The budget cut the expansion short; the parent stays
            // pending.
            Ok(Some(reason)) => {
                sched.note_exhaustion(reason);
                tally.interrupted.push(parent);
            }
            Err(e) => {
                sched.note_error(e);
                break;
            }
        }
    }
    tally.memo = scratch.memo.stats();
}

/// What a work-stealing run leaves behind: every worker's records,
/// epoch by epoch, after the ones the run started from; the
/// discovered-but-unexpanded pids once it stops early; why it stopped
/// early; and what the workers' effect tables did.
type WsRun = (
    Vec<Vec<EdgeRecord>>,
    Vec<Pid>,
    Option<ExhaustReason>,
    MemoStats,
);

/// Runs the workers over `x` from `pending` to quiescence or a budget
/// stop. `records` are the ones the run starts from (a resumed
/// snapshot's banked runs). With a `cadence`, the run pauses every
/// that many claims for a `snapshot`: given every record so far and
/// the pending pids, it says whether checkpointing is still healthy
/// (an unhealthy run stops pausing).
fn run_workers(
    x: &Packed<'_>,
    mut pending: Vec<Pid>,
    mut records: Vec<Vec<EdgeRecord>>,
    mut cadence: Option<u64>,
    mut snapshot: impl FnMut(&[Vec<EdgeRecord>], &[Pid]) -> bool,
) -> Result<WsRun, CheckError> {
    let (meter, threads) = (&x.run.meter, x.run.threads);
    let mut sched = Sched {
        deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        in_flight: AtomicUsize::new(0),
        meter,
        stop: AtomicBool::new(false),
        reason: Mutex::new(None),
        error: Mutex::new(None),
        claims: AtomicU64::new(0),
        pause_at: u64::MAX,
        epoch: 0,
        fault: x.run.options.worker_panic,
        fault_fired: AtomicBool::new(false),
        alive: AtomicUsize::new(threads),
    };
    let mut memo = MemoStats::default();
    let expand_phase = PhaseGuard::enter(meter.recorder(), Phase::ExploreExpand);
    loop {
        // Prime the quiescence counter with the seeded work and deal it
        // round-robin (ownership is only a locality hint — stealing
        // erases any imbalance).
        *sched.in_flight.get_mut() = pending.len();
        for (i, p) in pending.drain(..).enumerate() {
            lock(&sched.deques[i % threads]).push_back(p);
        }
        *sched.stop.get_mut() = false;
        if let Some(cadence) = cadence {
            sched.pause_at = *sched.claims.get_mut() + cadence;
        }
        let workers = *sched.alive.get_mut();
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    let sched = &sched;
                    scope.spawn(move || {
                        let mut tally = Tally {
                            records: Vec::new(),
                            interrupted: Vec::new(),
                            claimed: 0,
                            inserted: 0,
                            memo: MemoStats::default(),
                        };
                        let body = std::panic::AssertUnwindSafe(|| work(sched, x, me, &mut tally));
                        if let Err(payload) = std::panic::catch_unwind(body) {
                            // Backstop for what the per-parent
                            // isolation does not absorb — a panic
                            // outside an expansion, or in the last
                            // worker alive: raise the stop flag so the
                            // peers' quiescence spin terminates (this
                            // worker's in_flight contribution is lost
                            // with it), note the casualty, then let the
                            // panic surface through the scope.
                            sched.stop.store(true, Ordering::Relaxed);
                            if meter.recorder().enabled() {
                                meter.recorder().record(&Event::WorkerFailure {
                                    worker: me,
                                    level: sched.epoch,
                                    requeued: 0,
                                });
                            }
                            std::panic::resume_unwind(payload);
                        }
                        tally
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        for (worker, mut tally) in tallies.into_iter().enumerate() {
            if meter.observed() {
                meter.recorder().record(&Event::WorkerLevel {
                    worker,
                    level: sched.epoch,
                    claimed: tally.claimed,
                    inserted: tally.inserted,
                });
            }
            memo += tally.memo;
            pending.append(&mut tally.interrupted);
            if !tally.records.is_empty() {
                records.push(tally.records);
            }
        }
        // Deque remnants after a stop are honestly pending.
        for d in &sched.deques {
            pending.extend(lock(d).drain(..));
        }
        if pending.is_empty() || lock(&sched.reason).is_some() || lock(&sched.error).is_some() {
            break;
        }
        // Otherwise this is a pause: every claimed parent is fully
        // expanded, so the records and `pending` describe a consistent
        // partial graph.
        assert!(cadence.is_some(), "only an armed cadence pauses a run");
        if !snapshot(&records, &pending) {
            cadence = None;
            sched.pause_at = u64::MAX;
        }
        sched.epoch += 1;
    }
    drop(expand_phase);
    if let Some(e) = lock(&sched.error).take() {
        return Err(e);
    }
    let reason = sched
        .reason
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    Ok((records, pending, reason, memo))
}

// ---------------------------------------------------------------------
// The packed expansion
// ---------------------------------------------------------------------

/// What one work-stealing run is over, fixed from its seed to its
/// result: read by the driver, the workers and the store.
pub(super) struct Run<'a> {
    pub(super) options: &'a ExploreOptions,
    /// Workers.
    pub(super) threads: usize,
    pub(super) layout: &'a Arc<PackedLayout>,
    /// A resumed run's is pre-charged with the snapshot's banked work.
    pub(super) meter: Meter,
}

/// One worker's reusable buffers. They live and die on the worker
/// thread: an allocation that outlives its thread pins that thread's
/// allocator arena, which shows up as a higher and run-to-run unstable
/// peak RSS.
#[derive(Default)]
struct Scratch {
    memo: StepMemo,
    parent: Vec<u8>,
    /// The store's: exact mode's probe bytes.
    probe: Vec<u8>,
}

/// The one packed expansion.
struct Packed<'a> {
    run: &'a Run<'a>,
    store: &'a Store<'a>,
    compiled: CompiledSystem<'a>,
}

impl Packed<'_> {
    /// Expands `parent`: charges each transition, interns each
    /// successor, pushes its edge onto `records` ([`trip`]ping `wire`
    /// after each) and every newly interned child onto `born`; returns
    /// why the budget cut it short, if it did. An `Err` stops the whole
    /// run. `records` are the worker's own: a panicking expansion's are
    /// truncated away by the scheduler, so its re-expansion records
    /// them exactly once.
    fn expand(
        &self,
        parent: Pid,
        w: &mut Scratch,
        records: &mut Vec<EdgeRecord>,
        born: &mut Vec<Pid>,
        wire: Tripwire<'_>,
    ) -> Result<Option<ExhaustReason>, CheckError> {
        let Packed {
            run,
            store,
            compiled,
        } = self;
        let Scratch {
            memo,
            parent: bytes,
            probe,
        } = w;
        let parent_fp = store.parent(parent, bytes);
        let layout = run.layout;
        compiled.for_each_packed_successor(layout, bytes, memo, |action, effects| {
            if let Some(reason) = run.meter.charge_transition() {
                return ControlFlow::Break(reason);
            }
            let child_fp = child_fingerprint(layout, bytes, parent_fp, effects);
            let write = |out: &mut Vec<u8>| append_child(layout, bytes, effects, out);
            match store.intern(child_fp, write, true, probe) {
                Ok((child, is_new)) => {
                    if is_new {
                        born.push(child);
                    }
                    records.push((parent, action as u32, child));
                    trip(wire);
                    ControlFlow::Continue(())
                }
                Err(reason) => ControlFlow::Break(reason),
            }
        })
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// The work-stealing engine over `store`; see the module docs.
pub(super) fn explore_ws(
    system: &System,
    budget: &Budget,
    run: &Run<'_>,
    seed: Seed<'_>,
    store: &Store<'_>,
) -> Result<Exploration, CheckError> {
    let sys_hash = checkpoint::system_hash(system);
    let header = || RunHeader::of(run.options, sys_hash);
    let mut ck = Checkpointer::new(budget.checkpoint.clone());
    let mut probe = Vec::new();
    // Interns a seed state's row: charged on a fresh run, meter-free on
    // a resumed one (its meter is pre-charged).
    let mut intern_seed = |row: &[u8], charged: bool| {
        let write = |out: &mut Vec<u8>| out.extend_from_slice(row);
        store.intern(run.layout.fingerprint(row), write, charged, &mut probe)
    };
    let mut init: Vec<Pid> = Vec::new();
    let mut records: Vec<Vec<EdgeRecord>> = Vec::new();
    let mut init_cut: Option<ExhaustReason> = None;
    let seeded: Vec<Pid> = match seed {
        Seed::Resume(snap) => {
            // Re-ingest the snapshot arena in canonical order — a
            // masked-fingerprint collision maps to the first occupant,
            // the first-id-wins rule that order encodes — then bank each
            // expanded state's edges as its run: the replay cannot tell
            // banked work from new work.
            let graph = snap.graph();
            let mut pid_of: Vec<Pid> = Vec::with_capacity(graph.len());
            for id in 0..graph.len() {
                let Ok((p, _)) = intern_seed(graph.row(id), false) else {
                    unreachable!("uncharged interns are never cut");
                };
                pid_of.push(p);
            }
            let mut banked: Vec<EdgeRecord> = Vec::with_capacity(graph.edge_count());
            for (id, _, _, edges) in snap.records() {
                let (Some(edges), parent) = (edges, pid_of[id]) else {
                    continue;
                };
                banked.extend(
                    edges
                        .iter()
                        .map(|e| (parent, e.action as u32, pid_of[e.target])),
                );
            }
            records.push(banked);
            init = graph.init().iter().map(|&i| pid_of[i]).collect();
            snap.frontier.iter().map(|&i| pid_of[i]).collect()
        }
        Seed::Fresh(states) => {
            // Initial states intern sequentially so their canonical
            // order is the enumeration order, as in every plan.
            let _init_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreInit);
            for s in &states {
                let row = run.layout.pack(s).expect("seeds are in their domains");
                match intern_seed(&row, true) {
                    Ok((p, true)) => init.push(p),
                    Ok((_, false)) => {}
                    Err(reason) => {
                        init_cut = Some(reason);
                        break;
                    }
                }
            }
            init.clone()
        }
    };

    // A partial init enumeration cannot be resumed soundly.
    let resumable = init_cut.is_none();
    let x = Packed {
        run,
        store,
        compiled: CompiledSystem::compile(system),
    };
    let (records, mut pending, reason, memo) = match init_cut {
        // Cut during initial-state interning: the seed is all pending
        // and no worker runs.
        Some(reason) => (records, seeded, Some(reason), MemoStats::default()),
        None => {
            let cadence = budget.checkpoint.as_ref().map(|spec| spec.cadence);
            // A periodic checkpoint at a pause: as the exhaustion
            // snapshot below, but the run then goes on.
            let at_pause = |records: &[Vec<EdgeRecord>], pending: &[Pid]| {
                let replay = store.replay(records, &init);
                let (keep, frontier) = rollback_cut(&replay, pending);
                let snap = checkpoint::capture(&replay.graph, keep, &frontier, header());
                ck.write(snap, &budget.recorder);
                ck.active()
            };
            run_workers(&x, seeded, records, cadence, at_pause)?
        }
    };
    (x.compiled).record_step_memo(memo, &budget.recorder);

    let renumber_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreRenumber);
    let replay = store.replay(&records, &init);
    // The exhaustion snapshot at the quiescent point: the rollback cut
    // lands on the deepest consistent level boundary of the *canonical*
    // graph — it is computed on replay depths, not on the
    // nondeterministic discovery order.
    let (snapshot, resume) = match reason {
        Some(_) if resumable => {
            let (keep, frontier) = rollback_cut(&replay, &pending);
            seq_exhaustion_snapshot(
                &mut ck,
                &budget.recorder,
                &replay.graph,
                keep,
                &frontier,
                header(),
            )
        }
        _ => (None, None),
    };
    // A pending pid can be unreachable in the replay (its recording
    // worker died mid-expansion and the run then stopped before the
    // re-queued parent re-recorded it); such orphans are not part of
    // the canonical graph, so they cannot be listed on its frontier.
    let mut frontier: Vec<usize> = pending.iter().filter_map(|&p| replay.id_of(p)).collect();
    frontier.sort_unstable();
    frontier.dedup();
    let graph = replay.graph;
    drop(renumber_phase);
    let outcome = match reason {
        None => Outcome::Complete,
        Some(reason) => Outcome::Exhausted {
            reason,
            frontier_size: {
                pending.sort_unstable();
                pending.dedup();
                pending.len()
            },
            stats: graph.stats(),
            resume,
        },
    };
    Ok(Exploration {
        graph,
        outcome,
        frontier,
        snapshot,
        requested_threads: None,
    })
}
