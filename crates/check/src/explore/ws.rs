//! The work-stealing scheduler ([`run_workers`] over an [`Expand`]
//! implementation) and its in-RAM engine
//! ([`Engine::WorkStealing`](super::Engine::WorkStealing)). The
//! disk-backed engine in [`super::spill_ws`] runs the same scheduler
//! over its own two [`Expand`] implementations.
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
//! * **Packed states.** States live as fixed-width packed byte runs
//!   ([`PackedLayout`]) in per-shard arenas: guards and updates
//!   evaluate against a buffer unpacked into a *reused* `Vec<Value>`
//!   ([`CompiledSystem::for_each_successor_values`]), child
//!   fingerprints come from the layout's incremental Zobrist delta,
//!   and the hot path allocates no `Value` trees at all. A system
//!   whose states do not pack never gets here: its plan settles on
//!   the sequential loop (`Plan::start`).
//! * **Lock-striped dedup index.** The index is sharded by
//!   fingerprint prefix into [`NUM_SHARDS`] independently-locked
//!   stripes, a state's provisional id naming its stripe and its
//!   index there, so interning scales with workers.
//!
//! Determinism is recovered after the fact, not maintained during the
//! run: workers record `(parent, action, child)` edges, and the
//! canonical renumbering replay ([`replay_records`]) rebuilds
//! the sequential BFS discovery order — the finished graph is
//! **byte-identical** to the sequential engine's.
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
//! and resumable by any engine. When the budget arms periodic
//! checkpoints the in-RAM engine also runs in *epochs*: every
//! `cadence` claims the workers stop at a quiescent point, the
//! coordinator snapshots the same way, and the run goes on from the
//! pending states. Unarmed runs are one epoch.

use super::index::FpIndex;
use super::seq::Seed;
use super::*;
use opentla_kernel::{PackedLayout, Value, VarId};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::MutexGuard;

// ---------------------------------------------------------------------
// The scheduler
// ---------------------------------------------------------------------

/// How one parent's expansion ended.
pub(super) enum Expanded {
    /// Every successor was interned and recorded.
    Done,
    /// The budget cut the expansion short; the parent stays pending.
    Cut(ExhaustReason),
}

/// The [`WorkerPanic`] hook, handed to an expansion the injection has
/// armed: the first recorded edge to [`trip`] it panics, once per run.
pub(super) type Tripwire<'a> = Option<&'a AtomicBool>;

/// Fires an armed [`Tripwire`]; called right after an edge is
/// recorded.
#[inline]
pub(super) fn trip(wire: Tripwire<'_>) {
    if wire.is_some_and(|fired| !fired.swap(true, Ordering::Relaxed)) {
        panic!("injected worker panic");
    }
}

/// What a worker records: one `(parent, action, child)` edge. Each
/// state is expanded to completion by exactly one worker (deque pop is
/// exclusive; a panicked expansion's records are truncated), so its
/// edges form one contiguous run in action order in exactly one
/// worker's records — what [`replay_records`] reads.
pub(super) type EdgeRecord = (Pid, u32, Pid);

/// "Expand one parent": what the work-stealing scheduler runs. An
/// implementation owns the stores; the scheduler owns claiming,
/// quiescence, budget stops, panic isolation and error propagation.
pub(super) trait Expand: Sync {
    /// One worker's reusable buffers. They live and die on the worker
    /// thread: an allocation that outlives its thread pins that
    /// thread's allocator arena, which shows up as a higher and
    /// run-to-run unstable peak RSS.
    type Scratch: Default;

    /// Expands `parent`: charges each transition, interns each
    /// successor (charging genuinely new states *before* recording
    /// them), records the edges ([`trip`]ping `wire` after each), and
    /// pushes every newly interned child onto `born`. An `Err` stops
    /// the whole run. `records` is the worker's own, handed back to the
    /// coordinator: a panicking expansion's records are truncated away
    /// by the scheduler, so its re-expansion records them exactly once.
    fn expand(
        &self,
        parent: Pid,
        scratch: &mut Self::Scratch,
        records: &mut Vec<EdgeRecord>,
        born: &mut Vec<Pid>,
        wire: Tripwire<'_>,
    ) -> Result<Expanded, CheckError>;
}

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
}

/// The worker loop: claim a parent, expand it, release it.
fn work<X: Expand>(sched: &Sched<'_>, x: &X, me: usize, tally: &mut Tally) {
    let mut scratch = X::Scratch::default();
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
        // below and `scratch` to die with this worker, and the stores'
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
                return;
            }
        };
        sched.in_flight.fetch_sub(1, Ordering::AcqRel);
        match result {
            Ok(Expanded::Done) => {}
            Ok(Expanded::Cut(reason)) => {
                sched.note_exhaustion(reason);
                tally.interrupted.push(parent);
            }
            Err(e) => {
                sched.note_error(e);
                break;
            }
        }
    }
}

/// What a work-stealing run leaves behind.
pub(super) struct WsRun {
    /// Every worker's records, epoch by epoch, after the ones the run
    /// started from (none but those when the run was cut during
    /// initial-state interning and no worker started).
    pub(super) records: Vec<Vec<EdgeRecord>>,
    /// Discovered-but-unexpanded pids once the run stops early.
    pub(super) pending: Vec<Pid>,
    pub(super) reason: Option<ExhaustReason>,
}

/// An engine's snapshot of a paused run: given every record so far and
/// the pending pids, it returns whether checkpointing is still healthy
/// (an unhealthy run stops pausing).
pub(super) type PauseSnapshot<'a> = &'a mut dyn FnMut(&[Vec<EdgeRecord>], &[Pid]) -> bool;

/// Periodic checkpoints, for [`run_workers`]: the claims between two
/// snapshots, and how to take one.
pub(super) struct Epochs<'a> {
    pub(super) cadence: u64,
    pub(super) snapshot: PauseSnapshot<'a>,
}

/// Runs `threads` workers from `seed` to quiescence or a budget stop,
/// pausing for a snapshot every `epochs.cadence` claims if asked to.
/// `records` are the ones the run starts from (a resumed snapshot's
/// banked edges). `init_cut` is the exhaustion that already ended
/// initial-state interning, if any: the seed is then all pending and
/// no worker runs.
#[allow(clippy::too_many_arguments)]
pub(super) fn run_workers<X: Expand>(
    meter: &Meter,
    threads: usize,
    fault: Option<WorkerPanic>,
    seed: Vec<Pid>,
    init_cut: Option<ExhaustReason>,
    mut records: Vec<Vec<EdgeRecord>>,
    mut epochs: Option<Epochs<'_>>,
    x: &X,
) -> Result<WsRun, CheckError> {
    if init_cut.is_some() {
        return Ok(WsRun {
            records,
            pending: seed,
            reason: init_cut,
        });
    }
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
        fault,
        fault_fired: AtomicBool::new(false),
        alive: AtomicUsize::new(threads),
    };
    let mut pending = seed;
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
        if let Some(e) = &epochs {
            sched.pause_at = *sched.claims.get_mut() + e.cadence;
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
                        };
                        let body =
                            std::panic::AssertUnwindSafe(|| work(sched, x, me, &mut tally));
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
        let Some(e) = &mut epochs else {
            unreachable!("only an armed cadence pauses a run");
        };
        if !(e.snapshot)(&records, &pending) {
            epochs = None;
            sched.pause_at = u64::MAX;
        }
        sched.epoch += 1;
    }
    drop(expand_phase);
    if let Some(e) = lock(&sched.error).take() {
        return Err(e);
    }
    Ok(WsRun {
        records,
        pending,
        reason: sched.reason.into_inner().unwrap_or_else(PoisonError::into_inner),
    })
}

/// The packed successor of `parent` under `assignments`, as a delta:
/// fills `updates` with the `(slot, new code)` pairs that differ from
/// the parent — duplicate-free because `GuardedAction` rejects
/// duplicate update targets, so old codes can be read from the parent
/// bytes — and returns the child's fingerprint, derived from the
/// parent's by the layout's incremental Zobrist delta.
pub(super) fn packed_delta(
    layout: &PackedLayout,
    parent: &[u8],
    parent_fp: u64,
    assignments: &[(VarId, Value)],
    updates: &mut Vec<(usize, u32)>,
) -> u64 {
    let mut child_fp = parent_fp;
    updates.clear();
    for (v, val) in assignments {
        let slot = v.index();
        let old = layout.read_code(parent, slot);
        let new = layout
            .code_of(slot, val)
            .expect("stepper domain-checks every update value");
        if new != old {
            child_fp ^= layout.fingerprint_delta(slot, old, new);
            updates.push((slot, new));
        }
    }
    child_fp
}

/// Appends the child `parent` ⊕ `updates` to `out`.
pub(super) fn append_packed_child(
    layout: &PackedLayout,
    parent: &[u8],
    updates: &[(usize, u32)],
    out: &mut Vec<u8>,
) {
    let start = out.len();
    out.extend_from_slice(parent);
    for &(slot, new) in updates {
        layout.write_code(&mut out[start..], slot, new);
    }
}

// ---------------------------------------------------------------------
// The in-RAM stores
// ---------------------------------------------------------------------

/// One stripe of the concurrent store: the dedup index (masked
/// fingerprint → local id) plus the append-only packed arena behind
/// it.
#[derive(Default)]
struct WsShard {
    index: FpIndex,
    /// `fps.len()` states of `stride` bytes each.
    packed: Vec<u8>,
    /// Unmasked fingerprints, indexed by local id.
    fps: Vec<u64>,
}

impl WsShard {
    fn len(&self) -> usize {
        self.fps.len()
    }
}

/// The lock-striped dedup index and arenas of one in-RAM run.
struct WsStore<'a> {
    shards: Striped<WsShard>,
    mask: u64,
    mode: VisitedMode,
    meter: &'a Meter,
}

impl WsStore<'_> {
    /// Looks up or records the packed state with fingerprint `fp`
    /// whose bytes `append` writes: the pid and whether the state was
    /// new, or the exhaustion reason if the state limit cut the
    /// insertion off. Worker and initial-state interns are `charged`:
    /// the meter is charged for a genuinely new state *before*
    /// anything is inserted. Resume seeding is not — the meter is
    /// pre-charged with the snapshot's banked totals — and a
    /// masked-fingerprint collision maps to the first occupant (the
    /// same first-id-wins rule the snapshot's canonical order
    /// encodes), so collision behavior survives the round trip.
    ///
    /// Fingerprint mode probes by fingerprint alone and runs `append`
    /// — writing directly into the shard arena — only on a vacant
    /// insert. Already-visited successors (the majority, once the
    /// frontier is deep) never build their bytes at all, the packed
    /// analogue of what [`State::fingerprint_with`] buys the
    /// sequential loop. Exact mode builds them in `scratch` first and
    /// verifies a hit against the arena's: packing is injective on
    /// in-domain states, so equal bytes are equal states, with no tree
    /// states built.
    fn intern(
        &self,
        fp: u64,
        append: impl FnOnce(&mut Vec<u8>),
        scratch: &mut Vec<u8>,
        charged: bool,
    ) -> Result<(Pid, bool), ExhaustReason> {
        let key = fp & self.mask;
        let (shard_i, mut shard) = self.shards.lock_key(key);
        let WsShard { index, packed, fps } = &mut *shard;
        let admit = || match charged.then(|| self.meter.charge_state()).flatten() {
            Some(reason) => Err(reason),
            None => Ok(fps.len()),
        };
        let (local, is_new) = match self.mode {
            VisitedMode::Fingerprint => {
                let hit = index.intern(key, |_| Ok(true), |_| Ok(None), admit)?;
                if hit.1 {
                    append(packed);
                }
                hit
            }
            VisitedMode::Exact => {
                scratch.clear();
                append(scratch);
                let stride = scratch.len();
                let same = |local: usize| Ok(packed[local * stride..][..stride] == scratch[..]);
                let hit = index.intern(key, same, |_| Ok(None), admit)?;
                if hit.1 {
                    packed.extend_from_slice(scratch);
                }
                hit
            }
        };
        if is_new {
            fps.push(fp);
        }
        Ok((pid(shard_i, local), is_new))
    }

    /// Interns a whole seed state (initial or snapshot).
    fn intern_state(
        &self,
        s: &State,
        layout: &PackedLayout,
        buf: &mut Vec<u8>,
        charged: bool,
    ) -> Result<(Pid, bool), ExhaustReason> {
        let ok = layout.pack_into(s.values(), buf);
        debug_assert!(ok, "the plan settled on packed states: every seed state packs");
        let append = |arena: &mut Vec<u8>| arena.extend_from_slice(buf);
        self.intern(s.fingerprint(), append, &mut Vec::new(), charged)
    }
}

/// One in-RAM worker's scratch buffers.
#[derive(Default)]
struct RamScratch {
    eval: EvalScratch,
    parent_buf: Vec<u8>,
    child_buf: Vec<u8>,
    values: Vec<Value>,
    updates: Vec<(usize, u32)>,
}

/// Expansion over packed arenas: copy the parent's bytes out of its
/// shard, unpack into a reused value buffer, evaluate successors,
/// derive child fingerprints incrementally, intern child bytes.
struct RamPacked<'a> {
    store: &'a WsStore<'a>,
    compiled: &'a CompiledSystem<'a>,
    layout: &'a PackedLayout,
}

impl Expand for RamPacked<'_> {
    type Scratch = RamScratch;

    fn expand(
        &self,
        parent: Pid,
        scratch: &mut RamScratch,
        edges: &mut Vec<EdgeRecord>,
        born: &mut Vec<Pid>,
        wire: Tripwire<'_>,
    ) -> Result<Expanded, CheckError> {
        let RamPacked {
            store,
            compiled,
            layout,
        } = *self;
        let RamScratch {
            eval,
            parent_buf,
            child_buf,
            values,
            updates,
        } = scratch;
        let stride = layout.stride();
        let parent_fp = {
            let shard = store.shards.lock_shard(shard_of(parent));
            let local = local_of(parent);
            parent_buf.clear();
            parent_buf.extend_from_slice(&shard.packed[local * stride..(local + 1) * stride]);
            shard.fps[local]
        };
        layout.unpack_into(parent_buf, values);
        let cut = compiled.for_each_successor_values(values, eval, |action, assignments| {
            if let Some(reason) = store.meter.charge_transition() {
                return ControlFlow::Break(reason);
            }
            let child_fp = packed_delta(layout, parent_buf, parent_fp, assignments, updates);
            let append = |out: &mut Vec<u8>| append_packed_child(layout, parent_buf, updates, out);
            match store.intern(child_fp, append, child_buf, true) {
                Ok((child, is_new)) => {
                    if is_new {
                        born.push(child);
                    }
                    edges.push((parent, action as u32, child));
                    trip(wire);
                    ControlFlow::Continue(())
                }
                Err(reason) => ControlFlow::Break(reason),
            }
        })?;
        Ok(cut.map_or(Expanded::Done, Expanded::Cut))
    }
}

/// The canonical graph of everything recorded so far: the replay with
/// its states materialized from the (quiescent) shard arenas.
fn canonical(
    shards: &[MutexGuard<'_, WsShard>],
    layout: &PackedLayout,
    threads: usize,
    all_edges: &[Vec<EdgeRecord>],
    init_pids: &[Pid],
) -> Replay {
    let arena_lens: Vec<usize> = shards.iter().map(|sh| sh.len()).collect();
    let stride = layout.stride();
    let state_of = |p: Pid| {
        let local = local_of(p);
        layout.unpack(&shards[shard_of(p)].packed[local * stride..(local + 1) * stride])
    };
    // Materialization is the renumber pass's dominant cost (one unpack
    // + tree allocation per state) and each state is independent once
    // the canonical order is fixed — fan it out.
    replay_records(&arena_lens, all_edges, init_pids, |order| {
        if threads <= 1 || order.len() < 4096 {
            return order.iter().map(|&p| state_of(p)).collect();
        }
        let chunk = order.len().div_ceil(threads);
        let mut states: Vec<State> = Vec::with_capacity(order.len());
        std::thread::scope(|scope| {
            let parts: Vec<_> = order
                .chunks(chunk)
                .map(|c| scope.spawn(|| c.iter().map(|&p| state_of(p)).collect::<Vec<_>>()))
                .collect();
            for h in parts {
                states.extend(
                    h.join()
                        .unwrap_or_else(|p| -> Vec<State> { std::panic::resume_unwind(p) }),
                );
            }
        });
        states
    })
}

/// The in-RAM work-stealing engine; see the module docs.
pub(super) fn explore_ws(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    threads: usize,
    seed: Seed<'_>,
    layout: &PackedLayout,
) -> Result<Exploration, CheckError> {
    let compiled = CompiledSystem::compile(system);
    let sys_hash = checkpoint::system_hash(system);
    let mut ck = Checkpointer::new(budget.checkpoint.clone());
    let meter = seed.meter(budget);
    let header = || RunHeader::of(options, sys_hash);
    let store = WsStore {
        shards: Striped::new(WsShard::default),
        mask: options.mask(),
        mode: options.mode,
        meter: &meter,
    };

    let mut init_pids: Vec<Pid> = Vec::new();
    let mut banked: Vec<Vec<EdgeRecord>> = Vec::new();
    let mut init_cut: Option<ExhaustReason> = None;
    let frontier_seed: Vec<Pid>;
    let mut buf: Vec<u8> = Vec::new();
    match seed {
        Seed::Resume(snap) => {
            // Resume: seed the shards with the snapshot arena in
            // canonical order (reproducing first-id-wins fingerprint
            // dedup) and turn the snapshot's edges into one
            // pre-recorded run vector — the canonical replay cannot
            // tell banked work from new work.
            let graph = snap.graph();
            let pid_of: Vec<Pid> = graph
                .states()
                .iter()
                .map(|s| match store.intern_state(s, layout, &mut buf, false) {
                    Ok((p, _)) => p,
                    Err(_) => unreachable!("uncharged interns are never cut"),
                })
                .collect();
            init_pids = graph.init().iter().map(|&i| pid_of[i]).collect();
            let mut records: Vec<EdgeRecord> = Vec::with_capacity(graph.edge_count());
            for (id, &parent) in pid_of.iter().enumerate() {
                for e in graph.edges(id) {
                    records.push((parent, e.action as u32, pid_of[e.target]));
                }
            }
            if !records.is_empty() {
                banked.push(records);
            }
            frontier_seed = snap.frontier.iter().map(|&i| pid_of[i]).collect();
        }
        Seed::Fresh(states) => {
            // Initial states intern sequentially so their canonical
            // order is the enumeration order, as in every engine.
            let _init_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreInit);
            for s in &states {
                match store.intern_state(s, layout, &mut buf, true) {
                    Ok((p, true)) => init_pids.push(p),
                    Ok((_, false)) => {}
                    Err(reason) => {
                        init_cut = Some(reason);
                        break;
                    }
                }
            }
            frontier_seed = init_pids.clone();
        }
    }

    let exhausted_in_init = init_cut.is_some();
    // A periodic checkpoint at a pause: as the exhaustion snapshot
    // below, but the run then goes on with everything it has.
    let mut checkpoint_at_pause = |records: &[Vec<EdgeRecord>], pending: &[Pid]| {
        let shards: Vec<_> = store.shards.iter_locked().collect();
        let replay = canonical(&shards, layout, threads, records, &init_pids);
        rolled_back_snapshot(&mut ck, &budget.recorder, &replay, pending, header());
        ck.active()
    };
    let epochs = budget.checkpoint.as_ref().map(|spec| Epochs {
        cadence: spec.cadence,
        snapshot: &mut checkpoint_at_pause,
    });
    let fault = options.worker_panic;
    let x = RamPacked {
        store: &store,
        compiled: &compiled,
        layout,
    };
    let WsRun {
        records,
        pending,
        reason,
    } = run_workers(&meter, threads, fault, frontier_seed, init_cut, banked, epochs, &x)?;

    let renumber_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreRenumber);
    let shards: Vec<_> = store.shards.iter_locked().collect();
    let replay = canonical(&shards, layout, threads, &records, &init_pids);

    // Exhaustion snapshot at the quiescent point: the shared rollback
    // cut lands on the deepest consistent level boundary of the
    // *canonical* graph — the cut is computed on replay depths, not on
    // the nondeterministic discovery order.
    let (snapshot, resume_token) = match reason {
        Some(_) if !exhausted_in_init => {
            rolled_back_snapshot(&mut ck, &budget.recorder, &replay, &pending, header())
        }
        _ => (None, None),
    };
    let Replay { canon, graph, .. } = replay;
    drop(renumber_phase);
    Ok(parallel_exploration(
        graph,
        reason,
        pending,
        &canon,
        snapshot,
        resume_token,
    ))
}
