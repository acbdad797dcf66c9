//! The parallel bounded-memory exploration engine
//! ([`Engine::SpillWs`](super::Engine::SpillWs)): the work-stealing
//! scheduler of [`super::ws`] composed with the disk-backed spill
//! tiers of [`super::spill`].
//!
//! * **Scheduling** is the work-stealing engine's own loop
//!   ([`ws::run_workers`]): per-worker deques (owners pop the front,
//!   thieves the back), quiescence via a shared `in_flight` counter, a
//!   stop flag for budget cuts, and per-parent panic isolation (the
//!   panicked parent is re-queued and re-expanded by a surviving
//!   worker; an edge record it had already banked is simply banked
//!   again, equal to the first, and read-back keeps one). This module
//!   supplies the [`Expand`] implementation (over packed records) it
//!   runs.
//! * **The state arena and edge records** live in two shared
//!   [`SegmentStore`]s (`wsarena-*` / `wsedges-*` segments) behind
//!   plain mutexes: every worker funnels its encoded records through
//!   the single sealed-segment writer, and a record's *arrival id* —
//!   its index in the arena store — is the provisional id the workers
//!   exchange. Parents are read back through the store's LRU cache, so
//!   the working set stays within the byte budget even while many
//!   workers expand concurrently.
//! * **The dedup index** is the sequential store's own two-tier
//!   [`SpillVisited`], one per [`NUM_SHARDS`] lock stripe: each stripe
//!   owns a hot fingerprint index and its own one-bit filter, and drains
//!   to a sorted [`FingerprintRun`](opentla_kernel::store::FingerprintRun)
//!   file once it has taken its share of the budget's hot-tier
//!   entries. Run files are globally sequenced by one shared name
//!   allocator (locked only to take the next `visited-NNNNN.run`
//!   name), so concurrent drains never collide on a path.
//!
//! **Why sharded drains preserve determinism.** A drain moves keys
//! between tiers of one stripe; it never changes *membership*. Each
//! key is inserted at most once globally (fingerprint mode) or carries
//! every colliding id (exact mode, verified against arena bytes), so a
//! lookup's answer is independent of which tier holds the key — and
//! therefore independent of when drains fired or how worker
//! interleavings assigned arrival ids. The drain threshold itself is a
//! pure function of the stripe's insert stream (drain after a fixed
//! number of inserts), not of timing. Nondeterministic
//! arrival ids are then erased by the same canonical renumbering
//! replay the in-RAM work-stealing engine uses: a completed run's
//! [`StateGraph`] is **byte-identical** to the sequential spill
//! engine's and to plain sequential exploration. (Sole exception,
//! shared with the in-RAM work-stealing engine: under *forced*
//! fingerprint collisions — a narrowed `fp_bits` in fingerprint mode —
//! first-insert-wins picks each collision class's representative by
//! arrival order, so multi-worker conflation is racy by construction;
//! exact mode verifies candidates against their arena bytes and stays
//! deterministic at every worker count.)
//!
//! Checkpointing: a checkpointing budget gets one snapshot at the
//! exhaustion point (a quiescent point), rolled back to the deepest
//! consistent level boundary of the canonical graph the replay has
//! just built in RAM — the capture every work-stealing run takes, so
//! **any** engine (sequential, spill, work-stealing, or this one, at
//! any thread count) can resume it. This engine runs the scheduler in
//! one epoch — it takes no periodic snapshots: its stores are in
//! arrival order, so a canonical snapshot means reading the whole
//! arena back into RAM, which is what the budget exists to avoid while
//! the run is still exploring (ROADMAP item 3). No snapshot references
//! a segment of this engine, so its segment directory is ephemeral
//! under every budget: created in the temp dir, removed when the run
//! returns.

use super::seq::{Seed, Stop};
use super::spill::{self, RunNames, SpillDir, SpillVisited, Tuning};
use super::ws::{self, EdgeRecord, Expand, Expanded, Tripwire, WsRun};
use super::*;
use crate::checkpoint::CheckpointError;
use opentla_kernel::store::{SegmentStore, StoreError};
use opentla_kernel::{PackedLayout, Value};
use std::ops::ControlFlow;

/// The shared disk-backed stores of one parallel spill run.
struct SpillWsStore<'a> {
    /// Lock order everywhere is stripe → {arena, run names, edges}.
    visited: Striped<SpillVisited>,
    /// The shared state arena: one sealed-segment writer every worker
    /// funnels its records through. A record's index is its arrival id.
    arena: Mutex<SegmentStore>,
    /// The shared edge-record store; one record per completed parent.
    edges: Mutex<SegmentStore>,
    mask: u64,
    mode: VisitedMode,
    meter: &'a Meter,
}

impl SpillWsStore<'_> {
    /// Appends one encoded arena record, returning its arrival id.
    /// Stores lock after stripes, so calling this while holding a
    /// stripe lock is deadlock-free.
    fn append_arena(&self, rec: &[u8]) -> Result<usize, StoreError> {
        let mut store = lock(&self.arena);
        let id = store.len() as usize;
        let info = store
            .append(rec)?
            .map(|meta| spill::seal_info("arena", &store, &meta));
        drop(store);
        if let Some(info) = info {
            spill::note_spill(self.meter, &info);
        }
        Ok(id)
    }

    /// Appends one encoded edge record (a completed parent's full
    /// successor list).
    fn append_edges(&self, rec: &[u8]) -> Result<(), StoreError> {
        let mut store = lock(&self.edges);
        let info = store
            .append(rec)?
            .map(|meta| spill::seal_info("edges", &store, &meta));
        drop(store);
        if let Some(info) = info {
            spill::note_spill(self.meter, &info);
        }
        Ok(())
    }

    /// Looks up or records the state with fingerprint `fp` whose arena
    /// record `encode` builds: `(arrival id, whether it is new)`.
    ///
    /// Fingerprint mode probes the key's stripe across both tiers, and
    /// only on an admitted full miss runs `encode` and appends the
    /// record to the arena — already-visited successors never
    /// materialize their bytes. Exact mode encodes the probe's record
    /// first and verifies every candidate under the key against its
    /// arena record before the probe state is declared visited —
    /// forced collisions give false candidates, never false answers;
    /// equality is decided on the payload bytes (packing is injective
    /// on in-domain states). The charge-then-admit order is
    /// [`SpillVisited::fp_entry`]'s.
    fn intern(
        &self,
        fp: u64,
        encode: impl FnOnce(&mut Vec<u8>),
        rec_buf: &mut Vec<u8>,
        read_buf: &mut Vec<u8>,
    ) -> Result<(usize, bool), Stop> {
        let key = fp & self.mask;
        let charge = || {
            self.meter
                .charge_state()
                .map_or(Ok(()), |reason| Err(Stop::Cut(reason)))
        };
        let (_si, mut shard) = self.visited.lock_key(key);
        let entry: Result<_, Stop> = match self.mode {
            VisitedMode::Fingerprint => shard.fp_entry(
                key,
                |_| Ok(true),
                || {
                    charge()?;
                    encode(rec_buf);
                    Ok(self.append_arena(rec_buf)?)
                },
            ),
            VisitedMode::Exact => {
                encode(rec_buf);
                // Verification happens under the stripe lock so no
                // peer can admit the same state between our probe and
                // our insert.
                let same = |cand: usize| {
                    lock(&self.arena).read(cand as u64, read_buf)?;
                    Ok(checkpoint::packed_payload(read_buf) == checkpoint::packed_payload(rec_buf))
                };
                shard.fp_entry(key, same, || {
                    charge()?;
                    Ok(self.append_arena(rec_buf)?)
                })
            }
        };
        drop(shard);
        Ok(entry?.noted(self.meter))
    }
}

/// One worker's scratch buffers.
#[derive(Default)]
struct SpillScratch {
    eval: EvalScratch,
    parent_rec: Vec<u8>,
    rec_buf: Vec<u8>,
    read_buf: Vec<u8>,
    edge_rec_buf: Vec<u8>,
    values: Vec<Value>,
    updates: Vec<(usize, u32)>,
    /// The successor list of the parent being expanded.
    edge_list: Vec<Edge>,
}

impl SpillWsStore<'_> {
    /// Reads `parent`'s arena record through the cache.
    fn read_parent(&self, parent: Pid, buf: &mut Vec<u8>) -> Result<(), CheckError> {
        lock(&self.arena)
            .read(local_of(parent) as u64, buf)
            .map_err(|e| CheckpointError::from(e).into())
    }

    /// Records one interned successor of the parent being expanded.
    fn record(
        interned: Result<(usize, bool), Stop>,
        action: usize,
        edge_list: &mut Vec<Edge>,
        born: &mut Vec<Pid>,
        wire: Tripwire<'_>,
    ) -> ControlFlow<Stop> {
        match interned {
            Ok((child, is_new)) => {
                if is_new {
                    born.push(pid(0, child));
                }
                edge_list.push(Edge {
                    action,
                    target: child,
                });
                ws::trip(wire);
                ControlFlow::Continue(())
            }
            Err(stop) => ControlFlow::Break(stop),
        }
    }

    /// Ends one parent's expansion: a completed parent banks its edge
    /// record; a cut one keeps its partial run in RAM only, as the
    /// worker's records — never in the edge store (same invariant as
    /// the sequential scheduler's `cut_edges`).
    fn settle(
        &self,
        parent: Pid,
        w: &mut SpillScratch,
        cut: &mut Vec<EdgeRecord>,
        stop: Option<Stop>,
    ) -> Result<Expanded, CheckError> {
        match stop {
            None => {
                checkpoint::encode_edge_record(local_of(parent), &w.edge_list, &mut w.edge_rec_buf);
                self.append_edges(&w.edge_rec_buf)
                    .map_err(CheckpointError::from)?;
                Ok(Expanded::Done)
            }
            Some(Stop::Cut(reason)) => {
                let run = w.edge_list.iter();
                cut.extend(run.map(|e| (parent, e.action as u32, pid(0, e.target))));
                Ok(Expanded::Cut(reason))
            }
            Some(Stop::Fail(e)) => Err(e),
        }
    }
}

/// Expansion over packed records: read the parent's record through the
/// arena cache, unpack into a reused value buffer, derive child
/// fingerprints incrementally, intern child records.
struct SpillPacked<'a> {
    store: &'a SpillWsStore<'a>,
    compiled: &'a CompiledSystem<'a>,
    layout: &'a PackedLayout,
}

impl Expand for SpillPacked<'_> {
    type Scratch = SpillScratch;

    fn expand(
        &self,
        parent: Pid,
        w: &mut SpillScratch,
        cut: &mut Vec<EdgeRecord>,
        born: &mut Vec<Pid>,
        wire: Tripwire<'_>,
    ) -> Result<Expanded, CheckError> {
        let SpillPacked {
            store,
            compiled,
            layout,
        } = *self;
        store.read_parent(parent, &mut w.parent_rec)?;
        let parent_fp = checkpoint::record_fingerprint(&w.parent_rec);
        let parent_bytes = checkpoint::packed_payload(&w.parent_rec);
        layout
            .try_unpack_into(parent_bytes, &mut w.values)
            .map_err(CheckpointError::from)?;
        w.edge_list.clear();
        let (updates, rec_buf, read_buf, edge_list) = (
            &mut w.updates,
            &mut w.rec_buf,
            &mut w.read_buf,
            &mut w.edge_list,
        );
        let stop =
            compiled.for_each_successor_values(&w.values, &mut w.eval, |action, assignments| {
                if let Some(reason) = store.meter.charge_transition() {
                    return ControlFlow::Break(Stop::Cut(reason));
                }
                let child_fp =
                    ws::packed_delta(layout, parent_bytes, parent_fp, assignments, updates);
                let encode = |buf: &mut Vec<u8>| {
                    let child = |buf: &mut Vec<u8>| {
                        ws::append_packed_child(layout, parent_bytes, updates, buf)
                    };
                    checkpoint::encode_packed_record(
                        local_of(parent),
                        action,
                        child_fp,
                        child,
                        buf,
                    );
                };
                let interned = store.intern(child_fp, encode, rec_buf, read_buf);
                SpillWsStore::record(interned, action, edge_list, born, wire)
            })?;
        store.settle(parent, w, cut, stop)
    }
}

/// The engine entry point; see the module docs.
pub(super) fn explore_spill_ws(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    threads: usize,
    mem_budget: usize,
    seed: Seed<'_>,
    layout: &PackedLayout,
) -> Result<Exploration, CheckError> {
    // Ephemeral whatever the budget's checkpoint spec says: this
    // engine's snapshots are self-contained, so nothing would read the
    // directory again.
    let ephemeral = SpillDir::new(None);
    let dir = ephemeral.path();
    let compiled = CompiledSystem::compile(system);
    let sys_hash = checkpoint::system_hash(system);
    let mut ck = Checkpointer::new(budget.checkpoint.clone());
    let t = Tuning::for_budget(mem_budget);
    let meter = seed.meter(budget);
    let header = || RunHeader::of(options, sys_hash);

    let arena_store = SegmentStore::create(dir, "wsarena", t.seg_target, t.arena_cache)
        .map_err(CheckpointError::from)?;
    let edge_store = SegmentStore::create(dir, "wsedges", t.seg_target, t.edge_cache)
        .map_err(CheckpointError::from)?;
    let names = RunNames::create(dir).map_err(CheckpointError::from)?;

    let store = SpillWsStore {
        // The budget's hot-tier and filter shares, split evenly across
        // the stripes.
        visited: Striped::new(|| {
            SpillVisited::new(
                names.clone(),
                (t.hot_cap / NUM_SHARDS).max(16),
                t.filter_bytes / NUM_SHARDS,
            )
        }),
        arena: Mutex::new(arena_store),
        edges: Mutex::new(edge_store),
        mask: options.mask(),
        mode: options.mode,
        meter: &meter,
    };

    let mut init_ids: Vec<usize> = Vec::new();
    let mut init_cut: Option<ExhaustReason> = None;
    let frontier_seed: Vec<Pid>;
    let mut rec_buf: Vec<u8> = Vec::new();
    let mut pack_scratch: Vec<u8> = Vec::new();
    match seed {
        Seed::Resume(snap) => {
            // Re-ingest the materialized snapshot in canonical order,
            // exactly as the sequential store does: arrival ids equal
            // canonical ids, the visited set is rebuilt with
            // first-id-wins inserts, and every non-frontier state gets
            // its edge record banked — the finalization read-back then
            // cannot tell banked work from new work.
            for (id, s, parent, edges) in snap.records() {
                let fp = s.fingerprint();
                let key = fp & store.mask;
                let mut stripe = store.visited.lock_key(key).1;
                stripe
                    .seed(options.mode, key, id, &meter)
                    .map_err(CheckpointError::from)?;
                drop(stripe);
                checkpoint::encode_arena_record(
                    s,
                    fp,
                    parent,
                    Some(layout),
                    &mut pack_scratch,
                    &mut rec_buf,
                );
                let got = store
                    .append_arena(&rec_buf)
                    .map_err(CheckpointError::from)?;
                debug_assert_eq!(got, id, "seeding assigns arrival ids in order");
                if let Some(edges) = edges {
                    checkpoint::encode_edge_record(id, edges, &mut rec_buf);
                    store
                        .append_edges(&rec_buf)
                        .map_err(CheckpointError::from)?;
                }
            }
            init_ids = snap.graph().init().to_vec();
            frontier_seed = snap.frontier.iter().map(|&i| pid(0, i)).collect();
        }
        Seed::Fresh(states) => {
            // Initial states intern sequentially so their canonical
            // order is the enumeration order, as in every engine.
            let _init_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreInit);
            let mut read_buf: Vec<u8> = Vec::new();
            for s in &states {
                let fp = s.fingerprint();
                let encode = |buf: &mut Vec<u8>| {
                    let packed = Some(layout);
                    checkpoint::encode_arena_record(s, fp, None, packed, &mut pack_scratch, buf);
                };
                match store.intern(fp, encode, &mut rec_buf, &mut read_buf) {
                    Ok((id, true)) => init_ids.push(id),
                    Ok((_, false)) => {}
                    Err(Stop::Cut(reason)) => {
                        init_cut = Some(reason);
                        break;
                    }
                    Err(Stop::Fail(e)) => return Err(e),
                }
            }
            frontier_seed = init_ids.iter().map(|&i| pid(0, i)).collect();
        }
    }

    let exhausted_in_init = init_cut.is_some();
    let fault = options.worker_panic;
    let x = SpillPacked {
        store: &store,
        compiled: &compiled,
        layout,
    };
    let WsRun {
        records,
        pending,
        reason,
    } = ws::run_workers(
        &meter,
        threads,
        fault,
        frontier_seed,
        init_cut,
        Vec::new(),
        None,
        &x,
    )?;
    let arena_store = store
        .arena
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let edge_store = store
        .edges
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    spill::note_cache_stats(&meter, &arena_store, &edge_store);

    let renumber_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreRenumber);
    let n = arena_store.len() as usize;
    // Decode the arena stream in arrival order (sealed segments, then
    // the unsealed tail), like the sequential engine's teardown.
    let mut arr_states: Vec<Option<State>> = Vec::with_capacity(n);
    checkpoint::for_each_record(spill::records(&arena_store), |bytes| {
        arr_states.push(Some(
            checkpoint::decode_arena_record(bytes, Some(layout))?.state,
        ));
        Ok(())
    })?;

    // Rebuild the edge-record runs: banked records (one contiguous run
    // per completed parent) plus the workers' records, the partial
    // runs of cut parents — those never wrote a record, so the runs are
    // disjoint and the replay sees each parent's edges exactly once.
    let mut recs: Vec<EdgeRecord> = Vec::with_capacity(meter.transitions_used());
    let mut banked = vec![false; n];
    checkpoint::for_each_edge_record(spill::records(&edge_store), n, |id, es| {
        // A parent re-expanded after its worker died has interned the
        // same children again: a second record repeats the first.
        if !std::mem::replace(&mut banked[id], true) {
            recs.extend(
                es.iter()
                    .map(|e| (pid(0, id), e.action as u32, pid(0, e.target))),
            );
        }
        Ok(())
    })?;
    let mut all_edges = vec![recs];
    all_edges.extend(records);
    let init_pids: Vec<Pid> = init_ids.iter().map(|&i| pid(0, i)).collect();
    let replay = replay_records(&[n], &all_edges, &init_pids, |order| {
        order
            .iter()
            .map(|&p| {
                arr_states[local_of(p)]
                    .take()
                    .expect("each arrival id appears once in the canonical order")
            })
            .collect()
    });
    // Exhaustion snapshot at the quiescent point, rolled back to the
    // deepest consistent level boundary of the canonical graph.
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
