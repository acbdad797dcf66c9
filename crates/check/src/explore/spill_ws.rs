//! The disk-backed store of the work-stealing engine
//! ([`Engine::SpillWs`](super::Engine::SpillWs)): the [`WsStore`] that
//! [`ws::explore_ws`] runs over under a memory budget, built from the
//! spill tiers of [`super::spill`]. Scheduling, expansion, seeding,
//! panic isolation and the canonical replay are the engine's; this
//! module is where the states, the dedup index and the settled edge
//! runs live.
//!
//! * **The state arena and edge records** live in two shared
//!   [`SegmentStore`]s (`wsarena-*` / `wsedges-*` segments) behind
//!   plain mutexes: every worker funnels its encoded records through
//!   the single sealed-segment writer, and a record's *arrival id* —
//!   its index in the arena store — is the provisional id the workers
//!   exchange. Parents are read back through the store's LRU cache, so
//!   the working set stays within the byte budget even while many
//!   workers expand concurrently. A fully expanded parent's run leaves
//!   the worker's records as one edge record; a parent re-expanded
//!   after its worker panicked may bank a second, equal one, and the
//!   read-back keeps one.
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
//! therefore of when drains fired or how worker interleavings assigned
//! arrival ids. The drain threshold itself is a pure function of the
//! stripe's insert stream, not of timing. Arrival ids are then erased
//! by the engine's canonical replay: a completed run's [`StateGraph`]
//! is **byte-identical** to the sequential engines' (with the one
//! caveat of both parallel plans: under *forced* fingerprint collisions
//! in fingerprint mode, which member of a collision class survives
//! depends on arrival order at two or more workers).
//!
//! Checkpointing: one snapshot at the exhaustion point, taken from the
//! canonical graph the final read-back builds in RAM, so any plan can
//! resume it. The run takes no periodic snapshots (`IN_RAM` is false):
//! its stores are in arrival order, so a canonical snapshot means
//! reading the whole arena back into RAM, which is what the budget
//! exists to avoid while the run is still exploring (ROADMAP item 3).
//! No snapshot references a segment of this store, so its directory is
//! ephemeral under every budget: created in the temp dir, removed when
//! the store is dropped.

use super::seq::Stop;
use super::spill::{self, RunNames, SpillDir, SpillVisited, Tuning};
use super::ws::{EdgeRecord, Run, WsStore};
use super::*;
use crate::checkpoint::CheckpointError;
use opentla_kernel::store::{SegmentStore, StoreError};

/// The shared disk-backed stores of one parallel spill run.
pub(super) struct SpillWsStore<'a> {
    /// Lock order everywhere is stripe → {arena, run names, edges}.
    visited: Striped<SpillVisited>,
    /// The shared state arena: one sealed-segment writer every worker
    /// funnels its records through. A record's index is its arrival id.
    arena: Mutex<SegmentStore>,
    /// The shared edge-record store; one record per completed parent.
    edges: Mutex<SegmentStore>,
    mask: u64,
    run: &'a Run<'a>,
    /// Declared last, so removed after the stores in it are closed.
    _dir: SpillDir,
}

/// One worker's buffers.
#[derive(Default)]
pub(super) struct Buffers {
    /// The record being encoded.
    rec: Vec<u8>,
    /// A record read back: a parent, or an exact-mode candidate.
    read: Vec<u8>,
    edges: Vec<Edge>,
}

impl<'a> SpillWsStore<'a> {
    /// The stores a `mem_budget` buys, in a fresh temp directory:
    /// whatever the budget's checkpoint spec says, nothing would read
    /// it again.
    pub(super) fn create(run: &'a Run<'a>, mem_budget: usize) -> Result<Self, CheckError> {
        let dir = SpillDir::new(None);
        let t = Tuning::for_budget(mem_budget);
        let open = |name, cache| SegmentStore::create(dir.path(), name, t.seg_target, cache);
        let arena = open("wsarena", t.arena_cache).map_err(CheckpointError::from)?;
        let edges = open("wsedges", t.edge_cache).map_err(CheckpointError::from)?;
        let names = RunNames::create(dir.path()).map_err(CheckpointError::from)?;
        Ok(SpillWsStore {
            // The budget's hot-tier and filter shares, split evenly
            // across the stripes.
            visited: Striped::new(|| {
                SpillVisited::new(
                    names.clone(),
                    (t.hot_cap / NUM_SHARDS).max(16),
                    t.filter_bytes / NUM_SHARDS,
                )
            }),
            arena: Mutex::new(arena),
            edges: Mutex::new(edges),
            mask: run.options.mask(),
            run,
            _dir: dir,
        })
    }

    /// Appends one encoded record to `store`, the `tier` named in a
    /// seal's `spill` event, returning its index there. Stores lock
    /// after stripes, so calling this while holding a stripe lock is
    /// deadlock-free.
    fn append(
        &self,
        tier: &'static str,
        store: &Mutex<SegmentStore>,
        rec: &[u8],
    ) -> Result<usize, StoreError> {
        let mut store = lock(store);
        let id = store.len() as usize;
        let info = store
            .append(rec)?
            .map(|meta| spill::seal_info(tier, &store, &meta));
        drop(store);
        if let Some(info) = info {
            spill::note_spill(&self.run.meter, &info);
        }
        Ok(id)
    }
}

impl WsStore for SpillWsStore<'_> {
    type Scratch = Buffers;
    const IN_RAM: bool = false;

    /// Reads `parent`'s arena record through the cache.
    fn parent(&self, parent: Pid, bytes: &mut Vec<u8>, w: &mut Buffers) -> Result<u64, CheckError> {
        lock(&self.arena)
            .read(local_of(parent) as u64, &mut w.read)
            .map_err(CheckpointError::from)?;
        bytes.clear();
        bytes.extend_from_slice(checkpoint::packed_payload(&w.read));
        Ok(checkpoint::record_fingerprint(&w.read))
    }

    /// Fingerprint mode probes the key's stripe across both tiers, and
    /// only on an admitted full miss encodes the record and appends it
    /// to the arena. Exact mode encodes first and verifies every
    /// candidate against its arena record, under the stripe lock so no
    /// peer can admit the same state between the probe and the insert;
    /// forced collisions give false candidates, never false answers.
    /// The charge-then-admit order is [`SpillVisited::fp_entry`]'s.
    fn intern(
        &self,
        fp: u64,
        write: impl FnOnce(&mut Vec<u8>),
        w: &mut Buffers,
    ) -> Result<(Pid, bool), Stop> {
        let (key, meter) = (fp & self.mask, &self.run.meter);
        let charge = || meter.charge_state().map_or(Ok(()), |r| Err(Stop::Cut(r)));
        let Buffers { rec, read, .. } = w;
        let (_, mut stripe) = self.visited.lock_key(key);
        let entry: Result<_, Stop> = match self.run.options.mode {
            VisitedMode::Fingerprint => stripe.fp_entry(
                key,
                |_| Ok(true),
                || {
                    charge()?;
                    checkpoint::encode_packed_record(fp, write, rec);
                    Ok(self.append("arena", &self.arena, rec)?)
                },
            ),
            VisitedMode::Exact => {
                checkpoint::encode_packed_record(fp, write, rec);
                let same = |cand: usize| {
                    lock(&self.arena).read(cand as u64, read)?;
                    Ok(checkpoint::packed_payload(read) == checkpoint::packed_payload(rec))
                };
                stripe.fp_entry(key, same, || {
                    charge()?;
                    Ok(self.append("arena", &self.arena, rec)?)
                })
            }
        };
        drop(stripe);
        let (id, is_new) = entry?.noted(meter);
        Ok((pid(0, id), is_new))
    }

    /// The run leaves the records as one edge record.
    fn settle(
        &self,
        parent: Pid,
        records: &mut Vec<EdgeRecord>,
        mark: usize,
        w: &mut Buffers,
    ) -> Result<(), CheckError> {
        w.edges.clear();
        w.edges
            .extend(records.drain(mark..).map(|(_, action, child)| Edge {
                action: action as usize,
                target: local_of(child),
            }));
        checkpoint::encode_edge_record(local_of(parent), &w.edges, &mut w.rec);
        self.append("edges", &self.edges, &w.rec)
            .map_err(CheckpointError::from)?;
        Ok(())
    }

    /// Arrival ids equal canonical ids, and the visited set is rebuilt
    /// with the sequential store's own first-id-wins seeding.
    fn reseed(&self, id: usize, fp: u64, bytes: &[u8], w: &mut Buffers) -> Result<Pid, CheckError> {
        let (key, mode) = (fp & self.mask, self.run.options.mode);
        let seeded = self
            .visited
            .lock_key(key)
            .1
            .seed(mode, key, id, &self.run.meter);
        seeded.map_err(CheckpointError::from)?;
        let payload = |out: &mut Vec<u8>| out.extend_from_slice(bytes);
        checkpoint::encode_packed_record(fp, payload, &mut w.rec);
        let got = self
            .append("arena", &self.arena, &w.rec)
            .map_err(CheckpointError::from)?;
        debug_assert_eq!(got, id, "re-seeding assigns arrival ids in order");
        Ok(pid(0, id))
    }

    /// The finish read-back — the run's last read of its stores, so it
    /// reports their cache first: every arena record decoded in
    /// arrival order, and the banked edge records replayed with the
    /// workers' records, the partial runs of cut parents (which never
    /// wrote one, so the replay sees each parent's edges once).
    fn replay(&self, records: &[Vec<EdgeRecord>], init: &[Pid]) -> Result<Replay, CheckError> {
        let (arena, edges) = (lock(&self.arena), lock(&self.edges));
        spill::note_cache_stats(&self.run.meter, &arena, &edges);
        let n = arena.len() as usize;
        let mut states: Vec<Option<State>> = Vec::with_capacity(n);
        checkpoint::for_each_record(spill::records(&arena), |bytes| {
            let rec = checkpoint::decode_arena_record(bytes, Some(self.run.layout))?;
            states.push(Some(rec.state));
            Ok(())
        })?;
        let mut banked: Vec<EdgeRecord> = Vec::with_capacity(self.run.meter.transitions_used());
        let mut seen = vec![false; n];
        checkpoint::for_each_edge_record(spill::records(&edges), n, |id, es| {
            if !std::mem::replace(&mut seen[id], true) {
                banked.extend(
                    es.iter()
                        .map(|e| (pid(0, id), e.action as u32, pid(0, e.target))),
                );
            }
            Ok(())
        })?;
        let mut all = vec![banked];
        all.extend_from_slice(records);
        Ok(replay_records(&[n], &all, init, |order| {
            order
                .iter()
                .map(|&p| {
                    states[local_of(p)]
                        .take()
                        .expect("each arrival id appears once in the canonical order")
                })
                .collect()
        }))
    }
}
