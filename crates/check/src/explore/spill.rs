//! The bounded-memory store of the sequential scheduler.
//!
//! [`SpillStore`] runs under the same loop ([`super::seq::explore_seq`])
//! as the in-RAM store — same BFS discovery order, charge discipline,
//! and outcomes — but the working set is held to an approximate byte
//! budget:
//!
//! * the **state arena** and **edge lists** are append-only
//!   [`SegmentStore`]s — sealed segments live on disk and are read
//!   back through an LRU cache; only the unsealed tail (and, until
//!   the first seal, a resident mirror of the arena) stays in RAM;
//! * the **dedup index** is two-tier: the hot in-RAM [`FpIndex`]
//!   that, when full, drains into sorted on-disk
//!   [`FingerprintRun`]s probed behind a one-bit in-RAM filter.
//!
//! Soundness of the two-tier index is the same first-id-wins
//! argument the resume path already relies on: a fingerprint key is
//! inserted at most once globally (hot and spilled tiers hold
//! disjoint keys), so lookups across both tiers answer exactly what
//! one big map would. In [`VisitedMode::Exact`] the fingerprint is
//! only a candidate index — every hit, in either tier, is verified by
//! comparing the probe state against the arena record read back
//! through the cache, so collisions never conflate states.
//!
//! Checkpoints *reference* the sealed segments by name and checksum
//! and embed only the unsealed tails (a [`Manifest`] over this store's
//! own files) — a periodic snapshot costs O(hot tier), not O(state
//! space). Resume materializes the snapshot first (in
//! `explore_observed`) and re-ingests it here; a crash
//! *during* that re-ingest can invalidate the old snapshot's segment
//! references, which surfaces as a typed I/O error on the next
//! resume, never a wrong graph.

use super::index::FpIndex;
use super::seq::{self, Finished, Interned, Seed, SeqStore, Stop};
use super::{seq_exhaustion_snapshot, Edge, ExploreOptions, Exploration, StateGraph};
use crate::budget::{Budget, Meter};
use crate::checkpoint::{
    self, Body, CheckpointError, Checkpointer, Manifest, RunHeader, Snapshot,
};
use crate::obs::Event;
use crate::{CheckError, System, VisitedMode};
use opentla_kernel::store::{FingerprintRun, SegmentMeta, SegmentStore, StoreError};
use crate::sync::lock;
use opentla_kernel::{PackedLayout, State};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// How one memory budget splits across the engine's tiers (shared
/// with the parallel spill engine, which divides the visited-tier
/// shares across its shards).
pub(super) struct Tuning {
    /// Seal threshold for both segment stores.
    pub(super) seg_target: usize,
    /// LRU cache budget for the arena store.
    pub(super) arena_cache: usize,
    /// LRU cache budget for the edge store.
    pub(super) edge_cache: usize,
    /// Hot visited-tier capacity, in entries.
    pub(super) hot_cap: usize,
    /// In-RAM filter size in front of the spilled runs.
    pub(super) filter_bytes: usize,
}

impl Tuning {
    pub(super) fn for_budget(m: usize) -> Tuning {
        let seg_target = (m / 8).clamp(1024, 8 << 20);
        Tuning {
            seg_target,
            arena_cache: (m / 4).max(seg_target),
            edge_cache: (m / 8).max(seg_target),
            hot_cap: (m / 128).max(64),
            filter_bytes: (m / 16).clamp(4 << 10, 256 << 20),
        }
    }
}

/// A one-bit-per-key filter in front of the spilled fingerprint runs:
/// a clear bit proves the key was never spilled, so the common miss
/// costs no disk probe. Power-of-two sized, indexed by the top bits of
/// a Fibonacci-multiplied key.
pub(super) struct Filter {
    words: Vec<u64>,
    shift: u32,
}

impl Filter {
    pub(super) fn new(bytes: usize) -> Filter {
        let bits = (bytes.max(1024) * 8).next_power_of_two();
        Filter {
            words: vec![0; bits / 64],
            shift: 64 - bits.trailing_zeros(),
        }
    }

    fn bit(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    pub(super) fn set(&mut self, key: u64) {
        let bit = self.bit(key);
        self.words[bit / 64] |= 1 << (bit % 64);
    }

    pub(super) fn maybe(&self, key: u64) -> bool {
        let bit = self.bit(key);
        self.words[bit / 64] & (1 << (bit % 64)) != 0
    }
}

/// One sealed spill emission, for meter accounting and the `spill`
/// observability event.
pub(super) struct SpillInfo {
    pub(super) tier: &'static str,
    pub(super) seq: u64,
    pub(super) records: u64,
    pub(super) bytes: u64,
}

pub(super) fn note_spill(meter: &Meter, info: &SpillInfo) {
    meter.add_spilled_bytes(info.bytes);
    let rec = meter.recorder();
    if rec.enabled() {
        rec.record(&Event::Spill {
            tier: info.tier,
            seq: info.seq,
            records: info.records,
            bytes: info.bytes,
            total_spilled_bytes: meter.spilled_bytes(),
        });
    }
}

pub(super) fn seal_info(tier: &'static str, store: &SegmentStore, meta: &SegmentMeta) -> SpillInfo {
    SpillInfo {
        tier,
        seq: store.sealed().len() as u64 - 1,
        records: meta.records,
        bytes: meta.file_len(),
    }
}

/// Allocates the `visited-NNNNN.run` names of one segment directory.
/// One allocator sits behind every two-tier set of a run — the single
/// set of the sequential store, all stripes of the parallel one — so
/// concurrent drains never collide on a path; its lock is held only to
/// take the next name, never across the write.
pub(super) struct RunNames {
    dir: PathBuf,
    seq: u64,
}

impl RunNames {
    /// Removes stale `visited-*.run` files an earlier process left in
    /// `dir` (mirroring `SegmentStore::create`'s stale-segment
    /// cleanup) and starts the sequence at 0.
    pub(super) fn create(dir: &Path) -> Result<Arc<Mutex<RunNames>>, StoreError> {
        let io = |path: &Path, e: std::io::Error| StoreError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        };
        for entry in std::fs::read_dir(dir).map_err(|e| io(dir, e))? {
            let entry = entry.map_err(|e| io(dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("visited-") && name.ends_with(".run") {
                let path = entry.path();
                std::fs::remove_file(&path).map_err(|e| io(&path, e))?;
            }
        }
        Ok(Arc::new(Mutex::new(RunNames {
            dir: dir.to_path_buf(),
            seq: 0,
        })))
    }
}

/// The two-tier dedup index. In fingerprint mode each (masked) key is
/// inserted at most once, so the tiers hold disjoint keys and a
/// lookup's first answer is *the* answer. In exact mode a key carries
/// the id of every state that genuinely collides under it, spread over
/// the tiers by the drains between their inserts; the caller's `same`
/// verifies candidates against the arena.
///
/// A drain moves keys between tiers; it never changes *membership*, so
/// a lookup's answer is independent of when drains fired. The drain
/// threshold is itself a pure function of the insert stream (drain
/// after `hot_cap` inserts), not of timing.
pub(super) struct SpillVisited {
    hot: FpIndex,
    /// Ids recorded since the last drain.
    hot_len: usize,
    hot_cap: usize,
    /// Created at the first drain — a set that never spills never pays
    /// for zeroing (or walking) the filter's bit array.
    filter: Option<Filter>,
    filter_bytes: usize,
    runs: Vec<FingerprintRun>,
    names: Arc<Mutex<RunNames>>,
    probe: Vec<u64>,
}

/// What [`SpillVisited::fp_entry`] did with the key.
pub(super) enum FpEntry {
    /// The state was already recorded, in either tier, under this id.
    Found(usize),
    /// A full miss, admitted and recorded under this id; carries the
    /// accounting of the drain the insert triggered, if any.
    Inserted(usize, Option<SpillInfo>),
}

impl FpEntry {
    /// `(id, whether it is new)`, the drain an insert triggered
    /// reported to `meter`.
    pub(super) fn noted(self, meter: &Meter) -> (usize, bool) {
        match self {
            FpEntry::Found(id) => (id, false),
            FpEntry::Inserted(id, spilled) => {
                if let Some(info) = spilled {
                    note_spill(meter, &info);
                }
                (id, true)
            }
        }
    }
}

impl SpillVisited {
    pub(super) fn new(
        names: Arc<Mutex<RunNames>>,
        hot_cap: usize,
        filter_bytes: usize,
    ) -> SpillVisited {
        SpillVisited {
            hot: FpIndex::default(),
            hot_len: 0,
            hot_cap,
            filter: None,
            filter_bytes,
            runs: Vec::new(),
            names,
            probe: Vec::new(),
        }
    }

    /// Resume seeding, meter-free, for both spill engines: records
    /// `id` for a snapshot state with masked fingerprint `key` under
    /// the run's insertion discipline — first-id-wins in fingerprint
    /// mode, every id in exact mode (a snapshot lists each state once).
    pub(super) fn seed(
        &mut self,
        mode: VisitedMode,
        key: u64,
        id: usize,
        meter: &Meter,
    ) -> Result<(), StoreError> {
        let trust = mode == VisitedMode::Fingerprint;
        self.fp_entry(key, |_| Ok::<_, StoreError>(trust), || Ok(id))?.noted(meter);
        Ok(())
    }

    /// Lookup-or-insert across both tiers — the engines' innermost
    /// dedup operation; in fingerprint mode (`same` trusts every hit)
    /// it is one hot-tier hash probe, cost-matched to the in-RAM
    /// store's. `same(id)` says whether the probe state is the one
    /// recorded under `id`. On a full miss `admit` decides admission:
    /// `Ok(id)` (the meter charged, the id allocated) records `id`
    /// under `key`; `Err` leaves the set untouched — the budget cut
    /// happens *before* the insert, exactly like the in-RAM store.
    #[inline]
    pub(super) fn fp_entry<E: From<StoreError>, S: FnMut(usize) -> Result<bool, E>>(
        &mut self,
        key: u64,
        same: S,
        admit: impl FnOnce() -> Result<usize, E>,
    ) -> Result<FpEntry, E> {
        let SpillVisited {
            hot,
            runs,
            filter,
            probe,
            ..
        } = self;
        let spilled = |same: &mut S| {
            if !runs.is_empty() && filter.as_ref().is_some_and(|f| f.maybe(key)) {
                probe.clear();
                for run in runs {
                    let seen = probe.len();
                    run.lookup(key, probe)?;
                    for &id in &probe[seen..] {
                        if same(id as usize)? {
                            return Ok(Some(id as usize));
                        }
                    }
                }
            }
            Ok(None)
        };
        match hot.intern(key, same, spilled, admit)? {
            (id, false) => Ok(FpEntry::Found(id)),
            (id, true) => {
                self.hot_len += 1;
                let drained = self.hot_len >= self.hot_cap;
                Ok(FpEntry::Inserted(id, drained.then(|| self.drain_hot()).transpose()?))
            }
        }
    }

    /// Drains the hot tier into a sorted run file, setting the filter
    /// bits of every drained key.
    fn drain_hot(&mut self) -> Result<SpillInfo, StoreError> {
        let filter = self
            .filter
            .get_or_insert_with(|| Filter::new(self.filter_bytes));
        let mut entries: Vec<(u64, u64)> =
            self.hot.drain().map(|(key, id)| (key, id as u64)).collect();
        for &(key, _) in &entries {
            filter.set(key);
        }
        entries.sort_unstable();
        self.hot_len = 0;
        let (seq, path) = {
            let mut names = lock(&self.names);
            let seq = names.seq;
            names.seq += 1;
            (seq, names.dir.join(format!("visited-{seq:05}.run")))
        };
        let run = FingerprintRun::write(&path, &entries)?;
        let info = SpillInfo {
            tier: "visited",
            seq,
            records: entries.len() as u64,
            bytes: run.bytes(),
        };
        self.runs.push(run);
        Ok(info)
    }
}

/// The disk-backed state arena, with a resident mirror kept until the
/// first seal: runs whose packed arena never outgrows one segment
/// (including every run under the unconstrained default budget) read
/// parents straight from RAM and never touch the decode path.
///
/// While the mirror is alive and the layout is packed, record
/// *encoding* is deferred entirely: packed records are fixed-width, so
/// the store's byte size is `count × (prefix + record)` without
/// materializing a single byte. The bytes are produced — identically,
/// since encoding depends only on `(state, fp, parent)` — the first
/// time anything actually needs them: a checkpoint snapshot, or the
/// mirror outgrowing one segment. Runs under the unconstrained default
/// budget therefore never pay the per-state packing cost at all.
struct Arena {
    store: SegmentStore,
    resident: Option<Resident>,
    layout: Option<PackedLayout>,
    /// `Some(bytes-per-record-incl-prefix)` while encoding is deferred;
    /// implies the mirror holds records the store has not seen yet.
    deferred_cost: Option<usize>,
    seg_target: usize,
    /// Records pushed so far (the store lags this while deferred).
    count: usize,
    pack_scratch: Vec<u8>,
    rec_buf: Vec<u8>,
    read_buf: Vec<u8>,
}

/// The arena's states and BFS tree, and each state's fingerprint.
struct Resident {
    graph: StateGraph,
    fps: Vec<u64>,
}

impl Resident {
    fn push(
        &mut self,
        state: &State,
        fp: u64,
        parent: Option<(usize, usize)>,
    ) -> Result<(), CheckpointError> {
        self.fps.push(fp);
        self.graph.push_state(state.clone(), parent).map(drop)
    }
}

impl Arena {
    fn create(layout: Option<PackedLayout>, dir: &Path, t: &Tuning) -> Result<Arena, StoreError> {
        let deferred_cost = layout.as_ref().map(checkpoint::packed_record_bytes);
        Ok(Arena {
            store: SegmentStore::create(dir, "arena", t.seg_target, t.arena_cache)?,
            resident: Some(Resident {
                graph: StateGraph::with_capacity(0),
                fps: Vec::new(),
            }),
            layout,
            deferred_cost,
            seg_target: t.seg_target,
            count: 0,
            pack_scratch: Vec::new(),
            rec_buf: Vec::new(),
            read_buf: Vec::new(),
        })
    }

    fn len(&self) -> usize {
        self.count
    }

    fn push(
        &mut self,
        state: &State,
        fp: u64,
        parent: Option<(usize, usize)>,
        meter: &Meter,
    ) -> Result<(), CheckpointError> {
        self.count += 1;
        if let Some(cost) = self.deferred_cost {
            let r = self.resident.as_mut().expect("deferred implies resident");
            r.push(state, fp, parent)?;
            if self.count * cost >= self.seg_target {
                // The mirror no longer fits one segment: materialize
                // the byte stream and run eagerly from here on.
                self.flush_deferred(meter)?;
            }
            return Ok(());
        }
        checkpoint::encode_arena_record(
            state,
            fp,
            parent,
            self.layout.as_ref(),
            &mut self.pack_scratch,
            &mut self.rec_buf,
        );
        if let Some(meta) = self.store.append(&self.rec_buf)? {
            note_spill(meter, &seal_info("arena", &self.store, &meta));
            // First seal: the arena no longer fits the budget, so the
            // mirror goes too. Reads fall back to the store.
            self.resident = None;
        } else if let Some(r) = &mut self.resident {
            r.push(state, fp, parent)?;
        }
        Ok(())
    }

    /// Encodes and appends every deferred record, producing exactly the
    /// byte stream (and so exactly the segment boundaries) an eager run
    /// would have. No-op when encoding is not deferred.
    fn flush_deferred(&mut self, meter: &Meter) -> Result<(), StoreError> {
        if self.deferred_cost.take().is_none() {
            return Ok(());
        }
        let mut sealed_any = false;
        if let Some(r) = &self.resident {
            for i in 0..r.graph.len() {
                checkpoint::encode_arena_record(
                    r.graph.state(i),
                    r.fps[i],
                    r.graph.parent(i),
                    self.layout.as_ref(),
                    &mut self.pack_scratch,
                    &mut self.rec_buf,
                );
                if let Some(meta) = self.store.append(&self.rec_buf)? {
                    note_spill(meter, &seal_info("arena", &self.store, &meta));
                    sealed_any = true;
                }
            }
        }
        if sealed_any {
            self.resident = None;
        }
        Ok(())
    }

    /// The state and (unmasked) fingerprint of record `id`.
    fn entry(&mut self, id: usize) -> Result<(State, u64), CheckpointError> {
        if let Some(r) = &self.resident {
            return Ok((r.graph.state(id).clone(), r.fps[id]));
        }
        self.store.read(id as u64, &mut self.read_buf)?;
        let rec = checkpoint::decode_arena_record(&self.read_buf, self.layout.as_ref())?;
        Ok((rec.state, rec.fp))
    }

    /// Whether arena record `id` holds exactly `state` — the exact-mode
    /// collision check, reading through the cache only when the
    /// resident mirror is gone.
    fn holds(&mut self, id: usize, state: &State) -> Result<bool, CheckpointError> {
        if let Some(r) = &self.resident {
            return Ok(r.graph.state(id) == state);
        }
        self.entry(id).map(|(s, _)| &s == state)
    }

    /// Tears the arena down into the finished graph's states and BFS
    /// tree, in id order. With the mirror alive this is a move;
    /// otherwise every record is decoded.
    fn into_graph(self) -> Result<StateGraph, CheckpointError> {
        if let Some(r) = self.resident {
            return Ok(r.graph);
        }
        let mut graph = StateGraph::with_capacity(self.len());
        checkpoint::for_each_record(records(&self.store), |bytes| {
            let rec = checkpoint::decode_arena_record(bytes, self.layout.as_ref())?;
            graph.push_state(rec.state, rec.parent).map(drop)
        })?;
        Ok(graph)
    }
}

/// The edge store plus a deferred mirror, the same trick the arena
/// plays: while every record still fits one segment, records live in
/// RAM and the encoded byte stream — identical, since encoding depends
/// only on the `(id, edges)` pairs — is produced the first time a
/// snapshot or the size budget demands it. A completed in-budget run
/// sets its final edge lists from the mirror, never decoding a record.
struct EdgeSink {
    store: SegmentStore,
    mirror: Option<EdgeMirror>,
    mirror_bytes: usize,
    seg_target: usize,
    rec_buf: Vec<u8>,
}

/// Edge records in recorded order: `(id, successor count)` runs over
/// one flat list of the successors.
#[derive(Default)]
struct EdgeMirror {
    runs: Vec<(u32, u32)>,
    flat: Vec<Edge>,
}

impl EdgeMirror {
    fn records(&self) -> impl Iterator<Item = (usize, &[Edge])> {
        let mut rest = &self.flat[..];
        self.runs.iter().map(move |&(id, len)| {
            let (edges, tail) = rest.split_at(len as usize);
            rest = tail;
            (id as usize, edges)
        })
    }
}

impl EdgeSink {
    fn create(dir: &Path, t: &Tuning) -> Result<EdgeSink, StoreError> {
        Ok(EdgeSink {
            store: SegmentStore::create(dir, "edges", t.seg_target, t.edge_cache)?,
            mirror: Some(EdgeMirror::default()),
            mirror_bytes: 0,
            seg_target: t.seg_target,
            rec_buf: Vec::new(),
        })
    }

    fn push(
        &mut self,
        id: usize,
        edges: &[Edge],
        meter: &Meter,
    ) -> Result<(), StoreError> {
        if let Some(m) = &mut self.mirror {
            self.mirror_bytes += checkpoint::edge_record_bytes(edges.len());
            m.runs.push((id as u32, edges.len() as u32));
            m.flat.extend_from_slice(edges);
            if self.mirror_bytes >= self.seg_target {
                self.flush_deferred(meter)?;
            }
            return Ok(());
        }
        checkpoint::encode_edge_record(id, edges, &mut self.rec_buf);
        if let Some(meta) = self.store.append(&self.rec_buf)? {
            note_spill(meter, &seal_info("edges", &self.store, &meta));
        }
        Ok(())
    }

    /// Encodes and appends every mirrored record in recorded order —
    /// exactly the byte stream an eager run would have produced. No-op
    /// when the mirror is already gone.
    fn flush_deferred(&mut self, meter: &Meter) -> Result<(), StoreError> {
        let Some(m) = self.mirror.take() else {
            return Ok(());
        };
        for (id, es) in m.records() {
            checkpoint::encode_edge_record(id, es, &mut self.rec_buf);
            if let Some(meta) = self.store.append(&self.rec_buf)? {
                note_spill(meter, &seal_info("edges", &self.store, &meta));
            }
        }
        Ok(())
    }

    /// Tears the sink down onto `graph`, which holds the arena's
    /// states: straight from the mirror while it survived, a full
    /// record decode otherwise.
    fn fill(self, graph: &mut StateGraph) -> Result<(), CheckpointError> {
        if let Some(m) = self.mirror {
            for (id, es) in m.records() {
                graph.set_edges(id, es);
            }
            return Ok(());
        }
        checkpoint::for_each_edge_record(records(&self.store), graph.len(), |id, es| {
            graph.set_edges(id, es);
            Ok(())
        })
    }
}

/// A store's records as [`checkpoint::for_each_record`] reads them
/// back.
pub(super) fn records(
    store: &SegmentStore,
) -> (&Path, &[SegmentMeta], impl Iterator<Item = &[u8]>) {
    (store.dir(), store.sealed(), store.hot_records())
}

/// Where the segment files live: next to the checkpoint when one is
/// configured (so a resumed process finds them), otherwise a
/// process-private temp directory removed when the run returns.
pub(super) fn spill_dir(budget: &Budget) -> (PathBuf, bool) {
    use std::sync::atomic::{AtomicU64, Ordering};
    if let Some(spec) = &budget.checkpoint {
        return (PathBuf::from(format!("{}.segs", spec.path.display())), false);
    }
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    (
        std::env::temp_dir().join(format!("opentla-spill-{}-{n}", std::process::id())),
        true,
    )
}

/// Emits the run's segment-cache totals, for both spill engines.
pub(super) fn note_cache_stats(meter: &Meter, arena: &SegmentStore, edges: &SegmentStore) {
    let rec = meter.recorder();
    if rec.enabled() {
        let a = arena.cache_stats();
        let e = edges.cache_stats();
        rec.record(&Event::CacheStats {
            hits: a.hits + e.hits,
            misses: a.misses + e.misses,
            evictions: a.evictions + e.evictions,
            resident_bytes: a.resident_bytes + e.resident_bytes,
            spilled_bytes: meter.spilled_bytes(),
        });
    }
}

/// Runs the sequential scheduler over a [`SpillStore`] tuned to
/// `mem_budget` bytes, and cleans up an ephemeral segment directory
/// afterwards. Arena records pack under `layout` where they can; with
/// `None`, or for a state outside its declared domain, a record
/// carries the state in the general codec encoding.
pub(super) fn explore_spill(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    mem_budget: usize,
    seed: Seed<'_>,
    layout: Option<PackedLayout>,
) -> Result<Exploration, CheckError> {
    let (dir, ephemeral) = spill_dir(budget);
    let meter = seed.meter(budget);
    let result = SpillStore::create(system, options, layout, &dir, mem_budget, &meter)
        .map_err(|e| CheckpointError::from(e).into())
        .and_then(|store| seq::explore_seq(system, budget, &meter, seed, store));
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    result
}

/// The disk-backed [`SeqStore`]: arena and edge records in segment
/// stores, the dedup index in two tiers. In [`VisitedMode::Exact`] a
/// fingerprint hit is verified against the arena record read back —
/// collision-free like the in-RAM store, bounded like this one.
struct SpillStore<'a> {
    arena: Arena,
    edges: EdgeSink,
    visited: SpillVisited,
    init: Vec<usize>,
    /// Transitions banked in the edge store (a snapshot's total).
    transitions: u64,
    mask: u64,
    options: &'a ExploreOptions,
    sys_hash: u64,
    meter: &'a Meter,
}

impl<'a> SpillStore<'a> {
    fn create(
        system: &System,
        options: &'a ExploreOptions,
        layout: Option<PackedLayout>,
        dir: &Path,
        mem_budget: usize,
        meter: &'a Meter,
    ) -> Result<SpillStore<'a>, StoreError> {
        let t = Tuning::for_budget(mem_budget);
        Ok(SpillStore {
            arena: Arena::create(layout, dir, &t)?,
            edges: EdgeSink::create(dir, &t)?,
            visited: SpillVisited::new(RunNames::create(dir)?, t.hot_cap, t.filter_bytes),
            init: Vec::new(),
            transitions: 0,
            mask: options.mask(),
            options,
            sys_hash: checkpoint::system_hash(system),
            meter,
        })
    }

    /// The O(hot tier) checkpoint: sealed segments go in by reference
    /// (name and checksum), only the unsealed tails are embedded.
    /// Deferred records are materialized first — a snapshot embeds real
    /// store bytes.
    fn spill_snapshot(&mut self, queue: &[usize]) -> Result<Snapshot, StoreError> {
        self.arena.flush_deferred(self.meter)?;
        self.edges.flush_deferred(self.meter)?;
        let mut frontier = queue.to_vec();
        frontier.sort_unstable();
        frontier.dedup();
        let (arena, edges) = (&self.arena.store, &self.edges.store);
        let manifest = Manifest {
            dir: arena.dir().to_path_buf(),
            states: arena.len(),
            transitions: self.transitions,
            init: self.init.clone(),
            arena_segments: arena.sealed().to_vec(),
            arena_hot: arena.hot_records().collect(),
            edge_segments: edges.sealed().to_vec(),
            edge_hot: edges.hot_records().collect(),
        };
        Ok(RunHeader::of(self.options, self.sys_hash).snapshot(Body::Manifest(manifest), frontier))
    }
}

impl SeqStore for SpillStore<'_> {
    /// Arena records are re-appended in id order, the visited set is
    /// rebuilt with the same first-id-wins insertion discipline, and
    /// every *non-frontier* state gets its edge record back (frontier
    /// states re-expand, so they must have none).
    fn reseed(&mut self, snap: &Snapshot) -> Result<(), CheckError> {
        let meter = self.meter;
        let graph = snap.graph();
        let mut in_frontier = vec![false; graph.len()];
        for &f in &snap.frontier {
            in_frontier[f] = true;
        }
        for (id, s) in graph.states().iter().enumerate() {
            let fp = s.fingerprint();
            self.visited
                .seed(self.options.mode, fp & self.mask, id, meter)
                .map_err(CheckpointError::from)?;
            self.arena.push(s, fp, graph.parent(id), meter)?;
            if !in_frontier[id] {
                self.edges
                    .push(id, graph.edges(id), meter)
                    .map_err(CheckpointError::from)?;
            }
        }
        self.init = graph.init().to_vec();
        self.transitions = snap.transitions_used() as u64;
        Ok(())
    }

    fn entry(&mut self, id: usize) -> Result<(State, u64), CheckError> {
        Ok(self.arena.entry(id)?)
    }

    // Inlined into the loop's successor visitor, like the in-RAM
    // store's, so the probe-before-materialize path stays call-free.
    #[inline]
    fn intern(
        &mut self,
        fp: u64,
        from: Option<(usize, usize)>,
        make: impl FnOnce() -> State,
    ) -> Result<Interned, Stop> {
        let meter = self.meter;
        let id = self.arena.len();
        let key = fp & self.mask;
        let admit = || meter.charge_state().map_or(Ok(id), |reason| Err(Stop::Cut(reason)));
        let state = match self.options.mode {
            VisitedMode::Fingerprint => {
                match self.visited.fp_entry(key, |_| Ok(true), admit)?.noted(meter) {
                    (existing, false) => return Ok(Interned::Found(existing)),
                    (_, true) => make(),
                }
            }
            VisitedMode::Exact => {
                let (state, arena) = (make(), &mut self.arena);
                let same = |cand| Ok(arena.holds(cand, &state)?);
                match self.visited.fp_entry(key, same, admit)?.noted(meter) {
                    (existing, false) => return Ok(Interned::Found(existing)),
                    (_, true) => state,
                }
            }
        };
        self.arena.push(&state, fp, from, meter)?;
        if from.is_none() {
            self.init.push(id);
        }
        Ok(Interned::Inserted(id))
    }

    fn push_edges(&mut self, id: usize, edges: &[Edge]) -> Result<(), CheckError> {
        self.edges
            .push(id, edges, self.meter)
            .map_err(CheckpointError::from)?;
        self.transitions += edges.len() as u64;
        Ok(())
    }

    fn snapshot(&mut self, queue: &[usize]) -> Result<Snapshot, CheckError> {
        Ok(self.spill_snapshot(queue).map_err(CheckpointError::from)?)
    }

    fn finish(
        mut self,
        cut: Option<(usize, Vec<Edge>)>,
        frontier: Option<&[usize]>,
        ck: &mut Checkpointer,
    ) -> Result<Finished, CheckError> {
        let meter = self.meter;
        note_cache_stats(meter, &self.arena.store, &self.edges.store);
        // Exhaustion snapshot: when a checkpoint spec keeps the segment
        // directory alive the final snapshot references the sealed
        // segments too — O(hot tier), like the periodic ones. With an
        // ephemeral directory (about to be removed) the in-memory
        // snapshot must be self-contained, so the shared in-RAM capture
        // below takes over once the graph is built.
        let spill_exh = match frontier {
            Some(queue) if ck.active() => {
                let snap = self.spill_snapshot(queue).map_err(CheckpointError::from)?;
                let token = ck.write(snap.clone(), meter.recorder());
                Some((Some(Box::new(snap)), token))
            }
            _ => None,
        };
        let mut graph = self.arena.into_graph()?;
        self.edges.fill(&mut graph)?;
        if let Some((id, partial)) = cut {
            graph.set_edges(id, &partial);
        }
        let (snapshot, resume) = match (spill_exh, frontier) {
            (Some(pair), _) => pair,
            (None, Some(queue)) => seq_exhaustion_snapshot(
                ck,
                meter.recorder(),
                &graph,
                graph.len(),
                queue,
                RunHeader::of(self.options, self.sys_hash),
            ),
            (None, None) => (None, None),
        };
        Ok(Finished {
            graph,
            snapshot,
            resume,
            reduction: None,
        })
    }
}
