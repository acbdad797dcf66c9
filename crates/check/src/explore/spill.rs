//! The disk tiers a memory budget buys, shared by the two budgeted
//! stores — the sequential store's `Disk` body ([`super::seq`]) and the
//! parallel spill engine ([`super::spill_ws`]):
//!
//! * how one byte budget splits across them ([`Tuning`]);
//! * the **state arena** and **edge lists** as append-only
//!   [`SegmentStore`]s — sealed segments live on disk and are read
//!   back through an LRU cache, only the unsealed tail stays in RAM —
//!   with the accounting of each seal ([`append`], [`note_spill`]);
//! * the **dedup index** in two tiers ([`SpillVisited`]): the hot
//!   in-RAM [`FpIndex`] that, when full, drains into sorted on-disk
//!   [`FingerprintRun`]s probed behind a one-bit in-RAM [`Filter`];
//! * where the files live ([`SpillDir`]).

use super::index::FpIndex;
use crate::budget::Meter;
use crate::checkpoint::CheckpointSpec;
use crate::obs::Event;
use crate::sync::lock;
use crate::VisitedMode;
use opentla_kernel::store::{FingerprintRun, SegmentMeta, SegmentStore, StoreError};
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

/// Appends one record to the sequential store's `tier`, reporting the
/// segment it seals, if any.
pub(super) fn append(
    meter: &Meter,
    tier: &'static str,
    store: &mut SegmentStore,
    record: &[u8],
) -> Result<(), StoreError> {
    if let Some(meta) = store.append(record)? {
        note_spill(meter, &seal_info(tier, store, &meta));
    }
    Ok(())
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
    /// Creates `dir` if need be, removes stale `visited-*.run` files an
    /// earlier process left in it (mirroring `SegmentStore::create`)
    /// and starts the sequence at 0.
    pub(super) fn create(dir: &Path) -> Result<Arc<Mutex<RunNames>>, StoreError> {
        let io = |path: &Path, e: std::io::Error| StoreError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        };
        std::fs::create_dir_all(dir).map_err(|e| io(dir, e))?;
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
    /// A set that never drains — no budget, so no directory: every
    /// lookup is the one hot-tier probe.
    pub(super) fn in_ram() -> SpillVisited {
        let nowhere = RunNames {
            dir: PathBuf::new(),
            seq: 0,
        };
        SpillVisited::new(Arc::new(Mutex::new(nowhere)), usize::MAX, 0)
    }

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

/// A store's records as [`checkpoint::for_each_record`] reads them
/// back.
pub(super) fn records(
    store: &SegmentStore,
) -> (&Path, &[SegmentMeta], impl Iterator<Item = &[u8]>) {
    (store.dir(), store.sealed(), store.hot_records())
}

/// A run's segment directory: next to the checkpoint `pinned_by`, for
/// a store whose snapshots reference its sealed segments (a resumed
/// process finds them there); otherwise a process-private temp
/// directory, removed when this is dropped.
pub(super) struct SpillDir {
    path: PathBuf,
    ephemeral: bool,
}

impl SpillDir {
    pub(super) fn new(pinned_by: Option<&CheckpointSpec>) -> SpillDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let temp = || {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            std::env::temp_dir().join(format!("opentla-spill-{}-{n}", std::process::id()))
        };
        SpillDir {
            path: pinned_by.map_or_else(temp, |spec| format!("{}.segs", spec.path.display()).into()),
            ephemeral: pinned_by.is_none(),
        }
    }

    pub(super) fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
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
