//! The disk tiers a memory budget buys for the one disk-backed store,
//! the sequential store's `Disk` body ([`super::seq`]):
//!
//! * how one byte budget splits across them ([`Tuning`]);
//! * the **state arena** and **edge lists** as append-only
//!   [`SegmentStore`]s — sealed segments live on disk and are read
//!   back through an LRU cache, only the unsealed tail stays in RAM —
//!   with the accounting of each seal ([`append`], [`note_spill`]);
//! * the **dedup index** in two tiers ([`SpillVisited`]): the hot
//!   in-RAM [`FpIndex`] over the fingerprints of the ids since its last
//!   drain, that, when full on the `Disk` body, drains into sorted
//!   on-disk [`FingerprintRun`]s probed behind a one-bit in-RAM
//!   [`Filter`];
//! * where the files live ([`SpillDir`]).

use super::index::FpIndex;
use crate::budget::Meter;
use crate::checkpoint::{CheckpointSpec, Snapshot};
use crate::obs::Event;
use crate::VisitedMode;
use opentla_kernel::store::{self, CacheStats, FingerprintRun, SegmentStore, StoreError};
use std::path::{Path, PathBuf};

/// How one memory budget splits across the store's tiers.
pub(super) struct Tuning {
    /// The budget itself: what the `Ram` body's graph and dedup index
    /// may take, as allocated, before the store moves to its tiers.
    pub(super) budget: usize,
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
            budget: m,
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

/// Accounts one spill — a sealed segment, or a drained fingerprint run
/// — of `records` in `bytes`, the `seq`-th of its `tier`, and reports
/// it as a `spill` event.
fn note_spill(meter: &mut Meter, tier: &'static str, seq: u64, records: u64, bytes: u64) {
    meter.add_spilled_bytes(bytes);
    let rec = meter.recorder();
    if rec.enabled() {
        rec.record(&Event::Spill {
            tier,
            seq,
            records,
            bytes,
            total_spilled_bytes: meter.spilled_bytes(),
        });
    }
}

/// Appends one record to the store's `tier`, reporting the segment it
/// seals, if any.
pub(super) fn append(
    meter: &mut Meter,
    tier: &'static str,
    store: &mut SegmentStore,
    record: &[u8],
) -> Result<(), StoreError> {
    if let Some(meta) = store.append(record)? {
        let seq = store.sealed().len() as u64 - 1;
        note_spill(meter, tier, seq, meta.records, meta.file_len());
    }
    Ok(())
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
/// after `hot_cap` inserts), not of timing. The hot tier's column is
/// the store's one fingerprint column: a store in RAM reads its
/// parents' fingerprints there, so the set is uncapped — it never
/// drains — until the store [`cap`](Self::cap)s it on leaving RAM or
/// re-opening on disk.
pub(super) struct SpillVisited {
    hot: FpIndex,
    /// Entries the hot tier drains at: `usize::MAX` while the store is
    /// in RAM.
    hot_cap: usize,
    /// Created at the first drain — a set that never spills never pays
    /// for zeroing (or walking) the filter's bit array.
    filter: Option<Filter>,
    filter_bytes: usize,
    runs: Vec<FingerprintRun>,
    /// Where the runs go, as `visited-NNNNN.run`.
    dir: PathBuf,
    probe: Vec<u64>,
}

impl SpillVisited {
    /// An uncapped set that, once capped, drains into `dir`, first at
    /// its first drain.
    pub(super) fn new(mask: u64, dir: &Path, filter_bytes: usize) -> SpillVisited {
        SpillVisited {
            hot: FpIndex::new(mask),
            hot_cap: usize::MAX,
            filter: None,
            filter_bytes,
            runs: Vec::new(),
            dir: dir.to_path_buf(),
            probe: Vec::new(),
        }
    }

    /// The unmasked fingerprint of `id`, unless the hot tier drained
    /// it.
    #[inline]
    pub(super) fn fp(&self, id: usize) -> Option<u64> {
        self.hot.fp(id)
    }

    /// The bytes the hot tier takes, as allocated, and what admitting
    /// one more id adds to them.
    #[inline]
    pub(super) fn hot_bytes(&self) -> (usize, usize) {
        (self.hot.allocated_bytes(), self.hot.insert_bytes())
    }

    /// Readies the hot tier for [`cap`](Self::cap) at `hot_cap` ahead
    /// of its caller's work before that: a tier the cap will drain
    /// frees its slot table now, as no lookup comes in between.
    pub(super) fn precap(&mut self, hot_cap: usize) {
        if self.hot.len() >= hot_cap {
            self.hot.free_slots();
        }
    }

    /// Caps the hot tier at `hot_cap` entries from here on. One that
    /// holds that many already — a store's RAM body, whose index held
    /// every state — drains now, its room released: the slot table
    /// freed before the runs are built and the column after, the index
    /// starting again as a new one does.
    pub(super) fn cap(&mut self, hot_cap: usize, meter: &mut Meter) -> Result<(), StoreError> {
        self.hot_cap = hot_cap;
        match self.hot.len() >= hot_cap {
            true => self.drain_hot(meter, true),
            false => Ok(()),
        }
    }

    /// Resume seeding, meter-free: records `id` for a snapshot state
    /// with unmasked fingerprint `fp` under the run's insertion
    /// discipline — first-id-wins in fingerprint mode, every id in
    /// exact mode (a snapshot lists each state once). Every seed's
    /// fingerprint joins the column.
    pub(super) fn seed(
        &mut self,
        mode: VisitedMode,
        fp: u64,
        id: usize,
        meter: &mut Meter,
    ) -> Result<(), StoreError> {
        let trust = mode == VisitedMode::Fingerprint;
        let (_, new) = self.fp_entry(fp, |_, _| Ok::<_, StoreError>(trust), |_| Ok(id), meter)?;
        if !new {
            self.hot.push_unindexed(fp);
        }
        Ok(())
    }

    /// Lookup-or-insert across both tiers — the engines' innermost
    /// dedup operation, `(id, whether it is new)`; in fingerprint mode
    /// (`same` trusts every hit) it is one hot-tier probe sequence.
    /// `same(id, fp)` says whether the probe state is the one recorded
    /// under `id`, whose unmasked fingerprint `fp` is known for a
    /// hot-tier candidate. On a full miss `admit(meter)` decides admission:
    /// `Ok(id)` (the meter charged, the next id allocated) records `id`
    /// under `fp`'s key and `fp` in the column;
    /// `Err` leaves the set untouched — the budget cut happens *before*
    /// the insert. A drain the insert triggers is reported to `meter`.
    /// An id a run holds that no drain can have written — one at or past
    /// the hot tier's first — is [`StoreError::Corrupt`]: it would
    /// become an edge to a state that does not exist.
    #[inline]
    pub(super) fn fp_entry<E: From<StoreError>, S: FnMut(usize, Option<u64>) -> Result<bool, E>>(
        &mut self,
        fp: u64,
        same: S,
        admit: impl FnOnce(&mut Meter) -> Result<usize, E>,
        meter: &mut Meter,
    ) -> Result<(usize, bool), E> {
        let (key, drained) = (self.hot.key(fp), self.hot.base());
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
                for (seq, run) in runs.iter_mut().enumerate() {
                    let seen = probe.len();
                    run.lookup(key, probe)?;
                    for &id in &probe[seen..] {
                        if id >= drained as u64 {
                            return Err(StoreError::Corrupt {
                                detail: format!(
                                    "visited-{seq:05}.run names state {id}, past the {drained} \
                                     state(s) drained"
                                ),
                            }
                            .into());
                        }
                        if same(id as usize, None)? {
                            return Ok(Some(id as usize));
                        }
                    }
                }
            }
            Ok(None)
        };
        let hit = hot.intern(fp, same, spilled, || admit(meter))?;
        if hit.1 && self.hot.len() >= self.hot_cap {
            self.drain_hot(meter, false)?;
        }
        Ok(hit)
    }

    /// Drains the hot tier into a sorted run file, setting the filter
    /// bits of every drained key, its room released if `release` says
    /// so ([`FpIndex::drain`]). A tier past its cap — a RAM body's index,
    /// drained as the store leaves RAM — is sorted a cap's worth at a
    /// time into parts, merged into the run as they are read back
    /// ([`FingerprintRun::merge`]): the run is one, and a lookup reads
    /// one block of it, but the drain never sorts more than `hot_cap`
    /// entries. The first drain clears the directory of the runs an
    /// earlier run left there: no snapshot names one.
    fn drain_hot(&mut self, meter: &mut Meter, release: bool) -> Result<(), StoreError> {
        let seq = self.runs.len() as u64;
        if seq == 0 {
            store::clear_stale(&self.dir, "visited-", ".run")?;
        }
        let SpillVisited {
            hot,
            hot_cap,
            filter,
            filter_bytes,
            dir,
            ..
        } = self;
        let filter = filter.get_or_insert_with(|| Filter::new(*filter_bytes));
        let (held, cap) = (hot.len(), *hot_cap);
        let mut entries: Vec<(u64, u64)> = Vec::with_capacity(held.min(cap));
        let mut parts = Vec::new();
        let part = |entries: &mut Vec<(u64, u64)>, name: String| {
            entries.sort_unstable();
            let run = FingerprintRun::write(&dir.join(name), entries)?;
            entries.clear();
            Ok::<_, StoreError>(run)
        };
        let take = |(key, id)| {
            filter.set(key);
            entries.push((key, id as u64));
            if entries.len() == cap && held > cap {
                let name = format!("visited-{seq:05}-{:05}.run", parts.len());
                parts.push(part(&mut entries, name)?);
            }
            Ok::<_, StoreError>(())
        };
        hot.drain(take, release)?;
        let name = format!("visited-{seq:05}.run");
        let run = match parts.is_empty() {
            true => part(&mut entries, name)?,
            false => {
                if !entries.is_empty() {
                    let last = format!("visited-{seq:05}-{:05}.run", parts.len());
                    parts.push(part(&mut entries, last)?);
                }
                FingerprintRun::merge(&dir.join(name), parts)?
            }
        };
        note_spill(meter, "visited", seq, run.len(), run.bytes());
        self.runs.push(run);
        Ok(())
    }
}

/// A run's segment directory: where the sealed segments of the
/// snapshot `resumed` from lie, if any (the store seals its own after
/// them); else next to the checkpoint `spec`, where a resumed process
/// finds them; else a process-private temp directory, removed when
/// this is dropped.
pub(super) struct SpillDir {
    path: PathBuf,
    ephemeral: bool,
}

impl SpillDir {
    pub(super) fn new(spec: Option<&CheckpointSpec>, resumed: Option<&Snapshot>) -> SpillDir {
        let lies = resumed
            .map(|snap| &snap.manifest)
            .filter(|m| !(m.arena_segments.is_empty() && m.edge_segments.is_empty()));
        let pinned = spec.map(|spec| format!("{}.segs", spec.path.display()).into());
        let kept = lies.map(|m| m.dir.clone()).or(pinned);
        SpillDir {
            ephemeral: kept.is_none(),
            path: kept.unwrap_or_else(|| temp_path("spill")),
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

/// A process-private temp path, named for `what`, no other call returns.
pub(super) fn temp_path(what: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("opentla-{what}-{}-{n}", std::process::id()))
}

/// Emits a run's segment-cache totals, summed over its `stores`.
pub(super) fn note_cache_stats<'s>(
    meter: &Meter,
    stores: impl IntoIterator<Item = &'s SegmentStore>,
) {
    let rec = meter.recorder();
    if rec.enabled() {
        let mut sum = CacheStats::default();
        for c in stores.into_iter().map(SegmentStore::cache_stats) {
            sum.hits += c.hits;
            sum.misses += c.misses;
            sum.evictions += c.evictions;
            sum.resident_bytes += c.resident_bytes;
        }
        rec.record(&Event::CacheStats {
            hits: sum.hits,
            misses: sum.misses,
            evictions: sum.evictions,
            resident_bytes: sum.resident_bytes,
            spilled_bytes: meter.spilled_bytes(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    /// A run is read back trusting its entries, so an id past every
    /// state drained — here 9, after the 4 states 0..=3 of the first
    /// drain — is refused as corrupt, not handed out as an edge to a
    /// state that does not exist. The same id in range is a hit.
    #[test]
    fn a_run_naming_an_id_past_the_drained_states_is_corrupt() {
        let dir = temp_path("run-ids");
        std::fs::create_dir_all(&dir).unwrap();
        let mut meter = Meter::start(&Budget::unlimited());
        let mut visited = SpillVisited::new(u64::MAX, &dir, 4 << 10);
        visited.cap(4, &mut meter).unwrap();
        let trust = |_, _| Ok::<_, StoreError>(true);
        for fp in 0..4u64 {
            let next = fp as usize;
            let (id, new) = visited
                .fp_entry(fp, trust, |_| Ok(next), &mut meter)
                .unwrap();
            assert_eq!((id, new), (next, true));
        }
        assert_eq!((visited.runs.len(), visited.hot.base()), (1, 4), "drained");
        let (hit, _) = visited
            .fp_entry(2, trust, |_| unreachable!("a hit"), &mut meter)
            .unwrap();
        assert_eq!(hit, 2);
        let (key, bad) = (100, 9);
        let path = dir.join("visited-00001.run");
        visited
            .runs
            .push(FingerprintRun::write(&path, &[(key, bad)]).unwrap());
        visited.filter.as_mut().expect("made by the drain").set(key);
        let err = visited
            .fp_entry(key, trust, |_| unreachable!("a hit"), &mut meter)
            .unwrap_err();
        match err {
            StoreError::Corrupt { detail } => {
                assert!(detail.contains("names state 9"), "{detail}");
            }
            other => panic!("{other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
