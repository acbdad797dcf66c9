//! The work-stealing engine's one store ([`super::ws`]): a parallel
//! run's states, dedup index and settled edge runs, with or without a
//! memory budget.
//!
//! * **Stripes.** [`NUM_SHARDS`] independently locked stripes, a state
//!   in the one its masked fingerprint picks. Each holds its dedup index
//!   — a [`SpillVisited`]: one hot probe without a budget, two tiers
//!   under one — and its own packed arena, so one lock covers an
//!   intern's probe, comparisons and append. A state's [`Pid`] is its
//!   stripe and its index in that arena.
//! * **Arenas.** Without a budget, a stripe's packed rows back to back
//!   in a `Vec<u8>`, plus their fingerprints: a parent read is a slice
//!   copy. Under one, a [`SegmentStore`] of packed arena records
//!   (`wsarena-SS-*`) read back through an LRU cache, each row checked
//!   as it is read for codes outside their domains (the stepper keys
//!   tables on them); each stripe's segment target and cache, like its
//!   hot tier and filter, are the budget's shares divided by
//!   [`NUM_SHARDS`].
//! * **Edges.** Without a budget a parent's run stays in its worker's
//!   records. Under one, a fully expanded parent's run leaves them as
//!   one record in the shared edge store (`wsedges-*`), each pid the
//!   dense `u32` word `local · NUM_SHARDS + stripe` — one that does not
//!   fit is a typed error, never a truncation. A parent re-expanded
//!   after its worker panicked may bank a second, equal record; the
//!   read-back keeps one.
//!
//! **Determinism.** A drain moves keys between the tiers of one stripe;
//! it never changes *membership*, and its threshold is a pure function
//! of the stripe's insert stream. A lookup's answer is therefore
//! independent of when drains fired or how worker interleavings
//! assigned pids, and the engine's canonical replay erases the pids: a
//! completed graph is **byte-identical** to the sequential engine's
//! (up to the parallel engine's one caveat: under *forced* fingerprint
//! collisions in fingerprint mode, which member of a collision class
//! survives depends on arrival order at two or more workers).
//!
//! A budgeted store's records are in arrival order, so a canonical
//! snapshot reads them all back: the engine runs periodic epochs only
//! without a budget ([`Store::budgeted`]). No snapshot references this
//! store's segments, so its directory is always ephemeral: a temp
//! directory, removed when the store is dropped.

use super::seq::Stop;
use super::spill::{self, RunNames, SpillDir, SpillVisited, Tuning};
use super::ws::{EdgeRecord, Run};
use super::*;
use crate::checkpoint::{corrupt, CheckpointError};
use crate::sync::shard_for;
use opentla_kernel::store::{SegmentStore, StoreError};
use opentla_kernel::PackedLayout;
use std::borrow::Cow;

/// One stripe: the dedup index (masked fingerprint → local index) and
/// the arena behind it.
struct Stripe {
    visited: SpillVisited,
    arena: Arena,
}

/// A stripe's states, in local-index order.
#[allow(clippy::large_enum_variant)] // 64 per run, in place behind their locks
enum Arena {
    /// `fps.len()` packed rows of the layout's stride, and their
    /// unmasked fingerprints.
    Ram { packed: Vec<u8>, fps: Vec<u64> },
    /// One packed arena record per state.
    Disk(SegmentStore),
}

impl Arena {
    fn len(&self) -> usize {
        match self {
            Arena::Ram { fps, .. } => fps.len(),
            Arena::Disk(store) => store.len() as usize,
        }
    }

    /// Appends the state with unmasked fingerprint `fp` whose packed
    /// bytes `write` appends, encoding its record in `rec` on disk.
    #[inline]
    fn push(
        &mut self,
        fp: u64,
        write: impl FnOnce(&mut Vec<u8>),
        rec: &mut Vec<u8>,
        meter: &Meter,
    ) -> Result<(), StoreError> {
        match self {
            Arena::Ram { packed, fps } => {
                write(packed);
                fps.push(fp);
                Ok(())
            }
            Arena::Disk(store) => {
                checkpoint::encode_packed_record(None, fp, write, rec);
                spill::append(meter, "arena", store, rec)
            }
        }
    }

    /// State `local`'s packed row and unmasked fingerprint: on disk its
    /// record is read into `rec` first and checked
    /// ([`checkpoint::packed_row`]), so a row of this arena always holds
    /// one stride of in-domain codes.
    fn row<'r>(
        &'r mut self,
        local: usize,
        layout: &PackedLayout,
        rec: &'r mut Vec<u8>,
    ) -> Result<(&'r [u8], u64), CheckpointError> {
        match self {
            Arena::Ram { packed, fps } => {
                let stride = layout.stride();
                Ok((&packed[local * stride..][..stride], fps[local]))
            }
            Arena::Disk(store) => {
                store.read(local as u64, rec)?;
                checkpoint::packed_row(rec, layout)
            }
        }
    }

    /// Every row, back to back: the arena itself in RAM, its records
    /// read back and checked on disk.
    fn rows(&self, layout: &PackedLayout) -> Result<Cow<'_, [u8]>, CheckpointError> {
        let store = match self {
            Arena::Ram { packed, .. } => return Ok(Cow::Borrowed(packed)),
            Arena::Disk(store) => store,
        };
        let mut rows = Vec::with_capacity(store.len() as usize * layout.stride());
        checkpoint::for_each_record(spill::records(store), |rec| {
            rows.extend_from_slice(checkpoint::packed_row(rec, layout)?.0);
            Ok(())
        })?;
        Ok(Cow::Owned(rows))
    }
}

/// The edge-record word of `p`: dense over the stripes, so every state
/// of a store under 2³² states has one.
fn edge_word(p: Pid) -> Result<u32, CheckError> {
    let word = local_of(p) * NUM_SHARDS + shard_of(p);
    u32::try_from(word).map_err(|_| CheckError::TooManyStates {
        limit: u32::MAX as usize + 1,
    })
}

/// `f` over `items` on up to `threads` scoped threads, in item order.
fn par_map<T: Sync, R: Send>(threads: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let parts: Vec<_> = items
            .chunks(items.len().div_ceil(threads).max(1))
            .map(|c| scope.spawn(|| c.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        for h in parts {
            out.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
    });
    out
}

/// The store of one work-stealing run; see the module docs. Every
/// method but [`replay`](Self::replay) is called by many workers at
/// once.
pub(super) struct Store<'a> {
    stripes: Vec<Mutex<Stripe>>,
    /// Under a budget only: the edge records settled runs leave in.
    edges: Option<Mutex<SegmentStore>>,
    mask: u64,
    run: &'a Run<'a>,
    /// Under a budget only. Declared last, so removed after the stores
    /// in it are closed.
    _dir: Option<SpillDir>,
}

impl<'a> Store<'a> {
    /// All in RAM without a `mem_budget`; under one, the tiers it buys
    /// in a fresh temp directory — whatever the budget's checkpoint spec
    /// says, nothing would read it again.
    pub(super) fn new(
        run: &'a Run<'a>,
        mem_budget: Option<usize>,
    ) -> Result<Store<'a>, StoreError> {
        let disk = match mem_budget {
            Some(m) => {
                let dir = SpillDir::new(None);
                let names = RunNames::create(dir.path())?;
                Some((dir, Tuning::for_budget(m), names))
            }
            None => None,
        };
        // Every share of the budget but the edge store's, split across
        // the stripes.
        let share = |bytes: usize| bytes / NUM_SHARDS;
        let stripe = |i: usize| {
            let Some((dir, t, names)) = &disk else {
                let arena = Arena::Ram {
                    packed: Vec::new(),
                    fps: Vec::new(),
                };
                let visited = SpillVisited::in_ram();
                return Ok(Mutex::new(Stripe { visited, arena }));
            };
            let (target, cache) = (share(t.seg_target), share(t.arena_cache));
            let arena =
                SegmentStore::create(dir.path(), &format!("wsarena-{i:02}"), target, cache)?;
            let visited = SpillVisited::new(
                names.clone(),
                share(t.hot_cap).max(16),
                share(t.filter_bytes),
            );
            Ok(Mutex::new(Stripe {
                visited,
                arena: Arena::Disk(arena),
            }))
        };
        let edges = disk.as_ref().map(|(dir, t, _)| {
            SegmentStore::create(dir.path(), "wsedges", t.seg_target, t.edge_cache)
        });
        Ok(Store {
            stripes: (0..NUM_SHARDS).map(stripe).collect::<Result<_, _>>()?,
            edges: edges.transpose()?.map(Mutex::new),
            mask: run.options.mask(),
            run,
            _dir: disk.map(|(dir, ..)| dir),
        })
    }

    /// Whether a memory budget put the store on disk. Without one a
    /// paused run replays cheaply, so periodic checkpoints run in
    /// epochs.
    pub(super) fn budgeted(&self) -> bool {
        self.edges.is_some()
    }

    /// Copies `parent`'s packed bytes into `bytes`; returns its
    /// unmasked fingerprint. `rec` is the disk arena's record buffer.
    pub(super) fn parent(
        &self,
        parent: Pid,
        bytes: &mut Vec<u8>,
        rec: &mut Vec<u8>,
    ) -> Result<u64, CheckError> {
        let mut stripe = lock(&self.stripes[shard_of(parent)]);
        let (row, fp) = (stripe.arena).row(local_of(parent), self.run.layout, rec)?;
        bytes.clear();
        bytes.extend_from_slice(row);
        Ok(fp)
    }

    /// Looks up or records the state with unmasked fingerprint `fp`
    /// whose packed bytes `write` appends: its pid and whether it is
    /// new. A `charged` intern (all but resume seeding) charges a new
    /// state to the meter *before* anything is recorded, so a
    /// [`Stop::Cut`] leaves the store untouched. Fingerprint mode trusts
    /// a hit and runs `write` only for a new state, in RAM straight into
    /// the arena: a visited successor never builds its bytes. Exact mode
    /// writes them to `probe` first and compares every candidate under
    /// the key with its row, under the stripe lock (packing is injective
    /// on in-domain states: forced collisions give false candidates,
    /// never false answers). `rec` is the disk arena's record buffer.
    #[inline]
    pub(super) fn intern(
        &self,
        fp: u64,
        write: impl FnOnce(&mut Vec<u8>),
        charged: bool,
        probe: &mut Vec<u8>,
        rec: &mut Vec<u8>,
    ) -> Result<(Pid, bool), Stop> {
        let (key, meter) = (fp & self.mask, &self.run.meter);
        let i = shard_for(key);
        let mut stripe = lock(&self.stripes[i]);
        let Stripe { visited, arena } = &mut *stripe;
        let next = arena.len();
        let admit = || match charged.then(|| meter.charge_state()).flatten() {
            Some(reason) => Err(Stop::Cut(reason)),
            None => Ok(next),
        };
        let (local, is_new) = match self.run.options.mode {
            VisitedMode::Fingerprint => {
                let hit = visited.fp_entry(key, |_| Ok(true), admit, meter)?;
                if hit.1 {
                    arena.push(fp, write, rec, meter)?;
                }
                hit
            }
            VisitedMode::Exact => {
                probe.clear();
                write(probe);
                let layout = self.run.layout;
                let same = |cand| Ok(arena.row(cand, layout, rec)?.0 == &probe[..]);
                let hit = visited.fp_entry(key, same, admit, meter)?;
                if hit.1 {
                    arena.push(fp, |out| out.extend_from_slice(probe), rec, meter)?;
                }
                hit
            }
        };
        Ok((pid(i, local), is_new))
    }

    /// Settles `parent`'s run, `records[mark..]` (empty for a state
    /// with no successor), now that it is fully expanded: under a
    /// budget it leaves the records as one edge record, built in
    /// `edges` and encoded in `rec`; in RAM it stays there.
    pub(super) fn settle(
        &self,
        parent: Pid,
        records: &mut Vec<EdgeRecord>,
        mark: usize,
        edges: &mut Vec<Edge>,
        rec: &mut Vec<u8>,
    ) -> Result<(), CheckError> {
        let Some(store) = &self.edges else {
            return Ok(());
        };
        edges.clear();
        for (_, action, child) in records.drain(mark..) {
            let (action, target) = (action as usize, edge_word(child)? as usize);
            edges.push(Edge { action, target });
        }
        checkpoint::encode_edge_record(edge_word(parent)? as usize, edges, rec);
        spill::append(&self.run.meter, "edges", &mut lock(store), rec)
            .map_err(CheckpointError::from)?;
        Ok(())
    }

    /// The canonical [`Replay`], from the initial pids `init`, of
    /// `records` and every run settled into an edge record, with the
    /// workers stopped (under a budget, the stores' last read, so it
    /// reports their cache first). Every stripe's rows are in hand at
    /// once — the arena itself in RAM, its records read back on disk —
    /// and the states are unpacked from them in canonical order, both
    /// fanned out across the run's workers.
    pub(super) fn replay(
        &self,
        records: &[Vec<EdgeRecord>],
        init: &[Pid],
    ) -> Result<Replay, CheckError> {
        let stripes: Vec<_> = self.stripes.iter().map(lock).collect();
        let arenas: Vec<&Arena> = stripes.iter().map(|s| &s.arena).collect();
        let lens: Vec<usize> = arenas.iter().map(|a| a.len()).collect();
        let (layout, threads, meter) = (self.run.layout, self.run.threads, &self.run.meter);
        let stride = layout.stride();
        let mut banked: Vec<EdgeRecord> = Vec::new();
        if let Some(edges) = &self.edges {
            let edges = lock(edges);
            let disk = arenas.iter().filter_map(|a| match a {
                Arena::Disk(store) => Some(store),
                Arena::Ram { .. } => None,
            });
            spill::note_cache_stats(meter, disk.chain([&*edges]));
            banked.reserve(meter.transitions_used());
            let mut seen: Vec<Vec<bool>> = lens.iter().map(|&n| vec![false; n]).collect();
            let pid_of = |word: usize| {
                let p = pid(word % NUM_SHARDS, word / NUM_SHARDS);
                let known = local_of(p) < lens[shard_of(p)];
                known
                    .then_some(p)
                    .ok_or_else(|| corrupt(format!("edge word {word} names no state")))
            };
            // `pid_of` bounds every word by its own stripe.
            checkpoint::for_each_edge_record(spill::records(&edges), usize::MAX, |word, es| {
                let parent = pid_of(word)?;
                if !std::mem::replace(&mut seen[shard_of(parent)][local_of(parent)], true) {
                    for e in es {
                        banked.push((parent, e.action as u32, pid_of(e.target)?));
                    }
                }
                Ok(())
            })?;
        }
        let rows: Vec<Cow<'_, [u8]>> = par_map(threads, &arenas, |a| a.rows(layout))
            .into_iter()
            .collect::<Result<_, _>>()?;
        let runs: Vec<&[EdgeRecord]> = std::iter::once(&banked)
            .chain(records)
            .map(Vec::as_slice)
            .collect();
        // Unpacking (one tree allocation per state) is the replay's
        // dominant cost, and each state is independent once the
        // canonical order is fixed.
        Ok(replay_records(&lens, &runs, init, |order| {
            let workers = if order.len() < 4096 { 1 } else { threads };
            par_map(workers, order, |&p| {
                layout.unpack(&rows[shard_of(p)][local_of(p) * stride..][..stride])
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_kernel::{Domain, State, Value, Vars};
    use std::collections::VecDeque;

    const N: i64 = 2000;

    /// Interns breadth-first the ring `x ∈ 0..N` from 0, each state
    /// stepping to three neighbours and itself, settling each parent's
    /// run as a worker does: every `(pid, is_new)` in intern order, and
    /// the records left over.
    fn drive(store: &Store<'_>, layout: &PackedLayout) -> (Vec<(Pid, bool)>, Vec<EdgeRecord>) {
        let (mut bytes, mut probe, mut rec, mut edges) = (vec![], vec![], vec![], vec![]);
        let mut intern = |x: i64, rec: &mut Vec<u8>| {
            assert!(layout.pack_into(&[Value::Int(x)], &mut bytes));
            let write = |out: &mut Vec<u8>| out.extend_from_slice(&bytes);
            let fp = layout.fingerprint(&bytes);
            let Ok(hit) = store.intern(fp, write, true, &mut probe, rec) else {
                panic!("an unlimited meter and a healthy disk");
            };
            hit
        };
        let root = intern(0, &mut rec);
        let (mut interned, mut records) = (vec![root], Vec::new());
        let mut queue = VecDeque::from([(root.0, 0)]);
        while let Some((parent, x)) = queue.pop_front() {
            let mark = records.len();
            for (action, y) in [(x + 1) % N, (x + N - 1) % N, (x + 2) % N, x]
                .into_iter()
                .enumerate()
            {
                let (child, is_new) = intern(y, &mut rec);
                interned.push((child, is_new));
                if is_new {
                    queue.push_back((child, y));
                }
                records.push((parent, action as u32, child));
            }
            let settled = store.settle(parent, &mut records, mark, &mut edges, &mut rec);
            settled.expect("a healthy disk");
        }
        (interned, records)
    }

    /// One store, both arenas: the same intern sequence into a store
    /// without a budget and into one under a budget so small that every
    /// stripe seals arena segments (and drains its hot tier) hands out
    /// the same pids, reads every state back — sealed ones included —
    /// with the same bytes and fingerprint, and replays to the same
    /// graph, in both visited modes.
    #[test]
    fn the_ram_and_the_disk_arena_are_one_store() {
        let mut vars = Vars::new();
        vars.declare("x", Domain::int_range(0, N - 1));
        let layout = PackedLayout::compile(&vars).expect("one small slot packs");
        for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
            let options = ExploreOptions {
                mode,
                ..ExploreOptions::default()
            };
            let run = Run {
                options: &options,
                threads: 2,
                layout: &layout,
                meter: Meter::start(&Budget::unlimited()),
            };
            let ram = Store::new(&run, None).unwrap();
            let disk = Store::new(&run, Some(8 << 10)).unwrap();
            let (interned, ram_records) = drive(&ram, &layout);
            let (disk_interned, disk_records) = drive(&disk, &layout);
            assert_eq!(disk_interned, interned, "{mode:?}");
            assert_eq!(interned.iter().filter(|hit| hit.1).count(), N as usize);
            assert!(disk_records.is_empty(), "{mode:?}: every run settled away");
            let sealed = |s: &Mutex<Stripe>| match &lock(s).arena {
                Arena::Disk(store) => !store.sealed().is_empty(),
                Arena::Ram { .. } => false,
            };
            assert!(disk.stripes.iter().all(sealed), "{mode:?}");
            let (mut a, mut b, mut rec) = (vec![], vec![], vec![]);
            for &(p, _) in &interned {
                let fp = ram.parent(p, &mut a, &mut rec).unwrap();
                assert_eq!(disk.parent(p, &mut b, &mut rec).unwrap(), fp, "{mode:?}");
                assert_eq!(a, b, "{mode:?}");
                assert_eq!(fp, layout.fingerprint(&a), "{mode:?}");
            }
            let init = [interned[0].0];
            let from_ram = ram.replay(&[ram_records], &init).unwrap();
            let from_disk = disk.replay(&[disk_records], &init).unwrap();
            assert_eq!(from_ram.graph.len(), N as usize);
            assert_eq!(from_ram.graph.first_difference(&from_disk.graph), None);
        }
    }

    /// A record read back from a sealed stripe segment whose checksums
    /// hold but whose row has a code past its slot's domain (`x`'s
    /// eleven bits hold up to 2047, its domain 2000 values) is a typed
    /// error where a worker reads a parent and where the replay reads
    /// the arena — never a table index past its end, nor a panic.
    #[test]
    fn a_disk_row_holding_a_code_past_its_domain_is_corrupt() {
        let mut vars = Vars::new();
        vars.declare("x", Domain::int_range(0, N - 1));
        let layout = PackedLayout::compile(&vars).expect("one small slot packs");
        let options = ExploreOptions::default();
        let run = Run {
            options: &options,
            threads: 1,
            layout: &layout,
            meter: Meter::start(&Budget::unlimited()),
        };
        let store = Store::new(&run, Some(8 << 10)).unwrap();
        let mut bad = layout.pack(&State::new(vec![Value::Int(N - 1)])).unwrap();
        layout.write_code(&mut bad, 0, 2047);
        let mut rec = Vec::new();
        checkpoint::encode_packed_record(None, 0, |out| out.extend_from_slice(&bad), &mut rec);
        {
            let mut stripe = lock(&store.stripes[5]);
            let Arena::Disk(arena) = &mut stripe.arena else {
                panic!("a budgeted store's arenas are on disk");
            };
            arena.append(&rec).unwrap();
            arena.seal().unwrap();
            assert_eq!(arena.sealed().len(), 1, "the record is on disk");
        }
        let corrupt_code = |e: CheckError| match e {
            CheckError::Checkpoint(CheckpointError::Corrupt { detail }) => {
                assert!(detail.contains("slot 0 holds code 2047"), "{detail}");
            }
            other => panic!("{other:?}"),
        };
        let (mut bytes, mut rec) = (Vec::new(), Vec::new());
        corrupt_code(store.parent(pid(5, 0), &mut bytes, &mut rec).unwrap_err());
        corrupt_code(
            store
                .replay(&[], &[pid(5, 0)])
                .err()
                .expect("a corrupt arena"),
        );
    }

    /// Edge records carry pids as dense `u32` words; one that does not
    /// fit is a typed error, never a truncation.
    #[test]
    fn a_pid_too_wide_for_an_edge_record_word_is_a_typed_error() {
        let last = (1usize << 32) / NUM_SHARDS - 1;
        assert_eq!(edge_word(pid(3, 5)).ok(), Some(5 * NUM_SHARDS as u32 + 3));
        assert_eq!(edge_word(pid(NUM_SHARDS - 1, last)).ok(), Some(u32::MAX));
        for p in [pid(0, last + 1), pid(7, 1 << 31)] {
            assert!(matches!(
                edge_word(p),
                Err(CheckError::TooManyStates { limit }) if limit == 1 << 32
            ));
        }
    }
}
