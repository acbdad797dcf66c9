//! The dedup index of every store: one open-addressed table of `u32`
//! id slots over the store's one fingerprint column.
//!
//! The column holds the unmasked fingerprint of every id since the
//! index last drained, in id order: the RAM body reads a parent's
//! fingerprint there, and a slot's key is read there too, so no key is
//! kept twice. The table is a power of two long and at most ¾ full;
//! a key's home slot is a multiplicative hash of the *masked* key (a
//! narrow mask leaves the top bits zero), and a probe walks the slots
//! after it until the first empty one. Nothing is ever deleted but by a
//! drain, so the ids under one key lie along its probe sequence in
//! insertion order.
//!
//! [`VisitedMode::Fingerprint`](super::VisitedMode) trusts a hit: its
//! `same` answers `true` without looking, so a key holds one id and an
//! intern is one probe sequence. [`VisitedMode::Exact`](super::VisitedMode)
//! verifies a hit against the store's arena, and only a state that
//! differs from every id already under its key is recorded after them —
//! the fingerprint then merely indexes candidates, and collisions cost
//! a comparison, never a conflation.

use super::graph::grown;

/// An empty slot. No id is `u32::MAX`: `checkpoint::id_word` admits
/// none, so every id the stores record fits a slot.
const EMPTY: u32 = u32::MAX;

/// The slot count of a new table.
const FIRST_SLOTS: usize = 16;

pub(super) struct FpIndex {
    /// Ids since `base`, or [`EMPTY`]; a power of two long.
    slots: Vec<u32>,
    /// Occupied slots, at most ¾ of them.
    len: usize,
    /// `64 - log2(slots.len())`: a home slot is the top bits of the
    /// multiplied masked key.
    shift: u32,
    /// The unmasked fingerprint of every id from `base` on, in id order.
    fps: Vec<u64>,
    /// The first id since the last drain.
    base: usize,
    mask: u64,
    /// Ids in `fps` held in no slot, ascending: resumed states whose
    /// key was already recorded, under first-id-wins.
    unindexed: Vec<usize>,
}

impl FpIndex {
    /// An empty index of fingerprints masked by `mask`.
    pub(super) fn new(mask: u64) -> FpIndex {
        FpIndex {
            slots: vec![EMPTY; FIRST_SLOTS],
            len: 0,
            shift: 64 - FIRST_SLOTS.trailing_zeros(),
            fps: Vec::new(),
            base: 0,
            mask,
            unindexed: Vec::new(),
        }
    }

    /// The key `fp` is recorded under.
    #[inline]
    pub(super) fn key(&self, fp: u64) -> u64 {
        fp & self.mask
    }

    /// The unmasked fingerprint of `id`, unless it was drained.
    #[inline]
    pub(super) fn fp(&self, id: usize) -> Option<u64> {
        self.fps.get(id.checked_sub(self.base)?).copied()
    }

    /// The first id since the last drain: every id drained is below it.
    pub(super) fn base(&self) -> usize {
        self.base
    }

    /// Ids recorded in slots since the last drain.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// The bytes the slot table and the column take, as allocated.
    pub(super) fn allocated_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<u32>()
            + (self.fps.capacity() + self.unindexed.capacity()) * size_of::<u64>()
    }

    /// What recording one more id in a slot adds to
    /// [`allocated_bytes`](Self::allocated_bytes): the table doubled
    /// when it would pass ¾ full (the old one freed first), and the
    /// column's growth.
    #[inline]
    pub(super) fn insert_bytes(&self) -> usize {
        let slots = match self.crowded() {
            true => self.slots.len() * size_of::<u32>(),
            false => 0,
        };
        let cap = self.fps.capacity();
        slots + (grown(cap, self.fps.len() + 1) - cap) * size_of::<u64>()
    }

    /// Whether one more id would leave the table more than ¾ full.
    #[inline]
    fn crowded(&self) -> bool {
        4 * (self.len + 1) > 3 * self.slots.len()
    }

    /// Appends `fp` to the column, grown as
    /// [`insert_bytes`](Self::insert_bytes) says it grows.
    #[inline]
    fn push_fp(&mut self, fp: u64) {
        let cap = grown(self.fps.capacity(), self.fps.len() + 1);
        self.fps.reserve_exact(cap - self.fps.len());
        self.fps.push(fp);
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Looks up or records the state with unmasked fingerprint `fp`:
    /// `(id, whether it is new)`. `same(id, fp)` says whether the state
    /// is the one recorded under `id`, whose unmasked fingerprint is
    /// `fp` when the index holds it; `beyond` asks it about candidates
    /// this index does not hold (a spilled tier); on a full miss
    /// `admit` charges the state and allocates its id, the next in the
    /// column — an `Err` from it leaves the index untouched, so a
    /// budget cut lands *before* the insert.
    #[inline]
    pub(super) fn intern<E, S: FnMut(usize, Option<u64>) -> Result<bool, E>>(
        &mut self,
        fp: u64,
        mut same: S,
        beyond: impl FnOnce(&mut S) -> Result<Option<usize>, E>,
        admit: impl FnOnce() -> Result<usize, E>,
    ) -> Result<(usize, bool), E> {
        let key = self.key(fp);
        let wrap = self.slots.len() - 1;
        let mut at = self.home(key);
        loop {
            let slot = self.slots[at];
            if slot == EMPTY {
                break;
            }
            let (id, cand) = (slot as usize, self.fps[slot as usize - self.base]);
            if cand & self.mask == key && same(id, Some(cand))? {
                return Ok((id, false));
            }
            at = (at + 1) & wrap;
        }
        if let Some(id) = beyond(&mut same)? {
            return Ok((id, false));
        }
        let id = admit()?;
        debug_assert_eq!(id, self.base + self.fps.len(), "ids are the column's");
        let word = u32::try_from(id)
            .ok()
            .filter(|&word| word != EMPTY)
            .expect("`checkpoint::id_word` admits every id a store records");
        if self.crowded() {
            self.grow();
            at = vacant(&self.slots, self.home(key));
        }
        self.slots[at] = word;
        self.len += 1;
        self.push_fp(fp);
        Ok((id, true))
    }

    /// Appends `fp` to the column under the next id without a slot: a
    /// resumed state whose key first-id-wins gave to an earlier id.
    pub(super) fn push_unindexed(&mut self, fp: u64) {
        self.unindexed.push(self.base + self.fps.len());
        self.push_fp(fp);
    }

    /// Every `(key, id)` held in a slot, in id order.
    fn indexed(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        let mut skip = self.unindexed.iter().peekable();
        (self.base..)
            .zip(&self.fps)
            .filter(move |&(id, _)| skip.next_if_eq(&&id).is_none())
            .map(|(id, &fp)| (fp & self.mask, id))
    }

    /// Doubles the table. The old one goes first: the new one is
    /// refilled from the column, in id order, so each key's ids stay in
    /// insertion order along its probe sequence (each id was checked to
    /// fit a slot when it was first recorded).
    fn grow(&mut self) {
        let len = 2 * self.slots.len();
        self.slots = Vec::new();
        self.shift -= 1;
        let mut slots = vec![EMPTY; len];
        for (key, id) in self.indexed() {
            let at = vacant(&slots, self.home(key));
            slots[at] = id as u32;
        }
        self.slots = slots;
    }

    /// Frees the slot table ahead of a [`drain`](Self::drain) that
    /// releases the index's room, for a caller with work to do first: no
    /// lookup may come in between, and the drain reads the column only.
    pub(super) fn free_slots(&mut self) {
        self.slots = Vec::new();
    }

    /// Empties the index, handing `take` every recorded `(key, id)` in
    /// id order. The column starts again at the next id. With `release`
    /// the slot table is freed before the first `take` (a drain reads
    /// the column only) and the column after the last, and the index
    /// starts again as a new one does; without, both keep their room
    /// for the next as many ids.
    pub(super) fn drain<E>(
        &mut self,
        take: impl FnMut((u64, usize)) -> Result<(), E>,
        release: bool,
    ) -> Result<(), E> {
        if release {
            self.free_slots();
        }
        self.indexed().try_for_each(take)?;
        self.base += self.fps.len();
        self.len = 0;
        if release {
            (self.fps, self.unindexed) = (Vec::new(), Vec::new());
            self.slots = vec![EMPTY; FIRST_SLOTS];
            self.shift = 64 - FIRST_SLOTS.trailing_zeros();
        } else {
            self.fps.clear();
            self.unindexed.clear();
            self.slots.fill(EMPTY);
        }
        Ok(())
    }
}

/// The first empty slot of `slots` from `at` on, wrapping around.
fn vacant(slots: &[u32], mut at: usize) -> usize {
    while slots[at] != EMPTY {
        at = (at + 1) & (slots.len() - 1);
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::convert::Infallible;

    /// Interns the next id under `fp`, `same` deciding every
    /// comparison, and returns the candidates it was asked about.
    fn intern(index: &mut FpIndex, fp: u64, same: bool) -> ((usize, bool), Vec<usize>) {
        let mut asked = Vec::new();
        let next = index.base + index.fps.len();
        let Ok(got) = index.intern(
            fp,
            |cand, _| {
                asked.push(cand);
                Ok::<_, Infallible>(same)
            },
            |_| Ok(None),
            || Ok(next),
        );
        (got, asked)
    }

    fn drained(index: &mut FpIndex) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        drain_into(index, &mut out, false);
        out
    }

    /// Drains `index` onto `out`, releasing its room if `release`.
    fn drain_into(index: &mut FpIndex, out: &mut Vec<(u64, usize)>, release: bool) {
        let take = |pair| {
            out.push(pair);
            Ok::<_, Infallible>(())
        };
        let Ok(()) = index.drain(take, release);
    }

    #[test]
    fn exact_mode_keeps_insertion_order_fingerprint_mode_the_first() {
        // Exact mode: every comparison is a verified mismatch, so the
        // ids pile up under the key and each is a candidate, oldest
        // first — also across the table's growth.
        let mut exact = FpIndex::new(u64::MAX);
        assert_eq!(intern(&mut exact, 7, false), ((0, true), vec![]));
        assert_eq!(intern(&mut exact, 7, false), ((1, true), vec![0]));
        assert_eq!(intern(&mut exact, 7, false), ((2, true), vec![0, 1]));
        assert_eq!(intern(&mut exact, 8, false), ((3, true), vec![]));
        for id in 4..40 {
            assert_eq!(
                intern(&mut exact, 7, false).1,
                (0..id).filter(|&i| i != 3).collect::<Vec<_>>()
            );
        }
        assert!(exact.slots.len() > FIRST_SLOTS, "the table grew");
        assert_eq!(exact.fp(3), Some(8));
        let pairs = drained(&mut exact);
        assert_eq!(pairs.len(), 40);
        assert!(pairs
            .iter()
            .enumerate()
            .all(|(i, &(key, id))| id == i && key == if i == 3 { 8 } else { 7 }));
        assert_eq!((exact.fp(3), exact.len()), (None, 0));
        // After a drain the column restarts at the next id.
        assert_eq!(intern(&mut exact, 7, false), ((40, true), vec![]));
        assert_eq!(exact.fp(40), Some(7));

        // Fingerprint mode trusts the first hit and records it once.
        let mut fp = FpIndex::new(u64::MAX);
        assert_eq!(intern(&mut fp, 7, true), ((0, true), vec![]));
        assert_eq!(intern(&mut fp, 7, true), ((0, false), vec![0]));
        assert_eq!(intern(&mut fp, 7, true), ((0, false), vec![0]));
        assert_eq!(fp.len(), 1);
        assert_eq!(drained(&mut fp), [(7, 0)]);
    }

    #[test]
    fn a_refused_admission_leaves_the_index_untouched() {
        let mut index = FpIndex::new(u64::MAX);
        let refuse = |index: &mut FpIndex, same: bool| {
            index.intern(7, |_, _| Ok(same), |_| Ok(None), || Err::<usize, _>("cut"))
        };
        assert_eq!(refuse(&mut index, false), Err("cut"));
        assert_eq!((index.len(), index.fp(0)), (0, None));
        assert_eq!(intern(&mut index, 7, false).0, (0, true));
        assert_eq!(refuse(&mut index, false), Err("cut"));
        assert_eq!(refuse(&mut index, true), Ok((0, false)));
        assert_eq!((index.len(), index.fp(1)), (1, None));
        assert_eq!(drained(&mut index), [(7, 0)]);
    }

    /// One step of a stream: `Intern { fp, state, refuse }` asks for the
    /// state `(fp, state)` — two ids are the same state only when both
    /// agree — with its admission refused if `refuse`; `Seed` records
    /// it as a resumed state does (an exact seed is always new, a
    /// fingerprint seed whose key is known goes unindexed); `Drain`
    /// empties the index into the spilled tier, releasing its room if
    /// it says so.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Intern { fp: u64, state: u8, refuse: bool },
        Seed { fp: u64, state: u8 },
        Drain(bool),
    }

    /// A stream of 0–300 steps over fingerprints from a pool of
    /// `pool` random 64-bit values, so keys repeat, masked to `bits`.
    fn stream() -> impl Strategy<Value = (bool, u32, Vec<Op>)> {
        let op = (any::<u64>(), 0..3u8, 0..100u32).prop_map(|(fp, state, roll)| match roll {
            0..=2 => Op::Drain(roll == 0),
            3..=10 => Op::Seed { fp, state },
            11..=20 => Op::Intern {
                fp,
                state,
                refuse: true,
            },
            _ => Op::Intern {
                fp,
                state,
                refuse: false,
            },
        });
        let bits = prop_oneof![Just(64u32), 1..9u32];
        (
            any::<bool>(),
            bits,
            1..40u64,
            proptest::collection::vec(op, 0..300),
        )
            .prop_map(|(exact, bits, pool, ops)| {
                // Fold each fingerprint into the pool's: random bits
                // above, a small choice of values below.
                let ops = ops
                    .into_iter()
                    .map(|op| match op {
                        Op::Intern { fp, state, refuse } => Op::Intern {
                            fp: pooled(fp, pool),
                            state,
                            refuse,
                        },
                        Op::Seed { fp, state } => Op::Seed {
                            fp: pooled(fp, pool),
                            state,
                        },
                        Op::Drain(release) => Op::Drain(release),
                    })
                    .collect();
                (exact, bits, ops)
            })
    }

    fn pooled(fp: u64, pool: u64) -> u64 {
        (fp % pool).wrapping_mul(0xD6E8_FEB8_6659_FD93)
    }

    /// The reference: key → ids, in insertion order, for the hot tier
    /// and for everything drained, and the state of every id.
    #[derive(Default)]
    struct Reference {
        hot: BTreeMap<u64, Vec<usize>>,
        spilled: BTreeMap<u64, Vec<usize>>,
        states: Vec<(u64, u8)>,
    }

    impl Reference {
        /// Candidates for `key`, hot tier first, each in insertion
        /// order, each one asked (and listed in `asked`) until the first
        /// `same` one.
        fn find(
            &self,
            key: u64,
            same: impl Fn(usize) -> bool,
            asked: &mut Vec<usize>,
        ) -> Option<usize> {
            let hot = self.hot.get(&key).into_iter().flatten();
            let spilled = self.spilled.get(&key).into_iter().flatten();
            hot.chain(spilled).copied().find(|&id| {
                asked.push(id);
                same(id)
            })
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a reference map: the same `(id, is_new)` answers, the
        /// same drained `(key, id)` multiset, every fingerprint since
        /// the last drain readable, never more than ¾ full, and every
        /// new id growing the room the index takes by what was foretold.
        #[test]
        fn the_table_answers_as_a_map_of_keys_to_ids((exact, bits, ops) in stream()) {
            let mask = if bits == 64 { u64::MAX } else { (1 << bits) - 1 };
            let mut index = FpIndex::new(mask);
            let mut reference = Reference::default();
            let mut spilled: Vec<(u64, usize)> = Vec::new();
            let mut expected_spilled: Vec<(u64, usize)> = Vec::new();
            for op in ops {
                let (fp, state, refuse, seed) = match op {
                    Op::Drain(release) => {
                        drain_into(&mut index, &mut spilled, release);
                        if release {
                            prop_assert_eq!(index.allocated_bytes(), 4 * FIRST_SLOTS);
                        }
                        for (key, ids) in std::mem::take(&mut reference.hot) {
                            for id in ids {
                                expected_spilled.push((key, id));
                                reference.spilled.entry(key).or_default().push(id);
                            }
                        }
                        prop_assert_eq!(index.len(), 0);
                        continue;
                    }
                    Op::Intern { fp, state, refuse } => (fp, state, refuse, false),
                    Op::Seed { fp, state } => (fp, state, false, true),
                };
                let key = fp & mask;
                let next = reference.states.len();
                let states = &reference.states;
                // Fingerprint mode trusts every candidate; an exact
                // seed is never the same as one.
                let same = |id: usize| !exact || (!seed && states[id] == (fp, state));
                let (mut asked, mut want_asked) = (Vec::new(), Vec::new());
                let want = match reference.find(key, same, &mut want_asked) {
                    Some(id) => Ok((id, false)),
                    None if refuse => Err(()),
                    None => Ok((next, true)),
                };
                let spilled_ref = &reference.spilled;
                let grown = index.allocated_bytes() + index.insert_bytes();
                let got = index.intern(
                    fp,
                    |id, _| {
                        asked.push(id);
                        Ok(same(id))
                    },
                    |same: &mut _| {
                        for &id in spilled_ref.get(&key).into_iter().flatten() {
                            if same(id, None)? {
                                return Ok(Some(id));
                            }
                        }
                        Ok(None)
                    },
                    || if refuse { Err(()) } else { Ok(next) },
                );
                prop_assert_eq!(got, want);
                prop_assert_eq!(asked, want_asked);
                match got {
                    Ok((id, true)) => {
                        prop_assert_eq!(index.allocated_bytes(), grown);
                        reference.hot.entry(key).or_default().push(id);
                        reference.states.push((fp, state));
                    }
                    Ok((_, false)) if seed => {
                        index.push_unindexed(fp);
                        reference.states.push((fp, state));
                    }
                    _ => {}
                }
                prop_assert!(4 * index.len() <= 3 * index.slots.len());
                prop_assert_eq!(index.len(), reference.hot.values().map(Vec::len).sum::<usize>());
                for (id, &(fp, _)) in reference.states.iter().enumerate().skip(index.base) {
                    prop_assert_eq!(index.fp(id), Some(fp));
                }
            }
            drain_into(&mut index, &mut spilled, false);
            for (key, ids) in reference.hot {
                expected_spilled.extend(ids.into_iter().map(|id| (key, id)));
            }
            spilled.sort_unstable();
            expected_spilled.sort_unstable();
            prop_assert_eq!(spilled, expected_spilled);
        }
    }
}
