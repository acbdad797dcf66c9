//! The dedup index of every store: masked fingerprint → the first id
//! recorded under it.
//!
//! [`VisitedMode::Fingerprint`](super::VisitedMode) trusts a hit: its
//! `same` answers `true` without looking, so a key holds one id and an
//! intern is one hash probe. [`VisitedMode::Exact`](super::VisitedMode)
//! verifies a hit against the store's arena, and only a state that
//! differs from every id already under its key is chained there — the
//! fingerprint then merely indexes candidates, and collisions cost a
//! comparison, never a conflation.

use fxhash::FxHashMap;
use std::collections::hash_map::Entry;

#[derive(Default)]
pub(super) struct FpIndex {
    first: FxHashMap<u64, usize>,
    /// Second and later ids under a key, in insertion order; every key
    /// here is also in `first`.
    chained: FxHashMap<u64, Vec<usize>>,
}

impl FpIndex {
    /// Looks up or records the state with masked fingerprint `key`:
    /// `(id, whether it is new)`. `same(id)` says whether the state is
    /// the one recorded under `id`; `beyond` asks it about candidates
    /// this index does not hold (a spilled tier); on a full miss
    /// `admit` charges the state and allocates its id — an `Err` from
    /// it leaves the index untouched, so a budget cut lands *before*
    /// the insert.
    #[inline]
    pub(super) fn intern<E, S: FnMut(usize) -> Result<bool, E>>(
        &mut self,
        key: u64,
        mut same: S,
        beyond: impl FnOnce(&mut S) -> Result<Option<usize>, E>,
        admit: impl FnOnce() -> Result<usize, E>,
    ) -> Result<(usize, bool), E> {
        match self.first.entry(key) {
            Entry::Vacant(slot) => {
                if let Some(id) = beyond(&mut same)? {
                    return Ok((id, false));
                }
                let id = admit()?;
                slot.insert(id);
                Ok((id, true))
            }
            Entry::Occupied(first) => {
                let first = *first.get();
                if same(first)? {
                    return Ok((first, false));
                }
                for &id in self.chained.get(&key).into_iter().flatten() {
                    if same(id)? {
                        return Ok((id, false));
                    }
                }
                if let Some(id) = beyond(&mut same)? {
                    return Ok((id, false));
                }
                let id = admit()?;
                self.chained.entry(key).or_default().push(id);
                Ok((id, true))
            }
        }
    }

    /// Empties the index into `(key, id)` pairs, in no particular
    /// order.
    pub(super) fn drain(&mut self) -> impl Iterator<Item = (u64, usize)> + '_ {
        let chained = self
            .chained
            .drain()
            .flat_map(|(key, ids)| ids.into_iter().map(move |id| (key, id)));
        self.first.drain().chain(chained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    /// Interns `id` under `key`, `same` deciding every comparison, and
    /// returns the candidates it was asked about.
    fn intern(index: &mut FpIndex, key: u64, id: usize, same: bool) -> ((usize, bool), Vec<usize>) {
        let mut asked = Vec::new();
        let Ok(got) = index.intern(
            key,
            |cand| {
                asked.push(cand);
                Ok::<_, Infallible>(same)
            },
            |_| Ok(None),
            || Ok(id),
        );
        (got, asked)
    }

    #[test]
    fn exact_mode_chains_in_insertion_order_and_fingerprint_mode_keeps_the_first() {
        // Exact mode: every comparison is a verified mismatch, so the
        // ids pile up under the key and each is a candidate, oldest
        // first.
        let mut exact = FpIndex::default();
        assert_eq!(intern(&mut exact, 7, 10, false), ((10, true), vec![]));
        assert_eq!(intern(&mut exact, 7, 11, false), ((11, true), vec![10]));
        assert_eq!(intern(&mut exact, 7, 12, false), ((12, true), vec![10, 11]));
        assert_eq!(intern(&mut exact, 8, 13, false), ((13, true), vec![]));
        let mut drained: Vec<_> = exact.drain().collect();
        drained.sort_unstable();
        assert_eq!(drained, [(7, 10), (7, 11), (7, 12), (8, 13)]);

        // Fingerprint mode trusts the first hit and never chains.
        let mut fp = FpIndex::default();
        assert_eq!(intern(&mut fp, 7, 10, true), ((10, true), vec![]));
        assert_eq!(intern(&mut fp, 7, 11, true), ((10, false), vec![10]));
        assert_eq!(intern(&mut fp, 7, 12, true), ((10, false), vec![10]));
        assert!(fp.chained.is_empty());
        assert_eq!(fp.drain().collect::<Vec<_>>(), [(7, 10)]);
    }

    #[test]
    fn a_refused_admission_leaves_the_index_untouched() {
        let mut index = FpIndex::default();
        let refuse = |index: &mut FpIndex, same: bool| {
            index.intern(7, |_| Ok(same), |_| Ok(None), || Err::<usize, _>("cut"))
        };
        assert_eq!(refuse(&mut index, false), Err("cut"));
        assert_eq!(intern(&mut index, 7, 10, false).0, (10, true));
        assert_eq!(refuse(&mut index, false), Err("cut"));
        assert_eq!(refuse(&mut index, true), Ok((10, false)));
        assert_eq!(index.drain().collect::<Vec<_>>(), [(7, 10)]);
    }
}
