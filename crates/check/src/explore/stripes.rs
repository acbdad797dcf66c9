//! The work-stealing engine's one store ([`super::ws`]): a parallel
//! run's states and dedup index, in RAM.
//!
//! [`NUM_SHARDS`] independently locked stripes, a state in the one its
//! masked fingerprint picks. Each holds its dedup index (an
//! [`FpIndex`]) and its packed arena — rows of the layout's stride back
//! to back in a `Vec<u8>`, plus their unmasked fingerprints — so one
//! lock covers an intern's probe, comparisons and append, and a parent
//! read is a slice copy. A state's [`Pid`] is its stripe and its index
//! in that arena. Edges stay in the workers' records.
//!
//! **Determinism.** A lookup's answer is a function of the stripe's
//! membership, never of when or by whom a state was interned, and the
//! engine's canonical replay erases the pids: a completed graph is
//! **byte-identical** to the sequential engine's (up to the parallel
//! engine's one caveat: under *forced* fingerprint collisions in
//! fingerprint mode, which member of a collision class survives depends
//! on arrival order at two or more workers).
//!
//! No memory budget reaches this store: a budgeted run is the
//! sequential loop over its disk-backed store (`plan.rs`).

use super::index::FpIndex;
use super::ws::{EdgeRecord, Run};
use super::*;
use crate::sync::shard_for;

/// One stripe: the dedup index (masked fingerprint → local index) and
/// the arena behind it, `fps.len()` packed rows.
#[derive(Default)]
struct Stripe {
    index: FpIndex,
    packed: Vec<u8>,
    fps: Vec<u64>,
}

impl Stripe {
    fn row(&self, local: usize, stride: usize) -> &[u8] {
        &self.packed[local * stride..][..stride]
    }
}

/// The store of one work-stealing run; see the module docs. Every
/// method but [`replay`](Self::replay) is called by many workers at
/// once.
pub(super) struct Store<'a> {
    stripes: Vec<Mutex<Stripe>>,
    mask: u64,
    run: &'a Run<'a>,
}

impl<'a> Store<'a> {
    pub(super) fn new(run: &'a Run<'a>) -> Store<'a> {
        Store {
            stripes: (0..NUM_SHARDS).map(|_| Mutex::default()).collect(),
            mask: run.options.mask(),
            run,
        }
    }

    /// Copies `parent`'s packed bytes into `bytes`; returns its
    /// unmasked fingerprint.
    pub(super) fn parent(&self, parent: Pid, bytes: &mut Vec<u8>) -> u64 {
        let stripe = lock(&self.stripes[shard_of(parent)]);
        let local = local_of(parent);
        bytes.clear();
        bytes.extend_from_slice(stripe.row(local, self.run.layout.stride()));
        stripe.fps[local]
    }

    /// Looks up or records the state with unmasked fingerprint `fp`
    /// whose packed bytes `write` appends: its pid and whether it is
    /// new. A `charged` intern (all but resume seeding) charges a new
    /// state to the meter *before* anything is recorded, so a budget cut
    /// (the `Err`) leaves the store untouched. Fingerprint mode trusts a
    /// hit and runs `write` only for a new state, straight into the
    /// arena: a visited successor never builds its bytes. Exact mode
    /// writes them to `probe` first and compares every candidate under
    /// the key with its row, under the stripe lock (packing is injective
    /// on in-domain states: forced collisions give false candidates,
    /// never false answers).
    #[inline]
    pub(super) fn intern(
        &self,
        fp: u64,
        write: impl FnOnce(&mut Vec<u8>),
        charged: bool,
        probe: &mut Vec<u8>,
    ) -> Result<(Pid, bool), ExhaustReason> {
        let (key, meter) = (fp & self.mask, &self.run.meter);
        let i = shard_for(key);
        let mut stripe = lock(&self.stripes[i]);
        let Stripe { index, packed, fps } = &mut *stripe;
        let next = fps.len();
        let admit = || match charged.then(|| meter.charge_state()).flatten() {
            Some(reason) => Err(reason),
            None => Ok(next),
        };
        let (local, is_new) = match self.run.options.mode {
            VisitedMode::Fingerprint => {
                let hit = index.intern(key, |_| Ok(true), |_| Ok(None), admit)?;
                if hit.1 {
                    write(packed);
                }
                hit
            }
            VisitedMode::Exact => {
                probe.clear();
                write(probe);
                let stride = self.run.layout.stride();
                let same = |cand: usize| Ok(packed[cand * stride..][..stride] == probe[..]);
                let hit = index.intern(key, same, |_| Ok(None), admit)?;
                if hit.1 {
                    packed.extend_from_slice(probe);
                }
                hit
            }
        };
        if is_new {
            fps.push(fp);
        }
        Ok((pid(i, local), is_new))
    }

    /// The canonical [`Replay`], from the initial pids `init`, of every
    /// worker's `records`, with the workers stopped: the graph takes the
    /// stripes' rows in canonical order.
    pub(super) fn replay(&self, records: &[Vec<EdgeRecord>], init: &[Pid]) -> Replay {
        let stripes: Vec<_> = self.stripes.iter().map(lock).collect();
        let lens: Vec<usize> = stripes.iter().map(|s| s.fps.len()).collect();
        let layout = self.run.layout;
        let stride = layout.stride();
        let row_of = |p: Pid| stripes[shard_of(p)].row(local_of(p), stride);
        replay_records(&lens, records, init, layout, row_of)
    }
}
