//! Small synchronization utilities shared by the exploration
//! engines: the poison-recovering [`lock`] helper and the
//! [`Striped`] lock-striping building block every parallel visited
//! set in this crate is built on.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering from poisoning: the engines tolerate
/// worker panics, and the data a panicking worker may have left
/// behind is rolled back explicitly (re-queued claims, truncated
/// partial expansions) rather than abandoned to a poisoned lock.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shard count of every lock-striped structure in this crate (a power
/// of two; shards are picked from a key's low bits, see [`shard_for`]).
/// The work-stealing and parallel-spill visited sets stripe across
/// this many locks.
pub(crate) const NUM_SHARDS: usize = 64;

/// The shard a (masked-fingerprint) key lands in.
pub(crate) fn shard_for(key: u64) -> usize {
    (key as usize) & (NUM_SHARDS - 1)
}

/// [`NUM_SHARDS`] independently-locked stripes of `T` — the shared
/// sharding machinery of the parallel engines' visited sets. All
/// locking goes through the poison-recovering [`lock`]: every
/// stripe's critical sections keep its data structurally consistent
/// (map inserts and arena pushes happen together), so a panicking
/// worker never leaves torn state behind a poisoned lock, and
/// propagating the poison would only turn one worker's bug into a
/// whole-run abort.
pub(crate) struct Striped<T> {
    shards: Vec<Mutex<T>>,
}

impl<T> Striped<T> {
    /// One stripe per shard, each built by `make`.
    pub(crate) fn new(mut make: impl FnMut() -> T) -> Striped<T> {
        Striped {
            shards: (0..NUM_SHARDS).map(|_| Mutex::new(make())).collect(),
        }
    }

    /// Locks the stripe `key` lands in, returning the shard index too
    /// (provisional ids encode it).
    pub(crate) fn lock_key(&self, key: u64) -> (usize, MutexGuard<'_, T>) {
        let i = shard_for(key);
        (i, lock(&self.shards[i]))
    }

    /// Locks stripe `i` directly.
    pub(crate) fn lock_shard(&self, i: usize) -> MutexGuard<'_, T> {
        lock(&self.shards[i])
    }

    /// Locks each stripe in shard order, one at a time.
    pub(crate) fn iter_locked(&self) -> impl Iterator<Item = MutexGuard<'_, T>> {
        self.shards.iter().map(lock)
    }
}
