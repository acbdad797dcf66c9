//! Small synchronization utilities shared by the exploration
//! engines: the poison-recovering [`lock`] helper and the stripe a key
//! lands in.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering from poisoning: the engines tolerate
/// worker panics, and the data a panicking worker may have left
/// behind is rolled back explicitly (re-queued claims, truncated
/// partial expansions) rather than abandoned to a poisoned lock.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Stripe count of the work-stealing engine's store (a power of two;
/// stripes are picked from a key's low bits, see [`shard_for`]).
pub(crate) const NUM_SHARDS: usize = 64;

/// The stripe a (masked-fingerprint) key lands in.
pub(crate) fn shard_for(key: u64) -> usize {
    (key as usize) & (NUM_SHARDS - 1)
}
