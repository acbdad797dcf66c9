//! Offline stand-in for a fast non-cryptographic hasher.
//!
//! The build environment has no network access, so this workspace
//! vendors its own implementation of the well-known FxHash algorithm
//! (the multiply-rotate mixer popularized by Firefox and `rustc-hash`).
//! It is **not** collision-resistant against adversarial inputs — it is
//! used for state fingerprinting and hot-path hash maps inside the
//! explicit-state checker, where inputs are machine-generated states
//! and throughput is what matters. SipHash (`std`'s default) remains
//! available wherever DoS resistance could conceivably matter.
//!
//! Provided API subset: [`FxHasher`], [`FxBuildHasher`], and the
//! [`FxHashMap`] / [`FxHashSet`] aliases.

#![forbid(unsafe_code)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplicative constant of the Fx mixer (a 64-bit odd constant
/// derived from the golden ratio, as used by rustc-hash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic, deterministic 64-bit hasher.
///
/// Word-at-a-time multiply-rotate mixing: each written word `w` updates
/// the accumulator as `h = (rotl5(h) ^ w) * SEED`. Unkeyed, so hashes
/// are stable within a process run (and across runs, on a fixed target
/// endianness) — which is what state fingerprinting needs.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold in the length so "ab" ++ "" and "a" ++ "b" differ.
            self.add_to_hash(u64::from_le_bytes(tail) ^ (rest.len() as u64));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }

    #[inline]
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }

    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

/// [`std::hash::BuildHasher`] producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed by [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_value_sensitive() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn byte_streams_distinguish_boundaries() {
        assert_ne!(hash_of(&"ab"), hash_of(&"a"));
        assert_ne!(
            hash_of(&b"abcdefgh".as_slice()),
            hash_of(&b"abcdefg".as_slice())
        );
        // Longer-than-word inputs exercise the chunked path.
        assert_ne!(
            hash_of(&b"abcdefghijklmnop".as_slice()),
            hash_of(&b"abcdefghijklmnoq".as_slice())
        );
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<String, usize> = FxHashMap::default();
        m.insert("a".into(), 1);
        assert_eq!(m.get("a"), Some(&1));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(s.contains(&7));
    }

    #[test]
    fn spreads_small_ints() {
        // Not a statistical test — just a guard against a degenerate
        // implementation. Small consecutive keys must produce distinct
        // hashes whose *high* bits vary (hashbrown derives its control
        // bytes from the top bits).
        let hs: Vec<u64> = (0u64..64).map(|i| hash_of(&i)).collect();
        let distinct: FxHashSet<u64> = hs.iter().copied().collect();
        assert_eq!(distinct.len(), hs.len());
        let top_bytes: FxHashSet<u8> = hs.iter().map(|h| (h >> 56) as u8).collect();
        assert!(top_bytes.len() > 16, "high bits barely vary: {top_bytes:?}");
    }
}
