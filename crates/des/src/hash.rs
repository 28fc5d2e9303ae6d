//! A deterministic, seed-free fast hasher for the simulator's hot maps.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3) is keyed with a random
//! seed and costs tens of nanoseconds per small key — both properties
//! are wrong for the hot path: the kernel filter's verdict cache does
//! a lookup per packet and consumer, and the simulator must behave
//! identically from run to run. [`FastHash`] is an FxHash-style
//! multiply-rotate-xor mixer: fixed constants, no per-process seed, a
//! handful of arithmetic instructions per word.
//!
//! **When to use it:** only for maps whose *iteration order is never
//! observed* (lookup/insert/remove by key), keyed by trusted, internal
//! values. Simulation results must not depend on bucket layout; every
//! use in this workspace goes through keyed access only. Do not use it
//! for anything fed by untrusted input — there is no DoS resistance.

use std::hash::{BuildHasher, Hasher};

/// The Firefox/rustc FxHash multiplier (a 64-bit prime-ish constant
/// chosen for good avalanche under `rotate ^ mul`).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// [`BuildHasher`] for [`FastHasher`]: stateless, so every map built
/// from it hashes identically in every run and process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastHash;

impl BuildHasher for FastHash {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher { state: 0 }
    }
}

/// An FxHash-style streaming hasher (see [`FastHash`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the byte count in so "ab" ++ "\0" cannot alias "ab".
            self.mix(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        FastHash.hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of("capture"), hash_of("capture"));
        // Pinned value: the hash must never change across versions or
        // processes (no random seed anywhere).
        assert_eq!(hash_of(0u64), 0);
        assert_ne!(hash_of(1u64), hash_of(2u64));
    }

    #[test]
    fn distinguishes_nearby_u64_keys() {
        // Sequence numbers are consecutive; the mixer must spread them.
        let hashes: Vec<u64> = (0u64..1000).map(hash_of).collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), hashes.len(), "collisions on 0..1000");
    }

    #[test]
    fn byte_slices_do_not_alias_on_padding() {
        assert_ne!(hash_of([0u8; 7].as_slice()), hash_of([0u8; 8].as_slice()));
        assert_ne!(hash_of(b"ab".as_slice()), hash_of(b"ab\0".as_slice()));
    }

    #[test]
    fn works_as_a_hashmap_hasher() {
        let mut m: HashMap<u64, u32, FastHash> = HashMap::default();
        for i in 0..100 {
            m.insert(i, (i * 2) as u32);
        }
        assert_eq!(m.get(&7), Some(&14));
        m.remove(&7);
        assert_eq!(m.get(&7), None);
        assert_eq!(m.len(), 99);
    }
}
