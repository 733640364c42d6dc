//! Hot-path hash collections on a deterministic multiply-mix hasher.
//!
//! The mechanisms' per-slot loops are map-bound once the solver scans
//! run over flat columns: every pending user costs a handful of
//! `HashMap`/`HashSet` operations per slot (solver bid states, running
//! residual index, bid series lookups, pending-set membership). The
//! std default hasher (SipHash behind a random seed) spends more time
//! hashing a 4-byte [`UserId`](crate::UserId) than the probe itself
//! takes, and its per-instance random seed is the one remaining source
//! of run-to-run nondeterminism in otherwise deterministic state.
//!
//! [`FastHasher`] replaces it for *internal, trusted* keys: one
//! rotate-xor-multiply round per written word (the classic
//! Fibonacci-multiply mix, constant `⌊2^64/φ⌋`), no random seed. That
//! is exactly the right trade for solver-internal ids — and exactly
//! the wrong one for attacker-chosen keys, which is why these aliases
//! are opt-in per field rather than a blanket swap: anything keyed by
//! external input should stay on SipHash.
//!
//! Determinism also means iteration order is a pure function of the
//! operation history. The solver still never iterates its map (see
//! `shapley::Solver`'s invariants), but serialized snapshots of
//! [`FastMap`]-backed state are now stable across process restarts.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `⌊2^64 / φ⌋`, the Fibonacci hashing multiplier: odd, and its
/// high-entropy bits spread consecutive keys maximally far apart.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// A deterministic, seedless multiply-mix [`Hasher`] for internal keys
/// (dense ids, small tuples). Not DoS-resistant — never use it for
/// maps keyed by untrusted external input.
#[derive(Debug, Default, Clone)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FIB);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // One avalanche round so low-entropy states still populate the
        // top bits (hashbrown keys its control bytes off the high 7).
        let x = self.0;
        (x ^ (x >> 32)).wrapping_mul(FIB)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.mix(n as u64);
        self.mix((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// The [`std::hash::BuildHasher`] for [`FastHasher`] — `Default` (no
/// seed material), so `FastMap::default()` just works.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` on [`FastHasher`] — for hot, internally-keyed maps.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` on [`FastHasher`] — for hot, internally-keyed sets.
pub type FastSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FastBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_builders() {
        for key in [0u32, 1, 42, u32::MAX] {
            assert_eq!(hash_of(&key), hash_of(&key));
        }
        assert_eq!(
            hash_of(&(crate::UserId(7), 3usize)),
            hash_of(&(crate::UserId(7), 3usize)),
        );
    }

    #[test]
    fn dense_ids_spread_over_the_high_bits() {
        // hashbrown takes the top 7 bits as control tags; sequential
        // ids must not collapse into one tag.
        let tags: std::collections::BTreeSet<u8> =
            (0u32..256).map(|k| (hash_of(&k) >> 57) as u8).collect();
        assert!(tags.len() > 32, "only {} distinct tags", tags.len());
    }

    #[test]
    fn byte_stream_matches_word_writes_only_in_type() {
        // Different write paths may hash differently; what matters is
        // each is self-consistent and non-trivial.
        let a = hash_of(&[1u8, 2, 3, 4, 5, 6, 7, 8, 9]);
        let b = hash_of(&[1u8, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a, b);
    }

    #[test]
    fn fastmap_roundtrips_through_serde() {
        let mut map: FastMap<crate::UserId, i64> = FastMap::default();
        for i in 0..64 {
            map.insert(crate::UserId(i), i64::from(i) * 3);
        }
        let json = serde_json::to_string(&map).expect("serialize");
        let back: FastMap<crate::UserId, i64> = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(map, back);
    }
}
