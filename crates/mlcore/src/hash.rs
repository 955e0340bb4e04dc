//! A vendored FxHash-style hasher for hot lookup maps.
//!
//! The std `HashMap` defaults to SipHash-1-3, whose per-lookup cost (key
//! scheduling plus 8 rounds over the data) dominates the short-string
//! lookups the encode path performs millions of times: dictionary interning,
//! `ColumnStore::column_index` and `PairCatalog` name resolution.  [`FxHasher`] follows the Rust compiler's FxHash design
//! (Firefox heritage): one add and one multiply per 8-byte chunk, fully
//! deterministic across processes — which the training pipeline requires
//! anyway, since capping decisions and shard merges must not depend on a
//! per-process random hash seed.
//!
//! Two deliberate deviations from classic rotate-xor Fx: the chunk mix is
//! **add-multiply** (a polynomial hash over 2⁶⁴), because the rotate-xor
//! form lets a difference confined to a chunk's top byte cancel against a
//! short tail (measured: ~19% full-64-bit collisions over 1000 `metric_{i}`
//! names), and [`Hasher::finish`] applies a xorshift-multiply finaliser so
//! the low bits the hash table indexes with carry full entropy.
//!
//! Not DoS-resistant: use only for maps keyed by trusted, internally
//! generated data (feature names, interned values), never for untrusted
//! input.  Record ids arrive over the wire, so the execution log's id index
//! is a std `HashMap`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the Fx mixing step (64-bit golden-ratio-like constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiplier of the xorshift-multiply finaliser.
const FINALIZE: u64 = 0xd6e8_feb8_6659_fd93;

/// The Fx add-multiply hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add_to_hash(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            self.add_to_hash(u64::from(u32::from_le_bytes(
                bytes[..4].try_into().unwrap(),
            )));
            bytes = &bytes[4..];
        }
        for &byte in bytes {
            self.add_to_hash(u64::from(byte));
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
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut z = self.hash;
        z ^= z >> 32;
        z = z.wrapping_mul(FINALIZE);
        z ^ (z >> 32)
    }
}

/// `BuildHasher` for [`FxHasher`]; default-constructible and deterministic.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn hashing_is_deterministic_and_disperses() {
        assert_eq!(hash_of(&"inputsize"), hash_of(&"inputsize"));
        assert_ne!(hash_of(&"inputsize"), hash_of(&"inputsizf"));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        // Distinct hashes across a realistic feature-name population.
        let names: Vec<String> = (0..1000).map(|i| format!("metric_{i}")).collect();
        let hashes: std::collections::HashSet<u64> = names.iter().map(hash_of).collect();
        assert_eq!(hashes.len(), names.len());
    }

    #[test]
    fn fx_map_behaves_like_a_map() {
        let mut map: FxHashMap<String, usize> = FxHashMap::default();
        map.insert("a".to_string(), 1);
        map.insert("b".to_string(), 2);
        assert_eq!(map.get("a"), Some(&1));
        assert_eq!(map.get("c"), None);
        let mut set: FxHashSet<&str> = FxHashSet::default();
        set.insert("x");
        assert!(set.contains("x"));
    }
}
