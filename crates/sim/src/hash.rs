//! A fast, deterministic hasher for the simulator's hot-path maps.
//!
//! `std`'s default `HashMap` hasher is SipHash-1-3 with per-process
//! random keys: robust against adversarial inputs, but several times
//! slower than necessary for the simulator's trusted keys (line
//! addresses, sequence numbers), and — because the key is random — maps
//! iterate in a different order every process, which would make any
//! accidental order dependence nondeterministic across runs.
//!
//! [`FxHasher`] is the multiply-rotate hash popularized by the Firefox
//! and rustc codebases (`FxHashMap`), implemented here from scratch so
//! the workspace stays std-only. Every coherence event pays several map
//! lookups in the directory and per-core caches; swapping SipHash for
//! this hasher was a measurable end-to-end win (see the committed
//! `results/BENCH_harness.json` snapshot) and makes iteration order a
//! pure function of the insertion sequence.
//!
//! # Example
//!
//! ```
//! use tus_sim::hash::FxHashMap;
//! let mut m: FxHashMap<u64, &str> = FxHashMap::default();
//! m.insert(3, "three");
//! assert_eq!(m.get(&3), Some(&"three"));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from the golden-ratio family used by rustc's FxHash
/// (0x9E3779B97F4A7C15 truncated to the odd 64-bit constant below).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A fast multiply-rotate hasher (FxHash-style), deterministic across
/// processes.
///
/// Not resistant to adversarial key choice — use only on trusted keys,
/// which is every key the simulator hashes.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            // Length-tag the tail so "ab" and "ab\0" hash differently.
            buf[7] = rest.len() as u8;
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
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
    fn finish(&self) -> u64 {
        // The multiply concentrates entropy in the high bits; hash maps
        // index with the low bits, so fold the halves together.
        self.hash ^ (self.hash >> 32)
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, deterministic).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Hashes one value with [`FxHasher`] (stable across processes; used
/// for content-addressed cache keys).
pub fn fx_hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hashers() {
        assert_eq!(fx_hash_one(&0xdead_beefu64), fx_hash_one(&0xdead_beefu64));
        assert_eq!(fx_hash_one(&"store"), fx_hash_one(&"store"));
    }

    #[test]
    fn distinct_inputs_distinct_hashes() {
        // Not guaranteed in general, but these must differ for a sane
        // hasher; also pins the function against accidental rewrites.
        let vals = [0u64, 1, 2, 63, 64, 0xffff_ffff, u64::MAX];
        for (i, a) in vals.iter().enumerate() {
            for b in vals.iter().skip(i + 1) {
                assert_ne!(fx_hash_one(a), fx_hash_one(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn byte_tail_is_length_tagged() {
        let mut a = FxHasher::default();
        a.write(b"ab");
        let mut b = FxHasher::default();
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..1000u64 {
            m.insert(i * 64, i);
            s.insert(i * 64);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 64)), Some(&i));
            assert!(s.contains(&(i * 64)));
        }
    }

    #[test]
    fn low_bits_spread_for_aligned_keys() {
        // Line addresses are often 64-byte aligned; the low bits of the
        // hash (which HashMap indexes with) must still spread.
        let mut low7 = FxHashSet::default();
        for i in 0..128u64 {
            low7.insert(fx_hash_one(&(i * 64)) & 0x7f);
        }
        assert!(low7.len() > 64, "only {} of 128 low-7-bit buckets hit", low7.len());
    }
}
