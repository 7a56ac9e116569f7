//! The hasher behind the RSU's per-vehicle map.
//!
//! `cad3::SummaryTracker` looks a vehicle up once per record of every
//! micro-batch. The key is one `u64`, so the standard library's SipHash-1-3
//! is most of a lookup. [`IdHasher`] is one folded 64 × 64 → 128-bit
//! multiply per word instead.
//!
//! It is keyed. Both keys are drawn once per process from the standard
//! library's `RandomState`, so a sender cannot pick vehicle ids that collide
//! in every RSU (HashDoS). The keys differ from run to run, so a map
//! built on it must not be iterated where order reaches an output: look up,
//! insert and remove, or sort what is collected.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The low and high halves of the 128-bit product of `a` and `b`, XORed:
/// every bit of either input reaches both ends of the result.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The process's `(seed, multiplier)`, drawn on first use. The multiplier is
/// odd, so it is never zero.
fn process_keys() -> (u64, u64) {
    static KEYS: OnceLock<(u64, u64)> = OnceLock::new();
    *KEYS.get_or_init(|| {
        let state = RandomState::new();
        (state.hash_one(0u64), state.hash_one(1u64) | 1)
    })
}

/// Builds [`IdHasher`]s with the process's keys.
#[derive(Debug, Clone, Copy)]
pub struct IdBuildHasher {
    seed: u64,
    multiplier: u64,
}

impl Default for IdBuildHasher {
    fn default() -> Self {
        let (seed, multiplier) = process_keys();
        IdBuildHasher { seed, multiplier }
    }
}

impl BuildHasher for IdBuildHasher {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher { state: self.seed, multiplier: self.multiplier }
    }
}

/// A keyed multiply-fold hasher for integer ids; see the module docs.
#[derive(Debug, Clone)]
pub struct IdHasher {
    state: u64,
    multiplier: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word, self.multiplier);
    }

    /// The length, then each 8-byte word, the last one zero-padded: the
    /// length keeps `b"a"` and `b"a\0"` apart. Every integer but a `u64`
    /// comes this way.
    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(crate::len_u64(bytes.len()));
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            for (dst, src) in word.iter_mut().zip(chunk) {
                *dst = *src;
            }
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn one_process_hashes_a_key_one_way() {
        let (a, b) = (IdBuildHasher::default(), IdBuildHasher::default());
        for id in [0u64, 1, 42, u64::MAX] {
            assert_eq!(a.hash_one(id), b.hash_one(id));
        }
        assert_eq!(a.hash_one("road"), b.hash_one("road"));
    }

    #[test]
    fn sequential_ids_spread_over_buckets_and_tags() {
        // hashbrown picks a bucket from the low bits and a control tag from
        // the top seven: dense fleet ids must spread over both.
        let s = IdBuildHasher::default();
        let hashes: Vec<u64> = (0..4096u64).map(|id| s.hash_one(id)).collect();
        let low: HashSet<u64> = hashes.iter().map(|h| h & 4095).collect();
        let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(low.len() > 2048, "{} of 4096 low-bit buckets", low.len());
        assert_eq!(top.len(), 128, "every top-seven-bit tag is used");
    }

    #[test]
    fn byte_keys_of_different_lengths_differ() {
        let s = IdBuildHasher::default();
        let mut h = s.build_hasher();
        h.write(b"a");
        let mut padded = s.build_hasher();
        padded.write(b"a\0");
        assert_ne!(h.finish(), padded.finish());
    }

    #[test]
    fn an_id_map_finds_what_it_holds() {
        let mut m: std::collections::HashMap<u64, u64, IdBuildHasher> = Default::default();
        for id in 0..1000u64 {
            m.insert(id * 7919, id);
        }
        assert!((0..1000u64).all(|id| m.get(&(id * 7919)) == Some(&id)));
        assert_eq!(m.get(&1), None);
    }
}
