//! One seeded hasher for the maps keyed by what documents contain: field
//! names and value terms in the search index, a DataGuide node's
//! children, structure signatures.
//!
//! Each step is a folded multiply (the 128-bit product of two words,
//! its halves XORed) of the input mixed with a key drawn once per
//! process from [`RandomState`]. Keys come from documents, so an unkeyed
//! hash (FxHash, FNV) would let one crafted corpus put every key in one
//! probe chain; with a per-process key the colliding set differs from
//! run to run. It is several times cheaper than the standard SipHash on
//! the short names and terms these maps hold.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` under the [`SeededState`] hasher.
pub type SeededMap<K, V> = HashMap<K, V, SeededState>;
/// A `HashSet` under the [`SeededState`] hasher.
pub type SeededSet<T> = HashSet<T, SeededState>;

/// Odd constants (the fractional digits of π) that keep a zero key or a
/// zero input from zeroing a product.
const PI: [u64; 3] = [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344, 0xa409_3822_299f_31d0];

fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The per-process key, drawn from the standard library's random source
/// on first use.
fn process_key() -> [u64; 2] {
    static KEY: OnceLock<[u64; 2]> = OnceLock::new();
    *KEY.get_or_init(|| {
        let state = RandomState::new();
        [state.hash_one(PI[0]), state.hash_one(PI[1])]
    })
}

/// Builds [`FoldHasher`]s under this process's key.
#[derive(Debug, Clone, Copy)]
pub struct SeededState {
    key: [u64; 2],
}

impl Default for SeededState {
    fn default() -> Self {
        SeededState { key: process_key() }
    }
}

impl BuildHasher for SeededState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { acc: self.key[0], key: self.key[1] }
    }
}

/// The hasher [`SeededState`] builds.
#[derive(Debug, Clone)]
pub struct FoldHasher {
    acc: u64,
    key: u64,
}

/// The first eight bytes of `b` (at least eight) as a little-endian word.
fn word(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("eight bytes"))
}

/// The first four bytes of `b` (at least four) as a little-endian word.
fn half_word(b: &[u8]) -> u64 {
    u64::from(u32::from_le_bytes(b[..4].try_into().expect("four bytes")))
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        let len = bytes.len();
        let mut acc = self.acc.wrapping_add(len as u64);
        let mut rest = bytes;
        while rest.len() > 16 {
            acc = folded_multiply(word(rest) ^ acc, word(&rest[8..]) ^ self.key);
            rest = &rest[16..];
        }
        // the last 1..=16 bytes as two words that cover them all (they
        // may overlap; the length mixed in above tells overlaps apart)
        let n = rest.len();
        let (a, b) = match n {
            8.. => (word(rest), word(&rest[n - 8..])),
            4.. => (half_word(rest), half_word(&rest[n - 4..])),
            1.. => (u64::from(rest[0]) << 16 | u64::from(rest[n / 2]) << 8, u64::from(rest[n - 1])),
            0 => (0, 0),
        };
        self.acc = folded_multiply(a ^ acc, b ^ self.key ^ PI[2]);
    }

    fn write_u64(&mut self, n: u64) {
        self.acc = folded_multiply(n ^ self.acc, self.key ^ PI[2]);
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(s: &str) -> u64 {
        SeededState::default().hash_one(s)
    }

    #[test]
    fn equal_keys_hash_alike_within_a_process() {
        assert_eq!(hash("sparse_110"), hash("sparse_110"));
        assert_eq!(SeededState::default().hash_one(7u64), SeededState::default().hash_one(7u64));
    }

    #[test]
    fn short_and_overlapping_keys_stay_apart() {
        // every length up to three words, and keys that differ only in
        // one byte, in the length, or in where a word boundary falls
        let mut seen = std::collections::HashSet::new();
        let text = "abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopq";
        for len in 0..=48 {
            assert!(seen.insert(hash(&text[..len])), "prefix of {len}");
            if len > 0 {
                let mut changed = text[..len].to_string().into_bytes();
                changed[len / 2] ^= 1;
                assert!(seen.insert(hash(std::str::from_utf8(&changed).unwrap())), "{len}");
            }
        }
        assert_ne!(hash("a\0"), hash("a"));
        assert_ne!(SeededState::default().hash_one(0u64), SeededState::default().hash_one(1u64));
    }

    #[test]
    fn names_spread_over_the_buckets() {
        // 1 000 NOBENCH-like names over 64 buckets: no bucket holds more
        // than three times its share, by the low bits and by the top seven
        // (the two the standard map reads)
        let mut low = [0u32; 64];
        let mut top = [0u32; 128];
        for i in 0..1000 {
            let h = hash(&format!("sparse_{i:03}"));
            low[(h & 63) as usize] += 1;
            top[(h >> 57) as usize] += 1;
        }
        assert!(low.iter().all(|&n| n <= 3 * 1000 / 64), "{low:?}");
        assert!(top.iter().all(|&n| n <= 3 * 1000 / 128 + 1), "{top:?}");
    }
}
