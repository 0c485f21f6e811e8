//! A fast hasher for the tables an RPC probes on every call.
//!
//! The standard library's SipHash resists keys chosen to collide, and
//! costs some 20 ns for a `u64`. The tables here are keyed by what the
//! process itself numbers (node addresses, links, virtual handles) or
//! by a bounded set it samples (the read-heat sketch's paths), and are
//! probed once or twice per RPC, so they use the multiply-rotate hash
//! `rustc` keeps its own tables with: one multiply per word of key.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiply-rotate ("Fx") hasher: each word of the key is rotated
/// into the state and the state multiplied by an odd constant.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher(u64);

/// Builds [`FxHasher`]s for a `HashMap`.
pub type FxBuild = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The state turned so that its best-mixed bits, the product's
    /// middle ones, come first: tables take a bucket from the low bits.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn equal_keys_hash_alike_and_near_keys_apart() {
        let build = FxBuild::default();
        assert_eq!(
            build.hash_one("/a/b/f1"),
            build.hash_one(String::from("/a/b/f1"))
        );
        assert_eq!(build.hash_one((3u64, 4u64)), build.hash_one((3u64, 4u64)));
        // Paths that differ in one byte, in the tail or in a full word,
        // and keys that are sequential numbers all land apart.
        let paths: HashSet<u64> = (0..4096)
            .map(|i| build.hash_one(format!("/r/d{:02}/f{i}", i % 16)))
            .collect();
        assert_eq!(paths.len(), 4096);
        let numbers: HashSet<u64> = (0..4096u64).map(|i| build.hash_one(i)).collect();
        assert_eq!(numbers.len(), 4096);
        assert_ne!(build.hash_one((1u64, 2u64)), build.hash_one((2u64, 1u64)));
    }

    #[test]
    fn the_low_bits_spread_paths_like_a_random_hash() {
        // A table takes its bucket from the low bits. 4 096 random keys
        // in 8 192 buckets fill about 3 220 of them; paths that differ
        // only in their last digits must do about as well.
        let build = FxBuild::default();
        for shape in ["/bulk/f{i}", "/r/d{d}/f{i}"] {
            let buckets: HashSet<u64> = (0..4096)
                .map(|i| {
                    shape
                        .replace("{i}", &i.to_string())
                        .replace("{d}", &(i % 16).to_string())
                })
                .map(|key| build.hash_one(key) & 8191)
                .collect();
            assert!(buckets.len() > 3000, "{shape}: {} buckets", buckets.len());
        }
    }
}
