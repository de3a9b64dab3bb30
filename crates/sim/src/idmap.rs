//! Hash tables keyed by identifiers the simulation mints itself.
//!
//! File ids, plan ids and retry tokens are small integers handed out by
//! this program, so SipHash's protection against crafted keys buys
//! nothing and costs most of a lookup. [`IdMap`] is `HashMap` over a
//! one-multiply hasher. The multiply is *folded* (high half of the
//! 128-bit product xor-ed into the low half): hashbrown picks the bucket
//! from the low bits, and a plain multiply leaves the low bits of an
//! aligned key (a 16 KiB-aligned offset, say) all zero.
//!
//! Iteration order is deterministic per insertion history but otherwise
//! arbitrary — sort before emitting, exactly as with `HashMap`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` for keys minted by the simulation (ids, tokens).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiply-and-fold hasher for integer keys; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

/// 2^64 / golden ratio, odd.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Each chunk read as a little-endian word, zero-padded at the top.
        for chunk in bytes.chunks(8) {
            let word = chunk
                .iter()
                .rev()
                .fold(0u64, |w, &b| (w << 8) | u64::from(b));
            self.write_u64(word);
        }
    }

    fn write_u64(&mut self, x: u64) {
        let product = u128::from(self.0 ^ x) * u128::from(MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// Largest bucket population when `keys` are spread over `buckets`
    /// (a power of two) by the low bits of `hash`, as hashbrown does.
    fn max_load(keys: impl Iterator<Item = u64>, buckets: usize, hash: impl Fn(u64) -> u64) -> u32 {
        let mut load = vec![0u32; buckets];
        for k in keys {
            load[(hash(k) as usize) & (buckets - 1)] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }

    fn id_hash(k: u64) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(k)
    }

    #[test]
    fn sequential_and_aligned_keys_spread_over_buckets() {
        const KEYS: u64 = 1 << 16;
        const BUCKETS: usize = 1 << 12;
        let mean = (KEYS as usize / BUCKETS) as u32;
        let sequential = max_load(0..KEYS, BUCKETS, id_hash);
        let aligned = max_load((0..KEYS).map(|i| i << 14), BUCKETS, id_hash);
        assert!(
            sequential <= 3 * mean,
            "sequential ids: {sequential} vs mean {mean}"
        );
        assert!(
            aligned <= 3 * mean,
            "16 KiB-aligned keys: {aligned} vs mean {mean}"
        );
        // The trap the fold avoids: without it every aligned key lands in
        // bucket 0.
        let foldless = |k: u64| k.wrapping_mul(MULTIPLIER);
        assert_eq!(
            max_load((0..KEYS).map(|i| i << 14), BUCKETS, foldless),
            KEYS as u32
        );
    }

    #[test]
    fn byte_writes_agree_with_word_writes() {
        let mut a = IdHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = IdHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }
}
