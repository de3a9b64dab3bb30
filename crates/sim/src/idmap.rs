//! Hash tables keyed by identifiers the simulation mints itself.
//!
//! File ids and plan ids are small integers handed out by
//! this program, so SipHash's protection against crafted keys buys
//! nothing and costs most of a lookup. [`IdMap`] is `HashMap` (and
//! [`IdSet`] is `HashSet`) over a one-multiply hasher. The multiply is *folded* (high half of the
//! 128-bit product xor-ed into the low half): hashbrown picks the bucket
//! from the low bits, and a plain multiply leaves the low bits of an
//! aligned key (a 16 KiB-aligned offset, say) all zero.
//!
//! Iteration order is deterministic per insertion history but otherwise
//! arbitrary — sort before emitting, exactly as with `HashMap`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` for keys minted by the simulation (ids, tokens).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// `HashSet` for keys minted by the simulation; see [`IdMap`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

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
    use std::hash::{BuildHasher, Hash};

    /// Largest bucket population when `keys` are spread over `buckets`
    /// (a power of two) by the low bits of `hash`, as hashbrown does.
    fn max_load<K>(keys: impl Iterator<Item = K>, buckets: usize, hash: impl Fn(K) -> u64) -> u32 {
        let mut load = vec![0u32; buckets];
        for k in keys {
            load[(hash(k) as usize) & (buckets - 1)] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }

    fn id_hash<K: Hash>(k: K) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(k)
    }

    /// [`IdHasher`] without the fold: the hasher the trap was measured on.
    #[derive(Default)]
    struct Foldless(u64);

    impl Hasher for Foldless {
        fn finish(&self) -> u64 {
            self.0
        }

        fn write(&mut self, bytes: &[u8]) {
            bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
        }

        fn write_u64(&mut self, x: u64) {
            self.0 = (self.0 ^ x).wrapping_mul(MULTIPLIER);
        }
    }

    fn foldless_hash<K: Hash>(k: K) -> u64 {
        BuildHasherDefault::<Foldless>::default().hash_one(k)
    }

    /// Stand-in for `s4d_pfs::FileId` (a `u64` newtype deriving `Hash`),
    /// which this crate cannot name.
    #[derive(Hash)]
    struct FileId(u64);

    const KEYS: u64 = 1 << 16;
    const BUCKETS: usize = 1 << 12;
    const MEAN: u32 = (KEYS as usize / BUCKETS) as u32;
    const FILES: u64 = 4;
    const ALIGN_SHIFT: u32 = 14; // 16 KiB

    #[test]
    fn sequential_and_aligned_keys_spread_over_buckets() {
        let sequential = max_load(0..KEYS, BUCKETS, id_hash);
        let aligned = max_load((0..KEYS).map(|i| i << ALIGN_SHIFT), BUCKETS, id_hash);
        assert!(
            sequential <= 3 * MEAN,
            "sequential ids: {sequential} vs mean {MEAN}"
        );
        assert!(
            aligned <= 3 * MEAN,
            "16 KiB-aligned keys: {aligned} vs mean {MEAN}"
        );
        // The trap the fold avoids: without it every aligned key lands in
        // bucket 0.
        assert_eq!(
            max_load((0..KEYS).map(|i| i << ALIGN_SHIFT), BUCKETS, foldless_hash),
            KEYS as u32
        );
    }

    /// The tuple keys of `s4d-cache`'s tables: `(file, d_offset)` for the
    /// in-flight flush markers and `(file, offset, len)` for CDT entries,
    /// a few files with 16 KiB-aligned offsets.
    #[test]
    fn aligned_tuple_keys_spread_over_buckets() {
        let extent = |i: u64| (FileId(i % FILES), (i / FILES) << ALIGN_SHIFT);
        let cdt = |i: u64| {
            let (f, off) = extent(i);
            (f, off, 1u64 << ALIGN_SHIFT)
        };
        let pairs = max_load((0..KEYS).map(extent), BUCKETS, id_hash);
        let triples = max_load((0..KEYS).map(cdt), BUCKETS, id_hash);
        assert!(
            pairs <= 3 * MEAN,
            "(file, d_offset): {pairs} vs mean {MEAN}"
        );
        assert!(
            triples <= 3 * MEAN,
            "(file, offset, len): {triples} vs mean {MEAN}"
        );
        // Without the fold the low bits of each key only see the file id:
        // every key piles into one bucket per file.
        let per_file = (KEYS / FILES) as u32;
        assert!(max_load((0..KEYS).map(extent), BUCKETS, foldless_hash) >= per_file);
        assert!(max_load((0..KEYS).map(cdt), BUCKETS, foldless_hash) >= per_file);
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
