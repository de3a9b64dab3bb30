//! The workspace's one content digest: 64-bit FNV-1a.
//!
//! A digest names a run's output in one word: the chaos harness folds
//! every applied op and read result into a run fingerprint, and the
//! behaviour lock folds each check's output into its line. FNV-1a is
//! tiny, stable across platforms and Rust versions (unlike
//! `std::hash::DefaultHasher`), and good enough to tell outputs apart; it
//! is not a defence against a chosen collision.

/// A running 64-bit FNV-1a digest.
///
/// ```
/// use s4d_sim::Fnv1a;
/// let mut d = Fnv1a::new();
/// d.bytes(b"a");
/// assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The digest of nothing (the offset basis).
    pub const fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Folds `bytes` in, in order.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds `w` in as its eight little-endian bytes, so a digest does
    /// not depend on the host's byte order.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// The digest of everything folded so far.
    pub const fn finish(self) -> u64 {
        self.0
    }

    /// The digest of `bytes` alone.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut d = Fnv1a::new();
        d.bytes(bytes);
        d.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64-bit test vectors.
    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(Fnv1a::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::of(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_word_is_its_little_endian_bytes() {
        let mut w = Fnv1a::new();
        w.word(0x0102_0304_0506_0708);
        assert_eq!(w.finish(), Fnv1a::of(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
