//! Seeded random-number source for deterministic simulations.

/// The golden-ratio increment, 2^64 / φ: SplitMix64's step and
/// [`SimRng::fork`]'s stream key.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 (Steele, Lea & Flood; public-domain constants): advances
/// `x` by the golden-ratio increment and finalizes it. A pure hash of its
/// argument — [`SimRng::seed`], the bad-sector map (`s4d-storage`) and the
/// chaos harness's stream (`s4d-chaos`) all build on it.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic random-number generator: xoshiro256** (Blackman &
/// Vigna), its state expanded from a 64-bit seed by SplitMix64.
///
/// It is always explicitly seeded — there is deliberately no entropy
/// constructor — and offers the handful of draw shapes the simulator needs.
/// Forking ([`SimRng::fork`]) derives an independent stream, so components
/// can hold their own RNG without interleaving draws nondeterministically.
///
/// ```
/// use s4d_sim::SimRng;
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed: the state is four successive
    /// SplitMix64 outputs starting from `seed`.
    pub fn seed(seed: u64) -> Self {
        SimRng {
            s: [0, 1, 2, 3].map(|i: u64| splitmix64(seed.wrapping_add(i.wrapping_mul(GOLDEN)))),
        }
    }

    /// Derives an independent generator keyed by `stream`.
    ///
    /// Two forks of the same parent with distinct `stream` values produce
    /// unrelated sequences; the parent's own stream is unaffected except for
    /// consuming one draw.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::seed(base ^ stream.wrapping_mul(GOLDEN))
    }

    /// Next raw 64-bit value (one xoshiro256** step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, n)`, by rejection sampling: raw draws above the
    /// largest multiple of `n` are redrawn, so there is no modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is an empty range");
        // 2^64 mod n, without overflow for any n >= 1.
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % n;
            }
        }
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range({lo}, {hi}) is empty");
        lo + self.below(hi - lo)
    }

    /// Uniform draw in `[0, 1)` from the top 53 bits of one raw draw.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn forks_are_independent_and_reproducible() {
        let mut parent1 = SimRng::seed(9);
        let mut parent2 = SimRng::seed(9);
        let mut f1 = parent1.fork(1);
        let mut f2 = parent2.fork(1);
        for _ in 0..16 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
        let mut p = SimRng::seed(9);
        let mut a = p.fork(1);
        let mut b = p.fork(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn draws_respect_bounds() {
        let mut r = SimRng::seed(3);
        for _ in 0..1000 {
            let v = r.below(10);
            assert!(v < 10);
            let w = r.range(5, 8);
            assert!((5..8).contains(&w));
            let f = r.f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    /// Pins the exact stream, not just its determinism: every simulated
    /// number downstream of a seed depends on these draws.
    #[test]
    fn known_answer_stream() {
        let mut r = SimRng::seed(7);
        assert_eq!(r.next_u64(), 0xb358_faf7_4ef9_765a);
        assert_eq!(r.next_u64(), 0x475c_3d96_4f48_2cd2);
        assert_eq!(r.next_u64(), 0xd6f1_d349_952c_7996);
        assert_eq!(r.below(1000), 664);
        assert_eq!(r.range(5, 8), 7);
        assert_eq!(r.f64().to_bits(), 0x3feb_edc3_9c76_c431);
        assert_eq!(r.fork(3).next_u64(), 0xbe01_7bae_430f_cc28);
        assert_eq!(r.below(1), 0);
        for _ in 0..300 {
            assert!(r.below(u64::MAX) < u64::MAX);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0)); // clamped
        assert!(!r.chance(-1.0)); // clamped
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::seed(0).below(0);
    }
}
