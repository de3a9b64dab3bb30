//! Seeded random-number source for deterministic simulations.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// SplitMix64 (Steele, Lea & Flood; public-domain constants): advances
/// `x` by the golden-ratio increment and finalizes it. A pure hash of its
/// argument — the bad-sector map (`s4d-storage`) and the chaos harness's
/// stream (`s4d-chaos`) both build on it.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic random-number generator.
///
/// Thin wrapper over [`rand::rngs::StdRng`] that (a) is always explicitly
/// seeded — there is deliberately no `from_entropy` constructor — and
/// (b) offers the handful of draw shapes the simulator needs. Forking
/// ([`SimRng::fork`]) derives an independent stream, so components can hold
/// their own RNG without interleaving draws nondeterministically.
///
/// ```
/// use s4d_sim::SimRng;
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent generator keyed by `stream`.
    ///
    /// Two forks of the same parent with distinct `stream` values produce
    /// unrelated sequences; the parent's own stream is unaffected except for
    /// consuming one draw.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.inner.gen::<u64>();
        SimRng::seed(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is an empty range");
        self.inner.gen_range(0..n)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range({lo}, {hi}) is empty");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
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
