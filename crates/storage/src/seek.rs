//! The seek-distance → seek-time curve `F(d)`.
//!
//! The paper (§III.B) converts the logical distance `d` between consecutive
//! requests into a seek time through a function `F` "derived from an offline
//! profiling of the HDD storage" (its reference \[28\]). We use the standard
//! two-regime disk-seek model: for short distances the arm's
//! acceleration-dominated motion gives `t ≈ a + b·√d`, while beyond a
//! coast-distance threshold the motion is speed-limited and `t ≈ c + e·d`,
//! capped at the full-stroke seek time.

use serde::{Deserialize, Serialize};

/// A fitted piecewise seek curve over byte distances.
///
/// Distances are expressed in bytes of the (logical-block) address space; the
/// curve owner decides how file-level distances map onto it.
///
/// ```
/// use s4d_storage::SeekProfile;
/// let p = SeekProfile::analytic(2.0e-3, 9.0e-3, 250 * 1024 * 1024 * 1024);
/// assert_eq!(p.seek_secs(0), 0.0);
/// assert!(p.seek_secs(4096) > 0.0);
/// assert!(p.seek_secs(u64::MAX) <= 9.0e-3 + 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeekProfile {
    /// Constant term of the short-seek (√d) regime, seconds.
    short_a: f64,
    /// Coefficient of √d in the short-seek regime, seconds per √byte.
    short_b: f64,
    /// Distance (bytes) where the regimes meet.
    cutoff: u64,
    /// Constant term of the long-seek (linear) regime, seconds.
    long_c: f64,
    /// Slope of the long-seek regime, seconds per byte.
    long_e: f64,
    /// Full-stroke cap, seconds.
    max_seek: f64,
}

impl SeekProfile {
    /// Builds a curve from explicit fitted coefficients.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is negative or non-finite, or if
    /// `max_seek` is zero.
    pub fn from_coefficients(
        short_a: f64,
        short_b: f64,
        cutoff: u64,
        long_c: f64,
        long_e: f64,
        max_seek: f64,
    ) -> Self {
        for (name, v) in [
            ("short_a", short_a),
            ("short_b", short_b),
            ("long_c", long_c),
            ("long_e", long_e),
            ("max_seek", max_seek),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "seek coefficient {name} invalid: {v}"
            );
        }
        assert!(max_seek > 0.0, "max_seek must be positive");
        SeekProfile {
            short_a,
            short_b,
            cutoff,
            long_c,
            long_e,
            max_seek,
        }
    }

    /// Builds the textbook analytic curve for a disk with the given
    /// single-track seek time, full-stroke seek time, and capacity.
    ///
    /// One third of the stroke is modelled as acceleration-limited (√d);
    /// the remainder is speed-limited (linear), with the two regimes meeting
    /// continuously at the cutoff.
    ///
    /// # Panics
    ///
    /// Panics if times are non-positive/non-finite, `track_to_track >=
    /// max_seek`, or `capacity_bytes == 0`.
    pub fn analytic(track_to_track: f64, max_seek: f64, capacity_bytes: u64) -> Self {
        assert!(
            track_to_track.is_finite() && track_to_track > 0.0,
            "track_to_track must be positive"
        );
        assert!(
            max_seek.is_finite() && max_seek > track_to_track,
            "max_seek must exceed track_to_track"
        );
        assert!(capacity_bytes > 0, "capacity must be positive");
        let cutoff = capacity_bytes / 3;
        // Short regime: t(d) = a + b*sqrt(d), t(0+)≈track_to_track.
        // Choose b so that t(cutoff) = 2/3 of max_seek, then the linear
        // regime carries on to max_seek at full stroke.
        let t_cutoff = max_seek * (2.0 / 3.0);
        let short_a = track_to_track;
        let short_b = (t_cutoff - short_a) / (cutoff as f64).sqrt();
        let remaining = capacity_bytes - cutoff;
        let long_e = (max_seek - t_cutoff) / remaining as f64;
        let long_c = t_cutoff - long_e * cutoff as f64;
        SeekProfile::from_coefficients(
            short_a,
            short_b.max(0.0),
            cutoff,
            long_c.max(0.0),
            long_e,
            max_seek,
        )
    }

    /// Seek time in seconds for a head movement of `distance` bytes.
    ///
    /// Zero distance means the head is already positioned: no seek.
    pub fn seek_secs(&self, distance: u64) -> f64 {
        if distance == 0 {
            return 0.0;
        }
        let t = if distance <= self.cutoff {
            self.short_a + self.short_b * (distance as f64).sqrt()
        } else {
            self.long_c + self.long_e * distance as f64
        };
        t.min(self.max_seek)
    }

    /// The full-stroke seek time in seconds (the paper's `S`).
    pub fn max_seek_secs(&self) -> f64 {
        self.max_seek
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const CAP: u64 = 250 * 1024 * 1024 * 1024;

    fn profile() -> SeekProfile {
        SeekProfile::analytic(2.0e-3, 9.0e-3, CAP)
    }

    #[test]
    fn zero_distance_is_free() {
        assert_eq!(profile().seek_secs(0), 0.0);
    }

    #[test]
    fn small_distance_costs_at_least_track_to_track() {
        let p = profile();
        assert!(p.seek_secs(1) >= 2.0e-3);
    }

    #[test]
    fn full_stroke_hits_cap() {
        let p = profile();
        let full = p.seek_secs(CAP);
        assert!((full - 9.0e-3).abs() < 1e-9, "full stroke = {full}");
        assert_eq!(p.seek_secs(u64::MAX), 9.0e-3);
    }

    #[test]
    fn regimes_meet_continuously() {
        let p = profile();
        let at = p.cutoff;
        let below = p.seek_secs(at);
        let above = p.seek_secs(at + 1);
        assert!(
            (below - above).abs() < 1e-6,
            "discontinuity: {below} vs {above}"
        );
    }

    #[test]
    fn accessors() {
        let p = profile();
        assert_eq!(p.max_seek_secs(), 9.0e-3);
        assert_eq!(p.cutoff, CAP / 3);
    }

    #[test]
    #[should_panic(expected = "max_seek must exceed")]
    fn analytic_rejects_inverted_times() {
        SeekProfile::analytic(9.0e-3, 2.0e-3, CAP);
    }

    #[test]
    #[should_panic(expected = "seek coefficient")]
    fn from_coefficients_rejects_negative() {
        SeekProfile::from_coefficients(-1.0, 0.0, 0, 0.0, 0.0, 1.0);
    }

    proptest! {
        #[test]
        fn prop_monotone_nondecreasing(a in 0u64..CAP, b in 0u64..CAP) {
            let p = profile();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(p.seek_secs(lo) <= p.seek_secs(hi) + 1e-12);
        }

        #[test]
        fn prop_bounded_by_max(d in 0u64..u64::MAX) {
            let p = profile();
            prop_assert!(p.seek_secs(d) <= p.max_seek_secs() + 1e-12);
        }
    }
}
