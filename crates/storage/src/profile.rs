//! Offline seek-curve profiling.
//!
//! The paper derives its `F(d)` (distance → seek time) function "from an
//! offline profiling of the HDD storage" following its reference \[28\]
//! (FS²). This module performs the same procedure against a device model:
//! issue probe accesses at controlled distances, strip the rotational
//! component statistically, and fit the two-regime seek curve
//! (`a + b·√d` short / `c + e·d` long) by least squares, choosing the
//! regime boundary that minimises total squared error.
//!
//! In a real deployment the probes would hit the physical drive; here they
//! hit an [`crate::HddModel`], and the tests confirm the fit recovers the model's
//! own curve — which is exactly the property the paper's methodology needs.
//! The cost model does not run this procedure: `CostParams::from_hardware`
//! reads the preset's ground-truth curve directly.

use s4d_sim::SimRng;

use crate::device::{DeviceModel, IoKind};
use crate::hdd::HddConfig;
use crate::seek::SeekProfile;

/// One profiling observation: distance probed and mean positioning time.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SeekSample {
    /// Probe distance in bytes.
    distance: u64,
    /// Estimated pure seek time in seconds (rotation removed).
    seek_secs: f64,
}

/// Collects seek samples from a device built from `config`.
///
/// For each distance on a logarithmic grid, the probe alternates far jumps
/// of exactly that distance, measuring the service time of a 1-byte read and
/// subtracting the transfer and the *expected* rotational delay (half a
/// revolution); averaging over `samples_per_distance` probes cancels
/// rotational noise.
///
/// # Panics
///
/// Panics if `samples_per_distance == 0`.
fn collect_seek_samples(
    config: &HddConfig,
    samples_per_distance: u32,
    rng: &mut SimRng,
) -> Vec<SeekSample> {
    assert!(
        samples_per_distance > 0,
        "need at least one sample per distance"
    );
    let mut device = config
        .clone()
        .with_stream_window(0)
        .with_max_streams(1)
        .build();
    let capacity = config.capacity();
    let mut samples = Vec::new();
    let mut distance = 4096u64;
    while distance < capacity {
        let mut total = 0.0;
        let mut measured = 0u32;
        let mut pos = 0u64;
        for _ in 0..samples_per_distance {
            let target = if pos + distance < capacity {
                pos + distance
            } else {
                pos - distance
            };
            let t = device.service_time(IoKind::Read, target, 1, rng);
            total += t.as_secs_f64();
            measured += 1;
            pos = target + 1;
        }
        let transfer = config.beta_secs_per_byte();
        let mean = total / measured as f64 - transfer - config.avg_rotation_secs();
        samples.push(SeekSample {
            distance,
            seek_secs: mean.max(0.0),
        });
        distance = distance.saturating_mul(2);
    }
    samples
}

/// Fits a [`SeekProfile`] to profiling samples.
///
/// Tries every sample index as the short/long regime boundary, fits
/// `a + b·√d` below and `c + e·d` above by least squares, and keeps the
/// split with the lowest total squared error. The full-stroke cap is the
/// largest observed seek time.
///
/// # Errors
///
/// Returns [`FitError`] if fewer than four samples are supplied (two per
/// regime) or the fit degenerates to negative coefficients that cannot be
/// clamped meaningfully.
fn fit_seek_profile(samples: &[SeekSample]) -> Result<SeekProfile, FitError> {
    if samples.len() < 4 {
        return Err(FitError::TooFewSamples(samples.len()));
    }
    let max_seek = samples.iter().map(|s| s.seek_secs).fold(0.0f64, f64::max);
    if max_seek <= 0.0 {
        return Err(FitError::Degenerate);
    }
    let mut best: Option<(f64, SeekProfile)> = None;
    for split in 2..samples.len() - 1 {
        let (short, long) = samples.split_at(split);
        let Some(boundary) = short.last() else {
            continue;
        };
        let (a, b, err_s) = least_squares(short, |d| (d as f64).sqrt());
        let (c, e, err_l) = least_squares(long, |d| d as f64);
        if a < -1e-4 || b < 0.0 || e < 0.0 {
            continue;
        }
        let err = err_s + err_l;
        let profile = SeekProfile::from_coefficients(
            a.max(0.0),
            b,
            boundary.distance,
            c.max(0.0),
            e,
            max_seek,
        );
        if best.as_ref().is_none_or(|(be, _)| err < *be) {
            best = Some((err, profile));
        }
    }
    best.map(|(_, p)| p).ok_or(FitError::Degenerate)
}

/// Profiles `config` end to end: collect samples, fit the curve.
///
/// # Errors
///
/// Returns [`FitError`] if the probes are too few or too flat to fit.
pub fn profile_seek_curve(
    config: &HddConfig,
    samples_per_distance: u32,
    rng: &mut SimRng,
) -> Result<SeekProfile, FitError> {
    let samples = collect_seek_samples(config, samples_per_distance, rng);
    fit_seek_profile(&samples)
}

/// Ordinary least squares of `seek_secs` on `f(distance)` with intercept.
/// Returns `(intercept, slope, squared_error)`.
fn least_squares(samples: &[SeekSample], f: impl Fn(u64) -> f64) -> (f64, f64, f64) {
    let n = samples.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for s in samples {
        let x = f(s.distance);
        sx += x;
        sy += s.seek_secs;
        sxx += x * x;
        sxy += x * s.seek_secs;
    }
    let denom = n * sxx - sx * sx;
    let (a, b) = if denom.abs() < f64::EPSILON {
        (sy / n, 0.0)
    } else {
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;
        (intercept, slope)
    };
    let err: f64 = samples
        .iter()
        .map(|s| {
            let pred = a + b * f(s.distance);
            (pred - s.seek_secs).powi(2)
        })
        .sum();
    (a, b, err)
}

/// Failure to fit a seek curve from profiling samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitError {
    /// Not enough samples: contains the number supplied.
    TooFewSamples(usize),
    /// Samples were flat or negative; no meaningful curve exists.
    Degenerate,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewSamples(n) => {
                write!(f, "seek-curve fit needs at least 4 samples, got {n}")
            }
            FitError::Degenerate => write!(f, "seek samples are degenerate (flat or negative)"),
        }
    }
}

impl std::error::Error for FitError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn samples_cover_log_grid_and_grow() {
        let config = presets::hdd_seagate_st3250();
        let mut rng = SimRng::seed(11);
        let samples = collect_seek_samples(&config, 64, &mut rng);
        assert!(samples.len() > 10);
        // Distances double.
        for w in samples.windows(2) {
            assert_eq!(w[1].distance, w[0].distance * 2);
        }
        // Long seeks cost more than short ones.
        let first = samples.first().unwrap().seek_secs;
        let last = samples.last().unwrap().seek_secs;
        assert!(last > first, "{last} <= {first}");
    }

    #[test]
    fn fitted_curve_recovers_ground_truth() {
        let config = presets::hdd_seagate_st3250();
        let truth = config.seek_profile().clone();
        let mut rng = SimRng::seed(12);
        let fitted = profile_seek_curve(&config, 128, &mut rng).expect("fit succeeds");
        // Compare at probe distances across both regimes.
        for exp in [14u64, 20, 26, 30, 34, 37] {
            let d = 1u64 << exp;
            let t = truth.seek_secs(d);
            let f = fitted.seek_secs(d);
            let tol = (t * 0.30).max(1.5e-3); // rotation noise leaves residue
            assert!(
                (t - f).abs() < tol,
                "at d=2^{exp}: truth {t:.4} vs fitted {f:.4}"
            );
        }
    }

    #[test]
    fn fit_rejects_too_few_samples() {
        let s = vec![
            SeekSample {
                distance: 1,
                seek_secs: 0.001,
            },
            SeekSample {
                distance: 2,
                seek_secs: 0.002,
            },
        ];
        assert_eq!(fit_seek_profile(&s), Err(FitError::TooFewSamples(2)));
    }

    #[test]
    fn fit_rejects_flat_zero_samples() {
        let s: Vec<SeekSample> = (1..10)
            .map(|i| SeekSample {
                distance: i * 1000,
                seek_secs: 0.0,
            })
            .collect();
        assert_eq!(fit_seek_profile(&s), Err(FitError::Degenerate));
    }

    #[test]
    fn error_display() {
        assert!(FitError::TooFewSamples(1)
            .to_string()
            .contains("at least 4"));
        assert!(FitError::Degenerate.to_string().contains("degenerate"));
    }

    #[test]
    fn least_squares_exact_on_linear_data() {
        let samples: Vec<SeekSample> = (1..=10)
            .map(|i| SeekSample {
                distance: i * 100,
                seek_secs: 3.0 + 0.5 * (i * 100) as f64,
            })
            .collect();
        let (a, b, err) = least_squares(&samples, |d| d as f64);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 0.5).abs() < 1e-12);
        assert!(err < 1e-12);
    }
}
