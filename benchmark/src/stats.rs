//! Order statistics over collected samples.

/// The exact `q`-quantile of `sorted` by the nearest-rank rule: the
/// smallest sample with at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of the samples (mean of the two middle ones for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median, minimum, maximum and count of a set of host-time samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4d::sim::stats::LatencyHistogram;
    use s4d::sim::SimDuration;

    #[test]
    fn nearest_rank_picks_order_statistics() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 1.0), 100);
        assert_eq!(nearest_rank(&v, 0.0), 1);
        assert_eq!(nearest_rank(&[7u64], 0.99), 7);
    }

    #[test]
    fn median_and_summary() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[5.0, 1.0, 9.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (5.0, 1.0, 9.0, 3));
    }

    /// Why the benchmark does not use `LatencyHistogram::quantile`: it
    /// returns the upper edge of a power-of-two bucket, so a tail that
    /// gets 1.9x slower inside one bucket is invisible and a shift of a
    /// fraction of a percent across a bucket edge prints as 2x.
    #[test]
    fn histogram_quantile_disagrees_with_the_exact_figure() {
        let run = |tail_ns: u64| {
            let mut samples: Vec<u64> = vec![600_000; 980];
            samples.extend(std::iter::repeat_n(tail_ns, 20));
            let mut h = LatencyHistogram::new();
            for &ns in &samples {
                h.record(SimDuration::from_nanos(ns));
            }
            samples.sort_unstable();
            let exact = nearest_rank(&samples, 0.99);
            let hist = h.quantile(0.99).expect("non-empty").as_nanos();
            (exact, hist)
        };
        // p99 at 2.2 ms and at 4.1 ms (1.86x worse) sit in the same
        // [2^21, 2^22) ns bucket: the histogram reports one edge for
        // both (clamped to the maximum sample when that is lower).
        let (exact_a, hist_a) = run(2_200_000);
        let (exact_b, hist_b) = run(4_100_000);
        assert_eq!((exact_a, exact_b), (2_200_000, 4_100_000));
        assert_eq!(hist_a, 2_200_000, "clamped to the max sample");
        assert_eq!(hist_b, 4_100_000);
        // One more sample past the tail un-clamps it: now both read the
        // bucket edge 4.194 ms although the true p99 differ by 1.86x.
        let with_outlier = |tail_ns: u64| {
            let mut h = LatencyHistogram::new();
            for _ in 0..980 {
                h.record(SimDuration::from_nanos(600_000));
            }
            for _ in 0..19 {
                h.record(SimDuration::from_nanos(tail_ns));
            }
            h.record(SimDuration::from_nanos(50_000_000));
            h.quantile(0.99).expect("non-empty").as_nanos()
        };
        assert_eq!(with_outlier(2_200_000), (1 << 22) - 1);
        assert_eq!(with_outlier(4_100_000), (1 << 22) - 1);
        // And a 0.5 % shift across the edge doubles the printed figure.
        assert_eq!(with_outlier(2_090_000), (1 << 21) - 1);
        assert_eq!(with_outlier(2_100_000), (1 << 22) - 1);
    }
}
