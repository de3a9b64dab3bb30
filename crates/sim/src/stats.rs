//! Lightweight statistics collectors for simulation output.
//!
//! Three collectors cover everything the experiment harness reports:
//!
//! * [`LatencyHistogram`] — logarithmically bucketed request latencies with
//!   quantile queries;
//! * [`BandwidthMeter`] — bytes moved over a measured interval, reported in
//!   MB/s the way the paper reports aggregate I/O throughput;
//! * [`TimeSeries`] — per-window byte counts for plots over time.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// One mebibyte, the unit the paper's throughput figures use.
pub const MIB: f64 = 1024.0 * 1024.0;

/// A log₂-bucketed latency histogram over [`SimDuration`] samples.
///
/// Buckets are powers of two in nanoseconds: bucket `i` covers
/// `[2^i, 2^(i+1))` ns, with bucket 0 covering `[0, 2)` ns. Quantiles are
/// answered at bucket resolution (upper bound of the containing bucket),
/// which is ample for reporting p50/p95/p99 of device latencies.
///
/// ```
/// use s4d_sim::stats::LatencyHistogram;
/// use s4d_sim::SimDuration;
/// let mut h = LatencyHistogram::new();
/// for us in [10, 20, 30, 40, 1000] {
///     h.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.quantile(0.5).unwrap() >= SimDuration::from_micros(16));
/// assert!(h.max().unwrap() >= SimDuration::from_micros(1000));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
    min_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; 64],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            min_ns: u64::MAX,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        let idx = if ns < 2 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        };
        if let Some(bucket) = self.buckets.get_mut(idx.min(63)) {
            *bucket += 1;
        }
        self.count += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
        self.min_ns = self.min_ns.min(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency, or `None` if empty.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.count == 0 {
            None
        } else {
            Some(SimDuration::from_nanos(
                (self.sum_ns / self.count as u128) as u64,
            ))
        }
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_nanos(self.max_ns))
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_nanos(self.min_ns))
    }

    /// Latency at quantile `q ∈ [0, 1]`, at bucket resolution; `None` if
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or not finite.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        assert!(
            q.is_finite() && (0.0..=1.0).contains(&q),
            "quantile out of range"
        );
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let upper = if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
                return Some(SimDuration::from_nanos(upper.min(self.max_ns)));
            }
        }
        Some(SimDuration::from_nanos(self.max_ns))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Every summary is `Some` exactly when a sample was recorded.
        match (
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max(),
        ) {
            (Some(mean), Some(p50), Some(p99), Some(max)) => write!(
                f,
                "latency: n={n} mean={mean} p50={p50} p99={p99} max={max}",
                n = self.count
            ),
            _ => write!(f, "latency: no samples"),
        }
    }
}

/// Accumulates bytes moved and reports aggregate throughput, MB/s.
///
/// ```
/// use s4d_sim::stats::BandwidthMeter;
/// use s4d_sim::{SimDuration, SimTime};
/// let mut m = BandwidthMeter::new();
/// m.add(64 * 1024 * 1024);
/// let start = SimTime::ZERO;
/// let end = start + SimDuration::from_secs(2);
/// assert!((m.mib_per_sec(end - start) - 32.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BandwidthMeter {
    bytes: u64,
    ops: u64,
}

impl BandwidthMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` moved by one operation.
    pub fn add(&mut self, bytes: u64) {
        self.bytes += bytes;
        self.ops += 1;
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total operations recorded.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Aggregate throughput in MiB/s over `elapsed`; zero if `elapsed` is
    /// zero.
    pub fn mib_per_sec(&self, elapsed: SimDuration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / MIB / secs
        }
    }

    /// Merges another meter into this one.
    pub fn merge(&mut self, other: &BandwidthMeter) {
        self.bytes += other.bytes;
        self.ops += other.ops;
    }
}

/// Per-window byte counts: a bandwidth-over-time series.
///
/// Windows are fixed-width, starting at `t = 0`. Recording at time `t`
/// attributes the bytes to window `t / width`.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    width: SimDuration,
    windows: Vec<u64>,
}

impl TimeSeries {
    /// Creates a series with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "window width must be positive");
        TimeSeries {
            width,
            windows: Vec::new(),
        }
    }

    /// Window width.
    pub fn width(&self) -> SimDuration {
        self.width
    }

    /// Records `bytes` moved at instant `at`.
    pub fn record(&mut self, at: SimTime, bytes: u64) {
        let idx = (at.as_nanos() / self.width.as_nanos()) as usize;
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, 0);
        }
        if let Some(window) = self.windows.get_mut(idx) {
            *window += bytes;
        }
    }

    /// Bytes recorded in window `idx` (zero if beyond the last write).
    pub fn window_bytes(&self, idx: usize) -> u64 {
        self.windows.get(idx).copied().unwrap_or(0)
    }

    /// Number of windows touched.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Iterator over `(window_start, MiB/s)` pairs.
    pub fn iter_mibs(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        let w = self.width;
        self.windows.iter().enumerate().map(move |(i, &b)| {
            (
                SimTime::from_nanos(i as u64 * w.as_nanos()),
                b as f64 / MIB / w.as_secs_f64(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_summary() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile(0.5), None);
        for i in 1..=100u64 {
            h.record(SimDuration::from_micros(i));
        }
        assert_eq!(h.count(), 100);
        let mean = h.mean().unwrap();
        assert!(mean >= SimDuration::from_micros(50) && mean <= SimDuration::from_micros(51));
        assert_eq!(h.max().unwrap(), SimDuration::from_micros(100));
        assert_eq!(h.min().unwrap(), SimDuration::from_micros(1));
        // p100 equals max exactly.
        assert_eq!(h.quantile(1.0).unwrap(), SimDuration::from_micros(100));
        // p50 lands in the bucket containing 50us = 51200ns -> [32768, 65536).
        let p50 = h.quantile(0.5).unwrap().as_nanos();
        assert!((32_768..=65_536).contains(&p50), "p50 was {p50}");
    }

    #[test]
    fn histogram_merge() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(SimDuration::from_nanos(10));
        b.record(SimDuration::from_nanos(1_000_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max().unwrap(), SimDuration::from_nanos(1_000_000));
        assert_eq!(a.min().unwrap(), SimDuration::from_nanos(10));
    }

    #[test]
    fn histogram_display() {
        let mut h = LatencyHistogram::new();
        assert_eq!(format!("{h}"), "latency: no samples");
        h.record(SimDuration::from_micros(5));
        assert!(format!("{h}").contains("n=1"));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_bad_q() {
        LatencyHistogram::new().quantile(1.5);
    }

    #[test]
    fn bandwidth_meter() {
        let mut m = BandwidthMeter::new();
        assert_eq!(m.mib_per_sec(SimDuration::from_secs(1)), 0.0);
        m.add(1024 * 1024);
        m.add(1024 * 1024);
        assert_eq!(m.bytes(), 2 * 1024 * 1024);
        assert_eq!(m.ops(), 2);
        assert!((m.mib_per_sec(SimDuration::from_secs(2)) - 1.0).abs() < 1e-12);
        assert_eq!(m.mib_per_sec(SimDuration::ZERO), 0.0);
        let mut n = BandwidthMeter::new();
        n.add(512);
        m.merge(&n);
        assert_eq!(m.ops(), 3);
    }

    #[test]
    fn time_series_buckets() {
        let mut s = TimeSeries::new(SimDuration::from_secs(1));
        s.record(SimTime::from_nanos(100), 10);
        s.record(SimTime::from_secs(1), 20); // second window
        s.record(SimTime::from_secs(3), 5); // fourth window, gap in third
        assert_eq!(s.len(), 4);
        assert_eq!(s.window_bytes(0), 10);
        assert_eq!(s.window_bytes(1), 20);
        assert_eq!(s.window_bytes(2), 0);
        assert_eq!(s.window_bytes(3), 5);
        assert_eq!(s.window_bytes(99), 0);
        let pts: Vec<_> = s.iter_mibs().collect();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[1].0, SimTime::from_secs(1));
        assert!((pts[1].1 - 20.0 / MIB).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window width")]
    fn time_series_rejects_zero_width() {
        TimeSeries::new(SimDuration::ZERO);
    }
}
