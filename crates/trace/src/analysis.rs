//! Access-pattern analysis over trace records.

use std::collections::HashMap;

use s4d_mpiio::Tier;
use s4d_sim::stats::TimeSeries;
use s4d_sim::{SimDuration, SimTime};
use s4d_storage::IoKind;

use crate::collector::TraceRecord;

/// The paper's Table III: how requests split between the two tiers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierDistribution {
    /// Requests dispatched to DServers.
    pub d_ops: u64,
    /// Requests dispatched to CServers.
    pub c_ops: u64,
}

impl TierDistribution {
    /// Percentage at DServers (0 when empty).
    pub fn d_percent(&self) -> f64 {
        let total = self.d_ops + self.c_ops;
        if total == 0 {
            0.0
        } else {
            self.d_ops as f64 * 100.0 / total as f64
        }
    }

    /// Percentage at CServers (0 when empty).
    pub fn c_percent(&self) -> f64 {
        let total = self.d_ops + self.c_ops;
        if total == 0 {
            0.0
        } else {
            self.c_ops as f64 * 100.0 / total as f64
        }
    }
}

/// Computes the tier distribution, optionally restricted to a time window
/// `[from, to)` and an I/O direction — Table III uses "the five-second
/// period of IOR execution from the 50th second" of write requests.
pub fn tier_distribution(
    records: &[TraceRecord],
    window: Option<(SimTime, SimTime)>,
    kind: Option<IoKind>,
) -> TierDistribution {
    let mut dist = TierDistribution::default();
    for r in records {
        if let Some((from, to)) = window {
            if r.at < from || r.at >= to {
                continue;
            }
        }
        if let Some(k) = kind {
            if r.kind != k {
                continue;
            }
        }
        match r.tier {
            Tier::DServers => dist.d_ops += 1,
            Tier::CServers => dist.c_ops += 1,
        }
    }
    dist
}

/// Fraction (0–1) of requests that continue the issuing process's previous
/// request contiguously — a simple sequentiality measure per rank.
pub fn sequentiality(records: &[TraceRecord]) -> f64 {
    let mut last_end: HashMap<u32, u64> = HashMap::new();
    let mut contiguous = 0u64;
    let mut total = 0u64;
    for r in records {
        if let Some(&end) = last_end.get(&r.rank.0) {
            total += 1;
            if r.offset == end {
                contiguous += 1;
            }
        }
        last_end.insert(r.rank.0, r.offset + r.len);
    }
    if total == 0 {
        0.0
    } else {
        contiguous as f64 / total as f64
    }
}

/// Mean absolute logical distance between a process's consecutive requests
/// — the randomness signal the cost model keys on. Returns 0 with fewer
/// than two requests per process.
pub fn mean_distance(records: &[TraceRecord]) -> f64 {
    let mut last_end: HashMap<u32, u64> = HashMap::new();
    let mut sum = 0u128;
    let mut n = 0u64;
    for r in records {
        if let Some(&end) = last_end.get(&r.rank.0) {
            sum += end.abs_diff(r.offset) as u128;
            n += 1;
        }
        last_end.insert(r.rank.0, r.offset + r.len);
    }
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// Per-tier bytes over time, for bandwidth plots.
pub fn bandwidth_series(records: &[TraceRecord], width: SimDuration, tier: Tier) -> TimeSeries {
    let mut series = TimeSeries::new(width);
    for r in records.iter().filter(|r| r.tier == tier) {
        series.record(r.at, r.len);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4d_mpiio::Rank;

    fn rec(at_s: u64, rank: u32, tier: Tier, kind: IoKind, offset: u64, len: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_secs(at_s),
            rank: Rank(rank),
            tier,
            kind,
            offset,
            len,
        }
    }

    #[test]
    fn distribution_counts_and_percentages() {
        let records = vec![
            rec(1, 0, Tier::DServers, IoKind::Write, 0, 10),
            rec(2, 0, Tier::CServers, IoKind::Write, 10, 10),
            rec(3, 0, Tier::CServers, IoKind::Write, 20, 10),
            rec(4, 0, Tier::CServers, IoKind::Read, 0, 10),
        ];
        let all = tier_distribution(&records, None, None);
        assert_eq!(all.d_ops, 1);
        assert_eq!(all.c_ops, 3);
        assert!((all.d_percent() - 25.0).abs() < 1e-9);
        assert!((all.c_percent() - 75.0).abs() < 1e-9);
        // Restrict to writes.
        let writes = tier_distribution(&records, None, Some(IoKind::Write));
        assert_eq!(writes.c_ops, 2);
        // Restrict to the window [2, 4).
        let win = tier_distribution(
            &records,
            Some((SimTime::from_secs(2), SimTime::from_secs(4))),
            None,
        );
        assert_eq!(win.d_ops, 0);
        assert_eq!(win.c_ops, 2);
        assert_eq!(TierDistribution::default().d_percent(), 0.0);
        assert_eq!(TierDistribution::default().c_percent(), 0.0);
    }

    #[test]
    fn sequentiality_detects_streams() {
        // Rank 0 fully sequential; rank 1 fully random.
        let records = vec![
            rec(1, 0, Tier::DServers, IoKind::Write, 0, 10),
            rec(1, 1, Tier::DServers, IoKind::Write, 1000, 10),
            rec(2, 0, Tier::DServers, IoKind::Write, 10, 10),
            rec(2, 1, Tier::DServers, IoKind::Write, 5000, 10),
            rec(3, 0, Tier::DServers, IoKind::Write, 20, 10),
            rec(3, 1, Tier::DServers, IoKind::Write, 100, 10),
        ];
        let s = sequentiality(&records);
        assert!((s - 0.5).abs() < 1e-9, "2 of 4 transitions contiguous: {s}");
        assert_eq!(sequentiality(&[]), 0.0);
    }

    #[test]
    fn mean_distance_measures_randomness() {
        let seq = vec![
            rec(1, 0, Tier::DServers, IoKind::Write, 0, 10),
            rec(2, 0, Tier::DServers, IoKind::Write, 10, 10),
        ];
        assert_eq!(mean_distance(&seq), 0.0);
        let random = vec![
            rec(1, 0, Tier::DServers, IoKind::Write, 0, 10),
            rec(2, 0, Tier::DServers, IoKind::Write, 1010, 10),
        ];
        assert_eq!(mean_distance(&random), 1000.0);
        assert_eq!(mean_distance(&[]), 0.0);
    }

    #[test]
    fn bandwidth_series_filters_tier() {
        let records = vec![
            rec(0, 0, Tier::DServers, IoKind::Write, 0, 100),
            rec(0, 0, Tier::CServers, IoKind::Write, 0, 900),
            rec(1, 0, Tier::CServers, IoKind::Write, 0, 50),
        ];
        let c = bandwidth_series(&records, SimDuration::from_secs(1), Tier::CServers);
        assert_eq!(c.window_bytes(0), 900);
        assert_eq!(c.window_bytes(1), 50);
        let d = bandwidth_series(&records, SimDuration::from_secs(1), Tier::DServers);
        assert_eq!(d.window_bytes(0), 100);
    }
}
