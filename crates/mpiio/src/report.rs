//! Run metrics and the final report.

use s4d_sim::stats::{BandwidthMeter, LatencyHistogram};
use s4d_sim::{SimDuration, SimTime};
use s4d_storage::IoKind;

use crate::types::Tier;

/// Per-tier request/byte counters for application-visible traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounts {
    /// Application I/Os (or fragments thereof) dispatched to DServers.
    pub d_ops: u64,
    /// Bytes dispatched to DServers.
    pub d_bytes: u64,
    /// Application I/Os (or fragments thereof) dispatched to CServers.
    pub c_ops: u64,
    /// Bytes dispatched to CServers.
    pub c_bytes: u64,
}

impl TierCounts {
    /// Records one dispatched op.
    pub fn record(&mut self, tier: Tier, bytes: u64) {
        match tier {
            Tier::DServers => {
                self.d_ops += 1;
                self.d_bytes += bytes;
            }
            Tier::CServers => {
                self.c_ops += 1;
                self.c_bytes += bytes;
            }
        }
    }

    /// Percentage of ops that went to CServers (the paper's Table III),
    /// or 0 when nothing was dispatched.
    pub fn cserver_op_share(&self) -> f64 {
        let total = self.d_ops + self.c_ops;
        if total == 0 {
            0.0
        } else {
            self.c_ops as f64 * 100.0 / total as f64
        }
    }
}

/// Per-direction (read/write) application-level metrics.
#[derive(Debug, Clone, Default)]
pub struct KindReport {
    /// Bytes and op counts.
    pub meter: BandwidthMeter,
    /// Per-request latency distribution.
    pub latency: LatencyHistogram,
    /// Time of the first request issue, if any.
    pub first_issue: Option<SimTime>,
    /// Time of the last request completion, if any.
    pub last_completion: Option<SimTime>,
}

impl KindReport {
    /// Records one completed application request.
    pub fn record(&mut self, issued: SimTime, completed: SimTime, bytes: u64) {
        self.meter.add(bytes);
        self.latency.record(completed - issued);
        self.first_issue = Some(match self.first_issue {
            Some(t) => t.min(issued),
            None => issued,
        });
        self.last_completion = Some(match self.last_completion {
            Some(t) => t.max(completed),
            None => completed,
        });
    }

    /// The active span from first issue to last completion.
    pub fn span(&self) -> SimDuration {
        match (self.first_issue, self.last_completion) {
            (Some(a), Some(b)) => b - a,
            _ => SimDuration::ZERO,
        }
    }

    /// Aggregate application throughput over the active span, MiB/s.
    pub fn throughput_mibs(&self) -> f64 {
        self.meter.mib_per_sec(self.span())
    }
}

/// Degraded-mode counters observed by the runner (server faults and the
/// recovery machinery they triggered). All zero on a healthy run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradedCounts {
    /// Sub-requests that completed with an I/O fault (every attempt
    /// counts, so this is ≥ the number of distinct failing operations).
    pub io_errors: u64,
    /// Sub-request retries granted by the middleware.
    pub retries: u64,
    /// Process requests re-planned after a plan failure. Re-dispatched
    /// ops are counted again in [`TierCounts`].
    pub replans: u64,
    /// Background (Rebuilder) plans dropped because a sub-request gave
    /// up; the middleware rebuilds the work on a later poll.
    pub failed_background_plans: u64,
    /// Overhead (journal) write failures that were tolerated without
    /// failing their plan — recovery treats the lost records as a torn
    /// journal tail.
    pub overhead_failures: u64,
}

/// Gray-failure (fail-slow) counters: deadline misses and what the
/// hedging machinery did about them. All zero on a healthy
/// run or when the middleware sets no deadlines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GrayFailureCounts {
    /// Sub-requests still outstanding when their deadline budget lapsed
    /// (each fired deadline timer counts once).
    pub deadline_misses: u64,
    /// Stragglers replaced by hedged ops against the other tier.
    pub hedges_issued: u64,
    /// Hedged ops that completed successfully (delivered the bytes the
    /// straggler never did).
    pub hedges_won: u64,
    /// Straggling sub-requests physically removed from a server (freed
    /// from a stall park or pulled out of the queue).
    pub stall_abandons: u64,
    /// Admissions the middleware shed under backpressure (copied from
    /// `Middleware::shed_admissions` when the run ends).
    pub shed_admissions: u64,
}

/// Journal/checkpoint durability counters reported by a middleware that
/// persists its metadata (see `Middleware::durability`). All zero for
/// middlewares without a journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityCounts {
    /// Journal writes issued (planned group commits and synchronous
    /// appends).
    pub journal_writes: u64,
    /// Journal bytes written.
    pub journal_bytes: u64,
    /// Checkpoint snapshots installed.
    pub checkpoints: u64,
    /// Bytes of checkpoint snapshots written.
    pub checkpoint_bytes: u64,
    /// Journal records compacted away by checkpointing.
    pub records_compacted: u64,
    /// Records the middleware replayed when it was built by crash
    /// recovery (zero for a fresh instance).
    pub recovery_records_replayed: u64,
    /// Journal bytes recovery dropped as a torn/corrupt suffix.
    pub recovery_dropped_bytes: u64,
}

/// The result of one simulated run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Write-side application metrics.
    pub writes: KindReport,
    /// Read-side application metrics.
    pub reads: KindReport,
    /// Where application traffic was dispatched (Table III's measurement).
    pub tiers: TierCounts,
    /// Bytes moved by background (Rebuilder) plans.
    pub background_bytes: u64,
    /// Background plans completed.
    pub background_plans: u64,
    /// Overhead (journal/metadata) bytes written by middleware plans.
    pub overhead_bytes: u64,
    /// Fault/retry/re-plan counters (all zero on a healthy run).
    pub degraded: DegradedCounts,
    /// Deadline/hedging counters (all zero on a healthy run or with
    /// deadlines disabled).
    pub gray: GrayFailureCounts,
    /// Journal/checkpoint durability counters, when the middleware keeps
    /// a persistent journal (`None` for e.g. the stock middleware).
    pub durability: Option<DurabilityCounts>,
    /// Simulated instant at which the run finished.
    pub end_time: SimTime,
    /// Events `Runner::run` delivered (a background drain is not counted).
    pub events: u64,
}

impl RunReport {
    /// Metrics for one direction.
    pub fn kind(&self, kind: IoKind) -> &KindReport {
        match kind {
            IoKind::Write => &self.writes,
            IoKind::Read => &self.reads,
        }
    }

    /// Mutable metrics for one direction.
    pub(crate) fn kind_mut(&mut self, kind: IoKind) -> &mut KindReport {
        match kind {
            IoKind::Write => &mut self.writes,
            IoKind::Read => &mut self.reads,
        }
    }

    /// Number of completed application requests in one direction.
    pub fn app_ops(&self, kind: IoKind) -> u64 {
        self.kind(kind).meter.ops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_counts_and_share() {
        let mut t = TierCounts::default();
        assert_eq!(t.cserver_op_share(), 0.0);
        t.record(Tier::DServers, 100);
        t.record(Tier::CServers, 50);
        t.record(Tier::CServers, 50);
        assert_eq!(t.d_ops, 1);
        assert_eq!(t.c_ops, 2);
        assert_eq!(t.d_bytes, 100);
        assert_eq!(t.c_bytes, 100);
        assert!((t.cserver_op_share() - 66.666).abs() < 0.01);
    }

    #[test]
    fn kind_report_spans_and_throughput() {
        let mut k = KindReport::default();
        assert_eq!(k.span(), SimDuration::ZERO);
        assert_eq!(k.throughput_mibs(), 0.0);
        let t0 = SimTime::from_secs(1);
        let t1 = SimTime::from_secs(3);
        k.record(t0, t1, 2 * 1024 * 1024);
        k.record(t0, SimTime::from_secs(2), 2 * 1024 * 1024);
        assert_eq!(k.span(), SimDuration::from_secs(2));
        assert!((k.throughput_mibs() - 2.0).abs() < 1e-9);
        assert_eq!(k.meter.ops(), 2);
    }
}
