//! IOSIG-style request tracing.
//!
//! The paper uses IOSIG (its reference \[33\]) to track "the accessed
//! addresses of requests on DServers and CServers" and derive Table III's
//! request distribution. This module plays that role for the simulated
//! stack: [`TraceCollector`] plugs into the runner as an
//! [`s4d_mpiio::IoObserver`], recording every dispatched application data
//! op, and [`tier_distribution`] computes how those ops split between the
//! two tiers.

use std::cell::RefCell;
use std::rc::Rc;

use s4d_mpiio::{IoObserver, Rank, Tier};
use s4d_sim::SimTime;
use s4d_storage::IoKind;

/// One dispatched application data op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Dispatch time.
    pub at: SimTime,
    /// Issuing process.
    pub rank: Rank,
    /// Which tier served it.
    pub tier: Tier,
    /// Read or write.
    pub kind: IoKind,
    /// Offset in the original file the bytes belong to.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Shared handle to collected records (alive after the runner consumed the
/// observer). Not `Send`: the runner and its observers are single-threaded.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    records: Rc<RefCell<Vec<TraceRecord>>>,
}

impl TraceHandle {
    /// Snapshot of all records so far.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.records.borrow().clone()
    }
}

/// The observer to register with [`s4d_mpiio::Runner::add_observer`]. Keep
/// the [`TraceHandle`] to read results after the run.
///
/// ```
/// use s4d_bench::trace::TraceCollector;
/// let (collector, handle) = TraceCollector::new();
/// // runner.add_observer(Box::new(collector));
/// # drop(collector);
/// assert!(handle.snapshot().is_empty());
/// ```
#[derive(Debug)]
pub struct TraceCollector {
    handle: TraceHandle,
}

impl TraceCollector {
    /// Creates a collector and its reading handle.
    pub fn new() -> (Self, TraceHandle) {
        let handle = TraceHandle::default();
        (
            TraceCollector {
                handle: handle.clone(),
            },
            handle,
        )
    }
}

impl IoObserver for TraceCollector {
    fn on_dispatch(
        &mut self,
        now: SimTime,
        rank: Rank,
        tier: Tier,
        kind: IoKind,
        app_offset: u64,
        len: u64,
    ) {
        self.handle.records.borrow_mut().push(TraceRecord {
            at: now,
            rank,
            tier,
            kind,
            offset: app_offset,
            len,
        });
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_s: u64, tier: Tier, kind: IoKind) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_secs(at_s),
            rank: Rank(0),
            tier,
            kind,
            offset: at_s * 100,
            len: 100,
        }
    }

    #[test]
    fn collects_and_snapshots() {
        let (mut c, h) = TraceCollector::new();
        assert!(h.snapshot().is_empty());
        for (t, tier) in [(1, Tier::DServers), (2, Tier::CServers)] {
            let r = rec(t, tier, IoKind::Write);
            c.on_dispatch(r.at, r.rank, r.tier, r.kind, r.offset, r.len);
        }
        assert_eq!(
            h.snapshot(),
            [
                rec(1, Tier::DServers, IoKind::Write),
                rec(2, Tier::CServers, IoKind::Write)
            ]
        );
    }

    #[test]
    fn distribution_counts_and_percentages() {
        let records = vec![
            rec(1, Tier::DServers, IoKind::Write),
            rec(2, Tier::CServers, IoKind::Write),
            rec(3, Tier::CServers, IoKind::Write),
            rec(4, Tier::CServers, IoKind::Read),
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
}
