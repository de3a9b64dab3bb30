//! The trace collector.

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

    /// Serialises the records as CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s,rank,tier,kind,offset,len\n");
        for r in self.records.borrow().iter() {
            out.push_str(&format!(
                "{:.9},{},{},{},{},{}\n",
                r.at.as_secs_f64(),
                r.rank.0,
                r.tier,
                r.kind,
                r.offset,
                r.len
            ));
        }
        out
    }
}

/// The observer to register with [`s4d_mpiio::Runner::add_observer`]. Keep
/// the [`TraceHandle`] to read results after the run.
///
/// ```
/// use s4d_trace::TraceCollector;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn record(collector: &mut TraceCollector, t: u64, tier: Tier) {
        collector.on_dispatch(
            SimTime::from_secs(t),
            Rank(0),
            tier,
            IoKind::Write,
            t * 100,
            100,
        );
    }

    #[test]
    fn collects_and_snapshots() {
        let (mut c, h) = TraceCollector::new();
        assert!(h.snapshot().is_empty());
        record(&mut c, 1, Tier::DServers);
        record(&mut c, 2, Tier::CServers);
        let snap = h.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].tier, Tier::DServers);
        assert_eq!(snap[1].tier, Tier::CServers);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let (mut c, h) = TraceCollector::new();
        record(&mut c, 1, Tier::CServers);
        let csv = h.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("time_s,rank,tier"));
        assert!(lines[1].contains("CServers"));
        assert!(lines[1].contains("write"));
    }
}
