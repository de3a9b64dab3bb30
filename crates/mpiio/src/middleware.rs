//! The middleware plug-in interface and the stock (baseline) middleware.

use std::collections::HashMap;

use s4d_pfs::FileId;
use s4d_sim::SimTime;
use s4d_storage::IoKind;

use crate::cluster::Cluster;
use crate::report::DurabilityCounts;
use crate::types::{
    AppRequest, ErrorDirective, HedgeDirective, MiddlewareError, Plan, PlannedIo, Rank,
    StragglerCtx, SubIoFailure, Tier,
};

/// Work returned by [`Middleware::poll_background`].
#[derive(Debug, Default)]
pub struct BackgroundPoll {
    /// Plans to execute as background activity (not tied to a process).
    pub plans: Vec<Plan>,
    /// When to poll again; `None` stops background polling.
    pub next_wake: Option<SimTime>,
    /// True while flushable/fetchable work remains or completions are in
    /// flight — drives [`crate::Runner::drain_background`] termination.
    pub work_pending: bool,
}

/// The seam where S4D-Cache plugs into MPI-IO.
///
/// The paper modifies `MPI_File_open`, `MPI_File_read`, `MPI_File_write`,
/// `MPI_File_close` (§IV.B); this trait mirrors those interception points:
///
/// * [`open`](Middleware::open) / [`close`](Middleware::close) — file
///   lifecycle (S4D-Cache opens/closes the companion cache file here);
/// * [`plan_io`](Middleware::plan_io) — for each application read/write,
///   decide where the bytes physically go and return the execution plan;
/// * [`poll_background`](Middleware::poll_background) — the Rebuilder's
///   periodic trigger (the paper's background I/O helper thread);
/// * [`on_plan_complete`](Middleware::on_plan_complete) — invoked when a
///   tagged plan finishes, for metadata state transitions (mark flushed
///   data clean, mark fetched data cached).
pub trait Middleware {
    /// Resolves (creating if necessary) `name` for `rank`, returning the
    /// id of the file in the *original* file system.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError`] if the underlying file system refuses.
    fn open(
        &mut self,
        cluster: &mut Cluster,
        rank: Rank,
        name: &str,
    ) -> Result<FileId, MiddlewareError>;

    /// Plans the physical I/O for one application request.
    fn plan_io(&mut self, cluster: &mut Cluster, now: SimTime, req: &AppRequest) -> Plan;

    /// Closes a file for `rank`.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError`] on invalid handles.
    fn close(
        &mut self,
        cluster: &mut Cluster,
        rank: Rank,
        file: FileId,
    ) -> Result<(), MiddlewareError>;

    /// Called when a plan with a non-zero tag has fully completed.
    fn on_plan_complete(&mut self, _cluster: &mut Cluster, _now: SimTime, _tag: u64) {}

    /// Called when a sub-request fails with an I/O fault; decides whether
    /// the runner retries it. The default gives up immediately (failing
    /// the plan) — a health-aware middleware retries transient errors and
    /// quarantines repeatedly-failing servers here.
    fn on_io_error(
        &mut self,
        _cluster: &mut Cluster,
        _now: SimTime,
        _failure: &SubIoFailure,
    ) -> ErrorDirective {
        ErrorDirective::GiveUp
    }

    /// Called for every successfully completed sub-request with its
    /// submit-to-completion latency — the success signal that lets a
    /// middleware clear a server's failure state. Default: ignored.
    fn on_io_complete(
        &mut self,
        _tier: Tier,
        _server: usize,
        _kind: IoKind,
        _len: u64,
        _latency: s4d_sim::SimDuration,
    ) {
    }

    /// Called for every sub-request the runner submits to a server
    /// (including retries) — a per-server outstanding-op depth signal.
    /// Balanced by exactly one of
    /// [`on_io_complete`](Middleware::on_io_complete),
    /// [`on_io_error`](Middleware::on_io_error), or
    /// [`on_io_abandoned`](Middleware::on_io_abandoned). Default: ignored.
    fn on_io_dispatched(&mut self, _tier: Tier, _server: usize, _kind: IoKind, _len: u64) {}

    /// Called when the runner abandons an outstanding sub-request (after
    /// a [`HedgeDirective::Hedge`] or [`HedgeDirective::Abandon`]); the
    /// depth accounting opened by
    /// [`on_io_dispatched`](Middleware::on_io_dispatched) must close here
    /// because neither a completion nor an error will be delivered.
    /// Default: ignored.
    fn on_io_abandoned(&mut self, _tier: Tier, _server: usize, _kind: IoKind, _len: u64) {}

    /// Called when a dispatched sub-request outlives its plan's deadline
    /// budget without completing. The verdict decides whether the runner
    /// keeps waiting, issues hedged replacement ops, or abandons the
    /// straggler and re-plans. The default waits forever (deadline-blind
    /// middleware behaves exactly as before this hook existed).
    fn on_deadline(
        &mut self,
        _cluster: &mut Cluster,
        _now: SimTime,
        _ctx: &StragglerCtx,
    ) -> HedgeDirective {
        HedgeDirective::Wait
    }

    /// Admissions the middleware declined under backpressure (shed to
    /// OPFS because the cache tier was slow or overloaded), for the final
    /// report. Default: 0.
    fn shed_admissions(&self) -> u64 {
        0
    }

    /// Called when a tagged plan *fails* (a sub-request gave up) instead
    /// of completing: release any state held for `tag`. The runner then
    /// re-plans process requests and drops background plans.
    fn on_plan_failed(&mut self, _cluster: &mut Cluster, _now: SimTime, _tag: u64) {}

    /// Background (Rebuilder) trigger. The default implementation has no
    /// background activity.
    fn poll_background(&mut self, _cluster: &mut Cluster, _now: SimTime) -> BackgroundPoll {
        BackgroundPoll::default()
    }

    /// Journal/checkpoint durability counters, when the middleware keeps
    /// a persistent journal. The runner copies the final values into
    /// [`crate::RunReport::durability`]. Default: `None` (no journal).
    fn durability(&self) -> Option<DurabilityCounts> {
        None
    }

    /// A short name for reports ("stock", "s4d").
    fn name(&self) -> &str;
}

/// The baseline: unmodified MPI-IO over the original file system. Every
/// request goes to the DServers untouched; the CServers sit idle.
#[derive(Debug, Default)]
pub struct StockMiddleware {
    open_counts: HashMap<FileId, usize>,
}

impl StockMiddleware {
    /// Creates the baseline middleware.
    pub fn new() -> Self {
        StockMiddleware::default()
    }
}

impl Middleware for StockMiddleware {
    fn open(
        &mut self,
        cluster: &mut Cluster,
        _rank: Rank,
        name: &str,
    ) -> Result<FileId, MiddlewareError> {
        let id = cluster.opfs_mut().create_or_open(name);
        *self.open_counts.entry(id).or_insert(0) += 1;
        Ok(id)
    }

    fn plan_io(&mut self, _cluster: &mut Cluster, _now: SimTime, req: &AppRequest) -> Plan {
        Plan::single_phase(PlannedIo::from(req))
    }

    fn close(
        &mut self,
        _cluster: &mut Cluster,
        _rank: Rank,
        file: FileId,
    ) -> Result<(), MiddlewareError> {
        if let Some(n) = self.open_counts.get_mut(&file) {
            *n = n.saturating_sub(1);
        }
        Ok(())
    }

    fn name(&self) -> &str {
        "stock"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_passes_straight_through() {
        let mut cluster = Cluster::paper_testbed_small(1);
        let mut mw = StockMiddleware::new();
        let f = mw.open(&mut cluster, Rank(0), "a.dat").unwrap();
        let req = AppRequest {
            rank: Rank(0),
            file: f,
            kind: IoKind::Write,
            offset: 4096,
            len: 8192,
            data: None,
        };
        let plan = mw.plan_io(&mut cluster, SimTime::ZERO, &req);
        assert!(plan.then.is_empty());
        assert_eq!(plan.ops.len(), 1);
        let op = &plan.ops[0];
        assert_eq!(op.tier, Tier::DServers);
        assert_eq!(op.offset, 4096);
        assert_eq!(op.len, 8192);
        assert_eq!(op.app_offset.get(), Some(4096));
        assert_eq!(plan.tag, 0);
        mw.close(&mut cluster, Rank(0), f).unwrap();
        assert_eq!(mw.name(), "stock");
    }

    #[test]
    fn stock_open_is_idempotent_per_name() {
        let mut cluster = Cluster::paper_testbed_small(1);
        let mut mw = StockMiddleware::new();
        let a = mw.open(&mut cluster, Rank(0), "same").unwrap();
        let b = mw.open(&mut cluster, Rank(1), "same").unwrap();
        assert_eq!(a, b, "all ranks share one file");
    }

    #[test]
    fn default_background_poll_is_inert() {
        let mut cluster = Cluster::paper_testbed_small(1);
        let mut mw = StockMiddleware::new();
        let poll = mw.poll_background(&mut cluster, SimTime::ZERO);
        assert!(poll.plans.is_empty());
        assert!(poll.next_wake.is_none());
    }
}
