//! Tracing hooks and per-dispatch report accounting.

use s4d_sim::SimTime;
use s4d_storage::IoKind;

use crate::middleware::Middleware;
use crate::types::{PlannedIo, Rank, Tier};

use super::exec::PlanOwner;
use super::State;

/// Observation hooks for tracing tools.
///
/// All methods default to no-ops; implement the ones you need.
pub trait IoObserver {
    /// A planned application-data op was dispatched to a tier.
    fn on_dispatch(
        &mut self,
        _now: SimTime,
        _rank: Rank,
        _tier: Tier,
        _kind: IoKind,
        _app_offset: u64,
        _len: u64,
    ) {
    }

    /// An application request fully completed.
    fn on_request_complete(
        &mut self,
        _now: SimTime,
        _rank: Rank,
        _kind: IoKind,
        _offset: u64,
        _len: u64,
        _issued: SimTime,
    ) {
    }

    /// A completed application *read* with its assembled bytes (functional
    /// runs only; `None` in timing runs).
    fn on_read_data(&mut self, _rank: Rank, _offset: u64, _len: u64, _data: Option<&[u8]>) {}
}

impl<M: Middleware> State<M> {
    /// Books a dispatched op into the report (tier traffic, overhead, or
    /// background bytes) and fans it out to the observers. `owner` owns
    /// the op's plan.
    pub(super) fn account_dispatch(&mut self, now: SimTime, owner: PlanOwner, op: &PlannedIo) {
        match (owner, op.app_offset.get()) {
            (PlanOwner::Process(index), Some(app_off)) => {
                self.report.tiers.record(op.tier, op.len);
                let Some(proc) = self.procs.get(index) else {
                    return; // owners name constructed processes
                };
                if let Some(kind) = proc.request.as_ref().map(|r| r.req.kind) {
                    for obs in &mut self.observers {
                        obs.on_dispatch(now, proc.rank, op.tier, kind, app_off, op.len);
                    }
                }
            }
            (PlanOwner::Process(_), None) => {
                self.report.overhead_bytes += op.len;
            }
            (PlanOwner::Background, _) => {
                self.report.background_bytes += op.len;
            }
        }
    }
}
