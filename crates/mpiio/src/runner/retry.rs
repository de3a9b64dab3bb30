//! Sub-request retry and application-request re-plan machinery.
//!
//! Two recovery levels with different scopes: a *retry* resubmits one
//! failed sub-request to the same server after a middleware-chosen
//! backoff; a *re-plan* throws the whole plan away and asks the
//! middleware for a fresh one once its state reflects the failure
//! (quarantine, invalidated mappings), so the new plan routes around it.

use s4d_pfs::SubRequest;
use s4d_sim::{EventQueue, SimDuration, SimTime};

use crate::middleware::Middleware;
use crate::types::Tier;

use super::exec::{PlanExec, PlanOwner, SubMeta};
use super::slab::RetryId;
use super::{Event, State};

/// Hard cap on re-planning one application request after plan failures —
/// far above what converging fault scenarios need; hitting it means the
/// middleware can neither serve nor route around a permanently failed
/// resource.
const MAX_REPLANS: u32 = 1000;

/// Backoff before re-planning a failed request: grows with the attempt
/// so a quarantined server's recovery window can pass.
fn replan_delay(replans: u32) -> SimDuration {
    let exp = replans.min(7);
    SimDuration::from_millis(8 << exp).min(SimDuration::from_secs(1))
}

/// A failed sub-request waiting out its retry backoff.
pub(super) struct PendingRetry {
    tier: Tier,
    server: usize,
    req: SubRequest,
    meta: SubMeta,
}

impl<M: Middleware> State<M> {
    /// Parks a failed sub-request until its backoff elapses.
    #[expect(clippy::too_many_arguments, reason = "all a retry needs to be rebuilt")]
    pub(super) fn schedule_retry(
        &mut self,
        now: SimTime,
        delay: SimDuration,
        tier: Tier,
        server: usize,
        req: SubRequest,
        meta: SubMeta,
        q: &mut EventQueue<Event>,
    ) {
        self.report.degraded.retries += 1;
        let token = self.retries.insert(PendingRetry {
            tier,
            server,
            req,
            meta,
        });
        q.push(now + delay, Event::Retry(token));
    }

    /// Resubmits a retried sub-request after its backoff.
    pub(super) fn fire_retry(&mut self, now: SimTime, token: RetryId, q: &mut EventQueue<Event>) {
        let Some(PendingRetry {
            tier,
            server,
            mut req,
            mut meta,
        }) = self.retries.remove(token)
        else {
            return; // a Retry event names a pending retry
        };
        meta.submitted = now;
        let deadline = meta.deadline;
        let kind = req.kind;
        let len = req.len;
        // Each attempt runs under a fresh key with a fresh deadline; the
        // failed attempt's key was retired when it completed, so its timer
        // cannot fire on this one.
        let id = self.subs.insert(meta);
        req.id = id;
        let Ok(srv) = self.cluster.pfs_mut(tier).server_mut(server) else {
            self.subs.remove(id);
            return; // the retried server was valid when the retry was queued
        };
        let started = srv.submit(now, req);
        self.middleware.on_io_dispatched(tier, server, kind, len);
        if let Some(budget) = deadline {
            q.push(now + budget, Event::Deadline(id));
        }
        if let Some(s) = started {
            q.push(s.completes_at, Event::ServerDone { tier, server });
        }
    }

    /// A plan failed: notify the middleware, then schedule a re-plan of
    /// the owning application request (background plans are just dropped
    /// and rebuilt by a later poll).
    pub(super) fn fail_plan(&mut self, now: SimTime, exec: PlanExec, q: &mut EventQueue<Event>) {
        if exec.tag != 0 {
            self.middleware
                .on_plan_failed(&mut self.cluster, now, exec.tag);
        }
        match exec.owner {
            PlanOwner::Process(index) => {
                let Some(inflight) = self.procs.get_mut(index).and_then(|p| p.request.as_mut())
                else {
                    return; // a process plan fails its in-flight request
                };
                let replans = inflight.replans;
                assert!(
                    replans < MAX_REPLANS,
                    "request (offset {}, len {}) re-planned {MAX_REPLANS} times \
                     without succeeding — the middleware cannot route around the failure",
                    inflight.req.offset,
                    inflight.req.len
                );
                inflight.replans += 1;
                // The next plan reads into a fresh buffer.
                inflight.read_buf = None;
                self.report.degraded.replans += 1;
                q.push(now + replan_delay(replans), Event::Replan(index));
            }
            PlanOwner::Background => {
                self.report.degraded.failed_background_plans += 1;
            }
        }
    }
}
