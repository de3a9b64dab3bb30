//! Deadline-budget enforcement: straggler detection, hedged replacement
//! ops, and abandonment.
//!
//! A plan carrying a [`Plan::deadline`](crate::Plan::deadline) budget
//! gets a timer per dispatched sub-request (armed in
//! `submit_planned_op`, re-armed per attempt in `fire_retry`). When a
//! timer fires with its sub-request still outstanding, the middleware is
//! consulted ([`Middleware::on_deadline`]) and the runner executes the
//! verdict:
//!
//! * **Wait** — nothing happens; the straggler keeps its slot (correct
//!   when the straggler holds the only copy of dirty bytes).
//! * **Hedge** — cancel-and-replace: the straggler is abandoned and the
//!   replacement ops run under the same plan. A straggler genuinely in
//!   device service cannot be recalled; its late completion carries a
//!   retired slab key — abandoning bumped the slot's generation — so
//!   `server_done` misses and discards it, however the slot has been
//!   reused since; whichever path delivers first is the one the
//!   application observes. Re-planned/hedged writes are safe against
//!   late-landing originals because the durability protocol re-plans a
//!   write onto the *same* mapping with the same payload — a duplicate
//!   apply is byte-identical, never half-applied.
//! * **Abandon** — the straggler is abandoned and its plan fails; the
//!   runner re-plans the request once drained, with middleware health
//!   state that now routes around the straggling server.
//!
//! Escalation is bounded: a hedge op that itself misses its deadline is
//! abandoned outright (never re-hedged), and re-plans are capped by the
//! retry module's `MAX_REPLANS`.
//!
//! [`Middleware::on_deadline`]: crate::Middleware::on_deadline

use s4d_pfs::SubReqId;
use s4d_sim::{EventQueue, SimTime};

use crate::middleware::Middleware;
use crate::types::{HedgeDirective, PlannedIo, StragglerCtx};

use super::exec::{PlanOwner, SubMeta};
use super::{Event, State};

impl<M: Middleware> State<M> {
    /// A deadline timer fired: if its sub-request is still outstanding
    /// under the key the timer was armed for, record the miss and apply
    /// the middleware's verdict.
    pub(super) fn fire_deadline(&mut self, now: SimTime, sub: SubReqId, q: &mut EventQueue<Event>) {
        let Some(meta) = self.subs.get(sub) else {
            return; // completed, abandoned or retried (new key) within budget
        };
        self.report.gray.deadline_misses += 1;
        if meta.hedge {
            // A hedge that misses too is abandoned outright — the
            // escalation chain ends at original → hedge → re-plan.
            self.abandon_sub(now, sub, q);
            return;
        }
        let app_file = match self.plans.get(meta.plan_id).map(|e| e.owner) {
            Some(PlanOwner::Process(i)) => self
                .procs
                .get(i)
                .and_then(|p| p.request.as_ref())
                .map(|r| r.req.file),
            _ => None,
        };
        let app_segments = match meta.app_offset {
            Some(app_off) => self
                .cluster
                .pfs(meta.tier)
                .layout()
                .file_segments(&meta.sub)
                .map(|(o, l)| (app_off + (o - meta.op_offset), l))
                .collect(),
            None => Vec::new(),
        };
        let ctx = StragglerCtx {
            tier: meta.tier,
            server: meta.sub.server,
            file: meta.file,
            kind: meta.kind,
            len: meta.sub.len,
            app_file,
            app_segments,
            attempts: meta.attempts,
        };
        match self.middleware.on_deadline(&mut self.cluster, now, &ctx) {
            HedgeDirective::Wait => {}
            HedgeDirective::Hedge { ops } => self.hedge_sub(now, sub, ops, q),
            HedgeDirective::Abandon => self.abandon_sub(now, sub, q),
        }
    }

    /// Cancel-and-replace: abandons the straggler and runs the hedged
    /// replacement ops under the same plan, inheriting the plan's
    /// deadline budget (marked as hedges so their own misses abandon).
    fn hedge_sub(
        &mut self,
        now: SimTime,
        sub: SubReqId,
        ops: Vec<PlannedIo>,
        q: &mut EventQueue<Event>,
    ) {
        if ops.is_empty() {
            return; // nothing to hedge with — equivalent to Wait
        }
        let Some(meta) = self.subs.remove(sub) else {
            return; // raced with a completion delivered this instant
        };
        self.detach_straggler(now, &meta, sub, q);
        let plan_id = meta.plan_id;
        let Some(owner) = self.plans.get(plan_id).map(|e| e.owner) else {
            return; // an outstanding sub keeps its plan live
        };
        self.report.gray.hedges_issued += 1;
        let mut launched = 0;
        for op in &ops {
            if op.len == 0 {
                continue;
            }
            self.account_dispatch(now, owner, op);
            launched += self.submit_planned_op(now, plan_id, op, meta.deadline, true, q);
        }
        let Some(exec) = self.plans.get_mut(plan_id) else {
            return; // submission completes nothing, so the plan is still there
        };
        exec.outstanding = exec.outstanding - 1 + launched;
        if exec.outstanding == 0 {
            self.settle_drained_plan(now, plan_id, q);
        }
    }

    /// Abandons the straggler and fails its plan; once the plan drains,
    /// the owning request is re-planned around the straggling server.
    fn abandon_sub(&mut self, now: SimTime, sub: SubReqId, q: &mut EventQueue<Event>) {
        let Some(meta) = self.subs.remove(sub) else {
            return; // raced with a completion delivered this instant
        };
        self.detach_straggler(now, &meta, sub, q);
        let plan_id = meta.plan_id;
        let Some(exec) = self.plans.get_mut(plan_id) else {
            return; // an outstanding sub keeps its plan live
        };
        exec.failed = true;
        exec.outstanding -= 1;
        if exec.outstanding == 0 {
            self.settle_drained_plan(now, plan_id, q);
        }
    }

    /// Closes the books on an abandoned straggler: balances the dispatch
    /// depth accounting and frees server-side state. A parked or queued
    /// op is physically removed; one genuinely in device service runs to
    /// its promised completion, which then finds its key retired and is
    /// discarded.
    fn detach_straggler(
        &mut self,
        now: SimTime,
        meta: &SubMeta,
        sub: SubReqId,
        q: &mut EventQueue<Event>,
    ) {
        self.middleware
            .on_io_abandoned(meta.tier, meta.sub.server, meta.kind, meta.sub.len);
        let Ok(srv) = self.cluster.pfs_mut(meta.tier).server_mut(meta.sub.server) else {
            return; // the sub was dispatched to a server the tier has
        };
        let (freed, next) = srv.abandon(now, sub);
        if freed {
            self.report.gray.stall_abandons += 1;
        }
        if let Some(s) = next {
            q.push(
                s.completes_at,
                Event::ServerDone {
                    tier: meta.tier,
                    server: meta.sub.server,
                },
            );
        }
    }
}
