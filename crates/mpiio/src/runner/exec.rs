//! Script advancement and plan execution: process bookkeeping, phase
//! submission, sub-request decomposition, and completion assembly.

use s4d_pfs::{Priority, SubRange, SubRequest};
use s4d_sim::{EventQueue, OneOrMany, SimDuration, SimTime};
use s4d_storage::IoKind;

use crate::middleware::Middleware;
use crate::script::ProcessScript;
use crate::types::{
    AppOp, AppRequest, ErrorDirective, FileHandle, PlannedIo, Rank, SubIoFailure, Tier,
};

use super::slab::PlanId;
use super::{Event, State};

/// Time charged to a process for each `open` (metadata round-trip).
const OPEN_COST: SimDuration = SimDuration::from_micros(500);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ProcStatus {
    Running,
    AtBarrier,
    Finished,
}

pub(super) struct Proc {
    pub(super) rank: Rank,
    pub(super) script: Box<dyn ProcessScript>,
    /// Open-file slots, MPI-style: close frees a slot, open reuses the
    /// lowest free slot (so a chained workload's `FileHandle(0)` always
    /// names its own current file).
    pub(super) handles: Vec<Option<s4d_pfs::FileId>>,
    /// Per-slot individual file pointers (`MPI_File_seek` state).
    pub(super) cursors: Vec<u64>,
    pub(super) status: ProcStatus,
    /// The request in flight: a closed-loop process issues the next one
    /// only after this one completes, so it has at most one.
    pub(super) request: Option<InFlight>,
}

/// An application request from issue to completion, across re-plans.
pub(super) struct InFlight {
    /// The request as the middleware plans it; a re-plan borrows it again
    /// (the write payload stays here, so a failed plan can be re-planned).
    pub(super) req: AppRequest,
    pub(super) issued: SimTime,
    /// Functional read bytes, scattered in as sub-requests complete.
    pub(super) read_buf: Option<Vec<u8>>,
    /// How many times this request has been re-planned.
    pub(super) replans: u32,
}

/// Who a plan belongs to: a process's in-flight request (held in the
/// process's [`Proc::request`]) or the middleware's background work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum PlanOwner {
    Process(usize),
    Background,
}

/// A launched plan, in the table until it completes or fails. Of the
/// plan's two phases only `then` is kept here: `ops` wait out the
/// lead-in in `State::first_phases`, so an entry carries one phase, not
/// two.
pub(super) struct PlanExec {
    /// The middleware's tag, echoed when the plan completes or fails.
    pub(super) tag: u64,
    /// The plan's per-sub-request deadline budget.
    pub(super) deadline: Option<SimDuration>,
    /// The second phase, moved out when it is submitted.
    pub(super) then: OneOrMany<PlannedIo>,
    /// The phase being submitted or drained: 0 for the plan's `ops`, 1
    /// for its `then`; 2 once both are done.
    pub(super) phase: u8,
    /// Sub-requests of the current phase not yet settled.
    pub(super) outstanding: u32,
    pub(super) owner: PlanOwner,
    /// Set when a sub-request gave up: a remaining phase is skipped and
    /// the plan fails instead of completing.
    pub(super) failed: bool,
}

pub(super) struct SubMeta {
    pub(super) plan_id: PlanId,
    /// Tier the sub-request was dispatched to.
    pub(super) tier: Tier,
    /// Tier-local file the sub-request targets.
    pub(super) file: s4d_pfs::FileId,
    /// Read or write.
    pub(super) kind: IoKind,
    /// Offset of the planned op within its file.
    pub(super) op_offset: u64,
    /// Application-file offset the op's bytes belong to, if data-carrying.
    pub(super) app_offset: Option<u64>,
    /// The server-local piece of the op this sub-request carries. Its
    /// `(file_offset_within_op_file, len)` segments are derived on demand
    /// from the tier's layout ([`s4d_pfs::StripeLayout::file_segments`]).
    pub(super) sub: SubRange,
    /// Service class (needed to rebuild the sub-request on retry).
    pub(super) priority: Priority,
    /// Attempts so far, including the in-flight one.
    pub(super) attempts: u32,
    /// When the current attempt was submitted (latency measurement).
    pub(super) submitted: SimTime,
    /// Deadline budget to re-arm on retries (`None`: never expires).
    pub(super) deadline: Option<SimDuration>,
    /// True for a hedged replacement op: its own deadline miss abandons
    /// outright instead of hedging again, bounding the escalation chain
    /// at original → hedge → abandon/re-plan.
    pub(super) hedge: bool,
}

impl<M: Middleware> State<M> {
    /// Executes control ops until the process blocks on I/O, a barrier,
    /// think time, or finishes.
    ///
    /// # Panics
    ///
    /// A malformed workload script (an unopened handle, a range ending
    /// past `u64::MAX`) or a middleware that fails an open or close stops
    /// the run with rank context rather than simulate nonsense.
    pub(super) fn advance_process(&mut self, now: SimTime, i: usize, q: &mut EventQueue<Event>) {
        let mut now = now;
        loop {
            let op = match self.proc_mut(i).script.next_op() {
                Some(op) => op,
                None => {
                    if self.proc(i).status != ProcStatus::Finished {
                        self.proc_mut(i).status = ProcStatus::Finished;
                        self.finished += 1;
                        self.maybe_release_barrier(now, q);
                    }
                    return;
                }
            };
            match op {
                AppOp::Open { name } => {
                    let rank = self.proc(i).rank;
                    #[expect(clippy::panic, reason = "malformed script or broken middleware")]
                    let file = self
                        .middleware
                        .open(&mut self.cluster, rank, &name)
                        .unwrap_or_else(|e| panic!("{rank} failed to open {name:?}: {e}"));
                    let proc = self.proc_mut(i);
                    match proc.handles.iter().position(|h| h.is_none()) {
                        Some(slot) => {
                            if let Some(h) = proc.handles.get_mut(slot) {
                                *h = Some(file);
                            }
                            if let Some(c) = proc.cursors.get_mut(slot) {
                                *c = 0;
                            }
                        }
                        None => {
                            proc.handles.push(Some(file));
                            proc.cursors.push(0);
                        }
                    }
                    now += OPEN_COST;
                }
                AppOp::Close { handle } => {
                    let rank = self.proc(i).rank;
                    #[expect(clippy::panic, reason = "malformed workload script: fail fast")]
                    let file = self
                        .proc_mut(i)
                        .handles
                        .get_mut(handle.0)
                        .and_then(Option::take)
                        .unwrap_or_else(|| panic!("{rank} closed unopened handle {}", handle.0));
                    #[expect(clippy::panic, reason = "malformed script or broken middleware")]
                    self.middleware
                        .close(&mut self.cluster, rank, file)
                        .unwrap_or_else(|e| panic!("{rank} failed to close: {e}"));
                }
                AppOp::Think { duration } => {
                    q.push(now + duration, Event::ProcessWake(i));
                    return;
                }
                AppOp::Barrier => {
                    self.proc_mut(i).status = ProcStatus::AtBarrier;
                    self.barrier_waiting += 1;
                    self.maybe_release_barrier(now, q);
                    return;
                }
                AppOp::Seek { handle, offset } => {
                    let proc = self.proc_mut(i);
                    let rank = proc.rank;
                    let open = proc.handles.get(handle.0).copied().flatten().is_some();
                    match proc.cursors.get_mut(handle.0) {
                        Some(cursor) if open => *cursor = offset,
                        #[expect(clippy::panic, reason = "malformed workload script: fail fast")]
                        _ => panic!("{rank} seeked unopened handle {}", handle.0),
                    }
                }
                #[expect(clippy::panic, reason = "malformed workload script: fail fast")]
                AppOp::IoAtCursor {
                    handle,
                    kind,
                    len,
                    data,
                } => {
                    let proc = self.proc_mut(i);
                    let rank = proc.rank;
                    let Some(cursor) = proc.cursors.get_mut(handle.0) else {
                        panic!("{rank} used unopened handle {}", handle.0)
                    };
                    let offset = *cursor;
                    let Some(end) = offset.checked_add(len) else {
                        panic!("{rank} requested {len} bytes at {offset}: the range ends past u64::MAX")
                    };
                    *cursor = end;
                    self.dispatch_io(now, i, handle, kind, offset, len, data, q);
                    return;
                }
                AppOp::Io {
                    handle,
                    kind,
                    offset,
                    len,
                    data,
                } => {
                    self.dispatch_io(now, i, handle, kind, offset, len, data, q);
                    return;
                }
            }
        }
    }

    /// Resolves a handle and launches the middleware plan for one I/O.
    #[expect(clippy::too_many_arguments, reason = "one I/O op's fields, unpacked")]
    #[expect(clippy::panic, reason = "malformed workload script: fail fast")]
    fn dispatch_io(
        &mut self,
        now: SimTime,
        i: usize,
        handle: FileHandle,
        kind: IoKind,
        offset: u64,
        len: u64,
        data: Option<Vec<u8>>,
        q: &mut EventQueue<Event>,
    ) {
        let rank = self.proc(i).rank;
        let file = self
            .proc(i)
            .handles
            .get(handle.0)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("{rank} used unopened handle {}", handle.0));
        if offset.checked_add(len).is_none() {
            panic!("{rank} requested {len} bytes at {offset}: the range ends past u64::MAX");
        }
        self.proc_mut(i).request = Some(InFlight {
            req: AppRequest {
                rank,
                file,
                kind,
                offset,
                len,
                data,
            },
            issued: now,
            read_buf: None,
            replans: 0,
        });
        self.plan_request(now, i, q);
    }

    /// Asks the middleware to plan process `i`'s in-flight request and
    /// launches the plan (on issue, and again after a failed plan).
    pub(super) fn plan_request(&mut self, now: SimTime, i: usize, q: &mut EventQueue<Event>) {
        let Some(inflight) = self.procs.get(i).and_then(|p| p.request.as_ref()) else {
            return; // callers just stored or kept the request
        };
        let plan = self
            .middleware
            .plan_io(&mut self.cluster, now, &inflight.req);
        self.launch_plan(now, plan, PlanOwner::Process(i), q);
    }

    pub(super) fn maybe_release_barrier(&mut self, now: SimTime, q: &mut EventQueue<Event>) {
        if self.barrier_waiting > 0 && self.barrier_waiting + self.finished == self.procs.len() {
            self.barrier_waiting = 0;
            for (j, p) in self.procs.iter_mut().enumerate() {
                if p.status == ProcStatus::AtBarrier {
                    p.status = ProcStatus::Running;
                    q.push(now, Event::ProcessWake(j));
                }
            }
        }
    }

    /// Submits the plan's current phase — `ops`, then `then` — skipping a
    /// phase that creates no sub-request, and completes the plan when no
    /// phase is left (an empty plan completes instantly). The plan is
    /// updated where it sits in the table; a phase's ops are moved out
    /// while they are submitted, since nothing reads them afterwards.
    pub(super) fn advance_plan(
        &mut self,
        now: SimTime,
        plan_id: PlanId,
        q: &mut EventQueue<Event>,
    ) {
        loop {
            let Some(exec) = self.plans.get_mut(plan_id) else {
                return; // a PlanStart or drain names a plan still in the table
            };
            let ops = match exec.phase {
                0 => self.first_phases.remove(&plan_id).unwrap_or_default(),
                1 => std::mem::take(&mut exec.then),
                _ => break,
            };
            let deadline = exec.deadline;
            let owner = exec.owner;
            let mut created = 0;
            for op in &ops {
                if op.len == 0 {
                    continue;
                }
                self.account_dispatch(now, owner, op);
                created += self.submit_planned_op(now, plan_id, op, deadline, false, q);
            }
            let Some(exec) = self.plans.get_mut(plan_id) else {
                return; // submission completes nothing, so the plan is still there
            };
            if created > 0 {
                exec.outstanding = created;
                return;
            }
            exec.phase += 1;
        }
        if let Some(exec) = self.plans.remove(plan_id) {
            self.complete_plan(now, exec, q);
        }
    }

    /// Decomposes one planned op into per-server sub-requests, registers
    /// their metadata, and submits them; returns how many sub-requests
    /// were created. `deadline` arms a per-sub-request timer; `hedge`
    /// marks replacement ops issued for an abandoned straggler.
    pub(super) fn submit_planned_op(
        &mut self,
        now: SimTime,
        plan_id: PlanId,
        op: &PlannedIo,
        deadline: Option<SimDuration>,
        hedge: bool,
        q: &mut EventQueue<Event>,
    ) -> u32 {
        let mut created = 0;
        #[expect(clippy::panic, reason = "the middleware's own plan names its files")]
        let subranges = self
            .cluster
            .pfs_mut(op.tier)
            .plan(op.file, op.kind, op.offset, op.len)
            .unwrap_or_else(|e| panic!("planning {op:?}: {e}"));
        let layout = self.cluster.pfs(op.tier).layout();
        for sub in subranges {
            let data = op.data.as_ref().map(|full| {
                let mut buf = Vec::with_capacity(sub.len as usize);
                for (seg_off, seg_len) in layout.file_segments(&sub) {
                    let at = (seg_off - op.offset) as usize;
                    if let Some(seg) = full.get(at..at + seg_len as usize) {
                        buf.extend_from_slice(seg);
                    }
                }
                buf
            });
            let id = self.subs.insert(SubMeta {
                plan_id,
                tier: op.tier,
                file: op.file,
                kind: op.kind,
                op_offset: op.offset,
                app_offset: op.app_offset,
                sub,
                priority: op.priority,
                attempts: 1,
                submitted: now,
                deadline,
                hedge,
            });
            let sr = SubRequest {
                id,
                file: op.file,
                kind: op.kind,
                local_offset: sub.local_offset,
                len: sub.len,
                priority: op.priority,
                data,
            };
            let tier = op.tier;
            let server_idx = sub.server;
            let sub_len = sub.len;
            let Ok(server) = self.cluster.pfs_mut(tier).server_mut(server_idx) else {
                self.subs.remove(id);
                continue; // the layout only names servers in range
            };
            let started = server.submit(now, sr);
            self.middleware
                .on_io_dispatched(tier, server_idx, op.kind, sub_len);
            if let Some(s) = started {
                q.push(
                    s.completes_at,
                    Event::ServerDone {
                        tier,
                        server: server_idx,
                    },
                );
            }
            if let Some(budget) = deadline {
                q.push(now + budget, Event::Deadline(id));
            }
            created += 1;
        }
        created
    }

    pub(super) fn server_done(
        &mut self,
        now: SimTime,
        tier: Tier,
        server: usize,
        q: &mut EventQueue<Event>,
    ) {
        let Ok(srv) = self.cluster.pfs_mut(tier).server_mut(server) else {
            return; // ServerDone events only name servers the PFS has
        };
        let (completed, next) = srv.on_complete(now);
        if let Some(s) = next {
            q.push(s.completes_at, Event::ServerDone { tier, server });
        }
        let Some(meta) = self.subs.remove(completed.id) else {
            return; // an abandoned straggler's late completion: its key is retired
        };
        let plan_id = meta.plan_id;
        let Some(exec) = self.plans.get_mut(plan_id) else {
            return; // a sub-request's plan stays live until it drains
        };
        if let Some(error) = completed.error {
            self.report.degraded.io_errors += 1;
            let overhead = exec.owner != PlanOwner::Background && meta.app_offset.is_none();
            let failure = SubIoFailure {
                tier,
                server,
                kind: completed.kind,
                len: completed.len,
                error,
                attempts: meta.attempts,
                overhead,
            };
            match self
                .middleware
                .on_io_error(&mut self.cluster, now, &failure)
            {
                ErrorDirective::Retry { delay } => {
                    let mut meta = meta;
                    meta.attempts += 1;
                    // A failed write hands its payload back in `data`. The
                    // id is retired; the retry is submitted under a new one.
                    let req = SubRequest {
                        id: completed.id,
                        file: completed.file,
                        kind: completed.kind,
                        local_offset: completed.local_offset,
                        len: completed.len,
                        priority: meta.priority,
                        data: completed.data,
                    };
                    // The sub-request stays outstanding on its plan.
                    self.schedule_retry(now, delay, tier, server, req, meta, q);
                    return;
                }
                ErrorDirective::GiveUp => {
                    if overhead {
                        // A lost metadata write-behind doesn't fail the
                        // application request: recovery treats the missing
                        // records as a torn journal tail.
                        self.report.degraded.overhead_failures += 1;
                    } else {
                        exec.failed = true;
                    }
                }
            }
        } else {
            if meta.hedge {
                self.report.gray.hedges_won += 1;
            }
            self.middleware.on_io_complete(
                tier,
                server,
                completed.kind,
                completed.len,
                now - meta.submitted,
            );
            // Scatter functional read bytes into the owner's buffer.
            if let (Some(data), Some(app_off), PlanOwner::Process(index)) =
                (&completed.data, meta.app_offset, exec.owner)
            {
                if let Some(inflight) = self.procs.get_mut(index).and_then(|p| p.request.as_mut()) {
                    let (offset, len) = (inflight.req.offset, inflight.req.len);
                    let buf = inflight
                        .read_buf
                        .get_or_insert_with(|| vec![0u8; len as usize]);
                    let layout = self.cluster.pfs(tier).layout();
                    let mut cursor = 0usize;
                    for (seg_off, seg_len) in layout.file_segments(&meta.sub) {
                        let app_pos = app_off + (seg_off - meta.op_offset);
                        let at = (app_pos - offset) as usize;
                        let n = seg_len as usize;
                        if let (Some(dst), Some(src)) =
                            (buf.get_mut(at..at + n), data.get(cursor..cursor + n))
                        {
                            dst.copy_from_slice(src);
                        }
                        cursor += n;
                    }
                }
            }
        }
        exec.outstanding -= 1;
        if exec.outstanding == 0 {
            self.settle_drained_plan(now, plan_id, q);
        }
    }

    /// A plan's current phase has fully drained: fail it, or advance to
    /// `then` (completing the plan when `then` is the phase that drained).
    pub(super) fn settle_drained_plan(
        &mut self,
        now: SimTime,
        plan_id: PlanId,
        q: &mut EventQueue<Event>,
    ) {
        let Some(exec) = self.plans.get_mut(plan_id) else {
            return; // callers just saw the plan drain
        };
        if exec.failed {
            if let Some(exec) = self.plans.remove(plan_id) {
                self.fail_plan(now, exec, q);
            }
            return;
        }
        exec.phase += 1;
        self.advance_plan(now, plan_id, q);
    }

    pub(super) fn complete_plan(
        &mut self,
        now: SimTime,
        exec: PlanExec,
        q: &mut EventQueue<Event>,
    ) {
        if exec.tag != 0 {
            self.middleware
                .on_plan_complete(&mut self.cluster, now, exec.tag);
        }
        self.finish_plan_owner(now, exec.owner, q);
    }

    pub(super) fn finish_plan_owner(
        &mut self,
        now: SimTime,
        owner: PlanOwner,
        q: &mut EventQueue<Event>,
    ) {
        match owner {
            PlanOwner::Process(index) => {
                let proc = self.proc_mut(index);
                let rank = proc.rank;
                let Some(done) = proc.request.take() else {
                    return; // a process plan completes its in-flight request
                };
                let (kind, offset, len, issued) =
                    (done.req.kind, done.req.offset, done.req.len, done.issued);
                self.report.kind_mut(kind).record(issued, now, len);
                for obs in &mut self.observers {
                    obs.on_request_complete(now, rank, kind, offset, len, issued);
                    if kind == IoKind::Read {
                        obs.on_read_data(rank, offset, len, done.read_buf.as_deref());
                    }
                }
                q.push(now, Event::ProcessWake(index));
            }
            PlanOwner::Background => {
                self.report.background_plans += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plan-table entry holds one phase (see `types.rs`'s
    /// `a_phase_is_no_larger_than_one_op`) and the plan's bookkeeping;
    /// the request it serves stays with its process, so the table's
    /// slots do not grow with the request record.
    #[test]
    fn a_plan_entry_carries_no_request() {
        let size = std::mem::size_of::<PlanExec>();
        assert!(size <= 120, "PlanExec is {size} B");
    }
}
