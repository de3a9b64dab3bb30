//! Script advancement and plan execution: process bookkeeping, phase
//! submission, sub-request decomposition, and completion assembly.

use s4d_pfs::{Priority, StripeLayout, SubRange, SubReqId, SubRequest};
use s4d_sim::{EventQueue, OneOrMany, SimDuration, SimTime};
use s4d_storage::IoKind;

use crate::middleware::Middleware;
use crate::script::ProcessScript;
use crate::types::{
    AppOp, AppRequest, ErrorDirective, FileHandle, PlannedIo, Rank, SubIoFailure, Tier,
};

use super::{server_started, Event, PlanId, State};

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
    /// The plan's per-sub-request deadline budget; `SimDuration::MAX`
    /// stands for none (a budget that long could never be armed).
    deadline: SimDuration,
    /// The second phase, moved out when it is submitted.
    pub(super) then: OneOrMany<PlannedIo>,
    /// Sub-requests of the current phase not yet settled.
    pub(super) outstanding: u32,
    /// The owning process's index, or `u32::MAX` for background work
    /// (process indices are `Rank`s, which are `u32`s).
    owner: u32,
    /// How many of the plan's two phases have been submitted: 1 while
    /// its `ops` drain, 2 while its `then` drains or once both are done.
    pub(super) phase: u8,
    /// Set when a sub-request gave up: a remaining phase is skipped and
    /// the plan fails instead of completing.
    pub(super) failed: bool,
}

impl PlanExec {
    /// A launched plan holding its second phase, before any submission.
    pub(super) fn new(
        tag: u64,
        deadline: Option<SimDuration>,
        then: OneOrMany<PlannedIo>,
        owner: PlanOwner,
    ) -> Self {
        PlanExec {
            tag,
            deadline: deadline.unwrap_or(SimDuration::MAX),
            then,
            outstanding: 0,
            owner: match owner {
                PlanOwner::Process(i) => i as u32,
                PlanOwner::Background => u32::MAX,
            },
            phase: 0,
            failed: false,
        }
    }

    /// The plan's per-sub-request deadline budget.
    pub(super) fn deadline(&self) -> Option<SimDuration> {
        (self.deadline != SimDuration::MAX).then_some(self.deadline)
    }

    /// Who the plan belongs to.
    pub(super) fn owner(&self) -> PlanOwner {
        match self.owner {
            u32::MAX => PlanOwner::Background,
            i => PlanOwner::Process(i as usize),
        }
    }
}

/// An in-flight sub-request. Each fact is held once: the deadline budget
/// is the plan's, the piece is `(server, local_offset, len)` (its file
/// segments come from the tier's layout, [`SubMeta::piece`]), and a
/// data-carrying op's two offsets are kept as their difference.
#[derive(Clone, Copy)]
pub(super) struct SubMeta {
    pub(super) plan_id: PlanId,
    /// Tier-local file the sub-request targets.
    pub(super) file: s4d_pfs::FileId,
    /// Offset of the piece within the server-local file object.
    pub(super) local_offset: u64,
    /// Piece length in bytes.
    pub(super) len: u64,
    /// For an op carrying application bytes, the application offset of
    /// its file offset 0 (`app_offset - op_offset`, wrapping); see
    /// [`SubMeta::app_shift`].
    app_shift: u64,
    /// When the current attempt was submitted (latency measurement).
    pub(super) submitted: SimTime,
    /// Index of the server holding the piece.
    pub(super) server: u32,
    /// Attempts so far, including the in-flight one.
    pub(super) attempts: u32,
    /// Tier the sub-request was dispatched to.
    pub(super) tier: Tier,
    /// Read or write.
    pub(super) kind: IoKind,
    /// Service class (needed to rebuild the sub-request on retry).
    pub(super) priority: Priority,
    /// True for a hedged replacement op: its own deadline miss abandons
    /// outright instead of hedging again, bounding the escalation chain
    /// at original → hedge → abandon/re-plan.
    pub(super) hedge: bool,
    /// The op carries application bytes (`app_shift` is set).
    carries_app: bool,
}

impl SubMeta {
    /// The record of `op`'s piece `sub`, first submitted at `now`.
    fn new(plan_id: PlanId, op: &PlannedIo, sub: &SubRange, now: SimTime, hedge: bool) -> Self {
        let app_shift = op.app_offset.get().map(|app| app.wrapping_sub(op.offset));
        SubMeta {
            plan_id,
            file: op.file,
            local_offset: sub.local_offset,
            len: sub.len,
            app_shift: app_shift.unwrap_or(0),
            submitted: now,
            server: sub.server as u32,
            attempts: 1,
            tier: op.tier,
            kind: op.kind,
            priority: op.priority,
            hedge,
            carries_app: app_shift.is_some(),
        }
    }

    /// For an op carrying application bytes, what to add (wrapping) to a
    /// file offset of the op to get the application offset its byte
    /// belongs to; `None` for overhead traffic.
    pub(super) fn app_shift(&self) -> Option<u64> {
        self.carries_app.then_some(self.app_shift)
    }

    /// The piece this sub-request carries, rebuilt on the tier's layout.
    pub(super) fn piece(&self, layout: StripeLayout) -> SubRange {
        layout.piece(self.server as usize, self.local_offset, self.len)
    }

    /// The sub-request this record describes, under `id`.
    pub(super) fn request(&self, id: SubReqId, data: Option<Box<[u8]>>) -> SubRequest {
        SubRequest {
            id,
            file: self.file,
            kind: self.kind,
            local_offset: self.local_offset,
            len: self.len,
            priority: self.priority,
            data,
        }
    }
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
            exec.phase += 1;
            if self.submit_phase(now, plan_id, &ops, false, q) > 0 {
                return;
            }
        }
        if let Some(exec) = self.plans.remove(plan_id) {
            self.complete_plan(now, exec, q);
        }
    }

    /// Submits one phase's ops under `plan_id`: books each op's dispatch,
    /// splits it into per-server sub-requests and dispatches them, skipping
    /// ops of no bytes. The sub-requests created join the plan's
    /// outstanding count; returns how many there were. `hedge` marks
    /// replacement ops issued for an abandoned straggler.
    pub(super) fn submit_phase(
        &mut self,
        now: SimTime,
        plan_id: PlanId,
        ops: &[PlannedIo],
        hedge: bool,
        q: &mut EventQueue<Event>,
    ) -> u32 {
        let Some((owner, deadline)) = self.plans.get(plan_id).map(|e| (e.owner(), e.deadline()))
        else {
            return 0; // callers submit a phase of a plan still in the table
        };
        let mut created = 0;
        for op in ops {
            if op.len == 0 {
                continue;
            }
            self.account_dispatch(now, owner, op);
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
                    buf.into_boxed_slice()
                });
                let meta = SubMeta::new(plan_id, op, &sub, now, hedge);
                created += u32::from(self.dispatch(now, meta, data, deadline, q));
            }
        }
        if let Some(exec) = self.plans.get_mut(plan_id) {
            exec.outstanding += created;
        }
        created
    }

    /// Puts one sub-request on its server under a fresh key — a first
    /// attempt, a hedge or a retry alike: registers its record, submits
    /// it, and arms its completion and, under a budget, its deadline.
    /// Returns false if the record names no server of its tier. Inlined
    /// into both callers: as a call per sub-request it cost `ior-seq-4m`
    /// about 5 % more host time per request (2-core VM, seed 7).
    #[inline(always)]
    pub(super) fn dispatch(
        &mut self,
        now: SimTime,
        meta: SubMeta,
        data: Option<Box<[u8]>>,
        deadline: Option<SimDuration>,
        q: &mut EventQueue<Event>,
    ) -> bool {
        let (tier, server) = (meta.tier, meta.server as usize);
        let id = self.subs.insert(meta);
        let Ok(srv) = self.cluster.pfs_mut(tier).server_mut(server) else {
            self.subs.remove(id);
            return false; // the layout only names servers in range
        };
        let started = srv.submit(now, meta.request(id, data));
        self.middleware
            .on_io_dispatched(tier, server, meta.kind, meta.len);
        server_started(q, tier, server, started);
        if let Some(budget) = deadline {
            q.push(now + budget, Event::Deadline(id));
        }
        true
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
        server_started(q, tier, server, next);
        let Some(meta) = self.subs.remove(completed.id) else {
            return; // an abandoned straggler's late completion: its key is retired
        };
        let plan_id = meta.plan_id;
        let Some(owner) = self.plans.get(plan_id).map(PlanExec::owner) else {
            return; // a sub-request's plan stays live until it drains
        };
        let mut failed = false;
        if let Some(error) = completed.error {
            self.report.degraded.io_errors += 1;
            let overhead = owner != PlanOwner::Background && !meta.carries_app;
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
                    // id is retired; the retry is submitted under a new
                    // one. The sub-request stays outstanding on its plan.
                    let data = completed.data.map(Vec::into_boxed_slice);
                    self.schedule_retry(now, delay, meta, data, q);
                    return;
                }
                ErrorDirective::GiveUp => {
                    if overhead {
                        // A lost metadata write-behind doesn't fail the
                        // application request: recovery treats the missing
                        // records as a torn journal tail.
                        self.report.degraded.overhead_failures += 1;
                    } else {
                        failed = true;
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
            if let (Some(data), Some(shift), PlanOwner::Process(index)) =
                (&completed.data, meta.app_shift(), owner)
            {
                if let Some(inflight) = self.procs.get_mut(index).and_then(|p| p.request.as_mut()) {
                    let (offset, len) = (inflight.req.offset, inflight.req.len);
                    let buf = inflight
                        .read_buf
                        .get_or_insert_with(|| vec![0u8; len as usize]);
                    let layout = self.cluster.pfs(tier).layout();
                    let mut cursor = 0usize;
                    for (seg_off, seg_len) in layout.file_segments(&meta.piece(layout)) {
                        let app_pos = seg_off.wrapping_add(shift);
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
        self.sub_settled(now, plan_id, failed, q);
    }

    /// One of the plan's outstanding sub-requests settled — completed,
    /// was replaced, or (`failed`) gave up or was abandoned, which fails
    /// the plan. Once none is left the phase has drained: fail the plan,
    /// or advance to `then` (completing the plan when `then` is the phase
    /// that drained).
    pub(super) fn sub_settled(
        &mut self,
        now: SimTime,
        plan_id: PlanId,
        failed: bool,
        q: &mut EventQueue<Event>,
    ) {
        let Some(exec) = self.plans.get_mut(plan_id) else {
            return; // an outstanding sub keeps its plan live
        };
        exec.failed |= failed;
        exec.outstanding -= 1;
        if exec.outstanding > 0 {
            return;
        }
        if !exec.failed {
            self.advance_plan(now, plan_id, q);
        } else if let Some(exec) = self.plans.remove(plan_id) {
            self.fail_plan(now, exec, q);
        }
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
        self.finish_plan_owner(now, exec.owner(), q);
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
        assert!(size <= 88, "PlanExec is {size} B");
    }

    /// The plan table's slot: the free-list link shares the entry's
    /// space, so a slot is a plan plus its generation.
    #[test]
    fn a_plan_slot_is_a_plan_and_a_generation() {
        let size = s4d_sim::Slab::<PlanId, PlanExec>::SLOT_BYTES;
        assert!(size <= 96, "a plan slot is {size} B");
    }

    /// The sub-request table's slot: a saturated tier keeps tens of
    /// thousands of sub-requests in flight, each holding its facts once.
    #[test]
    fn a_sub_slot_holds_each_fact_once() {
        let size = s4d_sim::Slab::<SubReqId, SubMeta>::SLOT_BYTES;
        assert!(size <= 72, "a sub-request slot is {size} B");
    }

    #[test]
    fn a_plan_records_its_owner_and_budget() {
        let budget = Some(SimDuration::from_millis(3));
        let exec = PlanExec::new(7, budget, OneOrMany::new(), PlanOwner::Process(5));
        assert_eq!(
            (exec.owner(), exec.deadline()),
            (PlanOwner::Process(5), budget)
        );
        let exec = PlanExec::new(7, None, OneOrMany::new(), PlanOwner::Background);
        assert_eq!(
            (exec.owner(), exec.deadline()),
            (PlanOwner::Background, None)
        );
    }
}
