//! The chaos executor: drives one seeded [`Schedule`] through the
//! middleware as a manual functional runner — every planned op applied
//! byte-for-byte against the cluster stores — while firing the schedule's
//! fault events and checking the [`Oracle`] continuously.
//!
//! Plans execute through [`exec_plan_fused`], the executor the
//! crash-torture suite shares: application data payloads and plan-carried
//! journal frames route through the incarnation's [`CrashFuse`]; the
//! middleware's own internal durable effects (sync appends, eviction
//! discards, flush/fetch copies, checkpoints) charge the same fuse
//! through its attached hooks. When the fuse dies the
//! middleware is discarded and rebuilt from nothing but the cluster's
//! persisted bytes — twice, to prove recovery re-enterable — and the run
//! continues on the recovered instance. ENOSPC and media faults surface
//! through the real [`Middleware::on_io_error`] seam; a fail-stop wipes a
//! CServer's stores and notifies the middleware with a synthetic
//! `Offline` failure, exactly as the timed runner would.

use std::cell::RefCell;
use std::rc::Rc;

use s4d_cache::{exec_plan_fused, CrashFuse, RecoveryReport, S4dCache, S4dConfig};
use s4d_cost::CostParams;
use s4d_mpiio::{
    AppOp, AppRequest, Cluster, ErrorDirective, Middleware, Plan, PlannedIo, Rank, SubIoFailure,
    Tier,
};
use s4d_pfs::{FaultPlan, FileId, IoFault, PfsError, ServerFault};
use s4d_sim::{Fnv1a, SimTime};
use s4d_storage::IoKind;

use crate::oracle::{Oracle, Violation};
use crate::schedule::{ChaosEvent, Schedule};

const KIB: u64 = 1024;
/// "Never recovers" horizon for fail-stop crash windows.
const FAR_FUTURE: u64 = 1_000_000_000;

/// The outcome of one chaos run — everything the CLI report and the
/// minimizer need, and nothing nondeterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// The schedule seed.
    pub seed: u64,
    /// The fault script, in firing order (described).
    pub events: Vec<String>,
    /// Application I/O operations executed.
    pub ops: u32,
    /// Middleware crashes taken (fuse deaths).
    pub crashes: u32,
    /// Recovered instances adopted (each crash plus the final power cut).
    pub recoveries: u32,
    /// Plans that failed through the error path (ENOSPC / media / offline).
    pub plan_failures: u32,
    /// Bytes verified against the shadow model.
    pub reads_checked: u64,
    /// Dirty bytes reported lost across all incarnations (re-derived
    /// drops can repeat across recoveries; this is an observation count,
    /// not a deduplicated total).
    pub dirty_bytes_lost: u64,
    /// Deterministic digest of every applied op, read result, and
    /// recovery report — byte-identical across replays of the same seed.
    pub fingerprint: u64,
    /// Invariant violations (empty for a healthy run).
    pub violations: Vec<Violation>,
}

impl ChaosReport {
    /// True when any invariant was violated.
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// Runs one schedule to completion and returns its report.
pub fn run(schedule: &Schedule) -> ChaosReport {
    let cluster = Cluster::paper_testbed_small(schedule.workload.cluster_seed);
    let n_servers = cluster.cpfs().server_count();
    let fuse = CrashFuse::unlimited().shared();
    let mut mw = S4dCache::new(config(schedule), CostParams::paper_testbed_small());
    mw.attach_crash_fuse(fuse.clone());
    let mut ex = Executor {
        schedule: schedule.clone(),
        cluster,
        mw,
        fuse,
        oracle: Oracle::new(Vec::new()),
        file: None,
        now_s: 0,
        fired: vec![false; schedule.events.len()],
        scripted: vec![Vec::new(); n_servers],
        pending_recovery_budget: None,
        media_fired: false,
        enospc_fired: false,
        crash_events_fired: false,
        journal_device_lost: false,
        ops: 0,
        crashes: 0,
        recoveries: 0,
        plan_failures: 0,
        dirty_lost: 0,
        nospace_seen: 0,
        media_seen: 0,
        fp: Fnv1a::new(),
    };
    ex.drive();
    ex.finish()
}

/// [`run`] with engine panics converted into a violation, so one broken
/// seed cannot abort a sweep (and the minimizer can shrink panicking
/// schedules too).
pub fn run_caught(schedule: &Schedule) -> ChaosReport {
    let sched = schedule.clone();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || run(&sched))) {
        Ok(report) => report,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            ChaosReport {
                seed: schedule.seed,
                events: schedule.events.iter().map(|e| e.describe()).collect(),
                ops: 0,
                crashes: 0,
                recoveries: 0,
                plan_failures: 0,
                reads_checked: 0,
                dirty_bytes_lost: 0,
                fingerprint: 0,
                violations: vec![Violation {
                    invariant: "engine-panic".to_owned(),
                    detail: msg,
                }],
            }
        }
    }
}

/// The middleware configuration of a schedule's workload — the one the
/// run starts with and every recovery rebuilds with.
fn config(schedule: &Schedule) -> S4dConfig {
    let wl = &schedule.workload;
    let base = S4dConfig::new(wl.capacity)
        .with_journal_batch(1)
        .with_shards(wl.shards);
    if wl.ckpt_records == u64::MAX {
        base
    } else {
        base.with_checkpoint_after(wl.ckpt_records)
    }
}

enum ExecStatus {
    /// Every op applied in full.
    Done,
    /// The crash fuse died mid-plan; remaining ops never ran.
    Died,
    /// A sub-request failed and the middleware gave up: the plan failed.
    Failed(String),
}

struct Executor {
    schedule: Schedule,
    cluster: Cluster,
    /// The live incarnation; replaced wholesale at every recovery.
    mw: S4dCache,
    fuse: Rc<RefCell<CrashFuse>>,
    oracle: Oracle,
    file: Option<FileId>,
    now_s: u64,
    fired: Vec<bool>,
    /// Accumulated scripted faults per CServer (`set_fault_plan`
    /// replaces, so compound events must rebuild the whole plan).
    scripted: Vec<Vec<ServerFault>>,
    pending_recovery_budget: Option<u64>,
    media_fired: bool,
    enospc_fired: bool,
    crash_events_fired: bool,
    /// A fail-stop wiped a CServer hosting the journal: any *later*
    /// recovery reads a destroyed journal prefix, so dirty data acked
    /// since then may legitimately revert to OPFS content.
    journal_device_lost: bool,
    ops: u32,
    crashes: u32,
    recoveries: u32,
    plan_failures: u32,
    dirty_lost: u64,
    nospace_seen: u64,
    media_seen: u64,
    /// The run fingerprint.
    fp: Fnv1a,
}

impl Executor {
    fn now(&self) -> SimTime {
        SimTime::from_secs(self.now_s)
    }

    fn advance(&mut self) {
        let now = self.now();
        self.cluster.advance_faults(now);
    }

    /// Deterministic payload of the write at the current op index.
    fn payload(&self, offset: u64, len: u64) -> Vec<u8> {
        let tag = self.schedule.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (self.ops as u64).wrapping_mul(0x0100_0000_01b3)
            ^ offset;
        (0..len)
            .map(|j| (tag.wrapping_add(j.wrapping_mul(131)) % 251) as u8 ^ 0x5a)
            .collect()
    }

    // ---- fault-event machinery ------------------------------------------

    fn fire_due_events(&mut self) {
        for i in 0..self.schedule.events.len() {
            if self.fired[i] || self.schedule.events[i].at_op() > self.ops {
                continue;
            }
            self.fired[i] = true;
            let ev = self.schedule.events[i];
            self.fire(&ev);
        }
    }

    fn fire(&mut self, ev: &ChaosEvent) {
        let n = self.cluster.cpfs().server_count();
        match *ev {
            ChaosEvent::MwCrash { budget, .. } => {
                self.fuse = CrashFuse::armed(budget).shared();
                self.mw.attach_crash_fuse(self.fuse.clone());
            }
            ChaosEvent::RecoveryCrash { budget } => {
                self.pending_recovery_budget = Some(budget);
            }
            ChaosEvent::FailStop { server, .. } => {
                self.fail_stop(server as usize % n);
            }
            ChaosEvent::SpaceExhausted {
                server, for_ops, ..
            } => {
                let server = server as usize % n;
                let from = self.now();
                self.scripted[server].push(ServerFault::SpaceExhausted {
                    from,
                    until: SimTime::from_secs(self.now_s + for_ops as u64 + 1),
                });
                self.install(server);
                self.enospc_fired = true;
            }
            ChaosEvent::MediaErrors {
                server,
                map_seed,
                bad_ppm,
                ..
            } => {
                let server = server as usize % n;
                let from = self.now();
                self.scripted[server].push(ServerFault::MediaErrors {
                    from,
                    seed: map_seed,
                    bad_ppm,
                });
                self.install(server);
                self.media_fired = true;
                self.oracle.set_media_active();
            }
            ChaosEvent::Stall { secs, .. } => {
                self.now_s += secs as u64;
                self.advance();
            }
        }
    }

    fn install(&mut self, server: usize) {
        let mut plan = FaultPlan::new();
        for f in &self.scripted[server] {
            plan = plan.with(*f);
        }
        let _ = self.cluster.cpfs_mut().set_fault_plan(server, plan);
    }

    /// A CServer hard-crash: wipe its stores, mark the acked-but-dirty
    /// ranges it doomed as ambiguous (they may revert to OPFS content),
    /// and deliver the `Offline` failure the timed runner would.
    fn fail_stop(&mut self, server: usize) {
        let layout = self.cluster.cpfs().layout();
        let file = self.file;
        let doomed: Vec<(u64, u64)> = self
            .mw
            .plane()
            .iter_extents()
            .filter(|(f, _, e)| {
                Some(*f) == file && e.dirty && layout.touches(server, e.c_offset, e.len)
            })
            .map(|(_, o, e)| (o, e.len))
            .collect();
        if let Some(f) = file {
            for (o, len) in doomed {
                if let Ok(Some(bytes)) = self.cluster.opfs().read_bytes(f, o, len) {
                    self.oracle.mark_wild(o, bytes);
                }
            }
        }
        let at = self.now();
        self.scripted[server].push(ServerFault::Crash {
            at,
            recover_at: SimTime::from_secs(FAR_FUTURE),
        });
        self.install(server);
        // Step past the crash instant so the wipe applies regardless of
        // how the window-edge predicate treats an exact hit.
        self.now_s += 1;
        self.advance();
        let failure = SubIoFailure {
            tier: Tier::CServers,
            server,
            kind: IoKind::Write,
            len: 1,
            error: IoFault::Offline,
            attempts: 1,
            overhead: false,
        };
        let now = self.now();
        let _ = self.mw.on_io_error(&mut self.cluster, now, &failure);
        self.crash_events_fired = true;
        self.journal_device_lost = true;
        if self.fuse.borrow().is_dead() {
            self.crash_and_recover();
        }
    }

    // ---- plan execution --------------------------------------------------

    /// Applies a plan's ops against the functional stores, routing
    /// durable effects through the fuse and faults through
    /// `on_io_error`. `out` receives application read bytes.
    fn exec_plan(&mut self, plan: &Plan, out: Option<(&mut [u8], u64)>) -> ExecStatus {
        let fp = &mut self.fp;
        let end = exec_plan_fused(
            &mut self.cluster,
            Some(&self.fuse),
            plan,
            out,
            |op, allowed| {
                fp.word(op.offset);
                fp.word(allowed);
            },
        );
        match end {
            Ok(true) => ExecStatus::Done,
            Ok(false) => ExecStatus::Died,
            Err((op, err)) => self.report_io_error(op, err),
        }
    }

    /// Reports a faulted sub-request through the middleware's error seam
    /// and maps the directive. Deterministic window faults make
    /// same-instant retries pointless, so both directives fail the plan.
    fn report_io_error(&mut self, op: &PlannedIo, err: PfsError) -> ExecStatus {
        let (server, fault) = match err {
            PfsError::NoSpace { server } => (server, IoFault::NoSpace),
            PfsError::MediaError { server } => (server, IoFault::Media),
            other => return ExecStatus::Failed(other.to_string()),
        };
        let failure = SubIoFailure {
            tier: op.tier,
            server,
            kind: op.kind,
            len: op.len,
            error: fault,
            attempts: 1,
            overhead: op.app_offset.is_none() && op.kind == IoKind::Write,
        };
        let now = self.now();
        let directive = self.mw.on_io_error(&mut self.cluster, now, &failure);
        match directive {
            ErrorDirective::GiveUp | ErrorDirective::Retry { .. } => {
                ExecStatus::Failed(format!("{fault} on {} server {server}", op.tier))
            }
        }
    }

    fn complete_plan(&mut self, tag: u64) {
        if tag != 0 {
            let now = self.now();
            self.mw.on_plan_complete(&mut self.cluster, now, tag);
        }
    }

    fn fail_plan(&mut self, tag: u64) {
        self.plan_failures += 1;
        if tag != 0 {
            let now = self.now();
            self.mw.on_plan_failed(&mut self.cluster, now, tag);
        }
    }

    // ---- application operations -----------------------------------------

    fn app_write(&mut self, rank: u32, offset: u64, len: u64) {
        let Some(file) = self.file else { return };
        let payload = self.payload(offset, len);
        self.fp.bytes(b"w");
        self.fp.word(offset);
        self.fp.word(len);
        for _attempt in 0..2 {
            let req = AppRequest {
                rank: Rank(rank),
                file,
                kind: IoKind::Write,
                offset,
                len,
                data: Some(payload.clone()),
            };
            let now = self.now();
            let plan = self.mw.plan_io(&mut self.cluster, now, &req);
            match self.exec_plan(&plan, None) {
                ExecStatus::Done => {
                    self.complete_plan(plan.tag);
                    if self.fuse.borrow().is_dead() {
                        self.oracle.mark_wild(offset, payload);
                        self.crash_and_recover();
                    } else {
                        self.oracle.ack_write(offset, &payload);
                    }
                    return;
                }
                ExecStatus::Died => {
                    self.oracle.mark_wild(offset, payload);
                    self.crash_and_recover();
                    return;
                }
                ExecStatus::Failed(_) => {
                    self.fail_plan(plan.tag);
                    self.oracle.mark_wild(offset, payload.clone());
                    if self.fuse.borrow().is_dead() {
                        self.crash_and_recover();
                        return;
                    }
                    // Retry once: the health layer may route around the
                    // fault (quarantine, OPFS fallback) on the re-plan.
                }
            }
        }
    }

    fn app_read(&mut self, rank: u32, offset: u64, len: u64) {
        let Some(file) = self.file else { return };
        self.fp.bytes(b"r");
        self.fp.word(offset);
        self.fp.word(len);
        let mut last_err = String::new();
        for _attempt in 0..3 {
            let req = AppRequest {
                rank: Rank(rank),
                file,
                kind: IoKind::Read,
                offset,
                len,
                data: None,
            };
            let now = self.now();
            let plan = self.mw.plan_io(&mut self.cluster, now, &req);
            let mut out = vec![0u8; len as usize];
            match self.exec_plan(&plan, Some((&mut out, offset))) {
                ExecStatus::Done => {
                    self.complete_plan(plan.tag);
                    if self.fuse.borrow().is_dead() {
                        self.crash_and_recover();
                        return;
                    }
                    let opfs_now = self
                        .cluster
                        .opfs()
                        .read_bytes(file, offset, len)
                        .ok()
                        .flatten();
                    self.oracle.check_read(offset, &out, opfs_now.as_deref());
                    self.fp.bytes(&out);
                    return;
                }
                ExecStatus::Died => {
                    self.crash_and_recover();
                    return;
                }
                ExecStatus::Failed(e) => {
                    self.fail_plan(plan.tag);
                    last_err = e;
                    if self.fuse.borrow().is_dead() {
                        self.crash_and_recover();
                        return;
                    }
                }
            }
        }
        self.oracle.read_errored(offset, len, &last_err);
    }

    // ---- background draining --------------------------------------------

    fn drain(&mut self, rounds: u32) {
        for _ in 0..rounds {
            self.now_s += 1;
            self.advance();
            let now = self.now();
            let poll = self.mw.poll_background(&mut self.cluster, now);
            if self.fuse.borrow().is_dead() {
                self.crash_and_recover();
                continue;
            }
            let mut incarnation_died = false;
            for plan in &poll.plans {
                match self.exec_plan(plan, None) {
                    ExecStatus::Done => {
                        self.complete_plan(plan.tag);
                        if self.fuse.borrow().is_dead() {
                            self.crash_and_recover();
                            incarnation_died = true;
                            break;
                        }
                    }
                    ExecStatus::Died => {
                        self.crash_and_recover();
                        incarnation_died = true;
                        break;
                    }
                    ExecStatus::Failed(_) => {
                        self.fail_plan(plan.tag);
                        if self.fuse.borrow().is_dead() {
                            self.crash_and_recover();
                            incarnation_died = true;
                            break;
                        }
                    }
                }
            }
            if incarnation_died {
                // Remaining plans belonged to the dead incarnation.
                continue;
            }
            if !poll.work_pending {
                break;
            }
        }
    }

    // ---- crash and recovery ---------------------------------------------

    fn crash_and_recover(&mut self) {
        self.crashes += 1;
        self.crash_events_fired = true;
        self.recover_pair();
    }

    /// Recover from cluster state alone — twice — proving re-entry
    /// converges, then adopt the recovered instance. A pending
    /// [`ChaosEvent::RecoveryCrash`] budget makes the first attempt a
    /// fused recovery that may itself die mid-effect.
    fn recover_pair(&mut self) {
        self.harvest_metrics();
        if self.journal_device_lost {
            // The journal prefix predates the wiped store: dirty data
            // acked since the fail-stop may honestly revert to OPFS.
            self.oracle.set_media_active();
        }
        if self.journal_device_lost || self.media_fired {
            // Recovery over a damaged metadata device may read a
            // truncated journal and honestly revert mappings: reads may
            // serve older acked values from here on.
            self.oracle.allow_stale();
        }
        if let Some(budget) = self.pending_recovery_budget.take() {
            let fused = CrashFuse::armed(budget).shared();
            if let Some((mw, report)) = S4dCache::recover_from_cluster_fused(
                config(&self.schedule),
                CostParams::paper_testbed_small(),
                &mut self.cluster,
                Some(fused),
            ) {
                // The budget outlived recovery's effects: this IS the
                // recovery; no second crash happened.
                self.adopt(mw, report);
                return;
            }
            // Re-crash mid-recovery: the partial instance is lost and
            // recovery re-enters below from the mutated cluster.
            self.fp.bytes(b"R");
        }
        let (mw1, report1) = S4dCache::recover_from_cluster(
            config(&self.schedule),
            CostParams::paper_testbed_small(),
            &mut self.cluster,
        );
        let e1 = extents_of(&mw1);
        let (mw2, report2) = S4dCache::recover_from_cluster(
            config(&self.schedule),
            CostParams::paper_testbed_small(),
            &mut self.cluster,
        );
        let e2 = extents_of(&mw2);
        if e1 != e2 {
            self.oracle.violate(
                "recovery-idempotent",
                format!(
                    "extent sets diverge across re-entry ({} vs {} extents)",
                    e1.len(),
                    e2.len()
                ),
            );
        }
        if report2.orphan_bytes_discarded != 0 {
            self.oracle.violate(
                "recovery-idempotent",
                format!(
                    "second recovery swept {} orphan bytes the first left behind",
                    report2.orphan_bytes_discarded
                ),
            );
        }
        drop(mw1);
        self.adopt(mw2, report1);
    }

    fn adopt(&mut self, mut mw: S4dCache, report: RecoveryReport) {
        self.recoveries += 1;
        self.fp.bytes(b"V");
        self.fp.word(report.records_replayed());
        self.fp.word(report.dropped_journal_bytes);
        self.fp.word(report.dropped_extents);
        self.fp.word(report.dirty_bytes_lost);
        self.fp.word(report.orphan_bytes_discarded);
        self.fuse = CrashFuse::unlimited().shared();
        mw.attach_crash_fuse(self.fuse.clone());
        self.mw = mw;
        self.check_structure();
        if self.file.is_some() {
            // Applications re-open their files after a middleware restart;
            // this re-associates the cache file.
            let name = self.schedule.workload.ior.file_name.clone();
            for r in 0..self.schedule.workload.ior.processes {
                let _ = self.mw.open(&mut self.cluster, Rank(r), &name);
            }
        }
    }

    /// Structural invariants of the live instance: space accounting
    /// matches the mapping, and every mapped cache byte is present. Reads
    /// the plane's routed aggregates, so the identities hold across every
    /// shard at any shard count.
    fn check_structure(&mut self) {
        let sum: u64 = self.mw.plane().iter_extents().map(|(_, _, e)| e.len).sum();
        if sum != self.mw.plane().mapped_bytes() {
            let mapped = self.mw.plane().mapped_bytes();
            self.oracle.violate(
                "space-identity",
                format!("extent sum {sum} != mapped_bytes {mapped}"),
            );
        }
        if self.mw.plane().allocated() != sum {
            let allocated = self.mw.plane().allocated();
            self.oracle.violate(
                "space-identity",
                format!("allocator reports {allocated} allocated but extents sum to {sum}"),
            );
        }
        if self.mw.plane().allocated() > self.mw.plane().capacity() {
            let (a, c) = (self.mw.plane().allocated(), self.mw.plane().capacity());
            self.oracle.violate(
                "space-identity",
                format!("allocated {a} exceeds capacity {c}"),
            );
        }
        let extents: Vec<_> = self
            .mw
            .plane()
            .iter_extents()
            .map(|(f, o, e)| (f, o, e.c_file, e.c_offset, e.len))
            .collect();
        for (f, o, c_file, c_offset, len) in extents {
            let covered = self
                .cluster
                .cpfs()
                .covered_bytes(c_file, c_offset, len)
                .unwrap_or(0);
            if covered != len {
                self.oracle.violate(
                    "mapping-coverage",
                    format!(
                        "extent ({f:?},{o}) maps {len} cache bytes but only {covered} are present"
                    ),
                );
            }
        }
    }

    /// Folds the outgoing incarnation's counters into the run totals and
    /// checks the metric invariants that must hold at every instant.
    fn harvest_metrics(&mut self) {
        let m = self.mw.metrics();
        let (dirty, over, nospace, media) = (
            m.dirty_bytes_lost,
            m.space_over_releases,
            m.nospace_failures,
            m.media_failures,
        );
        self.dirty_lost += dirty;
        self.nospace_seen += nospace;
        self.media_seen += media;
        if over != 0 {
            self.oracle.violate(
                "space-release",
                format!("{over} space releases exceeded their allocation"),
            );
        }
    }

    // ---- top-level drive -------------------------------------------------

    fn drive(&mut self) {
        let stream = self.schedule.op_stream();
        for (rank, op) in stream {
            match op {
                AppOp::Open { name } => {
                    let opened = self.mw.open(&mut self.cluster, Rank(rank), &name);
                    let Ok(f) = opened else { continue };
                    if self.file.is_none() {
                        self.file = Some(f);
                        let size = self.schedule.workload.ior.file_size;
                        let initial: Vec<u8> = (0..size).map(|i| (i % 241) as u8).collect();
                        let _ = self
                            .cluster
                            .opfs_mut()
                            .apply_bytes(f, 0, size, Some(&initial));
                        self.oracle = Oracle::new(initial);
                        if self.media_fired {
                            self.oracle.set_media_active();
                        }
                    }
                }
                AppOp::Barrier if rank == 0 => {
                    self.drain(40);
                }
                AppOp::Close { .. } => {
                    if let Some(f) = self.file {
                        let _ = self.mw.close(&mut self.cluster, Rank(rank), f);
                    }
                }
                AppOp::Io {
                    kind, offset, len, ..
                } => {
                    self.fire_due_events();
                    self.now_s += 1;
                    self.advance();
                    match kind {
                        IoKind::Write => self.app_write(rank, offset, len),
                        IoKind::Read => self.app_read(rank, offset, len),
                    }
                    self.ops += 1;
                    if self.ops.is_multiple_of(4) {
                        self.drain(1);
                    }
                }
                _ => {}
            }
        }
    }

    /// Final drain, power-cut recovery, full read-back, and the metric
    /// reconciliation, producing the report.
    fn finish(mut self) -> ChaosReport {
        self.drain(60);
        // Power cut: recover from cluster state even if nothing crashed,
        // and verify the whole file through the recovered instance.
        self.recover_pair();
        if self.file.is_some() {
            let size = self.schedule.workload.ior.file_size;
            let step = (64 * KIB).min(size);
            let mut offset = 0;
            while offset < size {
                let len = step.min(size - offset);
                self.app_read(0, offset, len);
                offset += len;
            }
        }
        self.harvest_metrics();
        if self.dirty_lost > 0 && !self.crash_events_fired {
            self.oracle.violate(
                "metrics-reconcile",
                format!(
                    "{} dirty bytes reported lost but no crash event fired",
                    self.dirty_lost
                ),
            );
        }
        if self.media_seen > 0 && !self.media_fired {
            self.oracle.violate(
                "metrics-reconcile",
                format!("{} media failures without a media event", self.media_seen),
            );
        }
        if self.nospace_seen > 0 && !self.enospc_fired {
            self.oracle.violate(
                "metrics-reconcile",
                format!(
                    "{} ENOSPC failures without a space-exhaustion event",
                    self.nospace_seen
                ),
            );
        }
        self.fp.word(self.ops as u64);
        self.fp.word(self.crashes as u64);
        self.fp.word(self.recoveries as u64);
        self.fp.word(self.plan_failures as u64);
        for v in self.oracle.violations() {
            self.fp.bytes(v.invariant.as_bytes());
        }
        ChaosReport {
            seed: self.schedule.seed,
            events: self.schedule.events.iter().map(|e| e.describe()).collect(),
            ops: self.ops,
            crashes: self.crashes,
            recoveries: self.recoveries,
            plan_failures: self.plan_failures,
            reads_checked: self.oracle.reads_checked,
            dirty_bytes_lost: self.dirty_lost,
            fingerprint: self.fp.finish(),
            violations: self.oracle.violations().to_vec(),
        }
    }
}

/// The recovered mapping as a comparable value (across every shard).
fn extents_of(mw: &S4dCache) -> Vec<(u64, u64, u64, u64, u64, bool)> {
    let mut v: Vec<_> = mw
        .plane()
        .iter_extents()
        .map(|(f, o, e)| (f.0, o, e.len, e.c_file.0, e.c_offset, e.dirty))
        .collect();
    v.sort_unstable();
    v
}
