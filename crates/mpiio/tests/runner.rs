//! Integration tests for the discrete-event runner: script execution,
//! barriers, functional data round-trips, determinism, the two-phase plan
//! contract, and the retry / re-plan / hedge machinery — all through the
//! public crate surface.

use std::cell::RefCell;
use std::rc::Rc;

use s4d_mpiio::{
    script, AppRequest, Cluster, ErrorDirective, HedgeDirective, IoObserver, Middleware,
    MiddlewareError, Plan, PlannedIo, Rank, Runner, StockMiddleware, StragglerCtx, SubIoFailure,
    Tier,
};
use s4d_pfs::FileId;
use s4d_sim::stats::MIB;
use s4d_sim::{SimDuration, SimTime};
use s4d_storage::IoKind;

fn small_cluster() -> Cluster {
    Cluster::paper_testbed_small(3)
}

#[test]
fn single_process_write_read_roundtrip_timing() {
    let scripts = vec![script()
        .open("f")
        .write(0, 0, 128 * 1024)
        .read(0, 0, 128 * 1024)
        .close(0)
        .build()];
    let mut r = Runner::new(small_cluster(), StockMiddleware::new(), scripts, 1);
    let rep = r.run();
    assert_eq!(rep.app_ops(IoKind::Write), 1);
    assert_eq!(rep.app_ops(IoKind::Read), 1);
    assert!(rep.writes.throughput_mibs() > 0.0);
    assert!(rep.end_time > SimTime::ZERO);
    assert_eq!(rep.tiers.c_ops, 0, "stock never touches CServers");
    assert_eq!(rep.tiers.d_ops, 2);
    assert_eq!(rep.tiers.d_bytes, 2 * 128 * 1024);
}

#[test]
fn functional_data_round_trips_through_servers() {
    struct Capture(Rc<RefCell<Vec<Vec<u8>>>>);
    impl IoObserver for Capture {
        fn on_read_data(&mut self, _r: Rank, _o: u64, _l: u64, data: Option<&[u8]>) {
            self.0
                .borrow_mut()
                .push(data.expect("functional data").to_vec());
        }
    }
    let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    let scripts = vec![script()
        .open("f")
        .write_bytes(0, 64 * 1024, payload.clone())
        .read(0, 64 * 1024, payload.len() as u64)
        .close(0)
        .build()];
    let mut r = Runner::new(small_cluster(), StockMiddleware::new(), scripts, 2);
    let got = Rc::new(RefCell::new(Vec::new()));
    r.add_observer(Box::new(Capture(got.clone())));
    r.run();
    let got = got.borrow();
    assert_eq!(got.len(), 1);
    assert_eq!(
        got[0], payload,
        "bytes must survive striping and reassembly"
    );
}

#[test]
fn barrier_synchronises_processes() {
    // Process 0 does a long write before the barrier; process 1 reaches
    // the barrier immediately. Both must finish their post-barrier ops
    // no earlier than the long write's completion.
    let scripts = vec![
        script()
            .open("a")
            .write(0, 0, 8 * MIB as u64)
            .barrier()
            .write(0, 8 * MIB as u64, 4096)
            .build(),
        script().open("b").barrier().write(0, 0, 4096).build(),
    ];
    let mut r = Runner::new(small_cluster(), StockMiddleware::new(), scripts, 3);
    let rep = r.run();
    assert_eq!(rep.app_ops(IoKind::Write), 3);
    // The two post-barrier writes complete after the big one started.
    assert!(rep.writes.span() > SimDuration::ZERO);
}

#[test]
fn many_processes_share_servers() {
    let scripts: Vec<_> = (0..8)
        .map(|p| {
            script()
                .open("shared")
                .write(0, p as u64 * MIB as u64, 256 * 1024)
                .close(0)
                .build()
        })
        .collect();
    let mut r = Runner::new(small_cluster(), StockMiddleware::new(), scripts, 4);
    let rep = r.run();
    assert_eq!(rep.app_ops(IoKind::Write), 8);
    // Queueing must make the span exceed any single service time.
    assert!(rep.writes.span() > SimDuration::from_millis(1));
}

#[test]
fn think_time_delays_processes() {
    let scripts = vec![script()
        .open("f")
        .think(SimDuration::from_secs(1))
        .write(0, 0, 4096)
        .build()];
    let mut r = Runner::new(small_cluster(), StockMiddleware::new(), scripts, 5);
    let rep = r.run();
    assert!(rep.writes.first_issue.unwrap() >= SimTime::from_secs(1));
}

#[test]
fn deterministic_runs() {
    let make = || {
        let scripts: Vec<_> = (0..4)
            .map(|p| {
                script()
                    .open("shared")
                    .write(0, p as u64 * 1_000_000, 100_000)
                    .read(0, ((p + 1) % 4) as u64 * 1_000_000, 100_000)
                    .build()
            })
            .collect();
        let mut r = Runner::new(
            Cluster::paper_testbed(77),
            StockMiddleware::new(),
            scripts,
            6,
        );
        r.run()
    };
    let a = make();
    let b = make();
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.events, b.events);
    assert_eq!(a.writes.meter, b.writes.meter);
}

#[test]
fn seek_and_cursor_io_follow_mpi_semantics() {
    struct Capture(Rc<RefCell<Vec<(u64, u64)>>>);
    impl IoObserver for Capture {
        fn on_request_complete(
            &mut self,
            _now: SimTime,
            _rank: Rank,
            _kind: IoKind,
            offset: u64,
            len: u64,
            _issued: SimTime,
        ) {
            self.0.borrow_mut().push((offset, len));
        }
    }
    // seek(4096); write_cur(100); write_cur(50): cursor advances;
    // an explicit-offset write does NOT move the cursor (MPI
    // individual-file-pointer semantics); read_cur resumes after it.
    let scripts = vec![script()
        .open("f")
        .seek(0, 4096)
        .write_cur(0, 100)
        .write_cur(0, 50)
        .write(0, 0, 10)
        .read_cur(0, 20)
        .close(0)
        .build()];
    let mut r = Runner::new(small_cluster(), StockMiddleware::new(), scripts, 8);
    let got = Rc::new(RefCell::new(Vec::new()));
    r.add_observer(Box::new(Capture(got.clone())));
    r.run();
    assert_eq!(
        *got.borrow(),
        vec![(4096, 100), (4196, 50), (0, 10), (4246, 20)]
    );
}

#[test]
fn reopened_slot_resets_cursor() {
    let scripts = vec![script()
        .open("a")
        .seek(0, 1_000_000)
        .close(0)
        .open("b") // reuses slot 0: cursor must restart at 0
        .write_cur(0, 64)
        .build()];
    struct Capture(Rc<RefCell<Vec<u64>>>);
    impl IoObserver for Capture {
        fn on_request_complete(
            &mut self,
            _n: SimTime,
            _r: Rank,
            _k: IoKind,
            offset: u64,
            _l: u64,
            _i: SimTime,
        ) {
            self.0.borrow_mut().push(offset);
        }
    }
    let mut r = Runner::new(small_cluster(), StockMiddleware::new(), scripts, 9);
    let got = Rc::new(RefCell::new(Vec::new()));
    r.add_observer(Box::new(Capture(got.clone())));
    r.run();
    assert_eq!(*got.borrow(), vec![0]);
}

#[test]
#[should_panic(expected = "used unopened handle")]
fn bad_handle_panics() {
    let scripts = vec![script().write(0, 0, 4096).build()];
    Runner::new(small_cluster(), StockMiddleware::new(), scripts, 7).run();
}

#[test]
#[should_panic(expected = "the range ends past u64::MAX")]
fn a_request_ending_past_u64_max_stops_the_run() {
    let scripts = vec![script().open("f").write(0, u64::MAX - 100, 4096).build()];
    Runner::new(small_cluster(), StockMiddleware::new(), scripts, 7).run();
}

#[test]
#[should_panic(expected = "the range ends past u64::MAX")]
fn a_cursor_request_ending_past_u64_max_stops_the_run() {
    let scripts = vec![script()
        .open("f")
        .seek(0, u64::MAX - 100)
        .write_cur(0, 4096)
        .build()];
    Runner::new(small_cluster(), StockMiddleware::new(), scripts, 7).run();
}

/// Stock middleware plus a fixed retry policy and, optionally, a
/// deadline budget — exercises the runner's retry, re-plan and deadline
/// machinery without the cache layer.
struct RetryingStock {
    inner: StockMiddleware,
    max_attempts: u32,
    /// Deadline budget stamped on every plan.
    deadline: Option<SimDuration>,
    /// How many deadline misses are answered with `Abandon` before the
    /// middleware settles for `Wait` (or, with `hedge`, `Hedge`).
    abandons: u32,
    /// Answer a deadline miss by hedging the straggler's application
    /// bytes to the CServers, where `open` mirrors each file.
    hedge: bool,
    /// The CServer mirror of the file last opened, when hedging.
    mirror: Option<FileId>,
}

impl RetryingStock {
    fn new(max_attempts: u32) -> Self {
        RetryingStock {
            inner: StockMiddleware::new(),
            max_attempts,
            deadline: None,
            abandons: 0,
            hedge: false,
            mirror: None,
        }
    }
}

impl Middleware for RetryingStock {
    fn open(
        &mut self,
        cluster: &mut Cluster,
        rank: Rank,
        name: &str,
    ) -> Result<FileId, MiddlewareError> {
        if self.hedge {
            self.mirror = Some(cluster.cpfs_mut().create_or_open(name));
        }
        self.inner.open(cluster, rank, name)
    }

    fn plan_io(&mut self, cluster: &mut Cluster, now: SimTime, req: &AppRequest) -> Plan {
        let mut plan = self.inner.plan_io(cluster, now, req);
        plan.deadline = self.deadline;
        plan
    }

    fn close(
        &mut self,
        cluster: &mut Cluster,
        rank: Rank,
        file: FileId,
    ) -> Result<(), MiddlewareError> {
        self.inner.close(cluster, rank, file)
    }

    fn on_deadline(
        &mut self,
        _cluster: &mut Cluster,
        _now: SimTime,
        ctx: &StragglerCtx,
    ) -> HedgeDirective {
        if self.abandons == 0 {
            let Some(mirror) = self.mirror else {
                return HedgeDirective::Wait;
            };
            let ops = ctx.app_segments.iter();
            let ops = ops.map(|&(off, len)| {
                PlannedIo::data_op(Tier::CServers, mirror, ctx.kind, off, len, off)
            });
            return HedgeDirective::Hedge { ops: ops.collect() };
        }
        self.abandons -= 1;
        HedgeDirective::Abandon
    }

    fn on_io_error(
        &mut self,
        _cluster: &mut Cluster,
        _now: SimTime,
        failure: &SubIoFailure,
    ) -> ErrorDirective {
        if failure.attempts < self.max_attempts {
            ErrorDirective::Retry {
                delay: SimDuration::from_millis(1),
            }
        } else {
            ErrorDirective::GiveUp
        }
    }

    fn name(&self) -> &str {
        "retrying-stock"
    }
}

#[test]
fn transient_errors_are_retried_to_success() {
    use s4d_pfs::{FaultPlan, ServerFault};
    let mut cluster = small_cluster();
    for s in 0..cluster.opfs().server_count() {
        cluster
            .opfs_mut()
            .set_fault_plan(
                s,
                FaultPlan::new().with(ServerFault::TransientErrors {
                    from: SimTime::ZERO,
                    until: SimTime::from_secs(10_000),
                    error_rate: 0.3,
                }),
            )
            .unwrap();
    }
    let payload: Vec<u8> = (0..300_000u32).map(|i| (i % 241) as u8).collect();
    let scripts = vec![script()
        .open("f")
        .write_bytes(0, 0, payload.clone())
        .read(0, 0, payload.len() as u64)
        .close(0)
        .build()];
    let mw = RetryingStock::new(50);
    let mut r = Runner::new(cluster, mw, scripts, 11);
    struct Capture(Rc<RefCell<Vec<Vec<u8>>>>);
    impl IoObserver for Capture {
        fn on_read_data(&mut self, _r: Rank, _o: u64, _l: u64, data: Option<&[u8]>) {
            self.0
                .borrow_mut()
                .push(data.expect("functional data").to_vec());
        }
    }
    let got = Rc::new(RefCell::new(Vec::new()));
    r.add_observer(Box::new(Capture(got.clone())));
    let rep = r.run();
    assert!(rep.degraded.io_errors > 0, "30% error rate must bite");
    assert_eq!(
        rep.degraded.retries, rep.degraded.io_errors,
        "every error was retried, none gave up"
    );
    assert_eq!(rep.degraded.replans, 0);
    assert_eq!(got.borrow()[0], payload, "retries must preserve bytes");
}

#[test]
fn plan_failure_replans_until_the_outage_ends() {
    use s4d_pfs::{FaultPlan, ServerFault};
    let mut cluster = small_cluster();
    // Every DServer is down for the first 2 seconds; the write issued
    // at t≈0 must fail, re-plan with backoff, and succeed afterwards.
    for s in 0..cluster.opfs().server_count() {
        cluster
            .opfs_mut()
            .set_fault_plan(
                s,
                FaultPlan::new().with(ServerFault::Crash {
                    at: SimTime::ZERO,
                    recover_at: SimTime::from_secs(2),
                }),
            )
            .unwrap();
    }
    let scripts = vec![script().open("f").write(0, 0, 64 * 1024).close(0).build()];
    let mw = RetryingStock::new(1); // offline: retrying the same server is futile
    let mut r = Runner::new(cluster, mw, scripts, 12);
    let rep = r.run();
    assert_eq!(
        rep.app_ops(IoKind::Write),
        1,
        "request completes eventually"
    );
    assert!(rep.degraded.replans > 0);
    assert!(
        rep.end_time >= SimTime::from_secs(2),
        "success only after recovery"
    );
}

fn at_millis(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Runs one 4 KiB `kind` op (a single sub-request on DServer 0, issued
/// at t = 500 µs after the open) under a 30 ms deadline budget, with
/// `faults` scripted on that server. Returns the report and how many
/// ops the server serviced.
#[expect(clippy::unwrap_used, reason = "the small cluster has a DServer 0")]
fn run_one_op_with_deadline(
    mut mw: RetryingStock,
    abandons: u32,
    faults: s4d_pfs::FaultPlan,
    kind: IoKind,
) -> (s4d_mpiio::RunReport, u64) {
    mw.deadline = Some(SimDuration::from_millis(30));
    mw.abandons = abandons;
    let mut cluster = small_cluster();
    cluster.opfs_mut().set_fault_plan(0, faults).unwrap();
    let script = script().open("f");
    let script = match kind {
        IoKind::Write => script.write(0, 0, 4096),
        IoKind::Read => script.read(0, 0, 4096),
    };
    let scripts = vec![script.close(0).build()];
    let mut r = Runner::new(cluster, mw, scripts, 13);
    let rep = r.run();
    let (cluster, _, _) = r.into_parts();
    let serviced = cluster.opfs().server(0).unwrap().stats().ops;
    (rep, serviced)
}

/// Ops started in `[from, 100 ms)` are serviced a thousand times too
/// slowly — far beyond the deadline budget.
fn limping(from: SimTime) -> s4d_pfs::ServerFault {
    s4d_pfs::ServerFault::Slow {
        from,
        until: at_millis(100),
        class: None,
        probability: 1.0,
        factor: 1000.0,
    }
}

#[test]
fn late_completion_of_an_abandoned_straggler_is_discarded() {
    let faults = || s4d_pfs::FaultPlan::new().with(limping(SimTime::ZERO));
    // Reference: the middleware waits the limping op out.
    let (waited, serviced) =
        run_one_op_with_deadline(RetryingStock::new(1), 0, faults(), IoKind::Write);
    assert_eq!(waited.app_ops(IoKind::Write), 1);
    assert_eq!(serviced, 1);
    assert_eq!(waited.gray.deadline_misses, 1);
    assert!(waited.writes.last_completion > Some(at_millis(100)));

    // Abandon it instead: it is in device service and cannot be recalled,
    // so the request is re-planned and the new sub-request — which reuses
    // the abandoned one's slot under a new key — queues behind it. The
    // straggler's completion must not be taken for the new sub-request's.
    let (abandoned, serviced) =
        run_one_op_with_deadline(RetryingStock::new(1), 1, faults(), IoKind::Write);
    assert_eq!(abandoned.app_ops(IoKind::Write), 1);
    assert_eq!(abandoned.degraded.replans, 1);
    assert_eq!(abandoned.gray.stall_abandons, 0, "in service, not recalled");
    assert_eq!(
        abandoned.gray.deadline_misses, 2,
        "the straggler, then its queued successor"
    );
    assert_eq!(serviced, 2, "the server ran both to completion");
    assert!(
        abandoned.writes.last_completion > waited.writes.last_completion,
        "the write completes with the re-planned op ({:?}), not with the straggler's \
         late completion ({:?})",
        abandoned.writes.last_completion,
        waited.writes.last_completion
    );
}

#[test]
fn a_retried_sub_request_gets_a_fresh_deadline_under_its_new_key() {
    // The first attempt fails fast; the retry starts inside the limping
    // window and outlives its budget.
    let faults = s4d_pfs::FaultPlan::new()
        .with(s4d_pfs::ServerFault::TransientErrors {
            from: SimTime::ZERO,
            until: at_millis(1),
            error_rate: 1.0,
        })
        .with(limping(at_millis(1)));
    let (rep, serviced) = run_one_op_with_deadline(RetryingStock::new(2), 0, faults, IoKind::Write);
    assert_eq!(rep.app_ops(IoKind::Write), 1);
    assert_eq!(rep.degraded.io_errors, 1);
    assert_eq!(rep.degraded.retries, 1);
    assert_eq!(rep.degraded.replans, 0);
    assert_eq!(serviced, 2);
    // The failed attempt's timer lapses while the retry is in flight and
    // must miss (its key is retired); the retry's own timer fires once.
    assert_eq!(rep.gray.deadline_misses, 1);
    assert!(rep.end_time > at_millis(100));
}

#[test]
fn a_hedged_replacement_op_completes_the_plan() {
    // The read's only sub-request limps on DServer 0 far past its budget;
    // the miss is answered with one replacement read on the CServers.
    let mut mw = RetryingStock::new(1);
    mw.hedge = true;
    let faults = s4d_pfs::FaultPlan::new().with(limping(SimTime::ZERO));
    let (rep, serviced) = run_one_op_with_deadline(mw, 0, faults, IoKind::Read);
    assert_eq!(rep.app_ops(IoKind::Read), 1);
    assert_eq!(rep.gray.deadline_misses, 1, "the hedge finishes in budget");
    assert_eq!((rep.gray.hedges_issued, rep.gray.hedges_won), (1, 1));
    assert_eq!(rep.tiers.c_ops, 1, "the replacement ran on the CServers");
    assert_eq!(serviced, 1, "the straggler, already in service, ran out");
    // The request completes with the replacement, not with the straggler
    // that ends past the limping window.
    assert!(
        rep.reads.last_completion < Some(at_millis(40)),
        "read completed at {:?}",
        rep.reads.last_completion
    );
    assert!(rep.end_time > at_millis(100));
}

/// What a [`Phased`] middleware saw, in call order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Planned(u64),
    Dispatched(Tier),
    Completed(Tier),
    PlanComplete(u64),
}

/// Plans every write as DServer `ops` followed by one CServer write in
/// `then`, and every read as a plan with empty `ops` and one CServer read
/// in `then`; records the runner's callbacks in order.
struct Phased {
    log: Rc<RefCell<Vec<Seen>>>,
    side: FileId,
    next_tag: u64,
}

impl Middleware for Phased {
    fn open(
        &mut self,
        cluster: &mut Cluster,
        _rank: Rank,
        name: &str,
    ) -> Result<FileId, MiddlewareError> {
        self.side = cluster.cpfs_mut().create_or_open("side");
        Ok(cluster.opfs_mut().create_or_open(name))
    }

    fn plan_io(&mut self, _cluster: &mut Cluster, _now: SimTime, req: &AppRequest) -> Plan {
        let op = |tier, file, offset, len| PlannedIo::data_op(tier, file, req.kind, offset, len, 0);
        let side = op(Tier::CServers, self.side, 0, 4096);
        let mut plan = match req.kind {
            IoKind::Write => Plan::two_phase(
                vec![op(Tier::DServers, req.file, req.offset, req.len)],
                vec![side],
            ),
            IoKind::Read => Plan::two_phase(Vec::new(), vec![side]),
        };
        self.next_tag += 1;
        plan.tag = self.next_tag;
        self.log.borrow_mut().push(Seen::Planned(plan.tag));
        plan
    }

    fn close(&mut self, _: &mut Cluster, _: Rank, _: FileId) -> Result<(), MiddlewareError> {
        Ok(())
    }

    fn on_plan_complete(&mut self, _cluster: &mut Cluster, _now: SimTime, tag: u64) {
        self.log.borrow_mut().push(Seen::PlanComplete(tag));
    }

    fn on_io_dispatched(&mut self, tier: Tier, _server: usize, _kind: IoKind, _len: u64) {
        self.log.borrow_mut().push(Seen::Dispatched(tier));
    }

    fn on_io_complete(&mut self, tier: Tier, _: usize, _: IoKind, _: u64, _: SimDuration) {
        self.log.borrow_mut().push(Seen::Completed(tier));
    }

    fn name(&self) -> &str {
        "phased"
    }
}

#[test]
fn then_starts_only_after_every_ops_sub_request_completed() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mw = Phased {
        log: log.clone(),
        side: FileId(0),
        next_tag: 0,
    };
    // 256 KiB over two DServers: `ops` is several concurrent sub-requests.
    let scripts = vec![script()
        .open("f")
        .write(0, 0, 256 * 1024)
        .read(0, 0, 4096)
        .close(0)
        .build()];
    Runner::new(small_cluster(), mw, scripts, 3).run();
    let log = log.borrow();
    let at = |e: Seen| log.iter().position(|&s| s == e).expect("event seen");
    for tag in [1, 2] {
        let done = log
            .iter()
            .filter(|&&s| s == Seen::PlanComplete(tag))
            .count();
        assert_eq!(done, 1, "plan {tag} completes exactly once: {log:?}");
    }
    let (write_start, write_done) = (at(Seen::Planned(1)), at(Seen::PlanComplete(1)));
    let write = &log[write_start..write_done];
    let first_then = write
        .iter()
        .position(|&s| s == Seen::Dispatched(Tier::CServers))
        .expect("the write's `then` ran");
    let ops = &write[..first_then];
    let dispatched = ops
        .iter()
        .filter(|&&s| s == Seen::Dispatched(Tier::DServers));
    let completed = ops
        .iter()
        .filter(|&&s| s == Seen::Completed(Tier::DServers));
    assert!(dispatched.clone().count() > 1, "`ops` fans out: {log:?}");
    assert_eq!(
        dispatched.count(),
        completed.count(),
        "no `then` op may start before every `ops` sub-request completed: {log:?}"
    );
    assert!(!write[first_then..].contains(&Seen::Dispatched(Tier::DServers)));
    // The read's `ops` is empty: its `then` is dispatched at once.
    let read_start = at(Seen::Planned(2));
    assert_eq!(
        log.get(read_start + 1),
        Some(&Seen::Dispatched(Tier::CServers)),
        "an empty `ops` starts `then` at once: {log:?}"
    );
    // Each plan completes right after its `then` drained.
    for tag in [1, 2] {
        let done = at(Seen::PlanComplete(tag));
        assert_eq!(log.get(done - 1), Some(&Seen::Completed(Tier::CServers)));
    }
}
