//! One repetition: a fresh cluster, middleware and scripts, then a timed
//! `Runner::run()`, with whatever observation the mode asks for.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use s4d::cache::{S4dCache, S4dMetrics};
use s4d::mpiio::{
    Cluster, DegradedCounts, DurabilityCounts, GrayFailureCounts, IoObserver, Middleware, Rank,
    RunReport, Runner, TierCounts,
};
use s4d::pfs::Pfs;
use s4d::sim::SimTime;
use s4d::storage::IoKind;
use s4d::trace::TraceCollector;

use crate::alloc;
use crate::stats::nearest_rank;
use crate::timed::{Timed, TraceLog};
use crate::workload::Workload;

/// What a repetition observes besides wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing attached, allocator counting off: the timed repetitions.
    Plain,
    /// Allocation counting and a per-request latency observer: the
    /// discarded warm-up repetition doubles as this one.
    Counted,
    /// `Timed<S4dCache>` on the seam (and the allocation counter it
    /// samples).
    Traced,
    /// `s4d-trace`'s collector attached, as a user of the tracer pays.
    Collector,
}

/// Per-tier server counters summed over a tier's servers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    pub subreqs: u64,
    pub busy_ns: u64,
    /// Deepest queue any server of the tier saw (over the cluster's
    /// life, so it includes a prefill).
    pub max_depth: usize,
}

impl TierStats {
    fn of(pfs: &Pfs) -> TierStats {
        let mut t = TierStats::default();
        for s in pfs.iter_servers() {
            let st = s.stats();
            t.subreqs += st.ops;
            t.busy_ns += st.busy.as_nanos();
            t.max_depth = t.max_depth.max(st.max_depth);
        }
        t
    }

    fn since(self, earlier: TierStats) -> TierStats {
        TierStats {
            subreqs: self.subreqs - earlier.subreqs,
            busy_ns: self.busy_ns - earlier.busy_ns,
            max_depth: self.max_depth,
        }
    }
}

/// Issue-to-completion latencies of every application request, in
/// simulated nanoseconds; sorted ascending once the repetition ends.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Latencies {
    pub write: Vec<u64>,
    pub read: Vec<u64>,
}

struct LatencyObserver(Rc<RefCell<Latencies>>);

impl IoObserver for LatencyObserver {
    fn on_request_complete(
        &mut self,
        now: SimTime,
        _rank: Rank,
        kind: IoKind,
        _offset: u64,
        _len: u64,
        issued: SimTime,
    ) {
        let ns = (now - issued).as_nanos();
        let mut l = self.0.borrow_mut();
        match kind {
            IoKind::Write => l.write.push(ns),
            IoKind::Read => l.read.push(ns),
        }
    }
}

/// Allocation figures of one `Runner::run()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocFigures {
    /// Allocation calls inside `Runner::run()`.
    pub allocs: u64,
    /// Peak heap growth over the bytes live before the repetition's
    /// cluster and middleware were built, seen during `Runner::run()`.
    pub peak_bytes: u64,
}

/// Everything one repetition produced.
pub struct Rep {
    pub report: RunReport,
    /// Middleware counters when the timed run started (non-zero only
    /// after a prefill) and when it ended.
    pub before: S4dMetrics,
    pub after: S4dMetrics,
    pub d: TierStats,
    pub c: TierStats,
    pub dmt_entries: u64,
    /// Host time of everything before `Runner::run()`: building the
    /// cluster, middleware and scripts, and the prefill run and drain.
    pub setup_ns: u64,
    /// Host time of `Runner::run()`.
    pub run_ns: u64,
    /// On-CPU time of `Runner::run()` where the kernel exposes it.
    pub oncpu_ns: Option<u64>,
    pub allocs: Option<AllocFigures>,
    pub latencies: Option<Latencies>,
    pub trace: Option<TraceLog>,
}

impl Rep {
    /// Completed application requests.
    pub fn completed(&self) -> u64 {
        self.report.app_ops(IoKind::Write) + self.report.app_ops(IoKind::Read)
    }

    /// The counters the run moved, for metrics that are deltas.
    pub fn delta(&self, field: impl Fn(&S4dMetrics) -> u64) -> u64 {
        field(&self.after) - field(&self.before)
    }

    /// Everything simulated about the run. Two repetitions of one
    /// workload and seed must agree on all of it, observed or not.
    pub fn fingerprint(&self) -> Fingerprint {
        let kind = |k: &s4d::mpiio::KindReport| {
            (
                k.meter.ops(),
                k.meter.bytes(),
                k.span().as_nanos(),
                k.latency.mean().map(|d| d.as_nanos()),
                k.latency.max().map(|d| d.as_nanos()),
            )
        };
        Fingerprint {
            end_ns: self.report.end_time.as_nanos(),
            events: self.report.events,
            writes: kind(&self.report.writes),
            reads: kind(&self.report.reads),
            tiers: self.report.tiers,
            background: (self.report.background_bytes, self.report.background_plans),
            overhead_bytes: self.report.overhead_bytes,
            degraded: self.report.degraded,
            gray: self.report.gray,
            durability: self.report.durability,
            metrics: self.after,
            servers: (self.d, self.c),
            dmt_entries: self.dmt_entries,
        }
    }

    /// Simulated throughput and exact latency percentiles (needs the
    /// latency observer of [`Mode::Counted`]).
    pub fn sim_figures(&self) -> Option<SimFigures> {
        let l = self.latencies.as_ref()?;
        let pct = |sorted: &[u64], q: f64| nearest_rank(sorted, q) as f64 / 1e6;
        Some(SimFigures {
            write_mibs: self.report.writes.throughput_mibs(),
            read_mibs: self.report.reads.throughput_mibs(),
            write_p50_ms: pct(&l.write, 0.50),
            write_p99_ms: pct(&l.write, 0.99),
            read_p50_ms: pct(&l.read, 0.50),
            read_p99_ms: pct(&l.read, 0.99),
            write_samples: l.write.len(),
            read_samples: l.read.len(),
        })
    }

    /// Operations that count as failed besides missing completions and
    /// payload mismatches: any fault-path activity on a healthy run.
    pub fn unhealthy(&self) -> u64 {
        let d = self.report.degraded;
        d.io_errors
            + d.retries
            + d.replans
            + d.failed_background_plans
            + d.overhead_failures
            + self.after.space_over_releases
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    end_ns: u64,
    events: u64,
    writes: (u64, u64, u64, Option<u64>, Option<u64>),
    reads: (u64, u64, u64, Option<u64>, Option<u64>),
    tiers: TierCounts,
    background: (u64, u64),
    overhead_bytes: u64,
    degraded: DegradedCounts,
    gray: GrayFailureCounts,
    durability: Option<DurabilityCounts>,
    metrics: S4dMetrics,
    servers: (TierStats, TierStats),
    dmt_entries: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFigures {
    pub write_mibs: f64,
    pub read_mibs: f64,
    pub write_p50_ms: f64,
    pub write_p99_ms: f64,
    pub read_p50_ms: f64,
    pub read_p99_ms: f64,
    pub write_samples: usize,
    pub read_samples: usize,
}

/// On-CPU nanoseconds of this thread, from the scheduler's accounting.
fn oncpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

struct Drive {
    report: RunReport,
    setup_ns: u64,
    run_ns: u64,
    oncpu_ns: Option<u64>,
    allocs: alloc::Snapshot,
    root: (u64, u64),
}

/// The timed region: `Runner::run()` between two clock reads. Set-up
/// ends where this begins.
fn drive<M: Middleware>(runner: &mut Runner<M>, epoch: Instant) -> Drive {
    let setup_ns = epoch.elapsed().as_nanos() as u64;
    let cpu0 = oncpu_ns();
    alloc::reset_peak();
    let a0 = alloc::snapshot();
    let start = epoch.elapsed();
    let report = runner.run();
    let end = epoch.elapsed();
    let a1 = alloc::snapshot();
    let cpu1 = oncpu_ns();
    Drive {
        report,
        setup_ns,
        run_ns: (end - start).as_nanos() as u64,
        oncpu_ns: cpu0.zip(cpu1).map(|(a, b)| b - a),
        allocs: alloc::Snapshot {
            allocs: a1.allocs - a0.allocs,
            ..a1
        },
        root: (start.as_nanos() as u64, end.as_nanos() as u64),
    }
}

/// A fresh cluster and middleware for `w`, prefilled and drained if the
/// workload asks for it.
fn stack(w: &Workload) -> (Cluster, S4dCache) {
    let cluster = w.tb.cluster();
    let mw = S4dCache::new(w.config.clone(), w.tb.cost_params());
    let Some(prefill) = &w.prefill else {
        return (cluster, mw);
    };
    let mut first = Runner::new(cluster, mw, prefill.scripts(), w.tb.seed);
    let end = first.run().end_time;
    first.drain_background(end);
    let (cluster, mw, _) = first.into_parts();
    (cluster, mw)
}

/// Runs one repetition of `w`. `span_hint` sizes the span buffer of
/// [`Mode::Traced`] (events + sub-requests of an earlier repetition).
pub fn run_rep(w: &Workload, mode: Mode, span_hint: usize) -> Rep {
    let requests = w.source.requests() as usize;
    // Harness buffers first, so they are not booked to the system.
    let latencies = (mode == Mode::Counted).then(|| {
        Rc::new(RefCell::new(Latencies {
            write: Vec::with_capacity(requests),
            read: Vec::with_capacity(requests),
        }))
    });
    let epoch = Instant::now();
    if matches!(mode, Mode::Counted | Mode::Traced) {
        alloc::start();
    }

    // Set-up: everything a repetition needs before the timed region.
    let (cluster, mw) = stack(w);
    let before = *mw.metrics();
    let (d0, c0) = (TierStats::of(cluster.opfs()), TierStats::of(cluster.cpfs()));
    let scripts = w.source.scripts();

    let (drive, cluster, mw, trace) = if mode == Mode::Traced {
        let timed = Timed::new(mw, epoch, span_hint, requests);
        let mut runner = Runner::new(cluster, timed, scripts, w.tb.seed ^ 1);
        let drive = drive(&mut runner, epoch);
        let (cluster, timed, _) = runner.into_parts();
        let (mw, mut log) = timed.into_parts();
        log.close_root(drive.root.0, drive.root.1);
        (drive, cluster, mw, Some(log))
    } else {
        let mut runner = Runner::new(cluster, mw, scripts, w.tb.seed ^ 1);
        if let Some(l) = &latencies {
            runner.add_observer(Box::new(LatencyObserver(l.clone())));
        }
        if mode == Mode::Collector {
            runner.add_observer(Box::new(TraceCollector::new().0));
        }
        let drive = drive(&mut runner, epoch);
        let (cluster, mw, _) = runner.into_parts();
        (drive, cluster, mw, None)
    };
    alloc::stop();

    Rep {
        before,
        after: *mw.metrics(),
        d: TierStats::of(cluster.opfs()).since(d0),
        c: TierStats::of(cluster.cpfs()).since(c0),
        dmt_entries: mw.plane().entry_count() as u64,
        setup_ns: drive.setup_ns,
        run_ns: drive.run_ns,
        oncpu_ns: drive.oncpu_ns,
        allocs: matches!(mode, Mode::Counted | Mode::Traced).then_some(AllocFigures {
            allocs: drive.allocs.allocs,
            peak_bytes: drive.allocs.peak.max(0) as u64,
        }),
        latencies: latencies.map(|l| {
            let mut l = l.take();
            l.write.sort_unstable();
            l.read.sort_unstable();
            l
        }),
        trace,
        report: drive.report,
    }
}

/// The same scripts over the stock middleware on a fresh cluster: the
/// simulated baseline for the fidelity ratios and the host cost of the
/// stack below the seam (cluster construction, tens of microseconds, is
/// inside the clock reads).
pub fn run_stock(w: &Workload) -> (RunReport, u64) {
    let start = Instant::now();
    let outcome = s4d::bench::run_stock(&w.tb, w.source.scripts(), Vec::new());
    (outcome.report, start.elapsed().as_nanos() as u64)
}
