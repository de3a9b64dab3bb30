//! `Timed<M>`: the benchmark's tracing wrapper around the public
//! [`Middleware`] seam, and the aggregation of the spans it records.
//!
//! Every trait method is forwarded; around each call the wrapper records
//! one span into a pre-allocated, pre-touched buffer and samples the
//! allocation counter. The program itself is not instrumented: stages
//! inside `plan_io` (identify / redirect / admit) are private and are
//! left to in-program tracing.

use std::time::Instant;

use s4d::mpiio::{
    AppRequest, BackgroundPoll, Cluster, DurabilityCounts, ErrorDirective, HedgeDirective,
    Middleware, MiddlewareError, Plan, Rank, StragglerCtx, SubIoFailure, Tier,
};
use s4d::pfs::FileId;
use s4d::sim::{SimDuration, SimTime};
use s4d::storage::IoKind;

use crate::alloc;
use crate::stats::nearest_rank;

/// Where a span's time is booked. Names are the repo's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// `Runner::run()` itself: its self time is the runner, pfs, sim and
    /// storage crates (everything below the middleware seam).
    Runner = 0,
    /// `S4dCache::plan_io`: identify, redirect, admit, journal planning.
    PlanIo = 1,
    /// `poll_background`: the Rebuilder's flush/fetch scheduling.
    Poll = 2,
    /// `on_plan_complete`: completion-side metadata transitions.
    PlanComplete = 3,
    /// `on_io_dispatched` + `on_io_complete`: the health monitor's feed.
    HealthIo = 4,
    /// Everything else on the seam (open, close, error and deadline
    /// hooks); a handful of calls on a healthy run.
    Other = 5,
}

pub const LAYERS: usize = 6;

/// One recorded call. A span's id is its index in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub parent: u32,
    pub layer: Layer,
    /// Sequence number of the `AppRequest` for `plan_io`, the plan tag
    /// for `on_plan_complete` / `on_plan_failed`, 0 otherwise.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One application request as the middleware saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqRecord {
    pub rank: u32,
    pub file: FileId,
    pub kind: IoKind,
    pub offset: u64,
    pub len: u64,
}

/// Everything a traced run collects.
#[derive(Debug)]
pub struct TraceLog {
    pub spans: Vec<Span>,
    pub reqs: Vec<ReqRecord>,
    /// Allocation calls made inside each layer's calls.
    pub allocs: [u64; LAYERS],
}

const ROOT: u32 = 0;

impl TraceLog {
    fn with_capacity(spans: usize, reqs: usize) -> TraceLog {
        let filler = Span {
            parent: ROOT,
            layer: Layer::Runner,
            req: 0,
            start_ns: 0,
            end_ns: 0,
        };
        // Write every page now so the traced run takes no page faults for
        // the buffer (`with_capacity` alone leaves them untouched).
        let mut buf = vec![filler; spans + 1];
        buf.truncate(1);
        TraceLog {
            spans: buf,
            reqs: Vec::with_capacity(reqs),
            allocs: [0; LAYERS],
        }
    }

    /// Fills in the root span (`Runner::run()`), measured by the harness
    /// on the wrapper's clock.
    pub fn close_root(&mut self, start_ns: u64, end_ns: u64) {
        self.spans[0].start_ns = start_ns;
        self.spans[0].end_ns = end_ns;
    }
}

/// A [`Middleware`] that times every call into `inner`.
pub struct Timed<M> {
    inner: M,
    epoch: Instant,
    log: TraceLog,
}

impl<M: Middleware> Timed<M> {
    /// Wraps `inner`; span times count from `epoch`. `spans` and `reqs`
    /// size the buffers (exceeding them is safe, only slower).
    pub fn new(inner: M, epoch: Instant, spans: usize, reqs: usize) -> Self {
        Timed {
            inner,
            epoch,
            log: TraceLog::with_capacity(spans, reqs),
        }
    }

    pub fn into_parts(self) -> (M, TraceLog) {
        (self.inner, self.log)
    }

    #[inline]
    fn span<R>(&mut self, layer: Layer, req: u64, f: impl FnOnce(&mut M) -> R) -> R {
        let allocs = alloc::allocs();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(&mut self.inner);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.log.allocs[layer as usize] += alloc::allocs() - allocs;
        self.log.spans.push(Span {
            parent: ROOT,
            layer,
            req,
            start_ns,
            end_ns,
        });
        out
    }
}

impl<M: Middleware> Middleware for Timed<M> {
    fn open(&mut self, c: &mut Cluster, rank: Rank, name: &str) -> Result<FileId, MiddlewareError> {
        self.span(Layer::Other, 0, |m| m.open(c, rank, name))
    }

    fn plan_io(&mut self, c: &mut Cluster, now: SimTime, req: &AppRequest) -> Plan {
        let seq = self.log.reqs.len() as u64;
        self.log.reqs.push(ReqRecord {
            rank: req.rank.0,
            file: req.file,
            kind: req.kind,
            offset: req.offset,
            len: req.len,
        });
        self.span(Layer::PlanIo, seq, |m| m.plan_io(c, now, req))
    }

    fn close(&mut self, c: &mut Cluster, rank: Rank, file: FileId) -> Result<(), MiddlewareError> {
        self.span(Layer::Other, 0, |m| m.close(c, rank, file))
    }

    fn on_plan_complete(&mut self, c: &mut Cluster, now: SimTime, tag: u64) {
        self.span(Layer::PlanComplete, tag, |m| {
            m.on_plan_complete(c, now, tag)
        })
    }

    fn on_io_error(&mut self, c: &mut Cluster, now: SimTime, f: &SubIoFailure) -> ErrorDirective {
        self.span(Layer::Other, 0, |m| m.on_io_error(c, now, f))
    }

    fn on_io_complete(
        &mut self,
        tier: Tier,
        server: usize,
        kind: IoKind,
        len: u64,
        latency: SimDuration,
    ) {
        self.span(Layer::HealthIo, 0, |m| {
            m.on_io_complete(tier, server, kind, len, latency)
        })
    }

    fn on_io_dispatched(&mut self, tier: Tier, server: usize, kind: IoKind, len: u64) {
        self.span(Layer::HealthIo, 0, |m| {
            m.on_io_dispatched(tier, server, kind, len)
        })
    }

    fn on_io_abandoned(&mut self, tier: Tier, server: usize, kind: IoKind, len: u64) {
        self.span(Layer::Other, 0, |m| {
            m.on_io_abandoned(tier, server, kind, len)
        })
    }

    fn on_deadline(&mut self, c: &mut Cluster, now: SimTime, ctx: &StragglerCtx) -> HedgeDirective {
        self.span(Layer::Other, 0, |m| m.on_deadline(c, now, ctx))
    }

    fn shed_admissions(&self) -> u64 {
        self.inner.shed_admissions()
    }

    fn on_plan_failed(&mut self, c: &mut Cluster, now: SimTime, tag: u64) {
        self.span(Layer::Other, tag, |m| m.on_plan_failed(c, now, tag))
    }

    fn poll_background(&mut self, c: &mut Cluster, now: SimTime) -> BackgroundPoll {
        self.span(Layer::Poll, 0, |m| m.poll_background(c, now))
    }

    fn durability(&self) -> Option<DurabilityCounts> {
        self.inner.durability()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Per-layer totals of one traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTable {
    pub calls: [u64; LAYERS],
    /// Self time: a span's duration minus its children's.
    pub self_ns: [u64; LAYERS],
    /// 99th percentile of `plan_io` span durations.
    pub plan_io_p99_ns: u64,
    /// Duration of the root span.
    pub root_ns: u64,
    /// Spans that start before or end after their parent: must be 0.
    pub escaped: u64,
}

impl LayerTable {
    /// A layer's self time as a percentage of the root span.
    pub fn share_pct(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 * 100.0 / self.root_ns as f64
    }

    /// A layer's self time per call (0 when it was never called).
    pub fn ns_per_call(&self, layer: Layer) -> f64 {
        let calls = self.calls[layer as usize];
        if calls == 0 {
            0.0
        } else {
            self.self_ns[layer as usize] as f64 / calls as f64
        }
    }

    /// Σ layer self times ÷ root span. Exactly 1 when every span nests
    /// inside its parent and siblings do not overlap, which holds for a
    /// single-threaded run; the benchmark fails if this drifts by more
    /// than 2 %.
    pub fn closure(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / self.root_ns as f64
    }
}

/// Aggregates a span log whose entry 0 is the root.
///
/// Siblings are assumed not to overlap (one thread), so the part of a
/// span its children cover is the sum of their durations.
pub fn aggregate(spans: &[Span]) -> LayerTable {
    let mut self_ns: Vec<i128> = spans.iter().map(|s| i128::from(s.dur())).collect();
    let mut escaped = 0;
    for (i, s) in spans.iter().enumerate().skip(1) {
        let p = &spans[s.parent as usize];
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            escaped += 1;
        }
        self_ns[s.parent as usize] -= i128::from(spans[i].dur());
    }
    let mut table = LayerTable {
        calls: [0; LAYERS],
        self_ns: [0; LAYERS],
        plan_io_p99_ns: 0,
        root_ns: spans[0].dur(),
        escaped,
    };
    for (s, own) in spans.iter().zip(&self_ns) {
        table.calls[s.layer as usize] += 1;
        // A negative self time means children outlast their parent; it is
        // booked as 0 and shows up in `closure()`.
        table.self_ns[s.layer as usize] += (*own).max(0) as u64;
    }
    let mut plan_io: Vec<u64> = spans
        .iter()
        .filter(|s| s.layer == Layer::PlanIo)
        .map(Span::dur)
        .collect();
    if !plan_io.is_empty() {
        plan_io.sort_unstable();
        table.plan_io_p99_ns = nearest_rank(&plan_io, 0.99);
    }
    table
}

/// Cost of one empty span (two clock reads, two counter reads and a
/// push), so a reader can tell how much of a tiny layer's
/// `ns_per_call` is the observation itself.
pub fn span_cost_ns() -> f64 {
    struct Nop;
    impl Middleware for Nop {
        fn open(&mut self, _: &mut Cluster, _: Rank, _: &str) -> Result<FileId, MiddlewareError> {
            Ok(FileId(0))
        }
        fn plan_io(&mut self, _: &mut Cluster, _: SimTime, _: &AppRequest) -> Plan {
            Plan::default()
        }
        fn close(&mut self, _: &mut Cluster, _: Rank, _: FileId) -> Result<(), MiddlewareError> {
            Ok(())
        }
        fn name(&self) -> &str {
            "nop"
        }
    }
    const N: usize = 200_000;
    let epoch = Instant::now();
    let mut timed = Timed::new(Nop, epoch, N, 0);
    for _ in 0..N {
        timed.on_io_dispatched(Tier::DServers, 0, IoKind::Read, 0);
    }
    let total = epoch.elapsed().as_nanos() as f64;
    std::hint::black_box(&timed.log.spans);
    total / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4d::mpiio::StockMiddleware;

    fn span(parent: u32, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            layer,
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // root [0,1000)
        //   plan_io [100,400)
        //     other [150,250)        (nested two deep)
        //   poll [500,700)
        //   plan_io [700,800)
        let spans = [
            span(0, Layer::Runner, 0, 1000),
            span(0, Layer::PlanIo, 100, 400),
            span(1, Layer::Other, 150, 250),
            span(0, Layer::Poll, 500, 700),
            span(0, Layer::PlanIo, 700, 800),
        ];
        let t = aggregate(&spans);
        assert_eq!(t.root_ns, 1000);
        assert_eq!(t.self_ns[Layer::Runner as usize], 1000 - 300 - 200 - 100);
        assert_eq!(t.self_ns[Layer::PlanIo as usize], (300 - 100) + 100);
        assert_eq!(t.self_ns[Layer::Other as usize], 100);
        assert_eq!(t.self_ns[Layer::Poll as usize], 200);
        assert_eq!(t.calls[Layer::PlanIo as usize], 2);
        assert_eq!(t.plan_io_p99_ns, 300);
        assert_eq!(t.escaped, 0);
        assert!((t.closure() - 1.0).abs() < 1e-12);
        assert!((t.share_pct(Layer::Poll) - 20.0).abs() < 1e-12);
        assert_eq!(t.ns_per_call(Layer::PlanIo), 150.0);
        assert_eq!(t.ns_per_call(Layer::HealthIo), 0.0);
    }

    #[test]
    fn a_span_outside_its_parent_breaks_closure() {
        let spans = [
            span(0, Layer::Runner, 100, 200),
            span(0, Layer::PlanIo, 150, 400),
        ];
        let t = aggregate(&spans);
        assert_eq!(t.escaped, 1);
        assert!(t.closure() > 1.02);
    }

    /// A middleware that answers every method with a value the default
    /// implementations never produce, and notes the call.
    #[derive(Default)]
    struct Probe {
        seen: Vec<&'static str>,
    }

    impl Middleware for Probe {
        fn open(&mut self, _: &mut Cluster, _: Rank, _: &str) -> Result<FileId, MiddlewareError> {
            self.seen.push("open");
            Ok(FileId(41))
        }
        fn plan_io(&mut self, _: &mut Cluster, _: SimTime, _: &AppRequest) -> Plan {
            self.seen.push("plan_io");
            Plan {
                tag: 42,
                ..Plan::default()
            }
        }
        fn close(&mut self, _: &mut Cluster, _: Rank, _: FileId) -> Result<(), MiddlewareError> {
            self.seen.push("close");
            Err(MiddlewareError::BadHandle(
                Rank(1),
                s4d::mpiio::FileHandle(2),
            ))
        }
        fn on_plan_complete(&mut self, _: &mut Cluster, _: SimTime, _: u64) {
            self.seen.push("on_plan_complete");
        }
        fn on_io_error(&mut self, _: &mut Cluster, _: SimTime, _: &SubIoFailure) -> ErrorDirective {
            self.seen.push("on_io_error");
            ErrorDirective::Retry {
                delay: SimDuration::from_nanos(43),
            }
        }
        fn on_io_complete(&mut self, _: Tier, _: usize, _: IoKind, _: u64, _: SimDuration) {
            self.seen.push("on_io_complete");
        }
        fn on_io_dispatched(&mut self, _: Tier, _: usize, _: IoKind, _: u64) {
            self.seen.push("on_io_dispatched");
        }
        fn on_io_abandoned(&mut self, _: Tier, _: usize, _: IoKind, _: u64) {
            self.seen.push("on_io_abandoned");
        }
        fn on_deadline(&mut self, _: &mut Cluster, _: SimTime, _: &StragglerCtx) -> HedgeDirective {
            self.seen.push("on_deadline");
            HedgeDirective::Abandon
        }
        fn shed_admissions(&self) -> u64 {
            44
        }
        fn on_plan_failed(&mut self, _: &mut Cluster, _: SimTime, _: u64) {
            self.seen.push("on_plan_failed");
        }
        fn poll_background(&mut self, _: &mut Cluster, _: SimTime) -> BackgroundPoll {
            self.seen.push("poll_background");
            BackgroundPoll {
                plans: Vec::new(),
                next_wake: Some(SimTime::from_nanos(45)),
                work_pending: true,
            }
        }
        fn durability(&self) -> Option<DurabilityCounts> {
            Some(DurabilityCounts {
                journal_writes: 46,
                ..DurabilityCounts::default()
            })
        }
        fn name(&self) -> &str {
            "probe"
        }
    }

    #[test]
    fn forwards_every_middleware_method() {
        let mut c = Cluster::paper_testbed_small(1);
        let now = SimTime::ZERO;
        let mut t = Timed::new(Probe::default(), Instant::now(), 16, 4);
        let req = AppRequest {
            rank: Rank(3),
            file: FileId(5),
            kind: IoKind::Write,
            offset: 64,
            len: 32,
            data: None,
        };
        let failure = SubIoFailure {
            tier: Tier::CServers,
            server: 0,
            kind: IoKind::Read,
            len: 1,
            error: s4d::pfs::IoFault::Transient,
            attempts: 1,
            overhead: false,
        };
        let ctx = StragglerCtx {
            tier: Tier::CServers,
            server: 0,
            file: FileId(0),
            kind: IoKind::Read,
            len: 1,
            app_file: None,
            app_segments: Vec::new(),
            attempts: 1,
        };
        assert_eq!(t.open(&mut c, Rank(0), "f").unwrap(), FileId(41));
        assert_eq!(t.plan_io(&mut c, now, &req).tag, 42);
        assert!(t.close(&mut c, Rank(0), FileId(41)).is_err());
        t.on_plan_complete(&mut c, now, 9);
        assert!(matches!(
            t.on_io_error(&mut c, now, &failure),
            ErrorDirective::Retry { .. }
        ));
        t.on_io_complete(Tier::DServers, 0, IoKind::Read, 1, SimDuration::ZERO);
        t.on_io_dispatched(Tier::DServers, 0, IoKind::Read, 1);
        t.on_io_abandoned(Tier::DServers, 0, IoKind::Read, 1);
        assert_eq!(t.on_deadline(&mut c, now, &ctx), HedgeDirective::Abandon);
        assert_eq!(t.shed_admissions(), 44);
        t.on_plan_failed(&mut c, now, 9);
        let poll = t.poll_background(&mut c, now);
        assert!(poll.work_pending && poll.next_wake.is_some());
        assert_eq!(t.durability().expect("forwarded").journal_writes, 46);
        assert_eq!(t.name(), "probe");

        let (probe, log) = t.into_parts();
        assert_eq!(
            probe.seen,
            [
                "open",
                "plan_io",
                "close",
                "on_plan_complete",
                "on_io_error",
                "on_io_complete",
                "on_io_dispatched",
                "on_io_abandoned",
                "on_deadline",
                "on_plan_failed",
                "poll_background",
            ]
        );
        // Root placeholder + one span per mutable call.
        assert_eq!(log.spans.len(), 1 + probe.seen.len());
        assert_eq!(log.spans[2].layer, Layer::PlanIo);
        assert_eq!(log.spans[4].req, 9, "plan tag is the span's request id");
        assert_eq!(
            log.reqs,
            [ReqRecord {
                rank: 3,
                file: FileId(5),
                kind: IoKind::Write,
                offset: 64,
                len: 32
            }]
        );
    }

    /// `Timed` forwards 14 methods. A method added to the trait with a
    /// default body would compile without being forwarded, so the count
    /// is pinned against the trait's source.
    #[test]
    fn the_trait_has_no_method_timed_does_not_forward() {
        let src = include_str!("../../crates/mpiio/src/middleware.rs");
        let start = src.find("pub trait Middleware {").expect("trait present");
        let body = &src[start..];
        let end = body.find("\n}\n").expect("trait ends");
        let methods = body[..end].matches("\n    fn ").count();
        assert_eq!(methods, 14, "update Timed<M> and this count together");
    }

    #[test]
    fn timed_over_stock_runs_a_real_script() {
        use s4d::mpiio::{script, Runner};
        let scripts = vec![script()
            .open("f")
            .write(0, 0, 256 * 1024)
            .read(0, 0, 256 * 1024)
            .close(0)
            .build()];
        let epoch = Instant::now();
        let timed = Timed::new(StockMiddleware::new(), epoch, 64, 2);
        let mut runner = Runner::new(Cluster::paper_testbed_small(1), timed, scripts, 1);
        let start = epoch.elapsed().as_nanos() as u64;
        let report = runner.run();
        let end = epoch.elapsed().as_nanos() as u64;
        let (_, timed, _) = runner.into_parts();
        let (_, mut log) = timed.into_parts();
        log.close_root(start, end);
        let table = aggregate(&log.spans);
        assert_eq!(table.calls[Layer::PlanIo as usize], 2);
        assert_eq!(log.reqs.len(), 2);
        assert!(table.calls[Layer::HealthIo as usize] >= 4);
        assert_eq!(table.escaped, 0);
        assert!((table.closure() - 1.0).abs() < 1e-9);
        assert_eq!(report.app_ops(IoKind::Write), 1);
    }
}
