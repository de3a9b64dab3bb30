//! The gray-failure straggler scenario: read throughput and completion
//! percentiles under a tail-latency fault plan, with and without the
//! deadline/hedging machinery. The `straggler` binary writes its two
//! variants to `BENCH_straggler.json`; the behaviour lock pins both.
//!
//! Four ranks each write 256 requests of 16 KiB, think while the
//! Rebuilder flushes everything clean, then read their region back while
//! CServer 0 serves one request in ten 200x slower.

use std::cell::RefCell;
use std::rc::Rc;

use s4d_cache::{S4dCache, S4dConfig};
use s4d_mpiio::{script, IoObserver, Rank, RunReport, Runner};
use s4d_pfs::{FaultPlan, ServerFault};
use s4d_sim::{SimDuration, SimTime};
use s4d_storage::IoKind;

use crate::testbed;

const KIB: u64 = 1024;
/// Requests per rank in each phase.
pub const REQUESTS: u64 = 256;
/// Ranks, each with its own file region.
pub const RANKS: usize = 4;
/// Bytes per request.
pub const REQ_SIZE: u64 = 16 * KIB;
/// Per-rank file region, holding its whole write phase.
const REGION: u64 = 16 * 1024 * KIB;
/// The read phase starts after this much think time; the fault window
/// opens at the same instant, so only reads see the tail.
const READ_PHASE_SECS: u64 = 3;
/// Probability that CServer 0 serves a request slowly.
pub const TAIL_PROBABILITY: f64 = 0.1;
/// Service-time multiplier of a slow request.
pub const TAIL_FACTOR: f64 = 200.0;

/// Collects every read's `(issued, done)` times.
struct Collect(Rc<RefCell<Vec<(SimTime, SimTime)>>>);

impl IoObserver for Collect {
    fn on_request_complete(
        &mut self,
        now: SimTime,
        _rank: Rank,
        kind: IoKind,
        _offset: u64,
        _len: u64,
        issued: SimTime,
    ) {
        if kind == IoKind::Read {
            self.0.borrow_mut().push((issued, now));
        }
    }
}

/// One variant's run: its report and read-latency statistics.
pub struct Variant {
    /// `"baseline"` or `"hedged"`.
    pub name: &'static str,
    /// The runner's report (gray-failure and degraded counters).
    pub report: RunReport,
    /// Every read's completion latency, shortest first.
    pub latencies: Vec<SimDuration>,
    /// Reads completed per second of the read phase.
    pub reads_per_sec: f64,
    /// Median read latency.
    pub p50_ms: f64,
    /// 99th-percentile read latency.
    pub p99_ms: f64,
    /// Slowest read.
    pub max_ms: f64,
}

fn percentile_ms(sorted: &[SimDuration], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).map_or(0.0, |d| d.as_secs_f64() * 1e3)
}

/// Runs the scenario; `hedged` turns on deadlines (factor 4) and with
/// them hedged reads.
pub fn run_variant(name: &'static str, hedged: bool) -> Variant {
    let tb = testbed(0x57A11);
    let mut cluster = tb.cluster();
    #[expect(clippy::expect_used, reason = "the fixed testbed has a CServer 0")]
    cluster
        .cpfs_mut()
        .set_fault_plan(
            0,
            FaultPlan::new().with(ServerFault::Slow {
                from: SimTime::from_secs(READ_PHASE_SECS),
                until: SimTime::from_secs(10_000),
                class: None,
                probability: TAIL_PROBABILITY,
                factor: TAIL_FACTOR,
            }),
        )
        .expect("CServer 0 exists");

    let mut config = S4dConfig::new(256 * 1024 * KIB)
        .with_journal_batch(1)
        .with_rebuild_period(SimDuration::from_millis(100));
    if hedged {
        config = config.with_deadlines(4.0);
    }

    let scripts: Vec<_> = (0..RANKS)
        .map(|r| {
            let base = r as u64 * REGION;
            let mut b = script().open("straggler.dat");
            for i in 0..REQUESTS {
                b = b.write(0, base + i * REQ_SIZE, REQ_SIZE);
            }
            // Let the Rebuilder flush everything clean before the fault
            // window opens: the read phase then measures pure tail pain.
            b = b.think(SimDuration::from_secs(READ_PHASE_SECS));
            for i in 0..REQUESTS {
                b = b.read(0, base + i * REQ_SIZE, REQ_SIZE);
            }
            b.close(0).build()
        })
        .collect();

    let collected = Rc::new(RefCell::new(Vec::new()));
    let mut runner = Runner::new(
        cluster,
        S4dCache::new(config, tb.cost_params()),
        scripts,
        tb.seed,
    );
    runner.add_observer(Box::new(Collect(collected.clone())));
    let report = runner.run();

    let reads = collected.take();
    let mut latencies: Vec<SimDuration> =
        reads.iter().map(|&(issued, done)| done - issued).collect();
    latencies.sort();
    let first_issued = reads.iter().map(|r| r.0).min();
    let span = match (first_issued, reads.iter().map(|r| r.1).max()) {
        (Some(f), Some(d)) if d > f => (d - f).as_secs_f64(),
        _ => 0.0,
    };
    let reads_per_sec = if span > 0.0 {
        latencies.len() as f64 / span
    } else {
        0.0
    };
    Variant {
        name,
        report,
        reads_per_sec,
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        max_ms: latencies.last().map_or(0.0, |d| d.as_secs_f64() * 1e3),
        latencies,
    }
}
