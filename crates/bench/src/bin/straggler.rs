//! Gray-failure straggler benchmark: read throughput and completion
//! percentiles under a tail-latency fault plan, with and without the
//! deadline/hedging machinery — the perf-trajectory baseline for the
//! gray-failure work (ROADMAP item 1(c)).
//!
//! Emits `BENCH_straggler.json` (machine-readable, hand-formatted: the
//! workspace has no JSON serializer dependency) into the current
//! directory and prints the same numbers to stdout.
//!
//! `--check [baseline.json]` re-runs both variants and compares them
//! against the committed baseline instead of writing it: the gate fails
//! (exit 1) when read throughput drops more than 5% or p99 completion
//! latency grows more than 10% for either variant. The simulation is
//! deterministic, so an honest run reproduces the baseline exactly —
//! the tolerances only absorb formatting rounding.

use std::cell::RefCell;
use std::rc::Rc;

use s4d_bench::testbed;
use s4d_cache::{S4dCache, S4dConfig};
use s4d_mpiio::{script, IoObserver, Rank, RunReport, Runner};
use s4d_pfs::{FaultPlan, ServerFault};
use s4d_sim::{SimDuration, SimTime};
use s4d_storage::IoKind;

const KIB: u64 = 1024;
/// Requests per rank in each phase.
const REQUESTS: u64 = 256;
const RANKS: usize = 4;
const REQ_SIZE: u64 = 16 * KIB;
/// Per-rank file region, holding its whole write phase.
const REGION: u64 = 16 * 1024 * KIB;
/// The read phase starts after this much think time; the fault window
/// opens at the same instant, so only reads see the tail.
const READ_PHASE_SECS: u64 = 3;
/// Tail probability and service-time multiplier of the fault plan.
const TAIL_PROBABILITY: f64 = 0.1;
const TAIL_FACTOR: f64 = 200.0;

/// Collects per-read completion latencies and the read phase's span.
#[derive(Default)]
struct Latencies {
    read_secs: Vec<f64>,
    first_issued: Option<SimTime>,
    last_done: Option<SimTime>,
}

struct Collect(Rc<RefCell<Latencies>>);

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
        if kind != IoKind::Read {
            return;
        }
        let mut l = self.0.borrow_mut();
        l.read_secs.push((now - issued).as_secs_f64());
        l.first_issued = Some(l.first_issued.map_or(issued, |f| f.min(issued)));
        l.last_done = Some(l.last_done.map_or(now, |d| d.max(now)));
    }
}

struct Variant {
    name: &'static str,
    report: RunReport,
    reads_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn run_variant(name: &'static str, hedged: bool) -> Variant {
    let tb = testbed(0x57A11);
    let mut cluster = tb.cluster();
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

    let latencies = Rc::new(RefCell::new(Latencies::default()));
    let mut runner = Runner::new(
        cluster,
        S4dCache::new(config, tb.cost_params()),
        scripts,
        tb.seed,
    );
    runner.add_observer(Box::new(Collect(latencies.clone())));
    let report = runner.run();

    let l = latencies.borrow();
    let mut sorted = l.read_secs.clone();
    sorted.sort_by(f64::total_cmp);
    let span = match (l.first_issued, l.last_done) {
        (Some(f), Some(d)) if d > f => (d - f).as_secs_f64(),
        _ => 0.0,
    };
    let reads_per_sec = if span > 0.0 {
        sorted.len() as f64 / span
    } else {
        0.0
    };
    Variant {
        name,
        report,
        reads_per_sec,
        p50_ms: percentile(&sorted, 0.50) * 1e3,
        p99_ms: percentile(&sorted, 0.99) * 1e3,
        max_ms: sorted.last().copied().unwrap_or(0.0) * 1e3,
    }
}

fn variant_json(v: &Variant) -> String {
    let g = &v.report.gray;
    format!(
        "  \"{}\": {{\n    \"reads_per_sec\": {:.1},\n    \"p50_ms\": {:.3},\n    \
         \"p99_ms\": {:.3},\n    \"max_ms\": {:.3},\n    \"deadline_misses\": {},\n    \
         \"hedges_issued\": {},\n    \"hedges_won\": {},\n    \"stall_abandons\": {},\n    \
         \"replans\": {}\n  }}",
        v.name,
        v.reads_per_sec,
        v.p50_ms,
        v.p99_ms,
        v.max_ms,
        g.deadline_misses,
        g.hedges_issued,
        g.hedges_won,
        g.stall_abandons,
        v.report.degraded.replans,
    )
}

/// Reads the first numeric value following `"key"` in `text`.
fn field_f64(text: &str, key: &str) -> Option<f64> {
    let at = text.find(&format!("\"{key}\""))?;
    let rest = &text[at..];
    let tail = rest[rest.find(':')? + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Compares the freshly measured variants against the committed
/// baseline file. Returns the process exit code.
fn check(baseline_path: &str, variants: &[&Variant]) -> i32 {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            return 2;
        }
    };
    let mut failed = false;
    for v in variants {
        // Scope the key scan to this variant's object in the baseline.
        let Some(sect) = text.split(&format!("\"{}\"", v.name)).nth(1) else {
            eprintln!("baseline has no \"{}\" section", v.name);
            failed = true;
            continue;
        };
        let (Some(base_rps), Some(base_p99)) =
            (field_f64(sect, "reads_per_sec"), field_f64(sect, "p99_ms"))
        else {
            eprintln!("baseline \"{}\" section is missing metrics", v.name);
            failed = true;
            continue;
        };
        let rps_ok = v.reads_per_sec >= base_rps * 0.95;
        let p99_ok = v.p99_ms <= base_p99 * 1.10 + 0.05;
        println!(
            "{:>8}: reads/s {:.1} vs baseline {:.1} [{}]  p99 {:.3} ms vs baseline {:.3} ms [{}]",
            v.name,
            v.reads_per_sec,
            base_rps,
            if rps_ok { "ok" } else { "REGRESSED" },
            v.p99_ms,
            base_p99,
            if p99_ok { "ok" } else { "REGRESSED" },
        );
        failed |= !rps_ok || !p99_ok;
    }
    if failed {
        eprintln!("bench regression gate FAILED against {baseline_path}");
        1
    } else {
        println!("bench regression gate passed against {baseline_path}");
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let baseline = run_variant("baseline", false);
    let hedged = run_variant("hedged", true);
    if args.get(1).map(String::as_str) == Some("--check") {
        let path = args.get(2).map_or("BENCH_straggler.json", String::as_str);
        std::process::exit(check(path, &[&baseline, &hedged]));
    }
    for v in [&baseline, &hedged] {
        println!(
            "{:>8}: {:.1} reads/s  p50 {:.3} ms  p99 {:.3} ms  max {:.3} ms  \
             (misses {}, hedges {}/{})",
            v.name,
            v.reads_per_sec,
            v.p50_ms,
            v.p99_ms,
            v.max_ms,
            v.report.gray.deadline_misses,
            v.report.gray.hedges_won,
            v.report.gray.hedges_issued,
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"straggler\",\n  \"workload\": {{\n    \"ranks\": {RANKS},\n    \
         \"requests_per_rank\": {REQUESTS},\n    \"request_bytes\": {REQ_SIZE}\n  }},\n  \
         \"fault\": {{\n    \"kind\": \"tail-latency\",\n    \"server\": 0,\n    \
         \"probability\": {TAIL_PROBABILITY},\n    \"factor\": {TAIL_FACTOR}\n  }},\n{},\n{}\n}}\n",
        variant_json(&baseline),
        variant_json(&hedged),
    );
    let path = "BENCH_straggler.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}
