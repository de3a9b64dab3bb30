//! Failure-domain demo: script CServer faults against one workload and
//! watch the middleware degrade gracefully instead of corrupting data.
//!
//! One write/overwrite/read job runs under four fault plans:
//!   1. healthy baseline — nothing degrades;
//!   2. transient error storm — capped-backoff retries absorb it;
//!   3. saturated error window — the CServer is quarantined, clean reads
//!      fall back to OPFS, a write in the window is denied admission;
//!   4. hard crash with data loss — unflushed overwrites are reported
//!      lost, reads roll back to the durable OPFS state, and admission
//!      resumes once the server recovers.
//!
//! ```text
//! cargo run --release --example failure_domain_demo
//! ```

use s4d::bench::testbed;
use s4d::cache::{S4dCache, S4dConfig, S4dMetrics};
use s4d::mpiio::{script, Cluster, RunReport, Runner};
use s4d::pfs::{FaultPlan, ServerFault};
use s4d::sim::{SimDuration, SimTime};

const KIB: u64 = 1024;
const REQ: u64 = 16 * KIB;
const REQS: u64 = 32;

fn run(label: &str, fault: FaultPlan) -> (RunReport, S4dMetrics) {
    let seed = 0x54D;
    let mut cluster = Cluster::paper_testbed_small(seed);
    cluster
        .cpfs_mut()
        .set_fault_plan(0, fault)
        .expect("CServer 0 exists");

    // Write 32 x 16 KiB and let the Rebuilder flush everything clean;
    // overwrite the first eight (dirty again, right before the fault
    // windows open); read it all back inside the windows plus one fresh
    // write (admission probe); then, after recovery, read again and
    // write once more.
    let mut b = script().open("demo.dat");
    for i in 0..REQS {
        b = b.write_bytes(0, i * REQ, vec![i as u8; REQ as usize]);
    }
    b = b.think(SimDuration::from_millis(1050));
    for i in 0..8 {
        b = b.write_bytes(0, i * REQ, vec![0x55; REQ as usize]);
    }
    b = b.think(SimDuration::from_millis(150));
    // Clean extents first, the dirty overwrites last: under quarantine
    // the clean ones may degrade to OPFS while dirty ones must keep the
    // cache route (the cache holds the only current copy).
    for i in (8..REQS).chain(0..8) {
        b = b.read(0, i * REQ, REQ);
    }
    b = b.write_bytes(0, REQS * REQ, vec![0xAA; REQ as usize]);
    b = b.think(SimDuration::from_secs(3));
    for i in 0..=REQS {
        b = b.read(0, i * REQ, REQ);
    }
    b = b.write_bytes(0, (REQS + 1) * REQ, vec![0xBB; REQ as usize]);

    let config = S4dConfig::new(64 * 1024 * KIB)
        .with_rebuild_period(SimDuration::from_millis(200))
        .with_retry_attempts(4)
        .with_quarantine(5, SimDuration::from_secs(2));
    let mut runner = Runner::new(
        cluster,
        S4dCache::new(config, testbed(seed).cost_params()),
        vec![b.close(0).build()],
        seed,
    );
    let report = runner.run();
    let metrics = *runner.middleware().metrics();

    println!("== {label}");
    println!(
        "   io_errors {:4}  retries {:4}  replans {:3}  end {:.2}s",
        report.degraded.io_errors,
        report.degraded.retries,
        report.degraded.replans,
        report.end_time.as_secs_f64(),
    );
    println!(
        "   quarantines {}  fallback_reads {}  admission_denied {}  dirty_lost {} KiB  invalidated {} KiB",
        metrics.quarantines,
        metrics.fallback_reads,
        metrics.admission_denied_health,
        metrics.dirty_bytes_lost / KIB,
        metrics.crash_invalidated_bytes / KIB,
    );
    (report, metrics)
}

fn main() {
    run("healthy baseline", FaultPlan::new());

    run(
        "transient errors (20% for 100s): retries absorb the storm",
        FaultPlan::new().with(ServerFault::TransientErrors {
            from: SimTime::ZERO,
            until: SimTime::from_secs(100),
            error_rate: 0.2,
        }),
    );

    run(
        "saturated errors (100% in [1.15s, 2.2s)): quarantine + OPFS fallback",
        FaultPlan::new().with(ServerFault::TransientErrors {
            from: SimTime::from_secs(1) + SimDuration::from_millis(150),
            until: SimTime::from_secs(2) + SimDuration::from_millis(200),
            error_rate: 1.0,
        }),
    );

    run(
        "hard crash at 1.15s, recovery at 3s: loss surfaced, reads durable",
        FaultPlan::new().with(ServerFault::Crash {
            at: SimTime::from_secs(1) + SimDuration::from_millis(150),
            recover_at: SimTime::from_secs(3),
        }),
    );

    // A fault scheduled entirely after the run ends must change nothing.
    run(
        "fault after the run ends: inert",
        FaultPlan::new().with(ServerFault::Crash {
            at: SimTime::from_secs(10_000),
            recover_at: SimTime::from_secs(10_001),
        }),
    );

    // Installing a plan on a server that does not exist is an error, not
    // a silent no-op.
    let mut cluster = Cluster::paper_testbed_small(1);
    let err = cluster
        .cpfs_mut()
        .set_fault_plan(99, FaultPlan::new())
        .unwrap_err();
    println!("== out-of-range server: {err}");
}
