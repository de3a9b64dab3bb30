//! Failure injection: a degraded file server must slow the system down but
//! never corrupt it, and S4D-Cache's behaviour under device degradation
//! must stay consistent (the static cost model keeps routing as before —
//! an explicit limitation worth pinning in a test).

use s4d::bench::{testbed, Testbed};
use s4d::cache::{S4dCache, S4dConfig};
use s4d::mpiio::{Cluster, Runner};
use s4d::pfs::{FaultPlan, ServerFault};
use s4d::sim::SimTime;
use s4d::workloads::{AccessPattern, IorConfig};

const MIB: u64 = 1 << 20;

/// `tb`'s cluster with DServer 0 degraded by `factor` for the whole run.
fn cluster_with_degraded_dserver(tb: &Testbed, factor: f64) -> Cluster {
    let mut cluster = tb.cluster();
    let limp = FaultPlan::new().with(ServerFault::Slow {
        from: SimTime::ZERO,
        until: SimTime::MAX,
        class: None,
        probability: 1.0,
        factor,
    });
    cluster.opfs_mut().set_fault_plan(0, limp).unwrap();
    cluster
}

fn workload() -> Vec<s4d::workloads::PhasedScript> {
    IorConfig {
        file_name: "faulty.dat".into(),
        file_size: 32 * MIB,
        processes: 8,
        request_size: 16 * 1024,
        pattern: AccessPattern::Sequential,
        do_write: true,
        do_read: true,
        seed: 41,
    }
    .scripts()
}

#[test]
fn degraded_dserver_slows_stock_throughput() {
    let tb = testbed(40);
    let healthy = {
        let mut r = Runner::new(
            tb.cluster(),
            s4d::mpiio::StockMiddleware::new(),
            workload(),
            40,
        );
        r.run()
    };
    let degraded = {
        let cluster = cluster_with_degraded_dserver(&tb, 8.0);
        let mut r = Runner::new(cluster, s4d::mpiio::StockMiddleware::new(), workload(), 40);
        r.run()
    };
    // A striped write hits every server; the slow one is the straggler.
    assert!(
        degraded.writes.throughput_mibs() < healthy.writes.throughput_mibs() * 0.7,
        "degraded {:.1} vs healthy {:.1}",
        degraded.writes.throughput_mibs(),
        healthy.writes.throughput_mibs()
    );
    // Same work completed either way.
    assert_eq!(
        degraded.app_ops(s4d::storage::IoKind::Write),
        healthy.app_ops(s4d::storage::IoKind::Write)
    );
}

#[test]
fn s4d_keeps_functioning_on_degraded_substrate() {
    // The cost model's F(d)/R/S snapshot no longer matches the degraded
    // DServer, but the system must stay correct: all requests complete,
    // capacity invariants hold, and the cache still absorbs critical data.
    let tb = testbed(42);
    let cluster = cluster_with_degraded_dserver(&tb, 6.0);
    let middleware = S4dCache::new(S4dConfig::new(16 * MIB), tb.cost_params());
    let mut runner = Runner::new(cluster, middleware, workload(), 42);
    let report = runner.run();
    assert_eq!(
        report.app_ops(s4d::storage::IoKind::Write) as u64,
        8 * (32 * MIB / (16 * 1024)) / 8
    );
    let (_c, mw, _r) = runner.into_parts();
    assert!(mw.plane().allocated() <= mw.plane().capacity());
    assert!(report.tiers.c_ops > 0, "critical traffic still redirects");
}

#[test]
fn stall_window_creates_a_latency_spike_not_corruption() {
    // Park DServer 0 from the start of the run until well past its
    // healthy end and verify it still completes with the same op counts.
    let mut cluster = Testbed {
        d_servers: 2,
        c_servers: 1,
        ..testbed(77)
    }
    .cluster();
    let stall = FaultPlan::new().with(ServerFault::Stall {
        since: SimTime::ZERO,
        release: Some(SimTime::from_secs(5)),
    });
    cluster.opfs_mut().set_fault_plan(0, stall).unwrap();
    let scripts = IorConfig {
        file_name: "stall.dat".into(),
        file_size: 8 * MIB,
        processes: 4,
        request_size: 64 * 1024,
        pattern: AccessPattern::Sequential,
        do_write: true,
        do_read: false,
        seed: 79,
    }
    .scripts();
    let mut runner = Runner::new(cluster, s4d::mpiio::StockMiddleware::new(), scripts, 80);
    let report = runner.run();
    assert_eq!(report.app_ops(s4d::storage::IoKind::Write), 128);
    // The parked ops hold the run past the release instant.
    assert!(report.end_time.as_secs_f64() > 5.0);
}
