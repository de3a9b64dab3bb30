//! Cross-crate integration tests: the full stack from application scripts
//! through middleware, parallel file systems, and device models.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::{check_invariants, run_plan, write_req};
use s4d::bench::{run_s4d, run_s4d_second_read, run_stock, testbed};
use s4d::cache::{AdmissionPolicy, S4dCache, S4dConfig};
use s4d::cost::CostParams;
use s4d::mpiio::{script, Cluster, IoObserver, Middleware, Rank, Runner};
use s4d::sim::SimTime;
use s4d::storage::IoKind;
use s4d::workloads::{AccessPattern, IorConfig};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;

fn small_ior(pattern: AccessPattern) -> IorConfig {
    IorConfig {
        file_name: "e2e.dat".into(),
        file_size: 32 * MIB,
        processes: 8,
        request_size: 16 * KIB,
        pattern,
        do_write: true,
        do_read: true,
        seed: 11,
    }
}

#[test]
fn s4d_beats_stock_on_random_io() {
    let tb = testbed(1);
    let mut cfg = small_ior(AccessPattern::Random);
    cfg.file_size = 64 * MIB;
    cfg.processes = 16;
    let stock = run_stock(&tb, cfg.scripts(), Vec::new());
    let s4d = run_s4d(&tb, S4dConfig::new(32 * MIB), cfg.scripts(), Vec::new());
    assert!(
        s4d.write_mibs() > stock.write_mibs() * 1.15,
        "s4d {:.1} should clearly beat stock {:.1} on random 16 KiB",
        s4d.write_mibs(),
        stock.write_mibs()
    );
}

#[test]
fn s4d_does_not_hurt_sequential_large_io() {
    let tb = testbed(2);
    let mut cfg = small_ior(AccessPattern::Sequential);
    cfg.request_size = 4 * MIB;
    cfg.file_size = 128 * MIB;
    let stock = run_stock(&tb, cfg.scripts(), Vec::new());
    let s4d = run_s4d(&tb, S4dConfig::new(32 * MIB), cfg.scripts(), Vec::new());
    // Nothing should be redirected, so throughput within 2 %.
    assert_eq!(
        s4d.report.tiers.c_ops, 0,
        "4 MiB requests must stay on DServers"
    );
    let ratio = s4d.write_mibs() / stock.write_mibs();
    assert!(
        (0.98..=1.02).contains(&ratio),
        "s4d should match stock on large sequential I/O, ratio {ratio}"
    );
}

#[test]
fn data_integrity_through_cache_redirection() {
    // Functional-mode cluster: every byte written through S4D-Cache —
    // whether absorbed by CServers, spilled to DServers, flushed, or
    // evicted — must read back exactly.
    type Expected = Rc<RefCell<Vec<(u64, Vec<u8>)>>>;
    struct Verify {
        expected: Expected,
        failures: Rc<RefCell<Vec<String>>>,
        idx: usize,
    }
    impl IoObserver for Verify {
        fn on_read_data(&mut self, _r: Rank, offset: u64, _len: u64, data: Option<&[u8]>) {
            let expected = self.expected.borrow();
            let (exp_off, exp_data) = &expected[self.idx];
            let data = data.expect("functional run returns data");
            if *exp_off != offset || exp_data.as_slice() != data {
                self.failures
                    .borrow_mut()
                    .push(format!("mismatch at read #{} offset {offset}", self.idx));
            }
            self.idx += 1;
        }
    }

    let tb = testbed(3);
    let params = tb.cost_params();
    // Tiny cache so eviction and spill paths are exercised.
    let config = S4dConfig::new(256 * KIB).with_journal_batch(1);
    let cluster = Cluster::paper_testbed_small(3);

    // One process writes pattern data at mixed offsets, then reads it all
    // back in a different order.
    let mut writes: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut b = script().open("integrity.dat");
    for i in 0..48u64 {
        let offset = (i * 7919) % 64 * 16 * KIB;
        let data: Vec<u8> = (0..16 * KIB).map(|j| ((i * 31 + j) % 251) as u8).collect();
        // Later writes overwrite earlier ones at the same offset; keep the
        // final image.
        writes.retain(|(o, _)| *o != offset);
        writes.push((offset, data.clone()));
        b = b.write_bytes(0, offset, data);
    }
    writes.sort_by_key(|(o, _)| *o);
    for (offset, _) in &writes {
        b = b.read(0, *offset, 16 * KIB);
    }
    let expected = Rc::new(RefCell::new(writes));
    let failures = Rc::new(RefCell::new(Vec::new()));

    let mut runner = Runner::new(
        cluster,
        S4dCache::new(config, params),
        vec![b.close(0).build()],
        3,
    );
    runner.add_observer(Box::new(Verify {
        expected: expected.clone(),
        failures: failures.clone(),
        idx: 0,
    }));
    let report = runner.run();
    assert_eq!(
        report.app_ops(IoKind::Read) as usize,
        expected.borrow().len()
    );
    assert!(
        failures.borrow().is_empty(),
        "data corruption: {:?}",
        failures.borrow()
    );
}

#[test]
fn second_run_reads_accelerate() {
    let tb = testbed(4);
    let first = small_ior(AccessPattern::Random);
    let second = IorConfig {
        do_write: false,
        ..first.clone()
    };
    let stock = run_stock(&tb, first.scripts(), Vec::new());
    // Cache sized to hold the whole working set: on a second run every
    // read should be a hit.
    let out = run_s4d_second_read(
        &tb,
        S4dConfig::new(first.file_size * 2),
        first.scripts(),
        second.scripts(),
    );
    assert!(
        out.read_mibs() > stock.read_mibs(),
        "second-run reads {:.1} should beat stock {:.1}",
        out.read_mibs(),
        stock.read_mibs()
    );
    assert!(
        out.report.tiers.cserver_op_share() > 50.0,
        "most second-run reads should hit the cache, got {:.1}%",
        out.report.tiers.cserver_op_share()
    );
}

#[test]
fn whole_runs_are_deterministic() {
    let run = || {
        let tb = testbed(5);
        let out = run_s4d(
            &tb,
            S4dConfig::new(8 * MIB),
            small_ior(AccessPattern::Random).scripts(),
            Vec::new(),
        );
        (
            out.report.end_time,
            out.report.events,
            out.report.tiers.c_ops,
            out.report.tiers.d_ops,
            out.metrics.flushes,
            out.metrics.evictions,
        )
    };
    assert_eq!(run(), run(), "same seed must give identical runs");
}

#[test]
fn different_seeds_change_timing_not_semantics() {
    let run = |seed| {
        let tb = testbed(seed);
        run_s4d(
            &tb,
            S4dConfig::new(8 * MIB),
            small_ior(AccessPattern::Random).scripts(),
            Vec::new(),
        )
    };
    let a = run(100);
    let b = run(200);
    // Device rotation noise differs, so end times differ...
    assert_ne!(a.report.end_time, b.report.end_time);
    // ...but the same requests were served.
    assert_eq!(a.report.writes.meter.bytes(), b.report.writes.meter.bytes());
    assert_eq!(a.report.reads.meter.ops(), b.report.reads.meter.ops());
}

#[test]
fn capacity_invariant_holds_after_pressure() {
    let tb = testbed(6);
    let capacity = 2 * MIB; // far smaller than the 32 MiB workload
    let middleware = S4dCache::new(S4dConfig::new(capacity), tb.cost_params());
    let mut runner = Runner::new(
        tb.cluster(),
        middleware,
        small_ior(AccessPattern::Random).scripts(),
        6,
    );
    runner.run();
    let (_cluster, mw, _report) = runner.into_parts();
    assert!(
        mw.plane().allocated() <= capacity,
        "allocated {} exceeds capacity {capacity}",
        mw.plane().allocated()
    );
    assert!(mw.plane().mapped_bytes() <= capacity);
    assert!(
        mw.metrics().admission_denied_space > 0,
        "pressure must have hit"
    );
}

/// A cache smaller than its shard count clamps each shard's share to one
/// byte, so the shares sum past the configured capacity. Opening another
/// file must keep the space ledgers, and with them the live allocations.
#[test]
fn opening_a_file_keeps_the_space_of_a_tiny_sharded_cache() {
    let mut cluster = Cluster::paper_testbed_small(3);
    let config = S4dConfig::new(1)
        .with_shards(2)
        .with_admission(AdmissionPolicy::AlwaysAdmit);
    let mut mw = S4dCache::new(config, CostParams::paper_testbed_small());
    let f = mw.open(&mut cluster, Rank(0), "a.dat").expect("open");
    let plan = mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, vec![7]));
    assert!(run_plan(&mut cluster, &mut mw, None, &plan, SimTime::ZERO));
    assert_eq!(mw.plane().allocated(), 1, "the 1-byte write is admitted");
    mw.open(&mut cluster, Rank(0), "b.dat").expect("open");
    check_invariants(&cluster, &mw);
}

#[test]
fn stock_never_touches_cservers() {
    let tb = testbed(7);
    let out = run_stock(&tb, small_ior(AccessPattern::Random).scripts(), Vec::new());
    assert_eq!(out.report.tiers.c_ops, 0);
    assert_eq!(out.report.tiers.c_bytes, 0);
    assert_eq!(out.report.background_bytes, 0);
}

#[test]
fn never_admit_matches_stock_within_overhead() {
    let tb = testbed(8);
    let stock = run_stock(&tb, small_ior(AccessPattern::Random).scripts(), Vec::new());
    let na = run_s4d(
        &tb,
        S4dConfig::new(MIB).with_admission(AdmissionPolicy::NeverAdmit),
        small_ior(AccessPattern::Random).scripts(),
        Vec::new(),
    );
    assert_eq!(
        na.report.tiers.c_ops, 0,
        "never-admit must redirect nothing"
    );
    // Decision overhead is microseconds against millisecond I/Os; the
    // residual difference is rotation-phase noise from shifted timing.
    let ratio = na.write_mibs() / stock.write_mibs();
    assert!(
        (0.95..=1.05).contains(&ratio),
        "never-admit overhead should be negligible, ratio {ratio}"
    );
}

#[test]
fn background_work_drains_clean() {
    let tb = testbed(9);
    let middleware = S4dCache::new(S4dConfig::new(16 * MIB), tb.cost_params());
    let mut runner = Runner::new(
        tb.cluster(),
        middleware,
        small_ior(AccessPattern::Random).scripts(),
        9,
    );
    let report = runner.run();
    let end = runner.drain_background(report.end_time);
    assert!(end >= report.end_time);
    let (_c, mw, _r) = runner.into_parts();
    assert_eq!(mw.plane().dirty_bytes(), 0, "drain must flush everything");
    assert!(mw.plane().cdt_flagged(1 << 20).next().is_none() || mw.metrics().fetches > 0);
}

/// Flush limit 0 is CARL placement (§II.C): the Rebuilder never writes
/// back, the drain still terminates, and dirty data stays on the CServers.
#[test]
fn flush_limit_zero_is_carl_placement() {
    let tb = testbed(9);
    let middleware = S4dCache::new(
        S4dConfig::new(16 * MIB).with_max_flush_per_wake(0),
        tb.cost_params(),
    );
    let mut runner = Runner::new(
        tb.cluster(),
        middleware,
        small_ior(AccessPattern::Random).scripts(),
        9,
    );
    let report = runner.run();
    let dirty = runner.middleware().plane().dirty_bytes();
    assert!(dirty > 0, "random 16 KiB writes must leave dirty extents");
    runner.drain_background(report.end_time);
    let (_c, mw, _r) = runner.into_parts();
    assert_eq!(mw.metrics().flushes, 0, "flush limit 0 must never flush");
    assert_eq!(mw.plane().dirty_bytes(), dirty, "dirty data stays resident");
}

#[test]
fn multi_file_workloads_are_isolated() {
    // Two groups of processes on two files; cache state of one file must
    // not leak into the other.
    let tb = testbed(10);
    let scripts: Vec<_> = (0..4u64)
        .map(|p| {
            let name = if p % 2 == 0 { "file_a" } else { "file_b" };
            script()
                .open(name)
                .write(0, p * MIB, 512 * KIB)
                .read(0, p * MIB, 512 * KIB)
                .close(0)
                .build()
        })
        .collect();
    let middleware = S4dCache::new(S4dConfig::new(64 * MIB), tb.cost_params());
    let mut runner = Runner::new(tb.cluster(), middleware, scripts, 10);
    let report = runner.run();
    assert_eq!(report.app_ops(IoKind::Write), 4);
    assert_eq!(report.app_ops(IoKind::Read), 4);
    let (cluster, _mw, _r) = runner.into_parts();
    assert!(cluster.opfs().open("file_a").is_ok());
    assert!(cluster.opfs().open("file_b").is_ok());
    assert!(cluster.cpfs().open("file_a.cache").is_ok());
    assert!(cluster.cpfs().open("file_b.cache").is_ok());
}

#[test]
fn observer_sees_every_dispatch_once() {
    #[derive(Default)]
    struct Count {
        ops: Rc<RefCell<u64>>,
        bytes: Rc<RefCell<u64>>,
    }
    impl IoObserver for Count {
        fn on_dispatch(
            &mut self,
            _now: SimTime,
            _rank: Rank,
            _tier: s4d::mpiio::Tier,
            _kind: IoKind,
            _off: u64,
            len: u64,
        ) {
            *self.ops.borrow_mut() += 1;
            *self.bytes.borrow_mut() += len;
        }
    }
    let tb = testbed(11);
    let ops = Rc::new(RefCell::new(0));
    let bytes = Rc::new(RefCell::new(0));
    let cfg = small_ior(AccessPattern::Sequential);
    let total_bytes = cfg.file_size * 2; // write + read phases
    let middleware = S4dCache::new(S4dConfig::new(64 * MIB), tb.cost_params());
    let mut runner = Runner::new(tb.cluster(), middleware, cfg.scripts(), 11);
    runner.add_observer(Box::new(Count {
        ops: ops.clone(),
        bytes: bytes.clone(),
    }));
    runner.run();
    assert_eq!(
        *bytes.borrow(),
        total_bytes,
        "every app byte dispatched exactly once"
    );
    assert!(*ops.borrow() >= (total_bytes / (16 * KIB)));
}
