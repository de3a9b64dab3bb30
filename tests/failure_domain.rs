//! CServer failure-domain integration tests: hard crashes with data loss,
//! transient error storms, quarantine-driven degradation to OPFS, and a
//! full CServer tier stalling the journal under an eviction.

mod common;
#[path = "common/faulted.rs"]
mod faulted;

use std::collections::HashMap;

use common::{check_invariants, extents_of, read_through, run_plan, write_req};
use faulted::{build, pattern, Setup, KIB};
use s4d::bench::testbed;
use s4d::cache::{S4dCache, S4dConfig};
use s4d::mpiio::{
    script, AppRequest, Cluster, ErrorDirective, Middleware, Rank, SubIoFailure, Tier,
};
use s4d::pfs::{FaultPlan, FileId, IoFault, ServerFault};
use s4d::sim::{SimDuration, SimTime};
use s4d::storage::IoKind;

/// A CServer hard-crashes mid-run, destroying the cached bytes. Dirty
/// (not-yet-flushed) overwrites are genuinely lost — reads roll back to
/// the last flushed version on OPFS and the loss is surfaced — while
/// clean extents are invalidated and re-fetched from OPFS, so every read
/// still returns correct durable data. After the server recovers and its
/// quarantine lapses, admission resumes, and the first completed CServer
/// op re-arms crash handling so the next outage is invalidated too.
#[test]
fn hard_crash_rolls_back_to_durable_state_and_recovers() {
    let config = S4dConfig::new(64 * 1024 * KIB)
        .with_journal_batch(1)
        .with_rebuild_period(SimDuration::from_millis(200))
        .with_quarantine(3, SimDuration::from_secs(1));
    let fault = FaultPlan::new().with(ServerFault::Crash {
        at: SimTime::from_secs(1) + SimDuration::from_millis(100),
        recover_at: SimTime::from_secs(3),
    });

    // Phase A: 16 small writes (v1), think long enough for the Rebuilder
    // to flush them all clean; phase B: overwrite the first four (v2) and
    // crash before the next flush; phase C: wait out the outage, read
    // everything back, then write once more to prove re-admission.
    let mut b = script().open("crash.dat");
    let mut expected = HashMap::new();
    for i in 0..16u64 {
        let off = i * 16 * KIB;
        b = b.write_bytes(0, off, pattern(off, 16 * KIB, 1));
        expected.insert(off, pattern(off, 16 * KIB, 1));
    }
    b = b.think(SimDuration::from_secs(1));
    for i in 0..4u64 {
        let off = i * 16 * KIB;
        // v2 never reaches OPFS: the crash destroys it, and reads must
        // roll back to v1.
        b = b.write_bytes(0, off, pattern(off, 16 * KIB, 2));
    }
    b = b.think(SimDuration::from_secs(3));
    for i in 0..16u64 {
        b = b.read(0, i * 16 * KIB, 16 * KIB);
    }
    b = b.write_bytes(0, 16 * 16 * KIB, pattern(16 * 16 * KIB, 16 * KIB, 1));

    let Setup {
        mut runner,
        failures,
    } = build(17, config.clone(), fault, b, expected);
    let report = runner.run();
    assert!(
        failures.borrow().is_empty(),
        "reads diverged from durable state: {:?}",
        failures.borrow()
    );
    assert_eq!(report.app_ops(IoKind::Read), 16);
    let m = runner.middleware().metrics();
    assert_eq!(
        m.dirty_bytes_lost,
        4 * 16 * KIB,
        "the four unflushed overwrites are the data loss"
    );
    assert_eq!(
        m.dirty_bytes_lost + m.crash_invalidated_bytes,
        16 * 16 * KIB,
        "every cached byte was on the crashed server"
    );
    assert!(m.quarantines >= 1);
    assert!(report.degraded.io_errors > 0, "the crash was observed");
    assert!(
        runner.middleware().plane().mapped_bytes() >= 16 * KIB,
        "the post-recovery write was admitted to the cache again"
    );
    assert!(report.end_time >= SimTime::from_secs(4));

    // Crash handling runs once per outage, and only a success ends the
    // outage: a write admitted after the quarantine lapses and completed
    // on the server must be invalidated by the server's next crash.
    let mut cluster = Cluster::paper_testbed_small(17);
    let mut mw = S4dCache::new(config, testbed(17).cost_params());
    let file = mw.open(&mut cluster, Rank(0), "again.dat").expect("open");
    let crash = SubIoFailure {
        tier: Tier::CServers,
        server: 0,
        kind: IoKind::Write,
        len: 16 * KIB,
        error: IoFault::Offline,
        attempts: 1,
        overhead: false,
    };
    for (which, offset, secs) in [("first", 0, 10), ("second", 1024 * KIB, 20)] {
        let now = SimTime::from_secs(secs);
        let write = AppRequest {
            rank: Rank(0),
            file,
            kind: IoKind::Write,
            offset,
            len: 16 * KIB,
            data: None,
        };
        mw.plan_io(&mut cluster, now, &write);
        assert_eq!(mw.plane().mapped_bytes(), 16 * KIB, "{which} write cached");
        mw.on_io_complete(
            Tier::CServers,
            0,
            IoKind::Write,
            16 * KIB,
            SimDuration::ZERO,
        );
        let directive = mw.on_io_error(&mut cluster, now, &crash);
        assert_eq!(directive, ErrorDirective::GiveUp);
        assert_eq!(
            mw.plane().mapped_bytes(),
            0,
            "the {which} crash must invalidate the extent cached before it"
        );
    }
}

/// A window of transient CServer errors: every failure is retried with
/// backoff and ultimately succeeds, so no request is re-planned, nothing
/// falls back to OPFS, and all data stays correct.
#[test]
fn transient_errors_are_retried_without_degradation() {
    let config = S4dConfig::new(64 * 1024 * KIB)
        .with_journal_batch(1)
        .with_retry_attempts(8)
        // A huge threshold: this scenario must never quarantine.
        .with_quarantine(1000, SimDuration::from_secs(1));
    let fault = FaultPlan::new().with(ServerFault::TransientErrors {
        from: SimTime::ZERO,
        until: SimTime::from_secs(100),
        error_rate: 0.2,
    });

    let mut b = script().open("flaky.dat");
    let mut expected = HashMap::new();
    for i in 0..32u64 {
        let off = i * 16 * KIB;
        b = b.write_bytes(0, off, pattern(off, 16 * KIB, 1));
        expected.insert(off, pattern(off, 16 * KIB, 1));
    }
    for i in 0..32u64 {
        b = b.read(0, i * 16 * KIB, 16 * KIB);
    }

    let Setup {
        mut runner,
        failures,
    } = build(23, config.clone(), fault, b, expected);
    let report = runner.run();
    assert!(
        failures.borrow().is_empty(),
        "retried I/O corrupted data: {:?}",
        failures.borrow()
    );
    assert!(
        report.degraded.io_errors > 0,
        "a 20% error rate must surface errors"
    );
    assert!(report.degraded.retries > 0);
    let m = runner.middleware().metrics();
    assert!(m.retries > 0);
    assert_eq!(m.fallback_reads, 0, "retries sufficed; no degradation");
    assert_eq!(m.quarantines, 0);
    assert_eq!(report.degraded.replans, 0, "no plan ever gave up");

    // The retry budget is a hard cap on both tiers. Retries are
    // event-driven — no loop exists to bound — so this directive is the
    // only thing between a persistent transient fault and retrying
    // forever: the attempt that reaches the cap gives up (the runner
    // re-plans), the one before it still retries.
    let mut cluster = Cluster::paper_testbed_small(23);
    let mut mw = S4dCache::new(config, testbed(23).cost_params());
    for tier in [Tier::DServers, Tier::CServers] {
        let mut failure = SubIoFailure {
            tier,
            server: 0,
            kind: IoKind::Write,
            len: 16 * KIB,
            error: IoFault::Transient,
            attempts: 7,
            overhead: false,
        };
        let directive = mw.on_io_error(&mut cluster, SimTime::ZERO, &failure);
        assert!(
            matches!(directive, ErrorDirective::Retry { .. }),
            "{tier:?}"
        );
        failure.attempts = 8;
        let directive = mw.on_io_error(&mut cluster, SimTime::ZERO, &failure);
        assert_eq!(directive, ErrorDirective::GiveUp, "{tier:?} at the cap");
    }
}

/// A saturated error window quarantines the CServer; reads of clean
/// cached data degrade to OPFS (correct bytes, zero availability loss)
/// and new writes are denied admission until the quarantine lapses.
#[test]
fn quarantine_degrades_clean_reads_to_opfs() {
    let config = S4dConfig::new(64 * 1024 * KIB)
        .with_journal_batch(1)
        .with_rebuild_period(SimDuration::from_millis(200))
        .with_retry_attempts(2)
        .with_quarantine(2, SimDuration::from_secs(30));
    // Every CServer op in the window fails.
    let fault = FaultPlan::new().with(ServerFault::TransientErrors {
        from: SimTime::from_secs(1),
        until: SimTime::from_secs(2),
        error_rate: 1.0,
    });

    // Write + flush clean before the window; read it all back inside the
    // window, when the cache route is poisoned.
    let mut b = script().open("sick.dat");
    let mut expected = HashMap::new();
    for i in 0..8u64 {
        let off = i * 16 * KIB;
        b = b.write_bytes(0, off, pattern(off, 16 * KIB, 1));
        expected.insert(off, pattern(off, 16 * KIB, 1));
    }
    b = b.think(SimDuration::from_millis(1100));
    for i in 0..8u64 {
        b = b.read(0, i * 16 * KIB, 16 * KIB);
    }
    // A write inside the window must be denied admission, not lost.
    let off = 64 * 16 * KIB;
    b = b.write_bytes(0, off, pattern(off, 16 * KIB, 1));
    expected.insert(off, pattern(off, 16 * KIB, 1));
    b = b.read(0, off, 16 * KIB);

    let Setup {
        mut runner,
        failures,
    } = build(31, config, fault, b, expected);
    let report = runner.run();
    assert!(
        failures.borrow().is_empty(),
        "degraded reads returned wrong bytes: {:?}",
        failures.borrow()
    );
    assert_eq!(report.app_ops(IoKind::Read), 9);
    let m = runner.middleware().metrics();
    assert!(m.quarantines >= 1, "the error storm must quarantine");
    assert!(
        m.fallback_reads > 0,
        "clean cached reads must degrade to OPFS"
    );
    assert!(m.admission_denied_health > 0);
    assert!(report.degraded.io_errors > 0);
}

/// A crash dated after the run ends changes nothing: the report and the
/// cache's metrics equal those of the same run with no fault plan.
#[test]
fn a_crash_after_the_run_ends_changes_nothing() {
    let at = SimTime::from_secs(10_000);
    let run = |fault: FaultPlan| {
        let config = S4dConfig::new(64 * 1024 * KIB)
            .with_rebuild_period(SimDuration::from_millis(200))
            .with_retry_attempts(4)
            .with_quarantine(5, SimDuration::from_secs(2));
        // Write, flush clean, overwrite a quarter (dirty again), read all.
        let mut b = script().open("late.dat");
        let mut expected = HashMap::new();
        for (v, count) in [(1, 32u64), (2, 8)] {
            for i in 0..count {
                let off = i * 16 * KIB;
                b = b.write_bytes(0, off, pattern(off, 16 * KIB, v));
                expected.insert(off, pattern(off, 16 * KIB, v));
            }
            b = b.think(SimDuration::from_millis(1050));
        }
        for i in 0..32u64 {
            b = b.read(0, i * 16 * KIB, 16 * KIB);
        }
        let Setup {
            mut runner,
            failures,
        } = build(0x54D, config, fault, b, expected);
        let report = runner.run();
        assert!(failures.borrow().is_empty(), "{:?}", failures.borrow());
        assert!(report.end_time < at, "the run must end before the crash");
        format!("{report:?}\n{:?}", runner.middleware().metrics())
    };
    let late = FaultPlan::new().with(ServerFault::Crash {
        at,
        recover_at: at + SimDuration::from_secs(1),
    });
    assert_eq!(run(late), run(FaultPlan::new()));
}

/// Runs background wakes from `now`, executing every plan they return,
/// until no work is pending; returns the time of the last wake.
fn drain_background(cluster: &mut Cluster, mw: &mut S4dCache, mut now: SimTime) -> SimTime {
    for _ in 0..64 {
        let poll = mw.poll_background(cluster, now);
        for plan in &poll.plans {
            run_plan(cluster, mw, None, plan, now);
        }
        if !poll.work_pending {
            return now;
        }
        now += SimDuration::from_millis(100);
    }
    panic!("background work never drained");
}

const MIB: u64 = 1024 * KIB;

/// A 64 KiB cache holding four clean 16 KiB extents (one per MiB of the
/// file), with every CServer full (ENOSPC, journal appends included) from
/// `from` until `until`; the fault cursor stands at `from`.
struct FullCache {
    config: S4dConfig,
    cluster: Cluster,
    mw: S4dCache,
    file: FileId,
    before: Vec<(u64, u64, u64, u64, u64, bool)>,
    from: SimTime,
    until: SimTime,
}

fn full_clean_cache(seed: u64) -> FullCache {
    let config = S4dConfig::new(64 * KIB).with_journal_batch(1);
    let mut cluster = Cluster::paper_testbed_small(seed);
    let mut mw = S4dCache::new(config.clone(), testbed(seed).cost_params());
    let file = mw.open(&mut cluster, Rank(0), "full.dat").expect("open");
    let mut now = SimTime::from_secs(1);
    for i in 0..4u64 {
        let off = i * MIB;
        let write = write_req(file, off, pattern(off, 16 * KIB, 1));
        let plan = mw.plan_io(&mut cluster, now, &write);
        assert!(run_plan(&mut cluster, &mut mw, None, &plan, now));
    }
    now = drain_background(&mut cluster, &mut mw, now);
    let before = extents_of(&mw);
    assert_eq!(before.len(), 4);
    assert!(
        before.iter().all(|e| !e.5),
        "the Rebuilder flushed every extent clean"
    );
    let from = now + SimDuration::from_secs(1);
    let until = from + SimDuration::from_secs(10);
    for server in 0..cluster.cpfs().server_count() {
        let fault = FaultPlan::new().with(ServerFault::SpaceExhausted { from, until });
        cluster
            .cpfs_mut()
            .set_fault_plan(server, fault)
            .expect("CServer exists");
    }
    cluster.advance_faults(from);
    FullCache {
        config,
        cluster,
        mw,
        file,
        before,
        from,
        until,
    }
}

/// A full CServer tier (ENOSPC under the journal) stalls the Remove an
/// eviction needs, so the eviction is undone: every victim stays mapped
/// and the write that asked for room degrades to OPFS. Background wakes
/// during the stall, with a flagged fetch candidate asking for room on
/// each, evict nothing either. A stalled overwrite of a cached range is
/// written through both copies, so a crash before the stall clears
/// recovers mappings that serve the new bytes, never stale ones.
#[test]
fn journal_stall_undoes_eviction_so_recovery_serves_no_stale_bytes() {
    let FullCache {
        config,
        mut cluster,
        mut mw,
        file,
        before,
        from,
        until,
    } = full_clean_cache(41);

    // An admission at a fresh offset must evict; the Remove append fails.
    let off = 4 * MIB;
    let write = write_req(file, off, pattern(off, 16 * KIB, 1));
    let plan = mw.plan_io(&mut cluster, from, &write);
    assert!(
        plan.ops
            .iter()
            .chain(&plan.then)
            .all(|op| op.tier == Tier::DServers),
        "the write that asked for room degrades to OPFS"
    );
    assert!(run_plan(&mut cluster, &mut mw, None, &plan, from));
    let m = mw.metrics();
    assert!(m.durability_stalls >= 1, "the Remove append must stall");
    assert_eq!(m.admission_denied_space, 1);
    assert_eq!(m.evictions, 0, "a stalled eviction is undone");
    assert_eq!(extents_of(&mw), before, "every victim stays mapped");

    // A critical read miss flags a fetch candidate: every wake's fetch
    // planning asks for room again, and every such eviction is undone.
    let read = AppRequest {
        rank: Rank(0),
        file,
        kind: IoKind::Read,
        offset: off,
        len: 16 * KIB,
        data: None,
    };
    let plan = mw.plan_io(&mut cluster, from, &read);
    assert!(run_plan(&mut cluster, &mut mw, None, &plan, from));
    assert_eq!(mw.plane().cdt_flagged(8).count(), 1, "a fetch candidate");
    let mut now = from;
    for _ in 0..5 {
        now += SimDuration::from_millis(100);
        let poll = mw.poll_background(&mut cluster, now);
        assert!(poll.plans.is_empty(), "nothing is fetched while stalled");
        assert!(poll.work_pending, "the stall keeps the loop waking");
    }
    assert_eq!(mw.metrics().evictions, 0, "stalled wakes evict nothing");
    assert_eq!(extents_of(&mw), before, "stalled wakes keep every extent");

    // Overwrite every cached range while stalled: each is written through
    // both copies. The window closes while the plans are in flight, and
    // the middleware crashes before anything retries the journal.
    let plans: Vec<_> = (0..4u64)
        .map(|i| {
            let off = i * MIB;
            let write = write_req(file, off, pattern(off, 16 * KIB, 2));
            mw.plan_io(&mut cluster, now, &write)
        })
        .collect();
    for plan in &plans {
        assert!(
            plan.ops
                .iter()
                .chain(&plan.then)
                .any(|op| op.tier == Tier::CServers),
            "a cached range is written through"
        );
    }
    cluster.advance_faults(until);
    for plan in &plans {
        assert!(run_plan(&mut cluster, &mut mw, None, plan, until));
    }
    assert_eq!(mw.metrics().stall_writethroughs, 4);
    let (mut recovered, _) =
        S4dCache::recover_from_cluster(config, testbed(41).cost_params(), &mut cluster);
    check_invariants(&cluster, &recovered);
    for i in 0..4u64 {
        let off = i * MIB;
        assert_eq!(
            read_through(&mut cluster, &mut recovered, file, off, 16 * KIB),
            pattern(off, 16 * KIB, 2),
            "recovery served stale bytes at offset {off}"
        );
    }
}

/// Space freed while the journal is stalled parks in the durability
/// engine: a CServer crash during the ENOSPC window invalidates the
/// extents on it, but their ranges stay allocated and their bytes stay on
/// CPFS until the Removes are durable. The first background wake after
/// the window releases and discards them, and a recovery from the cluster
/// sees exactly the live mapping.
#[test]
fn crash_invalidation_under_a_journal_stall_parks_the_space() {
    let FullCache {
        config,
        mut cluster,
        mut mw,
        before,
        from,
        until,
        ..
    } = full_clean_cache(43);
    let crash = SubIoFailure {
        tier: Tier::CServers,
        server: 0,
        kind: IoKind::Write,
        len: 16 * KIB,
        error: IoFault::Offline,
        attempts: 1,
        overhead: false,
    };
    let directive = mw.on_io_error(&mut cluster, from, &crash);
    assert_eq!(directive, ErrorDirective::GiveUp);
    assert!(
        mw.metrics().durability_stalls >= 1,
        "the Removes must stall"
    );
    let live = extents_of(&mw);
    let doomed: Vec<_> = before.iter().filter(|e| !live.contains(e)).collect();
    assert!(!doomed.is_empty(), "the crash invalidated cached extents");
    assert_eq!(
        mw.plane().allocated(),
        64 * KIB,
        "parked space must not be reused while its Remove is not durable"
    );
    for e in &doomed {
        assert_eq!(
            cluster.cpfs().covered_bytes(FileId(e.3), e.4, e.2).unwrap(),
            e.2,
            "parked bytes must not be discarded while their Remove is not durable"
        );
    }

    // The window closes: the next wake's append makes the Removes durable
    // and frees the parked ranges.
    cluster.advance_faults(until);
    drain_background(&mut cluster, &mut mw, until);
    let freed: u64 = doomed.iter().map(|e| e.2).sum();
    assert_eq!(mw.plane().allocated(), 64 * KIB - freed, "released");
    for e in &doomed {
        assert_eq!(
            cluster.cpfs().covered_bytes(FileId(e.3), e.4, e.2).unwrap(),
            0,
            "a parked range is discarded once its Remove is durable"
        );
    }
    let live = extents_of(&mw);
    let (recovered, _) =
        S4dCache::recover_from_cluster(config, testbed(43).cost_params(), &mut cluster);
    check_invariants(&cluster, &recovered);
    assert_eq!(
        extents_of(&recovered),
        live,
        "recovery sees the live mapping"
    );
}
