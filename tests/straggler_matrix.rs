//! Gray-failure (fail-slow) integration tests: stall and slow-server
//! fault plans driven end to end through the runner with deadline
//! budgets, hedged reads, and straggler abandonment — every read
//! verified byte-exact against the durable image.
//!
//! The matrix deliberately covers both directions of the trade-off:
//! scenarios where the machinery must fire (forever-stalls, heavy
//! tails) and scenarios where it must *not* (released stalls without
//! deadlines, mild degradation inside a generous budget).

#[path = "common/faulted.rs"]
mod faulted;

use std::collections::HashMap;

use s4d::cache::S4dConfig;
use s4d::mpiio::{script, GrayFailureCounts, ScriptBuilder};
use s4d::pfs::{FaultPlan, OpClass, ServerFault};
use s4d::sim::{SimDuration, SimTime};
use s4d::storage::IoKind;

use faulted::{build, pattern, Setup, KIB};

/// Writes the standard 8 × 16 KiB pattern and records the expected image.
fn write_phase(mut b: ScriptBuilder, expected: &mut HashMap<u64, Vec<u8>>) -> ScriptBuilder {
    for i in 0..8u64 {
        let off = i * 16 * KIB;
        b = b.write_bytes(0, off, pattern(off, 16 * KIB, 1));
        expected.insert(off, pattern(off, 16 * KIB, 1));
    }
    b
}

/// With deadlines disabled (the default), a stall window with a release
/// is simply ridden out: writes issued mid-stall park in the service
/// slot, resume at the release, and complete — no errors, no replans,
/// and every gray-failure counter stays zero.
#[test]
fn released_stall_is_ridden_out_without_deadlines() {
    let config = S4dConfig::new(64 * 1024 * KIB).with_journal_batch(1);
    let fault = FaultPlan::new().with(ServerFault::Stall {
        since: SimTime::from_secs(1),
        release: Some(SimTime::from_secs(1) + SimDuration::from_millis(500)),
    });

    let mut expected = HashMap::new();
    let mut b = script()
        .open("stall-wait.dat")
        .think(SimDuration::from_secs(1));
    // Issued inside the stall window: they park until the release.
    b = write_phase(b, &mut expected);
    for i in 0..8u64 {
        b = b.read(0, i * 16 * KIB, 16 * KIB);
    }

    let Setup {
        mut runner,
        failures,
    } = build(41, config, fault, b, expected);
    let report = runner.run();
    assert!(
        failures.borrow().is_empty(),
        "stalled writes corrupted data: {:?}",
        failures.borrow()
    );
    assert_eq!(report.app_ops(IoKind::Read), 8);
    assert_eq!(
        report.gray,
        GrayFailureCounts::default(),
        "no deadlines, no gray-failure actions"
    );
    assert_eq!(report.degraded.replans, 0);
    assert!(
        report.end_time >= SimTime::from_secs(1) + SimDuration::from_millis(500),
        "the run must have waited for the stall release"
    );
}

/// A heavy latency tail (every op in the window served 1000× slower)
/// under deadline budgets: each tailed read misses its deadline, the
/// straggler is abandoned, and a hedged OPFS read delivers the same
/// clean bytes inside the budget. The run never waits out a tail.
#[test]
fn tail_latency_hedges_past_deadline_misses() {
    let config = S4dConfig::new(64 * 1024 * KIB)
        .with_journal_batch(1)
        .with_rebuild_period(SimDuration::from_millis(200))
        .with_deadlines(4.0)
        // This scenario exercises hedging, not quarantine: keep the
        // demerit ladder from tripping so every read takes the cache
        // route and must be rescued individually.
        .with_quarantine(1000, SimDuration::from_secs(1));
    let fault = FaultPlan::new().with(ServerFault::Slow {
        from: SimTime::from_secs(2),
        until: SimTime::from_secs(100),
        class: None,
        probability: 1.0,
        factor: 1000.0,
    });

    let mut expected = HashMap::new();
    let mut b = write_phase(script().open("tail.dat"), &mut expected);
    // Think past several Rebuilder wakes so everything is flushed clean
    // (and journaled) before the tail window opens.
    b = b.think(SimDuration::from_secs(2));
    for i in 0..8u64 {
        b = b.read(0, i * 16 * KIB, 16 * KIB);
    }

    let Setup {
        mut runner,
        failures,
    } = build(43, config, fault, b, expected);
    let report = runner.run();
    assert!(
        failures.borrow().is_empty(),
        "hedged reads returned wrong bytes: {:?}",
        failures.borrow()
    );
    assert_eq!(report.app_ops(IoKind::Read), 8);
    assert!(report.gray.deadline_misses > 0, "tails must miss deadlines");
    assert!(report.gray.hedges_issued > 0, "misses must hedge");
    assert!(report.gray.hedges_won > 0, "hedges must deliver the bytes");
    let m = runner.middleware().metrics();
    assert!(m.hedged_reads > 0);
    assert_eq!(m.straggler_abandons, 0, "no write was ever abandoned");
}

/// The canonical gray failure: a CServer stalls forever (up, but serving
/// nothing). Clean cached reads park, miss their deadline, and are
/// rescued by hedged OPFS reads; the parked stragglers are physically
/// freed from the server. The run completes — nothing waits forever.
#[test]
fn forever_stall_clean_reads_rescued_by_hedged_opfs_reads() {
    let config = S4dConfig::new(64 * 1024 * KIB)
        .with_journal_batch(1)
        .with_rebuild_period(SimDuration::from_millis(200))
        .with_deadlines(4.0);
    let fault = FaultPlan::new().with(ServerFault::Stall {
        since: SimTime::from_secs(2),
        release: None,
    });

    let mut expected = HashMap::new();
    let mut b = write_phase(script().open("stall-forever.dat"), &mut expected);
    // All dirty data is flushed clean and journaled well before the
    // stall begins — from 2 s on, the cache holds only clean bytes whose
    // durable copy a hedge can serve.
    b = b.think(SimDuration::from_millis(2500));
    for i in 0..8u64 {
        b = b.read(0, i * 16 * KIB, 16 * KIB);
    }

    let Setup {
        mut runner,
        failures,
    } = build(47, config, fault, b, expected);
    let report = runner.run();
    assert!(
        failures.borrow().is_empty(),
        "rescued reads returned wrong bytes: {:?}",
        failures.borrow()
    );
    assert_eq!(report.app_ops(IoKind::Read), 8, "every read completed");
    assert!(report.gray.deadline_misses > 0);
    assert!(report.gray.hedges_issued > 0, "parked reads must hedge");
    assert!(report.gray.hedges_won > 0);
    assert!(
        report.gray.stall_abandons > 0,
        "parked stragglers must be freed from the server"
    );
    // The deadline demerits quarantine the stalled server, so later
    // reads degrade to OPFS at plan time instead of parking at all.
    let m = runner.middleware().metrics();
    assert!(
        m.quarantines >= 1,
        "repeated deadline misses must quarantine the server"
    );
}

/// Mild per-class degradation (writes 3× slower) inside a generous
/// deadline budget: the budget absorbs the slowdown, so nothing misses,
/// nothing hedges, nothing is abandoned — and reads, being the healthy
/// class, are untouched. Guards against false-positive hedging.
#[test]
fn class_degraded_writes_stay_within_generous_budgets() {
    let config = S4dConfig::new(64 * 1024 * KIB)
        .with_journal_batch(1)
        .with_deadlines(50.0);
    let fault = FaultPlan::new().with(ServerFault::Slow {
        from: SimTime::ZERO,
        until: SimTime::from_secs(100),
        class: Some(OpClass::Write),
        probability: 1.0,
        factor: 3.0,
    });

    let mut expected = HashMap::new();
    let mut b = write_phase(script().open("limp-writes.dat"), &mut expected);
    for i in 0..8u64 {
        b = b.read(0, i * 16 * KIB, 16 * KIB);
    }

    let Setup {
        mut runner,
        failures,
    } = build(53, config, fault, b, expected);
    let report = runner.run();
    assert!(
        failures.borrow().is_empty(),
        "degraded writes corrupted data: {:?}",
        failures.borrow()
    );
    assert_eq!(report.app_ops(IoKind::Read), 8);
    assert_eq!(
        report.gray,
        GrayFailureCounts::default(),
        "a 3x write limp inside a 50x budget must trigger nothing"
    );
    assert_eq!(report.degraded.replans, 0);
}

/// A write caught by a stall window is abandoned at its deadline and
/// re-planned until the release lets it through. Abandonment is never
/// partially visible: once the write is acknowledged, reading every
/// byte back returns exactly the final image.
#[test]
fn stalled_write_is_abandoned_and_replanned_without_partial_visibility() {
    let config = S4dConfig::new(64 * 1024 * KIB)
        .with_journal_batch(1)
        .with_deadlines(4.0)
        // Abandon demerits must not quarantine here: the extent is
        // already mapped dirty, so the replanned write has to keep
        // taking the cache route until the release.
        .with_quarantine(1000, SimDuration::from_secs(1));
    let fault = FaultPlan::new().with(ServerFault::Stall {
        since: SimTime::from_secs(1),
        release: Some(SimTime::from_secs(1) + SimDuration::from_millis(400)),
    });

    let mut expected = HashMap::new();
    let mut b = script()
        .open("stall-write.dat")
        .think(SimDuration::from_secs(1));
    // Issued inside the stall: parks, misses its deadline, is abandoned
    // and re-planned (with backoff) until the release.
    b = write_phase(b, &mut expected);
    for i in 0..8u64 {
        b = b.read(0, i * 16 * KIB, 16 * KIB);
    }

    let Setup {
        mut runner,
        failures,
    } = build(59, config, fault, b, expected);
    let report = runner.run();
    assert!(
        failures.borrow().is_empty(),
        "abandoned writes were partially visible: {:?}",
        failures.borrow()
    );
    assert_eq!(report.app_ops(IoKind::Read), 8);
    assert!(report.gray.deadline_misses > 0);
    assert!(
        report.gray.stall_abandons > 0,
        "parked writes must be pulled off the server"
    );
    assert!(report.degraded.replans > 0, "abandoned plans must re-plan");
    let m = runner.middleware().metrics();
    assert!(m.straggler_abandons > 0);
    assert_eq!(report.gray.hedges_issued, 0, "writes never hedge");
    assert!(report.end_time >= SimTime::from_secs(1) + SimDuration::from_millis(400));
}

/// Control: deadlines armed, but every cached byte is dirty (the
/// Rebuilder never flushes), so OPFS holds no copy a hedge could serve.
/// Reads parked by a released stall miss their deadlines and the policy
/// records the miss but elects to wait, so the run completes at the
/// release with zero hedges and the reads return the dirty bytes.
#[test]
fn dirty_reads_wait_out_the_stall() {
    let config = S4dConfig::new(64 * 1024 * KIB)
        .with_journal_batch(1)
        .with_rebuild_period(SimDuration::from_millis(200))
        .with_max_flush_per_wake(0)
        .with_deadlines(4.0)
        // Keep quarantine out of the picture so every read parks on the
        // stalled server and must wait for the release.
        .with_quarantine(1000, SimDuration::from_secs(1));
    let release = SimTime::from_secs(2) + SimDuration::from_millis(300);
    let fault = FaultPlan::new().with(ServerFault::Stall {
        since: SimTime::from_secs(2),
        release: Some(release),
    });

    let mut expected = HashMap::new();
    let mut b = write_phase(script().open("stall-dirty.dat"), &mut expected);
    b = b.think(SimDuration::from_millis(2100));
    for i in 0..8u64 {
        b = b.read(0, i * 16 * KIB, 16 * KIB);
    }

    let Setup {
        mut runner,
        failures,
    } = build(61, config, fault, b, expected);
    let report = runner.run();
    assert!(
        failures.borrow().is_empty(),
        "waited-out reads returned wrong bytes: {:?}",
        failures.borrow()
    );
    assert_eq!(report.app_ops(IoKind::Read), 8);
    assert!(report.gray.deadline_misses > 0, "misses are still counted");
    assert_eq!(report.gray.hedges_issued, 0, "dirty reads never hedge");
    assert_eq!(report.gray.stall_abandons, 0, "waiting abandons nothing");
    let m = runner.middleware().metrics();
    assert_eq!(m.hedged_reads, 0);
    assert_eq!(m.straggler_abandons, 0);
    assert!(m.straggler_waits > 0, "the wait decision is recorded");
    assert!(
        report.end_time >= release,
        "the reads waited for the release"
    );
}
