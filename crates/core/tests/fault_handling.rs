//! Integration tests for the fault handlers: retry/backoff directives,
//! quarantine, health-aware routing, and crash invalidation. Exercised
//! through the public [`s4d_mpiio::Middleware`] surface only.

mod common;

use common::{
    offline_failure, poll_tagged, quarantine_server_zero, read_req, setup, tiers_of,
    transient_failure, write_req, KIB, MIB,
};
use s4d_cache::{S4dCache, S4dConfig};
use s4d_mpiio::{Cluster, ErrorDirective, Middleware, Rank, SubIoFailure, Tier};
use s4d_sim::{SimDuration, SimTime};
use s4d_storage::IoKind;

#[test]
fn transient_errors_retry_with_growing_backoff_then_quarantine() {
    let (mut cluster, mut mw, _f) = setup(64 * MIB);
    let base = SimDuration::from_micros(500);
    let d1 = mw.on_io_error(&mut cluster, SimTime::ZERO, &transient_failure(0, 1));
    assert_eq!(d1, ErrorDirective::Retry { delay: base });
    let d2 = mw.on_io_error(&mut cluster, SimTime::ZERO, &transient_failure(0, 2));
    assert_eq!(d2, ErrorDirective::Retry { delay: base * 2 });
    // Third consecutive failure crosses `quarantine_after`: give up.
    let d3 = mw.on_io_error(&mut cluster, SimTime::ZERO, &transient_failure(0, 3));
    assert_eq!(d3, ErrorDirective::GiveUp);
    assert_eq!(mw.metrics().retries, 2);
    assert_eq!(mw.metrics().quarantines, 1);
    assert!(mw.health().is_unhealthy(0, SimTime::ZERO));
    // A success during probation clears the state entirely.
    mw.on_io_complete(
        Tier::CServers,
        0,
        IoKind::Write,
        16 * KIB,
        SimDuration::from_micros(200),
    );
    assert!(!mw.health().is_unhealthy(0, SimTime::ZERO));
}

#[test]
fn backoff_is_capped() {
    // A wide retry budget so attempt 40 is judged on backoff alone.
    let mut cluster = Cluster::paper_testbed_small(9);
    let mut mw = S4dCache::new(
        S4dConfig::new(64 * MIB).with_retry_attempts(64),
        common::params_small(),
    );
    mw.open(&mut cluster, Rank(0), "data").unwrap();
    let d1 = mw.on_io_error(&mut cluster, SimTime::ZERO, &transient_failure(0, 1));
    assert_eq!(
        d1,
        ErrorDirective::Retry {
            delay: SimDuration::from_micros(500)
        }
    );
    // Clear the consecutive-failure count so the next directive is not
    // a quarantine give-up.
    mw.on_io_complete(
        Tier::CServers,
        0,
        IoKind::Write,
        16 * KIB,
        SimDuration::from_micros(200),
    );
    // 500 µs × 2³⁹ is astronomical; the directive caps at 50 ms.
    let d40 = mw.on_io_error(&mut cluster, SimTime::ZERO, &transient_failure(0, 40));
    assert_eq!(
        d40,
        ErrorDirective::Retry {
            delay: SimDuration::from_millis(50)
        }
    );
}

#[test]
fn exhausted_attempts_give_up_without_quarantine() {
    let (mut cluster, mut mw, _f) = setup(64 * MIB);
    let max = mw.config().retry_max_attempts;
    let d = mw.on_io_error(&mut cluster, SimTime::ZERO, &transient_failure(0, max));
    assert_eq!(d, ErrorDirective::GiveUp);
    assert!(!mw.health().is_unhealthy(0, SimTime::ZERO));
}

#[test]
fn dserver_transient_errors_retry_too() {
    let (mut cluster, mut mw, _f) = setup(64 * MIB);
    let failure = SubIoFailure {
        tier: Tier::DServers,
        ..transient_failure(1, 1)
    };
    assert!(matches!(
        mw.on_io_error(&mut cluster, SimTime::ZERO, &failure),
        ErrorDirective::Retry { .. }
    ));
    // DServer failures never touch CServer health.
    assert!(!mw.health().any_unhealthy(SimTime::ZERO));
    let offline = SubIoFailure {
        tier: Tier::DServers,
        ..offline_failure(1)
    };
    assert_eq!(
        mw.on_io_error(&mut cluster, SimTime::ZERO, &offline),
        ErrorDirective::GiveUp
    );
}

#[test]
fn quarantine_blocks_admission_and_serves_clean_reads_from_opfs() {
    let (mut cluster, mut mw, f) = setup(64 * MIB);
    // A clean cached extent at 0 and a dirty one at 1 MiB.
    mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, 16 * KIB));
    let plans = poll_tagged(&mut mw, &mut cluster, SimTime::ZERO);
    mw.on_plan_complete(&mut cluster, SimTime::ZERO, plans[0].tag);
    mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, MIB, 16 * KIB));
    assert_eq!(mw.plane().dirty_bytes(), 16 * KIB);

    let now = SimTime::from_secs(1);
    quarantine_server_zero(&mut cluster, &mut mw, now);
    // New admissions pause...
    let w = mw.plan_io(&mut cluster, now, &write_req(f, 2 * MIB, 16 * KIB));
    assert_eq!(tiers_of(&w), vec![Tier::DServers]);
    assert_eq!(mw.metrics().admission_denied_health, 1);
    // ...clean pieces fall back to OPFS...
    let r = mw.plan_io(&mut cluster, now, &read_req(f, 0, 16 * KIB));
    assert_eq!(tiers_of(&r), vec![Tier::DServers]);
    assert_eq!(r.tag, 0, "fallback reads pin nothing");
    assert_eq!(mw.metrics().fallback_reads, 1);
    assert_eq!(mw.metrics().fallback_bytes, 16 * KIB);
    // ...dirty pieces keep routing to the cache (only copy)...
    let r = mw.plan_io(&mut cluster, now, &read_req(f, MIB, 16 * KIB));
    assert_eq!(tiers_of(&r), vec![Tier::CServers]);
    // ...and critical read misses are not marked for fetching.
    let lazy_before = mw.metrics().lazy_marks;
    mw.plan_io(&mut cluster, now, &read_req(f, 4 * MIB, 16 * KIB));
    assert_eq!(mw.metrics().lazy_marks, lazy_before);

    // After the quarantine expires, routing and admission resume.
    let later = now + mw.config().quarantine_duration;
    let r = mw.plan_io(&mut cluster, later, &read_req(f, 0, 16 * KIB));
    assert_eq!(tiers_of(&r), vec![Tier::CServers]);
    let w = mw.plan_io(&mut cluster, later, &write_req(f, 3 * MIB, 16 * KIB));
    assert_eq!(tiers_of(&w), vec![Tier::CServers]);
}

#[test]
fn fetches_pause_while_quarantined() {
    let (mut cluster, mut mw, f) = setup(64 * MIB);
    mw.plan_io(&mut cluster, SimTime::ZERO, &read_req(f, 0, 16 * KIB));
    assert_eq!(mw.plane().cdt_flagged(10).count(), 1);
    quarantine_server_zero(&mut cluster, &mut mw, SimTime::ZERO);
    let poll = mw.poll_background(&mut cluster, SimTime::from_secs(1));
    assert!(poll.plans.is_empty(), "no fetches into a sick tier");
    // The flag survives; fetching resumes after the quarantine.
    let later = SimTime::from_secs(1) + mw.config().quarantine_duration;
    mw.on_io_complete(
        Tier::CServers,
        0,
        IoKind::Write,
        16 * KIB,
        SimDuration::from_micros(200),
    );
    let poll = mw.poll_background(&mut cluster, later);
    assert_eq!(poll.plans.len(), 1);
}

#[test]
fn offline_error_invalidates_lost_extents_once() {
    let (mut cluster, mut mw, f) = setup(64 * MIB);
    // Clean extent at 0, dirty extent at 1 MiB.
    mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, 16 * KIB));
    let plans = poll_tagged(&mut mw, &mut cluster, SimTime::ZERO);
    mw.on_plan_complete(&mut cluster, SimTime::ZERO, plans[0].tag);
    mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, MIB, 16 * KIB));
    let allocated = mw.plane().allocated();

    let now = SimTime::from_secs(1);
    let d = mw.on_io_error(&mut cluster, now, &offline_failure(0));
    assert_eq!(d, ErrorDirective::GiveUp);
    assert_eq!(mw.metrics().crash_invalidated_bytes, 16 * KIB);
    assert_eq!(mw.metrics().dirty_bytes_lost, 16 * KIB);
    assert_eq!(mw.metrics().quarantines, 1);
    assert_eq!(mw.plane().mapped_bytes(), 0, "all lost extents removed");
    assert_eq!(mw.plane().allocated(), allocated - 32 * KIB);
    assert!(mw.health().is_unhealthy(0, now));
    // The same outage is never accounted twice.
    mw.on_io_error(&mut cluster, now, &offline_failure(0));
    assert_eq!(mw.metrics().dirty_bytes_lost, 16 * KIB);
    // Reads now miss and go to OPFS — no stale cache routing.
    let r = mw.plan_io(&mut cluster, now, &read_req(f, 0, 16 * KIB));
    assert_eq!(tiers_of(&r), vec![Tier::DServers]);
}
