//! Integration tests for the background scheduler: the Rebuilder's
//! flush/fetch cycles, eviction pinning, the pending-action state
//! machine, and failure cleanup. Exercised through the public
//! [`s4d_mpiio::Middleware`] surface only — flush plans are the tagged
//! plans a `poll_background` wake returns.

mod common;

use common::{params_small, poll_tagged, read_req, setup, tiers_of, write_req, KIB, MIB};
use s4d_cache::{S4dCache, S4dConfig};
use s4d_mpiio::{Cluster, Middleware, Rank, Tier};
use s4d_pfs::Priority;
use s4d_sim::{SimDuration, SimTime};
use s4d_storage::IoKind;

#[test]
fn clean_lru_space_is_reused() {
    let (mut cluster, mut mw, f) = setup(32 * KIB);
    mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, 32 * KIB));
    // Flush the dirty extent so it becomes clean.
    let plans = poll_tagged(&mut mw, &mut cluster, SimTime::ZERO);
    assert_eq!(plans.len(), 1);
    mw.on_plan_complete(&mut cluster, SimTime::ZERO, plans[0].tag);
    assert_eq!(mw.plane().dirty_bytes(), 0);
    // A new critical write now evicts the clean extent and is admitted.
    let plan = mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, MIB, 32 * KIB));
    assert_eq!(tiers_of(&plan), vec![Tier::CServers]);
    assert_eq!(mw.metrics().evictions, 1);
    assert_eq!(mw.metrics().evicted_bytes, 32 * KIB);
    // The evicted range now misses.
    let plan = mw.plan_io(&mut cluster, SimTime::ZERO, &read_req(f, 0, 32 * KIB));
    assert_eq!(tiers_of(&plan), vec![Tier::DServers]);
}

#[test]
fn inflight_reads_pin_extents_against_eviction() {
    // Regression test for a data-loss race found by the equivalence
    // property suite: a clean extent referenced by a queued read must
    // not be evicted (the read would return freed space).
    let (mut cluster, mut mw, f) = setup(32 * KIB);
    mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, 32 * KIB));
    // Make it clean via a flush cycle.
    let plans = poll_tagged(&mut mw, &mut cluster, SimTime::ZERO);
    mw.on_plan_complete(&mut cluster, SimTime::ZERO, plans[0].tag);
    assert_eq!(mw.plane().dirty_bytes(), 0);
    // A read of the cached range is now "in flight" (plan issued, not
    // yet complete).
    let read_plan = mw.plan_io(&mut cluster, SimTime::ZERO, &read_req(f, 0, 32 * KIB));
    assert_ne!(read_plan.tag, 0, "read plans carry an unpin action");
    // A critical write elsewhere wants space; the only clean extent is
    // pinned, so admission must FAIL (spill to DServers), not evict.
    let w = mw.plan_io(
        &mut cluster,
        SimTime::ZERO,
        &write_req(f, 4 * MIB, 32 * KIB),
    );
    assert_eq!(tiers_of(&w), vec![Tier::DServers]);
    assert_eq!(mw.metrics().evictions, 0, "pinned extent survived");
    assert_eq!(mw.plane().mapped_bytes(), 32 * KIB);
    // Once the read completes, the pin lifts and eviction proceeds.
    mw.on_plan_complete(&mut cluster, SimTime::from_secs(1), read_plan.tag);
    let w = mw.plan_io(
        &mut cluster,
        SimTime::from_secs(1),
        &write_req(f, 8 * MIB, 32 * KIB),
    );
    assert_eq!(tiers_of(&w), vec![Tier::CServers]);
    assert_eq!(mw.metrics().evictions, 1);
}

#[test]
fn rebuilder_flush_cycle_marks_clean() {
    let (mut cluster, mut mw, f) = setup(64 * MIB);
    mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, 16 * KIB));
    let poll = mw.poll_background(&mut cluster, SimTime::ZERO);
    assert_eq!(poll.plans.len(), 1);
    assert!(poll.work_pending);
    let plan = &poll.plans[0];
    // Flush = background read from CServers, then background write to D.
    assert_eq!((plan.ops.len(), plan.then.len()), (1, 1));
    assert_eq!(plan.ops[0].tier, Tier::CServers);
    assert_eq!(plan.ops[0].priority, Priority::Background);
    assert_eq!(plan.then[0].tier, Tier::DServers);
    let poll2 = mw.poll_background(&mut cluster, SimTime::from_secs(1));
    assert!(
        poll2.plans.is_empty(),
        "a second poll must not re-issue the in-flight flush"
    );
    assert!(poll2.work_pending);
    mw.on_plan_complete(&mut cluster, SimTime::from_secs(2), plan.tag);
    assert_eq!(mw.plane().dirty_bytes(), 0);
    assert_eq!(mw.metrics().flushes, 1);
    // The clean transition's journal record drains on the next wake...
    let poll3 = mw.poll_background(&mut cluster, SimTime::from_secs(3));
    assert_eq!(poll3.plans.len(), 1, "journal drain only");
    let drain = &poll3.plans[0];
    assert!(drain.then.is_empty());
    assert!(drain.ops.iter().all(|op| op.app_offset.is_none()));
    // ...after which the Rebuilder is fully idle.
    let poll4 = mw.poll_background(&mut cluster, SimTime::from_secs(4));
    assert!(poll4.plans.is_empty());
    assert!(!poll4.work_pending, "everything clean and settled");
}

#[test]
fn inflight_flushes_count_against_the_wake_budget() {
    let mut cluster = Cluster::paper_testbed_small(9);
    let config = S4dConfig::new(64 * MIB)
        .with_journal_batch(1)
        .with_max_flush_per_wake(2);
    let mut mw = S4dCache::new(config, params_small());
    let f = mw.open(&mut cluster, Rank(0), "data").unwrap();
    // Three dirty extents, oldest first, far enough apart that each
    // flushes as its own plan.
    for offset in [0, MIB, 2 * MIB] {
        mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, offset, 16 * KIB));
    }
    let flushed = |plans: &[s4d_mpiio::Plan]| -> Vec<u64> {
        let mut offsets: Vec<u64> = plans.iter().map(|p| p.then[0].offset).collect();
        offsets.sort_unstable();
        offsets
    };
    let wake1 = poll_tagged(&mut mw, &mut cluster, SimTime::ZERO);
    assert_eq!(flushed(&wake1), vec![0, MIB], "the two oldest flush first");
    // Both still in flight: they fill the budget of two, so the third
    // extent waits even though it is dirty and not in flight.
    let wake2 = poll_tagged(&mut mw, &mut cluster, SimTime::from_secs(1));
    assert!(
        wake2.is_empty(),
        "in-flight extents must count against the budget"
    );
    for plan in &wake1 {
        mw.on_plan_complete(&mut cluster, SimTime::from_secs(2), plan.tag);
    }
    let wake3 = poll_tagged(&mut mw, &mut cluster, SimTime::from_secs(3));
    assert_eq!(flushed(&wake3), vec![2 * MIB]);
}

/// §III.F flushes the oldest dirty data first, and "oldest" is the last
/// overwrite, not the offset: re-dirtying the first extent sends it to
/// the back of the queue.
#[test]
fn a_wake_flushes_the_least_recently_dirtied_first() {
    let mut cluster = Cluster::paper_testbed_small(9);
    let config = S4dConfig::new(64 * MIB)
        .with_journal_batch(1)
        .with_max_flush_per_wake(2);
    let mut mw = S4dCache::new(config, params_small());
    let f = mw.open(&mut cluster, Rank(0), "data").unwrap();
    for offset in [0, MIB, 2 * MIB, 0] {
        mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, offset, 16 * KIB));
    }
    let mut flushed: Vec<u64> = poll_tagged(&mut mw, &mut cluster, SimTime::ZERO)
        .iter()
        .map(|p| p.then[0].offset)
        .collect();
    flushed.sort_unstable();
    assert_eq!(
        flushed,
        vec![MIB, 2 * MIB],
        "a wake of two must flush the two least recently dirtied extents"
    );
}

#[test]
fn rebuilder_fetch_cycle_caches_flagged_reads() {
    let (mut cluster, mut mw, f) = setup(64 * MIB);
    mw.plan_io(&mut cluster, SimTime::ZERO, &read_req(f, 0, 16 * KIB));
    assert_eq!(mw.plane().cdt_flagged(10).count(), 1);
    let poll = mw.poll_background(&mut cluster, SimTime::ZERO);
    assert_eq!(poll.plans.len(), 1);
    let plan = &poll.plans[0];
    assert_eq!((plan.ops.len(), plan.then.len()), (1, 1));
    assert_eq!(plan.ops[0].tier, Tier::DServers);
    assert_eq!(plan.ops[0].kind, IoKind::Read);
    assert_eq!(plan.then[0].tier, Tier::CServers);
    assert_eq!(plan.then[0].kind, IoKind::Write);
    mw.on_plan_complete(&mut cluster, SimTime::from_secs(1), plan.tag);
    // Mapped clean; the C_flag is cleared; a re-read now hits.
    assert_eq!(mw.plane().mapped_bytes(), 16 * KIB);
    assert_eq!(mw.plane().dirty_bytes(), 0);
    assert!(mw.plane().cdt_flagged(10).next().is_none());
    let plan = mw.plan_io(
        &mut cluster,
        SimTime::from_secs(2),
        &read_req(f, 0, 16 * KIB),
    );
    assert_eq!(tiers_of(&plan), vec![Tier::CServers]);
    assert_eq!(mw.metrics().read_full_hits, 1);
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "seeds OPFS ground truth, no cache state"
)]
fn fetch_over_a_server_without_the_file_caches_its_bytes() {
    let (mut cluster, mut mw, f) = setup(64 * MIB);
    // OPFS holds [0, 64 KiB) on DServer 0; DServer 1 never stored the file.
    let payload: Vec<u8> = (0..64 * KIB).map(|i| (i % 251) as u8).collect();
    cluster
        .opfs_mut()
        .apply_bytes(f, 0, 64 * KIB, Some(&payload))
        .unwrap();
    // A critical read spanning both DServers misses and is flagged.
    let (offset, len) = (56 * KIB, 16 * KIB);
    let plan = mw.plan_io(&mut cluster, SimTime::ZERO, &read_req(f, offset, len));
    assert_eq!(tiers_of(&plan), vec![Tier::DServers]);
    assert_eq!(mw.plane().cdt_flagged(10).count(), 1);
    let fetch = poll_tagged(&mut mw, &mut cluster, SimTime::ZERO);
    assert_eq!(fetch.len(), 1);
    mw.on_plan_complete(&mut cluster, SimTime::from_secs(1), fetch[0].tag);
    // The re-read is served by the CServers: gather what it returns.
    let plan = mw.plan_io(
        &mut cluster,
        SimTime::from_secs(2),
        &read_req(f, offset, len),
    );
    assert_eq!(tiers_of(&plan), vec![Tier::CServers]);
    let mut cached = vec![0u8; len as usize];
    for op in plan.ops.iter().chain(&plan.then) {
        let Some(app) = op.app_offset.get() else {
            continue;
        };
        let bytes = cluster.cpfs().read_bytes(op.file, op.offset, op.len);
        let bytes = bytes.unwrap().expect("functional stores hold bytes");
        let at = (app - offset) as usize;
        cached[at..at + bytes.len()].copy_from_slice(&bytes);
    }
    let opfs = cluster.opfs().read_bytes(f, offset, len).unwrap();
    assert!(
        opfs.as_ref() == Some(&cached),
        "the re-read must return the OPFS bytes: got {:?}…, OPFS holds {:?}…",
        &cached[..4],
        opfs.as_deref().map(|b| &b[..4]),
    );
    let mut expected = payload[offset as usize..].to_vec();
    expected.resize(len as usize, 0);
    assert!(cached == expected, "the DServer-1 half reads as a hole");
}

#[test]
fn carl_placement_never_flushes_and_fills_up() {
    let mut cluster = Cluster::paper_testbed_small(9);
    let mut mw = S4dCache::new(
        S4dConfig::new(32 * KIB).with_max_flush_per_wake(0),
        params_small(),
    );
    let f = mw.open(&mut cluster, Rank(0), "data").unwrap();
    // Fill the placement space.
    let p = mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, 32 * KIB));
    assert_eq!(tiers_of(&p), vec![Tier::CServers]);
    // At flush limit 0 the Rebuilder never flushes; its only activity
    // is draining the pending journal records of the placement itself.
    let poll = mw.poll_background(&mut cluster, SimTime::ZERO);
    assert!(poll
        .plans
        .iter()
        .flat_map(|p| p.ops.iter().chain(&p.then))
        .all(|op| op.app_offset.is_none() && op.kind == IoKind::Write));
    let poll = mw.poll_background(&mut cluster, SimTime::from_secs(1));
    assert!(poll.plans.is_empty());
    assert!(!poll.work_pending);
    // A later critical write cannot be placed: space never frees.
    let p = mw.plan_io(
        &mut cluster,
        SimTime::from_secs(5),
        &write_req(f, MIB, 32 * KIB),
    );
    assert_eq!(tiers_of(&p), vec![Tier::DServers]);
    assert_eq!(mw.metrics().flushes, 0);
    assert_eq!(mw.metrics().evictions, 0);
    // Placed data keeps serving reads from the CServers.
    let p = mw.plan_io(
        &mut cluster,
        SimTime::from_secs(6),
        &read_req(f, 0, 32 * KIB),
    );
    assert_eq!(tiers_of(&p), vec![Tier::CServers]);
}

#[test]
fn failed_plan_releases_pins_and_markers() {
    let (mut cluster, mut mw, f) = setup(32 * KIB);
    mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, 32 * KIB));
    let plans = poll_tagged(&mut mw, &mut cluster, SimTime::ZERO);
    let flush_tag = plans[0].tag;
    // The flush plan fails: the extent stays dirty and is retried.
    mw.on_plan_failed(&mut cluster, SimTime::ZERO, flush_tag);
    assert_eq!(mw.plane().dirty_bytes(), 32 * KIB);
    let plans = poll_tagged(&mut mw, &mut cluster, SimTime::from_secs(1));
    assert_eq!(plans.len(), 1, "flush re-issued after failure");
    mw.on_plan_complete(&mut cluster, SimTime::from_secs(1), plans[0].tag);
    // A pinned read whose plan fails must still unpin.
    let r = mw.plan_io(
        &mut cluster,
        SimTime::from_secs(2),
        &read_req(f, 0, 32 * KIB),
    );
    assert_ne!(r.tag, 0);
    mw.on_plan_failed(&mut cluster, SimTime::from_secs(2), r.tag);
    let w = mw.plan_io(
        &mut cluster,
        SimTime::from_secs(3),
        &write_req(f, MIB, 32 * KIB),
    );
    assert_eq!(tiers_of(&w), vec![Tier::CServers], "eviction unblocked");
}

#[test]
fn crashed_flush_in_flight_does_not_corrupt_source_file() {
    let (mut cluster, mut mw, f) = setup(64 * MIB);
    mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, 16 * KIB));
    let plans = poll_tagged(&mut mw, &mut cluster, SimTime::ZERO);
    let tag = plans[0].tag;
    // The CServer crashes while the flush is in flight; the extent is
    // invalidated and its space handed back.
    mw.on_io_error(
        &mut cluster,
        SimTime::from_secs(1),
        &common::offline_failure(0),
    );
    assert_eq!(mw.metrics().dirty_bytes_lost, 16 * KIB);
    // The flush completion then arrives; it must notice the mapping is
    // gone and not copy reallocated/wiped space over the original.
    mw.on_plan_complete(&mut cluster, SimTime::from_secs(2), tag);
    assert_eq!(mw.plane().mapped_bytes(), 0);
    // The stale in-flight marker must be gone too: a fresh dirty write
    // to the same range flushes again once the server recovers. (A
    // leaked marker would make the Rebuilder skip it forever.)
    mw.on_io_complete(
        Tier::CServers,
        0,
        IoKind::Write,
        16 * KIB,
        SimDuration::from_micros(200),
    );
    let later = SimTime::from_secs(2) + mw.config().quarantine_duration;
    mw.plan_io(&mut cluster, later, &write_req(f, 0, 16 * KIB));
    let plans = poll_tagged(&mut mw, &mut cluster, later);
    assert_eq!(plans.len(), 1, "re-dirtied range flushes again");
}
