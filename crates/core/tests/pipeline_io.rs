//! Integration tests for the staged request pipeline: identify
//! (Data Identifier), redirect (Algorithm 1 routing), and admit (space
//! claim + atomic admission). Exercised through the public
//! [`s4d_mpiio::Middleware`] surface only.

mod common;

use common::{params_small, read_req, setup, tiers_of, write_req, KIB, MIB};
use s4d_cache::{AdmissionPolicy, S4dCache, S4dConfig, DMT_RECORD_BYTES};
use s4d_mpiio::{Cluster, Middleware, Rank, Tier};
use s4d_sim::SimTime;

#[test]
fn critical_write_is_admitted_to_cservers() {
    let (mut cluster, mut mw, f) = setup(64 * MIB);
    let plan = mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, 16 * KIB));
    assert_eq!(tiers_of(&plan), vec![Tier::CServers]);
    assert_eq!(mw.plane().mapped_bytes(), 16 * KIB);
    assert_eq!(mw.plane().dirty_bytes(), 16 * KIB);
    assert!(mw.plane().cdt_contains(f, 0, 16 * KIB));
    assert_eq!(mw.metrics().writes_to_cache, 1);
    // The plan carries a journal write for the DMT mutation.
    let journal_ops: Vec<_> = plan
        .ops
        .iter()
        .chain(&plan.then)
        .filter(|op| op.app_offset.is_none())
        .collect();
    assert_eq!(journal_ops.len(), 1);
    assert_eq!(journal_ops[0].tier, Tier::CServers);
    assert!(journal_ops[0].len >= DMT_RECORD_BYTES);
}

#[test]
fn large_write_goes_to_dservers() {
    let (mut cluster, mut mw, f) = setup(64 * MIB);
    let plan = mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, 8 * MIB));
    assert_eq!(tiers_of(&plan), vec![Tier::DServers]);
    assert_eq!(mw.plane().mapped_bytes(), 0);
    assert!(!mw.plane().cdt_contains(f, 0, 8 * MIB));
    assert_eq!(mw.metrics().writes_to_disk, 1);
}

#[test]
fn write_hit_updates_cache_and_stays_dirty() {
    let (mut cluster, mut mw, f) = setup(64 * MIB);
    mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, 16 * KIB));
    let plan = mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, 16 * KIB));
    assert_eq!(tiers_of(&plan), vec![Tier::CServers]);
    assert_eq!(mw.plane().mapped_bytes(), 16 * KIB, "no double mapping");
    assert_eq!(mw.metrics().writes_to_cache, 2);
}

#[test]
fn read_hit_served_from_cache_miss_from_disk() {
    let (mut cluster, mut mw, f) = setup(64 * MIB);
    mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, 16 * KIB));
    let hit = mw.plan_io(&mut cluster, SimTime::ZERO, &read_req(f, 0, 16 * KIB));
    assert_eq!(tiers_of(&hit), vec![Tier::CServers]);
    assert_eq!(mw.metrics().read_full_hits, 1);
    let miss = mw.plan_io(&mut cluster, SimTime::ZERO, &read_req(f, MIB, 16 * KIB));
    assert_eq!(tiers_of(&miss), vec![Tier::DServers]);
    assert_eq!(mw.metrics().read_misses, 1);
}

#[test]
fn partial_hit_splits_across_tiers() {
    let (mut cluster, mut mw, f) = setup(64 * MIB);
    mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, 16 * KIB));
    // Read 32 KiB: first 16 cached, second 16 not.
    let plan = mw.plan_io(&mut cluster, SimTime::ZERO, &read_req(f, 0, 32 * KIB));
    let tiers = tiers_of(&plan);
    assert!(tiers.contains(&Tier::CServers));
    assert!(tiers.contains(&Tier::DServers));
    assert_eq!(mw.metrics().read_partial_hits, 1);
}

#[test]
fn critical_read_miss_is_lazily_marked() {
    let (mut cluster, mut mw, f) = setup(64 * MIB);
    let plan = mw.plan_io(&mut cluster, SimTime::ZERO, &read_req(f, 0, 16 * KIB));
    // Served from DServers now...
    assert_eq!(tiers_of(&plan), vec![Tier::DServers]);
    // ...but flagged for the Rebuilder.
    assert_eq!(mw.metrics().lazy_marks, 1);
    assert_eq!(mw.plane().cdt_flagged(10).count(), 1);
}

#[test]
fn capacity_exhaustion_spills_to_dservers() {
    // Cache of 32 KiB: the first critical write fills it; the second
    // (all-dirty cache, nothing evictable) must spill.
    let (mut cluster, mut mw, f) = setup(32 * KIB);
    let p1 = mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, 32 * KIB));
    assert_eq!(tiers_of(&p1), vec![Tier::CServers]);
    let p2 = mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, MIB, 32 * KIB));
    assert_eq!(tiers_of(&p2), vec![Tier::DServers]);
    assert_eq!(mw.metrics().admission_denied_space, 1);
    assert_eq!(mw.metrics().writes_to_disk, 1);
}

/// `NeverAdmit` is the Fig. 11 probe: every lookup and cost evaluation
/// runs, nothing is redirected, and the Rebuilder has nothing to do.
#[test]
fn never_admit_policy_behaves_like_stock() {
    let mut cluster = Cluster::paper_testbed_small(9);
    let mut mw = S4dCache::new(
        S4dConfig::new(64 * MIB).with_admission(AdmissionPolicy::NeverAdmit),
        params_small(),
    );
    let f = mw.open(&mut cluster, Rank(0), "data").unwrap();
    let w = mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, 16 * KIB));
    assert_eq!(tiers_of(&w), vec![Tier::DServers]);
    let r = mw.plan_io(&mut cluster, SimTime::ZERO, &read_req(f, 0, 16 * KIB));
    assert_eq!(tiers_of(&r), vec![Tier::DServers]);
    assert_eq!(mw.metrics().critical, 0);
    assert_eq!(mw.plane().cdt_len(), 0);
    // Bookkeeping still ran (the overhead the paper measures).
    assert_eq!(mw.metrics().evaluated, 2);
    assert!(!w.lead_in.is_zero());
    let poll = mw.poll_background(&mut cluster, SimTime::ZERO);
    assert!(poll.plans.is_empty());
}

#[test]
fn always_admit_caches_large_writes_too() {
    let mut cluster = Cluster::paper_testbed_small(9);
    let mut mw = S4dCache::new(
        S4dConfig::new(64 * MIB).with_admission(AdmissionPolicy::AlwaysAdmit),
        params_small(),
    );
    let f = mw.open(&mut cluster, Rank(0), "data").unwrap();
    let w = mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(f, 0, 8 * MIB));
    assert_eq!(tiers_of(&w), vec![Tier::CServers]);
}

#[test]
fn eager_fetch_ablation_adds_cache_fill_phase() {
    let mut cluster = Cluster::paper_testbed_small(9);
    let mut mw = S4dCache::new(
        S4dConfig::new(64 * MIB).with_eager_read_fetch(true),
        params_small(),
    );
    let f = mw.open(&mut cluster, Rank(0), "data").unwrap();
    let plan = mw.plan_io(&mut cluster, SimTime::ZERO, &read_req(f, 0, 16 * KIB));
    assert!(!plan.then.is_empty(), "read phase + cache-fill phase");
    assert!(plan.tag != 0);
    mw.on_plan_complete(&mut cluster, SimTime::from_secs(1), plan.tag);
    assert_eq!(mw.plane().mapped_bytes(), 16 * KIB);
    let again = mw.plan_io(
        &mut cluster,
        SimTime::from_secs(2),
        &read_req(f, 0, 16 * KIB),
    );
    assert_eq!(tiers_of(&again), vec![Tier::CServers]);
}
