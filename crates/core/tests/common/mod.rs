//! Shared fixtures for the per-component integration suites.
//!
//! Each test binary compiles this module independently, so not every
//! helper is used by every suite.
#![allow(dead_code, reason = "each suite uses its own subset")]

use s4d_cache::{S4dCache, S4dConfig};
use s4d_cost::CostParams;
use s4d_mpiio::{AppRequest, Cluster, Middleware, Plan, Rank, SubIoFailure, Tier};
use s4d_pfs::{FileId, IoFault};
use s4d_sim::SimTime;
use s4d_storage::{presets, IoKind};

pub(crate) const KIB: u64 = 1024;
pub(crate) const MIB: u64 = 1024 * 1024;

/// Cost-model parameters for the paper's small testbed hardware.
pub(crate) fn params_small() -> CostParams {
    CostParams::from_hardware(
        &presets::hdd_seagate_st3250(),
        &presets::ssd_ocz_revodrive_x2(),
        2,
        1,
        64 * KIB,
    )
    .with_network_bandwidth(117.0e6)
}

/// A small-testbed cluster and middleware with one open file.
#[expect(clippy::unwrap_used, reason = "the fresh cluster opens the file")]
pub(crate) fn setup(capacity: u64) -> (Cluster, S4dCache, FileId) {
    // Journal batch of 1 so tests can observe per-request journaling.
    let config = S4dConfig::new(capacity).with_journal_batch(1);
    let mut cluster = Cluster::paper_testbed_small(9);
    let mut mw = S4dCache::new(config, params_small());
    let f = mw.open(&mut cluster, Rank(0), "data").unwrap();
    (cluster, mw, f)
}

pub(crate) fn write_req(file: FileId, offset: u64, len: u64) -> AppRequest {
    AppRequest {
        rank: Rank(0),
        file,
        kind: IoKind::Write,
        offset,
        len,
        data: None,
    }
}

pub(crate) fn read_req(file: FileId, offset: u64, len: u64) -> AppRequest {
    AppRequest {
        rank: Rank(0),
        file,
        kind: IoKind::Read,
        offset,
        len,
        data: None,
    }
}

/// The tier of every data op in the plan, in phase order.
pub(crate) fn tiers_of(plan: &Plan) -> Vec<Tier> {
    plan.ops
        .iter()
        .chain(&plan.then)
        .filter(|op| op.app_offset.is_some())
        .map(|op| op.tier)
        .collect()
}

/// Runs one Rebuilder wake and keeps only its two-phase plans — flushes
/// and fetches. A background journal drain is a single-phase write (it
/// carries a `Pending::Journal` tag, so the tag does not tell it apart)
/// and is filtered out.
pub(crate) fn poll_tagged(mw: &mut S4dCache, cluster: &mut Cluster, now: SimTime) -> Vec<Plan> {
    mw.poll_background(cluster, now)
        .plans
        .into_iter()
        .filter(|p| p.tag != 0 && !p.then.is_empty())
        .collect()
}

pub(crate) fn transient_failure(server: usize, attempts: u32) -> SubIoFailure {
    SubIoFailure {
        tier: Tier::CServers,
        server,
        kind: IoKind::Write,
        len: 16 * KIB,
        error: IoFault::Transient,
        attempts,
        overhead: false,
    }
}

pub(crate) fn offline_failure(server: usize) -> SubIoFailure {
    SubIoFailure {
        error: IoFault::Offline,
        ..transient_failure(server, 1)
    }
}

/// Quarantines CServer 0 through three consecutive transient errors.
pub(crate) fn quarantine_server_zero(cluster: &mut Cluster, mw: &mut S4dCache, now: SimTime) {
    for attempts in 1..=3 {
        mw.on_io_error(cluster, now, &transient_failure(0, attempts));
    }
    assert!(mw.health().is_unhealthy(0, now));
}
