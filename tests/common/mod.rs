//! What the root crash, scrub and recovery tests share: driving plans
//! through the one fused executor (`s4d::cache::exec_plan_fused`), reading
//! a range back through a middleware, and the structural invariants every
//! recovered instance must satisfy. The checks read the plane's routed
//! aggregates, so they hold at any shard count.

#![allow(dead_code)] // each test binary uses its own subset

use std::cell::RefCell;

use s4d::cache::{exec_plan_fused, CrashFuse, S4dCache};
use s4d::mpiio::{AppRequest, Cluster, Middleware, Plan, Rank};
use s4d::pfs::FileId;
use s4d::sim::SimTime;
use s4d::storage::IoKind;

/// Rank 0's write of `data` at `offset`.
pub fn write_req(file: FileId, offset: u64, data: Vec<u8>) -> AppRequest {
    AppRequest {
        rank: Rank(0),
        file,
        kind: IoKind::Write,
        offset,
        len: data.len() as u64,
        data: Some(data),
    }
}

/// Executes `plan` on the functional stores, charging `fuse` for the
/// plan-carried durable effects, and completes it when every op ran.
/// Returns false if the fuse died before the plan finished.
pub fn run_plan(
    cluster: &mut Cluster,
    mw: &mut S4dCache,
    fuse: Option<&RefCell<CrashFuse>>,
    plan: &Plan,
    now: SimTime,
) -> bool {
    let done = exec_plan_fused(cluster, fuse, plan, None, |_, _| {}).expect("healthy stores");
    if done && plan.tag != 0 {
        mw.on_plan_complete(cluster, now, plan.tag);
    }
    done
}

/// Reads `[offset, offset + len)` through the middleware (executing the
/// read plan against the functional stores) and returns the bytes.
pub fn read_through(
    cluster: &mut Cluster,
    mw: &mut S4dCache,
    file: FileId,
    offset: u64,
    len: u64,
) -> Vec<u8> {
    let req = AppRequest {
        rank: Rank(0),
        file,
        kind: IoKind::Read,
        offset,
        len,
        data: None,
    };
    let plan = mw.plan_io(cluster, SimTime::ZERO, &req);
    let mut out = vec![0u8; len as usize];
    exec_plan_fused(cluster, None, &plan, Some((&mut out, offset)), |_, _| {})
        .expect("healthy stores");
    if plan.tag != 0 {
        mw.on_plan_complete(cluster, SimTime::ZERO, plan.tag);
    }
    out
}

/// Structural invariants of a recovered instance: the extents sum to the
/// mapped total, space accounting matches the mapping and fits the
/// capacity, and every mapped cache byte is present on CPFS.
pub fn check_invariants(cluster: &Cluster, mw: &S4dCache) {
    let plane = mw.plane();
    let sum: u64 = plane.iter_extents().map(|(_, _, e)| e.len).sum();
    assert_eq!(sum, plane.mapped_bytes(), "extent sum vs mapped_bytes");
    assert_eq!(
        plane.allocated(),
        sum,
        "space accounting diverged from the recovered mapping"
    );
    assert!(plane.allocated() <= plane.capacity());
    for (f, o, e) in plane.iter_extents() {
        let covered = cluster
            .cpfs()
            .covered_bytes(e.c_file, e.c_offset, e.len)
            .unwrap();
        assert_eq!(
            covered, e.len,
            "extent ({f:?},{o}) maps cache bytes that are not present"
        );
    }
}

/// The mapping as a comparable value, across every shard.
pub fn extents_of(mw: &S4dCache) -> Vec<(u64, u64, u64, u64, u64, bool)> {
    let mut v: Vec<_> = mw
        .plane()
        .iter_extents()
        .map(|(f, o, e)| (f.0, o, e.len, e.c_file.0, e.c_offset, e.dirty))
        .collect();
    v.sort_unstable();
    v
}
