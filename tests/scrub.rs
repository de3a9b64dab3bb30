//! Cached-data scrubbing: per-extent CRC seals are verified by the
//! background scrubber and the `verify_on_read` pre-pass. A corrupt
//! *clean* extent is repaired from DServers (which hold the same logical
//! bytes); a corrupt *dirty* extent is unrecoverable — its mapping is
//! dropped and reported, so reads serve the last flushed version from
//! DServers instead of silently returning bad bytes.

use s4d::cache::{S4dCache, S4dConfig};
use s4d::cost::CostParams;
use s4d::mpiio::{AppRequest, Cluster, Middleware, Plan, Rank};
use s4d::pfs::FileId;
use s4d::sim::SimTime;
use s4d::storage::{presets, IoKind};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;
const REQ: u64 = 16 * KIB;
const FILE_LEN: u64 = 256 * KIB;

fn params() -> CostParams {
    CostParams::from_hardware(
        &presets::hdd_seagate_st3250(),
        &presets::ssd_ocz_revodrive_x2(),
        2,
        1,
        64 * KIB,
    )
    .with_network_bandwidth(117.0e6)
    .with_cserver_op_overhead(300.0e-6, 16 * KIB)
}

fn seed_bytes() -> Vec<u8> {
    (0..FILE_LEN).map(|i| (i % 249) as u8).collect()
}

fn payload(n: u64) -> Vec<u8> {
    (0..REQ)
        .map(|j| ((n * 37 + j * 11 + 5) % 256) as u8)
        .collect()
}

/// Executes a plan against the functional stores the way the runner
/// would (no crash injection here).
fn exec_plan(cluster: &mut Cluster, plan: &Plan) {
    for phase in &plan.phases {
        for op in phase {
            if op.kind == IoKind::Write {
                if let Some(data) = &op.data {
                    let _ = cluster.pfs_mut(op.tier).apply_bytes(
                        op.file,
                        op.offset,
                        op.len,
                        Some(data),
                    );
                }
            }
        }
    }
}

fn app_write(cluster: &mut Cluster, mw: &mut S4dCache, file: FileId, offset: u64, data: Vec<u8>) {
    let req = AppRequest {
        rank: Rank(0),
        file,
        kind: IoKind::Write,
        offset,
        len: data.len() as u64,
        data: Some(data),
    };
    let plan = mw.plan_io(cluster, SimTime::ZERO, &req);
    exec_plan(cluster, &plan);
    if plan.tag != 0 {
        mw.on_plan_complete(cluster, SimTime::ZERO, plan.tag);
    }
}

fn app_read(
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
    for phase in &plan.phases {
        for op in phase {
            match op.kind {
                IoKind::Read => {
                    if let Some(app) = op.app_offset {
                        let bytes = cluster
                            .pfs(op.tier)
                            .read_bytes(op.file, op.offset, op.len)
                            .unwrap()
                            .expect("functional stores");
                        let at = (app - offset) as usize;
                        out[at..at + op.len as usize].copy_from_slice(&bytes);
                    }
                }
                IoKind::Write => {
                    if let Some(data) = &op.data {
                        let _ = cluster.pfs_mut(op.tier).apply_bytes(
                            op.file,
                            op.offset,
                            op.len,
                            Some(data),
                        );
                    }
                }
            }
        }
    }
    if plan.tag != 0 {
        mw.on_plan_complete(cluster, SimTime::ZERO, plan.tag);
    }
    out
}

fn drain(cluster: &mut Cluster, mw: &mut S4dCache, from_s: u64) {
    for round in 0..40u64 {
        let poll = mw.poll_background(cluster, SimTime::from_secs(from_s + round));
        for plan in &poll.plans {
            exec_plan(cluster, plan);
            if plan.tag != 0 {
                mw.on_plan_complete(cluster, SimTime::from_secs(from_s + round), plan.tag);
            }
        }
        if !poll.work_pending {
            break;
        }
    }
}

/// Flips one cached byte of the extent mapping `d_offset`, returning the
/// extent's length. Models SSD bit rot under a valid seal.
fn flip_cached_byte(cluster: &mut Cluster, mw: &S4dCache, file: FileId, d_offset: u64) -> u64 {
    let e = *mw.dmt().get(file, d_offset).expect("extent mapped");
    let current = cluster
        .cpfs()
        .read_bytes(e.c_file, e.c_offset + 3, 1)
        .unwrap()
        .expect("functional stores");
    cluster
        .cpfs_mut()
        .apply_bytes(e.c_file, e.c_offset + 3, 1, Some(&[current[0] ^ 0xFF]))
        .unwrap();
    e.len
}

#[test]
fn scrubber_repairs_corrupt_clean_extent_from_dservers() {
    let mut cluster = Cluster::paper_testbed_small(31);
    let mut mw = S4dCache::new(
        S4dConfig::new(64 * MIB)
            .with_journal_batch(1)
            .with_scrub(MIB),
        params(),
    );
    let file = mw.open(&mut cluster, Rank(0), "scrub.dat").unwrap();
    cluster
        .opfs_mut()
        .apply_bytes(file, 0, FILE_LEN, Some(&seed_bytes()))
        .unwrap();
    let mut shadow = seed_bytes();
    for i in 0..4u64 {
        let data = payload(i);
        shadow[(i * REQ) as usize..((i + 1) * REQ) as usize].copy_from_slice(&data);
        app_write(&mut cluster, &mut mw, file, i * REQ, data);
    }
    // Flush everything clean (and sealed); the scrubber also runs each
    // wake but has nothing to repair yet.
    drain(&mut cluster, &mut mw, 1);
    assert_eq!(mw.dmt().dirty_bytes(), 0);
    assert_eq!(mw.metrics().scrub_repaired_bytes, 0);
    assert!(mw.metrics().scrub_scanned_bytes > 0, "scrubber patrols");

    let len = flip_cached_byte(&mut cluster, &mw, file, REQ);
    // The next scrub wake detects the seal mismatch and repairs the
    // extent from DServers (clean data: OPFS holds the same bytes).
    drain(&mut cluster, &mut mw, 100);
    assert_eq!(mw.metrics().scrub_repaired_bytes, len, "one extent healed");
    assert_eq!(mw.metrics().scrub_lost_bytes, 0);
    // The cached copy is byte-identical to the truth again, and reads —
    // still routed to the cache — return the written content.
    let got = app_read(&mut cluster, &mut mw, file, REQ, REQ);
    assert_eq!(got, shadow[REQ as usize..2 * REQ as usize].to_vec());
    let e = *mw.dmt().get(file, REQ).expect("extent still mapped");
    let cached = cluster
        .cpfs()
        .read_bytes(e.c_file, e.c_offset, e.len)
        .unwrap()
        .unwrap();
    let truth = cluster.opfs().read_bytes(file, REQ, REQ).unwrap().unwrap();
    assert_eq!(cached, truth, "repair restored the cached bytes");
}

#[test]
fn corrupt_dirty_extent_is_reported_and_never_served() {
    // No flushing: the cache holds the only copy of the dirty write.
    let config = S4dConfig::new(64 * MIB)
        .with_journal_batch(1)
        .with_verify_on_read(true)
        .with_max_flush_per_wake(0);
    let mut cluster = Cluster::paper_testbed_small(32);
    let mut mw = S4dCache::new(config, params());
    let file = mw.open(&mut cluster, Rank(0), "dirty.dat").unwrap();
    let seed = seed_bytes();
    cluster
        .opfs_mut()
        .apply_bytes(file, 0, FILE_LEN, Some(&seed))
        .unwrap();
    app_write(&mut cluster, &mut mw, file, 0, payload(9));
    assert_eq!(mw.dmt().dirty_bytes(), REQ);
    assert!(
        mw.dmt().get(file, 0).unwrap().checksum.is_some(),
        "dirty extents are sealed at admission completion"
    );

    // An intact dirty extent reads back through its seal untouched.
    assert_eq!(app_read(&mut cluster, &mut mw, file, 0, REQ), payload(9));

    let len = flip_cached_byte(&mut cluster, &mw, file, 0);
    // verify_on_read catches the mismatch before routing: the only
    // up-to-date copy is corrupt, so the mapping is dropped, the loss is
    // reported, and the read serves the last flushed version (the seed)
    // from DServers — never the corrupted cache bytes.
    let got = app_read(&mut cluster, &mut mw, file, 0, REQ);
    assert_eq!(
        got,
        seed[..REQ as usize].to_vec(),
        "read must fall back to the last flushed version"
    );
    assert_ne!(got, payload(9), "the lost write is not resurrected");
    assert_eq!(mw.metrics().scrub_lost_bytes, len, "loss is reported");
    assert_eq!(mw.metrics().dirty_bytes_lost, len);
    assert_eq!(mw.metrics().scrub_repaired_bytes, 0);
    assert!(mw.dmt().get(file, 0).is_none(), "the mapping is gone");
    assert_eq!(mw.space().allocated(), 0, "the cache space is released");
}
