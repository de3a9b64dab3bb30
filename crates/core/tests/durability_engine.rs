//! Integration tests for the durability engine's request-visible
//! surface: journal group commit, file/journal provisioning on open, and
//! the unwind order of a failed admission. The crash-recovery side is
//! covered by the torture and replay suites.

mod common;

use common::{params_small, setup, write_req, KIB, MIB};
use s4d_cache::{
    exec_plan_fused, journal, names, JournalRecord, S4dCache, S4dConfig, DMT_RECORD_BYTES,
};
use s4d_mpiio::{AppRequest, Cluster, Middleware, Rank};
use s4d_pfs::{FileId, Priority};
use s4d_sim::SimTime;
use s4d_storage::IoKind;

#[test]
fn journal_group_commit_batches() {
    let mut cluster = Cluster::paper_testbed_small(9);
    let mut mw = S4dCache::new(
        S4dConfig::new(64 * MIB).with_journal_batch(4),
        params_small(),
    );
    let f = mw.open(&mut cluster, Rank(0), "data").unwrap();
    // Each admitted write produces one DMT insert record; no journal op
    // until four records accumulate.
    for i in 0..3u64 {
        let plan = mw.plan_io(
            &mut cluster,
            SimTime::ZERO,
            &write_req(f, i * MIB, 16 * KIB),
        );
        assert!(
            plan.ops
                .iter()
                .chain(&plan.then)
                .all(|op| op.app_offset.is_some()),
            "no journal op before the batch fills"
        );
    }
    let plan = mw.plan_io(
        &mut cluster,
        SimTime::ZERO,
        &write_req(f, 3 * MIB, 16 * KIB),
    );
    let journal: Vec<_> = plan
        .ops
        .iter()
        .chain(&plan.then)
        .filter(|op| op.app_offset.is_none())
        .collect();
    assert_eq!(journal.len(), 1, "batch full: one grouped journal write");
    assert_eq!(journal[0].len, 4 * DMT_RECORD_BYTES);
    // The Rebuilder persists stragglers with background priority.
    mw.plan_io(
        &mut cluster,
        SimTime::ZERO,
        &write_req(f, 4 * MIB, 16 * KIB),
    );
    let poll = mw.poll_background(&mut cluster, SimTime::from_secs(1));
    let has_bg_journal = poll.plans.iter().any(|p| {
        p.ops.iter().chain(&p.then).any(|op| {
            op.app_offset.is_none()
                && op.priority == Priority::Background
                && op.kind == IoKind::Write
                && op.file == FileId(0)
        })
    });
    assert!(has_bg_journal, "pending records drain on the next wake");
}

#[test]
fn open_creates_cache_file_and_journal() {
    let (cluster, mw, _f) = setup(64 * MIB);
    assert!(cluster.cpfs().open("data.cache").is_ok());
    assert!(cluster.cpfs().open(names::JOURNAL_NAME).is_ok());
    assert_eq!(mw.name(), "s4d");
}

#[test]
fn failed_admission_rolls_back_the_frame_before_unwinding() {
    const REC: u64 = DMT_RECORD_BYTES;
    let (mut cluster, mut mw, f) = setup(64 * MIB);
    let journal = cluster.cpfs_mut().create_or_open(names::JOURNAL_NAME);
    let write = |offset: u64, fill: u8| AppRequest {
        data: Some(vec![fill; 16 * KIB as usize]),
        ..write_req(f, offset, 16 * KIB)
    };
    let table = |mw: &S4dCache| -> Vec<(u64, u64, FileId, u64, bool)> {
        let extents = mw.plane().iter_extents();
        extents
            .map(|(_, d, e)| (d, e.len, e.c_file, e.c_offset, e.dirty))
            .collect()
    };
    // One acked admission: the table the failed write must leave behind.
    let plan = mw.plan_io(&mut cluster, SimTime::ZERO, &write(0, 1));
    assert!(exec_plan_fused(&mut cluster, None, &plan, None, |_, _| {}).unwrap());
    mw.on_plan_complete(&mut cluster, SimTime::ZERO, plan.tag);
    let before = table(&mw);

    // The second admission's plan fails before any of its ops land: its
    // data and its journal frame are both missing on the stores.
    let plan = mw.plan_io(&mut cluster, SimTime::ZERO, &write(MIB, 2));
    assert_eq!(plan.then.len(), 1, "batch size 1: the frame rides `then`");
    let frame = plan.then[0].offset;
    mw.on_plan_failed(&mut cluster, SimTime::ZERO, plan.tag);
    assert_eq!(mw.metrics().admission_unwinds, 1);
    assert_eq!(table(&mw), before);

    // The frame rolled back first, so the unwind's synchronous append
    // landed at the failed frame's offset: its requeued records, then the
    // Remove, with no hole in front of them.
    let bytes = cluster
        .cpfs()
        .read_bytes(journal, 0, frame + 3 * REC)
        .unwrap()
        .expect("functional journal");
    let decoded = journal::decode_prefix(&bytes);
    assert_eq!(
        (decoded.dropped_bytes, decoded.truncated_by),
        (0, None),
        "the unwind's Remove must land at the rolled-back frame offset {frame}, not past a hole"
    );
    let tail = decoded
        .records
        .get((frame / REC) as usize..)
        .unwrap_or_default();
    assert!(
        matches!(tail.last(), Some(JournalRecord::Remove { d_offset, .. }) if *d_offset == MIB),
        "the appended records end with the unwind's Remove: {tail:?}"
    );

    // Recovery replays insert-then-remove back to the pre-write table.
    let config = S4dConfig::new(64 * MIB).with_journal_batch(1);
    let (recovered, _) = S4dCache::recover_from_cluster(config, params_small(), &mut cluster);
    assert_eq!(table(&recovered), before);
}
