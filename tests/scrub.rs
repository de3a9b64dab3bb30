//! Cached-data scrubbing: per-extent CRC seals are verified by the
//! background scrubber and the `verify_on_read` pre-pass. A corrupt
//! *clean* extent is repaired from DServers (which hold the same logical
//! bytes); a corrupt *dirty* extent is unrecoverable — its mapping is
//! dropped and reported, so reads serve the last flushed version from
//! DServers instead of silently returning bad bytes.

mod common;

use common::{read_through, run_plan, write_req};
use s4d::cache::journal::{self, JournalRecord};
use s4d::cache::names::JOURNAL_NAME;
use s4d::cache::{CrashFuse, CrashSite, S4dCache, S4dConfig};
use s4d::cost::CostParams;
use s4d::mpiio::{Cluster, Middleware, Rank};
use s4d::pfs::FileId;
use s4d::sim::SimTime;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;
const REQ: u64 = 16 * KIB;
const FILE_LEN: u64 = 256 * KIB;

fn seed_bytes() -> Vec<u8> {
    (0..FILE_LEN).map(|i| (i % 249) as u8).collect()
}

fn payload(n: u64) -> Vec<u8> {
    (0..REQ)
        .map(|j| ((n * 37 + j * 11 + 5) % 256) as u8)
        .collect()
}

fn app_write(cluster: &mut Cluster, mw: &mut S4dCache, file: FileId, offset: u64, data: Vec<u8>) {
    let plan = mw.plan_io(cluster, SimTime::ZERO, &write_req(file, offset, data));
    run_plan(cluster, mw, None, &plan, SimTime::ZERO);
}

fn drain(cluster: &mut Cluster, mw: &mut S4dCache, from_s: u64) {
    for round in 0..40u64 {
        let now = SimTime::from_secs(from_s + round);
        let poll = mw.poll_background(cluster, now);
        for plan in &poll.plans {
            run_plan(cluster, mw, None, plan, now);
        }
        if !poll.work_pending {
            break;
        }
    }
}

/// Flips one cached byte of the extent mapping `d_offset`, returning the
/// extent's length. Models SSD bit rot under a valid seal.
fn flip_cached_byte(cluster: &mut Cluster, mw: &S4dCache, file: FileId, d_offset: u64) -> u64 {
    let e = *mw.plane().get(file, d_offset).expect("extent mapped");
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
    for shards in [1, 4] {
        repair_case(shards);
    }
}

/// The file's 16 requests span four 64 KiB shard tiles, so at four
/// shards every shard owns extents: one scrub wake must visit each
/// extent once and heal the corrupted one.
fn repair_case(shards: u32) {
    let mut cluster = Cluster::paper_testbed_small(31);
    let mut mw = S4dCache::new(
        S4dConfig::new(64 * MIB)
            .with_journal_batch(1)
            .with_scrub(MIB)
            .with_shards(shards),
        CostParams::paper_testbed_small(),
    );
    let file = mw.open(&mut cluster, Rank(0), "scrub.dat").unwrap();
    cluster
        .opfs_mut()
        .apply_bytes(file, 0, FILE_LEN, Some(&seed_bytes()))
        .unwrap();
    let mut shadow = seed_bytes();
    for i in 0..FILE_LEN / REQ {
        let data = payload(i);
        shadow[(i * REQ) as usize..((i + 1) * REQ) as usize].copy_from_slice(&data);
        app_write(&mut cluster, &mut mw, file, i * REQ, data);
    }
    assert_eq!(
        mw.plane().mapped_bytes(),
        FILE_LEN,
        "{shards} shards: every write cached"
    );
    // Flush everything clean (and sealed); the scrubber also runs each
    // wake but has nothing to repair yet.
    drain(&mut cluster, &mut mw, 1);
    assert_eq!(mw.plane().dirty_bytes(), 0);
    assert_eq!(mw.metrics().scrub_repaired_bytes, 0);
    assert!(mw.metrics().scrub_scanned_bytes > 0, "scrubber patrols");

    // In the last tile: the last shard's, at four shards.
    let victim = 13 * REQ;
    let len = flip_cached_byte(&mut cluster, &mw, file, victim);
    // The next scrub wake visits every extent once, detects the seal
    // mismatch and repairs the extent from DServers (clean data: OPFS
    // holds the same bytes).
    let scanned = mw.metrics().scrub_scanned_bytes;
    let now = SimTime::from_secs(100);
    let poll = mw.poll_background(&mut cluster, now);
    for plan in &poll.plans {
        run_plan(&mut cluster, &mut mw, None, plan, now);
    }
    assert_eq!(
        mw.metrics().scrub_scanned_bytes - scanned,
        FILE_LEN,
        "{shards} shards: one wake visits every extent once"
    );
    assert_eq!(
        mw.metrics().scrub_repaired_bytes,
        len,
        "{shards} shards: one extent healed"
    );
    assert_eq!(mw.metrics().scrub_lost_bytes, 0);
    // The cached copy is byte-identical to the truth again, and reads —
    // still routed to the cache — return the written content.
    let got = read_through(&mut cluster, &mut mw, file, victim, REQ);
    assert_eq!(
        got,
        shadow[victim as usize..(victim + REQ) as usize].to_vec()
    );
    let e = *mw.plane().get(file, victim).expect("extent still mapped");
    let cached = cluster
        .cpfs()
        .read_bytes(e.c_file, e.c_offset, e.len)
        .unwrap()
        .unwrap();
    let truth = cluster
        .opfs()
        .read_bytes(file, victim, REQ)
        .unwrap()
        .unwrap();
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
    let mut mw = S4dCache::new(config, CostParams::paper_testbed_small());
    let file = mw.open(&mut cluster, Rank(0), "dirty.dat").unwrap();
    let seed = seed_bytes();
    cluster
        .opfs_mut()
        .apply_bytes(file, 0, FILE_LEN, Some(&seed))
        .unwrap();
    app_write(&mut cluster, &mut mw, file, 0, payload(9));
    assert_eq!(mw.plane().dirty_bytes(), REQ);
    assert!(
        mw.plane().get(file, 0).unwrap().checksum.is_some(),
        "dirty extents are sealed at admission completion"
    );

    // An intact dirty extent reads back through its seal untouched.
    assert_eq!(
        read_through(&mut cluster, &mut mw, file, 0, REQ),
        payload(9)
    );

    let len = flip_cached_byte(&mut cluster, &mw, file, 0);
    // verify_on_read catches the mismatch before routing: the only
    // up-to-date copy is corrupt, so the mapping is dropped, the loss is
    // reported, and the read serves the last flushed version (the seed)
    // from DServers — never the corrupted cache bytes.
    let got = read_through(&mut cluster, &mut mw, file, 0, REQ);
    assert_eq!(
        got,
        seed[..REQ as usize].to_vec(),
        "read must fall back to the last flushed version"
    );
    assert_ne!(got, payload(9), "the lost write is not resurrected");
    assert_eq!(mw.metrics().scrub_lost_bytes, len, "loss is reported");
    assert_eq!(mw.metrics().dirty_bytes_lost, len);
    assert_eq!(mw.metrics().scrub_repaired_bytes, 0);
    assert!(mw.plane().get(file, 0).is_none(), "the mapping is gone");
    assert_eq!(mw.plane().allocated(), 0, "the cache space is released");
}

#[test]
fn torn_overwrite_of_a_sealed_dirty_extent_survives_recovery_and_scrub() {
    // No flushing: the cache holds the only copy of the dirty write, and
    // the scrubber patrols it.
    let config = S4dConfig::new(64 * MIB)
        .with_journal_batch(1)
        .with_scrub(MIB)
        .with_max_flush_per_wake(0);
    let mut cluster = Cluster::paper_testbed_small(33);
    let mut mw = S4dCache::new(config.clone(), CostParams::paper_testbed_small());
    let file = mw.open(&mut cluster, Rank(0), "torn.dat").unwrap();
    cluster
        .opfs_mut()
        .apply_bytes(file, 0, FILE_LEN, Some(&seed_bytes()))
        .unwrap();
    // The first write is sealed at completion; the second write's journal
    // frame carries that Seal to disk.
    app_write(&mut cluster, &mut mw, file, 0, payload(1));
    app_write(&mut cluster, &mut mw, file, REQ, payload(2));
    let journal_file = cluster.cpfs().open(JOURNAL_NAME).unwrap();
    let size = cluster.cpfs().meta(journal_file).unwrap().size;
    let on_disk = cluster.cpfs().read_bytes(journal_file, 0, size).unwrap();
    let sealed = |r: &JournalRecord| matches!(r, JournalRecord::Seal { d_offset: 0, .. });
    assert!(
        journal::decode_prefix(&on_disk.unwrap())
            .records
            .iter()
            .any(sealed),
        "the dirty extent's seal must be durable before the overwrite"
    );

    // Overwrite the sealed dirty extent; the power fails halfway through
    // the data write. Unsealing is not journaled, so the journal still
    // holds the seal of the old bytes over a half-old, half-new extent.
    let fuse = CrashFuse::armed(REQ / 2).shared();
    mw.attach_crash_fuse(fuse.clone());
    let plan = mw.plan_io(&mut cluster, SimTime::ZERO, &write_req(file, 0, payload(3)));
    assert!(!run_plan(
        &mut cluster,
        &mut mw,
        Some(&fuse),
        &plan,
        SimTime::ZERO
    ));
    assert_eq!(
        fuse.borrow().steps().last().map(|s| s.site),
        Some(CrashSite::DataWrite)
    );
    drop(mw);

    // Recovery must not trust that seal: the scrubber would take the torn
    // overwrite for corruption of the only copy and drop acknowledged
    // data.
    let (mut mw, _) =
        S4dCache::recover_from_cluster(config, CostParams::paper_testbed_small(), &mut cluster);
    let file = mw.open(&mut cluster, Rank(0), "torn.dat").unwrap();
    assert!(mw.plane().get(file, 0).is_some_and(|e| e.dirty));
    drain(&mut cluster, &mut mw, 1);
    assert!(mw.metrics().scrub_scanned_bytes > 0, "scrubber patrols");
    assert_eq!(mw.metrics().scrub_lost_bytes, 0, "a torn write is not rot");
    assert_eq!(mw.metrics().dirty_bytes_lost, 0);
    let got = read_through(&mut cluster, &mut mw, file, 0, REQ);
    let (old, new) = (payload(1), payload(3));
    for (i, &b) in got.iter().enumerate() {
        assert!(
            b == old[i] || b == new[i],
            "byte {i}: got {b}, expected old {} or new {}",
            old[i],
            new[i]
        );
    }
    assert_eq!(
        read_through(&mut cluster, &mut mw, file, REQ, REQ),
        payload(2)
    );
}

#[test]
fn partial_overwrite_of_a_sealed_dirty_extent_is_not_rot() {
    // No flushing: the cache holds the only copy, and the scrubber
    // patrols it.
    let config = S4dConfig::new(64 * MIB)
        .with_journal_batch(1)
        .with_scrub(MIB)
        .with_max_flush_per_wake(0);
    let mut cluster = Cluster::paper_testbed_small(34);
    let mut mw = S4dCache::new(config, CostParams::paper_testbed_small());
    let file = mw.open(&mut cluster, Rank(0), "split.dat").unwrap();
    cluster
        .opfs_mut()
        .apply_bytes(file, 0, FILE_LEN, Some(&seed_bytes()))
        .unwrap();
    let mut acked = payload(4);
    app_write(&mut cluster, &mut mw, file, 0, acked.clone());
    assert!(
        mw.plane().get(file, 0).unwrap().checksum.is_some(),
        "completion seals the dirty extent"
    );

    // Overwriting the middle splits the sealed extent in three; the outer
    // pieces hold unchanged bytes, but only a part of what the seal covered.
    let patch = payload(5)[..(4 * KIB) as usize].to_vec();
    acked[(4 * KIB) as usize..(8 * KIB) as usize].copy_from_slice(&patch);
    app_write(&mut cluster, &mut mw, file, 4 * KIB, patch);
    drain(&mut cluster, &mut mw, 1);
    assert!(mw.metrics().scrub_scanned_bytes > 0, "scrubber patrols");
    assert_eq!(
        mw.metrics().scrub_lost_bytes,
        0,
        "the pieces of a split kept the whole-extent seal"
    );
    assert_eq!(mw.metrics().scrub_repaired_bytes, 0);
    assert_eq!(mw.plane().dirty_bytes(), REQ);
    assert_eq!(read_through(&mut cluster, &mut mw, file, 0, REQ), acked);
}
