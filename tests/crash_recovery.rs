//! Crash recovery: the paper persists DMT changes synchronously "to
//! survive power failures" (§III.D). These tests crash the middleware at
//! arbitrary points and rebuild it from the journal record stream,
//! verifying that the mapping, the space accounting, and — in functional
//! mode — every cached byte survive.

use std::cell::RefCell;
use std::rc::Rc;

use s4d::bench::testbed;
use s4d::cache::{journal, S4dCache, S4dConfig};
use s4d::mpiio::{script, Cluster, IoObserver, Rank, Runner};
use s4d::workloads::{AccessPattern, IorConfig};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;

fn recovery_config(capacity: u64) -> S4dConfig {
    S4dConfig::new(capacity)
        .with_journal_log(true)
        .with_journal_batch(1)
}

#[test]
fn journal_encodes_and_replays_a_real_run() {
    let tb = testbed(21);
    let cfg = IorConfig {
        file_name: "crash.dat".into(),
        file_size: 8 * MIB,
        processes: 4,
        request_size: 16 * KIB,
        pattern: AccessPattern::Random,
        do_write: true,
        do_read: true,
        seed: 21,
    };
    let middleware = S4dCache::new(recovery_config(4 * MIB), tb.cost_params());
    let mut runner = Runner::new(tb.cluster(), middleware, cfg.scripts(), 21);
    runner.run();
    let (_cluster, mut mw, _report) = runner.into_parts();
    // Clean shutdown: commit the final record batch, so recovery is exact.
    mw.sync_journal_log();

    // Round-trip the log through the on-disk encoding, as a real journal
    // file would store it.
    let log = mw.journal_log();
    assert!(!log.is_empty(), "a caching run must have journaled");
    let bytes = journal::encode_batch(log);
    let decoded = journal::decode_batch(&bytes).expect("journal decodes");
    assert_eq!(decoded.len(), log.len());

    // Recover and compare the mapping tables.
    let recovered = S4dCache::recover(recovery_config(4 * MIB), tb.cost_params(), &decoded);
    assert_eq!(recovered.dmt().mapped_bytes(), mw.dmt().mapped_bytes());
    assert_eq!(recovered.dmt().entry_count(), mw.dmt().entry_count());
    assert_eq!(recovered.dmt().dirty_bytes(), mw.dmt().dirty_bytes());
    assert_eq!(recovered.space().allocated(), mw.space().allocated());
    // Byte-level agreement over the whole file.
    for off in (0..8 * MIB).step_by(1 << 20) {
        assert_eq!(
            recovered.dmt().view(pfs_file(&mw), off, 1 << 20),
            mw.dmt().view(pfs_file(&mw), off, 1 << 20),
            "coverage diverged at offset {off}"
        );
    }
}

/// The original-file id of the single file these tests use (opfs assigns 0
/// to the first created file).
fn pfs_file(_mw: &S4dCache) -> s4d::pfs::FileId {
    s4d::pfs::FileId(0)
}

#[test]
fn cached_bytes_survive_a_crash() {
    // Functional cluster: write pattern data through S4D, crash before any
    // flush completes, recover, and read everything back through the
    // recovered middleware — cached bytes must come back from the cache
    // file exactly.
    struct Capture(Rc<RefCell<Vec<Vec<u8>>>>);
    impl IoObserver for Capture {
        fn on_read_data(&mut self, _r: Rank, _o: u64, _l: u64, data: Option<&[u8]>) {
            self.0.borrow_mut().push(data.expect("functional").to_vec());
        }
    }

    // Rebuilder disabled (no flush candidates accepted), so the crash
    // catches the cache fully dirty.
    let config = recovery_config(64 * MIB).with_max_flush_per_wake(0);

    let payloads: Vec<(u64, Vec<u8>)> = (0..24u64)
        .map(|i| {
            let offset = (i * 104729 % 96) * 16 * KIB;
            let data: Vec<u8> = (0..16 * KIB).map(|j| ((i * 97 + j) % 251) as u8).collect();
            (offset, data)
        })
        .collect();
    // Deduplicate by offset, keeping the last write.
    let mut finals: Vec<(u64, Vec<u8>)> = Vec::new();
    for (off, data) in &payloads {
        finals.retain(|(o, _)| o != off);
        finals.push((*off, data.clone()));
    }
    finals.sort_by_key(|(o, _)| *o);

    let mut writer = script().open("crash2.dat");
    for (off, data) in &payloads {
        writer = writer.write_bytes(0, *off, data.clone());
    }
    let cluster = Cluster::paper_testbed_small(22);
    let middleware = S4dCache::new(config.clone(), tb_params_small());
    let mut runner = Runner::new(cluster, middleware, vec![writer.build()], 22);
    let report = runner.run();
    assert!(report.tiers.c_ops > 0, "writes must have been cached");
    let (cluster, mw, _) = runner.into_parts();
    assert!(mw.dmt().dirty_bytes() > 0, "crash catches dirty data");
    let log = mw.journal_log().to_vec();
    drop(mw); // the crash

    // Recovery: same cluster (CServer contents are persistent SSD state),
    // fresh middleware from the journal.
    let recovered = S4dCache::recover(config, tb_params_small(), &log);
    assert!(recovered.dmt().dirty_bytes() > 0, "dirtiness survives");

    let mut reader = script().open("crash2.dat");
    for (off, _) in &finals {
        reader = reader.read(0, *off, 16 * KIB);
    }
    let got = Rc::new(RefCell::new(Vec::new()));
    let mut runner = Runner::new(cluster, recovered, vec![reader.close(0).build()], 23);
    runner.add_observer(Box::new(Capture(got.clone())));
    let report = runner.run();
    assert!(
        report.tiers.c_ops > 0,
        "recovered mapping must route reads back to the cache"
    );
    let got = got.borrow();
    assert_eq!(got.len(), finals.len());
    for (i, (off, expect)) in finals.iter().enumerate() {
        assert_eq!(&got[i], expect, "data loss after recovery at offset {off}");
    }
}

fn tb_params_small() -> s4d::cost::CostParams {
    use s4d::storage::presets;
    s4d::cost::CostParams::from_hardware(
        &presets::hdd_seagate_st3250(),
        &presets::ssd_ocz_revodrive_x2(),
        2,
        1,
        64 * KIB,
    )
    .with_network_bandwidth(117.0e6)
    .with_cserver_op_overhead(300.0e-6, 16 * KIB)
}

#[test]
fn recovery_at_every_prefix_is_sound() {
    // Chaos variant: recovering from ANY journal prefix must yield a DMT
    // whose extents never overlap and whose space accounting is
    // consistent — a crash can land between any two records.
    let tb = testbed(24);
    let cfg = IorConfig {
        file_name: "prefix.dat".into(),
        file_size: 4 * MIB,
        processes: 2,
        request_size: 16 * KIB,
        pattern: AccessPattern::Random,
        do_write: true,
        do_read: true,
        seed: 24,
    };
    let middleware = S4dCache::new(recovery_config(MIB), tb.cost_params());
    let mut runner = Runner::new(tb.cluster(), middleware, cfg.scripts(), 24);
    runner.run();
    let (_c, mw, _r) = runner.into_parts();
    let log = mw.journal_log();
    assert!(log.len() > 50);
    // Check a sweep of prefixes (every 7th to keep the test fast).
    for cut in (0..=log.len()).step_by(7) {
        let recovered = S4dCache::recover(recovery_config(MIB), tb.cost_params(), &log[..cut]);
        // mapped bytes equal the sum over extents, and fit the capacity.
        let sum: u64 = recovered.dmt().iter_extents().map(|(_, _, e)| e.len).sum();
        assert_eq!(sum, recovered.dmt().mapped_bytes(), "prefix {cut}");
        assert!(recovered.space().allocated() <= recovered.space().capacity());
        assert_eq!(recovered.space().allocated(), sum);
    }
}

mod torn_journal_props {
    use super::*;
    use proptest::prelude::*;
    use s4d::cache::{Dmt, DMT_RECORD_BYTES};
    use s4d::pfs::FileId;

    const F: FileId = FileId(7);
    const CF: FileId = FileId(8);

    /// Drives a live DMT through an op script, returning the final live
    /// table and the record stream it journaled along the way.
    fn drive_ops(ops: &[(u64, u64, u8)]) -> (Dmt, Vec<s4d::cache::JournalRecord>) {
        let mut live = Dmt::new();
        let mut next_c = 0u64;
        for &(off, len, kind) in ops {
            match kind {
                0 => {
                    let view = live.view(F, off, len);
                    for (g_off, g_len) in view.gaps {
                        live.insert(F, g_off, g_len, CF, next_c, false);
                        next_c += g_len;
                    }
                }
                1 => live.mark_dirty(F, off, len),
                _ => {
                    live.remove(F, off);
                }
            }
        }
        let records = live.take_pending_journal();
        (live, records)
    }

    /// Produces a realistic record stream by driving a live DMT.
    fn records_from_ops(ops: &[(u64, u64, u8)]) -> Vec<s4d::cache::JournalRecord> {
        drive_ops(ops).1
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        /// A journal that lost its tail to a torn write and/or took a
        /// single bit of corruption must still recover: `decode_prefix`
        /// never panics, yields an exact prefix of the original records
        /// (never a resurrected or altered mapping), and replay of that
        /// prefix is internally consistent.
        #[test]
        fn prop_torn_and_corrupted_journals_recover_a_prefix(
            ops in proptest::collection::vec((0u64..500, 1u64..64, 0u8..3), 1..40),
            cut_ppm in 0u64..1_000_001,
            flip in any::<bool>(),
            flip_at in 0u64..1_000_000,
        ) {
            let records = records_from_ops(&ops);
            let mut bytes = journal::encode_batch(&records);
            let full_len = bytes.len();
            // Torn write: keep an arbitrary byte prefix.
            let cut = (full_len as u64 * cut_ppm / 1_000_000) as usize;
            bytes.truncate(cut);
            // Bit rot: flip one bit somewhere in what remains.
            if flip && !bytes.is_empty() {
                let bit = (flip_at as usize) % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }

            let rec = journal::decode_prefix(&bytes);
            // Never more than what was stored; always an exact prefix.
            prop_assert!(rec.records.len() <= records.len());
            prop_assert_eq!(
                rec.records.as_slice(),
                &records[..rec.records.len()],
                "recovered records must be a prefix of the originals"
            );
            // Byte accounting: consumed + dropped covers the stream.
            let consumed = rec.records.len() as u64 * DMT_RECORD_BYTES;
            prop_assert_eq!(consumed + rec.dropped_bytes, bytes.len() as u64);
            // An untouched, frame-aligned stream decodes cleanly; anything
            // else reports how it was truncated.
            if !flip && cut == full_len {
                prop_assert!(rec.is_clean());
            }
            if rec.dropped_bytes > 0 {
                prop_assert!(rec.truncated_by.is_some());
            }

            // Replaying the prefix must yield a self-consistent mapping
            // (it is a valid history: the journal is written in order).
            let dmt = journal::replay(&rec.records);
            let sum: u64 = dmt.iter_extents().map(|(_, _, e)| e.len).sum();
            prop_assert_eq!(sum, dmt.mapped_bytes());
            // And agree exactly with a live DMT fed the same prefix.
            let reference = journal::replay(&records[..rec.records.len()]);
            prop_assert_eq!(dmt.view(F, 0, 1024), reference.view(F, 0, 1024));
            prop_assert_eq!(dmt.dirty_bytes(), reference.dirty_bytes());
        }

        /// Full-journal replay reconstructs the mapping *identically* to
        /// the live table — extent geometry, dirtiness, and the space
        /// allocator rebuilt from it — so a clean-shutdown recovery is
        /// indistinguishable from never having crashed.
        #[test]
        fn prop_replay_reconstructs_dmt_and_space_identically(
            ops in proptest::collection::vec((0u64..500, 1u64..64, 0u8..3), 1..60),
        ) {
            let (live, records) = drive_ops(&ops);
            let replayed = journal::replay(&records);
            prop_assert_eq!(replayed.mapped_bytes(), live.mapped_bytes());
            prop_assert_eq!(replayed.dirty_bytes(), live.dirty_bytes());
            prop_assert_eq!(replayed.entry_count(), live.entry_count());
            let live_extents: Vec<_> = live
                .iter_extents()
                .map(|(f, o, e)| (f, o, e.len, e.c_file, e.c_offset, e.dirty))
                .collect();
            let replayed_extents: Vec<_> = replayed
                .iter_extents()
                .map(|(f, o, e)| (f, o, e.len, e.c_file, e.c_offset, e.dirty))
                .collect();
            prop_assert_eq!(replayed_extents, live_extents);
            // The rebuilt allocator agrees byte-for-byte with one rebuilt
            // from the live table: identical occupancy and free headroom.
            let rebuild = |d: &Dmt| {
                s4d::cache::SpaceManager::rebuild(
                    1 << 20,
                    d.iter_extents().map(|(_, _, e)| (e.c_file, e.c_offset, e.len)),
                )
            };
            let (sa, sb) = (rebuild(&replayed), rebuild(&live));
            prop_assert_eq!(sa.allocated(), sb.allocated());
            prop_assert_eq!(sa.available(), sb.available());
            prop_assert_eq!(sa.allocated(), live.mapped_bytes());
        }

        /// A single bit flip strictly inside the stored stream is always
        /// *detected*: decoding stops at or before the damaged frame, so
        /// no corrupted record is ever replayed into the mapping.
        #[test]
        fn prop_single_bit_corruption_never_decodes_past_the_flip(
            ops in proptest::collection::vec((0u64..500, 1u64..64, 0u8..3), 1..30),
            flip_at in 0u64..1_000_000,
        ) {
            let records = records_from_ops(&ops);
            if records.is_empty() {
                return;
            }
            let mut bytes = journal::encode_batch(&records);
            let bit = (flip_at as usize) % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            let damaged_frame = bit / 8 / DMT_RECORD_BYTES as usize;

            let rec = journal::decode_prefix(&bytes);
            prop_assert!(
                rec.records.len() <= damaged_frame,
                "decoded {} records but frame {} is corrupt",
                rec.records.len(),
                damaged_frame
            );
            prop_assert_eq!(rec.records.as_slice(), &records[..rec.records.len()]);
            prop_assert!(rec.truncated_by.is_some(), "the flip must be noticed");
        }
    }
}
