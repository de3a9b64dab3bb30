//! Crash recovery: the paper persists DMT changes synchronously "to
//! survive power failures" (§III.D). These tests crash the middleware at
//! arbitrary points and rebuild it from what the cluster persisted — the
//! journal file and the cache files on CPFS — verifying that the mapping,
//! the space accounting, and every cached byte survive.

use std::cell::RefCell;
use std::rc::Rc;

use s4d::bench::{testbed, Testbed};
use s4d::cache::names::JOURNAL_NAME;
use s4d::cache::{journal, RangeView, S4dCache, S4dConfig, DMT_RECORD_BYTES};
use s4d::cost::CostParams;
use s4d::mpiio::{script, Cluster, IoObserver, Rank, Runner};
use s4d::pfs::{FileId, NetworkConfig};
use s4d::storage::{presets, StoreMode};
use s4d::workloads::{AccessPattern, IorConfig};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;

fn recovery_config(capacity: u64) -> S4dConfig {
    S4dConfig::new(capacity).with_journal_batch(1)
}

/// `tb`'s cluster with functional stores: recovery reads the journal and
/// the cache files back, so they must hold bytes.
fn functional_cluster(tb: &Testbed) -> Cluster {
    Cluster::build(
        tb.d_servers,
        tb.c_servers,
        tb.stripe,
        presets::hdd_seagate_st3250(),
        presets::ssd_ocz_revodrive_x2(),
        NetworkConfig::gigabit_ethernet(),
        StoreMode::Functional,
        tb.seed,
    )
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
    let mut runner = Runner::new(functional_cluster(&tb), middleware, cfg.scripts(), 21);
    let report = runner.run();
    // Clean shutdown: `run` returns with the completion-side records of
    // the last flushes (their SetCleans) still queued for the next
    // journal write; draining commits them, so recovery is exact.
    runner.drain_background(report.end_time);
    let (mut cluster, mw, _report) = runner.into_parts();

    // Recover from the journal file as CPFS stores it.
    let (recovered, report) =
        S4dCache::recover_from_cluster(recovery_config(4 * MIB), tb.cost_params(), &mut cluster);
    assert!(report.tail_records > 0, "a caching run must have journaled");
    assert_eq!(report.dropped_journal_bytes, 0, "journal decodes");
    assert_eq!(report.tail_records, mw.metrics().journal_records_written);

    // Compare the mapping tables.
    assert_eq!(recovered.plane().mapped_bytes(), mw.plane().mapped_bytes());
    assert_eq!(recovered.plane().entry_count(), mw.plane().entry_count());
    assert_eq!(recovered.plane().dirty_bytes(), mw.plane().dirty_bytes());
    assert_eq!(recovered.plane().allocated(), mw.plane().allocated());
    // Byte-level agreement over the whole file (opfs assigns id 0 to the
    // first created file).
    let (mut got, mut want) = (RangeView::default(), RangeView::default());
    for off in (0..8 * MIB).step_by(1 << 20) {
        recovered
            .plane()
            .view_into(FileId(0), off, 1 << 20, &mut got);
        mw.plane().view_into(FileId(0), off, 1 << 20, &mut want);
        assert_eq!(got, want, "coverage diverged at offset {off}");
    }
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
    let middleware = S4dCache::new(config.clone(), CostParams::paper_testbed_small());
    let mut runner = Runner::new(cluster, middleware, vec![writer.build()], 22);
    let report = runner.run();
    assert!(report.tiers.c_ops > 0, "writes must have been cached");
    let (mut cluster, mw, _) = runner.into_parts();
    assert!(mw.plane().dirty_bytes() > 0, "crash catches dirty data");
    drop(mw); // the crash

    // Recovery: same cluster (CServer contents are persistent SSD state),
    // fresh middleware from the journal.
    let (recovered, _) =
        S4dCache::recover_from_cluster(config, CostParams::paper_testbed_small(), &mut cluster);
    assert!(recovered.plane().dirty_bytes() > 0, "dirtiness survives");

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
    let mut runner = Runner::new(functional_cluster(&tb), middleware, cfg.scripts(), 24);
    runner.run();
    let (mut cluster, mw, _r) = runner.into_parts();
    drop(mw);
    let journal_file = cluster.cpfs().open(JOURNAL_NAME).unwrap();
    let size = cluster.cpfs().meta(journal_file).unwrap().size;
    let records = size / DMT_RECORD_BYTES;
    assert!(records > 50);
    // Check a sweep of prefixes (every 7th to keep the test fast), longest
    // first: each round cuts the on-disk journal shorter and recovers from
    // what is left.
    let mut recovered_bytes = 0;
    for cut in (0..=records).rev().step_by(7) {
        let keep = cut * DMT_RECORD_BYTES;
        cluster
            .cpfs_mut()
            .discard(journal_file, keep, size - keep)
            .unwrap();
        let (recovered, report) =
            S4dCache::recover_from_cluster(recovery_config(MIB), tb.cost_params(), &mut cluster);
        assert_eq!(report.tail_records, cut, "prefix {cut}");
        // mapped bytes equal the sum over extents, and fit the capacity.
        let sum: u64 = recovered
            .plane()
            .iter_extents()
            .map(|(_, _, e)| e.len)
            .sum();
        assert_eq!(sum, recovered.plane().mapped_bytes(), "prefix {cut}");
        assert!(recovered.plane().allocated() <= recovered.plane().capacity());
        assert_eq!(recovered.plane().allocated(), sum);
        recovered_bytes += sum;
    }
    assert!(recovered_bytes > 0, "the sweep must recover real mappings");
}

mod torn_journal_props {
    use super::*;
    use proptest::prelude::*;
    use s4d::cache::Dmt;

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

    /// Replays `records` into a fresh table, as recovery does.
    fn replayed(records: &[s4d::cache::JournalRecord]) -> Dmt {
        let mut dmt = Dmt::new();
        journal::replay_tolerant(&mut dmt, records);
        dmt
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
            let dmt = replayed(&rec.records);
            let sum: u64 = dmt.iter_extents().map(|(_, _, e)| e.len).sum();
            prop_assert_eq!(sum, dmt.mapped_bytes());
            // And agree exactly with a live DMT fed the same prefix.
            let reference = replayed(&records[..rec.records.len()]);
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
            let replayed = replayed(&records);
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
