//! Journal replay: rebuilding a Data Mapping Table from a record stream.
//!
//! Split out of [`super::journal`] (which keeps the record/checkpoint
//! codecs) so each module stays within the file budget. There is one
//! replay, and it is tolerant: recovery applies a checkpoint snapshot and
//! then a journal tail that may repeat records the snapshot already
//! folded in, so no record may assume the table is in the exact state it
//! was produced against.

use crate::dmt::Dmt;
use crate::journal::JournalRecord;

/// Applies one record to a table that may not be in the exact state the
/// record was produced against. `Insert` fills only the still-uncovered
/// gaps of its range (with correspondingly shifted cache offsets); every
/// other record no-ops when its target extent is absent or mismatched.
fn apply_record(dmt: &mut Dmt, r: &JournalRecord) {
    match *r {
        JournalRecord::Insert {
            d_file,
            d_offset,
            len,
            c_file,
            c_offset,
            dirty,
        } => {
            let view = dmt.view(d_file, d_offset, len);
            for (g_off, g_len) in view.gaps {
                dmt.insert(
                    d_file,
                    g_off,
                    g_len,
                    c_file,
                    c_offset + (g_off - d_offset),
                    dirty,
                );
            }
        }
        JournalRecord::SetDirty {
            d_file,
            d_offset,
            len,
        } => dmt.mark_dirty(d_file, d_offset, len),
        JournalRecord::SetClean { d_file, d_offset } => {
            dmt.force_clean(d_file, d_offset);
        }
        JournalRecord::Remove { d_file, d_offset } => {
            dmt.remove(d_file, d_offset);
        }
        JournalRecord::Seal {
            d_file,
            d_offset,
            checksum,
            len,
        } => {
            dmt.apply_seal(d_file, d_offset, len, checksum);
        }
        JournalRecord::FlushIntent { .. } => {}
    }
}

/// Replays a record stream onto `dmt` — the recovery path after a
/// middleware crash, applied first to the checkpoint snapshot and then to
/// the journal tail. Every record is applied with tolerant (skip, don't
/// panic) semantics, so a stream whose prefix was already folded into a
/// snapshot (or that lost interior records to a torn journal region)
/// replays without panicking; on a well-formed exact history replayed
/// into a fresh table the mapping (extents, cache locations, dirty flags)
/// is reconstructed exactly. Versions and LRU recency are runtime state
/// and start fresh.
pub fn replay_tolerant(dmt: &mut Dmt, records: &[JournalRecord]) {
    for r in records {
        apply_record(dmt, r);
    }
    // Replaying re-recorded every mutation; a recovered table starts with
    // an empty pending set.
    let _ = dmt.take_pending_journal();
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use s4d_pfs::FileId;

    const F: FileId = FileId(3);
    const CF: FileId = FileId(9);

    /// Replays `records` into a fresh table, as recovery does.
    fn replayed(records: &[JournalRecord]) -> Dmt {
        let mut dmt = Dmt::new();
        replay_tolerant(&mut dmt, records);
        dmt
    }

    #[test]
    fn replay_reconstructs_simple_history() {
        let mut live = Dmt::new();
        live.insert(F, 0, 100, CF, 0, false);
        live.mark_dirty(F, 20, 30);
        live.insert(F, 500, 50, CF, 100, true);
        let v = live.get(F, 500).unwrap().version;
        live.mark_clean_if(F, 500, v);
        live.remove(F, 0); // the [0,20) clean piece after the split
        let log = live.take_pending_journal();
        let recovered = replayed(&log);
        // Byte-for-byte identical coverage.
        let a = live.view(F, 0, 600);
        let b = recovered.view(F, 0, 600);
        assert_eq!(a, b);
        assert_eq!(live.mapped_bytes(), recovered.mapped_bytes());
        assert_eq!(live.dirty_bytes(), recovered.dirty_bytes());
    }

    proptest! {
        /// Any sequence of inserts-into-gaps / dirty-markings / removals
        /// replays to an identical mapping.
        #[test]
        fn prop_replay_matches_live(
            ops in proptest::collection::vec((0u64..300, 1u64..50, 0u8..3), 1..50)
        ) {
            let mut live = Dmt::new();
            let mut next_c = 0u64;
            for (off, len, kind) in ops {
                match kind {
                    0 => {
                        // Insert the gaps of the range.
                        let view = live.view(F, off, len);
                        for (g_off, g_len) in view.gaps {
                            live.insert(F, g_off, g_len, CF, next_c, false);
                            next_c += g_len;
                        }
                    }
                    1 => live.mark_dirty(F, off, len),
                    _ => {
                        // Remove the extent at the range start, if any.
                        live.remove(F, off);
                    }
                }
            }
            let log = live.take_pending_journal();
            let recovered = replayed(&log);
            prop_assert_eq!(live.view(F, 0, 512), recovered.view(F, 0, 512));
            prop_assert_eq!(live.mapped_bytes(), recovered.mapped_bytes());
            prop_assert_eq!(live.dirty_bytes(), recovered.dirty_bytes());
            prop_assert_eq!(live.entry_count(), recovered.entry_count());
        }
    }

    #[test]
    fn tolerant_replay_of_a_duplicated_suffix_converges() {
        // A snapshot already contains the effect of records that were still
        // pending when it was taken; replaying them again on top must be a
        // no-op overall.
        let mut live = Dmt::new();
        live.insert(F, 0, 100, CF, 0, false);
        live.mark_dirty(F, 20, 30);
        live.remove(F, 0);
        let log = live.take_pending_journal();
        let mut dmt = replayed(&log);
        replay_tolerant(&mut dmt, &log[1..]); // re-apply a suffix
        assert_eq!(dmt.view(F, 0, 200), live.view(F, 0, 200));
        assert_eq!(dmt.mapped_bytes(), live.mapped_bytes());
        assert_eq!(dmt.dirty_bytes(), live.dirty_bytes());
    }

    #[test]
    fn tolerant_insert_fills_only_gaps_with_shifted_cache_offsets() {
        let mut dmt = Dmt::new();
        dmt.insert(F, 20, 30, CF, 500, true);
        replay_tolerant(
            &mut dmt,
            &[JournalRecord::Insert {
                d_file: F,
                d_offset: 0,
                len: 100,
                c_file: CF,
                c_offset: 1000,
                dirty: false,
            }],
        );
        let v = dmt.view(F, 0, 100);
        assert!(v.fully_covered());
        // [0,20) and [50,100) filled from the record, shifted; [20,50) kept.
        assert_eq!(v.pieces[0].c_offset, 1000);
        assert_eq!(v.pieces[1].c_offset, 500);
        assert!(v.pieces[1].dirty);
        assert_eq!(v.pieces[2].c_offset, 1000 + 50);
    }

    #[test]
    fn seal_records_survive_replay_and_mismatch_is_dropped() {
        let mut live = Dmt::new();
        live.insert(F, 0, 64, CF, 0, false);
        live.insert(F, 100, 32, CF, 64, false);
        let v0 = live.get(F, 0).unwrap().version;
        assert!(live.seal_if(F, 0, v0, 0xFEED_FACE));
        let log = live.take_pending_journal();
        let recovered = replayed(&log);
        assert_eq!(recovered.get(F, 0).unwrap().checksum, Some(0xFEED_FACE));
        assert_eq!(recovered.get(F, 100).unwrap().checksum, None);
        // A seal whose length no longer matches the extent does not apply.
        let mut dmt = Dmt::new();
        dmt.insert(F, 0, 32, CF, 0, false);
        replay_tolerant(
            &mut dmt,
            &[JournalRecord::Seal {
                d_file: F,
                d_offset: 0,
                checksum: 1,
                len: 64,
            }],
        );
        assert_eq!(dmt.get(F, 0).unwrap().checksum, None);
    }
}
