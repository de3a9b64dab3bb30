//! Checkpoint snapshots: the periodic DMT images that bound journal
//! replay.
//!
//! A checkpoint is one self-verifying blob — magic, sequence number, the
//! journal offset it covers, and an `Insert` (plus `Seal`) record per live
//! extent, closed by a CRC32 trailer over everything before it. Two slots
//! are written alternately ([`crate::names::CKPT_SLOT_A`]/`_B`), so a
//! crash mid-install loses at most the slot being written; recovery picks
//! the newest slot that decodes and replays only the journal tail past its
//! `tail_offset`. The codec lives here; the policy that decides *when* to
//! checkpoint (and the slot rotation) stays with the durability engine.

use crate::durability::journal::{crc32, decode_batch, FrameReader, JournalError, JournalRecord};
use crate::shard::MetadataPlane;
use crate::DMT_RECORD_BYTES;

/// Magic bytes opening every checkpoint snapshot.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"S4DSNAP1";
/// Fixed checkpoint header: magic + sequence + journal tail + record count.
pub const CHECKPOINT_HEADER_BYTES: usize = 32;

/// A decoded DMT checkpoint snapshot.
///
/// On-disk layout: [`CHECKPOINT_MAGIC`] (8 bytes), `covers_seq` u64 LE,
/// `tail_offset` u64 LE, record count u64 LE, `count` encoded
/// [`JournalRecord`] frames, then a CRC32 trailer over everything before
/// it. Decoding is all-or-nothing: a torn install fails the CRC and the
/// recovery falls back to the other slot. Bytes past the declared length
/// are ignored, so installing a shorter snapshot over a longer stale one
/// needs no truncation to stay valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Monotonic checkpoint sequence number (slot freshness arbiter).
    pub covers_seq: u64,
    /// Journal offset the snapshot covers: recovery replays only records
    /// at or past this offset on top of the snapshot.
    pub tail_offset: u64,
    /// The snapshot itself: one `Insert` (plus `Seal`, when the extent had
    /// a verified checksum) per live extent.
    pub records: Vec<JournalRecord>,
}

/// Failure to decode a checkpoint snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer is shorter than the declared snapshot.
    TooShort(usize),
    /// The magic bytes do not match [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The CRC32 trailer does not match the snapshot contents.
    BadChecksum {
        /// CRC32 recomputed over the snapshot.
        expected: u32,
        /// CRC32 stored in the trailer.
        found: u32,
    },
    /// A snapshot record frame failed to decode.
    BadRecord(JournalError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::TooShort(n) => write!(f, "checkpoint truncated at {n} bytes"),
            CheckpointError::BadMagic => write!(f, "checkpoint magic mismatch"),
            CheckpointError::BadChecksum { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: computed {expected:#010x}, stored {found:#010x}"
            ),
            CheckpointError::BadRecord(e) => write!(f, "checkpoint record invalid: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serialises a checkpoint snapshot (see [`Checkpoint`] for the layout).
pub fn encode_checkpoint(covers_seq: u64, tail_offset: u64, records: &[JournalRecord]) -> Vec<u8> {
    encode_checkpoint_iter(
        covers_seq,
        tail_offset,
        records.len(),
        records.iter().copied(),
    )
}

/// The snapshot of `plane`: an `Insert` (plus `Seal`, when sealed) per
/// live extent, in global `(file, d_offset)` order — independent of the
/// shard layout, so the bytes (and the torture harness's crash points)
/// are the same at any shard count. The records are encoded as the
/// table is walked; the snapshot is never held as records.
pub(crate) fn encode_plane_checkpoint(
    covers_seq: u64,
    tail_offset: u64,
    plane: &MetadataPlane,
) -> Vec<u8> {
    let sealed = plane
        .iter_extents()
        .filter(|(_, _, e)| e.checksum.is_some())
        .count();
    let records = plane.iter_extents_sorted().flat_map(|(f, o, e)| {
        let insert = JournalRecord::Insert {
            d_file: f,
            d_offset: o,
            len: e.len,
            c_file: e.c_file,
            c_offset: e.c_offset,
            dirty: e.dirty,
        };
        let seal = e.checksum.map(|checksum| JournalRecord::Seal {
            d_file: f,
            d_offset: o,
            checksum,
            len: e.len,
        });
        std::iter::once(insert).chain(seal)
    });
    encode_checkpoint_iter(
        covers_seq,
        tail_offset,
        plane.entry_count() + sealed,
        records,
    )
}

/// The one checkpoint encoder: streams `records` into a buffer sized for
/// `expected` of them. The header's count is what was written, so a
/// wrong `expected` costs a regrowth, never a corrupt snapshot.
fn encode_checkpoint_iter(
    covers_seq: u64,
    tail_offset: u64,
    expected: usize,
    records: impl IntoIterator<Item = JournalRecord>,
) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(CHECKPOINT_HEADER_BYTES + expected * DMT_RECORD_BYTES as usize + 4);
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&covers_seq.to_le_bytes());
    out.extend_from_slice(&tail_offset.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    for r in records {
        out.extend_from_slice(&r.encode());
    }
    let count = (out.len() - CHECKPOINT_HEADER_BYTES) as u64 / DMT_RECORD_BYTES;
    if let Some(field) = out.get_mut(CHECKPOINT_HEADER_BYTES - 8..CHECKPOINT_HEADER_BYTES) {
        field.copy_from_slice(&count.to_le_bytes());
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Deserialises a checkpoint snapshot, all-or-nothing.
///
/// # Errors
///
/// Returns [`CheckpointError`] when the buffer is shorter than the
/// declared snapshot, the magic or CRC do not match, or a record frame is
/// invalid. Trailing bytes beyond the declared length are ignored.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    if bytes.len() < CHECKPOINT_HEADER_BYTES + 4 {
        return Err(CheckpointError::TooShort(bytes.len()));
    }
    if bytes.get(..8) != Some(CHECKPOINT_MAGIC.as_slice()) {
        return Err(CheckpointError::BadMagic);
    }
    let mut header = FrameReader { buf: bytes, at: 8 };
    let covers_seq = header.u64();
    let tail_offset = header.u64();
    let count = header.u64();
    let body =
        (CHECKPOINT_HEADER_BYTES as u64).saturating_add(count.saturating_mul(DMT_RECORD_BYTES));
    let total = body.saturating_add(4);
    if (bytes.len() as u64) < total {
        return Err(CheckpointError::TooShort(bytes.len()));
    }
    let body = body as usize;
    let expected = crc32(bytes.get(..body).unwrap_or_default());
    let mut trailer = FrameReader {
        buf: bytes,
        at: body,
    };
    let found = trailer.u32();
    if expected != found {
        return Err(CheckpointError::BadChecksum { expected, found });
    }
    let records = decode_batch(bytes.get(CHECKPOINT_HEADER_BYTES..body).unwrap_or_default())
        .map_err(CheckpointError::BadRecord)?;
    Ok(Checkpoint {
        covers_seq,
        tail_offset,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use s4d_pfs::FileId;

    const F: FileId = FileId(3);
    const CF: FileId = FileId(9);

    proptest! {
        /// A checkpoint round-trips, and any single bit flip is detected.
        #[test]
        fn prop_checkpoint_roundtrip_and_bitflip(
            seq in 0u64..1000,
            tail in 0u64..(1 << 40),
            n in 0usize..8,
            flip in any::<u64>(),
        ) {
            let records: Vec<JournalRecord> = (0..n as u64)
                .map(|i| JournalRecord::Insert {
                    d_file: F, d_offset: i * 100, len: 50,
                    c_file: CF, c_offset: i * 50, dirty: i % 2 == 0,
                })
                .collect();
            let bytes = encode_checkpoint(seq, tail, &records);
            let ck = decode_checkpoint(&bytes).unwrap();
            prop_assert_eq!(ck.covers_seq, seq);
            prop_assert_eq!(ck.tail_offset, tail);
            prop_assert_eq!(&ck.records, &records);
            let mut corrupt = bytes.clone();
            let bit = (flip % (corrupt.len() as u64 * 8)) as usize;
            corrupt[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(decode_checkpoint(&corrupt).is_err(),
                "bit flip at {} went undetected", bit);
        }
    }

    /// The snapshot the engine built before it streamed: every extent
    /// collected, sorted by `(file, d_offset)`, turned into records, then
    /// encoded.
    fn collect_and_sort(seq: u64, tail: u64, plane: &MetadataPlane) -> Vec<u8> {
        let mut live: Vec<_> = plane.iter_extents().map(|(f, o, e)| (f, o, *e)).collect();
        live.sort_unstable_by_key(|&(f, o, _)| (f.0, o));
        let mut records = Vec::new();
        for (f, o, e) in live {
            records.push(JournalRecord::Insert {
                d_file: f,
                d_offset: o,
                len: e.len,
                c_file: e.c_file,
                c_offset: e.c_offset,
                dirty: e.dirty,
            });
            if let Some(sum) = e.checksum {
                records.push(JournalRecord::Seal {
                    d_file: f,
                    d_offset: o,
                    checksum: sum,
                    len: e.len,
                });
            }
        }
        encode_checkpoint(seq, tail, &records)
    }

    proptest! {
        /// Streaming the table into the snapshot writes the bytes the
        /// collect-and-sort encoding wrote, at every shard count: the
        /// torture harness's crash points are byte offsets into them.
        #[test]
        fn prop_streamed_checkpoint_matches_collect_and_sort(
            extents in proptest::collection::vec(
                (0u64..40, 0u64..96, any::<bool>(), any::<u8>()), 0..160),
            seq in 1u64..100,
        ) {
            const TILE: u64 = 16 * 1024;
            let mut seen = std::collections::BTreeSet::new();
            let mut reference = None;
            for count in [1, 4, 16] {
                let router = crate::shard::ShardRouter::new(count, 4 * TILE);
                let mut plane = MetadataPlane::new(router, 1 << 40, 64);
                seen.clear();
                for (i, &(file, slot, dirty, seal)) in extents.iter().enumerate() {
                    if !seen.insert((file, slot)) {
                        continue;
                    }
                    let (f, o) = (FileId(file * 7919), slot * TILE);
                    plane.insert(f, o, TILE, CF, i as u64 * TILE, dirty);
                    // A quarter of the extents carry a seal.
                    if seal < 64 {
                        prop_assert!(plane.seal_if(f, o, 0, u32::from(seal)));
                    }
                }
                let streamed = encode_plane_checkpoint(seq, 4096, &plane);
                prop_assert_eq!(
                    &streamed,
                    &collect_and_sort(seq, 4096, &plane),
                    "streamed snapshot differs from collect-and-sort at {} shards",
                    count
                );
                // The layout-independent order: the same bytes at any count.
                prop_assert_eq!(reference.get_or_insert_with(|| streamed.clone()), &streamed);
            }
        }
    }

    #[test]
    fn checkpoint_ignores_trailing_stale_bytes() {
        let records = vec![JournalRecord::Insert {
            d_file: F,
            d_offset: 0,
            len: 64,
            c_file: CF,
            c_offset: 0,
            dirty: false,
        }];
        let mut bytes = encode_checkpoint(7, 1234, &records);
        // A shorter snapshot installed over a longer stale one leaves the
        // stale tail in place; decoding must not care.
        bytes.extend_from_slice(&[0xAB; 300]);
        let ck = decode_checkpoint(&bytes).unwrap();
        assert_eq!(ck.covers_seq, 7);
        assert_eq!(ck.records, records);
        // But a torn install (prefix only) is rejected.
        let full = encode_checkpoint(8, 99, &records);
        for cut in 0..full.len() {
            assert!(decode_checkpoint(&full[..cut]).is_err(), "cut {cut}");
        }
        assert!(matches!(
            decode_checkpoint(&[0u8; 64]),
            Err(CheckpointError::BadMagic)
        ));
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        assert!(CheckpointError::TooShort(3).to_string().contains('3'));
        assert!(CheckpointError::BadRecord(JournalError::BadTag(9))
            .to_string()
            .contains("tag 9"));
        assert!(CheckpointError::BadChecksum {
            expected: 1,
            found: 2
        }
        .to_string()
        .contains("checksum"));
    }
}
