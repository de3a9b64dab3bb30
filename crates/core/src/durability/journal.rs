//! DMT journal records and crash recovery.
//!
//! The paper persists every Data Mapping Table change synchronously "in
//! order to survive power failures" (§III.D), storing records of six
//! four-byte fields in a Berkeley DB file on CServers. This module gives
//! the reproduction the same property *verifiably*: every DMT mutation
//! emits a fixed-size CRC32-framed [`JournalRecord`], and
//! [`replay_tolerant`] reconstructs the mapping table (and, through
//! [`crate::SpaceManager::rebuild`], the cache-space allocator) from the
//! record stream alone. The crash-recovery integration tests run a
//! workload, "power-fail" the middleware, rebuild it from the journal
//! file on CPFS ([`crate::S4dCache::recover_from_cluster`]), and verify
//! that every byte still reads back correctly.
//!
//! A crash can tear the final record (partial write) or storage can flip
//! bits anywhere in the stream. [`decode_prefix`] therefore recovers the
//! longest valid prefix: it stops at the first frame whose CRC or tag does
//! not verify and at a partial final frame, reporting what was dropped
//! instead of failing the whole recovery. Stopping (rather than skipping a
//! bad frame and continuing) is deliberate — later records can depend on
//! earlier ones (a skipped `Remove` followed by an overlapping `Insert`
//! would corrupt the table), while every *prefix* of the journal is a
//! consistent mapping by construction.

use s4d_pfs::FileId;

use crate::{DMT_PAYLOAD_BYTES, DMT_RECORD_BYTES};

pub use super::checkpoint::{
    decode_checkpoint, encode_checkpoint, Checkpoint, CheckpointError, CHECKPOINT_HEADER_BYTES,
    CHECKPOINT_MAGIC,
};
pub use super::crc::crc32;
pub use super::replay::replay_tolerant;

/// One persisted DMT mutation.
///
/// Encodes to exactly [`DMT_RECORD_BYTES`] (28) bytes: a 24-byte payload —
/// the record size the paper's §V.E.1 metadata-overhead analysis assumes —
/// followed by a CRC32 trailer over the payload. Field widths: file ids 24
/// bits, offsets 48 bits (256 TiB), lengths 32 bits (4 GiB per extent),
/// which comfortably cover the simulated deployments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecord {
    /// A new extent mapping was created.
    Insert {
        /// Original file.
        d_file: FileId,
        /// Offset in the original file.
        d_offset: u64,
        /// Extent length.
        len: u64,
        /// Cache file.
        c_file: FileId,
        /// Offset in the cache file.
        c_offset: u64,
        /// Initial dirty flag.
        dirty: bool,
    },
    /// A range was overwritten in the cache: mark it dirty (splitting
    /// boundary extents exactly as the live table did).
    SetDirty {
        /// Original file.
        d_file: FileId,
        /// Range offset.
        d_offset: u64,
        /// Range length.
        len: u64,
    },
    /// A flush completed: the extent starting here is clean.
    SetClean {
        /// Original file.
        d_file: FileId,
        /// Extent start.
        d_offset: u64,
    },
    /// An extent was evicted.
    Remove {
        /// Original file.
        d_file: FileId,
        /// Extent start.
        d_offset: u64,
    },
    /// The extent's cached bytes were verified: a content checksum was
    /// attached to the mapping. The length is part of the record so a
    /// seal never applies to an extent that was split or re-created with
    /// different bounds after the seal was journaled.
    Seal {
        /// Original file.
        d_file: FileId,
        /// Extent start.
        d_offset: u64,
        /// CRC32 of the extent's cached bytes.
        checksum: u32,
        /// Extent length the checksum covers.
        len: u64,
    },
    /// The Rebuilder is about to flush the dirty run starting here; the
    /// matching `SetClean` records are the commit. An intent without a
    /// commit after recovery means the flush may have partially reached
    /// DServers — harmless, because flushing re-writes the same bytes and
    /// the extents stay dirty until a commit lands.
    FlushIntent {
        /// Original file.
        d_file: FileId,
        /// First extent of the flush group.
        d_offset: u64,
    },
}

/// Failure to decode a journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalError {
    /// The record tag byte is not a known kind.
    BadTag(u8),
    /// The buffer is not exactly [`DMT_RECORD_BYTES`] long.
    BadLength(usize),
    /// The CRC32 trailer does not match the payload (bit-flip in flight or
    /// at rest).
    BadChecksum {
        /// CRC32 recomputed over the payload.
        expected: u32,
        /// CRC32 stored in the frame trailer.
        found: u32,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::BadTag(t) => write!(f, "unknown journal record tag {t}"),
            JournalError::BadLength(n) => {
                write!(
                    f,
                    "journal record must be {DMT_RECORD_BYTES} bytes, got {n}"
                )
            }
            JournalError::BadChecksum { expected, found } => write!(
                f,
                "journal record checksum mismatch: computed {expected:#010x}, stored {found:#010x}"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// Sequential little-endian writer over a fixed frame buffer.
///
/// All field widths in the on-disk layout are laid out back-to-back, so
/// encoding never needs random offsets; bounds are checked (a write past
/// the frame is truncated, which the encode/decode round-trip tests would
/// catch immediately) instead of panicking.
struct FrameWriter {
    buf: [u8; DMT_RECORD_BYTES as usize],
    at: usize,
}

impl FrameWriter {
    fn new() -> Self {
        FrameWriter {
            buf: [0u8; DMT_RECORD_BYTES as usize],
            at: 0,
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        for (dst, src) in self.buf.iter_mut().skip(self.at).zip(bytes) {
            *dst = *src;
        }
        self.at += bytes.len();
    }

    fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    fn put_u24(&mut self, v: u64) {
        debug_assert!(v < (1 << 24), "file id exceeds 24 bits");
        self.put((v as u32).to_le_bytes().get(..3).unwrap_or_default());
    }

    fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    fn put_u48(&mut self, v: u64) {
        debug_assert!(v < (1 << 48), "offset exceeds 48 bits");
        self.put(v.to_le_bytes().get(..6).unwrap_or_default());
    }

    /// Seeks to `at` (the CRC trailer position).
    fn seek(&mut self, at: usize) {
        self.at = at;
    }
}

/// Sequential little-endian reader over a byte slice. Reads past the end
/// yield zero bytes — callers length-check the frame before decoding, so
/// that path is never taken on well-formed input and a truncated frame
/// fails its CRC rather than panicking. Shared with the checkpoint codec
/// ([`super::checkpoint`]), which frames its header the same way.
pub(super) struct FrameReader<'a> {
    pub(super) buf: &'a [u8],
    pub(super) at: usize,
}

impl FrameReader<'_> {
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        for (dst, src) in out.iter_mut().zip(self.buf.iter().skip(self.at)) {
            *dst = *src;
        }
        self.at += N;
        out
    }

    fn u8(&mut self) -> u8 {
        let [b] = self.take::<1>();
        b
    }

    fn u24(&mut self) -> u64 {
        let [a, b, c] = self.take::<3>();
        u64::from(a) | u64::from(b) << 8 | u64::from(c) << 16
    }

    pub(super) fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take::<4>())
    }

    fn u48(&mut self) -> u64 {
        let [a, b, c, d, e, f] = self.take::<6>();
        u64::from_le_bytes([a, b, c, d, e, f, 0, 0])
    }

    pub(super) fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take::<8>())
    }
}

impl JournalRecord {
    /// Serialises to the fixed on-disk layout.
    ///
    /// # Panics
    ///
    /// Debug-panics if a field exceeds its encoded width (file ids 24 bits,
    /// offsets 48 bits, lengths 32 bits).
    pub fn encode(&self) -> [u8; DMT_RECORD_BYTES as usize] {
        const PAYLOAD: usize = DMT_PAYLOAD_BYTES as usize;
        let mut w = FrameWriter::new();
        // Common prefix: tag, d_file, d_offset — then per-kind fields,
        // all laid out back-to-back.
        let (tag, d_file, d_offset) = match *self {
            JournalRecord::Insert {
                d_file, d_offset, ..
            } => (1u8, d_file, d_offset),
            JournalRecord::SetDirty {
                d_file, d_offset, ..
            } => (2, d_file, d_offset),
            JournalRecord::SetClean { d_file, d_offset } => (3, d_file, d_offset),
            JournalRecord::Remove { d_file, d_offset } => (4, d_file, d_offset),
            JournalRecord::Seal {
                d_file, d_offset, ..
            } => (5, d_file, d_offset),
            JournalRecord::FlushIntent { d_file, d_offset } => (6, d_file, d_offset),
        };
        w.put_u8(tag);
        w.put_u24(d_file.0);
        w.put_u48(d_offset);
        match *self {
            JournalRecord::Insert {
                len,
                c_file,
                c_offset,
                dirty,
                ..
            } => {
                debug_assert!(len < (1 << 32), "extent length exceeds 32 bits");
                w.put_u32(len as u32);
                w.put_u24(c_file.0);
                w.put_u48(c_offset);
                w.put_u8(u8::from(dirty));
            }
            JournalRecord::SetDirty { len, .. } => {
                debug_assert!(len < (1 << 32));
                w.put_u32(len as u32);
            }
            JournalRecord::Seal { checksum, len, .. } => {
                w.put_u32(checksum);
                debug_assert!(len < (1 << 32));
                w.put_u32(len as u32);
            }
            JournalRecord::SetClean { .. }
            | JournalRecord::Remove { .. }
            | JournalRecord::FlushIntent { .. } => {}
        }
        let crc = crc32(w.buf.get(..PAYLOAD).unwrap_or_default());
        w.seek(PAYLOAD);
        w.put_u32(crc);
        w.buf
    }

    /// Deserialises from the fixed on-disk layout.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError`] on wrong length, checksum mismatch, or
    /// unknown tag.
    pub fn decode(buf: &[u8]) -> Result<Self, JournalError> {
        if buf.len() != DMT_RECORD_BYTES as usize {
            return Err(JournalError::BadLength(buf.len()));
        }
        let payload = buf.get(..DMT_PAYLOAD_BYTES as usize).unwrap_or_default();
        let expected = crc32(payload);
        let mut trailer = FrameReader {
            buf,
            at: DMT_PAYLOAD_BYTES as usize,
        };
        let found = trailer.u32();
        if expected != found {
            return Err(JournalError::BadChecksum { expected, found });
        }
        let mut r = FrameReader { buf, at: 0 };
        let tag = r.u8();
        let d_file = FileId(r.u24());
        let d_offset = r.u48();
        match tag {
            1 => {
                let len = u64::from(r.u32());
                Ok(JournalRecord::Insert {
                    d_file,
                    d_offset,
                    len,
                    c_file: FileId(r.u24()),
                    c_offset: r.u48(),
                    dirty: r.u8() != 0,
                })
            }
            2 => Ok(JournalRecord::SetDirty {
                d_file,
                d_offset,
                len: u64::from(r.u32()),
            }),
            3 => Ok(JournalRecord::SetClean { d_file, d_offset }),
            4 => Ok(JournalRecord::Remove { d_file, d_offset }),
            5 => Ok(JournalRecord::Seal {
                d_file,
                d_offset,
                checksum: r.u32(),
                len: u64::from(r.u32()),
            }),
            6 => Ok(JournalRecord::FlushIntent { d_file, d_offset }),
            t => Err(JournalError::BadTag(t)),
        }
    }

    /// The durable key `(d_file, d_offset)` of the mutation — the input to
    /// shard routing. Every record kind carries it, so a group-commit
    /// batch can be split back into per-shard record runs when a failed
    /// batch requeues and when recovery replays shard-tagged records.
    pub fn d_key(&self) -> (FileId, u64) {
        match *self {
            JournalRecord::Insert {
                d_file, d_offset, ..
            }
            | JournalRecord::SetDirty {
                d_file, d_offset, ..
            }
            | JournalRecord::SetClean { d_file, d_offset }
            | JournalRecord::Remove { d_file, d_offset }
            | JournalRecord::Seal {
                d_file, d_offset, ..
            }
            | JournalRecord::FlushIntent { d_file, d_offset } => (d_file, d_offset),
        }
    }
}

/// Serialises a batch of records into one journal write payload.
pub fn encode_batch(records: &[JournalRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * DMT_RECORD_BYTES as usize);
    for r in records {
        out.extend_from_slice(&r.encode());
    }
    out
}

/// Parses a journal byte stream back into records.
///
/// # Errors
///
/// Returns [`JournalError`] if the stream length is not a multiple of the
/// record size or a record fails to decode.
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<JournalRecord>, JournalError> {
    if !bytes.len().is_multiple_of(DMT_RECORD_BYTES as usize) {
        return Err(JournalError::BadLength(bytes.len()));
    }
    bytes
        .chunks_exact(DMT_RECORD_BYTES as usize)
        .map(JournalRecord::decode)
        .collect()
}

/// Outcome of tolerant journal decoding ([`decode_prefix`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredJournal {
    /// The longest valid record prefix of the stream.
    pub records: Vec<JournalRecord>,
    /// Bytes past the valid prefix that were dropped (torn tail and/or a
    /// corrupted frame plus everything after it).
    pub dropped_bytes: u64,
    /// The error that ended decoding, if the stream did not end cleanly at
    /// a frame boundary. `Some(BadLength)` means only a torn final frame;
    /// `Some(BadChecksum)`/`Some(BadTag)` mean real corruption.
    pub truncated_by: Option<JournalError>,
}

impl RecoveredJournal {
    /// True if the whole stream decoded (nothing dropped).
    pub fn is_clean(&self) -> bool {
        self.dropped_bytes == 0 && self.truncated_by.is_none()
    }
}

/// Decodes the longest valid prefix of a journal byte stream.
///
/// Unlike [`decode_batch`], this never fails: a torn final frame (partial
/// write during a crash) is truncated, and a frame with a checksum or tag
/// error ends decoding at the last good record. Everything before the
/// first bad frame is returned; see the module docs for why decoding stops
/// rather than skipping.
pub fn decode_prefix(bytes: &[u8]) -> RecoveredJournal {
    let frame = DMT_RECORD_BYTES as usize;
    let mut records = Vec::with_capacity(bytes.len() / frame);
    let mut at = 0usize;
    let mut truncated_by = None;
    while at < bytes.len() {
        let end = at + frame.min(bytes.len() - at);
        match JournalRecord::decode(bytes.get(at..end).unwrap_or_default()) {
            Ok(r) => {
                records.push(r);
                at = end;
            }
            Err(e) => {
                truncated_by = Some(e);
                break;
            }
        }
    }
    RecoveredJournal {
        records,
        dropped_bytes: (bytes.len() - at) as u64,
        truncated_by,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const F: FileId = FileId(3);
    const CF: FileId = FileId(9);

    #[test]
    fn record_roundtrips() {
        let records = [
            JournalRecord::Insert {
                d_file: F,
                d_offset: 123_456_789,
                len: 16384,
                c_file: CF,
                c_offset: 987_654,
                dirty: true,
            },
            JournalRecord::SetDirty {
                d_file: F,
                d_offset: 42,
                len: 4096,
            },
            JournalRecord::SetClean {
                d_file: F,
                d_offset: 0,
            },
            JournalRecord::Remove {
                d_file: FileId((1 << 24) - 1),
                d_offset: (1 << 48) - 1,
            },
            JournalRecord::Seal {
                d_file: F,
                d_offset: 8192,
                checksum: 0xDEAD_BEEF,
                len: (1 << 32) - 1,
            },
            JournalRecord::FlushIntent {
                d_file: F,
                d_offset: 77,
            },
        ];
        for r in records {
            let encoded = r.encode();
            assert_eq!(encoded.len(), DMT_RECORD_BYTES as usize);
            assert_eq!(JournalRecord::decode(&encoded).unwrap(), r);
        }
    }

    #[test]
    fn batch_roundtrips() {
        let records = vec![
            JournalRecord::SetClean {
                d_file: F,
                d_offset: 10,
            },
            JournalRecord::Remove {
                d_file: F,
                d_offset: 20,
            },
        ];
        let bytes = encode_batch(&records);
        assert_eq!(bytes.len(), 2 * DMT_RECORD_BYTES as usize);
        assert_eq!(decode_batch(&bytes).unwrap(), records);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            JournalRecord::decode(&[0u8; 10]),
            Err(JournalError::BadLength(10))
        );
        let mut bad = JournalRecord::SetClean {
            d_file: F,
            d_offset: 7,
        }
        .encode();
        bad[0] = 99; // breaks both the tag and the checksum
        assert!(matches!(
            JournalRecord::decode(&bad),
            Err(JournalError::BadChecksum { .. })
        ));
        // Valid checksum over an invalid tag: still rejected.
        bad[0] = 99;
        let crc = crc32(&bad[..DMT_PAYLOAD_BYTES as usize]);
        bad[DMT_PAYLOAD_BYTES as usize..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(JournalRecord::decode(&bad), Err(JournalError::BadTag(99)));
        assert_eq!(
            decode_batch(&[0u8; DMT_RECORD_BYTES as usize + 1]),
            Err(JournalError::BadLength(DMT_RECORD_BYTES as usize + 1))
        );
        assert!(JournalError::BadTag(9).to_string().contains("tag 9"));
        assert!(JournalError::BadLength(1).to_string().contains("28 bytes"));
        assert!(JournalError::BadChecksum {
            expected: 1,
            found: 2
        }
        .to_string()
        .contains("checksum"));
    }

    #[test]
    fn flipping_any_single_bit_is_detected() {
        let record = JournalRecord::Insert {
            d_file: F,
            d_offset: 123_456,
            len: 16384,
            c_file: CF,
            c_offset: 777,
            dirty: false,
        };
        let good = record.encode();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut flipped = good;
                flipped[byte] ^= 1 << bit;
                assert!(
                    JournalRecord::decode(&flipped).is_err(),
                    "bit flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn decode_prefix_truncates_torn_tail() {
        let records = vec![
            JournalRecord::SetClean {
                d_file: F,
                d_offset: 10,
            },
            JournalRecord::Remove {
                d_file: F,
                d_offset: 20,
            },
        ];
        let mut bytes = encode_batch(&records);
        // A crash tears the final record mid-write.
        bytes.extend_from_slice(
            &JournalRecord::SetClean {
                d_file: F,
                d_offset: 30,
            }
            .encode()[..11],
        );
        let out = decode_prefix(&bytes);
        assert_eq!(out.records, records);
        assert_eq!(out.dropped_bytes, 11);
        assert_eq!(out.truncated_by, Some(JournalError::BadLength(11)));
        assert!(!out.is_clean());

        let clean = decode_prefix(&encode_batch(&records));
        assert!(clean.is_clean());
        assert_eq!(clean.records, records);
    }

    #[test]
    fn decode_prefix_stops_at_corruption() {
        let records: Vec<JournalRecord> = (0..5)
            .map(|i| JournalRecord::SetClean {
                d_file: F,
                d_offset: i * 100,
            })
            .collect();
        let mut bytes = encode_batch(&records);
        // Flip one bit in the third record's payload.
        bytes[2 * DMT_RECORD_BYTES as usize + 5] ^= 0x40;
        let out = decode_prefix(&bytes);
        assert_eq!(out.records, records[..2]);
        assert_eq!(out.dropped_bytes, 3 * DMT_RECORD_BYTES);
        assert!(matches!(
            out.truncated_by,
            Some(JournalError::BadChecksum { .. })
        ));
    }

    proptest! {
        /// encode/decode is a bijection over the record space.
        #[test]
        fn prop_codec_roundtrip(
            tag in 1u8..7,
            d_file in 0u64..(1 << 24),
            d_offset in 0u64..(1 << 48),
            len in 0u64..(1 << 32),
            c_file in 0u64..(1 << 24),
            c_offset in 0u64..(1 << 48),
            dirty in any::<bool>(),
        ) {
            let r = match tag {
                1 => JournalRecord::Insert {
                    d_file: FileId(d_file), d_offset, len,
                    c_file: FileId(c_file), c_offset, dirty,
                },
                2 => JournalRecord::SetDirty { d_file: FileId(d_file), d_offset, len },
                3 => JournalRecord::SetClean { d_file: FileId(d_file), d_offset },
                4 => JournalRecord::Remove { d_file: FileId(d_file), d_offset },
                5 => JournalRecord::Seal {
                    d_file: FileId(d_file), d_offset,
                    checksum: (c_offset & 0xFFFF_FFFF) as u32, len,
                },
                _ => JournalRecord::FlushIntent { d_file: FileId(d_file), d_offset },
            };
            prop_assert_eq!(JournalRecord::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn d_key_is_the_routing_key_of_every_kind() {
        let records = [
            JournalRecord::Insert {
                d_file: F,
                d_offset: 11,
                len: 4,
                c_file: CF,
                c_offset: 0,
                dirty: false,
            },
            JournalRecord::SetDirty {
                d_file: F,
                d_offset: 22,
                len: 4,
            },
            JournalRecord::SetClean {
                d_file: F,
                d_offset: 33,
            },
            JournalRecord::Remove {
                d_file: F,
                d_offset: 44,
            },
            JournalRecord::Seal {
                d_file: F,
                d_offset: 55,
                checksum: 1,
                len: 4,
            },
            JournalRecord::FlushIntent {
                d_file: F,
                d_offset: 66,
            },
        ];
        let keys: Vec<u64> = records.iter().map(|r| r.d_key().1).collect();
        assert_eq!(keys, vec![11, 22, 33, 44, 55, 66]);
        assert!(records.iter().all(|r| r.d_key().0 == F));
    }
}
