//! Sparse extent byte store.
//!
//! File servers in the simulation hold their data in an [`ExtentStore`]: a
//! map of non-overlapping written extents and their bytes. Only
//! functional-mode servers keep one, because the paper-scale experiments
//! move tens of gigabytes, far more than we want resident:
//!
//! * [`StoreMode::Functional`] keeps the actual bytes, so integration tests
//!   can verify end-to-end data integrity through cache redirection,
//!   eviction, and flushing;
//! * [`StoreMode::Timing`] keeps nothing: a server only simulates service
//!   times and queueing, which is all the throughput experiments need.

use std::collections::BTreeMap;

use s4d_sim::{RangeMap, Span};

/// Whether file servers retain data bytes or nothing at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreMode {
    /// Retain actual bytes; reads return data.
    Functional,
    /// Retain nothing: no bytes and no record of which ranges were
    /// written. A timing-mode `Pfs` reports `stored_bytes` and
    /// `covered_bytes` as 0 and `read_bytes` as `Ok(None)`. `apply_bytes`
    /// still runs its fault gate and grows the file size; `copy_into`
    /// changes nothing, so the destination's size does not grow; and
    /// `discard` has nothing to drop.
    Timing,
}

/// A sparse store of written extents and their bytes.
///
/// ```
/// use s4d_storage::ExtentStore;
/// let mut s = ExtentStore::new();
/// s.write(10, 4, Some(b"abcd"));
/// assert_eq!(s.read(8, 8), [0, 0, b'a', b'b', b'c', b'd', 0, 0]);
/// assert_eq!(s.read_covered(8, 8), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExtentStore {
    /// Non-overlapping extents, keyed by start offset, holding their bytes.
    extents: BTreeMap<u64, Vec<u8>>,
}

impl ExtentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ExtentStore::default()
    }

    /// Total bytes currently covered by written extents.
    pub fn written_bytes(&self) -> u64 {
        self.extents.values().map(Span::span_len).sum()
    }

    /// Writes `len` bytes at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is missing or of the wrong length, or if
    /// `offset + len` overflows.
    pub fn write(&mut self, offset: u64, len: u64, data: Option<&[u8]>) {
        if len == 0 {
            return;
        }
        #[expect(
            clippy::expect_used,
            reason = "documented contract above: an extent past u64::MAX has no representation, and clamping it would drop bytes silently"
        )]
        let end = offset.checked_add(len).expect("extent end overflows u64");
        #[expect(
            clippy::expect_used,
            reason = "documented contract above: a functional store that invents bytes would pass the integrity tests it exists for"
        )]
        let d = data.expect("functional store requires data bytes");
        assert!(
            d.len() as u64 == len,
            "data length {} != extent length {len}",
            d.len()
        );
        self.remove_range(offset, end);
        self.insert_coalescing(offset, d.to_vec());
    }

    /// Reads `len` bytes at `offset`, zero-filled over unwritten holes.
    pub fn read(&self, offset: u64, len: u64) -> Vec<u8> {
        let mut data = vec![0u8; len as usize];
        let end = offset.saturating_add(len);
        for (&start, src) in self.extents.overlapping(offset, end) {
            let ext_end = start + src.len() as u64;
            let lo = start.max(offset);
            let hi = ext_end.min(end);
            let dst_at = (lo - offset) as usize;
            let src_at = (lo - start) as usize;
            let n = (hi - lo) as usize;
            if let (Some(dst), Some(src)) = (
                data.get_mut(dst_at..dst_at + n),
                src.get(src_at..src_at + n),
            ) {
                dst.copy_from_slice(src);
            }
        }
        data
    }

    /// True if every byte of `[offset, offset+len)` has been written.
    pub fn covers(&self, offset: u64, len: u64) -> bool {
        self.read_covered(offset, len) == len
    }

    /// Number of bytes of `[offset, offset+len)` inside written extents.
    pub fn read_covered(&self, offset: u64, len: u64) -> u64 {
        let end = offset.saturating_add(len);
        self.extents
            .overlapping(offset, end)
            .map(|(&start, ext)| {
                let ext_end = start + ext.span_len();
                ext_end.min(end) - start.max(offset)
            })
            .sum()
    }

    /// Removes all extents (or parts of extents) in `[offset, offset+len)`.
    pub fn discard(&mut self, offset: u64, len: u64) {
        self.remove_range(offset, offset.saturating_add(len));
    }

    /// Cuts `[lo, hi)` out of the extent map, splitting boundary extents.
    fn remove_range(&mut self, lo: u64, hi: u64) {
        self.extents.remove_range(lo, hi, |_, _| {});
    }

    /// Inserts a fresh extent, merging with direct neighbours when adjacent.
    fn insert_coalescing(&mut self, start: u64, ext: Vec<u8>) {
        self.extents.insert(start, ext);
        self.coalesce_around(start);
    }

    /// Coalesces the extent at `start` with its neighbours where exactly
    /// adjacent. Extents are disjoint and were coalesced before, so at
    /// most one neighbour on each side can touch it.
    fn coalesce_around(&mut self, start: u64) {
        let Some(len) = self.extents.get(&start).map(Vec::len) else {
            return;
        };
        if let Some(right) = self.extents.remove(&(start + len as u64)) {
            if let Some(cur) = self.extents.get_mut(&start) {
                cur.extend_from_slice(&right);
            }
        }
        let left = self.extents.range(..start).next_back();
        let Some(ls) = left.and_then(|(&ls, le)| (ls + le.span_len() == start).then_some(ls))
        else {
            return;
        };
        if let Some(cur) = self.extents.remove(&start) {
            if let Some(left) = self.extents.get_mut(&ls) {
                left.extend_from_slice(&cur);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_functional() {
        let mut s = ExtentStore::new();
        s.write(100, 5, Some(b"hello"));
        assert_eq!(s.read(100, 5), b"hello");
        assert!(s.covers(100, 5));
        assert_eq!(s.written_bytes(), 5);
    }

    #[test]
    fn holes_read_as_zeroes() {
        let mut s = ExtentStore::new();
        s.write(10, 2, Some(b"ab"));
        assert_eq!(s.read(8, 6), [0, 0, b'a', b'b', 0, 0]);
        assert_eq!(s.read_covered(8, 6), 2);
        assert!(!s.covers(8, 6));
    }

    #[test]
    fn overwrite_replaces_overlap() {
        let mut s = ExtentStore::new();
        s.write(0, 8, Some(b"AAAAAAAA"));
        s.write(2, 4, Some(b"bbbb"));
        assert_eq!(s.read(0, 8), b"AAbbbbAA");
        assert_eq!(s.written_bytes(), 8);
    }

    #[test]
    fn adjacent_writes_coalesce() {
        let mut s = ExtentStore::new();
        s.write(0, 4, Some(b"aaaa"));
        s.write(4, 4, Some(b"bbbb"));
        s.write(8, 4, Some(b"cccc"));
        assert_eq!(s.extents.len(), 1);
        assert_eq!(s.read(0, 12), b"aaaabbbbcccc");
    }

    #[test]
    fn coalesce_left_then_right_bridging() {
        let mut s = ExtentStore::new();
        s.write(0, 4, Some(b"aaaa"));
        s.write(8, 4, Some(b"cccc"));
        assert_eq!(s.extents.len(), 2);
        s.write(4, 4, Some(b"bbbb")); // bridges both neighbours
        assert_eq!(s.extents.len(), 1);
        assert_eq!(s.read(0, 12), b"aaaabbbbcccc");
    }

    #[test]
    fn discard_splits_extents() {
        let mut s = ExtentStore::new();
        s.write(0, 10, Some(b"0123456789"));
        s.discard(3, 4);
        assert_eq!(s.written_bytes(), 6);
        assert_eq!(s.extents.len(), 2);
        assert_eq!(
            s.read(0, 10),
            [b'0', b'1', b'2', 0, 0, 0, 0, b'7', b'8', b'9']
        );
        assert!(s.covers(0, 3));
        assert!(!s.covers(2, 3));
        assert!(s.covers(7, 3));
    }

    #[test]
    fn zero_length_ops_are_noops() {
        let mut s = ExtentStore::new();
        s.write(5, 0, Some(b""));
        assert_eq!(s.written_bytes(), 0);
        assert!(s.read(5, 0).is_empty());
        assert_eq!(s.read_covered(5, 0), 0);
        s.discard(5, 0);
    }

    #[test]
    #[should_panic(expected = "functional store requires data")]
    fn functional_write_requires_data() {
        ExtentStore::new().write(0, 4, None);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn functional_write_checks_length() {
        ExtentStore::new().write(0, 4, Some(b"xy"));
    }

    // Model-based property test: the extent store must agree with a plain
    // byte array on every read, and written_bytes must equal the count of
    // written positions.
    proptest! {
        #[test]
        fn prop_matches_naive_model(
            ops in proptest::collection::vec(
                (0u64..256, 1u64..64, any::<u8>(), any::<bool>()),
                1..60
            )
        ) {
            const N: usize = 512;
            let mut model: Vec<Option<u8>> = vec![None; N];
            let mut store = ExtentStore::new();
            for (off, len, byte, is_discard) in ops {
                let len = len.min(N as u64 - off);
                if len == 0 { continue; }
                if is_discard {
                    store.discard(off, len);
                    for i in off..off + len {
                        model[i as usize] = None;
                    }
                } else {
                    let data = vec![byte; len as usize];
                    store.write(off, len, Some(&data));
                    for i in off..off + len {
                        model[i as usize] = Some(byte);
                    }
                }
            }
            // Full-range read agrees with the model.
            let got = store.read(0, N as u64);
            for i in 0..N {
                prop_assert_eq!(got[i], model[i].unwrap_or(0), "mismatch at {}", i);
            }
            let written = model.iter().filter(|b| b.is_some()).count() as u64;
            prop_assert_eq!(store.read_covered(0, N as u64), written);
            prop_assert_eq!(store.written_bytes(), written);
        }
    }
}
