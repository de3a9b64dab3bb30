//! Sparse extent byte store.
//!
//! File servers in the simulation hold their data in an [`ExtentStore`]: a
//! map of non-overlapping written extents. Two modes exist because the
//! paper-scale experiments move tens of gigabytes — far more than we want
//! resident:
//!
//! * [`StoreMode::Functional`] keeps the actual bytes, so integration tests
//!   can verify end-to-end data integrity through cache redirection,
//!   eviction, and flushing;
//! * [`StoreMode::Timing`] keeps only extent metadata (what has been
//!   written), which is all the throughput experiments need.

use std::collections::BTreeMap;

/// Whether a store retains data bytes or only extent metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreMode {
    /// Retain actual bytes; reads return data.
    Functional,
    /// Retain only which ranges were written; reads return no data.
    Timing,
}

#[derive(Debug, Clone)]
struct Extent {
    len: u64,
    /// Present exactly when the store is functional.
    data: Option<Vec<u8>>,
}

impl Extent {
    /// Appends `right`, which starts exactly where this extent ends.
    fn absorb(&mut self, right: Extent) {
        if let (Some(ld), Some(rd)) = (self.data.as_mut(), right.data.as_ref()) {
            ld.extend_from_slice(rd);
        }
        self.len += right.len;
    }
}

/// Outcome of a read against an [`ExtentStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The bytes read, zero-filled over unwritten holes. `None` in timing
    /// mode.
    pub data: Option<Vec<u8>>,
    /// How many of the requested bytes fell inside written extents.
    pub covered_bytes: u64,
}

impl ReadOutcome {
    /// True if every requested byte had been written before.
    pub fn fully_covered(&self, len: u64) -> bool {
        self.covered_bytes == len
    }
}

/// A sparse store of written extents, optionally holding the bytes.
///
/// ```
/// use s4d_storage::{ExtentStore, StoreMode};
/// let mut s = ExtentStore::new(StoreMode::Functional);
/// s.write(10, 4, Some(b"abcd"));
/// let r = s.read(8, 8);
/// assert_eq!(r.data.as_deref(), Some(&[0, 0, b'a', b'b', b'c', b'd', 0, 0][..]));
/// assert_eq!(r.covered_bytes, 4);
/// ```
#[derive(Debug, Clone)]
pub struct ExtentStore {
    mode: StoreMode,
    /// Non-overlapping extents keyed by start offset.
    extents: BTreeMap<u64, Extent>,
    written: u64,
}

impl ExtentStore {
    /// Creates an empty store in the given mode.
    pub fn new(mode: StoreMode) -> Self {
        ExtentStore {
            mode,
            extents: BTreeMap::new(),
            written: 0,
        }
    }

    /// The store's mode.
    pub fn mode(&self) -> StoreMode {
        self.mode
    }

    /// Total bytes currently covered by written extents.
    pub fn written_bytes(&self) -> u64 {
        self.written
    }

    /// Number of distinct extents (after coalescing).
    #[cfg(test)]
    fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// Writes `len` bytes at `offset`.
    ///
    /// In functional mode `data` must be `Some` with exactly `len` bytes; in
    /// timing mode `data` is ignored.
    ///
    /// # Panics
    ///
    /// Panics in functional mode if `data` is missing or of the wrong
    /// length, or if `offset + len` overflows.
    pub fn write(&mut self, offset: u64, len: u64, data: Option<&[u8]>) {
        if len == 0 {
            return;
        }
        #[expect(
            clippy::expect_used,
            reason = "documented contract above: an extent past u64::MAX has no representation, and clamping it would drop bytes silently"
        )]
        let end = offset.checked_add(len).expect("extent end overflows u64");
        let keep = match self.mode {
            StoreMode::Functional => {
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
                Some(d.to_vec())
            }
            StoreMode::Timing => {
                if self.grow_in_place(offset, end) {
                    return;
                }
                None
            }
        };
        self.remove_range(offset, end);
        self.insert_coalescing(offset, Extent { len, data: keep });
    }

    /// Reads `len` bytes at `offset`.
    pub fn read(&self, offset: u64, len: u64) -> ReadOutcome {
        let mut covered = 0u64;
        let mut data = match self.mode {
            StoreMode::Functional => Some(vec![0u8; len as usize]),
            StoreMode::Timing => None,
        };
        if len == 0 {
            return ReadOutcome {
                data,
                covered_bytes: 0,
            };
        }
        let end = offset.saturating_add(len);
        for (&start, ext) in self.overlapping(offset, end) {
            let ext_end = start + ext.len;
            let lo = start.max(offset);
            let hi = ext_end.min(end);
            covered += hi - lo;
            if let (Some(buf), Some(src)) = (data.as_mut(), ext.data.as_ref()) {
                let dst_at = (lo - offset) as usize;
                let src_at = (lo - start) as usize;
                let n = (hi - lo) as usize;
                if let (Some(dst), Some(src)) =
                    (buf.get_mut(dst_at..dst_at + n), src.get(src_at..src_at + n))
                {
                    dst.copy_from_slice(src);
                }
            }
        }
        ReadOutcome {
            data,
            covered_bytes: covered,
        }
    }

    /// True if every byte of `[offset, offset+len)` has been written.
    pub fn covers(&self, offset: u64, len: u64) -> bool {
        self.read_covered(offset, len) == len
    }

    /// Number of bytes of `[offset, offset+len)` inside written extents.
    pub fn read_covered(&self, offset: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let end = offset.saturating_add(len);
        self.overlapping(offset, end)
            .map(|(&start, ext)| {
                let ext_end = start + ext.len;
                ext_end.min(end) - start.max(offset)
            })
            .sum()
    }

    /// Removes all extents (or parts of extents) in `[offset, offset+len)`.
    pub fn discard(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.remove_range(offset, offset.saturating_add(len));
    }

    /// Clears the entire store.
    pub fn clear(&mut self) {
        self.extents.clear();
        self.written = 0;
    }

    /// Iterator over extents intersecting `[lo, hi)`.
    fn overlapping(&self, lo: u64, hi: u64) -> impl Iterator<Item = (&u64, &Extent)> {
        // The first candidate may start before `lo` and still overlap.
        let first = self
            .extents
            .range(..=lo)
            .next_back()
            .filter(|(&s, e)| s + e.len > lo)
            .map(|(s, _)| *s);
        let lower = first.unwrap_or(lo);
        self.extents
            .range(lower..hi)
            .filter(move |(&s, e)| s < hi && s + e.len > lo)
    }

    /// Records a data-less write of `[offset, end)` when that changes at
    /// most one extent: nothing if an extent already covers the range,
    /// a longer extent if the range starts inside or right after one and
    /// reaches no other. Returns false, having changed nothing, when the
    /// write must split, bridge or create extents.
    fn grow_in_place(&mut self, offset: u64, end: u64) -> bool {
        // The last extent starting at or before `end`: if it starts at or
        // before `offset` too, no other extent can touch `[offset, end]`.
        let Some((&start, ext)) = self.extents.range_mut(..=end).next_back() else {
            return false;
        };
        let ext_end = start + ext.len;
        if start > offset || ext_end < offset {
            return false;
        }
        if ext_end < end {
            self.written += end - ext_end;
            ext.len = end - start;
        }
        true
    }

    /// Cuts `[lo, hi)` out of the extent map, splitting boundary extents.
    fn remove_range(&mut self, lo: u64, hi: u64) {
        // Each pass removes the first overlapping extent; what survives of
        // it lies outside `[lo, hi)`, so the next pass finds the next one.
        // Extents are disjoint: one that reaches `hi` is the last.
        loop {
            let first = self.overlapping(lo, hi).next().map(|(&s, _)| s);
            let Some(start) = first else { return };
            let Some(ext) = self.extents.remove(&start) else {
                return;
            };
            let end = start + ext.len;
            self.written -= ext.len;
            if start < lo {
                // Left remainder survives.
                let keep = lo - start;
                let data = ext
                    .data
                    .as_ref()
                    .and_then(|d| d.get(..keep as usize))
                    .map(<[u8]>::to_vec);
                self.written += keep;
                self.extents.insert(start, Extent { len: keep, data });
            }
            if end > hi {
                // Right remainder survives.
                let keep = end - hi;
                let data = ext
                    .data
                    .as_ref()
                    .and_then(|d| d.get((hi - start) as usize..))
                    .map(<[u8]>::to_vec);
                self.written += keep;
                self.extents.insert(hi, Extent { len: keep, data });
            }
            if end >= hi {
                return;
            }
        }
    }

    /// Inserts a fresh extent, merging with direct neighbours when adjacent.
    fn insert_coalescing(&mut self, start: u64, ext: Extent) {
        self.written += ext.len;
        self.extents.insert(start, ext);
        self.coalesce_around(start);
    }

    /// Coalesces the extent at `start` with adjacent neighbours.
    fn coalesce_around(&mut self, start: u64) {
        // Merge right neighbours while exactly adjacent: extents are
        // disjoint, so one keyed at this extent's end is the next one.
        loop {
            let Some(len) = self.extents.get(&start).map(|e| e.len) else {
                return;
            };
            let Some(right) = self.extents.remove(&(start + len)) else {
                break;
            };
            if let Some(cur) = self.extents.get_mut(&start) {
                cur.absorb(right);
            }
        }
        // Merge into the left neighbour if exactly adjacent.
        let left = self.extents.range(..start).next_back();
        let Some(ls) = left.and_then(|(&ls, le)| (ls + le.len == start).then_some(ls)) else {
            return;
        };
        let Some(cur) = self.extents.remove(&start) else {
            return;
        };
        if let Some(left) = self.extents.get_mut(&ls) {
            left.absorb(cur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_functional() {
        let mut s = ExtentStore::new(StoreMode::Functional);
        s.write(100, 5, Some(b"hello"));
        let r = s.read(100, 5);
        assert_eq!(r.data.as_deref(), Some(&b"hello"[..]));
        assert!(r.fully_covered(5));
        assert_eq!(s.written_bytes(), 5);
    }

    #[test]
    fn holes_read_as_zeroes() {
        let mut s = ExtentStore::new(StoreMode::Functional);
        s.write(10, 2, Some(b"ab"));
        let r = s.read(8, 6);
        assert_eq!(r.data.as_deref(), Some(&[0, 0, b'a', b'b', 0, 0][..]));
        assert_eq!(r.covered_bytes, 2);
        assert!(!r.fully_covered(6));
    }

    #[test]
    fn overwrite_replaces_overlap() {
        let mut s = ExtentStore::new(StoreMode::Functional);
        s.write(0, 8, Some(b"AAAAAAAA"));
        s.write(2, 4, Some(b"bbbb"));
        let r = s.read(0, 8);
        assert_eq!(r.data.as_deref(), Some(&b"AAbbbbAA"[..]));
        assert_eq!(s.written_bytes(), 8);
    }

    #[test]
    fn adjacent_writes_coalesce() {
        let mut s = ExtentStore::new(StoreMode::Functional);
        s.write(0, 4, Some(b"aaaa"));
        s.write(4, 4, Some(b"bbbb"));
        s.write(8, 4, Some(b"cccc"));
        assert_eq!(s.extent_count(), 1);
        assert_eq!(s.read(0, 12).data.as_deref(), Some(&b"aaaabbbbcccc"[..]));
    }

    #[test]
    fn coalesce_left_then_right_bridging() {
        let mut s = ExtentStore::new(StoreMode::Functional);
        s.write(0, 4, Some(b"aaaa"));
        s.write(8, 4, Some(b"cccc"));
        assert_eq!(s.extent_count(), 2);
        s.write(4, 4, Some(b"bbbb")); // bridges both neighbours
        assert_eq!(s.extent_count(), 1);
        assert_eq!(s.read(0, 12).data.as_deref(), Some(&b"aaaabbbbcccc"[..]));
    }

    #[test]
    fn discard_splits_extents() {
        let mut s = ExtentStore::new(StoreMode::Functional);
        s.write(0, 10, Some(b"0123456789"));
        s.discard(3, 4);
        assert_eq!(s.written_bytes(), 6);
        assert_eq!(s.extent_count(), 2);
        let r = s.read(0, 10);
        assert_eq!(
            r.data.as_deref(),
            Some(&[b'0', b'1', b'2', 0, 0, 0, 0, b'7', b'8', b'9'][..])
        );
        assert!(s.covers(0, 3));
        assert!(!s.covers(2, 3));
        assert!(s.covers(7, 3));
    }

    #[test]
    fn timing_mode_tracks_coverage_without_bytes() {
        let mut s = ExtentStore::new(StoreMode::Timing);
        s.write(0, 1024, None);
        s.write(2048, 1024, None);
        let r = s.read(0, 4096);
        assert_eq!(r.data, None);
        assert_eq!(r.covered_bytes, 2048);
        assert_eq!(s.read_covered(512, 2048), 1024);
        assert_eq!(s.written_bytes(), 2048);
    }

    #[test]
    fn zero_length_ops_are_noops() {
        let mut s = ExtentStore::new(StoreMode::Functional);
        s.write(5, 0, Some(b""));
        assert_eq!(s.written_bytes(), 0);
        let r = s.read(5, 0);
        assert_eq!(r.covered_bytes, 0);
        s.discard(5, 0);
    }

    #[test]
    fn clear_resets() {
        let mut s = ExtentStore::new(StoreMode::Timing);
        s.write(0, 100, None);
        s.clear();
        assert_eq!(s.written_bytes(), 0);
        assert_eq!(s.extent_count(), 0);
    }

    #[test]
    #[should_panic(expected = "functional store requires data")]
    fn functional_write_requires_data() {
        ExtentStore::new(StoreMode::Functional).write(0, 4, None);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn functional_write_checks_length() {
        ExtentStore::new(StoreMode::Functional).write(0, 4, Some(b"xy"));
    }

    /// Maximal written runs `[start, end)` of a bitmap model.
    fn runs_of(model: &[bool]) -> Vec<(u64, u64)> {
        let mut runs = Vec::new();
        let mut open = None;
        for (i, &set) in model.iter().enumerate() {
            match (set, open) {
                (true, None) => open = Some(i as u64),
                (false, Some(start)) => {
                    runs.push((start, i as u64));
                    open = None;
                }
                _ => {}
            }
        }
        if let Some(start) = open {
            runs.push((start, model.len() as u64));
        }
        runs
    }

    // Differential test of Timing mode, whose writes take `grow_in_place`
    // when they can and the split/insert/coalesce path when they cannot:
    // both must be the one behaviour a bitmap describes. Ops are shaped
    // against the model's current runs so the interesting cases (append
    // to a run, overlap its tail, land inside it, bridge to the next run)
    // are common rather than lucky.
    proptest! {
        #[test]
        fn prop_timing_matches_bitmap_model(
            ops in proptest::collection::vec((0u8..8, 0u64..256, 1u64..40), 1..80)
        ) {
            const N: u64 = 256;
            let mut model = [false; N as usize];
            let mut store = ExtentStore::new(StoreMode::Timing);
            for (shape, pick, len) in ops {
                let runs = runs_of(&model);
                let chosen = (!runs.is_empty()).then(|| pick as usize % runs.len());
                let run = chosen.map(|i| runs[i]);
                let next = chosen.and_then(|i| runs.get(i + 1).copied());
                let (off, end, discard) = match (shape, run, next) {
                    // Appended right after a run.
                    (0, Some((_, e)), _) => (e, e + len, false),
                    // Starts inside a run, ends past it.
                    (1, Some((s, e)), _) => (s + pick % (e - s), e + len, false),
                    // Entirely inside a run.
                    (2, Some((s, e)), _) => {
                        let off = s + pick % (e - s);
                        (off, (off + len).min(e), false)
                    }
                    // Bridges to the next run: fills the gap exactly, or
                    // overlaps either side by one.
                    (3, Some((_, e)), Some((ns, _))) => (e - pick % 2, ns + len % 2, false),
                    // Ends exactly where the next run starts.
                    (4, Some(_), Some((ns, _))) => (ns.saturating_sub(len), ns, false),
                    (5, _, _) => (pick, pick + len, true),
                    _ => (pick, pick + len, false),
                };
                let end = end.min(N);
                if off >= end {
                    continue;
                }
                if discard {
                    store.discard(off, end - off);
                } else {
                    store.write(off, end - off, None);
                }
                model[off as usize..end as usize].fill(!discard);
                let written = model.iter().filter(|&&b| b).count() as u64;
                prop_assert_eq!(store.written_bytes(), written);
                prop_assert_eq!(store.extent_count(), runs_of(&model).len());
                let probe = pick.min(N - 1);
                let probe_end = (probe + len).min(N);
                let covered = model[probe as usize..probe_end as usize]
                    .iter()
                    .filter(|&&b| b)
                    .count() as u64;
                prop_assert_eq!(store.read_covered(probe, probe_end - probe), covered);
            }
            for i in 0..N {
                prop_assert_eq!(store.covers(i, 1), model[i as usize], "position {}", i);
            }
        }
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
            let mut store = ExtentStore::new(StoreMode::Functional);
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
            let r = store.read(0, N as u64);
            let got = r.data.unwrap();
            for i in 0..N {
                prop_assert_eq!(got[i], model[i].unwrap_or(0), "mismatch at {}", i);
            }
            let written = model.iter().filter(|b| b.is_some()).count() as u64;
            prop_assert_eq!(r.covered_bytes, written);
            prop_assert_eq!(store.written_bytes(), written);
        }
    }
}
