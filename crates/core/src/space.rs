//! CServer cache-space management.
//!
//! Tracks how much of the configured cache capacity is in use, hands out
//! extents within per-original-file cache files, and recycles space freed
//! by eviction. Allocation never fails on fragmentation: a request may be
//! satisfied by several non-contiguous pieces (each becomes its own DMT
//! extent), so the only failure mode is genuine lack of capacity.

use std::collections::BTreeMap;

use s4d_pfs::FileId;
use s4d_sim::IdMap;

/// One allocated piece within a cache file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocPiece {
    /// Offset within the cache file.
    pub c_offset: u64,
    /// Piece length.
    pub len: u64,
}

/// One cache file's freed extents: a LIFO stack of `(offset, len)` (the
/// most recently freed extent is reused first) and the same extents as
/// `end -> offset`, so a release checks for overlap in `O(log n)` rather
/// than scanning them all. The extents are disjoint, which is what the
/// check keeps true. Keyed by end, the index keeps its key when an
/// allocation takes the front of an extent, so a partial reuse rewrites
/// one value instead of moving an entry.
///
/// The top of the stack enters the index only once another extent is
/// pushed over it, and [`FreeList::overlaps`] checks it beside the index.
/// So freeing an extent that the next allocation takes whole (an eviction
/// followed by an admission of the same size) touches no B-tree node and
/// allocates nothing.
#[derive(Debug, Clone, Default)]
struct FreeList {
    stack: Vec<(u64, u64)>,
    by_end: BTreeMap<u64, u64>,
    /// The top of `stack` is in `by_end` too; every extent below it is.
    top_indexed: bool,
}

impl FreeList {
    fn push(&mut self, off: u64, len: u64) {
        if let (Some(&(top_off, top_len)), false) = (self.stack.last(), self.top_indexed) {
            self.by_end.insert(top_off + top_len, top_off);
        }
        self.stack.push((off, len));
        self.top_indexed = false;
    }

    /// Takes up to `want` bytes from the front of the most recently freed
    /// extent, whose remainder stays on top: `(offset, len)` taken.
    fn take(&mut self, want: u64) -> Option<(u64, u64)> {
        let (off, len) = self.stack.pop()?;
        let take = len.min(want);
        if take < len {
            self.stack.push((off + take, len - take));
            if let (Some(start), true) = (self.by_end.get_mut(&(off + len)), self.top_indexed) {
                *start = off + take;
            }
        } else {
            if self.top_indexed {
                self.by_end.remove(&(off + len));
            }
            // The new top was below the old one.
            self.top_indexed = true;
        }
        Some((off, take))
    }

    /// True if `[off, end)` overlaps a free extent: the unindexed top, or
    /// the first indexed extent ending after `off` (every later one
    /// starts after it ends).
    fn overlaps(&self, off: u64, end: u64) -> bool {
        let top = match (self.stack.last(), self.top_indexed) {
            (Some(&(top_off, top_len)), false) => top_off < end && off < top_off + top_len,
            _ => false,
        };
        top || self
            .by_end
            .range(off + 1..)
            .next()
            .is_some_and(|(_, &start)| start < end)
    }
}

/// Cache-space allocator over the CServers.
#[derive(Debug, Clone)]
pub struct SpaceManager {
    capacity: u64,
    allocated: u64,
    /// Per cache file: next fresh (never-used) offset.
    bump: IdMap<FileId, u64>,
    /// Per cache file: freed extents available for reuse.
    free: IdMap<FileId, FreeList>,
    alloc_ops: u64,
    free_ops: u64,
    over_releases: u64,
}

impl SpaceManager {
    /// Creates a manager over `capacity` bytes of total cache space. A
    /// manager over 0 bytes (a shard of a cache smaller than its shard
    /// count) allocates nothing.
    pub fn new(capacity: u64) -> Self {
        SpaceManager {
            capacity,
            allocated: 0,
            bump: IdMap::default(),
            free: IdMap::default(),
            alloc_ops: 0,
            free_ops: 0,
            over_releases: 0,
        }
    }

    /// Total capacity, bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Bytes still available without eviction.
    pub fn available(&self) -> u64 {
        self.capacity - self.allocated
    }

    /// `(allocations, frees)` performed, for reports.
    pub fn churn(&self) -> (u64, u64) {
        (self.alloc_ops, self.free_ops)
    }

    /// True if `len` more bytes fit without eviction.
    pub fn fits(&self, len: u64) -> bool {
        len <= self.available()
    }

    /// Allocates `len` bytes in `c_file`, reusing freed extents first and
    /// extending the file otherwise. Returns the pieces (file order), or
    /// `None` if capacity is insufficient — the caller then evicts clean
    /// space and retries, or falls back to DServers. Collects
    /// [`SpaceManager::alloc_in`] into a `Vec`.
    pub fn alloc(&mut self, c_file: FileId, len: u64) -> Option<Vec<AllocPiece>> {
        self.alloc_in(c_file, len)
    }

    /// [`SpaceManager::alloc`] into any list type. With
    /// [`s4d_sim::OneOrMany`] the usual single-piece answer allocates
    /// nothing.
    pub fn alloc_in<C: Default + Extend<AllocPiece>>(
        &mut self,
        c_file: FileId,
        len: u64,
    ) -> Option<C> {
        if len == 0 || !self.fits(len) {
            return if len == 0 { Some(C::default()) } else { None };
        }
        let mut pieces = C::default();
        let mut remaining = len;
        let free = self.free.entry(c_file).or_default();
        while remaining > 0 {
            match free.take(remaining) {
                Some((off, take)) => {
                    pieces.extend([AllocPiece {
                        c_offset: off,
                        len: take,
                    }]);
                    remaining -= take;
                }
                None => {
                    let bump = self.bump.entry(c_file).or_insert(0);
                    pieces.extend([AllocPiece {
                        c_offset: *bump,
                        len: remaining,
                    }]);
                    *bump += remaining;
                    remaining = 0;
                }
            }
        }
        self.allocated += len;
        self.alloc_ops += 1;
        Some(pieces)
    }

    /// Rebuilds allocator state from the live extents of a recovered DMT.
    ///
    /// Each cache file's bump pointer restarts past its highest recovered
    /// extent; space between recovered extents is not returned to the free
    /// lists (post-recovery fragmentation is reclaimed as extents are
    /// evicted), so the allocator can never hand out a live range.
    ///
    /// # Panics
    ///
    /// Panics if the recovered extents exceed `capacity`.
    pub fn rebuild(capacity: u64, extents: impl Iterator<Item = (FileId, u64, u64)>) -> Self {
        let mut s = SpaceManager::new(capacity);
        for (c_file, c_offset, len) in extents {
            s.allocated += len;
            let bump = s.bump.entry(c_file).or_insert(0);
            *bump = (*bump).max(c_offset + len);
        }
        assert!(
            s.allocated <= capacity,
            "recovered extents ({}) exceed capacity ({capacity})",
            s.allocated
        );
        s
    }

    /// Returns an extent to the pool (after eviction or file deletion).
    ///
    /// A release that cannot correspond to a live allocation — more
    /// bytes than are currently allocated, a range beyond the file's
    /// bump frontier, or overlap with an extent already on the free
    /// list — is an accounting bug in the caller (a double or
    /// over-release). Such a release is counted (see
    /// [`SpaceManager::over_releases`], surfaced as the
    /// `space_over_releases` metric) and dropped without freeing, so
    /// the allocator can never hand the same range to two owners; the
    /// bytes are leaked instead, the recoverable direction.
    pub fn release(&mut self, c_file: FileId, c_offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let bump = self.bump.get(&c_file).copied().unwrap_or(0);
        let valid = c_offset.checked_add(len).is_some_and(|end| {
            end <= bump
                && len <= self.allocated
                && !self
                    .free
                    .get(&c_file)
                    .is_some_and(|fl| fl.overlaps(c_offset, end))
        });
        if !valid {
            self.over_releases += 1;
            return;
        }
        self.allocated -= len;
        self.free.entry(c_file).or_default().push(c_offset, len);
        self.free_ops += 1;
    }

    /// Releases that failed the double/over-release accounting check and
    /// were dropped (must stay 0 in a correct run).
    pub fn over_releases(&self) -> u64 {
        self.over_releases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const CF: FileId = FileId(9);

    #[test]
    fn fresh_allocations_bump() {
        let mut s = SpaceManager::new(1000);
        let a = s.alloc(CF, 100).unwrap();
        assert_eq!(
            a,
            vec![AllocPiece {
                c_offset: 0,
                len: 100
            }]
        );
        let b = s.alloc(CF, 50).unwrap();
        assert_eq!(
            b,
            vec![AllocPiece {
                c_offset: 100,
                len: 50
            }]
        );
        assert_eq!(s.allocated(), 150);
        assert_eq!(s.available(), 850);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut s = SpaceManager::new(100);
        assert!(s.alloc(CF, 60).is_some());
        assert!(s.alloc(CF, 60).is_none(), "only 40 left");
        assert!(s.fits(40));
        assert!(!s.fits(41));
        assert!(s.alloc(CF, 40).is_some());
        assert_eq!(s.available(), 0);
    }

    #[test]
    fn released_space_is_reused_possibly_fragmented() {
        let mut s = SpaceManager::new(100);
        s.alloc(CF, 100).unwrap();
        s.release(CF, 10, 20);
        s.release(CF, 50, 20);
        assert_eq!(s.allocated(), 60);
        let pieces = s.alloc(CF, 30).unwrap();
        // 30 bytes out of two 20-byte holes: must be 2 pieces.
        assert_eq!(pieces.len(), 2);
        let total: u64 = pieces.iter().map(|p| p.len).sum();
        assert_eq!(total, 30);
        assert_eq!(s.allocated(), 90);
    }

    #[test]
    fn zero_len_alloc_is_empty() {
        let mut s = SpaceManager::new(10);
        assert_eq!(s.alloc(CF, 0).unwrap(), Vec::new());
        s.release(CF, 0, 0);
        assert_eq!(s.allocated(), 0);
    }

    #[test]
    fn distinct_files_have_distinct_spaces() {
        let mut s = SpaceManager::new(1000);
        let a = s.alloc(FileId(1), 10).unwrap();
        let b = s.alloc(FileId(2), 10).unwrap();
        assert_eq!(a[0].c_offset, 0);
        assert_eq!(b[0].c_offset, 0, "each cache file starts at zero");
    }

    #[test]
    fn churn_counters() {
        let mut s = SpaceManager::new(100);
        s.alloc(CF, 10).unwrap();
        s.release(CF, 0, 10);
        assert_eq!(s.churn(), (1, 1));
    }

    #[test]
    fn a_zero_capacity_manager_allocates_nothing() {
        let mut s = SpaceManager::new(0);
        assert!(s.alloc(CF, 1).is_none());
        assert!(!s.fits(1));
        assert_eq!((s.capacity(), s.allocated()), (0, 0));
    }

    #[test]
    fn double_and_over_releases_are_counted_not_applied() {
        let mut s = SpaceManager::new(100);
        s.alloc(CF, 40).unwrap();
        // Legitimate release works.
        s.release(CF, 0, 10);
        assert_eq!(s.allocated(), 30);
        assert_eq!(s.over_releases(), 0);
        // Double release of the same range: counted, not freed again.
        s.release(CF, 0, 10);
        assert_eq!(s.allocated(), 30, "double release must not free twice");
        assert_eq!(s.over_releases(), 1);
        // Partial overlap with a free extent is also a double release.
        s.release(CF, 5, 10);
        assert_eq!(s.over_releases(), 2);
        // Releasing more than is allocated in total.
        s.release(CF, 10, 31);
        assert_eq!(s.over_releases(), 3);
        assert_eq!(s.allocated(), 30);
        // Releasing a range past the bump frontier (never handed out).
        s.release(CF, 90, 5);
        assert_eq!(s.over_releases(), 4);
        // Releasing in a file that never allocated anything.
        s.release(FileId(77), 0, 1);
        assert_eq!(s.over_releases(), 5);
        // The allocator still works and never double-hands space.
        let pieces = s.alloc(CF, 20).unwrap();
        let total: u64 = pieces.iter().map(|p| p.len).sum();
        assert_eq!(total, 20);
        assert_eq!(s.allocated(), 50);
    }

    /// An eviction that frees an extent the next admission takes whole
    /// leaves the overlap index as it was: the cycle touches no B-tree
    /// node, so it allocates nothing.
    #[test]
    fn reusing_the_extent_just_freed_leaves_the_index_alone() {
        let mut s = SpaceManager::new(1000);
        s.alloc(CF, 300).unwrap();
        s.release(CF, 0, 100);
        s.release(CF, 200, 100);
        let index = |s: &SpaceManager| s.free.get(&CF).map(|fl| fl.by_end.clone());
        let before = index(&s);
        for _ in 0..50 {
            let pieces = s.alloc(CF, 100).unwrap();
            assert_eq!(
                pieces,
                vec![AllocPiece {
                    c_offset: 200,
                    len: 100
                }]
            );
            assert_eq!(index(&s), before);
            s.release(CF, 200, 100);
            assert_eq!(index(&s), before);
        }
        // The unindexed top still refuses a double release.
        s.release(CF, 250, 10);
        assert_eq!(s.over_releases(), 1);
    }

    #[test]
    fn rebuild_resumes_past_recovered_extents() {
        let extents = vec![(CF, 0u64, 30u64), (CF, 50, 20), (FileId(2), 10, 5)];
        let mut s = SpaceManager::rebuild(100, extents.into_iter());
        assert_eq!(s.allocated(), 55);
        // New allocations in CF start past offset 70.
        let a = s.alloc(CF, 10).unwrap();
        assert_eq!(a[0].c_offset, 70);
        // And in file 2 past offset 15.
        let b = s.alloc(FileId(2), 10).unwrap();
        assert_eq!(b[0].c_offset, 15);
    }

    #[test]
    #[should_panic(expected = "exceed capacity")]
    fn rebuild_rejects_overflow() {
        SpaceManager::rebuild(10, vec![(CF, 0u64, 20u64)].into_iter());
    }

    proptest! {
        /// Allocated bytes always equal the sum of live pieces, never
        /// exceed capacity, and pieces returned by a single alloc never
        /// overlap each other or previously live pieces.
        #[test]
        fn prop_no_overlap_and_conservation(
            ops in proptest::collection::vec((1u64..64, any::<bool>()), 1..60)
        ) {
            let mut s = SpaceManager::new(512);
            // live pieces as (offset, len), kept sorted for overlap checks
            let mut live: Vec<AllocPiece> = Vec::new();
            for (len, do_free) in ops {
                if do_free && !live.is_empty() {
                    let p = live.swap_remove(0);
                    s.release(CF, p.c_offset, p.len);
                } else if let Some(pieces) = s.alloc(CF, len) {
                    for p in pieces {
                        // No overlap with anything live.
                        for q in &live {
                            let disjoint = p.c_offset + p.len <= q.c_offset
                                || q.c_offset + q.len <= p.c_offset;
                            prop_assert!(disjoint, "overlap {:?} vs {:?}", p, q);
                        }
                        live.push(p);
                    }
                }
                let live_total: u64 = live.iter().map(|p| p.len).sum();
                prop_assert_eq!(s.allocated(), live_total);
                prop_assert!(s.allocated() <= s.capacity());
            }
        }

        /// The indexed double-release check refuses exactly what a scan
        /// of the whole free list refuses — double and partial-overlap
        /// releases still count in `over_releases` — and the index holds
        /// exactly the stack's extents.
        #[test]
        fn prop_indexed_release_check_equals_a_scan(
            ops in proptest::collection::vec((any::<bool>(), 0u64..160, 1u64..40), 1..120)
        ) {
            let mut s = SpaceManager::new(256);
            for (is_alloc, off, len) in ops {
                if is_alloc {
                    let _ = s.alloc(CF, len);
                } else {
                    let stack = s.free.get(&CF).map(|fl| fl.stack.clone()).unwrap_or_default();
                    let scan_overlap = stack
                        .iter()
                        .any(|&(o, l)| off < o + l && o < off + len);
                    let bump = s.bump.get(&CF).copied().unwrap_or(0);
                    let refused = scan_overlap || off + len > bump || len > s.allocated();
                    let before = s.over_releases();
                    s.release(CF, off, len);
                    prop_assert_eq!(s.over_releases() - before, u64::from(refused));
                }
                if let Some(fl) = s.free.get(&CF) {
                    let mut by_stack = fl.stack.clone();
                    by_stack.sort_unstable();
                    let mut by_index: Vec<(u64, u64)> = fl.by_end.iter().map(|(&e, &o)| (o, e - o)).collect();
                    if !fl.top_indexed {
                        by_index.extend(fl.stack.last());
                    }
                    by_index.sort_unstable();
                    prop_assert_eq!(by_stack, by_index);
                }
            }
        }
    }
}
