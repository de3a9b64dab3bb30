//! Deterministic shard routing for the metadata plane.
//!
//! A file's byte range is cut into `stripe`-sized tiles and tile `t` of
//! file `f` is owned by shard `(f + t) % count`. The function is pure
//! and stateless, so the router can be copied freely: the pipeline, the
//! durability engine, and crash recovery all route with the same
//! arithmetic and therefore always agree on which shard owns a record.

use s4d_pfs::FileId;

/// A shard index only a [`ShardRouter`] can mint — by
/// [`ShardRouter::shard_of`], a routed [`ShardSegment`]'s `.shard`, or
/// the [`ShardRouter::all_shards`] sweep — so per-shard state is reached
/// only through an index the routing function produced (`< count`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct ShardId(usize);

impl ShardId {
    /// The index as a plain number, for positional tables and display.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One shard-local slice of a byte range, produced by
/// [`ShardRouter::segments`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSegment {
    /// Owning shard, `index() < ShardRouter::count()`.
    pub shard: ShardId,
    /// Absolute offset of the slice within the file.
    pub offset: u64,
    /// Slice length in bytes (never zero).
    pub len: u64,
}

/// Pure routing function mapping `(file, offset)` to a shard.
///
/// With `count == 1` every byte routes to shard 0 and
/// [`ShardRouter::segments`] returns the request as a single segment,
/// which is what keeps the default configuration byte-identical to the
/// pre-shard plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    count: usize,
    stripe: u64,
}

impl ShardRouter {
    /// Creates a router over `count` shards with the given stripe width.
    /// Zero inputs are clamped to 1 rather than rejected — the router is
    /// used on recovery paths that must stay panic-free.
    pub fn new(count: u32, stripe: u64) -> Self {
        ShardRouter {
            count: (count.max(1)) as usize,
            stripe: stripe.max(1),
        }
    }

    /// Number of shards this router spreads metadata across.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Stripe width in bytes.
    pub fn stripe(&self) -> u64 {
        self.stripe
    }

    /// The shard owning byte `offset` of `file`.
    pub fn shard_of(&self, file: FileId, offset: u64) -> ShardId {
        if self.count == 1 {
            return ShardId(0);
        }
        let tile = offset / self.stripe;
        ShardId((file.0.wrapping_add(tile) % self.count as u64) as usize)
    }

    /// Every shard once, in index order — the uniform sweep (journal
    /// collection, per-shard eviction asks).
    pub fn all_shards(&self) -> impl Iterator<Item = ShardId> {
        (0..self.count).map(ShardId)
    }

    /// Splits `[offset, offset + len)` of `file` into shard-local
    /// segments in ascending offset order, coalescing consecutive tiles
    /// that land on the same shard. Returns an empty vector for
    /// zero-length ranges; with one shard the whole range is a single
    /// segment. Collects [`ShardRouter::segments_iter`]; code that only
    /// walks the segments should use the iterator directly.
    pub fn segments(&self, file: FileId, offset: u64, len: u64) -> Vec<ShardSegment> {
        self.segments_iter(file, offset, len).collect()
    }

    /// Lazy form of [`ShardRouter::segments`]: the same segments in the
    /// same order, computed one at a time without allocating.
    pub fn segments_iter(&self, file: FileId, offset: u64, len: u64) -> Segments {
        Segments {
            router: *self,
            file,
            cursor: offset,
            end: offset.saturating_add(len),
        }
    }
}

/// Iterator over the shard-local segments of one byte range — see
/// [`ShardRouter::segments_iter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segments {
    router: ShardRouter,
    file: FileId,
    /// Start of the next segment.
    cursor: u64,
    /// Saturated end of the range.
    end: u64,
}

impl Iterator for Segments {
    type Item = ShardSegment;

    fn next(&mut self) -> Option<ShardSegment> {
        if self.cursor >= self.end {
            return None;
        }
        let ShardRouter { count, stripe } = self.router;
        let offset = self.cursor;
        let shard = self.router.shard_of(self.file, offset);
        if count == 1 {
            self.cursor = self.end;
        } else {
            // Extend tile by tile while the owner stays the same.
            loop {
                let tile_end = (self.cursor / stripe + 1).saturating_mul(stripe);
                self.cursor = tile_end.min(self.end);
                if self.cursor >= self.end || self.router.shard_of(self.file, self.cursor) != shard
                {
                    break;
                }
            }
        }
        Some(ShardSegment {
            shard,
            offset,
            len: self.cursor - offset,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The eager tile-by-tile split `segments` used before it became an
    /// iterator — the oracle for `prop_segments_match_eager`.
    fn segments_eager(r: &ShardRouter, file: FileId, offset: u64, len: u64) -> Vec<ShardSegment> {
        let end = offset.saturating_add(len);
        let mut out: Vec<ShardSegment> = Vec::new();
        let mut cursor = offset;
        while cursor < end {
            let tile_end = ((cursor / r.stripe) + 1).saturating_mul(r.stripe);
            let piece_end = tile_end.min(end);
            let shard = r.shard_of(file, cursor);
            match out.last_mut() {
                Some(last) if last.shard == shard && last.offset + last.len == cursor => {
                    last.len += piece_end - cursor;
                }
                _ => out.push(ShardSegment {
                    shard,
                    offset: cursor,
                    len: piece_end - cursor,
                }),
            }
            cursor = piece_end;
        }
        out
    }

    proptest! {
        /// The lazy iterator yields exactly the eager split — including
        /// empty ranges, ranges whose end saturates at `u64::MAX`, and the
        /// tile index wrapping with the file id (where two neighbouring
        /// tiles can share a shard and must coalesce).
        #[test]
        fn prop_segments_match_eager(
            count in 1u32..18,
            stripe in 1u64..(1 << 17),
            file in prop_oneof![0u64..64, Just(u64::MAX), Just(u64::MAX - 1)],
            near_end in any::<bool>(),
            raw_offset in 0u64..(1 << 20),
            len in prop_oneof![Just(0u64), 1u64..(1 << 20), Just(u64::MAX)],
        ) {
            let r = ShardRouter::new(count, stripe);
            let offset = if near_end || len == u64::MAX {
                u64::MAX - raw_offset
            } else {
                raw_offset
            };
            let eager = segments_eager(&r, FileId(file), offset, len);
            let lazy: Vec<_> = r.segments_iter(FileId(file), offset, len).collect();
            prop_assert_eq!(&lazy, &eager);
            prop_assert_eq!(&r.segments(FileId(file), offset, len), &eager);
        }
    }

    #[test]
    fn single_shard_is_identity() {
        let r = ShardRouter::new(1, 64 * 1024);
        assert_eq!(r.shard_of(FileId(7), 123456789).index(), 0);
        let segs = r.segments(FileId(7), 1000, 5_000_000);
        assert_eq!(
            segs,
            vec![ShardSegment {
                shard: ShardId(0),
                offset: 1000,
                len: 5_000_000
            }]
        );
    }

    /// Every constructor of [`ShardId`] agrees: the sweep yields each
    /// index below `count` once, and `shard_of` / segment shards are
    /// members of that sweep naming the same shard for the same byte.
    #[test]
    fn shard_ids_round_trip_router_segments_and_sweep() {
        for count in [1u32, 4, 16] {
            let r = ShardRouter::new(count, 64);
            let sweep: Vec<ShardId> = r.all_shards().collect();
            let indices: Vec<usize> = sweep.iter().map(|s| s.index()).collect();
            assert_eq!(indices, (0..count as usize).collect::<Vec<_>>());
            for file in [FileId(0), FileId(3), FileId(u64::MAX)] {
                for seg in r.segments(file, 10, 64 * 40) {
                    assert_eq!(seg.shard, r.shard_of(file, seg.offset));
                    assert_eq!(sweep.get(seg.shard.index()), Some(&seg.shard));
                }
            }
        }
    }

    #[test]
    fn zero_inputs_clamp() {
        let r = ShardRouter::new(0, 0);
        assert_eq!(r.count(), 1);
        assert_eq!(r.stripe(), 1);
    }

    #[test]
    fn tiles_rotate_across_shards() {
        let r = ShardRouter::new(4, 100);
        // file 0: tile t -> shard t % 4.
        assert_eq!(r.shard_of(FileId(0), 0).index(), 0);
        assert_eq!(r.shard_of(FileId(0), 99).index(), 0);
        assert_eq!(r.shard_of(FileId(0), 100).index(), 1);
        assert_eq!(r.shard_of(FileId(0), 399).index(), 3);
        assert_eq!(r.shard_of(FileId(0), 400).index(), 0);
        // The file id offsets the rotation so files spread too.
        assert_eq!(r.shard_of(FileId(1), 0).index(), 1);
    }

    #[test]
    fn segments_tile_exactly_and_stay_shard_local() {
        let r = ShardRouter::new(3, 64);
        let segs = r.segments(FileId(2), 50, 300);
        let mut cursor = 50;
        for s in &segs {
            assert_eq!(s.offset, cursor, "segments tile contiguously");
            assert!(s.len > 0);
            // Every byte of a segment routes to the segment's shard.
            for b in [s.offset, s.offset + s.len - 1] {
                assert_eq!(r.shard_of(FileId(2), b), s.shard);
            }
            cursor = s.offset + s.len;
        }
        assert_eq!(cursor, 350, "segments cover the whole range");
        assert!(r.segments(FileId(2), 10, 0).is_empty());
    }

    #[test]
    fn segments_coalesce_same_shard_neighbours() {
        // count == 1 coalesces everything; larger counts rotate so
        // neighbours differ — both directions must hold.
        let r1 = ShardRouter::new(1, 64);
        assert_eq!(r1.segments(FileId(0), 0, 640).len(), 1);
        let r4 = ShardRouter::new(4, 64);
        assert_eq!(r4.segments(FileId(0), 0, 640).len(), 10);
    }
}
