//! The sharded metadata plane: N deterministic shards, each owning a
//! [`Dmt`] interval-map partition, a [`Cdt`] partition, and a
//! [`SpaceManager`] over its slice of the cache capacity.
//!
//! Every mutation enters through a routed method on [`MetadataPlane`]:
//! point-keyed operations go to [`ShardRouter::shard_of`] of their durable
//! key, range operations are split into shard-local segments by
//! [`ShardRouter::segments_iter`] and applied per shard in ascending offset
//! order. [`MetadataShard`] and its fields are private to this module, so
//! no code outside the plane can reach a shard's `dmt`/`cdt`/`space`
//! directly, and the per-shard methods take a [`ShardId`] — an index only
//! the router can mint — so none can be handed an unrouted shard.
//!
//! With `shard_count = 1` there is exactly one shard holding the full
//! capacity, every range is a single segment, and each routed method
//! degenerates to the identical call sequence the pre-shard middleware
//! made — which is what keeps the default configuration byte- and
//! replay-identical to the unsharded plane.

use s4d_pfs::FileId;
use s4d_sim::OneOrMany;

use crate::cdt::{Cdt, CdtEntry};
use crate::dmt::{Dmt, MapExtent, RangeView};
use crate::journal::JournalRecord;
use crate::space::{AllocPiece, SpaceManager};

use super::{ShardId, ShardRouter};

/// One shard: a partition of the mapping table, the candidate table, and
/// the space ledger.
#[derive(Debug)]
struct MetadataShard {
    dmt: Dmt,
    cdt: Cdt,
    space: SpaceManager,
}

impl MetadataShard {
    fn new(capacity: u64, cdt_max: usize) -> Self {
        MetadataShard {
            dmt: Dmt::new(),
            cdt: Cdt::new(cdt_max.max(1)),
            space: SpaceManager::new(capacity.max(1)),
        }
    }
}

/// Splits total cache capacity across `n` shards: every shard gets
/// `capacity / n`, shard 0 absorbs the remainder. Degenerate configs
/// (capacity < n) clamp each share to 1 byte rather than panicking.
fn split_capacity(capacity: u64, n: usize) -> (u64, u64) {
    let n64 = n.max(1) as u64;
    let base = (capacity / n64).max(1);
    let first = capacity.saturating_sub(base.saturating_mul(n64 - 1)).max(1);
    (first, base)
}

/// The metadata plane: every shard of the DMT, CDT, and space accounting
/// behind one routed interface.
#[derive(Debug)]
pub struct MetadataPlane {
    router: ShardRouter,
    /// Shard 0 lives outside the vector so the plane is never empty and
    /// shard access needs no panicking index — an id minted by a wider
    /// router than this plane's own falls back here.
    shard0: MetadataShard,
    rest: Vec<MetadataShard>,
}

impl MetadataPlane {
    /// Builds a plane of `router.count()` shards splitting `capacity`
    /// bytes of cache space and `cdt_max` candidate-table entries.
    pub(crate) fn new(router: ShardRouter, capacity: u64, cdt_max: usize) -> Self {
        let n = router.count();
        let (first, base) = split_capacity(capacity, n);
        let per_cdt = (cdt_max / n).max(1);
        MetadataPlane {
            router,
            shard0: MetadataShard::new(first, per_cdt),
            rest: (1..n).map(|_| MetadataShard::new(base, per_cdt)).collect(),
        }
    }

    /// Adopts a recovered, merged mapping table. With one shard the table
    /// moves in wholesale — field-for-field identical to the pre-shard
    /// recovery path, preserving its lifetime record count. With more, the
    /// extents are redistributed to their owning shards (re-inserted in
    /// sorted order, seals re-applied) and the re-recorded pending records
    /// are discarded — the journal already holds the originals.
    pub(crate) fn adopt(&mut self, dmt: Dmt, capacity: u64) {
        let n = self.router.count();
        if n == 1 {
            let (first, _) = split_capacity(capacity, 1);
            self.shard0.space = SpaceManager::rebuild(
                first,
                dmt.iter_extents()
                    .map(|(_, _, e)| (e.c_file, e.c_offset, e.len)),
            );
            self.shard0.dmt = dmt;
            self.rest.clear();
            return;
        }
        let mut live: Vec<(FileId, u64, MapExtent)> =
            dmt.iter_extents().map(|(f, o, e)| (f, o, *e)).collect();
        live.sort_unstable_by_key(|&(f, o, _)| (f.0, o));
        let (first, base) = split_capacity(capacity, n);
        for (i, shard) in self.shards_mut().enumerate() {
            shard.dmt = Dmt::new();
            let cap = if i == 0 { first } else { base };
            shard.space = SpaceManager::rebuild(cap, std::iter::empty());
        }
        for &(f, o, e) in &live {
            let shard = self.shard_mut(self.router.shard_of(f, o));
            shard.dmt.insert(f, o, e.len, e.c_file, e.c_offset, e.dirty);
            if let Some(sum) = e.checksum {
                shard.dmt.apply_seal(f, o, e.len, sum);
            }
        }
        for (i, shard) in self.shards_mut().enumerate() {
            let _ = shard.dmt.take_pending_journal();
            let cap = if i == 0 { first } else { base };
            shard.space = SpaceManager::rebuild(
                cap,
                shard
                    .dmt
                    .iter_extents()
                    .map(|(_, _, e)| (e.c_file, e.c_offset, e.len)),
            );
        }
    }

    /// Replaces every shard's space ledger with a fresh one splitting
    /// `capacity` — the open-time capacity (re)initialisation, matching
    /// the pre-shard middleware's fresh `SpaceManager` swap.
    pub(crate) fn reset_space(&mut self, capacity: u64) {
        let n = self.router.count();
        let (first, base) = split_capacity(capacity, n);
        for (i, shard) in self.shards_mut().enumerate() {
            shard.space = SpaceManager::new(if i == 0 { first } else { base });
        }
    }

    fn shards(&self) -> impl Iterator<Item = &MetadataShard> {
        std::iter::once(&self.shard0).chain(self.rest.iter())
    }

    fn shards_mut(&mut self) -> impl Iterator<Item = &mut MetadataShard> {
        std::iter::once(&mut self.shard0).chain(self.rest.iter_mut())
    }

    fn shard(&self, id: ShardId) -> &MetadataShard {
        let idx = id.index();
        if idx == 0 {
            return &self.shard0;
        }
        match self.rest.get(idx - 1) {
            Some(s) => s,
            None => &self.shard0,
        }
    }

    fn shard_mut(&mut self, id: ShardId) -> &mut MetadataShard {
        let idx = id.index();
        if idx == 0 {
            return &mut self.shard0;
        }
        match self.rest.get_mut(idx - 1) {
            Some(s) => s,
            None => &mut self.shard0,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.router.count()
    }

    /// The routing function shared with the durability engine and the
    /// group-commit queues.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Total cache capacity across shards.
    pub fn capacity(&self) -> u64 {
        self.shards().map(|s| s.space.capacity()).sum()
    }

    /// Total allocated cache bytes across shards.
    pub fn allocated(&self) -> u64 {
        self.shards().map(|s| s.space.allocated()).sum()
    }

    /// Total mapped bytes across shards.
    pub fn mapped_bytes(&self) -> u64 {
        self.shards().map(|s| s.dmt.mapped_bytes()).sum()
    }

    /// Total dirty bytes across shards.
    pub fn dirty_bytes(&self) -> u64 {
        self.shards().map(|s| s.dmt.dirty_bytes()).sum()
    }

    /// Total extent count across shards.
    pub fn entry_count(&self) -> usize {
        self.shards().map(|s| s.dmt.entry_count()).sum()
    }

    /// Lifetime journal records across shards.
    pub fn journal_records_total(&self) -> u64 {
        self.shards().map(|s| s.dmt.journal_records_total()).sum()
    }

    /// Every live extent, shard 0 first (shard-internal order matches
    /// [`Dmt::iter_extents`]).
    pub fn iter_extents(&self) -> impl Iterator<Item = (FileId, u64, &MapExtent)> {
        self.shards().flat_map(|s| s.dmt.iter_extents())
    }

    /// Every live extent in global `(file, d_offset)` order — the same
    /// order at any shard count. Each file's per-shard maps are merged in
    /// place (one file's offsets are disjoint across shards), so nothing
    /// is collected but the file ids.
    pub(crate) fn iter_extents_sorted(&self) -> impl Iterator<Item = (FileId, u64, &MapExtent)> {
        let mut files: Vec<FileId> = self.shards().flat_map(|s| s.dmt.files()).collect();
        files.sort_unstable_by_key(|f| f.0);
        files.dedup();
        files.into_iter().flat_map(move |file| {
            let mut heads: Vec<_> = self
                .shards()
                .map(|s| s.dmt.file_extents(file).peekable())
                .collect();
            std::iter::from_fn(move || {
                let (_, next) = heads
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(i, h)| h.peek().map(|&(o, _)| (o, i)))
                    .min()?;
                heads.get_mut(next)?.next()
            })
            .map(move |(o, e)| (file, o, e))
        })
    }

    /// Buffered (undrained) mutation records across shards.
    pub fn pending_records(&self) -> usize {
        self.shards().map(|s| s.dmt.pending_records()).sum()
    }

    /// Candidate-table entries across shards.
    pub fn cdt_len(&self) -> usize {
        self.shards().map(|s| s.cdt.len()).sum()
    }

    /// Total space-ledger over-releases across shards.
    pub(crate) fn over_releases(&self) -> u64 {
        self.shards().map(|s| s.space.over_releases()).sum()
    }

    /// Drains one shard's freshly recorded journal records in place (the
    /// shard's buffer keeps its capacity), in the order the shard
    /// produced them.
    pub(crate) fn take_shard_pending(
        &mut self,
        shard: ShardId,
    ) -> std::vec::Drain<'_, JournalRecord> {
        self.shard_mut(shard).dmt.drain_pending_journal()
    }

    // ---- routed DMT operations -------------------------------------

    /// Coverage of `[offset, offset+len)`: per-segment views concatenated
    /// in offset order. Gaps never span a shard boundary, so at higher
    /// shard counts a physical gap may appear as several adjacent entries
    /// — the admission path allocates per gap, which is exactly the
    /// shard-local split it needs. `out` is a caller-owned buffer (the
    /// middleware's scratch view), cleared first.
    pub fn view_into(&self, file: FileId, offset: u64, len: u64, out: &mut RangeView) {
        out.clear();
        for seg in self.router.segments_iter(file, offset, len) {
            self.shard(seg.shard)
                .dmt
                .append_view(file, seg.offset, seg.len, out);
        }
    }

    /// Extents overlapping the range, across segments in offset order.
    pub(crate) fn overlapping(
        &self,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> impl Iterator<Item = (u64, &MapExtent)> {
        self.router
            .segments_iter(file, offset, len)
            .flat_map(move |seg| {
                self.shard(seg.shard)
                    .dmt
                    .overlapping(file, seg.offset, seg.len)
            })
    }

    /// Inserts a shard-local extent, routed by its start offset. Callers
    /// obtain shard-local ranges from [`MetadataPlane::view`] gaps or
    /// [`ShardRouter::segments_iter`]; a range must never cross a shard
    /// boundary (with one shard nothing does).
    pub(crate) fn insert(
        &mut self,
        file: FileId,
        d_offset: u64,
        len: u64,
        c_file: FileId,
        c_offset: u64,
        dirty: bool,
    ) {
        let idx = self.router.shard_of(file, d_offset);
        self.shard_mut(idx)
            .dmt
            .insert(file, d_offset, len, c_file, c_offset, dirty);
    }

    /// Marks a range dirty, segment by segment.
    pub(crate) fn mark_dirty(&mut self, file: FileId, offset: u64, len: u64) {
        for seg in self.router.segments_iter(file, offset, len) {
            self.shard_mut(seg.shard)
                .dmt
                .mark_dirty(file, seg.offset, seg.len);
        }
    }

    /// Refreshes LRU recency over a range, segment by segment.
    pub(crate) fn touch_range(&mut self, file: FileId, offset: u64, len: u64) {
        for seg in self.router.segments_iter(file, offset, len) {
            self.shard_mut(seg.shard)
                .dmt
                .touch_range(file, seg.offset, seg.len);
        }
    }

    /// Invalidates seals over a range, segment by segment.
    pub(crate) fn unseal(&mut self, file: FileId, offset: u64, len: u64) {
        for seg in self.router.segments_iter(file, offset, len) {
            self.shard_mut(seg.shard)
                .dmt
                .unseal(file, seg.offset, seg.len);
        }
    }

    /// The extent starting exactly at `d_offset`, if any.
    pub fn get(&self, file: FileId, d_offset: u64) -> Option<&MapExtent> {
        self.shard(self.router.shard_of(file, d_offset))
            .dmt
            .get(file, d_offset)
    }

    /// Removes the extent starting exactly at `d_offset`.
    pub(crate) fn remove(&mut self, file: FileId, d_offset: u64) -> Option<MapExtent> {
        let idx = self.router.shard_of(file, d_offset);
        self.shard_mut(idx).dmt.remove(file, d_offset)
    }

    /// Version-gated clean transition (see [`Dmt::mark_clean_if`]).
    pub(crate) fn mark_clean_if(&mut self, file: FileId, d_offset: u64, version: u64) -> bool {
        let idx = self.router.shard_of(file, d_offset);
        self.shard_mut(idx)
            .dmt
            .mark_clean_if(file, d_offset, version)
    }

    /// Unconditional clean transition (see [`Dmt::force_clean`]).
    /// Production code replays records onto a [`Dmt`] directly; only the
    /// routing-equivalence tests drive this through the plane.
    #[cfg(test)]
    pub(crate) fn force_clean(&mut self, file: FileId, d_offset: u64) -> bool {
        let idx = self.router.shard_of(file, d_offset);
        self.shard_mut(idx).dmt.force_clean(file, d_offset)
    }

    /// Version-gated seal (see [`Dmt::seal_if`]).
    pub(crate) fn seal_if(
        &mut self,
        file: FileId,
        d_offset: u64,
        version: u64,
        checksum: u32,
    ) -> bool {
        let idx = self.router.shard_of(file, d_offset);
        self.shard_mut(idx)
            .dmt
            .seal_if(file, d_offset, version, checksum)
    }

    /// The `(file, d_offset)` keys of up to `limit` dirty extents across
    /// shards: each shard contributes its own LRU run (oldest first),
    /// shard 0 first. Callers that need a global age order sort the
    /// result, exactly as they already sort the single-shard LRU output.
    pub(crate) fn dirty_keys(&self, limit: usize) -> impl Iterator<Item = (FileId, u64)> + '_ {
        self.shards().flat_map(|s| s.dmt.dirty_keys()).take(limit)
    }

    /// LRU clean eviction within one shard (the shard whose space the
    /// caller is trying to free), skipping pinned ranges; the victims
    /// replace the contents of `victims`.
    pub(crate) fn evict_clean_lru_excluding(
        &mut self,
        shard: ShardId,
        bytes: u64,
        victims: &mut Vec<(FileId, u64, MapExtent)>,
        is_pinned: impl Fn(FileId, u64, u64) -> bool,
    ) {
        self.shard_mut(shard)
            .dmt
            .evict_clean_lru_excluding(bytes, victims, is_pinned);
    }

    // ---- routed CDT operations -------------------------------------

    /// Records an access candidate, routed by its request offset.
    pub(crate) fn cdt_insert(&mut self, file: FileId, offset: u64, len: u64) {
        let idx = self.router.shard_of(file, offset);
        self.shard_mut(idx).cdt.insert(file, offset, len);
    }

    /// Sets the fetch flag on a candidate (see [`Cdt::set_c_flag`]).
    pub(crate) fn cdt_set_c_flag(&mut self, file: FileId, offset: u64, len: u64) -> bool {
        let idx = self.router.shard_of(file, offset);
        self.shard_mut(idx).cdt.set_c_flag(file, offset, len)
    }

    /// Clears the fetch flag on a candidate (see [`Cdt::clear_c_flag`]).
    pub(crate) fn cdt_clear_c_flag(&mut self, file: FileId, offset: u64, len: u64) -> bool {
        let idx = self.router.shard_of(file, offset);
        self.shard_mut(idx).cdt.clear_c_flag(file, offset, len)
    }

    /// True if the exact range is a recorded candidate (routed by offset).
    pub fn cdt_contains(&self, file: FileId, offset: u64, len: u64) -> bool {
        let idx = self.router.shard_of(file, offset);
        self.shard(idx).cdt.contains(file, offset, len)
    }

    /// Up to `limit` flagged candidates, shard 0's oldest first, then
    /// shard 1's, and so on.
    pub fn cdt_flagged(&self, limit: usize) -> impl Iterator<Item = CdtEntry> + '_ {
        self.shards()
            .flat_map(move |s| s.cdt.flagged(limit))
            .take(limit)
    }

    // ---- routed space operations -----------------------------------

    /// Allocates `len` bytes from `shard`'s space ledger; a single piece,
    /// the usual answer, is held in place.
    pub(crate) fn alloc(
        &mut self,
        shard: ShardId,
        c_file: FileId,
        len: u64,
    ) -> Option<OneOrMany<AllocPiece>> {
        self.shard_mut(shard).space.alloc_in(c_file, len)
    }

    /// Returns `len` bytes to `shard`'s space ledger.
    pub(crate) fn release(&mut self, shard: ShardId, c_file: FileId, c_offset: u64, len: u64) {
        self.shard_mut(shard).space.release(c_file, c_offset, len);
    }

    /// True when `shard` can allocate `len` bytes right now.
    pub(crate) fn fits(&self, shard: ShardId, len: u64) -> bool {
        self.shard(shard).space.fits(len)
    }

    /// Unallocated bytes in `shard`'s slice of the capacity.
    pub(crate) fn shard_available(&self, shard: ShardId) -> u64 {
        self.shard(shard).space.available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const F: FileId = FileId(5);

    impl MetadataPlane {
        fn view(&self, file: FileId, offset: u64, len: u64) -> RangeView {
            let mut out = RangeView::default();
            self.view_into(file, offset, len, &mut out);
            out
        }
    }

    fn plane(count: u32, stripe: u64, capacity: u64) -> MetadataPlane {
        MetadataPlane::new(ShardRouter::new(count, stripe), capacity, 64)
    }

    /// Coverage shape — the per-byte (offset, dirty) set and the byte set
    /// of gaps — independent of cache placement. Piece and extent
    /// *fragmentation* legitimately differs per shard count (each shard
    /// has its own allocator, and views coalesce cache-contiguous
    /// pieces), so the comparison is at byte granularity.
    fn shape(p: &MetadataPlane, span: u64) -> (Vec<(u64, bool)>, Vec<u64>, u64, u64) {
        let v = p.view(F, 0, span);
        let mut covered: Vec<(u64, bool)> = Vec::new();
        for pc in &v.pieces {
            covered.extend((pc.d_offset..pc.d_offset + pc.len).map(|b| (b, pc.dirty)));
        }
        covered.sort_unstable();
        let mut gap_bytes = Vec::new();
        for (o, l) in &v.gaps {
            gap_bytes.extend(*o..*o + *l);
        }
        gap_bytes.sort_unstable();
        (covered, gap_bytes, p.mapped_bytes(), p.dirty_bytes())
    }

    /// Applies one workload op to a plane, allocating real space per gap
    /// shard the way the admission path does.
    fn apply(p: &mut MetadataPlane, op: (u64, u64, u8)) {
        let (off, len, kind) = op;
        match kind % 4 {
            0 => {
                let gaps = p.view(F, off, len).gaps;
                for (g_off, g_len) in gaps {
                    // Split at stripe tiles before routing, the way the
                    // admission path segments its gaps. Any count > 1 maps
                    // consecutive tiles to different shards (so segments
                    // split at every tile); splitting the count = 1
                    // reference the same way keeps fragmentation — and
                    // therefore remove eligibility below — identical.
                    let mut at = g_off;
                    let end = g_off + g_len;
                    while at < end {
                        let tile_end = ((at / 64) + 1) * 64;
                        let piece_len = tile_end.min(end) - at;
                        let shard = p.router().shard_of(F, at);
                        let cache = FileId(100 + shard.index() as u64);
                        if let Some(allocs) = p.alloc(shard, cache, piece_len) {
                            let mut cursor = at;
                            for a in allocs {
                                p.insert(F, cursor, a.len, cache, a.c_offset, false);
                                cursor += a.len;
                            }
                        }
                        at = tile_end.min(end);
                    }
                }
            }
            1 => p.mark_dirty(F, off, len),
            2 => {
                // Whole-tile removes (and releases). Extents never cross
                // stripe tiles (inserts are tile-split), so removing
                // everything overlapping the tile-aligned range drops the
                // same byte set at every shard count, even though each
                // shard's allocator fragments extents differently.
                let start = (off / 64) * 64;
                let end = (off + len).div_ceil(64) * 64;
                let targets: Vec<u64> = p
                    .overlapping(F, start, end - start)
                    .map(|(d_off, _)| d_off)
                    .collect();
                for d_off in targets {
                    if let Some(e) = p.remove(F, d_off) {
                        let shard = p.router().shard_of(F, d_off);
                        p.release(shard, e.c_file, e.c_offset, e.len);
                    }
                }
            }
            _ => p.touch_range(F, off, len),
        }
    }

    proptest! {
        /// Random workloads produce identical coverage shape and aggregate
        /// accounting at any shard count: the plane partitions metadata, it
        /// never changes what is mapped.
        #[test]
        fn prop_sharded_plane_matches_single_shard_reference(
            ops in proptest::collection::vec((0u64..900, 1u64..120, 0u8..4), 1..40),
            count in prop_oneof![Just(2u32), Just(4), Just(7), Just(16)],
        ) {
            let mut reference = plane(1, 64, 1 << 20);
            let mut sharded = plane(count, 64, 1 << 20);
            for &op in &ops {
                apply(&mut reference, op);
                apply(&mut sharded, op);
            }
            prop_assert_eq!(shape(&reference, 1024), shape(&sharded, 1024));
            prop_assert_eq!(reference.allocated(), sharded.allocated());
            // One scratch reused across queries (the middleware's usage)
            // reads the same as a fresh view each time.
            let mut scratch = RangeView::default();
            for &(off, len, _) in &ops {
                sharded.view_into(F, off, len, &mut scratch);
                prop_assert_eq!(&scratch, &sharded.view(F, off, len));
            }
            prop_assert_eq!(reference.mapped_bytes(), reference.allocated());
        }

        /// Point-keyed operations (seal, clean, get) agree with the
        /// reference too: routing never changes which extent a key hits.
        #[test]
        fn prop_point_ops_route_consistently(
            inserts in proptest::collection::vec((0u64..40u64, 1u64..4), 1..20),
        ) {
            let stripe = 16;
            let mut reference = plane(1, stripe, 1 << 20);
            let mut sharded = plane(4, stripe, 1 << 20);
            for (i, &(tile, len)) in inserts.iter().enumerate() {
                // Tile-aligned inserts are shard-local by construction.
                let off = tile * stripe;
                for p in [&mut reference, &mut sharded] {
                    if !p.view(F, off, len).fully_missed() {
                        continue;
                    }
                    p.insert(F, off, len, FileId(100), i as u64 * 100, i % 2 == 0);
                }
                let (r, s) = (reference.get(F, off).copied(), sharded.get(F, off).copied());
                prop_assert_eq!(r.map(|e| (e.len, e.dirty)), s.map(|e| (e.len, e.dirty)));
                if i % 3 == 0 {
                    prop_assert_eq!(
                        reference.force_clean(F, off),
                        sharded.force_clean(F, off)
                    );
                }
            }
            prop_assert_eq!(reference.entry_count(), sharded.entry_count());
            prop_assert_eq!(reference.dirty_bytes(), sharded.dirty_bytes());
        }
    }

    #[test]
    fn capacity_splits_exactly_with_shard_zero_remainder() {
        let p = plane(4, 64, 1003);
        assert_eq!(p.capacity(), 1003);
        let available: Vec<u64> = p
            .router()
            .all_shards()
            .map(|s| p.shard_available(s))
            .collect();
        assert_eq!(available, vec![1003 - 250 * 3, 250, 250, 250]);
        let single = plane(1, 64, 1003);
        assert_eq!(single.shard_available(single.router().shard_of(F, 0)), 1003);
    }

    #[test]
    fn adopt_single_shard_moves_the_table_wholesale() {
        let mut dmt = Dmt::new();
        dmt.insert(F, 0, 100, FileId(9), 0, true);
        dmt.seal_if(F, 0, 1, 0xABCD); // wrong version: no seal
        let total = dmt.journal_records_total();
        let mut p = plane(1, 64, 4096);
        p.adopt(dmt, 4096);
        assert_eq!(p.journal_records_total(), total);
        assert_eq!(p.mapped_bytes(), 100);
        assert_eq!(p.allocated(), 100);
        assert_eq!(p.dirty_bytes(), 100);
    }

    #[test]
    fn adopt_redistributes_extents_to_owning_shards() {
        let mut dmt = Dmt::new();
        // Four tile-aligned extents spread across a 4-shard rotation.
        for t in 0..4u64 {
            dmt.insert(F, t * 64, 64, FileId(9), t * 64, t % 2 == 0);
        }
        let v = dmt.get(F, 0).map(|e| e.version).unwrap_or(0);
        dmt.seal_if(F, 0, v, 0x5EA1);
        let mut p = plane(4, 64, 4096);
        p.adopt(dmt, 4096);
        assert_eq!(p.entry_count(), 4);
        assert_eq!(p.mapped_bytes(), 256);
        assert_eq!(p.allocated(), 256);
        assert_eq!(p.get(F, 0).and_then(|e| e.checksum), Some(0x5EA1));
        assert_eq!(p.pending_records(), 0, "adoption re-records are discarded");
        // Every extent sits in the shard the router names.
        for t in 0..4u64 {
            assert!(p.get(F, t * 64).is_some());
        }
    }

    #[test]
    fn cdt_routes_by_offset_and_flags_survive() {
        let mut p = plane(4, 64, 4096);
        p.cdt_insert(F, 0, 32);
        p.cdt_insert(F, 64, 32);
        assert!(p.cdt_set_c_flag(F, 64, 32));
        assert_eq!(p.cdt_flagged(8).count(), 1);
        assert!(p.cdt_clear_c_flag(F, 64, 32));
        assert_eq!(p.cdt_flagged(8).count(), 0);
    }
}
