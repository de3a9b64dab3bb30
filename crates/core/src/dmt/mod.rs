//! The Data Mapping Table (paper §III.D, Fig. 5).
//!
//! The DMT tracks which ranges of each original file are cached, where in
//! the cache file they live (`C_file`, `C_offset`), and whether the cached
//! copy is dirty (`D_flag`). The in-memory organisation is an interval map
//! per file; persistence works through mutation records ([`crate::journal`])
//! that the middleware group-commits to a CServer journal file — the paper
//! implements this with Berkeley DB (§IV.A), whose key-value records serve
//! the same role.
//!
//! Two recency indices — one for clean extents, one for dirty — support the
//! Redirector's eviction policy ("a clean space will be the candidate based
//! on a LRU policy", §III.E) and the Rebuilder's oldest-first flushing, each
//! in time proportional to the work done rather than to the table size.
//!
//! Coverage views and overlap enumeration live in the [`view`] submodule;
//! the overlap search and the boundary split under them are
//! [`s4d_sim::RangeMap`]'s. Sharded deployments hold one `Dmt` per shard
//! behind [`crate::MetadataPlane`].

mod view;

use std::collections::BTreeMap;

use s4d_pfs::FileId;
use s4d_sim::{IdMap, RangeMap, Span};

use crate::journal::JournalRecord;

pub use view::{CoveredPiece, RangeView};

/// One mapped extent of an original file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapExtent {
    /// Length in bytes.
    pub len: u64,
    /// Cache file holding the bytes.
    pub c_file: FileId,
    /// Offset within the cache file.
    pub c_offset: u64,
    /// The paper's `D_flag`: cached copy newer than DServers.
    pub dirty: bool,
    /// Bumped on every overwrite; used to detect writes racing a flush.
    pub version: u64,
    /// CRC32 of the cached bytes, when verified (the scrubber's seal).
    /// Cleared whenever the bytes may change: overwrites and splits.
    pub checksum: Option<u32>,
    /// LRU timestamp (internal; lives in the index matching `dirty`).
    touch: u64,
}

impl Span for MapExtent {
    fn span_len(&self) -> u64 {
        self.len
    }

    fn split_off(&mut self, at: u64) -> Self {
        // A whole-extent checksum does not survive a split.
        self.checksum = None;
        let right = MapExtent {
            len: self.len - at,
            c_offset: self.c_offset + at,
            ..*self
        };
        self.len = at;
        right
    }
}

/// The recency indices, touch → `(file, d_offset)`, one per `dirty` state.
/// Only these methods keep an extent's touch in the index matching it.
#[derive(Debug, Clone, Default)]
struct Recency {
    clean: BTreeMap<u64, (FileId, u64)>,
    dirty: BTreeMap<u64, (FileId, u64)>,
    next: u64,
}

impl Recency {
    fn index(&mut self, dirty: bool) -> &mut BTreeMap<u64, (FileId, u64)> {
        if dirty {
            &mut self.dirty
        } else {
            &mut self.clean
        }
    }

    /// Gives `e`, mapped at `key`, the most recent touch.
    fn add(&mut self, file: FileId, key: u64, e: &mut MapExtent) {
        e.touch = self.next;
        self.next += 1;
        self.file(file, key, e);
    }

    /// Files `e` under its current touch, keeping its place in the order.
    fn file(&mut self, file: FileId, key: u64, e: &MapExtent) {
        self.index(e.dirty).insert(e.touch, (file, key));
    }

    fn forget(&mut self, e: &MapExtent) {
        self.index(e.dirty).remove(&e.touch);
    }
}

/// The Data Mapping Table.
#[derive(Debug, Clone, Default)]
pub struct Dmt {
    files: IdMap<FileId, BTreeMap<u64, MapExtent>>,
    recency: Recency,
    mapped: u64,
    dirty_total: u64,
    entry_count: usize,
    /// Mutation records accumulated since the last journal drain.
    pending_journal: Vec<JournalRecord>,
    /// Lifetime mutation records (metadata-size accounting, §V.E.1).
    journal_total: u64,
}

impl Dmt {
    /// Creates an empty table.
    pub fn new() -> Self {
        Dmt::default()
    }

    /// Total bytes currently mapped.
    pub fn mapped_bytes(&self) -> u64 {
        self.mapped
    }

    /// Total dirty bytes (maintained incrementally).
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty_total
    }

    /// Number of extents.
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    /// Lifetime mutation records (each costs [`crate::DMT_RECORD_BYTES`]
    /// of journal space).
    pub fn journal_records_total(&self) -> u64 {
        self.journal_total
    }

    /// Drains the mutation records accumulated since the last drain — the
    /// middleware serialises these into the next synchronous journal write,
    /// and crash recovery replays them (see [`crate::journal`]).
    pub fn take_pending_journal(&mut self) -> Vec<JournalRecord> {
        std::mem::take(&mut self.pending_journal)
    }

    /// [`Dmt::take_pending_journal`] in place: the buffer keeps its
    /// capacity, so a drained table does not regrow it record by record.
    pub fn drain_pending_journal(&mut self) -> std::vec::Drain<'_, JournalRecord> {
        self.pending_journal.drain(..)
    }

    /// Iterates over every live extent as `(file, d_offset, extent)`.
    pub fn iter_extents(&self) -> impl Iterator<Item = (FileId, u64, &MapExtent)> {
        self.files
            .iter()
            .flat_map(|(&f, m)| m.iter().map(move |(&o, e)| (f, o, e)))
    }

    /// The files holding extents (or once holding them), in no order.
    pub(crate) fn files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.files.keys().copied()
    }

    /// `file`'s extents as `(d_offset, extent)`, in offset order.
    pub(crate) fn file_extents(&self, file: FileId) -> impl Iterator<Item = (u64, &MapExtent)> {
        self.files
            .get(&file)
            .into_iter()
            .flat_map(|m| m.iter().map(|(&o, e)| (o, e)))
    }

    fn record(&mut self, r: JournalRecord) {
        self.pending_journal.push(r);
        self.journal_total += 1;
    }

    /// Inserts a new extent mapping `[d_offset, d_offset+len)` →
    /// `(c_file, c_offset)`.
    ///
    /// # Panics
    ///
    /// Panics if the range overlaps an existing extent (the caller must
    /// only insert into gaps) or `len == 0`.
    pub fn insert(
        &mut self,
        file: FileId,
        d_offset: u64,
        len: u64,
        c_file: FileId,
        c_offset: u64,
        dirty: bool,
    ) {
        let mut e = MapExtent {
            len,
            c_file,
            c_offset,
            dirty,
            version: 0,
            checksum: None,
            touch: 0,
        };
        self.recency.add(file, d_offset, &mut e);
        let map = self.files.entry(file).or_default();
        assert!(
            map.insert_disjoint(d_offset, e).is_ok(),
            "DMT insert at {file}:{d_offset}+{len} is empty or overlaps an existing extent"
        );
        self.mapped += len;
        if dirty {
            self.dirty_total += len;
        }
        self.entry_count += 1;
        self.record(JournalRecord::Insert {
            d_file: file,
            d_offset,
            len,
            c_file,
            c_offset,
            dirty,
        });
    }

    /// Refreshes the LRU position of every extent overlapping the range.
    pub fn touch_range(&mut self, file: FileId, offset: u64, len: u64) {
        let Some(map) = self.files.get_mut(&file) else {
            return;
        };
        for (&key, e) in map.overlapping_mut(offset, offset + len) {
            self.recency.forget(e);
            self.recency.add(file, key, e);
        }
    }

    /// Splits the extents straddling either end of `[offset, offset+len)`;
    /// both halves take fresh touches, left first. No journal record:
    /// replaying the mutation that triggered a split reproduces it.
    fn split_at_bounds(&mut self, file: FileId, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let Some(map) = self.files.get_mut(&file) else {
            return;
        };
        for at in [offset, offset + len] {
            let Some(left) = map.split_at(at) else {
                continue;
            };
            self.entry_count += 1;
            if let Some(e) = map.get_mut(&left) {
                self.recency.forget(e);
                self.recency.add(file, left, e);
            }
            if let Some(e) = map.get_mut(&at) {
                self.recency.add(file, at, e);
            }
        }
    }

    /// Marks `[offset, offset+len)` dirty, splitting boundary extents so
    /// only the written bytes are flagged. Bytes of the range not covered
    /// by the DMT are ignored (the caller routes them elsewhere).
    pub fn mark_dirty(&mut self, file: FileId, offset: u64, len: u64) {
        self.split_at_bounds(file, offset, len);
        // After splitting, flag every (now fully contained) extent.
        let Some(map) = self.files.get_mut(&file) else {
            return;
        };
        for (&key, e) in map.overlapping_mut(offset, offset + len) {
            debug_assert!(key >= offset && key + e.len <= offset + len);
            self.recency.forget(e);
            if !e.dirty {
                self.dirty_total += e.len;
            }
            e.dirty = true;
            e.version += 1;
            e.checksum = None; // the bytes are about to change
            self.recency.add(file, key, e);
            self.pending_journal.push(JournalRecord::SetDirty {
                d_file: file,
                d_offset: key,
                len: e.len,
            });
            self.journal_total += 1;
        }
    }

    /// Invalidates the seal of every extent overlapping the range without
    /// changing its dirty state — for write-through overwrites whose cache
    /// bytes change while the journal is stalled. The version bump gates
    /// out any in-flight seal computed over the old bytes; no journal
    /// record is emitted (a lost or stale seal only downgrades integrity
    /// checking — both copies hold the new bytes, so repair converges).
    pub fn unseal(&mut self, file: FileId, offset: u64, len: u64) {
        self.split_at_bounds(file, offset, len);
        let Some(map) = self.files.get_mut(&file) else {
            return;
        };
        for e in map.overlapping_mut(offset, offset + len).map(|(_, e)| e) {
            e.version += 1;
            e.checksum = None;
        }
    }

    /// Marks the extent at exactly `d_offset` clean, provided its version
    /// still matches (no write raced the flush). Returns whether it did.
    pub fn mark_clean_if(&mut self, file: FileId, d_offset: u64, version: u64) -> bool {
        let Some(e) = self.files.get_mut(&file).and_then(|m| m.get_mut(&d_offset)) else {
            return false;
        };
        if e.version != version || !e.dirty {
            return false;
        }
        self.force_clean(file, d_offset)
    }

    /// Marks the extent at exactly `d_offset` clean unconditionally —
    /// used by journal replay, where the persisted record is authoritative.
    /// Returns whether such an extent existed.
    pub fn force_clean(&mut self, file: FileId, d_offset: u64) -> bool {
        let Some(e) = self.files.get_mut(&file).and_then(|m| m.get_mut(&d_offset)) else {
            return false;
        };
        if e.dirty {
            self.recency.forget(e);
            e.dirty = false;
            self.recency.file(file, d_offset, e);
            self.dirty_total -= e.len;
            self.record(JournalRecord::SetClean {
                d_file: file,
                d_offset,
            });
        }
        true
    }

    /// The extent starting exactly at `d_offset`, if any.
    pub fn get(&self, file: FileId, d_offset: u64) -> Option<&MapExtent> {
        self.files.get(&file).and_then(|m| m.get(&d_offset))
    }

    /// Mutation records currently buffered (not yet drained into a journal
    /// write). The middleware's journal-before-ack audit asserts this is
    /// zero whenever an operation returns to the runner.
    pub fn pending_records(&self) -> usize {
        self.pending_journal.len()
    }

    /// Attaches a content checksum to the extent at exactly `d_offset`,
    /// provided its version still matches (no write raced the
    /// verification). Records a `Seal` journal record. Returns whether the
    /// seal applied.
    pub fn seal_if(&mut self, file: FileId, d_offset: u64, version: u64, checksum: u32) -> bool {
        let Some(e) = self.files.get_mut(&file).and_then(|m| m.get_mut(&d_offset)) else {
            return false;
        };
        if e.version != version {
            return false;
        }
        e.checksum = Some(checksum);
        let len = e.len;
        self.record(JournalRecord::Seal {
            d_file: file,
            d_offset,
            checksum,
            len,
        });
        true
    }

    /// Applies a replayed `Seal` record: attaches the checksum only when
    /// an extent starts exactly at `d_offset` with exactly `len` bytes (a
    /// split or re-created extent must not inherit a stale seal). Emits no
    /// journal record. Returns whether it applied.
    pub fn apply_seal(&mut self, file: FileId, d_offset: u64, len: u64, checksum: u32) -> bool {
        let Some(e) = self.files.get_mut(&file).and_then(|m| m.get_mut(&d_offset)) else {
            return false;
        };
        if e.len != len {
            return false;
        }
        e.checksum = Some(checksum);
        true
    }

    /// Drops the checksum of every dirty extent — the crash-recovery
    /// conservative default: a torn in-flight overwrite can leave a dirty
    /// extent's bytes ahead of its last sealed checksum, and treating that
    /// as corruption would discard acknowledged data. Dirty extents become
    /// unverified until their next flush or write completion re-seals them.
    #[expect(clippy::iter_over_hash_type, reason = "order-independent: unseals all")]
    pub fn clear_dirty_checksums(&mut self) {
        for m in self.files.values_mut() {
            for e in m.values_mut() {
                if e.dirty {
                    e.checksum = None;
                }
            }
        }
    }

    /// Removes the extent starting exactly at `d_offset`.
    pub fn remove(&mut self, file: FileId, d_offset: u64) -> Option<MapExtent> {
        let e = self.files.get_mut(&file)?.remove(&d_offset)?;
        self.recency.forget(&e);
        if e.dirty {
            self.dirty_total -= e.len;
        }
        self.mapped -= e.len;
        self.entry_count -= 1;
        self.record(JournalRecord::Remove {
            d_file: file,
            d_offset,
        });
        Some(e)
    }

    /// Selects and removes clean extents in LRU order until at least
    /// `bytes` of cache space are reclaimed (or no clean extents remain),
    /// skipping extents for which `is_pinned(file, d_offset, len)`
    /// returns true — the Redirector pins ranges referenced by in-flight
    /// reads so eviction cannot discard bytes a queued sub-request is
    /// about to return. The victims, as `(file, d_offset, extent)`,
    /// replace the contents of `victims` (cleared on entry, so a caller
    /// can keep one buffer across calls). Cost is proportional to the
    /// number of victims, not the table size.
    pub fn evict_clean_lru_excluding(
        &mut self,
        bytes: u64,
        victims: &mut Vec<(FileId, u64, MapExtent)>,
        is_pinned: impl Fn(FileId, u64, u64) -> bool,
    ) {
        victims.clear();
        let mut reclaimed = 0u64;
        for &(file, d_off) in self.recency.clean.values() {
            if reclaimed >= bytes {
                break;
            }
            let Some(e) = self.get(file, d_off) else {
                continue; // clean index entries are kept live; skip if stale
            };
            if is_pinned(file, d_off, e.len) {
                continue;
            }
            reclaimed += e.len;
            victims.push((file, d_off, *e));
        }
        for &(file, d_off, _) in victims.iter() {
            self.remove(file, d_off);
        }
    }

    /// The dirty extents' `(file, d_offset)` keys, least recently used
    /// first, straight from the recency index: no extent is looked up, so
    /// a caller that discards most keys (the Rebuilder skips extents
    /// already being flushed) pays only for the ones it keeps.
    pub fn dirty_keys(&self) -> impl Iterator<Item = (FileId, u64)> + '_ {
        self.recency.dirty.values().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const F: FileId = FileId(1);
    const CF: FileId = FileId(100);

    fn evict(
        d: &mut Dmt,
        bytes: u64,
        is_pinned: impl Fn(FileId, u64, u64) -> bool,
    ) -> Vec<(FileId, u64, MapExtent)> {
        let mut victims = Vec::new();
        d.evict_clean_lru_excluding(bytes, &mut victims, is_pinned);
        victims
    }

    #[test]
    fn empty_view_is_one_gap() {
        let d = Dmt::new();
        let v = d.view(F, 10, 90);
        assert!(v.fully_missed());
        assert_eq!(v.gaps, vec![(10, 90)]);
        assert_eq!(v.covered_bytes(), 0);
        assert!(d.view(F, 0, 0).gaps.is_empty());
    }

    #[test]
    fn insert_and_exact_hit() {
        let mut d = Dmt::new();
        d.insert(F, 100, 50, CF, 0, true);
        let v = d.view(F, 100, 50);
        assert!(v.fully_covered());
        assert_eq!(v.pieces.len(), 1);
        let p = v.pieces[0];
        assert_eq!(p.c_file, CF);
        assert_eq!(p.c_offset, 0);
        assert!(p.dirty);
        assert_eq!(d.mapped_bytes(), 50);
        assert_eq!(d.dirty_bytes(), 50);
        assert_eq!(d.entry_count(), 1);
    }

    #[test]
    fn partial_overlap_translates_offsets() {
        let mut d = Dmt::new();
        d.insert(F, 100, 50, CF, 1000, false);
        let v = d.view(F, 120, 100);
        assert_eq!(v.pieces.len(), 1);
        assert_eq!(v.pieces[0].d_offset, 120);
        assert_eq!(v.pieces[0].len, 30);
        assert_eq!(v.pieces[0].c_offset, 1020);
        assert_eq!(v.gaps, vec![(150, 70)]);
    }

    #[test]
    fn view_tiles_range_with_multiple_extents() {
        let mut d = Dmt::new();
        d.insert(F, 0, 10, CF, 0, false);
        d.insert(F, 20, 10, CF, 10, false);
        d.insert(F, 40, 10, CF, 20, true);
        let v = d.view(F, 0, 60);
        assert_eq!(v.pieces.len(), 3);
        assert_eq!(v.gaps, vec![(10, 10), (30, 10), (50, 10)]);
        assert_eq!(v.covered_bytes(), 30);
    }

    #[test]
    #[should_panic(expected = "overlaps an existing extent")]
    fn insert_rejects_overlap() {
        let mut d = Dmt::new();
        d.insert(F, 0, 100, CF, 0, false);
        d.insert(F, 50, 10, CF, 500, false);
    }

    #[test]
    fn mark_dirty_splits_boundaries() {
        let mut d = Dmt::new();
        d.insert(F, 0, 100, CF, 0, false);
        d.mark_dirty(F, 30, 40);
        // Now three extents: [0,30) clean, [30,70) dirty, [70,100) clean.
        assert_eq!(d.entry_count(), 3);
        assert_eq!(d.mapped_bytes(), 100);
        let v = d.view(F, 0, 100);
        assert_eq!(v.pieces.len(), 3);
        assert!(!v.pieces[0].dirty);
        assert!(v.pieces[1].dirty);
        assert!(!v.pieces[2].dirty);
        // Cache offsets remain contiguous through the split.
        assert_eq!(v.pieces[0].c_offset, 0);
        assert_eq!(v.pieces[1].c_offset, 30);
        assert_eq!(v.pieces[2].c_offset, 70);
        assert_eq!(d.dirty_bytes(), 40);
    }

    #[test]
    fn mark_clean_respects_version() {
        let mut d = Dmt::new();
        d.insert(F, 0, 10, CF, 0, false);
        d.mark_dirty(F, 0, 10);
        let v = d.get(F, 0).unwrap().version;
        // A racing write bumps the version.
        d.mark_dirty(F, 0, 10);
        assert!(!d.mark_clean_if(F, 0, v), "stale version must not clean");
        let v2 = d.get(F, 0).unwrap().version;
        assert!(d.mark_clean_if(F, 0, v2));
        assert!(!d.get(F, 0).unwrap().dirty);
        assert_eq!(d.dirty_bytes(), 0);
        assert!(!d.mark_clean_if(F, 0, v2), "already clean");
        assert!(!d.mark_clean_if(F, 999, 0), "absent extent");
    }

    #[test]
    fn force_clean_ignores_versions() {
        let mut d = Dmt::new();
        d.insert(F, 0, 10, CF, 0, true);
        assert!(d.force_clean(F, 0));
        assert!(!d.get(F, 0).unwrap().dirty);
        assert_eq!(d.dirty_bytes(), 0);
        assert!(d.force_clean(F, 0), "idempotent on clean extents");
        assert!(!d.force_clean(F, 99), "absent extent reported");
    }

    #[test]
    fn eviction_prefers_lru_clean() {
        let mut d = Dmt::new();
        d.insert(F, 0, 10, CF, 0, false); // oldest
        d.insert(F, 100, 10, CF, 10, false);
        d.insert(F, 200, 10, CF, 20, true); // dirty: not evictable
                                            // Touch the oldest so the middle becomes LRU.
        d.touch_range(F, 0, 10);
        let victims = evict(&mut d, 10, |_, _, _| false);
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].1, 100, "middle extent was least recently used");
        assert_eq!(d.entry_count(), 2);
        // Asking for more than clean space yields what exists.
        let victims = evict(&mut d, 1000, |_, _, _| false);
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].1, 0);
        assert!(
            evict(&mut d, 1, |_, _, _| false).is_empty(),
            "only dirty data remains"
        );
        assert_eq!(d.dirty_bytes(), 10);
    }

    #[test]
    fn eviction_skips_pinned_ranges() {
        let mut d = Dmt::new();
        d.insert(F, 0, 10, CF, 0, false);
        d.insert(F, 100, 10, CF, 10, false);
        // Pin the older extent: the newer one must be evicted instead.
        let victims = evict(&mut d, 5, |_, off, len| off < 10 && off + len > 0);
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].1, 100);
        // With everything pinned, nothing is evicted, and a stale entry in
        // the buffer is cleared on entry.
        let mut victims = vec![(F, 7, *d.get(F, 0).unwrap())];
        d.evict_clean_lru_excluding(1000, &mut victims, |_, _, _| true);
        assert!(victims.is_empty());
        assert_eq!(d.entry_count(), 1, "the pinned extent stays mapped");
    }

    #[test]
    fn split_pieces_take_fresh_recency_left_first() {
        let mut d = Dmt::new();
        d.insert(F, 0, 100, CF, 0, false); // A, older
        d.insert(F, 200, 100, CF, 100, false); // B
        d.unseal(F, 30, 40);
        // A's pieces are all newer than B, oldest on the left.
        let order: Vec<u64> = evict(&mut d, 1000, |_, _, _| false)
            .iter()
            .map(|&(_, off, _)| off)
            .collect();
        assert_eq!(order, vec![200, 0, 30, 70]);
    }

    #[test]
    fn dirty_keys_list_oldest_first() {
        let mut d = Dmt::new();
        d.insert(F, 0, 10, CF, 0, true);
        d.insert(F, 100, 10, CF, 10, true);
        d.insert(F, 200, 10, CF, 20, false);
        let dirty: Vec<_> = d.dirty_keys().collect();
        assert_eq!(dirty, vec![(F, 0), (F, 100)]);
    }

    #[test]
    fn clean_transition_preserves_recency_order() {
        let mut d = Dmt::new();
        d.insert(F, 0, 10, CF, 0, true); // oldest
        d.insert(F, 100, 10, CF, 10, false);
        // Cleaning the dirty extent moves it to the clean index with its
        // original (older) recency: it becomes the eviction candidate.
        let v = d.get(F, 0).unwrap().version;
        d.mark_clean_if(F, 0, v);
        let victims = evict(&mut d, 5, |_, _, _| false);
        assert_eq!(victims[0].1, 0);
    }

    #[test]
    fn seals_are_version_gated_and_cleared_on_change() {
        let mut d = Dmt::new();
        d.insert(F, 0, 10, CF, 0, false);
        let v = d.get(F, 0).unwrap().version;
        assert!(!d.seal_if(F, 0, v + 1, 7), "stale version must not seal");
        assert!(!d.seal_if(F, 99, 0, 7), "absent extent");
        assert!(d.seal_if(F, 0, v, 7));
        assert_eq!(d.get(F, 0).unwrap().checksum, Some(7));
        // Cleaning does not touch the bytes: the seal survives.
        d.mark_dirty(F, 0, 10);
        assert_eq!(d.get(F, 0).unwrap().checksum, None, "overwrite clears");
        let v2 = d.get(F, 0).unwrap().version;
        assert!(d.seal_if(F, 0, v2, 9));
        assert!(d.mark_clean_if(F, 0, v2));
        assert_eq!(d.get(F, 0).unwrap().checksum, Some(9));
        // A split invalidates whole-extent checksums on every piece.
        d.mark_dirty(F, 2, 4);
        for (off, e) in d.overlapping(F, 0, 10) {
            assert_eq!(e.checksum, None, "piece at {off} kept a stale seal");
        }
        assert_eq!(d.overlapping(F, 0, 10).count(), 3);
        // clear_dirty_checksums drops only dirty seals.
        let mut d = Dmt::new();
        d.insert(F, 0, 10, CF, 0, false);
        d.insert(F, 50, 10, CF, 10, true);
        assert!(d.apply_seal(F, 0, 10, 1));
        assert!(d.apply_seal(F, 50, 10, 2));
        assert!(!d.apply_seal(F, 50, 99, 3), "length mismatch");
        d.clear_dirty_checksums();
        assert_eq!(d.get(F, 0).unwrap().checksum, Some(1));
        assert_eq!(d.get(F, 50).unwrap().checksum, None);
    }

    #[test]
    fn remove_updates_accounting() {
        let mut d = Dmt::new();
        d.insert(F, 0, 10, CF, 0, true);
        assert!(d.remove(F, 0).is_some());
        assert!(d.remove(F, 0).is_none());
        assert_eq!(d.mapped_bytes(), 0);
        assert_eq!(d.dirty_bytes(), 0);
        assert_eq!(d.entry_count(), 0);
    }

    #[test]
    fn journal_accounting_drains() {
        let mut d = Dmt::new();
        d.insert(F, 0, 10, CF, 0, false);
        d.mark_dirty(F, 0, 10);
        let records = d.take_pending_journal();
        assert!(records.len() >= 2);
        assert!(matches!(records[0], JournalRecord::Insert { .. }));
        assert!(d.take_pending_journal().is_empty());
        assert!(d.journal_records_total() >= 2);
        assert_eq!(d.iter_extents().count(), 1);
    }

    // Model-based test: the DMT must agree with a per-byte map under a
    // random sequence of inserts (into gaps), dirty markings, cleanings,
    // and evictions; the incremental dirty counter must agree with a
    // recount.
    proptest! {
        #[test]
        fn prop_matches_byte_model(
            ops in proptest::collection::vec((0u64..200, 1u64..40, 0u8..4), 1..60)
        ) {
            const N: usize = 256;
            // byte -> Option<(c_byte, dirty)>
            let mut model: Vec<Option<(u64, bool)>> = vec![None; N];
            let mut d = Dmt::new();
            let mut next_c = 0u64;
            for (off, len, kind) in ops {
                let len = len.min(N as u64 - off);
                if len == 0 { continue; }
                match kind {
                    0 => {
                        // Insert the gaps of this range as fresh extents.
                        let view = d.view(F, off, len);
                        for (g_off, g_len) in view.gaps {
                            d.insert(F, g_off, g_len, CF, next_c, false);
                            for b in g_off..g_off + g_len {
                                model[b as usize] = Some((next_c + (b - g_off), false));
                            }
                            next_c += g_len;
                        }
                    }
                    1 => {
                        d.mark_dirty(F, off, len);
                        for b in off..off + len {
                            if let Some((c, _)) = model[b as usize] {
                                model[b as usize] = Some((c, true));
                            }
                        }
                    }
                    2 => {
                        // Clean whatever extent starts exactly at `off`.
                        if d.force_clean(F, off) {
                            let e = d.get(F, off).unwrap();
                            for b in off..off + e.len {
                                if let Some((c, _)) = model[b as usize] {
                                    model[b as usize] = Some((c, false));
                                }
                            }
                        }
                    }
                    _ => {
                        // Evict up to `len` clean bytes.
                        for (_, v_off, e) in evict(&mut d, len, |_, _, _| false) {
                            for b in v_off..v_off + e.len {
                                model[b as usize] = None;
                            }
                        }
                    }
                }
            }
            // Compare every byte through view().
            let v = d.view(F, 0, N as u64);
            let mut got: Vec<Option<(u64, bool)>> = vec![None; N];
            for p in &v.pieces {
                for i in 0..p.len {
                    got[(p.d_offset + i) as usize] = Some((p.c_offset + i, p.dirty));
                }
            }
            prop_assert_eq!(&got, &model);
            let mapped: u64 = model.iter().filter(|b| b.is_some()).count() as u64;
            prop_assert_eq!(d.mapped_bytes(), mapped);
            let dirty: u64 = model.iter().filter(|b| matches!(b, Some((_, true)))).count() as u64;
            prop_assert_eq!(d.dirty_bytes(), dirty);
            // Index consistency: every index entry points at a live extent
            // with matching dirtiness; counts add up.
            prop_assert_eq!(
                d.entry_count(),
                d.iter_extents().count()
            );
            let dirty_entries = d.iter_extents().filter(|(_, _, e)| e.dirty).count();
            prop_assert_eq!(d.dirty_keys().count(), dirty_entries);
            for (f, off) in d.dirty_keys() {
                prop_assert!(d.get(f, off).is_some_and(|e| e.dirty));
            }
        }

        /// `view_into` on a scratch still holding an earlier query's
        /// result equals a fresh `view`, and both agree with the
        /// `overlapping` walk they are built on.
        #[test]
        fn prop_view_into_reused_scratch_matches_fresh_view(
            extents in proptest::collection::vec((0u64..240, 1u64..16, any::<bool>()), 0..30),
            queries in proptest::collection::vec((0u64..256, 0u64..64), 1..20),
        ) {
            let mut d = Dmt::new();
            for (i, &(off, len, dirty)) in extents.iter().enumerate() {
                if d.overlapping(F, off, len).next().is_none() {
                    d.insert(F, off, len, CF, i as u64 * 100, dirty);
                }
            }
            let mut scratch = RangeView::default();
            for &(off, len) in &queries {
                d.view_into(F, off, len, &mut scratch);
                let fresh = d.view(F, off, len);
                prop_assert_eq!(&scratch, &fresh);
                let covered: u64 = d
                    .overlapping(F, off, len)
                    .map(|(s, e)| (s + e.len).min(off + len) - s.max(off))
                    .sum();
                prop_assert_eq!(fresh.covered_bytes(), covered);
                // A file the table has never seen is one gap (or nothing).
                d.view_into(FileId(99), off, len, &mut scratch);
                prop_assert!(scratch.fully_missed());
                prop_assert_eq!(scratch.gaps.len(), usize::from(len > 0));
            }
        }
    }
}
