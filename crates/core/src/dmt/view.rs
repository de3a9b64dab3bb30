//! Range queries over the DMT interval map: coverage views, overlap
//! enumeration, and the boundary-split primitive shared by the mutation
//! paths in the parent module.

use std::collections::BTreeMap;
use std::ops::Range;

use s4d_pfs::FileId;

use super::{Dmt, MapExtent};

/// A covered piece of a queried range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoveredPiece {
    /// Offset in the original file where the piece starts.
    pub d_offset: u64,
    /// Piece length.
    pub len: u64,
    /// Cache file holding it.
    pub c_file: FileId,
    /// Offset of the piece within the cache file.
    pub c_offset: u64,
    /// Whether the cached copy is dirty.
    pub dirty: bool,
}

/// The result of a range query: covered pieces and uncovered gaps, both in
/// file order, exactly tiling the queried range.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RangeView {
    /// Cached pieces.
    pub pieces: Vec<CoveredPiece>,
    /// Uncovered `(offset, len)` gaps.
    pub gaps: Vec<(u64, u64)>,
}

impl RangeView {
    /// Empties the view, keeping its buffers — the reset `view_into`
    /// applies on entry.
    pub fn clear(&mut self) {
        self.pieces.clear();
        self.gaps.clear();
    }

    /// True if the whole range is cached.
    pub fn fully_covered(&self) -> bool {
        self.gaps.is_empty()
    }

    /// True if nothing of the range is cached.
    pub fn fully_missed(&self) -> bool {
        self.pieces.is_empty()
    }

    /// Bytes covered.
    pub fn covered_bytes(&self) -> u64 {
        self.pieces.iter().map(|p| p.len).sum()
    }
}

/// The key range of `map` holding every extent that overlaps
/// `[offset, offset+len)`: from the extent straddling `offset` (if any)
/// up to the range's end. Extents are non-empty and disjoint, so every
/// key in the span overlaps.
pub(super) fn overlap_span(map: &BTreeMap<u64, MapExtent>, offset: u64, len: u64) -> Range<u64> {
    if len == 0 {
        return offset..offset;
    }
    let start = map
        .range(..=offset)
        .next_back()
        .filter(|(&s, e)| s + e.len > offset)
        .map_or(offset, |(&s, _)| s);
    start..offset + len
}

impl Dmt {
    /// Queries coverage of `[offset, offset+len)`.
    pub fn view(&self, file: FileId, offset: u64, len: u64) -> RangeView {
        let mut view = RangeView::default();
        self.view_into(file, offset, len, &mut view);
        view
    }

    /// [`Dmt::view`] into a caller-owned buffer: `out` is cleared, then
    /// filled, so a reused scratch view allocates only while it grows.
    pub fn view_into(&self, file: FileId, offset: u64, len: u64, out: &mut RangeView) {
        out.clear();
        self.append_view(file, offset, len, out);
    }

    /// Appends the coverage of `[offset, offset+len)` to `out` — the
    /// sharded plane concatenates per-segment views this way.
    pub(crate) fn append_view(&self, file: FileId, offset: u64, len: u64, out: &mut RangeView) {
        if len == 0 {
            return;
        }
        let end = offset + len;
        let mut cursor = offset;
        for (s, e) in self.overlapping(file, offset, len) {
            let lo = s.max(offset);
            let hi = (s + e.len).min(end);
            if lo > cursor {
                out.gaps.push((cursor, lo - cursor));
            }
            out.pieces.push(CoveredPiece {
                d_offset: lo,
                len: hi - lo,
                c_file: e.c_file,
                c_offset: e.c_offset + (lo - s),
                dirty: e.dirty,
            });
            cursor = hi;
        }
        if cursor < end {
            out.gaps.push((cursor, end - cursor));
        }
    }

    /// Extents overlapping `[offset, offset+len)`, as `(d_offset, extent)`
    /// in file order.
    pub fn overlapping(
        &self,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> impl Iterator<Item = (u64, &MapExtent)> {
        self.files
            .get(&file)
            .into_iter()
            .flat_map(move |map| map.range(overlap_span(map, offset, len)))
            .map(|(&s, e)| (s, e))
    }

    /// Splits the extent at `key` so that no extent straddles `lo` or `hi`.
    pub(super) fn split_off(&mut self, file: FileId, key: u64, lo: u64, hi: u64) {
        let Some(map) = self.files.get_mut(&file) else {
            return; // nothing to split
        };
        let Some(e) = map.get(&key).copied() else {
            return; // nothing to split
        };
        let e_end = key + e.len;
        let cut_lo = lo.max(key);
        let cut_hi = hi.min(e_end);
        if cut_lo == key && cut_hi == e_end {
            return; // fully inside, no split needed
        }
        // Remove and re-insert up to three pieces.
        map.remove(&key);
        self.index(e.dirty).remove(&e.touch);
        self.entry_count -= 1;
        self.mapped -= e.len;
        if e.dirty {
            self.dirty_total -= e.len;
        }
        let pieces = [
            (key, cut_lo - key),
            (cut_lo, cut_hi - cut_lo),
            (cut_hi, e_end - cut_hi),
        ];
        for (p_off, p_len) in pieces {
            if p_len == 0 {
                continue; // the cut sits on the extent's own boundary
            }
            let touch = self.bump();
            self.index(e.dirty).insert(touch, (file, p_off));
            self.files.entry(file).or_default().insert(
                p_off,
                MapExtent {
                    len: p_len,
                    c_file: e.c_file,
                    c_offset: e.c_offset + (p_off - key),
                    dirty: e.dirty,
                    version: e.version,
                    // A whole-extent checksum does not survive a split.
                    checksum: None,
                    touch,
                },
            );
            self.entry_count += 1;
            self.mapped += p_len;
            if e.dirty {
                self.dirty_total += p_len;
            }
        }
        // No journal record: replaying the SetDirty that triggered the
        // split reproduces it exactly.
    }
}
