//! Range queries over the DMT interval map: coverage views and overlap
//! enumeration.

use s4d_pfs::FileId;
use s4d_sim::RangeMap;

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
    /// sharded plane concatenates per-segment views this way. One search
    /// of the file's map: the walk runs backwards from the last extent
    /// starting before the end and stops at the one holding `offset`, so
    /// a range inside one extent, or inside one gap, costs a single step.
    pub(crate) fn append_view(&self, file: FileId, offset: u64, len: u64, out: &mut RangeView) {
        let end = offset + len;
        let (pieces, gaps) = (out.pieces.len(), out.gaps.len());
        let mut cursor = end;
        let walk = self.files.get(&file).filter(|_| len > 0).into_iter();
        for (&s, e) in walk.flat_map(|map| map.range(..end).rev()) {
            let hi = (s + e.len).min(end);
            if hi <= offset {
                break;
            }
            let lo = s.max(offset);
            if hi < cursor {
                out.gaps.push((hi, cursor - hi));
            }
            out.pieces.push(CoveredPiece {
                d_offset: lo,
                len: hi - lo,
                c_file: e.c_file,
                c_offset: e.c_offset + (lo - s),
                dirty: e.dirty,
            });
            cursor = lo;
            if s <= offset {
                break;
            }
        }
        if cursor > offset {
            out.gaps.push((offset, cursor - offset));
        }
        if let Some(new) = out.pieces.get_mut(pieces..) {
            new.reverse();
        }
        if let Some(new) = out.gaps.get_mut(gaps..) {
            new.reverse();
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
            .flat_map(move |map| map.overlapping(offset, offset + len))
            .map(|(&s, e)| (s, e))
    }
}
