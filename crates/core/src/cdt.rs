//! The Critical Data Table (paper §III.C, Fig. 5).
//!
//! Each entry records one performance-critical request range: the original
//! file, offset, length, and the `C_flag` that tells the Rebuilder the data
//! still needs to be cached. Entries are keyed by `(file, offset, length)`
//! — the granularity at which applications re-issue requests, which is what
//! makes first-run identification useful on the second run (§V.A).
//!
//! The table is one insertion-ordered ring of [`CdtEntry`] records (24 B
//! each) plus two small indexes: an open-addressing table of ring
//! positions (4 B a slot, at most three quarters full) and the `C_flag`s,
//! one bit per ring position. The ring holds nothing but the entries.

use std::hash::Hasher;

use s4d_pfs::FileId;
use s4d_sim::IdHasher;

use crate::dmt::set_bits;

/// One CDT entry: a critical range. Its `C_flag` is a bit of the table's
/// flag bitmap, not a field: [`Cdt::flagged`] yields the entries whose
/// flag is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CdtEntry {
    /// Original file.
    pub file: FileId,
    /// Request offset (the paper's `D_offset`).
    pub offset: u64,
    /// Request length.
    pub len: u64,
}

impl CdtEntry {
    fn is(&self, file: FileId, offset: u64, len: u64) -> bool {
        self.file == file && self.offset == offset && self.len == len
    }
}

/// An index slot that names no ring position.
const EMPTY: u32 = u32::MAX;

/// Slots the index starts with on its first insert.
const MIN_SLOTS: usize = 16;

/// Flag bits per bitmap word.
const WORD_BITS: usize = 64;

/// The Critical Data Table: a bounded map of performance-critical ranges.
///
/// When full, the oldest entry is evicted (insertion order), bounding the
/// memory the Identifier may consume on arbitrarily long runs. Memory
/// follows the live entries, never the bound: the ring, the index and the
/// flag bitmap grow by doubling as entries arrive.
#[derive(Debug, Clone)]
pub struct Cdt {
    /// Live entries in insertion order. Until the table is full the
    /// oldest is at 0 and `head` stays 0; once full, a new entry replaces
    /// the oldest in place and `head` moves on to the next oldest.
    ring: Vec<CdtEntry>,
    head: usize,
    /// Linear-probing index of ring positions ([`EMPTY`] = free slot);
    /// its length is zero or a power of two.
    index: Vec<u32>,
    /// The `C_flag`s: bit `p % 64` of word `p / 64` is ring position
    /// `p`'s. Empty until the first flag is set, then as long as the
    /// ring's capacity needs; every bit past the live ring is clear.
    flags: Vec<u64>,
    /// Set bits in `flags`, so a table with none is scanned in O(1).
    flag_count: usize,
    max_entries: usize,
    inserted_total: u64,
    evicted_total: u64,
}

impl Cdt {
    /// Creates a table bounded to `max_entries` (at most `u32::MAX - 1`;
    /// a larger bound is clamped). Nothing is allocated until the first
    /// insert.
    ///
    /// # Panics
    ///
    /// Panics if `max_entries == 0`.
    pub fn new(max_entries: usize) -> Self {
        assert!(max_entries > 0, "CDT must hold at least one entry");
        Cdt {
            ring: Vec::new(),
            head: 0,
            index: Vec::new(),
            flags: Vec::new(),
            flag_count: 0,
            max_entries: max_entries.min(EMPTY as usize - 1),
            inserted_total: 0,
            evicted_total: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total insertions and FIFO evictions, for reports.
    pub fn churn(&self) -> (u64, u64) {
        (self.inserted_total, self.evicted_total)
    }

    /// True if the exact range is recorded as critical.
    pub fn contains(&self, file: FileId, offset: u64, len: u64) -> bool {
        self.find(file, offset, len).is_some()
    }

    /// Records a critical range (idempotent; `C_flag` preserved on
    /// re-insert). Evicts the oldest entry when full.
    pub fn insert(&mut self, file: FileId, offset: u64, len: u64) {
        if self.find(file, offset, len).is_some() {
            return;
        }
        let entry = CdtEntry { file, offset, len };
        let pos = if self.ring.len() == self.max_entries {
            // Full: the new entry takes the oldest one's place, unflagged.
            let pos = self.head;
            if let Some(old) = self.ring.get(pos).copied() {
                self.unindex(pos, &old);
                self.set_bit(pos, false);
                self.evicted_total += 1;
            }
            if let Some(slot) = self.ring.get_mut(pos) {
                *slot = entry;
            }
            self.head = (pos + 1) % self.ring.len();
            pos
        } else {
            if self.ring.len() == self.ring.capacity() {
                // Double, but never past the bound.
                let more = self.ring.len().max(MIN_SLOTS / 2);
                self.ring
                    .reserve_exact(more.min(self.max_entries - self.ring.len()));
            }
            self.ring.push(entry);
            self.ring.len() - 1
        };
        self.inserted_total += 1;
        self.index_insert(pos);
    }

    /// Sets the `C_flag` of an entry (read missed: needs fetching).
    /// Returns `true` if the entry existed.
    pub fn set_c_flag(&mut self, file: FileId, offset: u64, len: u64) -> bool {
        let Some(pos) = self.find(file, offset, len) else {
            return false;
        };
        if self.flags.len() * WORD_BITS <= pos {
            // Cover the ring's capacity, so the bitmap regrows only when
            // the ring did.
            self.flags
                .resize(self.ring.capacity().div_ceil(WORD_BITS), 0);
        }
        self.set_bit(pos, true);
        true
    }

    /// Clears the `C_flag` after the Rebuilder cached the data.
    /// Returns `true` if the entry existed.
    pub fn clear_c_flag(&mut self, file: FileId, offset: u64, len: u64) -> bool {
        let Some(pos) = self.find(file, offset, len) else {
            return false;
        };
        self.set_bit(pos, false);
        true
    }

    /// Up to `limit` entries whose `C_flag` is set, oldest first: the
    /// scan walks the bitmap from the oldest entry around the ring,
    /// skipping clear words, and stops at the last flag. With none set it
    /// costs nothing.
    pub fn flagged(&self, limit: usize) -> impl Iterator<Item = CdtEntry> + '_ {
        let head = self.head;
        let first = head / WORD_BITS;
        let from_head = self.flags.get(first..).unwrap_or_default();
        set_bits(from_head)
            .map(move |p| first * WORD_BITS + p)
            .skip_while(move |&p| p < head)
            .chain(set_bits(&self.flags).take_while(move |&p| p < head))
            .take(limit.min(self.flag_count))
            .filter_map(|pos| self.ring.get(pos).copied())
    }

    /// Removes everything. The ring, index and bitmap keep their capacity.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.index.fill(EMPTY);
        self.flags.fill(0);
        self.flag_count = 0;
    }

    /// Sets or clears ring position `pos`'s flag bit (setting needs the
    /// bitmap to cover `pos`), keeping the count.
    fn set_bit(&mut self, pos: usize, on: bool) {
        let Some(word) = self.flags.get_mut(pos / WORD_BITS) else {
            return;
        };
        let bit = 1u64 << (pos % WORD_BITS);
        if (*word & bit != 0) != on {
            *word ^= bit;
            if on {
                self.flag_count += 1;
            } else {
                self.flag_count -= 1;
            }
        }
    }

    /// The index slot a key's probe sequence starts at.
    fn home(&self, file: FileId, offset: u64, len: u64) -> usize {
        let mut h = IdHasher::default();
        h.write_u64(file.0);
        h.write_u64(offset);
        h.write_u64(len);
        h.finish() as usize & (self.index.len() - 1)
    }

    /// Ring position of a key, if live.
    fn find(&self, file: FileId, offset: u64, len: u64) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut slot = self.home(file, offset, len);
        loop {
            let pos = *self.index.get(slot)?;
            if pos == EMPTY {
                return None;
            }
            if self.ring.get(pos as usize)?.is(file, offset, len) {
                return Some(pos as usize);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Indexes ring position `pos` (its entry already in place), growing
    /// the index past three-quarters full.
    fn index_insert(&mut self, pos: usize) {
        if 4 * self.ring.len() > 3 * self.index.len() {
            self.index = vec![EMPTY; (2 * self.index.len()).max(MIN_SLOTS)];
            for p in 0..self.ring.len() {
                self.place(p);
            }
        } else {
            self.place(pos);
        }
    }

    /// Puts `pos` in the first free slot of its probe sequence.
    fn place(&mut self, pos: usize) {
        let Some(&e) = self.ring.get(pos) else {
            return;
        };
        let mask = self.index.len() - 1;
        let mut slot = self.home(e.file, e.offset, e.len);
        while let Some(s) = self.index.get_mut(slot) {
            if *s == EMPTY {
                *s = pos as u32;
                return;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Drops ring position `pos` (holding `entry`) from the index by
    /// backward-shift deletion: each later member of the probe cluster
    /// that may live in the hole moves into it, so no probe sequence is
    /// ever cut short and no tombstone is left behind.
    fn unindex(&mut self, pos: usize, entry: &CdtEntry) {
        let mask = self.index.len() - 1;
        let mut hole = self.home(entry.file, entry.offset, entry.len);
        loop {
            match self.index.get(hole) {
                Some(&p) if p as usize == pos => break,
                Some(&p) if p != EMPTY => hole = (hole + 1) & mask,
                _ => return, // not indexed
            }
        }
        let mut slot = hole;
        loop {
            slot = (slot + 1) & mask;
            let Some(&p) = self.index.get(slot) else {
                return;
            };
            if p == EMPTY {
                break;
            }
            let Some(e) = self.ring.get(p as usize) else {
                return;
            };
            let home = self.home(e.file, e.offset, e.len);
            // The member may move back iff the hole lies on its probe
            // path, i.e. no further from `slot` than its home is.
            if slot.wrapping_sub(home) & mask >= slot.wrapping_sub(hole) & mask {
                if let Some(h) = self.index.get_mut(hole) {
                    *h = p;
                }
                hole = slot;
            }
        }
        if let Some(h) = self.index.get_mut(hole) {
            *h = EMPTY;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FileId = FileId(7);

    #[test]
    fn insert_lookup_roundtrip() {
        let mut t = Cdt::new(16);
        assert!(t.is_empty());
        assert!(!t.contains(F, 0, 100));
        t.insert(F, 0, 100);
        assert!(t.contains(F, 0, 100));
        assert!(!t.contains(F, 0, 99), "CDT keys are exact ranges");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reinsert_preserves_flag() {
        let mut t = Cdt::new(16);
        t.insert(F, 0, 100);
        assert!(t.set_c_flag(F, 0, 100));
        t.insert(F, 0, 100); // duplicate
        assert_eq!(t.flagged(10).count(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn flag_lifecycle() {
        let mut t = Cdt::new(16);
        t.insert(F, 0, 100);
        assert!(t.flagged(10).next().is_none());
        assert!(t.set_c_flag(F, 0, 100));
        let flagged: Vec<_> = t.flagged(10).collect();
        assert_eq!(flagged.len(), 1);
        assert_eq!(
            flagged[0],
            CdtEntry {
                file: F,
                offset: 0,
                len: 100,
            }
        );
        assert!(t.clear_c_flag(F, 0, 100));
        assert!(t.flagged(10).next().is_none());
        assert!(!t.set_c_flag(F, 1, 1), "absent entries are reported");
        assert!(!t.clear_c_flag(F, 1, 1));
    }

    #[test]
    fn flagged_respects_limit_and_order() {
        let mut t = Cdt::new(16);
        for i in 0..8 {
            t.insert(F, i * 100, 100);
            t.set_c_flag(F, i * 100, 100);
        }
        let got: Vec<_> = t.flagged(3).collect();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].offset, 0);
        assert_eq!(got[2].offset, 200);
    }

    #[test]
    fn bounded_eviction_is_fifo() {
        let mut t = Cdt::new(3);
        for i in 0..5 {
            t.insert(F, i, 1);
        }
        assert_eq!(t.len(), 3);
        assert!(!t.contains(F, 0, 1));
        assert!(!t.contains(F, 1, 1));
        assert!(t.contains(F, 2, 1));
        assert!(t.contains(F, 4, 1));
        let (ins, ev) = t.churn();
        assert_eq!(ins, 5);
        assert_eq!(ev, 2);
    }

    #[test]
    fn flagged_order_survives_the_ring_wrapping() {
        let mut t = Cdt::new(4);
        for i in 0..6 {
            t.insert(F, i, 1);
        }
        // Ring positions now hold 4, 5, 2, 3: flag out of ring order.
        for i in [5, 2, 4] {
            assert!(t.set_c_flag(F, i, 1));
        }
        let got: Vec<u64> = t.flagged(10).map(|e| e.offset).collect();
        assert_eq!(got, vec![2, 4, 5], "oldest inserted first");
        t.insert(F, 6, 1); // evicts 2, flagged
        let got: Vec<u64> = t.flagged(10).map(|e| e.offset).collect();
        assert_eq!(got, vec![4, 5]);
    }

    #[test]
    fn flags_span_bitmap_words_and_an_overwrite_starts_unflagged() {
        let mut t = Cdt::new(100);
        for i in 0..100 {
            t.insert(F, i, 1);
        }
        assert_eq!(t.flags.capacity(), 0, "no bitmap before the first flag");
        for i in [3, 64, 70, 99] {
            assert!(t.set_c_flag(F, i, 1));
        }
        // 100..105 take the places of 0..5, flagged 3 among them; the
        // oldest is now 5, in the first word.
        for i in 100..105 {
            t.insert(F, i, 1);
        }
        assert!(t.set_c_flag(F, 101, 1));
        let got: Vec<u64> = t.flagged(10).map(|e| e.offset).collect();
        assert_eq!(got, vec![64, 70, 99, 101]);
        assert_eq!(t.flagged(2).count(), 2);
        assert!(t.clear_c_flag(F, 64, 1));
        let got: Vec<u64> = t.flagged(10).map(|e| e.offset).collect();
        assert_eq!(got, vec![70, 99, 101]);
    }

    #[test]
    fn memory_follows_entries_not_the_bound() {
        let mut t = Cdt::new(1 << 20);
        assert_eq!((t.ring.capacity(), t.index.capacity()), (0, 0));
        for i in 0..100 {
            t.insert(F, i, 1);
        }
        assert!(t.ring.capacity() <= 128, "ring {}", t.ring.capacity());
        assert!(t.index.len() <= 256, "index {}", t.index.len());
    }

    #[test]
    fn clear_empties() {
        let mut t = Cdt::new(4);
        t.insert(F, 0, 1);
        t.set_c_flag(F, 0, 1);
        t.clear();
        assert!(t.is_empty());
        assert!(!t.contains(F, 0, 1));
        assert!(t.flagged(10).next().is_none());
        t.insert(F, 0, 1);
        assert!(t.contains(F, 0, 1));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn rejects_zero_bound() {
        Cdt::new(0);
    }
}
