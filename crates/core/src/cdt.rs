//! The Critical Data Table (paper §III.C, Fig. 5).
//!
//! Each entry records one performance-critical request range: the original
//! file, offset, length, and the `C_flag` that tells the Rebuilder the data
//! still needs to be cached. Entries are keyed by `(file, offset, length)`
//! — the granularity at which applications re-issue requests, which is what
//! makes first-run identification useful on the second run (§V.A).

use std::collections::{BTreeMap, VecDeque};

use s4d_pfs::FileId;
use s4d_sim::IdMap;

/// One CDT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CdtEntry {
    /// Original file.
    pub file: FileId,
    /// Request offset (the paper's `D_offset`).
    pub offset: u64,
    /// Request length.
    pub len: u64,
    /// Whether the Rebuilder should cache this data (the paper's `C_flag`).
    pub c_flag: bool,
}

/// The Critical Data Table: a bounded map of performance-critical ranges.
///
/// When full, the oldest entry is evicted (insertion order), bounding the
/// memory the Identifier may consume on arbitrarily long runs.
#[derive(Debug, Clone)]
pub struct Cdt {
    /// Entry -> (C_flag, insertion sequence).
    entries: IdMap<(FileId, u64, u64), (bool, u64)>,
    order: VecDeque<(FileId, u64, u64)>,
    /// Index of flagged entries by insertion sequence, so the Rebuilder's
    /// scan costs O(flagged), not O(table).
    flagged: BTreeMap<u64, (FileId, u64, u64)>,
    next_seq: u64,
    max_entries: usize,
    inserted_total: u64,
    evicted_total: u64,
}

impl Cdt {
    /// Creates a table bounded to `max_entries`.
    ///
    /// # Panics
    ///
    /// Panics if `max_entries == 0`.
    pub fn new(max_entries: usize) -> Self {
        assert!(max_entries > 0, "CDT must hold at least one entry");
        Cdt {
            entries: IdMap::default(),
            order: VecDeque::new(),
            flagged: BTreeMap::new(),
            next_seq: 0,
            max_entries,
            inserted_total: 0,
            evicted_total: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total insertions and FIFO evictions, for reports.
    pub fn churn(&self) -> (u64, u64) {
        (self.inserted_total, self.evicted_total)
    }

    /// True if the exact range is recorded as critical.
    pub fn contains(&self, file: FileId, offset: u64, len: u64) -> bool {
        self.entries.contains_key(&(file, offset, len))
    }

    /// Records a critical range (idempotent; `C_flag` preserved on
    /// re-insert). Evicts the oldest entry when full.
    pub fn insert(&mut self, file: FileId, offset: u64, len: u64) {
        let key = (file, offset, len);
        if self.entries.contains_key(&key) {
            return;
        }
        if self.entries.len() == self.max_entries {
            // Evict in insertion order; skip stale order entries.
            while let Some(old) = self.order.pop_front() {
                if let Some((_, seq)) = self.entries.remove(&old) {
                    self.flagged.remove(&seq);
                    self.evicted_total += 1;
                    break;
                }
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(key, (false, seq));
        self.order.push_back(key);
        self.inserted_total += 1;
    }

    /// Sets the `C_flag` of an entry (read missed: needs fetching).
    /// Returns `true` if the entry existed.
    pub fn set_c_flag(&mut self, file: FileId, offset: u64, len: u64) -> bool {
        let key = (file, offset, len);
        match self.entries.get_mut(&key) {
            Some((flag, seq)) => {
                if !*flag {
                    *flag = true;
                    self.flagged.insert(*seq, key);
                }
                true
            }
            None => false,
        }
    }

    /// Clears the `C_flag` after the Rebuilder cached the data.
    /// Returns `true` if the entry existed.
    pub fn clear_c_flag(&mut self, file: FileId, offset: u64, len: u64) -> bool {
        match self.entries.get_mut(&(file, offset, len)) {
            Some((flag, seq)) => {
                if *flag {
                    *flag = false;
                    self.flagged.remove(seq);
                }
                true
            }
            None => false,
        }
    }

    /// Up to `limit` entries whose `C_flag` is set, oldest first. Cost is
    /// `O(limit)`.
    pub fn flagged(&self, limit: usize) -> Vec<CdtEntry> {
        self.flagged
            .values()
            .take(limit)
            .map(|&(file, offset, len)| CdtEntry {
                file,
                offset,
                len,
                c_flag: true,
            })
            .collect()
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.flagged.clear();
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
        assert_eq!(t.flagged(10).len(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn flag_lifecycle() {
        let mut t = Cdt::new(16);
        t.insert(F, 0, 100);
        assert!(t.flagged(10).is_empty());
        assert!(t.set_c_flag(F, 0, 100));
        let flagged = t.flagged(10);
        assert_eq!(flagged.len(), 1);
        assert_eq!(
            flagged[0],
            CdtEntry {
                file: F,
                offset: 0,
                len: 100,
                c_flag: true
            }
        );
        assert!(t.clear_c_flag(F, 0, 100));
        assert!(t.flagged(10).is_empty());
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
        let got = t.flagged(3);
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
    fn clear_empties() {
        let mut t = Cdt::new(4);
        t.insert(F, 0, 1);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn rejects_zero_bound() {
        Cdt::new(0);
    }
}
