//! Maps of disjoint `[start, start + len)` ranges keyed by start offset:
//! the cache's Data Mapping Table and every server's extent store. The
//! overlap search and the boundary split are written once, as an
//! extension trait on `BTreeMap<u64, V>` for any [`Span`] value.

use std::collections::{btree_map, BTreeMap};
use std::ops::Range;

/// A value covering `span_len()` bytes from its key.
pub trait Span: Sized {
    /// Length of the range; a value in a [`RangeMap`] is never empty.
    fn span_len(&self) -> u64;

    /// Keeps `[0, at)` in `self` and returns the remainder `[at, len)`.
    /// Called only with `0 < at < span_len()`.
    fn split_off(&mut self, at: u64) -> Self;
}

/// Interval operations on a `BTreeMap<u64, V>` whose entries are
/// disjoint, non-empty `[key, key + span_len)` ranges.
pub trait RangeMap<V: Span> {
    /// Entries overlapping `[lo, hi)`, in key order.
    fn overlapping(&self, lo: u64, hi: u64) -> btree_map::Range<'_, u64, V>;

    /// [`RangeMap::overlapping`] with mutable values.
    fn overlapping_mut(&mut self, lo: u64, hi: u64) -> btree_map::RangeMut<'_, u64, V>;

    /// Inserts `value` at `start`, or hands it back when it is empty or
    /// would overlap an entry.
    fn insert_disjoint(&mut self, start: u64, value: V) -> Result<(), V>;

    /// Splits the entry with `at` strictly inside it into `[start, at)` and
    /// `[at, end)`, returning `start`; `None` (nothing changed) otherwise.
    fn split_at(&mut self, at: u64) -> Option<u64>;

    /// Cuts `[lo, hi)` out of the map, splitting entries at both bounds,
    /// and hands each removed piece to `removed` in key order.
    fn remove_range(&mut self, lo: u64, hi: u64, removed: impl FnMut(u64, V));
}

/// The keys of every entry overlapping `[lo, hi)`: from the one straddling
/// `lo` (if any) up to `hi`; entries are non-empty and disjoint.
fn overlap_keys<V: Span>(map: &BTreeMap<u64, V>, lo: u64, hi: u64) -> Range<u64> {
    if hi <= lo {
        return lo..lo;
    }
    let start = map
        .range(..=lo)
        .next_back()
        .filter(|(&s, v)| s + v.span_len() > lo)
        .map_or(lo, |(&s, _)| s);
    start..hi
}

impl<V: Span> RangeMap<V> for BTreeMap<u64, V> {
    fn overlapping(&self, lo: u64, hi: u64) -> btree_map::Range<'_, u64, V> {
        self.range(overlap_keys(self, lo, hi))
    }

    fn overlapping_mut(&mut self, lo: u64, hi: u64) -> btree_map::RangeMut<'_, u64, V> {
        let keys = overlap_keys(self, lo, hi);
        self.range_mut(keys)
    }

    fn insert_disjoint(&mut self, start: u64, value: V) -> Result<(), V> {
        // Only the last entry starting before `end` can overlap: one
        // search checks the range is free.
        let free = start.checked_add(value.span_len()).is_some_and(|end| {
            end > start
                && self
                    .range(..end)
                    .next_back()
                    .is_none_or(|(&s, v)| s + v.span_len() <= start)
        });
        if !free {
            return Err(value);
        }
        self.insert(start, value);
        Ok(())
    }

    fn split_at(&mut self, at: u64) -> Option<u64> {
        let (&start, v) = self.range_mut(..at).next_back()?;
        if start + v.span_len() <= at {
            return None;
        }
        let right = v.split_off(at - start);
        self.insert(at, right);
        Some(start)
    }

    fn remove_range(&mut self, lo: u64, hi: u64, mut removed: impl FnMut(u64, V)) {
        if hi <= lo {
            return;
        }
        self.split_at(lo);
        self.split_at(hi);
        for (start, v) in self.extract_if(lo..hi, |_, _| true) {
            removed(start, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A run of numbered bytes: `first` is the id of its first byte, so
    /// a split that loses or reorders bytes shows up as a wrong id.
    #[derive(Debug, Clone, PartialEq)]
    struct Run {
        len: u64,
        first: u64,
    }

    impl Span for Run {
        fn span_len(&self) -> u64 {
            self.len
        }

        fn split_off(&mut self, at: u64) -> Self {
            let right = Run {
                len: self.len - at,
                first: self.first + at,
            };
            self.len = at;
            right
        }
    }

    const N: u64 = 128;

    /// Byte ids of `[0, N)` as the map holds them.
    fn bytes_of(map: &BTreeMap<u64, Run>) -> Vec<Option<u64>> {
        let mut got = vec![None; N as usize];
        for (&s, r) in map {
            assert!(r.len > 0, "empty entry at {s}");
            for i in 0..r.len {
                assert_eq!(got[(s + i) as usize], None, "entries overlap at {}", s + i);
                got[(s + i) as usize] = Some(r.first + i);
            }
        }
        got
    }

    // Model-based test: a map of numbered runs must agree with a per-byte
    // model under random inserts, splits and range removals, and every
    // overlap query must return what a brute-force filter returns.
    proptest! {
        #[test]
        fn prop_matches_byte_model(
            ops in proptest::collection::vec((0u8..3, 0u64..N, 0u64..40), 1..60)
        ) {
            let mut model: Vec<Option<u64>> = vec![None; N as usize];
            let mut map: BTreeMap<u64, Run> = BTreeMap::new();
            let mut next_id = 0u64;
            for (kind, at, len) in ops {
                let end = (at + len).min(N);
                match kind {
                    0 => {
                        let run = Run { len: end - at, first: next_id };
                        let free = end > at
                            && model[at as usize..end as usize].iter().all(Option::is_none);
                        let got = map.insert_disjoint(at, run.clone());
                        prop_assert_eq!(got.is_ok(), free, "insert [{}, {})", at, end);
                        if free {
                            for b in at..end {
                                model[b as usize] = Some(next_id + (b - at));
                            }
                            next_id += end - at;
                        } else {
                            prop_assert_eq!(got, Err(run));
                        }
                    }
                    1 => {
                        let straddled = map
                            .iter()
                            .find(|(&s, r)| s < at && at < s + r.len)
                            .map(|(&s, _)| s);
                        prop_assert_eq!(map.split_at(at), straddled);
                        if straddled.is_some() {
                            prop_assert!(map.contains_key(&at));
                        }
                    }
                    _ => {
                        let mut cut = Vec::new();
                        map.remove_range(at, end, |s, r| cut.push((s, r)));
                        let mut expect = Vec::new();
                        for b in at..end {
                            if let Some(id) = model[b as usize].take() {
                                expect.push((b, id));
                            }
                        }
                        let got: Vec<_> = cut
                            .iter()
                            .flat_map(|(s, r)| (0..r.len).map(move |i| (s + i, r.first + i)))
                            .collect();
                        prop_assert_eq!(got, expect);
                    }
                }
                prop_assert_eq!(bytes_of(&map), model.clone());
                let (lo, hi) = (at.saturating_sub(len / 2), end);
                let brute: Vec<u64> = map
                    .iter()
                    .filter(|(&s, r)| lo < hi && s < hi && s + r.len > lo)
                    .map(|(&s, _)| s)
                    .collect();
                let got: Vec<u64> = map.overlapping(lo, hi).map(|(&s, _)| s).collect();
                prop_assert_eq!(&got, &brute);
                let got_mut: Vec<u64> = map.overlapping_mut(lo, hi).map(|(&s, _)| s).collect();
                prop_assert_eq!(&got_mut, &brute);
            }
        }
    }

    #[test]
    fn empty_and_wrapping_values_are_refused() {
        let mut map = BTreeMap::new();
        let empty = Run { len: 0, first: 0 };
        assert_eq!(map.insert_disjoint(5, empty.clone()), Err(empty));
        let wraps = Run { len: 2, first: 0 };
        assert_eq!(map.insert_disjoint(u64::MAX, wraps.clone()), Err(wraps));
        assert!(map.is_empty());
        assert_eq!(map.split_at(3), None, "nothing to split");
        map.remove_range(9, 3, |_, _| panic!("an inverted range removes nothing"));
    }
}
