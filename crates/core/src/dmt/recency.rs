//! The DMT's recency order as a timeline.
//!
//! Every touch appends one `(file, d_offset)` slot; an extent's `touch`
//! is its slot's index. Two occupancy bitmaps say which slots hold a
//! live clean extent and which a live dirty one, so the Redirector's
//! clean-LRU eviction (§III.E) and the Rebuilder's oldest-first flushing
//! (§III.F) walk set bits in slot order. Refreshing an extent clears one
//! bit and appends a slot; a clean transition moves the bit between the
//! bitmaps at the same slot, keeping the extent's place in the order.
//!
//! Dead slots are reclaimed in bulk: once [`Recency::is_sparse`] says so,
//! [`super::Dmt`] renumbers every live touch densely (order kept) with
//! [`Recency::compact`] and one walk over its extents.

use s4d_pfs::FileId;

use super::MapExtent;

/// Dead slots tolerated beyond the live count before a compaction: the
/// timeline never holds more than `2 · live + SLACK` slots, and a
/// compaction's cost is paid for by the dead slots it drops.
const SLACK: usize = 64;

/// The indices of the set bits of `words`, ascending. Clear words
/// yield nothing, so the walk moves straight past them.
pub(crate) fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(w * 64 + bit)
        })
    })
}

/// A bitmap over slot indices with a second level marking its non-zero
/// words, so a walk skips runs of dead slots 4,096 at a time.
#[derive(Debug, Clone, Default)]
struct Bits {
    words: Vec<u64>,
    /// Bit `w` is set while `words[w]` is non-zero.
    nonzero: Vec<u64>,
}

impl Bits {
    fn zeroed(words: usize) -> Self {
        Bits {
            words: vec![0; words],
            nonzero: vec![0; words.div_ceil(64)],
        }
    }

    fn push_word(&mut self) {
        if self.words.len().is_multiple_of(64) {
            self.nonzero.push(0);
        }
        self.words.push(0);
    }

    fn set(&mut self, i: usize) {
        let w = i / 64;
        if let Some(word) = self.words.get_mut(w) {
            *word |= 1 << (i % 64);
        }
        if let Some(summary) = self.nonzero.get_mut(w / 64) {
            *summary |= 1 << (w % 64);
        }
    }

    fn clear(&mut self, i: usize) {
        let w = i / 64;
        let Some(word) = self.words.get_mut(w) else {
            return;
        };
        *word &= !(1 << (i % 64));
        if *word == 0 {
            if let Some(summary) = self.nonzero.get_mut(w / 64) {
                *summary &= !(1 << (w % 64));
            }
        }
    }

    fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }

    /// The set bits, ascending.
    fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(&self.nonzero).flat_map(|w| {
            let word = self.words.get(w..=w).unwrap_or_default();
            set_bits(word).map(move |bit| w * 64 + bit)
        })
    }
}

/// The recency timeline: slots in touch order plus the two occupancy
/// bitmaps. Only these methods keep an extent's `touch` and its bit in
/// the bitmap matching its `dirty` flag.
#[derive(Debug, Clone, Default)]
pub(super) struct Recency {
    slots: Vec<(FileId, u64)>,
    clean: Bits,
    dirty: Bits,
    live: usize,
    /// The two-index order this timeline replaced, fed the same events:
    /// the reference `tests::recency_matches_the_btree_model` checks
    /// the timeline against.
    #[cfg(test)]
    model: tests::Model,
}

impl Recency {
    fn bits(&mut self, dirty: bool) -> &mut Bits {
        if dirty {
            &mut self.dirty
        } else {
            &mut self.clean
        }
    }

    /// Gives `e`, mapped at `key`, the most recent touch.
    pub(super) fn add(&mut self, file: FileId, key: u64, e: &mut MapExtent) {
        let at = self.slots.len();
        self.slots.push((file, key));
        if self.clean.words.len() <= at / 64 {
            self.clean.push_word();
            self.dirty.push_word();
        }
        // Compaction keeps at most about three slots per live extent, so
        // this needs over a billion extents (64 GiB of table) to fire.
        assert!(at <= u32::MAX as usize, "recency timeline overflow");
        e.touch = at as u32;
        self.bits(e.dirty).set(at);
        self.live += 1;
        #[cfg(test)]
        self.model.add(file, key, e.dirty);
    }

    /// `e`'s slot, checked (in debug builds) to be the one `e`, mapped at
    /// `key`, took.
    fn slot_of(&self, file: FileId, key: u64, e: &MapExtent) -> usize {
        let at = e.touch as usize;
        debug_assert_eq!(
            self.slots.get(at),
            Some(&(file, key)),
            "the extent at {file}:{key} holds another extent's touch"
        );
        at
    }

    /// Drops the touch of `e`, mapped at `key`, from the order.
    pub(super) fn forget(&mut self, file: FileId, key: u64, e: &MapExtent) {
        let at = self.slot_of(file, key, e);
        self.bits(e.dirty).clear(at);
        self.live -= 1;
        #[cfg(test)]
        self.model.forget(file, key, e.dirty);
    }

    /// Sets the dirty flag of `e`, mapped at `key`, keeping its place in
    /// the order.
    pub(super) fn set_dirty(&mut self, file: FileId, key: u64, e: &mut MapExtent, dirty: bool) {
        let at = self.slot_of(file, key, e);
        self.bits(e.dirty).clear(at);
        #[cfg(test)]
        self.model.set_dirty(file, key, e.dirty, dirty);
        e.dirty = dirty;
        self.bits(dirty).set(at);
    }

    /// The clean extents' keys, least recently used first.
    pub(super) fn clean_keys(&self) -> impl Iterator<Item = (FileId, u64)> + '_ {
        self.clean.ones().filter_map(|t| self.slots.get(t).copied())
    }

    /// The dirty extents' keys, least recently used first.
    pub(super) fn dirty_keys(&self) -> impl Iterator<Item = (FileId, u64)> + '_ {
        self.dirty.ones().filter_map(|t| self.slots.get(t).copied())
    }

    /// True once dead slots outnumber live ones by more than [`SLACK`],
    /// or once the slots fill their buffer with at least one dead slot per
    /// two live ones: compacting then, instead of letting the next touch
    /// double the buffer, keeps it within about three slots per extent.
    pub(super) fn is_sparse(&self) -> bool {
        let dead = self.slots.len() - self.live;
        dead > self.live + SLACK
            || (self.slots.len() == self.slots.capacity() && dead >= self.live / 2)
    }

    /// Moves the live slots to the front, in order, and returns the map
    /// from an old touch to its new one. Every live extent's touch must
    /// be passed through it before the next call here.
    pub(super) fn compact(&mut self) -> Renumbering {
        let words = self.clean.words.len();
        let mut rank = Vec::with_capacity(words);
        let mut clean = Bits::zeroed(self.live.div_ceil(64));
        let mut dirty = clean.clone();
        let mut next = 0;
        for w in 0..words {
            let (c, d) = (self.clean.word(w), self.dirty.word(w));
            rank.push((next as u32, c | d));
            for bit in set_bits(&[c | d]) {
                let slot = self.slots.get(w * 64 + bit).copied();
                if let (Some(slot), Some(to)) = (slot, self.slots.get_mut(next)) {
                    *to = slot;
                }
                if c & (1 << bit) != 0 {
                    clean.set(next);
                } else {
                    dirty.set(next);
                }
                next += 1;
            }
        }
        debug_assert_eq!(next, self.live, "a live slot went missing");
        self.slots.truncate(next);
        self.clean = clean;
        self.dirty = dirty;
        Renumbering(rank)
    }
}

/// Old touch → new touch after a [`Recency::compact`]: per 64-slot word,
/// the live slots before it and its live bits.
pub(super) struct Renumbering(Vec<(u32, u64)>);

impl Renumbering {
    /// The new touch of a live extent whose touch was `old`.
    pub(super) fn of(&self, old: u32) -> u32 {
        let (w, bit) = (old as usize / 64, old % 64);
        let (before, live) = self.0.get(w).copied().unwrap_or_default();
        before + (live & ((1 << bit) - 1)).count_ones()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;
    use s4d_pfs::FileId;

    use super::super::Dmt;

    /// The recency order the timeline replaced: one `BTreeMap` from touch
    /// to key per dirty state, touches from a counter that is never
    /// renumbered. The extent's touch is kept here by key.
    #[derive(Debug, Clone, Default)]
    pub(in crate::dmt) struct Model {
        clean: BTreeMap<u64, (FileId, u64)>,
        dirty: BTreeMap<u64, (FileId, u64)>,
        touch: BTreeMap<(u64, u64), u64>,
        next: u64,
    }

    impl Model {
        fn index(&mut self, dirty: bool) -> &mut BTreeMap<u64, (FileId, u64)> {
            if dirty {
                &mut self.dirty
            } else {
                &mut self.clean
            }
        }

        pub(in crate::dmt) fn add(&mut self, file: FileId, key: u64, dirty: bool) {
            let t = self.next;
            self.next += 1;
            self.touch.insert((file.0, key), t);
            self.index(dirty).insert(t, (file, key));
        }

        pub(in crate::dmt) fn forget(&mut self, file: FileId, key: u64, dirty: bool) {
            if let Some(t) = self.touch.remove(&(file.0, key)) {
                self.index(dirty).remove(&t);
            }
        }

        pub(in crate::dmt) fn set_dirty(&mut self, file: FileId, key: u64, was: bool, dirty: bool) {
            if let Some(&t) = self.touch.get(&(file.0, key)) {
                self.index(was).remove(&t);
                self.index(dirty).insert(t, (file, key));
            }
        }
    }

    const FILES: [FileId; 2] = [FileId(1), FileId(2)];
    const CF: FileId = FileId(100);
    /// Offsets and lengths are multiples of 4 below this, so a table
    /// holds at most 64 extents per file and compacts often.
    const SPAN: u64 = 256;

    /// The start of the extent holding `off`, if any.
    fn holder(d: &Dmt, file: FileId, off: u64) -> Option<u64> {
        d.overlapping(file, off, 1).next().map(|(s, _)| s)
    }

    proptest! {
        /// Under random inserts, touches, overwrites (splitting extents
        /// or hitting one exactly), cleanings, seals, removals and
        /// evictions, the timeline's clean and dirty walks list the keys
        /// the two-index model lists, in its order, after every step —
        /// across several compactions.
        #[test]
        fn recency_matches_the_btree_model(
            ops in proptest::collection::vec((0u8..9, 0u64..SPAN / 4, 1u64..12, 0usize..2), 600..900),
        ) {
            let mut d = Dmt::new();
            let mut next_c = 0u64;
            let mut compactions = 0;
            for (kind, unit, units, f) in ops {
                let file = FILES[f];
                let off = unit * 4;
                let len = (units * 4).min(SPAN - off);
                let slots_before = d.book.recency.slots.len();
                match kind {
                    0 => {
                        let view = d.view(file, off, len);
                        for (g_off, g_len) in view.gaps {
                            d.insert(file, g_off, g_len, CF, next_c, unit % 3 == 0);
                            next_c += g_len;
                        }
                    }
                    1 => d.touch_range(file, off, len),
                    2 => {
                        if let Some(s) = holder(&d, file, off) {
                            let e = *d.get(file, s).unwrap();
                            d.touch_range(file, s, e.len);
                        }
                    }
                    3 => d.mark_dirty(file, off, len),
                    4 => {
                        if let Some(s) = holder(&d, file, off) {
                            let e = *d.get(file, s).unwrap();
                            d.mark_dirty(file, s, e.len);
                        }
                    }
                    5 => {
                        if let Some(s) = holder(&d, file, off) {
                            prop_assert!(d.force_clean(file, s));
                        }
                    }
                    6 => {
                        if let Some(s) = holder(&d, file, off) {
                            prop_assert!(d.remove(file, s).is_some());
                        }
                    }
                    7 => {
                        let mut victims = Vec::new();
                        d.evict_clean_lru_excluding(len, &mut victims, |_, o, _| o % 8 == 4);
                    }
                    _ => {
                        if let Some(s) = holder(&d, file, off) {
                            let v = d.get(file, s).unwrap().version;
                            prop_assert!(d.seal_if(file, s, v, 7));
                        }
                        d.unseal(file, off + len / 2, len / 2);
                    }
                }
                if d.book.recency.slots.len() < slots_before {
                    compactions += 1;
                }
                let model = &d.book.recency.model;
                let clean: Vec<_> = d.book.recency.clean_keys().collect();
                prop_assert_eq!(clean, model.clean.values().copied().collect::<Vec<_>>());
                let dirty: Vec<_> = d.dirty_keys().collect();
                prop_assert_eq!(dirty, model.dirty.values().copied().collect::<Vec<_>>());
                prop_assert_eq!(d.book.recency.live, d.entry_count());
                let sealed = d.iter_extents().filter(|(_, _, e)| e.checksum.is_some()).count();
                prop_assert_eq!(d.sealed_count(), sealed);
            }
            prop_assert!(compactions >= 2, "only {} compactions", compactions);
        }
    }
}
