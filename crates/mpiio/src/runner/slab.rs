//! The runner's tables of in-flight work: a slab whose key *is* the id
//! the rest of the runner passes around — the [`SubReqId`] handed to the
//! file servers, the [`PlanId`] a `PlanStart` event names, the
//! [`RetryId`] a `Retry` event names.
//!
//! A key is `generation << 32 | slot`. Removing an entry bumps its slot's
//! generation before the slot is reused, so a retired key — the late
//! completion of an abandoned straggler, the deadline timer of a finished
//! or retried attempt — misses instead of finding the slot's next tenant.
//! Servers echo the id back and otherwise treat it as opaque, which is
//! what lets the runner choose its layout.
//!
//! Memory is bounded by the peak number of *live* entries: one background
//! sub-request parked behind a whole phase of foreground work pins one
//! slot, not a window of ids. The free list is threaded through the
//! vacant slots themselves (LIFO: the slot freed last is reused first),
//! so the slab owns one allocation, the slot vector.

use s4d_pfs::SubReqId;

/// An id a [`Slab`] mints: a `u64` the slab packs and unpacks.
pub(super) trait Key: Copy {
    fn from_raw(raw: u64) -> Self;
    fn raw(self) -> u64;
}

impl Key for SubReqId {
    fn from_raw(raw: u64) -> Self {
        SubReqId(raw)
    }

    fn raw(self) -> u64 {
        self.0
    }
}

/// A launched plan's key in the runner's plan table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) struct PlanId(u64);

impl Key for PlanId {
    fn from_raw(raw: u64) -> Self {
        PlanId(raw)
    }

    fn raw(self) -> u64 {
        self.0
    }
}

/// A sub-request waiting out its retry backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct RetryId(u64);

impl Key for RetryId {
    fn from_raw(raw: u64) -> Self {
        RetryId(raw)
    }

    fn raw(self) -> u64 {
        self.0
    }
}

/// No vacant slot: the end of the free list.
const NIL: u32 = u32::MAX;

enum Entry<T> {
    Occupied(T),
    /// The next vacant slot on the free list, or [`NIL`].
    Vacant(u32),
}

struct Slot<T> {
    generation: u32,
    entry: Entry<T>,
}

pub(super) struct Slab<K, T> {
    slots: Vec<Slot<T>>,
    /// The most recently vacated slot, or [`NIL`].
    free: u32,
    _key: std::marker::PhantomData<fn() -> K>,
}

impl<K: Key, T> Slab<K, T> {
    pub(super) fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: NIL,
            _key: std::marker::PhantomData,
        }
    }

    /// Stores `value` under a key no earlier entry has had.
    pub(super) fn insert(&mut self, value: T) -> K {
        let index = self.free;
        if let Some(slot) = self.slots.get_mut(index as usize) {
            // Free-list entries name vacant slots.
            if let Entry::Vacant(next) = slot.entry {
                self.free = next;
                slot.entry = Entry::Occupied(value);
                return key(slot.generation, index);
            }
        }
        self.slots.push(Slot {
            generation: 0,
            entry: Entry::Occupied(value),
        });
        key(0, (self.slots.len() - 1) as u32)
    }

    /// The slot `id` names, if its generation is current.
    fn slot(&self, id: K) -> Option<&Slot<T>> {
        let (generation, index) = unkey(id);
        self.slots
            .get(index as usize)
            .filter(|s| s.generation == generation)
    }

    /// Mutable variant of [`Slab::slot`].
    fn slot_mut(&mut self, id: K) -> Option<&mut Slot<T>> {
        let (generation, index) = unkey(id);
        self.slots
            .get_mut(index as usize)
            .filter(|s| s.generation == generation)
    }

    pub(super) fn get(&self, id: K) -> Option<&T> {
        match &self.slot(id)?.entry {
            Entry::Occupied(value) => Some(value),
            Entry::Vacant(_) => None,
        }
    }

    pub(super) fn get_mut(&mut self, id: K) -> Option<&mut T> {
        match &mut self.slot_mut(id)?.entry {
            Entry::Occupied(value) => Some(value),
            Entry::Vacant(_) => None,
        }
    }

    /// Takes the entry out and retires its key.
    pub(super) fn remove(&mut self, id: K) -> Option<T> {
        let free = self.free;
        let slot = self.slot_mut(id)?;
        let value = match std::mem::replace(&mut slot.entry, Entry::Vacant(free)) {
            Entry::Occupied(value) => value,
            vacant @ Entry::Vacant(_) => {
                slot.entry = vacant;
                return None;
            }
        };
        slot.generation = slot.generation.wrapping_add(1);
        self.free = unkey(id).1;
        Some(value)
    }
}

fn key<K: Key>(generation: u32, index: u32) -> K {
    K::from_raw(u64::from(generation) << 32 | u64::from(index))
}

fn unkey<K: Key>(id: K) -> (u32, u32) {
    let raw = id.raw();
    ((raw >> 32) as u32, raw as u32)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;
    use crate::runner::exec::PlanExec;

    #[test]
    fn retired_key_misses() {
        let mut slab: Slab<SubReqId, _> = Slab::new();
        let a = slab.insert("a");
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.remove(a), None);
        // The slot's next tenant is invisible to the old key.
        let b = slab.insert("b");
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.get(b), Some(&"b"));
    }

    #[test]
    fn slot_reuse_bumps_the_generation() {
        let mut slab: Slab<PlanId, _> = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        let b = slab.insert(2);
        let ((gen_a, slot_a), (gen_b, slot_b)) = (unkey(a), unkey(b));
        assert_eq!(slot_b, slot_a, "the freed slot is reused");
        assert_eq!(gen_b, gen_a + 1);
    }

    #[test]
    fn growth_is_bounded_by_live_entries() {
        let mut slab: Slab<RetryId, _> = Slab::new();
        let parked = slab.insert(u64::MAX);
        for i in 0..100_000u64 {
            let a = slab.insert(i);
            let b = slab.insert(i);
            assert_eq!(slab.remove(a), Some(i));
            assert_eq!(slab.remove(b), Some(i));
        }
        assert_eq!(slab.slots.len(), 3, "peak live entries, not ids minted");
        assert_eq!(slab.get(parked), Some(&u64::MAX));
    }

    /// The plan table's slot: the free-list link shares the entry's
    /// space, so a slot is a plan plus its generation.
    #[test]
    fn a_plan_slot_is_a_plan_and_a_generation() {
        let size = std::mem::size_of::<Slot<PlanExec>>();
        assert!(size <= 128, "a plan slot is {size} B");
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u16),
        /// Removes the live key at this position (mod the live count).
        Remove(usize),
        /// Looks up a key that was removed earlier (mod the retired count).
        Stale(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            any::<u16>().prop_map(Op::Insert),
            any::<usize>().prop_map(Op::Remove),
            any::<usize>().prop_map(Op::Stale),
        ]
    }

    proptest! {
        /// The slab behaves as a map from the keys it minted: live keys
        /// find their values, a retired key misses (and stays retired
        /// after its slot is reused), no key is minted twice, and the
        /// slot vector never outgrows the peak number of live entries.
        #[test]
        fn slab_matches_a_map(ops in proptest::collection::vec(op(), 1..400)) {
            let mut slab: Slab<PlanId, u16> = Slab::new();
            let mut model: HashMap<u64, u16> = HashMap::new();
            let mut live: Vec<PlanId> = Vec::new();
            let mut retired: Vec<PlanId> = Vec::new();
            let mut peak = 0;
            for op in ops {
                match op {
                    Op::Insert(v) => {
                        let id = slab.insert(v);
                        prop_assert!(model.insert(id.raw(), v).is_none(), "key {id:?} minted twice");
                        prop_assert!(!retired.contains(&id), "retired key {id:?} minted again");
                        live.push(id);
                    }
                    Op::Remove(i) if !live.is_empty() => {
                        let id = live.swap_remove(i % live.len());
                        prop_assert_eq!(slab.remove(id), model.remove(&id.raw()));
                        retired.push(id);
                    }
                    Op::Stale(i) if !retired.is_empty() => {
                        let id = retired[i % retired.len()];
                        prop_assert_eq!(slab.get(id), None);
                        prop_assert_eq!(slab.get_mut(id), None);
                        prop_assert_eq!(slab.remove(id), None);
                    }
                    Op::Remove(_) | Op::Stale(_) => {}
                }
                peak = peak.max(live.len());
                prop_assert!(slab.slots.len() <= peak, "{} slots for a peak of {peak} live entries", slab.slots.len());
                for id in &live {
                    prop_assert_eq!(slab.get(*id), model.get(&id.raw()));
                }
            }
        }
    }
}
