//! A table of in-flight work whose key *is* the id the rest of the
//! program passes around: the runner's sub-request, plan and retry ids,
//! and the middleware's plan tags.
//!
//! A key is `generation << 32 | slot`. Removing an entry bumps its slot's
//! generation before the slot is reused, so a retired key — the late
//! completion of an abandoned straggler, the deadline timer of a finished
//! or retried attempt — misses instead of finding the slot's next tenant.
//! Generations start at 1 and skip 0 when they wrap, so no key is 0 and
//! 0 can stand for "no key" (a plan tag of 0 means "no callback").
//!
//! Memory is bounded by the peak number of *live* entries: one background
//! sub-request parked behind a whole phase of foreground work pins one
//! slot, not a window of ids. The free list is threaded through the
//! vacant slots themselves (LIFO: the slot freed last is reused first),
//! so the slab owns one allocation, the slot vector.

/// An id a [`Slab`] mints: a `u64` the slab packs and unpacks.
pub trait SlabKey: Copy {
    /// The key whose packed form is `raw`.
    fn from_raw(raw: u64) -> Self;
    /// The packed form.
    fn raw(self) -> u64;
}

/// A bare `u64` key, for ids that cross an API as plain numbers (a
/// plan's tag).
impl SlabKey for u64 {
    fn from_raw(raw: u64) -> Self {
        raw
    }

    fn raw(self) -> u64 {
        self
    }
}

/// No vacant slot: the end of the free list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
enum Entry<T> {
    Occupied(T),
    /// The next vacant slot on the free list, or [`NIL`].
    Vacant(u32),
}

#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    entry: Entry<T>,
}

/// A generation slab: a map from the keys it mints to their values.
#[derive(Debug)]
pub struct Slab<K, T> {
    slots: Vec<Slot<T>>,
    /// The most recently vacated slot, or [`NIL`].
    free: u32,
    _key: std::marker::PhantomData<fn() -> K>,
}

impl<K, T> Slab<K, T> {
    /// Bytes one slot takes: the entry, whose vacant form shares its
    /// space with the free-list link, plus the generation.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Slot<T>>();
}

impl<K: SlabKey, T> Slab<K, T> {
    /// An empty slab; allocates nothing.
    pub const fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: NIL,
            _key: std::marker::PhantomData,
        }
    }

    /// Stores `value` under a key no earlier entry has had.
    pub fn insert(&mut self, value: T) -> K {
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
            generation: 1,
            entry: Entry::Occupied(value),
        });
        key(1, (self.slots.len() - 1) as u32)
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

    /// The value stored under `id`, unless `id` was retired.
    pub fn get(&self, id: K) -> Option<&T> {
        match &self.slot(id)?.entry {
            Entry::Occupied(value) => Some(value),
            Entry::Vacant(_) => None,
        }
    }

    /// Mutable variant of [`Slab::get`].
    pub fn get_mut(&mut self, id: K) -> Option<&mut T> {
        match &mut self.slot_mut(id)?.entry {
            Entry::Occupied(value) => Some(value),
            Entry::Vacant(_) => None,
        }
    }

    /// Takes the entry out and retires its key.
    pub fn remove(&mut self, id: K) -> Option<T> {
        let free = self.free;
        let slot = self.slot_mut(id)?;
        let value = match std::mem::replace(&mut slot.entry, Entry::Vacant(free)) {
            Entry::Occupied(value) => value,
            vacant @ Entry::Vacant(_) => {
                slot.entry = vacant;
                return None;
            }
        };
        slot.generation = slot.generation.wrapping_add(1).max(1);
        self.free = unkey(id).1;
        Some(value)
    }

    /// The live values, in slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| match &s.entry {
            Entry::Occupied(value) => Some(value),
            Entry::Vacant(_) => None,
        })
    }
}

impl<K: SlabKey, T> Default for Slab<K, T> {
    fn default() -> Self {
        Slab::new()
    }
}

fn key<K: SlabKey>(generation: u32, index: u32) -> K {
    K::from_raw(u64::from(generation) << 32 | u64::from(index))
}

fn unkey<K: SlabKey>(id: K) -> (u32, u32) {
    let raw = id.raw();
    ((raw >> 32) as u32, raw as u32)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Id(u64);

    impl SlabKey for Id {
        fn from_raw(raw: u64) -> Self {
            Id(raw)
        }

        fn raw(self) -> u64 {
            self.0
        }
    }

    #[test]
    fn retired_key_misses() {
        let mut slab: Slab<Id, _> = Slab::new();
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
        let mut slab: Slab<Id, _> = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        let b = slab.insert(2);
        let ((gen_a, slot_a), (gen_b, slot_b)) = (unkey(a), unkey(b));
        assert_eq!(slot_b, slot_a, "the freed slot is reused");
        assert_eq!(gen_b, gen_a + 1);
    }

    /// 0 means "no key": not the first key, and not the key of a slot
    /// whose generation wrapped.
    #[test]
    fn no_key_is_zero() {
        let mut slab: Slab<Id, _> = Slab::new();
        let first = slab.insert(());
        assert_ne!(first.raw(), 0);
        assert_eq!(slab.get(Id(0)), None);
        if let Some(slot) = slab.slots.first_mut() {
            slot.generation = u32::MAX;
        }
        let wrapped = Id(u64::from(u32::MAX) << 32);
        assert_eq!(slab.remove(wrapped), Some(()));
        let next = slab.insert(());
        assert_eq!(unkey(next), (1, 0), "the generation wraps past 0");
    }

    #[test]
    fn growth_is_bounded_by_live_entries() {
        let mut slab: Slab<Id, _> = Slab::new();
        let parked = slab.insert(u64::MAX);
        for i in 0..100_000u64 {
            let a = slab.insert(i);
            let b = slab.insert(i);
            assert_eq!(slab.remove(a), Some(i));
            assert_eq!(slab.remove(b), Some(i));
        }
        assert_eq!(slab.slots.len(), 3, "peak live entries, not ids minted");
        assert_eq!(slab.get(parked), Some(&u64::MAX));
        assert_eq!(slab.values().collect::<Vec<_>>(), [&u64::MAX]);
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
        /// after its slot is reused), no key is minted twice or is 0,
        /// `values` yields exactly the live values, and the slot vector
        /// never outgrows the peak number of live entries.
        #[test]
        fn slab_matches_a_map(ops in proptest::collection::vec(op(), 1..400)) {
            let mut slab: Slab<Id, u16> = Slab::new();
            let mut model: HashMap<u64, u16> = HashMap::new();
            let mut live: Vec<Id> = Vec::new();
            let mut retired: Vec<Id> = Vec::new();
            let mut peak = 0;
            for op in ops {
                match op {
                    Op::Insert(v) => {
                        let id = slab.insert(v);
                        prop_assert_ne!(id.raw(), 0, "key 0 minted");
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
                let mut values: Vec<u16> = slab.values().copied().collect();
                let mut want: Vec<u16> = model.values().copied().collect();
                values.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(values, want);
            }
        }
    }
}
