//! The table of in-flight sub-requests: a slab whose key *is* the
//! [`SubReqId`] handed to the file servers.
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
//! slot, not a window of ids.

use s4d_pfs::SubReqId;

struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

pub(super) struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    pub(super) fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `value` under a key no earlier entry has had.
    pub(super) fn insert(&mut self, value: T) -> SubReqId {
        if let Some(index) = self.free.pop() {
            // Free-list entries name existing slots.
            if let Some(slot) = self.slots.get_mut(index as usize) {
                slot.value = Some(value);
                return key(slot.generation, index);
            }
        }
        self.slots.push(Slot {
            generation: 0,
            value: Some(value),
        });
        key(0, (self.slots.len() - 1) as u32)
    }

    pub(super) fn get(&self, id: SubReqId) -> Option<&T> {
        let (generation, index) = unkey(id);
        self.slots
            .get(index as usize)
            .filter(|s| s.generation == generation)
            .and_then(|s| s.value.as_ref())
    }

    /// Takes the entry out and retires its key.
    pub(super) fn remove(&mut self, id: SubReqId) -> Option<T> {
        let (generation, index) = unkey(id);
        let slot = self
            .slots
            .get_mut(index as usize)
            .filter(|s| s.generation == generation)?;
        let value = slot.value.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(index);
        Some(value)
    }
}

fn key(generation: u32, index: u32) -> SubReqId {
    SubReqId(u64::from(generation) << 32 | u64::from(index))
}

fn unkey(id: SubReqId) -> (u32, u32) {
    ((id.0 >> 32) as u32, id.0 as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retired_key_misses() {
        let mut slab = Slab::new();
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
        let mut slab = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        let b = slab.insert(2);
        let ((gen_a, slot_a), (gen_b, slot_b)) = (unkey(a), unkey(b));
        assert_eq!(slot_b, slot_a, "the freed slot is reused");
        assert_eq!(gen_b, gen_a + 1);
    }

    #[test]
    fn growth_is_bounded_by_live_entries() {
        let mut slab = Slab::new();
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
}
