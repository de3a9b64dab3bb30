//! Deterministic time-ordered event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event: ordered by time, ties broken by insertion sequence.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events.
///
/// Events scheduled for the same instant are delivered in the order they were
/// pushed, which makes the simulation fully deterministic. The queue keeps
/// the instant of the last delivered event as its clock: an event scheduled
/// before it is a causality violation, and delivering it panics, because a
/// time-travelling event silently corrupts every downstream measurement.
///
/// ```
/// use s4d_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(10), "late");
/// q.push(SimTime::from_nanos(5), "early");
/// q.push(SimTime::from_nanos(5), "early-second");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(5), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(5), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    /// The instant of the last event [`EventQueue::pop`] delivered.
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `event` to fire at instant `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Removes and returns the earliest event, if any, and advances the
    /// clock to its instant.
    ///
    /// # Panics
    ///
    /// Panics if the event is earlier than the last delivered one (it was
    /// scheduled in the past).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        assert!(
            s.at >= self.now,
            "causality violation: event at {at} delivered when clock is {now}",
            at = s.at,
            now = self.now
        );
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Number of currently pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[30u64, 10, 20, 10, 40, 0] {
            q.push(SimTime::from_nanos(t), t);
        }
        let mut out = Vec::new();
        while let Some((at, ev)) = q.pop() {
            assert_eq!(at.as_nanos(), ev);
            out.push(ev);
        }
        assert_eq!(out, vec![0, 10, 10, 20, 30, 40]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_nanos(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn bookkeeping() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_nanos(3), ());
        q.push(SimTime::from_nanos(1), ());
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), ());
        q.pop();
        q.push(SimTime::ZERO, ());
        q.pop();
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(format!("{q:?}").contains("EventQueue"));
    }

    proptest! {
        #[test]
        fn prop_pop_order_is_sorted_and_stable(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), (t, i));
            }
            let mut prev: Option<(u64, usize)> = None;
            while let Some((at, (t, i))) = q.pop() {
                prop_assert_eq!(at.as_nanos(), t);
                if let Some((pt, pi)) = prev {
                    prop_assert!(pt <= t);
                    if pt == t {
                        prop_assert!(pi < i, "same-instant events must pop in push order");
                    }
                }
                prev = Some((t, i));
            }
        }
    }
}
