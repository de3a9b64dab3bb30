//! The event-loop driver.

use crate::event::EventQueue;
use crate::time::SimTime;

/// A simulation world: everything that reacts to events.
///
/// The engine pops events in time order and hands each to
/// [`World::handle`], which may schedule further events on the queue.
/// Implementations must never schedule events in the past; the engine
/// panics if they do, because a time-travelling event silently corrupts
/// every downstream measurement.
pub trait World<E> {
    /// Reacts to `ev` occurring at instant `now`, scheduling any follow-up
    /// events on `queue`.
    fn handle(&mut self, now: SimTime, ev: E, queue: &mut EventQueue<E>);
}

/// Drives a [`World`] by delivering events from an [`EventQueue`] in time
/// order until the queue drains or a horizon is reached.
///
/// ```
/// use s4d_sim::{Engine, EventQueue, SimDuration, SimTime, World};
///
/// struct Echo(Vec<u8>);
/// impl World<u8> for Echo {
///     fn handle(&mut self, _now: SimTime, ev: u8, _q: &mut EventQueue<u8>) {
///         self.0.push(ev);
///     }
/// }
///
/// let mut engine = Engine::new();
/// engine.queue_mut().push(SimTime::from_nanos(2), 2);
/// engine.queue_mut().push(SimTime::from_nanos(1), 1);
/// let mut world = Echo(Vec::new());
/// engine.run(&mut world);
/// assert_eq!(world.0, vec![1, 2]);
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with an empty queue, positioned at `t = 0`.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The current simulated instant (time of the last delivered event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Mutable access to the event queue, e.g. for seeding initial events.
    pub fn queue_mut(&mut self) -> &mut EventQueue<E> {
        &mut self.queue
    }

    /// Shared access to the event queue.
    pub fn queue(&self) -> &EventQueue<E> {
        &self.queue
    }

    /// Runs until the queue is empty. Returns the final simulated time.
    ///
    /// # Panics
    ///
    /// Panics if the world schedules an event earlier than the engine's
    /// current time (causality violation).
    pub fn run(&mut self, world: &mut impl World<E>) -> SimTime {
        self.run_until(world, SimTime::MAX)
    }

    /// Runs until the queue is empty or the next event would fire after
    /// `horizon`. Events at exactly `horizon` are delivered. Returns the
    /// final simulated time (never past `horizon`).
    ///
    /// # Panics
    ///
    /// Panics on causality violations, as in [`Engine::run`].
    pub fn run_until(&mut self, world: &mut impl World<E>, horizon: SimTime) -> SimTime {
        while self.queue.peek_time().is_some_and(|at| at <= horizon) {
            let Some((at, ev)) = self.queue.pop() else {
                break;
            };
            assert!(
                at >= self.now,
                "causality violation: event at {at} delivered when clock is {now}",
                now = self.now
            );
            self.now = at;
            self.processed += 1;
            world.handle(at, ev, &mut self.queue);
        }
        self.now
    }

    /// Delivers exactly one event if one is pending. Returns `true` if an
    /// event was delivered.
    ///
    /// # Panics
    ///
    /// Panics on causality violations, as in [`Engine::run`].
    pub fn step(&mut self, world: &mut impl World<E>) -> bool {
        match self.queue.pop() {
            Some((at, ev)) => {
                assert!(
                    at >= self.now,
                    "causality violation: event at {at} delivered when clock is {now}",
                    now = self.now
                );
                self.now = at;
                self.processed += 1;
                world.handle(at, ev, &mut self.queue);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    struct Relay {
        hops: u32,
        seen: Vec<(SimTime, u32)>,
    }

    impl World<u32> for Relay {
        fn handle(&mut self, now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
            self.seen.push((now, ev));
            if ev < self.hops {
                q.push(now + SimDuration::from_nanos(10), ev + 1);
            }
        }
    }

    #[test]
    fn run_drains_queue_and_advances_clock() {
        let mut engine = Engine::new();
        engine.queue_mut().push(SimTime::ZERO, 0u32);
        let mut w = Relay {
            hops: 5,
            seen: Vec::new(),
        };
        let end = engine.run(&mut w);
        assert_eq!(w.seen.len(), 6);
        assert_eq!(end, SimTime::from_nanos(50));
        assert_eq!(engine.processed(), 6);
        assert!(engine.queue().is_empty());
    }

    #[test]
    fn run_until_respects_horizon_inclusively() {
        let mut engine = Engine::new();
        engine.queue_mut().push(SimTime::ZERO, 0u32);
        let mut w = Relay {
            hops: 100,
            seen: Vec::new(),
        };
        let end = engine.run_until(&mut w, SimTime::from_nanos(30));
        // Events at t = 0, 10, 20, 30 delivered; t = 40 still pending.
        assert_eq!(w.seen.len(), 4);
        assert_eq!(end, SimTime::from_nanos(30));
        assert_eq!(engine.queue().len(), 1);
        // Resuming picks up where it stopped.
        let end = engine.run_until(&mut w, SimTime::from_nanos(55));
        assert_eq!(w.seen.len(), 6);
        assert_eq!(end, SimTime::from_nanos(50));
    }

    #[test]
    fn step_delivers_one_event() {
        let mut engine = Engine::new();
        engine.queue_mut().push(SimTime::from_nanos(1), 0u32);
        engine.queue_mut().push(SimTime::from_nanos(2), 0u32);
        let mut w = Relay {
            hops: 0,
            seen: Vec::new(),
        };
        assert!(engine.step(&mut w));
        assert_eq!(w.seen.len(), 1);
        assert!(engine.step(&mut w));
        assert!(!engine.step(&mut w));
    }

    struct TimeTraveler;
    impl World<()> for TimeTraveler {
        fn handle(&mut self, now: SimTime, _ev: (), q: &mut EventQueue<()>) {
            if now > SimTime::ZERO {
                q.push(SimTime::ZERO, ());
            }
        }
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn scheduling_in_the_past_panics() {
        let mut engine = Engine::new();
        engine.queue_mut().push(SimTime::from_nanos(5), ());
        engine.run(&mut TimeTraveler);
    }
}
