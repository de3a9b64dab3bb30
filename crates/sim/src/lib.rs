//! # s4d-sim — deterministic discrete-event simulation substrate
//!
//! This crate provides the simulation substrate used by the S4D-Cache
//! reproduction: a nanosecond-resolution simulated clock ([`SimTime`],
//! [`SimDuration`]), a deterministic event queue ([`EventQueue`]) whose
//! owner pops it in its own loop, a seeded random-number source
//! ([`SimRng`]), a hash table for simulation-minted ids ([`IdMap`]), the
//! interval operations of a map of disjoint ranges ([`RangeMap`]), a list
//! that keeps its only element inline ([`OneOrMany`]), a generation slab
//! for tables of in-flight work keyed by the ids it mints ([`Slab`]), the
//! workspace's one content digest ([`Fnv1a`]) and lightweight statistics
//! collectors ([`stats`]).
//!
//! Determinism is a design requirement: two runs with the same configuration
//! and seed produce bit-identical event orders. Ties in event time are broken
//! by a monotonically increasing sequence number assigned at scheduling time.
//!
//! ```
//! use s4d_sim::{EventQueue, SimDuration, SimTime};
//!
//! // An event loop: each delivered event may schedule follow-ups.
//! let mut q = EventQueue::new();
//! q.push(SimTime::ZERO, 1u32);
//! let (mut sum, mut end) = (0, SimTime::ZERO);
//! while let Some((now, ev)) = q.pop() {
//!     sum += ev;
//!     end = now;
//!     if ev < 3 {
//!         q.push(now + SimDuration::from_micros(1), ev + 1);
//!     }
//! }
//! assert_eq!(sum, 1 + 2 + 3);
//! assert_eq!(end, SimTime::ZERO + SimDuration::from_micros(2));
//! ```

mod event;
mod fnv;
mod idmap;
pub mod one_or_many;
mod range_map;
mod rng;
mod slab;
pub mod stats;
mod time;

pub use event::EventQueue;
pub use fnv::Fnv1a;
pub use idmap::{IdHasher, IdMap, IdSet};
pub use one_or_many::OneOrMany;
pub use range_map::{RangeMap, Span};
pub use rng::{splitmix64, SimRng};
pub use slab::{Slab, SlabKey};
pub use time::{SimDuration, SimTime};
