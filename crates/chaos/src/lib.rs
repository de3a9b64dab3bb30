//! `s4d-chaos` — deterministic compound-fault simulation for the S4D
//! middleware.
//!
//! One chaos run draws a random workload and a fault script from a
//! single seed ([`Schedule::generate`]), drives the workload through the
//! real middleware as a manual functional runner while firing the faults
//! ([`run`]), and checks a global invariant [`Oracle`] continuously:
//! acknowledged clean data is never lost, reads are byte-exact or
//! correctly ambiguous, recovery converges and is idempotent, space
//! accounting holds, and metrics reconcile with the faults actually
//! fired. Failing seeds shrink to a 1-minimal event list with a
//! replayable repro file ([`minimize()`]).
//!
//! Everything is a pure function of the seed: the same seed produces a
//! byte-identical run and report (compare [`ChaosReport::fingerprint`]),
//! which is what CI's determinism check asserts.

#![forbid(unsafe_code)]
// The static gate (DESIGN.md §10); `clippy.toml` exempts test code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::iter_over_hash_type)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

pub mod exec;
pub mod minimize;
pub mod oracle;
pub mod report;
pub mod rng;
pub mod schedule;

pub use exec::{run, run_caught, ChaosReport};
pub use minimize::{minimize, MinimizeResult, Repro};
pub use oracle::{Oracle, Violation};
pub use report::{report_json, sweep_json};
pub use rng::ChaosRng;
pub use schedule::{ChaosEvent, Schedule, WorkloadSpec};
