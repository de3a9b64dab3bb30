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

#![expect(
    clippy::indexing_slicing,
    reason = "the harness indexes the schedule and server tables it built; \
              a panic is a finding, turned into a violation by `run_caught`"
)]

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
