//! # s4d-trace — request tracing and access-pattern analysis
//!
//! The paper uses IOSIG (its reference \[33\]) to track "the accessed
//! addresses of requests on DServers and CServers" and derive Table III's
//! request distribution. This crate plays that role for the simulated
//! stack: [`TraceCollector`] plugs into the runner as an
//! [`s4d_mpiio::IoObserver`], recording every dispatched application data
//! op, and [`analysis`] computes the distribution, sequentiality, and
//! per-window bandwidth statistics the evaluation needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

pub mod analysis;
mod collector;

pub use collector::{TraceCollector, TraceHandle, TraceRecord};
