//! # s4d-bench — the experiment harness
//!
//! Builds the paper's testbed (§V.A: 8 HDD DServers + 4 SSD CServers,
//! 64 KiB stripes, Gigabit Ethernet, 32 computing processes) out of the
//! workspace crates and regenerates every table and figure of the
//! evaluation: [`figures::FIGURES`] holds one generator per artefact and
//! the `reproduce` binary prints them. Measured-vs-paper numbers live in
//! `EXPERIMENTS.md`. [`straggler`] is the gray-failure benchmark the
//! `straggler` binary writes to `BENCH_straggler.json`. [`benchmark`]
//! declares the host-cost benchmark's five workloads.
//!
//! Experiments run at a scaled-down data size by default (same geometry,
//! same request sizes, smaller files) so the whole suite completes in
//! minutes; set `S4D_SCALE_FACTOR=1` to run the paper's full 2 GB-per-
//! instance sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

pub mod benchmark;
pub mod experiments;
pub mod figures;
pub mod straggler;
pub mod table;

pub use experiments::{
    run_custom, run_s4d, run_s4d_second_read, run_stock, run_stock_second_read, testbed,
    ExperimentOutcome, Scale, Testbed,
};
