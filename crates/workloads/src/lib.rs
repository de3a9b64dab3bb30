//! # s4d-workloads — the paper's benchmark workloads
//!
//! Faithful request-stream generators for the three benchmarks the paper
//! evaluates with (§V), each implementing
//! [`s4d_mpiio::ProcessScript`] so the same generators drive both the stock
//! and the S4D-Cache middleware. The three paper benchmarks share one
//! stream, [`PhasedScript`], and differ only in where its requests land:
//!
//! * [`IorConfig`] — IOR (LLNL): each of `n` processes owns `1/n` of a
//!   shared file and issues fixed-size requests at sequential or random
//!   offsets (§V.B);
//! * [`HpioConfig`] — HPIO (Northwestern/Sandia): noncontiguous regions
//!   parameterised by region count, size, and spacing (§V.C);
//! * [`TileIoConfig`] — MPI-Tile-IO: a dense 2-D dataset accessed in
//!   nested-strided tiles (§V.D);
//! * [`campaign`] — the paper's "10 IOR instances, six sequential + four
//!   random, created one by one" mix used throughout §V.B;
//! * [`CheckpointConfig`] — a checkpoint-style mixed workload (bulk dump +
//!   scattered records), the scenario the paper's introduction motivates.
//!
//! Scripts are lazy: a 16 GB IOR run never materialises its millions of
//! operations. Random patterns come from a seeded Feistel
//! [`Permutation`], so runs are deterministic and memory-free.

pub mod campaign;
mod chain;
mod checkpoint;
mod hpio;
mod ior;
mod perm;
mod phased;
mod tileio;

pub use chain::ChainScript;
pub use checkpoint::{CheckpointConfig, CheckpointScript};
pub use hpio::HpioConfig;
pub use ior::{AccessPattern, IorConfig};
pub use perm::Permutation;
pub use phased::PhasedScript;
pub use tileio::{grid_for, TileIoConfig};
