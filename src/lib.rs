//! # s4d — Smart Selective SSD Cache for Parallel I/O Systems
//!
//! A from-scratch Rust reproduction of *S4D-Cache: Smart Selective SSD
//! Cache for Parallel I/O Systems* (He, Sun, Feng — ICDCS 2014), including
//! every substrate the paper runs on: storage device models, a PVFS2-style
//! striped parallel file system, an MPI-IO-like middleware layer, the
//! paper's cost model and selective-caching algorithms, the benchmark
//! workloads (IOR, HPIO, MPI-Tile-IO), and an experiment harness with an
//! IOSIG-style tracer that regenerates every table and figure of the
//! evaluation.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name and hosts the cross-crate integration tests.
//!
//! ## Layer map
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`sim`] | `s4d-sim` | simulated clock, deterministic event queue, seeded RNG, slabs |
//! | [`storage`] | `s4d-storage` | HDD/SSD service-time models, seek profiling, byte stores |
//! | [`pfs`] | `s4d-pfs` | striped parallel file system (OPFS/CPFS substrate) |
//! | [`cost`] | `s4d-cost` | the paper's cost model (Eq. 1–8, Table II) |
//! | [`mpiio`] | `s4d-mpiio` | MPI-IO-like API, middleware seam, the runner and its event loop |
//! | [`cache`] | `s4d-cache` | **the contribution**: Identifier, Redirector, Rebuilder |
//! | [`workloads`] | `s4d-workloads` | IOR / HPIO / MPI-Tile-IO generators |
//! | [`bench`](mod@bench) | `s4d-bench` | experiment harness for all tables/figures |
//! | [`trace`] | `s4d-bench` | IOSIG-style dispatch tracing (Table III) |
//!
//! ## Quickstart
//!
//! ```
//! use s4d::bench::{run_s4d, run_stock, testbed};
//! use s4d::cache::S4dConfig;
//! use s4d::workloads::{AccessPattern, IorConfig};
//!
//! let tb = testbed(42);
//! let ior = IorConfig {
//!     file_name: "demo.dat".into(),
//!     file_size: 16 * 1024 * 1024,
//!     processes: 8,
//!     request_size: 16 * 1024,
//!     pattern: AccessPattern::Random,
//!     do_write: true,
//!     do_read: true,
//!     seed: 7,
//! };
//! let stock = run_stock(&tb, ior.scripts(), Vec::new());
//! let s4d = run_s4d(
//!     &tb,
//!     S4dConfig::new(ior.file_size / 5),
//!     ior.scripts(),
//!     Vec::new(),
//! );
//! assert!(s4d.write_mibs() > stock.write_mibs());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use s4d_bench as bench;
pub use s4d_bench::trace;
pub use s4d_cache as cache;
pub use s4d_cost as cost;
pub use s4d_mpiio as mpiio;
pub use s4d_pfs as pfs;
pub use s4d_sim as sim;
pub use s4d_storage as storage;
pub use s4d_workloads as workloads;
