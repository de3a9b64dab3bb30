//! # s4d-pfs — a striped parallel file system substrate
//!
//! A PVFS2-style parallel file system simulated at the request level. The
//! S4D-Cache paper runs two instances of PVFS2: the *original* file system
//! (OPFS) over HDD servers and the *cache* file system (CPFS) over SSD
//! servers; this crate provides the file system both are built from.
//!
//! The pieces:
//!
//! * [`StripeLayout`] — round-robin striping; splits a file request into
//!   per-server sub-requests exactly as the paper's Figure 4 / Table II
//!   describe;
//! * [`FileServer`] — one file server: a storage device (HDD or SSD model),
//!   a byte store per file, and a two-level (normal / background) service
//!   queue, driven as an explicit-time state machine;
//! * [`Pfs`] — the file system: file namespace plus the server array;
//! * [`NetworkConfig`] — per-server interconnect costs (RPC latency and a
//!   pipelined bandwidth cap), defaulting to Gigabit Ethernet like the
//!   paper's testbed;
//! * [`FaultPlan`] — scripted server faults on the sim clock (hard
//!   crashes that lose data, transient-error windows, slowdowns,
//!   heavy-tailed latency, and stalls that park ops without erring), so
//!   the layers above can be tested against failing *and* limping
//!   CServer tiers.
//!
//! The crate deliberately contains no event loop: servers expose
//! `submit`/`on_complete` transitions with explicit timestamps so that the
//! I/O middleware layer (crate `s4d-mpiio`) can drive them from its
//! discrete-event scheduler, and unit tests can drive them by hand.

mod error;
mod faults;
mod fs;
mod layout;
mod network;
mod server;
mod types;

pub use error::PfsError;
pub use faults::{FaultPlan, IoFault, OpClass, ServerFault};
pub use fs::{FileMeta, Pfs};
pub use layout::{FileSegments, StripeLayout, SubRange, SubRanges};
pub use network::NetworkConfig;
pub use server::{CompletedSubRequest, FileServer, ServerStats, Started, SubRequest};
pub use types::{FileId, Priority, SubReqId};
