//! # s4d-cache — the Smart Selective SSD Cache
//!
//! The paper's primary contribution: an I/O-middleware-level cache that
//! uses a small set of SSD file servers (CServers) as a *selective* cache
//! in front of conventional HDD file servers (DServers). Selection is
//! driven by predicted access cost, not locality: small random requests —
//! which cripple striped HDD arrays — are redirected to the SSDs, while
//! large contiguous requests keep the full parallelism of the HDD array.
//!
//! The three components of §III map to this crate as follows:
//!
//! * **Data Identifier** — every request is priced with the cost model of
//!   [`s4d_cost`]; requests with positive benefit are recorded in the
//!   Critical Data Table ([`Cdt`]);
//! * **Redirector** — Algorithm 1: serves Data Mapping Table ([`Dmt`])
//!   hits from CServers, admits critical writes (free space first, then
//!   clean LRU space via the [`SpaceManager`]), and lazily marks critical
//!   missed reads for fetching;
//! * **Rebuilder** — a periodic background task that flushes dirty cached
//!   data back to DServers and fetches `C_flag`-marked read data into
//!   CServers, using low-priority I/O.
//!
//! [`S4dCache`] packages all three behind the [`s4d_mpiio::Middleware`]
//! interface, so the same applications run unmodified over the stock
//! middleware or S4D-Cache — exactly the transparency the paper claims.
//!
//! ```
//! use s4d_cache::{S4dCache, S4dConfig};
//! use s4d_cost::CostParams;
//! use s4d_mpiio::{script, Cluster, Runner};
//! use s4d_storage::presets;
//!
//! let cluster = Cluster::paper_testbed_small(1);
//! let params = CostParams::from_hardware(
//!     &presets::hdd_seagate_st3250(),
//!     &presets::ssd_ocz_revodrive_x2(),
//!     2, 1, 64 * 1024,
//! );
//! let config = S4dConfig::new(64 * 1024 * 1024);
//! let cache = S4dCache::new(config, params);
//! let scripts = vec![script().open("f").write(0, 0, 16 * 1024).close(0).build()];
//! let mut runner = Runner::new(cluster, cache, scripts, 5);
//! let report = runner.run();
//! // The small write was identified as critical and absorbed by CServers.
//! assert_eq!(report.tiers.c_ops, 1);
//! assert_eq!(report.tiers.d_ops, 0);
//! ```

mod background;
mod cdt;
mod config;
mod dmt;
mod durability;
mod faults;
mod gray;
mod health;
mod layer;
mod metrics;
pub mod names;
mod pipeline;
mod shard;
mod space;

// The crash fuse and journal codec live inside the durability engine;
// their long-standing public paths are preserved here.
pub use durability::{crash, journal};

pub use cdt::{Cdt, CdtEntry};
pub use config::{AdmissionPolicy, S4dConfig};
pub use crash::{exec_plan_fused, CrashFuse, CrashSite, CrashStep};
pub use dmt::{CoveredPiece, Dmt, MapExtent, RangeView};
pub use durability::group::GroupCommitQueue;
pub use durability::recovery::RecoveryReport;
pub use health::{HealthMonitor, ServerHealth};
pub use journal::{JournalError, JournalRecord, RecoveredJournal};
pub use layer::S4dCache;
pub use metrics::S4dMetrics;
pub use shard::{MetadataPlane, Segments, ShardId, ShardRouter, ShardSegment};
pub use space::SpaceManager;

/// Size in bytes of one persisted DMT record frame.
///
/// The paper's §V.E.1 counts six four-byte fields (D_file, D_offset,
/// C_file, C_offset, Length, D_flag) — a 24-byte payload. This
/// reproduction frames each payload with a CRC32 (IEEE) trailer so
/// recovery can detect bit-flips and torn tails, for 28 bytes on disk:
/// `[24-byte payload][4-byte CRC32 little-endian]`.
pub const DMT_RECORD_BYTES: u64 = DMT_PAYLOAD_BYTES + 4;

/// Size in bytes of the record payload, excluding the CRC32 trailer.
pub const DMT_PAYLOAD_BYTES: u64 = 24;
