//! # s4d-storage — device models and byte stores
//!
//! The storage substrate of the S4D-Cache reproduction. The original paper
//! evaluates on SEAGATE ST32502NS hard drives and OCZ RevoDrive X2 SSDs; this
//! crate models the *service-time behaviour* the paper's cost model and
//! experiments depend on:
//!
//! * [`HddModel`] — mechanical disk with a head position, a seek-distance →
//!   seek-time curve (`F(d)` in the paper), rotational delay, and a
//!   sequential transfer rate;
//! * [`SsdModel`] — position-insensitive device with asymmetric read/write
//!   transfer rates and a small fixed per-operation latency;
//! * [`SeekProfile`] — the `F(d)` curve. The cost model reads the device
//!   preset's own ground-truth curve, the one the simulator runs, so
//!   decisions and outcomes share it;
//! * [`profile::profile_seek_curve`] — the paper's offline profiling
//!   procedure (its reference \[28\]): it fits a [`SeekProfile`] to
//!   measurements of a device. Nothing in the model uses the fit; a test
//!   checks that it recovers the ground-truth curve;
//! * [`ExtentStore`] — a sparse extent map holding file bytes, kept only by
//!   functional-mode servers, so large timing-only simulations hold no
//!   per-file state;
//! * [`presets`] — parameter sets for the paper's testbed hardware;
//! * [`sector_is_bad`] / [`range_has_bad_sector`] — the seeded bad-sector
//!   map behind `s4d-pfs`'s media-error fault (all fault *scripting* lives
//!   there, on the simulation clock).
//!
//! ```
//! use s4d_sim::SimRng;
//! use s4d_storage::{presets, DeviceModel, IoKind};
//!
//! let mut hdd = presets::hdd_seagate_st3250().build();
//! let mut rng = SimRng::seed(1);
//! let far = hdd.service_time(IoKind::Read, 50 * 1024 * 1024 * 1024, 4096, &mut rng);
//! let seq = hdd.service_time(IoKind::Read, hdd.head(), 4096, &mut rng);
//! assert!(far > seq * 10, "random access must dwarf sequential access");
//! ```

mod device;
mod faults;
mod hdd;
pub mod presets;
pub mod profile;
mod seek;
mod ssd;
mod store;

pub use device::{DeviceKind, DeviceModel, IoKind};
pub use faults::{range_has_bad_sector, sector_is_bad, MEDIA_SECTOR_BYTES};
pub use hdd::{HddConfig, HddModel};
pub use seek::SeekProfile;
pub use ssd::{SsdConfig, SsdModel};
pub use store::{ExtentStore, StoreMode};
