//! # s4d-cost — the S4D-Cache data-access cost model
//!
//! A faithful implementation of the cost model of §III.B of the paper,
//! which predicts the access time of a parallel file request on the
//! HDD-backed DServers (`T_D`, Equations 1–6 and Table II) and on the
//! SSD-backed CServers (`T_C`, Equation 7), and from them the *benefit*
//! `B = T_D − T_C` (Equation 8) of serving the request from the cache.
//!
//! The model's inputs (Table I):
//!
//! | symbol | meaning | here |
//! |--------|---------|------|
//! | `M`    | number of HDD servers | [`CostParams::m`] |
//! | `N`    | number of SSD servers | [`CostParams::n`] |
//! | `str`  | stripe size | [`CostParams::stripe`] |
//! | `d`    | logical distance to the previous request | tracked by [`BenefitEvaluator`] |
//! | `f, r` | request offset and size | arguments |
//! | `R`    | average rotational delay | [`CostParams::rotation`] |
//! | `S`    | maximum seek time | [`CostParams::max_seek`] |
//! | `β_D`  | HDD per-byte cost | [`CostParams::beta_d`] |
//! | `β_C`  | SSD per-byte cost | [`CostParams::beta_c`] |
//! | `F`    | distance → seek time (offline-profiled) | [`s4d_storage::SeekProfile`] |
//!
//! ```
//! use s4d_cost::{BenefitEvaluator, CostParams};
//! use s4d_storage::presets;
//!
//! let params = CostParams::from_hardware(
//!     &presets::hdd_seagate_st3250(),
//!     &presets::ssd_ocz_revodrive_x2(),
//!     8, 4, 64 * 1024,
//! );
//! let mut eval = BenefitEvaluator::new(params);
//! // A small request far from the previous one: big positive benefit.
//! let b = eval.evaluate((0u64, 0u64), 500 * 1024 * 1024, 16 * 1024);
//! assert!(b.benefit_secs > 0.0);
//! ```

mod benefit;
mod model;
mod params;

pub use benefit::{Benefit, BenefitEvaluator};
pub use model::{
    involved_servers, max_startup_expectation, max_subrequest_exact, max_subrequest_table2,
    t_cservers, t_dservers,
};
pub use params::CostParams;
