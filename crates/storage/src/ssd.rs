//! Solid-state-drive service-time model.

use s4d_sim::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

use crate::device::{DeviceKind, DeviceModel, IoKind};

/// Configuration of a solid-state drive.
///
/// The model captures the two properties the paper exploits (§III): access
/// cost is insensitive to position, and reads are faster than writes. Each
/// operation costs a fixed per-op latency plus bytes at the direction's
/// transfer rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    /// Sustained read rate, bytes per second.
    read_rate: f64,
    /// Sustained write rate, bytes per second.
    write_rate: f64,
    /// Fixed per-operation latency, seconds (flash access + controller).
    op_latency: f64,
    /// Usable capacity in bytes.
    capacity: u64,
}

impl SsdConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if a rate or latency is non-positive/non-finite (latency may
    /// be zero) or `capacity == 0`.
    pub fn new(read_rate: f64, write_rate: f64, op_latency: f64, capacity: u64) -> Self {
        assert!(
            read_rate.is_finite() && read_rate > 0.0,
            "read_rate must be positive"
        );
        assert!(
            write_rate.is_finite() && write_rate > 0.0,
            "write_rate must be positive"
        );
        assert!(
            op_latency.is_finite() && op_latency >= 0.0,
            "op_latency must be non-negative"
        );
        assert!(capacity > 0, "capacity must be positive");
        SsdConfig {
            read_rate,
            write_rate,
            op_latency,
            capacity,
        }
    }

    /// Per-byte cost in seconds for the given direction (the paper's `β_C`).
    pub fn beta_secs_per_byte(&self, kind: IoKind) -> f64 {
        match kind {
            IoKind::Read => 1.0 / self.read_rate,
            IoKind::Write => 1.0 / self.write_rate,
        }
    }

    /// Fixed per-operation latency, seconds.
    pub fn op_latency_secs(&self) -> f64 {
        self.op_latency
    }

    /// Usable capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Sustained rate for the given direction, bytes per second.
    pub fn rate(&self, kind: IoKind) -> f64 {
        match kind {
            IoKind::Read => self.read_rate,
            IoKind::Write => self.write_rate,
        }
    }

    /// Finishes configuration.
    pub fn build(self) -> SsdModel {
        SsdModel {
            config: self,
            ops: 0,
        }
    }
}

/// A stateless (position-free) SSD service-time model.
#[derive(Debug, Clone)]
pub struct SsdModel {
    config: SsdConfig,
    ops: u64,
}

impl SsdModel {
    /// Total operations serviced.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }
}

impl DeviceModel for SsdModel {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Ssd
    }

    fn service_time(
        &mut self,
        kind: IoKind,
        _lba: u64,
        len: u64,
        _rng: &mut SimRng,
    ) -> SimDuration {
        self.ops += 1;
        let secs = self.config.op_latency + len as f64 * self.config.beta_secs_per_byte(kind);
        SimDuration::from_secs_f64(secs)
    }

    fn transfer_rate(&self, kind: IoKind) -> f64 {
        self.config.rate(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    const KIB: u64 = 1024;
    const GIB: u64 = 1024 * 1024 * 1024;

    #[test]
    fn position_insensitive() {
        let mut m = presets::ssd_ocz_revodrive_x2().build();
        let mut rng = SimRng::seed(1);
        let near = m.service_time(IoKind::Read, 0, 4 * KIB, &mut rng);
        let far = m.service_time(IoKind::Read, 90 * GIB, 4 * KIB, &mut rng);
        assert_eq!(near, far, "SSD cost must not depend on address");
    }

    #[test]
    fn reads_faster_than_writes() {
        let mut m = presets::ssd_ocz_revodrive_x2().build();
        let mut rng = SimRng::seed(2);
        let r = m.service_time(IoKind::Read, 0, 1024 * KIB, &mut rng);
        let w = m.service_time(IoKind::Write, 0, 1024 * KIB, &mut rng);
        assert!(r < w, "read {r} should beat write {w}");
    }

    #[test]
    fn small_random_far_cheaper_than_hdd() {
        let mut ssd = presets::ssd_ocz_revodrive_x2().build();
        let mut hdd = presets::hdd_seagate_st3250().build();
        let mut rng = SimRng::seed(3);
        let mut ssd_total = SimDuration::ZERO;
        let mut hdd_total = SimDuration::ZERO;
        for i in 0..50u64 {
            let lba = (i * 7919 % 97) * GIB / 97;
            ssd_total += ssd.service_time(IoKind::Read, lba, 16 * KIB, &mut rng);
            hdd_total += hdd.service_time(IoKind::Read, lba, 16 * KIB, &mut rng);
        }
        assert!(
            hdd_total > ssd_total * 10,
            "hdd {hdd_total} should be ≫ ssd {ssd_total} on random 16 KiB"
        );
    }

    #[test]
    fn service_scales_linearly_with_len() {
        let c = presets::ssd_ocz_revodrive_x2();
        let lat = c.op_latency_secs();
        let beta = c.beta_secs_per_byte(IoKind::Write);
        let mut m = c.build();
        let mut rng = SimRng::seed(4);
        let t = m.service_time(IoKind::Write, 0, 1_000_000, &mut rng);
        let expect = SimDuration::from_secs_f64(lat + 1e6 * beta);
        assert_eq!(t, expect);
    }

    #[test]
    fn counters_and_kind() {
        let mut m = presets::ssd_ocz_revodrive_x2().build();
        let mut rng = SimRng::seed(5);
        m.service_time(IoKind::Read, 0, 1, &mut rng);
        assert_eq!(m.ops(), 1);
        assert_eq!(m.kind(), DeviceKind::Ssd);
    }

    #[test]
    #[should_panic(expected = "read_rate must be positive")]
    fn rejects_bad_rate() {
        SsdConfig::new(0.0, 1e8, 0.0, GIB);
    }
}
