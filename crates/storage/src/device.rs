//! The device abstraction shared by HDD and SSD models.

use s4d_sim::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

/// Direction of an I/O operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoKind {
    /// Data flows from the device to the host.
    Read,
    /// Data flows from the host to the device.
    Write,
}

impl IoKind {
    /// True for [`IoKind::Write`].
    pub fn is_write(self) -> bool {
        matches!(self, IoKind::Write)
    }
}

impl std::fmt::Display for IoKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IoKind::Read => "read",
            IoKind::Write => "write",
        })
    }
}

/// The broad class of a storage device: the distinction S4D-Cache is built
/// around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// Mechanical hard disk drive: position-sensitive.
    Hdd,
    /// Solid-state drive: position-insensitive.
    Ssd,
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DeviceKind::Hdd => "HDD",
            DeviceKind::Ssd => "SSD",
        })
    }
}

/// A storage device service-time model.
///
/// Implementations are stateful: a mechanical disk remembers its head
/// position, so back-to-back sequential accesses are cheap while distant
/// ones pay seek and rotational costs. All implementations must be
/// deterministic given the same call sequence and RNG state.
pub trait DeviceModel: std::fmt::Debug + Send {
    /// The device class (drives cache-tier bookkeeping and reporting).
    fn kind(&self) -> DeviceKind;

    /// Time to service one contiguous operation of `len` bytes at byte
    /// address `lba`, advancing device state (e.g. head position).
    ///
    /// `rng` supplies the stochastic components (rotational position); a
    /// model may ignore it.
    fn service_time(&mut self, kind: IoKind, lba: u64, len: u64, rng: &mut SimRng) -> SimDuration;

    /// Sequential transfer rate in bytes per second for the given direction
    /// (the `1/β` of the paper's cost model).
    fn transfer_rate(&self, kind: IoKind) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iokind_helpers() {
        assert!(!IoKind::Read.is_write());
        assert!(IoKind::Write.is_write());
        assert_eq!(IoKind::Read.to_string(), "read");
        assert_eq!(IoKind::Write.to_string(), "write");
    }

    #[test]
    fn device_kind_display() {
        assert_eq!(DeviceKind::Hdd.to_string(), "HDD");
        assert_eq!(DeviceKind::Ssd.to_string(), "SSD");
    }
}
