//! The two parallel file systems as one unit.

use s4d_pfs::FileId;
use s4d_pfs::{NetworkConfig, Pfs, StripeLayout};
use s4d_storage::{presets, HddConfig, SsdConfig, StoreMode};

use crate::types::Tier;

/// The simulated I/O cluster: OPFS over DServers and CPFS over CServers.
///
/// Matches the paper's architecture (Fig. 2): the two file systems are
/// independent PVFS2 instances over disjoint server sets; only the
/// middleware sees both.
#[derive(Debug)]
pub struct Cluster {
    opfs: Pfs,
    cpfs: Pfs,
}

impl Cluster {
    /// Assembles a cluster from two prebuilt file systems.
    pub fn new(opfs: Pfs, cpfs: Pfs) -> Self {
        Cluster { opfs, cpfs }
    }

    /// The paper's testbed (§V.A): 8 HDD DServers + 4 SSD CServers, 64 KiB
    /// stripes, Gigabit Ethernet, timing-only stores.
    pub fn paper_testbed(seed: u64) -> Self {
        Cluster::build(
            8,
            4,
            64 * 1024,
            presets::hdd_seagate_st3250(),
            presets::ssd_ocz_revodrive_x2(),
            NetworkConfig::gigabit_ethernet(),
            StoreMode::Timing,
            seed,
        )
    }

    /// A small functional-mode cluster (2 DServers + 1 CServer) holding
    /// real bytes — for integrity tests and doc examples.
    pub fn paper_testbed_small(seed: u64) -> Self {
        Cluster::build(
            2,
            1,
            64 * 1024,
            presets::hdd_seagate_st3250(),
            presets::ssd_ocz_revodrive_x2(),
            NetworkConfig::gigabit_ethernet(),
            StoreMode::Functional,
            seed,
        )
    }

    /// Fully parameterised construction.
    #[expect(clippy::too_many_arguments, reason = "the fully parameterised ctor")]
    pub fn build(
        d_servers: usize,
        c_servers: usize,
        stripe: u64,
        hdd: HddConfig,
        ssd: SsdConfig,
        net: NetworkConfig,
        mode: StoreMode,
        seed: u64,
    ) -> Self {
        let opfs = Pfs::hdd_cluster(
            "opfs",
            StripeLayout::new(stripe, d_servers),
            hdd,
            net,
            mode,
            seed.wrapping_mul(2).wrapping_add(1),
        );
        let cpfs = Pfs::ssd_cluster(
            "cpfs",
            StripeLayout::new(stripe, c_servers),
            ssd,
            net,
            mode,
            seed.wrapping_mul(2).wrapping_add(2),
        );
        Cluster::new(opfs, cpfs)
    }

    /// The file system for a tier.
    pub fn pfs(&self, tier: Tier) -> &Pfs {
        match tier {
            Tier::DServers => &self.opfs,
            Tier::CServers => &self.cpfs,
        }
    }

    /// Mutable file system for a tier.
    pub fn pfs_mut(&mut self, tier: Tier) -> &mut Pfs {
        match tier {
            Tier::DServers => &mut self.opfs,
            Tier::CServers => &mut self.cpfs,
        }
    }

    /// The original file system (DServers).
    pub fn opfs(&self) -> &Pfs {
        &self.opfs
    }

    /// The original file system, mutable.
    pub fn opfs_mut(&mut self) -> &mut Pfs {
        &mut self.opfs
    }

    /// The cache file system (CServers).
    pub fn cpfs(&self) -> &Pfs {
        &self.cpfs
    }

    /// The cache file system, mutable.
    pub fn cpfs_mut(&mut self) -> &mut Pfs {
        &mut self.cpfs
    }

    /// Applies scripted crash effects due by `now` on every server of
    /// both tiers, so direct store access (e.g. [`Cluster::copy_range`])
    /// never observes data a crash should already have destroyed.
    pub fn advance_faults(&mut self, now: s4d_sim::SimTime) {
        self.opfs.advance_faults(now);
        self.cpfs.advance_faults(now);
    }

    /// Copies `len` bytes from one tier to the other at store level (the
    /// data effect of a Rebuilder flush, fetch or scrub repair, whose
    /// timed I/O has already been simulated): see [`Pfs::copy_into`] for
    /// the copy rule. The destination is always the other tier (flushes
    /// copy C→D; fetches and scrub repairs D→C), so the source and
    /// destination ranges never overlap.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors for unknown files.
    pub fn copy_range(
        &mut self,
        from: (Tier, FileId, u64),
        to: (Tier, FileId, u64),
        len: u64,
    ) -> Result<(), s4d_pfs::PfsError> {
        let (src_tier, src_file, src_off) = from;
        let (_, dst_file, dst_off) = to;
        let (src, dst) = match src_tier {
            Tier::DServers => (&self.opfs, &mut self.cpfs),
            Tier::CServers => (&self.cpfs, &mut self.opfs),
        };
        src.copy_into(src_file, src_off, len, dst, dst_file, dst_off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_dimensions() {
        let c = Cluster::paper_testbed(1);
        assert_eq!(c.pfs(Tier::DServers).server_count(), 8);
        assert_eq!(c.pfs(Tier::CServers).server_count(), 4);
        assert_eq!(c.opfs().name(), "opfs");
        assert_eq!(c.cpfs().name(), "cpfs");
    }

    #[test]
    fn tier_accessors_are_consistent() {
        let mut c = Cluster::paper_testbed_small(2);
        let f = c.pfs_mut(Tier::DServers).create("x").unwrap();
        assert!(c.opfs().meta(f).is_ok());
        assert!(c.cpfs().meta(f).is_err());
    }

    #[test]
    fn copy_range_moves_bytes_between_tiers() {
        let mut c = Cluster::paper_testbed_small(7);
        let orig = c.opfs_mut().create("o").unwrap();
        let cache = c.cpfs_mut().create("c").unwrap();
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 241) as u8).collect();
        let len = payload.len() as u64;
        c.opfs_mut()
            .apply_bytes(orig, 64 * 1024, len, Some(&payload))
            .unwrap();
        // Copy into the cache file at a different offset, then read back.
        c.copy_range(
            (Tier::DServers, orig, 64 * 1024),
            (Tier::CServers, cache, 12_345),
            len,
        )
        .unwrap();
        let got = c.cpfs().read_bytes(cache, 12_345, len).unwrap();
        assert_eq!(got, Some(payload), "bytes survive the cross-tier copy");
        assert_eq!(c.cpfs().meta(cache).unwrap().size, 12_345 + len);
    }

    #[test]
    fn copy_range_reads_a_server_without_the_file_as_a_hole() {
        let mut c = Cluster::paper_testbed_small(7);
        let orig = c.opfs_mut().create("o").unwrap();
        let cache = c.cpfs_mut().create("c").unwrap();
        // 16 KiB on DServer 0; DServer 1 never stored the file.
        let payload: Vec<u8> = (0..16 * 1024u32).map(|i| (i % 251) as u8).collect();
        c.opfs_mut()
            .apply_bytes(orig, 0, payload.len() as u64, Some(&payload))
            .unwrap();
        c.copy_range(
            (Tier::DServers, orig, 0),
            (Tier::CServers, cache, 0),
            128 * 1024,
        )
        .unwrap();
        let got = c.cpfs().read_bytes(cache, 0, 16 * 1024).unwrap();
        assert_eq!(got, Some(payload), "the stored bytes are copied");
        // DServer 0's stripe is copied whole, its hole as zeroes; the
        // DServer-1 half gains no coverage.
        assert_eq!(
            c.cpfs().covered_bytes(cache, 0, 64 * 1024).unwrap(),
            64 * 1024
        );
        let hole = c.cpfs().read_bytes(cache, 16 * 1024, 48 * 1024).unwrap();
        assert_eq!(hole, Some(vec![0u8; 48 * 1024]));
        assert_eq!(
            c.cpfs().covered_bytes(cache, 64 * 1024, 64 * 1024).unwrap(),
            0
        );
    }

    #[test]
    fn copy_range_in_timing_mode_stores_nothing() {
        let mut c = Cluster::paper_testbed(8); // timing mode
        let orig = c.opfs_mut().create("o").unwrap();
        let cache = c.cpfs_mut().create("c").unwrap();
        c.opfs_mut().apply_bytes(orig, 0, 256 * 1024, None).unwrap();
        c.copy_range(
            (Tier::DServers, orig, 0),
            (Tier::CServers, cache, 0),
            256 * 1024,
        )
        .unwrap();
        // Timing servers keep neither bytes nor coverage, and the copy does
        // not grow the destination.
        assert_eq!(c.cpfs().stored_bytes(), 0);
        assert_eq!(c.cpfs().covered_bytes(cache, 0, 256 * 1024).unwrap(), 0);
        assert_eq!(c.cpfs().read_bytes(cache, 0, 256 * 1024).unwrap(), None);
        assert_eq!(c.cpfs().meta(cache).unwrap().size, 0);
        // Zero-length copies are no-ops.
        c.copy_range((Tier::DServers, orig, 0), (Tier::CServers, cache, 0), 0)
            .unwrap();
        // Unknown files error.
        assert!(c
            .copy_range(
                (Tier::DServers, s4d_pfs::FileId(99), 0),
                (Tier::CServers, cache, 0),
                10
            )
            .is_err());
    }
}
