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

    /// Copies `len` bytes between tiers at store level (used at Rebuilder
    /// plan completion: the timed I/O has already been simulated; this
    /// applies the data effect). In timing mode this only transfers extent
    /// coverage. The source and destination ranges must not overlap.
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
        if len == 0 {
            return Ok(());
        }
        let (src_tier, src_file, src_off) = from;
        let (dst_tier, dst_file, dst_off) = to;
        let src_plan =
            self.pfs_mut(src_tier)
                .plan(src_file, s4d_storage::IoKind::Read, src_off, len)?;
        let src = self.pfs(src_tier);
        let src_layout = src.layout();
        // Gather the source bytes stripe piece by stripe piece — but only
        // while every piece carries some: one metadata-only piece (timing
        // mode) makes the whole copy coverage-only, with nothing to hold.
        let mut gathered: Vec<(u64, u64, Vec<u8>)> = Vec::new();
        let mut has_bytes = true;
        'gather: for sub in src_plan {
            let server = src.server(sub.server)?;
            let mut local = sub.local_offset;
            for (file_off, seg_len) in src_layout.file_segments(&sub) {
                let Some(data) = server.peek_store(src_file, local, seg_len) else {
                    has_bytes = false;
                    break 'gather;
                };
                gathered.push((file_off, seg_len, data));
                local += seg_len;
            }
        }
        // Write into the destination.
        let dst_plan =
            self.pfs_mut(dst_tier)
                .plan(dst_file, s4d_storage::IoKind::Write, dst_off, len)?;
        let dst_layout = self.pfs(dst_tier).layout();
        for sub in dst_plan {
            let mut local = sub.local_offset;
            for (file_off, seg_len) in dst_layout.file_segments(&sub) {
                // Map this destination segment back to source bytes. If
                // the source holds nothing there (never written, or wiped
                // by a server crash), don't fabricate zero coverage in the
                // destination.
                let at = src_off + (file_off - dst_off);
                if source_covered(self.pfs(src_tier), src_file, (src_off, len), at, seg_len) {
                    let data = has_bytes.then(|| assemble(&gathered, at, seg_len));
                    let server = self.pfs_mut(dst_tier).server_mut(sub.server)?;
                    server.poke_store(dst_file, local, seg_len, data.as_deref());
                }
                local += seg_len;
            }
        }
        Ok(())
    }
}

/// True if any stripe piece of the copy's source range `(offset, len)`
/// that overlaps `[at, at + len)` holds stored bytes. Pieces are the
/// source layout's stripes clipped to the copied range, so the query
/// widens to whole stripes before clipping.
fn source_covered(src: &Pfs, file: FileId, range: (u64, u64), at: u64, len: u64) -> bool {
    let layout = src.layout();
    let stripe = layout.stripe_size();
    let lo = (at / stripe * stripe).max(range.0);
    let hi = (at + len)
        .div_ceil(stripe)
        .saturating_mul(stripe)
        .min(range.0 + range.1);
    layout.split_iter(lo, hi - lo).any(|sub| {
        let Ok(server) = src.server(sub.server) else {
            return false; // layout splits stay within the server count
        };
        let mut local = sub.local_offset;
        layout.file_segments(&sub).any(|(_, seg_len)| {
            let covered = server.peek_coverage(file, local, seg_len);
            local += seg_len;
            covered > 0
        })
    })
}

/// Assembles `len` bytes starting at absolute source offset `at` from
/// gathered `(file_off, len, data)` pieces, zero-filled where none reach.
fn assemble(pieces: &[(u64, u64, Vec<u8>)], at: u64, len: u64) -> Vec<u8> {
    let mut out = vec![0u8; len as usize];
    for (p_off, p_len, data) in pieces {
        let lo = at.max(*p_off);
        let hi = (at + len).min(p_off + p_len);
        if lo < hi {
            let dst = (lo - at) as usize;
            let src = (lo - p_off) as usize;
            let n = (hi - lo) as usize;
            if let (Some(to), Some(from)) = (out.get_mut(dst..dst + n), data.get(src..src + n)) {
                to.copy_from_slice(from);
            }
        }
    }
    out
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
        // Seed the original file directly through the stores.
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 241) as u8).collect();
        let plan = c
            .pfs_mut(Tier::DServers)
            .plan(
                orig,
                s4d_storage::IoKind::Write,
                64 * 1024,
                payload.len() as u64,
            )
            .unwrap();
        let layout = c.pfs(Tier::DServers).layout();
        for sub in plan {
            let mut local = sub.local_offset;
            let mut cursor = 0usize;
            for (file_off, seg_len) in layout.file_segments(&sub) {
                let at = (file_off - 64 * 1024) as usize;
                let server = c.pfs_mut(Tier::DServers).server_mut(sub.server).unwrap();
                server.poke_store(
                    orig,
                    local,
                    seg_len,
                    Some(&payload[at..at + seg_len as usize]),
                );
                local += seg_len;
                cursor += seg_len as usize;
            }
            let _ = cursor;
        }
        // Copy into the cache file at a different offset, then read back.
        c.copy_range(
            (Tier::DServers, orig, 64 * 1024),
            (Tier::CServers, cache, 12_345),
            payload.len() as u64,
        )
        .unwrap();
        let plan = c
            .pfs_mut(Tier::CServers)
            .plan(
                cache,
                s4d_storage::IoKind::Read,
                12_345,
                payload.len() as u64,
            )
            .unwrap();
        let layout = c.pfs(Tier::CServers).layout();
        let mut got = vec![0u8; payload.len()];
        for sub in plan {
            let mut local = sub.local_offset;
            for (file_off, seg_len) in layout.file_segments(&sub) {
                let server = c.pfs(Tier::CServers).server(sub.server).unwrap();
                let data = server
                    .peek_store(cache, local, seg_len)
                    .expect("functional");
                let at = (file_off - 12_345) as usize;
                got[at..at + seg_len as usize].copy_from_slice(&data);
                local += seg_len;
            }
        }
        assert_eq!(got, payload, "bytes survive the cross-tier copy");
    }

    #[test]
    fn copy_range_in_timing_mode_transfers_coverage() {
        let mut c = Cluster::paper_testbed(8); // timing mode
        let orig = c.opfs_mut().create("o").unwrap();
        let cache = c.cpfs_mut().create("c").unwrap();
        // Mark coverage on the original.
        let plan = c
            .pfs_mut(Tier::DServers)
            .plan(orig, s4d_storage::IoKind::Write, 0, 256 * 1024)
            .unwrap();
        for sub in plan {
            let server = c.pfs_mut(Tier::DServers).server_mut(sub.server).unwrap();
            server.poke_store(orig, sub.local_offset, sub.len, None);
        }
        c.copy_range(
            (Tier::DServers, orig, 0),
            (Tier::CServers, cache, 0),
            256 * 1024,
        )
        .unwrap();
        assert_eq!(c.cpfs().stored_bytes(), 256 * 1024);
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

    #[test]
    fn assemble_merges_pieces() {
        let pieces = vec![
            (0u64, 4u64, b"abcd".to_vec()),
            (4u64, 4u64, b"efgh".to_vec()),
        ];
        assert_eq!(assemble(&pieces, 2, 4), b"cdef");
        assert_eq!(assemble(&pieces, 0, 8), b"abcdefgh");
    }
}
