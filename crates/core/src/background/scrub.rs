//! The background scrubber: cursor-walk verification of cached extents
//! against their seals (and, for clean data, against OPFS ground truth).

use s4d_mpiio::{Cluster, Tier};
use s4d_pfs::FileId;

use crate::durability::journal;
use crate::layer::S4dCache;

impl S4dCache {
    /// Verifies one cached extent. Clean extents are repaired from OPFS on
    /// mismatch and (re-)sealed; a corrupt *dirty* extent is unrecoverable
    /// and is dropped with its loss surfaced. Returns the bytes scanned,
    /// `Some(0)` if the extent vanished, or `None` when the stores hold no
    /// bytes (timing mode) and scrubbing is pointless.
    pub(crate) fn scrub_extent(
        &mut self,
        cluster: &mut Cluster,
        orig: FileId,
        d_offset: u64,
    ) -> Option<u64> {
        let Some(e) = self.plane.get(orig, d_offset).copied() else {
            return Some(0);
        };
        let bytes = match cluster.cpfs().read_bytes(e.c_file, e.c_offset, e.len) {
            Ok(Some(b)) => b,
            _ => return None,
        };
        let sum = journal::crc32(&bytes);
        match (e.dirty, e.checksum) {
            (false, Some(expect)) if expect == sum => {}
            (false, _) => {
                // Clean: OPFS is ground truth. Repair on mismatch, then
                // (re-)seal with the verified content.
                let Ok(Some(truth)) = cluster.opfs().read_bytes(orig, d_offset, e.len) else {
                    return None;
                };
                if truth != bytes {
                    self.dur.repair_copy(
                        cluster,
                        (Tier::DServers, orig, d_offset),
                        (Tier::CServers, e.c_file, e.c_offset),
                        e.len,
                    );
                    self.metrics.scrub_repaired_bytes += e.len;
                }
                self.plane
                    .seal_if(orig, d_offset, e.version, journal::crc32(&truth));
            }
            (true, Some(expect)) if expect != sum => {
                // Unrecoverable: the only up-to-date copy is corrupt.
                let shard = self.plane.router().shard_of(orig, d_offset);
                self.plane.remove(orig, d_offset);
                self.dur.free_removed(
                    cluster,
                    &mut self.plane,
                    &mut self.metrics,
                    [(shard, e.c_file, e.c_offset, e.len)],
                );
                self.metrics.scrub_lost_bytes += e.len;
                self.metrics.dirty_bytes_lost += e.len;
            }
            (true, Some(_)) => {} // sealed dirty extent, intact
            (true, None) => {
                self.metrics.scrub_unverified_bytes += e.len;
            }
        }
        self.metrics.scrub_scanned_bytes += e.len;
        Some(e.len)
    }

    /// One background scrub pass: the cursor walks every cached extent in
    /// `(file, offset)` order, starting after the last one it verified,
    /// until the per-wake byte budget is spent. Wraps around, so every
    /// extent is eventually visited.
    pub(crate) fn run_scrub(&mut self, cluster: &mut Cluster) {
        let mut targets: Vec<(FileId, u64)> =
            self.plane.iter_extents().map(|(f, o, _)| (f, o)).collect();
        targets.sort_unstable_by_key(|&(f, o)| (f.0, o));
        let start = self.bg.scrub_cursor.map_or(0, |(cf, co)| {
            targets.partition_point(|&(f, o)| (f.0, o) <= (cf.0, co))
        });
        let mut budget = self.config.scrub_bytes_per_wake;
        for &(f, o) in targets.iter().cycle().skip(start).take(targets.len()) {
            if budget == 0 {
                break;
            }
            match self.scrub_extent(cluster, f, o) {
                None => return,
                Some(scanned) => {
                    budget = budget.saturating_sub(scanned.max(1));
                    self.bg.scrub_cursor = Some((f, o));
                }
            }
        }
    }

    /// Verifies every cached extent overlapping a range — the
    /// `verify_on_read` pre-pass.
    pub(crate) fn verify_range(
        &mut self,
        cluster: &mut Cluster,
        file: FileId,
        offset: u64,
        len: u64,
    ) {
        let targets: Vec<u64> = self
            .plane
            .overlapping(file, offset, len)
            .map(|(o, _)| o)
            .collect();
        for o in targets {
            if self.scrub_extent(cluster, file, o).is_none() {
                return;
            }
        }
    }
}
