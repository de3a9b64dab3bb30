//! Crash recovery: rebuilding a middleware from persisted cluster state.
//!
//! Recovery reads nothing but what survives a middleware crash — the
//! checkpoint slots, the journal file, and the cache files on CPFS — and
//! never consults the crash fuse: a crash *during* recovery simply
//! re-enters this same deterministic procedure, so its discards need no
//! journal-before-effect ceremony.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use s4d_cost::CostParams;
use s4d_mpiio::Cluster;
use s4d_pfs::FileId;

use crate::config::S4dConfig;
use crate::dmt::Dmt;
use crate::durability::crash::{CrashFuse, CrashSite};
use crate::durability::journal;
use crate::layer::S4dCache;
use crate::metrics::S4dMetrics;
use crate::names::{CKPT_SLOT_A, CKPT_SLOT_B, JOURNAL_NAME};

/// What crash recovery found and rebuilt — see
/// [`S4dCache::recover_from_cluster`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint snapshot used, if any slot held a
    /// valid one.
    pub used_checkpoint: Option<u64>,
    /// Records replayed from the checkpoint snapshot.
    pub snapshot_records: u64,
    /// Records replayed from the journal tail past the snapshot.
    pub tail_records: u64,
    /// Journal bytes past the last decodable record (torn tail and
    /// anything after it) that recovery truncated.
    pub dropped_journal_bytes: u64,
    /// Extents dropped because their cache bytes were not fully present
    /// on CPFS (the mapping outran a torn data write).
    pub dropped_extents: u64,
    /// Bytes of dropped extents that were dirty — genuine data loss.
    pub dirty_bytes_lost: u64,
    /// Cache-file bytes present on CPFS but mapped by no extent (a data
    /// write outran its journaled mapping); the orphan sweep discarded
    /// them.
    pub orphan_bytes_discarded: u64,
}

impl RecoveryReport {
    /// Total records replayed (snapshot + tail): the work recovery did.
    pub fn records_replayed(&self) -> u64 {
        self.snapshot_records + self.tail_records
    }
}

impl S4dCache {
    /// Reconstructs a middleware from the cluster state alone — the
    /// checkpoint slots, the journal file, and the cache files on CPFS —
    /// which is exactly what survives a middleware crash. Requires
    /// functional-mode stores (timing-only stores hold no bytes to read
    /// back; recovery then sees an empty journal).
    ///
    /// The sequence is: pick the newest valid checkpoint slot, replay its
    /// snapshot, replay the journal tail past it (strict prefix — decoding
    /// stops at the first torn or corrupt frame and the undecodable suffix
    /// is truncated), conservatively unseal dirty extents, drop any mapping
    /// whose cache bytes are not fully present (a torn data write), rebuild
    /// the space allocator, and discard orphaned cache bytes no mapping
    /// claims (a data write that outran its journaled mapping).
    pub fn recover_from_cluster(
        config: S4dConfig,
        params: CostParams,
        cluster: &mut Cluster,
    ) -> (Self, RecoveryReport) {
        match Self::recover_from_cluster_fused(config, params, cluster, None) {
            Some(done) => done,
            #[expect(clippy::unreachable, reason = "no fuse, so no charge is cut short")]
            None => unreachable!("recovery without a fuse cannot crash"),
        }
    }

    /// [`S4dCache::recover_from_cluster`] with a crash fuse gating
    /// recovery's own destructive effects (the journal-suffix truncate,
    /// dropped-extent discards, and the orphan sweep). Returns `None` when
    /// the fuse dies mid-recovery — the partially-recovered instance is
    /// lost, exactly like a second power failure — after applying only the
    /// affordable prefix of the interrupted effect. The double-crash
    /// torture re-enters recovery afterwards and must converge to the same
    /// state, proving recovery idempotent.
    #[expect(clippy::disallowed_methods, reason = "each discard follows its charge")]
    pub fn recover_from_cluster_fused(
        config: S4dConfig,
        params: CostParams,
        cluster: &mut Cluster,
        fuse: Option<Rc<RefCell<CrashFuse>>>,
    ) -> Option<(Self, RecoveryReport)> {
        let charge = |site: CrashSite, len: u64| -> u64 {
            match &fuse {
                Some(f) => f.borrow_mut().consume(site, len),
                None => len,
            }
        };
        let mut report = RecoveryReport::default();
        let mut snapshot: Option<journal::Checkpoint> = None;
        for slot in [CKPT_SLOT_A, CKPT_SLOT_B] {
            let Ok(file) = cluster.cpfs().open(slot) else {
                continue;
            };
            let Ok(size) = cluster.cpfs().meta(file).map(|m| m.size) else {
                continue;
            };
            let Ok(Some(bytes)) = cluster.cpfs().read_bytes(file, 0, size) else {
                continue;
            };
            if let Ok(ckpt) = journal::decode_checkpoint(&bytes) {
                if snapshot
                    .as_ref()
                    .is_none_or(|s| ckpt.covers_seq > s.covers_seq)
                {
                    snapshot = Some(ckpt);
                }
            }
        }
        let mut dmt = Dmt::new();
        let tail_start = match &snapshot {
            Some(ckpt) => {
                journal::replay_tolerant(&mut dmt, &ckpt.records);
                report.used_checkpoint = Some(ckpt.covers_seq);
                report.snapshot_records = ckpt.records.len() as u64;
                ckpt.tail_offset
            }
            None => 0,
        };
        let journal_file = cluster.cpfs_mut().create_or_open(JOURNAL_NAME);
        let journal_size = cluster
            .cpfs()
            .meta(journal_file)
            .map(|m| m.size)
            .unwrap_or(0);
        let mut journal_offset = tail_start;
        if journal_size > tail_start {
            if let Ok(Some(bytes)) =
                cluster
                    .cpfs()
                    .read_bytes(journal_file, tail_start, journal_size - tail_start)
            {
                let tail = journal::decode_prefix(&bytes);
                journal::replay_tolerant(&mut dmt, &tail.records);
                report.tail_records = tail.records.len() as u64;
                report.dropped_journal_bytes = tail.dropped_bytes;
                journal_offset = tail_start + (bytes.len() as u64 - tail.dropped_bytes);
                if tail.dropped_bytes > 0 {
                    // Truncate the undecodable suffix so future appends
                    // land on clean ground instead of behind a bad frame.
                    let allowed = charge(CrashSite::RecoveryTruncate, tail.dropped_bytes);
                    if allowed > 0 {
                        let _ = cluster
                            .cpfs_mut()
                            .discard(journal_file, journal_offset, allowed);
                    }
                    if allowed < tail.dropped_bytes {
                        return None;
                    }
                }
            }
        }
        // A dirty extent's seal may predate a torn overwrite of its bytes;
        // trusting it would let the scrubber discard acknowledged data.
        dmt.clear_dirty_checksums();
        // Coverage validation: a mapping whose cache bytes are not all
        // present points at a torn data write (or a crashed CServer). Drop
        // it — clean extents re-fetch from OPFS; dirty ones are real loss.
        let mut metrics = S4dMetrics::default();
        let mut extents: Vec<(FileId, u64, u64, FileId, u64, bool)> = dmt
            .iter_extents()
            .map(|(f, o, e)| (f, o, e.len, e.c_file, e.c_offset, e.dirty))
            .collect();
        extents.sort_unstable_by_key(|&(f, o, ..)| (f.0, o));
        for (file, d_off, len, c_file, c_off, dirty) in extents {
            let covered = cluster
                .cpfs()
                .covered_bytes(c_file, c_off, len)
                .unwrap_or(0);
            if covered == len {
                continue;
            }
            dmt.remove(file, d_off);
            let allowed = charge(CrashSite::RecoveryDrop, len);
            if allowed > 0 {
                let _ = cluster.cpfs_mut().discard(c_file, c_off, allowed);
            }
            if allowed < len {
                return None;
            }
            report.dropped_extents += 1;
            if dirty {
                report.dirty_bytes_lost += len;
                metrics.dirty_bytes_lost += len;
            } else {
                metrics.crash_invalidated_bytes += len;
            }
        }
        // The drops above are re-derived deterministically from cluster
        // state on any future recovery; they need no journal records.
        let _ = dmt.take_pending_journal();
        // Orphan sweep: cache-file bytes no extent maps. Per-shard cache
        // files (`*.s<k>.cache`) share the `.cache` suffix, so the sweep
        // covers every shard's file.
        let mut mapped_ranges: HashMap<FileId, Vec<(u64, u64)>> = HashMap::new();
        for (_, _, e) in dmt.iter_extents() {
            mapped_ranges
                .entry(e.c_file)
                .or_default()
                .push((e.c_offset, e.len));
        }
        let mut cache_files: Vec<(FileId, u64)> = cluster
            .cpfs()
            .iter_files()
            .filter(|m| m.name.ends_with(".cache"))
            .map(|m| (m.id, m.size))
            .collect();
        cache_files.sort_unstable_by_key(|&(f, _)| f.0);
        for (f, size) in cache_files {
            if size == 0 {
                continue;
            }
            let mut ranges = mapped_ranges.remove(&f).unwrap_or_default();
            ranges.sort_unstable();
            let mut cursor = 0u64;
            let mut holes: Vec<(u64, u64)> = Vec::new();
            for (off, len) in ranges {
                if off > cursor {
                    holes.push((cursor, off - cursor));
                }
                cursor = cursor.max(off + len);
            }
            if size > cursor {
                holes.push((cursor, size - cursor));
            }
            for (off, len) in holes {
                let covered = cluster.cpfs().covered_bytes(f, off, len).unwrap_or(0);
                if covered > 0 {
                    let allowed = charge(CrashSite::RecoverySweep, len);
                    if allowed > 0 {
                        let _ = cluster.cpfs_mut().discard(f, off, allowed);
                    }
                    if allowed < len {
                        return None;
                    }
                    report.orphan_bytes_discarded += covered;
                }
            }
        }
        let capacity = config.cache_capacity;
        let mut s = S4dCache::new(config, params);
        s.plane.adopt(dmt, capacity);
        s.metrics = metrics;
        s.dur.journal_file = Some(journal_file);
        s.dur.journal_offset = journal_offset;
        s.dur.journal_base = tail_start;
        s.dur.checkpoint_seq = report.used_checkpoint.unwrap_or(0);
        s.dur.records_at_last_ckpt = s.plane.journal_records_total();
        s.dur.last_recovery = Some(report);
        Some((s, report))
    }
}
