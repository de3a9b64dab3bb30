//! Middleware-level counters.

/// Counters the S4D-Cache middleware accumulates across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct S4dMetrics {
    /// Requests priced by the cost model.
    pub evaluated: u64,
    /// Requests classified performance-critical (CDT insertions attempted).
    pub critical: u64,
    /// Write requests (fully or partly) absorbed by CServers.
    pub writes_to_cache: u64,
    /// Write requests sent entirely to DServers.
    pub writes_to_disk: u64,
    /// Read requests served entirely from CServers.
    pub read_full_hits: u64,
    /// Read requests partially served from CServers.
    pub read_partial_hits: u64,
    /// Read requests missing CServers entirely.
    pub read_misses: u64,
    /// Read misses whose CDT entry was flagged for lazy fetching.
    pub lazy_marks: u64,
    /// Clean extents evicted to make room.
    pub evictions: u64,
    /// Bytes reclaimed by eviction.
    pub evicted_bytes: u64,
    /// Dirty extents flushed back to DServers by the Rebuilder.
    pub flushes: u64,
    /// Bytes flushed.
    pub flushed_bytes: u64,
    /// Ranges fetched into CServers by the Rebuilder.
    pub fetches: u64,
    /// Bytes fetched.
    pub fetched_bytes: u64,
    /// Synchronous journal writes issued.
    pub journal_writes: u64,
    /// Journal bytes written.
    pub journal_bytes: u64,
    /// Journal records carried by those writes (group-commit numerator:
    /// records ÷ writes = appends per fsync).
    pub journal_records_written: u64,
    /// Cache admissions denied for lack of space (after eviction).
    pub admission_denied_space: u64,
    /// Sub-request retries granted after transient CServer errors.
    pub retries: u64,
    /// Quarantines entered (a server can contribute several across a run).
    pub quarantines: u64,
    /// Clean cached pieces served from OPFS instead of an unhealthy
    /// CServer (graceful-degradation fallback reads).
    pub fallback_reads: u64,
    /// Bytes those fallback reads covered.
    pub fallback_bytes: u64,
    /// Dirty (unflushed) cached bytes destroyed by a CServer crash —
    /// the data-loss figure a deployment must watch.
    pub dirty_bytes_lost: u64,
    /// Clean cached bytes invalidated after a CServer crash (no loss:
    /// OPFS still holds them; reads re-fetch from there).
    pub crash_invalidated_bytes: u64,
    /// Cache admissions denied because a CServer was quarantined.
    pub admission_denied_health: u64,
    /// DMT checkpoints installed.
    pub checkpoints: u64,
    /// Bytes of checkpoint snapshots written.
    pub checkpoint_bytes: u64,
    /// Journal records compacted away by checkpointing (records that
    /// recovery no longer needs to replay).
    pub records_compacted: u64,
    /// Cached bytes the scrubber has verified against their seals.
    pub scrub_scanned_bytes: u64,
    /// Corrupted clean bytes the scrubber repaired from DServers.
    pub scrub_repaired_bytes: u64,
    /// Corrupted dirty bytes the scrubber dropped (unrecoverable: the
    /// only up-to-date copy failed its checksum).
    pub scrub_lost_bytes: u64,
    /// Dirty unsealed bytes the scrubber skipped (nothing to verify
    /// against).
    pub scrub_unverified_bytes: u64,
    /// Straggling clean cached reads answered with a hedged OPFS read.
    pub hedged_reads: u64,
    /// Deadline misses the middleware chose to wait out (dirty bytes
    /// with no second copy, or overhead traffic).
    pub straggler_waits: u64,
    /// Straggling sub-requests abandoned outright (the request was
    /// re-planned around the slow server).
    pub straggler_abandons: u64,
    /// Space-manager releases that did not match a live allocation
    /// (double release, over-release, or a range never handed out).
    /// An accounting bug in the middleware — must stay 0.
    pub space_over_releases: u64,
    /// Durable-effect writes failed by scripted space exhaustion
    /// (`ENOSPC`) on a CServer.
    pub nospace_failures: u64,
    /// Durable-effect operations failed by scripted media errors
    /// (`EIO` on a bad device sector).
    pub media_failures: u64,
    /// Synchronous journal appends that failed (space exhaustion or
    /// media error under the journal) and stalled the durability engine
    /// until a retry succeeds.
    pub durability_stalls: u64,
    /// Checkpoint installs skipped because the slot write failed; the
    /// previous checkpoint and a longer journal tail stay authoritative.
    pub checkpoints_skipped: u64,
    /// Fresh admissions rolled back because their write plan failed
    /// before the data landed: the dirty mapping to (possibly) unwritten
    /// cache space is removed and its space released, so the Rebuilder
    /// can never flush unwritten bytes over good DServer data.
    pub admission_unwinds: u64,
    /// Planned journal frames whose carrying plan failed: the records
    /// requeued and the append reservation rolled back (no hole).
    pub journal_requeues: u64,
    /// Admissions denied because the journal was stalled: the Insert
    /// record could not be made durable before the ack, so the write
    /// degraded to OPFS (journal-before-ack).
    pub admission_denied_stall: u64,
    /// Clean mapped pieces written through (cache and OPFS both updated,
    /// extent kept clean) because the journal stall blocked the SetDirty
    /// record a re-dirty would need before the ack.
    pub stall_writethroughs: u64,
}

impl S4dMetrics {
    /// Fraction of evaluated requests that were critical, in `[0, 1]`.
    pub fn critical_ratio(&self) -> f64 {
        if self.evaluated == 0 {
            0.0
        } else {
            self.critical as f64 / self.evaluated as f64
        }
    }

    /// Read hit ratio (full hits over all reads), in `[0, 1]`.
    pub fn read_hit_ratio(&self) -> f64 {
        let reads = self.read_full_hits + self.read_partial_hits + self.read_misses;
        if reads == 0 {
            0.0
        } else {
            self.read_full_hits as f64 / reads as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty() {
        let m = S4dMetrics::default();
        assert_eq!(m.critical_ratio(), 0.0);
        assert_eq!(m.read_hit_ratio(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let m = S4dMetrics {
            evaluated: 10,
            critical: 4,
            read_full_hits: 3,
            read_partial_hits: 1,
            read_misses: 6,
            ..Default::default()
        };
        assert!((m.critical_ratio() - 0.4).abs() < 1e-12);
        assert!((m.read_hit_ratio() - 0.3).abs() < 1e-12);
    }
}
