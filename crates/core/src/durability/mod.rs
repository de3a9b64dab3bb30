//! The durability engine: journal, checkpoint slots, crash fuse,
//! recovery.
//!
//! Everything that makes DMT mutations survive a middleware crash lives
//! behind [`DurabilityEngine`]: the append-only record journal (write
//! offsets, group-commit batching, synchronous appends), the A/B
//! checkpoint slots with journal compaction, and the crash fuse the
//! torture harness arms. [`recovery`] rebuilds a middleware from the
//! persisted cluster state alone; [`journal`] is the pure record codec;
//! [`crash`] is the fuse itself.
//!
//! Ordering is enforced by API shape, not convention. Freed cache space
//! has one owner: a caller that removed extents hands their ranges to
//! [`DurabilityEngine::try_free_removed`], which journals the Removes and
//! only then releases and discards the ranges. While the journal is
//! stalled eviction undoes itself, and every other caller parks the
//! ranges here ([`DurabilityEngine::free_removed`]). The discard itself
//! is private to this module, so
//! no caller can reach the destructive effect ahead of the metadata.
//! Flush plans are held to the same contract through a
//! [`DurabilityHandle`] ([`StagedFlushes`]), and every durable effect is
//! one `fused_*` call that charges the crash fuse and applies the
//! affordable prefix — the raw CPFS effects appear nowhere else in the
//! crate (`crates/core/clippy.toml`; DESIGN.md §9, §12).

pub(crate) mod checkpoint;
pub mod crash;
mod crc;
pub(crate) mod group;
pub mod journal;
pub(crate) mod recovery;
mod replay;

use std::cell::RefCell;
use std::rc::Rc;

use s4d_mpiio::{Cluster, Plan, PlannedIo, Tier};
use s4d_pfs::{FileId, PfsError, Priority};
use s4d_storage::IoKind;

use crate::config::S4dConfig;
use crate::metrics::S4dMetrics;
use crate::names::{CKPT_SLOT_A, CKPT_SLOT_B, JOURNAL_NAME};
use crate::shard::{MetadataPlane, ShardId, ShardRouter};

use crash::{CrashFuse, CrashSite};
use group::GroupCommitQueue;
use journal::JournalRecord;
use recovery::RecoveryReport;

/// Proof that every pending record is durably journaled.
///
/// Issued only by [`DurabilityEngine::append_journal_sync`] and demanded
/// by [`StagedFlushes::release`], so the intent-before-flush ordering of
/// DESIGN.md §9 is a type-system fact rather than a reviewable convention.
#[derive(Debug)]
pub(crate) struct DurabilityHandle(());

/// Cache space whose extent was just removed from the DMT:
/// `(shard, c_file, c_offset, len)`, returned to `shard`'s ledger once
/// the Remove is durable.
pub(crate) type FreedRange = (ShardId, FileId, u64, u64);

/// A journal frame a plan carries: the append offset reserved for it and
/// the records it encodes. The bytes land when the plan runs; if the plan
/// fails, [`DurabilityEngine::unplan_journal`] takes the frame back.
#[derive(Debug)]
pub(crate) struct Frame {
    pub(crate) offset: u64,
    /// A boxed slice (the batch never grows), so a write's obligation
    /// carrying a frame stays within the slot of the other obligations.
    pub(crate) records: Box<[JournalRecord]>,
}

/// One end of a simulated copy: `(tier, file, offset)`.
pub(crate) type CopyEnd = (Tier, FileId, u64);

/// Flush plans held back until their `FlushIntent` records are durable:
/// the plans come out only in exchange for the [`DurabilityHandle`] the
/// intent append returned, so a flush can never run ahead of the record
/// that makes a mid-flush crash re-flush.
#[derive(Debug, Default)]
pub(crate) struct StagedFlushes(Vec<Plan>);

impl StagedFlushes {
    /// Stages one flush plan.
    pub(crate) fn push(&mut self, plan: Plan) {
        self.0.push(plan);
    }

    /// The staged plans, released by the proof that their intents landed.
    pub(crate) fn release(self, _proof: &DurabilityHandle) -> Vec<Plan> {
        self.0
    }

    /// The staged plans' tags, to abandon: the intent append failed.
    pub(crate) fn abandon(self) -> impl Iterator<Item = u64> {
        self.0.into_iter().map(|plan| plan.tag)
    }
}

/// Owns every durable-metadata concern of the cache: the DMT journal,
/// the double-buffered checkpoint slots, and the crash fuse that gates
/// all durable effects.
#[derive(Debug)]
pub(crate) struct DurabilityEngine {
    /// The DMT journal file in CPFS.
    journal_file: Option<FileId>,
    /// Next append offset in the journal file.
    journal_offset: u64,
    /// Per-shard queues of records awaiting the next group-committed
    /// journal write. With one shard this is a single queue and the
    /// batching rule is exactly the pre-shard one.
    group: GroupCommitQueue,
    /// The routing function shared with the metadata plane, used to
    /// requeue a failed batch back to its owning per-shard queues.
    router: ShardRouter,
    /// Torture-harness hook: when attached, every durable effect asks the
    /// fuse for permission and a crash truncates it mid-effect.
    crash_fuse: Option<Rc<RefCell<CrashFuse>>>,
    /// Sequence number of the last installed checkpoint (0 = none yet).
    checkpoint_seq: u64,
    /// `journal_records_total` at the last checkpoint (threshold base).
    records_at_last_ckpt: u64,
    /// Start of the live (uncompacted) journal region.
    journal_base: u64,
    /// True while a synchronous journal append has failed (space
    /// exhaustion or media error under the journal) and its records are
    /// waiting in `journal_pending` for a retry at the *same* offset.
    /// While stalled, no journal write may be planned at a later offset:
    /// a hole in the journal would truncate every later acked record at
    /// recovery.
    stalled: bool,
    /// Freed ranges whose Remove records were not durable when they were
    /// freed, because the journal was stalled. They may be neither
    /// discarded (recovery would map discarded space) nor reused
    /// (recovery would resurrect the old mapping over fresh bytes); the
    /// first background wake after the stall clears frees them
    /// ([`DurabilityEngine::free_parked`]).
    parked: Vec<FreedRange>,
    /// What the last `recover_from_cluster` found, if this instance was
    /// built by one.
    last_recovery: Option<RecoveryReport>,
    /// Scratch for [`DurabilityEngine::append_journal_sync`]: the queued
    /// batch's encoding. Taken, filled, written and stored back empty, so
    /// a synchronous append allocates only while the buffer grows to the
    /// largest batch. It carries nothing between appends.
    sync_bytes: Vec<u8>,
}

impl DurabilityEngine {
    /// A fresh engine: no journal file yet, nothing pending.
    pub(crate) fn new(router: ShardRouter) -> Self {
        DurabilityEngine {
            journal_file: None,
            journal_offset: 0,
            group: GroupCommitQueue::new(router.count()),
            router,
            crash_fuse: None,
            checkpoint_seq: 0,
            records_at_last_ckpt: 0,
            journal_base: 0,
            stalled: false,
            parked: Vec::new(),
            last_recovery: None,
            sync_bytes: Vec::new(),
        }
    }

    /// Attaches the crash fuse for the torture harness.
    pub(crate) fn attach_crash_fuse(&mut self, fuse: Rc<RefCell<CrashFuse>>) {
        self.crash_fuse = Some(fuse);
    }

    /// True once an attached crash fuse has fired.
    pub(crate) fn fuse_dead(&self) -> bool {
        self.crash_fuse
            .as_ref()
            .is_some_and(|f| f.borrow().is_dead())
    }

    /// Charges the crash fuse for a durable effect of `len` bytes at
    /// `site`, returning the affordable prefix (all of `len` when no fuse
    /// is attached). Private: only the `fused_*` effects below call it.
    fn fuse_consume(&mut self, site: CrashSite, len: u64) -> u64 {
        match &self.crash_fuse {
            Some(f) => f.borrow_mut().consume(site, len),
            None => len,
        }
    }

    /// Writes the prefix of `data` the crash fuse affords at `site` to a
    /// CPFS file, returning that prefix's length.
    #[expect(clippy::disallowed_methods, reason = "charges the fuse in this call")]
    fn fused_apply(
        &mut self,
        cluster: &mut Cluster,
        site: CrashSite,
        file: FileId,
        offset: u64,
        data: &[u8],
    ) -> Result<u64, PfsError> {
        let allowed = self.fuse_consume(site, data.len() as u64);
        cluster
            .cpfs_mut()
            .apply_bytes(file, offset, allowed, Some(data))
            .map(|()| allowed)
    }

    /// Discards the prefix of a CPFS range the fuse affords at `site`.
    #[expect(clippy::disallowed_methods, reason = "charges the fuse in this call")]
    fn fused_discard(
        &mut self,
        cluster: &mut Cluster,
        site: CrashSite,
        file: FileId,
        offset: u64,
        len: u64,
    ) {
        let allowed = self.fuse_consume(site, len);
        if allowed > 0 {
            let _ = cluster.cpfs_mut().discard(file, offset, allowed);
        }
    }

    /// Copies the prefix of `len` bytes the crash fuse affords at `site`,
    /// returning its length (the data effect of a finished flush or
    /// fetch; metadata commits only when all of `len` was affordable).
    #[expect(clippy::disallowed_methods, reason = "charges the fuse in this call")]
    pub(crate) fn fused_copy(
        &mut self,
        cluster: &mut Cluster,
        site: CrashSite,
        src: CopyEnd,
        dst: CopyEnd,
        len: u64,
    ) -> u64 {
        let allowed = self.fuse_consume(site, len);
        if allowed > 0 {
            let _ = cluster.copy_range(src, dst, allowed);
        }
        allowed
    }

    /// Rewrites a clean cache range from its OPFS ground truth (scrub
    /// repair). Not a crash site: a torn repair still mismatches its
    /// seal, and the next scrub pass repairs it from the same source.
    #[expect(clippy::disallowed_methods, reason = "not a crash site, see above")]
    pub(crate) fn repair_copy(&self, cluster: &mut Cluster, src: CopyEnd, dst: CopyEnd, len: u64) {
        let _ = cluster.copy_range(src, dst, len);
    }

    /// The report of the recovery that built this instance, if any.
    pub(crate) fn last_recovery(&self) -> Option<&RecoveryReport> {
        self.last_recovery.as_ref()
    }

    /// Resolves (creating on first use) the journal file.
    pub(crate) fn ensure_journal(&mut self, cluster: &mut Cluster) -> FileId {
        match self.journal_file {
            Some(f) => f,
            None => {
                let f = cluster.cpfs_mut().create_or_open(JOURNAL_NAME);
                self.journal_file = Some(f);
                f
            }
        }
    }

    /// Moves every shard's fresh mutation records into that shard's
    /// group-commit queue, in shard order — with one shard, the exact
    /// pre-shard collection order.
    pub(crate) fn collect_pending_records(&mut self, plane: &mut MetadataPlane) {
        for shard in self.router.all_shards() {
            let fresh = plane.take_shard_pending(shard);
            self.group.extend(shard, fresh);
        }
    }

    /// Queues `record` in its owning shard's group-commit queue, behind
    /// whatever is queued there; the next synchronous append carries it.
    /// A caller that needs it behind the plane's fresh mutations collects
    /// them first ([`DurabilityEngine::collect_pending_records`]).
    pub(crate) fn queue_record(&mut self, record: JournalRecord) {
        let (f, o) = record.d_key();
        self.group.push(self.router.shard_of(f, o), record);
    }

    /// Accumulates pending DMT mutations and, once a group-commit batch
    /// is full, returns the journal write and the [`Frame`] it carries.
    /// The caller owns placing the op — in the plan's `then`, data before
    /// metadata — and registering the frame with the plan's obligation:
    /// if the plan carrying the op fails, the reservation must be rolled
    /// back ([`DurabilityEngine::unplan_journal`]) or the journal gets a
    /// hole that truncates every later acked record at recovery.
    pub(crate) fn journal_op(
        &mut self,
        cluster: &mut Cluster,
        plane: &mut MetadataPlane,
        config: &S4dConfig,
        metrics: &mut S4dMetrics,
    ) -> Option<(PlannedIo, Frame)> {
        self.collect_pending_records(plane);
        if !self.group.any_due(config.journal_batch_records) {
            return None;
        }
        self.drain_journal(cluster, plane, metrics, Priority::Normal)
    }

    /// Builds a journal write covering every pending record, if any. The
    /// op carries the encoded frames, so functional-mode stores persist
    /// the real journal and recovery can read it back. The append offset
    /// is reserved now; the bytes land when the runner executes the op
    /// (crash before then = a hole that stops prefix decoding — the same
    /// safe outcome as losing the records outright).
    pub(crate) fn drain_journal(
        &mut self,
        cluster: &mut Cluster,
        plane: &mut MetadataPlane,
        metrics: &mut S4dMetrics,
        priority: Priority,
    ) -> Option<(PlannedIo, Frame)> {
        self.collect_pending_records(plane);
        if self.stalled {
            // A failed sync append owns the current offset; planning a
            // write past it would leave a hole that truncates every later
            // record at recovery. Records keep accumulating until the
            // retry succeeds.
            return None;
        }
        if self.group.is_empty() {
            return None;
        }
        let journal = self.ensure_journal(cluster);
        let records = self.group.drain_all();
        let data = journal::encode_batch(&records);
        let len = data.len() as u64;
        let offset = self.journal_offset;
        let mut op = PlannedIo::overhead(
            Tier::CServers,
            journal,
            IoKind::Write,
            offset,
            len,
            priority,
        );
        op.data = Some(data.into_boxed_slice());
        self.journal_offset += len;
        metrics.journal_writes += 1;
        metrics.journal_bytes += len;
        metrics.journal_records_written += records.len() as u64;
        // `drain_all` sizes the batch exactly, so boxing it is free.
        let records = records.into_boxed_slice();
        Some((op, Frame { offset, records }))
    }

    /// Rolls back a planned journal frame whose carrying plan failed
    /// before the bytes landed. The records requeue ahead of anything
    /// newer (replay order is preserved), and when the frame was the
    /// newest reservation the append offset rewinds so the retry lands
    /// at the same place — no hole, so no later acked record is
    /// truncated at recovery.
    pub(crate) fn unplan_journal(&mut self, frame: Frame, metrics: &mut S4dMetrics) {
        let Frame { offset, records } = frame;
        let len = records.len() as u64 * crate::DMT_RECORD_BYTES;
        if self.journal_offset == offset + len {
            self.journal_offset = offset;
        }
        // When a later frame is already reserved past this one the offset
        // stays (the hole is a torn tail recovery handles); the records
        // still requeue — at the front of their owning shard queues, so a
        // later drain reproduces the failed batch's order — and the
        // mutations eventually persist.
        self.group.requeue_front(&records, &self.router);
        metrics.journal_requeues += 1;
    }

    /// Appends every pending record to the journal right now, bypassing
    /// the planned-I/O path — for records whose durability must precede an
    /// imminent destructive effect (Removes before a discard, FlushIntents
    /// queued by [`DurabilityEngine::queue_record`] before the flush plan
    /// is issued). The write is applied through the crash fuse: a torture
    /// crash leaves a torn suffix that recovery truncates.
    ///
    /// Returns the [`DurabilityHandle`] that releases
    /// [`StagedFlushes`] for the effects the append covers, or `None` when
    /// the append failed (space exhaustion or a media error under the
    /// journal region): the records stay pending at the *same* offset, the
    /// engine is stalled (see [`DurabilityEngine::is_stalled`]), and the
    /// caller must not perform the effect it wanted the proof for.
    #[must_use = "the handle (or its absence) decides whether the effect may proceed"]
    pub(crate) fn append_journal_sync(
        &mut self,
        cluster: &mut Cluster,
        plane: &mut MetadataPlane,
        metrics: &mut S4dMetrics,
    ) -> Option<DurabilityHandle> {
        self.collect_pending_records(plane);
        if self.group.is_empty() {
            self.stalled = false;
            return Some(DurabilityHandle(()));
        }
        let journal = self.ensure_journal(cluster);
        let mut data = std::mem::take(&mut self.sync_bytes);
        self.group.encode_into(&mut data);
        let len = data.len() as u64;
        let offset = self.journal_offset;
        let handle = match self.fused_apply(cluster, CrashSite::SyncAppend, journal, offset, &data)
        {
            Ok(_) => {
                // The full reservation is consumed even on a torn write:
                // this instance is dead then, and recovery works from the
                // cluster.
                self.journal_offset += len;
                self.stalled = false;
                metrics.journal_writes += 1;
                metrics.journal_bytes += len;
                metrics.journal_records_written += self.group.len() as u64;
                self.group.clear();
                Some(DurabilityHandle(()))
            }
            Err(err) => {
                // The append had no effect (apply_bytes is all-or-nothing
                // under injected faults). The records stay queued and the
                // offset does not advance: a hole in the journal would
                // truncate every later acked record at recovery. The
                // engine stalls until a retry at this same offset succeeds.
                self.stalled = true;
                metrics.durability_stalls += 1;
                match err {
                    PfsError::NoSpace { .. } => metrics.nospace_failures += 1,
                    PfsError::MediaError { .. } => metrics.media_failures += 1,
                    _ => {}
                }
                None
            }
        };
        data.clear();
        self.sync_bytes = data;
        handle
    }

    /// True while a failed synchronous append is waiting to be retried.
    pub(crate) fn is_stalled(&self) -> bool {
        self.stalled
    }

    /// Retries a stalled synchronous append, if any.
    pub(crate) fn retry_stall(
        &mut self,
        cluster: &mut Cluster,
        plane: &mut MetadataPlane,
        metrics: &mut S4dMetrics,
    ) {
        if self.stalled {
            let _ = self.append_journal_sync(cluster, plane, metrics);
        }
    }

    /// Frees the cache space of extents the caller just removed from the
    /// DMT (crash invalidation, a failed admission's unwind, an
    /// unrecoverable scrub finding) through
    /// [`DurabilityEngine::try_free_removed`]; while the journal is
    /// stalled the ranges park here, still allocated, until
    /// [`DurabilityEngine::free_parked`] frees them. No ranges, no append.
    pub(crate) fn free_removed(
        &mut self,
        cluster: &mut Cluster,
        plane: &mut MetadataPlane,
        metrics: &mut S4dMetrics,
        ranges: impl IntoIterator<Item = FreedRange>,
    ) {
        let mut ranges = ranges.into_iter().peekable();
        if ranges.peek().is_some() && !self.try_free_removed(cluster, plane, metrics, &mut ranges) {
            self.parked.extend(ranges);
        }
    }

    /// Journals the pending Removes synchronously, and only then returns
    /// each range to its shard's ledger and discards its bytes, so
    /// recovery never maps discarded space and never resurrects a mapping
    /// over reused bytes. Returns false, with `ranges` untouched, while
    /// the journal is stalled: eviction then undoes itself
    /// (`S4dCache::make_room`), every other caller parks the ranges
    /// ([`DurabilityEngine::free_removed`]).
    pub(crate) fn try_free_removed(
        &mut self,
        cluster: &mut Cluster,
        plane: &mut MetadataPlane,
        metrics: &mut S4dMetrics,
        ranges: impl IntoIterator<Item = FreedRange>,
    ) -> bool {
        if self.append_journal_sync(cluster, plane, metrics).is_none() {
            return false;
        }
        for range in ranges {
            self.free_range(cluster, plane, range);
        }
        true
    }

    /// Frees the parked ranges once the journal takes appends again; the
    /// append makes their Removes durable first. Runs once per background
    /// wake, after [`DurabilityEngine::retry_stall`].
    pub(crate) fn free_parked(
        &mut self,
        cluster: &mut Cluster,
        plane: &mut MetadataPlane,
        metrics: &mut S4dMetrics,
    ) {
        if self.stalled || self.parked.is_empty() {
            return;
        }
        if self.append_journal_sync(cluster, plane, metrics).is_some() {
            for range in std::mem::take(&mut self.parked) {
                self.free_range(cluster, plane, range);
            }
        }
    }

    /// True while freed ranges wait in the engine for a background wake.
    pub(crate) fn has_parked(&self) -> bool {
        !self.parked.is_empty()
    }

    /// Returns a range whose Remove is durable to its shard's ledger and
    /// discards its bytes, charging the eviction crash site.
    fn free_range(&mut self, cluster: &mut Cluster, plane: &mut MetadataPlane, range: FreedRange) {
        let (shard, c_file, c_offset, len) = range;
        plane.release(shard, c_file, c_offset, len);
        self.fused_discard(cluster, CrashSite::EvictDiscard, c_file, c_offset, len);
    }

    /// Installs a DMT checkpoint snapshot once
    /// [`S4dConfig::checkpoint_after_records`] journal records have
    /// accumulated, then compacts (discards) the journal region the
    /// snapshot covers. Double-buffered slots plus a CRC over the whole
    /// snapshot make the install atomic: a torn write fails the CRC and
    /// recovery falls back to the previous slot.
    pub(crate) fn maybe_checkpoint(
        &mut self,
        cluster: &mut Cluster,
        plane: &mut MetadataPlane,
        config: &S4dConfig,
        metrics: &mut S4dMetrics,
    ) {
        let records_since = plane
            .journal_records_total()
            .saturating_sub(self.records_at_last_ckpt);
        if records_since < config.checkpoint_after_records {
            return;
        }
        // Force-drain so the snapshot covers every journaled mutation and
        // the tail past `tail_offset` is an exact record-order suffix.
        if self.append_journal_sync(cluster, plane, metrics).is_none() {
            // Journal stalled (ENOSPC / media error): a snapshot now would
            // claim coverage of records that are not durable. Skip; the
            // previous checkpoint plus the journal tail stay authoritative.
            metrics.checkpoints_skipped += 1;
            return;
        }
        if self.fuse_dead() {
            return;
        }
        let tail_offset = self.journal_offset;
        let seq = self.checkpoint_seq + 1;
        let data = checkpoint::encode_plane_checkpoint(seq, tail_offset, plane);
        let slot_name = if seq % 2 == 1 {
            CKPT_SLOT_A
        } else {
            CKPT_SLOT_B
        };
        let slot = cluster.cpfs_mut().create_or_open(slot_name);
        let len = data.len() as u64;
        let Ok(allowed) = self.fused_apply(cluster, CrashSite::CheckpointWrite, slot, 0, &data)
        else {
            // Slot write failed outright (ENOSPC / media error on the
            // slot's extents): nothing landed, the previous checkpoint
            // stays authoritative, and we retry on a later poll.
            metrics.checkpoints_skipped += 1;
            return;
        };
        if allowed < len {
            // Torn install: the CRC trailer never landed, so recovery keeps
            // using the previous slot. This instance is dead.
            return;
        }
        // Compact: the journal below the snapshot's tail is dead weight.
        let compacted = tail_offset.saturating_sub(self.journal_base);
        if compacted > 0 {
            let journal = self.ensure_journal(cluster);
            let base = self.journal_base;
            self.fused_discard(
                cluster,
                CrashSite::JournalTruncate,
                journal,
                base,
                compacted,
            );
        }
        self.checkpoint_seq = seq;
        self.records_at_last_ckpt = plane.journal_records_total();
        self.journal_base = tail_offset;
        metrics.checkpoints += 1;
        metrics.checkpoint_bytes += len;
        metrics.records_compacted += records_since;
    }
}

#[cfg(test)]
mod tests {
    use s4d_pfs::{FaultPlan, ServerFault};
    use s4d_sim::SimTime;

    use super::*;

    /// A journal append failed by ENOSPC leaves the group-commit queue
    /// exactly as it was, and the retry writes the same records, in the
    /// same order, at the same offset.
    #[test]
    fn a_failed_append_leaves_the_queue_for_a_byte_identical_retry() {
        let router = ShardRouter::new(4, 64 * 1024);
        let mut cluster = Cluster::paper_testbed_small(3);
        let mut plane = MetadataPlane::new(router, 1 << 30, 64);
        let mut engine = DurabilityEngine::new(router);
        let mut metrics = S4dMetrics::default();
        // One acked append first, so the failed one is not at offset 0.
        plane.insert(FileId(1), 0, 4096, FileId(9), 0, true);
        assert!(engine
            .append_journal_sync(&mut cluster, &mut plane, &mut metrics)
            .is_some());
        let offset = engine.journal_offset;
        // Records on every shard, interleaved, so the batch order is the
        // shard-by-shard drain order rather than the push order.
        let mut expected = GroupCommitQueue::new(router.count());
        for i in 0..12u64 {
            let (f, o) = (FileId(1 + i % 3), (i + 1) * 64 * 1024);
            let (c_offset, dirty) = ((i + 1) * 4096, i % 2 == 0);
            plane.insert(f, o, 4096, FileId(9), c_offset, dirty);
            let insert = JournalRecord::Insert {
                d_file: f,
                d_offset: o,
                len: 4096,
                c_file: FileId(9),
                c_offset,
                dirty,
            };
            expected.push(router.shard_of(f, o), insert);
        }
        engine.collect_pending_records(&mut plane);
        let queued = format!("{:?}", engine.group);

        let (from, until) = (SimTime::from_secs(1), SimTime::from_secs(2));
        for server in 0..cluster.cpfs().server_count() {
            let full = FaultPlan::new().with(ServerFault::SpaceExhausted { from, until });
            assert!(cluster.cpfs_mut().set_fault_plan(server, full).is_ok());
        }
        cluster.advance_faults(from);
        assert!(engine
            .append_journal_sync(&mut cluster, &mut plane, &mut metrics)
            .is_none());
        assert!(engine.is_stalled());
        assert_eq!(metrics.nospace_failures, 1);
        assert_eq!(
            engine.journal_offset, offset,
            "a failed append reserves nothing"
        );
        assert_eq!(format!("{:?}", engine.group), queued, "the queue moved");

        cluster.advance_faults(until);
        engine.retry_stall(&mut cluster, &mut plane, &mut metrics);
        assert!(!engine.is_stalled());
        assert!(engine.group.is_empty(), "a landed append empties the queue");
        let batch = journal::encode_batch(&expected.drain_all());
        assert_eq!(engine.journal_offset, offset + batch.len() as u64);
        let journal = engine.ensure_journal(&mut cluster);
        let landed = cluster
            .cpfs()
            .read_bytes(journal, offset, batch.len() as u64)
            .ok()
            .flatten();
        assert_eq!(landed, Some(batch), "the retry wrote other bytes");
    }
}
