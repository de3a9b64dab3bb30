//! The Rebuilder (§III.F): flush grouping, fetch grouping, and the
//! completion paths that apply their effects.
//!
//! Plan *construction* lives here (`build_flushes`, `build_fetches`) next
//! to the completion handlers (`apply_pending` and the `finish_*`
//! family) so the two halves of each background cycle — what a plan
//! promises and what its completion delivers — can be read side by side.

use s4d_mpiio::{Cluster, Plan, PlannedIo, Tier};
use s4d_pfs::{FileId, Priority};
use s4d_sim::{OneOrMany, SimTime};
use s4d_storage::IoKind;

use crate::durability::crash::CrashSite;
use crate::durability::journal::{self, JournalRecord};
use crate::durability::StagedFlushes;
use crate::layer::S4dCache;
use crate::names::MAX_GROUP_BYTES;
use crate::shard::ShardSegment;

use super::{Fetch, FetchPiece, FlushItem, Pending};

/// Maximum critical read ranges fetched per wake.
const MAX_FETCH_PER_WAKE: usize = 64;

/// Splits `sorted`, ordered by (file, offset), into the runs one
/// Rebuilder plan groups: the same file, each entry starting where the
/// run ends, at most [`MAX_GROUP_BYTES`] in all. `key` gives an entry's
/// (file, offset, len); each run comes with its file, start and end.
fn adjacent_runs<'a, T>(
    sorted: &'a [T],
    key: impl Fn(&T) -> (FileId, u64, u64) + 'a,
) -> impl Iterator<Item = (FileId, u64, u64, &'a [T])> + 'a {
    let mut rest = sorted;
    std::iter::from_fn(move || {
        let (file, start, len) = key(rest.first()?);
        let mut end = start + len;
        let mut n = 1;
        for (f, offset, len) in rest.iter().skip(1).map(&key) {
            if f != file || offset != end || (end - start) + len > MAX_GROUP_BYTES {
                break;
            }
            end = offset + len;
            n += 1;
        }
        let (run, after) = rest.split_at(n);
        rest = after;
        Some((file, start, end, run))
    })
}

impl S4dCache {
    /// Builds the Rebuilder's flush plans (dirty cache data → DServers,
    /// §III.F step 1). Adjacent dirty extents of a file are grouped into
    /// one plan: its `ops` read the cached bytes, and its `then` writes
    /// them to the original file as a single sequential op.
    ///
    /// The wake's budget is the `max_flush_per_wake` oldest dirty
    /// extents, in-flight ones included; those are skipped by key before
    /// any extent is looked up.
    pub(crate) fn build_flushes(&mut self, cluster: &mut Cluster) -> Vec<Plan> {
        // Per candidate, only what its flush item needs.
        let mut candidates: Vec<FlushItem> = self
            .plane
            .dirty_keys(self.config.max_flush_per_wake)
            .filter(|key| !self.bg.inflight_flush.contains(key))
            .filter_map(|(orig, d_offset)| {
                let e = self.plane.get(orig, d_offset)?;
                Some(FlushItem {
                    orig,
                    d_offset,
                    len: e.len,
                    c_file: e.c_file,
                    c_offset: e.c_offset,
                    version: e.version,
                })
            })
            .collect();
        if candidates.is_empty() {
            return Vec::new();
        }
        candidates.sort_by_key(|c| (c.orig.0, c.d_offset));
        // Each group's FlushIntent queues behind every mutation recorded
        // so far, so the append below carries them in that order.
        self.dur.collect_pending_records(&mut self.plane);
        let mut staged = StagedFlushes::default();
        let flushes_before = self.metrics.flushes;
        let flushed_before = self.metrics.flushed_bytes;
        for (file, start, end, run) in adjacent_runs(&candidates, |c| (c.orig, c.d_offset, c.len)) {
            let items = match run {
                [one] => OneOrMany::One(*one),
                run => OneOrMany::Many(run.to_vec()),
            };
            // Phase 1: read the cached bytes (merge cache-contiguous runs).
            let mut reads: OneOrMany<PlannedIo> = OneOrMany::new();
            for item in &items {
                if let Some(last) = reads.last_mut() {
                    if last.file == item.c_file && last.offset + last.len == item.c_offset {
                        last.len += item.len;
                        continue;
                    }
                }
                reads.push(PlannedIo::overhead(
                    Tier::CServers,
                    item.c_file,
                    IoKind::Read,
                    item.c_offset,
                    item.len,
                    Priority::Background,
                ));
            }
            // Phase 2: one sequential write to the original file.
            let write = PlannedIo::overhead(
                Tier::DServers,
                file,
                IoKind::Write,
                start,
                end - start,
                Priority::Background,
            );
            self.metrics.flushes += items.len() as u64;
            self.metrics.flushed_bytes += end - start;
            for item in &items {
                self.bg.inflight_flush.insert((item.orig, item.d_offset));
            }
            self.dur.queue_record(JournalRecord::FlushIntent {
                d_file: file,
                d_offset: start,
            });
            let tag = self.bg.attach(Pending::Flush(items));
            staged.push(Plan {
                tag,
                ..Plan::two_phase(reads, write)
            });
        }
        // Journal the intents before any flush plan can run: recovery
        // sees which ranges were mid-flush and that a re-flush is due.
        // The matching commit is the SetClean record at completion, so
        // a crash between the two re-flushes idempotently. The staged
        // plans come out only against the append's handle.
        match self
            .dur
            .append_journal_sync(cluster, &mut self.plane, &mut self.metrics)
        {
            Some(proof) => staged.release(&proof),
            None => {
                // Journal stalled (ENOSPC / media error): the intents are
                // queued but not durable, so the flush plans must not run
                // this wake. Abandon them — the extents stay dirty and the
                // next wake retries. (A stray FlushIntent that lands later
                // without its flush is harmless: recovery just schedules
                // an idempotent re-flush.)
                for tag in staged.abandon() {
                    let action = self.bg.take(tag);
                    self.bg.abandon(&mut self.plane, action);
                }
                self.metrics.flushes = flushes_before;
                self.metrics.flushed_bytes = flushed_before;
                Vec::new()
            }
        }
    }

    /// Builds the Rebuilder's fetch plans (CDT `C_flag` data → CServers,
    /// §III.F step 2). Adjacent flagged entries of a file are fetched as
    /// one group so sequential critical data costs one large DServer read.
    pub(crate) fn build_fetches(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        plans: &mut Vec<Plan>,
    ) {
        // Fetches create new cache data striped over every CServer; pause
        // them entirely while any server is quarantined (the flags stay
        // set, so fetching resumes once the tier is healthy again).
        if self.health.any_unhealthy(now) {
            return;
        }
        let mut flagged: Vec<_> = self
            .plane
            .cdt_flagged(MAX_FETCH_PER_WAKE)
            .filter(|e| !self.bg.inflight_fetch.contains(&(e.file, e.offset, e.len)))
            .collect();
        flagged.sort_by_key(|e| (e.file.0, e.offset));
        let mut view = std::mem::take(&mut self.view_scratch);
        for (file, start, end, run) in adjacent_runs(&flagged, |e| (e.file, e.offset, e.len)) {
            let mut keys = Vec::with_capacity(1);
            for e in run {
                keys.push((e.offset, e.len));
            }
            if !self.cache_file_of.contains_key(&file) {
                continue;
            }
            self.plane.view_into(file, start, end - start, &mut view);
            if view.fully_covered() {
                for &(o, l) in &keys {
                    self.plane.cdt_clear_c_flag(file, o, l);
                }
                continue;
            }
            let total: u64 = view.gaps.iter().map(|&(_, l)| l).sum();
            // Every shard owning part of a gap must make room before the
            // group's fetch is planned.
            if !self.make_room_for(cluster, file, &view.gaps) {
                // No clean space to reclaim: stop fetching this wake.
                break;
            }
            let mut reads = Vec::new();
            let (writes, pieces) =
                self.reserve_fetch(file, &view.gaps, Priority::Background, |seg| {
                    reads.push(PlannedIo::overhead(
                        Tier::DServers,
                        file,
                        IoKind::Read,
                        seg.offset,
                        seg.len,
                        Priority::Background,
                    ));
                });
            for &(o, l) in &keys {
                self.bg.inflight_fetch.insert((file, o, l));
            }
            let tag = self.bg.attach(Pending::Fetch(Fetch {
                orig: file,
                cdt_keys: keys,
                pieces,
            }));
            self.metrics.fetches += 1;
            self.metrics.fetched_bytes += total;
            plans.push(Plan {
                tag,
                ..Plan::two_phase(reads, writes)
            });
        }
        self.view_scratch = view;
    }

    /// Reserves cache space for fetching `gaps` of `file`, shard segment
    /// by shard segment. [`S4dCache::make_room_for`] has guaranteed the
    /// capacity; a segment that still cannot allocate is skipped. Returns
    /// the CServer writes that fill the reservation and the pieces for the
    /// [`Fetch`]; `on_segment` sees every segment that got space.
    pub(crate) fn reserve_fetch(
        &mut self,
        file: FileId,
        gaps: &[(u64, u64)],
        priority: Priority,
        mut on_segment: impl FnMut(ShardSegment),
    ) -> (Vec<PlannedIo>, Vec<FetchPiece>) {
        let mut writes = Vec::new();
        let mut pieces = Vec::new();
        for &(g_off, g_len) in gaps {
            for seg in self.plane.router().segments_iter(file, g_off, g_len) {
                let Some(c_file) = self.cache_file_for(file, seg.shard) else {
                    continue; // fetches are only planned for opened files
                };
                let Some(allocs) = self.plane.alloc(seg.shard, c_file, seg.len) else {
                    continue;
                };
                on_segment(seg);
                let mut cursor = seg.offset;
                for p in allocs {
                    writes.push(PlannedIo::overhead(
                        Tier::CServers,
                        c_file,
                        IoKind::Write,
                        p.c_offset,
                        p.len,
                        priority,
                    ));
                    pieces.push((cursor, p.len, c_file, p.c_offset));
                    cursor += p.len;
                }
            }
        }
        (writes, pieces)
    }

    /// Applies the completion action a finished plan registered.
    pub(crate) fn apply_pending(&mut self, cluster: &mut Cluster, action: Option<Pending>) {
        match action {
            Some(Pending::Read { pins, fetch }) => {
                self.bg.release_pins(pins);
                if let Some(fetch) = fetch {
                    self.finish_fetch(cluster, *fetch);
                }
            }
            Some(Pending::Write { orig, written, .. }) => {
                let targets = written.iter().map(|w| (orig, w.d_offset, w.version));
                self.finish_seals(cluster, targets);
            }
            Some(Pending::Flush(items)) => self.finish_flush_group(cluster, items),
            Some(Pending::Fetch(fetch)) => self.finish_fetch(cluster, fetch),
            // Completion no-op: the frame landed; it only matters on
            // plan failure.
            Some(Pending::Journal(_)) | None => {}
        }
    }

    /// Seals extents whose plan completed: reads the cached bytes back,
    /// checksums them, and attaches the seal if no write raced (version
    /// gate). Timing-mode stores hold no bytes; once a read-back has shown
    /// that, sealing returns before any lookup.
    pub(crate) fn finish_seals(
        &mut self,
        cluster: &mut Cluster,
        targets: impl IntoIterator<Item = (FileId, u64, u64)>,
    ) {
        if !self.bg.cserver_bytes {
            return;
        }
        for (orig, d_offset, version) in targets {
            let Some(e) = self.plane.get(orig, d_offset) else {
                continue;
            };
            if e.version != version {
                continue;
            }
            let (c_file, c_offset, len) = (e.c_file, e.c_offset, e.len);
            let bytes = match cluster.cpfs().read_bytes(c_file, c_offset, len) {
                Ok(Some(bytes)) => bytes,
                Ok(None) => {
                    self.bg.cserver_bytes = false;
                    return;
                }
                Err(_) => continue,
            };
            let sum = journal::crc32(&bytes);
            self.plane.seal_if(orig, d_offset, version, sum);
        }
    }

    fn finish_flush_group(&mut self, cluster: &mut Cluster, mut items: OneOrMany<FlushItem>) {
        // Keep the items to seal: flushed, and still unverified.
        items.retain(|item| {
            // The extent may have vanished while the flush was in flight —
            // a crash invalidated it, or eviction raced — and its cache
            // space may already hold *other* data. Copying then would
            // corrupt the original file, so the item is skipped; whoever
            // removed the extent accounted for its bytes.
            let still_there = self.plane.get(item.orig, item.d_offset).is_some_and(|e| {
                e.c_file == item.c_file && e.c_offset == item.c_offset && e.len >= item.len
            });
            let mut seal = false;
            if still_there {
                // Apply the data effect of the simulated copy (current
                // bytes — if a write raced the flush, DServers receive the
                // newest data and the extent simply stays dirty for a
                // later flush).
                let allowed = self.dur.fused_copy(
                    cluster,
                    CrashSite::FlushCopy,
                    (Tier::CServers, item.c_file, item.c_offset),
                    (Tier::DServers, item.orig, item.d_offset),
                    item.len,
                );
                // The commit (SetClean) only follows a complete copy; a
                // torn copy leaves the extent dirty, so recovery re-flushes
                // the whole range — idempotent because the same bytes land
                // on the same DServer offsets. Flushing does not change the
                // cached bytes: a flushed extent still unverified is sealed.
                seal = allowed == item.len
                    && self.plane.clean_if(item.orig, item.d_offset, item.version) == Some(true);
            }
            self.bg.inflight_flush.remove(&(item.orig, item.d_offset));
            seal
        });
        let targets = items.iter().map(|i| (i.orig, i.d_offset, i.version));
        self.finish_seals(cluster, targets);
    }

    fn finish_fetch(&mut self, cluster: &mut Cluster, fetch: Fetch) {
        let Fetch {
            orig,
            cdt_keys,
            pieces,
        } = fetch;
        let mut seals: Vec<(FileId, u64, u64)> = Vec::new();
        let mut view = std::mem::take(&mut self.view_scratch);
        for (d_off, len, c_file, c_off) in pieces {
            // A foreground write may have mapped (parts of) this range while
            // the fetch was in flight; only fill the still-missing gaps and
            // return the rest of the reservation. Pieces are allocated per
            // shard segment, so the whole piece lives in `d_off`'s shard.
            let shard = self.plane.router().shard_of(orig, d_off);
            self.plane.view_into(orig, d_off, len, &mut view);
            for &(g_off, g_len) in &view.gaps {
                let rel = g_off - d_off;
                let allowed = self.dur.fused_copy(
                    cluster,
                    CrashSite::FetchFill,
                    (Tier::DServers, orig, g_off),
                    (Tier::CServers, c_file, c_off + rel),
                    g_len,
                );
                // Data-before-metadata: the mapping only exists once the
                // fill completed. A torn fill leaves orphaned cache bytes
                // for the recovery sweep, never a mapping to a hole.
                if allowed == g_len {
                    self.plane
                        .insert(orig, g_off, g_len, c_file, c_off + rel, false);
                    if let Some(e) = self.plane.get(orig, g_off) {
                        seals.push((orig, g_off, e.version));
                    }
                } else {
                    self.plane.release(shard, c_file, c_off + rel, g_len);
                }
            }
            // Give back the parts of the reservation that a racing write
            // already mapped elsewhere.
            for piece in &view.pieces {
                let rel = piece.d_offset - d_off;
                self.plane.release(shard, c_file, c_off + rel, piece.len);
            }
        }
        self.view_scratch = view;
        for (o, l) in cdt_keys {
            self.plane.cdt_clear_c_flag(orig, o, l);
            self.bg.inflight_fetch.remove(&(orig, o, l));
        }
        self.finish_seals(cluster, seals);
    }
}
