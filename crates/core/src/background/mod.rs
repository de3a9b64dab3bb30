//! The unified background-work scheduler (the paper's Rebuilder, plus
//! the scrubber and journal straggler-drain).
//!
//! [`BackgroundScheduler`] owns the `Pending` state machine — every
//! plan-completion obligation a foreground or background plan registers
//! — together with the in-flight markers, eviction pins, and the scrub
//! cursor. The per-wake work itself is split by concern: [`rebuild`]
//! groups dirty extents into flush plans and flagged reads into fetch
//! plans (and applies their completions); [`scrub`] walks the seal
//! cursor. [`S4dCache::background_poll`] strings them into one
//! prioritized wake: flushes, then fetches, then scrubbing, then
//! checkpointing, then the journal straggler drain.

pub(crate) mod rebuild;
pub(crate) mod scrub;

use s4d_mpiio::{BackgroundPoll, Cluster, Plan};
use s4d_pfs::{FileId, Priority};
use s4d_sim::{IdMap, IdSet, SimTime};

use crate::layer::S4dCache;
use crate::shard::MetadataPlane;

/// One dirty extent inside a flush group.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlushItem {
    orig: FileId,
    d_offset: u64,
    len: u64,
    c_file: FileId,
    c_offset: u64,
    version: u64,
}

/// One reserved piece of a fetch: `(d_offset, len, c_file, c_offset)`.
pub(crate) type FetchPiece = (u64, u64, FileId, u64);

/// A background action awaiting plan completion. Not `Clone`, and consumed
/// by value everywhere: an obligation is attached to exactly one plan tag
/// ([`BackgroundScheduler::attach`]) and claimed exactly once.
#[derive(Debug)]
#[must_use = "a Pending that is not attached to a plan tag is a leaked obligation"]
pub(crate) enum Pending {
    /// A foreground read finished: release its eviction pins.
    Unpin(Vec<(FileId, u64, u64)>),
    /// Several actions share one plan (e.g. unpin + eager fetch).
    Multi(Vec<Pending>),
    /// Flush of a run of file-contiguous dirty extents back to DServers.
    /// Grouping adjacent extents turns many small cache writes into one
    /// large sequential DServer write — the data *reorganisation* of
    /// §III.F, and a large part of why buffering random writes pays off.
    Flush(Vec<FlushItem>),
    /// Fetch of the gaps of a run of adjacent flagged CDT entries.
    Fetch {
        orig: FileId,
        /// The `(offset, len)` CDT keys whose `C_flag` this fetch clears.
        cdt_keys: Vec<(u64, u64)>,
        /// The cache pieces reserved for the data.
        pieces: Vec<FetchPiece>,
    },
    /// A foreground write finished: seal the extents it filled, as
    /// `(file, d_offset, version)` captured at plan time. The version gate
    /// skips any extent a later write touched in the meantime.
    Seal(Vec<(FileId, u64, u64)>),
    /// Fresh extents a write plan's admission inserted, as
    /// `(d_offset, len)` ranges of `orig`. Completion is a no-op (the
    /// data landed); on failure the mappings point at cache space whose
    /// bytes may never have been written and must be unwound before the
    /// Rebuilder can flush unwritten space over good DServer data.
    Admitted {
        /// Original file the extents map.
        orig: FileId,
        /// `(d_offset, len)` of each freshly inserted extent.
        ranges: Vec<(u64, u64)>,
    },
    /// A journal frame riding the plan: `offset` was reserved for these
    /// records at plan time. Completion is a no-op (the frame landed); on
    /// failure the reservation must be rolled back and the records
    /// requeued, or the journal gets a hole that truncates every later
    /// acked record at recovery.
    Journal {
        /// Reserved journal append offset.
        offset: u64,
        /// The records the frame encodes.
        records: Vec<crate::durability::journal::JournalRecord>,
    },
}

/// True for actions that represent real outstanding work (a pending Seal
/// is advisory bookkeeping — checksums attach on completion — and must
/// not keep the drain loop spinning).
fn blocks_idle(p: &Pending) -> bool {
    match p {
        Pending::Seal(_) | Pending::Admitted { .. } | Pending::Journal { .. } => false,
        Pending::Multi(actions) => actions.iter().any(blocks_idle),
        _ => true,
    }
}

/// Owns every deferred-work obligation of the middleware: the pending
/// state machine keyed by plan tag, the flush/fetch in-flight markers,
/// the eviction pins of in-flight reads, and the scrubber's cursor.
#[derive(Debug)]
pub(crate) struct BackgroundScheduler {
    /// Actions to apply when the tagged plan completes.
    pending: IdMap<u64, Pending>,
    /// Next plan tag to hand out (0 is reserved for "no callback").
    next_tag: u64,
    /// `(file, d_offset)` of dirty extents a flush plan is moving.
    inflight_flush: IdSet<(FileId, u64)>,
    /// `(file, offset, len)` CDT keys a fetch plan is filling.
    inflight_fetch: IdSet<(FileId, u64, u64)>,
    /// Ranges referenced by in-flight foreground reads; eviction must not
    /// discard them (a queued sub-request would read freed space).
    pins: Vec<(FileId, u64, u64)>,
    /// Per-shard scrub resume positions: the last `(file, d_offset)`
    /// verified in each shard. Independent cursors let every shard make
    /// scrub progress each wake instead of one global walk starving the
    /// tail shards.
    scrub_cursors: Vec<Option<(FileId, u64)>>,
}

impl BackgroundScheduler {
    /// A fresh scheduler with nothing pending and one scrub cursor per
    /// metadata shard.
    pub(crate) fn new(shards: usize) -> Self {
        BackgroundScheduler {
            pending: IdMap::default(),
            next_tag: 1,
            inflight_flush: IdSet::default(),
            inflight_fetch: IdSet::default(),
            pins: Vec::new(),
            scrub_cursors: vec![None; shards.max(1)],
        }
    }

    /// Attaches a completion action to a plan and returns the plan's tag.
    /// `tag == 0` ("no callback yet") mints a fresh tag; a live tag keeps
    /// its value and gains `action` after whatever it already carries
    /// (both apply when the plan completes).
    #[must_use = "the tag must ride the plan, or the action never runs"]
    pub(crate) fn attach(&mut self, tag: u64, action: Pending) -> u64 {
        if tag == 0 {
            let fresh = self.next_tag;
            self.next_tag += 1;
            self.pending.insert(fresh, action);
            return fresh;
        }
        let chained = match self.pending.remove(&tag) {
            Some(existing) => Pending::Multi(vec![existing, action]),
            None => action,
        };
        self.pending.insert(tag, chained);
        tag
    }

    /// Claims the action registered under `tag`, if any.
    pub(crate) fn take(&mut self, tag: u64) -> Option<Pending> {
        self.pending.remove(&tag)
    }

    /// Pins ranges against eviction for the lifetime of a read plan.
    pub(crate) fn pin_all(&mut self, ranges: &[(FileId, u64, u64)]) {
        self.pins.extend(ranges.iter().copied());
    }

    /// True if `[off, off + len)` of `file` overlaps any active pin.
    pub(crate) fn overlaps_pin(&self, file: FileId, off: u64, len: u64) -> bool {
        self.pins.iter().any(|&(p_file, p_off, p_len)| {
            p_file == file && p_off < off + len && off < p_off + p_len
        })
    }

    fn release_pins(&mut self, ranges: Vec<(FileId, u64, u64)>) {
        for range in ranges {
            if let Some(i) = self.pins.iter().position(|&p| p == range) {
                self.pins.swap_remove(i);
            }
        }
    }

    /// Releases runner-visible state a failed plan held, *without* the
    /// data effects of completion: pins lift, in-flight markers clear,
    /// fetch reservations return to the allocator. Flushed extents stay
    /// dirty and flagged reads stay flagged, so the Rebuilder retries.
    pub(crate) fn abandon(&mut self, plane: &mut MetadataPlane, action: Option<Pending>) {
        match action {
            Some(Pending::Multi(actions)) => {
                for a in actions {
                    self.abandon(plane, Some(a));
                }
            }
            Some(Pending::Unpin(ranges)) => self.release_pins(ranges),
            Some(Pending::Flush(items)) => {
                for item in items {
                    self.inflight_flush.remove(&(item.orig, item.d_offset));
                }
            }
            Some(Pending::Fetch {
                orig,
                cdt_keys,
                pieces,
            }) => {
                for (d_off, len, c_file, c_off) in pieces {
                    // The reservation came from the shard owning the
                    // piece's original-file offset; return it there.
                    let shard = plane.router().shard_of(orig, d_off);
                    plane.release(shard, c_file, c_off, len);
                }
                for (o, l) in cdt_keys {
                    self.inflight_fetch.remove(&(orig, o, l));
                }
            }
            // Sealing is best-effort: an unsealed extent just stays
            // unverified until the scrubber byte-compares it.
            Some(Pending::Seal(_)) => {}
            // These two need DMT/durability access and are handled by
            // `S4dCache::unwind_failed` before it delegates here.
            Some(Pending::Admitted { .. }) | Some(Pending::Journal { .. }) => {}
            None => {}
        }
    }

    /// True while any registered action represents outstanding work.
    fn any_blocking(&self) -> bool {
        self.pending.values().any(blocks_idle)
    }
}

impl S4dCache {
    /// Unwinds the side effects of a failed plan. The simple
    /// runner-visible state (pins, in-flight markers, fetch
    /// reservations) delegates to [`BackgroundScheduler::abandon`]; the
    /// two failure-critical actions need wider access:
    ///
    /// * [`Pending::Admitted`] — fresh dirty mappings whose data writes
    ///   may never have landed are removed and their cache space handed
    ///   to [`crate::durability::DurabilityEngine::free_removed`].
    ///   Leaving them would let the Rebuilder flush unwritten (zero)
    ///   cache space over good DServer data. The removals emit normal
    ///   `Remove` journal records, so recovery replays insert-then-remove
    ///   and converges to the same table.
    /// * [`Pending::Journal`] — the frame's append reservation rolls
    ///   back and its records requeue, keeping the journal hole-free.
    pub(crate) fn unwind_failed(&mut self, cluster: &mut Cluster, action: Option<Pending>) {
        match action {
            Some(Pending::Multi(actions)) => {
                // Journal rollbacks first: an admission unwind appends its
                // Remove records synchronously, which must land *at* the
                // rolled-back offset — not past the failed frame's hole.
                let (journals, rest): (Vec<_>, Vec<_>) = actions
                    .into_iter()
                    .partition(|a| matches!(a, Pending::Journal { .. }));
                for a in journals {
                    self.unwind_failed(cluster, Some(a));
                }
                for a in rest {
                    self.unwind_failed(cluster, Some(a));
                }
            }
            Some(Pending::Admitted { orig, ranges }) => {
                let mut freed = Vec::new();
                for (d_offset, len) in ranges {
                    // Only the extent this plan inserted: same start, same
                    // length, still dirty (nothing acked it since).
                    let matches = self
                        .plane
                        .get(orig, d_offset)
                        .is_some_and(|e| e.len == len && e.dirty);
                    if !matches {
                        continue;
                    }
                    let shard = self.plane.router().shard_of(orig, d_offset);
                    if let Some(e) = self.plane.remove(orig, d_offset) {
                        freed.push((shard, e.c_file, e.c_offset, e.len));
                        self.metrics.admission_unwinds += 1;
                    }
                }
                self.dur
                    .free_removed(cluster, &mut self.plane, &mut self.metrics, freed);
            }
            Some(Pending::Journal { offset, records }) => {
                self.dur.unplan_journal(offset, records, &mut self.metrics);
            }
            other => self.bg.abandon(&mut self.plane, other),
        }
    }

    /// One background wake: flushes, fetches, scrubbing, checkpointing,
    /// and the journal straggler drain, in that priority order — the body
    /// of [`s4d_mpiio::Middleware::poll_background`].
    pub(crate) fn background_poll(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
    ) -> BackgroundPoll {
        // A stalled journal (ENOSPC / media error under the append) blocks
        // every durable effect; retry it first so the rest of the wake can
        // make progress, then free the space parked behind the stall.
        self.dur
            .retry_stall(cluster, &mut self.plane, &mut self.metrics);
        self.dur
            .free_parked(cluster, &mut self.plane, &mut self.metrics);
        let mut plans = self.build_flushes(cluster);
        self.build_fetches(cluster, now, &mut plans);
        if self.config.scrub_bytes_per_wake > 0 {
            self.run_scrub(cluster);
        }
        self.dur
            .maybe_checkpoint(cluster, &mut self.plane, &self.config, &mut self.metrics);
        // Persist any straggling journal records with background priority.
        if let Some((op, records)) = self.dur.drain_journal(
            cluster,
            &mut self.plane,
            &mut self.metrics,
            Priority::Background,
        ) {
            let offset = op.offset;
            let mut plan = Plan::single_phase(vec![op]);
            // Tag the frame so a failed drain rolls its reservation back
            // instead of leaving a hole in the journal.
            plan.tag = self.bg.attach(0, Pending::Journal { offset, records });
            plans.push(plan);
        }
        debug_assert_eq!(
            self.plane.pending_records(),
            0,
            "poll_background returned with uncollected journal records"
        );
        // Mirror the allocator's accounting-bug counter into the metrics
        // snapshot (monotone, so assignment is safe).
        self.metrics.space_over_releases = self.plane.over_releases();
        let work_pending = !plans.is_empty()
            || self.bg.any_blocking()
            || self.dur.is_stalled()
            || self.dur.has_parked()
            || (self.config.max_flush_per_wake > 0 && self.plane.dirty_bytes() > 0);
        BackgroundPoll {
            plans,
            next_wake: Some(now + self.config.rebuild_period),
            work_pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_mints_on_zero_and_chains_on_a_live_tag() {
        let mut bg = BackgroundScheduler::new(1);
        // Tag 0 = "no callback yet": a fresh tag, the action stored as is.
        let tag = bg.attach(0, Pending::Unpin(vec![(FileId(1), 0, 8)]));
        assert_eq!(tag, 1);
        assert_eq!(bg.attach(0, Pending::Seal(Vec::new())), 2, "tags count up");
        // A live tag keeps its value and gains the action after the one it
        // already carries: existing first.
        assert_eq!(bg.attach(tag, Pending::Flush(Vec::new())), tag);
        match bg.take(tag) {
            Some(Pending::Multi(actions)) => {
                assert!(matches!(
                    actions.as_slice(),
                    [Pending::Unpin(_), Pending::Flush(_)]
                ));
            }
            other => panic!("expected Multi[Unpin, Flush], got {other:?}"),
        }
        // A tag nothing is attached to (already claimed) just takes the
        // action.
        assert_eq!(bg.attach(tag, Pending::Seal(Vec::new())), tag);
        assert!(matches!(bg.take(tag), Some(Pending::Seal(_))));
        assert!(bg.take(tag).is_none(), "claimed exactly once");
    }
}
