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
use s4d_sim::{IdSet, OneOrMany, SimTime, Slab};

use crate::durability::Frame;
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

/// Fetch of the gaps of a run of adjacent flagged CDT entries, or of a
/// read's missed gaps under the eager-fetch ablation.
#[derive(Debug)]
pub(crate) struct Fetch {
    pub(crate) orig: FileId,
    /// The `(offset, len)` CDT keys whose `C_flag` this fetch clears.
    pub(crate) cdt_keys: OneOrMany<(u64, u64)>,
    /// The cache pieces reserved for the data.
    pub(crate) pieces: Vec<FetchPiece>,
}

/// One extent overlapping a foreground write's range once the write was
/// admitted, captured at plan time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Written {
    pub(crate) d_offset: u64,
    pub(crate) len: u64,
    /// The version to seal: a later write bumps it, and the seal skips.
    pub(crate) version: u64,
    /// The extent lies inside one of the request's gaps. The gaps were
    /// unmapped when the request was routed, so this write's admission
    /// inserted it.
    pub(crate) fresh: bool,
}

/// The one completion obligation a plan registers. Not `Clone`, and
/// consumed by value everywhere: an obligation is attached to exactly one
/// plan tag ([`BackgroundScheduler::attach`]) and claimed exactly once.
#[derive(Debug)]
#[must_use = "a Pending that is not attached to a plan tag is a leaked obligation"]
pub(crate) enum Pending {
    /// A foreground read: release its eviction pins, and complete the
    /// eager fetch whose cache writes ride the plan's `then`, if any.
    /// The fetch is boxed: only the eager-fetch ablation plans one, and
    /// every in-flight obligation is as large as the largest variant.
    Read {
        pins: OneOrMany<(FileId, u64, u64)>,
        fetch: Option<Box<Fetch>>,
    },
    /// A foreground write. On completion every extent in `written` is
    /// sealed (version-gated). On failure the journal frame rolls back
    /// first, then the fresh extents unwind: their data writes may never
    /// have landed, and the Rebuilder must not flush unwritten cache
    /// space over good DServer data.
    Write {
        orig: FileId,
        /// The extents overlapping the request, in `d_offset` order.
        written: OneOrMany<Written>,
        /// The journal frame riding the plan's `then`, if a group-commit
        /// batch came due.
        journal: Option<Frame>,
    },
    /// Flush of a run of file-contiguous dirty extents back to DServers.
    /// Grouping adjacent extents turns many small cache writes into one
    /// large sequential DServer write — the data *reorganisation* of
    /// §III.F, and a large part of why buffering random writes pays off.
    Flush(OneOrMany<FlushItem>),
    /// A Rebuilder fetch.
    Fetch(Fetch),
    /// The background straggler drain's journal frame. Completion is a
    /// no-op (the frame landed); on failure the reservation rolls back
    /// and the records requeue, or the journal gets a hole that
    /// truncates every later acked record at recovery.
    Journal(Frame),
}

/// Owns every deferred-work obligation of the middleware: the pending
/// state machine keyed by plan tag, the flush/fetch in-flight markers,
/// the eviction pins of in-flight reads, and the scrubber's cursor.
#[derive(Debug)]
pub(crate) struct BackgroundScheduler {
    /// Actions to apply when the tagged plan completes; the slab's key
    /// is the plan's tag. The slab never mints 0, which means "no
    /// callback", and a claimed tag is retired.
    pending: Slab<u64, Pending>,
    /// `(file, d_offset)` of dirty extents a flush plan is moving.
    inflight_flush: IdSet<(FileId, u64)>,
    /// `(file, offset, len)` CDT keys a fetch plan is filling.
    inflight_fetch: IdSet<(FileId, u64, u64)>,
    /// Ranges referenced by in-flight foreground reads; eviction must not
    /// discard them (a queued sub-request would read freed space).
    pins: Vec<(FileId, u64, u64)>,
    /// The scrub resume position: the last `(file, d_offset)` verified.
    scrub_cursor: Option<(FileId, u64)>,
    /// False once a seal's read-back found the CServer tier holding no
    /// bytes (a timing-mode store). A cluster's store mode is fixed when
    /// it is built, so from then on no seal can ever be computed and
    /// completions skip sealing before any lookup.
    cserver_bytes: bool,
}

impl BackgroundScheduler {
    /// A fresh scheduler with nothing pending and the scrub cursor at the
    /// start.
    pub(crate) fn new() -> Self {
        BackgroundScheduler {
            pending: Slab::new(),
            inflight_flush: IdSet::default(),
            inflight_fetch: IdSet::default(),
            pins: Vec::new(),
            scrub_cursor: None,
            cserver_bytes: true,
        }
    }

    /// Registers a plan's completion obligation under a fresh tag (never
    /// 0, which means "no callback") and returns the tag.
    #[must_use = "the tag must ride the plan, or the action never runs"]
    pub(crate) fn attach(&mut self, action: Pending) -> u64 {
        self.pending.insert(action)
    }

    /// Claims the action registered under `tag`, if any.
    pub(crate) fn take(&mut self, tag: u64) -> Option<Pending> {
        self.pending.remove(tag)
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

    fn release_pins(&mut self, ranges: OneOrMany<(FileId, u64, u64)>) {
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
            Some(Pending::Read { pins, fetch }) => {
                self.release_pins(pins);
                if let Some(fetch) = fetch {
                    self.abandon_fetch(plane, *fetch);
                }
            }
            Some(Pending::Flush(items)) => {
                for item in items {
                    self.inflight_flush.remove(&(item.orig, item.d_offset));
                }
            }
            Some(Pending::Fetch(fetch)) => self.abandon_fetch(plane, fetch),
            // These need DMT/durability access and are handled by
            // `S4dCache::unwind_failed` before it delegates here.
            Some(Pending::Write { .. }) | Some(Pending::Journal(_)) | None => {}
        }
    }

    fn abandon_fetch(&mut self, plane: &mut MetadataPlane, fetch: Fetch) {
        let Fetch {
            orig,
            cdt_keys,
            pieces,
        } = fetch;
        for (d_off, len, c_file, c_off) in pieces {
            // The reservation came from the shard owning the piece's
            // original-file offset; return it there.
            let shard = plane.router().shard_of(orig, d_off);
            plane.release(shard, c_file, c_off, len);
        }
        for (o, l) in cdt_keys {
            self.inflight_fetch.remove(&(orig, o, l));
        }
    }

    /// True while any registered action represents outstanding work. A
    /// write's seals are advisory bookkeeping (checksums attach on
    /// completion) and its frame, like the drain's, matters only on
    /// failure: neither may keep the drain loop spinning.
    fn any_blocking(&self) -> bool {
        let idle = |p: &Pending| matches!(p, Pending::Write { .. } | Pending::Journal(_));
        self.pending.values().any(|p| !idle(p))
    }
}

impl S4dCache {
    /// Unwinds the side effects of a failed plan. The simple
    /// runner-visible state (pins, in-flight markers, fetch
    /// reservations) delegates to [`BackgroundScheduler::abandon`]. A
    /// journal frame's append reservation rewinds and its records
    /// requeue, keeping the journal hole-free. A [`Pending::Write`] rolls
    /// its frame back *first*: unwinding its fresh extents appends their
    /// `Remove` records synchronously, and those must land at the
    /// rolled-back offset, not past the failed frame's hole.
    pub(crate) fn unwind_failed(&mut self, cluster: &mut Cluster, action: Option<Pending>) {
        match action {
            Some(Pending::Write {
                orig,
                written,
                journal,
            }) => {
                if let Some(frame) = journal {
                    self.dur.unplan_journal(frame, &mut self.metrics);
                }
                self.unwind_fresh(cluster, orig, written);
            }
            Some(Pending::Journal(frame)) => self.dur.unplan_journal(frame, &mut self.metrics),
            other => self.bg.abandon(&mut self.plane, other),
        }
    }

    /// Removes the fresh extents of a failed write, whose data writes may
    /// never have landed: left mapped, the Rebuilder would flush unwritten
    /// cache space over good DServer data. The space goes to
    /// [`crate::durability::DurabilityEngine::free_removed`], and recovery
    /// replays insert-then-remove to the same table.
    fn unwind_fresh(&mut self, cluster: &mut Cluster, orig: FileId, written: OneOrMany<Written>) {
        let mut freed = Vec::new();
        for w in written.into_iter().filter(|w| w.fresh) {
            // Only the extent this plan inserted: same start, same
            // length, still dirty (nothing acked it since).
            let matches = self
                .plane
                .get(orig, w.d_offset)
                .is_some_and(|e| e.len == w.len && e.dirty);
            if !matches {
                continue;
            }
            let shard = self.plane.router().shard_of(orig, w.d_offset);
            if let Some(e) = self.plane.remove(orig, w.d_offset) {
                freed.push((shard, e.c_file, e.c_offset, e.len));
                self.metrics.admission_unwinds += 1;
            }
        }
        self.dur
            .free_removed(cluster, &mut self.plane, &mut self.metrics, freed);
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
        if let Some((op, frame)) = self.dur.drain_journal(
            cluster,
            &mut self.plane,
            &mut self.metrics,
            Priority::Background,
        ) {
            let mut plan = Plan::single_phase(op);
            // Tag the frame so a failed drain rolls its reservation back
            // instead of leaving a hole in the journal.
            plan.tag = self.bg.attach(Pending::Journal(frame));
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
    fn attach_mints_a_fresh_tag_and_take_claims_it_once() {
        let mut bg = BackgroundScheduler::new();
        let read = Pending::Read {
            pins: OneOrMany::One((FileId(1), 0, 8)),
            fetch: None,
        };
        // Tag 0 means "no callback": no obligation is attached under it.
        let tag = bg.attach(read);
        let flush = bg.attach(Pending::Flush(OneOrMany::new()));
        assert!(tag != 0 && flush != 0 && tag != flush);
        match bg.take(tag) {
            Some(Pending::Read { pins, fetch: None }) => {
                assert_eq!(*pins, [(FileId(1), 0, 8)]);
            }
            other => panic!("expected the Read obligation, got {other:?}"),
        }
        assert!(bg.take(tag).is_none(), "claimed exactly once");
        let reused = bg.attach(Pending::Flush(OneOrMany::new()));
        assert_ne!(reused, tag, "a claimed tag is retired");
        assert!(
            bg.take(tag).is_none(),
            "the retired tag misses the new tenant"
        );
        assert!(matches!(bg.take(flush), Some(Pending::Flush(_))));
        assert!(bg.take(0).is_none(), "tag 0 carries nothing");
    }

    /// The obligation table's slot: a saturated CServer tier keeps tens
    /// of thousands of flushes in flight, each holding one obligation.
    #[test]
    fn an_obligation_slot_is_at_most_72_bytes() {
        let size = Slab::<u64, Pending>::SLOT_BYTES;
        assert!(size <= 72, "an obligation slot is {size} B");
    }
}
