//! Stage 3 — space claim and the atomic admission protocol.
//!
//! Consumes the redirect stage's [`WriteRoute`] and turns the admission
//! ask into effects: clean-LRU eviction (`make_room`, whose freed space
//! the durability engine releases only once the Removes are journaled),
//! extent insertion, and the data-before-metadata journal write (the
//! plan's `then`) that makes admission atomic (DESIGN.md §9). The
//! eager-fetch ablation claims space through the same path.

use s4d_mpiio::{AppRequest, Cluster, Plan, Tier};
use s4d_pfs::{FileId, Priority};
use s4d_sim::OneOrMany;
use s4d_storage::IoKind;

use crate::background::{Fetch, Pending, Written};
use crate::layer::S4dCache;
use crate::pipeline::{RequestCtx, WriteRoute, DECISION_OVERHEAD};
use crate::shard::ShardId;

impl S4dCache {
    /// Algorithm 1, write side, admission half (lines 3–14): claim space
    /// for the gaps of an admitted write, degrade to disk writes
    /// otherwise, and close the plan with the journal write and its one
    /// obligation.
    pub(crate) fn admit_write(
        &mut self,
        cluster: &mut Cluster,
        req: &AppRequest,
        cache: FileId,
        ctx: &RequestCtx,
        route: WriteRoute,
        gaps: &[(u64, u64)],
    ) -> Plan {
        let WriteRoute {
            mut ops,
            mut used_cache,
            gap_total,
            healthy,
        } = route;
        let admit = ctx.critical && gap_total > 0 && healthy && {
            let ok = self.make_room_for(cluster, req.file, gaps);
            if !ok {
                self.metrics.admission_denied_space += 1;
            }
            ok
        };
        for &(g_off, g_len) in gaps {
            if !admit {
                ops.push(self.data_op(
                    Tier::DServers,
                    req.file,
                    IoKind::Write,
                    g_off,
                    g_len,
                    g_off,
                    req,
                ));
                continue;
            }
            // `make_room` guaranteed capacity per shard, so `alloc`
            // should succeed for every admitted segment; degrade the
            // segment to a disk write if not.
            for seg in self.plane.router().segments_iter(req.file, g_off, g_len) {
                let c_file = self.cache_file_for(req.file, seg.shard).unwrap_or(cache);
                if let Some(pieces) = self.plane.alloc(seg.shard, c_file, seg.len) {
                    let mut cursor = seg.offset;
                    for p in pieces {
                        self.plane
                            .insert(req.file, cursor, p.len, c_file, p.c_offset, true);
                        ops.push(self.data_op(
                            Tier::CServers,
                            c_file,
                            IoKind::Write,
                            p.c_offset,
                            p.len,
                            cursor,
                            req,
                        ));
                        cursor += p.len;
                    }
                    used_cache = true;
                } else {
                    ops.push(self.data_op(
                        Tier::DServers,
                        req.file,
                        IoKind::Write,
                        seg.offset,
                        seg.len,
                        seg.offset,
                        req,
                    ));
                }
            }
        }
        if used_cache {
            self.metrics.writes_to_cache += 1;
        } else {
            self.metrics.writes_to_disk += 1;
        }
        // Atomic admission: the journal write describing new mappings runs
        // in `then`, *after* the data writes (data-before-metadata). A
        // crash between the two leaves orphaned cache bytes — swept on
        // recovery — never a mapping to unwritten space.
        let frame = self
            .dur
            .journal_op(cluster, &mut self.plane, &self.config, &mut self.metrics);
        let mut plan = Plan {
            lead_in: DECISION_OVERHEAD,
            ..Plan::single_phase(ops)
        };
        // Once the plan completes, seal the cache extents this write
        // filled: the checksum is computed from the bytes then on CPFS,
        // version-gated against racing overwrites. If the plan *fails*,
        // the journal reservation and the fresh admissions unwind instead
        // (`S4dCache::unwind_failed`).
        let written: OneOrMany<Written> = self
            .plane
            .overlapping(req.file, req.offset, req.len)
            .map(|(d_offset, e)| Written {
                d_offset,
                len: e.len,
                version: e.version,
                fresh: gaps
                    .iter()
                    .any(|&(g_off, g_len)| g_off <= d_offset && d_offset + e.len <= g_off + g_len),
            })
            .collect();
        let journal = frame.map(|(op, frame)| {
            plan.then = OneOrMany::One(op);
            frame
        });
        if !written.is_empty() || journal.is_some() {
            plan.tag = self.bg.attach(Pending::Write {
                orig: req.file,
                written,
                journal,
            });
        }
        plan
    }

    /// Makes room for the admission of `gaps` of `file`, sized per owning
    /// shard: each gap splits into shard segments, and every shard with a
    /// non-zero ask must make room — in shard order, stopping at the
    /// first that cannot — or the whole admission is off. At
    /// `shard_count = 1` this is one `make_room` call for the gap total.
    pub(crate) fn make_room_for(
        &mut self,
        cluster: &mut Cluster,
        file: FileId,
        gaps: &[(u64, u64)],
    ) -> bool {
        let router = self.plane.router();
        for shard in router.all_shards() {
            let ask: u64 = gaps
                .iter()
                .flat_map(|&(g_off, g_len)| router.segments_iter(file, g_off, g_len))
                .filter(|seg| seg.shard == shard)
                .map(|seg| seg.len)
                .sum();
            if ask > 0 && !self.make_room(cluster, shard, ask) {
                return false;
            }
        }
        true
    }

    /// Makes room for `len` more cache bytes on `shard`, evicting its
    /// clean LRU extents if needed (Algorithm 1 lines 4–10). Returns
    /// whether the shard's space now fits the ask. Eviction victims come
    /// only from the owning shard — cross-shard space cannot help,
    /// because the allocation must land in the shard's own cache file.
    pub(crate) fn make_room(&mut self, cluster: &mut Cluster, shard: ShardId, len: u64) -> bool {
        if self.plane.fits(shard, len) {
            return true;
        }
        let needed = len - self.plane.shard_available(shard);
        let bg = &self.bg;
        let mut victims = std::mem::take(&mut self.victims_scratch);
        self.plane
            .evict_clean_lru_excluding(shard, needed, &mut victims, |file, off, elen| {
                bg.overlaps_pin(file, off, elen)
            });
        if victims.is_empty() {
            self.victims_scratch = victims;
            return self.plane.fits(shard, len);
        }
        // `evict_clean_lru_excluding` removed the victims and queued
        // their Remove records; the engine makes those durable before the
        // space is reused or the bytes go away. Dropping the bytes loses
        // nothing: the victims were clean, so DServers hold the data.
        let freed = victims
            .iter()
            .map(|(_, _, ext)| (shard, ext.c_file, ext.c_offset, ext.len));
        let durable = self
            .dur
            .try_free_removed(cluster, &mut self.plane, &mut self.metrics, freed);
        if durable {
            self.metrics.evictions += victims.len() as u64;
            self.metrics.evicted_bytes += victims.iter().map(|(_, _, ext)| ext.len).sum::<u64>();
        } else {
            // The journal is stalled (ENOSPC / media error): undo the
            // eviction — re-insert each victim (the queued Remove plus
            // this Insert replay to a no-op) and deny the admission; the
            // write degrades to OPFS. A victim that stays mapped is
            // written through while the stall lasts (`route_write`), so
            // its cached bytes never go stale behind a Remove that is not
            // durable.
            for (file, d_off, ext) in &victims {
                self.plane
                    .insert(*file, *d_off, ext.len, ext.c_file, ext.c_offset, ext.dirty);
            }
        }
        self.victims_scratch = victims;
        durable && self.plane.fits(shard, len)
    }

    /// Eager-fetch ablation: reserve cache space for the read's missed
    /// gaps and fill it in the plan's `then`, as part of the request
    /// itself. Returns the fetch the read's obligation completes.
    pub(crate) fn plan_eager_fetch(
        &mut self,
        cluster: &mut Cluster,
        req: &AppRequest,
        gaps: &[(u64, u64)],
        plan: &mut Plan,
    ) -> Option<Box<Fetch>> {
        let total: u64 = gaps.iter().map(|&(_, l)| l).sum();
        if total == 0 || !self.make_room_for(cluster, req.file, gaps) {
            self.metrics.admission_denied_space += 1;
            return None;
        }
        let (writes, pieces) = self.reserve_fetch(req.file, gaps, Priority::Normal, |_| {});
        self.metrics.fetches += 1;
        self.metrics.fetched_bytes += total;
        plan.then = writes.into();
        Some(Box::new(Fetch {
            orig: req.file,
            cdt_keys: vec![(req.offset, req.len)],
            pieces,
        }))
    }
}
