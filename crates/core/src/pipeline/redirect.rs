//! Stage 2 — the Redirector (§III.D, Algorithm 1).
//!
//! Consults the DMT and the health monitor to choose a tier for every
//! piece of a request. Writes emit a [`WriteRoute`] for the admit stage;
//! reads are fully decided here (they claim no space except through the
//! eager-fetch ablation, which delegates to admit).

use s4d_mpiio::{AppOffset, AppRequest, Cluster, Plan, PlannedIo, Tier};
use s4d_pfs::{FileId, Priority};
use s4d_sim::{OneOrMany, SimTime};
use s4d_storage::IoKind;

use crate::background::Pending;
use crate::dmt::RangeView;
use crate::layer::S4dCache;
use crate::pipeline::{RequestCtx, WriteRoute, DECISION_OVERHEAD};

impl S4dCache {
    /// Algorithm 1, write side, routing half: re-dirty and route the
    /// mapped pieces, size the admission ask, and take the tier-health
    /// verdict. The admit stage decides the gaps.
    pub(crate) fn route_write(
        &mut self,
        now: SimTime,
        req: &AppRequest,
        ctx: &RequestCtx,
        view: &RangeView,
    ) -> WriteRoute {
        let mut ops = OneOrMany::new();
        let mut used_cache = false;

        // While the journal is stalled no new record can be made durable
        // before this write's ack, so the plan must not create any
        // (journal-before-ack): fresh admissions degrade to OPFS below,
        // and clean mapped pieces are written *through* — both copies
        // updated, the extent stays clean — instead of re-dirtied. Dirty
        // pieces are unaffected: their durable state already says dirty,
        // and overwriting dirty bytes needs no new record.
        let stalled = self.dur.is_stalled();

        // Mapped parts: the request is already served by CServers (line 22).
        for piece in &view.pieces {
            if stalled && !piece.dirty {
                self.plane.unseal(req.file, piece.d_offset, piece.len);
                ops.push(self.data_op(
                    Tier::CServers,
                    piece.c_file,
                    IoKind::Write,
                    piece.c_offset,
                    piece.len,
                    piece.d_offset,
                    req,
                ));
                ops.push(self.data_op(
                    Tier::DServers,
                    req.file,
                    IoKind::Write,
                    piece.d_offset,
                    piece.len,
                    piece.d_offset,
                    req,
                ));
                self.metrics.stall_writethroughs += 1;
                used_cache = true;
                continue;
            }
            self.plane.mark_dirty(req.file, piece.d_offset, piece.len);
            ops.push(self.data_op(
                Tier::CServers,
                piece.c_file,
                IoKind::Write,
                piece.c_offset,
                piece.len,
                piece.d_offset,
                req,
            ));
            used_cache = true;
        }

        // Unmapped parts: admission requires the whole tier healthy. New
        // admissions stripe over every CServer, so one quarantined server
        // pauses admission entirely — consistency over throughput while
        // the tier is suspect.
        let gap_total: u64 = view.gaps.iter().map(|&(_, l)| l).sum();
        let mut healthy = !self.health.any_unhealthy(now);
        if ctx.critical && gap_total > 0 && !healthy {
            self.metrics.admission_denied_health += 1;
        }
        if stalled {
            // An admission's Insert record could not be made durable
            // before the ack; the gaps go straight to OPFS instead.
            if ctx.critical && gap_total > 0 && healthy {
                self.metrics.admission_denied_stall += 1;
            }
            healthy = false;
        }
        WriteRoute {
            ops,
            used_cache,
            gap_total,
            healthy,
        }
    }

    /// Algorithm 1, read side (with the lazy `C_flag` marking of §III.E).
    pub(crate) fn plan_read(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        req: &AppRequest,
        ctx: &RequestCtx,
    ) -> Plan {
        if ctx.cache.is_none() {
            // Not opened through the middleware: route straight to disk.
            return self.direct_plan(req);
        }
        if self.config.verify_on_read {
            // Verify the seals of every cached extent in range before
            // routing: corrupt clean bytes are repaired from DServers
            // first, and unrecoverable dirty corruption is dropped (the
            // read then serves the last flushed version from DServers
            // instead of silently returning bad bytes).
            self.verify_range(cluster, req.file, req.offset, req.len);
        }
        let mut ops = OneOrMany::new();
        let mut view = std::mem::take(&mut self.view_scratch);
        self.plane
            .view_into(req.file, req.offset, req.len, &mut view);
        self.plane.touch_range(req.file, req.offset, req.len);
        // Graceful degradation: a *clean* cached piece striped over a
        // quarantined CServer is served from OPFS instead (same bytes,
        // none of the risk). Dirty pieces have no other copy — they keep
        // routing to the cache, and the runner's retry/replan machinery
        // rides out the outage.
        let mut pins = OneOrMany::new();
        for piece in &view.pieces {
            if !piece.dirty && self.cache_range_unhealthy(cluster, now, piece.c_offset, piece.len) {
                self.metrics.fallback_reads += 1;
                self.metrics.fallback_bytes += piece.len;
                ops.push(self.data_op(
                    Tier::DServers,
                    req.file,
                    IoKind::Read,
                    piece.d_offset,
                    piece.len,
                    piece.d_offset,
                    req,
                ));
                continue;
            }
            pins.push((req.file, piece.d_offset, piece.len));
            ops.push(self.data_op(
                Tier::CServers,
                piece.c_file,
                IoKind::Read,
                piece.c_offset,
                piece.len,
                piece.d_offset,
                req,
            ));
        }
        for &(g_off, g_len) in &view.gaps {
            ops.push(self.data_op(
                Tier::DServers,
                req.file,
                IoKind::Read,
                g_off,
                g_len,
                g_off,
                req,
            ));
        }
        let mut plan = Plan {
            lead_in: DECISION_OVERHEAD,
            ..Plan::single_phase(ops)
        };
        // Pin the cached pieces this read references until the plan
        // completes, so eviction — the eager fetch's below included —
        // cannot free space under a queued sub-request. (Fallback pieces
        // read OPFS and need no pin.)
        self.bg.pin_all(&pins);
        let fetch = if view.fully_covered() {
            self.metrics.read_full_hits += 1;
            None
        } else {
            if view.fully_missed() {
                self.metrics.read_misses += 1;
            } else {
                self.metrics.read_partial_hits += 1;
            }
            // No new cache fills while any CServer is quarantined: fetches
            // stripe over the whole tier, so they would land on the sick
            // server too.
            if !ctx.critical || self.health.any_unhealthy(now) {
                None
            } else if self.config.eager_read_fetch {
                self.plan_eager_fetch(cluster, req, &view.gaps, &mut plan)
            } else {
                // Lazy caching: mark for the Rebuilder (line 18).
                if self.plane.cdt_set_c_flag(req.file, req.offset, req.len) {
                    self.metrics.lazy_marks += 1;
                }
                None
            }
        };
        if !pins.is_empty() || fetch.is_some() {
            plan.tag = self.bg.attach(Pending::Read { pins, fetch });
        }
        // Reads plan no durable effects: a journal frame riding a read
        // plan would make the read's success hinge on a metadata write
        // (and fail reads under space exhaustion for no data reason).
        // Any records a read's bookkeeping produced wait for the next
        // write plan or the background straggler drain.
        self.dur.collect_pending_records(&mut self.plane);
        self.view_scratch = view;
        plan
    }

    /// Builds a data op for one piece of an application request, slicing
    /// the request payload to the piece (functional mode).
    #[expect(clippy::too_many_arguments, reason = "an op's coordinates, both tiers")]
    pub(crate) fn data_op(
        &self,
        tier: Tier,
        file: FileId,
        kind: IoKind,
        offset: u64,
        len: u64,
        app_offset: u64,
        req: &AppRequest,
    ) -> PlannedIo {
        let data = match (kind, &req.data) {
            (IoKind::Write, Some(full)) => {
                let at = (app_offset - req.offset) as usize;
                // None (short payload) degrades to a sizing-only op.
                full.get(at..at + len as usize).map(Box::from)
            }
            _ => None,
        };
        PlannedIo {
            tier,
            file,
            kind,
            offset,
            len,
            priority: Priority::Normal,
            data,
            app_offset: AppOffset::new(app_offset),
        }
    }

    /// A pass-through plan routing the request straight to DServers —
    /// the fallback when the file has no cache mapping (never opened
    /// through the middleware).
    pub(crate) fn direct_plan(&mut self, req: &AppRequest) -> Plan {
        match req.kind {
            IoKind::Write => self.metrics.writes_to_disk += 1,
            IoKind::Read => self.metrics.read_misses += 1,
        }
        Plan {
            lead_in: DECISION_OVERHEAD,
            ..Plan::single_phase(PlannedIo::from(req))
        }
    }

    /// True if any CServer holding part of the cache range
    /// `[c_offset, c_offset + len)` is quarantined at `now`.
    pub(crate) fn cache_range_unhealthy(
        &self,
        cluster: &Cluster,
        now: SimTime,
        c_offset: u64,
        len: u64,
    ) -> bool {
        if len == 0 || !self.health.any_unhealthy(now) {
            return false;
        }
        let mut touched = cluster.cpfs().layout().servers_touched(c_offset, len);
        touched.any(|server| self.health.is_unhealthy(server, now))
    }
}
