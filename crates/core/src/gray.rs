//! Gray-failure handling: deadline budgets and the straggler verdict
//! (DESIGN.md §13).
//!
//! Crashes are loud; *fail-slow* servers are not. A CServer that still
//! answers — just ten times slower than the cost model promises — never
//! trips the error path, yet it drags every request striped over it. The
//! machinery here notices (deadline budgets derived from the cost model)
//! and reacts without ever waiting on the straggler when a second copy
//! of the bytes exists:
//!
//! * [`S4dCache::apply_deadline`] prices each foreground plan with the
//!   model's own prediction — a sub-request that outlives
//!   `factor × max(T_D, T_C)` is a straggler;
//! * [`S4dCache::deadline_directive`] answers the runner's
//!   `on_deadline`: hedge clean cached reads to OPFS (same bytes, no
//!   risk), abandon and re-plan writes, wait on dirty reads (the cache
//!   holds the only copy — nothing else can produce the bytes).
//!
//! Abandoned writes are safe to re-plan: the DMT mapping survives the
//! abandonment, so the re-planned write lands on the same cache offsets
//! with the same payload — a late-applying original is byte-identical,
//! never half-applied (§9's journal-before-ack covers the metadata side).

use s4d_mpiio::{Cluster, HedgeDirective, Plan, PlannedIo, StragglerCtx, Tier};
use s4d_sim::{SimDuration, SimTime};
use s4d_storage::IoKind;

use crate::layer::S4dCache;
use crate::pipeline::RequestCtx;

/// Floor on the deadline budget, so tiny requests (whose predicted time
/// is microseconds) are not declared stragglers by scheduling noise.
const DEADLINE_FLOOR: SimDuration = SimDuration::from_millis(2);

impl S4dCache {
    /// Prices the plan's deadline budget from the cost model's predicted
    /// access time: `factor × max(T_D, T_C)`, floored at
    /// [`DEADLINE_FLOOR`]. No-op while deadlines are disabled (the
    /// default), so deadline-blind runs execute exactly as before.
    pub(crate) fn apply_deadline(&self, plan: &mut Plan, ctx: &RequestCtx) {
        if self.config.deadline_factor <= 0.0 {
            return;
        }
        let priced = ctx.predicted_secs * self.config.deadline_factor;
        let budget = if priced.is_finite() && priced > 0.0 {
            SimDuration::from_secs_f64(priced).max(DEADLINE_FLOOR)
        } else {
            DEADLINE_FLOOR
        };
        plan.deadline = Some(budget);
    }

    /// The `Middleware::on_deadline` decision body.
    ///
    /// Every CServer straggler is a health demerit first — deadline
    /// misses feed the same quarantine ladder as hard errors, so a
    /// fail-slow server is eventually routed around even if no request
    /// ever errors. Then, by traffic class:
    ///
    /// * clean cached **reads**: abandon the straggler and read the same
    ///   bytes from OPFS — first responder wins;
    /// * **writes**: abandon and re-plan; with the server now demerited,
    ///   fresh admissions divert to OPFS while re-dirty writes ride the
    ///   replan backoff until the server answers or is quarantined;
    /// * dirty reads and overhead traffic: wait — the cache holds the
    ///   only copy, and no directive can manufacture the bytes.
    pub(crate) fn deadline_directive(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        ctx: &StragglerCtx,
    ) -> HedgeDirective {
        if ctx.tier == Tier::DServers {
            // OPFS is the durability root; there is no second copy of
            // unflushed data to hedge against. Ride it out.
            self.metrics.straggler_waits += 1;
            return HedgeDirective::Wait;
        }
        self.ensure_health(cluster);
        // A miss is fail-slow evidence, whatever we decide below.
        if self.health.record_failure(
            ctx.server,
            now,
            self.config.quarantine_after,
            self.config.quarantine_duration,
        ) {
            self.metrics.quarantines += 1;
        }
        match ctx.kind {
            IoKind::Read => self.hedge_read_directive(ctx),
            IoKind::Write => {
                if ctx.app_segments.is_empty() {
                    // Overhead traffic (journal appends): a re-plan could
                    // not reproduce the batched records. Wait it out.
                    self.metrics.straggler_waits += 1;
                    HedgeDirective::Wait
                } else {
                    self.metrics.straggler_abandons += 1;
                    HedgeDirective::Abandon
                }
            }
        }
    }

    /// Hedge a straggling cached read to OPFS when every cached byte it
    /// covers is clean (OPFS then holds identical bytes); otherwise wait.
    fn hedge_read_directive(&mut self, ctx: &StragglerCtx) -> HedgeDirective {
        let Some(app_file) = ctx.app_file else {
            // Background fetch: nothing is waiting on it, and the plan
            // will be rebuilt by a later poll if it fails. Wait.
            self.metrics.straggler_waits += 1;
            return HedgeDirective::Wait;
        };
        if ctx.app_segments.is_empty() {
            self.metrics.straggler_waits += 1;
            return HedgeDirective::Wait;
        }
        for &(off, len) in &ctx.app_segments {
            if self
                .plane
                .overlapping(app_file, off, len)
                .any(|(_, e)| e.dirty)
            {
                // The straggler holds the only copy of dirty bytes:
                // hedging to OPFS would serve stale data.
                self.metrics.straggler_waits += 1;
                return HedgeDirective::Wait;
            }
        }
        self.metrics.hedged_reads += 1;
        let ops = ctx
            .app_segments
            .iter()
            .map(|&(off, len)| {
                PlannedIo::data_op(Tier::DServers, app_file, IoKind::Read, off, len, off)
            })
            .collect();
        HedgeDirective::Hedge { ops }
    }
}
