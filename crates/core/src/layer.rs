//! The S4D-Cache middleware facade: component wiring and the
//! [`s4d_mpiio::Middleware`] driver.
//!
//! [`S4dCache`] is deliberately thin. The work lives in the components it
//! composes — the staged request pipeline ([`crate::pipeline`]), the
//! durability engine ([`crate::durability`]), the background scheduler
//! ([`crate::background`]), and the fault handlers ([`crate::faults`]) —
//! and the trait impl below only sequences their stages. See DESIGN.md
//! §12 for the component map.

use std::cell::RefCell;
use std::rc::Rc;

use s4d_cost::{BenefitEvaluator, CostParams};
use s4d_mpiio::{
    AppRequest, BackgroundPoll, Cluster, DurabilityCounts, ErrorDirective, Middleware,
    MiddlewareError, Plan, Rank, SubIoFailure, Tier,
};
use s4d_pfs::FileId;
use s4d_sim::{IdMap, SimDuration, SimTime};
use s4d_storage::IoKind;

use crate::background::BackgroundScheduler;
use crate::config::S4dConfig;
use crate::dmt::{MapExtent, RangeView};
use crate::durability::crash::CrashFuse;
use crate::durability::recovery::RecoveryReport;
use crate::durability::DurabilityEngine;
use crate::health::HealthMonitor;
use crate::metrics::S4dMetrics;
use crate::shard::{MetadataPlane, ShardId, ShardRouter};

/// The Smart Selective SSD Cache middleware (the paper's Fig. 3).
///
/// See the crate-level documentation for the component mapping; the
/// [`s4d_mpiio::Middleware`] implementation below is the integration point
/// the paper realises by modifying the `MPI_File_*` entry points (§IV.B).
#[derive(Debug)]
pub struct S4dCache {
    pub(crate) config: S4dConfig,
    pub(crate) evaluator: BenefitEvaluator<(u32, u64)>,
    /// The sharded metadata plane: DMT, CDT, and space accounting,
    /// partitioned into `config.shard_count` deterministic shards.
    pub(crate) plane: MetadataPlane,
    /// Original file → its per-shard cache files in CPFS (index = shard).
    pub(crate) cache_file_of: IdMap<FileId, Vec<FileId>>,
    /// Per-CServer health: failure counts, quarantine, backoff.
    pub(crate) health: HealthMonitor,
    pub(crate) metrics: S4dMetrics,
    /// Journal, checkpoint slots, crash fuse — everything durable.
    pub(crate) dur: DurabilityEngine,
    /// Pending state machine, in-flight markers, pins, the scrub cursor.
    pub(crate) bg: BackgroundScheduler,
    /// Scratch coverage view for the request path (DESIGN.md §12): a
    /// stage `mem::take`s it, fills it with `MetadataPlane::view_into`
    /// (which clears it first), and stores it back when done, so its
    /// vectors keep their capacity from request to request. It carries no
    /// state between uses and is never borrowed across a `Middleware`
    /// call.
    pub(crate) view_scratch: RangeView,
    /// Scratch eviction victims for `make_room`, kept the same way: taken,
    /// filled by `MetadataPlane::evict_clean_lru_excluding` (which clears
    /// it first), and stored back.
    pub(crate) victims_scratch: Vec<(FileId, u64, MapExtent)>,
}

impl S4dCache {
    /// Creates the middleware from a configuration and the cost-model
    /// parameters (derive the latter from the same device presets the
    /// cluster uses — see [`s4d_cost::CostParams::from_hardware`]).
    pub fn new(config: S4dConfig, params: CostParams) -> Self {
        let router = ShardRouter::new(config.shard_count, config.shard_stripe);
        let plane = MetadataPlane::new(router, config.cache_capacity, config.cdt_max_entries);
        S4dCache {
            config,
            evaluator: BenefitEvaluator::new(params),
            plane,
            cache_file_of: IdMap::default(),
            health: HealthMonitor::default(),
            metrics: S4dMetrics::default(),
            dur: DurabilityEngine::new(router),
            bg: BackgroundScheduler::new(),
            view_scratch: RangeView::default(),
            victims_scratch: Vec::new(),
        }
    }

    /// Attaches the crash fuse used by the crash-point torture harness.
    /// Every durable effect (journal appends, checkpoint installs,
    /// eviction discards, flush/fetch copies) asks the fuse for
    /// permission, and the harness arms it to truncate one of them
    /// mid-write.
    pub fn attach_crash_fuse(&mut self, fuse: Rc<RefCell<CrashFuse>>) {
        self.dur.attach_crash_fuse(fuse);
    }

    /// True once an attached crash fuse has fired. A dead instance keeps
    /// its in-memory bookkeeping consistent but persists nothing further;
    /// the harness discards it and recovers from the cluster.
    pub fn fuse_dead(&self) -> bool {
        self.dur.fuse_dead()
    }

    /// The report of the recovery that built this instance, if any.
    pub fn last_recovery(&self) -> Option<&RecoveryReport> {
        self.dur.last_recovery()
    }

    /// The middleware's counters.
    pub fn metrics(&self) -> &S4dMetrics {
        &self.metrics
    }

    /// The sharded metadata plane: per-shard DMT/CDT/space behind routed
    /// aggregates that hold at any shard count — the only read view of
    /// the mapping, so no caller can see shard 0 alone.
    pub fn plane(&self) -> &MetadataPlane {
        &self.plane
    }

    /// The configuration.
    pub fn config(&self) -> &S4dConfig {
        &self.config
    }

    /// The CServer health monitor (read-only view).
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    pub(crate) fn ensure_health(&mut self, cluster: &Cluster) {
        self.health.ensure_servers(cluster.cpfs().server_count());
    }

    /// The cache file backing `shard`'s slice of `orig`'s cached bytes
    /// (shard 0's file is the legacy `{name}.cache`).
    pub(crate) fn cache_file_for(&self, orig: FileId, shard: ShardId) -> Option<FileId> {
        let files = self.cache_file_of.get(&orig)?;
        files.get(shard.index()).or_else(|| files.first()).copied()
    }
}

impl Middleware for S4dCache {
    fn open(
        &mut self,
        cluster: &mut Cluster,
        _rank: Rank,
        name: &str,
    ) -> Result<FileId, MiddlewareError> {
        self.ensure_health(cluster);
        self.dur.ensure_journal(cluster);
        let orig = cluster.opfs_mut().create_or_open(name);
        // The paper opens a correlating cache file alongside each original
        // file (MPI_File_open, §IV.B). With shards, each shard gets its
        // own cache file so space accounting and orphan sweeping stay
        // shard-local; shard 0 keeps the legacy name so the single-shard
        // layout is byte-identical.
        let cache_name = format!("{name}.cache");
        let cache = cluster.cpfs_mut().create_or_open(&cache_name);
        let mut files = vec![cache];
        for k in 1..self.plane.shard_count() {
            let shard_name = format!("{name}.s{k}.cache");
            files.push(cluster.cpfs_mut().create_or_open(&shard_name));
        }
        self.cache_file_of.insert(orig, files);
        Ok(orig)
    }

    fn plan_io(&mut self, cluster: &mut Cluster, now: SimTime, req: &AppRequest) -> Plan {
        self.ensure_health(cluster);
        // One synchronous retry of a stalled journal before planning: a
        // stall often outlives its fault window (the background retry only
        // runs so often), and while stalled every write plans in degraded
        // mode (see `route_write`) because no new record can be made
        // durable before the ack.
        self.dur
            .retry_stall(cluster, &mut self.plane, &mut self.metrics);
        // Stage 1: classify (Data Identifier).
        let ctx = self.identify(req);
        // Stages 2–3: route (Redirector), then claim space and close the
        // decision (admission). Reads claim no space — outside the
        // eager-fetch ablation — and are fully decided by the redirect stage.
        let mut plan = match (req.kind, ctx.cache) {
            (_, None) => self.direct_plan(req),
            (IoKind::Write, Some(cache)) => {
                let mut view = std::mem::take(&mut self.view_scratch);
                self.plane
                    .view_into(req.file, req.offset, req.len, &mut view);
                let route = self.route_write(now, req, &ctx, &view);
                let plan = self.admit_write(cluster, req, cache, &ctx, route, &view.gaps);
                self.view_scratch = view;
                plan
            }
            (IoKind::Read, Some(_)) => self.plan_read(cluster, now, req, &ctx),
        };
        // Price the straggler budget off the same cost-model prediction
        // that classified the request (no-op while deadlines are off).
        self.apply_deadline(&mut plan, &ctx);
        // Journal-before-ack audit: every DMT mutation this operation made
        // is in the journaling pipeline before the plan is handed back.
        debug_assert_eq!(
            self.plane.pending_records(),
            0,
            "plan_io returned with uncollected journal records"
        );
        plan
    }

    fn close(
        &mut self,
        _cluster: &mut Cluster,
        _rank: Rank,
        _file: FileId,
    ) -> Result<(), MiddlewareError> {
        // Cached data outlives the open (that is the point of the second-run
        // read experiments); nothing to tear down per close.
        Ok(())
    }

    fn on_plan_complete(&mut self, cluster: &mut Cluster, _now: SimTime, tag: u64) {
        let action = self.bg.take(tag);
        self.apply_pending(cluster, action);
        // Journal-before-ack audit: completion-side mutations (SetClean,
        // fetch Inserts, Seals) enter the journaling pipeline before the
        // runner regains control.
        self.dur.collect_pending_records(&mut self.plane);
        debug_assert_eq!(
            self.plane.pending_records(),
            0,
            "on_plan_complete returned with uncollected journal records"
        );
    }

    fn on_io_error(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        failure: &SubIoFailure,
    ) -> ErrorDirective {
        self.error_directive(cluster, now, failure)
    }

    fn on_io_complete(
        &mut self,
        tier: Tier,
        server: usize,
        _kind: IoKind,
        _len: u64,
        _latency: SimDuration,
    ) {
        // A completed CServer op ends probation, re-arms crash handling
        // and resets the backoff ladder.
        if tier == Tier::CServers {
            self.health.record_success(server);
        }
    }

    fn on_deadline(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        ctx: &s4d_mpiio::StragglerCtx,
    ) -> s4d_mpiio::HedgeDirective {
        self.deadline_directive(cluster, now, ctx)
    }

    fn on_plan_failed(&mut self, cluster: &mut Cluster, _now: SimTime, tag: u64) {
        let action = self.bg.take(tag);
        self.unwind_failed(cluster, action);
    }

    fn durability(&self) -> Option<DurabilityCounts> {
        let recovery = self.dur.last_recovery();
        Some(DurabilityCounts {
            journal_writes: self.metrics.journal_writes,
            journal_bytes: self.metrics.journal_bytes,
            checkpoints: self.metrics.checkpoints,
            checkpoint_bytes: self.metrics.checkpoint_bytes,
            records_compacted: self.metrics.records_compacted,
            recovery_records_replayed: recovery.map_or(0, |r| r.records_replayed()),
            recovery_dropped_bytes: recovery.map_or(0, |r| r.dropped_journal_bytes),
        })
    }

    fn poll_background(&mut self, cluster: &mut Cluster, now: SimTime) -> BackgroundPoll {
        self.background_poll(cluster, now)
    }

    fn name(&self) -> &str {
        "s4d"
    }
}
