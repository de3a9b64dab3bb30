//! Client-side memory caching layered over any middleware.
//!
//! The paper positions SSD caching as "a complement of memory cache ...
//! The integration of memory cache and S4D-Cache will be an interesting
//! topic for future study" (§II.B). This module implements that
//! integration as a middleware *combinator*: [`MemCache`] wraps any
//! [`Middleware`] (stock or S4D-Cache) with a bounded per-process RAM
//! cache of recently accessed ranges, the way MPI-IO client-side caching
//! (the paper's refs \[8\], \[20\]) sits above the file system.
//!
//! Semantics:
//!
//! * writes are **write-through**: the inner middleware plans them as
//!   usual, and the written range becomes resident in the writing
//!   process's cache;
//! * reads fully resident in the issuing process's cache complete in RAM
//!   (a microsecond-scale [`Plan::lead_in`], no server I/O); any gap
//!   delegates the whole request to the inner middleware and then becomes
//!   resident;
//! * coherence: a write by any process invalidates the range in every
//!   *other* process's cache (single-writer MPI-IO semantics, as in
//!   collective caching).
//!
//! The combinator operates at the timing level: in functional
//! (byte-accurate) runs, RAM-served reads return no payload, so integrity
//! tests should run without it.

use std::collections::{HashMap, VecDeque};

use s4d_mpiio::{AppRequest, BackgroundPoll, Cluster, Middleware, MiddlewareError, Plan, Rank};
use s4d_pfs::FileId;
use s4d_sim::{SimDuration, SimTime};
use s4d_storage::{ExtentStore, IoKind, StoreMode};
use serde::{Deserialize, Serialize};

/// Simulated cost of serving a read from the client-side RAM cache.
const RAM_LATENCY: SimDuration = SimDuration::from_micros(5);

/// Counters for the memory-cache layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemCacheMetrics {
    /// Reads served entirely from process-local RAM.
    pub ram_hits: u64,
    /// Reads delegated to the inner middleware.
    pub delegated_reads: u64,
    /// Writes passed through (always).
    pub writes: u64,
    /// Ranges invalidated in other processes' caches.
    pub invalidations: u64,
    /// Bytes evicted by the per-process capacity bound.
    pub evicted_bytes: u64,
}

/// One process's resident set: coverage per file plus an eviction queue.
#[derive(Debug, Default)]
struct RankCache {
    files: HashMap<FileId, ExtentStore>,
    /// Insertion-ordered ranges for FIFO eviction (ranges may overlap;
    /// eviction discards whatever of them is still resident).
    queue: VecDeque<(FileId, u64, u64)>,
}

impl RankCache {
    fn resident_bytes(&self) -> u64 {
        self.files.values().map(|s| s.written_bytes()).sum()
    }

    fn covers(&self, file: FileId, offset: u64, len: u64) -> bool {
        self.files
            .get(&file)
            .map(|s| s.covers(offset, len))
            .unwrap_or(false)
    }

    fn insert(&mut self, file: FileId, offset: u64, len: u64) {
        self.files
            .entry(file)
            .or_insert_with(|| ExtentStore::new(StoreMode::Timing))
            .write(offset, len, None);
        self.queue.push_back((file, offset, len));
    }

    fn invalidate(&mut self, file: FileId, offset: u64, len: u64) -> bool {
        match self.files.get_mut(&file) {
            Some(s) if s.read_covered(offset, len) > 0 => {
                s.discard(offset, len);
                true
            }
            _ => false,
        }
    }

    /// Evicts oldest inserted ranges until the resident set fits `cap`.
    fn enforce(&mut self, cap: u64) -> u64 {
        let mut evicted = 0;
        while self.resident_bytes() > cap {
            let Some((file, offset, len)) = self.queue.pop_front() else {
                break;
            };
            if let Some(s) = self.files.get_mut(&file) {
                let before = s.written_bytes();
                s.discard(offset, len);
                evicted += before - s.written_bytes();
            }
        }
        evicted
    }
}

/// The client-memory-cache middleware combinator.
///
/// ```
/// use s4d_cache::{MemCache, S4dCache, S4dConfig};
/// use s4d_cost::CostParams;
/// use s4d_storage::presets;
///
/// let params = CostParams::from_hardware(
///     &presets::hdd_seagate_st3250(),
///     &presets::ssd_ocz_revodrive_x2(),
///     8, 4, 64 * 1024,
/// );
/// let s4d = S4dCache::new(S4dConfig::new(1 << 30), params);
/// let stacked = MemCache::new(s4d, 64 << 20); // 64 MiB per process
/// assert_eq!(stacked.name(), "memcache+s4d");
/// # use s4d_mpiio::Middleware;
/// ```
#[derive(Debug)]
pub struct MemCache<M> {
    inner: M,
    per_rank_capacity: u64,
    ranks: HashMap<u32, RankCache>,
    metrics: MemCacheMetrics,
    name: String,
}

impl<M: Middleware> MemCache<M> {
    /// Wraps `inner` with `per_rank_capacity` bytes of client cache per
    /// process.
    ///
    /// # Panics
    ///
    /// Panics if `per_rank_capacity == 0`.
    pub fn new(inner: M, per_rank_capacity: u64) -> Self {
        assert!(
            per_rank_capacity > 0,
            "client cache capacity must be positive"
        );
        let name = format!("memcache+{}", inner.name());
        MemCache {
            inner,
            per_rank_capacity,
            ranks: HashMap::new(),
            metrics: MemCacheMetrics::default(),
            name,
        }
    }

    /// The layer's counters.
    pub fn metrics(&self) -> &MemCacheMetrics {
        &self.metrics
    }

    /// The wrapped middleware.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    fn make_resident(&mut self, rank: Rank, file: FileId, offset: u64, len: u64) {
        let cache = self.ranks.entry(rank.0).or_default();
        cache.insert(file, offset, len);
        self.metrics.evicted_bytes += cache.enforce(self.per_rank_capacity);
    }

    #[expect(clippy::iter_over_hash_type, reason = "order-independent: sums counts")]
    fn invalidate_others(&mut self, rank: Rank, file: FileId, offset: u64, len: u64) {
        for (&r, cache) in self.ranks.iter_mut() {
            if r != rank.0 && cache.invalidate(file, offset, len) {
                self.metrics.invalidations += 1;
            }
        }
    }
}

impl<M: Middleware> Middleware for MemCache<M> {
    fn open(
        &mut self,
        cluster: &mut Cluster,
        rank: Rank,
        name: &str,
    ) -> Result<FileId, MiddlewareError> {
        self.inner.open(cluster, rank, name)
    }

    fn plan_io(&mut self, cluster: &mut Cluster, now: SimTime, req: &AppRequest) -> Plan {
        match req.kind {
            IoKind::Write => {
                self.metrics.writes += 1;
                self.invalidate_others(req.rank, req.file, req.offset, req.len);
                self.make_resident(req.rank, req.file, req.offset, req.len);
                self.inner.plan_io(cluster, now, req)
            }
            IoKind::Read => {
                let hit = self
                    .ranks
                    .get(&req.rank.0)
                    .map(|c| c.covers(req.file, req.offset, req.len))
                    .unwrap_or(false);
                if hit {
                    self.metrics.ram_hits += 1;
                    return Plan {
                        tag: 0,
                        lead_in: RAM_LATENCY,
                        phases: Vec::new(),
                        deadline: None,
                    };
                }
                self.metrics.delegated_reads += 1;
                let plan = self.inner.plan_io(cluster, now, req);
                self.make_resident(req.rank, req.file, req.offset, req.len);
                plan
            }
        }
    }

    fn close(
        &mut self,
        cluster: &mut Cluster,
        rank: Rank,
        file: FileId,
    ) -> Result<(), MiddlewareError> {
        self.inner.close(cluster, rank, file)
    }

    fn on_plan_complete(&mut self, cluster: &mut Cluster, now: SimTime, tag: u64) {
        self.inner.on_plan_complete(cluster, now, tag);
    }

    fn poll_background(&mut self, cluster: &mut Cluster, now: SimTime) -> BackgroundPoll {
        self.inner.poll_background(cluster, now)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4d_mpiio::StockMiddleware;

    const KIB: u64 = 1024;

    fn req(rank: u32, file: FileId, kind: IoKind, offset: u64, len: u64) -> AppRequest {
        AppRequest {
            rank: Rank(rank),
            file,
            kind,
            offset,
            len,
            data: None,
        }
    }

    fn setup() -> (Cluster, MemCache<StockMiddleware>, FileId) {
        let mut cluster = Cluster::paper_testbed_small(31);
        let mut mw = MemCache::new(StockMiddleware::new(), 256 * KIB);
        let f = mw.open(&mut cluster, Rank(0), "mc").unwrap();
        (cluster, mw, f)
    }

    #[test]
    fn read_after_write_hits_ram() {
        let (mut cluster, mut mw, f) = setup();
        let w = mw.plan_io(
            &mut cluster,
            SimTime::ZERO,
            &req(0, f, IoKind::Write, 0, 16 * KIB),
        );
        assert!(!w.is_empty(), "writes pass through");
        let r = mw.plan_io(
            &mut cluster,
            SimTime::ZERO,
            &req(0, f, IoKind::Read, 0, 16 * KIB),
        );
        assert!(r.is_empty(), "resident read needs no server I/O");
        assert!(!r.lead_in.is_zero(), "RAM hits still cost RAM time");
        assert_eq!(mw.metrics().ram_hits, 1);
    }

    #[test]
    fn cold_and_partial_reads_delegate_then_become_resident() {
        let (mut cluster, mut mw, f) = setup();
        let r = mw.plan_io(
            &mut cluster,
            SimTime::ZERO,
            &req(0, f, IoKind::Read, 0, 16 * KIB),
        );
        assert!(!r.is_empty());
        assert_eq!(mw.metrics().delegated_reads, 1);
        // Now resident: second read hits.
        let r = mw.plan_io(
            &mut cluster,
            SimTime::ZERO,
            &req(0, f, IoKind::Read, 0, 16 * KIB),
        );
        assert!(r.is_empty());
        // Partially resident: delegates.
        let r = mw.plan_io(
            &mut cluster,
            SimTime::ZERO,
            &req(0, f, IoKind::Read, 8 * KIB, 16 * KIB),
        );
        assert!(!r.is_empty());
        assert_eq!(mw.metrics().delegated_reads, 2);
    }

    #[test]
    fn caches_are_per_process() {
        let (mut cluster, mut mw, f) = setup();
        mw.plan_io(
            &mut cluster,
            SimTime::ZERO,
            &req(0, f, IoKind::Write, 0, 16 * KIB),
        );
        // A different rank does not see rank 0's residency.
        let r = mw.plan_io(
            &mut cluster,
            SimTime::ZERO,
            &req(1, f, IoKind::Read, 0, 16 * KIB),
        );
        assert!(!r.is_empty());
    }

    #[test]
    fn writes_invalidate_other_processes() {
        let (mut cluster, mut mw, f) = setup();
        // Rank 1 reads (becomes resident), rank 0 overwrites, rank 1 must
        // re-read from the servers.
        mw.plan_io(
            &mut cluster,
            SimTime::ZERO,
            &req(1, f, IoKind::Read, 0, 16 * KIB),
        );
        let hit = mw.plan_io(
            &mut cluster,
            SimTime::ZERO,
            &req(1, f, IoKind::Read, 0, 16 * KIB),
        );
        assert!(hit.is_empty());
        mw.plan_io(
            &mut cluster,
            SimTime::ZERO,
            &req(0, f, IoKind::Write, 0, 16 * KIB),
        );
        assert_eq!(mw.metrics().invalidations, 1);
        let r = mw.plan_io(
            &mut cluster,
            SimTime::ZERO,
            &req(1, f, IoKind::Read, 0, 16 * KIB),
        );
        assert!(!r.is_empty(), "stale residency must not serve");
        // The writer itself stays resident (its RAM copy is current).
        let r = mw.plan_io(
            &mut cluster,
            SimTime::ZERO,
            &req(0, f, IoKind::Read, 0, 16 * KIB),
        );
        assert!(r.is_empty());
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let (mut cluster, mut mw, f) = setup();
        // Capacity 256 KiB; insert 32 distinct 16 KiB ranges = 512 KiB.
        for i in 0..32u64 {
            mw.plan_io(
                &mut cluster,
                SimTime::ZERO,
                &req(0, f, IoKind::Write, i * 64 * KIB, 16 * KIB),
            );
        }
        assert!(mw.metrics().evicted_bytes >= 256 * KIB);
        // The earliest range was evicted, the latest survives.
        let early = mw.plan_io(
            &mut cluster,
            SimTime::ZERO,
            &req(0, f, IoKind::Read, 0, 16 * KIB),
        );
        assert!(!early.is_empty());
        let late = mw.plan_io(
            &mut cluster,
            SimTime::ZERO,
            &req(0, f, IoKind::Read, 31 * 64 * KIB, 16 * KIB),
        );
        assert!(late.is_empty());
    }

    #[test]
    fn delegation_preserves_inner_behaviour() {
        let (mut cluster, mut mw, f) = setup();
        let plan = mw.plan_io(
            &mut cluster,
            SimTime::ZERO,
            &req(0, f, IoKind::Write, 0, 4 * KIB),
        );
        // Stock inner: one DServer op.
        assert_eq!(plan.phases.len(), 1);
        assert_eq!(plan.phases[0].len(), 1);
        assert_eq!(mw.name(), "memcache+stock");
        assert_eq!(mw.inner().name(), "stock");
        mw.close(&mut cluster, Rank(0), f).unwrap();
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        MemCache::new(StockMiddleware::new(), 0);
    }
}
