//! Tier-1 allocation ceilings for the foreground request path.
//!
//! `benchmark/` scores `host_allocs_per_req` end to end, but it is its
//! own workspace and root `cargo test` never builds it. This file keeps a
//! cheap version of the same count in tier-1: a counting global allocator
//! (`tests/common/alloc.rs`, which `tests/behaviour.rs` also installs for
//! its `cost/*` lines) around `Runner::run()` on a Timing-mode
//! cluster, for the three shapes the request path has — small requests
//! the cache core serves from mapped extents (overwrites, full-hit
//! reads), a large request that bypasses the cache, and small requests
//! on an over-subscribed cache, where writes are admitted, evict clean
//! extents and carry their journal frames.
//!
//! The counts are exact, repeat run for run and are the same in debug
//! and release builds: 265 over the 4,096 warm 16 KiB requests (0.06
//! each), 27 for the one-request run, and 4,367 over the 4,096
//! over-subscribed requests (1.07 each; every group-commit frame, whose
//! records and bytes leave the cache with its plan, costs two). A
//! timing-mode file server keeps no per-file store, so none of them
//! touches an extent store. The ceilings sit less than one allocation
//! per request above them, so one new per-request `Vec` in
//! `identify`, `plan_io`, `on_plan_complete`, the pfs split or the
//! runner's sub-request bookkeeping fails here first. This test is the mutation gate's killer for `alloc-in-hot-path`
//! (`tests/mutation_gate.rs`), which adds a `vec![…]` per critical
//! request.
//!
//! Two more checks pin what costs nothing: a run of 16 bypass requests
//! allocates exactly as much as a run of 2 (the mutation gate's
//! `alloc-on-bypass-path` dies here), and a plan with one op per phase
//! is built and consumed without touching the heap.
//!
//! The allocator also tracks live bytes, for two memory pins: a Critical
//! Data Table of 65,536 entries holds at most 48 heap bytes per entry,
//! and a DMT checkpoint holds no heap beyond the snapshot's own bytes.

use s4d::bench::testbed;
use s4d::cache::{Cdt, S4dCache, S4dConfig, S4dMetrics, DMT_RECORD_BYTES};
use s4d::mpiio::{script, AppRequest, Cluster, Middleware, Plan, PlannedIo, Rank, Runner, Tier};
use s4d::pfs::FileId;
use s4d::sim::{OneOrMany, SimTime};
use s4d::storage::IoKind;
use s4d::workloads::{AccessPattern, IorConfig};

#[path = "common/alloc.rs"]
mod alloc;

use alloc::{counted, live_bytes, peak_bytes, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;

fn ior(seed: u64) -> IorConfig {
    IorConfig {
        file_name: "steady.dat".into(),
        file_size: 32 * MIB,
        processes: 8,
        request_size: 16 * KIB,
        pattern: AccessPattern::Random,
        do_write: true,
        do_read: true,
        seed,
    }
}

/// One counted IOR run over a prefilled cache.
struct Rerun {
    /// Allocation calls during the run.
    allocs: u64,
    /// Requests the run issued.
    requests: u64,
    /// The middleware's counters before and after the run.
    before: S4dMetrics,
    after: S4dMetrics,
    cluster: Cluster,
    mw: S4dCache,
}

impl Rerun {
    fn per_req(&self) -> f64 {
        self.allocs as f64 / self.requests as f64
    }
}

/// Prefills a cache configured by `config` with one IOR run, then counts
/// the allocations of a second run over the same file.
fn counted_rerun(config: S4dConfig) -> Rerun {
    let tb = testbed(3);
    let mw = S4dCache::new(config, tb.cost_params());
    let mut prefill = Runner::new(tb.cluster(), mw, ior(5).scripts(), tb.seed);
    let end = prefill.run().end_time;
    prefill.drain_background(end);
    let (cluster, mw, _) = prefill.into_parts();
    let before = *mw.metrics();

    let cfg = ior(6);
    let requests = 2 * cfg.processes as u64 * cfg.requests_per_process();
    let mut rerun = Runner::new(cluster, mw, cfg.scripts(), tb.seed ^ 1);
    let (report, allocs) = counted(|| rerun.run());
    let (cluster, mw, _) = rerun.into_parts();
    assert_eq!(
        report.writes.meter.ops() + report.reads.meter.ops(),
        requests
    );
    let after = *mw.metrics();
    Rerun {
        allocs,
        requests,
        before,
        after,
        cluster,
        mw,
    }
}

#[test]
fn request_path_allocations_stay_under_their_ceilings() {
    // The cache holds the whole file twice over: nothing is evicted, so
    // after the prefill every write overwrites a mapped extent and every
    // read is a full hit.
    let warm = counted_rerun(S4dConfig::new(64 * MIB));
    let (before, after) = (warm.before, warm.after);
    assert_eq!(
        after.read_full_hits - before.read_full_hits,
        warm.requests / 2
    );
    assert_eq!(after.read_misses, before.read_misses);
    assert_eq!(after.evictions, 0);
    assert!(
        warm.per_req() <= 0.5,
        "warm 16 KiB requests cost {:.2} allocations each \
         ({} over {} requests); ceiling 0.5",
        warm.per_req(),
        warm.allocs,
        warm.requests
    );

    // One 4 MiB write: never critical, so it goes straight to all eight
    // DServers as eight 8-stripe sub-requests. The count covers the whole
    // one-request run — open, close and first-use growth included, which
    // is most of what is left.
    let tb = testbed(3);
    let bypass = script().open("bypass.dat").write(0, 0, 4 * MIB).close(0);
    let mut large = Runner::new(warm.cluster, warm.mw, vec![bypass.build()], tb.seed ^ 2);
    let (report, allocs) = counted(|| large.run());
    assert_eq!(report.writes.meter.ops(), 1);
    assert_eq!(report.tiers.c_ops, 0, "a 4 MiB request bypasses the cache");
    assert!(
        allocs <= 27,
        "one 4 MiB bypass request cost {allocs} allocations; ceiling 27"
    );

    // A cache half the file's size, committing every journal record on
    // its own: half the writes are admitted, they evict clean extents,
    // and each admitted write's plan carries its journal frame in `then`
    // and registers the write obligation.
    let full = counted_rerun(S4dConfig::new(16 * MIB).with_journal_batch(1));
    let (before, after) = (full.before, full.after);
    assert!(after.writes_to_cache > before.writes_to_cache);
    assert!(after.evictions > before.evictions);
    assert!(after.journal_writes > before.journal_writes);
    assert!(
        full.per_req() <= 2.0,
        "over-subscribed 16 KiB requests cost {:.2} allocations each \
         ({} over {} requests); ceiling 2.0",
        full.per_req(),
        full.allocs,
        full.requests
    );
}

/// Allocation calls of one run of `writes` sequential 4 MiB writes by one
/// process, on a fresh cluster and cache.
fn sequential_4m_writes(writes: u64) -> u64 {
    let tb = testbed(3);
    let mw = S4dCache::new(S4dConfig::new(64 * MIB), tb.cost_params());
    let mut s = script().open("bypass.dat");
    for i in 0..writes {
        s = s.write(0, i * 4 * MIB, 4 * MIB);
    }
    let mut runner = Runner::new(tb.cluster(), mw, vec![s.close(0).build()], tb.seed);
    let (report, allocs) = counted(|| runner.run());
    assert_eq!(report.writes.meter.ops(), writes);
    assert_eq!(report.tiers.c_ops, 0, "4 MiB requests bypass the cache");
    allocs
}

#[test]
fn bypass_requests_allocate_nothing_per_request() {
    let (few, many) = (sequential_4m_writes(2), sequential_4m_writes(16));
    assert_eq!(
        few, many,
        "2 and 16 bypass requests cost {few} and {many} allocations: \
         the bypass path allocates per request"
    );
}

#[test]
fn a_plan_of_one_op_per_phase_allocates_nothing() {
    let data = PlannedIo::data_op(Tier::CServers, FileId(1), IoKind::Write, 0, 16 * KIB, 0);
    let journal = PlannedIo {
        app_offset: None,
        ..data.clone()
    };
    let (bytes, allocs) = counted(|| {
        // Built the ways the middleware builds plans, consumed the way the
        // runner does: each phase is moved out, walked and dropped.
        let mut ops = OneOrMany::new();
        ops.push(data);
        let mut plan = std::hint::black_box(Plan {
            tag: 7,
            ..Plan::single_phase(ops)
        });
        plan.then = OneOrMany::One(journal);
        let mut bytes = 0;
        for phase in [
            std::mem::take(&mut plan.ops),
            std::mem::take(&mut plan.then),
        ] {
            for op in &std::hint::black_box(phase) {
                bytes += op.len;
            }
        }
        bytes
    });
    assert_eq!(bytes, 32 * KIB);
    assert_eq!(allocs, 0, "a plan of one op per phase allocated");
}

/// Live heap bytes of a CDT of `n` 16 KiB entries, `flagged` of them
/// (the oldest) with `C_flag` set.
fn cdt_bytes(n: u64, flagged: u64) -> i64 {
    let (cdt, bytes) = live_bytes(|| {
        // The default bound: memory must follow the entries, not it.
        let mut cdt = Cdt::new(1 << 20);
        for i in 0..n {
            cdt.insert(FileId(1), i * 16 * KIB, 16 * KIB);
        }
        for i in 0..flagged {
            cdt.set_c_flag(FileId(1), i * 16 * KIB, 16 * KIB);
        }
        cdt
    });
    assert_eq!(cdt.len() as u64, n);
    bytes
}

/// The paper (§V.E.1) budgets 24 B of metadata per cached entry. A CDT
/// entry is a 32 B ring record plus its share of an at most
/// three-quarters-full index of 4 B slots: 40 B at 65,536 entries,
/// pinned at 48. A flagged entry adds its sequence number to a B-tree
/// set (about 20 B), pinned at 24.
#[test]
fn a_cdt_entry_costs_at_most_48_bytes() {
    const N: u64 = 65_536;
    let plain = cdt_bytes(N, 0) as f64 / N as f64;
    assert!(
        plain <= 48.0,
        "{plain:.1} live heap bytes per CDT entry at {N} entries; ceiling 48"
    );
    let flag = (cdt_bytes(N, N) as f64 / N as f64) - plain;
    assert!(
        flag <= 24.0,
        "a set C_flag costs {flag:.1} more live heap bytes; ceiling 24"
    );
}

/// A checkpoint streams the DMT into its snapshot bytes: while it runs,
/// the heap holds the snapshot (`32 + 28·records + 4` bytes) and at most
/// 4 KiB of anything else — no copy of the table as extents or records.
#[test]
fn a_checkpoint_holds_only_its_snapshot() {
    const N: u64 = 8192;
    let tb = testbed(3);
    let mut config = S4dConfig::new(256 * MIB).with_checkpoint_after(N);
    // No flush plans: the wake's only work is the checkpoint.
    config.max_flush_per_wake = 0;
    let mut cluster = tb.cluster();
    let mut mw = S4dCache::new(config, tb.cost_params());
    let file = mw
        .open(&mut cluster, Rank(0), "ckpt.dat")
        .expect("open a fresh file");
    for i in 0..N {
        let write = AppRequest {
            rank: Rank(0),
            file,
            kind: IoKind::Write,
            offset: i * MIB,
            len: 16 * KIB,
            data: None,
        };
        let plan = mw.plan_io(&mut cluster, SimTime::ZERO, &write);
        if plan.tag != 0 {
            mw.on_plan_complete(&mut cluster, SimTime::ZERO, plan.tag);
        }
    }
    assert_eq!(mw.plane().entry_count() as u64, N, "every write admitted");
    assert_eq!(mw.metrics().checkpoints, 0);

    let ((poll, _), peak) = peak_bytes(|| mw.poll_background(&mut cluster, SimTime::from_secs(1)));
    assert!(poll.plans.is_empty());
    assert_eq!(
        mw.metrics().checkpoints,
        1,
        "the wake installs one checkpoint"
    );
    let snapshot = 32 + N * DMT_RECORD_BYTES + 4;
    assert_eq!(mw.metrics().checkpoint_bytes, snapshot);
    let ceiling = snapshot as i64 + 4096;
    assert!(
        peak <= ceiling,
        "a checkpoint of {N} extents peaked at {peak} live heap bytes; \
         ceiling {ceiling} (the {snapshot}-byte snapshot plus 4 KiB)"
    );
}
