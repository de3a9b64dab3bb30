//! Property-based shard-count invariance: the sharded metadata plane is
//! an internal reorganization, so for arbitrary workloads a middleware
//! running at any shard count must be observationally identical to the
//! `shard_count = 1` reference — byte-identical application reads, the
//! same per-byte cache coverage, and the same request-classification and
//! byte-flow metrics. (Record- and plan-granularity counters are allowed
//! to differ: a request crossing stripe tiles legitimately splits into
//! per-shard segments. Under eviction pressure the cached *set* may also
//! diverge — per-shard LRU vs global LRU — so state equality uses a
//! generous cache, while semantic invisibility is separately checked
//! under a tiny cache too.)

use proptest::prelude::*;
use s4d::cache::{S4dCache, S4dConfig};
use s4d::cost::CostParams;
use s4d::mpiio::{Cluster, Runner};
use s4d::sim::SimDuration;

#[path = "common/ops.rs"]
mod ops;

use ops::{capture_reads, op_strategy, script_and_reads, Op, KIB, SPAN};

/// Everything a shard count must not change, collected from one full run.
struct Observation {
    reads: Vec<(u64, Vec<u8>)>,
    /// Per-byte cache state over `[0, SPAN)`: 0 unmapped, 1 clean, 2 dirty.
    coverage: Vec<u8>,
    mapped_bytes: u64,
    dirty_bytes: u64,
    allocated: u64,
    /// The shard-invariant metrics: classification decisions and byte
    /// flows (not plan/record counts, which split per shard).
    semantic_metrics: Vec<(&'static str, u64)>,
}

fn observe(ops: &[Op], shards: u32, capacity: u64, seed: u64) -> Observation {
    let config = S4dConfig::new(capacity)
        .with_journal_batch(4)
        .with_shards(shards)
        .with_rebuild_period(SimDuration::from_millis(40));
    let middleware = S4dCache::new(config, CostParams::paper_testbed_small());
    let cluster = Cluster::paper_testbed_small(seed);
    let (script, _) = script_and_reads("shard.dat", ops);
    let mut runner = Runner::new(cluster, middleware, vec![script.close(0).build()], seed);
    let reads = capture_reads(&mut runner);
    runner.run();
    let (_cluster, mw, _report) = runner.into_parts();
    let mut coverage = vec![0u8; SPAN as usize];
    for (_f, o, e) in mw.plane().iter_extents() {
        for b in o..o + e.len {
            coverage[b as usize] = if e.dirty { 2 } else { 1 };
        }
    }
    let m = mw.metrics();
    Observation {
        reads: reads.take(),
        coverage,
        mapped_bytes: mw.plane().mapped_bytes(),
        dirty_bytes: mw.plane().dirty_bytes(),
        allocated: mw.plane().allocated(),
        semantic_metrics: vec![
            ("evaluated", m.evaluated),
            ("critical", m.critical),
            ("writes_to_cache", m.writes_to_cache),
            ("writes_to_disk", m.writes_to_disk),
            ("read_full_hits", m.read_full_hits),
            ("read_partial_hits", m.read_partial_hits),
            ("read_misses", m.read_misses),
            ("lazy_marks", m.lazy_marks),
            ("evictions", m.evictions),
            ("evicted_bytes", m.evicted_bytes),
            ("flushed_bytes", m.flushed_bytes),
            ("fetched_bytes", m.fetched_bytes),
            ("admission_denied_space", m.admission_denied_space),
        ],
    }
}

fn assert_matches_reference(ops: &[Op], shards: u32, capacity: u64, seed: u64) {
    let reference = observe(ops, 1, capacity, seed);
    let sharded = observe(ops, shards, capacity, seed);
    assert_eq!(
        sharded.reads.len(),
        reference.reads.len(),
        "{shards} shards: read count"
    );
    for (i, ((go, gd), (ro, rd))) in sharded.reads.iter().zip(reference.reads.iter()).enumerate() {
        assert_eq!(go, ro, "{shards} shards: read #{i} offset");
        assert_eq!(gd, rd, "{shards} shards: read #{i} data at offset {go}");
    }
    assert_eq!(
        sharded.coverage, reference.coverage,
        "{shards} shards: per-byte cache coverage/dirty state diverged"
    );
    assert_eq!(sharded.mapped_bytes, reference.mapped_bytes);
    assert_eq!(sharded.dirty_bytes, reference.dirty_bytes);
    assert_eq!(sharded.allocated, reference.allocated);
    for ((name, got), (_, want)) in sharded
        .semantic_metrics
        .iter()
        .zip(reference.semantic_metrics.iter())
    {
        assert_eq!(got, want, "{shards} shards: metric {name} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Generous cache (no eviction pressure): any shard count reproduces
    /// the single-shard reads, coverage, accounting, and semantic
    /// metrics exactly.
    #[test]
    fn prop_random_shard_count_matches_single_shard(
        ops in proptest::collection::vec(op_strategy(), 1..35),
        shards in 2u32..=16,
        seed in 0u64..1000,
    ) {
        assert_matches_reference(&ops, shards, 8 * 1024 * KIB, seed);
    }

    /// Tiny cache: per-shard LRU may evict different extents than the
    /// global reference, so cached state can legitimately diverge — but
    /// the application must still read exactly the bytes it wrote.
    #[test]
    fn prop_sharded_cache_stays_semantically_invisible_under_pressure(
        ops in proptest::collection::vec(op_strategy(), 1..35),
        shards in 2u32..=16,
        seed in 0u64..1000,
    ) {
        let (_, expected) = script_and_reads("shard.dat", &ops);
        let got = observe(&ops, shards, 64 * KIB, seed);
        prop_assert_eq!(got.reads.len(), expected.len(), "read count");
        for (i, ((go, gd), (eo, ed))) in got.reads.iter().zip(expected.iter()).enumerate() {
            prop_assert_eq!(go, eo, "read #{} offset", i);
            prop_assert_eq!(gd, ed, "read #{} data", i);
        }
    }
}
