//! Property-based end-to-end check: for arbitrary write/read workloads,
//! the data an application reads back through S4D-Cache (with admission,
//! eviction, flushing, journaling, and the Rebuilder all active) must
//! equal what a plain in-memory byte image predicts — i.e. the cache is
//! semantically invisible, which is the correctness contract of the whole
//! paper.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use s4d::cache::{S4dCache, S4dConfig};
use s4d::cost::CostParams;
use s4d::mpiio::{script, Cluster, IoObserver, Rank, Runner};
use s4d::sim::SimDuration;

#[path = "common/ops.rs"]
mod ops;

use ops::{capture_reads, op_strategy, script_and_reads, Op, KIB, SPAN};

fn run_case(ops: &[Op], capacity: u64, rebuild_ms: u64, seed: u64) {
    let (b, expected_reads) = script_and_reads("prop.dat", ops);
    let config = S4dConfig::new(capacity)
        .with_journal_batch(1)
        .with_rebuild_period(SimDuration::from_millis(rebuild_ms));
    let middleware = S4dCache::new(config, CostParams::paper_testbed_small());
    let cluster = Cluster::paper_testbed_small(seed);
    let mut runner = Runner::new(cluster, middleware, vec![b.close(0).build()], seed);
    let reads = capture_reads(&mut runner);
    runner.run();
    let got = reads.borrow();
    assert_eq!(got.len(), expected_reads.len(), "read count");
    for (i, ((g_off, g_data), (e_off, e_data))) in got.iter().zip(expected_reads.iter()).enumerate()
    {
        assert_eq!(g_off, e_off, "read #{i} offset");
        assert_eq!(g_data, e_data, "read #{i} data at offset {g_off}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// Generous cache: most traffic is absorbed, flushed, and re-read from
    /// the cache; data must match the byte image.
    #[test]
    fn prop_s4d_is_semantically_invisible_large_cache(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        seed in 0u64..1000,
    ) {
        run_case(&ops, 8 * 1024 * KIB, 50, seed);
    }

    /// Tiny cache: constant admission pressure, eviction, and spill; the
    /// answer must not change.
    #[test]
    fn prop_s4d_is_semantically_invisible_tiny_cache(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        seed in 0u64..1000,
    ) {
        run_case(&ops, 64 * KIB, 20, seed);
    }

    /// Two concurrent processes on disjoint halves of the file: the
    /// interleaved execution (shared servers, shared cache, shared
    /// Rebuilder) must still return each process exactly its own bytes.
    #[test]
    fn prop_concurrent_processes_stay_isolated(
        ops_a in proptest::collection::vec(op_strategy(), 1..25),
        ops_b in proptest::collection::vec(op_strategy(), 1..25),
        seed in 0u64..1000,
    ) {
        run_two_proc_case(&ops_a, &ops_b, seed);
    }
}

/// Like `run_case`, but rank 0 works on `[0, SPAN)` and rank 1 on
/// `[SPAN, 2*SPAN)` of the same shared file.
fn run_two_proc_case(ops_a: &[Op], ops_b: &[Op], seed: u64) {
    let mut images = [vec![0u8; SPAN as usize], vec![0u8; SPAN as usize]];
    let mut expected: [Vec<(u64, Vec<u8>)>; 2] = [Vec::new(), Vec::new()];
    let mut builders = [script().open("shared.dat"), script().open("shared.dat")];
    for (p, ops) in [(0usize, ops_a), (1usize, ops_b)] {
        let base = p as u64 * SPAN;
        let mut b = builders[p].clone();
        for op in ops {
            match *op {
                Op::Write { offset, len, tag } => {
                    let data: Vec<u8> = (0..len).map(|j| tag ^ (j % 249) as u8 ^ p as u8).collect();
                    images[p][offset as usize..(offset + len) as usize].copy_from_slice(&data);
                    b = b.write_bytes(0, base + offset, data);
                }
                Op::Read { offset, len } => {
                    expected[p].push((
                        base + offset,
                        images[p][offset as usize..(offset + len) as usize].to_vec(),
                    ));
                    b = b.read(0, base + offset, len);
                }
            }
        }
        builders[p] = b;
    }
    let [ba, bb] = builders;
    let config = S4dConfig::new(256 * KIB)
        .with_journal_batch(4)
        .with_rebuild_period(SimDuration::from_millis(30));
    let middleware = S4dCache::new(config, CostParams::paper_testbed_small());
    let cluster = Cluster::paper_testbed_small(seed ^ 0xAB);
    let mut runner = Runner::new(
        cluster,
        middleware,
        vec![ba.close(0).build(), bb.close(0).build()],
        seed,
    );
    // Capture reads per rank.
    type PerRankReads = Rc<RefCell<[Vec<(u64, Vec<u8>)>; 2]>>;
    struct PerRank(PerRankReads);
    impl IoObserver for PerRank {
        fn on_read_data(&mut self, rank: Rank, offset: u64, _l: u64, data: Option<&[u8]>) {
            self.0.borrow_mut()[rank.0 as usize].push((offset, data.expect("functional").to_vec()));
        }
    }
    let got = Rc::new(RefCell::new([Vec::new(), Vec::new()]));
    runner.add_observer(Box::new(PerRank(got.clone())));
    runner.run();
    let got = got.borrow();
    for p in 0..2 {
        assert_eq!(got[p].len(), expected[p].len(), "rank {p} read count");
        for (i, ((go, gd), (eo, ed))) in got[p].iter().zip(expected[p].iter()).enumerate() {
            assert_eq!(go, eo, "rank {p} read #{i} offset");
            assert_eq!(gd, ed, "rank {p} read #{i} data at {go}");
        }
    }
}
