//! Group-commit crash matrix: crash at every record boundary (and inside
//! a record) of a coalesced multi-shard journal batch and prove the
//! all-or-prefix contract (DESIGN.md §15):
//!
//! * the durable journal holds a whole-record *prefix* of the batch in
//!   its deterministic drain order (shard order, then append order) —
//!   never a torn record, a hole, or a reordering;
//! * recovery replays exactly that prefix: the writes it covers read
//!   back as their new bytes, every write past the prefix reverts to the
//!   pre-crash original bytes (its cache payload is orphan-swept);
//! * space accounting and cache coverage match the recovered mapping.
//!
//! The workload stripes writes round-robin across 4 shards with a
//! group-commit threshold of 4 records, so the single batch frame the
//! fuse tears rejoins records from every per-shard queue.

mod common;

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use common::{read_through, run_plan, write_req};
use s4d::cache::{CrashFuse, CrashSite, S4dCache, S4dConfig, DMT_RECORD_BYTES};
use s4d::cost::CostParams;
use s4d::mpiio::{Cluster, Middleware, Rank};
use s4d::pfs::FileId;
use s4d::sim::SimTime;
use s4d::storage::IoKind;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;
const FILE_LEN: u64 = 2 * MIB;
/// One write per stripe tile so every request is shard-pure.
const TILE: u64 = 64 * KIB;
const REQ: u64 = 16 * KIB;
const SHARDS: u32 = 4;
const BATCH: u64 = 4;

fn config() -> S4dConfig {
    // Capacity far above the workload so no eviction interleaves with the
    // batch under test; the only journal write is the group commit.
    S4dConfig::new(64 * MIB)
        .with_journal_batch(BATCH)
        .with_shards(SHARDS)
        .with_shard_stripe(TILE)
}

fn seed_bytes() -> Vec<u8> {
    (0..FILE_LEN).map(|i| (i % 251) as u8).collect()
}

fn write_payload(n: u64) -> Vec<u8> {
    (0..REQ)
        .map(|j| ((n * 131 + j * 7 + 13) % 256) as u8)
        .collect()
}

/// One run up to (and through) the first group-commit batch.
struct Outcome {
    cluster: Cluster,
    fuse: Rc<RefCell<CrashFuse>>,
    file: FileId,
    /// Offsets of the admitted writes, in issue order.
    offsets: Vec<u64>,
    /// The batch's records in deterministic drain order (shard order,
    /// then append order within each shard's queue), reconstructed from
    /// the admission protocol: `(is_insert, write_index)` — write `i`
    /// queues its Insert during `plan_io` and its Seal at completion, and
    /// the batch fires inside the last write's `plan_io`, before that
    /// write completes.
    drain_order: Vec<(bool, usize)>,
}

/// Issues round-robin tile writes until one plan carries the coalesced
/// journal batch, crashing (or not) per the fuse budget.
fn run(budget: Option<u64>) -> Outcome {
    let mut cluster = Cluster::paper_testbed_small(41);
    let mut mw = S4dCache::new(config(), CostParams::paper_testbed_small());
    let fuse = match budget {
        Some(b) => CrashFuse::armed(b).shared(),
        None => CrashFuse::unlimited().shared(),
    };
    mw.attach_crash_fuse(fuse.clone());
    let file = mw.open(&mut cluster, Rank(0), "gc.dat").unwrap();
    cluster
        .opfs_mut()
        .apply_bytes(file, 0, FILE_LEN, Some(&seed_bytes()))
        .unwrap();
    let router = mw.plane().router();

    let mut offsets = Vec::new();
    let mut batched = false;
    for i in 0..(SHARDS as u64 * BATCH + 1) {
        let offset = i * TILE;
        let req = write_req(file, offset, write_payload(i + 1));
        let plan = mw.plan_io(&mut cluster, SimTime::ZERO, &req);
        offsets.push(offset);
        batched = plan
            .ops
            .iter()
            .chain(&plan.then)
            .any(|op| op.kind == IoKind::Write && op.app_offset.is_none());
        run_plan(&mut cluster, &mut mw, Some(&fuse), &plan, SimTime::ZERO);
        if fuse.borrow().is_dead() || batched {
            break;
        }
    }
    assert!(
        batched || fuse.borrow().is_dead(),
        "the workload must reach a group-commit batch"
    );
    // Reconstruct each shard's queue: interleaved Insert/Seal events in
    // chronological order (ascending write index keeps them sorted).
    let n = offsets.len();
    let mut by_shard: Vec<Vec<(bool, usize)>> = vec![Vec::new(); SHARDS as usize];
    for (i, &o) in offsets.iter().enumerate() {
        let s = router.shard_of(file, o).index();
        by_shard[s].push((true, i));
        if i + 1 < n {
            by_shard[s].push((false, i));
        }
    }
    let drain_order: Vec<(bool, usize)> = by_shard.into_iter().flatten().collect();
    Outcome {
        cluster,
        fuse,
        file,
        offsets,
        drain_order,
    }
}

#[test]
fn mid_batch_crash_keeps_an_exact_record_prefix() {
    // Clean run: locate the single coalesced batch write in the durable
    // trace. Every queued record drains into it, so its length is the
    // whole workload's record count.
    let clean = run(None);
    assert!(!clean.fuse.borrow().is_dead());
    let batch_steps: Vec<_> = clean
        .fuse
        .borrow()
        .steps()
        .iter()
        .filter(|s| s.site == CrashSite::JournalWrite)
        .copied()
        .collect();
    assert_eq!(batch_steps.len(), 1, "exactly one group-commit frame");
    let batch = batch_steps[0];
    let records = clean.drain_order.len() as u64;
    assert_eq!(
        batch.len,
        records * DMT_RECORD_BYTES,
        "the frame holds every queued Insert/Seal record"
    );
    assert!(
        records > BATCH,
        "the coalesced frame must span more than one shard's queue"
    );

    // The "all" arm: recovering the uncrashed cluster replays the whole
    // batch and every write is durable.
    let seed = seed_bytes();
    {
        let mut cluster = clean.cluster;
        let (mut mw, report) = S4dCache::recover_from_cluster(
            config(),
            CostParams::paper_testbed_small(),
            &mut cluster,
        );
        assert_eq!(report.tail_records, records, "full batch replays");
        assert_eq!(report.dropped_journal_bytes, 0);
        let file = mw.open(&mut cluster, Rank(0), "gc.dat").unwrap();
        for (i, &offset) in clean.offsets.iter().enumerate() {
            let got = read_through(&mut cluster, &mut mw, file, offset, REQ);
            assert_eq!(got, write_payload(i as u64 + 1), "clean write {offset}");
        }
    }

    // The "prefix" arm: crash at every record boundary of the frame, and
    // 13 bytes into the following record — both must leave exactly k
    // whole records durable, never a torn one.
    for k in 0..records {
        for cut in [
            batch.start + k * DMT_RECORD_BYTES,
            batch.start + k * DMT_RECORD_BYTES + 13,
        ] {
            let torn_tail = cut - batch.start - k * DMT_RECORD_BYTES;
            let mut outcome = run(Some(cut));
            assert!(outcome.fuse.borrow().is_dead(), "budget within the frame");
            assert_eq!(
                outcome.fuse.borrow().steps().last().map(|s| s.site),
                Some(CrashSite::JournalWrite),
                "the fuse must die inside the batch frame"
            );
            let (mut mw, report) = S4dCache::recover_from_cluster(
                config(),
                CostParams::paper_testbed_small(),
                &mut outcome.cluster,
            );

            // All-or-prefix: exactly k records replayed, the torn tail
            // truncated, nothing invented past the cut.
            assert_eq!(report.used_checkpoint, None);
            assert_eq!(report.tail_records, k, "cut at {cut}: prefix length");
            assert_eq!(report.dropped_journal_bytes, torn_tail);
            assert_eq!(report.dropped_extents, 0, "prefix data landed pre-batch");

            // The recovered mapping is exactly the writes whose Insert
            // record sits inside the drain-order prefix (Seal records
            // change no mapping; recovery keeps covered extents whether
            // or not their Seal made it into the prefix).
            let expect: BTreeSet<u64> = outcome
                .drain_order
                .iter()
                .take(k as usize)
                .filter(|&&(is_insert, _)| is_insert)
                .map(|&(_, i)| outcome.offsets[i])
                .collect();
            let got: BTreeSet<u64> = mw
                .plane()
                .iter_extents()
                .map(|(f, o, e)| {
                    assert_eq!(f, outcome.file);
                    assert_eq!(e.len, REQ);
                    o
                })
                .collect();
            assert_eq!(got, expect, "cut at {cut}: mapped prefix diverged");
            let mapped = expect.len() as u64 * REQ;
            assert_eq!(mw.plane().mapped_bytes(), mapped);
            assert_eq!(mw.plane().allocated(), mapped, "space matches mapping");

            // Byte-level: prefix writes read their new bytes; every write
            // past the prefix reverts to the original (its cache payload
            // was orphan-swept, never served).
            let file = mw.open(&mut outcome.cluster, Rank(0), "gc.dat").unwrap();
            for (i, &offset) in outcome.offsets.iter().enumerate() {
                let got = read_through(&mut outcome.cluster, &mut mw, file, offset, REQ);
                if expect.contains(&offset) {
                    assert_eq!(
                        got,
                        write_payload(i as u64 + 1),
                        "cut at {cut}: durable write {offset} lost bytes"
                    );
                } else {
                    let s = offset as usize;
                    assert_eq!(
                        got,
                        &seed[s..s + REQ as usize],
                        "cut at {cut}: undurable write {offset} partially applied"
                    );
                }
            }
        }
    }
}
