//! Double-crash torture: crash the middleware mid-run, then crash it
//! *again in the middle of recovery*, and prove recovery is re-enterable
//! and idempotent.
//!
//! Recovery's own destructive effects — truncating the undecodable
//! journal suffix, discarding dropped (under-covered) extents, and the
//! orphan sweep — are charged to a [`CrashFuse`] through
//! [`S4dCache::recover_from_cluster_fused`]. The matrix arms the fuse at
//! the start and the middle of every recorded recovery step, re-enters
//! plain recovery after each mid-recovery death, and requires the final
//! state to be byte-identical to a single uninterrupted recovery.
//!
//! A second matrix spaces the two crashes apart instead: tear a journal
//! frame, recover, acknowledge more writes on the recovered instance, cut
//! the power, recover again — everything acknowledged on either side of
//! the first recovery must read back exactly.

mod common;

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use common::{check_invariants, extents_of, read_through, run_plan, write_req};
use s4d::cache::{CrashFuse, CrashSite, S4dCache, S4dConfig};
use s4d::cost::CostParams;
use s4d::mpiio::{Cluster, Middleware, Rank};
use s4d::pfs::FileId;
use s4d::sim::SimTime;

const KIB: u64 = 1024;
const FILE_LEN: u64 = 1024 * KIB;
const CAPACITY: u64 = 128 * KIB;
const REQ: u64 = 16 * KIB;

fn config() -> S4dConfig {
    S4dConfig::new(CAPACITY).with_journal_batch(1)
}

fn seed_bytes() -> Vec<u8> {
    (0..FILE_LEN).map(|i| (i % 241) as u8).collect()
}

fn write_payload(n: u64) -> Vec<u8> {
    (0..REQ)
        .map(|j| ((n * 137 + j * 11 + 29) % 256) as u8)
        .collect()
}

/// The script: eight writes that fill the cache, then four at fresh
/// offsets that overflow it.
fn script() -> Vec<u64> {
    (0..8)
        .map(|i| i * REQ)
        .chain((0..4).map(|i| 512 * KIB + i * REQ))
        .collect()
}

/// Issues the script's writes from index `from` on, flushing everything
/// clean before write 8 so the overflow writes must evict (and journal
/// their Removes synchronously). Each acknowledged write lands in
/// `shadow`. Stops when the fuse dies; returns the index of the first
/// write that was not acknowledged.
fn drive(
    cluster: &mut Cluster,
    mw: &mut S4dCache,
    fuse: Option<&RefCell<CrashFuse>>,
    shadow: &mut [u8],
    from: usize,
) -> usize {
    let dead = || fuse.is_some_and(|f| f.borrow().is_dead());
    let file = mw.open(cluster, Rank(0), "dc.dat").unwrap();
    let mut now_s = 0u64;
    for (n, offset) in script().into_iter().enumerate().skip(from) {
        if n == 8 {
            for _ in 0..40 {
                now_s += 1;
                let now = SimTime::from_secs(now_s);
                let poll = mw.poll_background(cluster, now);
                if dead() {
                    return n;
                }
                for plan in &poll.plans {
                    if !run_plan(cluster, mw, fuse, plan, now) || dead() {
                        return n;
                    }
                }
                if !poll.work_pending {
                    break;
                }
            }
        }
        let data = write_payload(n as u64 + 1);
        let req = write_req(file, offset, data.clone());
        let now = SimTime::from_secs(now_s);
        let plan = mw.plan_io(cluster, now, &req);
        run_plan(cluster, mw, fuse, &plan, now);
        if dead() {
            return n;
        }
        shadow[offset as usize..(offset + REQ) as usize].copy_from_slice(&data);
    }
    script().len()
}

/// One run of the script on a fresh cluster, crashing when `budget` runs
/// out.
struct Run {
    cluster: Cluster,
    /// Acknowledged file content.
    shadow: Vec<u8>,
    fuse: Rc<RefCell<CrashFuse>>,
    /// Index of the first script write that was not acknowledged.
    acked: usize,
}

fn run_workload(budget: Option<u64>) -> Run {
    let mut cluster = Cluster::paper_testbed_small(41);
    let mut mw = S4dCache::new(config(), CostParams::paper_testbed_small());
    let fuse = match budget {
        Some(b) => CrashFuse::armed(b).shared(),
        None => CrashFuse::unlimited().shared(),
    };
    mw.attach_crash_fuse(fuse.clone());
    let file = mw.open(&mut cluster, Rank(0), "dc.dat").unwrap();
    let mut shadow = seed_bytes();
    cluster
        .opfs_mut()
        .apply_bytes(file, 0, FILE_LEN, Some(&shadow))
        .unwrap();
    let acked = drive(&mut cluster, &mut mw, Some(&fuse), &mut shadow, 0);
    Run {
        cluster,
        shadow,
        fuse,
        acked,
    }
}

/// The workload-crash budget: the middle of the last synchronous append,
/// so the crashed cluster carries a torn journal suffix for recovery to
/// truncate.
fn crash_budget() -> u64 {
    let steps = run_workload(None).fuse.borrow().steps().to_vec();
    let last_sync = steps
        .iter()
        .rev()
        .find(|s| s.site == CrashSite::SyncAppend)
        .copied()
        .expect("workload must journal synchronously (evictions)");
    // One byte into the batch: the first frame is guaranteed torn, so
    // recovery always has an undecodable suffix to truncate.
    last_sync.start + 1
}

/// Regenerates the crashed cluster and enriches its recovery workload:
/// orphan bytes no mapping claims (for the sweep) and a mapped extent
/// with a discarded tail (for coverage-validation drops). Both mutations
/// are deterministic, derived from `probe` (a plain recovery of an
/// identical regeneration).
fn crashed_and_mutated(budget: u64, probe: &(FileId, u64, u64)) -> (Cluster, Vec<u8>) {
    let Run {
        mut cluster,
        shadow,
        ..
    } = run_workload(Some(budget));
    let cache = cluster.cpfs_mut().create_or_open("dc.dat.cache");
    let size = cluster.cpfs().meta(cache).map(|m| m.size).unwrap_or(0);
    // Orphan: cache bytes far past every mapping.
    let orphan = vec![0xEEu8; 4096];
    cluster
        .cpfs_mut()
        .apply_bytes(cache, size + 64 * KIB, 4096, Some(&orphan))
        .unwrap();
    // Under-covered extent: punch out the tail of a known clean mapping.
    let &(c_file, c_off, len) = probe;
    let hole = (len / 2).max(1);
    cluster
        .cpfs_mut()
        .discard(c_file, c_off + len - hole, hole)
        .unwrap();
    (cluster, shadow)
}

/// Reads the whole file back through a recovered middleware.
fn read_all(cluster: &mut Cluster, mw: &mut S4dCache) -> Vec<u8> {
    let file = mw.open(cluster, Rank(0), "dc.dat").unwrap();
    let step = 64 * KIB;
    (0..FILE_LEN / step)
        .flat_map(|chunk| read_through(cluster, mw, file, chunk * step, step))
        .collect()
}

#[test]
fn crash_during_recovery_is_reenterable_and_idempotent() {
    let budget = crash_budget();

    // Probe: recover a pristine regeneration to learn a clean mapped
    // extent whose tail the mutation can punch out.
    let mut probe_cluster = run_workload(Some(budget)).cluster;
    let (probe_mw, _) = S4dCache::recover_from_cluster(
        config(),
        CostParams::paper_testbed_small(),
        &mut probe_cluster,
    );
    let probe = probe_mw
        .plane()
        .iter_extents()
        .filter(|(_, _, e)| !e.dirty && e.len >= 2)
        .map(|(_, _, e)| (e.c_file, e.c_offset, e.len))
        .min()
        .expect("a clean extent survives the crash");

    // Reference: one uninterrupted (but fully recorded) recovery.
    let (mut ref_cluster, shadow) = crashed_and_mutated(budget, &probe);
    let ref_fuse = CrashFuse::unlimited().shared();
    let (mut ref_mw, ref_report) = S4dCache::recover_from_cluster_fused(
        config(),
        CostParams::paper_testbed_small(),
        &mut ref_cluster,
        Some(ref_fuse.clone()),
    )
    .expect("unlimited fuse cannot die");
    let steps = ref_fuse.borrow().steps().to_vec();
    let recorded: BTreeSet<CrashSite> = steps.iter().map(|s| s.site).collect();
    for site in [
        CrashSite::RecoveryTruncate,
        CrashSite::RecoveryDrop,
        CrashSite::RecoverySweep,
    ] {
        assert!(
            recorded.contains(&site),
            "recovery never exercised {site:?}; the double-crash matrix would not cover it"
        );
    }
    assert!(ref_report.dropped_extents > 0, "the punched extent drops");
    assert!(ref_report.orphan_bytes_discarded > 0, "the orphan is swept");
    assert!(
        ref_report.dropped_journal_bytes > 0,
        "the torn tail truncates"
    );
    check_invariants(&ref_cluster, &ref_mw);
    let ref_extents = extents_of(&ref_mw);
    // A second recovery of the already-recovered reference cluster is the
    // fixpoint every interrupted history must also converge to. (Its
    // report re-derives the dropped extent and the journal-hole truncate
    // from the unchanged journal — both no-op discards — by design.)
    let (fix_mw, fix_report) = S4dCache::recover_from_cluster(
        config(),
        CostParams::paper_testbed_small(),
        &mut ref_cluster,
    );
    assert_eq!(extents_of(&fix_mw), ref_extents, "reference not a fixpoint");
    assert_eq!(
        fix_report.orphan_bytes_discarded, 0,
        "the reference recovery left orphan bytes behind"
    );
    let ref_bytes = read_all(&mut ref_cluster, &mut ref_mw);
    // Every acknowledged byte reads back exactly. The crash tore only an
    // eviction's Remove batch: the victims' discards were suppressed by
    // the same dead fuse, so the resurrected clean mappings still point
    // at present bytes that match OPFS, and the in-flight write was never
    // acknowledged (its payload never landed). The punched extent was
    // clean, so dropping it re-reads from OPFS losslessly.
    assert_eq!(ref_bytes, shadow, "reference recovery diverged from acks");

    // Matrix: die at the start and the middle of every recovery step,
    // then re-enter plain recovery and demand convergence.
    let mut budgets = BTreeSet::new();
    for s in &steps {
        budgets.insert(s.start);
        if s.len > 1 {
            budgets.insert(s.start + s.len / 2);
        }
    }
    let total: u64 = steps.iter().map(|s| s.len).sum();
    let mut died_at: BTreeSet<CrashSite> = BTreeSet::new();
    for &b in &budgets {
        assert!(b < total);
        let (mut cluster, _) = crashed_and_mutated(budget, &probe);
        let fuse = CrashFuse::armed(b).shared();
        let first = S4dCache::recover_from_cluster_fused(
            config(),
            CostParams::paper_testbed_small(),
            &mut cluster,
            Some(fuse.clone()),
        );
        assert!(first.is_none(), "budget {b} must die mid-recovery");
        if let Some(s) = fuse.borrow().steps().last() {
            died_at.insert(s.site);
        }
        // Second crash happened; re-enter recovery on the half-recovered
        // cluster. It must converge to the reference state.
        let (mut mw2, _) = S4dCache::recover_from_cluster(
            config(),
            CostParams::paper_testbed_small(),
            &mut cluster,
        );
        check_invariants(&cluster, &mw2);
        assert_eq!(
            extents_of(&mw2),
            ref_extents,
            "budget {b}: re-entered recovery diverged from single recovery"
        );
        let bytes = read_all(&mut cluster, &mut mw2);
        assert_eq!(
            bytes, ref_bytes,
            "budget {b}: re-entered recovery serves different bytes"
        );
        // And a third recovery lands on the exact fixpoint the reference
        // cluster reached: identical extents AND an identical report,
        // regardless of where the second crash interrupted the first
        // recovery.
        let (mw3, report3) = S4dCache::recover_from_cluster(
            config(),
            CostParams::paper_testbed_small(),
            &mut cluster,
        );
        assert_eq!(extents_of(&mw3), ref_extents, "budget {b}: not a fixpoint");
        assert_eq!(report3, fix_report, "budget {b}: fixpoint report differs");
    }
    for site in [
        CrashSite::RecoveryTruncate,
        CrashSite::RecoveryDrop,
        CrashSite::RecoverySweep,
    ] {
        assert!(died_at.contains(&site), "no budget died at {site:?}");
    }
}

#[test]
fn writes_acked_after_a_torn_journal_recovery_survive_the_next_crash() {
    // Checkpoints stay off (the default thresholds are far above this
    // script), so nothing but the journal tail carries the mapping: a
    // recovery that resumes appending anywhere but at the start of the
    // torn suffix it truncated leaves a hole, and the *next* recovery
    // stops decoding there — silently dropping every record acknowledged
    // in between. A later snapshot would heal the hole and hide the bug.
    let frames: Vec<_> = run_workload(None)
        .fuse
        .borrow()
        .steps()
        .iter()
        .filter(|s| matches!(s.site, CrashSite::JournalWrite | CrashSite::SyncAppend))
        .copied()
        .collect();
    for site in [CrashSite::JournalWrite, CrashSite::SyncAppend] {
        assert!(frames.iter().any(|s| s.site == site), "no {site:?} step");
    }
    for frame in frames {
        // 13 bytes into the frame's first record: always mid-record.
        let budget = frame.start + 13;
        let Run {
            mut cluster,
            mut shadow,
            acked,
            ..
        } = run_workload(Some(budget));
        let (mut mw, report) = S4dCache::recover_from_cluster(
            config(),
            CostParams::paper_testbed_small(),
            &mut cluster,
        );
        assert!(
            report.dropped_journal_bytes > 0,
            "budget {budget}: the crash must leave a torn frame to truncate"
        );
        assert!(report.used_checkpoint.is_none());
        // The application retries its unacknowledged write and finishes
        // the script on the recovered instance...
        let done = drive(&mut cluster, &mut mw, None, &mut shadow, acked);
        assert_eq!(done, script().len());
        assert!(mw.plane().dirty_bytes() > 0, "acks rest on cached data");
        // ...and the power goes: no drain, no clean shutdown.
        drop(mw);
        let (mut mw, _) = S4dCache::recover_from_cluster(
            config(),
            CostParams::paper_testbed_small(),
            &mut cluster,
        );
        check_invariants(&cluster, &mw);
        assert!(
            read_all(&mut cluster, &mut mw) == shadow,
            "budget {budget} ({:?}): an acknowledged write did not survive the second crash",
            frame.site
        );
    }
}
