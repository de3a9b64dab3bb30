//! Crash-point torture: drive the middleware through a deterministic
//! workload while a byte-budgeted [`CrashFuse`] kills it mid-effect at
//! every recorded durable step, then recover from nothing but the
//! cluster's persisted bytes and prove the invariants:
//!
//! * every surviving mapping's cache bytes are fully present on CPFS;
//! * space accounting matches the recovered mapping exactly;
//! * every acknowledged byte reads back exactly; bytes of the single
//!   operation in flight at the crash read back as either the old or the
//!   new value, per byte (a torn write is allowed to be torn — never
//!   invented).
//!
//! The clean (unlimited-fuse) run records the full durable-step trace,
//! which defines the crash matrix: one crash at the start and one in the
//! middle of every step, covering every [`CrashSite`] the workload
//! exercises.

mod common;

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use common::{check_invariants, read_through, run_plan, write_req};
use s4d::cache::names::JOURNAL_NAME;
use s4d::cache::DMT_RECORD_BYTES;
use s4d::cache::{CrashFuse, CrashSite, S4dCache, S4dConfig};
use s4d::cost::CostParams;
use s4d::mpiio::{AppRequest, Cluster, Middleware, PlannedIo, Rank, Tier};
use s4d::sim::SimTime;
use s4d::storage::IoKind;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;
/// Logical extent of the test file; the shadow model covers all of it.
const FILE_LEN: u64 = 2 * MIB;
/// Small cache capacity so the workload overflows it and must evict.
const CAPACITY: u64 = 256 * KIB;
const REQ: u64 = 16 * KIB;

fn torture_config() -> S4dConfig {
    // Batch size 1: every plan carries its own journal write, so the
    // JournalWrite site fires on the foreground path too. The low record
    // threshold makes checkpoints (and the truncation after them) fire
    // mid-workload.
    S4dConfig::new(CAPACITY)
        .with_journal_batch(1)
        .with_checkpoint_after(32)
}

/// The original-file content that "already existed" before the middleware
/// ever ran: seeded directly into the OPFS stores.
fn seed_bytes() -> Vec<u8> {
    (0..FILE_LEN).map(|i| (i % 251) as u8).collect()
}

/// The payload of the `n`-th application write (distinct from the seed
/// and from every other write, so old-vs-new bytes are distinguishable).
fn write_payload(n: u64) -> Vec<u8> {
    (0..REQ)
        .map(|j| ((n * 131 + j * 7 + 13) % 256) as u8)
        .collect()
}

/// One finished torture run: the crashed (or cleanly stopped) cluster
/// plus the shadow model describing what an observer was promised.
struct Outcome {
    cluster: Cluster,
    fuse: Rc<RefCell<CrashFuse>>,
    /// Acknowledged logical file content.
    shadow: Vec<u8>,
    /// The single app write in flight at the crash: (offset, old, new).
    /// Each byte of that range may read back as either version.
    wild: Option<(u64, Vec<u8>, Vec<u8>)>,
}

impl Outcome {
    fn crashed(&self) -> bool {
        self.fuse.borrow().is_dead()
    }

    /// The site of the step the fuse tore (the last recorded step).
    fn crash_site(&self) -> Option<CrashSite> {
        if !self.crashed() {
            return None;
        }
        self.fuse.borrow().steps().last().map(|s| s.site)
    }
}

/// Drives the deterministic torture workload until it completes or the
/// fuse blows. `budget = None` is the clean recording run.
fn run_workload(budget: Option<u64>) -> Outcome {
    let mut cluster = Cluster::paper_testbed_small(77);
    let mut mw = S4dCache::new(torture_config(), CostParams::paper_testbed_small());
    let fuse = match budget {
        Some(b) => CrashFuse::armed(b).shared(),
        None => CrashFuse::unlimited().shared(),
    };
    mw.attach_crash_fuse(fuse.clone());
    let file = mw.open(&mut cluster, Rank(0), "torture.dat").unwrap();

    // Pre-existing file content, seeded straight into the stores (this
    // predates the crash domain, so no fuse charge).
    let seed = seed_bytes();
    cluster
        .opfs_mut()
        .apply_bytes(file, 0, FILE_LEN, Some(&seed))
        .unwrap();
    let mut shadow = seed;
    let mut wild: Option<(u64, Vec<u8>, Vec<u8>)> = None;
    let mut op_no = 0u64;
    let mut now_s = 0u64;

    macro_rules! finish {
        () => {
            return Outcome {
                cluster,
                fuse,
                shadow,
                wild,
            }
        };
    }

    // One app write; on crash the op's range becomes the wildcard.
    macro_rules! app_write {
        ($offset:expr) => {{
            let offset: u64 = $offset;
            op_no += 1;
            let data = write_payload(op_no);
            let old = shadow[offset as usize..(offset + REQ) as usize].to_vec();
            let req = write_req(file, offset, data.clone());
            let now = SimTime::from_secs(now_s);
            let plan = mw.plan_io(&mut cluster, now, &req);
            run_plan(&mut cluster, &mut mw, Some(&fuse), &plan, now);
            if fuse.borrow().is_dead() {
                wild = Some((offset, old, data));
                finish!();
            }
            shadow[offset as usize..(offset + REQ) as usize].copy_from_slice(&data);
        }};
    }

    // An app read only marks CDT flags; it has no durable effect of its
    // own, but the plan may still carry a journal frame.
    macro_rules! app_read {
        ($offset:expr) => {{
            let req = AppRequest {
                rank: Rank(0),
                file,
                kind: IoKind::Read,
                offset: $offset,
                len: REQ,
                data: None,
            };
            let now = SimTime::from_secs(now_s);
            let plan = mw.plan_io(&mut cluster, now, &req);
            run_plan(&mut cluster, &mut mw, Some(&fuse), &plan, now);
            if fuse.borrow().is_dead() {
                finish!();
            }
        }};
    }

    // Run the Rebuilder to quiescence: flushes, fetches, checkpoints.
    macro_rules! drain {
        () => {{
            for _ in 0..40 {
                now_s += 1;
                let now = SimTime::from_secs(now_s);
                let poll = mw.poll_background(&mut cluster, now);
                if fuse.borrow().is_dead() {
                    finish!();
                }
                for plan in &poll.plans {
                    run_plan(&mut cluster, &mut mw, Some(&fuse), plan, now);
                    if fuse.borrow().is_dead() {
                        finish!();
                    }
                }
                if !poll.work_pending {
                    break;
                }
            }
        }};
    }

    // Phase 1: fill most of the cache with critical writes.
    for i in 0..10u64 {
        app_write!(i * REQ);
    }
    // Phase 2: flush them clean; first checkpoint lands here.
    drain!();
    // Phase 3: fill the remaining capacity at fresh offsets.
    for i in 0..6u64 {
        app_write!(512 * KIB + i * REQ);
    }
    // Phase 4: flag two cold ranges for fetching; the fetches must evict
    // clean phase-1 extents to make room.
    app_read!(MIB);
    app_read!(MIB + 4 * REQ);
    drain!();
    // Phase 5: more writes into a full cache — more evictions.
    for i in 0..4u64 {
        app_write!(256 * KIB + i * REQ);
    }
    drain!();
    finish!();
}

/// Recovers from the outcome's cluster and verifies every invariant plus
/// byte-exact reads against the shadow model.
fn verify_recovery(mut outcome: Outcome) -> s4d::cache::RecoveryReport {
    let (mut mw, report) = S4dCache::recover_from_cluster(
        torture_config(),
        CostParams::paper_testbed_small(),
        &mut outcome.cluster,
    );
    check_invariants(&outcome.cluster, &mw);
    let file = mw
        .open(&mut outcome.cluster, Rank(0), "torture.dat")
        .unwrap();
    let step = 64 * KIB;
    for chunk in 0..(FILE_LEN / step) {
        let offset = chunk * step;
        let got = read_through(&mut outcome.cluster, &mut mw, file, offset, step);
        for (i, &got_byte) in got.iter().enumerate() {
            let abs = offset + i as u64;
            let expect = outcome.shadow[abs as usize];
            let in_wild = outcome
                .wild
                .as_ref()
                .filter(|(w_off, ..)| abs >= *w_off && abs < *w_off + REQ);
            match in_wild {
                Some((w_off, old, new)) => {
                    let rel = (abs - w_off) as usize;
                    assert!(
                        got_byte == old[rel] || got_byte == new[rel],
                        "byte {abs}: got {got_byte}, expected old {} or new {}",
                        old[rel],
                        new[rel]
                    );
                }
                None => {
                    assert_eq!(
                        got_byte, expect,
                        "acknowledged byte {abs} diverged after recovery"
                    );
                }
            }
        }
    }
    report
}

/// The sites the deterministic workload must exercise (6+ distinct crash
/// points, per the torture-matrix requirement).
const REQUIRED_SITES: [CrashSite; 8] = [
    CrashSite::DataWrite,
    CrashSite::JournalWrite,
    CrashSite::SyncAppend,
    CrashSite::EvictDiscard,
    CrashSite::FlushCopy,
    CrashSite::FetchFill,
    CrashSite::CheckpointWrite,
    CrashSite::JournalTruncate,
];

#[test]
fn crash_matrix_every_budget_recovers() {
    // Clean run: record the durable-step trace.
    let clean = run_workload(None);
    assert!(!clean.crashed());
    let steps: Vec<_> = clean.fuse.borrow().steps().to_vec();
    let recorded: BTreeSet<CrashSite> = steps.iter().map(|s| s.site).collect();
    for site in REQUIRED_SITES {
        assert!(
            recorded.contains(&site),
            "workload never exercised {site:?}; the matrix would not cover it"
        );
    }
    // The clean run itself must verify (recovery of an uncrashed cluster).
    verify_recovery(clean);

    // Crash matrix: at the start and in the middle of every step.
    let mut budgets = BTreeSet::new();
    for s in &steps {
        budgets.insert(s.start);
        if s.len > 1 {
            budgets.insert(s.start + s.len / 2);
        }
    }
    let mut crashed_sites: BTreeSet<CrashSite> = BTreeSet::new();
    for &budget in &budgets {
        let outcome = run_workload(Some(budget));
        assert!(
            outcome.crashed(),
            "budget {budget} below the clean total must crash"
        );
        if let Some(site) = outcome.crash_site() {
            crashed_sites.insert(site);
        }
        verify_recovery(outcome);
    }
    for site in REQUIRED_SITES {
        assert!(
            crashed_sites.contains(&site),
            "no budget attributed a crash to {site:?}"
        );
    }
}

#[test]
fn flush_idempotency_after_mid_flush_crash() {
    // Find the first flush copy in the clean trace and crash halfway
    // through it.
    let clean = run_workload(None);
    let target = clean
        .fuse
        .borrow()
        .steps()
        .iter()
        .find(|s| s.site == CrashSite::FlushCopy)
        .copied()
        .expect("workload flushes");
    let outcome = run_workload(Some(target.start + target.len / 2));
    assert_eq!(outcome.crash_site(), Some(CrashSite::FlushCopy));
    let mut cluster = outcome.cluster;
    let shadow = outcome.shadow;

    let (mut mw, _report) = S4dCache::recover_from_cluster(
        torture_config(),
        CostParams::paper_testbed_small(),
        &mut cluster,
    );
    check_invariants(&cluster, &mw);
    // The torn flush never recorded its SetClean: the extent is still
    // dirty, so the flush is simply re-done — idempotently.
    assert!(mw.plane().dirty_bytes() > 0, "mid-flush crash leaves dirt");
    let file = mw.open(&mut cluster, Rank(0), "torture.dat").unwrap();
    for round in 0..40u64 {
        let now = SimTime::from_secs(100 + round);
        let poll = mw.poll_background(&mut cluster, now);
        for plan in &poll.plans {
            assert!(run_plan(&mut cluster, &mut mw, None, plan, now));
        }
        if !poll.work_pending {
            break;
        }
    }
    assert_eq!(mw.plane().dirty_bytes(), 0, "re-flush completes");
    // After the re-flush, OPFS holds every acknowledged byte exactly.
    let opfs = cluster
        .opfs()
        .read_bytes(file, 0, FILE_LEN)
        .unwrap()
        .expect("functional stores");
    assert_eq!(opfs, shadow, "re-flushed bytes diverged");
}

#[test]
fn checkpoint_bounds_recovery_and_torn_install_falls_back() {
    // Clean run: the low threshold makes checkpoints fire mid-workload,
    // so recovery replays a bounded snapshot+tail instead of the full
    // journal history.
    let clean = run_workload(None);
    let ckpt_steps: Vec<_> = clean
        .fuse
        .borrow()
        .steps()
        .iter()
        .filter(|s| s.site == CrashSite::CheckpointWrite)
        .copied()
        .collect();
    assert!(!ckpt_steps.is_empty(), "workload checkpoints");
    // The full journal history the run produced, from the durable trace:
    // every journal append is a JournalWrite or SyncAppend step.
    let journal_bytes: u64 = clean
        .fuse
        .borrow()
        .steps()
        .iter()
        .filter(|s| matches!(s.site, CrashSite::JournalWrite | CrashSite::SyncAppend))
        .map(|s| s.len)
        .sum();
    let total_history = journal_bytes / DMT_RECORD_BYTES;
    let mut cluster = clean.cluster;
    let (_mw, report) = S4dCache::recover_from_cluster(
        torture_config(),
        CostParams::paper_testbed_small(),
        &mut cluster,
    );
    assert!(report.used_checkpoint.is_some(), "snapshot slot used");
    assert!(
        report.records_replayed() < total_history,
        "compaction must bound replay: replayed {} of {} total records",
        report.records_replayed(),
        total_history
    );
    assert!(
        report.tail_records < total_history,
        "the replayed tail must exclude the compacted prefix"
    );

    // Crash halfway through the *last* checkpoint install: the CRC
    // trailer never lands, so recovery falls back to the previous slot
    // (or the full journal if it was the first) — and still verifies.
    let torn = *ckpt_steps.last().unwrap();
    let outcome = run_workload(Some(torn.start + torn.len / 2));
    assert_eq!(outcome.crash_site(), Some(CrashSite::CheckpointWrite));
    let prior_seq = (ckpt_steps.len() as u64).saturating_sub(1);
    let report = verify_recovery(outcome);
    assert_eq!(
        report.used_checkpoint,
        (prior_seq > 0).then_some(prior_seq),
        "torn install must fall back to the previous slot"
    );
}

#[test]
fn journal_before_ack_audit() {
    // Every mutation is in the journaling pipeline before the middleware
    // yields control: pending_records() is zero at every observable point.
    // (The same predicate is debug_assert'ed inside plan_io,
    // on_plan_complete, and poll_background, so every other test in this
    // file audits it continuously.)
    let mut cluster = Cluster::paper_testbed_small(5);
    let mut mw = S4dCache::new(torture_config(), CostParams::paper_testbed_small());
    let file = mw.open(&mut cluster, Rank(0), "audit.dat").unwrap();
    let journal = cluster.cpfs_mut().create_or_open(JOURNAL_NAME);
    for i in 0..6u64 {
        let req = write_req(file, i * REQ, write_payload(i));
        let plan = mw.plan_io(&mut cluster, SimTime::ZERO, &req);
        assert_eq!(mw.plane().pending_records(), 0, "unjournaled mutation");
        // Data before metadata (DESIGN.md §9): at batch size 1 every
        // admission carries its journal frame, and that write runs in the
        // plan's `then` with nothing beside it — a mapping record can
        // never become durable ahead of the bytes it maps.
        let is_journal = |op: &PlannedIo| op.tier == Tier::CServers && op.file == journal;
        assert!(
            !plan.ops.iter().any(is_journal) && !plan.then.is_empty(),
            "journal write must run in `then` only: {plan:?}"
        );
        assert!(
            plan.then.iter().all(is_journal),
            "`then` must hold only the journal write: {plan:?}"
        );
        assert!(run_plan(&mut cluster, &mut mw, None, &plan, SimTime::ZERO));
        assert_eq!(mw.plane().pending_records(), 0, "completion left records");
    }
    for round in 0..10u64 {
        let now = SimTime::from_secs(1 + round);
        let poll = mw.poll_background(&mut cluster, now);
        assert_eq!(mw.plane().pending_records(), 0, "background left records");
        for plan in &poll.plans {
            assert!(run_plan(&mut cluster, &mut mw, None, plan, now));
        }
        if !poll.work_pending {
            break;
        }
    }
}
