//! Crash-consistency demo: kill the middleware mid-effect at three
//! different durable steps — a torn cache-data write, a torn journal
//! append, and a torn checkpoint install — then rebuild it from nothing
//! but the cluster's persisted bytes and show what recovery found. A
//! final act flips a cached bit under a valid seal and lets the scrubber
//! repair it from the DServers.
//!
//! ```text
//! cargo run --release --example crash_consistency_demo
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use s4d::cache::{exec_plan_fused, CrashFuse, CrashSite, S4dCache, S4dConfig};
use s4d::cost::CostParams;
use s4d::mpiio::{AppRequest, Cluster, Middleware, Plan, Rank};
use s4d::pfs::FileId;
use s4d::sim::SimTime;
use s4d::storage::IoKind;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;
const REQ: u64 = 16 * KIB;

fn config() -> S4dConfig {
    S4dConfig::new(MIB)
        .with_journal_batch(1)
        .with_checkpoint_after(24)
        .with_scrub(MIB)
}

/// Executes a plan against the functional stores; application payloads
/// and plan-carried journal frames pass through the fuse.
fn exec_plan(cluster: &mut Cluster, fuse: &RefCell<CrashFuse>, plan: &Plan) -> bool {
    exec_plan_fused(cluster, Some(fuse), plan, None, |_, _| {}).expect("healthy stores")
}

/// Runs the demo workload until it finishes or the fuse blows, and
/// returns the cluster as the crash left it.
fn run_until_crash(budget: Option<u64>) -> (Cluster, Rc<RefCell<CrashFuse>>) {
    let mut cluster = Cluster::paper_testbed_small(2026);
    let mut mw = S4dCache::new(config(), CostParams::paper_testbed_small());
    let fuse = match budget {
        Some(b) => CrashFuse::armed(b).shared(),
        None => CrashFuse::unlimited().shared(),
    };
    mw.attach_crash_fuse(fuse.clone());
    let file = mw.open(&mut cluster, Rank(0), "demo.dat").unwrap();
    'script: for round in 0..3u64 {
        for i in 0..8u64 {
            let offset = (round * 8 + i) * REQ;
            let data: Vec<u8> = (0..REQ).map(|j| ((offset + j) % 241) as u8).collect();
            let req = AppRequest {
                rank: Rank(0),
                file,
                kind: IoKind::Write,
                offset,
                len: REQ,
                data: Some(data),
            };
            let plan = mw.plan_io(&mut cluster, SimTime::from_secs(round), &req);
            if !exec_plan(&mut cluster, &fuse, &plan) {
                break 'script;
            }
            if plan.tag != 0 {
                mw.on_plan_complete(&mut cluster, SimTime::from_secs(round), plan.tag);
            }
        }
        for wake in 0..20u64 {
            let now = SimTime::from_secs(10 + round * 30 + wake);
            let poll = mw.poll_background(&mut cluster, now);
            if fuse.borrow().is_dead() {
                break 'script;
            }
            for plan in &poll.plans {
                if !exec_plan(&mut cluster, &fuse, plan) {
                    break 'script;
                }
                if plan.tag != 0 {
                    mw.on_plan_complete(&mut cluster, now, plan.tag);
                }
            }
            if !poll.work_pending {
                break;
            }
        }
    }
    (cluster, fuse)
}

fn recover_and_report(label: &str, cluster: &mut Cluster) -> S4dCache {
    let (mw, report) =
        S4dCache::recover_from_cluster(config(), CostParams::paper_testbed_small(), cluster);
    println!("{label}");
    match report.used_checkpoint {
        Some(seq) => println!(
            "  checkpoint slot: seq {seq} ({} snapshot records)",
            report.snapshot_records
        ),
        None => println!("  checkpoint slot: none (full journal replay)"),
    }
    println!(
        "  journal tail: {} records replayed, {} torn bytes truncated",
        report.tail_records, report.dropped_journal_bytes
    );
    println!(
        "  dropped {} torn extent(s); {} dirty bytes lost; {} orphan bytes swept",
        report.dropped_extents, report.dirty_bytes_lost, report.orphan_bytes_discarded
    );
    println!(
        "  recovered mapping: {} KiB cached ({} KiB dirty), space allocated {} KiB",
        mw.plane().mapped_bytes() / KIB,
        mw.plane().dirty_bytes() / KIB,
        mw.plane().allocated() / KIB
    );
    mw
}

fn main() {
    // Record the durable-step trace of a clean run: it defines where the
    // interesting crash points are.
    let (mut clean_cluster, fuse) = run_until_crash(None);
    let steps = fuse.borrow().steps().to_vec();
    println!(
        "clean run: {} durable steps, {} bytes persisted\n",
        steps.len(),
        fuse.borrow().consumed()
    );
    recover_and_report(
        "recovery of the cleanly-stopped cluster:",
        &mut clean_cluster,
    );

    for site in [
        CrashSite::DataWrite,
        CrashSite::JournalWrite,
        CrashSite::CheckpointWrite,
    ] {
        let Some(step) = steps.iter().find(|s| s.site == site && s.len > 1) else {
            continue;
        };
        let (mut cluster, fuse) = run_until_crash(Some(step.start + step.len / 2));
        let torn = fuse.borrow().steps().last().copied();
        println!(
            "\npower failure mid-{:?} ({} of {} bytes landed):",
            site,
            torn.map_or(0, |s| fuse.borrow().consumed() - s.start),
            torn.map_or(0, |s| s.len)
        );
        recover_and_report("after recovery:", &mut cluster);
    }

    // Bit rot under a valid seal: the scrubber catches and repairs it.
    println!("\nbit rot in a clean cached extent:");
    let (mut cluster, _fuse) = run_until_crash(None);
    let (mut mw, _) =
        S4dCache::recover_from_cluster(config(), CostParams::paper_testbed_small(), &mut cluster);
    let victim = mw
        .plane()
        .iter_extents()
        .find(|(_, _, e)| !e.dirty)
        .map(|(f, o, e)| (f, o, *e));
    match victim {
        None => println!("  (no clean extent survived to corrupt)"),
        Some((f, o, e)) => {
            let byte = cluster
                .cpfs()
                .read_bytes(e.c_file, e.c_offset, 1)
                .unwrap()
                .expect("functional stores");
            cluster
                .cpfs_mut()
                .apply_bytes(e.c_file, e.c_offset, 1, Some(&[byte[0] ^ 0x40]))
                .unwrap();
            println!("  flipped a bit in extent ({:?}, {o})", FileId(f.0));
            for wake in 0..4u64 {
                let poll = mw.poll_background(&mut cluster, SimTime::from_secs(1000 + wake));
                drop(poll); // scrub runs inside the wake itself
            }
            println!(
                "  scrubber: {} KiB scanned, {} KiB repaired from DServers, {} KiB lost",
                mw.metrics().scrub_scanned_bytes / KIB,
                mw.metrics().scrub_repaired_bytes / KIB,
                mw.metrics().scrub_lost_bytes / KIB
            );
        }
    }
}
