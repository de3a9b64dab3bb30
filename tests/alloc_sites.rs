//! Where the benchmark workloads allocate: the site report.
//!
//! Each test runs one of the five benchmark workloads
//! (`s4d::bench::benchmark`) at full size and seed 7 under the counting
//! allocator's site mode (`tests/common/alloc.rs`), counting what
//! `benchmark/`'s `host_allocs_per_req` and `host_peak_alloc_mib` count:
//! the allocation calls of `Runner::run`, and the peak live heap of the
//! run with its set-up included. It prints the calls per site (the first
//! three workspace frames, innermost first) and the blocks of at least
//! 256 KiB live at the peak, with their sites.
//!
//! The tests are `#[ignore]`d: a backtrace per allocation takes 1 to 10 s
//! per workload in the dev profile. Run one with
//! `cargo test --test alloc_sites ior_rand_16k -- --ignored --nocapture`.
//! The counts repeat run for run, but the sites depend on the build: the
//! release profile carries no debug info, so its backtraces lose the
//! inlined frames and book the same calls to their callers. DESIGN.md
//! §12's site tables are this report from the dev profile.

use s4d::bench::benchmark::Workload;
use s4d::bench::Scale;

#[path = "common/alloc.rs"]
mod alloc;

use alloc::{CountingAlloc, BIG_BLOCK};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `name` in site mode and prints its report.
fn report(name: &str) {
    let w = Workload::build(name, 7, Scale::PAPER).expect("a benchmark workload");
    alloc::start_sites();
    let mut runner = w.runner();
    alloc::reset_peak();
    alloc::clear_site_counts();
    let at_run = alloc::snapshot();
    let report = runner.run();
    let (end, sites) = alloc::stop_sites();
    let requests = report.writes.meter.ops() + report.reads.meter.ops();
    let allocs = end.allocs - at_run.allocs;
    let mut rows: Vec<(u64, &str)> = sites
        .counts
        .iter()
        .map(|(site, &n)| (n, site.as_str()))
        .collect();
    rows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
    assert_eq!(
        rows.iter().map(|&(n, _)| n).sum::<u64>(),
        allocs,
        "every counted call is booked to one site"
    );
    println!(
        "{name}: {allocs} allocations over {requests} requests ({:.4} each), \
         peak {} B ({:.2} MiB)",
        allocs as f64 / requests as f64,
        end.peak,
        end.peak as f64 / (1024.0 * 1024.0)
    );
    println!("{:>8} {:>6}  site", "allocs", "share");
    for (n, site) in &rows {
        println!(
            "{n:>8} {:>5.1}%  {site}",
            100.0 * *n as f64 / allocs.max(1) as f64
        );
    }
    let mut big = sites.big_at_peak;
    big.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    println!(
        "blocks of at least {} KiB live at the peak:",
        BIG_BLOCK / 1024
    );
    for (bytes, site) in &big {
        println!("{bytes:>10} B  {site}");
    }
}

#[test]
#[ignore = "a backtrace per allocation: run by hand with --ignored --nocapture"]
fn ior_rand_16k() {
    report("ior-rand-16k");
}

#[test]
#[ignore = "a backtrace per allocation: run by hand with --ignored --nocapture"]
fn ior_rand_16k_s16() {
    report("ior-rand-16k-s16");
}

#[test]
#[ignore = "a backtrace per allocation: run by hand with --ignored --nocapture"]
fn ior_seq_4m() {
    report("ior-seq-4m");
}

#[test]
#[ignore = "a backtrace per allocation: run by hand with --ignored --nocapture"]
fn warm_rerun_16k() {
    report("warm-rerun-16k");
}

#[test]
#[ignore = "a backtrace per allocation: run by hand with --ignored --nocapture"]
fn campaign_mix() {
    report("campaign-mix");
}
