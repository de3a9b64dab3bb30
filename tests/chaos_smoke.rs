//! Tier-1 chaos smoke: a fixed seed block must run green and
//! deterministically. A red seed is shrunk by ddmin before the test
//! fails, so its message names the violated invariant and the minimal
//! event count — the evidence the mutation gate's
//! `eviction-reuses-space-before-durable-remove` row checks, proving the
//! oracle catches a seeded durability bug and the minimizer shrinks it.
//! The behaviour lock's `chaos/*-seeds1000` lines run the full 1,000-seed
//! sweeps in release; this block keeps the signal in tier-1 at
//! debug-build cost.

use s4d_chaos::{minimize, report_json, run, Schedule};

/// Every seed here exercises a different mix of fault families (the
/// generator draws 1–5 events per seed); all must hold every invariant.
#[test]
fn fixed_seed_block_is_green() {
    for seed in 0..16 {
        let schedule = Schedule::generate(seed);
        let report = run(&schedule);
        let Some(first) = report.violations.first() else {
            continue;
        };
        let min = minimize(&schedule).map_or(0, |m| m.kept.len());
        panic!(
            "seed {seed} violated {}; minimized to {min} event(s): {:?}",
            first.invariant, report.violations
        );
    }
}

/// Same seed, same bytes: the whole run — applied ops, read contents,
/// recovery reports, final counters — folds into the fingerprint, and
/// the JSON report must match byte-for-byte across runs.
#[test]
fn same_seed_is_byte_identical() {
    let schedule = Schedule::generate(9);
    let a = run(&schedule);
    let b = run(&schedule);
    assert_eq!(a.fingerprint, b.fingerprint, "fingerprints diverged");
    assert_eq!(report_json(&a), report_json(&b), "reports diverged");
}

/// The sharded metadata plane is an internal reorganization, so every
/// shard count the 1,000-seed sweeps exercise must stay green on the same
/// fixed seed block — same workload, same fault script, only the plane
/// partitioning differs — and each (seed, shards) pair must be
/// deterministic across runs.
#[test]
fn fixed_seed_block_is_green_at_every_shard_count() {
    for shards in [4, 16] {
        for seed in 0..6 {
            let schedule = Schedule::generate_with_shards(seed, shards);
            let report = run(&schedule);
            assert!(
                !report.failed(),
                "seed {seed} at {shards} shards violated invariants: {:?}",
                report.violations
            );
            let again = run(&schedule);
            assert_eq!(
                report.fingerprint, again.fingerprint,
                "seed {seed} at {shards} shards: fingerprint diverged across runs"
            );
        }
    }
}
