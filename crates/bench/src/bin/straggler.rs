//! Gray-failure straggler benchmark: runs both variants of
//! [`s4d_bench::straggler`] — read throughput and completion percentiles
//! under a tail-latency fault plan, with and without the
//! deadline/hedging machinery — and prints them.
//!
//! Emits `BENCH_straggler.json` (machine-readable, hand-formatted: the
//! workspace has no JSON serializer dependency) into the current
//! directory. The simulation is deterministic; `tests/behaviour.rs` pins
//! both variants exactly in `BEHAVIOUR.lock`.

use s4d_bench::straggler::{
    run_variant, Variant, RANKS, REQUESTS, REQ_SIZE, TAIL_FACTOR, TAIL_PROBABILITY,
};

fn variant_json(v: &Variant) -> String {
    let g = &v.report.gray;
    format!(
        "  \"{}\": {{\n    \"reads_per_sec\": {:.1},\n    \"p50_ms\": {:.3},\n    \
         \"p99_ms\": {:.3},\n    \"max_ms\": {:.3},\n    \"deadline_misses\": {},\n    \
         \"hedges_issued\": {},\n    \"hedges_won\": {},\n    \"stall_abandons\": {},\n    \
         \"replans\": {}\n  }}",
        v.name,
        v.reads_per_sec,
        v.p50_ms,
        v.p99_ms,
        v.max_ms,
        g.deadline_misses,
        g.hedges_issued,
        g.hedges_won,
        g.stall_abandons,
        v.report.degraded.replans,
    )
}

fn main() {
    let baseline = run_variant("baseline", false);
    let hedged = run_variant("hedged", true);
    for v in [&baseline, &hedged] {
        println!(
            "{:>8}: {:.1} reads/s  p50 {:.3} ms  p99 {:.3} ms  max {:.3} ms  \
             (misses {}, hedges {}/{})",
            v.name,
            v.reads_per_sec,
            v.p50_ms,
            v.p99_ms,
            v.max_ms,
            v.report.gray.deadline_misses,
            v.report.gray.hedges_won,
            v.report.gray.hedges_issued,
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"straggler\",\n  \"workload\": {{\n    \"ranks\": {RANKS},\n    \
         \"requests_per_rank\": {REQUESTS},\n    \"request_bytes\": {REQ_SIZE}\n  }},\n  \
         \"fault\": {{\n    \"kind\": \"tail-latency\",\n    \"server\": 0,\n    \
         \"probability\": {TAIL_PROBABILITY},\n    \"factor\": {TAIL_FACTOR}\n  }},\n{},\n{}\n}}\n",
        variant_json(&baseline),
        variant_json(&hedged),
    );
    let path = "BENCH_straggler.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}
