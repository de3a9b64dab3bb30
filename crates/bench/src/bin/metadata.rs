//! Metadata-plane benchmark: pipeline throughput and group-commit
//! efficiency across shard counts (ROADMAP item 1, DESIGN.md §15).
//!
//! Two measurements, each at shard counts 1, 4, and 16:
//!
//! * **Pipeline ops/s** — the identify→redirect→admit pipeline driven
//!   through the public `Middleware::plan_io` seam with a shard-pure
//!   request stream (every request sits inside one stripe tile, so every
//!   metadata mutation it causes lands in one shard). Requests are
//!   grouped by owning shard and each shard's batch is wall-clock timed
//!   separately; the reported throughput is `total_ops /
//!   max(per-shard seconds)` — the critical path under shard-parallel
//!   execution, which is exactly what the sharded plane licenses (shards
//!   share no metadata state; the cross-count equivalence proptests prove
//!   byte-identical outcomes).
//! * **Journal appends per fsync** — a fresh middleware driven with the
//!   same tiles in file order, which round-robins the shards the way
//!   striped MPI-IO traffic does. Group commit coalesces every per-shard
//!   queue into one batch frame when any queue reaches the threshold, so
//!   appends-per-fsync scales with the shard count while each record
//!   still carries its own CRC frame. Reported straight from the
//!   middleware's own counters (`journal_records_written /
//!   journal_writes`), with batch occupancy = appends-per-fsync ÷
//!   (threshold × shards).
//!
//! Emits `BENCH_metadata.json` (hand-formatted: the workspace has no JSON
//! serializer dependency) and prints the same numbers to stdout.
//!
//! `--check` re-runs everything and gates on the *ratios*, which are
//! machine-independent: pipeline ops/s at 16 shards must be ≥ 2× the
//! 1-shard figure, and appends-per-fsync at 16 shards must be ≥ 4× the
//! 1-shard figure. The journal counters are simulation-deterministic, so
//! they are additionally compared against the committed baseline exactly.

use std::time::Instant;

use s4d_bench::testbed;
use s4d_cache::{S4dCache, S4dConfig};
use s4d_mpiio::{AppRequest, Cluster, Middleware, Rank};
use s4d_pfs::FileId;
use s4d_sim::SimTime;
use s4d_storage::IoKind;

const KIB: u64 = 1024;
/// Stripe tile size — must match the config's `shard_stripe` so a
/// tile-contained request is shard-pure.
const TILE: u64 = 64 * KIB;
/// Tiles in the workload; divisible by 16 so every shard count gets a
/// perfectly balanced slice.
const TILES: u64 = 3200;
/// Critical-sized requests per tile in the pipeline phase (16 KiB is the
/// paper's dominant critical request size).
const REQS_PER_TILE: u64 = 4;
const REQ_SIZE: u64 = TILE / REQS_PER_TILE;
/// Shard counts under measurement.
const SHARD_COUNTS: [u32; 3] = [1, 4, 16];

/// One shard count's measurements.
struct Sample {
    shards: u32,
    pipeline_ops_per_sec: f64,
    total_ops: u64,
    slowest_shard_secs: f64,
    journal_writes: u64,
    journal_records: u64,
    appends_per_fsync: f64,
    batch_occupancy: f64,
}

fn config_for(shards: u32) -> S4dConfig {
    // Capacity holds the whole 200 MiB region with headroom: the bench
    // measures the pipeline, not eviction.
    S4dConfig::new(512 * 1024 * KIB)
        .with_shards(shards)
        .with_shard_stripe(TILE)
}

fn open_target(mw: &mut S4dCache, cluster: &mut Cluster) -> FileId {
    match mw.open(cluster, Rank(0), "metadata.dat") {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open bench target: {e:?}");
            std::process::exit(2);
        }
    }
}

fn request(file: FileId, kind: IoKind, offset: u64, len: u64) -> AppRequest {
    AppRequest {
        rank: Rank(0),
        file,
        kind,
        offset,
        len,
        data: None,
    }
}

/// Pipeline phase: write, read back, and re-write every tile's requests,
/// one timed batch per owning shard.
fn run_pipeline(shards: u32) -> (f64, u64, f64) {
    let tb = testbed(0x4D47);
    let mut cluster = tb.cluster();
    let config = config_for(shards);
    let mut mw = S4dCache::new(config, tb.cost_params());
    let file = open_target(&mut mw, &mut cluster);
    let router = mw.plane().router();

    let mut tiles_of_shard: Vec<Vec<u64>> = vec![Vec::new(); shards as usize];
    for t in 0..TILES {
        let shard = router.shard_of(file, t * TILE);
        if let Some(list) = tiles_of_shard.get_mut(shard.index()) {
            list.push(t);
        }
    }

    let now = SimTime::ZERO;
    let mut total_ops = 0u64;
    let mut slowest = 0.0f64;
    for tiles in &tiles_of_shard {
        let started = Instant::now();
        let mut ops = 0u64;
        // Write pass: cold admissions (CDT insert, benefit pricing,
        // per-shard alloc + DMT insert, journal queue).
        for &t in tiles {
            for i in 0..REQS_PER_TILE {
                let off = t * TILE + i * REQ_SIZE;
                let _ = mw.plan_io(
                    &mut cluster,
                    now,
                    &request(file, IoKind::Write, off, REQ_SIZE),
                );
                ops += 1;
            }
        }
        // Read pass: full hits (range view, LRU touch).
        for &t in tiles {
            for i in 0..REQS_PER_TILE {
                let off = t * TILE + i * REQ_SIZE;
                let _ = mw.plan_io(
                    &mut cluster,
                    now,
                    &request(file, IoKind::Read, off, REQ_SIZE),
                );
                ops += 1;
            }
        }
        // Re-write pass: hot-path overwrites (view, mark_dirty, unseal).
        for &t in tiles {
            for i in 0..REQS_PER_TILE {
                let off = t * TILE + i * REQ_SIZE;
                let _ = mw.plan_io(
                    &mut cluster,
                    now,
                    &request(file, IoKind::Write, off, REQ_SIZE),
                );
                ops += 1;
            }
        }
        let secs = started.elapsed().as_secs_f64();
        slowest = slowest.max(secs);
        total_ops += ops;
    }
    let ops_per_sec = if slowest > 0.0 {
        total_ops as f64 / slowest
    } else {
        0.0
    };
    (ops_per_sec, total_ops, slowest)
}

/// Journal phase: whole-tile writes in file order (round-robin over the
/// shards), then read the middleware's group-commit counters.
fn run_journal(shards: u32) -> (u64, u64) {
    let tb = testbed(0x4D48);
    let mut cluster = tb.cluster();
    let config = config_for(shards);
    let mut mw = S4dCache::new(config, tb.cost_params());
    let file = open_target(&mut mw, &mut cluster);
    let now = SimTime::ZERO;
    for t in 0..TILES {
        let _ = mw.plan_io(
            &mut cluster,
            now,
            &request(file, IoKind::Write, t * TILE, TILE),
        );
    }
    let m = mw.metrics();
    (m.journal_writes, m.journal_records_written)
}

fn measure(shards: u32) -> Sample {
    let (pipeline_ops_per_sec, total_ops, slowest_shard_secs) = run_pipeline(shards);
    let (journal_writes, journal_records) = run_journal(shards);
    let appends_per_fsync = if journal_writes > 0 {
        journal_records as f64 / journal_writes as f64
    } else {
        0.0
    };
    let threshold = config_for(shards).journal_batch_records;
    let batch_occupancy = appends_per_fsync / (threshold as f64 * shards as f64);
    Sample {
        shards,
        pipeline_ops_per_sec,
        total_ops,
        slowest_shard_secs,
        journal_writes,
        journal_records,
        appends_per_fsync,
        batch_occupancy,
    }
}

fn sample_json(s: &Sample) -> String {
    format!(
        "  \"shards_{}\": {{\n    \"pipeline_ops_per_sec\": {:.0},\n    \
         \"total_ops\": {},\n    \"slowest_shard_secs\": {:.6},\n    \
         \"journal_writes\": {},\n    \"journal_records\": {},\n    \
         \"appends_per_fsync\": {:.2},\n    \"batch_occupancy\": {:.3}\n  }}",
        s.shards,
        s.pipeline_ops_per_sec,
        s.total_ops,
        s.slowest_shard_secs,
        s.journal_writes,
        s.journal_records,
        s.appends_per_fsync,
        s.batch_occupancy,
    )
}

/// Reads the first numeric value following `"key"` inside `text`.
fn field_f64(text: &str, key: &str) -> Option<f64> {
    let at = text.find(&format!("\"{key}\""))?;
    let rest = &text[at..];
    let tail = rest[rest.find(':')? + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// The regression gate: ratio thresholds on the fresh measurements
/// (machine-independent), plus exact comparison of the deterministic
/// journal counters against the committed baseline.
fn check(baseline_path: &str, samples: &[Sample]) -> i32 {
    let (Some(one), Some(sixteen)) = (
        samples.iter().find(|s| s.shards == 1),
        samples.iter().find(|s| s.shards == 16),
    ) else {
        eprintln!("missing shard-count samples");
        return 2;
    };
    let mut failed = false;
    let ops_gain = if one.pipeline_ops_per_sec > 0.0 {
        sixteen.pipeline_ops_per_sec / one.pipeline_ops_per_sec
    } else {
        0.0
    };
    let apf_gain = if one.appends_per_fsync > 0.0 {
        sixteen.appends_per_fsync / one.appends_per_fsync
    } else {
        0.0
    };
    let ops_ok = ops_gain >= 2.0;
    let apf_ok = apf_gain >= 4.0;
    println!(
        "pipeline ops/s 16-vs-1 shard: {:.2}x (need >= 2.0) [{}]",
        ops_gain,
        if ops_ok { "ok" } else { "REGRESSED" }
    );
    println!(
        "appends-per-fsync 16-vs-1 shard: {:.2}x (need >= 4.0) [{}]",
        apf_gain,
        if apf_ok { "ok" } else { "REGRESSED" }
    );
    failed |= !ops_ok || !apf_ok;
    match std::fs::read_to_string(baseline_path) {
        Ok(text) => {
            for s in samples {
                let Some(sect) = text.split(&format!("\"shards_{}\"", s.shards)).nth(1) else {
                    eprintln!("baseline has no \"shards_{}\" section", s.shards);
                    failed = true;
                    continue;
                };
                let (Some(base_writes), Some(base_records)) = (
                    field_f64(sect, "journal_writes"),
                    field_f64(sect, "journal_records"),
                ) else {
                    eprintln!("baseline \"shards_{}\" is missing counters", s.shards);
                    failed = true;
                    continue;
                };
                let writes_ok = s.journal_writes as f64 == base_writes;
                let records_ok = s.journal_records as f64 == base_records;
                println!(
                    "shards_{}: journal writes {} vs baseline {} [{}]  records {} vs {} [{}]",
                    s.shards,
                    s.journal_writes,
                    base_writes,
                    if writes_ok { "ok" } else { "DRIFTED" },
                    s.journal_records,
                    base_records,
                    if records_ok { "ok" } else { "DRIFTED" },
                );
                failed |= !writes_ok || !records_ok;
            }
        }
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            failed = true;
        }
    }
    if failed {
        eprintln!("metadata bench gate FAILED");
        1
    } else {
        println!("metadata bench gate passed against {baseline_path}");
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let samples: Vec<Sample> = SHARD_COUNTS.iter().map(|&n| measure(n)).collect();
    for s in &samples {
        println!(
            "shards {:>2}: {:>9.0} pipeline ops/s (slowest shard {:.4}s of {} ops)  \
             {:>7.1} appends/fsync  occupancy {:.3}  ({} writes / {} records)",
            s.shards,
            s.pipeline_ops_per_sec,
            s.slowest_shard_secs,
            s.total_ops,
            s.appends_per_fsync,
            s.batch_occupancy,
            s.journal_writes,
            s.journal_records,
        );
    }
    if args.get(1).map(String::as_str) == Some("--check") {
        let path = args.get(2).map_or("BENCH_metadata.json", String::as_str);
        std::process::exit(check(path, &samples));
    }
    let body: Vec<String> = samples.iter().map(sample_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"metadata\",\n  \"workload\": {{\n    \"tiles\": {TILES},\n    \
         \"tile_bytes\": {TILE},\n    \"pipeline_request_bytes\": {REQ_SIZE},\n    \
         \"pipeline_passes\": 3\n  }},\n{}\n}}\n",
        body.join(",\n"),
    );
    let path = "BENCH_metadata.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}
