//! The chaos CLI: seeded sweeps, single-seed replays and repro replays.
//!
//! ```text
//! s4d-chaos --seeds 1000              # sweep seeds 0..1000, JSON to stdout
//! s4d-chaos --seeds 50 --start 200    # sweep seeds 200..250
//! s4d-chaos --seed 17                 # one seed, full report
//! s4d-chaos --repro repro.json        # replay a minimized repro file
//! s4d-chaos --seeds 100 --out repros/ # write minimized repros on failure
//! ```
//!
//! Exit status: 0 all green, 1 invariant violations, 2 usage error.
//! The oracle's own self-test is a mutation-gate row
//! (`tests/mutation_gate.rs`).

use std::process::ExitCode;

use s4d_chaos::{minimize, report_json, run_caught, sweep_json, Repro, Schedule};

struct Args {
    seeds: u64,
    start: u64,
    seed: Option<u64>,
    shards: u32,
    repro: Option<String>,
    out: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: s4d-chaos [--seeds N] [--start S] [--seed X] [--shards K] \
         [--repro FILE] [--out DIR]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ()> {
    let mut args = Args {
        seeds: 25,
        start: 0,
        seed: None,
        shards: 1,
        repro: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seeds" => args.seeds = it.next().ok_or(())?.parse().map_err(|_| ())?,
            "--start" => args.start = it.next().ok_or(())?.parse().map_err(|_| ())?,
            "--seed" => args.seed = Some(it.next().ok_or(())?.parse().map_err(|_| ())?),
            // Metadata-plane shard count for every run in this invocation;
            // the schedule itself (workload + fault script) is unchanged.
            "--shards" => args.shards = it.next().ok_or(())?.parse().map_err(|_| ())?,
            "--repro" => args.repro = Some(it.next().ok_or(())?),
            "--out" => args.out = Some(it.next().ok_or(())?),
            _ => return Err(()),
        }
    }
    Ok(args)
}

/// Minimizes a failing seed and writes its repro file under `out`.
fn write_repro(out: &str, seed: u64, shards: u32) {
    let schedule = Schedule::generate_with_shards(seed, shards);
    let Some(min) = minimize(&schedule) else {
        return;
    };
    let repro = Repro {
        seed,
        shards,
        keep: min.kept.clone(),
    };
    let path = format!("{out}/repro-seed-{seed}.json");
    if std::fs::create_dir_all(out).is_ok() && std::fs::write(&path, repro.to_json()).is_ok() {
        eprintln!(
            "seed {seed}: minimized to {} event(s) in {} runs -> {path}",
            min.kept.len(),
            min.runs
        );
        for e in &min.events {
            eprintln!("  {e}");
        }
    }
}

fn main() -> ExitCode {
    let Ok(args) = parse_args() else {
        return usage();
    };

    if let Some(path) = &args.repro {
        let Ok(text) = std::fs::read_to_string(path) else {
            eprintln!("cannot read repro file {path}");
            return ExitCode::from(2);
        };
        let repro = match Repro::parse(&text) {
            Ok(repro) => repro,
            Err(why) => {
                eprintln!("cannot replay repro file {path}: {why}");
                return ExitCode::from(2);
            }
        };
        let (schedule, report) = repro.run();
        eprintln!(
            "repro seed {} with {} event(s):",
            repro.seed,
            schedule.events.len()
        );
        for e in &schedule.events {
            eprintln!("  {}", e.describe());
        }
        println!("{}", report_json(&report));
        return if report.failed() {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        };
    }

    if let Some(seed) = args.seed {
        let report = run_caught(&Schedule::generate_with_shards(seed, args.shards));
        println!("{}", report_json(&report));
        if report.failed() {
            if let Some(out) = &args.out {
                write_repro(out, seed, args.shards);
            }
            return ExitCode::from(1);
        }
        return ExitCode::SUCCESS;
    }

    // Sweep mode.
    let mut reports = Vec::with_capacity(args.seeds as usize);
    for seed in args.start..args.start + args.seeds {
        let report = run_caught(&Schedule::generate_with_shards(seed, args.shards));
        if report.failed() {
            eprintln!(
                "seed {seed}: FAILED ({})",
                report
                    .violations
                    .first()
                    .map(|v| v.invariant.as_str())
                    .unwrap_or("?")
            );
            if let Some(out) = &args.out {
                write_repro(out, seed, args.shards);
            }
        }
        reports.push(report);
    }
    let failures = reports.iter().filter(|r| r.failed()).count();
    println!("{}", sweep_json(&reports));
    eprintln!("{} seed(s), {failures} failure(s)", reports.len());
    if failures > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
