//! The repo's benchmark: simulated behaviour, host cost and a per-layer
//! table on five named workloads. See `benchmark/README.md`.
//!
//! One process, one thread, like the simulator it measures.

mod alloc;
mod harness;
mod json;
mod measure;
mod metrics;
mod replay;
mod report;
mod stats;
mod timed;
mod verify;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use measure::{EndToEnd, Layers};
use metrics::END_TO_END;
use report::{WorkloadResult, WorkloadSet};
use workload::{Scale, Workload, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Timed repetitions per workload of a full run. Raised (not the
/// bounds) if two sets of the same code stop agreeing; see README.
const REPS: usize = 9;

const USAGE: &str = "\
usage: run.sh [--seed N] [--aa] [--quick] [--dump-spans PATH] [--out PATH]
       run.sh --workload NAME --seed N --seconds S --trace 0|1
       run.sh --test

  (no --workload)  every workload: 1 warm-up + 9 timed repetitions each,
                   interleaved, then the traced run; prints every metric
                   and exits non-zero on any failed check
  --aa             two complete sets back to back; fails if any
                   end-to-end metric differs by more than its bound
  --quick          1 repetition at 1/8 size: a smoke test, NOT comparable
  --workload NAME  one workload, for the benchmark driver: measures for
                   --seconds and prints one JSON object as the last line
                   (--trace 0: end-to-end metrics, --trace 1: per-layer)";

#[derive(Debug, Default)]
struct Args {
    seed: Option<u64>,
    workload: Option<String>,
    seconds: Option<f64>,
    trace: bool,
    aa: bool,
    quick: bool,
    dump_spans: Option<String>,
    out: Option<String>,
    emit_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => a.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--workload" => a.workload = Some(value()?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--aa" => a.aa = true,
            "--quick" => a.quick = true,
            "--dump-spans" => a.dump_spans = Some(value()?),
            "--out" => a.out = Some(value()?),
            "--emit-benchmark-json" => a.emit_manifest = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.emit_manifest {
        println!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let ok = match &args.workload {
        Some(name) => driver_run(name, &args),
        None => full_run(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload for `--seconds`, as the benchmark driver calls it.
fn driver_run(name: &str, args: &Args) -> bool {
    let (Some(seed), Some(seconds)) = (args.seed, args.seconds) else {
        eprintln!("error: --workload needs --seed and --seconds\n\n{USAGE}");
        return false;
    };
    let Some(w) = Workload::build(name, seed, Scale::Full) else {
        eprintln!(
            "error: unknown workload {name}; known: {:?}",
            WORKLOADS.map(|w| w.0)
        );
        return false;
    };
    let mut e2e = EndToEnd::start(w);
    let mut layers = Layers::new();
    // Measure until the timed regions add up to --seconds (at least 3
    // repetitions), so a workload with a long untimed prefill gets as
    // many samples as the others.
    while e2e.host.ns_per_req.len() < 3
        || e2e.host.timed_seconds() + layers.timed_seconds() < seconds
    {
        e2e.rep();
        if args.trace {
            layers.cycle(&e2e);
        }
    }
    let verified = verify::verify(name, seed);
    let mut result = WorkloadResult::new(&e2e, &verified);
    if args.trace {
        result.add_layers(&layers, &e2e, &verified);
        if let Some(path) = &args.dump_spans {
            if let Err(e) = report::dump_spans(path, &[(name, layers.spans())]) {
                result.failures.push(format!("--dump-spans {path}: {e}"));
            }
        }
    }
    result.print(false);
    println!("{}", report::driver_line(&result, args.trace));
    result.failures.is_empty()
}

/// One complete set: every workload, repetitions interleaved round-robin
/// so a noisy period on a shared machine is spread over all of them.
fn one_set(seed: u64, scale: Scale, reps: usize, dump: Option<&str>) -> WorkloadSet {
    let mut runs: Vec<EndToEnd> = WORKLOADS
        .iter()
        .map(|(name, _)| {
            let w = Workload::build(name, seed, scale).expect("a named workload");
            eprintln!("  warm-up   {name}");
            EndToEnd::start(w)
        })
        .collect();
    for i in 0..reps {
        eprintln!("  timed repetition {}/{reps}", i + 1);
        for e2e in &mut runs {
            e2e.rep();
        }
    }
    let mut results = Vec::new();
    let mut spans = Vec::new();
    for e2e in &runs {
        eprintln!("  traced    {}", e2e.w.name);
        let mut layers = Layers::new();
        layers.cycle(e2e);
        let verified = verify::verify(e2e.w.name, seed);
        let mut result = WorkloadResult::new(e2e, &verified);
        result.add_layers(&layers, e2e, &verified);
        if dump.is_some() {
            spans.push((e2e.w.name, layers.spans().to_vec()));
        }
        results.push(result);
    }
    let mut set = WorkloadSet { seed, results };
    if let Some(path) = dump {
        let borrowed: Vec<_> = spans.iter().map(|(n, s)| (*n, s.as_slice())).collect();
        if let Err(e) = report::dump_spans(path, &borrowed) {
            set.results[0]
                .failures
                .push(format!("--dump-spans {path}: {e}"));
        }
    }
    set
}

fn full_run(args: &Args) -> bool {
    let seed = args.seed.unwrap_or(7);
    let (scale, reps) = if args.quick {
        (Scale::Quick, 1)
    } else {
        (Scale::Full, REPS)
    };
    let clock = Instant::now();
    eprintln!("set A (seed {seed})");
    let a = one_set(seed, scale, reps, args.dump_spans.as_deref());
    a.print(args.quick);
    let mut ok = a.results.iter().all(|r| r.failures.is_empty());
    let mut second = None;
    if args.aa {
        eprintln!("set B (seed {seed})");
        let b = one_set(seed, scale, reps, None);
        ok &= b.results.iter().all(|r| r.failures.is_empty());
        ok &= report::print_aa(&a, &b, &END_TO_END);
        second = Some(b);
    }
    if let Some(path) = &args.out {
        let text = report::latest_json(&a, second.as_ref(), args.quick, reps);
        let written = std::path::Path::new(path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, text));
        match written {
            Ok(()) => println!("\nresults written to {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                ok = false;
            }
        }
    }
    println!(
        "\n{} in {:.1} s",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        clock.elapsed().as_secs_f64()
    );
    ok
}
