//! What the benchmark prints and writes: the metric tables, the
//! driver's result line, `out/latest.json`, the A/A comparison and the
//! raw span dump.

use std::io::Write;

use crate::json::{array, string, Obj};
use crate::measure::{EndToEnd, Layers};
use crate::metrics::{Better, Metric, Values, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::timed::Span;
use crate::verify::Verified;
use crate::workload::WORKLOADS;

/// Everything one workload reported.
pub struct WorkloadResult {
    pub name: &'static str,
    pub end_to_end: Values,
    pub per_layer: Option<Values>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub warmup_s: f64,
    /// Per-repetition set-up, seconds.
    pub setup: Summary,
    pub ns_per_req: Summary,
    pub samples: (usize, usize),
    /// (wall ns, on-CPU ns) of each timed repetition.
    pub wall_cpu: Vec<(u64, Option<u64>)>,
    pub preempted: usize,
    pub verified: Verified,
    /// Failed checks, in words. Empty on a healthy run.
    pub failures: Vec<String>,
}

impl WorkloadResult {
    pub fn new(e2e: &EndToEnd, verified: &Verified) -> WorkloadResult {
        let sim = e2e.counted.sim_figures().expect("warm-up observes latency");
        let (setup, ns_per_req) = e2e.summaries();
        let ops_failed = e2e.ops_failed(verified);
        let mut failures = Vec::new();
        if e2e.drifted > 0 {
            failures.push(format!(
                "{} repetitions gave simulated results different from the warm-up's",
                e2e.drifted
            ));
        }
        if e2e.counted.completed() != e2e.ops_attempted() {
            failures.push(format!(
                "completed {} of {} requests",
                e2e.counted.completed(),
                e2e.ops_attempted()
            ));
        }
        if e2e.counted.unhealthy() > 0 {
            failures.push("fault-path counters moved on a healthy run".into());
        }
        if verified.failed_ops() > 0 {
            failures.push(format!("verification pass: {verified:?}"));
        }
        WorkloadResult {
            name: e2e.w.name,
            end_to_end: e2e.values(),
            per_layer: None,
            ops_attempted: e2e.ops_attempted(),
            ops_failed,
            warmup_s: e2e.warmup_s,
            setup,
            ns_per_req,
            samples: (sim.write_samples, sim.read_samples),
            wall_cpu: e2e.host.wall_cpu.clone(),
            preempted: e2e.host.preempted(),
            verified: *verified,
            failures,
        }
    }

    pub fn add_layers(&mut self, layers: &Layers, e2e: &EndToEnd, verified: &Verified) {
        self.failures.extend(layers.failures(e2e));
        self.per_layer = Some(layers.values(e2e, verified));
    }

    pub fn print(&self, quick: bool) {
        let label = if quick {
            "  [--quick: 1/8 size, 1 repetition, NOT comparable]"
        } else {
            ""
        };
        println!("\n== {}{label}", self.name);
        println!(
            "  ops_attempted {}  ops_failed {}  (verification: {} reads compared, {} mismatches)",
            self.ops_attempted,
            self.ops_failed,
            self.verified.reads_checked,
            self.verified.mismatches
        );
        for (m, (_, v)) in END_TO_END.iter().zip(&self.end_to_end) {
            let note = match m.name {
                "setup_s" => format!(
                    "  (warm-up {:.6} + per-repetition set-up:{})",
                    self.warmup_s,
                    spread(&self.setup)
                ),
                "host_ns_per_req" => spread(&self.ns_per_req),
                "sim_write_p50_ms" | "sim_write_p99_ms" => {
                    format!("  ({} samples)", self.samples.0)
                }
                "sim_read_p50_ms" | "sim_read_p99_ms" => format!("  ({} samples)", self.samples.1),
                _ => String::new(),
            };
            println!(
                "  {:<24} {:>16.6} {:<7} [{}]{note}",
                m.name, v, m.unit, m.clock
            );
        }
        let reps: Vec<String> = self
            .wall_cpu
            .iter()
            .map(|(wall, cpu)| match cpu {
                Some(c) => format!("{:.0}/{:.0}", *wall as f64 / 1e6, *c as f64 / 1e6),
                None => format!("{:.0}/?", *wall as f64 / 1e6),
            })
            .collect();
        println!(
            "  timed repetitions, wall/on-CPU ms: {}  (preempted: {})",
            reps.join(" "),
            self.preempted
        );
        if let Some(layers) = &self.per_layer {
            println!("  -- per layer");
            for (m, (_, v)) in PER_LAYER.iter().zip(layers) {
                println!("  {:<50} {:>16.4} {:<7} [{}]", m.name, v, m.unit, m.clock);
            }
        }
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }

    fn json(&self) -> String {
        let values = |table: &[Metric], values: &Values| {
            let mut o = Obj::new();
            for (m, (_, v)) in table.iter().zip(values) {
                o = o.raw(
                    m.name,
                    &Obj::new()
                        .num("value", *v)
                        .str("unit", m.unit)
                        .str("clock", m.clock)
                        .finish(),
                );
            }
            o.finish()
        };
        let summary = |s: &Summary| {
            Obj::new()
                .num("median", s.median)
                .num("min", s.min)
                .num("max", s.max)
                .int("n", s.n as u64)
                .finish()
        };
        let mut o = Obj::new()
            .int("ops_attempted", self.ops_attempted)
            .int("ops_failed", self.ops_failed)
            .raw("end_to_end", &values(&END_TO_END, &self.end_to_end))
            .num("warmup_s", self.warmup_s)
            .raw("per_rep_setup_s_spread", &summary(&self.setup))
            .raw("host_ns_per_req_spread", &summary(&self.ns_per_req))
            .int("preempted_reps", self.preempted as u64)
            .raw("failures", &array(self.failures.iter().map(|f| string(f))));
        if let Some(layers) = &self.per_layer {
            o = o.raw("per_layer", &values(&PER_LAYER, layers));
        }
        o.finish()
    }
}

fn spread(s: &Summary) -> String {
    format!("  (median of {}, min {:.6}, max {:.6})", s.n, s.min, s.max)
}

/// The results of one complete set.
pub struct WorkloadSet {
    pub seed: u64,
    pub results: Vec<WorkloadResult>,
}

impl WorkloadSet {
    pub fn print(&self, quick: bool) {
        for r in &self.results {
            r.print(quick);
        }
    }

    fn json(&self) -> String {
        let mut o = Obj::new();
        for r in &self.results {
            o = o.raw(r.name, &r.json());
        }
        o.finish()
    }
}

/// The one-line result the benchmark driver reads (always the last line
/// of standard output).
///
/// # Panics
///
/// Panics if `traced` and the result carries no per-layer metrics.
pub fn driver_line(result: &WorkloadResult, traced: bool) -> String {
    let (table, metrics): (&[Metric], &Values) = if traced {
        (&PER_LAYER, result.per_layer.as_ref().expect("a traced run"))
    } else {
        (&END_TO_END, &result.end_to_end)
    };
    let mut m = Obj::new();
    for (meta, (_, v)) in table.iter().zip(metrics) {
        m = m.raw(
            meta.name,
            &Obj::new().num("value", *v).str("unit", meta.unit).finish(),
        );
    }
    Obj::new()
        .bool(
            "correct",
            result.failures.is_empty() && result.ops_failed == 0,
        )
        .int("attempted", result.ops_attempted)
        .int("failed", result.ops_failed)
        .raw("metrics", &m.finish())
        .finish()
}

/// Compares two sets of the same code and seed: per end-to-end metric
/// and workload both values, the relative difference and the bound.
/// Simulated figures must be identical; the others within their bound.
/// Returns whether every pair is.
pub fn print_aa(a: &WorkloadSet, b: &WorkloadSet, table: &[Metric]) -> bool {
    println!("\n== A/A: two sets of the same code");
    println!(
        "  {:<18} {:<22} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "set A", "set B", "diff %", "bound %"
    );
    let mut ok = true;
    for (ra, rb) in a.results.iter().zip(&b.results) {
        for (m, ((_, va), (_, vb))) in table.iter().zip(ra.end_to_end.iter().zip(&rb.end_to_end)) {
            let diff = (vb - va) / va;
            let within = if m.clock == "sim" {
                va == vb
            } else {
                diff.abs() <= m.bound
            };
            ok &= within;
            println!(
                "  {:<18} {:<22} {:>16.6} {:>16.6} {:>+9.3} {:>7.1}{}",
                ra.name,
                m.name,
                va,
                vb,
                diff * 100.0,
                m.bound * 100.0,
                match (within, m.clock) {
                    (true, _) => "",
                    (false, "sim") => "  SIMULATION NOT REPEATABLE",
                    (false, _) => "  OUTSIDE BOUND",
                }
            );
        }
    }
    ok
}

/// `out/latest.json`: every number of the run with the machine it ran on.
pub fn latest_json(a: &WorkloadSet, b: Option<&WorkloadSet>, quick: bool, reps: usize) -> String {
    let machine = Obj::new()
        .int(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .str(
            "rustc",
            &std::env::var("S4D_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        )
        .str("os", std::env::consts::OS)
        .str("arch", std::env::consts::ARCH)
        .finish();
    let mut o = Obj::new()
        .raw("machine", &machine)
        .int("seed", a.seed)
        .int("timed_repetitions", reps as u64)
        .bool("comparable", !quick)
        .raw("workloads", &a.json());
    if let Some(b) = b {
        o = o.raw("aa_second_set", &b.json());
    }
    o.finish() + "\n"
}

/// Writes raw spans as CSV.
pub fn dump_spans(path: &str, logs: &[(&str, &[Span])]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "workload,id,parent,layer,req,start_ns,end_ns")?;
    for (name, spans) in logs {
        for (id, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{name},{id},{},{:?},{},{},{}",
                s.parent, s.layer, s.req, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

/// The contents of `BENCHMARK.json`, generated from the tables so the
/// two cannot drift (`run.sh --emit-benchmark-json`).
pub fn benchmark_json() -> String {
    let better = |b: Better| string(b.as_str());
    let workloads = WORKLOADS.iter().map(|(name, why)| {
        format!(
            "    {}",
            Obj::new().str("name", name).str("why", why).finish()
        )
    });
    let e2e = END_TO_END.iter().map(|m| {
        format!(
            "    {}",
            Obj::new()
                .str("name", m.name)
                .str("unit", m.unit)
                .raw("better", &better(m.better))
                .num("bound", m.bound)
                .finish()
        )
    });
    let layers = PER_LAYER.iter().map(|m| {
        format!(
            "    {}",
            Obj::new()
                .str("name", m.name)
                .str("unit", m.unit)
                .raw("better", &better(m.better))
                .finish()
        )
    });
    let list = |items: Vec<String>| format!("[\n{}\n  ]", items.join(",\n"));
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}",
        RUN_SECONDS,
        list(workloads.collect()),
        list(e2e.collect()),
        list(layers.collect()),
    )
}

/// How long the driver lets one run measure.
const RUN_SECONDS: u32 = 10;
