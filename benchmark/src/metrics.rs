//! The benchmark's metrics by name: unit, clock, direction, and (for
//! end-to-end metrics) the regression bound. `BENCHMARK.json` carries
//! the same tables; a test keeps the two in step.
//!
//! Every number says which clock it uses: `sim` is simulated time (the
//! behaviour the paper reports, a function of the inputs alone), `host`
//! is wall-clock on this machine (the cost of producing it), `count` is
//! an exact count.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: &'static str,
    better: Better,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: &'static str,
    better: Better,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; every workload reports all of them.
///
/// The simulated figures repeat exactly for one seed, and `--aa` holds
/// them to that. The bounds here serve the benchmark's acceptance rule,
/// which compares medians over runs with *different* seeds: each is
/// about three times the widest seed-to-seed (for host time: run-to-run)
/// spread any workload showed on the machine the benchmark was built on
/// (README, "Bounds").
pub const END_TO_END: [Metric; 10] = [
    e2e("setup_s", "s", "host", Lower, 0.25),
    e2e("sim_write_mibs", "MiB/s", "sim", Higher, 0.10),
    e2e("sim_read_mibs", "MiB/s", "sim", Higher, 0.05),
    e2e("sim_write_p50_ms", "sim_ms", "sim", Lower, 0.25),
    e2e("sim_write_p99_ms", "sim_ms", "sim", Lower, 0.25),
    e2e("sim_read_p50_ms", "sim_ms", "sim", Lower, 0.25),
    e2e("sim_read_p99_ms", "sim_ms", "sim", Lower, 0.25),
    e2e("host_ns_per_req", "ns", "host", Lower, 0.25),
    e2e("host_allocs_per_req", "allocs", "count", Lower, 0.06),
    e2e("host_peak_alloc_mib", "MiB", "count", Lower, 0.20),
];

/// One layer at a time; layers are this repo's modules.
pub const PER_LAYER: [Metric; 74] = [
    layer("core.pipeline.plan_io.calls", "count", "count", Lower),
    layer("core.pipeline.plan_io.ns_per_call", "ns", "host", Lower),
    layer("core.pipeline.plan_io.p99_ns", "ns", "host", Lower),
    layer("core.pipeline.plan_io.share_pct", "%", "host", Lower),
    layer(
        "core.pipeline.plan_io.allocs_per_call",
        "allocs",
        "count",
        Lower,
    ),
    layer("core.pipeline.critical_ratio", "ratio", "count", Higher),
    layer("core.pipeline.cserver_op_share_pct", "%", "count", Higher),
    layer("core.pipeline.read_hit_ratio", "ratio", "count", Higher),
    layer(
        "core.pipeline.admission_denied_space",
        "count",
        "count",
        Lower,
    ),
    layer("core.background.poll.calls", "count", "count", Lower),
    layer("core.background.poll.ns_per_call", "ns", "host", Lower),
    layer("core.background.poll.share_pct", "%", "host", Lower),
    layer(
        "core.background.on_plan_complete.calls",
        "count",
        "count",
        Lower,
    ),
    layer(
        "core.background.on_plan_complete.ns_per_call",
        "ns",
        "host",
        Lower,
    ),
    layer(
        "core.background.on_plan_complete.share_pct",
        "%",
        "host",
        Lower,
    ),
    layer(
        "core.background.on_plan_complete.allocs_per_call",
        "allocs",
        "count",
        Lower,
    ),
    layer("core.background.flushes", "count", "count", Lower),
    layer("core.background.flushed_mib", "MiB", "count", Lower),
    layer("core.background.fetches", "count", "count", Higher),
    layer("core.background.fetched_mib", "MiB", "count", Higher),
    layer("core.health.on_io.calls", "count", "count", Lower),
    layer("core.health.on_io.ns_per_call", "ns", "host", Lower),
    layer("core.health.on_io.share_pct", "%", "host", Lower),
    layer("core.cdt.insert.ns_per_op", "ns", "host", Lower),
    layer("core.cdt.contains.ns_per_op", "ns", "host", Lower),
    layer("core.cdt.entries", "count", "count", Lower),
    layer("core.dmt.insert.ns_per_op", "ns", "host", Lower),
    layer("core.dmt.view.ns_per_op", "ns", "host", Lower),
    layer("core.dmt.entries", "count", "count", Lower),
    layer("core.space.alloc_release.ns_per_op", "ns", "host", Lower),
    layer("core.space.evictions", "count", "count", Lower),
    layer("core.space.evicted_mib", "MiB", "count", Lower),
    layer("core.shard.segments.ns_per_op", "ns", "host", Lower),
    layer(
        "core.shard.segments.allocs_per_op",
        "allocs",
        "count",
        Lower,
    ),
    layer("core.durability.journal_writes", "count", "count", Lower),
    layer("core.durability.journal_records", "count", "count", Lower),
    layer(
        "core.durability.appends_per_fsync",
        "ratio",
        "count",
        Higher,
    ),
    layer(
        "core.durability.journal_bytes_per_user_kib",
        "B/KiB",
        "count",
        Lower,
    ),
    layer("core.durability.checkpoints", "count", "count", Lower),
    layer("core.durability.encode.ns_per_record", "ns", "host", Lower),
    layer(
        "core.durability.group_drain.ns_per_record",
        "ns",
        "host",
        Lower,
    ),
    layer("core.durability.decode.ns_per_record", "ns", "host", Lower),
    layer("core.durability.recover_ms", "ms", "host", Lower),
    layer("core.durability.recover_records", "count", "count", Lower),
    layer("cost.evaluate.ns_per_call", "ns", "host", Lower),
    layer("mpiio.runner.self.ns_per_event", "ns", "host", Lower),
    layer("mpiio.runner.self.share_pct", "%", "host", Lower),
    layer("mpiio.runner.allocs_per_req", "allocs", "count", Lower),
    layer("mpiio.runner.stock_ns_per_req", "ns", "host", Lower),
    layer("pfs.split.ns_per_call", "ns", "host", Lower),
    layer("pfs.split.allocs_per_call", "allocs", "count", Lower),
    layer("pfs.d_subreqs", "count", "count", Lower),
    layer("pfs.c_subreqs", "count", "count", Higher),
    layer("pfs.d_busy_pct", "%", "sim", Lower),
    layer("pfs.c_busy_pct", "%", "sim", Lower),
    layer("pfs.d_max_depth", "count", "count", Lower),
    layer("pfs.c_max_depth", "count", "count", Lower),
    layer("storage.hdd.service_time.ns_per_call", "ns", "host", Lower),
    layer("storage.ssd.service_time.ns_per_call", "ns", "host", Lower),
    layer("sim.events", "count", "count", Lower),
    layer("sim.events_per_req", "ratio", "count", Lower),
    layer("sim.queue.ns_per_event", "ns", "host", Lower),
    layer("workloads.next_op.ns_per_op", "ns", "host", Lower),
    layer("trace.overhead_pct", "%", "host", Lower),
    layer("trace.collector.overhead_pct", "%", "host", Lower),
    layer("trace.span_cost_ns", "ns", "host", Lower),
    layer("trace.closure_pct", "%", "host", Higher),
    layer("trace.traced_reps", "count", "count", Higher),
    layer("fidelity.write_speedup_x", "x", "sim", Higher),
    layer("fidelity.read_speedup_x", "x", "sim", Higher),
    layer("host.preempted_reps", "count", "count", Lower),
    layer("host.untraced_reps", "count", "count", Higher),
    layer("verify.reads_checked", "count", "count", Higher),
    layer("verify.mismatches", "count", "count", Lower),
];

/// Named values in table order.
pub type Values = Vec<(&'static str, f64)>;

/// Panics unless `values` names exactly `table`'s metrics in order: a
/// metric added to one and not the other is a bug caught on first run.
pub fn check_names(table: &[Metric], values: &Values) {
    let want: Vec<_> = table.iter().map(|m| m.name).collect();
    let have: Vec<_> = values.iter().map(|(n, _)| *n).collect();
    assert_eq!(want, have, "metric table and computed values disagree");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse::{parse, Value};
    use crate::workload::WORKLOADS;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` at the repo root must say what these tables say.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse(text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_owned);
        let workloads: Vec<_> = doc.get("workloads").expect("workloads").items().to_vec();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(w.keys(), ["name", "why"]);
            assert_eq!(field(w, "name").as_deref(), Some(name));
            assert_eq!(field(w, "why").as_deref(), Some(why));
        }
        let e2e: Vec<_> = doc.get("end_to_end").expect("end_to_end").items().to_vec();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j.keys(), ["name", "unit", "better", "bound"]);
            assert_eq!(field(j, "name").as_deref(), Some(m.name));
            assert_eq!(field(j, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(j, "better").as_deref(), Some(m.better.as_str()));
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let layers: Vec<_> = doc.get("per_layer").expect("per_layer").items().to_vec();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(j.keys(), ["name", "unit", "better"]);
            assert_eq!(field(j, "name").as_deref(), Some(m.name));
            assert_eq!(field(j, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(j, "better").as_deref(), Some(m.better.as_str()));
        }
        assert_eq!(doc.get("paths").map(Value::items).map(<[_]>::len), Some(1));
    }
}
