//! Turning repetitions into the named metrics.
//!
//! End-to-end: one discarded warm-up repetition (which doubles as the
//! allocation-counted, latency-observed one), then timed repetitions
//! with nothing attached. Per-layer: traced repetitions through
//! `Timed<S4dCache>`, a repetition with `s4d-trace`'s collector, stock
//! runs, and the replays. Host figures are medians over repetitions.

use std::time::Instant;

use s4d::storage::IoKind;

use crate::harness::{run_rep, run_stock, Fingerprint, Mode, Rep};
use crate::metrics::{check_names, Values, END_TO_END, PER_LAYER};
use crate::replay::{replay, Replay};
use crate::stats::{median, Summary};
use crate::timed::{aggregate, span_cost_ns, Layer, LayerTable, Span, LAYERS};
use crate::verify::Verified;
use crate::workload::Workload;

const MIB: f64 = 1024.0 * 1024.0;

/// Wall-clock and on-CPU time of the timed repetitions.
#[derive(Debug, Default, Clone)]
pub struct HostTimes {
    pub ns_per_req: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// (wall ns, on-CPU ns) per repetition, where the kernel tells.
    pub wall_cpu: Vec<(u64, Option<u64>)>,
}

impl HostTimes {
    fn push(&mut self, rep: &Rep) {
        self.ns_per_req
            .push(rep.run_ns as f64 / rep.completed().max(1) as f64);
        self.setup_s.push(rep.setup_ns as f64 / 1e9);
        self.wall_cpu.push((rep.run_ns, rep.oncpu_ns));
    }

    /// Host seconds spent inside timed regions so far.
    pub fn timed_seconds(&self) -> f64 {
        self.wall_cpu
            .iter()
            .map(|(wall, _)| *wall as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Repetitions whose wall time exceeded their on-CPU time by more
    /// than 10 %: the thread was descheduled inside the timed region.
    /// Reported, never dropped.
    pub fn preempted(&self) -> usize {
        self.wall_cpu
            .iter()
            .filter(|(wall, cpu)| cpu.is_some_and(|c| *wall as f64 > c as f64 * 1.10))
            .count()
    }
}

/// The end-to-end measurement of one workload.
pub struct EndToEnd {
    pub w: Workload,
    pub counted: Rep,
    /// Host time of the whole warm-up repetition, set-up and run.
    pub warmup_s: f64,
    fingerprint: Fingerprint,
    pub host: HostTimes,
    /// Repetitions whose simulated results differed from the warm-up's:
    /// must be 0 (same inputs, same simulation, observed or not).
    pub drifted: u64,
}

impl EndToEnd {
    /// Runs the warm-up repetition.
    pub fn start(w: Workload) -> EndToEnd {
        let clock = Instant::now();
        let counted = run_rep(&w, Mode::Counted, 0);
        EndToEnd {
            warmup_s: clock.elapsed().as_secs_f64(),
            fingerprint: counted.fingerprint(),
            counted,
            w,
            host: HostTimes::default(),
            drifted: 0,
        }
    }

    /// One timed repetition.
    pub fn rep(&mut self) {
        let rep = run_rep(&self.w, Mode::Plain, 0);
        self.drifted += u64::from(rep.fingerprint() != self.fingerprint);
        self.host.push(&rep);
    }

    pub fn ops_attempted(&self) -> u64 {
        self.w.source.requests()
    }

    /// Requests that did not complete, fault-path activity on what must
    /// be a healthy run, repetitions that drifted, and whatever the
    /// verification pass found.
    pub fn ops_failed(&self, verified: &Verified) -> u64 {
        (self.ops_attempted() - self.counted.completed().min(self.ops_attempted()))
            + self.counted.unhealthy()
            + self.drifted
            + verified.failed_ops()
    }

    /// The ten end-to-end metrics.
    pub fn values(&self) -> Values {
        let sim = self
            .counted
            .sim_figures()
            .expect("warm-up observes latency");
        let allocs = self.counted.allocs.expect("warm-up counts allocations");
        let reqs = self.counted.completed().max(1) as f64;
        let v = vec![
            ("setup_s", self.warmup_s + median(&self.host.setup_s)),
            ("sim_write_mibs", sim.write_mibs),
            ("sim_read_mibs", sim.read_mibs),
            ("sim_write_p50_ms", sim.write_p50_ms),
            ("sim_write_p99_ms", sim.write_p99_ms),
            ("sim_read_p50_ms", sim.read_p50_ms),
            ("sim_read_p99_ms", sim.read_p99_ms),
            ("host_ns_per_req", median(&self.host.ns_per_req)),
            ("host_allocs_per_req", allocs.allocs as f64 / reqs),
            ("host_peak_alloc_mib", allocs.peak_bytes as f64 / MIB),
        ];
        check_names(&END_TO_END, &v);
        v
    }

    pub fn summaries(&self) -> (Summary, Summary) {
        (
            Summary::of(&self.host.setup_s),
            Summary::of(&self.host.ns_per_req),
        )
    }

    /// Buffer size for a traced repetition of this workload: every span
    /// is an application request, a sub-request dispatch or completion,
    /// or a background call, and each of those is bounded by the events
    /// and sub-requests the warm-up saw.
    pub fn span_hint(&self) -> usize {
        let c = &self.counted;
        (c.report.events + c.d.subreqs + c.c.subreqs) as usize + 4096
    }
}

/// Host-side figures of one traced repetition.
struct Traced {
    table: LayerTable,
    layer_allocs: [u64; LAYERS],
    run_allocs: u64,
    run_ns: u64,
    fingerprint: Fingerprint,
}

/// The per-layer measurement of one workload.
pub struct Layers {
    traced: Vec<Traced>,
    collector_ns: Vec<f64>,
    /// The first traced repetition, kept whole for counters, the request
    /// stream and `--dump-spans`.
    first: Option<Rep>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            traced: Vec::new(),
            collector_ns: Vec::new(),
            first: None,
        }
    }

    /// One traced repetition and one with the collector attached.
    pub fn cycle(&mut self, e2e: &EndToEnd) {
        let rep = run_rep(&e2e.w, Mode::Traced, e2e.span_hint());
        let log = rep.trace.as_ref().expect("traced mode records a log");
        self.traced.push(Traced {
            table: aggregate(&log.spans),
            layer_allocs: log.allocs,
            run_allocs: rep.allocs.map_or(0, |a| a.allocs),
            run_ns: rep.run_ns,
            fingerprint: rep.fingerprint(),
        });
        if self.first.is_none() {
            self.first = Some(rep);
        }
        let collected = run_rep(&e2e.w, Mode::Collector, 0);
        self.collector_ns.push(collected.run_ns as f64);
    }

    /// Host seconds spent inside the timed regions of these repetitions.
    pub fn timed_seconds(&self) -> f64 {
        let traced: u64 = self.traced.iter().map(|t| t.run_ns).sum();
        (traced as f64 + self.collector_ns.iter().sum::<f64>()) / 1e9
    }

    /// Raw spans of the first traced repetition.
    pub fn spans(&self) -> &[Span] {
        self.first
            .as_ref()
            .and_then(|r| r.trace.as_ref())
            .map_or(&[], |t| &t.spans)
    }

    /// Self-check: Σ layer self times within 2 % of the root span on
    /// every traced repetition, no span outside its parent, and the
    /// traced simulation identical to the untraced one.
    pub fn failures(&self, e2e: &EndToEnd) -> Vec<String> {
        let mut out = Vec::new();
        for (i, t) in self.traced.iter().enumerate() {
            if (t.table.closure() - 1.0).abs() > 0.02 || t.table.escaped > 0 {
                out.push(format!(
                    "traced repetition {i}: layer table does not close (sum/root {:.4}, {} spans outside their parent)",
                    t.table.closure(),
                    t.table.escaped
                ));
            }
            if t.fingerprint != e2e.fingerprint {
                out.push(format!(
                    "traced repetition {i}: simulated results differ from the untraced run"
                ));
            }
        }
        out
    }

    /// Every per-layer metric; runs the stock repetitions and the replays
    /// on the way.
    pub fn values(&self, e2e: &EndToEnd, verified: &Verified) -> Values {
        let first = self.first.as_ref().expect("at least one traced repetition");
        let log = first
            .trace
            .as_ref()
            .expect("first traced repetition keeps its log");
        let reqs = first.completed().max(1) as f64;
        let events = first.report.events;

        let stock: Vec<_> = (0..3).map(|_| run_stock(&e2e.w)).collect();
        let stock_ns: Vec<f64> = stock.iter().map(|(_, ns)| *ns as f64 / reqs).collect();
        let stock_report = &stock[0].0;
        let r: Replay = replay(&e2e.w, &log.reqs, events);

        // Host figures: median over the traced repetitions.
        let med =
            |f: &dyn Fn(&Traced) -> f64| median(&self.traced.iter().map(f).collect::<Vec<_>>());
        let t0 = &self.traced[0];
        let ns_per_call = |l: Layer| med(&|t| t.table.ns_per_call(l));
        let share = |l: Layer| med(&|t| t.table.share_pct(l));
        let calls = |l: Layer| t0.table.calls[l as usize] as f64;
        let allocs_per_call = |l: Layer| {
            let c = t0.table.calls[l as usize];
            if c == 0 {
                0.0
            } else {
                t0.layer_allocs[l as usize] as f64 / c as f64
            }
        };
        let runner_allocs = t0.run_allocs - t0.layer_allocs.iter().sum::<u64>();

        let untraced_ns = median(
            &e2e.host
                .wall_cpu
                .iter()
                .map(|(wall, _)| *wall as f64)
                .collect::<Vec<_>>(),
        );
        let overhead = |ns: f64| (ns / untraced_ns - 1.0) * 100.0;

        let d = |f: fn(&s4d::cache::S4dMetrics) -> u64| first.delta(f) as f64;
        let user_write_bytes = first.report.writes.meter.bytes().max(1) as f64;
        let journal_writes = d(|m| m.journal_writes);
        let busy_pct = |busy_ns: u64, servers: usize| {
            busy_ns as f64 * 100.0
                / (first.report.end_time.as_nanos().max(1) as f64 * servers as f64)
        };
        let speedup = |kind: IoKind| {
            first.report.kind(kind).throughput_mibs() / stock_report.kind(kind).throughput_mibs()
        };
        let reads = d(|m| m.read_full_hits) + d(|m| m.read_partial_hits) + d(|m| m.read_misses);

        let v = vec![
            ("core.pipeline.plan_io.calls", calls(Layer::PlanIo)),
            (
                "core.pipeline.plan_io.ns_per_call",
                ns_per_call(Layer::PlanIo),
            ),
            (
                "core.pipeline.plan_io.p99_ns",
                med(&|t| t.table.plan_io_p99_ns as f64),
            ),
            ("core.pipeline.plan_io.share_pct", share(Layer::PlanIo)),
            (
                "core.pipeline.plan_io.allocs_per_call",
                allocs_per_call(Layer::PlanIo),
            ),
            (
                "core.pipeline.critical_ratio",
                d(|m| m.critical) / d(|m| m.evaluated).max(1.0),
            ),
            (
                "core.pipeline.cserver_op_share_pct",
                first.report.tiers.cserver_op_share(),
            ),
            (
                "core.pipeline.read_hit_ratio",
                d(|m| m.read_full_hits) / reads.max(1.0),
            ),
            (
                "core.pipeline.admission_denied_space",
                d(|m| m.admission_denied_space),
            ),
            ("core.background.poll.calls", calls(Layer::Poll)),
            ("core.background.poll.ns_per_call", ns_per_call(Layer::Poll)),
            ("core.background.poll.share_pct", share(Layer::Poll)),
            (
                "core.background.on_plan_complete.calls",
                calls(Layer::PlanComplete),
            ),
            (
                "core.background.on_plan_complete.ns_per_call",
                ns_per_call(Layer::PlanComplete),
            ),
            (
                "core.background.on_plan_complete.share_pct",
                share(Layer::PlanComplete),
            ),
            (
                "core.background.on_plan_complete.allocs_per_call",
                allocs_per_call(Layer::PlanComplete),
            ),
            ("core.background.flushes", d(|m| m.flushes)),
            ("core.background.flushed_mib", d(|m| m.flushed_bytes) / MIB),
            ("core.background.fetches", d(|m| m.fetches)),
            ("core.background.fetched_mib", d(|m| m.fetched_bytes) / MIB),
            ("core.health.on_io.calls", calls(Layer::HealthIo)),
            (
                "core.health.on_io.ns_per_call",
                ns_per_call(Layer::HealthIo),
            ),
            ("core.health.on_io.share_pct", share(Layer::HealthIo)),
            ("core.cdt.insert.ns_per_op", r.cdt_insert_ns),
            ("core.cdt.contains.ns_per_op", r.cdt_contains_ns),
            ("core.cdt.entries", r.cdt_entries as f64),
            ("core.dmt.insert.ns_per_op", r.dmt_insert_ns),
            ("core.dmt.view.ns_per_op", r.dmt_view_ns),
            ("core.dmt.entries", first.dmt_entries as f64),
            (
                "core.space.alloc_release.ns_per_op",
                r.space_alloc_release_ns,
            ),
            ("core.space.evictions", d(|m| m.evictions)),
            ("core.space.evicted_mib", d(|m| m.evicted_bytes) / MIB),
            ("core.shard.segments.ns_per_op", r.shard_segments_ns),
            ("core.shard.segments.allocs_per_op", r.shard_segments_allocs),
            ("core.durability.journal_writes", journal_writes),
            (
                "core.durability.journal_records",
                d(|m| m.journal_records_written),
            ),
            (
                "core.durability.appends_per_fsync",
                d(|m| m.journal_records_written) / journal_writes.max(1.0),
            ),
            (
                "core.durability.journal_bytes_per_user_kib",
                d(|m| m.journal_bytes) / (user_write_bytes / 1024.0),
            ),
            ("core.durability.checkpoints", d(|m| m.checkpoints)),
            ("core.durability.encode.ns_per_record", r.journal_encode_ns),
            (
                "core.durability.group_drain.ns_per_record",
                r.journal_group_drain_ns,
            ),
            ("core.durability.decode.ns_per_record", r.journal_decode_ns),
            ("core.durability.recover_ms", verified.recover_ms),
            (
                "core.durability.recover_records",
                verified.recover_records as f64,
            ),
            ("cost.evaluate.ns_per_call", r.cost_evaluate_ns),
            (
                "mpiio.runner.self.ns_per_event",
                med(&|t| t.table.self_ns[Layer::Runner as usize] as f64) / events.max(1) as f64,
            ),
            ("mpiio.runner.self.share_pct", share(Layer::Runner)),
            ("mpiio.runner.allocs_per_req", runner_allocs as f64 / reqs),
            ("mpiio.runner.stock_ns_per_req", median(&stock_ns)),
            ("pfs.split.ns_per_call", r.pfs_split_ns),
            ("pfs.split.allocs_per_call", r.pfs_split_allocs),
            ("pfs.d_subreqs", first.d.subreqs as f64),
            ("pfs.c_subreqs", first.c.subreqs as f64),
            (
                "pfs.d_busy_pct",
                busy_pct(first.d.busy_ns, e2e.w.tb.d_servers),
            ),
            (
                "pfs.c_busy_pct",
                busy_pct(first.c.busy_ns, e2e.w.tb.c_servers),
            ),
            ("pfs.d_max_depth", first.d.max_depth as f64),
            ("pfs.c_max_depth", first.c.max_depth as f64),
            (
                "storage.hdd.service_time.ns_per_call",
                r.hdd_service_time_ns,
            ),
            (
                "storage.ssd.service_time.ns_per_call",
                r.ssd_service_time_ns,
            ),
            ("sim.events", events as f64),
            ("sim.events_per_req", events as f64 / reqs),
            ("sim.queue.ns_per_event", r.queue_ns_per_event),
            ("workloads.next_op.ns_per_op", r.next_op_ns),
            ("trace.overhead_pct", overhead(med(&|t| t.run_ns as f64))),
            (
                "trace.collector.overhead_pct",
                overhead(median(&self.collector_ns)),
            ),
            ("trace.span_cost_ns", span_cost_ns()),
            ("trace.closure_pct", med(&|t| t.table.closure() * 100.0)),
            ("trace.traced_reps", self.traced.len() as f64),
            ("fidelity.write_speedup_x", speedup(IoKind::Write)),
            ("fidelity.read_speedup_x", speedup(IoKind::Read)),
            ("host.preempted_reps", e2e.host.preempted() as f64),
            ("host.untraced_reps", e2e.host.ns_per_req.len() as f64),
            ("verify.reads_checked", verified.reads_checked as f64),
            ("verify.mismatches", verified.mismatches as f64),
        ];
        check_names(&PER_LAYER, &v);
        v
    }
}
