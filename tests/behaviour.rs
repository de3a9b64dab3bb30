//! The behaviour lock. The cache changes where bytes go, not which bytes
//! are read or what Algorithm 1 decides; every check that pins that
//! contract folds its output into one FNV-1a digest plus one to three
//! headline numbers, and `BEHAVIOUR.lock` at the repository root holds
//! one line per check: `name digest key=value…`.
//!
//! - `pipeline/*`: three scripted `plan_io` / `poll_background` /
//!   `on_io_error` sessions, each plan in its full `Debug` form (tier
//!   choice, phases, offsets, journal payload bytes, tags) and the final
//!   metrics. The text of each is also written to
//!   `target/tmp/behaviour/<name>.trace` for a readable diff.
//! - `streams/*`: every op the IOR, HPIO, MPI-Tile-IO, campaign and
//!   checkpoint generators emit over a fixed grid of geometries, phase
//!   selections and seeds.
//! - `straggler/*`: the gray-failure benchmark's two variants (every read
//!   latency, throughput and the hedging counters).
//! - `chaos/*`: the JSON `s4d-chaos` prints for a seed block. The blocks
//!   of `tests/chaos_smoke.rs` run here too; the 1,000-seed sweeps at 1,
//!   4 and 16 shards are `#[ignore]`d.
//! - `reproduce64/*`: every paper artefact at `S4D_SCALE_FACTOR=64`,
//!   `#[ignore]`d.
//! - `bench/*` and `cost/*`: the host-cost benchmark's five workloads
//!   (`s4d::bench::benchmark`) at its `--quick` size and seed 7, one run
//!   each. `bench/<workload>` digests every simulated number of the run:
//!   the `RunReport`, the cache's `S4dMetrics`, every server's counters
//!   and the DMT's entry count. `cost/<workload>` holds exact host-work
//!   counts from the counting allocator this binary installs: allocation
//!   calls during `Runner::run`, the peak live heap of the run (set-up
//!   included, as the benchmark's `host_peak_alloc_mib` counts it), sim
//!   events and journal bytes. A host-only change leaves every `bench/*`
//!   line and may only lower `cost/*` lines.
//!
//! CI runs `cargo test --release --test behaviour -- --include-ignored`.
//! A change that moves behaviour on purpose re-records the lines it moved,
//! `S4D_RECORD_BEHAVIOUR=1 cargo test --test behaviour -- --test-threads=1`
//! (only the lines the run computed are rewritten), and says in
//! CHANGES.md which lines moved and why.

use std::sync::atomic::{AtomicBool, Ordering};

use s4d::bench::benchmark::{Workload, NAMES};
use s4d::bench::figures::FIGURES;
use s4d::bench::{straggler, table, Scale};
use s4d::cache::{AdmissionPolicy, S4dCache, S4dConfig};
use s4d::cost::CostParams;
use s4d::mpiio::{AppOp, AppRequest, Cluster, Middleware, ProcessScript, Rank, SubIoFailure, Tier};
use s4d::pfs::{FileId, IoFault};
use s4d::sim::{Fnv1a, SimDuration, SimTime};
use s4d::storage::{presets, IoKind};
use s4d::workloads::campaign::CampaignConfig;
use s4d::workloads::{AccessPattern, CheckpointConfig, HpioConfig, IorConfig, TileIoConfig};
use s4d_chaos::{run_caught, sweep_json, Schedule};

#[path = "common/alloc.rs"]
mod alloc;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

// ---- the lock file ------------------------------------------------------

const LOCK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/BEHAVIOUR.lock");

/// Set while a test rewrites the lock: two test threads rewriting it at
/// once could each drop the other's lines, so recording runs with
/// `--test-threads=1`, and an overlap fails instead of losing a line.
static RECORDING: AtomicBool = AtomicBool::new(false);

/// One lock line: the check's name, its digest and its headline numbers.
fn line(name: &str, digest: u64, numbers: &[(&str, String)]) -> String {
    let mut out = format!("{name} {digest:016x}");
    for (key, value) in numbers {
        out.push_str(&format!(" {key}={value}"));
    }
    out
}

fn name_of(line: &str) -> &str {
    line.split(' ').next().unwrap_or_default()
}

/// Compares `computed` with the committed lines of the same names, or,
/// under `S4D_RECORD_BEHAVIOUR=1`, rewrites exactly those lines.
fn lock(computed: &[String]) {
    if std::env::var("S4D_RECORD_BEHAVIOUR").is_ok_and(|v| v == "1") {
        assert!(
            !RECORDING.swap(true, Ordering::SeqCst),
            "two tests rewrote BEHAVIOUR.lock at once; record with -- --test-threads=1"
        );
        let text = std::fs::read_to_string(LOCK).expect("read BEHAVIOUR.lock");
        let (header, mut lines): (Vec<&str>, Vec<&str>) = text
            .lines()
            .filter(|l| !l.is_empty())
            .partition(|l| l.starts_with('#'));
        lines.retain(|l| !computed.iter().any(|c| name_of(c) == name_of(l)));
        lines.extend(computed.iter().map(String::as_str));
        lines.sort_by_key(|l| name_of(l));
        let out: String = header
            .iter()
            .chain(&lines)
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(LOCK, out).expect("write BEHAVIOUR.lock");
        RECORDING.store(false, Ordering::SeqCst);
        return;
    }
    let text = std::fs::read_to_string(LOCK).expect("read BEHAVIOUR.lock");
    let moved: Vec<String> = computed
        .iter()
        .filter_map(|c| match text.lines().find(|l| name_of(l) == name_of(c)) {
            Some(want) if want == c => None,
            Some(want) => Some(format!("  locked: {want}\n  now:    {c}")),
            None => Some(format!("  not in the lock: {c}")),
        })
        .collect();
    assert!(
        moved.is_empty(),
        "behaviour moved:\n{}\nIf the move is intended, re-record with S4D_RECORD_BEHAVIOUR=1 \
         (-- --test-threads=1) and name the moved lines in CHANGES.md.",
        moved.join("\n")
    );
}

// ---- pipeline decisions -------------------------------------------------

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;

fn params_small() -> CostParams {
    CostParams::from_hardware(
        &presets::hdd_seagate_st3250(),
        &presets::ssd_ocz_revodrive_x2(),
        2,
        1,
        64 * KIB,
    )
    .with_network_bandwidth(117.0e6)
}

/// A scripted session against one middleware, recording every decision.
struct Session {
    mw: S4dCache,
    cluster: Cluster,
    file: FileId,
    trace: Vec<String>,
}

impl Session {
    fn new(config: S4dConfig) -> Self {
        let mut cluster = Cluster::paper_testbed_small(9);
        let mut mw = S4dCache::new(config, params_small());
        let file = mw.open(&mut cluster, Rank(0), "data").expect("open");
        Session {
            mw,
            cluster,
            file,
            trace: Vec::new(),
        }
    }

    /// Records one `plan_io` decision and returns the plan's tag.
    fn step(&mut self, label: &str, now: SimTime, kind: IoKind, offset: u64, len: u64) -> u64 {
        let (rank, file, data) = (Rank(0), self.file, None);
        let req = AppRequest {
            rank,
            file,
            kind,
            offset,
            len,
            data,
        };
        let plan = self.mw.plan_io(&mut self.cluster, now, &req);
        self.trace.push(format!("{label}: {plan:?}"));
        plan.tag
    }

    fn write(&mut self, label: &str, now: SimTime, offset: u64, len: u64) -> u64 {
        self.step(label, now, IoKind::Write, offset, len)
    }

    fn read(&mut self, label: &str, now: SimTime, offset: u64, len: u64) -> u64 {
        self.step(label, now, IoKind::Read, offset, len)
    }

    /// Records one `poll_background` decision and returns the callback
    /// tags.
    fn poll(&mut self, label: &str, now: SimTime) -> Vec<u64> {
        let poll = self.mw.poll_background(&mut self.cluster, now);
        for (i, p) in poll.plans.iter().enumerate() {
            self.trace.push(format!("{label}.plan{i}: {p:?}"));
        }
        self.trace.push(format!(
            "{label}: wake={:?} pending={}",
            poll.next_wake, poll.work_pending
        ));
        poll.plans
            .iter()
            .map(|p| p.tag)
            .filter(|&t| t != 0)
            .collect()
    }

    fn complete(&mut self, now: SimTime, tags: &[u64]) {
        for &t in tags {
            self.mw.on_plan_complete(&mut self.cluster, now, t);
        }
    }

    /// Polls at `at` and completes the polled plans at `done`.
    fn poll_and_complete(&mut self, label: &str, at: u64, done: u64) {
        let tags = self.poll(label, SimTime::from_secs(at));
        self.complete(SimTime::from_secs(done), &tags);
    }

    fn error(&mut self, label: &str, now: SimTime, error: IoFault, attempts: u32) {
        let failure = SubIoFailure {
            tier: Tier::CServers,
            server: 0,
            kind: IoKind::Write,
            len: 16 * KIB,
            error,
            attempts,
            overhead: false,
        };
        let d = self.mw.on_io_error(&mut self.cluster, now, &failure);
        self.trace.push(format!("{label}: {d:?}"));
    }

    /// The session's lock line; its text goes to `target/tmp/behaviour`.
    fn finish(mut self, name: &str) -> String {
        let m = *self.mw.metrics();
        self.trace.push(format!("metrics: {m:?}"));
        let text = self.trace.join("\n") + "\n";
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("behaviour");
        std::fs::create_dir_all(&dir).expect("create target/tmp/behaviour");
        std::fs::write(dir.join(format!("{name}.trace")), &text).expect("write trace");
        line(
            &format!("pipeline/{name}"),
            Fnv1a::of(text.as_bytes()),
            &[
                ("critical", m.critical.to_string()),
                ("cached_writes", m.writes_to_cache.to_string()),
                ("evictions", m.evictions.to_string()),
            ],
        )
    }
}

/// Admission, partial hits, denial under pressure, flush/fetch cycles,
/// and clean-LRU eviction on a deliberately tiny cache.
fn mixed() -> String {
    let mut s = Session::new(S4dConfig::new(64 * KIB).with_journal_batch(1));
    let t0 = SimTime::ZERO;
    s.write("w0", t0, 0, 16 * KIB);
    s.write("w1", t0, MIB, 16 * KIB);
    let r0 = s.read("r0", t0, 0, 32 * KIB);
    s.complete(t0, &[r0]);
    // Cache holds 32 KiB dirty of 64 KiB; a 48 KiB critical write cannot
    // evict dirty data and must be denied for space.
    s.write("w2", t0, 2 * MIB, 48 * KIB);
    s.poll_and_complete("p0", 1, 2);
    let t3 = SimTime::from_secs(3);
    let r1 = s.read("r1", t3, 3 * MIB, 16 * KIB);
    s.complete(t3, &[r1]);
    s.poll_and_complete("p1", 4, 5);
    // Everything cached is now clean: a new critical write evicts.
    s.write("w3", SimTime::from_secs(6), 4 * MIB, 32 * KIB);
    s.poll_and_complete("p2", 7, 8);
    s.finish("mixed")
}

/// Health-aware redirection: quarantine blocks admission and fetches,
/// clean reads fall back to OPFS, and an offline CServer invalidates the
/// extents it held.
fn degraded() -> String {
    let mut s = Session::new(S4dConfig::new(64 * MIB).with_journal_batch(1));
    let t0 = SimTime::ZERO;
    s.write("w0", t0, 0, 16 * KIB);
    // Flush it clean so the health fallback has a clean piece to serve.
    s.poll_and_complete("p0", 0, 0);
    s.write("w1", t0, MIB, 16 * KIB);
    // Three consecutive transient failures quarantine CServer 0.
    let now = SimTime::from_secs(1);
    for attempts in 1..=3 {
        s.error(&format!("err{attempts}"), now, IoFault::Transient, attempts);
    }
    s.write("w2", now, 2 * MIB, 16 * KIB);
    let rc = s.read("r_clean", now, 0, 16 * KIB);
    let rd = s.read("r_dirty", now, MIB, 16 * KIB);
    s.complete(now, &[rc, rd]);
    s.read("r_miss", now, 4 * MIB, 16 * KIB);
    s.poll_and_complete("p1", 2, 2);
    // CServer 0 goes offline: its extents are invalidated exactly once.
    let t3 = SimTime::from_secs(3);
    s.error("offline", t3, IoFault::Offline, 1);
    s.read("r_after", t3, 0, 16 * KIB);
    s.poll_and_complete("p2", 4, 4);
    s.finish("degraded")
}

/// Ablation modes: always-admit takes large writes, eager read fetch
/// chains a cache-fill phase onto the miss plan, and journal batching
/// groups four records per journal op.
fn ablations() -> String {
    let mut s = Session::new(
        S4dConfig::new(64 * MIB)
            .with_admission(AdmissionPolicy::AlwaysAdmit)
            .with_eager_read_fetch(true)
            .with_journal_batch(4),
    );
    let t0 = SimTime::ZERO;
    s.write("w_large", t0, 0, 8 * MIB);
    let rf = s.read("r_eager", t0, 16 * MIB, 16 * KIB);
    s.complete(t0, &[rf]);
    let rh = s.read("r_hit", t0, 16 * MIB, 16 * KIB);
    s.complete(t0, &[rh]);
    // Batched journaling: records accumulate until the fourth lands.
    for i in 0..3u64 {
        s.write(&format!("w{i}"), t0, 20 * MIB + i * MIB, 16 * KIB);
    }
    s.poll_and_complete("p0", 1, 2);
    s.poll_and_complete("p1", 3, 4);
    s.finish("ablations")
}

#[test]
fn pipeline_decisions() {
    lock(&[mixed(), degraded(), ablations()]);
}

// ---- workload op streams ------------------------------------------------

/// Folds each op's variant, handle, kind, offset, length, file name and
/// think time — what the runner consumes, not its `Debug` text.
fn fold_op(d: &mut Fnv1a, op: &AppOp) {
    let kind = |k: &IoKind| u64::from(*k == IoKind::Write);
    let words = match op {
        AppOp::Open { name } => {
            d.word(0);
            d.word(name.len() as u64);
            return d.bytes(name.as_bytes());
        }
        AppOp::Io {
            handle,
            kind: k,
            offset,
            len,
            data,
        } => {
            vec![
                1,
                handle.0 as u64,
                kind(k),
                *offset,
                *len,
                u64::from(data.is_some()),
            ]
        }
        AppOp::Seek { handle, offset } => vec![2, handle.0 as u64, *offset],
        AppOp::IoAtCursor {
            handle,
            kind: k,
            len,
            data,
        } => {
            vec![3, handle.0 as u64, kind(k), *len, u64::from(data.is_some())]
        }
        AppOp::Close { handle } => vec![4, handle.0 as u64],
        AppOp::Barrier => vec![5],
        AppOp::Think { duration } => vec![6, duration.as_nanos()],
    };
    for w in words {
        d.word(w);
    }
}

/// A generator's digest and op count over a grid of configurations.
struct Stream {
    digest: Fnv1a,
    ops: u64,
}

impl Stream {
    fn new() -> Self {
        Stream {
            digest: Fnv1a::new(),
            ops: 0,
        }
    }

    /// Drains every rank's script in rank order, marking each rank's end.
    fn scripts<S: ProcessScript>(&mut self, scripts: Vec<S>) {
        for mut script in scripts {
            while let Some(op) = script.next_op() {
                self.ops += 1;
                fold_op(&mut self.digest, &op);
            }
            self.digest.word(u64::MAX);
        }
    }

    fn line(&self, name: &str) -> String {
        line(
            &format!("streams/{name}"),
            self.digest.finish(),
            &[("ops", self.ops.to_string())],
        )
    }
}

/// `(do_write, do_read)` — every phase selection, including neither.
const PHASES: [(bool, bool); 4] = [(true, true), (true, false), (false, true), (false, false)];

fn ior_stream() -> String {
    // (file_size, processes, request_size): even regions, 7 and 3 ranks
    // with regions that are not a multiple of the request size, a single
    // rank, and a one-request region.
    let geometries = [
        (1 << 20, 4, 64 << 10),
        ((1 << 20) + 5000, 7, 16 << 10),
        (300 << 10, 3, 4 << 10),
        (2 << 20, 1, 16 << 10),
        (96 << 10, 2, 32 << 10),
    ];
    let mut s = Stream::new();
    for pattern in [AccessPattern::Sequential, AccessPattern::Random] {
        for (file_size, processes, request_size) in geometries {
            for (do_write, do_read) in PHASES {
                for seed in [1, 0x5eed, u64::MAX] {
                    s.scripts(
                        IorConfig {
                            file_name: format!("ior_{processes}.dat"),
                            file_size,
                            processes,
                            request_size,
                            pattern,
                            do_write,
                            do_read,
                            seed,
                        }
                        .scripts(),
                    );
                }
            }
        }
    }
    s.line("ior")
}

fn hpio_stream() -> String {
    let mut s = Stream::new();
    for spacing in [0, 1 << 10, 4 << 10] {
        for (do_write, do_read) in PHASES {
            let mut cfg = HpioConfig::paper_default("hpio.dat", spacing);
            cfg.processes = 5;
            cfg.region_count = 37;
            cfg.do_write = do_write;
            cfg.do_read = do_read;
            s.scripts(cfg.scripts());
        }
    }
    s.line("hpio")
}

fn tileio_stream() -> String {
    let mut s = Stream::new();
    for processes in [1, 4, 7, 12, 100] {
        for (do_write, do_read) in PHASES {
            let mut cfg = TileIoConfig::paper_default("tile.dat", processes);
            cfg.tile_elems_x = 3;
            cfg.tile_elems_y = 5;
            cfg.element_size = 4 << 10;
            cfg.do_write = do_write;
            cfg.do_read = do_read;
            s.scripts(cfg.scripts());
        }
    }
    s.line("tileio")
}

fn campaign_stream() -> String {
    let mut s = Stream::new();
    s.scripts(CampaignConfig::paper_mix(3, 1 << 20, 16 << 10).scripts());
    s.line("campaign")
}

fn checkpoint_stream() -> String {
    let mut cfg = CheckpointConfig::representative(5);
    cfg.rounds = 3;
    cfg.dump_slice = 1 << 20;
    cfg.records_per_round = 9;
    cfg.state_span = 4 << 20;
    cfg.think = SimDuration::from_micros(750);
    let mut s = Stream::new();
    s.scripts(cfg.scripts());
    s.line("checkpoint")
}

#[test]
fn workload_streams() {
    lock(&[
        ior_stream(),
        hpio_stream(),
        tileio_stream(),
        campaign_stream(),
        checkpoint_stream(),
    ]);
}

// ---- straggler benchmark ------------------------------------------------

fn straggler_line(v: &straggler::Variant) -> String {
    let mut d = Fnv1a::new();
    for l in &v.latencies {
        d.word(l.as_nanos());
    }
    let g = &v.report.gray;
    for w in [
        v.reads_per_sec.to_bits(),
        v.report.end_time.as_nanos(),
        g.deadline_misses,
        g.hedges_issued,
        g.hedges_won,
        g.stall_abandons,
        v.report.degraded.replans,
    ] {
        d.word(w);
    }
    line(
        &format!("straggler/{}", v.name),
        d.finish(),
        &[
            ("reads_per_sec", format!("{:.1}", v.reads_per_sec)),
            ("p99_ms", format!("{:.3}", v.p99_ms)),
            ("hedges_won", g.hedges_won.to_string()),
        ],
    )
}

#[test]
fn straggler_variants() {
    lock(&[
        straggler_line(&straggler::run_variant("baseline", false)),
        straggler_line(&straggler::run_variant("hedged", true)),
    ]);
}

// ---- chaos seed blocks --------------------------------------------------

/// The line of seeds `0..seeds` at `shards`: the digest of the JSON
/// `s4d-chaos --seeds <seeds> --shards <shards>` prints.
fn chaos_line(seeds: u64, shards: u32) -> String {
    let reports: Vec<_> = (0..seeds)
        .map(|seed| run_caught(&Schedule::generate_with_shards(seed, shards)))
        .collect();
    let failed = reports.iter().filter(|r| r.failed()).count();
    let ops: u64 = reports.iter().map(|r| u64::from(r.ops)).sum();
    let reads: u64 = reports.iter().map(|r| r.reads_checked).sum();
    line(
        &format!("chaos/shards{shards}-seeds{seeds}"),
        Fnv1a::of((sweep_json(&reports) + "\n").as_bytes()),
        &[
            ("failed", failed.to_string()),
            ("ops", ops.to_string()),
            ("bytes_checked", reads.to_string()),
        ],
    )
}

/// The seed blocks `tests/chaos_smoke.rs` runs.
#[test]
fn chaos_seed_blocks() {
    lock(&[chaos_line(16, 1), chaos_line(6, 4), chaos_line(6, 16)]);
}

#[test]
#[ignore = "about 20 s in release; CI: --release -- --include-ignored"]
fn chaos_sweeps() {
    lock(&[
        chaos_line(1000, 1),
        chaos_line(1000, 4),
        chaos_line(1000, 16),
    ]);
}

// ---- paper artefacts ----------------------------------------------------

#[test]
#[ignore = "about 6 s in release; CI: --release -- --include-ignored"]
fn reproduce_at_scale_64() {
    let scale = Scale::with_factor(64);
    let lines: Vec<String> = FIGURES
        .iter()
        .map(|figure| {
            let tables = (figure.run)(scale);
            let text: String = tables.iter().map(table::render).collect();
            let rows: usize = tables.iter().map(|t| t.rows.len()).sum();
            line(
                &format!("reproduce64/{}", figure.id),
                Fnv1a::of(text.as_bytes()),
                &[
                    ("tables", tables.len().to_string()),
                    ("rows", rows.to_string()),
                ],
            )
        })
        .collect();
    lock(&lines);
}

// ---- benchmark workloads ------------------------------------------------

/// The `bench/<name>` and `cost/<name>` lines of one benchmark workload.
fn workload_lines(name: &str) -> [String; 2] {
    let w = Workload::build(name, 7, Scale::SCALED).expect("a benchmark workload");
    alloc::start();
    let mut runner = w.runner();
    let before = *runner.middleware().metrics();
    alloc::reset_peak();
    let at_run = alloc::snapshot();
    let report = runner.run();
    let cost = alloc::stop();
    let (cluster, mw, _) = runner.into_parts();
    let after = *mw.metrics();
    let mut text = format!("{report:?}\n{before:?}\n{after:?}\n");
    for s in cluster
        .opfs()
        .iter_servers()
        .chain(cluster.cpfs().iter_servers())
    {
        text.push_str(&format!("{:?}\n", s.stats()));
    }
    text.push_str(&format!("dmt_entries {}\n", mw.plane().entry_count()));
    let bench = line(
        &format!("bench/{name}"),
        Fnv1a::of(text.as_bytes()),
        &[
            (
                "write_mibs",
                format!("{:.2}", report.writes.throughput_mibs()),
            ),
            (
                "read_mibs",
                format!("{:.2}", report.reads.throughput_mibs()),
            ),
        ],
    );
    let counts = [
        ("allocs", cost.allocs - at_run.allocs),
        ("peak_bytes", cost.peak.max(0) as u64),
        ("events", report.events),
        ("journal_bytes", after.journal_bytes - before.journal_bytes),
    ];
    let mut d = Fnv1a::new();
    counts.iter().for_each(|&(_, n)| d.word(n));
    let numbers: Vec<_> = counts.iter().map(|&(k, n)| (k, n.to_string())).collect();
    [bench, line(&format!("cost/{name}"), d.finish(), &numbers)]
}

/// All five run in about half a second in the dev profile.
#[test]
fn benchmark_workloads() {
    lock(&NAMES.map(workload_lines).concat());
}
