//! One generator per artefact of the paper's evaluation (§V).
//!
//! [`FIGURES`] is the registry: an id (the name EXPERIMENTS.md cites), the
//! paper artefact it regenerates, and a function from a [`Scale`] to the
//! [`Table`]s of that artefact. Every workload parameter — sizes, seeds,
//! process counts, file names — lives here and nowhere else; the
//! `reproduce` binary only loops over the registry and prints.
//!
//! All generators run on the paper's testbed (§V.A) with seed `0x54D` and
//! are deterministic: the same scale gives the same cells.

use s4d_cache::{AdmissionPolicy, S4dCache, S4dConfig, DMT_PAYLOAD_BYTES, DMT_RECORD_BYTES};
use s4d_mpiio::{RunReport, Runner};
use s4d_sim::SimTime;
use s4d_storage::IoKind;
use s4d_trace::{analysis, TraceCollector};
use s4d_workloads::campaign::{chain_instances, CampaignConfig};
use s4d_workloads::{AccessPattern, HpioConfig, IorConfig, TileIoConfig};

use crate::experiments::{
    campaign_scripts, run_s4d, run_s4d_second_read, run_stock, run_stock_second_read, testbed,
    ExperimentOutcome, Scale,
};
use crate::table::{mibs, speedup_pct, Table};

/// One entry of the registry.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Generator id, as cited in EXPERIMENTS.md and accepted by
    /// `reproduce <id>`.
    pub id: &'static str,
    /// The paper artefact this regenerates.
    pub paper: &'static str,
    /// Runs the experiment at the given scale.
    pub run: fn(Scale) -> Vec<Table>,
}

/// A registry entry whose id is, by construction, its generator's name.
macro_rules! figure {
    ($run:ident, $paper:literal) => {
        Figure {
            id: stringify!($run),
            paper: $paper,
            run: $run,
        }
    };
}

/// Every artefact of the evaluation, in the paper's order.
pub const FIGURES: &[Figure] = &[
    figure!(fig01_motivation, "Fig. 1"),
    figure!(fig06_request_size, "Fig. 6(a), 6(b)"),
    figure!(tab03_distribution, "Table III"),
    figure!(fig07_process_count, "Fig. 7"),
    figure!(tab04_capacity, "Table IV"),
    figure!(fig08_cserver_count, "Fig. 8"),
    figure!(fig09_hpio, "Fig. 9(a), 9(b)"),
    figure!(fig10_tileio, "Fig. 10"),
    figure!(fig11_overhead, "Fig. 11"),
    figure!(tab05_metadata, "§V.E.1"),
    figure!(ablation_policies, "beyond the paper: §III's design choice"),
];

/// Seed of every figure's testbed.
const SEED: u64 = 0x54D;

/// Header of the two process-count sweeps (Fig. 7, Fig. 10).
const PROCS_HEADER: &[&str] = &[
    "procs", "stock W", "s4d W", "W gain", "stock R", "s4d R", "R gain",
];

/// `[new MiB/s, gain over base]`.
fn gain(base: f64, new: f64) -> Vec<String> {
    vec![mibs(new), speedup_pct(base, new)]
}

/// `[base MiB/s, new MiB/s, gain]`.
fn versus(base: f64, new: f64) -> Vec<String> {
    [vec![mibs(base)], gain(base, new)].concat()
}

/// `[stock, s4d, gain]` write throughput of one configuration.
fn writes(stock: &ExperimentOutcome, s4d: &ExperimentOutcome) -> Vec<String> {
    versus(stock.write_mibs(), s4d.write_mibs())
}

/// `[stock, s4d, gain]` read throughput of one configuration.
fn reads(stock: &ExperimentOutcome, s4d: &ExperimentOutcome) -> Vec<String> {
    versus(stock.read_mibs(), s4d.read_mibs())
}

/// A label cell followed by groups of value cells.
fn row(label: impl Into<String>, groups: impl IntoIterator<Item = Vec<String>>) -> Vec<String> {
    let mut cells = vec![label.into()];
    cells.extend(groups.into_iter().flatten());
    cells
}

/// Figure 1, the motivating experiment: IOR on the stock file system, one
/// 16 GB shared file, 16 processes each reading its own 1/16 sequentially
/// or randomly. Aggregate read bandwidth collapses under small random
/// requests and converges with sequential from ~4 MiB.
fn fig01_motivation(scale: Scale) -> Vec<Table> {
    let tb = testbed(SEED);
    let file_size = scale.bytes(16 << 30);
    let mut rows = Vec::new();
    for req_kib in [4u64, 16, 64, 256, 1024, 4096] {
        let mk = |pattern| {
            IorConfig {
                file_name: format!("fig1_{req_kib}k_{pattern:?}"),
                file_size,
                processes: 16,
                request_size: req_kib * 1024,
                pattern,
                do_write: true,
                do_read: true,
                seed: 0xF16,
            }
            .scripts()
        };
        let seq = run_stock(&tb, mk(AccessPattern::Sequential), Vec::new());
        let rnd = run_stock(&tb, mk(AccessPattern::Random), Vec::new());
        rows.push(vec![
            format!("{req_kib} KiB"),
            mibs(seq.read_mibs()),
            mibs(rnd.read_mibs()),
            format!("{:.2}x", seq.read_mibs() / rnd.read_mibs().max(1e-9)),
        ]);
    }
    vec![Table {
        title: "Fig. 1 — stock PFS read bandwidth, sequential vs random (16 procs, 8 DServers)",
        header: &["req size", "seq MiB/s", "random MiB/s", "seq/random"],
        rows,
        note: "paper shape: random ≪ sequential below ~1 MiB, comparable at 4 MiB+",
    }]
}

/// Figure 6: the campaign (10 IOR instances, 6 sequential + 4 random, 32
/// processes, cache = 20 % of the data) across request sizes. The paper
/// reports writes +51.3/49.1/39.2/32.5 % at 8/16/32/64 KiB and parity at
/// 4 MiB; reads improve more (up to +184.1 % at 8 KiB), measured on a
/// program's *second run* (§V.A).
fn fig06_request_size(scale: Scale) -> Vec<Table> {
    let tb = testbed(SEED);
    let mut wrows = Vec::new();
    let mut rrows = Vec::new();
    for req_kib in [8u64, 16, 32, 64, 4096] {
        let (cfg, scripts) = campaign_scripts(32, req_kib * 1024, scale);
        let capacity = cfg.total_data_bytes() / 5;
        let stock = run_stock(&tb, scripts, Vec::new());
        let s4d = run_s4d(&tb, S4dConfig::new(capacity), cfg.scripts(), Vec::new());

        // Second-run read measurement: first run write+read (learn + cache),
        // then a read-only pass over the same files — for BOTH systems, so
        // the read comparison is pure-read vs pure-read.
        let read_cfg = CampaignConfig {
            do_write: false,
            ..cfg.clone()
        };
        let stock_read2 = run_stock_second_read(&tb, cfg.scripts(), read_cfg.scripts());
        let s4d_read2 = run_s4d_second_read(
            &tb,
            S4dConfig::new(capacity),
            cfg.scripts(),
            read_cfg.scripts(),
        );

        let label = format!("{req_kib} KiB");
        wrows.push(row(label.clone(), [writes(&stock, &s4d)]));
        rrows.push(row(label, [reads(&stock_read2, &s4d_read2)]));
    }
    let header = &["req size", "stock MiB/s", "s4d MiB/s", "improvement"];
    vec![
        Table {
            title: "Fig. 6(a) — IOR write throughput vs request size (campaign, 32 procs)",
            header,
            rows: wrows,
            note: "",
        },
        Table {
            title: "Fig. 6(b) — IOR read throughput vs request size (second run)",
            header,
            rows: rrows,
            note: "paper shape: writes +51/49/39/33 % at 8-64 KiB, ~0 % at 4 MiB; reads larger",
        },
    ]
}

/// Table III: where the campaign's write requests were dispatched. The
/// paper traces with IOSIG and reports a five-second window from the 50th
/// second: 16 KiB → 16.3 % DServers / 83.7 % CServers; 4096 KiB → 100 / 0.
fn tab03_distribution(scale: Scale) -> Vec<Table> {
    let tb = testbed(SEED);
    let mut rows = Vec::new();
    for req_kib in [16u64, 4096] {
        let (cfg, scripts) = campaign_scripts(32, req_kib * 1024, scale);
        let capacity = cfg.total_data_bytes() / 5;
        let (collector, handle) = TraceCollector::new();
        let out = run_s4d(
            &tb,
            S4dConfig::new(capacity),
            scripts,
            vec![Box::new(collector)],
        );
        let records = handle.snapshot();
        // At scaled sizes the equivalent of the paper's window is 10 % of
        // the run starting at its midpoint.
        let end = out.report.end_time.as_nanos();
        let from = SimTime::from_nanos(end / 2);
        let to = SimTime::from_nanos(end / 2 + end / 10);
        let dist = analysis::tier_distribution(&records, Some((from, to)), Some(IoKind::Write));
        rows.push(vec![
            format!("{req_kib} KiB"),
            format!("{:.1}", dist.d_percent()),
            format!("{:.1}", dist.c_percent()),
        ]);
    }
    vec![Table {
        title: "Table III — write-request distribution (mid-run window)",
        header: &["req size", "DServers (%)", "CServers (%)"],
        rows,
        note: "paper: 16 KiB -> 16.3 / 83.7; 4096 KiB -> 100.0 / 0.0",
    }]
}

/// Figure 7: the campaign at 16/32/64/128 processes (16 KiB requests,
/// disjoint per-process regions). The paper reports +35.4–49.5 % for
/// writes, a similar trend for reads, and absolute bandwidth dropping as
/// processes contend.
fn fig07_process_count(scale: Scale) -> Vec<Table> {
    let tb = testbed(SEED);
    let mut rows = Vec::new();
    for procs in [16u32, 32, 64, 128] {
        // Weak scaling: each process keeps the paper's 64 MiB share of the
        // shared file, so the per-process access pattern (and the cost
        // model's view of it) is constant across the sweep.
        let file_size = procs as u64 * scale.bytes(64 << 20);
        let cfg = CampaignConfig::paper_mix(procs, file_size, 16 * 1024);
        let capacity = cfg.total_data_bytes() / 5;
        let stock = run_stock(&tb, cfg.scripts(), Vec::new());
        let s4d = run_s4d(&tb, S4dConfig::new(capacity), cfg.scripts(), Vec::new());
        rows.push(row(
            procs.to_string(),
            [writes(&stock, &s4d), reads(&stock, &s4d)],
        ));
    }
    vec![Table {
        title: "Fig. 7 — IOR throughput vs process count (16 KiB requests)",
        header: PROCS_HEADER,
        rows,
        note: "paper shape: +35-50 % across 16-128 processes; absolute MiB/s falls as \
             contention rises",
    }]
}

/// Table IV: campaign write throughput against the cache capacity. The
/// paper goes from 0 GB (S4D disabled) to 6 GB against 20 GB of data:
/// 58.03 → 69.34 → 86.15 → 90.89 MB/s, with diminishing returns once
/// most random requests fit.
fn tab04_capacity(scale: Scale) -> Vec<Table> {
    let tb = testbed(SEED);
    let (cfg, scripts) = campaign_scripts(32, 16 * 1024, scale);
    let total = cfg.total_data_bytes();
    let base = run_stock(&tb, scripts, Vec::new()).write_mibs();
    let mut rows = vec![row("0 (stock)", [gain(base, base)])];
    // The paper's 2/4/6 GB against 20 GB of data = 10/20/30 % of data size.
    for gb_equivalent in [2u64, 4, 6] {
        let capacity = total * gb_equivalent / 20;
        let s4d = run_s4d(&tb, S4dConfig::new(capacity), cfg.scripts(), Vec::new());
        rows.push(row(
            format!("{gb_equivalent} GB eq"),
            [gain(base, s4d.write_mibs())],
        ));
    }
    vec![Table {
        title: "Table IV — IOR write throughput vs SSD cache capacity",
        header: &["capacity", "throughput MiB/s", "speedup"],
        rows,
        note: "paper: 58.03 / 69.34 / 86.15 / 90.89 MB/s (+0/19.5/48.4/56.6 %), gains \
             flattening past 4 GB",
    }]
}

/// Figure 8: the campaign against the number of CServers, 0 (stock) to 6,
/// with the cache space and access patterns fixed. The paper reports
/// writes +20.7–60.1 %, plateauing above four CServers because only the
/// random fraction of the workload can benefit.
fn fig08_cserver_count(scale: Scale) -> Vec<Table> {
    let (cfg, scripts) = campaign_scripts(32, 16 * 1024, scale);
    let capacity = cfg.total_data_bytes() / 5;
    let stock = run_stock(&testbed(SEED), scripts, Vec::new());
    let cells = |out: &ExperimentOutcome| {
        let write = gain(stock.write_mibs(), out.write_mibs());
        [write, gain(stock.read_mibs(), out.read_mibs())]
    };
    let mut rows = vec![row("0 (stock)", cells(&stock))];
    for c_servers in 1..=6usize {
        let mut tb = testbed(SEED);
        tb.c_servers = c_servers;
        let s4d = run_s4d(&tb, S4dConfig::new(capacity), cfg.scripts(), Vec::new());
        rows.push(row(c_servers.to_string(), cells(&s4d)));
    }
    vec![Table {
        title: "Fig. 8 — IOR throughput vs number of CServers (fixed cache space)",
        header: &["CServers", "write MiB/s", "W gain", "read MiB/s", "R gain"],
        rows,
        note: "paper shape: +20.7-60.1 % writes, improvement plateaus above 4 CServers",
    }]
}

/// Figure 9: HPIO (16 processes, 4096 regions of 8 KiB) with the region
/// spacing swept from 0 (contiguous) to 4 KiB. The paper reports
/// +18/28/30/33 %: more spacing means poorer locality on the DServers and
/// more benefit from the cache.
fn fig09_hpio(scale: Scale) -> Vec<Table> {
    let tb = testbed(SEED);
    let mut wrows = Vec::new();
    let mut rrows = Vec::new();
    for spacing in [0u64, 1024, 2048, 4096] {
        let mut cfg = HpioConfig::paper_default(format!("hpio_{spacing}"), spacing);
        cfg.region_count = scale.bytes(4096 * 1024) / 1024; // scale op count
        let data = cfg.processes as u64 * cfg.process_bytes();
        let stock = run_stock(&tb, cfg.scripts(), Vec::new());
        let s4d = run_s4d(&tb, S4dConfig::new(data / 5), cfg.scripts(), Vec::new());
        let label = format!("{} KiB", spacing / 1024);
        wrows.push(row(label.clone(), [writes(&stock, &s4d)]));
        rrows.push(row(label, [reads(&stock, &s4d)]));
    }
    let header = &["spacing", "stock MiB/s", "s4d MiB/s", "improvement"];
    vec![
        Table {
            title: "Fig. 9(a) — HPIO write throughput vs region spacing (16 procs, 8 KiB regions)",
            header,
            rows: wrows,
            note: "",
        },
        Table {
            title: "Fig. 9(b) — HPIO read throughput vs region spacing",
            header,
            rows: rrows,
            note: "paper shape: +18/28/30/33 % as spacing grows 0 -> 4 KiB",
        },
    ]
}

/// Figure 10: MPI-Tile-IO with 10×10-element tiles of 32 KiB elements and
/// 100–400 processes. The paper reports +21–33 % for writes and +18–31 %
/// for reads — the nested-strided pattern has better locality than random
/// IOR, so the gain is smaller but still significant.
fn fig10_tileio(scale: Scale) -> Vec<Table> {
    let tb = testbed(SEED);
    let mut rows = Vec::new();
    for procs in [100u32, 200, 300, 400] {
        let mut cfg = TileIoConfig::paper_default(format!("tile_{procs}"), procs);
        // Scale element size down, keeping tile geometry.
        cfg.element_size = scale.bytes(32 * 1024).max(4096);
        let data = cfg.dataset_bytes();
        let stock = run_stock(&tb, cfg.scripts(), Vec::new());
        let s4d = run_s4d(&tb, S4dConfig::new(data / 5), cfg.scripts(), Vec::new());
        rows.push(row(
            procs.to_string(),
            [writes(&stock, &s4d), reads(&stock, &s4d)],
        ));
    }
    vec![Table {
        title: "Fig. 10 — MPI-Tile-IO throughput vs process count (10x10 tiles)",
        header: PROCS_HEADER,
        rows,
        note: "paper shape: writes +21-33 %, reads +18-31 % across 100-400 processes",
    }]
}

/// Figure 11: runtime overhead when S4D-Cache cannot help. 32 processes
/// write a shared 10 GB file randomly under `NeverAdmit`, so every
/// request misses and only the bookkeeping (cost evaluation, CDT/DMT
/// lookups) remains; the paper calls the overhead "almost unobservable".
fn fig11_overhead(scale: Scale) -> Vec<Table> {
    let tb = testbed(SEED);
    let mut rows = Vec::new();
    for req_kib in [8u64, 16, 32] {
        let mk = || {
            IorConfig {
                file_name: format!("fig11_{req_kib}"),
                file_size: scale.bytes(10 << 30),
                processes: 32,
                request_size: req_kib * 1024,
                pattern: AccessPattern::Random,
                do_write: true,
                do_read: false,
                seed: 0xF11,
            }
            .scripts()
        };
        let stock = run_stock(&tb, mk(), Vec::new());
        // NeverAdmit is the Fig. 11 probe: all the decision work, none of
        // the redirection.
        let config = S4dConfig::new(1 << 30).with_admission(AdmissionPolicy::NeverAdmit);
        let s4d = run_s4d(&tb, config, mk(), Vec::new());
        rows.push(row(format!("{req_kib} KiB"), [writes(&stock, &s4d)]));
    }
    vec![Table {
        title: "Fig. 11 — all-miss overhead probe (random writes, no redirection)",
        header: &["req size", "stock MiB/s", "s4d(never-admit) MiB/s", "delta"],
        rows,
        note: "paper shape: deltas within noise — the middleware's overhead is negligible",
    }]
}

/// §V.E.1: the DMT's storage cost. The paper bounds it analytically —
/// every cached extent at the worst-case 4 KB, one fixed-size record each
/// — at 0.6 % of the cache space; the last row measures a live DMT after
/// a random 4 KiB workload against a small cache. Each row prices the
/// entries twice: at the paper's 24-byte entry (the comparable figure)
/// and at this reproduction's 28-byte CRC-framed journal record.
fn tab05_metadata(scale: Scale) -> Vec<Table> {
    let tb = testbed(SEED);
    let sized = |entries: u64, per_entry: u64, cache: u64| {
        let bytes = entries * per_entry;
        vec![
            format!("{:.2} MiB", bytes as f64 / (1 << 20) as f64),
            format!("{:.2}%", bytes as f64 * 100.0 / cache as f64),
        ]
    };
    let case = |label: String, entries: u64, cache: u64| {
        row(
            label,
            [
                vec![entries.to_string()],
                sized(entries, DMT_PAYLOAD_BYTES, cache),
                sized(entries, DMT_RECORD_BYTES, cache),
            ],
        )
    };
    let mut rows = Vec::new();
    for (label, cache_gib) in [("100 GB x4", 400u64), ("1 GB", 1)] {
        let cache = cache_gib << 30;
        rows.push(case(format!("analytic {label}"), cache / 4096, cache));
    }
    let cfg = IorConfig {
        file_name: "tab05".into(),
        file_size: scale.bytes(1 << 30),
        processes: 16,
        request_size: 4096,
        pattern: AccessPattern::Random,
        do_write: true,
        do_read: false,
        seed: 0x7AB,
    };
    let middleware = S4dCache::new(S4dConfig::new(cfg.file_size / 5), tb.cost_params());
    let mut runner = Runner::new(tb.cluster(), middleware, cfg.scripts(), 0x7AB);
    runner.run();
    let (_cluster, mw, _report) = runner.into_parts();
    rows.push(case(
        "measured (4 KiB random)".into(),
        mw.plane().entry_count() as u64,
        mw.plane().mapped_bytes().max(1),
    ));
    vec![Table {
        title: "§V.E.1 — DMT metadata space overhead",
        header: &[
            "case",
            "entries",
            "24 B entries",
            "of cache",
            "28 B journal frames",
            "of cache",
        ],
        rows,
        note: "paper: 24-byte entries, worst-case overhead 0.6 %, 'negligible'",
    }]
}

/// The ablation's mixed campaign — small random, mid-size random and
/// large sequential instances, which a uniform workload cannot offer —
/// as `(request size, pattern)` per instance.
fn mixed_instances(scale: Scale) -> Vec<IorConfig> {
    use AccessPattern::{Random, Sequential};
    let mix: [(u64, AccessPattern); 8] = [
        (16 << 10, Random),
        (2 << 20, Sequential),
        (16 << 10, Sequential),
        (256 << 10, Random),
        (2 << 20, Sequential),
        (16 << 10, Random),
        (256 << 10, Random),
        (2 << 20, Random),
    ];
    mix.iter()
        .enumerate()
        .map(|(i, &(request_size, pattern))| IorConfig {
            file_name: format!("mixed_{i:02}.dat"),
            file_size: scale.bytes(2 << 30),
            processes: 32,
            request_size,
            pattern,
            do_write: true,
            do_read: true,
            seed: 0xAB1 + i as u64,
        })
        .collect()
}

/// Ablation: what the cost-model-driven selectivity buys. The paper's
/// central design choice is admission by predicted *benefit* (size **and**
/// randomness aware), not by locality or size alone. Policies compared:
///
/// * `benefit` — the paper's policy;
/// * `always-admit` — a conventional cache-everything SSD tier (large
///   sequential writes now crowd the SSDs);
/// * `never-admit` — S4D bookkeeping with no caching (≈ stock);
/// * `size<64KiB` — a naive size threshold (misses the mid-size random
///   requests that still benefit);
/// * `benefit+eager-fetch` — fetching read misses inline instead of
///   lazily (§III.E argues lazy keeps read response time low);
/// * `carl-placement` — the paper's predecessor CARL (§II.C): critical
///   data *placed* persistently on the SSD servers, no write-back or
///   eviction — what the cache semantics add.
fn ablation_policies(scale: Scale) -> Vec<Table> {
    use AdmissionPolicy::{AlwaysAdmit, NeverAdmit, SizeBelow};
    let tb = testbed(SEED);
    let instances = mixed_instances(scale);
    let capacity = instances.iter().map(|c| c.file_size).sum::<u64>() / 5;
    let stock = run_stock(&tb, chain_instances(&instances, 32), Vec::new());
    let policy_row = |name: &str, report: &RunReport| {
        let write = gain(stock.write_mibs(), report.writes.throughput_mibs());
        let c_share = format!("{:.1}", report.tiers.cserver_op_share());
        row(
            name,
            [write, vec![mibs(report.reads.throughput_mibs()), c_share]],
        )
    };
    let mut rows = vec![policy_row("stock", &stock.report)];
    let benefit = || S4dConfig::new(capacity);
    for (name, config) in [
        ("benefit (paper)", benefit()),
        ("always-admit", benefit().with_admission(AlwaysAdmit)),
        ("never-admit", benefit().with_admission(NeverAdmit)),
        ("size<64KiB", benefit().with_admission(SizeBelow(64 << 10))),
        ("benefit+eager-fetch", benefit().with_eager_read_fetch(true)),
        ("carl-placement", benefit().with_max_flush_per_wake(0)),
    ] {
        let s4d = run_s4d(&tb, config, chain_instances(&instances, 32), Vec::new());
        rows.push(policy_row(name, &s4d.report));
    }
    vec![Table {
        title: "Ablation — admission policy on a mixed campaign (16 KiB/256 KiB/2 MiB, 32 procs)",
        header: &[
            "policy",
            "write MiB/s",
            "vs stock",
            "read MiB/s",
            "C share %",
        ],
        rows,
        note: "expectation: benefit-based selection beats cache-everything (which drags \
             large sequential writes onto 4 SSDs) and naive size thresholds (which \
             miss mid-size random requests); never-admit ~ stock",
    }]
}
