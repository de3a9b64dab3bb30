//! Testbed construction and experiment drivers.

use s4d_cache::{S4dCache, S4dConfig, S4dMetrics};
use s4d_cost::CostParams;
use s4d_mpiio::{
    Cluster, IoObserver, Middleware, ProcessScript, RunReport, Runner, StockMiddleware,
};
use s4d_pfs::NetworkConfig;
use s4d_storage::{presets, StoreMode};
use s4d_workloads::campaign::CampaignConfig;
use s4d_workloads::ChainScript;

/// Experiment data-size scaling.
///
/// The paper's absolute sizes (2 GB per IOR instance, 16 GB motivation
/// file) make each configuration minutes of wall-clock in simulation; the
/// default divides data sizes by 8 while keeping request sizes, server
/// counts, and the cache-to-data ratio identical — relative results (who
/// wins, by what factor) are preserved. Control with the
/// `S4D_SCALE_FACTOR` environment variable (`1` = paper sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    factor: u64,
}

impl Scale {
    /// Paper-reported sizes.
    pub const PAPER: Scale = Scale { factor: 1 };
    /// The default: paper sizes divided by 8.
    pub const SCALED: Scale = Scale { factor: 8 };

    /// A custom divisor.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn with_factor(factor: u64) -> Scale {
        assert!(factor > 0, "scale factor must be positive");
        Scale { factor }
    }

    /// Parses a scale factor as given in `S4D_SCALE_FACTOR`: unset means
    /// [`Scale::SCALED`], anything else must be a positive integer.
    ///
    /// # Errors
    ///
    /// A message naming the rejected value — a typo must not silently
    /// print ÷8 numbers under a paper-scale command line.
    pub fn parse(value: Option<&str>) -> Result<Scale, String> {
        let Some(text) = value else {
            return Ok(Scale::SCALED);
        };
        match text.parse::<u64>() {
            Ok(factor) if factor > 0 => Ok(Scale { factor }),
            _ => Err(format!(
                "S4D_SCALE_FACTOR must be a positive integer, got {text:?}"
            )),
        }
    }

    /// [`Scale::parse`] of the `S4D_SCALE_FACTOR` environment variable.
    ///
    /// # Errors
    ///
    /// As [`Scale::parse`]; a non-Unicode value is rejected too.
    pub fn from_env() -> Result<Scale, String> {
        match std::env::var("S4D_SCALE_FACTOR") {
            Ok(v) => Scale::parse(Some(&v)),
            Err(std::env::VarError::NotPresent) => Scale::parse(None),
            Err(e) => Err(format!("S4D_SCALE_FACTOR: {e}")),
        }
    }

    /// The divisor in effect.
    pub fn factor(self) -> u64 {
        self.factor
    }

    /// Applies the scaling to a paper-scale byte size.
    pub fn bytes(self, paper_bytes: u64) -> u64 {
        (paper_bytes / self.factor).max(1)
    }
}

/// The simulated testbed configuration (defaults to the paper's §V.A).
#[derive(Debug, Clone)]
pub struct Testbed {
    /// HDD file servers (DServers).
    pub d_servers: usize,
    /// SSD file servers (CServers).
    pub c_servers: usize,
    /// Stripe size of both file systems.
    pub stripe: u64,
    /// RNG seed for device and placement noise.
    pub seed: u64,
}

impl Default for Testbed {
    fn default() -> Self {
        Testbed {
            d_servers: 8,
            c_servers: 4,
            stripe: 64 * 1024,
            seed: 0x54D,
        }
    }
}

/// The paper's testbed with a specific seed.
pub fn testbed(seed: u64) -> Testbed {
    Testbed {
        seed,
        ..Testbed::default()
    }
}

impl Testbed {
    /// Builds the cluster (timing-mode stores).
    pub fn cluster(&self) -> Cluster {
        Cluster::build(
            self.d_servers,
            self.c_servers,
            self.stripe,
            presets::hdd_seagate_st3250(),
            presets::ssd_ocz_revodrive_x2(),
            NetworkConfig::gigabit_ethernet(),
            StoreMode::Timing,
            self.seed,
        )
    }

    /// Cost-model parameters consistent with [`Testbed::cluster`], with the
    /// network bottleneck folded in — the analogue of the paper profiling
    /// its own testbed.
    pub fn cost_params(&self) -> CostParams {
        let net = NetworkConfig::gigabit_ethernet();
        let ssd = presets::ssd_ocz_revodrive_x2();
        CostParams::from_hardware(
            &presets::hdd_seagate_st3250(),
            &ssd,
            self.d_servers,
            self.c_servers,
            self.stripe,
        )
        .with_network_bandwidth(net.bandwidth())
        // β_C is the request-level effective cost: per-op RPC + device
        // latency amortised over the paper's dominant critical request
        // size (16 KiB) — see `CostParams::with_cserver_op_overhead`.
        .with_cserver_op_overhead(net.rpc_latency_secs() + ssd.op_latency_secs(), 16 * 1024)
    }
}

/// The outcome of one measured configuration.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// The runner's report for the measured run.
    pub report: RunReport,
    /// Middleware counters (zeroed for stock runs).
    pub metrics: S4dMetrics,
}

impl ExperimentOutcome {
    /// Application write throughput, MiB/s.
    pub fn write_mibs(&self) -> f64 {
        self.report.writes.throughput_mibs()
    }

    /// Application read throughput, MiB/s.
    pub fn read_mibs(&self) -> f64 {
        self.report.reads.throughput_mibs()
    }
}

/// Builds the paper's 10-instance IOR campaign scripts at the given scale.
pub fn campaign_scripts(
    processes: u32,
    request_size: u64,
    scale: Scale,
) -> (CampaignConfig, Vec<ChainScript>) {
    let cfg = CampaignConfig::paper_mix(processes, scale.bytes(2 << 30), request_size);
    let scripts = cfg.scripts();
    (cfg, scripts)
}

/// Runs scripts over the stock middleware.
pub fn run_stock(
    tb: &Testbed,
    scripts: Vec<impl ProcessScript + 'static>,
    observers: Vec<Box<dyn IoObserver>>,
) -> ExperimentOutcome {
    let (report, _) = run_custom(tb, StockMiddleware::new(), scripts, observers);
    ExperimentOutcome {
        report,
        metrics: S4dMetrics::default(),
    }
}

/// Runs scripts over S4D-Cache with the given configuration.
pub fn run_s4d(
    tb: &Testbed,
    config: S4dConfig,
    scripts: Vec<impl ProcessScript + 'static>,
    observers: Vec<Box<dyn IoObserver>>,
) -> ExperimentOutcome {
    let middleware = S4dCache::new(config, tb.cost_params());
    let (report, mw) = run_custom(tb, middleware, scripts, observers);
    ExperimentOutcome {
        report,
        metrics: *mw.metrics(),
    }
}

/// Runs scripts over an arbitrary middleware (custom policies and
/// configurations).
pub fn run_custom<M: Middleware>(
    tb: &Testbed,
    middleware: M,
    scripts: Vec<impl ProcessScript + 'static>,
    observers: Vec<Box<dyn IoObserver>>,
) -> (RunReport, M) {
    let mut runner = Runner::new(tb.cluster(), middleware, scripts, tb.seed);
    for obs in observers {
        runner.add_observer(obs);
    }
    let report = runner.run();
    let (_cluster, mw, _r) = runner.into_parts();
    (report, mw)
}

/// The paper's second-run measurement (§V.A) over any middleware: run
/// `first`, let the background work it left behind drain, then run and
/// measure `second` on the same (now warm) cluster and middleware.
fn run_second<M: Middleware>(
    tb: &Testbed,
    middleware: M,
    first: Vec<impl ProcessScript + 'static>,
    second: Vec<impl ProcessScript + 'static>,
) -> (RunReport, M) {
    let mut runner = Runner::new(tb.cluster(), middleware, first, tb.seed);
    let first_report = runner.run();
    runner.drain_background(first_report.end_time);
    let (cluster, middleware, _) = runner.into_parts();
    let mut runner = Runner::new(cluster, middleware, second, tb.seed ^ 1);
    let report = runner.run();
    let (_cluster, mw, _r) = runner.into_parts();
    (report, mw)
}

/// Second-run measurement for the stock baseline. Stock has no cache to
/// warm (and no background work to drain), but the HDD stream state and
/// file layout carry over, keeping the comparison with
/// [`run_s4d_second_read`] apples-to-apples.
pub fn run_stock_second_read(
    tb: &Testbed,
    first: Vec<impl ProcessScript + 'static>,
    second: Vec<impl ProcessScript + 'static>,
) -> ExperimentOutcome {
    let (report, _) = run_second(tb, StockMiddleware::new(), first, second);
    ExperimentOutcome {
        report,
        metrics: S4dMetrics::default(),
    }
}

/// The paper's second-run read measurement (§V.A): the first run lets
/// the Identifier learn and the Rebuilder cache critical data; the
/// Rebuilder is drained before `second` is measured.
pub fn run_s4d_second_read(
    tb: &Testbed,
    config: S4dConfig,
    first: Vec<impl ProcessScript + 'static>,
    second: Vec<impl ProcessScript + 'static>,
) -> ExperimentOutcome {
    let middleware = S4dCache::new(config, tb.cost_params());
    let (report, mw) = run_second(tb, middleware, first, second);
    ExperimentOutcome {
        report,
        metrics: *mw.metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4d_workloads::{AccessPattern, IorConfig};

    fn tiny_ior(pattern: AccessPattern, processes: u32) -> Vec<s4d_workloads::IorScript> {
        IorConfig {
            file_name: "tiny".into(),
            file_size: 8 * 1024 * 1024,
            processes,
            request_size: 16 * 1024,
            pattern,
            do_write: true,
            do_read: true,
            seed: 3,
        }
        .scripts()
    }

    #[test]
    fn scale_arithmetic() {
        assert_eq!(Scale::PAPER.bytes(1 << 30), 1 << 30);
        assert_eq!(Scale::SCALED.bytes(1 << 30), (1 << 30) / 8);
        assert_eq!(Scale::with_factor(1 << 30).bytes(2), 1);
        assert_eq!(Scale::SCALED.factor(), 8);
    }

    #[test]
    #[should_panic(expected = "scale factor must be positive")]
    fn scale_rejects_zero() {
        Scale::with_factor(0);
    }

    #[test]
    fn scale_parse_rejects_what_it_cannot_honour() {
        assert_eq!(Scale::parse(None), Ok(Scale::SCALED));
        assert_eq!(Scale::parse(Some("1")), Ok(Scale::PAPER));
        assert_eq!(Scale::parse(Some("64")), Ok(Scale::with_factor(64)));
        for bad in ["0", "abc", "-3", ""] {
            let err = Scale::parse(Some(bad)).expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn testbed_defaults_match_paper() {
        let tb = Testbed::default();
        assert_eq!(tb.d_servers, 8);
        assert_eq!(tb.c_servers, 4);
        assert_eq!(tb.stripe, 64 * 1024);
        let c = tb.cluster();
        assert_eq!(c.opfs().server_count(), 8);
        assert_eq!(c.cpfs().server_count(), 4);
        let p = tb.cost_params();
        assert_eq!(p.m, 8);
        assert_eq!(p.n, 4);
    }

    #[test]
    fn stock_and_s4d_both_complete() {
        let tb = testbed(1);
        let stock = run_stock(&tb, tiny_ior(AccessPattern::Random, 4), Vec::new());
        assert!(stock.write_mibs() > 0.0);
        assert_eq!(stock.report.tiers.c_ops, 0);
        let s4d = run_s4d(
            &tb,
            S4dConfig::new(16 * 1024 * 1024),
            tiny_ior(AccessPattern::Random, 4),
            Vec::new(),
        );
        assert!(s4d.write_mibs() > 0.0);
        assert!(s4d.report.tiers.c_ops > 0, "random 16 KiB must redirect");
        assert!(s4d.metrics.critical > 0);
    }

    #[test]
    fn s4d_beats_stock_on_random_small_writes() {
        let tb = testbed(2);
        let stock = run_stock(&tb, tiny_ior(AccessPattern::Random, 4), Vec::new());
        let s4d = run_s4d(
            &tb,
            S4dConfig::new(16 * 1024 * 1024),
            tiny_ior(AccessPattern::Random, 4),
            Vec::new(),
        );
        assert!(
            s4d.write_mibs() > stock.write_mibs(),
            "s4d {} vs stock {}",
            s4d.write_mibs(),
            stock.write_mibs()
        );
    }

    #[test]
    fn second_run_reads_hit_cache() {
        let tb = testbed(3);
        let read_only = IorConfig {
            file_name: "tiny".into(),
            file_size: 8 * 1024 * 1024,
            processes: 4,
            request_size: 16 * 1024,
            pattern: AccessPattern::Random,
            do_write: false,
            do_read: true,
            seed: 3,
        };
        let out = run_s4d_second_read(
            &tb,
            S4dConfig::new(16 * 1024 * 1024),
            tiny_ior(AccessPattern::Random, 4),
            read_only.scripts(),
        );
        // Second run should be mostly cache hits.
        assert!(
            out.report.tiers.c_ops > out.report.tiers.d_ops,
            "c={} d={}",
            out.report.tiers.c_ops,
            out.report.tiers.d_ops
        );
    }
}
