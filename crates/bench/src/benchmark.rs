//! The five workloads of the host-cost benchmark (`BENCHMARK.json`),
//! declared once from `s4d-workloads` configurations.
//!
//! All use the paper's testbed and a closed loop of 32 simulated MPI
//! processes: a write phase, a barrier, then a read phase. The seed feeds
//! the testbed (device and placement noise) and the IOR and campaign
//! offset permutations. A [`Scale`] divides every data size and cache
//! capacity; the benchmark's `--quick` size is [`Scale::SCALED`] (÷8).
//! `tests/behaviour.rs` pins each workload's simulated outcome and exact
//! host work (allocations, peak heap, events) as `bench/*` and `cost/*`
//! lines of `BEHAVIOUR.lock`.

use s4d_cache::{S4dCache, S4dConfig};
use s4d_mpiio::{ProcessScript, Runner};
use s4d_workloads::campaign::CampaignConfig;
use s4d_workloads::AccessPattern::{self, Random, Sequential};
use s4d_workloads::IorConfig;

use crate::experiments::{testbed, Scale, Testbed};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;
const GIB: u64 = 1024 * MIB;

/// The workload names, in the order the benchmark runs them.
pub const NAMES: [&str; 5] = [
    "ior-rand-16k",
    "ior-rand-16k-s16",
    "ior-seq-4m",
    "warm-rerun-16k",
    "campaign-mix",
];

/// A generator of per-process scripts.
#[derive(Debug, Clone)]
pub enum Source {
    /// One IOR instance on one shared file.
    Ior(IorConfig),
    /// The paper's ten-instance IOR campaign, one file per instance.
    Campaign(CampaignConfig),
}

impl Source {
    /// Fresh scripts, one per process.
    pub fn scripts(&self) -> Vec<Box<dyn ProcessScript>> {
        fn boxed<S: ProcessScript + 'static>(v: Vec<S>) -> Vec<Box<dyn ProcessScript>> {
            v.into_iter().map(|s| Box::new(s) as _).collect()
        }
        match self {
            Source::Ior(cfg) => boxed(cfg.scripts()),
            Source::Campaign(cfg) => boxed(cfg.scripts()),
        }
    }
}

/// One workload with all its inputs fixed.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The seeded testbed.
    pub tb: Testbed,
    /// The cache's configuration.
    pub config: S4dConfig,
    /// An untimed first run on the same cluster and cache, followed by a
    /// background drain (`warm-rerun-16k` only).
    pub prefill: Option<Source>,
    /// The measured scripts.
    pub source: Source,
}

/// One IOR instance of 32 processes: a write phase, then a read phase.
fn ior(file: &str, size: u64, request: u64, pattern: AccessPattern, seed: u64) -> IorConfig {
    IorConfig {
        file_name: file.into(),
        file_size: size,
        processes: 32,
        request_size: request,
        pattern,
        do_write: true,
        do_read: true,
        seed,
    }
}

impl Workload {
    /// Builds the named workload from `seed` at `scale`; `None` for a
    /// name not in [`NAMES`].
    pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
        let gib = scale.bytes(GIB);
        let rand16k = |seed| Source::Ior(ior("ior-rand.dat", gib, 16 * KIB, Random, seed));
        let (source, prefill, capacity, shards) = match name {
            "ior-rand-16k" => (rand16k(seed), None, gib / 5, 1),
            "ior-rand-16k-s16" => (rand16k(seed), None, gib / 5, 16),
            "warm-rerun-16k" => (rand16k(seed ^ 1), Some(rand16k(seed)), 2 * gib, 1),
            "ior-seq-4m" => {
                let size = scale.bytes(256 * GIB);
                let cfg = ior("ior-seq.dat", size, 4 * MIB, Sequential, seed);
                (Source::Ior(cfg), None, size / 5, 1)
            }
            "campaign-mix" => {
                let mut cfg = CampaignConfig::paper_mix(32, scale.bytes(128 * MIB), 16 * KIB);
                cfg.seed = seed;
                let capacity = cfg.total_data_bytes() / 5;
                (Source::Campaign(cfg), None, capacity, 1)
            }
            _ => return None,
        };
        Some(Workload {
            tb: testbed(seed),
            config: S4dConfig::new(capacity).with_shards(shards),
            prefill,
            source,
        })
    }

    /// The measured runner over a fresh cluster and cache, which the
    /// prefill (if any) has run on and been drained from first.
    pub fn runner(&self) -> Runner<S4dCache> {
        let mut cluster = self.tb.cluster();
        let mut mw = S4dCache::new(self.config.clone(), self.tb.cost_params());
        if let Some(prefill) = &self.prefill {
            let mut first = Runner::new(cluster, mw, prefill.scripts(), self.tb.seed);
            let end = first.run().end_time;
            first.drain_background(end);
            (cluster, mw, _) = first.into_parts();
        }
        Runner::new(cluster, mw, self.source.scripts(), self.tb.seed ^ 1)
    }
}
