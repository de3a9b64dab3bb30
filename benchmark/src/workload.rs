//! The five named workloads and how their inputs are made from a seed.
//!
//! All use the paper's testbed (8 HDD DServers, 4 SSD CServers, 64 KiB
//! stripes, GbE) and a closed loop of 32 simulated MPI processes, each
//! issuing its next request when the previous one completes: a write
//! phase, a barrier, then a read phase. The seed feeds `Testbed.seed`
//! (device and placement noise), `IorConfig.seed` and
//! `CampaignConfig.seed` (the random offset permutations).

use s4d::bench::{testbed, Testbed};
use s4d::cache::S4dConfig;
use s4d::mpiio::ProcessScript;
use s4d::workloads::campaign::CampaignConfig;
use s4d::workloads::{AccessPattern, IorConfig};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;
const GIB: u64 = 1024 * MIB;

/// Simulated MPI processes of every workload.
pub const PROCESSES: u32 = 32;

/// Workload names with the reason each is in the benchmark, in the order
/// they are run and printed. `BENCHMARK.json` carries the same list.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "ior-rand-16k",
        "paper headline: every 16 KiB random request is critical and the cache is 5x over-subscribed, so identify, admit, evict, journal and the Rebuilder all run hot",
    ),
    (
        "ior-rand-16k-s16",
        "same requests over 16 metadata shards: the measured A/B for whether the shard plane earns its keep",
    ),
    (
        "ior-seq-4m",
        "the bypass: 4 MiB sequential requests are never critical, so the runner, pfs split, event queue and device models do the host work and the cache core almost none",
    ),
    (
        "warm-rerun-16k",
        "working set fits: overwrites of mapped extents and full-hit reads on a prefilled cache, i.e. the lookup, mark-dirty, flush and CServer-read paths without admission or eviction",
    ),
    (
        "campaign-mix",
        "the paper's own mix of 6 sequential and 4 random IOR instances over 10 files: the pattern shifts over time and eviction crosses files",
    ),
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
            v.into_iter()
                .map(|s| Box::new(s) as Box<dyn ProcessScript>)
                .collect()
        }
        match self {
            Source::Ior(cfg) => boxed(cfg.scripts()),
            Source::Campaign(cfg) => boxed(cfg.scripts()),
        }
    }

    /// The same requests restricted to the read phase (the re-read after
    /// recovery in the verification pass).
    pub fn read_only(&self) -> Source {
        match self {
            Source::Ior(cfg) => Source::Ior(IorConfig {
                do_write: false,
                ..cfg.clone()
            }),
            Source::Campaign(cfg) => Source::Campaign(CampaignConfig {
                do_write: false,
                ..cfg.clone()
            }),
        }
    }

    /// Application requests the scripts issue: computed from the
    /// configuration, never from a run's report.
    pub fn requests(&self) -> u64 {
        let phases = |w: bool, r: bool| u64::from(w) + u64::from(r);
        match self {
            Source::Ior(cfg) => requests_per_phase(cfg) * phases(cfg.do_write, cfg.do_read),
            Source::Campaign(cfg) => cfg
                .instances()
                .iter()
                .map(|i| requests_per_phase(i) * phases(i.do_write, i.do_read))
                .sum(),
        }
    }
}

fn requests_per_phase(cfg: &IorConfig) -> u64 {
    cfg.requests_per_process() * u64::from(cfg.processes)
}

/// One workload with all its inputs fixed.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub tb: Testbed,
    pub config: S4dConfig,
    /// Untimed first run (followed by a background drain) on the same
    /// cluster and middleware; only `warm-rerun-16k` has one.
    pub prefill: Option<Source>,
    /// The measured scripts.
    pub source: Source,
}

fn ior(file: &str, size: u64, request: u64, pattern: AccessPattern, seed: u64) -> IorConfig {
    IorConfig {
        file_name: file.into(),
        file_size: size,
        processes: PROCESSES,
        request_size: request,
        pattern,
        do_write: true,
        do_read: true,
        seed,
    }
}

/// How much data a workload moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The comparable size: roughly a second of host time per repetition
    /// and at least 65,536 latency samples per direction.
    Full,
    /// 1/8 of it, for `--quick`.
    Quick,
    /// The verification pass, which carries real bytes on a functional
    /// cluster: 1/32 (32–40 MiB of data) for the 16 KiB workloads,
    /// 1/1024 (256 MiB, two requests per process) for the 4 MiB one.
    Verify,
}

impl Workload {
    /// Builds the named workload from `seed` at `scale`.
    pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
        let (name, _) = *WORKLOADS.iter().find(|(n, _)| *n == name)?;
        let div = match (scale, name) {
            (Scale::Full, _) => 1,
            (Scale::Quick, _) => 8,
            (Scale::Verify, "ior-seq-4m") => 1024,
            (Scale::Verify, _) => 32,
        };
        let rand16k = |seed| {
            ior(
                "ior-rand.dat",
                GIB / div,
                16 * KIB,
                AccessPattern::Random,
                seed,
            )
        };
        let (source, prefill, capacity, shards) = match name {
            "ior-rand-16k" => (Source::Ior(rand16k(seed)), None, GIB / div / 5, 1),
            "ior-rand-16k-s16" => (Source::Ior(rand16k(seed)), None, GIB / div / 5, 16),
            "ior-seq-4m" => {
                let size = 256 * GIB / div;
                let cfg = ior(
                    "ior-seq.dat",
                    size,
                    4 * MIB,
                    AccessPattern::Sequential,
                    seed,
                );
                (Source::Ior(cfg), None, size / 5, 1)
            }
            "warm-rerun-16k" => (
                Source::Ior(rand16k(seed ^ 1)),
                Some(Source::Ior(rand16k(seed))),
                2 * GIB / div,
                1,
            ),
            "campaign-mix" => {
                let mut cfg = CampaignConfig::paper_mix(PROCESSES, 128 * MIB / div, 16 * KIB);
                cfg.seed = seed;
                let capacity = cfg.total_data_bytes() / 5;
                (Source::Campaign(cfg), None, capacity, 1)
            }
            _ => return None,
        };
        Some(Workload {
            name,
            tb: testbed(seed),
            config: S4dConfig::new(capacity).with_shards(shards),
            prefill,
            source,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4d::mpiio::AppOp;

    #[test]
    fn every_named_workload_builds_and_counts_its_requests() {
        for (name, _) in WORKLOADS {
            let w = Workload::build(name, 7, Scale::Verify).expect("named workload");
            let mut ios = 0;
            for mut s in w.source.scripts() {
                while let Some(op) = s.next_op() {
                    ios += u64::from(matches!(op, AppOp::Io { .. }));
                }
            }
            assert_eq!(ios, w.source.requests(), "{name}");
            assert_eq!(w.source.read_only().requests() * 2, ios, "{name}");
        }
        assert!(Workload::build("nope", 7, Scale::Full).is_none());
    }

    #[test]
    fn full_size_runs_give_65536_samples_per_direction() {
        for (name, _) in WORKLOADS {
            let w = Workload::build(name, 7, Scale::Full).expect("named workload");
            assert!(w.source.requests() / 2 >= 65_536, "{name}");
        }
    }

    #[test]
    fn the_seed_reaches_testbed_and_scripts() {
        let a = Workload::build("ior-rand-16k", 7, Scale::Verify).expect("builds");
        let b = Workload::build("ior-rand-16k", 8, Scale::Verify).expect("builds");
        assert_ne!(a.tb.seed, b.tb.seed);
        let first_io = |w: &Workload| {
            let mut s = w.source.scripts().remove(0);
            std::iter::from_fn(|| s.next_op()).find(|op| matches!(op, AppOp::Io { .. }))
        };
        assert_ne!(first_io(&a), first_io(&b));
    }
}
