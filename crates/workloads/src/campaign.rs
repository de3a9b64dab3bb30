//! The paper's mixed IOR campaign (§V.B).
//!
//! "To simulate different data access patterns at different moments, 10
//! instances of IOR are created one by one with different parameters.
//! Among these instances, six issue sequential I/O requests and the
//! remaining send random I/O requests. In each instance, the test performs
//! write and read operations to a shared 2 GB file."

use s4d_mpiio::ProcessScript;

use crate::chain::ChainScript;
use crate::ior::{AccessPattern, IorConfig};

/// Parameters of the campaign; instance patterns default to the paper's
/// six-sequential + four-random mix, interleaved so the access behaviour
/// changes over time.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Number of MPI processes (the paper uses 32).
    pub processes: u32,
    /// Shared-file size per instance (the paper uses 2 GB).
    pub file_size: u64,
    /// Request size (the paper defaults to 16 KiB).
    pub request_size: u64,
    /// The per-instance access patterns, in execution order.
    pub patterns: Vec<AccessPattern>,
    /// Run write phases.
    pub do_write: bool,
    /// Run read phases.
    pub do_read: bool,
    /// Base seed for the random instances.
    pub seed: u64,
}

impl CampaignConfig {
    /// The paper's default mix: 10 instances, 6 sequential and 4 random,
    /// interleaved.
    pub fn paper_mix(processes: u32, file_size: u64, request_size: u64) -> Self {
        use AccessPattern::{Random, Sequential};
        CampaignConfig {
            processes,
            file_size,
            request_size,
            patterns: vec![
                Sequential, Random, Sequential, Sequential, Random, Sequential, Random, Sequential,
                Sequential, Random,
            ],
            do_write: true,
            do_read: true,
            seed: 0xCA4A,
        }
    }

    /// Total application data across all instances (the paper sizes the
    /// cache at 20 % of this).
    pub fn total_data_bytes(&self) -> u64 {
        self.patterns.len() as u64 * self.file_size
    }

    /// The per-instance IOR configurations, one shared file each.
    pub fn instances(&self) -> Vec<IorConfig> {
        self.patterns
            .iter()
            .enumerate()
            .map(|(i, &pattern)| IorConfig {
                file_name: format!("ior_instance_{i:02}.dat"),
                file_size: self.file_size,
                processes: self.processes,
                request_size: self.request_size,
                pattern,
                do_write: self.do_write,
                do_read: self.do_read,
                seed: self.seed.wrapping_add(i as u64 * 0x9E37),
            })
            .collect()
    }

    /// Builds one chained script per process covering every instance.
    pub fn scripts(&self) -> Vec<ChainScript> {
        chain_instances(&self.instances(), self.processes)
    }
}

/// One script per rank `0..processes` that runs each instance's stream for
/// that rank in turn, a barrier between consecutive instances.
pub fn chain_instances(instances: &[IorConfig], processes: u32) -> Vec<ChainScript> {
    (0..processes)
        .map(|rank| {
            let parts = instances
                .iter()
                .map(|cfg| Box::new(cfg.script(rank)) as Box<dyn ProcessScript>)
                .collect();
            ChainScript::new(parts)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4d_mpiio::{AppOp, ProcessScript};
    use s4d_storage::IoKind;

    #[test]
    fn paper_mix_composition() {
        let c = CampaignConfig::paper_mix(32, 2 << 30, 16 * 1024);
        assert_eq!(c.patterns.len(), 10);
        let seq = c
            .patterns
            .iter()
            .filter(|p| **p == AccessPattern::Sequential)
            .count();
        assert_eq!(seq, 6);
        assert_eq!(c.total_data_bytes(), 10 * (2 << 30));
        assert_eq!(c.instances().len(), 10);
        assert_eq!(c.scripts().len(), 32);
    }

    #[test]
    fn instances_have_distinct_files_and_seeds() {
        let c = CampaignConfig::paper_mix(4, 1 << 20, 64 * 1024);
        let inst = c.instances();
        let names: std::collections::HashSet<_> =
            inst.iter().map(|i| i.file_name.clone()).collect();
        assert_eq!(names.len(), 10);
        let seeds: std::collections::HashSet<_> = inst.iter().map(|i| i.seed).collect();
        assert_eq!(seeds.len(), 10);
    }

    #[test]
    fn chained_script_walks_all_instances() {
        let mut c = CampaignConfig::paper_mix(2, 512 * 1024, 64 * 1024);
        c.patterns.truncate(3);
        let mut s = c.scripts().remove(0);
        let mut opens = Vec::new();
        let mut ios = 0;
        while let Some(op) = s.next_op() {
            match op {
                AppOp::Open { name } => opens.push(name),
                AppOp::Io { kind, .. } => {
                    assert!(matches!(kind, IoKind::Write | IoKind::Read));
                    ios += 1;
                }
                _ => {}
            }
        }
        assert_eq!(opens.len(), 3);
        assert!(opens[0].contains("00"));
        assert!(opens[2].contains("02"));
        // Per instance: region 256 KiB / 64 KiB = 4 requests, write + read.
        assert_eq!(ios, 3 * 8);
    }
}
