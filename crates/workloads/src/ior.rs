//! The IOR benchmark (LLNL), as used in the paper's §V.B.
//!
//! `n` MPI processes share one file; process `p` owns the `p`-th `1/n`
//! region and continuously issues fixed-size requests at sequential or
//! random offsets within it. A write phase and a read phase are separated
//! by barriers, like IOR's own phases.

use crate::perm::Permutation;
use crate::phased::{PhasedScript, Requests};

/// Offset ordering within a process's region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Ascending offsets.
    Sequential,
    /// A seeded random permutation of the request-aligned offsets.
    Random,
}

impl std::fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessPattern::Sequential => "sequential",
            AccessPattern::Random => "random",
        })
    }
}

/// Configuration of one IOR instance.
#[derive(Debug, Clone, PartialEq)]
pub struct IorConfig {
    /// Shared file name.
    pub file_name: String,
    /// Total shared-file size; each process works on `1/processes` of it.
    pub file_size: u64,
    /// Number of MPI processes.
    pub processes: u32,
    /// Request size in bytes.
    pub request_size: u64,
    /// Sequential or random offsets.
    pub pattern: AccessPattern,
    /// Run the write phase.
    pub do_write: bool,
    /// Run the read phase.
    pub do_read: bool,
    /// Seed for the random pattern.
    pub seed: u64,
}

impl IorConfig {
    /// A baseline configuration matching the paper's defaults (§V.B):
    /// shared 2 GB file, 32 processes, 16 KiB requests, write + read.
    pub fn paper_default(file_name: impl Into<String>, pattern: AccessPattern) -> Self {
        IorConfig {
            file_name: file_name.into(),
            file_size: 2 << 30,
            processes: 32,
            request_size: 16 * 1024,
            pattern,
            do_write: true,
            do_read: true,
            seed: 0x5eed,
        }
    }

    /// Requests each process issues per phase.
    pub fn requests_per_process(&self) -> u64 {
        self.region_size() / self.request_size
    }

    /// The size of one process's region.
    pub fn region_size(&self) -> u64 {
        self.file_size / self.processes as u64
    }

    /// Builds the per-process scripts.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero processes, request size
    /// of zero, or a region smaller than one request).
    pub fn scripts(&self) -> Vec<PhasedScript> {
        assert!(self.processes > 0, "IOR needs at least one process");
        assert!(self.request_size > 0, "request size must be positive");
        assert!(
            self.region_size() >= self.request_size,
            "each process region must fit at least one request"
        );
        (0..self.processes).map(|r| self.script(r)).collect()
    }

    /// The stream of one rank: `requests_per_process` requests over the
    /// rank's region, ascending or in a permutation seeded per rank.
    pub fn script(&self, rank: u32) -> PhasedScript {
        let count = self.requests_per_process();
        let seed = (self.seed ^ ((rank as u64) << 32)) | rank as u64;
        let random = self.pattern == AccessPattern::Random;
        let perm = random.then(|| Permutation::new(count.max(1), seed));
        let requests = Requests {
            count,
            start: rank as u64 * self.region_size(),
            stride: self.request_size,
            len: self.request_size,
            perm,
        };
        PhasedScript::new(&self.file_name, requests, self.do_write, self.do_read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phased::drain;
    use s4d_mpiio::AppOp;
    use s4d_storage::IoKind;

    fn cfg(pattern: AccessPattern) -> IorConfig {
        IorConfig {
            file_name: "shared".into(),
            file_size: 1024 * 1024,
            processes: 4,
            request_size: 64 * 1024,
            pattern,
            do_write: true,
            do_read: true,
            seed: 1,
        }
    }

    #[test]
    fn geometry() {
        let c = cfg(AccessPattern::Sequential);
        assert_eq!(c.region_size(), 256 * 1024);
        assert_eq!(c.requests_per_process(), 4);
        assert_eq!(c.scripts().len(), 4);
    }

    #[test]
    fn sequential_structure() {
        let ops = drain(cfg(AccessPattern::Sequential).script(1));
        // open, barrier, 4 writes, barrier, 4 reads, close
        assert_eq!(ops.len(), 12);
        assert!(matches!(ops[0], AppOp::Open { .. }));
        assert!(matches!(ops[1], AppOp::Barrier));
        let offsets: Vec<u64> = ops[2..6]
            .iter()
            .map(|op| match op {
                AppOp::Io { kind, offset, .. } => {
                    assert_eq!(*kind, IoKind::Write);
                    *offset
                }
                other => panic!("expected write, got {other:?}"),
            })
            .collect();
        // Rank 1's region starts at 256 KiB; sequential ascending.
        assert_eq!(
            offsets,
            vec![256 * 1024, 320 * 1024, 384 * 1024, 448 * 1024]
        );
        assert!(matches!(ops[6], AppOp::Barrier));
        assert!(matches!(ops[11], AppOp::Close { .. }));
    }

    #[test]
    fn random_covers_region_exactly_once() {
        let ops = drain(cfg(AccessPattern::Random).script(2));
        let mut offsets: Vec<u64> = ops
            .iter()
            .filter_map(|op| match op {
                AppOp::Io {
                    kind: IoKind::Write,
                    offset,
                    ..
                } => Some(*offset),
                _ => None,
            })
            .collect();
        offsets.sort_unstable();
        assert_eq!(
            offsets,
            vec![512 * 1024, 576 * 1024, 640 * 1024, 704 * 1024],
            "random order still covers every slot once"
        );
    }

    #[test]
    fn read_only_instance_skips_write_phase() {
        let mut c = cfg(AccessPattern::Sequential);
        c.do_write = false;
        let ops = drain(c.script(0));
        // open, barrier, barrier, 4 reads, close
        let writes = ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    AppOp::Io {
                        kind: IoKind::Write,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(writes, 0);
        let reads = ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    AppOp::Io {
                        kind: IoKind::Read,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(reads, 4);
    }

    #[test]
    fn write_only_instance_skips_read_phase() {
        let mut c = cfg(AccessPattern::Sequential);
        c.do_read = false;
        let ops = drain(c.script(0));
        let reads = ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    AppOp::Io {
                        kind: IoKind::Read,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(reads, 0);
    }

    #[test]
    fn paper_default_dimensions() {
        let c = IorConfig::paper_default("f", AccessPattern::Random);
        assert_eq!(c.processes, 32);
        assert_eq!(c.request_size, 16 * 1024);
        assert_eq!(c.file_size, 2 << 30);
        assert_eq!(AccessPattern::Random.to_string(), "random");
        assert_eq!(AccessPattern::Sequential.to_string(), "sequential");
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn rejects_degenerate_geometry() {
        let mut c = cfg(AccessPattern::Sequential);
        c.request_size = 2 * 1024 * 1024;
        c.scripts();
    }
}
