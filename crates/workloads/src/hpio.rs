//! The HPIO benchmark (Northwestern/Sandia), paper §V.C.
//!
//! HPIO generates noncontiguous file access: each process touches
//! `region_count` regions of `region_size` bytes, consecutive regions
//! separated by `region_spacing` bytes of skipped file space. Zero spacing
//! degenerates to a contiguous (sequential) pattern, exactly the knob the
//! paper turns in Fig. 9.

use crate::phased::{PhasedScript, Requests};

/// Configuration of one HPIO run.
#[derive(Debug, Clone, PartialEq)]
pub struct HpioConfig {
    /// Shared file name.
    pub file_name: String,
    /// Number of MPI processes.
    pub processes: u32,
    /// Regions each process accesses (the paper uses 4096).
    pub region_count: u64,
    /// Region size in bytes (the paper uses 8 KiB).
    pub region_size: u64,
    /// Hole between consecutive regions (the paper sweeps 0–4 KiB).
    pub region_spacing: u64,
    /// Run the write phase.
    pub do_write: bool,
    /// Run the read phase.
    pub do_read: bool,
}

impl HpioConfig {
    /// The paper's §V.C setup: 16 processes, 4096 regions of 8 KiB.
    pub fn paper_default(file_name: impl Into<String>, region_spacing: u64) -> Self {
        HpioConfig {
            file_name: file_name.into(),
            processes: 16,
            region_count: 4096,
            region_size: 8 * 1024,
            region_spacing,
            do_write: true,
            do_read: true,
        }
    }

    /// File span of one process (regions plus holes).
    pub fn process_span(&self) -> u64 {
        self.region_count * (self.region_size + self.region_spacing)
    }

    /// Data bytes each process moves per phase.
    pub fn process_bytes(&self) -> u64 {
        self.region_count * self.region_size
    }

    /// Builds the per-process scripts.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (zero processes, regions, or region
    /// size).
    pub fn scripts(&self) -> Vec<PhasedScript> {
        assert!(self.processes > 0, "HPIO needs at least one process");
        assert!(self.region_count > 0, "region count must be positive");
        assert!(self.region_size > 0, "region size must be positive");
        (0..self.processes).map(|r| self.script(r)).collect()
    }

    /// The stream of one rank: its `region_count` regions, ascending, in
    /// its own `process_span` of the file.
    pub fn script(&self, rank: u32) -> PhasedScript {
        let requests = Requests {
            count: self.region_count,
            start: rank as u64 * self.process_span(),
            stride: self.region_size + self.region_spacing,
            len: self.region_size,
            perm: None,
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

    #[test]
    fn zero_spacing_is_contiguous() {
        let mut c = HpioConfig::paper_default("f", 0);
        c.region_count = 4;
        c.processes = 2;
        let ops = drain(c.script(0));
        let offsets: Vec<u64> = ops
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
        assert_eq!(offsets, vec![0, 8192, 16384, 24576]);
    }

    #[test]
    fn spacing_creates_holes() {
        let mut c = HpioConfig::paper_default("f", 4096);
        c.region_count = 3;
        let ops = drain(c.script(0));
        let offsets: Vec<u64> = ops
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
        assert_eq!(offsets, vec![0, 12288, 24576]);
    }

    #[test]
    fn processes_are_disjoint() {
        let mut c = HpioConfig::paper_default("f", 1024);
        c.region_count = 4;
        let span = c.process_span();
        let write_offsets = |rank| {
            drain(c.script(rank))
                .into_iter()
                .filter_map(|op| match op {
                    AppOp::Io {
                        kind: IoKind::Write,
                        offset,
                        ..
                    } => Some(offset),
                    _ => None,
                })
                .collect::<Vec<u64>>()
        };
        let last_of_rank0 = write_offsets(0).into_iter().max().unwrap() + c.region_size;
        let first_of_rank1 = write_offsets(1).into_iter().min().unwrap();
        assert!(last_of_rank0 <= first_of_rank1);
        assert_eq!(first_of_rank1, span);
    }

    #[test]
    fn phases_and_counts() {
        let mut c = HpioConfig::paper_default("f", 0);
        c.region_count = 5;
        let ops = drain(c.script(0));
        let writes = ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    AppOp::Io {
                        kind: IoKind::Write,
                        ..
                    }
                )
            })
            .count();
        let reads = ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    AppOp::Io {
                        kind: IoKind::Read,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(writes, 5);
        assert_eq!(reads, 5);
        assert_eq!(
            ops.iter().filter(|o| matches!(o, AppOp::Barrier)).count(),
            2
        );
    }

    #[test]
    fn paper_defaults() {
        let c = HpioConfig::paper_default("f", 2048);
        assert_eq!(c.processes, 16);
        assert_eq!(c.region_count, 4096);
        assert_eq!(c.region_size, 8 * 1024);
        assert_eq!(c.process_bytes(), 32 * 1024 * 1024);
        assert_eq!(c.scripts().len(), 16);
    }

    #[test]
    #[should_panic(expected = "region size must be positive")]
    fn rejects_zero_region() {
        let mut c = HpioConfig::paper_default("f", 0);
        c.region_size = 0;
        c.scripts();
    }
}
