//! The HPIO benchmark (Northwestern/Sandia), paper §V.C.
//!
//! HPIO generates noncontiguous file access: each process touches
//! `region_count` regions of `region_size` bytes, consecutive regions
//! separated by `region_spacing` bytes of skipped file space. Zero spacing
//! degenerates to a contiguous (sequential) pattern, exactly the knob the
//! paper turns in Fig. 9.

use s4d_mpiio::{AppOp, FileHandle, ProcessScript};
use s4d_storage::IoKind;

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
    pub fn scripts(&self) -> Vec<HpioScript> {
        assert!(self.processes > 0, "HPIO needs at least one process");
        assert!(self.region_count > 0, "region count must be positive");
        assert!(self.region_size > 0, "region size must be positive");
        (0..self.processes)
            .map(|rank| HpioScript::new(self.clone(), rank))
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Open,
    OpenBarrier,
    Write(u64),
    WriteBarrier,
    Read(u64),
    Close,
    Done,
}

/// The lazy per-process HPIO operation stream.
#[derive(Debug, Clone)]
pub struct HpioScript {
    cfg: HpioConfig,
    rank: u32,
    phase: Phase,
}

impl HpioScript {
    /// Creates the script for one rank.
    pub fn new(cfg: HpioConfig, rank: u32) -> Self {
        HpioScript {
            cfg,
            rank,
            phase: Phase::Open,
        }
    }

    fn offset_for(&self, i: u64) -> u64 {
        self.rank as u64 * self.cfg.process_span()
            + i * (self.cfg.region_size + self.cfg.region_spacing)
    }

    fn io(&self, kind: IoKind, i: u64) -> AppOp {
        AppOp::Io {
            handle: FileHandle(0),
            kind,
            offset: self.offset_for(i),
            len: self.cfg.region_size,
            data: None,
        }
    }
}

impl ProcessScript for HpioScript {
    fn next_op(&mut self) -> Option<AppOp> {
        loop {
            match self.phase {
                Phase::Open => {
                    self.phase = Phase::OpenBarrier;
                    return Some(AppOp::Open {
                        name: self.cfg.file_name.clone(),
                    });
                }
                Phase::OpenBarrier => {
                    self.phase = if self.cfg.do_write {
                        Phase::Write(0)
                    } else {
                        Phase::WriteBarrier
                    };
                    return Some(AppOp::Barrier);
                }
                Phase::Write(i) => {
                    if i < self.cfg.region_count {
                        self.phase = Phase::Write(i + 1);
                        return Some(self.io(IoKind::Write, i));
                    }
                    self.phase = Phase::WriteBarrier;
                }
                Phase::WriteBarrier => {
                    self.phase = if self.cfg.do_read {
                        Phase::Read(0)
                    } else {
                        Phase::Close
                    };
                    return Some(AppOp::Barrier);
                }
                Phase::Read(i) => {
                    if i < self.cfg.region_count {
                        self.phase = Phase::Read(i + 1);
                        return Some(self.io(IoKind::Read, i));
                    }
                    self.phase = Phase::Close;
                }
                Phase::Close => {
                    self.phase = Phase::Done;
                    return Some(AppOp::Close {
                        handle: FileHandle(0),
                    });
                }
                Phase::Done => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut s: HpioScript) -> Vec<AppOp> {
        let mut ops = Vec::new();
        while let Some(op) = s.next_op() {
            ops.push(op);
        }
        ops
    }

    #[test]
    fn zero_spacing_is_contiguous() {
        let mut c = HpioConfig::paper_default("f", 0);
        c.region_count = 4;
        c.processes = 2;
        let ops = drain(HpioScript::new(c, 0));
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
        let ops = drain(HpioScript::new(c, 0));
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
        let last_of_rank0 = {
            let s = HpioScript::new(c.clone(), 0);
            s.offset_for(3) + c.region_size
        };
        let first_of_rank1 = HpioScript::new(c, 1).offset_for(0);
        assert!(last_of_rank0 <= first_of_rank1);
        assert_eq!(first_of_rank1, span);
    }

    #[test]
    fn phases_and_counts() {
        let mut c = HpioConfig::paper_default("f", 0);
        c.region_count = 5;
        let ops = drain(HpioScript::new(c, 0));
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
