//! A checkpoint-style mixed workload.
//!
//! The paper's introduction motivates S4D-Cache with data-intensive HPC
//! applications whose I/O mixes bulk output with small scattered records.
//! This generator models that directly: each round, every process computes,
//! writes one large sequential slice of a checkpoint file, and then writes
//! a burst of small records at scattered offsets of a shared state file.
//! It is the cleanest showcase of the selective policy — the two request
//! classes have opposite optimal placements — and is used by the
//! `checkpoint_burst` example and the ablation tests.

use s4d_mpiio::{AppOp, FileHandle, ProcessScript};
use s4d_sim::SimDuration;
use s4d_storage::IoKind;

use crate::perm::Permutation;

/// Configuration of the checkpoint workload.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Bulk checkpoint file name.
    pub dump_file: String,
    /// Scattered-record state file name.
    pub state_file: String,
    /// Number of MPI processes.
    pub processes: u32,
    /// Compute → dump → records rounds.
    pub rounds: u32,
    /// Size of each process's sequential dump slice per round.
    pub dump_slice: u64,
    /// Size of one state record.
    pub record_size: u64,
    /// Records each process scatters per round.
    pub records_per_round: u32,
    /// Span of the state file the records scatter over.
    pub state_span: u64,
    /// Compute time per round.
    pub think: SimDuration,
    /// Seed for the scatter pattern.
    pub seed: u64,
}

impl CheckpointConfig {
    /// A representative configuration: 16 processes, 6 rounds, 8 MiB dump
    /// slices, 64 scattered 16 KiB records per round over a 1 GiB state
    /// file.
    pub fn representative(processes: u32) -> Self {
        CheckpointConfig {
            dump_file: "checkpoint.dat".into(),
            state_file: "state.db".into(),
            processes,
            rounds: 6,
            dump_slice: 8 << 20,
            record_size: 16 * 1024,
            records_per_round: 64,
            state_span: 1 << 30,
            think: SimDuration::from_millis(200),
            seed: 0xC4EC,
        }
    }

    /// Total bytes written by the whole job.
    pub fn total_bytes(&self) -> u64 {
        let per_proc_round = self.dump_slice + self.record_size * self.records_per_round as u64;
        per_proc_round * self.processes as u64 * self.rounds as u64
    }

    /// Builds the per-process scripts.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (zero processes/rounds/sizes, or a
    /// state span smaller than one record).
    pub fn scripts(&self) -> Vec<CheckpointScript> {
        assert!(self.processes > 0, "need at least one process");
        assert!(self.rounds > 0, "need at least one round");
        assert!(
            self.dump_slice > 0 && self.record_size > 0,
            "sizes must be positive"
        );
        assert!(
            self.state_span >= self.record_size,
            "state span must fit a record"
        );
        (0..self.processes)
            .map(|rank| CheckpointScript::new(self.clone(), rank))
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    OpenDump,
    OpenState,
    Think(u32),
    Dump(u32),
    Record(u32, u32),
    RoundBarrier(u32),
    CloseDump,
    CloseState,
    Done,
}

/// The lazy per-process checkpoint stream.
#[derive(Debug, Clone)]
pub struct CheckpointScript {
    cfg: CheckpointConfig,
    rank: u32,
    perm: Permutation,
    phase: Phase,
}

impl CheckpointScript {
    /// Creates the script for one rank.
    pub fn new(cfg: CheckpointConfig, rank: u32) -> Self {
        let slots = (cfg.state_span / cfg.record_size).max(1);
        let perm = Permutation::new(slots, cfg.seed ^ ((rank as u64) << 24));
        CheckpointScript {
            cfg,
            rank,
            perm,
            phase: Phase::OpenDump,
        }
    }

    fn record_offset(&self, round: u32, r: u32) -> u64 {
        let i = (round as u64 * self.cfg.records_per_round as u64 + r as u64) % self.perm.len();
        self.perm.apply(i) * self.cfg.record_size
    }
}

impl ProcessScript for CheckpointScript {
    fn next_op(&mut self) -> Option<AppOp> {
        loop {
            match self.phase {
                Phase::OpenDump => {
                    self.phase = Phase::OpenState;
                    return Some(AppOp::Open {
                        name: self.cfg.dump_file.clone(),
                    });
                }
                Phase::OpenState => {
                    self.phase = Phase::Think(0);
                    return Some(AppOp::Open {
                        name: self.cfg.state_file.clone(),
                    });
                }
                Phase::Think(round) => {
                    self.phase = Phase::Dump(round);
                    return Some(AppOp::Think {
                        duration: self.cfg.think,
                    });
                }
                Phase::Dump(round) => {
                    self.phase = Phase::Record(round, 0);
                    let offset = (round as u64 * self.cfg.processes as u64 + self.rank as u64)
                        * self.cfg.dump_slice;
                    return Some(AppOp::Io {
                        handle: FileHandle(0),
                        kind: IoKind::Write,
                        offset,
                        len: self.cfg.dump_slice,
                        data: None,
                    });
                }
                Phase::Record(round, r) => {
                    if r < self.cfg.records_per_round {
                        self.phase = Phase::Record(round, r + 1);
                        return Some(AppOp::Io {
                            handle: FileHandle(1),
                            kind: IoKind::Write,
                            offset: self.record_offset(round, r),
                            len: self.cfg.record_size,
                            data: None,
                        });
                    }
                    self.phase = Phase::RoundBarrier(round);
                }
                Phase::RoundBarrier(round) => {
                    self.phase = if round + 1 < self.cfg.rounds {
                        Phase::Think(round + 1)
                    } else {
                        Phase::CloseDump
                    };
                    return Some(AppOp::Barrier);
                }
                Phase::CloseDump => {
                    self.phase = Phase::CloseState;
                    return Some(AppOp::Close {
                        handle: FileHandle(0),
                    });
                }
                Phase::CloseState => {
                    self.phase = Phase::Done;
                    return Some(AppOp::Close {
                        handle: FileHandle(1),
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

    fn cfg() -> CheckpointConfig {
        let mut c = CheckpointConfig::representative(2);
        c.rounds = 2;
        c.records_per_round = 3;
        c
    }

    fn drain(mut s: CheckpointScript) -> Vec<AppOp> {
        let mut ops = Vec::new();
        while let Some(op) = s.next_op() {
            ops.push(op);
        }
        ops
    }

    #[test]
    fn structure_per_round() {
        let ops = drain(CheckpointScript::new(cfg(), 0));
        // 2 opens, then per round: think + dump + 3 records + barrier,
        // then 2 closes.
        let thinks = ops
            .iter()
            .filter(|o| matches!(o, AppOp::Think { .. }))
            .count();
        let barriers = ops.iter().filter(|o| matches!(o, AppOp::Barrier)).count();
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
        assert_eq!(thinks, 2);
        assert_eq!(barriers, 2);
        assert_eq!(writes, 2 * (1 + 3));
        assert!(matches!(ops[0], AppOp::Open { .. }));
        assert!(matches!(ops.last(), Some(AppOp::Close { .. })));
    }

    #[test]
    fn dumps_are_disjoint_and_sequential_per_round() {
        let c = cfg();
        for rank in 0..2 {
            let ops = drain(CheckpointScript::new(c.clone(), rank));
            let dumps: Vec<u64> = ops
                .iter()
                .filter_map(|o| match o {
                    AppOp::Io {
                        handle,
                        offset,
                        len,
                        ..
                    } if handle.0 == 0 => {
                        assert_eq!(*len, c.dump_slice);
                        Some(*offset)
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(dumps.len(), 2);
            // Round 1's slice is a full stride later.
            assert_eq!(dumps[1] - dumps[0], c.processes as u64 * c.dump_slice);
        }
    }

    #[test]
    fn records_scatter_without_repeats() {
        let c = cfg();
        let ops = drain(CheckpointScript::new(c.clone(), 1));
        let mut offsets: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                AppOp::Io { handle, offset, .. } if handle.0 == 1 => Some(*offset),
                _ => None,
            })
            .collect();
        assert_eq!(offsets.len(), 6);
        offsets.dedup();
        let unique: std::collections::HashSet<_> = offsets.iter().collect();
        assert_eq!(unique.len(), 6, "permutation avoids repeats");
        for off in offsets {
            assert_eq!(off % c.record_size, 0);
            assert!(off < c.state_span);
        }
    }

    #[test]
    fn accounting() {
        let c = cfg();
        assert_eq!(c.total_bytes(), 2 * 2 * ((8 << 20) + 3 * 16 * 1024));
        assert_eq!(c.scripts().len(), 2);
    }

    #[test]
    #[should_panic(expected = "state span")]
    fn rejects_tiny_span() {
        let mut c = cfg();
        c.state_span = 1;
        c.scripts();
    }
}
