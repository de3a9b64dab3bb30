//! The request stream the paper's three benchmarks share.
//!
//! Every process of IOR (§V.B), HPIO (§V.C) and MPI-Tile-IO (§V.D) runs the
//! same stream on one shared file: open, barrier, a write phase, barrier, a
//! read phase, close. The benchmarks differ only in where request `i` of a
//! phase lands — always `start + slot(i) × stride` — so each config builds
//! one `Requests` per rank and [`PhasedScript`] plays it out.

use s4d_mpiio::{AppOp, FileHandle, ProcessScript};
use s4d_storage::IoKind;

use crate::perm::Permutation;

/// The `count` requests of each phase: request `i` covers `len` bytes at
/// `start + slot(i) × stride`, where `slot(i)` is `perm(i)`, or `i` when
/// there is no permutation.
#[derive(Debug, Clone)]
pub(crate) struct Requests {
    pub(crate) count: u64,
    pub(crate) start: u64,
    pub(crate) stride: u64,
    pub(crate) len: u64,
    pub(crate) perm: Option<Permutation>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Open,
    OpenBarrier,
    Write,
    WriteBarrier,
    Read,
    Close,
    Done,
}

/// One process's lazy operation stream: open, barrier, `count` writes,
/// barrier, `count` reads, close. A skipped I/O phase keeps its barrier.
/// Built by [`IorConfig::script`](crate::IorConfig::script),
/// [`HpioConfig::script`](crate::HpioConfig::script) and
/// [`TileIoConfig::script`](crate::TileIoConfig::script).
#[derive(Debug, Clone)]
pub struct PhasedScript {
    name: String,
    requests: Requests,
    do_write: bool,
    do_read: bool,
    phase: Phase,
    /// Index of the next request within the current I/O phase.
    next: u64,
}

impl PhasedScript {
    pub(crate) fn new(name: &str, requests: Requests, do_write: bool, do_read: bool) -> Self {
        PhasedScript {
            name: name.to_owned(),
            requests,
            do_write,
            do_read,
            phase: Phase::Open,
            next: 0,
        }
    }

    /// Request `next` of the current I/O phase; advances the cursor.
    fn io(&mut self, kind: IoKind) -> AppOp {
        let i = self.next;
        self.next += 1;
        let r = &self.requests;
        let slot = r.perm.as_ref().map_or(i, |p| p.apply(i));
        AppOp::Io {
            handle: FileHandle(0),
            kind,
            offset: r.start + slot * r.stride,
            len: r.len,
            data: None,
        }
    }
}

impl ProcessScript for PhasedScript {
    fn next_op(&mut self) -> Option<AppOp> {
        let count = self.requests.count;
        loop {
            match self.phase {
                Phase::Open => {
                    self.phase = Phase::OpenBarrier;
                    return Some(AppOp::Open {
                        name: self.name.clone(),
                    });
                }
                Phase::OpenBarrier => {
                    self.phase = if self.do_write {
                        Phase::Write
                    } else {
                        Phase::WriteBarrier
                    };
                    return Some(AppOp::Barrier);
                }
                Phase::Write if self.next < count => return Some(self.io(IoKind::Write)),
                Phase::Write => {
                    self.phase = Phase::WriteBarrier;
                    self.next = 0;
                }
                Phase::WriteBarrier => {
                    self.phase = if self.do_read {
                        Phase::Read
                    } else {
                        Phase::Close
                    };
                    return Some(AppOp::Barrier);
                }
                Phase::Read if self.next < count => return Some(self.io(IoKind::Read)),
                Phase::Read => self.phase = Phase::Close,
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

/// Every op of `s`, in order.
#[cfg(test)]
pub(crate) fn drain(mut s: PhasedScript) -> Vec<AppOp> {
    std::iter::from_fn(|| s.next_op()).collect()
}
