//! Shared types of the middleware layer.

use s4d_pfs::{FileId, Priority};
use s4d_sim::SimDuration;
use s4d_storage::IoKind;

/// An MPI process rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rank(pub u32);

impl std::fmt::Display for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

/// A per-process handle to an opened file (index into the process's open
/// table, in open order — handle 0 is the first file the process opened).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileHandle(pub usize);

/// Which parallel file system an I/O targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The original PFS over HDD file servers (the paper's DServers/OPFS).
    DServers,
    /// The cache PFS over SSD file servers (the paper's CServers/CPFS).
    CServers,
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Tier::DServers => "DServers",
            Tier::CServers => "CServers",
        })
    }
}

/// One operation in an application process's script.
#[derive(Debug, Clone, PartialEq)]
pub enum AppOp {
    /// Open (creating if absent) the named file; the process receives the
    /// next [`FileHandle`] slot.
    Open {
        /// File name in the original file system's namespace.
        name: String,
    },
    /// Read or write `len` bytes at absolute `offset` of an open file.
    Io {
        /// Which open file.
        handle: FileHandle,
        /// Read or write.
        kind: IoKind,
        /// Absolute file offset.
        offset: u64,
        /// Length in bytes.
        len: u64,
        /// Write payload for functional (byte-accurate) runs; `None` in
        /// timing-only runs.
        data: Option<Vec<u8>>,
    },
    /// Set the process's file pointer for an open file (the paper's
    /// `MPI_File_seek`, §IV.B). Explicit-offset I/O ignores the pointer;
    /// cursor I/O ([`AppOp::IoAtCursor`]) starts here.
    Seek {
        /// Which open file.
        handle: FileHandle,
        /// New absolute position.
        offset: u64,
    },
    /// Read or write `len` bytes at the file pointer, advancing it —
    /// `MPI_File_read`/`write` in their individual-file-pointer form.
    IoAtCursor {
        /// Which open file.
        handle: FileHandle,
        /// Read or write.
        kind: IoKind,
        /// Length in bytes.
        len: u64,
        /// Write payload for functional runs.
        data: Option<Vec<u8>>,
    },
    /// Close an open file.
    Close {
        /// Which open file.
        handle: FileHandle,
    },
    /// Wait until every process reaches its next barrier.
    Barrier,
    /// Local computation for the given duration.
    Think {
        /// How long the process computes before its next operation.
        duration: SimDuration,
    },
}

/// A fully resolved application I/O request, as seen by middleware.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRequest {
    /// Issuing process.
    pub rank: Rank,
    /// The file, already resolved to the original file system's id.
    pub file: FileId,
    /// Read or write.
    pub kind: IoKind,
    /// Absolute offset in the original file.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Write payload (functional runs only).
    pub data: Option<Vec<u8>>,
}

/// One planned physical I/O produced by middleware for a request.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedIo {
    /// Target file system.
    pub tier: Tier,
    /// Target file within that tier (original file, cache file, or
    /// metadata journal).
    pub file: FileId,
    /// Read or write.
    pub kind: IoKind,
    /// Offset within `file`.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Service class at the file servers.
    pub priority: Priority,
    /// Write payload (functional runs only).
    pub data: Option<Vec<u8>>,
    /// For ops that carry a slice of the *application* request: the
    /// absolute offset in the original file where this op's bytes belong.
    /// `None` for overhead traffic such as metadata journal writes.
    pub app_offset: Option<u64>,
}

impl PlannedIo {
    /// A plain foreground data op on the given tier.
    pub fn data_op(
        tier: Tier,
        file: FileId,
        kind: IoKind,
        offset: u64,
        len: u64,
        app_offset: u64,
    ) -> Self {
        PlannedIo {
            tier,
            file,
            kind,
            offset,
            len,
            priority: Priority::Normal,
            data: None,
            app_offset: Some(app_offset),
        }
    }
}

/// An execution plan: phases run sequentially, ops within a phase run
/// concurrently. `tag` (when non-zero) is echoed to
/// [`crate::Middleware::on_plan_complete`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    /// Middleware-private identifier; 0 means "no completion callback".
    pub tag: u64,
    /// CPU time the middleware spent deciding (charged before phase 0;
    /// S4D-Cache uses this for its cost-model/lookup overhead, §V.E.2).
    pub lead_in: s4d_sim::SimDuration,
    /// The phases, outermost sequential, innermost concurrent.
    pub phases: Vec<Vec<PlannedIo>>,
    /// Per-sub-request deadline budget. When set, the runner arms a timer
    /// for every dispatched sub-request; one still outstanding when its
    /// budget lapses is reported to
    /// [`crate::Middleware::on_deadline`], which may hedge or abandon it.
    /// `None` (the default) disables deadline tracking for the plan.
    pub deadline: Option<SimDuration>,
}

impl Plan {
    /// A single-phase plan with no callback.
    pub fn single_phase(ops: Vec<PlannedIo>) -> Self {
        Plan {
            tag: 0,
            lead_in: s4d_sim::SimDuration::ZERO,
            phases: vec![ops],
            deadline: None,
        }
    }

    /// True if the plan contains no ops at all.
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(|p| p.is_empty())
    }
}

/// A sub-request that outlived its deadline budget, as reported to the
/// middleware by [`crate::Middleware::on_deadline`]. Carries enough
/// context to plan a hedged replacement against the other tier.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerCtx {
    /// Tier of the straggling server.
    pub tier: Tier,
    /// Index of the straggling server within its tier.
    pub server: usize,
    /// The tier-local file the straggler targets (cache file, original
    /// file, or metadata journal).
    pub file: FileId,
    /// Read or write.
    pub kind: IoKind,
    /// Length of the straggling sub-request in bytes.
    pub len: u64,
    /// The *application* file the plan belongs to, when the plan serves a
    /// process request (`None` for background plans).
    pub app_file: Option<FileId>,
    /// Absolute `(offset, len)` ranges of the application file carried by
    /// the straggler. Empty for overhead traffic (journal writes) — there
    /// is nothing to hedge, only wait or abandon.
    pub app_segments: Vec<(u64, u64)>,
    /// Attempts of the straggling sub-request so far (≥ 1).
    pub attempts: u32,
}

/// The middleware's verdict on a straggling sub-request (see
/// [`crate::Middleware::on_deadline`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum HedgeDirective {
    /// Keep waiting on the straggler (e.g. the cache holds the only copy
    /// of dirty bytes — there is nowhere else to read them from).
    #[default]
    Wait,
    /// Abandon the straggler and run the given replacement ops under the
    /// same plan — a hedged read against the other tier. The straggler's
    /// late completion, if any, is discarded idempotently.
    Hedge {
        /// Replacement ops covering the straggler's application bytes.
        ops: Vec<PlannedIo>,
    },
    /// Abandon the straggler and fail its plan: the request is re-planned
    /// from scratch with middleware state that now reflects the stall
    /// (health demerits, shed admissions), so the new plan routes around
    /// the straggling server.
    Abandon,
}

/// A failed sub-request, as reported to the middleware by the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubIoFailure {
    /// Tier of the failing server.
    pub tier: Tier,
    /// Index of the failing server within its tier.
    pub server: usize,
    /// Read or write.
    pub kind: IoKind,
    /// Length of the failed sub-request in bytes.
    pub len: u64,
    /// What went wrong.
    pub error: s4d_pfs::IoFault,
    /// How many times this sub-request has been attempted (≥ 1).
    pub attempts: u32,
    /// True for overhead traffic (metadata journal writes) rather than
    /// application or Rebuilder data.
    pub overhead: bool,
}

/// The middleware's verdict on a failed sub-request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorDirective {
    /// Resubmit the same sub-request to the same server after `delay`.
    Retry {
        /// Backoff before the resubmission.
        delay: SimDuration,
    },
    /// Stop retrying; the plan fails (the runner re-plans process
    /// requests through [`crate::Middleware::plan_io`], whose state now
    /// reflects the failure, and drops background plans).
    GiveUp,
}

/// Errors surfaced by middleware operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MiddlewareError {
    /// The process used a handle it never opened.
    BadHandle(Rank, FileHandle),
    /// An underlying file-system error.
    Pfs(s4d_pfs::PfsError),
}

impl std::fmt::Display for MiddlewareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MiddlewareError::BadHandle(rank, h) => {
                write!(f, "{rank} used unopened handle {}", h.0)
            }
            MiddlewareError::Pfs(e) => write!(f, "file system error: {e}"),
        }
    }
}

impl std::error::Error for MiddlewareError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MiddlewareError::Pfs(e) => Some(e),
            MiddlewareError::BadHandle(..) => None,
        }
    }
}

impl From<s4d_pfs::PfsError> for MiddlewareError {
    fn from(e: s4d_pfs::PfsError) -> Self {
        MiddlewareError::Pfs(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert_eq!(Rank(3).to_string(), "rank3");
        assert_eq!(Tier::DServers.to_string(), "DServers");
        assert_eq!(Tier::CServers.to_string(), "CServers");
        let e = MiddlewareError::BadHandle(Rank(1), FileHandle(2));
        assert!(e.to_string().contains("unopened handle 2"));
        let e: MiddlewareError = s4d_pfs::PfsError::EmptyRequest.into();
        assert!(e.to_string().contains("file system error"));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn plan_helpers() {
        let op = PlannedIo::data_op(Tier::DServers, FileId(1), IoKind::Write, 0, 100, 0);
        let plan = Plan::single_phase(vec![op.clone(), op]);
        assert!(!plan.is_empty());
        assert_eq!(plan.tag, 0);
        assert!(Plan::default().is_empty());
    }
}
